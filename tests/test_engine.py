"""Replica engine: visibility, statements, constraints, folding, ids."""

import itertools
import operator

import pytest

import aqldb.schema as sch
from aqldb.crdt import mv_assign, mv_merge
from aqldb.engine import (
    Cause,
    Replica,
    Row,
    RowView,
    Store,
    ViewContext,
    dump_all,
    dump_table,
    integrity_violations,
    is_visible,
)
from aqldb.errors import (
    AqlSyntaxError,
    CheckViolation,
    DuplicateKey,
    FkParentMissing,
    FkRestrict,
    RowNotFound,
    ValidationError,
)
from aqldb.txn import LockManager, TxStatus

MUSIC = """
CREATE UPDATE_WINS TABLE Artists (
  Name VARCHAR PRIMARY KEY,
  Active BOOLEAN LWW,
  Plays INT ADDITIVE
);
CREATE UPDATE_WINS TABLE Albums (
  Title VARCHAR PRIMARY KEY,
  Artist VARCHAR LWW FOREIGN KEY UPDATE_WINS REFERENCES Artists (Name) ON DELETE CASCADE,
  Genre VARCHAR MULTI_VALUE
);
CREATE UPDATE_WINS TABLE Reviews (
  Id INT PRIMARY KEY,
  Album VARCHAR LWW FOREIGN KEY UPDATE_WINS REFERENCES Albums (Title) ON DELETE CASCADE,
  Stars INT LWW CHECK (Stars >= 1 AND Stars <= 5)
);
CREATE UPDATE_WINS TABLE Accounts (
  Owner VARCHAR PRIMARY KEY,
  Balance INT ADDITIVE CHECK (Balance >= 0)
);
CREATE TABLE Plain (
  Id INT PRIMARY KEY,
  Note VARCHAR
);
"""


def make_group(schema_text=MUSIC, rids=("r1", "r2")):
    catalog = sch.parse_schema_text(schema_text)
    locks = LockManager(rids)
    return {rid: Replica(rid, catalog, rids, locks) for rid in rids}, catalog


def run(rep, *statements):
    tx = rep.begin()
    out = None
    for s in statements:
        out = rep.execute(tx, s)
    return rep.commit(tx), out


def sync(records, *reps):
    for rep in reps:
        for record in records:
            if not rep.clock.has(record):
                rep.deliver(record)


def verdict_of(ctx, table, pk):
    """The verdict on the row of table that ctx shows for pk."""
    return is_visible(ctx, table, ctx.view(table, pk))


# ---------------------------------------------------------------------------
# visibility truth table over all flag subsets and row policies


def build_flag_row(store: Store, table: str, pk, flags):
    """Store a row with the exact flag set by concurrent single-flag writes."""
    vis = ()
    for i, flag in enumerate(sorted(flags)):
        one = mv_assign((), flag, {}, f"w{i}")
        vis = mv_merge(vis, one)
    store.tables.setdefault(table, {})[pk] = Row(visibility=vis)


POLICY_TABLES = {
    sch.Policy.UPDATE_WINS: "CREATE UPDATE_WINS TABLE T (K VARCHAR PRIMARY KEY, V INT LWW);",
    sch.Policy.DELETE_WINS: "CREATE DELETE_WINS TABLE T (K VARCHAR PRIMARY KEY, V INT LWW);",
    sch.Policy.NO_CONCURRENCY: "CREATE TABLE T (K VARCHAR PRIMARY KEY, V INT);",
}

ALL_FLAG_SETS = [
    frozenset(c) for n in range(4) for c in itertools.combinations("IDT", n)
]


@pytest.mark.parametrize("policy", sorted(POLICY_TABLES, key=lambda p: p.value))
@pytest.mark.parametrize("flags", ALL_FLAG_SETS, ids=lambda f: "".join(sorted(f)) or "none")
def test_visibility_truth_table(policy, flags):
    catalog = sch.parse_schema_text(POLICY_TABLES[policy])
    store = Store()
    build_flag_row(store, "T", "k", flags)
    verdict = verdict_of(ViewContext(store, catalog), "T", "k")

    # independent statement of the rule: a row lives unless it has no
    # flags at all, or the deletes win over what else it has
    if not flags:
        expected = False
    elif policy is sch.Policy.UPDATE_WINS:
        expected = flags != {"D"}
    else:
        expected = "D" not in flags
    assert verdict.visible == expected, (policy, set(flags), verdict)
    if not flags:
        assert verdict is Cause.MISSING


def test_visibility_cause_distinguishes_delete_kinds():
    catalog = sch.parse_schema_text(POLICY_TABLES[sch.Policy.UPDATE_WINS])
    store = Store()
    build_flag_row(store, "T", "k", {"D"})
    assert verdict_of(ViewContext(store, catalog), "T", "k") is Cause.ONLY_D

    catalog = sch.parse_schema_text(POLICY_TABLES[sch.Policy.DELETE_WINS])
    store = Store()
    build_flag_row(store, "T", "k", {"I", "D"})
    assert verdict_of(ViewContext(store, catalog), "T", "k") is Cause.ANY_D


def test_dump_looks_each_row_up_once_per_verdict(monkeypatch):
    """A scan looks up each stored row once, and a verdict then looks up
    only the parents it follows, each once: is_visible judges the view its
    caller holds."""
    reps, catalog = make_group()
    r1 = reps["r1"]
    run(
        r1,
        "INSERT INTO Artists VALUES ('Sam', TRUE, 0)",
        "INSERT INTO Artists VALUES ('Ana', TRUE, 0)",
        "INSERT INTO Albums VALUES ('A1', 'Sam', 'rock')",
        "INSERT INTO Albums VALUES ('A2', 'Ana', 'jazz')",
        "INSERT INTO Reviews VALUES (1, 'A1', 5)",
        "INSERT INTO Reviews VALUES (2, 'A2', 4)",
        "INSERT INTO Reviews VALUES (3, 'A1', 3)",
    )
    run(r1, "DELETE FROM Reviews WHERE Id = 3")
    lookups, view = [], ViewContext.view
    monkeypatch.setattr(ViewContext, "view", lambda ctx, table, pk: lookups.append(pk) or view(ctx, table, pk))
    dumps = dump_all(r1.store, catalog)
    assert [len(dumps[t]) for t in ("Artists", "Albums", "Reviews")] == [2, 2, 2]
    scanned = 7
    followed = 2 * 1 + 2 * 2  # album -> artist; live review -> album -> artist
    assert len(lookups) == scanned + followed


# A scan judges both albums; the write goes to the view matched.
SCAN_CASE = ("UPDATE Albums SET Genre = 'pop' WHERE Genre = 'rock'", ["A1", "Sam", "A2", "Ana"])
LOOKUP_CASES = [
    # the album, then its artist for the album's verdict
    ("SELECT * FROM Albums WHERE Title = 'A1'", ["A1", "Sam"]),
    ("UPDATE Albums SET Genre = 'pop' WHERE Title = 'A1'", ["A1", "Sam"]),
    SCAN_CASE,
    # the new key, then the artist: its verdict and its touch share one view
    ("INSERT INTO Albums VALUES ('A3', 'Sam', 'jazz')", ["A3", "Sam"]),
    # the album's verdict follows its artist; the touch walk then looks
    # up only the ancestor
    ("INSERT INTO Reviews VALUES (9, 'A1', 4)", [9, "A1", "Sam", "Sam"]),
    # the review, whose verdict follows its album and artist; its flag
    # observes the view matched
    ("DELETE FROM Reviews WHERE Id = 1", [1, "A1", "Sam"]),
    # the album, then the review its cascade reaches, each judged once
    ("DELETE FROM Albums WHERE Title = 'A1'", ["A1", "Sam", 1, "A1", "Sam"]),
    ("DELETE FROM Artists WHERE Name = 'Sam'", ["Sam", "A1", "Sam", 1, "A1", "Sam"]),
]


def statement_lookups(monkeypatch, statement, padding=()) -> list:
    """The keys r1 looks up while it runs statement over a store holding the
    padding records' rows and a few rows of its own."""
    reps, _ = make_group()
    r1 = reps["r1"]
    for record in padding:
        r1.deliver(record)
    run(
        r1,
        "INSERT INTO Artists VALUES ('Sam', TRUE, 0)",
        "INSERT INTO Artists VALUES ('Ana', TRUE, 0)",
        "INSERT INTO Albums VALUES ('A1', 'Sam', 'rock')",
        "INSERT INTO Albums VALUES ('A2', 'Ana', 'jazz')",
        "INSERT INTO Reviews VALUES (1, 'A1', 5)",
    )
    tx = r1.begin()
    lookups, view = [], ViewContext.view
    monkeypatch.setattr(ViewContext, "view", lambda ctx, table, pk: lookups.append(pk) or view(ctx, table, pk))
    r1.execute(tx, statement)
    return lookups


@pytest.mark.parametrize("statement, want", LOOKUP_CASES)
def test_statement_looks_each_row_up_once(monkeypatch, statement, want):
    """A statement reads and writes the views it matched, the touch walk
    starts from the parent view the reference check judged, and a delete
    flags each row its cascade reaches from the view that judged it: no row
    is looked up again."""
    assert statement_lookups(monkeypatch, statement) == want


@pytest.fixture(scope="module")
def padding():
    """Commit records of 2,000 rows per table that no case reads: each
    references only other padding rows."""
    reps, _ = make_group()
    r2, n = reps["r2"], 2000
    inserts = [
        ("INSERT INTO Artists VALUES (?, TRUE, 0)", [(f"p{i}",) for i in range(n)]),
        ("INSERT INTO Albums VALUES (?, ?, 'rock')", [(f"pa{i}", f"p{i}") for i in range(n)]),
        ("INSERT INTO Reviews VALUES (?, ?, 3)", [(100 + i, f"pa{i}") for i in range(n)]),
        ("INSERT INTO Accounts VALUES (?, 5)", [(f"pacct{i}",) for i in range(n)]),
        ("INSERT INTO Plain VALUES (?, 'note')", [(100 + i,) for i in range(n)]),
    ]
    records = []
    for text, rows in inserts:
        tx = r2.begin()
        for params in rows:
            r2.execute(tx, text, params)
        records.append(r2.commit(tx))
    return records


@pytest.mark.parametrize("statement, want", [case for case in LOOKUP_CASES if case is not SCAN_CASE])
def test_point_statement_lookups_ignore_table_size(monkeypatch, padding, statement, want):
    """Over a store padded with 2,000 unrelated rows per table, each point
    statement looks up the very keys it does over the small store. Only a
    scan, which judges every row by design, grows with the table."""
    assert statement_lookups(monkeypatch, statement, padding) == want


# ---------------------------------------------------------------------------
# statement execution on a single replica


class TestBasicStatements:
    def test_insert_select(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        run(r1, "INSERT INTO Artists VALUES ('Sam', TRUE, 3)")
        _, rows = run(r1, "SELECT * FROM Artists")
        assert rows == [{"Name": "Sam", "Active": True, "Plays": 3}]

    def test_update_lww_and_additive(self):
        reps, catalog = make_group()
        r1 = reps["r1"]
        run(r1, "INSERT INTO Artists VALUES ('Sam', TRUE, 3)")
        run(
            r1,
            "UPDATE Artists SET Active = FALSE WHERE Name = 'Sam'",
            "UPDATE Artists SET Plays = Plays + 4 WHERE Name = 'Sam'",
        )
        assert dump_table(r1.store, catalog, "Artists") == ["Sam,false,7"]

    def test_delete_hides_row(self):
        reps, catalog = make_group()
        r1 = reps["r1"]
        run(r1, "INSERT INTO Artists VALUES ('Sam', TRUE, 0)")
        run(r1, "DELETE FROM Artists WHERE Name = 'Sam'")
        assert dump_table(r1.store, catalog, "Artists") == []
        assert not verdict_of(ViewContext(r1.store, r1.catalog), "Artists", "Sam").visible

    def test_update_without_match(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        tx = r1.begin()
        with pytest.raises(RowNotFound):
            r1.execute(tx, "UPDATE Artists SET Active = TRUE WHERE Name = 'Ghost'")

    def test_statement_error_aborts_tx(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        tx = r1.begin()
        with pytest.raises(RowNotFound):
            r1.execute(tx, "DELETE FROM Artists WHERE Name = 'Ghost'")
        with pytest.raises(ValidationError):
            r1.execute(tx, "SELECT * FROM Artists")

    @pytest.mark.parametrize("statement, error", [
        ("INSERT INTO Plain VALUES (", AqlSyntaxError),
        ("INSERT INTO Nope VALUES (1)", ValidationError),
    ])
    def test_unparsable_statement_aborts_tx(self, statement, error):
        reps, _ = make_group()
        r1 = reps["r1"]
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Plain VALUES (1, 'a')")
        assert tx.held
        with pytest.raises(error):
            r1.execute(tx, statement)
        assert tx.status is TxStatus.ABORTED
        assert tx.held == {}
        assert not any(st.holders for st in r1.locks.locks.values())

    def test_execute_binds_params(self):
        reps, catalog = make_group()
        r1 = reps["r1"]
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Artists VALUES (?, ?, ?)", ("it's", True, 3))
        r1.execute(tx, "UPDATE Artists SET Plays = Plays - ? WHERE Name = ?", [2, "it's"])
        assert r1.execute(tx, "SELECT Plays FROM Artists WHERE Name = ?", ("it's",)) == [{"Plays": 1}]
        r1.commit(tx)
        assert dump_table(r1.store, catalog, "Artists") == ["it's,true,1"]

    @pytest.mark.parametrize("statement, params, error", [
        ("DELETE FROM Plain WHERE Id = ?", (), AqlSyntaxError),
        ("DELETE FROM Plain WHERE Id = ?", (1, 2), ValidationError),
        ("DELETE FROM Plain WHERE Id = ?", ("1",), ValidationError),
        (sch.Delete("Plain", None), (1,), ValidationError),
    ], ids=["no-params", "count", "type", "parsed"])
    def test_bad_params_abort_tx(self, statement, params, error):
        reps, _ = make_group()
        r1 = reps["r1"]
        tx = r1.begin()
        with pytest.raises(error):
            r1.execute(tx, statement, params)
        assert tx.status is TxStatus.ABORTED

    def test_hand_built_statement_is_refused(self):
        """A statement object skips parse-time typing, which the pk lookup
        trusts: this one, a TRUE key against Plain's INT key, would return
        row 1. execute takes statement text only."""
        reps, _ = make_group()
        r1 = reps["r1"]
        run(r1, "INSERT INTO Plain VALUES (1, 'a')")
        tx = r1.begin()
        with pytest.raises(ValidationError):
            r1.execute(tx, sch.Select("Plain", None, sch.Where("Id", "=", True)))
        assert tx.status is TxStatus.ABORTED

    def test_begin_rejects_an_active_txid(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        tx = r1.begin("a")
        with pytest.raises(ValidationError):
            r1.begin("a")
        assert r1.active["a"] is tx
        r1.commit(tx)
        assert r1.begin("a") is not tx

    def test_snapshot_isolation_within_tx(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        run(r1, "INSERT INTO Artists VALUES ('Sam', TRUE, 0)")
        tx = r1.begin()
        # another transaction commits while tx is open
        run(r1, "UPDATE Artists SET Active = FALSE WHERE Name = 'Sam'")
        rows = r1.execute(tx, "SELECT Active FROM Artists WHERE Name = 'Sam'")
        assert rows == [{"Active": True}]

    @pytest.mark.parametrize("cascade", [True, False], ids=["cascade", "restrict"])
    def test_snapshot_isolation_across_delivery(self, cascade):
        schema_text = MUSIC if cascade else MUSIC.replace(
            "REFERENCES Artists (Name) ON DELETE CASCADE", "REFERENCES Artists (Name)"
        )
        reps, catalog = make_group(schema_text)
        r1, r2 = reps["r1"], reps["r2"]
        rec, _ = run(
            r1,
            "INSERT INTO Artists VALUES ('Upd', TRUE, 0)",
            "INSERT INTO Artists VALUES ('Gone', TRUE, 0)",
            "INSERT INTO Artists VALUES ('Four', TRUE, 0)",
        )
        sync([rec], r2)
        tx = r2.begin()
        # commits at r1 reach r2 while tx is open there
        records = [
            run(r1, s)[0]
            for s in (
                "INSERT INTO Artists VALUES ('New', TRUE, 0)",
                "UPDATE Artists SET Active = FALSE WHERE Name = 'Upd'",
                "DELETE FROM Artists WHERE Name = 'Gone'",
                "INSERT INTO Albums VALUES ('Late', 'Four', 'rock')",
            )
        ]
        sync(records, r2)
        assert dump_table(r2.store, catalog, "Albums") == ["Late,Four,rock"]

        assert r2.execute(tx, "SELECT * FROM Artists WHERE Name = 'New'") == []
        assert r2.execute(tx, "SELECT Active FROM Artists WHERE Name = 'Upd'") == [{"Active": True}]
        assert r2.execute(tx, "SELECT Name FROM Artists WHERE Name = 'Gone'") == [{"Name": "Gone"}]
        assert r2.execute(tx, "SELECT * FROM Albums WHERE Title = 'Late'") == []
        r2.execute(tx, "DELETE FROM Artists WHERE Name = 'Four'")  # no FkRestrict
        assert ("Albums", "Late") not in tx.buffer  # nor a cascade
        with pytest.raises(RowNotFound):
            r2.execute(tx, "UPDATE Artists SET Active = FALSE WHERE Name = 'New'")

        # A transaction begun after the delivery does see the album.
        fresh = r2.begin()
        if cascade:
            r2.execute(fresh, "DELETE FROM Artists WHERE Name = 'Four'")
            assert ("Albums", "Late") in fresh.buffer
        else:
            with pytest.raises(FkRestrict):
                r2.execute(fresh, "DELETE FROM Artists WHERE Name = 'Four'")

    def test_snapshot_keys_leave_out_rows_created_since_begin(self):
        reps, _ = make_group()
        r1, r2 = reps["r1"], reps["r2"]
        sync([run(r1, "INSERT INTO Artists VALUES ('Old', TRUE, 0)")[0]], r2)
        tx = r2.begin()
        sync([run(r1, "INSERT INTO Artists VALUES ('New', TRUE, 0)")[0]], r2)
        assert tx.saved == {("Artists", "New"): None}
        assert r2.snap_ctx(tx).pks("Artists") == ["Old"]
        assert r2.live_ctx(tx).pks("Artists") == ["New", "Old"]
        r2.execute(tx, "INSERT INTO Artists VALUES ('New', FALSE, 1)")  # a concurrent insert
        assert r2.snap_ctx(tx).pks("Artists") == ["New", "Old"]

    def test_own_writes_visible_in_tx(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Artists VALUES ('Sam', TRUE, 2)")
        r1.execute(tx, "UPDATE Artists SET Plays = Plays + 1 WHERE Name = 'Sam'")
        rows = r1.execute(tx, "SELECT Plays FROM Artists WHERE Name = 'Sam'")
        assert rows == [{"Plays": 3}]


OPERATORS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
SCAN_ROWS = {1: 3, 2: 1, 3: 4, 4: 1, 5: 5}  # K -> V


@pytest.mark.parametrize("kind", ["SELECT", "UPDATE", "DELETE"])
@pytest.mark.parametrize("column, op", [("V", op) for op in OPERATORS] + [("K", op) for op in OPERATORS if op != "="])
def test_where_scan_matches_a_python_filter(kind, column, op):
    """A WHERE other than key equality scans the table. Each operator picks
    the rows a Python filter picks; an update or delete that picks none
    raises RowNotFound."""
    for pivot in (0, 3, 6):
        reps, catalog = make_group("CREATE UPDATE_WINS TABLE T (K INT PRIMARY KEY, V INT LWW, M INT LWW)", ("r1",))
        r1 = reps["r1"]
        run(r1, *[f"INSERT INTO T VALUES ({k}, {v}, 0)" for k, v in SCAN_ROWS.items()])
        want = [k for k, v in SCAN_ROWS.items() if OPERATORS[op](v if column == "V" else k, pivot)]
        where = f"WHERE {column} {op} {pivot}"
        if kind == "SELECT":
            _, rows = run(r1, f"SELECT K FROM T {where}")
            assert sorted(row["K"] for row in rows) == want, pivot
            continue
        statement = f"UPDATE T SET M = 1 {where}" if kind == "UPDATE" else f"DELETE FROM T {where}"
        if not want:
            with pytest.raises(RowNotFound):
                run(r1, statement)
            continue
        run(r1, statement)
        lines = [line.split(",") for line in dump_table(r1.store, catalog, "T")]
        if kind == "UPDATE":
            got = [int(k) for k, _, m in lines if m == "1"]
        else:
            got = sorted(set(SCAN_ROWS) - {int(k) for k, _, _ in lines})
        assert got == want, pivot


class TestInsertSemantics:
    def test_duplicate_on_strict_table(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        run(r1, "INSERT INTO Plain VALUES (1, 'a')")
        tx = r1.begin()
        with pytest.raises(DuplicateKey):
            r1.execute(tx, "INSERT INTO Plain VALUES (1, 'b')")

    def test_mergeable_insert_upserts(self):
        reps, catalog = make_group()
        r1 = reps["r1"]
        run(r1, "INSERT INTO Artists VALUES ('Sam', TRUE, 3)")
        gen_before = r1.store.row("Artists", "Sam").generation
        run(r1, "INSERT INTO Artists VALUES ('Sam', FALSE, 2)")
        # later write wins the register, the counter adds, incarnation keeps
        assert dump_table(r1.store, catalog, "Artists") == ["Sam,false,5"]
        assert r1.store.row("Artists", "Sam").generation == gen_before

    def test_reinsert_after_delete_bumps_generation(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        run(r1, "INSERT INTO Artists VALUES ('Sam', TRUE, 0)")
        assert r1.store.row("Artists", "Sam").generation == 1
        run(r1, "DELETE FROM Artists WHERE Name = 'Sam'")
        run(r1, "INSERT INTO Artists VALUES ('Sam', FALSE, 0)")
        assert r1.store.row("Artists", "Sam").generation == 2
        assert verdict_of(ViewContext(r1.store, r1.catalog), "Artists", "Sam").visible

    def test_insert_missing_parent(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        tx = r1.begin()
        with pytest.raises(FkParentMissing):
            r1.execute(tx, "INSERT INTO Albums VALUES ('A1', 'Nobody', 'rock')")


class TestReferences:
    def test_multi_value_keys_come_in_key_render_order(self):
        # The references render as '(A B,1)' < '(A,1)'; their keys as 'A' < 'A B'.
        cell = mv_merge(mv_assign((), ("A B", 1), {}, "r1", 1), mv_assign((), ("A", 1), {}, "r2", 1))
        view = RowView(Row({"Artist": cell}))
        assert view.fk_refs("Artist") == (("A B", 1), ("A", 1))
        assert view.scalars("Artist") == ("A", "A B")

    def test_cascade_depth_two(self):
        reps, catalog = make_group()
        r1 = reps["r1"]
        run(
            r1,
            "INSERT INTO Artists VALUES ('Sam', TRUE, 0)",
            "INSERT INTO Albums VALUES ('A1', 'Sam', 'rock')",
            "INSERT INTO Reviews VALUES (1, 'A1', 5)",
        )
        run(r1, "DELETE FROM Artists WHERE Name = 'Sam'")
        assert dump_all(r1.store, catalog)["Albums"] == []
        assert dump_all(r1.store, catalog)["Reviews"] == []

    def test_restrict_without_cascade(self):
        text = """
        CREATE UPDATE_WINS TABLE P (K VARCHAR PRIMARY KEY, V INT LWW);
        CREATE UPDATE_WINS TABLE C (
          K VARCHAR PRIMARY KEY,
          R VARCHAR LWW FOREIGN KEY UPDATE_WINS REFERENCES P (K)
        );
        """
        reps, _ = make_group(text)
        r1 = reps["r1"]
        run(r1, "INSERT INTO P VALUES ('p', 1)", "INSERT INTO C VALUES ('c', 'p')")
        tx = r1.begin()
        with pytest.raises(FkRestrict):
            r1.execute(tx, "DELETE FROM P WHERE K = 'p'")

    def test_update_can_move_reference(self):
        reps, catalog = make_group()
        r1 = reps["r1"]
        run(
            r1,
            "INSERT INTO Artists VALUES ('Sam', TRUE, 0)",
            "INSERT INTO Artists VALUES ('Ana', TRUE, 0)",
            "INSERT INTO Albums VALUES ('A1', 'Sam', 'rock')",
        )
        run(r1, "UPDATE Albums SET Artist = 'Ana' WHERE Title = 'A1'")
        assert dump_table(r1.store, catalog, "Albums") == ["A1,Ana,rock"]
        # the album is no longer pinned to Sam: Sam's delete spares it
        run(r1, "DELETE FROM Artists WHERE Name = 'Sam'")
        assert dump_table(r1.store, catalog, "Albums") == ["A1,Ana,rock"]
        # but it now follows Ana out through the cascade
        run(r1, "DELETE FROM Artists WHERE Name = 'Ana'")
        assert dump_table(r1.store, catalog, "Albums") == []

    @pytest.mark.parametrize("cascade", [True, False], ids=["cascade", "restrict"])
    def test_delete_sees_children_written_in_the_same_tx(self, cascade):
        schema_text = MUSIC if cascade else MUSIC.replace(
            "REFERENCES Artists (Name) ON DELETE CASCADE", "REFERENCES Artists (Name)"
        )
        reps, _ = make_group(schema_text)
        r1 = reps["r1"]
        run(
            r1,
            "INSERT INTO Artists VALUES ('Sam', TRUE, 0)",
            "INSERT INTO Artists VALUES ('Ana', TRUE, 0)",
            "INSERT INTO Albums VALUES ('Old', 'Sam', 'rock')",
        )
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Albums VALUES ('New', 'Ana', 'pop')")
        r1.execute(tx, "UPDATE Albums SET Artist = 'Ana' WHERE Title = 'Old'")
        if not cascade:
            with pytest.raises(FkRestrict):
                r1.execute(tx, "DELETE FROM Artists WHERE Name = 'Ana'")
            return
        r1.execute(tx, "DELETE FROM Artists WHERE Name = 'Ana'")
        assert tx.buffer[("Albums", "New")].flag[0] == "D"
        assert tx.buffer[("Albums", "Old")].flag[0] == "D"

    def test_update_to_missing_parent(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        run(
            r1,
            "INSERT INTO Artists VALUES ('Sam', TRUE, 0)",
            "INSERT INTO Albums VALUES ('A1', 'Sam', 'rock')",
        )
        tx = r1.begin()
        with pytest.raises(FkParentMissing):
            r1.execute(tx, "UPDATE Albums SET Artist = 'Nobody' WHERE Title = 'A1'")

    def test_insert_touches_ancestor_chain(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        run(
            r1,
            "INSERT INTO Artists VALUES ('Sam', TRUE, 0)",
            "INSERT INTO Albums VALUES ('A1', 'Sam', 'rock')",
        )
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Reviews VALUES (1, 'A1', 4)")
        # both the direct parent and the grandparent get a keep-alive flag
        assert tx.buffer[("Albums", "A1")].flag[0] == "T"
        assert tx.buffer[("Artists", "Sam")].flag[0] == "T"

    def test_update_of_a_touched_row_flags_it_inserted(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        run(r1, "INSERT INTO Artists VALUES ('Sam', TRUE, 0)")
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Albums VALUES ('A1', 'Sam', 'rock')")
        assert tx.buffer[("Artists", "Sam")].flag[0] == "T"
        r1.execute(tx, "UPDATE Artists SET Active = FALSE WHERE Name = 'Sam'")
        # the update's own flag replaces the touch, over the versions it saw
        assert tx.buffer[("Artists", "Sam")].flag[0] == "I"
        r1.commit(tx)
        assert RowView(r1.store.row("Artists", "Sam"), None).flags() == {"I"}


class TestChecks:
    def test_static_check_on_insert(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        run(r1, "INSERT INTO Artists VALUES ('Sam', TRUE, 0)")
        run(r1, "INSERT INTO Albums VALUES ('A1', 'Sam', 'rock')")
        tx = r1.begin()
        with pytest.raises(CheckViolation):
            r1.execute(tx, "INSERT INTO Reviews VALUES (1, 'A1', 6)")

    def test_static_check_on_update(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        run(
            r1,
            "INSERT INTO Artists VALUES ('Sam', TRUE, 0)",
            "INSERT INTO Albums VALUES ('A1', 'Sam', 'rock')",
            "INSERT INTO Reviews VALUES (1, 'A1', 4)",
        )
        tx = r1.begin()
        with pytest.raises(CheckViolation):
            r1.execute(tx, "UPDATE Reviews SET Stars = 0 WHERE Id = 1")

    def test_bounded_creation_must_sit_in_bound(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        tx = r1.begin()
        with pytest.raises(CheckViolation):
            r1.execute(tx, "INSERT INTO Accounts VALUES ('a', -1)")

    def test_bounded_over_consumption_is_retryable(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        run(r1, "INSERT INTO Accounts VALUES ('a', 4)")
        tx = r1.begin()
        with pytest.raises(CheckViolation) as err:
            # 4 of head-room exist but half belong to the other replica
            r1.execute(tx, "UPDATE Accounts SET Balance = Balance - 3 WHERE Owner = 'a'")
        assert err.value.retryable

    def test_bounded_consumption_within_local_rights(self):
        reps, catalog = make_group()
        r1 = reps["r1"]
        run(r1, "INSERT INTO Accounts VALUES ('a', 4)")
        run(r1, "UPDATE Accounts SET Balance = Balance - 2 WHERE Owner = 'a'")
        assert dump_table(r1.store, catalog, "Accounts") == ["a,2"]

    def test_reservations_count_other_open_txs(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        run(r1, "INSERT INTO Accounts VALUES ('a', 4)")  # r1 holds 2 rights
        t1, t2 = r1.begin(), r1.begin()
        r1.execute(t1, "UPDATE Accounts SET Balance = Balance - 2 WHERE Owner = 'a'")
        with pytest.raises(CheckViolation):
            r1.execute(t2, "UPDATE Accounts SET Balance = Balance - 1 WHERE Owner = 'a'")
        r1.abort(t1)
        t3 = r1.begin()
        r1.execute(t3, "UPDATE Accounts SET Balance = Balance - 1 WHERE Owner = 'a'")
        r1.commit(t3)


# ---------------------------------------------------------------------------
# two replicas, manual record exchange


class TestTwoReplicas:
    def test_deliver_is_idempotent_and_ordered(self):
        reps, _ = make_group()
        r1, r2 = reps["r1"], reps["r2"]
        rec1, _ = run(r1, "INSERT INTO Artists VALUES ('Sam', TRUE, 0)")
        rec2, _ = run(r1, "UPDATE Artists SET Plays = Plays + 1 WHERE Name = 'Sam'")
        assert not r2.clock.ready(rec2)  # rec1 first
        r2.deliver(rec1)
        assert r2.deliver(rec2)
        assert not r2.deliver(rec2)  # duplicate is a no-op
        with pytest.raises(ValidationError):
            r2.deliver(rec2.__class__(  # gap: seq 4 cannot apply
                origin="r1", seq=4, txid="x", clock=rec2.clock, lamport=9, deltas=[],
            ))

    def test_stale_reference_invisible_everywhere(self):
        text = """
        CREATE UPDATE_WINS TABLE P (K VARCHAR PRIMARY KEY, V INT LWW);
        CREATE UPDATE_WINS TABLE C (
          K VARCHAR PRIMARY KEY,
          R VARCHAR LWW FOREIGN KEY DELETE_WINS REFERENCES P (K)
        );
        """
        reps, catalog = make_group(text)
        r1, r2 = reps["r1"], reps["r2"]
        rec, _ = run(r1, "INSERT INTO P VALUES ('p', 1)")
        sync([rec], r2)

        # r1 re-incarnates p while r2 references the first incarnation
        a, _ = run(r1, "DELETE FROM P WHERE K = 'p'")
        b, _ = run(r1, "INSERT INTO P VALUES ('p', 2)")
        c, _ = run(r2, "INSERT INTO C VALUES ('c', 'p')")
        sync([a, b], r2)
        sync([c], r1)

        for rep in (r1, r2):
            assert verdict_of(ViewContext(rep.store, rep.catalog), "P", "p").visible
            verdict = verdict_of(ViewContext(rep.store, rep.catalog), "C", "c")
            assert not verdict.visible
            assert verdict is Cause.PARENT_VERSION_STALE
            assert dump_table(rep.store, catalog, "C") == []

    def test_reinsert_under_stale_parent_keeps_generation(self):
        """A row hidden only by its parent is not deleted: inserting its key
        again keeps the row's generation, where a re-insert over a deleted
        key starts a fresh one."""
        text = """
        CREATE UPDATE_WINS TABLE P (K VARCHAR PRIMARY KEY, V INT LWW);
        CREATE UPDATE_WINS TABLE C (
          K VARCHAR PRIMARY KEY,
          R VARCHAR LWW FOREIGN KEY DELETE_WINS REFERENCES P (K)
        );
        """
        reps, catalog = make_group(text)
        r1, r2 = reps["r1"], reps["r2"]
        rec, _ = run(r1, "INSERT INTO P VALUES ('p', 1)")
        sync([rec], r2)
        c, _ = run(r2, "INSERT INTO C VALUES ('c', 'p')")
        run(r1, "DELETE FROM P WHERE K = 'p'", "INSERT INTO P VALUES ('p', 2)")
        sync([c], r1)
        assert r1.store.row("P", "p").generation == 2
        assert r1.store.row("C", "c").generation == 1
        assert verdict_of(ViewContext(r1.store, r1.catalog), "C", "c") is Cause.PARENT_VERSION_STALE

        run(r1, "INSERT INTO C VALUES ('c', 'p')")
        assert r1.store.row("C", "c").generation == 1
        assert verdict_of(ViewContext(r1.store, r1.catalog), "C", "c").visible
        assert dump_table(r1.store, catalog, "C") == ["c,p"]

    def test_matching_generation_keeps_child(self):
        text = """
        CREATE UPDATE_WINS TABLE P (K VARCHAR PRIMARY KEY, V INT LWW);
        CREATE UPDATE_WINS TABLE C (
          K VARCHAR PRIMARY KEY,
          R VARCHAR LWW FOREIGN KEY DELETE_WINS REFERENCES P (K)
        );
        """
        reps, _ = make_group(text)
        r1, r2 = reps["r1"], reps["r2"]
        rec, _ = run(r1, "INSERT INTO P VALUES ('p', 1)")
        sync([rec], r2)
        c, _ = run(r2, "INSERT INTO C VALUES ('c', 'p')")
        sync([c], r1)
        assert verdict_of(ViewContext(r1.store, r1.catalog), "C", "c").visible

    def test_multivalue_fk_keeps_concurrent_references(self):
        text = """
        CREATE UPDATE_WINS TABLE P (K VARCHAR PRIMARY KEY, V INT LWW);
        CREATE UPDATE_WINS TABLE C (
          K INT PRIMARY KEY,
          R VARCHAR MULTI_VALUE FOREIGN KEY DELETE_WINS REFERENCES P (K)
        );
        """
        reps, catalog = make_group(text)
        r1, r2 = reps["r1"], reps["r2"]
        rec, _ = run(r1, "INSERT INTO P VALUES ('a', 1)", "INSERT INTO P VALUES ('b', 2)",
                     "INSERT INTO C VALUES (1, 'a')")
        sync([rec], r2)
        a, _ = run(r1, "UPDATE C SET R = 'a' WHERE K = 1")
        b, _ = run(r2, "UPDATE C SET R = 'b' WHERE K = 1")
        sync([b], r1)
        sync([a], r2)
        for rep in (r1, r2):
            assert dump_table(rep.store, catalog, "C") == ["1,{a|b}"]
            assert integrity_violations(rep.store, catalog) == []

    def test_integrity_checker_accepts_converged_stores(self):
        reps, catalog = make_group()
        r1, r2 = reps["r1"], reps["r2"]
        recs = [
            run(r1, "INSERT INTO Artists VALUES ('Sam', TRUE, 1)")[0],
            run(r1, "INSERT INTO Albums VALUES ('A1', 'Sam', 'rock')")[0],
        ]
        sync(recs, r2)
        for rep in (r1, r2):
            assert integrity_violations(rep.store, catalog) == []


class TestErrorPrecedence:
    """A statement that breaks several constraints reports the first failing
    column: schema order for INSERT, SET order for UPDATE."""

    SCHEMA = """
    CREATE UPDATE_WINS TABLE P (Id VARCHAR PRIMARY KEY, Note VARCHAR LWW);
    CREATE UPDATE_WINS TABLE C (
      Id INT PRIMARY KEY,
      N INT LWW CHECK (N >= 0),
      R VARCHAR LWW FOREIGN KEY UPDATE_WINS REFERENCES P (Id)
    );
    """

    def test_insert_checks_columns_in_schema_order(self):
        reps, _ = make_group(self.SCHEMA)
        r1 = reps["r1"]
        tx = r1.begin()
        with pytest.raises(CheckViolation):
            r1.execute(tx, "INSERT INTO C VALUES (1, -1, 'nope')")

    @pytest.mark.parametrize(
        "assignments, error",
        [("N = -1, R = 'nope'", CheckViolation), ("R = 'nope', N = -1", FkParentMissing)],
    )
    def test_update_checks_columns_in_set_order(self, assignments, error):
        reps, _ = make_group(self.SCHEMA)
        r1 = reps["r1"]
        run(r1, "INSERT INTO P VALUES ('p', 'x')", "INSERT INTO C VALUES (1, 0, 'p')")
        tx = r1.begin()
        with pytest.raises(error):
            r1.execute(tx, f"UPDATE C SET {assignments} WHERE Id = 1")


# ---------------------------------------------------------------------------
# identifier generation


class TestIds:
    def test_prefixed_ids_unique_across_replicas(self):
        reps, _ = make_group(rids=("r1", "r2", "r3"))
        seen = set()
        for rep in reps.values():
            for _ in range(10_000):
                seen.add(rep.next_unique_id())
        assert len(seen) == 30_000

    def test_sequential_ids_gap_free_single_site(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        got = []
        for _ in range(5):
            tx = r1.begin()
            got.append(r1.next_sequential_id(tx, "order"))
            r1.commit(tx)
        assert got == [1, 2, 3, 4, 5]

    def test_sequential_ids_twice_in_one_transaction(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        tx = r1.begin()
        # the second read takes the transaction's own buffered value
        assert [r1.next_sequential_id(tx, "order") for _ in range(2)] == [1, 2]
        r1.commit(tx)
        tx = r1.begin()
        assert r1.next_sequential_id(tx, "order") == 3

    def test_sequential_ids_roll_back_with_abort(self):
        reps, _ = make_group()
        r1 = reps["r1"]
        tx = r1.begin()
        assert r1.next_sequential_id(tx, "order") == 1
        r1.abort(tx)
        tx = r1.begin()
        assert r1.next_sequential_id(tx, "order") == 1
        r1.commit(tx)
