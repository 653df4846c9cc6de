"""Scenario language, cluster behavior, order enumeration and fuzzing."""

import collections
import dataclasses
import gc
import glob
import hashlib
import json
import os
import re
import weakref
from types import MappingProxyType

import pytest

import aqldb.crdt as crdt
import aqldb.engine as engine
import aqldb.schema as sch
import aqldb.sim as sim
import aqldb.txn as txn
from aqldb.crdt import (
    AdditiveCounter, Bound, BoundedCounter, is_lww, mv_assign, mv_max_versions, mv_merge, mv_values, render_scalar,
)
from aqldb.engine import (
    SEQ_COLUMN, SEQ_TABLE, Cause, Replica, Row, RowView, ViewContext, constraint_violations,
    integrity_violations, rejudge, visible_rows,
)
from aqldb.errors import AqlError, CheckViolation, ScenarioError
from aqldb.sim import (
    FUZZ_SCHEMA,
    Cluster,
    Event,
    FuzzConfig,
    FuzzOutcome,
    Report,
    Runner,
    Scenario,
    fuzz,
    load_scenario,
    minimize,
    parse_scenario,
    replay_trace,
    run_scenario,
    store_canon,
)
from aqldb.txn import (
    CausalClock, CommitRecord, LockManager, LockState, Mode, RowDelta, RowWrite, Transaction, TxStatus, column_lock,
    row_lock,
)

import behaviour_digest
import gc_census
from delivery_orders import causal_orders, enumerate_orders

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def row_delta(table, pk, cells=None, visibility=None, generation=None) -> RowDelta:
    """A delta with no base, so a receiver holding the row merges every
    state of it, and one without stores it: cells, plus visibility and
    generation when given."""
    return RowDelta(table, pk, None, Row(cells or {}, visibility or (), generation or 0))

SIMPLE = """
replicas r1 r2
schema {
  CREATE UPDATE_WINS TABLE T (
    K VARCHAR PRIMARY KEY,
    V INT ADDITIVE
  );
}
tx a @r1 { INSERT INTO T VALUES ('x', 1) }
deliver_all
assert converged
assert table @r2 T {
  x,1
}
"""


def scenario_paths():
    return sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.aqlsim")))


def scenario_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# The shipped scenarios the parse pin covers, listed so that a new file does
# not move the digest.
PINNED_SCENARIOS = (
    "bounded_counter_concurrent_create",
    "bounded_counter_guards_partition",
    "bounded_insert_locks_across_partition",
    "cascade_chain_three_tables",
    "cascade_vs_insert_delete_wins",
    "cascade_vs_touch_update_wins",
    "concurrent_inserts_merge_or_reject",
    "counter_sums_across_partition",
    "delete_vs_insert_delete_wins",
    "delete_vs_insert_update_wins",
    "multivalue_fk_concurrent_delete",
    "multivalue_keeps_conflicting_writes",
    "restrict_blocks_parent_delete",
    "stale_reference_after_reinsert",
    "strict_table_locks_across_partition",
    "update_vs_delete_both_policies",
)


def canonical_args(event):
    """An event's args with its flag set in the sorted order render writes."""
    if event.kind == "assert_flags":
        return {**event.args, "flags": sorted(event.args["flags"])}
    return event.args


class TestParser:
    def assert_round_trip(self, text):
        scenario = parse_scenario(text, "original")
        text = "\n".join(
            ["replicas " + " ".join(scenario.replicas), "schema {", scenario.schema_text, "}"]
            + [e.render() for e in scenario.events]
        )
        again = parse_scenario(text, "again")
        assert [e.kind for e in again.events] == [e.kind for e in scenario.events]
        assert [canonical_args(e) for e in again.events] == [canonical_args(e) for e in scenario.events]

    def test_round_trip_through_render(self):
        self.assert_round_trip(SIMPLE)

    @pytest.mark.parametrize("path", scenario_paths(), ids=os.path.basename)
    def test_shipped_scenario_round_trips_through_render(self, path):
        self.assert_round_trip(scenario_text(path))

    def test_comments_and_quoting(self):
        text = SIMPLE.replace(
            "tx a @r1 { INSERT INTO T VALUES ('x', 1) }",
            "tx a @r1 { INSERT INTO T VALUES ('#x', 1) }  # trailing note",
        ).replace("x,1", "#x,1")
        scenario = parse_scenario(text, "quoted")
        report = run_scenario(scenario)
        assert report.ok, report.failures

    def test_semicolons_and_hashes_inside_strings(self):
        line = "tx b @r1 { INSERT INTO T VALUES ('a;''#b', 1);; INSERT INTO T VALUES ('c', 2) }  # note; 'x"
        scenario = parse_scenario(SIMPLE + line, "quoted")
        assert scenario.events[-1].args["stmts"] == [
            "INSERT INTO T VALUES ('a;''#b', 1)", "INSERT INTO T VALUES ('c', 2)",
        ]

    def test_missing_replicas(self):
        with pytest.raises(ScenarioError):
            parse_scenario("schema {\n}\nheal", "broken")
        with pytest.raises(ScenarioError, match="^broken line 2: replicas needs at least one id$"):
            parse_scenario(SIMPLE.replace("replicas r1 r2", "replicas"), "broken")
        with pytest.raises(ScenarioError, match="^broken: missing schema block$"):
            parse_scenario("replicas r1\nheal", "broken")

    def test_unknown_directive(self):
        with pytest.raises(ScenarioError):
            parse_scenario(SIMPLE + "\nfrobnicate", "broken")

    def test_undeclared_replica_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario(SIMPLE + "\ndeliver @r9", "broken")
        with pytest.raises(ScenarioError, match="^broken line 15: undeclared replica r9$"):
            parse_scenario(SIMPLE + "partition r1 | r9", "broken")

    def test_bad_statement_rejected_at_parse_time(self):
        bad = SIMPLE.replace("INSERT INTO T VALUES ('x', 1)", "INSERT INTO Ghost VALUES (1)")
        with pytest.raises(ScenarioError):
            parse_scenario(bad, "broken")

    def test_unterminated_block(self):
        with pytest.raises(ScenarioError):
            parse_scenario("replicas r1\nschema {\n  CREATE TABLE T (K INT PRIMARY KEY);", "broken")
        with pytest.raises(ScenarioError, match="^broken line 15: tx body must follow { on the same line"):
            parse_scenario(SIMPLE + "tx b @r1 { INSERT INTO T VALUES ('y', 2)", "broken")

    def test_partition_needs_two_groups(self):
        with pytest.raises(ScenarioError):
            parse_scenario(SIMPLE + "\npartition r1 r2", "broken")

    def test_flags_validated(self):
        with pytest.raises(ScenarioError):
            parse_scenario(SIMPLE + "\nassert flags @r1 T 'x' {Z}", "broken")

    @pytest.mark.parametrize("line, problem", [
        ("assert table @r1 Tx {\n}", "unknown table Tx"),
        ("assert visible @r1 Tx 'x'", "unknown table Tx"),
        ("assert invisible @r1 Tx 'x'", "unknown table Tx"),
        ("assert flags @r1 Tx 'x' {}", "unknown table Tx"),
        ("assert invisible @r1 T 42", "key 42 does not match T.K"),
        ("assert visible @r1 T TRUE", "key True does not match T.K"),
        ("assert flags @r1 T 7 {I}", "key 7 does not match T.K"),
    ])
    def test_asserted_table_and_key_checked(self, line, problem):
        line_no = len(SIMPLE.splitlines()) + 1
        with pytest.raises(ScenarioError, match=f"^broken line {line_no}: {problem}$"):
            parse_scenario(SIMPLE + line, "broken")

    @pytest.mark.parametrize("line", ["partition r1 r1 | r2", "partition r1 | r1"])
    def test_replica_twice_in_partition_rejected(self, line):
        line_no = len(SIMPLE.splitlines()) + 1
        with pytest.raises(ScenarioError, match=f"^broken line {line_no}: replica r1 listed twice in partition$"):
            parse_scenario(SIMPLE + line, "broken")

    def test_duplicate_replica_rejected(self):
        with pytest.raises(ScenarioError, match="^broken line 2: replica ids must be distinct$"):
            parse_scenario(SIMPLE.replace("replicas r1 r2", "replicas r1 r1 r2"), "broken")

    @pytest.mark.parametrize("line", [
        "heal now",
        "deliver_all r1",
        "assert converged x",
        "abort a expect DuplicateKey",
        "schema { x",
    ])
    def test_extra_words_rejected(self, line):
        with pytest.raises(ScenarioError, match="usage: "):
            parse_scenario(SIMPLE + "\nbegin a @r1\n" + line, "broken")

    def test_parsed_scenarios_and_reports_are_pinned(self):
        """Events, reports and their JSON for the shipped scenarios stay
        exactly as they were. A deliberate change to the scenario language
        or to what a report records updates the pin in the same change."""
        digest = hashlib.sha256()
        for name in PINNED_SCENARIOS:
            scenario = load_scenario(os.path.join(SCENARIO_DIR, f"{name}.aqlsim"))
            for event in scenario.events:
                digest.update(json.dumps([event.kind, event.args, event.line], sort_keys=True).encode())
            report = run_scenario(scenario)
            digest.update(report.render().encode())
            digest.update(json.dumps(report.to_json(), sort_keys=True).encode())
        assert digest.hexdigest() == "a359f929b4f9e8e48d25abb15e6e1dc2984795c1cf3a332d6336dbb1c2f78fbf"


class TestRunner:
    def test_assertion_failure_reported_not_raised(self):
        text = SIMPLE.replace("x,1", "x,2")
        report = run_scenario(parse_scenario(text, "wrong"))
        assert not report.ok
        assert any("assert table" in f for f in report.failures)

    def test_strict_mode_rejects_unknown_tx(self):
        scenario = parse_scenario(SIMPLE + "\ncommit ghost", "broken")
        with pytest.raises(ScenarioError):
            run_scenario(scenario)
        with pytest.raises(ScenarioError, match="^line 15: transaction not active$"):
            run_scenario(parse_scenario(SIMPLE + "commit a", "settled"))

    REUSED_TXID = """
replicas r1
schema {
  CREATE TABLE T (K VARCHAR PRIMARY KEY, V VARCHAR);
}
begin a @r1
stmt a: INSERT INTO T VALUES ('k', 'x')
tx a @r1 { INSERT INTO T VALUES ('j', 'y') }
"""

    def test_strict_mode_rejects_a_reused_txid(self):
        scenario = parse_scenario(self.REUSED_TXID, "reused")
        with pytest.raises(ScenarioError, match="transaction a already exists"):
            run_scenario(scenario)

    def test_lenient_mode_skips_a_reused_txid(self):
        scenario = parse_scenario(self.REUSED_TXID, "reused")
        runner = Runner(scenario.catalog(), scenario.replicas, lenient=True)
        runner.run(scenario.events)
        assert [step["action"] for step in runner.report.steps] == [
            "begin a @r1", "stmt a: INSERT INTO T VALUES ('k', 'x')",
        ]
        runner.finish()
        assert list(runner.txs) == ["a"] and runner.outcome("a") == "aborted"
        assert not any(st.holders for st in runner.cluster.locks.locks.values())
        runner.apply(Event("txblock", {"rid": "r1", "txid": "b", "stmts": ["INSERT INTO T VALUES ('k', 'z')"]}, 9))
        assert runner.outcome("b") == "committed", runner.report.failures

    def test_divergence_is_named(self):
        runner = Runner(sch.parse_schema_text(FUZZ_SCHEMA), ["r1", "r2"], lenient=True)
        runner.apply(Event("txblock", {"rid": "r1", "txid": "a", "stmts": [
            "INSERT INTO Artists VALUES ('Sam', TRUE, 1)",
            "INSERT INTO Albums VALUES ('A1', 'Sam', 1, 'rock')",
        ]}, 1))
        runner.apply(Event("deliver", {"rid": None}, 2))
        assert runner.report.ok, runner.report.failures
        runner.cluster.replica("r2")._apply_delta(row_delta("Albums", "A1", generation=7))
        runner.apply(Event("assert_converged", {}, 3))
        runner.finish()
        where = "replica states differ at Albums/A1 (r1 vs r2)"
        assert runner.report.failures[0].startswith(f"line 3: assert converged: {where}: {{")
        assert runner.report.failures[1:] == [f"convergence after quiesce: {where}"]

    def test_expected_error_keeps_report_green(self):
        text = SIMPLE + "\ntx dup @r1 expect DuplicateKey { INSERT INTO T VALUES ('x', 1) }"
        report = run_scenario(parse_scenario(text, "expected"))
        # T is update-wins with all-mergeable columns: the insert merges
        assert not report.ok  # so expecting DuplicateKey must fail
        text2 = text.replace("expect DuplicateKey ", "")
        assert run_scenario(parse_scenario(text2, "merged")).ok
        text3 = SIMPLE + "tx b @r1 expect DuplicateKey { UPDATE T SET V = V + 1 WHERE K = 'y' }"
        assert run_scenario(parse_scenario(text3, "other")).failures == [
            "line 15: tx b @r1: expected DuplicateKey, got RowNotFound: no visible T row matches"
        ]


def test_scenario_suite_present():
    assert len(scenario_paths()) >= 10


@pytest.mark.parametrize("path", scenario_paths(), ids=os.path.basename)
def test_scenario_suite_passes(path):
    scenario = load_scenario(path)
    report = run_scenario(scenario)
    assert report.ok, report.failures


# The scenarios written for coordination defects that no fuzz seed catches.
GUARD_SCENARIOS = (
    "strict_update_waits_for_delete", "unmodified_column_serializes_writes", "strict_delete_waits_for_delete",
    "exclusive_catches_up_every_reader",
)


@pytest.mark.parametrize("plant, caught_by, failure", [
    ({"row_guarded": False}, ("strict_update_waits_for_delete", "strict_delete_waits_for_delete"),
     "line 21: tx upd @r2: expected RowNotFound, nothing raised"),
    ({"locked_columns": frozenset()}, ("unmodified_column_serializes_writes",),
     "line 30: assert table @r1 Docs: want ['1,z,1'], got ['1,y2,1']"),
    ("vanished", ("strict_delete_waits_for_delete",), "line 17: tx b @r2: expected RowNotFound, nothing raised"),
    ("partial_catch_up", ("exclusive_catches_up_every_reader",),
     "line 23: tx drop @r3: expected LockUnavailable, nothing raised"),
], ids=["row_guarded", "locked_columns", "vanished", "partial_catch_up"])
def test_planted_coordination_defect_fails_its_scenario(monkeypatch, plant, caught_by, failure):
    """Each planted defect fails the scenarios caught_by, the first of them
    first on a semantic line, and no other guard scenario. A
    dict plant switches fields of every Coordination record; "vanished"
    skips only a delete's live re-check; "partial_catch_up" catches a
    lock's new owner up to the first previous owner only. Dropping
    row_guarded drops the re-check too, so it fails the delete scenario as
    well."""
    scenarios = [load_scenario(os.path.join(SCENARIO_DIR, f"{name}.aqlsim")) for name in GUARD_SCENARIOS]
    if plant == "partial_catch_up":
        catch_up = Cluster.catch_up
        monkeypatch.setattr(
            Cluster, "catch_up", lambda cluster, rid, sources: catch_up(cluster, rid, list(sources)[:1])
        )
    elif plant == "vanished":
        require_live = Replica._require_live
        monkeypatch.setattr(Replica, "_require_live", staticmethod(
            lambda live, table, pks, fate: None if fate == "vanished" else require_live(live, table, pks, fate)
        ))
    else:
        for scenario in scenarios:  # catalogs are shared per schema text: undo on teardown
            catalog = scenario.catalog()
            records = {t: dataclasses.replace(c, **plant) for t, c in catalog.coordination.items()}
            monkeypatch.setitem(catalog.__dict__, "coordination", MappingProxyType(records))
    failures = {scenario.name: run_scenario(scenario).failures for scenario in scenarios}
    assert {name for name, found in failures.items() if found} == set(caught_by)
    assert failures[caught_by[0]][0] == failure


class TestCluster:
    def make(self, rids=("r1", "r2", "r3")):
        catalog = sch.parse_schema_text(FUZZ_SCHEMA)
        return Cluster(catalog, rids)

    def test_partition_blocks_and_heal_delivers(self):
        cluster = self.make()
        r1 = cluster.replica("r1")
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Artists VALUES ('Sam', TRUE, 0)")
        cluster.partition([["r1"], ["r2", "r3"]])
        cluster.commit(tx)
        cluster.deliver_all()
        assert cluster.replica("r2").store.row("Artists", "Sam") is None
        cluster.heal()
        cluster.deliver_all()
        assert cluster.replica("r2").store.row("Artists", "Sam") is not None
        assert cluster.converged()

    def test_partition_isolates_replicas_no_group_names(self):
        cluster = self.make(("r1", "r2", "r3", "r4"))
        cluster.partition([["r1"], ["r2"]])
        reach = {(a, b) for a in cluster.replica_ids for b in cluster.replica_ids if cluster.reachable(a, b)}
        assert reach == {(rid, rid) for rid in cluster.replica_ids}
        r1 = cluster.replica("r1")
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Artists VALUES ('Sam', TRUE, 0)")
        cluster.commit(tx)
        cluster.deliver_all()
        assert [cluster.replica(rid).store.row("Artists", "Sam") is None for rid in ("r3", "r4")] == [True, True]

    def test_store_canon_detects_divergence(self):
        cluster = self.make(("r1", "r2"))
        r1 = cluster.replica("r1")
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Artists VALUES ('Sam', TRUE, 0)")
        cluster.commit(tx)
        assert not cluster.converged()
        cluster.deliver_all()
        assert cluster.converged()
        a = store_canon(cluster.replica("r1").store)
        b = store_canon(cluster.replica("r2").store)
        assert a == b != ""

    def test_rows_merged_in_different_orders_converge(self):
        cluster = self.make()
        r1, r2 = cluster.replica("r1"), cluster.replica("r2")
        cluster.partition([["r1"], ["r2"], ["r3"]])
        for rep, stmts in (
            (r1, ["INSERT INTO Artists VALUES ('Sam', TRUE, 1)", "INSERT INTO Artists VALUES ('Ana', TRUE, 2)"]),
            (r2, ["INSERT INTO Artists VALUES ('Ana', FALSE, 3)", "INSERT INTO Artists VALUES ('Kim', TRUE, 4)"]),
        ):
            tx = rep.begin()
            for sql in stmts:
                rep.execute(tx, sql)
            cluster.commit(tx)
        cluster.heal()
        cluster.deliver_all()
        # r1 merged r2's commit into its own and r2 the reverse, so rows and
        # counter entries sit in different insertion orders.
        a, b = r1.store.tables["Artists"], r2.store.tables["Artists"]
        assert list(a) != list(b)
        assert list(a["Ana"].cells["Plays"].incs) != list(b["Ana"].cells["Plays"].incs)
        assert cluster.converged()
        assert len({store_canon(rep.store) for rep in cluster.replicas.values()}) == 1

    def converged_pair(self):
        """Two replicas holding the same artist, album, review and account."""
        cluster = self.make(("r1", "r2"))
        r1 = cluster.replica("r1")
        tx = r1.begin()
        for sql in (
            "INSERT INTO Artists VALUES ('Sam', TRUE, 1)",
            "INSERT INTO Albums VALUES ('A1', 'Sam', 2, 'rock')",
            "INSERT INTO Reviews VALUES (1, 'A1', 3)",
            "INSERT INTO Accounts VALUES ('a', 10)",
        ):
            r1.execute(tx, sql)
        cluster.commit(tx)
        cluster.deliver_all()
        assert cluster.converged()
        return cluster

    @pytest.mark.parametrize("case", [
        "counter entry", "transfers entry", "flag", "generation", "invisible row", "reference cell",
    ])
    def test_one_difference_is_not_converged(self, case):
        cluster = self.converged_pair()
        r2 = cluster.replica("r2")
        balance = r2.store.row("Accounts", "a").cells["Balance"]
        delta = {
            "counter entry": row_delta("Artists", "Sam", {"Plays": AdditiveCounter({"r2": 1})}),
            "transfers entry": row_delta("Accounts", "a", {
                "Balance": BoundedCounter(bound=balance.bound, transfers={("r2", "r1"): 1}),
            }),
            "flag": row_delta("Artists", "Sam", visibility=mv_assign((), "D", {}, "r2", 9)),
            "generation": row_delta("Albums", "A1", generation=7),
            "invisible row": row_delta("Reviews", 9),
            "reference cell": row_delta("Albums", "A1", {
                "Artist": (("Sam", 2), (9, "r2")),
            }),
        }[case]
        r2._apply_delta(delta)
        assert not cluster.converged()
        assert store_canon(cluster.replica("r1").store) != store_canon(r2.store)
        where = f"{delta.table}/{render_scalar(delta.pk)}"
        assert cluster.divergence() == f"replica states differ at {where} (r1 vs r2)"
        if case == "invisible row":
            assert cluster.dumps("r1") == cluster.dumps("r2")

    def test_divergence_names_the_first_row_in_canon_order(self):
        cluster = self.make()
        r1 = cluster.replica("r1")
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Artists VALUES ('Sam', TRUE, 1)")
        r1.execute(tx, "INSERT INTO Albums VALUES ('A1', 'Sam', 2, 'rock')")
        cluster.commit(tx)
        cluster.deliver_all()
        assert cluster.converged()
        cluster.replica("r2")._apply_delta(row_delta("Artists", "Sam", generation=7))
        assert cluster.divergence() == "replica states differ at Artists/Sam (r1 vs r2)"
        cluster.replica("r3")._apply_delta(row_delta("Albums", "A1", generation=7))
        assert cluster.divergence() == "replica states differ at Albums/A1 (r1 vs r3)"

    def test_sequential_ids_gap_free_across_replicas(self):
        cluster = self.make()
        got = []
        for i in range(30):
            rid = ("r1", "r2", "r3")[i % 3]
            rep = cluster.replica(rid)
            tx = rep.begin()
            got.append(rep.next_sequential_id(tx, "order"))
            cluster.commit(tx)
        assert got == list(range(1, 31))

    def test_sequential_ids_blocked_in_minority(self):
        from aqldb.errors import LockUnavailable

        cluster = self.make()
        r1 = cluster.replica("r1")
        tx = r1.begin()
        assert r1.next_sequential_id(tx, "order") == 1
        cluster.commit(tx)
        cluster.partition([["r1"], ["r2", "r3"]])
        r2 = cluster.replica("r2")
        tx2 = r2.begin()
        with pytest.raises(LockUnavailable):
            r2.next_sequential_id(tx2, "order")

    def test_rights_pull_across_cluster(self):
        cluster = self.make(("r1", "r2"))
        r1, r2 = cluster.replica("r1"), cluster.replica("r2")
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Accounts VALUES ('a', 10)")
        cluster.commit(tx)
        cluster.deliver_all()
        # r2 holds 5 rights; spending 8 forces a pull from r1
        tx2 = r2.begin()
        r2.execute(tx2, "UPDATE Accounts SET Balance = Balance - 8 WHERE Owner = 'a'")
        cluster.commit(tx2)
        cluster.deliver_all()
        assert cluster.converged()
        cell = r1.store.row("Accounts", "a").cells["Balance"]
        assert cell.value() == 2

    def test_reserved_rights_are_not_shipped(self):
        cluster = self.make(("r1", "r2"))
        r1, r2 = cluster.replica("r1"), cluster.replica("r2")
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Accounts VALUES ('a', 10)")
        cluster.commit(tx)
        cluster.deliver_all()
        # Each side holds 5 rights; r1's open transaction reserves 4 of its 5.
        spend = r1.begin()
        r1.execute(spend, "UPDATE Accounts SET Balance = Balance - 4 WHERE Owner = 'a'")
        assert r1.donatable("Accounts", "a", "Balance") == 1
        tx2 = r2.begin()
        with pytest.raises(CheckViolation):
            r2.execute(tx2, "UPDATE Accounts SET Balance = Balance - 7 WHERE Owner = 'a'")
        cluster.commit(spend)
        cluster.deliver_all()
        assert cluster.converged()
        cell = r1.store.row("Accounts", "a").cells["Balance"]
        # r2's refused request moved nothing: r1 keeps its last free right.
        assert (cell.value(), cell.free("r1"), cell.free("r2")) == (6, 1, 5)
        # A reservation ends with its transaction.
        undo = r2.begin()
        r2.execute(undo, "UPDATE Accounts SET Balance = Balance - 6 WHERE Owner = 'a'")
        assert r2.donatable("Accounts", "a", "Balance") == 0
        r2.abort(undo)
        assert r2.donatable("Accounts", "a", "Balance") == 6


class TestRightsRequest:
    """A rights request is all or nothing, like a lock grant: only reachable
    donors the requester can catch up to offer, a refused request moves
    nothing, and a granted one leaves the rights free at the requester."""

    @staticmethod
    def make(blocked: str) -> Cluster:
        """Four replicas holding 3 of acct's 12 rights each. r2 asks; r3 can
        donate; r1 cannot, being partitioned away ("partitioned") or behind a
        commit of r4's that r2 cannot reach ("behind")."""
        cluster = Cluster(sch.parse_schema_text(FUZZ_SCHEMA), ["r1", "r2", "r3", "r4"])
        r1, r4 = cluster.replica("r1"), cluster.replica("r4")
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Accounts VALUES ('acct', 12)")
        cluster.commit(tx)
        cluster.deliver_all()
        if blocked == "partitioned":
            cluster.partition([["r1"], ["r2", "r3"], ["r4"]])
        else:
            tx = r4.begin()
            r4.execute(tx, "INSERT INTO Accounts VALUES ('other', 1)")
            cluster.commit(tx)
            cluster.pump("r1")
            cluster.partition([["r1", "r2", "r3"], ["r4"]])
        return cluster

    @staticmethod
    def free(cluster: Cluster) -> dict[str, int]:
        return {rid: rep.donatable("Accounts", "acct", "Balance") for rid, rep in cluster.replicas.items()}

    @pytest.mark.parametrize("blocked", ["partitioned", "behind"])
    def test_refused_request_moves_nothing(self, blocked):
        cluster = self.make(blocked)
        assert self.free(cluster) == {"r1": 3, "r2": 3, "r3": 3, "r4": 3}
        queues = {rid: list(queue) for rid, queue in cluster.queues.items()}
        assert not cluster.request_rights("r2", "Accounts", "acct", "Balance", 4)  # r3 alone offers 3
        assert cluster.queues == queues
        assert self.free(cluster) == {"r1": 3, "r2": 3, "r3": 3, "r4": 3}

    @pytest.mark.parametrize("blocked", ["partitioned", "behind"])
    def test_granted_rights_are_free_on_return(self, blocked):
        cluster = self.make(blocked)
        assert cluster.request_rights("r2", "Accounts", "acct", "Balance", 3)
        # r2 holds its own 3 and r3's 3 on return, at least the 3 it asked for.
        assert self.free(cluster) == {"r1": 3, "r2": 6, "r3": 0, "r4": 3}

    def test_granted_request_pumps_the_requester_once_to_catch_up(self, monkeypatch):
        cluster = self.make("partitioned")
        cluster.partition([["r1"], ["r2", "r3", "r4"]])  # r3 and r4 can donate
        calls, pump, transfer = [], Cluster.pump, Replica.transfer_rights
        monkeypatch.setattr(Cluster, "pump", lambda c, rid: calls.append(f"pump {rid}") or pump(c, rid))
        monkeypatch.setattr(
            Replica, "transfer_rights", lambda rep, *args: calls.append(f"transfer {rep.rid}") or transfer(rep, *args)
        )
        assert cluster.request_rights("r2", "Accounts", "acct", "Balance", 4)
        # One pump catches r2 up to both donors; the last merges their transfers.
        assert calls == ["pump r2", "transfer r3", "transfer r4", "pump r2"]
        assert self.free(cluster) == {"r1": 3, "r2": 7, "r3": 0, "r4": 2}


class TestRetention:
    """A Cluster keeps a commit record only while some destination's queue
    holds it: nothing else in the cluster refers to a delivered record."""

    @pytest.mark.parametrize("kind", ["commit", "transfer"])
    def test_record_lives_while_queued_and_goes_once_merged(self, kind, monkeypatch):
        cluster = Cluster(sch.parse_schema_text(FUZZ_SCHEMA), ["r1", "r2", "r3"])
        r1, r2 = cluster.replica("r1"), cluster.replica("r2")
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Accounts VALUES ('a', 9)")
        cluster.commit(tx)
        cluster.deliver_all()
        transfers, transfer = [], Replica.transfer_rights

        def recording_transfer(rep, *args):
            record = transfer(rep, *args)
            transfers.append(weakref.ref(record))
            return record

        monkeypatch.setattr(Replica, "transfer_rights", recording_transfer)
        cluster.partition([["r1", "r2"], ["r3"]])
        # r2 holds 3 of the 9 rights; spending 5 pulls 2 from r1.
        tx = r2.begin()
        r2.execute(tx, "UPDATE Accounts SET Balance = Balance - 5 WHERE Owner = 'a'")
        committed = weakref.ref(cluster.commit(tx))
        assert len(transfers) == 1
        held = committed if kind == "commit" else transfers[0]
        cluster.deliver_all()
        gc.collect()
        assert cluster.queues["r1"] == cluster.queues["r2"] == []
        assert held() in cluster.queues["r3"]
        cluster.heal()
        cluster.deliver_all()
        gc.collect()
        assert held() is None
        assert cluster.converged()

    def test_quiesce_empties_every_queue(self):
        runners = list(scenario_runs()) + [runner for runner, _ in fuzz_runs(FUZZ_SCHEMA)]
        queued = 0
        for runner in runners:
            queued += sum(len(queue) for queue in runner.cluster.queues.values())
            runner.cluster.quiesce()
            assert all(queue == [] for queue in runner.cluster.queues.values()), runner.report.name
        assert queued > 0


def record_id(rec) -> tuple[str, int]:
    """A record's origin and its place in its origin's commits."""
    return (rec.origin, rec.clock.get(rec.origin))


class TestOrderIndependence:
    def scripted_log(self, broadcasts):
        text = """
        replicas r1 r2 r3
        schema {
          CREATE UPDATE_WINS TABLE T (
            K VARCHAR PRIMARY KEY,
            V INT ADDITIVE,
            W VARCHAR MULTI_VALUE
          );
        }
        partition r1 | r2 | r3
        tx a @r1 { INSERT INTO T VALUES ('x', 1, 'a') }
        tx b @r2 { INSERT INTO T VALUES ('x', 2, 'b') }
        tx c @r3 { INSERT INTO T VALUES ('y', 4, 'c') }
        tx d @r1 { UPDATE T SET V = V + 10 WHERE K = 'x' }
        heal
        deliver_all
        """
        scenario = parse_scenario(text, "log")
        runner = Runner(scenario.catalog(), scenario.replicas, name="log")
        runner.run(scenario.events)
        assert runner.report.ok, runner.report.failures
        return broadcasts[runner.cluster], scenario.catalog(), scenario.replicas

    def test_causal_orders_respect_dependencies(self, broadcasts):
        records, _, _ = self.scripted_log(broadcasts)
        orders = causal_orders(records, limit=4)
        ids = {record_id(rec) for rec in records[:4]}
        for order in orders:
            assert {record_id(rec) for rec in order} == ids
            seen = []
            for rec in order:
                for earlier in seen:  # rec does not happen before earlier
                    assert not (record_id(rec) != record_id(earlier) and earlier.clock.dominates(rec.clock))
                seen.append(rec)

    def test_all_orders_converge(self, broadcasts):
        records, catalog, rids = self.scripted_log(broadcasts)
        count, dumps = enumerate_orders(records, catalog, rids, limit=4)
        assert count == 12  # a, b, c concurrent; d after a
        assert len(dumps) == 1

    def test_fuzzed_prefixes_converge(self, broadcasts):
        for seed in range(10):
            config = FuzzConfig(seed=seed, events=40)
            outcome = fuzz(config)
            assert outcome.ok, outcome.report.failures
            catalog = sch.parse_schema_text(config.schema_text)
            rids = [f"r{i + 1}" for i in range(config.replicas)]
            runner = Runner(catalog, rids, lenient=True)
            runner.run(outcome.trace)
            records = broadcasts[runner.cluster][:4]
            count, dumps = enumerate_orders(records, catalog, rids, limit=4)
            assert count >= 1
            assert len(dumps) == 1, f"seed {seed} diverged across {count} orders"


class TestPump:
    """Cluster.pump delivers in one pass. After every call, in every
    scenario and in fuzz seeds 0-19 at 200 events, each queue is in
    broadcast order and holds only records its destination has not merged,
    and no record left in the pumped queue is both reachable and causally
    ready at its destination."""

    @pytest.fixture()
    def checked(self, monkeypatch, broadcasts):
        pump, stats = Cluster.pump, {"calls": 0, "left": 0, "problems": []}

        def checking_pump(cluster, rid):
            delivered = pump(cluster, rid)
            stats["calls"] += 1
            position = {id(rec): i for i, rec in enumerate(broadcasts[cluster])}
            for dst, queue in cluster.queues.items():
                order = [position[id(rec)] for rec in queue]
                if order != sorted(order):
                    stats["problems"].append(f"queue for {dst} out of broadcast order: {order}")
                dst_clock = cluster.replica(dst).clock
                for rec in queue:
                    if rec.clock.get(rec.origin) <= dst_clock.get(rec.origin):
                        stats["problems"].append(f"{record_id(rec)} queued at {dst}, which merged it")
            clock = cluster.replica(rid).clock
            for rec in cluster.queues[rid]:
                stats["left"] += 1
                if cluster.reachable(rid, rec.origin) and clock.ready(rec):
                    stats["problems"].append(f"{record_id(rec)} left ready at {rid}")
            return delivered

        monkeypatch.setattr(Cluster, "pump", checking_pump)
        return stats

    def test_one_pass_on_scenarios(self, checked):
        for runner in scenario_runs():
            runner.finish()
        assert checked["problems"] == []
        assert checked["calls"] > 0 and checked["left"] > 0

    def test_one_pass_on_fuzz(self, checked):
        for seed in range(20):
            fuzz(FuzzConfig(seed=seed, events=200), shrink=False)
        assert checked["problems"] == []
        assert checked["calls"] > 0 and checked["left"] > 0


# FUZZ_SCHEMA with both foreign key columns MULTI_VALUE.
MV_FK_SCHEMA = FUZZ_SCHEMA.replace("VARCHAR LWW FOREIGN KEY", "VARCHAR MULTI_VALUE FOREIGN KEY")
assert MV_FK_SCHEMA.count("MULTI_VALUE FOREIGN KEY") == 2

# FUZZ_SCHEMA with no policy word on either foreign key, so both are
# NO_CONCURRENCY and take parent locks, and Albums.Artist cascading too, so
# a delete locks rows a cascade reaches.
STRICT_FK_SCHEMA = (
    FUZZ_SCHEMA.replace("FOREIGN KEY UPDATE_WINS", "FOREIGN KEY")
    .replace("FOREIGN KEY DELETE_WINS", "FOREIGN KEY")
    .replace("REFERENCES Artists (Name)", "REFERENCES Artists (Name) ON DELETE CASCADE")
)
assert STRICT_FK_SCHEMA.count("FOREIGN KEY REFERENCES") == STRICT_FK_SCHEMA.count("ON DELETE CASCADE") == 2

fuzz_schemas = pytest.mark.parametrize(
    "schema_text", [FUZZ_SCHEMA, MV_FK_SCHEMA, STRICT_FK_SCHEMA], ids=["lww", "multi_value", "strict_fk"]
)


def scenario_runs(runner_class=Runner):
    """A runner per scenario in scenarios/, after its events ran."""
    for path in scenario_paths():
        scenario = load_scenario(path)
        runner = runner_class(scenario.catalog(), scenario.replicas, name=scenario.name)
        runner.run(scenario.events)
        yield runner


def fuzz_runs(schema_text, runner_class=Runner):
    """Fuzz seeds 0-19 replayed, each runner before finish (its open
    transactions still open) with the fuzz outcome. 200 events, because at
    60 or 120 these seeds commit no foreign key value."""
    for seed in range(20):
        outcome = fuzz(FuzzConfig(seed=seed, events=200, schema_text=schema_text), shrink=False)
        runner = runner_class(sch.parse_schema_text(schema_text), ["r1", "r2", "r3"], lenient=True)
        runner.run(outcome.trace)
        yield runner, outcome


def has_form(cell, kind, bound) -> bool:
    """Whether a stored cell has the form of its column's kind, as
    TableSchema.kinds gives it with its bound: (value, (int, str)) for LWW,
    a non-empty tuple of (value, version) entries for MV, an
    AdditiveCounter, or a BoundedCounter under the catalog's bound."""
    if kind is sch.Kind.LWW:
        return type(cell) is tuple and len(cell) == 2 and tuple(map(type, cell[1])) == (int, str)
    if kind is sch.Kind.MV:
        return type(cell) is tuple and cell != () and all(
            type(e) is tuple and len(e) == 2 and type(e[1]) is tuple for e in cell
        )
    if kind is sch.Kind.ADDITIVE:
        return type(cell) is AdditiveCounter
    return type(cell) is BoundedCounter and cell.bound == bound


def check_stored_cells(runner, problems, forms) -> int:
    """At every replica, every stored row holds only cells named after its
    table's columns, each of the form of its column's kind (a sequence's
    one cell is LWW), counted by kind in forms, and each foreign key cell
    holds (parent key, int generation) references whose keys scalars
    gives, in render order; return how many written foreign key cells were
    checked."""
    checked = 0
    kinds = {name: t.kinds for name, t in runner.catalog.tables.items()}
    kinds[SEQ_TABLE] = {SEQ_COLUMN: (sch.Kind.LWW, None, None)}
    for rid in runner.cluster.replica_ids:
        for table, rows in runner.cluster.replica(rid).store.tables.items():
            fks = runner.catalog.tables[table].foreign_keys if table in runner.catalog.tables else ()
            for pk, row in rows.items():
                where = f"{rid} {table}/{render_scalar(pk)}"
                if not set(row.cells) <= set(kinds[table]):
                    problems.append(f"{where}: cells {sorted(row.cells)}")
                for col, cell in row.cells.items():
                    kind, bound, _ = kinds[table].get(col, (None, None, None))
                    forms[kind] += 1
                    if not has_form(cell, kind, bound):
                        problems.append(f"{where}.{col}: {cell!r} is not of kind {kind}")
                view = RowView(row)
                for col, kind, _ in fks:
                    refs = view.fk_refs(col, kind)
                    checked += bool(refs)
                    scalars = view.scalars(col, kinds[table][col])
                    if not all(type(ref) is tuple and len(ref) == 2 and type(ref[1]) is int for ref in refs):
                        problems.append(f"{where}.{col}: references {refs}")
                    elif scalars != tuple(sorted([ref[0] for ref in refs], key=render_scalar)):
                        problems.append(f"{where}.{col}: scalars {scalars}, references {refs}")
    return checked


class TestStoredCells:
    """One cell per column, of the form of its kind: a foreign key column's
    cell is its reference."""

    def test_scenarios(self):
        problems, checked, forms = [], 0, collections.Counter()
        for runner in scenario_runs():
            runner.finish()
            checked += check_stored_cells(runner, problems, forms)
        assert problems == []
        assert checked > 0
        assert set(forms) == set(sch.Kind)

    @fuzz_schemas
    def test_fuzz(self, schema_text):
        problems, checked, forms = [], 0, collections.Counter()
        for runner, outcome in fuzz_runs(schema_text):
            runner.finish()
            assert runner.report.to_json()["steps"] == outcome.report.to_json()["steps"]
            checked += check_stored_cells(runner, problems, forms)
        assert problems == []
        assert checked > 0
        assert set(forms) == set(sch.Kind)


def check_point_reads(runner, mismatches) -> tuple[int, int]:
    """At every replica, in the committed context and in the snapshot of
    every open transaction, compare the pk point lookup of every stored key
    and the foreign key children of every parent key with scans over
    visible_rows; return (children compared, snapshots compared)."""
    children = snapshots = 0
    for rid in runner.cluster.replica_ids:
        rep = runner.cluster.replica(rid)
        contexts = [("committed", ViewContext(rep.store, rep.catalog))]
        contexts += [(tx.txid, rep.snap_ctx(tx)) for tx in rep.active.values()]
        snapshots += len(contexts) - 1
        for name, ctx in contexts:
            for table, schema in runner.catalog.tables.items():
                rows = visible_rows(ctx, table)
                for pk in sorted(set(rep.store.pks(table)) | set(ctx.pks(table)), key=render_scalar):
                    got = [p for p, _ in rep._match_rows(ctx, schema, sch.Where(schema.primary_key, "=", pk))]
                    want = [p for p, view in rows if pk in view.scalars(schema.primary_key, schema.kinds[schema.primary_key])]
                    if got != want:
                        mismatches.append(f"{rid} {name} {table} pk {pk}: {got} != {want}")
            for parent in runner.catalog.tables:
                for child, col, _ in runner.catalog.referencing(parent):
                    rows, kind = visible_rows(ctx, child), runner.catalog.tables[child].kinds[col]
                    for ppk in rep.store.pks(parent):
                        got = [c for c, _ in rep._children(ctx, child, col, ppk)]
                        want = [c for c, view in rows if ppk in view.scalars(col, kind)]
                        children += len(want)
                        if got != want:
                            mismatches.append(f"{rid} {name} {child}.{col} -> {ppk}: {got} != {want}")
    return children, snapshots


class TestPointReads:
    """The pk point lookup and the reverse foreign key index find what a
    table scan finds."""

    def test_scenarios_agree_with_scans(self):
        mismatches, children = [], 0
        for runner in scenario_runs():
            children += check_point_reads(runner, mismatches)[0]
        assert mismatches == []
        assert children > 0

    @fuzz_schemas
    def test_fuzz_agrees_with_scans(self, schema_text):
        mismatches, children, snapshots = [], 0, 0
        for runner, _ in fuzz_runs(schema_text):
            open_children, open_snapshots = check_point_reads(runner, mismatches)
            runner.finish()
            children += open_children + check_point_reads(runner, mismatches)[0]
            snapshots += open_snapshots
        assert mismatches == []
        assert children > 0
        assert snapshots > 0


def own_flags(view) -> set[str]:
    """A row's own flags as a set: its buffered flag, else those of its
    stored flag register; none for a missing row."""
    if view is None:
        return set()
    if view.write is not None and view.write.flag is not None:
        return {view.write.flag[0]}
    return {flag for flag, _ in view.row.visibility} if view.row is not None else set()


def reference_verdict(ctx, table, view) -> Cause:
    """is_visible's rule over a set of flags: the row's own flags judged per
    row policy, then each recorded parent, in render order, visible and,
    over a delete-wins edge, of the recorded generation. A cell's shape
    tells its kind."""
    if view is None:
        return Cause.MISSING
    schema = ctx.catalog.tables[table]
    write, row = view.write, view.row
    flags = own_flags(view)
    if not flags:
        return Cause.MISSING
    if schema.row_policy is sch.Policy.UPDATE_WINS:
        if flags == {"D"}:
            return Cause.ONLY_D
    elif "D" in flags:
        return Cause.ANY_D
    for col in schema.columns:
        fk = col.foreign_key
        if fk is None:
            continue
        if write is not None and col.name in write.sets:
            refs = (write.sets[col.name][0],)
        else:
            cell = row.cells.get(col.name) if row is not None else None
            refs = () if cell is None else (cell[0],) if is_lww(cell) else tuple(mv_values(cell))
        for ppk, pgen in refs:
            parent = ctx.view(fk.table, ppk)
            if parent is None or not reference_verdict(ctx, fk.table, parent).visible:
                return Cause.PARENT_DELETED
            if fk.policy is sch.Policy.DELETE_WINS and parent.generation() != pgen:
                return Cause.PARENT_VERSION_STALE
    return Cause.ALL_CLEAR


def check_verdicts(runner, mismatches, causes) -> None:
    """At every replica, in the committed context and in the snapshot of
    every open transaction, judge every stored or buffered key with
    is_visible and with reference_verdict, and count each cause in causes."""
    for rid in runner.cluster.replica_ids:
        rep = runner.cluster.replica(rid)
        contexts = [("committed", ViewContext(rep.store, rep.catalog))]
        contexts += [(tx.txid, rep.snap_ctx(tx)) for tx in rep.active.values()]
        for name, ctx in contexts:
            for table in runner.catalog.tables:
                for pk in set(rep.store.pks(table)) | set(ctx.pks(table)):
                    view = ctx.view(table, pk)
                    got, want = engine.is_visible(ctx, table, view), reference_verdict(ctx, table, view)
                    causes[got] += 1
                    if got is not want:
                        mismatches.append(f"{runner.report.name} {rid} {name} {table}/{pk}: {got} != {want}")


class TestVerdicts:
    """is_visible gives the verdict of the set-based reference rule, for
    stored rows and for rows a transaction has written. The scenarios reach
    every cause; fuzz seeds 0-19 leave only visible and missing rows."""

    def test_scenarios(self):
        mismatches, causes = [], collections.Counter()
        for runner in scenario_runs():
            check_verdicts(runner, mismatches, causes)
            runner.finish()
            check_verdicts(runner, mismatches, causes)
        assert mismatches == []
        assert causes[Cause.ALL_CLEAR] and causes[Cause.PARENT_DELETED]
        assert causes[Cause.ONLY_D] and causes[Cause.ANY_D]

    @fuzz_schemas
    def test_fuzz(self, schema_text):
        mismatches, causes = [], collections.Counter()
        for runner, _ in fuzz_runs(schema_text):
            check_verdicts(runner, mismatches, causes)
            runner.finish()
            check_verdicts(runner, mismatches, causes)
        assert mismatches == []
        assert causes[Cause.ALL_CLEAR]


def lock_table(locks) -> dict:
    """Everything safety_violations reads of a lock manager, as plain values."""
    return {
        lock_id: (frozenset(st.owners), st.exclusive, dict(st.holders))
        for lock_id, st in locks.locks.items()
    }


def row_lines(store) -> dict:
    """Each stored row's store_canon line, by row key."""
    keys = [(table, pk) for table in sorted(store.tables) for pk in sorted(store.tables[table], key=render_scalar)]
    return dict(zip(keys, store_canon(store).split("\n")))


class MemoCheckingRunner(Runner):
    """After every event, checks the audit memos. At every replica, each row
    whose store_canon line changed was in the store's change set when the
    audit read it, the audit left that set empty, and the saved findings
    equal a fresh audit of the store. Likewise, a lock table whose version
    has not moved is unchanged, and the saved lock findings equal a fresh
    safety_violations()."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = {rid: {} for rid in self.cluster.replica_ids}  # rid -> row_lines
        self.pending: dict[str, set] = {}  # rid -> its change set as the last audit read it
        self.moved = self.kept = 0
        self.locks_seen: tuple[int, dict] | None = None
        self.locks_moved = self.locks_kept = 0
        self.mismatches: list[str] = []

    def apply(self, event):
        super().apply(event)
        self.check_memo(event.line)

    def _audit(self, event):
        self.pending = {rid: set(rep.store.changed) for rid, rep in self.cluster.replicas.items()}
        super()._audit(event)

    def check_memo(self, line):
        locks = self.cluster.locks
        table = lock_table(locks)
        if self.locks_seen is not None:
            version, before = self.locks_seen
            if version != locks.version:
                self.locks_moved += 1
            elif before == table:
                self.locks_kept += 1
            else:
                self.mismatches.append(f"{self.report.name} line {line}: lock version kept, lock table changed")
        self.locks_seen = (locks.version, table)
        if self.lock_audit != (locks.version, locks.safety_violations()):
            self.mismatches.append(f"{self.report.name} line {line}: {self.lock_audit} != fresh lock audit")
        for rid in self.cluster.replica_ids:
            store, pending = self.cluster.replica(rid).store, self.pending[rid]
            lines, before = row_lines(store), self.seen[rid]
            unmarked = sorted(
                (key for key in lines.keys() | before.keys() if lines.get(key) != before.get(key) and key not in pending),
                key=repr,
            )
            if unmarked:
                self.mismatches.append(f"{self.report.name} line {line} {rid}: changed outside the change set: {unmarked}")
            if store.changed:
                self.mismatches.append(f"{self.report.name} line {line} {rid}: audit left {store.changed}")
            if pending:
                self.moved += 1
            else:
                self.kept += 1
            self.seen[rid] = lines
            saved = rejudge(store, self.catalog, (), dict(self.found[rid]))
            fresh = (integrity_violations(store, self.catalog), constraint_violations(store, self.catalog))
            if saved != fresh:
                self.mismatches.append(f"{self.report.name} line {line} {rid}: {saved} != {fresh}")


def own_flags_only(ctx, table, view):
    """A planted visibility rule that judges a row by its own flags only and
    ignores its parents: the regression integrity_violations is there to
    catch."""
    flags = own_flags(view)
    if ctx.catalog.table(table).row_policy is sch.Policy.UPDATE_WINS:
        alive = bool(flags) and flags != {"D"}
    else:
        alive = bool(flags) and "D" not in flags
    return Cause.ALL_CLEAR if alive else Cause.ANY_D


def audit_lookups(monkeypatch, rows: int) -> list:
    """The rows a Runner's audit looks up after one point write, over a
    store padded with rows rows per table and audited once before it."""
    runner = Runner(sch.parse_schema_text(FUZZ_SCHEMA), ["r1"])
    rep = runner.cluster.replica("r1")
    tx = rep.begin()
    for text, params in (
        ("INSERT INTO Artists VALUES (?, TRUE, 0)", [(f"p{i}",) for i in range(rows)] + [("Sam",)]),
        ("INSERT INTO Albums VALUES (?, ?, 1, 'rock')", [(f"pa{i}", f"p{i}") for i in range(rows)] + [("A1", "Sam")]),
        ("INSERT INTO Reviews VALUES (?, ?, 3)", [(100 + i, f"pa{i}") for i in range(rows)] + [(1, "A1")]),
        ("INSERT INTO Accounts VALUES (?, 5)", [(f"pacct{i}",) for i in range(rows)]),
    ):
        for values in params:
            rep.execute(tx, text, values)
    rep.commit(tx)
    runner.apply(Event("heal", {}, 1))
    stmts = ["UPDATE Albums SET Genre = 'jazz' WHERE Title = 'A1'"]
    event = Event("txblock", {"rid": "r1", "txid": "a", "stmts": stmts}, 2)
    runner._ev_txblock(event)
    lookups, view = [], ViewContext.view
    monkeypatch.setattr(ViewContext, "view", lambda ctx, table, pk: lookups.append(pk) or view(ctx, table, pk))
    runner._audit(event)
    assert runner.report.ok, runner.report.failures
    return lookups


class EmptyWriteRunner(Runner):
    """After every event, records each buffered write of an active
    transaction that has no sets, no deltas and no flag. The views and the
    commit fold take every buffered write to be an effect."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.writes = 0
        self.empty: list[str] = []

    def apply(self, event):
        super().apply(event)
        for rid in self.cluster.replica_ids:
            for tx in self.cluster.replica(rid).active.values():
                for rowkey, write in tx.buffer.items():
                    self.writes += 1
                    if not (write.sets or write.deltas or write.flag):
                        self.empty.append(f"{self.report.name} line {event.line}: {tx.txid} {rowkey}")


def test_no_active_transaction_buffers_an_empty_write():
    runners = list(scenario_runs(EmptyWriteRunner))
    for schema_text in (FUZZ_SCHEMA, MV_FK_SCHEMA, STRICT_FK_SCHEMA):
        runners += [runner for runner, _ in fuzz_runs(schema_text, EmptyWriteRunner)]
    assert [line for runner in runners for line in runner.empty] == []
    assert sum(runner.writes for runner in runners) > 1000


# FUZZ_SCHEMA with every policy and merge word removed: every table, edge
# and column strict.
ALL_STRICT_SCHEMA = re.sub(r" (UPDATE_WINS|DELETE_WINS|LWW|MULTI_VALUE)\b", "", FUZZ_SCHEMA)


class BaseCheckingApply:
    """Wraps Replica._apply_delta. A delivered delta whose row is neither
    its base nor equal to it merges the states its commit wrote, which is
    sound only if the row is at or above base: merging each base cell, and
    base's visibility register, into the row's changes nothing, and the
    row's generation is at least base's. Counts merging and adopting
    deliveries, and records each row that is not at or above its base."""

    def __init__(self, monkeypatch):
        self.merging = self.adopting = 0
        self.violations: list[str] = []
        apply = Replica._apply_delta

        def checked(rep, delta, committing=None):
            if committing is None:
                self.check(rep, delta)
            apply(rep, delta, committing)

        monkeypatch.setattr(Replica, "_apply_delta", checked)

    def check(self, rep, delta):
        row, base = rep.store.row(delta.table, delta.pk), delta.base
        if row is base or row == base:
            self.adopting += 1
            return
        self.merging += 1
        if base is None:
            return
        where = f"{rep.rid} {delta.table}/{render_scalar(delta.pk)}"
        if row is None:
            self.violations.append(f"{where}: no row under base")
            return
        for col, cell in base.cells.items():
            held = row.cells.get(col)
            if held is None or crdt.merge(held, cell) != held:
                self.violations.append(f"{where}: cell {col} below base")
        if mv_merge(row.visibility, base.visibility) != row.visibility:
            self.violations.append(f"{where}: visibility below base")
        if row.generation < base.generation:
            self.violations.append(f"{where}: generation {row.generation} < {base.generation}")


def test_a_merging_receiver_is_at_or_above_base(monkeypatch):
    checker = BaseCheckingApply(monkeypatch)
    list(scenario_runs())
    for schema_text in (FUZZ_SCHEMA, MV_FK_SCHEMA, ALL_STRICT_SCHEMA):
        for replicas in (2, 3):
            for seed in range(150):
                fuzz(FuzzConfig(seed=seed, replicas=replicas, events=200, schema_text=schema_text), shrink=False)
    assert checker.violations == []
    assert checker.merging > 0 and checker.adopting > 0


def test_base_check_sees_a_clock_that_skips_dependencies(monkeypatch):
    """A ready that checks only the record's origin entry can deliver a
    record before one it depends on; on this seed a receiver then merges a
    delta whose base is above its row."""
    def origin_only(clock, record):
        return clock.get(record.origin) == record.clock.get(record.origin) - 1

    monkeypatch.setattr(txn.CausalClock, "ready", origin_only)
    checker = BaseCheckingApply(monkeypatch)
    fuzz(FuzzConfig(seed=117, replicas=3, events=200), shrink=False)
    assert checker.violations


class TestAudit:
    def test_memo_is_sound_on_scenarios(self):
        mismatches, moved, kept, locks_moved, locks_kept = [], 0, 0, 0, 0
        for runner in scenario_runs(MemoCheckingRunner):
            mismatches += runner.mismatches
            moved, kept = moved + runner.moved, kept + runner.kept
            locks_moved, locks_kept = locks_moved + runner.locks_moved, locks_kept + runner.locks_kept
        assert mismatches == []
        assert moved > 0 and kept > 0
        assert locks_moved > 0 and locks_kept > 0

    @fuzz_schemas
    def test_memo_is_sound_on_fuzz(self, schema_text):
        mismatches, moved, kept, locks_moved, locks_kept = [], 0, 0, 0, 0
        for runner, _ in fuzz_runs(schema_text, MemoCheckingRunner):
            runner.finish()
            runner.check_memo(0)
            mismatches += runner.mismatches
            moved, kept = moved + runner.moved, kept + runner.kept
            locks_moved, locks_kept = locks_moved + runner.locks_moved, locks_kept + runner.locks_kept
        assert mismatches == []
        assert moved > 0 and kept > 0
        assert locks_moved > 0 and locks_kept > 0

    def test_memo_is_sound_with_findings(self, monkeypatch):
        """Under a visibility rule that ignores parents the audit has
        findings, so the saved ones meet a fresh full audit after every event
        of every scenario with something to compare."""
        monkeypatch.setattr(engine, "is_visible", own_flags_only)
        runners = list(scenario_runs(MemoCheckingRunner))
        assert [mismatch for runner in runners for mismatch in runner.mismatches] == []
        findings = [
            step for runner in runners for step in runner.report.steps
            if step["action"].startswith(("integrity at", "constraints at"))
        ]
        assert len(findings) > 0

    def test_audit_work_ignores_table_size(self, monkeypatch):
        """After a point write the audit re-judges the written album and the
        review below it, whatever else the store holds."""
        # the album, its artist for its verdict, the artist again for its
        # edge; the review, its album and artist, then its edge's album and
        # that album's artist
        want = ["A1", "Sam", "Sam", 1, "A1", "Sam", "A1", "Sam"]
        assert audit_lookups(monkeypatch, 100) == want
        assert audit_lookups(monkeypatch, 2000) == want

    def test_finding_is_reported_at_every_later_event(self):
        # A Stars = 9 cell merged straight into r1's store bypasses the
        # statement CHECK; begin and partition leave every store unchanged.
        runner = Runner(sch.parse_schema_text(FUZZ_SCHEMA), ["r1", "r2"], lenient=True)
        runner.apply(Event("txblock", {"rid": "r1", "txid": "a", "stmts": [
            "INSERT INTO Artists VALUES ('Sam', TRUE, 1)",
            "INSERT INTO Albums VALUES ('A1', 'Sam', 1, 'rock')",
            "INSERT INTO Reviews VALUES (1, 'A1', 3)",
        ]}, 1))
        assert runner.report.ok, runner.report.failures
        runner.cluster.replica("r1")._apply_delta(
            row_delta("Reviews", 1, {"Stars": (9, (100, "r1"))})
        )
        runner.apply(Event("begin", {"rid": "r2", "txid": "b"}, 2))
        runner.apply(Event("partition", {"groups": [["r1"], ["r2"]]}, 3))
        finding = "constraints at r1: Reviews/1.Stars = 9 violates its check"
        assert runner.report.failures == [f"line 2: {finding}", f"line 3: {finding}"]

    def test_integrity_findings_fire_when_visibility_ignores_parents(self, monkeypatch):
        """integrity_violations re-derives every edge, so a visibility rule
        that judges a row by its own flags only, the regression the check is
        there to catch, makes each of its three findings."""
        runner = Runner(sch.parse_schema_text(FUZZ_SCHEMA), ["r1"])
        runner.apply(Event("txblock", {"rid": "r1", "txid": "a", "stmts": [
            "INSERT INTO Artists VALUES ('Sam', TRUE, 1)",
            "INSERT INTO Artists VALUES ('Ana', TRUE, 1)",
            "INSERT INTO Albums VALUES ('A1', 'Sam', 1, 'rock')",
            "INSERT INTO Albums VALUES ('A2', 'Ana', 1, 'rock')",
            "INSERT INTO Reviews VALUES (1, 'A2', 3)",
        ]}, 1))
        rep = runner.cluster.replica("r1")

        def flag(table, pk, value, generation=None):
            observed = mv_max_versions(rep.store.row(table, pk).visibility)
            rep._apply_delta(row_delta(table, pk, {}, mv_assign((), value, observed, "r1"), generation))

        flag("Artists", "Sam", "D")  # A1's parent is deleted
        flag("Albums", "A2", "I", generation=2)  # re-inserted under review 1's delete-wins reference
        orphan = {"Album": (("Nope", 1), (100, "r1")), "Stars": (2, (100, "r1"))}
        rep._apply_delta(row_delta("Reviews", 2, orphan, mv_assign((), "I", {}, "r1"), 1))
        assert integrity_violations(rep.store, runner.catalog) == []
        monkeypatch.setattr(engine, "is_visible", own_flags_only)
        assert integrity_violations(rep.store, runner.catalog) == [
            "Albums/A1: parent Artists/Sam not visible",
            "Reviews/1: parent Albums/A2 reinserted",
            "Reviews/2: parent Albums/Nope missing",
        ]

    @pytest.mark.parametrize("state, problem", [
        (LockState({"r1"}, True, {"t1": ("r1", Mode.EXCLUSIVE), "t2": ("r1", Mode.SHARED)}),
         "exclusive holder coexists with others"),
        (LockState({"r1", "r2"}, True), "owned exclusive by 2 replicas"),
        (LockState({"r1"}, True, {"t1": ("r2", Mode.SHARED)}), "holder t1 at non-owner replica"),
        (LockState({"r1"}, False, {"t1": ("r2", Mode.SHARED)}), "holder t1 at non-owner replica"),
        (LockState({"r1"}, False, {"t1": ("r1", Mode.EXCLUSIVE)}), "exclusive hold without exclusive ownership"),
        (LockState(set(), True), "owned exclusive by 0 replicas"),
    ])
    def test_lock_safety_finding_is_reported(self, state, problem):
        runner = Runner(sch.parse_schema_text(FUZZ_SCHEMA), ["r1", "r2"])
        runner.apply(Event("heal", {}, 1))
        locks = runner.cluster.locks
        locks.locks[row_lock("Artists", "Sam")] = state
        locks.version += 1  # as every change to the lock table does
        runner.apply(Event("heal", {}, 2))
        assert runner.report.failures == [f"line 2: lock safety: {row_lock('Artists', 'Sam')}: {problem}"]

    def test_finish_reports_each_planted_fault(self):
        runner = Runner(sch.parse_schema_text(FUZZ_SCHEMA), ["r1", "r2"])
        runner.apply(Event("txblock", {"rid": "r1", "txid": "a", "stmts": [
            "INSERT INTO Artists VALUES ('Sam', TRUE, 1)",
            "INSERT INTO Albums VALUES ('A1', 'Sam', 4, 'rock')",
        ]}, 1))
        runner.apply(Event("deliver", {"rid": None}, 2))
        assert runner.report.ok, runner.report.failures
        committed = runner.txs["a"]
        committed.buffer[("Artists", "Sam")].deltas["Plays"] += 1
        committed.write(("Artists", "Ghost")).deltas["Plays"] = 1
        r1 = runner.cluster.replica("r1")
        moved = r1.store.cell("Albums", "A1", "Stock").transfer("r1", "r9", 1)  # r9 is no replica
        for rep in runner.cluster.replicas.values():
            rep._apply_delta(row_delta("Albums", "A1", {"Stock": moved}))
        seq = r1.clock.get("r1") + 2  # one commit of r1 never sent
        runner.cluster.queues["r2"].append(CommitRecord("r1", "lost", CausalClock({"r1": seq}), 99, []))
        assert runner.finish().failures == [
            "eventual delivery: 1 records still queued for r2",
            "rights conservation: Albums/A1.Stock at r1: rights spread 3 != total 4",
            "rights conservation: Albums/A1.Stock at r2: rights spread 3 != total 4",
            "counter ledger: Artists/Ghost.Plays missing at r1",
            "counter ledger: Artists/Ghost.Plays missing at r2",
            "counter ledger: Artists/Sam.Plays at r1: value 1, committed deltas sum to 2",
            "counter ledger: Artists/Sam.Plays at r2: value 1, committed deltas sum to 2",
        ]


class ConvergenceCheckingRunner(Runner):
    """After every event, checks that converged(), which compares the stores
    by value, agrees with comparing their store_canon texts, and that a
    failing check can name a differing row."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.verdicts = {True: 0, False: 0}
        self.mismatches: list[str] = []

    def apply(self, event):
        super().apply(event)
        self.check_converged(event.line)

    def check_converged(self, line):
        by_value = self.cluster.converged()
        by_canon = len({store_canon(rep.store) for rep in self.cluster.replicas.values()}) == 1
        self.verdicts[by_value] += 1
        if by_value != by_canon:
            self.mismatches.append(f"{self.report.name} line {line}: converged() is {by_value}, canon says {by_canon}")
        if not by_value:
            self.cluster.divergence()  # names a row, or raises


class TestConvergence:
    def test_agrees_with_store_canon_on_scenarios(self):
        mismatches, verdicts = [], {True: 0, False: 0}
        for runner in scenario_runs(ConvergenceCheckingRunner):
            runner.finish()
            runner.check_converged(0)
            mismatches += runner.mismatches
            verdicts = {v: verdicts[v] + runner.verdicts[v] for v in verdicts}
        assert mismatches == []
        assert verdicts[True] > 0 and verdicts[False] > 0

    @fuzz_schemas
    def test_agrees_with_store_canon_on_fuzz(self, schema_text):
        mismatches, verdicts = [], {True: 0, False: 0}
        for runner, _ in fuzz_runs(schema_text, ConvergenceCheckingRunner):
            runner.finish()
            runner.check_converged(0)
            mismatches += runner.mismatches
            verdicts = {v: verdicts[v] + runner.verdicts[v] for v in verdicts}
        assert mismatches == []
        assert verdicts[True] > 0 and verdicts[False] > 0


def row_text(row) -> str:
    """A stored row as store_canon renders it, without its key."""
    cells = [f"{col}={crdt.canon(row.cells[col])}" for col in sorted(row.cells)]
    return " ".join(cells + [f"vis={crdt.canon(row.visibility)}", f"gen={row.generation}"])


class RowValueCheckingRunner(Runner):
    """After every event, renders every Row reachable from a store or from
    an open transaction's saved map, and checks that a Row object seen
    before renders as it did then. Each Row seen is kept, so that no id is
    reused."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen: dict[int, tuple[object, str]] = {}
        self.rechecked = self.saved = 0
        self.mismatches: list[str] = []

    def apply(self, event):
        super().apply(event)
        self.check_rows(event.line)

    def check_rows(self, line):
        rows = {}
        for rep in self.cluster.replicas.values():
            for table in rep.store.tables.values():
                rows.update((id(row), row) for row in table.values())
            for tx in rep.active.values():
                kept = [row for row in tx.saved.values() if row is not None]
                self.saved += len(kept)
                rows.update((id(row), row) for row in kept)
        for key, row in rows.items():
            text = row_text(row)
            if key not in self.seen:
                self.seen[key] = (row, text)
            elif self.seen[key][1] == text:
                self.rechecked += 1
            else:
                self.mismatches.append(f"{self.report.name} line {line}: {self.seen[key][1]} became {text}")


class TestRowValues:
    """A stored Row is never altered: a change stores a new one."""

    def test_rows_keep_their_value_on_scenarios(self):
        mismatches, rechecked, saved = [], 0, 0
        for runner in scenario_runs(RowValueCheckingRunner):
            runner.finish()
            runner.check_rows(0)
            mismatches += runner.mismatches
            rechecked, saved = rechecked + runner.rechecked, saved + runner.saved
        assert mismatches == []
        assert rechecked > 0 and saved > 0

    @fuzz_schemas
    def test_rows_keep_their_value_on_fuzz(self, schema_text):
        mismatches, rechecked, saved = [], 0, 0
        for runner, _ in fuzz_runs(schema_text, RowValueCheckingRunner):
            runner.finish()
            runner.check_rows(0)
            mismatches += runner.mismatches
            rechecked, saved = rechecked + runner.rechecked, saved + runner.saved
        assert mismatches == []
        assert rechecked > 0 and saved > 0

    @pytest.fixture()
    def merges(self, monkeypatch):
        """engine.merge calls, counted."""
        merge, calls = engine.merge, collections.Counter()

        def counting(a, b):
            calls["merge"] += 1
            return merge(a, b)

        monkeypatch.setattr(engine, "merge", counting)
        return calls

    def test_receivers_store_the_origin_row(self, merges):
        cluster = Cluster(sch.parse_schema_text(FUZZ_SCHEMA), ["r1", "r2", "r3"])
        r1, r2 = cluster.replica("r1"), cluster.replica("r2")
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Artists VALUES ('Sam', TRUE, 0)")
        cluster.commit(tx)
        cluster.deliver_all()
        before = r2.store.row("Artists", "Sam")
        reader = r2.begin()
        tx = r1.begin()
        r1.execute(tx, "UPDATE Artists SET Plays = Plays + 2 WHERE Name = 'Sam'")
        merges.clear()
        record = cluster.commit(tx)
        assert merges["merge"] == 0  # the origin stores the row its fold built
        row = r1.store.row("Artists", "Sam")
        assert row is record.deltas[0].result
        cluster.deliver_all()
        assert merges["merge"] == 0
        assert all(rep.store.row("Artists", "Sam") is row for rep in cluster.replicas.values())
        assert reader.saved[("Artists", "Sam")] is before
        assert r2.execute(reader, "SELECT Plays FROM Artists WHERE Name = 'Sam'") == [{"Plays": 0}]
        assert cluster.converged()

    def test_receivers_store_the_donor_row(self, merges):
        cluster = Cluster(sch.parse_schema_text(FUZZ_SCHEMA), ["r1", "r2", "r3"])
        r1 = cluster.replica("r1")
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Accounts VALUES ('acct1', 9)")
        cluster.commit(tx)
        cluster.deliver_all()
        before = r1.store.row("Accounts", "acct1")
        merges.clear()
        assert cluster.request_rights("r2", "Accounts", "acct1", "Balance", 2)  # r1 donates
        cluster.deliver_all()
        assert merges["merge"] == 0
        row = r1.store.row("Accounts", "acct1")
        assert row is not before and row.cells["Balance"].free("r2") == 5
        assert all(rep.store.row("Accounts", "acct1") is row for rep in cluster.replicas.values())
        assert cluster.converged()

    def test_receivers_merge_concurrent_updates(self, merges):
        cluster = Cluster(sch.parse_schema_text(FUZZ_SCHEMA), ["r1", "r2", "r3"])
        r1, r2 = cluster.replica("r1"), cluster.replica("r2")
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Artists VALUES ('Sam', TRUE, 0)")
        cluster.commit(tx)
        cluster.deliver_all()
        cluster.partition([["r1"], ["r2", "r3"]])
        for rep, sql in ((r1, "UPDATE Artists SET Plays = Plays + 2 WHERE Name = 'Sam'"),
                         (r2, "UPDATE Artists SET Active = FALSE WHERE Name = 'Sam'")):
            tx = rep.begin()
            rep.execute(tx, sql)
            cluster.commit(tx)
        cluster.deliver_all()
        cluster.heal()
        merges.clear()
        cluster.deliver_all()
        assert merges["merge"] > 0
        assert cluster.converged()
        assert cluster.dumps("r3")["Artists"] == ["Sam,false,2"]
        rows = [rep.store.row("Artists", "Sam") for rep in cluster.replicas.values()]
        assert len({id(row) for row in rows}) == 3  # equal rows, each merged apart

        # Each receiver's row equals the base of r1's next record, so each
        # takes r1's row without merging, and the replicas share it again.
        tx = r1.begin()
        r1.execute(tx, "UPDATE Artists SET Plays = Plays + 1 WHERE Name = 'Sam'")
        cluster.commit(tx)
        merges.clear()
        cluster.deliver_all()
        assert merges["merge"] == 0
        row = r1.store.row("Artists", "Sam")
        assert all(rep.store.row("Artists", "Sam") is row for rep in cluster.replicas.values())

    def test_a_multi_value_write_folds_in_one_step(self, monkeypatch):
        """The fold takes one mv_assign for the row's flag and one for
        each MULTI_VALUE cell, and merges nothing; it stores, and ships over
        the live row as base, the Row that merging each fresh one-entry
        register into the live state builds."""
        cluster = Cluster(sch.parse_schema_text(FUZZ_SCHEMA), ["r1", "r2"])
        r1 = cluster.replica("r1")
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Artists VALUES ('Sam', TRUE, 0)")
        r1.execute(tx, "INSERT INTO Albums VALUES ('A1', 'Sam', 3, 'rock')")
        cluster.commit(tx)
        old = r1.store.row("Albums", "A1")
        tx = r1.begin()
        r1.execute(tx, "UPDATE Albums SET Genre = 'jazz' WHERE Title = 'A1'")
        write = tx.buffer[("Albums", "A1")]
        assert list(tx.buffer) == [("Albums", "A1")] and not cluster.catalog.coordination["Albums"].row_guarded
        (flag, seen), (genre, observed) = write.flag, write.sets["Genre"]
        lam = r1.lamport + 1
        flag_entry = mv_assign((), flag, seen, "r1", lam)
        genre_entry = mv_assign((), genre, observed, "r1", lam)
        cell = mv_merge(old.cells["Genre"], genre_entry)
        two_step = Row({**old.cells, "Genre": cell}, mv_merge(old.visibility, flag_entry), old.generation)

        calls = collections.Counter()

        def counting(a, b):
            calls["merge"] += 1
            return mv_merge(a, b)

        for module in (crdt, engine):  # crdt.merge's register path, and the flag merge
            monkeypatch.setattr(module, "mv_merge", counting)
        record = cluster.commit(tx)
        assert calls["merge"] == 0
        assert r1.store.row("Albums", "A1") == two_step
        (delta,) = record.deltas
        assert delta.base is old and delta.result == two_step


class TestReadOnlyCommit:
    """A transaction that wrote nothing commits at its origin alone: no
    record, no clock tick, no Lamport step."""

    @pytest.mark.parametrize("statements", [[], ["SELECT * FROM Artists"]], ids=["no_statement", "select"])
    def test_ships_nothing_and_moves_no_clock(self, statements):
        cluster = Cluster(sch.parse_schema_text(FUZZ_SCHEMA), ["r1", "r2", "r3"])
        r1 = cluster.replica("r1")
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Artists VALUES ('Sam', TRUE, 0)")
        first = cluster.commit(tx)
        clock, lamport = r1.clock.copy(), r1.lamport
        queued = {rid: list(queue) for rid, queue in cluster.queues.items()}

        tx = r1.begin()
        for sql in statements:
            r1.execute(tx, sql)
        assert cluster.commit(tx) is None
        assert tx.status is TxStatus.COMMITTED and tx.txid not in r1.active
        assert cluster.queues == queued
        assert r1.clock == clock and r1.lamport == lamport

        tx = r1.begin()
        r1.execute(tx, "UPDATE Artists SET Plays = Plays + 1 WHERE Name = 'Sam'")
        record = cluster.commit(tx)
        assert (record.clock.get("r1"), record.lamport) == (first.clock.get("r1") + 1, first.lamport + 1)
        assert cluster.deliver_all() == 4  # both records, at r2 and at r3
        assert all(rep.clock == r1.clock for rep in cluster.replicas.values())
        assert cluster.converged()
        assert cluster.dumps("r3")["Artists"] == ["Sam,true,1"]


class TestObjectShapes:
    """Stored state is many small objects that the cyclic garbage collector
    walks on every full collection, so each is one slotted block, or a
    tuple or dict it stops tracking."""

    def test_dataclass_instances_have_no_dict(self):
        report = Report("r")
        instances = [
            AdditiveCounter(), Bound(1, 0),
            BoundedCounter(bound=Bound(1, 0)),
            Row(), RowView(None),
            CausalClock(), RowWrite(), Transaction("t", "r1"), row_delta("T", 1), LockState(),
            Event("heal", {}), Scenario("s", [], "", []), report, FuzzConfig(),
            FuzzOutcome(FuzzConfig(), [], report),
        ]
        for obj in instances:
            assert not hasattr(obj, "__dict__"), type(obj).__name__
        # CommitRecord is not slotted: records are weakly referenced.
        declared = {
            cls for module in (crdt, engine, txn, sim) for cls in vars(module).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
        }
        assert declared - {type(obj) for obj in instances} == {txn.CommitRecord}

    def test_stored_cells_and_child_keys_are_untracked(self):
        """After a full collection the collector no longer tracks a stored
        last-writer-wins cell, a multi-value register (a row's flags or a
        Genre cell) or a child index key set, so it walks none of them
        again; nor a row's cells dict that holds no counter, as a Reviews
        row's does."""
        cluster = Cluster(sch.parse_schema_text(FUZZ_SCHEMA), ["r1", "r2"])
        r1, r2 = cluster.replica("r1"), cluster.replica("r2")
        for rep, sql in (
            (r1, "INSERT INTO Artists VALUES ('Sam', TRUE, 0)"),
            (r2, "INSERT INTO Artists VALUES ('Ana', TRUE, 0)"),
            (r1, "INSERT INTO Albums VALUES ('A1', 'Sam', 2, 'rock')"),
            (r2, "INSERT INTO Reviews VALUES (1, 'A1', 3)"),
            (r1, "UPDATE Artists SET Active = FALSE WHERE Name = 'Sam'"),
            (r2, "UPDATE Albums SET Artist = 'Ana' WHERE Title = 'A1'"),
            (r1, "UPDATE Reviews SET Stars = 4 WHERE Id = 1"),
        ):
            tx = rep.begin()
            rep.execute(tx, sql)
            cluster.commit(tx)
            cluster.deliver_all()
        for rep, genre in ((r1, "jazz"), (r2, "folk")):  # concurrent: both survive
            tx = rep.begin()
            rep.execute(tx, f"UPDATE Albums SET Genre = '{genre}' WHERE Title = 'A1'")
            cluster.commit(tx)
        cluster.deliver_all()
        assert cluster.converged()
        # A pass untracks a tuple only once it has untracked every item, and
        # it may meet the tuple first: an MV register's entries, their
        # versions and a version's pairs nest four deep, so four passes.
        for _ in range(4):
            gc.collect()
        for rep in (r1, r2):
            assert mv_values(rep.store.cell("Albums", "A1", "Genre")) == ["folk", "jazz"]
            assert rep.store.cell("Reviews", 1, "Stars") == (4, (7, "r1"))
            lww = mv = 0
            for rows in rep.store.tables.values():
                for row in rows.values():
                    assert type(row.visibility) is tuple and row.visibility, row
                    assert not gc.is_tracked(row.visibility), row
                    for cell in row.cells.values():
                        if not isinstance(cell, AdditiveCounter):
                            assert type(cell) is tuple and not gc.is_tracked(cell), cell
                            lww += is_lww(cell)
                            mv += not is_lww(cell)
            assert lww == 9  # keys included: four Artists, two Albums and three Reviews cells
            assert mv == 1  # A1's Genre
            children = rep.store.children
            assert set(children) == {("Albums", "Artist", "Sam"), ("Albums", "Artist", "Ana"), ("Reviews", "Album", "A1")}
            assert not any(gc.is_tracked(kids) for kids in children.values())
            assert not gc.is_tracked(rep.store.row("Reviews", 1).cells)

    def test_the_collector_walks_only_rows_and_counters(self):
        """Under gc_census's seeded point load, what the stores reach that
        the collector still tracks, after four full collections, is the
        Row instances, the cells dicts that hold a counter, and the
        counters: no register, cell, key set or index entry. A pass
        untracks a tuple only once it has untracked its items, one level of
        nesting per pass (see test_stored_cells_and_child_keys_are_untracked)."""
        load = gc_census.Load(gc_census.SEED)
        load.setup(400)
        load.run(1000)
        for _ in range(4):
            gc.collect()
        by_type = gc_census.reached(load.cluster)
        assert set(by_type) <= {"dict", "Row", "AdditiveCounter", "BoundedCounter", "Bound"}, by_type


class SettleCheckingRunner(Runner):
    """Checks, at every event, what the fuzzer's incremental open set rests
    on: a stmt, commit or abort names a transaction that is active when it
    is applied, and applying an event changes the status of no transaction
    but the event's own. Counts the events of those three kinds and the
    ones that settled their own transaction."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ending = self.settled = 0
        self.problems: list[str] = []

    def apply(self, event):
        own = event.args.get("txid")
        where = f"{self.report.name} line {event.line}: {event.kind} {own}"
        if event.kind in ("stmt", "commit", "abort"):
            self.ending += 1
            tx = self.txs.get(own)
            if tx is None or tx.status is not TxStatus.ACTIVE:
                self.problems.append(f"{where} names a transaction that is not active")
        txids = list(self.txs)
        before = [tx.status for tx in self.txs.values()]
        super().apply(event)
        after = [tx.status for tx in self.txs.values()]
        for txid, old, new in zip(txids, before, after):
            if new is not old:
                if txid == own:
                    self.settled += 1
                else:
                    self.problems.append(f"{where} changed the status of {txid}")


@pytest.mark.parametrize("schema_text", behaviour_digest.SCHEMAS.values(), ids=behaviour_digest.SCHEMAS.keys())
def test_only_an_events_own_transaction_settles(schema_text):
    """The generator drops only the event's own txid from its open set
    after a stmt, commit or abort; this holds it to that over the digest's
    seeds, replica counts and schemas."""
    problems, ending, settled = [], 0, 0
    catalog = sch.parse_schema_text(schema_text)
    for replicas in behaviour_digest.REPLICAS:
        rids = [f"r{i + 1}" for i in range(replicas)]
        for seed in behaviour_digest.SEEDS:
            config = FuzzConfig(seed=seed, replicas=replicas, events=behaviour_digest.EVENTS, schema_text=schema_text)
            runner = SettleCheckingRunner(catalog, rids, name=f"fuzz-{seed}@{replicas}", lenient=True)
            sim._gen_events(config, rids, runner)
            problems += runner.problems
            ending, settled = ending + runner.ending, settled + runner.settled
    assert problems == []
    assert ending > 10_000 and settled > 1000


class TestFuzz:
    def test_deterministic_for_seed(self):
        a = fuzz(FuzzConfig(seed=11, events=50))
        b = fuzz(FuzzConfig(seed=11, events=50))
        assert [e.render() for e in a.trace] == [e.render() for e in b.trace]
        assert a.report.to_json() == b.report.to_json()

    def test_different_seeds_differ(self):
        a = fuzz(FuzzConfig(seed=1, events=50))
        b = fuzz(FuzzConfig(seed=2, events=50))
        assert [e.render() for e in a.trace] != [e.render() for e in b.trace]

    def test_replay_matches_original(self):
        config = FuzzConfig(seed=3, events=50)
        outcome = fuzz(config)
        replayed = replay_trace(config, outcome.trace)
        assert replayed.failures == outcome.report.failures

    def test_clean_runs_are_not_minimized(self):
        outcome = fuzz(FuzzConfig(seed=5, events=30))
        assert outcome.ok
        assert outcome.minimized is None

    def test_minimize_shrinks_artificial_failure(self):
        # extend a clean trace with an assertion that cannot hold, then
        # check minimize keeps the trace failing while dropping events
        config = FuzzConfig(seed=8, events=40)
        outcome = fuzz(config)
        assert outcome.ok
        trace = list(outcome.trace)

        def still_fails(events):
            return not replay_trace(config, events).ok

        bad = trace + [
            Event("partition", {"groups": [["r1"], ["r2", "r3"]]}, 0),
            Event("begin", {"rid": "r1", "txid": "zz"}, 0),
            Event(
                "stmt",
                {"txid": "zz", "sql": "INSERT INTO Artists VALUES ('Zed', TRUE, 1)", "expect": None},
                0,
            ),
            Event("commit", {"txid": "zz", "expect": None}, 0),
            # r2 cannot have seen the commit: convergence must fail here
            Event("assert_converged", {}, 0),
        ]
        assert still_fails(bad)
        small = minimize(config, bad)
        assert still_fails(small)
        # the clean prefix is noise to this failure and should mostly go
        assert len(small) < len(bad) // 2

    def test_reports_and_traces_are_pinned(self):
        """Fuzz reports and traces of seeds 0-9 at 200 events stay exactly
        as they were. A deliberate change to the event generator, or to
        what a report records, updates the pin in the same change."""
        digest = hashlib.sha256()
        for seed in range(10):
            outcome = fuzz(FuzzConfig(seed=seed, events=200), shrink=False)
            digest.update(json.dumps(outcome.report.to_json(), sort_keys=True).encode())
            digest.update(outcome.trace_text().encode())
        assert digest.hexdigest() == "a6ff183064dd21bb0f49b73c6063d9670884f6d318a7d2532aa58cf20a6fedf5"

    def test_end_states_are_pinned(self):
        """The store_canon of every replica after finish, for every scenario
        and for fuzz seeds 0-9 at 200 events, stays exactly as it was.
        Reports and dumps show visible rows only; this pins every cell,
        visibility register and generation, tombstones included."""

        def scenario_replays():
            for name in PINNED_SCENARIOS:
                scenario = load_scenario(os.path.join(SCENARIO_DIR, f"{name}.aqlsim"))
                runner = Runner(scenario.catalog(), scenario.replicas, name=scenario.name)
                runner.run(scenario.events)
                yield runner

        def fuzz_replays():
            for seed in range(10):
                outcome = fuzz(FuzzConfig(seed=seed, events=200), shrink=False)
                runner = Runner(sch.parse_schema_text(FUZZ_SCHEMA), ["r1", "r2", "r3"], f"fuzz-{seed}", lenient=True)
                runner.run(outcome.trace)
                yield runner

        digest = hashlib.sha256()
        runs = 0
        for runner in [*scenario_replays(), *fuzz_replays()]:
            runner.finish()
            runs += 1
            for rid in runner.cluster.replica_ids:
                canon = store_canon(runner.cluster.replica(rid).store)
                digest.update(f"{runner.report.name} {rid}\n{canon}\n".encode())
        assert runs == 26
        assert digest.hexdigest() == "6e88d105b7aed182c45f0d3869c986a4ffdb81199b52fec6da1dcb7a4a26c0c6"

    def test_bound_off_zero_keeps_the_ledger(self):
        """Concurrent inserts under Plays <= 6 take the row lock instead of
        merging into a value the committed deltas do not sum to."""
        schema_text = FUZZ_SCHEMA.replace("Plays INT ADDITIVE\n", "Plays INT ADDITIVE CHECK (Plays <= 6)\n")
        assert schema_text != FUZZ_SCHEMA
        outcome = fuzz(FuzzConfig(seed=56, events=200, schema_text=schema_text), shrink=False)
        assert outcome.ok, outcome.report.failures

    def test_fuzz_respects_replica_count(self):
        outcome = fuzz(FuzzConfig(seed=4, replicas=1, events=30))
        assert outcome.ok
        for event in outcome.trace:
            assert event.kind != "partition"


def prescribed_locks(catalog, stmt):
    """The locks (lock id -> mode) the table's coordination record
    prescribes for an INSERT or a point UPDATE."""
    plan, schema = catalog.coordination[stmt.table], catalog.table(stmt.table)
    if isinstance(stmt, sch.Insert):
        pk, row_mode, locked = stmt.pk, Mode.EXCLUSIVE, plan.insert_locked
    else:
        assert stmt.where.is_pk_lookup(schema), stmt
        pk, row_mode, locked = stmt.where.value, Mode.SHARED, plan.row_guarded
    values = {a.column: getattr(a, "value", None) for a in stmt.assignments}
    want = {row_lock(stmt.table, pk): row_mode} if locked else {}
    for column, value in values.items():
        if column in plan.locked_columns:
            want[column_lock(stmt.table, pk, column)] = Mode.EXCLUSIVE
        parent = plan.locked_parents.get(column)
        if parent is not None and want.get(row_lock(parent, value)) is not Mode.EXCLUSIVE:
            want[row_lock(parent, value)] = Mode.SHARED
    return want


def test_engine_takes_the_locks_its_coordination_record_prescribes(monkeypatch):
    """Over every shipped scenario and fuzz seeds 0-9 on FUZZ_SCHEMA and
    STRICT_FK_SCHEMA: each INSERT and UPDATE that succeeds takes exactly the
    locks its table's record prescribes for its row and assigned columns,
    and each DELETE takes only exclusive row locks, on tables whose record
    says a delete takes one. The fuzz runs take delete and parent locks of
    their own."""
    calls, seen = [], collections.Counter()
    acquire, execute = LockManager.acquire, Replica.execute

    def recording(manager, tx, lock_id, mode):
        calls.append((lock_id, mode))
        acquire(manager, tx, lock_id, mode)

    def checked(replica, tx, statement, params=()):
        try:
            stmt = sch.parse_statement(statement, replica.catalog, params)
        except AqlError:
            return execute(replica, tx, statement, params)
        start = len(calls)
        try:
            result = execute(replica, tx, statement, params)
        finally:
            got = calls[start:]
            if isinstance(stmt, sch.Delete):
                for lock_id, mode in got:
                    kind, table, _ = lock_id.split("/", 2)
                    assert kind == "row" and mode is Mode.EXCLUSIVE, (statement, lock_id)
                    assert replica.catalog.coordination[table].delete_locked, (statement, lock_id)
                seen["delete locks"] += len(got)
        if isinstance(stmt, (sch.Insert, sch.Update)):
            want = prescribed_locks(replica.catalog, stmt)
            assert len(got) == len(set(got)) and dict(got) == want, statement
            seen["parent locks"] += sum(lock_id.split("/")[1] != stmt.table for lock_id in want)
            seen["writes"] += 1
        return result

    monkeypatch.setattr(LockManager, "acquire", recording)
    monkeypatch.setattr(Replica, "execute", checked)
    for path in scenario_paths():
        run_scenario(load_scenario(path))
    from_scenarios = seen.copy()
    for schema_text in (FUZZ_SCHEMA, STRICT_FK_SCHEMA):
        for seed in range(10):
            fuzz(FuzzConfig(seed=seed, events=200, schema_text=schema_text), shrink=False)
    assert seen["writes"] > 100, seen
    assert seen["delete locks"] > from_scenarios["delete locks"] > 0, seen
    assert seen["parent locks"] > from_scenarios["parent locks"] > 0, seen


def test_load_scenario_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.aqlsim"
    path.write_bytes("replicas r1\n# caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ScenarioError, match="latin1.aqlsim is not UTF-8 text"):
        load_scenario(str(path))
