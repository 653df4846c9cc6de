"""Acceptance gate: one test per shipped guarantee.

Each test prints a single CRITERION line so a verbose run reads as a
checklist. Tolerances and case counts sit in the asserts themselves.
"""

import itertools
import random
import time

import pytest

import aqldb.schema as sch
from aqldb.crdt import Bound, BoundedCounter, merge, mv_assign, mv_merge
from aqldb.engine import (
    Cause,
    Row,
    Store,
    ViewContext,
    dump_all,
)
from aqldb.errors import FkRestrict, InsufficientRights, LockUnavailable
from aqldb.sim import (
    FUZZ_SCHEMA,
    Cluster,
    FuzzConfig,
    Runner,
    fuzz,
    load_scenario,
)

from aqldb.txn import Mode, column_lock, row_lock

from delivery_orders import enumerate_orders
from test_crdt_laws import GENERATORS
from test_engine import verdict_of
from test_sim import scenario_paths


def stamp(n, label, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {n:>2} {label}: PASS{suffix}")


PAIR_SCHEMA = """
CREATE UPDATE_WINS TABLE Artists (
  Name VARCHAR PRIMARY KEY,
  Active BOOLEAN LWW
);
CREATE UPDATE_WINS TABLE Albums (
  Title VARCHAR PRIMARY KEY,
  Artist VARCHAR LWW FOREIGN KEY {policy} REFERENCES Artists (Name){cascade}
);
"""


def pair_cluster(fk_policy, cascade=False):
    text = PAIR_SCHEMA.format(
        policy=fk_policy, cascade=" ON DELETE CASCADE" if cascade else ""
    )
    catalog = sch.parse_schema_text(text)
    return Cluster(catalog, ["r1", "r2"])


def one_tx(cluster, rid, *stmts):
    rep = cluster.replica(rid)
    tx = rep.begin()
    for s in stmts:
        rep.execute(tx, s)
    return cluster.commit(tx)


def test_c01_concurrent_delete_vs_insert_matches_goldens():
    t0 = time.perf_counter()
    goldens = {
        "UPDATE_WINS": {"Artists": ["Sam,true"], "Albums": ["A1,Sam"]},
        "DELETE_WINS": {"Artists": [], "Albums": []},
    }
    for policy, expected in goldens.items():
        cluster = pair_cluster(policy)
        one_tx(cluster, "r1", "INSERT INTO Artists VALUES ('Sam', TRUE)")
        cluster.deliver_all()
        cluster.partition([["r1"], ["r2"]])
        one_tx(cluster, "r1", "DELETE FROM Artists WHERE Name = 'Sam'")
        one_tx(cluster, "r2", "INSERT INTO Albums VALUES ('A1', 'Sam')")
        cluster.heal()
        cluster.deliver_all()
        assert cluster.converged(), policy
        for rid in ("r1", "r2"):
            got = dump_all(cluster.replica(rid).store, cluster.catalog)
            assert got == expected, (policy, rid, got)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    stamp(1, "concurrent delete vs insert, golden dumps", f"{elapsed * 1000:.0f} ms")


def test_c02_cascading_delete_vs_concurrent_insert():
    t0 = time.perf_counter()
    cases = {
        "UPDATE_WINS": {"Artists": ["Sam,true"], "Albums": ["A1,Sam"]},
        "DELETE_WINS": {"Artists": [], "Albums": []},
    }
    for policy, expected in cases.items():
        cluster = pair_cluster(policy, cascade=True)
        one_tx(
            cluster, "r1",
            "INSERT INTO Artists VALUES ('Sam', TRUE)",
            "INSERT INTO Albums VALUES ('A0', 'Sam')",
        )
        cluster.deliver_all()
        cluster.partition([["r1"], ["r2"]])
        one_tx(cluster, "r1", "DELETE FROM Artists WHERE Name = 'Sam'")
        one_tx(cluster, "r2", "INSERT INTO Albums VALUES ('A1', 'Sam')")
        cluster.heal()
        cluster.deliver_all()
        assert cluster.converged(), policy
        for rid in ("r1", "r2"):
            got = dump_all(cluster.replica(rid).store, cluster.catalog)
            assert got == expected, (policy, rid, got)
            # A0 was caught by the cascade in both variants
            assert not verdict_of(
                ViewContext(cluster.replica(rid).store, cluster.catalog),
                "Albums", "A0",
            ).visible
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    stamp(2, "cascading delete vs concurrent insert", f"{elapsed * 1000:.0f} ms")


def test_c03_visibility_truth_table_exhaustive():
    tables = {
        "UPDATE_WINS": "CREATE UPDATE_WINS TABLE T (K VARCHAR PRIMARY KEY, V INT LWW);",
        "DELETE_WINS": "CREATE DELETE_WINS TABLE T (K VARCHAR PRIMARY KEY, V INT LWW);",
    }
    checked = 0
    for policy, ddl in tables.items():
        catalog = sch.parse_schema_text(ddl)
        for n in range(4):
            for combo in itertools.combinations("IDT", n):
                flags = frozenset(combo)
                store = Store()
                vis = ()
                for i, f in enumerate(sorted(flags)):
                    vis = mv_merge(vis, mv_assign((), f, {}, f"w{i}"))
                store.tables["T"] = {"k": Row(visibility=vis)}
                verdict = verdict_of(ViewContext(store, catalog), "T", "k")
                if not flags:
                    expected = False
                elif policy == "UPDATE_WINS":
                    expected = flags != {"D"}
                else:
                    expected = "D" not in flags
                assert verdict.visible == expected, (policy, set(flags))
                checked += 1
    # spot-check the named rows of the table
    assert checked == 16
    stamp(3, "visibility truth table over all flag subsets", f"{checked} combinations")


def test_c04_stale_parent_generation_hides_child():
    text = """
    CREATE UPDATE_WINS TABLE P (K VARCHAR PRIMARY KEY, V INT LWW);
    CREATE UPDATE_WINS TABLE C (
      K VARCHAR PRIMARY KEY,
      R VARCHAR LWW FOREIGN KEY DELETE_WINS REFERENCES P (K)
    );
    """
    cluster = Cluster(sch.parse_schema_text(text), ["r1", "r2", "r3"])
    one_tx(cluster, "r1", "INSERT INTO P VALUES ('p', 1)")
    cluster.deliver_all()
    cluster.partition([["r1"], ["r2"], ["r3"]])
    one_tx(cluster, "r2", "INSERT INTO C VALUES ('c', 'p')")  # records generation 1
    one_tx(cluster, "r1", "DELETE FROM P WHERE K = 'p'")
    one_tx(cluster, "r1", "INSERT INTO P VALUES ('p', 2)")  # generation 2
    cluster.heal()
    cluster.deliver_all()
    assert cluster.converged()
    for rid in ("r1", "r2", "r3"):
        ctx = ViewContext(cluster.replica(rid).store, cluster.catalog)
        assert cluster.replica(rid).store.row("P", "p").generation == 2
        assert verdict_of(ctx, "P", "p").visible
        verdict = verdict_of(ctx, "C", "c")
        assert not verdict.visible, rid
        assert verdict is Cause.PARENT_VERSION_STALE
    stamp(4, "stale parent generation hides child at every replica")


def test_c05_merge_laws_at_scale():
    per_kind = 2100  # x5 kinds = 10500 cases per law
    total = 0
    for kind, gen in sorted(GENERATORS.items()):
        rng = random.Random(f"acceptance-{kind}")
        for _ in range(per_kind):
            a, b, c = gen(rng), gen(rng), gen(rng)
            assert merge(a, b) == merge(b, a), kind
            assert merge(a, merge(b, c)) == merge(merge(a, b), c), kind
            assert merge(a, a) == a, kind
            total += 1
    assert total >= 10_000  # cases per law
    stamp(5, "merge commutative, associative, idempotent", f"{total} cases per law")


def test_c06_bounded_counter_safety_over_seeded_schedules():
    rids = ("r1", "r2", "r3")
    refusals = 0
    schedules = 1000
    for seed in range(schedules):
        rng = random.Random(seed)
        bound = Bound("lower", 0)
        initial = rng.randrange(0, 21)
        base = BoundedCounter.create(bound, initial, rids, rng.choice(rids))
        states = {r: base for r in rids}
        consumed = replenished = 0
        for _ in range(rng.randrange(5, 25)):
            r = rng.choice(rids)
            st = states[r]
            roll = rng.random()
            if roll < 0.45:
                amount = rng.randrange(1, 8)
                if amount > st.free(r):
                    with pytest.raises(InsufficientRights):
                        st.apply_delta(r, -amount)
                    refusals += 1
                else:
                    states[r] = st.apply_delta(r, -amount)
                    consumed += amount
            elif roll < 0.60:
                amount = rng.randrange(1, 5)
                states[r] = st.apply_delta(r, amount)
                replenished += amount
            elif roll < 0.80:
                dst = rng.choice([x for x in rids if x != r])
                amount = rng.randrange(1, 6)
                if amount > st.free(r):
                    with pytest.raises(InsufficientRights):
                        st.transfer(r, dst, amount)
                    refusals += 1
                else:
                    states[r] = st.transfer(r, dst, amount)
            else:
                states[r] = st.merge(states[rng.choice(rids)])
        final = states["r1"].merge(states["r2"]).merge(states["r3"])
        assert bound.admits(final.value()), seed
        assert final.value() == initial + replenished - consumed, seed
        assert sum(final.rights(r) for r in rids) == final.total_rights(), seed
    assert refusals > 0
    stamp(
        6, "bounded counter never crosses its bound",
        f"{schedules} schedules, {refusals} refused over-consumptions",
    )


def test_c07_additive_updates_conserve_sum():
    text = """
    CREATE UPDATE_WINS TABLE T (
      K VARCHAR PRIMARY KEY,
      V INT ADDITIVE
    );
    """
    catalog = sch.parse_schema_text(text)
    rids = ["r1", "r2", "r3"]
    for seed in range(40):
        rng = random.Random(seed)
        cluster = Cluster(catalog, rids)
        initial = rng.randrange(-20, 50)
        one_tx(cluster, "r1", f"INSERT INTO T VALUES ('x', {initial})")
        cluster.deliver_all()
        if rng.random() < 0.7:
            cut = rng.randrange(1, 3)
            cluster.partition([rids[:cut], rids[cut:]])
        deltas = []
        for _ in range(rng.randrange(1, 20)):
            d = rng.choice([x for x in range(-9, 10) if x])
            deltas.append(d)
            sign = "+" if d >= 0 else "-"
            one_tx(
                cluster, rng.choice(rids),
                f"UPDATE T SET V = V {sign} {abs(d)} WHERE K = 'x'",
            )
        cluster.heal()
        cluster.deliver_all()
        assert cluster.converged(), seed
        expected = initial + sum(deltas)
        for rid in rids:
            cell = cluster.replica(rid).store.row("T", "x").cells["V"]
            assert cell.value() == expected, (seed, rid)
    stamp(7, "additive updates converge to initial plus sum of deltas", "40 seeds")


def test_c08_delivery_order_independence(broadcasts):
    checked = 0
    # the shipped scenario suite
    for path in scenario_paths():
        scenario = load_scenario(path)
        runner = Runner(scenario.catalog(), scenario.replicas, name=scenario.name)
        runner.run(scenario.events)
        assert runner.report.ok, (path, runner.report.failures)
        count, dumps = enumerate_orders(
            broadcasts[runner.cluster], scenario.catalog(), scenario.replicas, limit=4
        )
        assert count >= 1 and len(dumps) == 1, path
        checked += 1
    # plus fuzzed prefixes
    catalog = sch.parse_schema_text(FUZZ_SCHEMA)
    rids = ["r1", "r2", "r3"]
    for seed in range(50):
        config = FuzzConfig(seed=seed, events=40)
        outcome = fuzz(config)
        runner = Runner(catalog, rids, lenient=True)
        runner.run(outcome.trace)
        count, dumps = enumerate_orders(broadcasts[runner.cluster][:4], catalog, rids, limit=4)
        assert len(dumps) == 1, f"seed {seed}: {count} orders disagree"
        checked += 1
    stamp(8, "all causal delivery orders give identical dumps", f"{checked} logs")


def test_c09_lock_safety_and_liveness():
    # safety: the per-event audit in Runner covers every step of these runs
    for seed in range(30):
        outcome = fuzz(FuzzConfig(seed=seed, events=60))
        assert outcome.ok, (seed, outcome.report.failures)

    # liveness: an acquisition blocked by a partition succeeds after heal
    text = "CREATE TABLE T (K VARCHAR PRIMARY KEY, V VARCHAR);"
    cluster = Cluster(sch.parse_schema_text(text), ["r1", "r2"])
    one_tx(cluster, "r1", "INSERT INTO T VALUES ('k', 'a')")
    cluster.deliver_all()
    cluster.partition([["r1"], ["r2"]])
    r2 = cluster.replica("r2")
    tx = r2.begin()
    with pytest.raises(LockUnavailable):
        r2.execute(tx, "UPDATE T SET V = 'b' WHERE K = 'k'")
    cluster.heal()
    tx2 = r2.begin()
    r2.execute(tx2, "UPDATE T SET V = 'b' WHERE K = 'k'")
    cluster.commit(tx2)
    cluster.deliver_all()
    assert cluster.converged()
    stamp(9, "lock safety at every step, liveness after heal", "30 fuzz seeds")


def test_c10_referential_integrity_at_every_snapshot():
    t0 = time.perf_counter()
    seeds = 100
    for seed in range(seeds):
        outcome = fuzz(FuzzConfig(seed=seed, events=200), shrink=False)
        assert outcome.ok, (seed, outcome.report.failures[:3])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    stamp(
        10, "no dangling reference in any snapshot",
        f"{seeds} seeds x 200 events, {elapsed:.1f} s",
    )


def test_c11_identifier_generation():
    # gap-free sequential ids across replicas
    text = "CREATE TABLE T (K VARCHAR PRIMARY KEY, V VARCHAR);"
    cluster = Cluster(sch.parse_schema_text(text), ["r1", "r2", "r3"])
    got = []
    for i in range(60):
        rep = cluster.replica(("r1", "r2", "r3")[i % 3])
        tx = rep.begin()
        got.append(rep.next_sequential_id(tx, "order"))
        cluster.commit(tx)
    assert got == list(range(1, 61))

    # site-prefixed ids collision-free over 3 x 10^4 generations
    seen = set()
    for rid in ("r1", "r2", "r3"):
        rep = cluster.replica(rid)
        for _ in range(10_000):
            seen.add(rep.next_unique_id())
    assert len(seen) == 30_000
    stamp(11, "sequential ids gap-free, prefixed ids collision-free", "30060 ids")


def expected_coordination(row_policy, column, edge, kind):
    """The locks (lock id -> mode) a statement on C takes by the README's
    "What coordinates" rules. C's row policy is row_policy ("" for none),
    its column V carries column, and its column F, if edge is not None, is
    a foreign key to P with policy word edge ("" for none)."""
    strict_row, plain, noc_edge = row_policy == "", column == "", edge == ""
    want = {}
    if kind == "insert":
        if strict_row or plain or column.endswith("<= 6)"):  # a bound off 0 does not merge
            want[row_lock("C", 2)] = Mode.EXCLUSIVE
        if plain:
            want[column_lock("C", 2, "V")] = Mode.EXCLUSIVE
        if noc_edge:
            want[row_lock("P", 1)] = Mode.SHARED
    elif kind == "update column":
        if strict_row:
            want[row_lock("C", 1)] = Mode.SHARED
        if plain:
            want[column_lock("C", 1, "V")] = Mode.EXCLUSIVE
    elif kind == "update fk":
        if strict_row:
            want[row_lock("C", 1)] = Mode.SHARED
        if noc_edge:
            want[row_lock("P", 2)] = Mode.SHARED
    elif kind == "delete row":
        if strict_row:
            want[row_lock("C", 1)] = Mode.EXCLUSIVE
    elif noc_edge:  # delete parent
        want[row_lock("P", 1)] = Mode.EXCLUSIVE
    return want


def test_c12_coordination_truth_table():
    row_policies = ("", "UPDATE_WINS", "DELETE_WINS")
    columns = ("", "LWW", "MULTI_VALUE", "ADDITIVE", "ADDITIVE CHECK (V >= 0)", "ADDITIVE CHECK (V <= 6)")
    edges = (None, "", "UPDATE_WINS", "DELETE_WINS")
    kinds = ("insert", "update column", "update fk", "delete row", "delete parent")
    checked = 0
    for row_policy, column, edge, kind in itertools.product(row_policies, columns, edges, kinds):
        if edge is None and kind == "update fk":
            continue
        fk = "" if edge is None else f", F INT LWW FOREIGN KEY {edge} REFERENCES P (K)"
        catalog = sch.parse_schema_text(
            "CREATE UPDATE_WINS TABLE P (K INT PRIMARY KEY);\n"
            f"CREATE {row_policy} TABLE C (K INT PRIMARY KEY, V INT {column}{fk});"
        )
        cluster = Cluster(catalog, ["r1"])
        ref = "" if edge is None else ", 1"
        one_tx(cluster, "r1", "INSERT INTO P VALUES (1)", "INSERT INTO P VALUES (2)",
               f"INSERT INTO C VALUES (1, 3{ref})")
        statement = {
            "insert": f"INSERT INTO C VALUES (2, 3{ref})",
            "update column": "UPDATE C SET V = V + 1 WHERE K = 1" if "ADDITIVE" in column
            else "UPDATE C SET V = 5 WHERE K = 1",
            "update fk": "UPDATE C SET F = 2 WHERE K = 1",
            "delete row": "DELETE FROM C WHERE K = 1",
            "delete parent": "DELETE FROM P WHERE K = 1",
        }[kind]

        # Record every acquisition: a refused statement releases its locks.
        calls = []

        def recording(tx, lock_id, mode, acquire=cluster.locks.acquire):
            calls.append((lock_id, mode))
            acquire(tx, lock_id, mode)

        cluster.locks.acquire = recording
        case = (row_policy or "none", column or "plain", edge, kind)
        r1 = cluster.replica("r1")
        tx = r1.begin()
        if kind == "delete parent" and edge is not None:
            with pytest.raises(FkRestrict):
                r1.execute(tx, statement)
        else:
            r1.execute(tx, statement)
            cluster.commit(tx)
        assert len(calls) == len(set(calls)), case
        assert dict(calls) == expected_coordination(row_policy, column, edge, kind), case
        checked += 1
    assert checked == 342
    stamp(12, "each statement takes the locks its schema rules prescribe", f"{checked} cases")
