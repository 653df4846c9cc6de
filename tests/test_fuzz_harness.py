"""What an audited fuzz run costs and keeps: refused transactions leave no
reference cycles, the generator's draws stay pinned in every state and are
the draws random.Random makes, event dispatch honours subclass handlers, and
a bounded column has one Bound."""

import collections
import gc
import hashlib
import json
import os
import random
from types import FrameType, TracebackType

import pytest

import aqldb.schema as sch
from aqldb.crdt import Bound, BoundedCounter
from aqldb.errors import AqlError, ScenarioError
from aqldb.sim import FUZZ_SCHEMA, Cluster, Event, FuzzConfig, Runner, draws, fuzz, load_scenario, run_scenario
from aqldb.txn import Transaction

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

LOOP_SCHEMA = """
CREATE TABLE Config (
  Name VARCHAR PRIMARY KEY,
  Setting VARCHAR
);
CREATE UPDATE_WINS TABLE Notes (
  Id INT PRIMARY KEY,
  Text VARCHAR LWW
);
"""


def pinned_in_cycles(work) -> list[str]:
    """The frames, tracebacks, AqlErrors and Transactions that the cycle
    collector finds unreachable once work() has returned. A refused
    transaction that kept its exception would show here: the traceback
    holds every frame of the call stack, and a frame holds the transaction."""
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    saved = list(gc.garbage)
    gc.collect()
    gc.disable()
    try:
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        work()
        gc.collect()
        kinds = (FrameType, TracebackType, AqlError, Transaction)
        return [type(o).__name__ for o in gc.garbage if isinstance(o, kinds)]
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved
        gc.collect()
        if was_enabled:
            gc.enable()


class TestRefusalsLeaveNoCycles:
    def test_fuzz_runs(self):
        def work():
            for seed in range(5):
                outcome = fuzz(FuzzConfig(seed=seed, events=200), shrink=False)
                assert outcome.report.aborts > 0

        assert pinned_in_cycles(work) == []

    def test_scenario_with_expected_refusals(self):
        def work():
            scenario = load_scenario(os.path.join(SCENARIO_DIR, "strict_table_locks_across_partition.aqlsim"))
            report = run_scenario(scenario)
            assert report.ok and report.aborts == 1

        assert pinned_in_cycles(work) == []

    def test_cluster_clients_that_drop_refused_transactions(self):
        refused = collections.Counter()

        def work():
            cluster = Cluster(sch.parse_schema_text(LOOP_SCHEMA), ["r1", "r2"])
            r1, r2 = cluster.replica("r1"), cluster.replica("r2")
            tx = r1.begin()
            r1.execute(tx, "INSERT INTO Config VALUES ('mode', 'off')")
            cluster.commit(tx)
            cluster.deliver_all()
            cluster.partition([["r1"], ["r2"]])
            for i in range(20):
                for sql in (
                    f"UPDATE Notes SET Text = 'n{i}' WHERE Id = {i}",
                    f"UPDATE Config SET Setting = 'v{i}' WHERE Name = 'mode'",
                ):
                    tx = r2.begin()
                    try:
                        r2.execute(tx, sql)
                    except AqlError as err:
                        refused[err.kind] += 1

        assert pinned_in_cycles(work) == []
        assert refused == {"RowNotFound": 20, "LockUnavailable": 20}


class TestGeneratorStatesPinned:
    """Seeds 0-9 on three replicas (the TestFuzz pin) never run the
    generator without a partition choice, or with two replicas. These pins
    hold those draws fixed too; the digests were taken before the generator
    moved to a state-keyed kind table and a module-level maker table. The
    two-replica digest was taken again when read-only commits stopped
    shipping records, which changes their delivery counts only."""

    @pytest.mark.parametrize(
        ("replicas", "expected"),
        [
            (1, "869f1a822dfa526e92ca3faa2c249b55a609d1de269fb5629f5b332958f42382"),
            (2, "a573c00a449b91795afbc696006d597b6f49a19958c6bbe32cf82c0845af73ec"),
        ],
    )
    def test_reports_and_traces_are_pinned(self, replicas, expected):
        digest = hashlib.sha256()
        for seed in range(10):
            outcome = fuzz(FuzzConfig(seed=seed, replicas=replicas, events=200), shrink=False)
            digest.update(json.dumps(outcome.report.to_json(), sort_keys=True).encode())
            digest.update(outcome.trace_text().encode())
        assert digest.hexdigest() == expected


class TestDraws:
    """The generator draws through draws(rng) alone. Its pins hold only while
    below makes the draw that random.Random's choice, randrange and shuffle
    make on this interpreter, so it is checked against them here, over small
    sizes and over powers of two, where the rejection loop matters most. The
    shuffle is the generator's partition loop: swap i with below(i + 1), i
    running down from the last index to 1."""

    SIZES = list(range(1, 101)) + [2**k for k in range(7, 21)]

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_below_matches_choice_and_randrange(self, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        below = draws(ours)
        for n in self.SIZES:
            items = range(n)
            for _ in range(3):
                assert below(n) == theirs.choice(items)
                assert 5 + below(n) == theirs.randrange(5, 5 + n)
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_below_matches_shuffle(self, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        below = draws(ours)
        for n in list(range(1, 101)) + [2**k for k in range(7, 11)]:
            order, items = list(range(n)), list(range(n))
            for i in range(n - 1, 0, -1):
                j = below(i + 1)
                order[i], order[j] = order[j], order[i]
            theirs.shuffle(items)
            assert order == items
        assert ours.getstate() == theirs.getstate()


class TestDispatch:
    def runner(self, cls=Runner):
        return cls(sch.parse_schema_text(FUZZ_SCHEMA), ["r1", "r2"])

    def test_unknown_event_kind(self):
        with pytest.raises(ScenarioError) as info:
            self.runner().apply(Event("teleport", {}, 7))
        assert str(info.value) == "line 7: unknown event kind teleport"

    def test_subclass_override_is_dispatched(self):
        seen = []

        class Counting(Runner):
            def _ev_deliver(self, event):
                seen.append(event.line)
                super()._ev_deliver(event)

        runner = self.runner(Counting)
        runner.apply(Event("begin", {"rid": "r1", "txid": "a"}, 1))
        runner.apply(Event("deliver", {"rid": None}, 2))
        assert seen == [2]
        assert list(runner.txs) == ["a"] and runner.outcome("a") == "active"
        assert [s["action"] for s in runner.report.steps] == ["begin a @r1", "deliver_all"]


class TestOneBoundPerColumn:
    def test_bound_is_cached_on_the_column(self):
        col = sch.parse_schema_text(FUZZ_SCHEMA).table("Accounts").column("Balance")
        assert col.additive_bound is col.additive_bound
        assert col.additive_bound == Bound(1, 0)

    def test_counters_folded_at_two_replicas_share_it(self):
        catalog = sch.parse_schema_text(FUZZ_SCHEMA)
        bound = catalog.table("Accounts").column("Balance").additive_bound
        cluster = Cluster(catalog, ["r1", "r2"])
        for rid, sql in (
            ("r1", "INSERT INTO Accounts VALUES ('a', 5)"),
            ("r2", "INSERT INTO Accounts VALUES ('b', 7)"),
            ("r1", "UPDATE Accounts SET Balance = Balance - 1 WHERE Owner = 'a'"),
        ):
            rep = cluster.replica(rid)
            tx = rep.begin()
            rep.execute(tx, sql)
            cluster.commit(tx)
            cluster.deliver_all()
        for rid in ("r1", "r2"):
            store = cluster.replica(rid).store
            for owner in ("a", "b"):
                cell = store.row("Accounts", owner).cells["Balance"]
                assert isinstance(cell, BoundedCounter)
                assert cell.bound is bound

    def test_equal_bounds_of_distinct_objects_still_merge(self):
        a = BoundedCounter.create(Bound(1, 0), 5, ["r1", "r2"], "r1")
        b = BoundedCounter.create(Bound(1, 0), 3, ["r1", "r2"], "r2")
        assert a.merge(b).value() == 8
