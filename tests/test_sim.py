"""Scenario language, cluster behavior, order enumeration and fuzzing."""

import gc
import glob
import hashlib
import json
import os
import weakref

import pytest

import aqldb.schema as sch
from aqldb.crdt import AdditiveCounter, BoundedCounter, EventStamp, LwwRegister, MvRegister, render_scalar
from aqldb.engine import Replica, RowView, constraint_violations, integrity_violations, ref_cell, visible_rows
from aqldb.errors import CheckViolation, ScenarioError
from aqldb.sim import (
    FUZZ_SCHEMA,
    Cluster,
    Event,
    FuzzConfig,
    Runner,
    causal_orders,
    enumerate_orders,
    fuzz,
    load_scenario,
    minimize,
    parse_scenario,
    replay_trace,
    run_scenario,
    store_canon,
)
from aqldb.txn import RowDelta

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

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

    def test_unknown_directive(self):
        with pytest.raises(ScenarioError):
            parse_scenario(SIMPLE + "\nfrobnicate", "broken")

    def test_undeclared_replica_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario(SIMPLE + "\ndeliver @r9", "broken")

    def test_bad_statement_rejected_at_parse_time(self):
        bad = SIMPLE.replace("INSERT INTO T VALUES ('x', 1)", "INSERT INTO Ghost VALUES (1)")
        with pytest.raises(ScenarioError):
            parse_scenario(bad, "broken")

    def test_unterminated_block(self):
        with pytest.raises(ScenarioError):
            parse_scenario("replicas r1\nschema {\n  CREATE TABLE T (K INT PRIMARY KEY);", "broken")

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
        assert runner.outcomes == {"a": "aborted"}
        assert not any(st.holders for st in runner.cluster.locks.locks.values())
        runner.apply(Event("txblock", {"rid": "r1", "txid": "b", "stmts": ["INSERT INTO T VALUES ('k', 'z')"]}, 9))
        assert runner.outcomes["b"] == "committed", runner.report.failures

    def test_divergence_is_named(self):
        runner = Runner(sch.parse_schema_text(FUZZ_SCHEMA), ["r1", "r2"], lenient=True)
        runner.apply(Event("txblock", {"rid": "r1", "txid": "a", "stmts": [
            "INSERT INTO Artists VALUES ('Sam', TRUE, 1)",
            "INSERT INTO Albums VALUES ('A1', 'Sam', 1, 'rock')",
        ]}, 1))
        runner.apply(Event("deliver", {"rid": None}, 2))
        assert runner.report.ok, runner.report.failures
        runner.cluster.replica("r2")._apply_delta(RowDelta("Albums", "A1", generation=7))
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


def test_scenario_suite_present():
    assert len(scenario_paths()) >= 10


@pytest.mark.parametrize("path", scenario_paths(), ids=os.path.basename)
def test_scenario_suite_passes(path):
    scenario = load_scenario(path)
    report = run_scenario(scenario)
    assert report.ok, report.failures


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
            "counter entry": RowDelta("Artists", "Sam", {"Plays": AdditiveCounter({"r2": 1})}),
            "transfers entry": RowDelta("Accounts", "a", {
                "Balance": BoundedCounter(bound=balance.bound, transfers={("r2", "r1"): 1}),
            }),
            "flag": RowDelta("Artists", "Sam", visibility=MvRegister().assign("D", {}, "r2", 9)),
            "generation": RowDelta("Albums", "A1", generation=7),
            "invisible row": RowDelta("Reviews", 9),
            "reference cell": RowDelta("Albums", "A1", {
                ref_cell("Artist"): LwwRegister(("Sam", 2), EventStamp(9, "r2")),
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
        cluster.replica("r2")._apply_delta(RowDelta("Artists", "Sam", generation=7))
        assert cluster.divergence() == "replica states differ at Artists/Sam (r1 vs r2)"
        cluster.replica("r3")._apply_delta(RowDelta("Albums", "A1", generation=7))
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
        assert (cell.value(), cell.free("r1"), cell.free("r2")) == (6, 0, 6)
        # A reservation ends with its transaction.
        undo = r2.begin()
        r2.execute(undo, "UPDATE Accounts SET Balance = Balance - 6 WHERE Owner = 'a'")
        assert r2.donatable("Accounts", "a", "Balance") == 0
        r2.abort(undo)
        assert r2.donatable("Accounts", "a", "Balance") == 6


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
        ids = {rec.record_id for rec in records[:4]}
        for order in orders:
            assert {rec.record_id for rec in order} == ids
            seen = []
            for rec in order:
                for earlier in seen:
                    assert not rec.happens_before(earlier)
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
    broadcast order, and no record left in the pumped queue is both
    reachable and causally ready at its destination."""

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
            clock = cluster.replica(rid).clock
            for rec in cluster.queues[rid]:
                stats["left"] += 1
                if cluster.reachable(rid, rec.origin) and clock.ready(rec):
                    stats["problems"].append(f"{rec.record_id} left ready at {rid}")
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


def check_fk_refs(runner, mismatches) -> int:
    """Compare every foreign key column with its reference cell, on every
    row at every replica; return how many written columns were compared."""
    compared = 0
    for rid in runner.cluster.replica_ids:
        store = runner.cluster.replica(rid).store
        for table, schema in runner.catalog.tables.items():
            for pk, row in store.tables.get(table, {}).items():
                view = RowView(row)
                for col, _ in schema.foreign_keys:
                    refs = sorted(ppk for ppk, _ in view.fk_refs(col))
                    values = sorted(view.scalars(col))
                    compared += bool(values)
                    if refs != values:
                        mismatches.append(f"{rid} {table}/{pk}.{col}: refs {refs}, values {values}")
    return compared


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


class TestReferenceCells:
    def test_scenarios_keep_references_in_lockstep(self):
        mismatches, compared = [], 0
        for runner in scenario_runs():
            compared += check_fk_refs(runner, mismatches)
        assert mismatches == []
        assert compared > 0

    @pytest.mark.parametrize("schema_text", [FUZZ_SCHEMA, MV_FK_SCHEMA], ids=["lww", "multi_value"])
    def test_fuzz_keeps_references_in_lockstep(self, schema_text):
        mismatches, compared = [], 0
        for runner, outcome in fuzz_runs(schema_text):
            runner.finish()
            assert runner.report.to_json()["steps"] == outcome.report.to_json()["steps"]
            compared += check_fk_refs(runner, mismatches)
        assert mismatches == []
        assert compared > 0


def check_point_reads(runner, mismatches) -> tuple[int, int]:
    """At every replica, in the committed context and in the snapshot of
    every open transaction, compare the pk point lookup of every stored key
    and the foreign key children of every parent key with scans over
    visible_rows; return (children compared, snapshots compared)."""
    children = snapshots = 0
    for rid in runner.cluster.replica_ids:
        rep = runner.cluster.replica(rid)
        contexts = [("committed", rep.committed_ctx())]
        contexts += [(tx.txid, rep.snap_ctx(tx)) for tx in rep.active.values()]
        snapshots += len(contexts) - 1
        for name, ctx in contexts:
            for table, schema in runner.catalog.tables.items():
                rows = visible_rows(ctx, table)
                for pk in sorted(set(rep.store.pks(table)) | set(ctx.pks(table)), key=render_scalar):
                    got = rep._match_rows(ctx, schema, sch.Where(schema.primary_key, "=", pk))
                    want = [p for p, view in rows if pk in view.scalars(schema.primary_key)]
                    if got != want:
                        mismatches.append(f"{rid} {name} {table} pk {pk}: {got} != {want}")
            for parent in runner.catalog.tables:
                for child, col, _ in runner.catalog.referencing(parent):
                    rows = visible_rows(ctx, child)
                    for ppk in rep.store.pks(parent):
                        got = rep._children(ctx, child, col, ppk)
                        want = [c for c, view in rows if ppk in view.scalars(col)]
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

    @pytest.mark.parametrize("schema_text", [FUZZ_SCHEMA, MV_FK_SCHEMA], ids=["lww", "multi_value"])
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


def lock_table(locks) -> dict:
    """Everything safety_violations reads of a lock manager, as plain values."""
    return {
        lock_id: (st.exclusive_owner, frozenset(st.shared_owners), dict(st.holders))
        for lock_id, st in locks.locks.items()
    }


class MemoCheckingRunner(Runner):
    """After every event, checks the audit memos. At every replica, a store
    whose version has not moved has an unchanged store_canon, and the saved
    findings equal a fresh audit of the store. Likewise, a lock table whose
    version has not moved is unchanged, and the saved lock findings equal a
    fresh safety_violations()."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen: dict[str, tuple[int, str]] = {}
        self.moved = self.kept = 0
        self.locks_seen: tuple[int, dict] | None = None
        self.locks_moved = self.locks_kept = 0
        self.mismatches: list[str] = []

    def apply(self, event):
        super().apply(event)
        self.check_memo(event.line)

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
            store = self.cluster.replica(rid).store
            canon = store_canon(store)
            if rid in self.seen:
                version, before = self.seen[rid]
                if version != store.version:
                    self.moved += 1
                elif before == canon:
                    self.kept += 1
                else:
                    self.mismatches.append(f"{self.report.name} line {line} {rid}: version kept, store changed")
            self.seen[rid] = (store.version, canon)
            fresh = [(f"integrity at {rid}", p) for p in integrity_violations(store, self.catalog)]
            fresh += [(f"constraints at {rid}", p) for p in constraint_violations(store, self.catalog)]
            if self.audited[rid] != (store.version, fresh):
                self.mismatches.append(f"{self.report.name} line {line} {rid}: {self.audited[rid]} != {fresh}")


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

    @pytest.mark.parametrize("schema_text", [FUZZ_SCHEMA, MV_FK_SCHEMA], ids=["lww", "multi_value"])
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
            RowDelta("Reviews", 1, {"Stars": LwwRegister(9, EventStamp(100, "r1"))})
        )
        runner.apply(Event("begin", {"rid": "r2", "txid": "b"}, 2))
        runner.apply(Event("partition", {"groups": [["r1"], ["r2"]]}, 3))
        finding = "constraints at r1: Reviews/1.Stars = 9 violates its check"
        assert runner.report.failures == [f"line 2: {finding}", f"line 3: {finding}"]


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

    @pytest.mark.parametrize("schema_text", [FUZZ_SCHEMA, MV_FK_SCHEMA], ids=["lww", "multi_value"])
    def test_agrees_with_store_canon_on_fuzz(self, schema_text):
        mismatches, verdicts = [], {True: 0, False: 0}
        for runner, _ in fuzz_runs(schema_text, ConvergenceCheckingRunner):
            runner.finish()
            runner.check_converged(0)
            mismatches += runner.mismatches
            verdicts = {v: verdicts[v] + runner.verdicts[v] for v in verdicts}
        assert mismatches == []
        assert verdicts[True] > 0 and verdicts[False] > 0


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
        assert digest.hexdigest() == "92703a950401a0943205e8f63d7a75348ceead233d6493f17e48bddff6078129"

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
        assert digest.hexdigest() == "bc19ceafb1927ea3efc927205b5934dcb84e0028a063666792cd6f2d29f21e44"

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
