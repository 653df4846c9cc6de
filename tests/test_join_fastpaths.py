"""The join and visibility fast paths against the plain rules they shortcut.

crdt.mv_merge, the version order and CausalClock.ready take shortcuts on
the delivery path. Each must give exactly what its plain, all-pairs or
all-entries definition gives, on any input: registers here are arbitrary
entry sets, not only the antichains merges build. Where merge's
result is one of its inputs, it returns that input itself, so replicas share
one register object.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import aqldb.schema as sch
from aqldb.crdt import (
    AdditiveCounter,
    Bound,
    BoundedCounter,
    _counts_leq,
    make_version,
    mv_assign,
    mv_max_versions,
    mv_merge,
    mv_values,
    render_scalar,
)
from aqldb.engine import Row, RowView
from aqldb.sim import FUZZ_SCHEMA, Cluster
from aqldb.txn import CausalClock, CommitRecord

REPLICAS = ("r1", "r2", "r3")
PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)

# Versions as make_version builds them: sorted by replica, no zero counts.
versions = st.dictionaries(st.sampled_from(REPLICAS), st.integers(0, 3)).map(make_version)
# Flags and column values; equal versions may carry different values.
entries = st.tuples(st.sampled_from(["I", "D", "T", 1, "x"]), versions)


def mv(entries) -> tuple:
    """A register holding entries in version order, as assign and merge keep
    them; entries whose versions tie order by value."""
    return tuple(sorted(entries, key=lambda e: (e[1], render_scalar(e[0]))))


registers = st.frozensets(entries, max_size=5).map(mv)


def version_leq(a, b):
    return a == b or _counts_leq(a, dict(b))


def version_dominates(a, b):
    return a != b and version_leq(b, a)


def ref_leq(a, b):
    bc = dict(b)
    return all(c <= bc.get(r, 0) for r, c in a)


def ref_dominates(a, b):
    return a != b and ref_leq(b, a)


def ref_merge(a: tuple, b: tuple) -> tuple:
    """The all-pairs rule over entry sets: the entries no entry strictly
    dominates, in mv's order."""
    pool = {*a, *b}
    return mv(e for e in pool if not any(ref_dominates(f[1], e[1]) for f in pool))


def ref_ready(clock: CausalClock, record: CommitRecord) -> bool:
    if clock.get(record.origin) != record.seq - 1:
        return False
    return all(clock.get(r) >= c for r, c in record.clock.counts.items() if r != record.origin)


class TestReference:
    @PROPERTY
    @given(versions, versions)
    def test_version_order_matches_dict_reference(self, a, b):
        assert version_leq(a, b) == ref_leq(a, b)
        assert version_dominates(a, b) == ref_dominates(a, b)

    @PROPERTY
    @given(registers, registers, entries)
    def test_merge_matches_all_pairs_rule(self, a, b, entry):
        assert mv_merge(a, b) == ref_merge(a, b)
        # The delivery path's usual shape: a one-entry delta against a row.
        one = mv([entry])
        assert mv_merge(a, one) == ref_merge(a, one)
        assert mv_merge(one, a) == ref_merge(one, a)
        empty = ()
        assert mv_merge(a, empty) == mv_merge(empty, a) == ref_merge(a, empty)
        assert mv_merge(a, a) == ref_merge(a, a)
        assert RowView(Row(visibility=a)).flags() == frozenset(mv_values(a))

    @PROPERTY
    @given(
        st.dictionaries(st.sampled_from(REPLICAS), st.integers(0, 4)),
        st.dictionaries(st.sampled_from(REPLICAS), st.integers(0, 4)),
        st.sampled_from(REPLICAS),
        st.integers(1, 5),
    )
    def test_ready_matches_all_entries_rule(self, mine, theirs, origin, seq):
        record = CommitRecord(origin, seq, "t", CausalClock({**theirs, origin: seq}), 1, [])
        clock = CausalClock(dict(mine))
        assert clock.ready(record) == ref_ready(clock, record)


class TestIdentity:
    def test_merge_returns_self_when_other_adds_nothing(self):
        a = mv_merge(mv_assign((), "x", {}, "r1"), mv_assign((), "y", {}, "r2"))
        assert len(a) == 2
        for sub in ((), a[:1], tuple(list(a)), a):
            assert mv_merge(a, sub) is a

    def test_merge_returns_a_dominating_single_entry(self):
        a = mv_merge(mv_assign((), "x", {}, "r1"), mv_assign((), "y", {}, "r2"))
        top = mv_assign((), "z", mv_max_versions(a), "r3")
        assert mv_merge(a, top) is top
        assert mv_merge((), top) is top

    def test_merge_builds_a_new_register_for_a_concurrent_entry(self):
        a = mv_assign((), "x", {}, "r1")
        b = mv_assign((), "y", {}, "r2")
        out = mv_merge(a, b)
        assert out is not a and out is not b
        assert out == mv({*a, *b})

    def test_delivered_update_shares_the_record_register(self, broadcasts):
        cluster = Cluster(sch.parse_schema_text(FUZZ_SCHEMA), ["r1", "r2", "r3"])
        r1 = cluster.replica("r1")
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Artists VALUES ('Sam', TRUE, 1)")
        cluster.commit(tx)
        cluster.deliver_all()
        tx = r1.begin()
        r1.execute(tx, "UPDATE Artists SET Active = FALSE WHERE Name = 'Sam'")
        cluster.commit(tx)
        cluster.deliver_all()
        record = broadcasts[cluster][-1]
        (delta,) = record.deltas
        assert delta.result.visibility is not delta.base.visibility  # the update wrote the flag
        for rid in cluster.replica_ids:
            assert cluster.replica(rid).store.row("Artists", "Sam").visibility is delta.result.visibility
        assert cluster.converged()

    def test_a_concurrent_update_merges_only_the_cells_its_commit_wrote(self, broadcasts):
        """Each replica's update reads the inserted row, so each receiver
        holds a row above the other's base and merges: it takes the cell the
        other commit wrote and keeps its own cell object for the one that
        commit left as base's."""
        cluster = Cluster(sch.parse_schema_text(FUZZ_SCHEMA), ["r1", "r2"])
        r1, r2 = cluster.replica("r1"), cluster.replica("r2")
        tx = r1.begin()
        r1.execute(tx, "INSERT INTO Artists VALUES ('Sam', TRUE, 1)")
        cluster.commit(tx)
        cluster.deliver_all()
        tx1, tx2 = r1.begin(), r2.begin()
        r1.execute(tx1, "UPDATE Artists SET Active = FALSE WHERE Name = 'Sam'")
        r2.execute(tx2, "UPDATE Artists SET Plays = Plays + 2 WHERE Name = 'Sam'")
        (active,) = cluster.commit(tx1).deltas
        (plays,) = cluster.commit(tx2).deltas
        assert active.base is plays.base
        assert active.result.cells["Plays"] is active.base.cells["Plays"]
        assert plays.result.cells["Active"] is plays.base.cells["Active"]
        cluster.deliver_all()
        assert r1.store.row("Artists", "Sam").cells["Active"] is active.result.cells["Active"]
        assert r2.store.row("Artists", "Sam").cells["Plays"] is plays.result.cells["Plays"]
        for rep in (r1, r2):
            row = rep.store.row("Artists", "Sam")
            assert (row.cells["Active"][0], row.cells["Plays"].value()) == (False, 3)
        assert cluster.converged()


class TestCounters:
    def test_counters_are_frozen(self):
        counter = BoundedCounter.create(Bound("lower", 0), 9, REPLICAS, "r1")
        for field in ("incs", "decs", "transfers", "bound"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(counter, field, {})
        with pytest.raises(dataclasses.FrozenInstanceError):
            AdditiveCounter().incs = {}

    def test_merge_leaves_its_inputs_alone(self):
        a = BoundedCounter.create(Bound("lower", 0), 9, REPLICAS, "r1").apply_delta("r1", -2)
        b = BoundedCounter.create(Bound("lower", 0), 0, REPLICAS, "r2").apply_delta("r2", 4).transfer("r2", "r3", 1)
        before = (a.canon(), b.canon())
        merged = a.merge(b)
        assert (a.canon(), b.canon()) == before
        assert merged.canon() == "bc[>=0](+{r1:9,r2:4}-{r1:2}t{r1>r2:3,r1>r3:3,r2>r3:1})"
        assert merged.transfers is not a.transfers


def test_delete_locks_row_follows_the_schema():
    catalog = sch.parse_schema_text(
        """
        CREATE UPDATE_WINS TABLE P (K INT PRIMARY KEY);
        CREATE UPDATE_WINS TABLE C (
          K INT PRIMARY KEY,
          P INT LWW FOREIGN KEY REFERENCES P (K)
        );
        CREATE TABLE S (K INT PRIMARY KEY);
        CREATE UPDATE_WINS TABLE Free (K INT PRIMARY KEY);
        """
    )
    plans = catalog.coordination
    assert plans["P"].delete_locked  # a NO_CONCURRENCY edge points at it
    assert not plans["C"].delete_locked
    assert plans["S"].delete_locked  # the table itself is NO_CONCURRENCY
    assert not plans["Free"].delete_locked
