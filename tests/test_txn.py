"""Clocks, commit records and the ownership-passing lock manager."""

import dataclasses

import pytest

from aqldb.errors import LockUnavailable
from aqldb.txn import (
    CausalClock,
    CommitRecord,
    LockManager,
    Mode,
    RowDelta,
    Transaction,
    column_lock,
    row_lock,
    sequence_lock,
)


def make_tx(txid, origin):
    return Transaction(txid, origin)


def test_a_row_delta_is_the_row_read_and_the_row_built():
    """A commit record ships no per-cell copy of a write beside the row the
    fold built: a merging receiver reads the written cells off result."""
    assert [f.name for f in dataclasses.fields(RowDelta)] == ["table", "pk", "base", "result"]


class TestClock:
    def test_tick_and_get(self):
        c = CausalClock()
        c.tick("r1")
        c.tick("r1")
        c.tick("r2")
        assert c.get("r1") == 2
        assert c.get("r2") == 1
        assert c.get("r3") == 0

    def test_dominates(self):
        big = CausalClock({"r1": 2, "r2": 2})
        small = CausalClock({"r1": 1})
        assert big.dominates(small)
        assert not small.dominates(big)
        # missing entries count as zero
        assert big.dominates(CausalClock())

    def test_has_and_ready(self):
        def record(origin, seq, counts):
            return CommitRecord(origin, seq, f"{origin}-{seq}", CausalClock(counts), seq, [])

        clock = CausalClock({"r1": 1})
        first, second, third = (record("r1", seq, {"r1": seq}) for seq in (1, 2, 3))
        assert clock.has(first) and not clock.has(second)
        assert not clock.ready(first)  # already counted
        assert clock.ready(second)
        assert not clock.ready(third)  # second comes first
        dependent = record("r2", 1, {"r1": 2, "r2": 1})
        assert not clock.ready(dependent)  # it saw r1's second commit
        clock.tick("r1")
        assert clock.ready(dependent) and not clock.has(dependent)


def test_lock_ids_distinguish_key_types():
    # 1 and '1' must not collide
    assert row_lock("T", 1) != row_lock("T", "1")
    assert row_lock("T", True) != row_lock("T", 1)
    assert column_lock("T", 1, "c") != column_lock("T", "1", "c")
    assert sequence_lock("T") != row_lock("T", "T")


class Net:
    """Scriptable reachability for lock tests. catch_up always succeeds."""

    def __init__(self, *cut):
        self.cut = {frozenset(pair) for pair in cut}

    def reachable(self, a, b):
        return a == b or frozenset((a, b)) not in self.cut

    def catch_up(self, replica, sources):
        return all(self.reachable(replica, s) for s in sources)


class TestLocks:
    def test_exclusive_excludes(self):
        lm = LockManager(["r1", "r2"])
        t1, t2 = make_tx("t1", "r1"), make_tx("t2", "r1")
        lm.acquire(t1, row_lock("T", "k"), Mode.EXCLUSIVE)
        with pytest.raises(LockUnavailable):
            lm.acquire(t2, row_lock("T", "k"), Mode.EXCLUSIVE)
        lm.release_all(t1)
        lm.acquire(t2, row_lock("T", "k"), Mode.EXCLUSIVE)
        assert not lm.safety_violations()

    def test_shared_coexists(self):
        lm = LockManager(["r1", "r2"])
        t1, t2 = make_tx("t1", "r1"), make_tx("t2", "r2")
        lm.acquire(t1, row_lock("T", "k"), Mode.SHARED)
        lm.acquire(t2, row_lock("T", "k"), Mode.SHARED)
        assert not lm.safety_violations()

    def test_shared_blocks_exclusive(self):
        lm = LockManager(["r1", "r2"])
        t1, t2 = make_tx("t1", "r1"), make_tx("t2", "r2")
        lm.acquire(t1, row_lock("T", "k"), Mode.SHARED)
        with pytest.raises(LockUnavailable):
            lm.acquire(t2, row_lock("T", "k"), Mode.EXCLUSIVE)

    def test_reacquire_same_mode_is_noop(self):
        lm = LockManager(["r1"])
        t1 = make_tx("t1", "r1")
        lm.acquire(t1, row_lock("T", "k"), Mode.EXCLUSIVE)
        lm.acquire(t1, row_lock("T", "k"), Mode.EXCLUSIVE)
        lm.acquire(t1, row_lock("T", "k"), Mode.SHARED)  # weaker: still fine
        assert t1.held[row_lock("T", "k")] is Mode.EXCLUSIVE

    def test_ownership_survives_release(self):
        """After release the replica keeps the lock; local reuse is free."""
        lm = LockManager(["r1", "r2"])
        t1 = make_tx("t1", "r1")
        lm.acquire(t1, row_lock("T", "k"), Mode.EXCLUSIVE)
        lm.release_all(t1)
        before = lm.coordinator_requests
        t2 = make_tx("t2", "r1")
        lm.acquire(t2, row_lock("T", "k"), Mode.EXCLUSIVE)
        assert lm.coordinator_requests == before

    def test_ownership_transfer_needs_coordinator(self):
        net = Net(("r2", "r1"))  # r2 cut off from coordinator r1
        lm = LockManager(["r1", "r2", "r3"], hooks=net)
        t2 = make_tx("t2", "r2")
        with pytest.raises(LockUnavailable):
            lm.acquire(t2, row_lock("T", "k"), Mode.EXCLUSIVE)

    def test_ownership_transfer_needs_old_owner(self):
        lm = LockManager(["r1", "r2", "r3"])
        t1 = make_tx("t1", "r1")
        lm.acquire(t1, row_lock("T", "k"), Mode.EXCLUSIVE)
        lm.release_all(t1)
        # now cut the old owner r1 off from everyone; wait: r1 is also the
        # coordinator, so cut r3<->r1 makes both checks fail the same way
        lm.hooks = Net(("r3", "r1"))
        t3 = make_tx("t3", "r3")
        with pytest.raises(LockUnavailable):
            lm.acquire(t3, row_lock("T", "k"), Mode.EXCLUSIVE)

    def test_active_remote_holder_blocks_transfer(self):
        lm = LockManager(["r1", "r2"])
        t1, t2 = make_tx("t1", "r1"), make_tx("t2", "r2")
        lm.acquire(t1, row_lock("T", "k"), Mode.EXCLUSIVE)
        with pytest.raises(LockUnavailable):
            lm.acquire(t2, row_lock("T", "k"), Mode.EXCLUSIVE)
        lm.release_all(t1)
        lm.acquire(t2, row_lock("T", "k"), Mode.EXCLUSIVE)
        st = lm.locks[row_lock("T", "k")]
        assert st.owners == {"r2"} and st.exclusive

    def test_shared_ownership_denotes_no_catch_up_between_readers(self):
        calls = []

        class Spy(Net):
            def catch_up(self, replica, sources):
                calls.append((replica, tuple(sources)))
                return True

        lm = LockManager(["r1", "r2"], hooks=Spy())
        t1, t2 = make_tx("t1", "r1"), make_tx("t2", "r2")
        lm.acquire(t1, row_lock("T", "k"), Mode.SHARED)
        lm.release_all(t1)
        lm.acquire(t2, row_lock("T", "k"), Mode.SHARED)
        # a reader joining other readers has nobody to catch up to
        assert calls == []

    def test_exclusive_after_shared_catches_up_to_all_readers(self):
        calls = []

        class Spy(Net):
            def catch_up(self, replica, sources):
                calls.append((replica, tuple(sorted(sources))))
                return True

        lm = LockManager(["r1", "r2", "r3"], hooks=Spy())
        for txid, rid in (("t1", "r1"), ("t2", "r2")):
            tx = make_tx(txid, rid)
            lm.acquire(tx, row_lock("T", "k"), Mode.SHARED)
            lm.release_all(tx)
        t3 = make_tx("t3", "r3")
        lm.acquire(t3, row_lock("T", "k"), Mode.EXCLUSIVE)
        assert calls == [("r3", ("r1", "r2"))]
        st = lm.locks[row_lock("T", "k")]
        assert st.owners == {"r3"} and st.exclusive

    def test_failed_catch_up_blocks(self):
        class NoSync(Net):
            def catch_up(self, replica, sources):
                return False

        lm = LockManager(["r1", "r2"], hooks=NoSync())
        t1 = make_tx("t1", "r1")
        lm.acquire(t1, row_lock("T", "k"), Mode.EXCLUSIVE)
        lm.release_all(t1)
        t2 = make_tx("t2", "r2")
        with pytest.raises(LockUnavailable):
            lm.acquire(t2, row_lock("T", "k"), Mode.EXCLUSIVE)
