"""Unit behavior of the merge-friendly cell types."""

import pytest

from aqldb.crdt import (
    AdditiveCounter,
    Bound,
    BoundedCounter,
    LwwRegister,
    MvRegister,
    make_version,
    merge,
    render_scalar,
    version_leq,
)
from aqldb.errors import InsufficientRights, KindMismatch


def version_dominates(a, b):
    return a != b and version_leq(b, a)


def test_render_scalar():
    assert render_scalar(True) == "true"
    assert render_scalar(False) == "false"
    assert render_scalar(7) == "7"
    assert render_scalar("x") == "x"
    assert render_scalar(None) == "null"


def test_version_order():
    a = make_version({"r1": 2})
    b = make_version({"r1": 2, "r2": 1})
    c = make_version({"r2": 1})
    assert version_leq(a, b) and not version_leq(b, a)
    assert version_dominates(b, a)
    # a and c are incomparable
    assert not version_leq(a, c) and not version_leq(c, a)
    # zero components are dropped, so these are the same version
    assert make_version({"r1": 2, "r2": 0}) == a


class TestLww:
    def test_later_stamp_wins(self):
        old, new = LwwRegister("old", (1, "r1")), LwwRegister("new", (2, "r1"))
        assert old.merge(new).value == "new"
        assert new.merge(old).value == "new"

    def test_merge_picks_higher_stamp(self):
        a = LwwRegister("a", (3, "r1"))
        b = LwwRegister("b", (2, "r2"))
        assert a.merge(b).value == "a"
        assert b.merge(a).value == "a"

    def test_equal_counter_breaks_tie_on_replica(self):
        a = LwwRegister("a", (2, "r1"))
        b = LwwRegister("b", (2, "r2"))
        # (2, r2) > (2, r1) lexicographically
        assert a.merge(b).value == "b"
        assert b.merge(a).value == "b"

    def test_bottom_is_identity(self):
        a = LwwRegister("a", (1, "r1"))
        assert a.merge(LwwRegister()) == a
        assert LwwRegister().merge(a) == a


class TestMv:
    def test_sequential_assign_replaces(self):
        r = MvRegister()
        r = r.assign("a", r.max_versions(), "r1")
        r = r.assign("b", r.max_versions(), "r1")
        assert r.values() == ["b"]

    def test_concurrent_assigns_both_survive(self):
        base = MvRegister().assign("seed", {}, "r1")
        left = base.assign("x", base.max_versions(), "r1")
        right = base.assign("y", base.max_versions(), "r2")
        merged = left.merge(right)
        assert merged.values() == ["x", "y"]
        # a write that has seen both collapses the set again
        final = merged.assign("z", merged.max_versions(), "r3")
        assert final.values() == ["z"]

    def test_observed_subset_keeps_unseen_entry(self):
        base = MvRegister().assign("seed", {}, "r1")
        unseen = base.assign("x", base.max_versions(), "r2")
        # writer saw only the seed, not x
        late = base.assign("y", base.max_versions(), "r3")
        assert unseen.merge(late).values() == ["x", "y"]

    def test_explicit_counter(self):
        r = MvRegister().assign("a", {}, "r1", counter=5)
        assert r.max_versions() == {"r1": 5}


class TestVisibility:
    def test_flags_accumulate_when_concurrent(self):
        ins = MvRegister().assign("I", {}, "r1")
        dele = ins.assign("D", ins.max_versions(), "r2")
        touch = ins.assign("T", ins.max_versions(), "r3")
        merged = dele.merge(touch)
        assert set(merged.values()) == {"D", "T"}

    def test_causal_flag_replaces(self):
        ins = MvRegister().assign("I", {}, "r1")
        dele = ins.assign("D", ins.max_versions(), "r1")
        assert set(dele.values()) == {"D"}


class TestAdditive:
    def test_adds_and_merges(self):
        a = AdditiveCounter().add("r1", 5).add("r1", -2)
        b = AdditiveCounter().add("r2", 10)
        assert a.value() == 3
        assert a.merge(b).value() == 13

    def test_concurrent_initial_values_sum(self):
        # both replicas start the counter independently; merge keeps both
        a = AdditiveCounter().add("r1", 3)
        b = AdditiveCounter().add("r2", 4)
        assert a.merge(b).value() == 7


def lower(limit):
    return Bound("lower", limit)


class TestBounded:
    def test_create_splits_headroom(self):
        c = BoundedCounter.create(lower(0), 10, ["r1", "r2", "r3"], "r1")
        # 10 // 3 each, remainder 1 to the creator
        assert c.rights("r1") == 4
        assert c.rights("r2") == 3
        assert c.rights("r3") == 3
        assert c.value() == 10
        assert c.total_rights() == 10

    def test_concurrent_creations_add_up(self):
        # Each creator writes only its own entries, so neither creation is lost.
        a = BoundedCounter.create(lower(0), 3, ["r1", "r2", "r3"], "r1")
        b = BoundedCounter.create(lower(0), 2, ["r1", "r2", "r3"], "r2")
        m = a.merge(b)
        assert m.value() == 5
        assert m.total_rights() == 5
        assert sum(m.rights(r) for r in ("r1", "r2", "r3")) == 5

    def test_create_rejects_value_past_bound(self):
        with pytest.raises(ValueError):
            BoundedCounter.create(lower(0), -1, ["r1"], "r1")

    def test_consume_within_rights(self):
        c = BoundedCounter.create(lower(0), 6, ["r1", "r2"], "r1")
        c = c.apply_delta("r1", -3)
        assert c.value() == 3
        assert c.free("r1") == 0
        assert c.free("r2") == 3

    def test_over_consume_refused(self):
        c = BoundedCounter.create(lower(0), 6, ["r1", "r2"], "r1")
        with pytest.raises(InsufficientRights):
            c.apply_delta("r1", -4)

    def test_transfer_moves_rights(self):
        c = BoundedCounter.create(lower(0), 6, ["r1", "r2"], "r1")
        c = c.transfer("r2", "r1", 2)
        assert c.free("r1") == 5
        assert c.free("r2") == 1
        assert c.total_rights() == 6
        c = c.apply_delta("r1", -5)
        assert c.value() == 1

    def test_transfer_needs_free_rights(self):
        c = BoundedCounter.create(lower(0), 4, ["r1", "r2"], "r1")
        c = c.apply_delta("r2", -2)
        with pytest.raises(InsufficientRights):
            c.transfer("r2", "r1", 1)

    def test_replenish_creates_rights_locally(self):
        c = BoundedCounter.create(lower(0), 2, ["r1", "r2"], "r1")
        c = c.apply_delta("r2", 5)
        assert c.value() == 7
        assert c.free("r2") == 6

    def test_upper_bound_counts_down(self):
        c = BoundedCounter.create(Bound("upper", 100), 90, ["r1", "r2"], "r2")
        assert c.value() == 90
        assert c.total_rights() == 10
        # moving up consumes, moving down replenishes
        assert c.consumption_units(+3) == 3
        assert c.consumption_units(-3) == 0
        c = c.apply_delta("r1", 5)
        assert c.value() == 95

    def test_apply_delta_lower_bound(self):
        c = BoundedCounter.create(lower(0), 10, ["r1", "r2"], "r1")
        c = c.apply_delta("r1", -4)
        assert c.value() == 6
        c = c.apply_delta("r1", 4)
        assert c.value() == 10

    def test_merge_is_pointwise_max(self):
        base = BoundedCounter.create(lower(0), 8, ["r1", "r2"], "r1")
        a = base.apply_delta("r1", -2)
        b = base.apply_delta("r2", -3).transfer("r2", "r1", 1)
        m = a.merge(b)
        assert m.value() == 3
        assert m.free("r1") == 3
        assert m.free("r2") == 0

    def test_a_receiver_at_base_takes_the_writers_state(self):
        base = BoundedCounter.create(lower(0), 9, ["r1", "r2", "r3"], "r2")
        full = base.apply_delta("r1", -2).transfer("r1", "r3", 1)
        assert base.merge(full) == full
        assert base.merge(full).free("r1") == full.free("r1")

    def test_bound_mismatch(self):
        a = BoundedCounter.create(lower(0), 5, ["r1"], "r1")
        b = BoundedCounter.create(lower(1), 5, ["r1"], "r1")
        with pytest.raises(KindMismatch):
            a.merge(b)


def test_merge_rejects_kind_mismatch():
    with pytest.raises(KindMismatch):
        merge(LwwRegister(), MvRegister())


def test_canon_distinguishes_states():
    a = AdditiveCounter().add("r1", 5)
    b = AdditiveCounter().add("r1", 6).add("r1", -1)
    assert a.value() == b.value() == 5
    # same value, different histories: canon reflects the history
    assert a.canon() != b.canon()
