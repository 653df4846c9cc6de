"""Unit behavior of the merge-friendly cell types."""

import pytest

from aqldb.crdt import (
    AdditiveCounter,
    Bound,
    BoundedCounter,
    _counts_leq,
    canon,
    make_version,
    merge,
    mv_assign,
    mv_max_versions,
    mv_merge,
    mv_values,
    render_scalar,
)
from aqldb.errors import InsufficientRights, KindMismatch

UNWRITTEN = (None, (0, ""))  # a last-writer-wins cell never written


def version_leq(a, b):
    return a == b or _counts_leq(a, dict(b))


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
        old, new = ("old", (1, "r1")), ("new", (2, "r1"))
        assert merge(old, new)[0] == "new"
        assert merge(new, old)[0] == "new"

    def test_merge_picks_higher_stamp(self):
        a = ("a", (3, "r1"))
        b = ("b", (2, "r2"))
        assert merge(a, b)[0] == "a"
        assert merge(b, a)[0] == "a"

    def test_equal_counter_breaks_tie_on_replica(self):
        a = ("a", (2, "r1"))
        b = ("b", (2, "r2"))
        # (2, r2) > (2, r1) lexicographically
        assert merge(a, b)[0] == "b"
        assert merge(b, a)[0] == "b"

    def test_bottom_is_identity(self):
        a = ("a", (1, "r1"))
        assert merge(a, UNWRITTEN) == a
        assert merge(UNWRITTEN, a) == a

    def test_canon(self):
        assert canon(("a", (3, "r1"))) == "lww(a@3.r1)"
        assert canon((("A1", 2), (3, "r1"))) == "lww((A1,2)@3.r1)"
        assert canon(UNWRITTEN) == "lww(null@0.)"


class TestMv:
    def test_sequential_assign_replaces(self):
        r = ()
        r = mv_assign(r, "a", mv_max_versions(r), "r1")
        r = mv_assign(r, "b", mv_max_versions(r), "r1")
        assert mv_values(r) == ["b"]

    def test_concurrent_assigns_both_survive(self):
        base = mv_assign((), "seed", {}, "r1")
        left = mv_assign(base, "x", mv_max_versions(base), "r1")
        right = mv_assign(base, "y", mv_max_versions(base), "r2")
        merged = mv_merge(left, right)
        assert mv_values(merged) == ["x", "y"]
        # a write that has seen both collapses the set again
        final = mv_assign(merged, "z", mv_max_versions(merged), "r3")
        assert mv_values(final) == ["z"]

    def test_observed_subset_keeps_unseen_entry(self):
        base = mv_assign((), "seed", {}, "r1")
        unseen = mv_assign(base, "x", mv_max_versions(base), "r2")
        # writer saw only the seed, not x
        late = mv_assign(base, "y", mv_max_versions(base), "r3")
        assert mv_values(mv_merge(unseen, late)) == ["x", "y"]

    def test_explicit_counter(self):
        r = mv_assign((), "a", {}, "r1", counter=5)
        assert mv_max_versions(r) == {"r1": 5}


class TestVisibility:
    def test_flags_accumulate_when_concurrent(self):
        ins = mv_assign((), "I", {}, "r1")
        dele = mv_assign(ins, "D", mv_max_versions(ins), "r2")
        touch = mv_assign(ins, "T", mv_max_versions(ins), "r3")
        merged = mv_merge(dele, touch)
        assert set(mv_values(merged)) == {"D", "T"}

    def test_causal_flag_replaces(self):
        ins = mv_assign((), "I", {}, "r1")
        dele = mv_assign(ins, "D", mv_max_versions(ins), "r1")
        assert set(mv_values(dele)) == {"D"}


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
        merge(UNWRITTEN, ())


def test_canon_distinguishes_states():
    a = AdditiveCounter().add("r1", 5)
    b = AdditiveCounter().add("r1", 6).add("r1", -1)
    assert a.value() == b.value() == 5
    # same value, different histories: canon reflects the history
    assert a.canon() != b.canon()
    assert canon(a) == a.canon()
