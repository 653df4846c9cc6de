"""Algebraic laws of merge, checked over seeded random states.

Every cell kind must form a join semilattice: merge is commutative,
associative and idempotent. These laws are what make replica state
independent of delivery order, so they get hammered hard here.
"""

import functools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from aqldb.crdt import (
    AdditiveCounter,
    Bound,
    BoundedCounter,
    LwwRegister,
    MvRegister,
)

REPLICAS = ("r1", "r2", "r3")
CASES_PER_KIND = 2500  # x5 kinds -> >= 10^4 cases per law


def rand_lww(rng: random.Random) -> LwwRegister:
    if rng.random() < 0.1:
        return LwwRegister()
    stamp = (rng.randrange(1, 5), rng.choice(REPLICAS))
    return LwwRegister(rng.choice("abcd"), stamp)


def rand_mv(rng: random.Random) -> MvRegister:
    reg = MvRegister()
    branches = [reg]
    for _ in range(rng.randrange(4)):
        base = rng.choice(branches)
        branches.append(
            base.assign(rng.choice("wxyz"), base.max_versions(), rng.choice(REPLICAS))
        )
    out = MvRegister()
    for b in branches:
        out = out.merge(b)
    return out


def rand_vis(rng: random.Random) -> MvRegister:
    reg = MvRegister()
    branches = [reg]
    for _ in range(rng.randrange(4)):
        base = rng.choice(branches)
        branches.append(
            base.assign(
                rng.choice("IDT"), base.max_versions(), rng.choice(REPLICAS)
            )
        )
    out = MvRegister()
    for b in branches:
        out = out.merge(b)
    return out


def rand_additive(rng: random.Random) -> AdditiveCounter:
    c = AdditiveCounter()
    for _ in range(rng.randrange(5)):
        c = c.add(rng.choice(REPLICAS), rng.randrange(-6, 7) or 1)
    return c


def rand_bounded(rng: random.Random) -> BoundedCounter:
    # all states in one comparison must share the bound
    bound = Bound("lower", 0)
    grants = {r: rng.randrange(8) for r in REPLICAS if rng.random() < 0.7}
    used = {r: rng.randrange(6) for r in REPLICAS if rng.random() < 0.5}
    transfers = {}
    for src in REPLICAS:
        for dst in REPLICAS:
            if src != dst and rng.random() < 0.2:
                transfers[(src, dst)] = rng.randrange(1, 4)
    return BoundedCounter(
        {k: v for k, v in grants.items() if v},
        {k: v for k, v in used.items() if v},
        bound=bound,
        transfers=transfers,
    )


GENERATORS = {
    "lww": rand_lww,
    "mv": rand_mv,
    "vis": rand_vis,
    "additive": rand_additive,
    "bounded": rand_bounded,
}


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_merge_commutative(kind):
    gen = GENERATORS[kind]
    rng = random.Random(f"comm-{kind}")
    for _ in range(CASES_PER_KIND):
        a, b = gen(rng), gen(rng)
        assert a.merge(b) == b.merge(a)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_merge_associative(kind):
    gen = GENERATORS[kind]
    rng = random.Random(f"assoc-{kind}")
    for _ in range(CASES_PER_KIND):
        a, b, c = gen(rng), gen(rng), gen(rng)
        assert a.merge(b.merge(c)) == a.merge(b).merge(c)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_merge_idempotent(kind):
    gen = GENERATORS[kind]
    rng = random.Random(f"idem-{kind}")
    for _ in range(CASES_PER_KIND):
        a = gen(rng)
        assert a.merge(a) == a


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_merge_absorbs_earlier_state(kind):
    """Merging a state into one derived from it changes nothing."""
    gen = GENERATORS[kind]
    rng = random.Random(f"absorb-{kind}")
    for _ in range(500):
        a, b = gen(rng), gen(rng)
        ab = a.merge(b)
        assert ab.merge(a) == ab
        assert ab.merge(b) == ab


def zero_entries(state) -> list:
    """Entries of a state that hold zero: counter incs and decs, bounded
    counter transfers, and the counts of multi-value versions. canon()
    drops zeros, so value equality matches canon equality only while this
    stays empty."""
    maps = []
    if isinstance(state, AdditiveCounter):
        maps += [state.incs, state.decs]
    if isinstance(state, BoundedCounter):
        maps.append(state.transfers)
    if isinstance(state, MvRegister):
        maps += [dict(version) for _, version in state.entries]
    return [(key, value) for m in maps for key, value in m.items() if value == 0]


def derived_states(a, b, rng: random.Random):
    """a and b merged, plus what every operation of their kind makes of a."""
    yield a.merge(b)
    if isinstance(a, MvRegister):
        for r in REPLICAS:
            yield a.assign("v", {**a.max_versions(), "r9": 0}, r)
    if isinstance(a, AdditiveCounter):
        for r in REPLICAS:
            for delta in range(-3, 4):
                yield a.add(r, delta)
    if isinstance(a, BoundedCounter):
        for r in REPLICAS:
            for delta in range(-3, 4):
                if a.consumption_units(delta) <= a.free(r):
                    yield a.apply_delta(r, delta)
            for dst in REPLICAS:
                if dst != r and a.free(r) > 0:
                    yield a.transfer(r, dst, rng.randrange(1, a.free(r) + 1))
        for bound in (Bound("lower", 0), Bound("lower", 2), Bound("upper", 6)):
            initial = bound.limit + rng.randrange(0, 5) * (1 if bound.direction == "lower" else -1)
            yield BoundedCounter.create(bound, initial, REPLICAS, rng.choice(REPLICAS))


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_no_zero_entries(kind):
    """No operation leaves a zero entry in a state (see crdt's docstring)."""
    gen = GENERATORS[kind]
    rng = random.Random(f"zero-{kind}")
    for _ in range(500):
        a, b = gen(rng), gen(rng)
        assert zero_entries(a) == [] and zero_entries(b) == []
        for state in derived_states(a, b, rng):
            assert zero_entries(state) == [], state


# ---------------------------------------------------------------------------
# A writer's own step inflates its old state: the old state merged with the
# step is the step. A commit record ships each written cell's new state over
# the row the fold read, and a receiver at or above that row merges the new
# state in; at the row itself the merge is the step, so the origin stores it
# without merging. A register write needs a stamp or writer counter above
# every one held.

STEP = settings(max_examples=200, derandomize=True, database=None, deadline=None)
HELD = 6  # every stamp counter and version count held is at most this

replicas = st.sampled_from(REPLICAS)
counts = st.dictionaries(replicas, st.integers(1, HELD))
held_lww = st.builds(LwwRegister, st.sampled_from("abcd"), st.tuples(st.integers(0, HELD), replicas))
# Antichains, as merges build them: each entry one write's version.
held_mv = st.lists(
    st.tuples(st.sampled_from("IDTxy"), counts).map(lambda e: MvRegister().assign(e[0], e[1], "w")),
    max_size=4,
).map(lambda regs: functools.reduce(MvRegister.merge, regs, MvRegister()))
bounds = st.sampled_from([Bound("lower", 0), Bound("lower", 3), Bound("upper", 9)])
pairs = st.permutations(REPLICAS).map(lambda order: tuple(order[:2]))  # two distinct replicas
held_bounded = st.builds(
    lambda incs, decs, transfers, bound: BoundedCounter(incs, decs, bound=bound, transfers=transfers),
    counts, counts, st.dictionaries(pairs, st.integers(1, HELD)), bounds,
)


@STEP
@given(held_lww, st.sampled_from("abcd"), replicas)
def test_a_fresh_lww_write_is_its_merge(held, value, writer):
    step = LwwRegister(value, (HELD + 1, writer))
    assert held.merge(step) is step


@STEP
@given(held_mv, st.sampled_from("IDTxy"), st.dictionaries(replicas, st.integers(0, HELD)), replicas)
def test_a_fresh_mv_assign_is_its_merge(held, value, observed, writer):
    step = held.assign(value, observed, writer, HELD + 1)
    assert step == held.merge(MvRegister().assign(value, observed, writer, HELD + 1))


@STEP
@given(held_mv, st.sampled_from("IDTxy"), st.dictionaries(replicas, st.integers(0, HELD)), replicas)
def test_an_mv_step_is_its_merge(held, value, observed, writer):
    step = held.assign(value, observed, writer, HELD + 1)
    assert held.merge(step) == step


@STEP
@given(counts, counts, replicas, st.integers(-5, 5))
def test_an_additive_step_is_its_merge(incs, decs, writer, delta):
    held = AdditiveCounter(incs, decs)
    step = held.add(writer, delta)
    assert held.merge(step) == step


@STEP
@given(held_bounded, replicas, st.integers(-5, 5))
def test_a_bounded_step_is_its_merge(held, writer, delta):
    assume(held.consumption_units(delta) <= held.free(writer))
    step = held.apply_delta(writer, delta)
    assert held.merge(step) == step


@STEP
@given(held_bounded, pairs, st.integers(1, 3))
def test_a_transfer_is_its_merge(held, pair, amount):
    src, dst = pair
    assume(amount <= held.free(src))
    step = held.transfer(src, dst, amount)
    assert held.merge(step) == step


@STEP
@given(bounds, st.integers(0, 8), replicas)
def test_a_creation_is_its_merge(bound, headroom, creator):
    initial = bound.limit + headroom if bound.direction == "lower" else bound.limit - headroom
    step = BoundedCounter.create(bound, initial, REPLICAS, creator)
    assert BoundedCounter(bound=bound).merge(step) == step
