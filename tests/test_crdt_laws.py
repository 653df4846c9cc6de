"""Algebraic laws of merge, checked over seeded random states.

Every cell kind must form a join semilattice: merge is commutative,
associative and idempotent. These laws are what make replica state
independent of delivery order, so they get hammered hard here.
"""

import random

import pytest

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
        return LwwRegister.bottom()
    stamp = (rng.randrange(1, 5), rng.choice(REPLICAS))
    return LwwRegister.bottom().assign(rng.choice("abcd"), stamp)


def rand_mv(rng: random.Random) -> MvRegister:
    reg = MvRegister.bottom()
    branches = [reg]
    for _ in range(rng.randrange(4)):
        base = rng.choice(branches)
        branches.append(
            base.assign(rng.choice("wxyz"), base.max_versions(), rng.choice(REPLICAS))
        )
    out = MvRegister.bottom()
    for b in branches:
        out = out.merge(b)
    return out


def rand_vis(rng: random.Random) -> MvRegister:
    reg = MvRegister.bottom()
    branches = [reg]
    for _ in range(rng.randrange(4)):
        base = rng.choice(branches)
        branches.append(
            base.assign(
                rng.choice("IDT"), base.max_versions(), rng.choice(REPLICAS)
            )
        )
    out = MvRegister.bottom()
    for b in branches:
        out = out.merge(b)
    return out


def rand_additive(rng: random.Random) -> AdditiveCounter:
    c = AdditiveCounter.bottom()
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
            yield a.slice_for(r)
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
