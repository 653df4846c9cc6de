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
    EventStamp,
    LwwRegister,
    MvRegister,
)

REPLICAS = ("r1", "r2", "r3")
CASES_PER_KIND = 2500  # x5 kinds -> >= 10^4 cases per law


def rand_lww(rng: random.Random) -> LwwRegister:
    if rng.random() < 0.1:
        return LwwRegister.bottom()
    stamp = EventStamp(rng.randrange(1, 5), rng.choice(REPLICAS))
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
