"""Algebraic laws of merge, checked over seeded random states.

Every cell kind must form a join semilattice: merge is commutative,
associative and idempotent. These laws are what make replica state
independent of delivery order, so they get hammered hard here.
"""

import functools
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from aqldb.crdt import (
    AdditiveCounter,
    Bound,
    BoundedCounter,
    canon,
    is_lww,
    make_version,
    merge,
    mv_assign,
    mv_max_versions,
    mv_merge,
    render_scalar,
)
from aqldb.errors import InsufficientRights

REPLICAS = ("r1", "r2", "r3")
CASES_PER_KIND = 2500  # x5 kinds -> >= 10^4 cases per law


def rand_lww(rng: random.Random) -> tuple:
    if rng.random() < 0.1:
        return None, (0, "")  # never written
    stamp = (rng.randrange(1, 5), rng.choice(REPLICAS))
    return rng.choice("abcd"), stamp


def rand_mv(rng: random.Random) -> tuple:
    reg = ()
    branches = [reg]
    for _ in range(rng.randrange(4)):
        base = rng.choice(branches)
        branches.append(
            mv_assign(base, rng.choice("wxyz"), mv_max_versions(base), rng.choice(REPLICAS))
        )
    out = ()
    for b in branches:
        out = merge(out, b)
    return out


def rand_vis(rng: random.Random) -> tuple:
    reg = ()
    branches = [reg]
    for _ in range(rng.randrange(4)):
        base = rng.choice(branches)
        branches.append(
            mv_assign(
                base, rng.choice("IDT"), mv_max_versions(base), rng.choice(REPLICAS)
            )
        )
    out = ()
    for b in branches:
        out = merge(out, b)
    return out


def rand_additive(rng: random.Random) -> AdditiveCounter:
    c = AdditiveCounter()
    for _ in range(rng.randrange(5)):
        c = c.add(rng.choice(REPLICAS), rng.randrange(-6, 7) or 1)
    return c


def rand_bounded(rng: random.Random) -> BoundedCounter:
    # all states in one comparison must share the bound
    bound = Bound(1, 0)
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
        assert merge(a, b) == merge(b, a)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_merge_associative(kind):
    gen = GENERATORS[kind]
    rng = random.Random(f"assoc-{kind}")
    for _ in range(CASES_PER_KIND):
        a, b, c = gen(rng), gen(rng), gen(rng)
        assert merge(a, merge(b, c)) == merge(merge(a, b), c)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_merge_idempotent(kind):
    gen = GENERATORS[kind]
    rng = random.Random(f"idem-{kind}")
    for _ in range(CASES_PER_KIND):
        a = gen(rng)
        assert merge(a, a) == a


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_merge_absorbs_earlier_state(kind):
    """Merging a state into one derived from it changes nothing."""
    gen = GENERATORS[kind]
    rng = random.Random(f"absorb-{kind}")
    for _ in range(500):
        a, b = gen(rng), gen(rng)
        ab = merge(a, b)
        assert merge(ab, a) == ab
        assert merge(ab, b) == ab


def is_mv(state) -> bool:
    return type(state) is tuple and not is_lww(state)


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
    if is_mv(state):
        maps += [dict(version) for _, version in state]
    return [(key, value) for m in maps for key, value in m.items() if value == 0]


def derived_states(a, b, rng: random.Random):
    """a and b merged, plus what every operation of their kind makes of a."""
    yield merge(a, b)
    if is_mv(a):
        for r in REPLICAS:
            yield mv_assign(a, "v", {**mv_max_versions(a), "r9": 0}, r)
            yield mv_assign(a, "v", {}, r)  # concurrent with what a holds
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
        for bound in (Bound(1, 0), Bound(1, 2), Bound(-1, 6), Bound(-1, 0)):
            initial = bound.limit + bound.sign * rng.randrange(0, 5)
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


@pytest.mark.parametrize("kind", ["mv", "vis"])
def test_entries_stay_in_version_order(kind):
    """Every register that assign or merge returns holds its entries in
    version order (see crdt's docstring), so equal registers compare equal.
    These generators reuse a writer's count on concurrent branches, which
    fresh counters never do; entries whose versions tie order by value."""
    gen = GENERATORS[kind]
    rng = random.Random(f"order-{kind}")
    for _ in range(500):
        a, b = gen(rng), gen(rng)
        for state in (a, b, *derived_states(a, b, rng)):
            order = sorted(state, key=lambda e: (e[1], render_scalar(e[0])))
            assert list(state) == order, state


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
held_lww = st.tuples(st.sampled_from("abcd"), st.tuples(st.integers(0, HELD), replicas))
# Antichains, as merges build them: each entry one write's version.
held_mv = st.lists(
    st.tuples(st.sampled_from("IDTxy"), counts).map(lambda e: mv_assign((), e[0], e[1], "w")),
    max_size=4,
).map(lambda regs: functools.reduce(mv_merge, regs, ()))
bounds = st.sampled_from([Bound(1, 0), Bound(1, 3), Bound(-1, 9), Bound(-1, 0)])
pairs = st.permutations(REPLICAS).map(lambda order: tuple(order[:2]))  # two distinct replicas
held_bounded = st.builds(
    lambda incs, decs, transfers, bound: BoundedCounter(incs, decs, bound=bound, transfers=transfers),
    counts, counts, st.dictionaries(pairs, st.integers(1, HELD)), bounds,
)


@STEP
@given(held_lww, st.sampled_from("abcd"), replicas)
def test_a_fresh_lww_write_is_its_merge(held, value, writer):
    step = (value, (HELD + 1, writer))
    assert merge(held, step) is step


@STEP
@given(held_mv, st.sampled_from("IDTxy"), st.dictionaries(replicas, st.integers(0, HELD)), replicas)
def test_a_fresh_mv_assign_is_its_merge(held, value, observed, writer):
    step = mv_assign(held, value, observed, writer, HELD + 1)
    assert step == mv_merge(held, mv_assign((), value, observed, writer, HELD + 1))


@STEP
@given(held_mv, st.sampled_from("IDTxy"), st.dictionaries(replicas, st.integers(0, HELD)), replicas)
def test_an_mv_step_is_its_merge(held, value, observed, writer):
    step = mv_assign(held, value, observed, writer, HELD + 1)
    assert mv_merge(held, step) == step


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
    initial = bound.limit + bound.sign * headroom
    step = BoundedCounter.create(bound, initial, REPLICAS, creator)
    assert BoundedCounter(bound=bound).merge(step) == step


# ---------------------------------------------------------------------------
# A bound (s, L) and its mirror (-s, -L) hold the same head-room at v and -v,
# so the same entries under the mirrored bound are the counter reflected
# through zero: every operation on it is the reflection of the original's.

def mirror(c: BoundedCounter) -> BoundedCounter:
    return BoundedCounter(c.incs, c.decs, bound=Bound(-c.bound.sign, -c.bound.limit), transfers=c.transfers)


@STEP
@given(held_bounded, held_bounded, replicas, st.integers(-5, 5), st.integers(-2, 8))
def test_a_mirrored_bound_reflects_the_counter(held, other, writer, delta, headroom):
    m = mirror(held)
    assert m.value() == -held.value()
    for r in REPLICAS:
        assert (m.rights(r), m.free(r)) == (held.rights(r), held.free(r))
    assert m.consumption_units(-delta) == held.consumption_units(delta)
    try:
        step = held.apply_delta(writer, delta)
    except InsufficientRights:
        with pytest.raises(InsufficientRights):
            m.apply_delta(writer, -delta)
    else:
        assert m.apply_delta(writer, -delta) == mirror(step)
    other = BoundedCounter(other.incs, other.decs, bound=held.bound, transfers=other.transfers)
    assert m.merge(mirror(other)) == mirror(held.merge(other))
    initial = held.bound.limit + held.bound.sign * headroom
    try:
        created = BoundedCounter.create(held.bound, initial, REPLICAS, writer)
    except ValueError:
        with pytest.raises(ValueError):
            BoundedCounter.create(m.bound, -initial, REPLICAS, writer)
    else:
        assert BoundedCounter.create(m.bound, -initial, REPLICAS, writer) == mirror(created)


# ---------------------------------------------------------------------------
# Both registers are plain tuples, and crdt.is_lww alone tells them apart:
# a cell's second item holds a replica id second, a two-entry register's
# second entry a version. Values are of every column type: INT, VARCHAR,
# BOOLEAN and a foreign key reference (parent key, generation).

scalars = st.one_of(
    st.integers(-9, 9),
    st.text("ab ", max_size=3),
    st.booleans(),
    st.tuples(st.text("ab", min_size=1, max_size=2), st.integers(1, HELD)),
)
lww_cells = st.tuples(scalars, st.tuples(st.integers(0, HELD), st.sampled_from(REPLICAS + ("",))))
mv_registers = st.lists(
    st.tuples(scalars, st.dictionaries(replicas, st.integers(1, HELD), min_size=1).map(make_version)),
    max_size=4,
).map(tuple)


@STEP
@example(lww=(5, (7, "r1")), reg=((5, (("r1", 2),)), (7, (("r2", 2),))))
@given(lww=lww_cells, reg=mv_registers)
def test_is_lww_tells_the_tuple_kinds_apart(lww, reg):
    assert is_lww(lww) and not is_lww(reg)


@pytest.mark.parametrize("state, text", [
    ((5, (7, "r1")), "lww(5@7.r1)"),
    ((("A1", 2), (3, "r2")), "lww((A1,2)@3.r2)"),
    ((True, (1, "r3")), "lww(true@1.r3)"),
    ((None, (0, "")), "lww(null@0.)"),
    ((), "mv{}"),
    ((("I", (("r1", 1),)), ("T", (("r2", 3),))), "mv{I@r1.1|T@r2.3}"),
    (((5, (("r1", 2),)), (7, (("r2", 2),))), "mv{5@r1.2|7@r2.2}"),
    (((("A1", 2), (("r1", 1), ("r2", 1))),), "mv{(A1,2)@r1.1,r2.1}"),
    (((False, (("r3", 4),)), ("x y", (("r1", 1), ("r2", 5)))), "mv{false@r3.4|x y@r1.1,r2.5}"),
])
def test_canon_text_of_each_tuple_kind(state, text):
    assert canon(state) == text


# ---------------------------------------------------------------------------
# mv_assign against the form it had before it walked the held entries once:
# a list of the survivors, the new entry appended, then sorted.

def reference_mv_assign(reg, value, observed, writer, counter=None):
    counts = dict(observed)
    counts[writer] = counter if counter is not None else counts.get(writer, 0) + 1
    kept = [e for e in reg if any(c > counts.get(r, 0) for r, c in e[1])]
    kept.append((value, make_version(counts)))
    if len(kept) > 1:
        kept.sort(key=lambda e: (e[1], render_scalar(e[0])))
    return tuple(kept)


observed_maps = st.dictionaries(replicas, st.integers(0, HELD))
# Registers of 0-4 entries that merges and then assigns reach.
reachable_mv = st.tuples(
    held_mv, st.lists(st.tuples(st.sampled_from("IDTxy"), observed_maps, replicas), max_size=3),
).map(lambda d: functools.reduce(lambda reg, step: reference_mv_assign(reg, *step), d[1], d[0])).filter(
    lambda reg: len(reg) <= 4
)


@STEP
@example(held=(("x", (("r1", 2),)),), value="y", observed={"r2": 1}, writer="r2", fresh=False)
@example(held=(), value="I", observed={}, writer="r1", fresh=True)
@given(reachable_mv, st.sampled_from("IDTxy"), observed_maps, replicas, st.booleans())
def test_mv_assign_answers_like_its_reference(held, value, observed, writer, fresh):
    """The same tuple as the reference, always a new one; the new entry
    alone whenever its version dominates every held entry. A fresh counter
    is above every count of writer held or observed."""
    counter = None
    if fresh:
        counter = 1 + max([c for _, ver in held for r, c in ver if r == writer] + [observed.get(writer, 0)])
    got = mv_assign(held, value, observed, writer, counter)
    assert type(got) is tuple and got == reference_mv_assign(held, value, observed, writer, counter)
    assert got is not held
    version = make_version({**observed, writer: counter if fresh else observed.get(writer, 0) + 1})
    if all(c <= dict(version).get(r, 0) for _, ver in held for r, c in ver):
        assert got == ((value, version),)
