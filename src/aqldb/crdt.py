"""Mergeable value types: the join-semilattice algebra the row store is built on.

Every type here is a state-based CRDT. merge() is commutative, associative and
idempotent. States are immutable: operations build new states, and merge may
return one of its inputs as is when that input already is the join, so
replicas can share one state object.
Callers are responsible for issuing fresh stamps and version counters; the
types themselves only enforce the lattice rules. A stamp is a plain
(counter, replica) tuple, so stamps order lexicographically.

The store only grows, and a full garbage collection walks every tracked
object in it. CPython stops tracking an exact tuple whose items are all
untracked, never a slotted instance or a frozenset. So both registers are
exact tuples, which merge() and canon() take like any other state: a
last-writer-wins cell is (value, stamp), and a multi-value register is its
entries, each (value, version), in version order, which is canonical:
versions are unique within an antichain. () is the register never written.
The engine knows each cell's kind from its column in the catalog
(schema.TableSchema.kinds). Only merge() and canon(), which judge a bare
state, tell the tuple kinds apart by shape, with is_lww().

No state keeps a zero entry: the incs, decs and transfers of a counter and
the counts of a version vector are all positive. canon() drops zeros, so
this is what makes two states equal exactly when their canon texts are, and
lets replicas compare stores by value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import InsufficientRights

Scalar = int | str | bool

# Version vectors are stored as sorted tuples of (replica, count) so that
# register entries stay hashable. Zero counts are dropped.
Version = tuple[tuple[str, int], ...]


def render_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, tuple):
        return "(" + ",".join(render_scalar(v) for v in value) + ")"
    return str(value)


def make_version(counts: Mapping[str, int]) -> Version:
    return tuple(sorted([(r, int(c)) for r, c in counts.items() if c]))


def _counts_leq(a: Version, bc: dict[str, int]) -> bool:
    """Whether version a is at or below version b, given bc = dict(b)."""
    for r, c in a:
        if c > bc.get(r, 0):
            return False
    return True


def _entry_order(entry: tuple[object, Version]) -> tuple[Version, str]:
    """MV entries sort by version; ties, which fresh counters never make, by value."""
    return entry[1], render_scalar(entry[0])


# A logical timestamp: (counter, replica).
EventStamp = tuple[int, str]

# A last-writer-wins register, keeping the value with the greatest stamp.
Lww = tuple[object, EventStamp]  # (value, stamp)


# A multi-value register: its (value, version) entries, an antichain.
Mv = tuple[tuple[object, Version], ...]


def is_lww(state: tuple) -> bool:
    """Whether a bare tuple state is an LWW cell, (value, (counter, replica)),
    not an MV register, whose entries end in version tuples."""
    return len(state) == 2 and type(state[1][1]) is not tuple


def mv_values(reg: Mv) -> list:
    return sorted((e[0] for e in reg), key=render_scalar)


def mv_max_versions(reg: Mv) -> dict[str, int]:
    out: dict[str, int] = {}
    for _, ver in reg:
        for r, c in ver:
            if c > out.get(r, 0):
                out[r] = c
    return out


def mv_assign(reg: Mv, value, observed: Mapping[str, int], writer: str, counter: int | None = None) -> Mv:
    """reg with value written at a version that dominates everything in
    observed: the held entries that version does not dominate, plus the new
    one. counter, when given, must be a never-reused per-writer sequence
    number; otherwise the writer component is bumped past observed. With a
    fresh counter the result equals reg merged with the new entry alone,
    and merging it into reg gives it back. One walk compares each held
    entry with the new version's counts once; when the new version
    dominates them all, as it almost always does, the result is the new
    entry alone, with no sort. The result is a new, non-empty tuple."""
    counts = dict(observed)
    counts[writer] = counter if counter is not None else counts.get(writer, 0) + 1
    kept = (value, make_version(counts)),
    for e in reg:
        if not _counts_leq(e[1], counts):
            kept += e,
    return kept if len(kept) == 1 else tuple(sorted(kept, key=_entry_order))


def mv_merge(mine: Mv, theirs: Mv) -> Mv:
    """The entries of either register that no entry strictly dominates.
    Concurrent assignments all survive; causally dominated entries are
    discarded. When that is one side's whole entry set, that side is
    returned."""
    if len(mine) < 2 and (not theirs or theirs == mine):
        return mine  # theirs adds nothing, and one entry is an antichain
    if len(theirs) == 1:
        (_, top), = theirs
        tc = dict(top)
        for _, ver in mine:
            if ver == top or not _counts_leq(ver, tc):
                break
        else:
            return theirs  # its one entry dominates every entry of mine
    pool = sorted(dict.fromkeys(mine + theirs), key=_entry_order)
    tops = {ver: dict(ver) for _, ver in pool}
    kept = tuple(
        e for e in pool
        if not any(ver != e[1] and _counts_leq(e[1], bc) for ver, bc in tops.items())
    )
    if kept == mine:
        return mine
    return theirs if kept == theirs else kept


@dataclass(frozen=True, slots=True)
class AdditiveCounter:
    """Counter merging concurrent deltas by summing per-replica contributions.

    Each replica owns its own entry in incs and decs; both maps are monotone,
    so merge is a pointwise maximum and no delta is ever lost or doubled.
    """

    incs: dict[str, int] = field(default_factory=dict)
    decs: dict[str, int] = field(default_factory=dict)

    def _like(self, incs: dict[str, int], decs: dict[str, int]) -> "AdditiveCounter":
        """A counter of this one's kind holding incs and decs."""
        return AdditiveCounter(incs, decs)

    def value(self) -> int:
        return sum(self.incs.values()) - sum(self.decs.values())

    def add(self, replica: str, delta: int) -> "AdditiveCounter":
        incs, decs = self.incs, self.decs
        if delta > 0:
            incs = {**incs, replica: incs.get(replica, 0) + delta}
        elif delta < 0:
            decs = {**decs, replica: decs.get(replica, 0) - delta}
        return self._like(incs, decs)

    def merge(self, other: "AdditiveCounter") -> "AdditiveCounter":
        return self._like(_max_map(self.incs, other.incs), _max_map(self.decs, other.decs))

    def _canon_maps(self) -> str:
        return "+{" + _canon_map(self.incs) + "}-{" + _canon_map(self.decs) + "}"

    def canon(self) -> str:
        return "add(" + self._canon_maps() + ")"


@dataclass(frozen=True, slots=True)
class Bound:
    """One-sided numeric bound: sign 1 for value >= limit, -1 for <= limit.
    A value's head-room is sign * (value - limit); the bound admits a value
    whose head-room is not negative."""

    sign: int
    limit: int

    def headroom(self, value: int) -> int:
        return self.sign * (value - self.limit)

    def admits(self, value: int) -> bool:
        return self.headroom(value) >= 0

    def canon(self) -> str:
        return (">=" if self.sign > 0 else "<=") + str(self.limit)


@dataclass(frozen=True, kw_only=True, slots=True)
class BoundedCounter(AdditiveCounter):
    """Escrow counter that can never cross its bound, without coordination.

    An additive counter of head-room against the bound, sign * (value -
    limit): incs[r] is head-room replica r created, by creating the counter
    or moving the value away from the bound, and decs[r] is head-room r
    spent, so the value is limit + sign * (sum(incs) - sum(decs)). A
    replica's rights are what it created plus what others shipped it, less
    what it shipped; it spends only those. Every entry of incs, decs and
    transfers is written by exactly one replica (a transfer by its source)
    and only grows, so merge is a pointwise maximum.
    """

    bound: Bound
    transfers: dict[tuple[str, str], int] = field(default_factory=dict)

    @classmethod
    def create(
        cls,
        bound: Bound,
        initial: int,
        replicas: Sequence[str],
        creator: str,
    ) -> "BoundedCounter":
        """The creator holds the initial head-room and ships an even share to
        every other replica, keeping the remainder. Creations of the same
        counter at several replicas write disjoint entries, so they add up."""
        headroom = bound.headroom(initial)
        if headroom < 0:
            raise ValueError(f"initial value {initial} violates bound {bound.canon()}")
        others = sorted(set(replicas) - {creator})
        share = headroom // (len(others) + 1)
        transfers = {(creator, r): share for r in others} if share else {}
        return cls({creator: headroom} if headroom else {}, bound=bound, transfers=transfers)

    def _like(self, incs: dict[str, int], decs: dict[str, int]) -> "BoundedCounter":
        return BoundedCounter(incs, decs, bound=self.bound, transfers=self.transfers)

    def rights(self, replica: str) -> int:
        out = self.incs.get(replica, 0)
        for (src, dst), amount in self.transfers.items():
            if dst == replica:
                out += amount
            if src == replica:
                out -= amount
        return out

    def free(self, replica: str) -> int:
        return self.rights(replica) - self.decs.get(replica, 0)

    def total_rights(self) -> int:
        return sum(self.incs.values())

    def value(self) -> int:
        # Not super(): slots=True builds a new class, which the
        # zero-argument form does not see.
        return self.bound.limit + self.bound.sign * AdditiveCounter.value(self)

    def transfer(self, src: str, dst: str, amount: int) -> "BoundedCounter":
        """Ship free rights from src to dst. Total rights are conserved."""
        if amount <= 0:
            raise ValueError("transfer amount must be positive")
        if src == dst:
            raise ValueError("transfer needs two distinct replicas")
        if amount > self.free(src):
            raise InsufficientRights(
                f"{src} holds {self.free(src)} free rights, cannot ship {amount}"
            )
        transfers = dict(self.transfers)
        transfers[(src, dst)] = transfers.get((src, dst), 0) + amount
        return BoundedCounter(self.incs, self.decs, bound=self.bound, transfers=transfers)

    def consumption_units(self, delta: int) -> int:
        """Rights a signed delta needs under this bound: the head-room it spends."""
        return max(0, -self.bound.sign * delta)

    def apply_delta(self, replica: str, delta: int) -> "BoundedCounter":
        """Move the value by delta at replica. A move toward the bound spends
        that replica's rights; a move away creates fresh rights there."""
        units = self.consumption_units(delta)
        if units and units > self.free(replica):
            raise InsufficientRights(
                f"{replica} holds {self.free(replica)} free rights, needs {units}"
            )
        return self.add(replica, self.bound.sign * delta)

    def merge(self, other: "BoundedCounter") -> "BoundedCounter":
        incs, decs = _max_map(self.incs, other.incs), _max_map(self.decs, other.decs)
        return BoundedCounter(incs, decs, bound=self.bound, transfers=_max_map(self.transfers, other.transfers))

    def canon(self) -> str:
        t = ",".join(
            f"{s}>{d}:{v}" for (s, d), v in sorted(self.transfers.items()) if v
        )
        return f"bc[{self.bound.canon()}](" + self._canon_maps() + "t{" + t + "})"


MergeValue = Lww | Mv | AdditiveCounter | BoundedCounter


def merge(a: MergeValue, b: MergeValue) -> MergeValue:
    """Merge two states of one kind: the engine merges a cell only with a
    state of the same column, whose kind and bound the catalog fixes."""
    if type(a) is not tuple:
        return a.merge(b)
    if not is_lww(a):
        return mv_merge(a, b)
    if a[1] != b[1]:  # last writer wins
        return a if a[1] > b[1] else b
    # Equal stamps only happen for identical writes; break ties on the
    # rendered value anyway so merge stays total and commutative.
    return a if render_scalar(a[0]) >= render_scalar(b[0]) else b


def canon(state: MergeValue) -> str:
    """The canonical text of any state."""
    if type(state) is not tuple:
        return state.canon()
    if is_lww(state):
        value, (counter, replica) = state
        return f"lww({render_scalar(value)}@{counter}.{replica})"
    parts = sorted(
        f"{render_scalar(v)}@" + ",".join(f"{r}.{c}" for r, c in ver) for v, ver in state
    )
    return "mv{" + "|".join(parts) + "}"


def _max_map(a: Mapping, b: Mapping) -> dict:
    out = dict(a)
    for k, v in b.items():
        if v > out.get(k, v - 1):
            out[k] = v
    return out


def _canon_map(m: Mapping) -> str:
    return ",".join(f"{k}:{v}" for k, v in sorted(m.items()) if v)
