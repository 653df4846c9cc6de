"""Transactions, causal clocks, commit records and the two-level lock manager.

A transaction executes at one replica against a snapshot of the store as of
its begin: it keeps the pre-image of every row a commit changes under it. It
buffers its effects and turns them into a single commit record at commit time.
Records carry the origin's vector clock; CausalClock.ready is the one rule by
which receivers deliver them in causal order.

Locks have two levels. A lock is first owned at replica granularity
(exclusive by one replica, or shared by a set); ownership moves through a
coordinator and is cached until somebody else needs it. Within an owning
replica, individual transactions then hold the lock in shared or exclusive
mode. Acquisition is fail-fast: a conflicting active holder or an unreachable
coordinator raises LockUnavailable instead of blocking the event loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Protocol

from .crdt import MergeValue, MvRegister, render_scalar
from .errors import LockUnavailable


class Mode(Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class TxStatus(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class CausalClock:
    """Vector clock counting commits per origin replica."""

    counts: dict[str, int] = field(default_factory=dict)

    def copy(self) -> "CausalClock":
        return CausalClock(dict(self.counts))

    def get(self, replica: str) -> int:
        return self.counts.get(replica, 0)

    def tick(self, replica: str) -> None:
        self.counts[replica] = self.counts.get(replica, 0) + 1

    def merge(self, other: "CausalClock") -> None:
        for r, c in other.counts.items():
            if c > self.counts.get(r, 0):
                self.counts[r] = c

    def dominates(self, other: "CausalClock") -> bool:
        return all(self.get(r) >= c for r, c in other.counts.items())

    def has(self, record: "CommitRecord") -> bool:
        """Whether this clock counts record already."""
        return self.get(record.origin) >= record.seq

    def ready(self, record: "CommitRecord") -> bool:
        """Whether record can be delivered next: it is its origin's next
        commit, and this clock counts every commit it depends on."""
        counts, origin = self.counts, record.origin
        if counts.get(origin, 0) != record.seq - 1:
            return False
        for r, c in record.clock.counts.items():
            if c > counts.get(r, 0) and r != origin:
                return False
        return True


@dataclass
class RowWrite:
    """Buffered, not yet stamped effects of one transaction on one row.

    Absolute writes to multi-value cells remember the versions the writer
    observed so that the commit fold can issue entries that dominate exactly
    what was read; last-writer-wins writes carry None instead.
    """

    sets: dict[str, tuple[object, dict[str, int] | None]] = field(default_factory=dict)
    deltas: dict[str, int] = field(default_factory=dict)
    flag: tuple[str, dict[str, int]] | None = None
    generation: int | None = None

    def is_empty(self) -> bool:
        return not (self.sets or self.deltas or self.flag)


@dataclass
class Transaction:
    txid: str
    origin: str
    status: TxStatus = TxStatus.ACTIVE
    error: Exception | None = None
    buffer: dict[tuple, RowWrite] = field(default_factory=dict)
    # rowkey -> the row as of begin (None: absent then), saved before a
    # commit changed it; engine.ViewContext reads it over the live store
    saved: dict[tuple, object] = field(default_factory=dict)
    held: dict[str, Mode] = field(default_factory=dict)
    # (rowkey, column) -> bounded-counter rights reserved by buffered deltas
    reserved: dict[tuple, int] = field(default_factory=dict)

    def write(self, rowkey: tuple) -> RowWrite:
        if rowkey not in self.buffer:
            self.buffer[rowkey] = RowWrite()
        return self.buffer[rowkey]


@dataclass
class RowDelta:
    """Stamped mergeable effects for one row, carried by a commit record."""

    table: str
    pk: object
    cells: dict[str, MergeValue] = field(default_factory=dict)
    visibility: MvRegister | None = None  # over the flags I, D, T
    generation: int | None = None


@dataclass
class CommitRecord:
    origin: str
    seq: int  # commit count at the origin, 1-based
    txid: str
    clock: CausalClock  # origin clock after this commit
    lamport: int
    deltas: list[RowDelta]

    @property
    def record_id(self) -> tuple[str, int]:
        return (self.origin, self.seq)

    def happens_before(self, other: "CommitRecord") -> bool:
        return self.record_id != other.record_id and other.clock.dominates(self.clock)


# --------------------------------------------------------------------------
# locks

def row_lock(table: str, pk) -> str:
    return f"row/{table}/{_key_text(pk)}"


def column_lock(table: str, pk, column: str) -> str:
    return f"col/{table}/{_key_text(pk)}/{column}"


def sequence_lock(name: str) -> str:
    return f"seq/{name}"


def _key_text(pk) -> str:
    return f"{type(pk).__name__}:{render_scalar(pk)}"


class ClusterHooks(Protocol):
    """What the lock manager and the replicas need from the surrounding cluster."""

    def reachable(self, a: str, b: str) -> bool: ...

    def catch_up(self, replica: str, sources: Iterable[str]) -> bool: ...

    def request_rights(self, replica: str, table: str, pk, column: str, needed: int) -> bool: ...


class LocalHooks:
    """Degenerate single-site view: everything reachable, nothing to fetch,
    and no other replica to send bounded-counter rights."""

    def reachable(self, a: str, b: str) -> bool:
        return True

    def catch_up(self, replica: str, sources: Iterable[str]) -> bool:
        return True

    def request_rights(self, replica: str, table: str, pk, column: str, needed: int) -> bool:
        return False


@dataclass
class LockState:
    exclusive_owner: str | None = None
    shared_owners: set[str] = field(default_factory=set)
    # txid -> (replica, mode)
    holders: dict[str, tuple[str, Mode]] = field(default_factory=dict)


class LockManager:
    """Replica-level ownership plus transaction-level grants for every lock.
    acquire and release_all, the only places the lock table changes, bump
    version first (release_all only when there is something to release), so
    an unchanged version means an unchanged table."""

    def __init__(self, replica_ids: Iterable[str], hooks: ClusterHooks | None = None):
        self.replica_ids = sorted(replica_ids)
        self.hooks = hooks if hooks is not None else LocalHooks()
        self.locks: dict[str, LockState] = {}
        self.coordinator_requests = 0
        self.version = 0

    @property
    def coordinator(self) -> str:
        return self.replica_ids[0]

    def _state(self, lock_id: str) -> LockState:
        if lock_id not in self.locks:
            self.locks[lock_id] = LockState()
        return self.locks[lock_id]

    def acquire(self, tx: Transaction, lock_id: str, mode: Mode) -> None:
        # Ownership may move before a conflict raises, so bump first.
        self.version += 1
        st = self._state(lock_id)
        replica = tx.origin
        current = tx.held.get(lock_id)
        if current is Mode.EXCLUSIVE or current is mode:
            return  # already held strongly enough

        owned = (
            st.exclusive_owner == replica
            if mode is Mode.EXCLUSIVE
            else (replica in st.shared_owners or st.exclusive_owner == replica)
        )
        if not owned:
            self._transfer_ownership(st, lock_id, tx, mode)

        # Transaction-level grant within the owning replica set.
        for txid, (_, held_mode) in st.holders.items():
            if txid == tx.txid:
                continue
            if mode is Mode.EXCLUSIVE or held_mode is Mode.EXCLUSIVE:
                raise LockUnavailable(
                    f"{lock_id} is held {held_mode.value} by transaction {txid}"
                )
        st.holders[tx.txid] = (replica, mode)
        tx.held[lock_id] = mode

    def _transfer_ownership(self, st: LockState, lock_id: str, tx: Transaction, mode: Mode) -> None:
        """Give tx's replica ownership of lock_id in mode, which it lacks; so
        it is never the exclusive owner."""
        replica = tx.origin
        if not self.hooks.reachable(replica, self.coordinator):
            raise LockUnavailable(f"coordinator {self.coordinator} unreachable from {replica}")
        self.coordinator_requests += 1

        # Any active holder elsewhere blocks an exclusive grant; an active
        # exclusive holder blocks everything.
        for txid, (_, held_mode) in st.holders.items():
            if txid == tx.txid:
                continue
            if mode is Mode.EXCLUSIVE or held_mode is Mode.EXCLUSIVE:
                raise LockUnavailable(
                    f"{lock_id} has an active {held_mode.value} holder, transaction {txid}"
                )

        previous = set(st.shared_owners)
        if st.exclusive_owner is not None:
            previous.add(st.exclusive_owner)
        previous.discard(replica)

        for owner in sorted(previous):
            if not self.hooks.reachable(self.coordinator, owner):
                raise LockUnavailable(
                    f"owner {owner} of {lock_id} unreachable from coordinator"
                )

        # Revoking ownership hands over everything the old owners committed
        # under the lock; the requester must be able to catch up to them.
        needs_catch_up = sorted(previous) if mode is Mode.EXCLUSIVE else (
            [st.exclusive_owner] if st.exclusive_owner else []
        )
        if needs_catch_up and not self.hooks.catch_up(replica, needs_catch_up):
            raise LockUnavailable(
                f"{replica} cannot catch up to previous owners of {lock_id}"
            )

        if mode is Mode.EXCLUSIVE:
            st.exclusive_owner = replica
            st.shared_owners = set()
        else:
            st.shared_owners = st.shared_owners | {replica}
            if st.exclusive_owner is not None:
                st.shared_owners.add(st.exclusive_owner)
                st.exclusive_owner = None

    def release_all(self, tx: Transaction) -> None:
        if tx.held:
            self.version += 1
        for lock_id in tx.held:
            st = self.locks.get(lock_id)
            if st is not None:
                st.holders.pop(tx.txid, None)
        tx.held = {}

    def safety_violations(self) -> list[str]:
        """Invariant: an exclusive hold never coexists with any other hold."""
        out = []
        for lock_id, st in sorted(self.locks.items()):
            modes = list(st.holders.values())
            if any(m is Mode.EXCLUSIVE for _, m in modes) and len(modes) > 1:
                out.append(f"{lock_id}: exclusive holder coexists with others")
            if st.exclusive_owner is not None and st.shared_owners:
                out.append(f"{lock_id}: owned exclusive and shared at once")
            for txid, (replica, mode) in st.holders.items():
                if st.exclusive_owner is not None and replica != st.exclusive_owner:
                    out.append(f"{lock_id}: holder {txid} outside owner replica")
                if st.exclusive_owner is None and st.shared_owners and replica not in st.shared_owners:
                    out.append(f"{lock_id}: holder {txid} at non-owner replica")
                if mode is Mode.EXCLUSIVE and st.exclusive_owner != replica:
                    out.append(f"{lock_id}: exclusive hold without exclusive ownership")
        return out
