"""Transactions, causal clocks, commit records and the two-level lock manager.

A transaction executes at one replica against a snapshot of the store as of
its begin: it keeps the pre-image of every row a commit changes under it. It
buffers its effects and turns them into a single commit record at commit time.
A transaction that wrote nothing commits at its origin alone and ships no
record. Records carry the origin's vector clock; CausalClock.ready is the one
rule by which receivers deliver them in causal order.

Locks have two levels. A lock is first owned at replica granularity, by a
set of replicas in one mode (an exclusive owner is alone); ownership moves
through a coordinator and is cached until somebody else needs it. A move that
grants exclusive ownership, or ends it, first catches the new owner up to
every previous owner. Within an owning replica, individual transactions then
hold the lock in shared or exclusive mode. Acquisition is fail-fast: a
conflicting active holder or an unreachable coordinator raises
LockUnavailable instead of blocking the event loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Protocol

from .crdt import render_scalar
from .errors import LockUnavailable


class Mode(Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class TxStatus(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(slots=True)
class CausalClock:
    """Vector clock counting, per origin replica, the commits that shipped a
    record: writing transactions and rights transfers. A read-only commit
    ships nothing, so no clock counts it and no one waits for it."""

    counts: dict[str, int] = field(default_factory=dict)

    def copy(self) -> "CausalClock":
        return CausalClock(dict(self.counts))

    def get(self, replica: str) -> int:
        return self.counts.get(replica, 0)

    def tick(self, replica: str) -> None:
        self.counts[replica] = self.counts.get(replica, 0) + 1

    def dominates(self, other: "CausalClock") -> bool:
        return all(self.get(r) >= c for r, c in other.counts.items())

    def ready(self, record: "CommitRecord") -> bool:
        """Whether record can be delivered next: it is its origin's next
        commit, and this clock counts every commit it depends on."""
        counts, origin = self.counts, record.origin
        if counts.get(origin, 0) != record.clock.counts[origin] - 1:
            return False
        for r, c in record.clock.counts.items():
            if c > counts.get(r, 0) and r != origin:
                return False
        return True


@dataclass(slots=True)
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


@dataclass(slots=True)
class Transaction:
    """A client transaction at its origin. A settled one keeps only its
    status, so a refused transaction is freed as soon as its client drops it."""

    txid: str
    origin: str
    status: TxStatus = TxStatus.ACTIVE
    buffer: dict[tuple, RowWrite] = field(default_factory=dict)
    # rowkey -> the stored row as of begin (None: absent then), kept when a
    # commit replaced it; engine.ViewContext reads it over the live store
    saved: dict[tuple, object] = field(default_factory=dict)
    held: dict[str, Mode] = field(default_factory=dict)
    # (rowkey, column) -> bounded-counter rights reserved by buffered deltas
    reserved: dict[tuple, int] = field(default_factory=dict)

    def write(self, rowkey: tuple) -> RowWrite:
        if rowkey not in self.buffer:
            self.buffer[rowkey] = RowWrite()
        return self.buffer[rowkey]


@dataclass(slots=True)
class RowDelta:
    """One row's commit effect: base, the stored row the commit fold read
    (None: absent), and result, the row it built over base. Each cell and
    flag register of result the commit wrote is a new state object, never
    the shared empty register (); every other one is base's own, so a
    receiver tells them apart by identity. A receiver whose row is or
    equals base stores result. Any other receiver is at or above base,
    because CausalClock.ready delivers every record base depends on first,
    so it merges in just the written states: base's unwritten ones it
    already holds or dominates."""

    table: str
    pk: object
    base: object
    result: object


# Not slotted, so that a record can be weakly referenced (weakref_slot needs
# Python 3.11).
@dataclass
class CommitRecord:
    origin: str
    txid: str
    clock: CausalClock  # origin clock after this commit; its origin entry is the record's place
    lamport: int
    deltas: list[RowDelta]


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

    def request_rights(self, replica: str, table: str, pk, column: str, needed: int) -> bool:
        """Move needed bounded-counter rights to replica, all or nothing. True
        means they are free at replica on return; false, that none moved."""
        ...


@dataclass(slots=True)
class LockState:
    """One lock's entry: owners, the replicas that own it, all in one mode
    (an exclusive owner is alone), and holders, txid -> (replica, mode) for
    each transaction that holds it."""

    owners: set[str] = field(default_factory=set)
    exclusive: bool = False
    holders: dict[str, tuple[str, Mode]] = field(default_factory=dict)


def _blocker(st: LockState, tx: Transaction, mode: Mode) -> tuple[str, Mode] | None:
    """The first holder other than tx that keeps tx from holding st in mode:
    any, for an exclusive grant; an exclusive one, for a shared grant."""
    for txid, (_, held_mode) in st.holders.items():
        if txid != tx.txid and (mode is Mode.EXCLUSIVE or held_mode is Mode.EXCLUSIVE):
            return txid, held_mode
    return None


class LockManager:
    """Replica-level ownership plus transaction-level grants for every lock.
    acquire and release_all, the only places the lock table changes, bump
    version first, and only when they may change it, so an unchanged
    version means an unchanged table. hooks, required, is the cluster that
    says which replicas reach each other and catches a new owner up."""

    def __init__(self, replica_ids: Iterable[str], hooks: ClusterHooks):
        self.coordinator = min(replica_ids)
        self.hooks = hooks
        self.locks: dict[str, LockState] = {}
        self.coordinator_requests = 0
        self.version = 0

    def _state(self, lock_id: str) -> LockState:
        if lock_id not in self.locks:
            self.locks[lock_id] = LockState()
        return self.locks[lock_id]

    def acquire(self, tx: Transaction, lock_id: str, mode: Mode) -> None:
        current = tx.held.get(lock_id)
        if current is Mode.EXCLUSIVE or current is mode:
            return  # already held strongly enough: the table stays as it is
        # Ownership may move before a conflict raises, so bump before both.
        self.version += 1
        st = self._state(lock_id)
        replica = tx.origin

        if replica in st.owners and (st.exclusive or mode is Mode.SHARED):
            blocker = _blocker(st, tx, mode)
            if blocker is not None:
                txid, held_mode = blocker
                raise LockUnavailable(f"{lock_id} is held {held_mode.value} by transaction {txid}")
        else:
            self._transfer_ownership(st, lock_id, tx, mode)
        st.holders[tx.txid] = (replica, mode)
        tx.held[lock_id] = mode

    def _transfer_ownership(self, st: LockState, lock_id: str, tx: Transaction, mode: Mode) -> None:
        """Give tx's replica ownership of lock_id in mode, which it lacks,
        through the coordinator. An exclusive grant, or any grant after an
        exclusive owner, hands over what the previous owners committed under
        the lock, so the requester must catch up to them first."""
        replica = tx.origin
        if not self.hooks.reachable(replica, self.coordinator):
            raise LockUnavailable(f"coordinator {self.coordinator} unreachable from {replica}")
        self.coordinator_requests += 1

        blocker = _blocker(st, tx, mode)
        if blocker is not None:
            txid, held_mode = blocker
            raise LockUnavailable(f"{lock_id} has an active {held_mode.value} holder, transaction {txid}")

        previous = sorted(st.owners - {replica})
        for owner in previous:
            if not self.hooks.reachable(self.coordinator, owner):
                raise LockUnavailable(
                    f"owner {owner} of {lock_id} unreachable from coordinator"
                )
        hands_over = mode is Mode.EXCLUSIVE or st.exclusive
        if previous and hands_over and not self.hooks.catch_up(replica, previous):
            raise LockUnavailable(
                f"{replica} cannot catch up to previous owners of {lock_id}"
            )

        st.owners = {replica} if mode is Mode.EXCLUSIVE else st.owners | {replica}
        st.exclusive = mode is Mode.EXCLUSIVE

    def release_all(self, tx: Transaction) -> None:
        if tx.held:
            self.version += 1
        for lock_id in tx.held:
            st = self.locks.get(lock_id)
            if st is not None:
                st.holders.pop(tx.txid, None)
        tx.held = {}

    def safety_violations(self) -> list[str]:
        """Invariant: an exclusive hold never coexists with any other hold,
        exclusive ownership is one replica's, and every holder sits at an
        owner, owning exclusively if it holds exclusively."""
        out = []
        for lock_id, st in sorted(self.locks.items()):
            modes = list(st.holders.values())
            if any(m is Mode.EXCLUSIVE for _, m in modes) and len(modes) > 1:
                out.append(f"{lock_id}: exclusive holder coexists with others")
            if st.exclusive and len(st.owners) != 1:
                out.append(f"{lock_id}: owned exclusive by {len(st.owners)} replicas")
            for txid, (replica, mode) in st.holders.items():
                if replica not in st.owners:
                    out.append(f"{lock_id}: holder {txid} at non-owner replica")
                if mode is Mode.EXCLUSIVE and not st.exclusive:
                    out.append(f"{lock_id}: exclusive hold without exclusive ownership")
        return out
