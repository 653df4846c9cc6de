"""Per-replica relational state and statement execution.

Rows are bundles of mergeable cells plus a visibility register and an
insertion generation counter. Beside each foreign key column sits a reference
cell that remembers which parent (and which generation of it) the column
referenced; it is written and merged in lockstep with the column. Statements
run inside a transaction: they validate against the transaction's snapshot,
grab whatever locks the schema's concurrency annotations demand, and buffer
effects that the commit fold turns into stamped mergeable states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from . import schema as sch
from .crdt import (
    AdditiveCounter,
    Bound,
    BoundedCounter,
    EventStamp,
    LwwRegister,
    MergeValue,
    MvRegister,
    Scalar,
    merge,
    render_scalar,
)
from .errors import (
    AqlError,
    CheckViolation,
    DuplicateKey,
    FkParentMissing,
    FkRestrict,
    InsufficientRights,
    RowNotFound,
    TypeMismatch,
    ValidationError,
)
from .txn import (
    CausalClock,
    ClusterHooks,
    CommitRecord,
    LocalHooks,
    Mode,
    RowDelta,
    RowWrite,
    Transaction,
    TxStatus,
    column_lock,
    row_lock,
    sequence_lock,
)

SEQ_TABLE = "_sequences"
SEQ_COLUMN = "value"

RowKey = tuple[str, Scalar]

# The stamp of a last-writer-wins register that was never written.
_UNWRITTEN = EventStamp(0, "")
_REF = "ref."


def ref_cell(column: str) -> str:
    """Name of the cell holding a foreign key column's (parent pk, parent
    generation) reference. Identifiers cannot contain a dot, so it never
    collides with a column."""
    return _REF + column


@dataclass
class Row:
    cells: dict[str, MergeValue] = field(default_factory=dict)
    visibility: MvRegister = field(default_factory=MvRegister)  # over I, D, T
    generation: int = 0

    def copy(self) -> "Row":
        # Cell states are never mutated in place, so sharing them is safe.
        return Row(dict(self.cells), self.visibility, self.generation)


class Store:
    """All rows of one replica, keyed by table then primary key, and a
    reverse foreign key index (child table, fk column, parent pk) -> child
    pks. Entries are never removed: readers re-check every candidate.
    Replica._apply_delta, the only place rows change, bumps version first,
    so an unchanged version means an unchanged store."""

    def __init__(self):
        self.tables: dict[str, dict[Scalar, Row]] = {}
        self.children: dict[tuple[str, str, Scalar], set[Scalar]] = {}
        self.version = 0

    def row(self, table: str, pk: Scalar) -> Row | None:
        return self.tables.get(table, {}).get(pk)

    def ensure(self, table: str, pk: Scalar) -> Row:
        rows = self.tables.setdefault(table, {})
        if pk not in rows:
            rows[pk] = Row()
        return rows[pk]

    def pks(self, table: str) -> list[Scalar]:
        return list(self.tables.get(table, {}))


class Cause(Enum):
    ALL_CLEAR = "all_clear"
    ONLY_D = "only_d"
    ANY_D = "any_d"
    MISSING = "missing"
    PARENT_DELETED = "parent_deleted"
    PARENT_VERSION_STALE = "parent_version_stale"


@dataclass(frozen=True)
class VisibilityVerdict:
    visible: bool
    cause: Cause


# Verdicts are immutable, so is_visible hands out one shared object per cause.
_VERDICTS = {cause: VisibilityVerdict(cause is Cause.ALL_CLEAR, cause) for cause in Cause}
_VISIBLE = _VERDICTS[Cause.ALL_CLEAR]


@dataclass
class RowView:
    """A row as one transaction sees it: stored state plus buffered writes."""

    row: Row | None
    write: RowWrite | None = None

    def flags(self) -> frozenset[str]:
        if self.write is not None and self.write.flag is not None:
            return frozenset({self.write.flag[0]})
        if self.row is not None:
            return frozenset([flag for flag, _ in self.row.visibility.entries])
        return frozenset()

    def generation(self) -> int:
        if self.write is not None and self.write.generation is not None:
            return self.write.generation
        return self.row.generation if self.row is not None else 0

    def scalars(self, column: str) -> tuple:
        """Current value(s) of a cell; several for concurrent MV writes."""
        if self.write is not None:
            if column in self.write.sets:
                return (self.write.sets[column][0],)
            if column in self.write.deltas:
                return (self._counter_base(column) + self.write.deltas[column],)
        cell = self.row.cells.get(column) if self.row is not None else None
        if cell is None:
            return ()
        if isinstance(cell, LwwRegister):
            return () if cell.stamp == _UNWRITTEN else (cell.value,)
        if isinstance(cell, MvRegister):
            return tuple(cell.values())
        return (cell.value(),)

    def _counter_base(self, column: str) -> int:
        cell = self.row.cells.get(column) if self.row is not None else None
        return cell.value() if isinstance(cell, AdditiveCounter) else 0

    def fk_refs(self, column: str) -> tuple[tuple[Scalar, int], ...]:
        return self.scalars(ref_cell(column))

    def visibility_versions(self) -> dict[str, int]:
        return self.row.visibility.max_versions() if self.row is not None else {}

    def cell_versions(self, column: str) -> dict[str, int]:
        cell = self.row.cells.get(column) if self.row is not None else None
        return cell.max_versions() if isinstance(cell, MvRegister) else {}


class ViewContext:
    """Row lookup over a store, optionally as a transaction sees it. A row
    is its saved pre-image if the transaction saved one (a snapshot read),
    else the live row; the transaction's buffered write is laid over it."""

    def __init__(
        self, store: Store, catalog: sch.Catalog, buffer: dict | None = None, saved: dict | None = None
    ):
        self.store = store
        self.catalog = catalog
        self.buffer = buffer if buffer is not None else {}
        self.saved = saved if saved is not None else {}

    def view(self, table: str, pk: Scalar) -> RowView | None:
        key = (table, pk)
        row = self.saved[key] if key in self.saved else self.store.row(table, pk)
        write = self.buffer.get(key)
        if row is None and (write is None or write.is_empty()):
            return None
        return RowView(row, write)

    def pks(self, table: str) -> list[Scalar]:
        out = self.store.pks(table)
        if self.saved:
            absent = {pk for (t, pk), row in self.saved.items() if t == table and row is None}
            out = [pk for pk in out if pk not in absent]
        if self.buffer:  # dumps and audits have none: no merged key set to build
            out = set(out)
            out.update(pk for (t, pk), write in self.buffer.items() if t == table and not write.is_empty())
        return sorted(out, key=render_scalar)


def _own_flags_dead(policy: sch.Policy, flags: frozenset[str]) -> Cause | None:
    if not flags:
        return Cause.MISSING
    if policy is sch.Policy.UPDATE_WINS:
        # A concurrent touch or insert outweighs the delete.
        return Cause.ONLY_D if flags == {"D"} else None
    return Cause.ANY_D if "D" in flags else None


def is_visible(
    ctx: ViewContext, table: str, pk: Scalar, _seen: frozenset | None = None
) -> VisibilityVerdict:
    """Full visibility: own flags per row policy, then every recorded parent
    must itself be visible; delete-wins references additionally pin the
    parent's insertion generation."""
    view = ctx.view(table, pk)
    if view is None:
        return _VERDICTS[Cause.MISSING]
    schema = ctx.catalog.tables.get(table)
    if schema is None:
        return _VISIBLE
    dead = _own_flags_dead(schema.row_policy, view.flags())
    if dead is not None:
        return _VERDICTS[dead]
    if not schema.foreign_keys:
        return _VISIBLE
    key = (table, pk)
    seen = _seen if _seen is not None else frozenset()
    if key in seen:
        return _VISIBLE
    seen = seen | {key}
    for colname, fk in schema.foreign_keys:
        for ppk, pgen in view.fk_refs(colname):
            parent = ctx.view(fk.table, ppk)
            if parent is None or not is_visible(ctx, fk.table, ppk, seen).visible:
                return _VERDICTS[Cause.PARENT_DELETED]
            if fk.policy is sch.Policy.DELETE_WINS and parent.generation() != pgen:
                return _VERDICTS[Cause.PARENT_VERSION_STALE]
    return _VISIBLE


def visible_rows(ctx: ViewContext, table: str) -> list[tuple[Scalar, RowView]]:
    """Every visible row of table as (pk, view), in key order. The one table
    scan: statements, cascades, dumps and audits all read rows through it.
    It builds a list, not a generator: the per-event audit scans mostly
    empty tables, where setting up a generator costs more than the scan."""
    out = []
    for pk in ctx.pks(table):
        if is_visible(ctx, table, pk).visible:
            out.append((pk, ctx.view(table, pk)))
    return out


def compare(left: Scalar, op: str, right: Scalar) -> bool:
    if isinstance(left, bool) != isinstance(right, bool) or (
        isinstance(left, str) != isinstance(right, str)
    ):
        raise TypeMismatch(f"cannot compare {left!r} with {right!r}")
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ValidationError(f"unknown operator {op}")


def check_eval(atoms: Iterable[sch.CheckAtom], value: Scalar) -> bool:
    """A conjunction of single-column comparisons against one value."""
    return all(compare(value, atom.op, atom.value) for atom in atoms)


def _buffer_set(write: RowWrite, view: RowView | None, col: sch.ColumnDef, name: str, value) -> None:
    """Buffer an absolute write to cell name, which holds column col or its
    reference. A multi-value write remembers the versions it observed."""
    if col.modifier is sch.Modifier.MULTI_VALUE:
        write.sets[name] = (value, view.cell_versions(name) if view is not None else {})
    else:
        write.sets[name] = (value, None)


class Replica:
    """One logical data center: a store, a clock, and active transactions."""

    def __init__(
        self, rid: str, catalog: sch.Catalog, replica_ids, lock_manager, hooks: ClusterHooks | None = None
    ):
        self.rid = rid
        self.catalog = catalog
        self.replica_ids = sorted(replica_ids)
        self.locks = lock_manager
        self.hooks = hooks if hooks is not None else LocalHooks()
        self.store = Store()
        self.clock = CausalClock()
        self.lamport = 0
        self.uid_counter = 0
        self.txn_counter = 0
        self.active: dict[str, Transaction] = {}

    # -- transaction lifecycle ------------------------------------------------

    def begin(self, txid: str | None = None) -> Transaction:
        if txid is None:
            self.txn_counter += 1
            txid = f"{self.rid}-t{self.txn_counter}"
        if txid in self.active:
            raise ValidationError(f"transaction {txid} is already active")
        tx = Transaction(txid, self.rid)
        self.active[txid] = tx
        return tx

    def execute(self, tx: Transaction, statement):
        if tx.status is not TxStatus.ACTIVE:
            raise ValidationError(f"transaction {tx.txid} is {tx.status.value}")
        try:
            if isinstance(statement, str):
                statement = sch.parse_statement(statement, self.catalog)
            if isinstance(statement, sch.Insert):
                return self._exec_insert(tx, statement)
            if isinstance(statement, sch.Update):
                return self._exec_update(tx, statement)
            if isinstance(statement, sch.Delete):
                return self._exec_delete(tx, statement)
            return self._exec_select(tx, statement)
        except AqlError as err:
            self.abort(tx, err)
            raise

    def commit(self, tx: Transaction) -> CommitRecord:
        if tx.status is not TxStatus.ACTIVE:
            raise ValidationError(f"transaction {tx.txid} is {tx.status.value}")
        try:
            lam = self.lamport + 1
            deltas = []
            for rowkey in sorted(tx.buffer, key=lambda k: (k[0], render_scalar(k[1]))):
                write = tx.buffer[rowkey]
                if write.is_empty():
                    continue
                deltas.append(self._fold_row(rowkey, write, lam))
        except AqlError as err:
            self.abort(tx, err)
            raise
        record = self._seal(tx.txid, lam, deltas)
        self._settle(tx, TxStatus.COMMITTED)
        return record

    def _seal(self, txid: str, lam: int, deltas: list[RowDelta]) -> CommitRecord:
        """Apply a local commit's deltas and stamp the record that ships them."""
        self.lamport = lam
        for delta in deltas:
            self._apply_delta(delta, committing=txid)
        self.clock.tick(self.rid)
        return CommitRecord(
            origin=self.rid,
            seq=self.clock.get(self.rid),
            txid=txid,
            clock=self.clock.copy(),
            lamport=lam,
            deltas=deltas,
        )

    def abort(self, tx: Transaction, error: Exception | None = None) -> None:
        if tx.status is not TxStatus.ACTIVE:
            return
        tx.error = error
        self._settle(tx, TxStatus.ABORTED)

    def _settle(self, tx: Transaction, status: TxStatus) -> None:
        tx.status = status
        self.locks.release_all(tx)
        self.active.pop(tx.txid, None)

    # -- replication ----------------------------------------------------------

    def deliver(self, record: CommitRecord) -> bool:
        """Merge a remote commit. Duplicate delivery is a no-op."""
        if self.clock.has(record):
            return False
        if not self.clock.ready(record):
            raise ValidationError(
                f"record {record.record_id} not causally ready at {self.rid}"
            )
        for delta in record.deltas:
            self._apply_delta(delta)
        self.clock.tick(record.origin)
        if record.lamport > self.lamport:
            self.lamport = record.lamport
        return True

    def _apply_delta(self, delta: RowDelta, committing: str | None = None) -> None:
        """Merge one row's delta: the only place stored rows change. Each open
        transaction but the committing one first saves the row's pre-image."""
        self.store.version += 1
        key = (delta.table, delta.pk)
        row = self.store.row(*key)
        for tx in self.active.values():
            if tx.txid != committing and key not in tx.saved:
                tx.saved[key] = row.copy() if row is not None else None
        if row is None:
            row = self.store.ensure(*key)
        for col, state in delta.cells.items():
            cur = row.cells.get(col)
            row.cells[col] = state if cur is None else merge(cur, state)
            if col.startswith(_REF):
                refs = [state.value] if isinstance(state, LwwRegister) else state.values()
                for ppk, _ in refs:
                    self.store.children.setdefault((delta.table, col[len(_REF):], ppk), set()).add(delta.pk)
        if delta.visibility is not None:
            row.visibility = row.visibility.merge(delta.visibility)
        if delta.generation is not None and delta.generation > row.generation:
            row.generation = delta.generation

    # -- contexts -------------------------------------------------------------

    def snap_ctx(self, tx: Transaction) -> ViewContext:
        return ViewContext(self.store, self.catalog, tx.buffer, tx.saved)

    def live_ctx(self, tx: Transaction) -> ViewContext:
        return ViewContext(self.store, self.catalog, tx.buffer)

    def committed_ctx(self) -> ViewContext:
        return ViewContext(self.store, self.catalog)

    # -- ids ------------------------------------------------------------------

    def next_unique_id(self) -> str:
        """Site-prefixed id: unique without any coordination."""
        self.uid_counter += 1
        return f"{self.rid}-{self.uid_counter}"

    def next_sequential_id(self, tx: Transaction, name: str) -> int:
        """Gap-free counter guarded by an exclusive lock on the sequence.

        The lock handover ships the previous owner's commits, so the read
        below always sees the latest committed value.
        """
        self._acquire(tx, [(sequence_lock(name), Mode.EXCLUSIVE)])
        rowkey = (SEQ_TABLE, name)
        write = tx.buffer.get(rowkey)
        if write is not None and SEQ_COLUMN in write.sets:
            current = write.sets[SEQ_COLUMN][0]
        else:
            row = self.store.row(SEQ_TABLE, name)
            cell = row.cells.get(SEQ_COLUMN) if row is not None else None
            current = cell.value if isinstance(cell, LwwRegister) and cell.value is not None else 0
        value = current + 1
        tx.write(rowkey).sets[SEQ_COLUMN] = (value, None)
        return value

    # -- rights movement ------------------------------------------------------

    def donatable(self, table: str, pk: Scalar, column: str) -> int:
        row = self.store.row(table, pk)
        cell = row.cells.get(column) if row is not None else None
        if not isinstance(cell, BoundedCounter):
            return 0
        key = ((table, pk), column)
        return cell.free(self.rid) - sum(tx.reserved.get(key, 0) for tx in self.active.values())

    def transfer_rights(self, table: str, pk: Scalar, column: str, dst: str, amount: int) -> CommitRecord:
        """Ship bounded-counter rights to dst as a standalone system commit."""
        row = self.store.row(table, pk)
        cell = row.cells.get(column) if row is not None else None
        if not isinstance(cell, BoundedCounter):
            raise InsufficientRights(f"{table}.{column} holds no bounded counter here")
        moved = cell.transfer(self.rid, dst, amount)
        delta = RowDelta(table, pk, {column: moved.slice_for(self.rid)})
        self.txn_counter += 1
        return self._seal(f"{self.rid}-rights{self.txn_counter}", self.lamport + 1, [delta])

    # -- statement execution --------------------------------------------------

    def _acquire(self, tx: Transaction, wants: list[tuple[str, Mode]]) -> None:
        strongest: dict[str, Mode] = {}
        for lock_id, mode in wants:
            if mode is Mode.EXCLUSIVE or lock_id not in strongest:
                strongest[lock_id] = mode
        for lock_id in sorted(strongest):
            self.locks.acquire(tx, lock_id, strongest[lock_id])

    def _match_rows(self, ctx: ViewContext, schema: sch.TableSchema, where: sch.Where | None) -> list[Scalar]:
        if where is not None and where.is_pk_lookup(schema):
            pk, view = where.value, ctx.view(schema.name, where.value)
            hit = view is not None and is_visible(ctx, schema.name, pk).visible and any(
                compare(v, where.op, pk) for v in view.scalars(where.column))
            return [pk] if hit else []
        out = []
        for pk, view in visible_rows(ctx, schema.name):
            if where is not None:
                values = view.scalars(where.column)
                if not any(compare(v, where.op, where.value) for v in values):
                    continue
            out.append(pk)
        return out

    def _exec_insert(self, tx: Transaction, stmt: sch.Insert):
        schema = self.catalog.table(stmt.table)
        pk = stmt.values[schema.primary_key]
        allow_concurrent = schema.concurrent_inserts
        assignments = [
            sch.DeltaAssign(col.name, stmt.values[col.name])
            if col.modifier is sch.Modifier.ADDITIVE
            else sch.SetAssign(col.name, stmt.values[col.name])
            for col in schema.columns
        ]

        wants = self._write_wants(schema, pk, assignments)
        if not allow_concurrent:
            wants.append((row_lock(stmt.table, pk), Mode.EXCLUSIVE))
        self._acquire(tx, wants)

        # With the insert lock held, validation reads the freshest state the
        # lock handover shipped in; otherwise the snapshot rules.
        ctx = self.live_ctx(tx) if not allow_concurrent else self.snap_ctx(tx)
        view = ctx.view(stmt.table, pk)
        verdict = is_visible(ctx, stmt.table, pk) if view is not None else None
        if verdict is not None and verdict.visible:
            if not allow_concurrent:
                raise DuplicateKey(f"{stmt.table} already holds key {render_scalar(pk)}")
            generation = view.generation()  # merge with the live row
        elif view is None:
            generation = 1
        else:
            dead = _own_flags_dead(schema.row_policy, view.flags())
            # Re-insert over a deleted key starts a fresh generation.
            generation = view.generation() + 1 if dead is not None else view.generation()

        write = self._buffer_assignments(tx, schema, pk, view, assignments)
        write.flag = ("I", view.visibility_versions() if view is not None else {})
        write.generation = generation
        return None

    def _exec_update(self, tx: Transaction, stmt: sch.Update):
        schema = self.catalog.table(stmt.table)
        snap = self.snap_ctx(tx)
        matched = self._match_rows(snap, schema, stmt.where)
        if not matched:
            raise RowNotFound(f"no visible {stmt.table} row matches")

        noc_row = schema.row_policy is sch.Policy.NO_CONCURRENCY
        wants: list[tuple[str, Mode]] = []
        for pk in matched:
            if noc_row:
                wants.append((row_lock(stmt.table, pk), Mode.SHARED))
            wants.extend(self._write_wants(schema, pk, stmt.assignments))
        self._acquire(tx, wants)

        if noc_row:
            live = self.live_ctx(tx)
            for pk in matched:
                if not is_visible(live, stmt.table, pk).visible:
                    raise RowNotFound(
                        f"{stmt.table} key {render_scalar(pk)} was deleted under the lock"
                    )

        for pk in matched:
            view = snap.view(stmt.table, pk)
            write = self._buffer_assignments(tx, schema, pk, view, stmt.assignments)
            if write.flag is None:
                write.flag = ("I", view.visibility_versions())
            elif write.flag[0] == "T":
                write.flag = ("I", write.flag[1])
        return None

    def _exec_delete(self, tx: Transaction, stmt: sch.Delete):
        schema = self.catalog.table(stmt.table)
        snap = self.snap_ctx(tx)
        matched = self._match_rows(snap, schema, stmt.where)
        if not matched:
            raise RowNotFound(f"no visible {stmt.table} row matches")

        doomed: set[RowKey] = {(stmt.table, pk) for pk in matched}
        live = self.live_ctx(tx)
        while True:
            self._cascade_closure(snap, live, doomed, locked=False)
            wants: list[tuple[str, Mode]] = []
            for table, pk in doomed:
                if self.catalog.delete_locks_row(table):
                    wants.append((row_lock(table, pk), Mode.EXCLUSIVE))
            self._acquire(tx, wants)
            before = len(doomed)
            self._cascade_closure(snap, live, doomed, locked=True)
            if len(doomed) == before:
                break

        # Restrict: a visible child that is not itself being deleted blocks us.
        for table, pk in sorted(doomed, key=lambda rk: (rk[0], render_scalar(rk[1]))):
            for child_table, colname, fk in self.catalog.referencing(table):
                ctx = live if fk.policy is sch.Policy.NO_CONCURRENCY else snap
                for cpk in self._children(ctx, child_table, colname, pk):
                    if (child_table, cpk) not in doomed and not fk.cascade:
                        raise FkRestrict(
                            f"{table} key {render_scalar(pk)} still referenced by {child_table}"
                        )

        if schema.row_policy is sch.Policy.NO_CONCURRENCY:
            for pk in matched:
                if not is_visible(live, stmt.table, pk).visible:
                    raise RowNotFound(
                        f"{stmt.table} key {render_scalar(pk)} vanished under the lock"
                    )

        # _fold_row replaces a NO_CONCURRENCY row's observed versions with
        # the live row's, so the snapshot serves every row here.
        for table, pk in sorted(doomed, key=lambda rk: (rk[0], render_scalar(rk[1]))):
            view = snap.view(table, pk)
            write = tx.write((table, pk))
            write.flag = ("D", view.visibility_versions() if view is not None else {})
        return None

    def _cascade_closure(self, snap, live, doomed: set[RowKey], locked: bool) -> None:
        changed = True
        while changed:
            changed = False
            for table, pk in list(doomed):
                for child_table, colname, fk in self.catalog.referencing(table):
                    if not fk.cascade:
                        continue
                    use_live = locked and fk.policy is sch.Policy.NO_CONCURRENCY
                    ctx = live if use_live else snap
                    for cpk in self._children(ctx, child_table, colname, pk):
                        if (child_table, cpk) not in doomed:
                            doomed.add((child_table, cpk))
                            changed = True

    def _children(self, ctx: ViewContext, child_table: str, colname: str, parent_pk: Scalar) -> list[Scalar]:
        """Visible rows of child_table whose colname holds parent_pk, in key
        order. Candidates come from the reverse index and the transaction's
        own writes; each is re-checked in ctx, visibility last."""
        candidates = set(self.store.children.get((child_table, colname, parent_pk), ()))
        candidates.update(pk for t, pk in ctx.buffer if t == child_table)
        out = []
        for cpk in sorted(candidates, key=render_scalar):
            view = ctx.view(child_table, cpk)
            if view is not None and parent_pk in view.scalars(colname) and is_visible(ctx, child_table, cpk).visible:
                out.append(cpk)
        return out

    def _exec_select(self, tx: Transaction, stmt: sch.Select):
        schema = self.catalog.table(stmt.table)
        ctx = self.snap_ctx(tx)
        names = stmt.columns if stmt.columns is not None else [c.name for c in schema.columns]
        rows = []
        for pk in self._match_rows(ctx, schema, stmt.where):
            view = ctx.view(stmt.table, pk)
            out = {}
            for name in names:
                values = view.scalars(name)
                out[name] = values[0] if len(values) == 1 else tuple(values)
            rows.append(out)
        return rows

    # -- shared helpers -------------------------------------------------------

    @staticmethod
    def _write_wants(
        schema: sch.TableSchema, pk: Scalar, assignments: Iterable[sch.SetAssign | sch.DeltaAssign]
    ) -> list[tuple[str, Mode]]:
        """Locks a write of assignments to row pk takes: each unannotated
        non-key column exclusively, and a lock-guarded parent shared."""
        wants: list[tuple[str, Mode]] = []
        for a in assignments:
            col = schema.column(a.column)
            if col.modifier is sch.Modifier.NONE and not col.is_primary_key:
                wants.append((column_lock(schema.name, pk, a.column), Mode.EXCLUSIVE))
            fk = col.foreign_key
            if isinstance(a, sch.SetAssign) and fk is not None and fk.policy is sch.Policy.NO_CONCURRENCY:
                wants.append((row_lock(fk.table, a.value), Mode.SHARED))
        return wants

    def _buffer_assignments(
        self,
        tx: Transaction,
        schema: sch.TableSchema,
        pk: Scalar,
        view: RowView | None,
        assignments: Iterable[sch.SetAssign | sch.DeltaAssign],
    ) -> RowWrite:
        """Enforce each assignment's constraints, in order, and buffer it. A
        delta reserves bounded-counter rights; an absolute value must pass
        its checks and, for a foreign key, the parent check, whose reference
        is buffered beside the value. The first failure raises."""
        rowkey = (schema.name, pk)
        write = tx.write(rowkey)
        for a in assignments:
            col = schema.column(a.column)
            if isinstance(a, sch.DeltaAssign):
                bound = sch.additive_bound(col)
                if bound is not None:
                    self._reserve_bounded(tx, rowkey, a.column, bound, a.delta)
                write.deltas[a.column] = write.deltas.get(a.column, 0) + a.delta
                continue
            atoms = col.check_atoms
            if atoms and not check_eval(atoms, a.value):
                raise CheckViolation(f"{schema.name}.{a.column} = {a.value!r} fails its check")
            if col.foreign_key is not None:
                ref = self._check_fk_parent(tx, schema.name, a.column, col.foreign_key, a.value)
                _buffer_set(write, view, col, ref_cell(a.column), ref)
            _buffer_set(write, view, col, a.column, a.value)
        return write

    def _check_fk_parent(
        self, tx: Transaction, table: str, column: str, fk: sch.ForeignKey, ppk: Scalar
    ) -> tuple[Scalar, int]:
        """Require the referenced parent to be visible; return the reference
        to record, the parent's key and generation. An update-wins edge also
        touches the parent and its ancestors."""
        ctx = self.live_ctx(tx) if fk.policy is sch.Policy.NO_CONCURRENCY else self.snap_ctx(tx)
        parent = ctx.view(fk.table, ppk)
        if parent is None or not is_visible(ctx, fk.table, ppk).visible:
            raise FkParentMissing(
                f"{table}.{column} references missing {fk.table} key {render_scalar(ppk)}"
            )
        ref = (ppk, parent.generation())
        if fk.policy is sch.Policy.UPDATE_WINS:
            self._buffer_touches(tx, self._touch_targets(ctx, fk.table, ppk))
        return ref

    def _touch_targets(self, ctx: ViewContext, table: str, pk: Scalar) -> list[RowKey]:
        """The parent and, through update-wins edges, its ancestors.

        Touching the whole chain keeps every row this insert depends on alive
        against concurrent deletes.
        """
        targets: list[RowKey] = []
        seen: set[RowKey] = set()
        stack: list[RowKey] = [(table, pk)]
        while stack:
            t, p = stack.pop()
            if (t, p) in seen:
                continue
            seen.add((t, p))
            targets.append((t, p))
            view = ctx.view(t, p)
            schema = self.catalog.tables.get(t)
            if view is None or schema is None:
                continue
            for colname, fk in schema.foreign_keys:
                if fk.policy is sch.Policy.UPDATE_WINS:
                    for ppk, _ in view.fk_refs(colname):
                        stack.append((fk.table, ppk))
        return targets

    def _buffer_touches(self, tx: Transaction, targets: list[RowKey]) -> None:
        snap = self.snap_ctx(tx)
        for table, pk in targets:
            write = tx.write((table, pk))
            if write.flag is not None:
                continue  # the transaction already inserted or deleted it
            view = snap.view(table, pk)
            write.flag = ("T", view.visibility_versions() if view is not None else {})

    def _reserve_bounded(self, tx: Transaction, rowkey: RowKey, column: str, bound: Bound, delta: int) -> None:
        """Claim rights at statement time so commits cannot overdraw."""
        prior = tx.buffer.get(rowkey).deltas.get(column, 0) if rowkey in tx.buffer else 0
        net = prior + delta
        row = self.store.row(*rowkey)
        cell = row.cells.get(column) if row is not None else None
        if not isinstance(cell, BoundedCounter):
            # Creating the counter: the initial value itself must sit in bound.
            if not bound.admits(net):
                raise CheckViolation(
                    f"{rowkey[0]}.{column} initial value {net} violates {bound.canon()}"
                )
            return
        units = cell.consumption_units(net)
        key = (rowkey, column)
        others = sum(t.reserved.get(key, 0) for t in self.active.values() if t is not tx)
        free = cell.free(self.rid) - others
        if units > free:
            if not self.hooks.request_rights(self.rid, rowkey[0], rowkey[1], column, units - free):
                raise CheckViolation(
                    f"{rowkey[0]}.{column} lacks rights for {net:+d} (bound {bound.canon()})",
                    retryable=True,
                )
            row = self.store.row(*rowkey)
            cell = row.cells.get(column)
            free = cell.free(self.rid) - others
            if units > free:
                raise CheckViolation(
                    f"{rowkey[0]}.{column} lacks rights for {net:+d} after transfer",
                    retryable=True,
                )
        if units > 0:
            tx.reserved[key] = units
        else:
            tx.reserved.pop(key, None)

    def _fold_row(self, rowkey: RowKey, write: RowWrite, lam: int) -> RowDelta:
        table, pk = rowkey
        schema = self.catalog.tables.get(table)
        live = self.store.row(table, pk)
        stamp = EventStamp(lam, self.rid)

        cells: dict[str, MergeValue] = {}
        for name in sorted(write.sets):
            value, observed = write.sets[name]
            if observed is None:
                cells[name] = LwwRegister(value, stamp)
            else:
                cells[name] = MvRegister().assign(value, observed, self.rid, lam)
        for colname in sorted(write.deltas):
            delta = write.deltas[colname]
            col = schema.column(colname)
            bound = sch.additive_bound(col)
            live_cell = live.cells.get(colname) if live is not None else None
            if bound is None:
                base = live_cell if isinstance(live_cell, AdditiveCounter) else AdditiveCounter()
                cells[colname] = base.add(self.rid, delta).slice_for(self.rid)
            elif isinstance(live_cell, BoundedCounter):
                try:
                    cells[colname] = live_cell.apply_delta(self.rid, delta).slice_for(self.rid)
                except InsufficientRights as err:
                    raise CheckViolation(str(err), retryable=True) from err
            else:
                try:
                    cells[colname] = BoundedCounter.create(bound, delta, self.replica_ids, self.rid)
                except ValueError as err:
                    raise CheckViolation(str(err)) from err

        visibility = None
        if write.flag is not None:
            flag, observed = write.flag
            if (
                schema is not None
                and schema.row_policy is sch.Policy.NO_CONCURRENCY
                and live is not None
            ):
                # Lock-guarded rows fold against the freshest committed state.
                observed = live.visibility.max_versions()
            visibility = MvRegister().assign(flag, observed, self.rid, lam)

        return RowDelta(table, pk, cells, visibility, write.generation)


# --------------------------------------------------------------------------
# whole-store checks and rendering

def dump_table(store: Store, catalog: sch.Catalog, table: str) -> list[str]:
    """Visible rows, one line each, columns in schema order, sorted by key."""
    ctx = ViewContext(store, catalog)
    schema = catalog.table(table)
    lines = []
    for _, view in visible_rows(ctx, table):
        parts = []
        for col in schema.columns:
            values = view.scalars(col.name)
            if len(values) == 1:
                parts.append(render_scalar(values[0]))
            elif not values:
                parts.append("")
            else:
                parts.append("{" + "|".join(sorted(render_scalar(v) for v in values)) + "}")
        lines.append(",".join(parts))
    return lines


def dump_all(store: Store, catalog: sch.Catalog) -> dict[str, list[str]]:
    return {t: dump_table(store, catalog, t) for t in sorted(catalog.tables)}


def render_dump(dumps: dict[str, list[str]]) -> str:
    out = []
    for table, lines in dumps.items():
        out.append(f"== {table} ==")
        out.extend(lines)
    return "\n".join(out)


def integrity_violations(store: Store, catalog: sch.Catalog) -> list[str]:
    """Every visible child must point at a visible parent of the recorded
    generation. is_visible already demands that on every edge kind before it
    calls a child visible, so on a correct engine this finds nothing: it
    guards is_visible against regressions by re-deriving each edge."""
    ctx = ViewContext(store, catalog)
    out = []
    for table in sorted(catalog.tables):
        schema = catalog.table(table)
        if not schema.foreign_keys:
            continue
        for pk, view in visible_rows(ctx, table):
            for colname, fk in schema.foreign_keys:
                for ppk, pgen in view.fk_refs(colname):
                    parent = ctx.view(fk.table, ppk)
                    if parent is None:
                        out.append(f"{table}/{render_scalar(pk)}: parent {fk.table}/{render_scalar(ppk)} missing")
                    elif not is_visible(ctx, fk.table, ppk).visible:
                        out.append(f"{table}/{render_scalar(pk)}: parent {fk.table}/{render_scalar(ppk)} not visible")
                    elif fk.policy is sch.Policy.DELETE_WINS and parent.generation() != pgen:
                        out.append(
                            f"{table}/{render_scalar(pk)}: parent {fk.table}/{render_scalar(ppk)} reinserted"
                        )
    return out


def constraint_violations(store: Store, catalog: sch.Catalog) -> list[str]:
    """Check constraints must hold on every visible row of every snapshot."""
    ctx = ViewContext(store, catalog)
    out = []
    for table in sorted(catalog.tables):
        checked = [(col.name, col.check_atoms) for col in catalog.table(table).columns if col.check_atoms]
        if not checked:
            continue
        for pk, view in visible_rows(ctx, table):
            for name, atoms in checked:
                for value in view.scalars(name):
                    if not check_eval(atoms, value):
                        out.append(f"{table}/{render_scalar(pk)}.{name} = {value!r} violates its check")
    return out
