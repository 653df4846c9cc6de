"""Per-replica relational state and statement execution.

Rows are bundles of mergeable cells plus a visibility register and an
insertion generation counter. A foreign key column's cell holds its reference:
the parent's key and the generation of the parent the writer saw. Statements
run inside a transaction: they validate against the transaction's snapshot,
grab whatever locks the schema's concurrency annotations demand, and buffer
effects that the commit fold turns into stamped mergeable states.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

from . import schema as sch
from .crdt import (
    AdditiveCounter, Bound, BoundedCounter, MergeValue, Mv, Scalar, merge, mv_assign, mv_max_versions, mv_merge,
    mv_values, render_scalar,
)
from .errors import (
    AqlError,
    CheckViolation,
    DuplicateKey,
    FkParentMissing,
    FkRestrict,
    InsufficientRights,
    RowNotFound,
    ValidationError,
)
from .txn import (
    CausalClock,
    ClusterHooks,
    CommitRecord,
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


def _rowkey_order(rowkey: RowKey) -> tuple[str, str]:
    """Sort key giving row keys one deterministic order."""
    return rowkey[0], render_scalar(rowkey[1])


@dataclass(frozen=True, slots=True)
class Row:
    """A stored row, immutable down to its cells dict: a change stores a new
    Row, so the old one stays readable as a pre-image and replicas share rows.
    Its registers, the I/D/T flag register too, and a cells dict holding no
    counter are plain objects the garbage collector stops tracking (see crdt).
    A cell holds the state its column's kind in the catalog gives it."""

    cells: dict[str, MergeValue] = field(default_factory=dict)
    visibility: Mv = ()
    generation: int = 0


_NO_ROW = Row()  # what a fold builds over, or a delta merges into, when no row is stored
_NO_MV = _NO_ROW.visibility  # what a fold writes a multi-value cell over when none is stored


class Store:
    """All rows of one replica, keyed by table then primary key, and a
    reverse foreign key index (child table, fk column, parent pk) -> child
    pks, each a dict of pk -> None: an insertion-ordered set that, unlike a
    set, the garbage collector stops tracking. Entries are never removed:
    readers re-check every candidate. When an auditor gives the store a
    change set, changed, Replica._apply_delta, the only place a row is
    stored, adds each stored row's key to it, for the auditor to re-judge
    and clear: an empty set means an unchanged store since the auditor last
    cleared it. A store nothing audits carries none."""

    def __init__(self):
        self.tables: dict[str, dict[Scalar, Row]] = {}
        self.children: dict[tuple[str, str, Scalar], dict[Scalar, None]] = {}
        self.changed: set[RowKey] | None = None

    def row(self, table: str, pk: Scalar) -> Row | None:
        rows = self.tables.get(table)
        return rows.get(pk) if rows is not None else None

    def cell(self, table: str, pk: Scalar, column: str) -> MergeValue | None:
        row = self.row(table, pk)
        return row.cells.get(column) if row is not None else None

    def pks(self, table: str) -> list[Scalar]:
        return list(self.tables.get(table, ()))


class Cause(Enum):
    """The verdict of is_visible: why a row is visible or not. Its visible
    attribute is true for ALL_CLEAR only."""

    ALL_CLEAR = "all_clear"
    ONLY_D = "only_d"
    ANY_D = "any_d"
    MISSING = "missing"
    PARENT_DELETED = "parent_deleted"
    PARENT_VERSION_STALE = "parent_version_stale"

    def __init__(self, value: str):
        self.visible = value == "all_clear"


# Hot paths read these names: a global reads faster than a class attribute.
_ALL_CLEAR, _ONLY_D, _ANY_D, _MISSING, _PARENT_DELETED, _PARENT_VERSION_STALE = Cause
_ACTIVE, _COMMITTED, _ABORTED = TxStatus
_SHARED, _EXCLUSIVE = Mode
_UPDATE_WINS, _DELETE_WINS = sch.Policy.UPDATE_WINS, sch.Policy.DELETE_WINS
_LWW, _MV, _UNBOUNDED, _BOUNDED = sch.Kind
_SEQ_KINDS = {SEQ_COLUMN: (_LWW, None, None)}  # the schema-less sequence table's one column


@dataclass(slots=True)
class RowView:
    """A row as one transaction sees it: stored state plus buffered writes.
    A column is read by its kind, which the caller takes from the schema."""

    row: Row | None
    write: RowWrite | None = None

    def generation(self) -> int:
        if self.write is not None and self.write.generation is not None:
            return self.write.generation
        return self.row.generation if self.row is not None else 0

    def scalars(self, column: str, kind: tuple) -> tuple:
        """Current value(s) of a column, given its TableSchema.kinds entry;
        several for concurrent MV writes, in render order. A foreign key
        column gives its parent keys."""
        values = self.fk_refs(column, kind[0])
        if kind[2] is None or not values:
            return values
        if len(values) == 1:
            return (values[0][0],)
        return tuple(sorted([ref[0] for ref in values], key=render_scalar))

    def fk_refs(self, column: str, kind: sch.Kind) -> tuple:
        """The column's value(s) as stored, read as its kind says: for a
        foreign key column, its references (parent key, parent generation)."""
        write = self.write
        cell = self.row.cells.get(column) if self.row is not None else None
        if write is not None:
            if column in write.sets:
                return (write.sets[column][0],)
            if column in write.deltas:  # over the stored counter, if any
                return ((cell.value() if cell is not None else 0) + write.deltas[column],)
        if cell is None:
            return ()
        if kind is _LWW:
            return (cell[0],)
        return tuple(mv_values(cell)) if kind is _MV else (cell.value(),)

    def visibility_versions(self) -> dict[str, int]:
        return mv_max_versions(self.row.visibility) if self.row is not None else {}

    def cell_versions(self, column: str) -> dict[str, int]:
        """The versions a MULTI_VALUE column's register holds."""
        return mv_max_versions(self.row.cells.get(column, _NO_MV)) if self.row is not None else {}


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
        if row is None and write is None:
            return None
        return RowView(row, write)

    def pks(self, table: str) -> list[Scalar]:
        out = self.store.pks(table)
        if self.saved:
            absent = {pk for (t, pk), row in self.saved.items() if t == table and row is None}
            out = [pk for pk in out if pk not in absent]
        if self.buffer:  # dumps and audits have none: no merged key set to build
            out = set(out)
            out.update(pk for t, pk in self.buffer if t == table)
        return sorted(out, key=render_scalar)


def is_visible(ctx: ViewContext, table: str, view: RowView | None) -> Cause:
    """The Cause that judges view, a row of table as ctx.view gave it (None
    for a missing row): ALL_CLEAR if it is visible, else why not. Own flags
    (buffered, else stored) per row policy, then every recorded parent, in
    render order, must itself be visible; delete-wins references also pin
    the parent's insertion generation. A foreign key always references an
    earlier table (schema._validate_schema), so the recursion ends."""
    if view is None:
        return _MISSING
    schema = ctx.catalog.tables[table]
    if view.write is not None and view.write.flag is not None:
        flags = (view.write.flag,)  # one (flag, observed) entry
    elif view.row is None or not view.row.visibility:
        return _MISSING
    else:
        flags = view.row.visibility
    if schema.row_policy is _UPDATE_WINS:
        for flag, _ in flags:
            if flag != "D":  # a concurrent touch or insert outweighs the delete
                break
        else:
            return _ONLY_D
    else:
        for flag, _ in flags:
            if flag == "D":
                return _ANY_D
    for colname, kind, fk in schema.foreign_keys:
        for ppk, pgen in view.fk_refs(colname, kind):
            parent = ctx.view(fk.table, ppk)
            if parent is None or not is_visible(ctx, fk.table, parent).visible:
                return _PARENT_DELETED
            if fk.policy is _DELETE_WINS and parent.generation() != pgen:
                return _PARENT_VERSION_STALE
    return _ALL_CLEAR


def visible_rows(ctx: ViewContext, table: str) -> list[tuple[Scalar, RowView]]:
    """Every visible row of table as (pk, view), in key order, with the view
    each verdict judged. The one table scan: statements, cascades, dumps and
    audits all read rows through it. It builds a list, not a generator: the
    per-event audit scans mostly empty tables, where setting up a generator
    costs more than the scan."""
    out = []
    for pk in ctx.pks(table):
        view = ctx.view(table, pk)
        if is_visible(ctx, table, view).visible:
            out.append((pk, view))
    return out


_COMPARISONS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def compare(left: Scalar, op: str, right: Scalar) -> bool:
    """left op right, op one of schema.COMPARISON_OPS and both of the one
    column's datatype, as parsing ensures."""
    return _COMPARISONS[op](left, right)


def check_eval(atoms: Iterable[sch.CheckAtom], value: Scalar) -> bool:
    """A conjunction of single-column comparisons against one value."""
    return all(compare(value, atom.op, atom.value) for atom in atoms)


class Replica:
    """One logical data center: a store, a clock, and active transactions.
    hooks, required, is the cluster that ships it bounded-counter rights."""

    def __init__(self, rid: str, catalog: sch.Catalog, replica_ids, lock_manager, hooks: ClusterHooks):
        self.rid = rid
        self.catalog = catalog
        self.replica_ids = sorted(replica_ids)
        self.locks = lock_manager
        self.hooks = hooks
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

    def execute(self, tx: Transaction, statement: str, params=()):
        """Run one statement, given as text. Each `?` in it takes one of
        params (qmark style); see schema.parse_statement. Only text is
        accepted: parsing types every key and literal, which execution
        trusts."""
        if tx.status is not _ACTIVE:
            raise ValidationError(f"transaction {tx.txid} is {tx.status.value}")
        try:
            if not isinstance(statement, str):
                raise ValidationError(f"a statement is given as text, not {type(statement).__name__}")
            statement = sch.parse_statement(statement, self.catalog, params)
            if isinstance(statement, sch.Insert):
                return self._exec_insert(tx, statement)
            if isinstance(statement, sch.Update):
                return self._exec_update(tx, statement)
            if isinstance(statement, sch.Delete):
                return self._exec_delete(tx, statement)
            return self._exec_select(tx, statement)
        except AqlError:
            self.abort(tx)
            raise

    def commit(self, tx: Transaction) -> CommitRecord | None:
        """Commit tx: fold each buffered row write into a stamped delta,
        apply them here, and return the record that ships them. A
        transaction that wrote nothing commits here alone: it returns None,
        and neither the Lamport counter nor the clock moves, so a clock
        counts writing commits and a record exists per writing transaction."""
        if tx.status is not _ACTIVE:
            raise ValidationError(f"transaction {tx.txid} is {tx.status.value}")
        buffer = tx.buffer
        if not buffer:
            self._settle(tx, _COMMITTED)
            return None
        try:
            lam = self.lamport + 1
            keys = sorted(buffer, key=_rowkey_order) if len(buffer) > 1 else buffer
            deltas = [self._fold_row(rowkey, buffer[rowkey], lam) for rowkey in keys]
        except AqlError:
            self.abort(tx)
            raise
        record = self._seal(tx.txid, lam, deltas)
        self._settle(tx, _COMMITTED)
        return record

    def _seal(self, txid: str, lam: int, deltas: list[RowDelta]) -> CommitRecord:
        """Apply a local commit's deltas and stamp the record that ships them."""
        self.lamport = lam
        for delta in deltas:
            self._apply_delta(delta, committing=txid)
        self.clock.tick(self.rid)
        return CommitRecord(
            origin=self.rid,
            txid=txid,
            clock=self.clock.copy(),
            lamport=lam,
            deltas=deltas,
        )

    def abort(self, tx: Transaction) -> None:
        """Abort tx if still active. The refusal is the caller's to keep: a
        traceback kept on tx would pin every frame in a reference cycle."""
        if tx.status is not _ACTIVE:
            return
        self._settle(tx, _ABORTED)

    def _settle(self, tx: Transaction, status: TxStatus) -> None:
        tx.status = status
        self.locks.release_all(tx)
        self.active.pop(tx.txid, None)

    # -- replication ----------------------------------------------------------

    def deliver(self, record: CommitRecord) -> bool:
        """Merge a remote commit if CausalClock.ready holds for it and say
        whether it merged. A record that is not ready, whether it waits on a
        commit not merged yet or was merged already, changes nothing."""
        if not self.clock.ready(record):
            return False
        for delta in record.deltas:
            self._apply_delta(delta)
        self.clock.tick(record.origin)
        if record.lamport > self.lamport:
            self.lamport = record.lamport
        return True

    def _apply_delta(self, delta: RowDelta, committing: str | None = None) -> None:
        """Store the row one row's delta leaves here: the only place rows
        change. Each open transaction but the committing one first keeps the
        replaced row as its pre-image. A replica whose row is the delta's
        base, or equal to it, stores result: the origin holds the base, and
        the equal case lets replicas share rows again after a concurrent
        write has left each its own merged copy. Any other row is at or
        above base, by causal delivery (CausalClock.ready), so it merges the
        states the commit wrote, those of result that are not base's own
        objects: cells through merge, which perfbench counts, and the flag
        register through mv_merge. It keeps the larger generation;
        Store.children learns the references those written cells hold. The
        row's key joins the store's change set, if an auditor gave it one."""
        store = self.store
        key = (delta.table, delta.pk)
        if store.changed is not None:
            store.changed.add(key)
        rows = store.tables.get(delta.table)
        if rows is None:
            rows = store.tables[delta.table] = {}
        row = rows.get(delta.pk)
        for tx in self.active.values():
            if tx.txid != committing and key not in tx.saved:
                tx.saved[key] = row
        base, result = delta.base or _NO_ROW, delta.result
        if row is delta.base or row == delta.base:
            rows[delta.pk] = result
        else:
            old = row if row is not None else _NO_ROW
            cells = dict(old.cells)
            for col, state in result.cells.items():
                if state is not base.cells.get(col):  # written by the commit
                    cur = cells.get(col)
                    cells[col] = state if cur is None else merge(cur, state)
            visibility = old.visibility
            if result.visibility is not base.visibility:
                visibility = mv_merge(visibility, result.visibility)
            rows[delta.pk] = Row(cells, visibility, max(old.generation, result.generation))
        schema = self.catalog.tables.get(delta.table)  # None for sequences
        if schema is not None:
            for col, kind, _ in schema.foreign_keys:
                state = result.cells.get(col)
                if state is not None and state is not base.cells.get(col):
                    refs = (state[0],) if kind is _LWW else [e[0] for e in state]
                    for ppk, _ in refs:
                        kids = store.children.get((delta.table, col, ppk))
                        if kids is None:
                            store.children[(delta.table, col, ppk)] = {delta.pk: None}
                        else:
                            kids[delta.pk] = None

    # -- contexts -------------------------------------------------------------

    def snap_ctx(self, tx: Transaction) -> ViewContext:
        return ViewContext(self.store, self.catalog, tx.buffer, tx.saved)

    def live_ctx(self, tx: Transaction) -> ViewContext:
        return ViewContext(self.store, self.catalog, tx.buffer)

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
        self._acquire(tx, [(sequence_lock(name), _EXCLUSIVE)])
        rowkey = (SEQ_TABLE, name)
        view = RowView(self.store.row(SEQ_TABLE, name), tx.buffer.get(rowkey))
        value = (view.scalars(SEQ_COLUMN, _SEQ_KINDS[SEQ_COLUMN]) or (0,))[0] + 1
        tx.write(rowkey).sets[SEQ_COLUMN] = (value, None)
        return value

    # -- rights movement ------------------------------------------------------

    def donatable(self, table: str, pk: Scalar, column: str) -> int:
        """The rights of a BOUNDED column's counter free here to give away."""
        cell = self.store.cell(table, pk, column)
        if cell is None:
            return 0
        key = ((table, pk), column)
        return cell.free(self.rid) - sum(tx.reserved.get(key, 0) for tx in self.active.values())

    def transfer_rights(self, table: str, pk: Scalar, column: str, dst: str, amount: int) -> CommitRecord:
        """Ship bounded-counter rights to dst as a standalone system commit."""
        row = self.store.row(table, pk)
        cell = row.cells.get(column) if row is not None else None
        if cell is None:
            raise InsufficientRights(f"{table}.{column} holds no bounded counter here")
        moved = cell.transfer(self.rid, dst, amount)  # the one state this commit writes
        delta = RowDelta(table, pk, row, Row({**row.cells, column: moved}, row.visibility, row.generation))
        self.txn_counter += 1
        return self._seal(f"{self.rid}-rights{self.txn_counter}", self.lamport + 1, [delta])

    # -- statement execution --------------------------------------------------

    def _acquire(self, tx: Transaction, wants: list[tuple[str, Mode]]) -> None:
        if not wants:
            return
        strongest: dict[str, Mode] = {}
        for lock_id, mode in wants:
            if mode is _EXCLUSIVE or lock_id not in strongest:
                strongest[lock_id] = mode
        for lock_id in sorted(strongest):
            self.locks.acquire(tx, lock_id, strongest[lock_id])

    def _match_rows(
        self, ctx: ViewContext, schema: sch.TableSchema, where: sch.Where | None
    ) -> list[tuple[Scalar, RowView]]:
        """Visible rows of schema's table that where admits, as (pk, view) in
        key order like visible_rows: the statement reads and writes these
        views and looks no matched row up again. A pk lookup judges the one
        row its key (typed at parse) finds; a scan, visibility then where."""
        if where is not None and where.is_pk_lookup(schema):
            view = ctx.view(schema.name, where.value)
            hit = view is not None and is_visible(ctx, schema.name, view).visible
            return [(where.value, view)] if hit else []
        rows = visible_rows(ctx, schema.name)
        if where is None:
            return rows
        return [
            (pk, view) for pk, view in rows
            if any(compare(v, where.op, where.value) for v in view.scalars(where.column, schema.kinds[where.column]))
        ]

    def _exec_insert(self, tx: Transaction, stmt: sch.Insert):
        schema = self.catalog.table(stmt.table)
        plan = self.catalog.coordination[stmt.table]
        pk, locked = stmt.pk, plan.insert_locked
        self._acquire(tx, self._lock_wants(plan, [pk], _EXCLUSIVE if locked else None, stmt.assignments))

        # With the insert lock held, validation reads the freshest state the
        # lock handover shipped in; otherwise the snapshot rules.
        ctx = self.live_ctx(tx) if locked else self.snap_ctx(tx)
        view = ctx.view(stmt.table, pk)
        verdict = is_visible(ctx, stmt.table, view) if view is not None else None
        if verdict is None:
            generation = 1
        elif verdict.visible:
            if locked:
                raise DuplicateKey(f"{stmt.table} already holds key {render_scalar(pk)}")
            generation = view.generation()  # merge with the live row
        elif verdict in (_PARENT_DELETED, _PARENT_VERSION_STALE):
            generation = view.generation()  # its own flags are live: the same row
        else:
            generation = view.generation() + 1  # re-insert over a deleted key

        write = self._buffer_assignments(tx, schema, plan, pk, view, stmt.assignments)
        write.flag = ("I", view.visibility_versions() if view is not None else {})
        write.generation = generation
        return None

    def _exec_update(self, tx: Transaction, stmt: sch.Update):
        schema = self.catalog.table(stmt.table)
        plan = self.catalog.coordination[stmt.table]
        snap = self.snap_ctx(tx)
        matched = self._match_rows(snap, schema, stmt.where)
        if not matched:
            raise RowNotFound(f"no visible {stmt.table} row matches")

        pks = [pk for pk, _ in matched]
        row_mode = _SHARED if plan.row_guarded else None
        self._acquire(tx, self._lock_wants(plan, pks, row_mode, stmt.assignments))
        if plan.row_guarded:
            self._require_live(self.live_ctx(tx), stmt.table, pks, "was deleted")

        # A commit delivered under _acquire saves the replaced row to tx.saved
        # first, so each matched view still shows the snapshot's row.
        for pk, view in matched:
            write = self._buffer_assignments(tx, schema, plan, pk, view, stmt.assignments)
            if write.flag is None:
                write.flag = ("I", view.visibility_versions())
            elif write.flag[0] == "T":
                write.flag = ("I", write.flag[1])
        return None

    def _exec_delete(self, tx: Transaction, stmt: sch.Delete):
        """Delete the matched rows and every row their cascades reach, walked
        wave by wave from the matched rows: lock the wave's rows whose table
        a delete locks, then follow each cascade edge of each row once, an
        edge in locked_parents live under the parent lock just taken, any
        other in the snapshot. The rows reached form the next wave. A visible
        child on a restrict edge refuses the delete; else each doomed row is
        flagged D over the view that judged it (live, if reached live), and
        no row is looked up again."""
        schema = self.catalog.table(stmt.table)
        snap = self.snap_ctx(tx)
        matched = self._match_rows(snap, schema, stmt.where)
        if not matched:
            raise RowNotFound(f"no visible {stmt.table} row matches")

        plans = self.catalog.coordination
        live = self.live_ctx(tx)
        doomed: dict[RowKey, RowView] = {(stmt.table, pk): view for pk, view in matched}
        wave = list(doomed)
        while wave:
            self._acquire(tx, [(row_lock(t, pk), _EXCLUSIVE) for t, pk in wave if plans[t].delete_locked])
            reached = []
            for table, pk in wave:
                for child_table, colname, fk in self.catalog.referencing(table):
                    if fk.cascade:
                        ctx = live if colname in plans[child_table].locked_parents else snap
                        for cpk, view in self._children(ctx, child_table, colname, pk):
                            if (child_table, cpk) not in doomed:
                                doomed[(child_table, cpk)] = view
                                reached.append((child_table, cpk))
            wave = reached

        for table, pk in sorted(doomed, key=_rowkey_order):
            for child_table, colname, fk in self.catalog.referencing(table):
                if not fk.cascade:
                    ctx = live if colname in plans[child_table].locked_parents else snap
                    children = self._children(ctx, child_table, colname, pk)
                    if any((child_table, cpk) not in doomed for cpk, _ in children):
                        raise FkRestrict(f"{table} key {render_scalar(pk)} still referenced by {child_table}")

        if plans[stmt.table].row_guarded:
            self._require_live(live, stmt.table, [pk for pk, _ in matched], "vanished")
        for rowkey, view in doomed.items():
            tx.write(rowkey).flag = ("D", view.visibility_versions())
        return None

    def _children(
        self, ctx: ViewContext, child_table: str, colname: str, parent_pk: Scalar
    ) -> Iterator[tuple[Scalar, RowView]]:
        """Yield the visible rows of child_table whose colname holds
        parent_pk, as (pk, view) in key order like visible_rows, so that a
        restrict check stops at its first offending child. Candidates come
        from the reverse index and the transaction's own writes; each is
        re-checked in ctx, visibility last."""
        candidates = set(self.store.children.get((child_table, colname, parent_pk), ()))
        candidates.update(pk for t, pk in ctx.buffer if t == child_table)
        kind = self.catalog.tables[child_table].kinds[colname]
        for cpk in sorted(candidates, key=render_scalar):
            view = ctx.view(child_table, cpk)
            if view is not None and parent_pk in view.scalars(colname, kind) and is_visible(ctx, child_table, view).visible:
                yield cpk, view

    def _exec_select(self, tx: Transaction, stmt: sch.Select):
        schema = self.catalog.table(stmt.table)
        ctx = self.snap_ctx(tx)
        names = stmt.columns if stmt.columns is not None else schema.column_names
        kinds, rows = schema.kinds, []
        for _, view in self._match_rows(ctx, schema, stmt.where):
            out = {}
            for name in names:
                values = view.scalars(name, kinds[name])
                out[name] = values[0] if len(values) == 1 else tuple(values)
            rows.append(out)
        return rows

    # -- shared helpers -------------------------------------------------------

    @staticmethod
    def _lock_wants(plan: sch.Coordination, pks: list, row_mode: Mode | None, assignments=()) -> list:
        """The locks plan prescribes for writing assignments to rows pks: the
        row lock in row_mode, if any, then per assignment its column lock and
        its parent's row lock (a foreign key column only takes a SetAssign)."""
        wants = []
        for pk in pks:
            if row_mode is not None:
                wants.append((row_lock(plan.table, pk), row_mode))
            for a in assignments:
                if a.column in plan.locked_columns:
                    wants.append((column_lock(plan.table, pk, a.column), _EXCLUSIVE))
                parent = plan.locked_parents.get(a.column)
                if parent is not None:
                    wants.append((row_lock(parent, a.value), _SHARED))
        return wants

    @staticmethod
    def _require_live(live: ViewContext, table: str, pks: list[Scalar], fate: str) -> None:
        """A guarded row must still be visible once its lock is held."""
        for pk in pks:
            if not is_visible(live, table, live.view(table, pk)).visible:
                raise RowNotFound(f"{table} key {render_scalar(pk)} {fate} under the lock")

    def _buffer_assignments(
        self,
        tx: Transaction,
        schema: sch.TableSchema,
        plan: sch.Coordination,
        pk: Scalar,
        view: RowView | None,
        assignments: Iterable[sch.SetAssign | sch.DeltaAssign],
    ) -> RowWrite:
        """Enforce each assignment's constraints, in order, and buffer it. A
        delta reserves bounded-counter rights; an absolute value must pass
        its checks and, for a foreign key, the parent check, whose reference
        is buffered in its place. The first failure raises."""
        rowkey = (schema.name, pk)
        write = tx.write(rowkey)
        for a in assignments:
            kind, bound, fk = schema.kinds[a.column]
            if isinstance(a, sch.DeltaAssign):
                net = write.deltas.get(a.column, 0) + a.delta
                if bound is not None:
                    self._reserve_bounded(tx, rowkey, a.column, bound, net)
                write.deltas[a.column] = net
                continue
            atoms = schema.column(a.column).check_atoms
            if atoms and not check_eval(atoms, a.value):
                raise CheckViolation(f"{schema.name}.{a.column} = {a.value!r} fails its check")
            value = a.value
            if fk is not None:
                value = self._check_fk_parent(tx, schema.name, a.column, fk, a.value, a.column in plan.locked_parents)
            observed = None
            if kind is _MV:
                observed = view.cell_versions(a.column) if view is not None else {}
            write.sets[a.column] = (value, observed)
        return write

    def _check_fk_parent(
        self, tx: Transaction, table: str, column: str, fk: sch.ForeignKey, ppk: Scalar, live: bool
    ) -> tuple[Scalar, int]:
        """Require the referenced parent to be visible (live, if so); return
        the reference to record, the parent's key and generation. An
        update-wins edge also touches the parent and its ancestors."""
        ctx = self.live_ctx(tx) if live else self.snap_ctx(tx)
        parent = ctx.view(fk.table, ppk)
        if parent is None or not is_visible(ctx, fk.table, parent).visible:
            raise FkParentMissing(
                f"{table}.{column} references missing {fk.table} key {render_scalar(ppk)}"
            )
        if fk.policy is _UPDATE_WINS:
            self._touch_chain(tx, ctx, fk.table, ppk, parent)
        return ppk, parent.generation()

    def _touch_chain(self, tx: Transaction, ctx: ViewContext, table: str, pk: Scalar, view: RowView) -> None:
        """Flag T on a parent row, whose view the caller holds, and through
        update-wins edges on its ancestors, each looked up once; a row the
        transaction inserted or deleted keeps its flag. Touching the chain
        keeps every row this write depends on alive against concurrent
        deletes. ctx, the snapshot (an update-wins edge is never locked), shows
        the visible parent's ancestors; a touch sets no cells, so flagging a
        row first leaves the references the walk follows unchanged."""
        seen: set[RowKey] = set()
        stack: list[tuple[str, Scalar, RowView | None]] = [(table, pk, view)]
        while stack:
            t, p, view = stack.pop()
            if (t, p) in seen:
                continue
            seen.add((t, p))
            if view is None:  # an ancestor, looked up once reached
                view = ctx.view(t, p)
            write = tx.write((t, p))
            if write.flag is None:
                write.flag = ("T", view.visibility_versions())
            for colname, kind, fk in self.catalog.tables[t].foreign_keys:
                if fk.policy is _UPDATE_WINS:
                    stack.extend((fk.table, ppk, None) for ppk, _ in view.fk_refs(colname, kind))

    def _reserve_bounded(self, tx: Transaction, rowkey: RowKey, column: str, bound: Bound, net: int) -> None:
        """Claim rights for the transaction's net delta on a bounded column
        at statement time, so commits cannot overdraw. A rights request that
        returns true has made the rights free here."""
        cell = self.store.cell(*rowkey, column)
        if cell is None:
            # Creating the counter: the initial value itself must sit in bound.
            if not bound.admits(net):
                raise CheckViolation(
                    f"{rowkey[0]}.{column} initial value {net} violates {bound.canon()}"
                )
            return
        units = cell.consumption_units(net)
        key = (rowkey, column)
        free = self.donatable(*rowkey, column) + tx.reserved.get(key, 0)
        if units > free:
            if not self.hooks.request_rights(self.rid, rowkey[0], rowkey[1], column, units - free):
                raise CheckViolation(
                    f"{rowkey[0]}.{column} lacks rights for {net:+d} (bound {bound.canon()})",
                    retryable=True,
                )
        if units > 0:
            tx.reserved[key] = units
        else:
            tx.reserved.pop(key, None)

    def _fold_row(self, rowkey: RowKey, write: RowWrite, lam: int) -> RowDelta:
        """The delta one row's buffered write ships: the live row as base,
        and as result the row built over it. Each written cell, and the
        flag register when a flag is written, is a new state that inflates
        the live one: the stamp (lam, rid) tops every stamp held here, a
        counter step grows only this replica's entries, and a multi-value
        write is one mv_assign, a new tuple. Every other cell is the live
        row's own object, which is how a merging receiver tells them apart."""
        table, pk = rowkey
        schema = self.catalog.tables.get(table)
        kinds = schema.kinds if schema is not None else _SEQ_KINDS
        live = self.store.row(table, pk)
        old = live if live is not None else _NO_ROW
        stamp = (lam, self.rid)

        cells = dict(old.cells)
        sets, deltas = write.sets.items(), write.deltas.items()
        for name, (value, observed) in sorted(sets) if len(sets) > 1 else sets:
            if kinds[name][0] is _MV:
                cells[name] = mv_assign(cells.get(name, _NO_MV), value, observed, self.rid, lam)
            else:
                cells[name] = (value, stamp)
        for colname, delta in sorted(deltas) if len(deltas) > 1 else deltas:
            kind, bound, _ = kinds[colname]
            live_cell = old.cells.get(colname)
            if kind is _UNBOUNDED:
                state = (live_cell if live_cell is not None else AdditiveCounter()).add(self.rid, delta)
            elif live_cell is not None:
                try:
                    state = live_cell.apply_delta(self.rid, delta)
                except InsufficientRights as err:
                    raise CheckViolation(str(err), retryable=True) from err
            else:
                try:
                    state = BoundedCounter.create(bound, delta, self.replica_ids, self.rid)
                except ValueError as err:
                    raise CheckViolation(str(err)) from err
            cells[colname] = state

        flags = old.visibility
        if write.flag is not None:
            flag, observed = write.flag
            if live is not None and self.catalog.coordination[table].row_guarded:
                # Lock-guarded rows fold against the freshest committed state.
                observed = mv_max_versions(live.visibility)
            flags = mv_assign(flags, flag, observed, self.rid, lam)

        return RowDelta(table, pk, live, Row(cells, flags, max(old.generation, write.generation or 0)))


# --------------------------------------------------------------------------
# whole-store checks and rendering

def dump_table(store: Store, catalog: sch.Catalog, table: str) -> list[str]:
    """Visible rows, one line each, columns in schema order, sorted by key."""
    ctx = ViewContext(store, catalog)
    schema = catalog.table(table)
    lines = []
    for _, view in visible_rows(ctx, table):
        parts = []
        for name, kind in schema.kinds.items():
            values = view.scalars(name, kind)
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


def _edge_findings(ctx: ViewContext, schema: sch.TableSchema, pk: Scalar, view: RowView) -> list[str]:
    """The integrity rule for one visible row: each parent its foreign keys
    record is stored, visible and, over a delete-wins edge, of the recorded
    generation."""
    out = []
    for colname, kind, fk in schema.foreign_keys:
        for ppk, pgen in view.fk_refs(colname, kind):
            parent = ctx.view(fk.table, ppk)
            if parent is None:
                problem = "missing"
            elif not is_visible(ctx, fk.table, parent).visible:
                problem = "not visible"
            elif fk.policy is _DELETE_WINS and parent.generation() != pgen:
                problem = "reinserted"
            else:
                continue
            out.append(f"{schema.name}/{render_scalar(pk)}: parent {fk.table}/{render_scalar(ppk)} {problem}")
    return out


def _check_findings(schema: sch.TableSchema, pk: Scalar, view: RowView) -> list[str]:
    """The CHECK rule for one visible row: every value of a checked column
    passes its check."""
    return [
        f"{schema.name}/{render_scalar(pk)}.{name} = {value!r} violates its check"
        for name, atoms in schema.checked_columns
        for value in view.scalars(name, schema.kinds[name])
        if not check_eval(atoms, value)
    ]


def integrity_violations(store: Store, catalog: sch.Catalog) -> list[str]:
    """Every visible child must point at a visible parent of the recorded
    generation. is_visible already demands that on every edge kind before it
    calls a child visible, so on a correct engine this finds nothing: it
    guards is_visible against regressions by re-deriving each edge."""
    ctx = ViewContext(store, catalog)
    out = []
    for table in sorted(catalog.tables):
        schema = catalog.tables[table]
        if schema.foreign_keys:
            for pk, view in visible_rows(ctx, table):
                out += _edge_findings(ctx, schema, pk, view)
    return out


def constraint_violations(store: Store, catalog: sch.Catalog) -> list[str]:
    """Check constraints must hold on every visible row of every snapshot."""
    ctx = ViewContext(store, catalog)
    out = []
    for table in sorted(catalog.tables):
        schema = catalog.tables[table]
        if schema.checked_columns:
            for pk, view in visible_rows(ctx, table):
                out += _check_findings(schema, pk, view)
    return out


def rejudge(
    store: Store, catalog: sch.Catalog, keys: Iterable[RowKey], found: dict[RowKey, tuple[list[str], list[str]]]
) -> tuple[list[str], list[str]]:
    """Bring found, a store's findings by row key, up to date once the rows
    in keys have changed, and return every finding as integrity_violations
    and constraint_violations would list them. A row's findings read only
    the row and its foreign key ancestors, so the rows re-judged are keys
    and every row below one of them, reached through Store.children, whose
    candidates are a superset of the real children. found holds a row only
    while it has a finding, as (integrity findings, check findings)."""
    tables, children = catalog.tables, store.children
    ctx = ViewContext(store, catalog)
    todo = list(keys)
    seen = set(todo)
    while todo:
        key = todo.pop()
        table, pk = key
        schema = tables.get(table)
        if schema is None:  # a sequence
            continue
        for child, col, _ in catalog.referencing(table):
            for cpk in children.get((child, col, pk), ()):
                below = (child, cpk)
                if below not in seen:
                    seen.add(below)
                    todo.append(below)
        if not (schema.foreign_keys or schema.checked_columns):  # no rule to break
            continue
        view = ctx.view(table, pk)
        if view is not None and is_visible(ctx, table, view).visible:
            edges = _edge_findings(ctx, schema, pk, view)
            checks = _check_findings(schema, pk, view)
            if edges or checks:
                found[key] = (edges, checks)
                continue
        found.pop(key, None)
    if not found:
        return [], []
    order = sorted(found, key=_rowkey_order)
    return [p for key in order for p in found[key][0]], [p for key in order for p in found[key][1]]
