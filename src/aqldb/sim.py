"""Deterministic multi-replica simulation.

A Cluster wires several replicas to one lock coordinator and a set of
reliable but arbitrarily delayed channels. Everything is driven from a
single thread, so runs are reproducible: scripted scenarios and a seeded
fuzzer both build on the same event runner.
"""

from __future__ import annotations

import functools
import random
import re
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

from . import schema as sch
from .crdt import AdditiveCounter, BoundedCounter, canon, render_scalar
# integrity_violations and constraint_violations, the full audit, stay
# importable here: perfbench calls and times them through this module.
from .engine import (
    Replica,
    Store,
    ViewContext,
    constraint_violations,
    dump_all,
    dump_table,
    integrity_violations,
    is_visible,
    rejudge,
)
from .errors import AqlError, ScenarioError
from .txn import CommitRecord, LockManager, TxStatus


class Cluster:
    """Replicas, channels and partitions under one deterministic roof. A
    commit record waits in the queue of each destination, across partitions,
    until that destination merges it; no copy is kept once all have."""

    def __init__(self, catalog: sch.Catalog, replica_ids):
        self.catalog = catalog
        self.replica_ids = sorted(replica_ids)
        self.locks = LockManager(self.replica_ids, hooks=self)
        self.replicas = {
            rid: Replica(rid, catalog, self.replica_ids, self.locks, hooks=self)
            for rid in self.replica_ids
        }
        self.queues: dict[str, list[CommitRecord]] = {rid: [] for rid in self.replica_ids}
        self.heal()  # groups: rid -> its partition group
        self.deliveries = 0

    # ---- hooks the engine and lock manager call back into

    def reachable(self, a: str, b: str) -> bool:
        return a == b or self.groups[a] == self.groups[b]

    def catch_up(self, rid: str, sources) -> bool:
        """Deliver to rid until it has seen everything sources committed. The
        lock manager, the only caller, passes sources other than rid that rid
        can reach, having refused any it could not. Once rid has caught up to
        a source, a record that source seals next is causally ready at rid."""
        self.pump(rid)
        clock = self.replicas[rid].clock
        return all(clock.dominates(self.replicas[s].clock) for s in sources)

    def request_rights(self, rid: str, table: str, pk, column: str, needed: int) -> bool:
        """Move needed bounded-counter rights to rid, all or nothing, as a
        lock grant moves ownership. Only reachable donors that rid can catch
        up to offer, so each transfer is ready at rid once shipped. If their
        offers together cannot cover needed, nothing moves; otherwise the
        richest ship first and rid merges the transfers, so true means the
        rights are free at rid. One pump catches rid up as far as it can get
        (see pump), and it changes no donor, so each donor's clock and rights
        are read once, after it."""
        donors = [d for d in self.replica_ids if d != rid and self.reachable(rid, d)]
        if donors:
            self.pump(rid)
        clock = self.replicas[rid].clock
        offers = sorted(
            ((self.replicas[d].donatable(table, pk, column), d)
             for d in donors if clock.dominates(self.replicas[d].clock)),
            key=lambda offer: (-offer[0], offer[1]),
        )
        if sum(available for available, _ in offers) < needed:
            return False
        remaining = needed
        for available, donor in offers:  # the richest cover needed before an empty one
            if remaining <= 0:
                break
            amount = min(available, remaining)
            self._broadcast(self.replicas[donor].transfer_rights(table, pk, column, rid, amount))
            remaining -= amount
        self.pump(rid)
        return True

    # ---- cluster operations

    def replica(self, rid: str) -> Replica:
        if rid not in self.replicas:
            raise ScenarioError(f"unknown replica {rid}")
        return self.replicas[rid]

    def commit(self, tx) -> CommitRecord | None:
        record = self.replicas[tx.origin].commit(tx)
        if record is not None:  # a read-only commit ships nothing
            self._broadcast(record)
        return record

    def _broadcast(self, record: CommitRecord) -> None:
        for dst in self.replica_ids:
            if dst != record.origin:
                self.queues[dst].append(record)

    def pump(self, rid: str) -> int:
        """Deliver every queued record rid can causally accept now, in one pass.
        One pass is enough: queues hold records in broadcast order, which is
        causal, as a commit is broadcast after every commit its origin had seen.
        So each predecessor of a queued record is delivered already or comes
        earlier in this pass, and a record left behind waits, itself or through
        a predecessor, on an origin rid cannot reach. A ready record is never
        one rid has, so has is asked only of the rest: those rid has go."""
        rep = self.replica(rid)
        delivered = 0
        keep = []
        for record in self.queues[rid]:
            if self.reachable(rid, record.origin) and rep.clock.ready(record):
                rep.deliver(record)
                delivered += 1
            elif not rep.clock.has(record):
                keep.append(record)
        self.queues[rid] = keep
        self.deliveries += delivered
        return delivered

    def deliver_all(self) -> int:
        return sum(map(self.pump, self.replica_ids))

    def partition(self, groups: list[list[str]]) -> None:
        mapping: dict[str, int] = {}
        for index, group in enumerate(groups):
            for rid in group:
                if rid not in self.replicas:
                    raise ScenarioError(f"unknown replica {rid} in partition")
                if rid in mapping:
                    raise ScenarioError(f"replica {rid} listed in two partition groups")
                mapping[rid] = index
        extra = len(groups)
        for rid in self.replica_ids:
            if rid not in mapping:
                mapping[rid] = extra
                extra += 1
        self.groups = mapping

    def heal(self) -> None:
        self.groups: dict[str, int] = {rid: 0 for rid in self.replica_ids}

    def quiesce(self) -> None:
        self.heal()
        self.deliver_all()

    def dumps(self, rid: str) -> dict[str, list[str]]:
        return dump_all(self.replica(rid).store, self.catalog)

    def converged(self) -> bool:
        """Every replica's rows equal the others', compared by value: the
        same tables, keys, cell states, flags and generations. Only
        Store.tables counts; the children index and the change set are local.
        This equals comparing store_canon texts, which render exactly those
        rows: no state keeps a zero entry that canon would drop, and columns
        are typed, so True and 1 never share a cell. Dict equality stops at
        the first difference, and rows and cell states that replicas share
        by identity compare at once: a replica holding the row a record's
        commit fold read, or an equal one, stores the Row the fold built
        itself."""
        first, *rest = (rep.store.tables for rep in self.replicas.values())
        return all(tables == first for tables in rest)

    def divergence(self) -> str:
        """Where the replicas differ, when converged() is False: the first
        row, in store_canon order, that differs between the first replica
        and another one. Replica._apply_delta, the only place a table is
        added, stores a row in it, so unequal stores differ in some row."""
        base_rid, *others = self.replica_ids
        base = self.replicas[base_rid].store.tables
        found = []
        for rid in others:
            tables = self.replicas[rid].store.tables
            for table in base.keys() | tables.keys():
                mine, theirs = base.get(table, {}), tables.get(table, {})
                found += [
                    (table, render_scalar(pk), rid)
                    for pk in mine.keys() | theirs.keys()
                    if mine.get(pk) != theirs.get(pk)
                ]
        table, pk, rid = min(found)
        return f"replica states differ at {table}/{pk} ({base_rid} vs {rid})"


def store_canon(store: Store) -> str:
    """Canonical text of a whole store, independent of insertion order."""
    lines = []
    for table in sorted(store.tables):
        for pk in sorted(store.tables[table], key=render_scalar):
            row = store.tables[table][pk]
            parts = [f"{table}/{render_scalar(pk)}"]
            for col in sorted(row.cells):
                parts.append(f"{col}={canon(row.cells[col])}")
            parts.append(f"vis={canon(row.visibility)}")
            parts.append(f"gen={row.generation}")
            lines.append(" ".join(parts))
    return "\n".join(lines)


# --------------------------------------------------------------------------
# events and the shared runner

VALID_FLAGS = {"I", "D", "T"}


@dataclass(slots=True)
class Event:
    kind: str
    args: dict
    line: int = 0

    def render(self) -> str:
        kind, a = self.kind, self.args
        expect = f" expect {a['expect']}" if a.get("expect") else ""
        if kind == "begin":
            return f"begin {a['txid']} @{a['rid']}"
        if kind == "stmt":
            return f"stmt {a['txid']}{expect}: {a['sql']}"
        if kind in ("commit", "abort"):
            return f"{kind} {a['txid']}{expect}"
        if kind == "deliver":
            return "deliver_all" if a.get("rid") is None else f"deliver @{a['rid']}"
        if kind == "partition":
            return "partition " + " | ".join(map(" ".join, a["groups"]))
        if kind == "heal":
            return "heal"
        if kind == "txblock":
            head = f"tx {a['txid']} @{a['rid']}{expect} {{"
            return "\n".join([head] + [f"  {s}" for s in a["stmts"]] + ["}"])
        if kind == "assert_table":
            head = f"assert table @{a['rid']} {a['table']} {{"
            return "\n".join([head] + [f"  {line}" for line in a["lines"]] + ["}"])
        if kind == "assert_visible":
            word = "visible" if a["expected"] else "invisible"
            return f"assert {word} @{a['rid']} {a['table']} {sch._literal_ddl(a['pk'])}"
        if kind == "assert_flags":
            flags = ",".join(sorted(a["flags"]))
            return f"assert flags @{a['rid']} {a['table']} {sch._literal_ddl(a['pk'])} {{{flags}}}"
        if kind == "assert_outcome":
            return f"assert outcome {a['txid']} {a['outcome']}"
        if kind == "assert_converged":
            return "assert converged"
        raise ScenarioError(f"cannot render event kind {kind}")


@dataclass(slots=True)
class Scenario:
    name: str
    replicas: list[str]
    schema_text: str
    events: list[Event]

    def catalog(self) -> sch.Catalog:
        return sch.parse_schema_text(self.schema_text)


@dataclass(slots=True)
class Report:
    name: str
    steps: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    commits: int = 0
    aborts: int = 0
    deliveries: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def step(self, line: int, action: str, ok: bool, detail: str = "") -> None:
        self.steps.append({"line": line, "action": action, "ok": ok, "detail": detail})
        if not ok:
            where = f"line {line}: " if line else ""
            self.failures.append(f"{where}{action}: {detail}" if detail else f"{where}{action}")

    def render(self) -> str:
        lines = [f"{self.name}: {'PASS' if self.ok else 'FAIL'}"]
        for s in self.steps:
            mark = "ok  " if s["ok"] else "FAIL"
            text = f"  {mark} line {s['line']:>3}  {s['action']}"
            if s["detail"] and not s["ok"]:
                text += f"  [{s['detail']}]"
            lines.append(text)
        lines.append(
            f"  commits={self.commits} aborts={self.aborts} deliveries={self.deliveries}"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {**asdict(self), "ok": self.ok}


class Runner:
    """Applies events to a cluster and audits invariants after each one. Its
    txs, each transaction it began by txid, is the run's one history: an
    outcome, and the counter ledger checked at finish, are read off it."""

    def __init__(
        self,
        catalog: sch.Catalog,
        replica_ids,
        name: str = "run",
        lenient: bool = False,
    ):
        self.cluster = Cluster(catalog, replica_ids)
        self.catalog = catalog
        self.txs: dict[str, object] = {}
        # txid -> the kind of the AqlError that refused it
        self.refusals: dict[str, str] = {}
        self.report = Report(name)
        self.lenient = lenient
        self.handlers = _event_handlers(type(self))
        # rid -> its findings by row key, as engine.rejudge keeps them. Each
        # store's change set holds the keys of the rows stored since.
        self.found = {rid: {} for rid in self.cluster.replica_ids}  # an empty store has no finding
        # Every findings dict and change set: while all are empty, no row needs judging.
        self.audited = list(self.found.values())
        for rep in self.cluster.replicas.values():
            rep.store.changed = set()
            self.audited.append(rep.store.changed)
        # (lock table version, [problem]) of the last lock safety audit; a
        # new lock table is at version 0 and holds no lock, so no problem
        self.lock_audit: tuple[int, list[str]] = (0, [])

    # ---- event dispatch

    def apply(self, event: Event) -> None:
        handler = self.handlers.get(event.kind)
        if handler is None:
            raise ScenarioError(f"line {event.line}: unknown event kind {event.kind}")
        handler(self, event)
        self._audit(event)

    def run(self, events) -> Report:
        for event in events:
            self.apply(event)
        self.report.deliveries = self.cluster.deliveries
        return self.report

    def _tx(self, event: Event):
        """The event's transaction; an unknown one raises, or is None when lenient."""
        tx = self.txs.get(event.args["txid"])
        if tx is None and not self.lenient:
            raise ScenarioError(f"line {event.line}: unknown transaction {event.args['txid']}")
        return tx

    def _active_tx(self, event: Event):
        """The event's transaction if active; else raise, or None when lenient."""
        tx = self.txs.get(event.args["txid"])
        if tx is not None and tx.status is TxStatus.ACTIVE:
            return tx
        if self._tx(event) is not None and not self.lenient:
            raise ScenarioError(f"line {event.line}: transaction not active")

    def _begin(self, event: Event):
        """Begin the event's transaction at its replica and return it. A used
        txid raises, or, when lenient, begins nothing and returns None."""
        txid = event.args["txid"]
        if txid in self.txs:
            if self.lenient:
                return None
            raise ScenarioError(f"line {event.line}: transaction {txid} already exists")
        tx = self.txs[txid] = self.cluster.replica(event.args["rid"]).begin(txid)
        return tx

    def _ev_begin(self, event: Event) -> None:
        tx = self._begin(event)
        if tx is not None:
            self.report.step(event.line, f"begin {tx.txid} @{tx.origin}", True)

    def _ev_stmt(self, event: Event) -> None:
        tx = self._active_tx(event)
        if tx is not None:
            sql = event.args["sql"]
            ok, detail = self._outcome(tx, event.args.get("expect"), self.cluster.replicas[tx.origin].execute, tx, sql)
            self.report.step(event.line, f"stmt {tx.txid}: {sql}", ok or self.lenient, detail)

    def _ev_commit(self, event: Event) -> None:
        tx = self._active_tx(event)
        if tx is not None:
            ok, detail = self._outcome(tx, event.args.get("expect"), self._commit, tx)
            self.report.step(event.line, f"commit {tx.txid}", ok or self.lenient, detail)

    def _ev_abort(self, event: Event) -> None:
        tx = self._tx(event)
        if tx is None:
            return
        if tx.status is TxStatus.ACTIVE:
            self.cluster.replicas[tx.origin].abort(tx)
            self.report.aborts += 1
        self.report.step(event.line, f"abort {tx.txid}", True)

    def _commit(self, tx) -> None:
        self.cluster.commit(tx)
        self.report.commits += 1

    def _ev_txblock(self, event: Event) -> None:
        tx = self._begin(event)
        if tx is None:
            return

        def run_block() -> None:
            for sql in event.args["stmts"]:
                self.cluster.replicas[tx.origin].execute(tx, sql)
            self._commit(tx)

        ok, detail = self._outcome(tx, event.args.get("expect"), run_block)
        self.report.step(event.line, f"tx {tx.txid} @{tx.origin}", ok, detail)

    def _ev_deliver(self, event: Event) -> None:
        rid = event.args.get("rid")
        n = self.cluster.deliver_all() if rid is None else self.cluster.pump(rid)
        self.report.step(event.line, "deliver_all" if rid is None else f"deliver @{rid}", True, f"{n} records")

    def _ev_partition(self, event: Event) -> None:
        self.cluster.partition(event.args["groups"])
        self.report.step(event.line, event.render(), True)

    def _ev_heal(self, event: Event) -> None:
        self.cluster.heal()
        self.report.step(event.line, "heal", True)

    def _ev_assert_table(self, event: Event) -> None:
        rid, table = event.args["rid"], event.args["table"]
        want = list(event.args["lines"])
        got = dump_table(self.cluster.replica(rid).store, self.catalog, table)
        ok = got == want
        detail = "" if ok else f"want {want!r}, got {got!r}"
        self.report.step(event.line, f"assert table @{rid} {table}", ok, detail)

    def _ev_assert_visible(self, event: Event) -> None:
        rid, table, pk = event.args["rid"], event.args["table"], event.args["pk"]
        expected = event.args["expected"]
        ctx = ViewContext(self.cluster.replica(rid).store, self.catalog)
        verdict = is_visible(ctx, table, ctx.view(table, pk))
        ok = verdict.visible == expected
        detail = "" if ok else (
            f"want visible={expected}, got {verdict.visible} ({verdict.value})"
        )
        word = "visible" if expected else "invisible"
        self.report.step(
            event.line, f"assert {word} @{rid} {table} {render_scalar(pk)}", ok, detail
        )

    def _ev_assert_flags(self, event: Event) -> None:
        rid, table, pk = event.args["rid"], event.args["table"], event.args["pk"]
        want = set(event.args["flags"])
        row = self.cluster.replica(rid).store.row(table, pk)
        got = {flag for flag, _ in row.visibility} if row is not None else set()
        ok = got == want
        detail = "" if ok else f"want {sorted(want)}, got {sorted(got)}"
        self.report.step(
            event.line, f"assert flags @{rid} {table} {render_scalar(pk)}", ok, detail
        )

    def _ev_assert_outcome(self, event: Event) -> None:
        txid, want = event.args["txid"], event.args["outcome"]
        got = self.outcome(txid)
        ok = got == want
        detail = "" if ok else f"want {want}, got {got}"
        self.report.step(event.line, f"assert outcome {txid}", ok, detail)

    def _ev_assert_converged(self, event: Event) -> None:
        ok = self.cluster.converged()
        detail = ""
        if not ok:
            dumps = {rid: self.cluster.dumps(rid) for rid in self.cluster.replica_ids}
            detail = f"{self.cluster.divergence()}: {dumps!r}"
        self.report.step(event.line, "assert converged", ok, detail)

    def outcome(self, txid: str) -> str:
        """The kind of the refusal that ended txid, else its status."""
        if txid in self.refusals:
            return self.refusals[txid]
        tx = self.txs.get(txid)
        return tx.status.value if tx is not None else "unknown transaction"

    def _outcome(self, tx, expect: str | None, action, *args) -> tuple[bool, str]:
        """Call action(*args) on transaction tx; record what it raised as the
        transaction's refusal and compare it against the expected kind."""
        try:
            action(*args)
        except AqlError as err:
            self.refusals[tx.txid] = err.kind
            self.report.aborts += 1
            if expect is None:
                return False, f"unexpected {err.kind}: {err}"
            if err.kind != expect:
                return False, f"expected {expect}, got {err.kind}: {err}"
            return True, ""
        if expect is not None:
            return False, f"expected {expect}, nothing raised"
        return True, ""

    # ---- invariants

    def _audit(self, event: Event) -> None:
        """Report lock safety, and the integrity and check findings of every
        replica. Those are a function of the lock table, or of the store and
        the fixed catalog, so lock safety is re-derived only when the lock
        table's version moved, and at each replica engine.rejudge re-judges
        only the rows in its store's change set and the rows below them. A
        replica that stored no row and has no finding is skipped, and so is
        the loop when no replica stored a row or has a finding."""
        locks, line = self.cluster.locks, event.line
        if locks.version != self.lock_audit[0]:
            self.lock_audit = (locks.version, locks.safety_violations())
        for problem in self.lock_audit[1]:
            self.report.step(line, "lock safety", False, problem)
        if not any(self.audited):
            return
        for rid, rep in self.cluster.replicas.items():
            changed, found = rep.store.changed, self.found[rid]
            if changed or found:
                integrity, checks = rejudge(rep.store, self.catalog, changed, found)
                changed.clear()
                for problem in integrity:
                    self.report.step(line, f"integrity at {rid}", False, problem)
                for problem in checks:
                    self.report.step(line, f"constraints at {rid}", False, problem)

    def finish(self) -> Report:
        """Abort leftovers, heal, deliver everything, check convergence."""
        for tx in self.txs.values():
            if tx.status is TxStatus.ACTIVE:
                self.cluster.replicas[tx.origin].abort(tx)
        self.cluster.quiesce()
        self._audit(Event("heal", {}, 0))
        if not self.cluster.converged():
            self.report.step(0, "convergence after quiesce", False, self.cluster.divergence())
        for rid, queue in self.cluster.queues.items():  # pump dropped each record rid has
            if queue:
                self.report.step(0, "eventual delivery", False, f"{len(queue)} records still queued for {rid}")
        self._check_ledger()
        self.report.deliveries = self.cluster.deliveries
        return self.report

    def _check_ledger(self) -> None:
        """Each additive cell must equal, at every replica, the sum of the
        deltas the committed transactions buffered for it."""
        ledger: dict[tuple, int] = {}
        for tx in self.txs.values():
            if tx.status is TxStatus.COMMITTED:
                for (table, pk), write in tx.buffer.items():
                    schema = self.catalog.tables.get(table)
                    for col, delta in write.deltas.items():
                        if schema is not None and schema.column(col).modifier is sch.Modifier.ADDITIVE:
                            ledger[(table, pk, col)] = ledger.get((table, pk, col), 0) + delta
        for (table, pk, col), expected in sorted(ledger.items()):
            for rid in self.cluster.replica_ids:
                cell = self.cluster.replica(rid).store.cell(table, pk, col)
                if not isinstance(cell, AdditiveCounter):
                    self.report.step(
                        0, "counter ledger", False,
                        f"{table}/{render_scalar(pk)}.{col} missing at {rid}",
                    )
                    continue
                if cell.value() != expected:
                    self.report.step(
                        0, "counter ledger", False,
                        f"{table}/{render_scalar(pk)}.{col} at {rid}: "
                        f"value {cell.value()}, committed deltas sum to {expected}",
                    )
                if isinstance(cell, BoundedCounter):
                    spread = sum(cell.rights(r) for r in self.cluster.replica_ids)
                    if spread != cell.total_rights():
                        self.report.step(
                            0, "rights conservation", False,
                            f"{table}/{render_scalar(pk)}.{col} at {rid}: "
                            f"rights spread {spread} != total {cell.total_rights()}",
                        )


@functools.cache
def _event_handlers(cls: type) -> dict[str, Callable[[Runner, Event], None]]:
    """Each event kind a Runner class handles, mapped to its _ev_<kind>
    method: apply's dispatch table, built once per class so that a
    subclass's overrides are dispatched."""
    return {name[len("_ev_"):]: getattr(cls, name) for name in dir(cls) if name.startswith("_ev_")}


# --------------------------------------------------------------------------
# scenario scripts

_EXPECT = r"(?:\s+expect\s+(?P<expect>\w+))?"
_AT = r"\s+@(?P<rid>\S+)"
_KEY = _AT + r"\s+(?P<table>\S+)\s+(?P<pk>.+?)"


def _flags(text: str) -> list[str]:
    flags = [f.strip() for f in text.split(",") if f.strip()]
    bad = [f for f in flags if f not in VALID_FLAGS]
    if bad:
        raise ScenarioError(f"unknown flags {bad}")
    return flags


def _groups(text: str) -> list[list[str]]:
    groups = [g.split() for g in text.split("|") if g.split()]
    if len(groups) < 2:
        raise ScenarioError("partition needs at least two groups separated by |")
    return groups


# Captured fields that are not kept as written.
_CONVERT = {"pk": sch.parse_literal, "flags": _flags, "groups": _groups}

# The one-line directives, by head word(s): event kind, full-line pattern,
# usage, and the args every event of the form carries. Keywords match in any
# case; identifiers keep the case they are written in.
_FORMS = {
    head: (kind, re.compile(pattern, re.IGNORECASE), usage, fixed)
    for head, kind, pattern, usage, fixed in (
        ("begin", "begin", r"begin\s+(?P<txid>\S+)" + _AT, "begin <txid> @<replica>", {}),
        ("stmt", "stmt", r"stmt\s+(?P<txid>[^\s:]+)" + _EXPECT + r"\s*:\s*(?P<sql>.+?);*",
         "stmt <txid> [expect <ErrorKind>]: <statement>", {}),
        ("commit", "commit", r"commit\s+(?P<txid>\S+)" + _EXPECT, "commit <txid> [expect <ErrorKind>]", {}),
        ("abort", "abort", r"abort\s+(?P<txid>\S+)", "abort <txid>", {"expect": None}),
        ("deliver_all", "deliver", r"deliver_all", "deliver_all", {"rid": None}),
        ("deliver", "deliver", r"deliver" + _AT, "deliver @<replica>", {}),
        ("partition", "partition", r"partition\s+(?P<groups>.+)", "partition <replicas> | <replicas> ...", {}),
        ("heal", "heal", r"heal", "heal", {}),
        ("assert converged", "assert_converged", r"assert\s+converged", "assert converged", {}),
        ("assert visible", "assert_visible", r"assert\s+visible" + _KEY,
         "assert visible @<replica> <table> <key>", {"expected": True}),
        ("assert invisible", "assert_visible", r"assert\s+invisible" + _KEY,
         "assert invisible @<replica> <table> <key>", {"expected": False}),
        ("assert flags", "assert_flags", r"assert\s+flags" + _KEY + r"\s*\{(?P<flags>[^{}]*)\}",
         "assert flags @<replica> <table> <key> {I,D}", {}),
        ("assert outcome", "assert_outcome", r"assert\s+outcome\s+(?P<txid>\S+)\s+(?P<outcome>\S+)",
         "assert outcome <txid> <committed|aborted|ErrorKind>", {}),
    )
}
_TX = re.compile(r"tx\s+(?P<txid>[^\s{]+)\s+@(?P<rid>[^\s{]+)" + _EXPECT + r"\s*\{(?P<body>.*)", re.IGNORECASE)


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    lines = text.splitlines()
    replicas: list[str] | None = None
    schema_text: str | None = None
    events: list[Event] = []
    i = 0

    def fail(line_no: int, message: str):
        raise ScenarioError(f"{name} line {line_no}: {message}")

    def block(start: int, what: str, comments: bool = True) -> tuple[list[str], int]:
        """Collect raw lines until a lone closing brace.

        comments=False keeps lines verbatim; expected-dump rows may
        legitimately contain a # character.
        """
        body = []
        for j in range(start, len(lines)):
            candidate = _strip_comment(lines[j]) if comments else lines[j]
            if candidate.strip() == "}":
                return body, j + 1
            body.append(candidate)
        fail(start, f"unterminated {what} block")

    def directive(line_no: int, head: str, line: str) -> Event:
        kind, pattern, usage, fixed = _FORMS[head]
        match = pattern.fullmatch(line)
        if match is None:
            fail(line_no, f"usage: {usage}")
        args = dict(fixed)
        for key, value in match.groupdict().items():
            try:
                args[key] = _CONVERT[key](value) if key in _CONVERT else value
            except AqlError as err:
                fail(line_no, f"bad {key} {value!r}: {err}")
        return Event(kind, args, line_no)

    while i < len(lines):
        line_no = i + 1
        stripped = _strip_comment(lines[i]).strip()
        i += 1
        if not stripped:
            continue
        words = stripped.split()
        head = words[0].lower()
        if head == "assert" and len(words) > 1:
            head = f"assert {words[1].lower()}"

        if head == "replicas":
            if len(words) < 2:
                fail(line_no, "replicas needs at least one id")
            if len(set(words[1:])) < len(words) - 1:
                fail(line_no, "replica ids must be distinct")
            replicas = words[1:]
        elif head == "schema":
            if words[1:] != ["{"]:
                fail(line_no, "usage: schema {")
            body, i = block(i, "schema")
            schema_text = "\n".join(body)
        elif head == "tx":
            # The body may be inline on one line or span until a lone }.
            match = _TX.fullmatch(stripped)
            if match is None:
                fail(line_no, "usage: tx <txid> @<replica> [expect <ErrorKind>] { ... }")
            tail = match["body"].strip()
            if tail.endswith("}"):
                body = [tail[:-1]]
            elif tail:
                fail(line_no, "tx body must follow { on the same line or start on the next")
            else:
                body, i = block(i, "tx")
            stmts = [piece for chunk in body for piece in _split_statements(chunk)]
            args = {"rid": match["rid"], "txid": match["txid"], "expect": match["expect"], "stmts": stmts}
            events.append(Event("txblock", args, line_no))
        elif head == "assert table":
            if len(words) != 5 or words[4] != "{" or not words[2].startswith("@"):
                fail(line_no, "usage: assert table @<replica> <table> { ... }")
            body, i = block(i, "assert table", comments=False)
            rows = [b.strip() for b in body if b.strip()]
            events.append(Event("assert_table", {"rid": words[2][1:], "table": words[3], "lines": rows}, line_no))
        elif head in _FORMS:
            events.append(directive(line_no, head, stripped))
        else:
            fail(line_no, f"unknown directive {head!r}")

    if replicas is None:
        raise ScenarioError(f"{name}: missing replicas directive")
    if schema_text is None:
        raise ScenarioError(f"{name}: missing schema block")
    scenario = Scenario(name, replicas, schema_text, events)
    _validate_scenario(scenario)
    return scenario


def _validate_scenario(scenario: Scenario) -> None:
    """Statements must parse, events must reference declared replicas and
    tables, and an asserted key must fit its table's primary key."""
    try:
        catalog = scenario.catalog()
    except AqlError as err:
        raise ScenarioError(f"{scenario.name}: bad schema: {err}") from err
    declared = set(scenario.replicas)

    def bad(event: Event, message: str) -> ScenarioError:
        return ScenarioError(f"{scenario.name} line {event.line}: {message}")

    for event in scenario.events:
        rid = event.args.get("rid")
        if rid is not None and rid not in declared:
            raise bad(event, f"undeclared replica {rid}")
        members = [member for g in event.args.get("groups", []) for member in g]
        for i, member in enumerate(members):
            if member not in declared:
                raise bad(event, f"undeclared replica {member}")
            if member in members[:i]:
                raise bad(event, f"replica {member} listed twice in partition")
        table = event.args.get("table")
        if table is not None and table not in catalog.tables:
            raise bad(event, f"unknown table {table}")
        if "pk" in event.args:
            schema = catalog.tables[table]
            key = schema.column(schema.primary_key)
            if not key.datatype.admits(event.args["pk"]):
                raise bad(event, f"key {event.args['pk']!r} does not match {table}.{key.name}")
        sqls = event.args["stmts"] if event.kind == "txblock" else (
            [event.args["sql"]] if event.kind == "stmt" else []
        )
        for sql in sqls:
            try:
                sch.parse_statement(sql, catalog)
            except AqlError as err:
                raise bad(event, f"bad statement {sql!r}: {err}") from err


# Runs of text outside string literals, and string literals, which may be
# left open at the end.
_CODE = re.compile(r"(?:[^'#]+|'[^']*'?)*")
_STATEMENT = re.compile(r"(?:[^';]+|'[^']*'?)+")


def _strip_comment(line: str) -> str:
    """The line up to the first # outside string literals."""
    return line[:_CODE.match(line).end()]


def _split_statements(chunk: str) -> list[str]:
    """Split on semicolons that sit outside string literals."""
    return [p.strip() for p in _STATEMENT.findall(chunk) if p.strip()]


def run_scenario(scenario: Scenario) -> Report:
    runner = Runner(scenario.catalog(), scenario.replicas, name=scenario.name)
    runner.run(scenario.events)
    return runner.report


def read_text(path: str | None) -> str:
    """The text of a UTF-8 file, or of stdin when path is None, with line
    ends read as in text mode. Input that is not UTF-8 raises ScenarioError."""
    if path is None:
        name, data = "stdin", sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            name, data = path, fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ScenarioError(f"{name} is not UTF-8 text: {err.reason} at byte {err.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_scenario(path: str) -> Scenario:
    text = read_text(path)
    return parse_scenario(text, path.replace("\\", "/").rsplit("/", 1)[-1].removesuffix(".aqlsim"))


# --------------------------------------------------------------------------
# fuzzing

FUZZ_SCHEMA = """
CREATE UPDATE_WINS TABLE Artists (
  Name VARCHAR PRIMARY KEY,
  Active BOOLEAN LWW,
  Plays INT ADDITIVE
);
CREATE UPDATE_WINS TABLE Albums (
  Title VARCHAR PRIMARY KEY,
  Artist VARCHAR LWW FOREIGN KEY UPDATE_WINS REFERENCES Artists (Name),
  Stock INT ADDITIVE CHECK (Stock >= 0),
  Genre VARCHAR MULTI_VALUE
);
CREATE DELETE_WINS TABLE Reviews (
  Id INT PRIMARY KEY,
  Album VARCHAR LWW FOREIGN KEY DELETE_WINS REFERENCES Albums (Title) ON DELETE CASCADE,
  Stars INT LWW CHECK (Stars >= 1 AND Stars <= 5)
);
CREATE TABLE Accounts (
  Owner VARCHAR PRIMARY KEY,
  Balance INT ADDITIVE CHECK (Balance >= 0)
);
"""

# The fuzzer keeps at most this many transactions open at once.
_MAX_OPEN = 4

_ARTISTS = ("Sam", "Ana", "Lee", "Kim")
_ALBUMS = ("A1", "A2", "A3", "A4")
_GENRES = ("rock", "jazz", "folk")
_ACCOUNTS = ("acct1", "acct2")
_ENDING = ("stmt", "commit", "abort")  # the events that can end a transaction


@dataclass(slots=True)
class FuzzConfig:
    seed: int = 0
    replicas: int = 3
    events: int = 60
    schema_text: str = FUZZ_SCHEMA


@dataclass(slots=True)
class FuzzOutcome:
    config: FuzzConfig
    trace: list[Event]
    report: Report
    minimized: list[Event] | None = None

    @property
    def ok(self) -> bool:
        return self.report.ok

    def trace_text(self) -> str:
        events = self.minimized if self.minimized is not None else self.trace
        return "\n".join(e.render() for e in events)


def draws(rng: random.Random) -> Callable[[int], int]:
    """below(n), a uniform draw from range(n) off rng: the draw rng.choice,
    randrange and shuffle make, from the public getrandbits. The generator
    makes every draw through it but one rng.random()."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


# One maker per statement shape; each draws its literals after the four keys.
_STATEMENT_MAKERS = (
    lambda below, artist, album, genre, account: f"INSERT INTO Artists VALUES ('{artist}', {('TRUE', 'FALSE')[below(2)]}, {below(4)})",
    lambda below, artist, album, genre, account: f"INSERT INTO Albums VALUES ('{album}', '{artist}', {below(5)}, '{genre}')",
    lambda below, artist, album, genre, account: f"INSERT INTO Reviews VALUES ({1 + below(6)}, '{album}', {1 + below(5)})",
    lambda below, artist, album, genre, account: f"INSERT INTO Accounts VALUES ('{account}', {below(11)})",
    lambda below, artist, album, genre, account: f"UPDATE Artists SET Active = {('TRUE', 'FALSE')[below(2)]} WHERE Name = '{artist}'",
    lambda below, artist, album, genre, account: f"UPDATE Artists SET Plays = Plays + {1 + below(4)} WHERE Name = '{artist}'",
    lambda below, artist, album, genre, account: f"UPDATE Albums SET Stock = Stock {'+-'[below(2)]} {1 + below(3)} WHERE Title = '{album}'",
    lambda below, artist, album, genre, account: f"UPDATE Albums SET Genre = '{genre}' WHERE Title = '{album}'",
    lambda below, artist, album, genre, account: f"UPDATE Albums SET Artist = '{artist}' WHERE Title = '{album}'",
    lambda below, artist, album, genre, account: f"UPDATE Reviews SET Stars = {below(7)} WHERE Id = {1 + below(6)}",
    lambda below, artist, album, genre, account: f"UPDATE Accounts SET Balance = Balance - {1 + below(4)} WHERE Owner = '{account}'",
    lambda below, artist, album, genre, account: f"UPDATE Accounts SET Balance = Balance + {1 + below(4)} WHERE Owner = '{account}'",
    lambda below, artist, album, genre, account: f"DELETE FROM Artists WHERE Name = '{artist}'",
    lambda below, artist, album, genre, account: f"DELETE FROM Albums WHERE Title = '{album}'",
    lambda below, artist, album, genre, account: f"DELETE FROM Reviews WHERE Id = {1 + below(6)}",
    lambda below, artist, album, genre, account: f"SELECT * FROM {('Artists', 'Albums', 'Reviews', 'Accounts')[below(4)]}",
)


@functools.cache
def _event_kinds(open_count: int, partitioned: bool, can_partition: bool) -> tuple[str, ...]:
    """Each event kind the generator may pick in a state, repeated by weight."""
    choices: list[tuple[int, str]] = []
    if open_count < _MAX_OPEN:
        choices.append((20, "begin"))
    if open_count:
        choices.extend(((45, "stmt"), (20, "commit"), (5, "abort")))
    choices.append((15, "deliver"))
    if partitioned:
        choices.append((12, "heal"))
    elif can_partition:
        choices.append((6, "partition"))
    return tuple(kind for weight, kind in choices for _ in range(weight))


def _gen_events(config: FuzzConfig, rids: list[str], runner: Runner) -> list[Event]:
    """Generate and apply events one at a time; choices depend on run state.
    No event settles a transaction but its own, so after a stmt, commit or
    abort only that event's txid can leave the open set."""
    rng = random.Random(config.seed)
    below, apply, txs = draws(rng), runner.apply, runner.txs
    replicas = len(rids)
    # this run's _event_kinds of every state: kinds_by[open_count][partitioned]
    kinds_by = [[_event_kinds(n, p, replicas > 1) for p in (False, True)] for n in range(_MAX_OPEN + 1)]
    trace: list[Event] = []
    partitioned = False
    open_txids: list[str] = []  # the active transactions, in begin order
    for line in range(1, config.events + 1):
        kinds = kinds_by[len(open_txids)][partitioned]
        kind = kinds[below(len(kinds))]
        if kind == "begin":
            open_txids.append(f"t{len(txs) + 1}")  # txs holds every transaction begun so far
            args = {"rid": rids[below(replicas)], "txid": open_txids[-1]}
        elif kind in _ENDING:
            txid = open_txids[below(len(open_txids))]
            args = {"txid": txid, "expect": None}
            if kind == "stmt":  # the four keys, then the maker, which draws its literals
                artist, album, genre, account = (
                    _ARTISTS[below(len(_ARTISTS))], _ALBUMS[below(len(_ALBUMS))],
                    _GENRES[below(len(_GENRES))], _ACCOUNTS[below(len(_ACCOUNTS))],
                )
                args["sql"] = _STATEMENT_MAKERS[below(len(_STATEMENT_MAKERS))](below, artist, album, genre, account)
        elif kind == "deliver":
            args = {"rid": None if rng.random() < 0.3 else rids[below(replicas)]}
        elif kind == "partition":
            cut, order = 1 + below(replicas - 1), rids[:]
            for i in range(replicas - 1, 0, -1):  # the swaps rng.shuffle(order) makes
                j = below(i + 1)
                order[i], order[j] = order[j], order[i]
            args = {"groups": [sorted(order[:cut]), sorted(order[cut:])]}
            partitioned = True
        else:
            args = {}
            partitioned = False
        event = Event(kind, args, line)
        trace.append(event)
        apply(event)
        if kind in _ENDING and txs[txid].status is not TxStatus.ACTIVE:
            open_txids.remove(txid)
    return trace


def _fuzz_runner(config: FuzzConfig, name: str) -> tuple[Runner, list[str]]:
    """A lenient runner over config's schema, and its replica ids r1..rN."""
    if config.replicas < 1:
        raise ScenarioError(f"fuzzing needs at least one replica, not {config.replicas}")
    rids = [f"r{i + 1}" for i in range(config.replicas)]
    return Runner(sch.parse_schema_text(config.schema_text), rids, name=name, lenient=True), rids


def fuzz(config: FuzzConfig, shrink: bool = True) -> FuzzOutcome:
    """One seeded random run; the report carries any invariant breakage."""
    runner, rids = _fuzz_runner(config, f"fuzz-{config.seed}")
    trace = _gen_events(config, rids, runner)
    outcome = FuzzOutcome(config, trace, runner.finish())
    if not outcome.ok and shrink:
        outcome.minimized = minimize(config, trace)
    return outcome


def replay_trace(config: FuzzConfig, trace: list[Event]) -> Report:
    """Re-run a recorded trace; used to confirm and minimize failures."""
    runner, _ = _fuzz_runner(config, "replay")
    runner.run(trace)
    return runner.finish()


def minimize(config: FuzzConfig, trace: list[Event]) -> list[Event]:
    """Greedy one-at-a-time shrink keeping the trace failing."""
    current = list(trace)
    changed = True
    while changed:
        changed = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1:]
            if not replay_trace(config, candidate).ok:
                current = candidate
                changed = True
                break
    return current
