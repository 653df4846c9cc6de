"""Which library functions the traced run wraps, and the per-layer metrics.

Each wrapper sits at the attribute the caller looks the function up through,
so internal calls are seen too: ``Replica.execute`` finds ``parse_statement``
on the schema module, and ``Runner`` finds ``integrity_violations`` on the
sim module. ``Replica.deliver`` and ``Replica.commit`` merge cells through the
``merge`` the engine module imported; the visibility register's own merge
method is not wrapped.
"""

from __future__ import annotations

from aqldb import engine, schema as sch, sim, txn
from aqldb.errors import LockUnavailable

from tracer import Tracer, calls_under, outer_total, summarize

# (metric name, unit); every traced run prints all of them.
PER_LAYER = (
    ("schema.parse_statement.calls", "count"),
    ("schema.parse_statement.self_s", "s"),
    ("schema.parse_schema_text.self_s", "s"),
    ("engine.begin.self_s", "s"),
    ("engine.begin.rows_copied", "count"),
    ("engine.is_visible.calls", "count"),
    ("engine.is_visible.calls_per_stmt", "ratio"),
    ("engine.is_visible.self_s", "s"),
    ("engine.execute.self_s", "s"),
    ("engine.commit.self_s", "s"),
    ("engine.deliver.calls", "count"),
    ("engine.deliver.self_s", "s"),
    ("crdt.merge.calls", "count"),
    ("crdt.merge.self_s", "s"),
    ("crdt.merge.calls_per_record", "ratio"),
    ("txn.acquire.calls", "count"),
    ("txn.acquire.self_s", "s"),
    ("txn.acquire.conflicts", "count"),
    ("txn.coordinator_requests", "count"),
    ("txn.abort_ratio", "ratio"),
    ("sim.catch_up.calls", "count"),
    ("sim.request_rights.calls", "count"),
    ("engine.transfer_rights.calls", "count"),
    ("sim.pump.records", "count"),
    ("sim.pump.self_s", "s"),
    ("sim.queue.max_depth", "count"),
    ("sim.converged.self_s", "s"),
    ("sim.audit.self_s", "s"),
    ("sim.audit.rows_scanned", "count"),
    ("sim.audit.share", "ratio"),
    ("trace.overhead", "ratio"),
)


def _rows(store) -> int:
    return sum(len(rows) for rows in store.tables.values())


def install(tracer: Tracer) -> None:
    wrap, count = tracer.wrap, tracer.count

    def begin_after(args, token, result, error):
        count("engine.begin.rows_copied", _rows(args[0].store))

    def deliver_after(args, token, result, error):
        if result:
            count("engine.deliver.records")

    def acquire_before(args):
        return args[0].coordinator_requests

    def acquire_after(args, token, result, error):
        count("txn.coordinator_requests", args[0].coordinator_requests - token)
        if isinstance(error, LockUnavailable):
            count("txn.acquire.conflicts")

    def pump_before(args):
        tracer.peak("sim.queue.max_depth", len(args[0].queues[args[1]]))

    def pump_after(args, token, result, error):
        if result:
            count("sim.pump.records", result)

    def audit_before(args):
        count("sim.audit.rows_scanned", _rows(args[0]))

    def commit_after(args, token, result, error):
        count("txn.commits" if error is None else "txn.aborts")

    def execute_after(args, token, result, error):
        if error is not None:
            count("txn.aborts")

    wrap(sch, "parse_statement", "schema.parse_statement")
    wrap(sch, "parse_schema_text", "schema.parse_schema_text")
    wrap(engine.Replica, "begin", "engine.begin", after=begin_after)
    wrap(engine.Replica, "execute", "engine.execute", after=execute_after)
    wrap(engine.Replica, "commit", "engine.commit", after=commit_after)
    wrap(engine.Replica, "deliver", "engine.deliver", after=deliver_after)
    wrap(engine.Replica, "transfer_rights", "engine.transfer_rights")
    wrap(engine, "is_visible", "engine.is_visible")
    wrap(sim, "is_visible", "engine.is_visible")
    wrap(engine, "merge", "crdt.merge")
    wrap(txn.LockManager, "acquire", "txn.acquire", before=acquire_before, after=acquire_after)
    wrap(sim.Cluster, "catch_up", "sim.catch_up")
    wrap(sim.Cluster, "request_rights", "sim.request_rights")
    wrap(sim.Cluster, "pump", "sim.pump", before=pump_before, after=pump_after)
    wrap(sim.Cluster, "converged", "sim.converged")
    wrap(sim, "integrity_violations", "sim.audit", before=audit_before)
    wrap(sim, "constraint_violations", "sim.audit", before=audit_before)


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    spans = summarize(tracer)
    counts = tracer.counts

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    attempted = counts.get("txn.commits", 0) + counts.get("txn.aborts", 0)
    values = {
        "schema.parse_statement.calls": calls("schema.parse_statement"),
        "schema.parse_statement.self_s": self_s("schema.parse_statement"),
        "schema.parse_schema_text.self_s": self_s("schema.parse_schema_text"),
        "engine.begin.self_s": self_s("engine.begin"),
        "engine.begin.rows_copied": counts.get("engine.begin.rows_copied", 0),
        "engine.is_visible.calls": calls("engine.is_visible"),
        "engine.is_visible.calls_per_stmt": ratio(
            calls_under(tracer, "engine.is_visible", "engine.execute"), calls("engine.execute")
        ),
        "engine.is_visible.self_s": self_s("engine.is_visible"),
        "engine.execute.self_s": self_s("engine.execute"),
        "engine.commit.self_s": self_s("engine.commit"),
        "engine.deliver.calls": calls("engine.deliver"),
        "engine.deliver.self_s": self_s("engine.deliver"),
        "crdt.merge.calls": calls("crdt.merge"),
        "crdt.merge.self_s": self_s("crdt.merge"),
        "crdt.merge.calls_per_record": ratio(
            calls_under(tracer, "crdt.merge", "engine.deliver"),
            counts.get("engine.deliver.records", 0),
        ),
        "txn.acquire.calls": calls("txn.acquire"),
        "txn.acquire.self_s": self_s("txn.acquire"),
        "txn.acquire.conflicts": counts.get("txn.acquire.conflicts", 0),
        "txn.coordinator_requests": counts.get("txn.coordinator_requests", 0),
        "txn.abort_ratio": ratio(counts.get("txn.aborts", 0), attempted),
        "sim.catch_up.calls": calls("sim.catch_up"),
        "sim.request_rights.calls": calls("sim.request_rights"),
        "engine.transfer_rights.calls": calls("engine.transfer_rights"),
        "sim.pump.records": counts.get("sim.pump.records", 0),
        "sim.pump.self_s": self_s("sim.pump"),
        "sim.queue.max_depth": counts.get("sim.queue.max_depth", 0),
        "sim.converged.self_s": self_s("sim.converged"),
        "sim.audit.self_s": self_s("sim.audit"),
        "sim.audit.rows_scanned": counts.get("sim.audit.rows_scanned", 0),
        "sim.audit.share": ratio(outer_total(tracer, "sim.audit"), traced_s),
        "trace.overhead": traced_s / untraced_s - 1.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
