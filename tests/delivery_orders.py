"""Delivery-order independence: replay every causal order of a commit log.

An order oracle for the tests. It replays commit records at a fresh
observer replica in each delivery order that respects causality and
compares the canonical dumps.
"""

from __future__ import annotations

import aqldb.schema as sch
from aqldb.engine import Replica, dump_all, render_dump
from aqldb.txn import CausalClock, CommitRecord, LockManager

OBSERVER = "observer"


class SingleSite:
    """Cluster hooks for replicas with no cluster around them: everything
    is reachable, there is nothing to catch up to, and no other replica
    ships bounded-counter rights."""

    def reachable(self, a, b):
        return True

    def catch_up(self, replica, sources):
        return True

    def request_rights(self, replica, table, pk, column, needed):
        return False


def causal_orders(records: list[CommitRecord], limit: int | None = None) -> list[list[CommitRecord]]:
    """Every delivery order of the records that respects causality.

    The input must be causally downward closed, which any prefix of the
    records in broadcast order is.
    """
    recs = records[:limit] if limit is not None else list(records)
    orders: list[list[int]] = []

    def walk(chosen: list[int], remaining: set[int], clock: CausalClock) -> None:
        if not remaining:
            orders.append(list(chosen))
            return
        for idx in sorted(remaining):
            rec = recs[idx]
            if not clock.ready(rec):
                continue
            clock.tick(rec.origin)
            chosen.append(idx)
            walk(chosen, remaining - {idx}, clock)
            chosen.pop()
            clock.counts[rec.origin] -= 1

    walk([], set(range(len(recs))), CausalClock())
    return [[recs[i] for i in order] for order in orders]


def replay_records(records, catalog: sch.Catalog, replica_ids) -> Replica:
    """Apply commit records, in the given order, to a fresh observer. Each
    must merge, so an order that is not causal fails loudly."""
    hooks = SingleSite()
    observer = Replica(OBSERVER, catalog, replica_ids, LockManager(replica_ids, hooks), hooks)
    for record in records:
        assert observer.deliver(record), f"{record.txid} is not ready at the observer"
    return observer


def enumerate_orders(
    records, catalog: sch.Catalog, replica_ids, limit: int | None = 4
) -> tuple[int, set[str]]:
    """Replay every causal order of a log prefix at an observer replica.

    Returns (number of orders, set of distinct canonical dumps); order
    independence holds when the set has exactly one element.
    """
    dumps: set[str] = set()
    orders = causal_orders(records, limit)
    for order in orders:
        observer = replay_records(order, catalog, replica_ids)
        dumps.add(render_dump(dump_all(observer.store, catalog)))
    return len(orders), dumps
