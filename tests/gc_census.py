"""Garbage collector census: what a stored row costs every full collection.

An opt-in script, not a test module: pytest does not collect it. It loads
FUZZ_SCHEMA on three replicas with ROWS rows, then runs BLOCKS blocks of
STEPS point transactions (updates, inserts of fresh keys, deletes and
selects, one row each), every one followed by delivery everywhere. The load
goes through the public API only and is drawn from one seeded generator, so
every run does the same work. After set-up and after each block it prints:
- the rows one replica stores, live or deleted;
- the objects the collector tracks that the replicas' stores reach, per
  stored row, in all and by type (replicas share rows, so each object
  counts once);
- the time of one full collection, in ms, after a first one has freed the
  load's garbage and untracked what it could.

    PYTHONPATH=src python tests/gc_census.py
"""

from __future__ import annotations

import collections
import gc
import random
import time

from aqldb import schema as sch
from aqldb.errors import AqlError
from aqldb.sim import FUZZ_SCHEMA, Cluster

SEED = 3
ROWS = 4000  # a tenth Artists, three tenths Albums, the rest Reviews
BATCH = 250  # set-up statements per transaction
STEPS = 50000
BLOCKS = 2
REPLICAS = ("r1", "r2", "r3")
GENRES = ("rock", "jazz", "folk")


class Load:
    """The seeded point load, and every key it has inserted per table."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.cluster = Cluster(sch.parse_schema_text(FUZZ_SCHEMA), list(REPLICAS))
        self.keys = {"Artists": [], "Albums": [], "Reviews": []}
        self.steps = 0

    def fresh(self, table: str):
        keys = self.keys[table]
        key = len(keys) + 1 if table == "Reviews" else f"{table[:2].lower()}{len(keys) + 1}"
        keys.append(key)
        return key

    def pick(self, table: str):
        return self.rng.choice(self.keys[table])

    def insert(self, table: str) -> str:
        rng = self.rng
        if table == "Artists":
            return f"INSERT INTO Artists VALUES ('{self.fresh(table)}', {rng.choice(('TRUE', 'FALSE'))}, {rng.randrange(100)})"
        if table == "Albums":
            artist = self.pick("Artists")
            return f"INSERT INTO Albums VALUES ('{self.fresh(table)}', '{artist}', {rng.randrange(20)}, '{rng.choice(GENRES)}')"
        album = self.pick("Albums")
        return f"INSERT INTO Reviews VALUES ({self.fresh(table)}, '{album}', {1 + rng.randrange(5)})"

    def setup(self, rows: int) -> None:
        plan = ["Artists"] * (rows // 10) + ["Albums"] * (rows * 3 // 10)
        plan += ["Reviews"] * (rows - len(plan))
        rep = self.cluster.replica(REPLICAS[0])
        for i in range(0, rows, BATCH):
            tx = rep.begin()
            for table in plan[i:i + BATCH]:
                rep.execute(tx, self.insert(table))
            self.cluster.commit(tx)
        self.cluster.deliver_all()

    def statement(self) -> str:
        rng = self.rng
        kind = rng.choice(("select", "update", "update", "insert", "delete"))
        table = rng.choice(("Artists", "Albums", "Albums", "Reviews", "Reviews", "Reviews"))
        if kind == "insert":
            return self.insert(table)
        if table == "Reviews":
            where = f"WHERE Id = {self.pick(table)}"
            sets = f"Stars = {1 + rng.randrange(5)}"
        elif table == "Albums":
            where = f"WHERE Title = '{self.pick(table)}'"
            sets = rng.choice((
                f"Genre = '{rng.choice(GENRES)}'",
                f"Artist = '{self.pick('Artists')}'",
                f"Stock = Stock + {1 + rng.randrange(3)}",
            ))
        else:
            where = f"WHERE Name = '{self.pick(table)}'"
            sets = rng.choice((f"Active = {rng.choice(('TRUE', 'FALSE'))}", f"Plays = Plays + {1 + rng.randrange(3)}"))
        if kind == "select":
            return f"SELECT * FROM {table} {where}"
        if kind == "update":
            return f"UPDATE {table} SET {sets} {where}"
        return f"DELETE FROM {table} {where}"

    def step(self) -> None:
        rep = self.cluster.replica(REPLICAS[self.steps % len(REPLICAS)])
        self.steps += 1
        tx = rep.begin()
        try:
            rep.execute(tx, self.statement())
            self.cluster.commit(tx)
        except AqlError:
            pass  # a missing key, a stale reference or a check: the transaction aborted
        self.cluster.deliver_all()


def reached(cluster: Cluster) -> collections.Counter:
    """Tracked objects that any replica's stored rows or child index reach,
    by type name, each counted once. An untracked object holds only
    untracked ones, so the walk stops there, and at classes."""
    seen: set[int] = set()
    by_type: collections.Counter = collections.Counter()
    todo = []
    for rid in cluster.replica_ids:
        store = cluster.replica(rid).store
        todo += [store.tables, store.children]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type) or not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        by_type[type(obj).__name__] += 1
        todo += gc.get_referents(obj)
    return by_type


def report(point: str, load: Load) -> None:
    gc.collect()
    began = time.perf_counter()
    gc.collect()
    full_ms = (time.perf_counter() - began) * 1e3
    store = load.cluster.replica(REPLICAS[0]).store
    rows = sum(len(table) for table in store.tables.values())
    by_type = reached(load.cluster)
    print(
        f"{point}: {rows} rows, {sum(by_type.values()) / rows:.2f} tracked objects per row,"
        f" full collection {full_ms:.1f} ms ({len(gc.get_objects())} tracked in all)"
    )
    print("  " + ", ".join(f"{name} {count / rows:.2f}" for name, count in by_type.most_common()))


def main() -> None:
    load = Load(SEED)
    load.setup(ROWS)
    report("set-up", load)
    for block in range(1, BLOCKS + 1):
        for _ in range(STEPS):
            load.step()
        report(f"after {block * STEPS} steps", load)


if __name__ == "__main__":
    main()
