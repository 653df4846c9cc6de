"""Parse split: what parse_statement costs per call, by statement shape.

An opt-in script, not a test module: pytest does not collect it. For each
statement shape the benchmark's point-large workload sends (SHAPES), it
times three kinds of call on FUZZ_SCHEMA's shared catalog, in BLOCKS
alternating blocks of CALLS calls each under process_time, the order of
the three rotating from block to block:
- new: a literal text never parsed before, which binds through the
  shape's template;
- repeat: one literal text again, a hit in the statement cache;
- param: the shape's `?` text with fresh parameters.
It prints the median microseconds per call of each, per shape, and their
sum over the shapes. The caches are warmed first, so no block pays for a
template's first parse.

    PYTHONPATH=src python tests/parse_split.py [CALLS [BLOCKS]]
"""

from __future__ import annotations

import itertools
import statistics
import sys
import time

from aqldb import schema as sch
from aqldb.sim import FUZZ_SCHEMA

# Each shape of point-large's statements as its `?` text, with the type of
# the value each `?` takes. TRUE and FALSE are part of a shape, not literals.
SHAPES = [
    ("SELECT * FROM Artists WHERE Name = ?", (str,)),
    ("SELECT * FROM Albums WHERE Title = ?", (str,)),
    ("SELECT * FROM Reviews WHERE Id = ?", (int,)),
    ("UPDATE Artists SET Active = TRUE WHERE Name = ?", (str,)),
    ("UPDATE Artists SET Active = FALSE WHERE Name = ?", (str,)),
    ("UPDATE Artists SET Plays = Plays + ? WHERE Name = ?", (int, str)),
    ("UPDATE Albums SET Stock = Stock - ? WHERE Title = ?", (int, str)),
    ("UPDATE Albums SET Stock = Stock + ? WHERE Title = ?", (int, str)),
    ("UPDATE Albums SET Genre = ? WHERE Title = ?", (str, str)),
    ("UPDATE Albums SET Artist = ? WHERE Title = ?", (str, str)),
    ("UPDATE Reviews SET Stars = ? WHERE Id = ?", (int, int)),
    ("INSERT INTO Artists VALUES (?, TRUE, ?)", (str, int)),
    ("INSERT INTO Artists VALUES (?, FALSE, ?)", (str, int)),
    ("INSERT INTO Albums VALUES (?, ?, ?, ?)", (str, str, int, str)),
    ("INSERT INTO Reviews VALUES (?, ?, ?)", (int, str, int)),
    ("DELETE FROM Artists WHERE Name = ?", (str,)),
    ("DELETE FROM Albums WHERE Title = ?", (str,)),
    ("DELETE FROM Reviews WHERE Id = ?", (int,)),
]

_fresh = itertools.count(1)


def fresh_params(kinds: tuple[type, ...]) -> list:
    """Values no earlier call drew: a new number, or a key made of one."""
    return [n if kind is int else f"k{n}" for kind, n in zip(kinds, _fresh)]


def literal_text(shape: str, params: list) -> str:
    """shape with each `?` replaced by the literal of its parameter."""
    pieces = shape.split("?")
    return pieces[0] + "".join(sch._literal_ddl(value) + piece for value, piece in zip(params, pieces[1:]))


def per_call_us(calls: list) -> float:
    began = time.process_time()
    for text, catalog, params in calls:
        sch.parse_statement(text, catalog, params)
    return (time.process_time() - began) * 1e6 / len(calls)


def main(calls: int = 2000, blocks: int = 9) -> None:
    catalog = sch.parse_schema_text(FUZZ_SCHEMA)
    kinds = ("new", "repeat", "param")
    sums = {kind: [0.0] * blocks for kind in kinds}
    print(f"{calls} calls per block, {blocks} alternating blocks, process_time, median us per call")
    print(f"  {'new':>6} {'repeat':>6} {'param':>6}  shape")
    for shape, types in SHAPES:
        repeated = literal_text(shape, fresh_params(types))
        for text in (repeated, repeated, literal_text(shape, fresh_params(types))):  # warm every cache
            sch.parse_statement(text, catalog)
        samples: dict[str, list[float]] = {kind: [] for kind in kinds}
        for block in range(blocks):
            work = {
                "new": [(literal_text(shape, fresh_params(types)), catalog, ()) for _ in range(calls)],
                "repeat": [(repeated, catalog, ())] * calls,
                "param": [(shape, catalog, fresh_params(types)) for _ in range(calls)],
            }
            for kind in kinds[block % 3:] + kinds[:block % 3]:
                samples[kind].append(per_call_us(work[kind]))
                sums[kind][block] += samples[kind][-1]
        print("  " + " ".join(f"{statistics.median(samples[kind]):6.2f}" for kind in kinds) + f"  {shape}")
    print("  " + " ".join(f"{statistics.median(sums[kind]):6.2f}" for kind in kinds) + "  sum over the shapes")


if __name__ == "__main__":
    main(*(int(arg) for arg in sys.argv[1:]))
