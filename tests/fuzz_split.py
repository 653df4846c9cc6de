"""Fuzz split: how much of a fuzz run is the generator, and how much the replay.

An opt-in script, not a test module: pytest does not collect it. It fuzzes
SEEDS seeds of FUZZ_SCHEMA with Albums.Stock unbounded, as the benchmark's
checker fuzzes it, at 200 events each, without shrinking, and keeps their
traces. Then it times BLOCKS alternating blocks under process_time: one
block runs sim.fuzz over every seed, the other replay_trace over the same
traces, and their order swaps from pair to pair. It prints the median ms
per run of each, and of their difference pair by pair: the cost of
generating the events, since a replay applies the same events to the same
runner without drawing them.

    PYTHONPATH=src python tests/fuzz_split.py [SEEDS [BLOCKS [FIRST_SEED]]]
"""

from __future__ import annotations

import statistics
import sys
import time

from aqldb.sim import FUZZ_SCHEMA, FuzzConfig, fuzz, replay_trace

EVENTS = 200
_BOUNDED_STOCK = "Stock INT ADDITIVE CHECK (Stock >= 0)"
SCHEMA = FUZZ_SCHEMA.replace(_BOUNDED_STOCK, "Stock INT ADDITIVE")


def per_run_ms(run, configs, traces) -> float:
    began = time.process_time()
    for config, trace in zip(configs, traces):
        run(config, trace)
    return (time.process_time() - began) * 1e3 / len(configs)


def main(seeds: int = 200, blocks: int = 6, first: int = 0) -> None:
    if _BOUNDED_STOCK not in FUZZ_SCHEMA:
        raise SystemExit("FUZZ_SCHEMA no longer declares the bounded Albums.Stock")
    configs = [FuzzConfig(seed=seed, events=EVENTS, schema_text=SCHEMA) for seed in range(first, first + seeds)]
    traces = [fuzz(config, shrink=False).trace for config in configs]  # also warms the caches
    timed = {
        "fuzz": lambda config, trace: fuzz(config, shrink=False),
        "replay": replay_trace,
    }
    samples: dict[str, list[float]] = {"fuzz": [], "replay": []}
    for block in range(blocks):
        for name in ("fuzz", "replay") if block % 2 == 0 else ("replay", "fuzz"):
            samples[name].append(per_run_ms(timed[name], configs, traces))
    samples["generator"] = [f - r for f, r in zip(samples["fuzz"], samples["replay"])]
    print(f"{seeds} seeds from {first}, {EVENTS} events, {blocks} alternating blocks each, process_time")
    for name, values in samples.items():
        print(f"  {name:9} {statistics.median(values):.3f} ms per run (min {min(values):.3f}, max {max(values):.3f})")


if __name__ == "__main__":
    main(*(int(arg) for arg in sys.argv[1:]))
