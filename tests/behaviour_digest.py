"""Behaviour digest: one sha256 line per scenario and per fuzz run.

An opt-in script, not a test module: pytest does not collect it. It prints
a digest of every shipped scenario's report (render() and to_json()), and
of fuzz seeds 0-149 at 200 events on 1, 2 and 3 replicas over four fuzz
schemas. A fuzz run's digest covers its report's to_json(), its trace text,
and every replica's store_canon before and after finish(). The last line
is a digest of every line above it. Printed from two trees, `diff` names
the runs a change moved; the exit status is 1 if any run failed.

    PYTHONPATH=src python tests/behaviour_digest.py > digest.txt
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
import sys

from aqldb import sim
from aqldb.sim import FUZZ_SCHEMA, FuzzConfig, FuzzOutcome, load_scenario, run_scenario, store_canon

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scenarios")
SEEDS = range(150)
EVENTS = 200
REPLICAS = (1, 2, 3)
SCHEMAS = {
    "lww": FUZZ_SCHEMA,
    # Both foreign keys hold a multi-value reference.
    "multi_value_fk": FUZZ_SCHEMA.replace("VARCHAR LWW FOREIGN KEY", "VARCHAR MULTI_VALUE FOREIGN KEY"),
    # Albums.Stock unbounded, as the benchmark's checker fuzzes it.
    "unbounded_stock": FUZZ_SCHEMA.replace("Stock INT ADDITIVE CHECK (Stock >= 0)", "Stock INT ADDITIVE"),
    # Every policy and merge word removed: every table, edge and column strict.
    "all_strict": re.sub(r" (UPDATE_WINS|DELETE_WINS|LWW|MULTI_VALUE)\b", "", FUZZ_SCHEMA),
}


def _sha(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _canons(runner) -> list[str]:
    return [store_canon(rep.store) for rep in runner.cluster.replicas.values()]


def scenario_lines():
    for path in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.aqlsim"))):
        report = run_scenario(load_scenario(path))
        as_json = json.dumps(report.to_json(), sort_keys=True)
        yield report.ok, f"{_sha(report.render(), as_json)} scenario {report.name}"


def fuzz_lines():
    for schema_name, schema_text in SCHEMAS.items():
        for replicas in REPLICAS:
            for seed in SEEDS:
                # sim.fuzz without shrinking, with the stores read before finish too.
                config = FuzzConfig(seed=seed, replicas=replicas, events=EVENTS, schema_text=schema_text)
                runner, rids = sim._fuzz_runner(config, f"fuzz-{seed}")
                trace = sim._gen_events(config, rids, runner)
                before = _canons(runner)
                outcome = FuzzOutcome(config, trace, runner.finish())
                as_json = json.dumps(outcome.report.to_json(), sort_keys=True)
                digest = _sha(as_json, outcome.trace_text(), *before, *_canons(runner))
                yield outcome.ok, f"{digest} fuzz {schema_name} replicas={replicas} seed={seed}"


def main() -> int:
    total = hashlib.sha256()
    failed = 0
    for ok, line in [*scenario_lines(), *fuzz_lines()]:
        if not ok:
            failed += 1
            line += " FAIL"
        print(line)
        total.update(line.encode() + b"\n")
    print(f"{total.hexdigest()} total ({failed} failed)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
