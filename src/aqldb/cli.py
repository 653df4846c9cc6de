"""Command line front end.

Subcommands:
  run           execute scenario scripts and report assertion results
  fuzz          seeded random schedules
  check-schema  parse a schema and echo its normalized form
  dump          run a scenario, then print every replica's visible state

run, fuzz and dump audit the invariants (lock safety, referential integrity,
check constraints) after every event.

Exit status: 0 all checks passed, 1 an assertion or invariant failed,
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import schema as sch
from .engine import render_dump
from .errors import AqlError, ValidationError
from .sim import _STATEMENT_MAKERS, FUZZ_SCHEMA, FuzzConfig, Runner, fuzz, load_scenario, read_text, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqldb",
        description="Mergeable relational store: scenario runner and fuzzer.",
    )
    parser.add_argument(
        "--format", choices=("human", "machine"), default="human",
        help="human-readable text or JSON",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenario scripts")
    p_run.add_argument("scripts", nargs="+", help="paths to .aqlsim files")

    p_fuzz = sub.add_parser("fuzz", help="run seeded random schedules")
    p_fuzz.add_argument("--seed", type=int, required=True, help="base seed")
    p_fuzz.add_argument("--runs", type=int, default=1, help="number of seeds, starting at --seed")
    p_fuzz.add_argument("--replicas", type=int, default=3)
    p_fuzz.add_argument("--events", type=int, default=60)
    p_fuzz.add_argument("--schema", help="schema file (default: built-in music schema)")

    p_check = sub.add_parser("check-schema", help="validate a schema file")
    p_check.add_argument("path", nargs="?", help="schema file; '-' or omitted reads stdin")

    p_dump = sub.add_parser("dump", help="run a scenario and print final states")
    p_dump.add_argument("script", help="path to an .aqlsim file")

    return parser


def _cmd_run(args) -> int:
    reports = [run_scenario(load_scenario(path)) for path in args.scripts]
    if args.format == "machine":
        print(json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True))
    else:
        for report in reports:
            print(report.render())
    return 0 if all(r.ok for r in reports) else 1


def _cmd_fuzz(args) -> int:
    schema_text = FUZZ_SCHEMA
    if args.schema:
        schema_text = read_text(args.schema)
        # The fuzzer writes FUZZ_SCHEMA's tables: a schema that refuses one of
        # its statements would pass every seed having checked nothing. Each
        # shape is checked once, every draw in it fixed at 0.
        catalog = sch.parse_schema_text(schema_text)
        for make in _STATEMENT_MAKERS:
            sql = make(lambda n: 0, "Sam", "A1", "rock", "acct1")
            try:
                sch.parse_statement(sql, catalog)
            except AqlError as err:
                raise ValidationError(f"the fuzzer cannot write this schema: {sql}: {err}") from err
    outcomes = [fuzz(FuzzConfig(seed=seed, replicas=args.replicas, events=args.events, schema_text=schema_text))
                for seed in range(args.seed, args.seed + args.runs)]
    if args.format == "machine":
        payload = []
        for outcome in outcomes:
            entry = outcome.report.to_json()
            entry["seed"] = outcome.config.seed
            if outcome.minimized is not None:
                entry["minimized_trace"] = [e.render() for e in outcome.minimized]
            payload.append(entry)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for outcome in outcomes:
            status = "PASS" if outcome.ok else "FAIL"
            print(f"seed {outcome.config.seed}: {status} "
                  f"({len(outcome.trace)} events, {outcome.report.commits} commits)")
            if not outcome.ok:
                for failure in outcome.report.failures:
                    print(f"  {failure}")
                print("  minimized trace:")
                for line in outcome.trace_text().splitlines():
                    print(f"    {line}")
    return 0 if all(o.ok for o in outcomes) else 1


def _cmd_check_schema(args) -> int:
    text = read_text(args.path if args.path and args.path != "-" else None)
    catalog = sch.parse_schema_text(text)
    if args.format == "machine":
        tables = {
            name: {
                "policy": table.row_policy.value,
                "primary_key": table.primary_key,
                "columns": [c.name for c in table.columns],
            }
            for name, table in catalog.tables.items()
        }
        print(json.dumps(tables, indent=2, sort_keys=True))
    else:
        print(sch.catalog_to_ddl(catalog))
    return 0


def _cmd_dump(args) -> int:
    scenario = load_scenario(args.script)
    runner = Runner(scenario.catalog(), scenario.replicas, name=scenario.name)
    runner.run(scenario.events)
    if args.format == "machine":
        payload = {
            rid: runner.cluster.dumps(rid) for rid in runner.cluster.replica_ids
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for rid in runner.cluster.replica_ids:
            print(f"----- replica {rid} -----")
            print(render_dump(runner.cluster.dumps(rid)))
    return 0 if runner.report.ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "fuzz":
        for flag, value in (("--runs", args.runs), ("--events", args.events)):
            if value < 1:
                parser.error(f"{flag} must be at least 1, not {value}")
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "check-schema":
            return _cmd_check_schema(args)
        if args.command == "dump":
            return _cmd_dump(args)
    except (AqlError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    parser.error("no command")


if __name__ == "__main__":
    sys.exit(main())
