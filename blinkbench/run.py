"""Fleet serving benchmark for the BlinkRadar stack.

Runs one workload against the serving stack, from outside and through its
public entry points, and prints a readable report followed, as the last
line of standard output, by one JSON object::

    {"correct": true, "attempted": <frames offered>, "failed": <frames lost>,
     "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` runs the workload untraced and then traced, and reports the
per-layer ledger plus the tracing overhead. Metric names and units come
from ``BENCHMARK.json``. Every session's outputs are checked against a
serial reference run; a mismatch in a session that lost no frames makes
the command exit 1 and names the session.

Usage::

    python3 blinkbench/run.py --workload live-threaded --seed 1 --seconds 15 --trace 0
    python3 blinkbench/run.py --workload all --seed 1 --seconds 15
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from common import OUT, ROOT, median, require_program

WORKLOADS = ["live-threaded", "live-sharded", "pump-catchup", "gateway-record"]
#: Set-up is repeated and its median reported, so one slow repetition
#: (first imports, first worker spawn) does not set the number.
SETUP_REPS = 3


def _make(name: str, run_dir: Path) -> Any:
    if name in ("live-threaded", "live-sharded"):
        from live import LiveWorkload

        return LiveWorkload(name, sharded=name == "live-sharded")
    if name == "pump-catchup":
        from pump import PumpWorkload

        return PumpWorkload()
    from gateway import GatewayWorkload

    return GatewayWorkload(run_dir)


def _stop_helper_processes() -> None:
    """Stop and reap the forkserver and resource tracker, if they were started.

    ``multiprocessing`` starts both lazily (the sharded backend uses a
    forkserver) and leaves them to die with the interpreter; the benchmark
    must wait for every process it started, so it stops them itself.
    """
    import multiprocessing.forkserver as forkserver
    import multiprocessing.resource_tracker as resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def _table(title: str, rows: list[tuple[str, str, str]]) -> str:
    width = max(len(r[0]) for r in rows)
    lines = [title]
    lines += [f"  {name:<{width}}  {value:>14}  {unit}" for name, value, unit in rows]
    return "\n".join(lines)


def run_one(args: argparse.Namespace) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    from ledger import batched_fps, end_to_end, latencies, ledger_rows, per_layer
    from tracing import Tracer, merge_summaries

    run_dir = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    workload = _make(args.workload, run_dir)
    stack = None
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            workload.prepare(args.seed, args.seconds)
            stack = workload.build()
            setup_times.append(time.perf_counter() - start)
            if rep < SETUP_REPS - 1:
                workload.discard(stack)
        # The serial reference is the checker's work, not set-up.
        workload.reference()
        untraced = workload.drive(stack)
        e2e = end_to_end(untraced, median(setup_times))
        check = untraced.check
        mismatches = list(check.mismatches)
        report = [
            _table(f"{args.workload} seed={args.seed}: end-to-end (untraced)",
                   [(name, f"{e2e[name]:.4f}", m["unit"]) for m in spec["end_to_end"] for name in [m["name"]]]),
            _table("verdict latency (untraced; reported, not gated: see blinkbench/NOTES.md)",
                   [(k, f"{v:.4f}", "ms") for k, v in latencies(untraced).items()]
                   + [("host steal during drive", f"{untraced.steal_frac:.4f}", "share of CPU time")]),
        ]
        values = e2e
        if args.trace:
            tracer = Tracer()
            stack = workload.build(traced=True)
            tracer.install()
            try:
                traced = workload.drive(stack, tracer)
            finally:
                tracer.uninstall()
            mismatches += traced.check.mismatches
            tracer.dump(OUT / f"spans-{args.workload}.jsonl.gz")
            summary = merge_summaries(tracer.summary(), traced.extra.get("server_summary", {}))
            floor = batched_fps(workload.replay_blocks())
            values = per_layer(summary, traced, untraced, e2e, end_to_end(traced, e2e["setup_s"]), floor)
            report.append(_table("per-layer ledger (traced): self time",
                                 [(layer, f"{per_frame:.5f}", f"ms/frame ({spans} spans, {self_ms:.1f} ms)")
                                  for layer, spans, self_ms, per_frame in ledger_rows(summary, max(traced.processed, 1))]))
        missing = sorted(set(units) - set(values))
        if missing:
            raise RuntimeError(f"metrics not computed: {missing}")
        report.append(_table("outputs check (untraced drive)", [
            ("sessions", str(check.sessions), ""),
            ("compared bit-exact", str(check.compared), ""),
            ("excluded (lost frames)", str(check.excluded_lossy), ""),
            ("mismatches (all drives)", str(len(mismatches)), ""),
            ("frames offered", str(untraced.offered), "frames"),
            ("frames failed", str(untraced.failed), "frames"),
            ("failed_frac", f"{untraced.failed / untraced.offered:.6f}", ""),
            ("blinks", str(check.blinks), ""),
            ("blinks_misstamped", str(check.misstamped), ""),
            ("blink latency samples", str(len(untraced.blink_latency_s)), ""),
            ("frame latency samples", str(len(untraced.frame_latency_s)), ""),
            ("setup repetitions (s)", " ".join(f"{t:.2f}" for t in setup_times), ""),
        ]))
        if args.trace:
            report.append(_table("per-layer metrics", [(k, f"{values[k]:.5f}", units[k]) for k in units]))
        print("\n\n".join(report))
        for problem in mismatches:
            print(f"MISMATCH {args.workload}: {problem}", file=sys.stderr)
        print(json.dumps({
            "correct": not mismatches,
            "attempted": untraced.offered,
            "failed": untraced.failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
        }))
        return 0 if not mismatches else 1
    finally:
        if stack is not None:
            workload.discard(stack)  # a no-op after a completed drive
        shutil.rmtree(run_dir, ignore_errors=True)
        _stop_helper_processes()


def run_all(args: argparse.Namespace) -> int:
    """Run every workload, each in its own process; exit 1 if any failed."""
    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]) + "\n", flush=True)
        if proc.returncode != 0:
            code = 1
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description="BlinkRadar fleet serving benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    require_program()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
