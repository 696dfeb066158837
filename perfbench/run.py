"""Benchmark entry point: generate a workload's inputs, measure it, print the result.

    python3 perfbench/run.py --workload train|retrieve|offline|all --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout. The inputs are generated from --seed
into a scratch directory under the checkout (not timed), then a fresh
worker process (perfbench/worker.py) measures the workload for about
--seconds and checks every output. The last line of standard output is
one structured object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Before it come the workload's named metrics, one per
line with their units, and a line with the details (sizes used,
environment, per-command times, error rate); the same record, and the
spans of a traced run, are kept under .bench_out/. With --workload all
the three workloads run one after another and the last line carries
every metric prefixed with its workload's name.
"""

from __future__ import annotations

import os

# One BLAS thread here too: idle OpenBLAS threads of this process would
# otherwise spin beside the worker while it measures.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import monotonic

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train", "retrieve", "offline")
RUN_LIMIT_S = 175.0  # one workload's run, generation included, ends within this


def measure(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict | None:
    """Generate, run the worker, return its result with details; None on failure."""
    began = monotonic()
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = ROOT / ".bench_work" / f"{tag}-pid{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen.generate(workload, seed, size, work)
        result_path = work / "result.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--work", str(work), "--seconds", str(seconds), "--trace", str(trace),
               "--result", str(result_path), "--spans", str(out_dir / f"{tag}-spans.jsonl")]
        try:
            proc = subprocess.run(cmd, env=env, timeout=RUN_LIMIT_S - (monotonic() - began))
        except subprocess.TimeoutExpired:
            print(f"error: {workload}: the workload did not finish in time", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result_path.is_file():
            print(f"error: {workload}: worker exited with {proc.returncode}", file=sys.stderr)
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["details"]["seed"] = seed
    (out_dir / f"{tag}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def report(result: dict) -> None:
    """Human-readable lines: named metrics, and the per-command breakdown if traced."""
    details = result["details"]
    for name, (value, unit) in details.get("named", {}).items():
        print(f"{details['workload']:9s} {name:24s} {value:12.5g} {unit}")
    by_kind: dict[str, dict[str, float]] = {}
    for row in details.get("breakdown", []):
        kind = by_kind.setdefault(row["command"], {"(wall)": 0.0, "(unattributed)": 0.0})
        kind["(wall)"] += row["wall_s"]
        kind["(unattributed)"] += row["unattributed_s"]
        for name, self_s in row["self_s"].items():
            kind[name] = kind.get(name, 0.0) + self_s
    for command, totals in by_kind.items():
        top = sorted(((v, k) for k, v in totals.items() if not k.startswith("(")), reverse=True)
        shares = ", ".join(f"{k} {v / totals['(wall)']:.1%}" for v, k in top[:6])
        print(f"{details['workload']:9s} {command} self time: {shares}, unattributed "
              f"{totals['(unattributed)'] / totals['(wall)']:.2%}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    args = p.parse_args(argv)
    # A termination request unwinds normally, so the worker is killed and
    # waited for and the scratch inputs are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "audiotext" / "cli.py").is_file():
        print(f"error: program source not found at {SRC / 'audiotext'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, args.trace, args.size)
        if result is None:
            return 1
        report(result)
        results[name] = result
    if args.workload != "all":
        result = results[args.workload]
        print(json.dumps({"details": result.pop("details")}))
        print(json.dumps(result))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
