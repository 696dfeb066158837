"""One measured workload run in a fresh process (started by run.py).

The process starts after input generation, so its peak resident memory
is the workload's own. It times set-up, drives the CLI in-process through
``audiotext.cli.main(argv)`` in a closed loop, checks every command's
output, and writes its result as a structured file for run.py.

    python3 perfbench/worker.py --workload NAME --work DIR --seconds S \
        --trace 0|1 --result FILE --spans FILE
"""

from __future__ import annotations

import os

# The optim.py determinism contract is stated for single-threaded
# execution, and two BLAS threads move tower timings by tens of percent
# on a small machine; pin before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import io
import json
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from audiotext import cli
from tracing import Tracer, per_layer_units
from workloads import WORKLOADS, Record

# Set-up is timed a few times before the loop and then again between
# commands, as long as it has taken less than this share of the loop, so its
# median samples the machine over the whole run (one load takes 0.05-0.3 s).
SETUP_FIRST = 3
SETUP_SHARE = 0.08


def run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, wall seconds) of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:  # argparse rejects the command line
        code = e.code if isinstance(e.code, int) else 2
    except Exception:  # a crash is a failed command, recorded with its traceback
        code = -1
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


def run_one(workload, index: int, tracer: Tracer | None = None) -> Record:
    """Issue command `index` of the workload and check what it wrote."""
    kind, argv = workload.command(index)
    with tracer.command(kind) if tracer else nullcontext():
        code, stdout, stderr, wall = run_cli(argv)
    record = Record(kind, wall)
    if code != 0:
        record.problems.append(f"exit {code}: {stderr.strip()[-300:]}")
        return record
    try:
        record.problems += workload.check(kind, argv, stdout)
    except Exception:  # an unreadable output is a failed check
        record.problems.append(traceback.format_exc(limit=3))
    return record


def time_setup(workload) -> float:
    start = perf_counter()
    workload.setup()
    return perf_counter() - start


def closed_loop(workload, seconds: float, setup_times: list[float]) -> list[Record]:
    """Issue commands one after another: at least the workload's minimum,
    then more while the next one is expected to end within `seconds`
    (estimated by the last command of its kind). Set-up timings are added
    to `setup_times` between commands."""
    records: list[Record] = []
    last: dict[str, float] = {}
    start = perf_counter()
    index = 0
    while index < workload.min_commands or \
            perf_counter() - start + last.get(workload.command(index)[0], 0.0) <= seconds:
        record = run_one(workload, index)
        records.append(record)
        last[record.kind] = record.wall_s
        index += 1
        while sum(setup_times) < SETUP_SHARE * (perf_counter() - start):
            setup_times.append(time_setup(workload))
    return records


def traced_loop(workload, seconds: float,
                tracer: Tracer) -> tuple[Record, list[Record], list[Record]]:
    """Each command untraced and then traced, pair after pair, so that drift
    in machine speed cancels out of the overhead. One untraced warm-up
    command goes first and is returned on its own."""
    warm_up = run_one(workload, 0)
    untraced: list[Record] = []
    traced: list[Record] = []
    start = perf_counter()
    while len(traced) < workload.min_commands or perf_counter() - start + 2.0 * (
            untraced[-1].wall_s) <= seconds:
        untraced.append(run_one(workload, len(traced)))
        tracer.install()
        try:
            traced.append(run_one(workload, len(traced), tracer))
        finally:
            tracer.uninstall()
    return warm_up, untraced, traced


def host_probe_ms() -> float:
    """Median time of a fixed recurrent-style kernel (1,000 steps of a 300-wide
    matrix-vector product and tanh). It gauges the machine's speed at the
    time of the run, to read the metrics against; it is not a metric."""
    w = (np.random.default_rng(0).standard_normal((300, 300)) / 20).astype(np.float32)
    times = []
    for _ in range(7):
        x = np.zeros(300, dtype=np.float32)
        start = perf_counter()
        for _ in range(1000):
            x = np.tanh(w @ x + 0.1)
        times.append(perf_counter() - start)
    return 1000.0 * statistics.median(times)


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "cpu": cpu}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--work", required=True, type=Path)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--result", required=True, type=Path)
    p.add_argument("--spans", required=True, type=Path)
    args = p.parse_args(argv)

    sizes = json.loads((args.work / "sizes.json").read_text(encoding="utf-8"))["sizes"]
    workload = WORKLOADS[args.workload](args.work, sizes)

    probe_before = host_probe_ms()
    details: dict = {"workload": args.workload, "sizes": sizes, "environment": environment()}
    if args.trace == 0:
        setup_times = [time_setup(workload) for _ in range(SETUP_FIRST)]
        records = closed_loop(workload, args.seconds, setup_times)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = statistics.median(setup_times)
        details["setup_s_samples"] = setup_times
        items_per_s, command_mean_ms, extra = workload.metrics(records)
        metrics = {"items_per_s": (items_per_s, "items/s"),
                   "command_mean_ms": (command_mean_ms, "ms"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_mb, "MB")}
        details.update(extra)
        details["named"].update({"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_mb, "MB")})
    else:
        tracer = Tracer()
        warm_up, untraced, traced = traced_loop(workload, args.seconds, tracer)
        overhead = sum(r.wall_s for r in traced) / sum(r.wall_s for r in untraced) - 1.0
        units = per_layer_units()
        metrics = {name: (value, units[name])
                   for name, value in tracer.per_layer(overhead).items()}
        details["breakdown"] = tracer.breakdown()
        tracer.write_spans(args.spans)
        records = [warm_up, *untraced, *traced]

    details["host_probe_ms"] = [probe_before, host_probe_ms()]
    failed = sum(1 for r in records if r.problems)
    details.setdefault("named", {})["error_rate"] = (failed / len(records), "fraction")
    details["walls_s"] = {kind: [r.wall_s for r in records if r.kind == kind]
                          for kind in dict.fromkeys(r.kind for r in records)}
    details["problems"] = [f"{r.kind}: {p}" for r in records for p in r.problems][:20]
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()},
              "details": details}
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
