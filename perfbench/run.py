"""Benchmark of the mkdvlab verification runs: time to a gated verdict.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 1

Each workload runs in a fresh worker process (``worker.py``) with BLAS and
OpenMP pinned to one thread.  With ``--trace 0`` the last line of stdout is
the end-to-end result (``wall_s``, ``cpu_s``, ``setup_s``, ``peak_rss_mb``);
with ``--trace 1`` it holds the per-layer values of ``tracing.py``.  The line
before it records the machine, versions, thread settings, seed and each
operation's check values.  ``--workload all`` runs the four workloads in turn
and prints one result line per workload.  See README.md for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("conserve-m256", "fifth-derivative-m64", "exact-sweep", "diagnostics-m64")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up time is sampled in fresh processes: one unmeasured warm-up (page
# cache, and bytecode where Python writes it), then SETUP_SAMPLES of which
# the measuring worker is one.  The others are split between before and
# after it, so that the median spans the run rather than a few seconds of
# a shared machine's drifting speed.
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; nothing is printed on stdout."""


def worker_env() -> dict:
    return dict(os.environ) | {v: "1" for v in THREAD_VARS}


def spawn(args: list, timeout: float) -> tuple:
    """Run the worker; return (monotonic spawn time, its parsed JSON line)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT, env=worker_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {args} timed out after {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def machine_record(workload: str, seed: int, versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", f"--work-tree={ROOT}",
             "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10,
        )
        describe = git.stdout.strip() if git.returncode == 0 else "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        describe = "git unavailable"
    return {
        "workload": workload,
        "seed": seed,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "versions": versions,
        "git_describe": describe,
        "threads": {v: "1" for v in THREAD_VARS} | {"scipy.fft workers": "default"},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """Returns (record, result) for one workload."""
    t_start = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []

    def sample_setups(n: int) -> None:
        for _ in range(n):
            t_spawn, ready = spawn(common + ["--setup-only"], RUN_TIMEOUT_S / 8)
            setups.append(ready["ready"] - t_spawn)

    if not trace:
        spawn(common + ["--setup-only"], RUN_TIMEOUT_S / 8)
        sample_setups((SETUP_SAMPLES - 1) // 2)
    left = RUN_TIMEOUT_S - (time.monotonic() - t_start)
    t_spawn, out = spawn(common + ["--seconds", str(seconds), "--trace", str(trace)], left)
    setups.append(out["ready"] - t_spawn)
    if not trace:
        sample_setups(SETUP_SAMPLES - len(setups))

    ops = out["ops"]
    failed = sum(not o["ok"] for o in ops)
    record = machine_record(workload, seed, out["versions"])
    record["operations"] = ops
    if trace:
        record["spans"] = out["spans"]
        metrics = out["layers"]
    else:
        record["setup_samples_s"] = setups
        metrics = {
            "wall_s": {"value": statistics.median(o["wall_s"] for o in ops), "unit": "s"},
            "cpu_s": {"value": statistics.median(o["cpu_s"] for o in ops), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MiB"},
        }
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "mkdvlab" / "__init__.py").is_file():
        print(f"no mkdvlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as e:
        print(e, file=sys.stderr)
        return 1
    if args.workload == "all":
        for (record, result) in results:
            print(json.dumps({"workload": record["workload"], **result}))
        return 0 if all(r["correct"] for _, r in results) else 1
    record, result = results[0]
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
