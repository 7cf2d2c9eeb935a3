"""One workload process: import mkdvlab, make the inputs, run the closed loop.

Started by ``run.py``, never by hand.  It prints one JSON line: the
monotonic time at which the first operation could begin and, unless
``--setup-only``, the per-operation timings, verdicts and check values,
the peak RSS and, with ``--trace 1``, the per-layer values.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mkdvlab  # noqa: E402
from mkdvlab.errors import MkdvLabError  # noqa: E402
from tracing import LAYER_UNITS, Tracer, layer_metrics, median_layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def one_op(w, inp: dict) -> dict:
    """One full verification: timed run, then the untimed verdict gate."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        out = w.run(inp)
    except MkdvLabError as e:
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return {"wall_s": wall, "cpu_s": cpu, "ok": False, "error": repr(e)}
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    ok, checks = w.check(inp, out)
    return {"wall_s": wall, "cpu_s": cpu, "ok": bool(ok), "checks": checks}


def closed_loop(w, inp: dict, seconds: float, each=None) -> list:
    """Operations back to back until `seconds` have passed, at least one."""
    ops = []
    t_end = time.perf_counter() + seconds
    while not ops or time.perf_counter() < t_end:
        ops.append(one_op(w, inp) if each is None else each())
    return ops


def traced_ops(w, inp: dict, seconds: float) -> tuple:
    tracer = Tracer()
    layers = []

    def each():
        tracer.reset()
        op = one_op(w, inp)
        layers.append(layer_metrics(tracer))
        return op

    with tracer:
        ops = closed_loop(w, inp, seconds, each)
    values = median_layers(layers)
    return ops, values, tracer.summary()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if Path(mkdvlab.__file__).resolve().parent != ROOT / "src" / "mkdvlab":
        print(f"mkdvlab imported from {mkdvlab.__file__}, not this checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    inp = w.make_inputs(args.seed)
    result = {"ready": time.monotonic()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        # untraced then traced operations, half the run each; the difference
        # of their median wall times is the tracing overhead
        plain = closed_loop(w, inp, args.seconds / 2)
        traced, values, spans = traced_ops(w, inp, args.seconds / 2)
        values["trace.overhead_s"] = (
            statistics.median(o["wall_s"] for o in traced)
            - statistics.median(o["wall_s"] for o in plain)
        )
        ops = plain + traced
        result["layers"] = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}
        result["spans"] = spans
    else:
        ops = closed_loop(w, inp, args.seconds)
    result["ops"] = ops
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mkdvlab": mkdvlab.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
