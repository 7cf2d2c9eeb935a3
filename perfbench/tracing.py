"""Spans and counts around the public entry points of mkdvlab, from outside.

``Tracer.install`` replaces module attributes (``mkdvlab.integrate.evolve``,
``scipy.fft.rfft``, ...) by wrappers that record one span per call: its
name, start, end and the span that was open when it began.  Callers that
look the attribute up at call time (``sfft.rfft(...)``, a module-global
call, or an ``import`` inside a function body) go through the wrapper;
names bound by ``from ... import`` at load time do not, which is why the
workloads call every entry point through its module.

Spans live in flat arrays in memory, so that the ~420k FFT spans of one
conserve-m256 operation stay cheap; ``summary`` and ``layer_metrics``
reduce them when the run ends.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import Counter

import numpy as np
import scipy.fft

import mkdvlab.equations
import mkdvlab.illposed
import mkdvlab.integrate
import mkdvlab.invariants
import mkdvlab.resonance
import mkdvlab.shorttime
import mkdvlab.transforms


def _fft_points(args, kwargs, result) -> dict:
    # the longer side of the transform: P real points for rfft/irfft
    return {"spectral.fft_points": max(np.size(args[0]), np.size(result))}


def _evolve_work(args, kwargs, result) -> dict:
    T = kwargs["T"] if "T" in kwargs else args[1]
    return {
        "integrate.steps": int(round(T / result.dt)),
        "integrate.records": len(result),
    }


def _states_read(args, kwargs, result) -> dict:
    traj = kwargs["traj"] if "traj" in kwargs else args[0]
    return {"invariants.states_read": len(traj)}


def _tuples(args, kwargs, result) -> dict:
    return {"resonance.tuples": len(result)}


# (module, attribute, extra counts taken from the call) for every traced name
TRACED = (
    (mkdvlab.integrate, "evolve", _evolve_work),
    (mkdvlab.equations, "renormalized_nonlinear_coeff", None),
    (mkdvlab.invariants, "drift_report", _states_read),
    (mkdvlab.transforms, "gauge_forward", None),
    (mkdvlab.shorttime, "fs_norm", None),
    (mkdvlab.shorttime, "nk_norm", None),
    (mkdvlab.shorttime, "modulation_decompose", None),
    (mkdvlab.illposed, "eval_appendix_terms", None),
    (mkdvlab.illposed, "t2_duhamel_fifth", None),
    (mkdvlab.illposed, "numeric_fifth_derivative", None),
    (mkdvlab.illposed, "osc_single", None),
    (mkdvlab.illposed, "osc_double", None),
    (mkdvlab.resonance, "enumerate_n3", _tuples),
    (mkdvlab.resonance, "enumerate_n5", _tuples),
    (scipy.fft, "fft", _fft_points),
    (scipy.fft, "ifft", _fft_points),
    (scipy.fft, "rfft", _fft_points),
    (scipy.fft, "irfft", _fft_points),
)

FFT_SPANS = tuple(f"scipy.fft.{a}" for a in ("fft", "ifft", "rfft", "irfft"))


class Tracer:
    """Records spans (name, start, end, parent) and counts while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._installed: list = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and count recorded so far."""
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.child_s = array("d")  # time covered by direct children
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, owner, attr: str, extra) -> None:
        original = getattr(owner, attr)
        name = f"{owner.__name__}.{attr}"
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            stack = self._stack
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            self.child_s.append(0.0)
            stack.append(idx)
            t0 = clock()
            self.start.append(t0)
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.end[idx] = t1
                if stack:
                    self.child_s[stack[-1]] += t1 - t0
            self.counts[name] += 1
            if extra is not None:
                self.counts.update(extra(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def install(self) -> "Tracer":
        for owner, attr, extra in TRACED:
            self._wrap(owner, attr, extra)
        return self

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, and parent names."""
        out: dict = {}
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            dur = self.end[i] - self.start[i]
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": set()})
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - self.child_s[i]
            p = self.parent[i]
            s["parents"].add(self.names[self.name_id[p]] if p >= 0 else None)
        for s in out.values():
            s["parents"] = sorted(s["parents"], key=str)
        return out


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer values of one traced operation (units in ``LAYER_UNITS``)."""
    spans = tr.summary()
    c = tr.counts

    def total(*names):
        return sum(spans[n]["total_s"] for n in names if n in spans)

    def self_time(name):
        return spans[name]["self_s"] if name in spans else 0.0

    steps = c["integrate.steps"]
    evolve_s = total("mkdvlab.integrate.evolve")
    return {
        "spectral.fft_calls": sum(c[n] for n in FFT_SPANS),
        "spectral.fft_points": c["spectral.fft_points"],
        "spectral.fft_s": total(*FFT_SPANS),
        "integrate.steps": steps,
        "integrate.trajectories": c["mkdvlab.integrate.evolve"],
        "integrate.records": c["integrate.records"],
        "integrate.evolve_s": evolve_s,
        "integrate.self_s": self_time("mkdvlab.integrate.evolve"),
        "integrate.us_per_step": 1e6 * evolve_s / steps if steps else 0.0,
        "equations.renorm_calls": c["mkdvlab.equations.renormalized_nonlinear_coeff"],
        "equations.renorm_s": total("mkdvlab.equations.renormalized_nonlinear_coeff"),
        "invariants.drift_report_s": total("mkdvlab.invariants.drift_report"),
        "invariants.states_read": c["invariants.states_read"],
        "transforms.gauge_forward_s": total("mkdvlab.transforms.gauge_forward"),
        "shorttime.windows": c["mkdvlab.shorttime.modulation_decompose"],
        "shorttime.fs_norm_s": total("mkdvlab.shorttime.fs_norm"),
        "shorttime.nk_norm_s": total("mkdvlab.shorttime.nk_norm"),
        "illposed.osc_calls": c["mkdvlab.illposed.osc_single"] + c["mkdvlab.illposed.osc_double"],
        "illposed.appendix_s": total("mkdvlab.illposed.eval_appendix_terms"),
        "illposed.assembly_s": total("mkdvlab.illposed.t2_duhamel_fifth"),
        "illposed.fit_s": self_time("mkdvlab.illposed.numeric_fifth_derivative"),
        "resonance.enumerate_s": total(
            "mkdvlab.resonance.enumerate_n3", "mkdvlab.resonance.enumerate_n5"
        ),
        "resonance.tuples": c["resonance.tuples"],
    }


# Counts repeat exactly between runs; times are medians over traced operations.
LAYER_UNITS = {
    "spectral.fft_calls": "count",
    "spectral.fft_points": "count",
    "spectral.fft_s": "s",
    "integrate.steps": "count",
    "integrate.trajectories": "count",
    "integrate.records": "count",
    "integrate.evolve_s": "s",
    "integrate.self_s": "s",
    "integrate.us_per_step": "us",
    "equations.renorm_calls": "count",
    "equations.renorm_s": "s",
    "invariants.drift_report_s": "s",
    "invariants.states_read": "count",
    "transforms.gauge_forward_s": "s",
    "shorttime.windows": "count",
    "shorttime.fs_norm_s": "s",
    "shorttime.nk_norm_s": "s",
    "illposed.osc_calls": "count",
    "illposed.appendix_s": "s",
    "illposed.assembly_s": "s",
    "illposed.fit_s": "s",
    "resonance.enumerate_s": "s",
    "resonance.tuples": "count",
    "trace.overhead_s": "s",
}


def median_layers(per_op: list) -> dict:
    """Median of each layer value over the traced operations; counts take
    the lower median, so they stay whole numbers."""
    return {
        k: (statistics.median_low if LAYER_UNITS[k] == "count" else statistics.median)(
            m[k] for m in per_op
        )
        for k in per_op[0]
    }
