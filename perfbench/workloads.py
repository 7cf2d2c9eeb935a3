"""The four verification workloads of the benchmark.

Each workload turns a seed into inputs (``make_inputs``), runs one full
verification on them (``run``, the timed part) and gates the verdict
(``check``, untimed).  Every call into mkdvlab goes through a module
attribute (``integrate.evolve``, never a name bound by ``from ... import``),
so the wrappers of ``tracing.py`` see it.

Why each workload exists, and which layer metric should move it, is in
``README.md`` next to this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import mkdvlab.equations as equations
import mkdvlab.illposed as illposed
import mkdvlab.integrate as integrate
import mkdvlab.invariants as invariants
import mkdvlab.resonance as resonance
import mkdvlab.shorttime as shorttime
import mkdvlab.spectral as spectral
import mkdvlab.transforms as transforms

# Acceptance tolerances (criteria 1, 3, 6 and 8 of the test suite).
DRIFT_GATE = 1e-7
FIFTH_GATE = 1e-3
SLOPE_GATE = (1.9, 2.1)
GAUGE_GATE = 1e-5

# conserve-m256: criterion 1 at M = 256 (P = 1600), T = 0.05, automatic dt.
CONSERVE_M = 256
CONSERVE_T = 0.05

# fifth-derivative-m64: criterion 8.
FIFTH_M = 64
FIFTH_SPEC = dict(N=8, s=1.0, t=0.005)
FIFTH_DELTAS = (0.008, 0.012, 0.016, 0.02, 0.024)
FIFTH_DT = 2e-6

# exact-sweep: criterion 6 sweep plus the resonance enumerators.
SWEEP_NS = tuple(2**k for k in range(6, 13))
SWEEP_S, SWEEP_T = 1.0, 1e-4
N3_RADIUS, N5_RADIUS = 40, 12
SWEEP_N_RANGE = 12

# diagnostics-m64: the CLI defaults of `gauge-check` then `norms`.
DIAG_M = 64
DIAG_T = 0.01
NORMS_S = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], dict]
    run: Callable[[dict], dict]
    check: Callable[[dict, dict], tuple]


def _two_modes(max_mode: int, seed: int) -> spectral.SpectralField:
    """0.1 cos x + 0.05 cos(2x + theta), theta drawn from the seed."""
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
    b = 0.025 * np.exp(1j * theta)
    grid = spectral.GridSpec(max_mode)
    return spectral.SpectralField.from_modes(
        grid, {1: 0.05, -1: 0.05, 2: b, -2: np.conj(b)}
    )


# ---------------------------------------------------------------------------
# conserve-m256
# ---------------------------------------------------------------------------

def conserve_inputs(seed: int) -> dict:
    return {"u0": _two_modes(CONSERVE_M, seed)}


def conserve_run(inp: dict) -> dict:
    p = equations.EquationParams.constrained_family(40.0)
    traj = integrate.evolve(
        inp["u0"], CONSERVE_T, p, "physical_5mkdv", integrate.StepControl()
    )
    return {"report": invariants.drift_report(traj, 40.0)}


def conserve_check(inp: dict, out: dict) -> tuple:
    drift = max(out["report"].relative_drift)
    return drift < DRIFT_GATE, {"max_relative_drift": drift}


# ---------------------------------------------------------------------------
# fifth-derivative-m64
# ---------------------------------------------------------------------------

def translated_support(x0: float) -> dict:
    """Criterion-8 data u(x - x0): coefficient n picks up exp(-i n x0)."""
    spec = illposed.CounterexampleSpec(**FIFTH_SPEC)
    supp = illposed.symmetrized_support(illposed.counterexample_support(spec))
    return {n: a * np.exp(-1j * n * x0) for n, a in supp.items()}


def fifth_inputs(seed: int) -> dict:
    x0 = float(np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi))
    supp = translated_support(x0)
    grid = spectral.GridSpec(FIFTH_M)
    u0 = spectral.SpectralField.zeros(grid)
    for n, a in supp.items():
        u0.coeff[n + FIFTH_M] = a
    return {"x0": x0, "support": supp, "u0": u0}


def fifth_run(inp: dict) -> dict:
    spec = illposed.CounterexampleSpec(**FIFTH_SPEC)
    assembly, skipped = illposed.t2_duhamel_fifth(
        inp["support"], spec, route="normal_form"
    )
    flow = equations.RenormalizedTerms(
        resonant_cubic=False, cubic2=True, cubic3=False, quintic=False
    )
    p = equations.EquationParams.constrained_family(40.0)
    p.d1 = p.d2 = 0.0
    a5, report = illposed.numeric_fifth_derivative(
        inp["u0"], spec.t, FIFTH_DELTAS, p, flow,
        ctrl=integrate.StepControl(dt=FIFTH_DT, record_stride=10**9),
    )
    return {"assembly": assembly, "skipped": skipped, "a5": a5, "report": report}


def fifth_check(inp: dict, out: dict) -> tuple:
    ana = np.zeros(2 * FIFTH_M + 1, dtype=complex)
    for n, v in out["assembly"].items():
        if abs(n) <= FIFTH_M:
            ana[n + FIFTH_M] = v
    rel = float(np.max(np.abs(out["a5"].coeff - ana)) / np.max(np.abs(ana)))
    ok = out["skipped"] == 0 and rel < FIFTH_GATE
    return ok, {
        "relative_error": rel,
        "skipped_outer_resonant": out["skipped"],
        "vandermonde_condition": out["report"]["vandermonde_condition"],
        "x0": inp["x0"],
    }


# ---------------------------------------------------------------------------
# exact-sweep
# ---------------------------------------------------------------------------

def sweep_inputs(seed: int) -> dict:
    n = int(np.random.default_rng(seed).integers(-SWEEP_N_RANGE, SWEEP_N_RANGE + 1))
    return {"n": n}


def sweep_run(inp: dict) -> dict:
    _, slope = illposed.growth_experiment(SWEEP_NS, s=SWEEP_S, t=SWEEP_T)
    triples = resonance.enumerate_n3(inp["n"], N3_RADIUS)
    quints = resonance.enumerate_n5(inp["n"], N5_RADIUS)
    return {"slope": slope, "triples": triples, "quints": quints}


def tuples_sound(tuples: np.ndarray, n: int) -> bool:
    """Every row sums to n and no sum of all but one entry vanishes."""
    return bool(np.all(tuples.sum(axis=1) == n) and np.all(tuples != n))


def sweep_check(inp: dict, out: dict) -> tuple:
    n = inp["n"]
    t3 = np.array([(t.n1, t.n2, t.n3) for t in out["triples"]], dtype=np.int64)
    t5 = np.array(
        [(q.n1, q.n2, q.n3, q.n4, q.n5) for q in out["quints"]], dtype=np.int64
    )
    slope = out["slope"]
    ok = (
        SLOPE_GATE[0] <= slope <= SLOPE_GATE[1]
        and len(t3) > 0 and len(t5) > 0
        and tuples_sound(t3, n) and tuples_sound(t5, n)
    )
    return ok, {"slope": slope, "n": n, "triples": len(t3), "quintuples": len(t5)}


# ---------------------------------------------------------------------------
# diagnostics-m64
# ---------------------------------------------------------------------------

def diagnostics_inputs(seed: int) -> dict:
    return {"u0": _two_modes(DIAG_M, seed)}


def _norms_ctrl(grid: spectral.GridSpec) -> tuple:
    """The `norms` subcommand's k range and its dt for the finest window."""
    k_max = max(1, int(np.ceil(np.log2(max(grid.max_mode, 2)))))
    span_min = 4.0 * 4.0 ** (-k_max)
    return k_max, integrate.StepControl(dt=span_min / 64 * 0.98, record_stride=1)


def diagnostics_run(inp: dict) -> dict:
    u0 = inp["u0"]
    grid = u0.grid
    p = equations.derive_gauge_params(u0, 40.0)
    ctrl = integrate.StepControl()
    traj_u = integrate.evolve(u0, DIAG_T, p, "physical_5mkdv", ctrl)
    traj_v = integrate.evolve(u0, DIAG_T, p, "renormalized_5mkdv", ctrl)
    nt_u = transforms.gauge_forward(traj_u)
    n = grid.modes.astype(float)
    w = (1.0 + n * n) ** 2
    m = min(len(nt_u), len(traj_v))
    h2 = np.sqrt(np.sum(w * np.abs(nt_u.states[:m] - traj_v.states[:m]) ** 2, axis=1))

    k_max, norms_ctrl = _norms_ctrl(grid)
    traj = integrate.evolve(u0, DIAG_T, p, "physical_5mkdv", norms_ctrl)
    fk = [shorttime.fk_norm(traj, k, DIAG_T) for k in range(1, k_max + 1)]
    nk = [shorttime.nk_norm(traj, k, DIAG_T) for k in range(1, k_max + 1)]
    fs = shorttime.fs_norm(traj, NORMS_S, DIAG_T)
    rep = invariants.drift_report(traj, 40.0)
    return {
        "h2_discrepancy": float(np.max(h2)),
        "fk": fk, "nk": nk, "fs": fs,
        "drift": max(rep.relative_drift),
        "records": len(traj),
    }


def diagnostics_check(inp: dict, out: dict) -> tuple:
    fs = out["fs"]
    ok = (
        out["h2_discrepancy"] < GAUGE_GATE
        and math.isfinite(fs) and fs > 0
        and all(math.isfinite(v) for v in out["fk"] + out["nk"])
    )
    return ok, {
        "max_h2_discrepancy": out["h2_discrepancy"],
        "fs_norm": fs,
        "norms_run_drift": out["drift"],
        "records": out["records"],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("conserve-m256", conserve_inputs, conserve_run, conserve_check),
        Workload("fifth-derivative-m64", fifth_inputs, fifth_run, fifth_check),
        Workload("exact-sweep", sweep_inputs, sweep_run, sweep_check),
        Workload("diagnostics-m64", diagnostics_inputs, diagnostics_run, diagnostics_check),
    )
}
