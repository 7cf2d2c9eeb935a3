"""Self-tests of the benchmark: its counters, its workloads and its contract.

Run from the root of a checkout with ``python -m pytest perfbench -q``
(about a minute; the conserve-m256 step count runs the full workload).
A wrapper that drops calls would report a false "fewer FFTs" gain, so the
FFT counts are pinned to the number each flow makes per ETD step.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import mkdvlab.equations as equations  # noqa: E402
import mkdvlab.integrate as integrate  # noqa: E402
import mkdvlab.spectral as spectral  # noqa: E402
import mkdvlab.illposed as illposed  # noqa: E402
from tracing import LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import FIFTH_SPEC, WORKLOADS, translated_support  # noqa: E402

COUNTS = [k for k, unit in LAYER_UNITS.items() if unit == "count"]

# FFTs per ETD-RK4 step (4 stages): the physical flow and the cubic2-only
# flow make 3 syntheses + 1 analysis per stage, the full renormalized flow 12.
CUBIC2_ONLY = equations.RenormalizedTerms(
    resonant_cubic=False, cubic2=True, cubic3=False, quintic=False
)
FLOWS = {
    "physical": ("physical_5mkdv", None, 16),
    "renormalized": ("renormalized_5mkdv", equations.RenormalizedTerms(), 48),
    "cubic2-only": ("renormalized_5mkdv", CUBIC2_ONLY, 16),
}
SUP_CHECK_FFTS = 1  # every evolve synthesizes its final state once
AUTO_DT_FFTS = 2    # the automatic dt synthesizes u and u_x of the data


def traced_evolve(*args, **kwargs) -> dict:
    with Tracer() as tr:
        integrate.evolve(*args, **kwargs)  # looked up after the wrappers are in
    return layer_metrics(tr)


def hundred_steps(flow: str, seed: int, auto_dt: bool) -> dict:
    tag, terms, _ = FLOWS[flow]
    grid = spectral.GridSpec(16)
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
    b = 0.025 * np.exp(1j * theta)
    u0 = spectral.SpectralField.from_modes(grid, {1: 0.05, -1: 0.05, 2: b, -2: np.conj(b)})
    p = equations.derive_gauge_params(u0, 40.0)
    dt = 0.5 * (2.0 * grid.max_mode) ** -2  # the automatic dt at M = 16, 2**-11
    ctrl = integrate.StepControl(dt=0.0 if auto_dt else dt)
    return traced_evolve(u0, 100 * dt, p, tag, ctrl, renorm_terms=terms)


@pytest.mark.parametrize("flow", sorted(FLOWS))
@pytest.mark.parametrize("auto_dt", [False, True])
def test_fft_calls_per_step(flow, auto_dt):
    per_step = FLOWS[flow][2]
    fixed = SUP_CHECK_FFTS + (AUTO_DT_FFTS if auto_dt else 0)
    runs = [hundred_steps(flow, seed, auto_dt) for seed in (1, 1, 2)]
    for m in runs:
        assert m["integrate.steps"] == 100
        assert m["integrate.trajectories"] == 1
        assert m["integrate.records"] == 101
        assert m["spectral.fft_calls"] == 100 * per_step + fixed
        renorm_stages = 0 if flow == "physical" else 400
        assert m["equations.renorm_calls"] == renorm_stages
    assert all({k: m[k] for k in COUNTS} == {k: runs[0][k] for k in COUNTS} for m in runs)


def test_tracer_restores_attributes():
    before = integrate.evolve
    with Tracer():
        assert integrate.evolve is not before
    assert integrate.evolve is before


def test_self_time_excludes_children():
    m = hundred_steps("renormalized", 1, auto_dt=False)
    assert 0.0 < m["integrate.self_s"] < m["integrate.evolve_s"]
    assert m["equations.renorm_s"] + m["integrate.self_s"] <= m["integrate.evolve_s"]


def run_op(name: str, seed: int) -> dict:
    w = WORKLOADS[name]
    inp = w.make_inputs(seed)
    with Tracer() as tr:
        out = w.run(inp)
    ok, checks = w.check(inp, out)
    assert ok, checks
    return layer_metrics(tr) | {"checks": checks}


def test_conserve_takes_26215_steps():
    m = run_op("conserve-m256", 1)
    assert m["integrate.steps"] == 26215
    assert m["integrate.trajectories"] == 1
    assert m["equations.renorm_calls"] == 0


def independent_count(n: int, radius: int, k: int) -> int:
    """k-tuples of [-radius, radius] with no entry equal to n, summing to n,
    counted by polynomial convolution rather than enumeration."""
    ind = np.ones(2 * radius + 1, dtype=np.int64)
    if abs(n) <= radius:
        ind[n + radius] = 0
    poly = ind
    for _ in range(k - 1):
        poly = np.convolve(poly, ind)
    return int(poly[n + k * radius])


@pytest.mark.parametrize("name", ["exact-sweep", "diagnostics-m64"])
def test_counts_repeat_across_runs_and_seeds(name):
    a1, a2, b = run_op(name, 11), run_op(name, 11), run_op(name, 12)
    assert {k: a1[k] for k in COUNTS} == {k: a2[k] for k in COUNTS}
    seed_free = [k for k in COUNTS if k != "resonance.tuples"]
    assert {k: a1[k] for k in seed_free} == {k: b[k] for k in seed_free}
    for m in (a1, b):
        if name == "exact-sweep":
            n = m["checks"]["n"]
            want = independent_count(n, 40, 3) + independent_count(n, 12, 5)
            assert m["resonance.tuples"] == want
        else:
            assert m["integrate.records"] == 329 + 329 + 670
            assert m["invariants.states_read"] == 670


def test_fifth_reference_is_translation_equivariant():
    spec = illposed.CounterexampleSpec(**FIFTH_SPEC)
    x0 = 1.234
    base, _ = illposed.t2_duhamel_fifth(translated_support(0.0), spec, route="normal_form")
    moved, _ = illposed.t2_duhamel_fifth(translated_support(x0), spec, route="normal_form")
    scale = max(abs(v) for v in base.values())
    err = max(abs(moved[n] - base[n] * np.exp(-1j * n * x0)) for n in base)
    assert err < 1e-12 * scale


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = bench("--workload", "diagnostics-m64", "--seed", "5", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "exact-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
