"""FFT calls per diagnostic: every real-field synthesis is one stacked irfft,
so the count is fixed per call and does not grow with the number of records."""

import numpy as np
import pytest
import scipy.fft

from mkdvlab.equations import EquationParams, derive_gauge_params
from mkdvlab.integrate import StepControl, default_dt, evolve
from mkdvlab.invariants import drift_report
from mkdvlab.spectral import GridSpec, SpectralField
from mkdvlab.transforms import chain_identity_gap, gauge_forward, gauge_inverse, miura_residual

from oracles import random_real_coeffs


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts calls to scipy.fft's four transforms (the package looks them up
    on the module at call time)."""
    counter = {"n": 0}
    for name in ("fft", "ifft", "rfft", "irfft"):
        transform = getattr(scipy.fft, name)

        def counted(*args, _transform=transform, **kwargs):
            counter["n"] += 1
            return _transform(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)

    def calls(fn, *args):
        counter["n"] = 0
        fn(*args)
        return counter["n"]

    return calls


def two_mode(grid):
    return SpectralField.from_modes(grid, {1: 0.05, -1: 0.05, 2: 0.025j, -2: -0.025j})


def physical_trajectories():
    """Two physical-flow trajectories of different lengths on one grid."""
    u0 = two_mode(GridSpec(16))
    p = derive_gauge_params(u0, 40.0)
    ctrl = StepControl(dt=1e-4, record_stride=1)
    return evolve(u0, 0.002, p, ctrl=ctrl), evolve(u0, 0.005, p, ctrl=ctrl)


def test_chain_identity_gap_two_calls(fft_calls, rng):
    grid = GridSpec(16)
    v, vdot = random_real_coeffs(16, rng), random_real_coeffs(16, rng)
    assert fft_calls(chain_identity_gap, grid, v, vdot) <= 2


def test_drift_report_one_call(fft_calls):
    short, long = physical_trajectories()
    assert fft_calls(drift_report, short, 40.0) == 1
    assert fft_calls(drift_report, long, 40.0) == 1


def test_default_dt_one_call(fft_calls):
    u0 = two_mode(GridSpec(16))
    assert fft_calls(default_dt, u0, EquationParams.constrained_family(40.0), "physical_5mkdv") == 1


@pytest.mark.parametrize("transform", [gauge_forward, gauge_inverse])
def test_gauge_calls_independent_of_length(fft_calls, transform):
    short, long = physical_trajectories()
    assert len(short) < len(long)
    assert fft_calls(transform, short) == fft_calls(transform, long)


def test_miura_residual_calls_independent_of_length(fft_calls):
    v0 = two_mode(GridSpec(16))
    ctrl = StepControl(dt=1e-3, record_stride=1)
    short = evolve(v0, 0.005, EquationParams(), "mkdv3", ctrl)
    long = evolve(v0, 0.02, EquationParams(), "mkdv3", ctrl)
    assert len(short) < len(long)
    assert fft_calls(miura_residual, short) == fft_calls(miura_residual, long)
