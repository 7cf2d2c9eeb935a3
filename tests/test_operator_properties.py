"""Property tests: the shared real-field synthesis and every half-spectrum
operator against their definition-level references on random Hermitian
bands, and one table of flows shared by ``evolve`` and ``rhs``."""

from datetime import timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mkdvlab.equations as equations
from mkdvlab.equations import EquationParams, RenormalizedTerms, linear_symbol, rhs
from mkdvlab.errors import ConfigurationError
from mkdvlab.integrate import StepControl, evolve
from mkdvlab.spectral import GridSpec, SpectralField, half_spectrum

from oracles import (
    analyze_complex,
    mirror_defect,
    random_real_coeffs,
    rhs_fifth_kdv_oracle,
    rhs_physical_oracle,
    rhs_renormalized_oracle,
    rhs_third_order_oracle,
    synthesize_values,
)

# deterministic, so Tier-1 reruns the same examples; M <= 4 keeps the O(M^5)
# quintic oracles under a second per example
PROPERTY = settings(
    max_examples=25, deadline=timedelta(seconds=5), derandomize=True, database=None
)
RTOL = 1e-12

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


@st.composite
def hermitian_bands(draw):
    """Dense coefficients -M..M of a random real field, M in 1..4, with some
    mode n >= 1 of modulus >= 0.1 so that the right-hand sides are not all
    round-off."""
    M = draw(st.integers(1, 4))
    half = np.array(
        [draw(unit)] + [complex(draw(unit), draw(unit)) for _ in range(M)], dtype=complex
    )
    assume(np.max(np.abs(half[1:])) >= 0.1)
    c = np.concatenate([np.conj(half[:0:-1]), half])
    return SpectralField(GridSpec(M), c)


@st.composite
def hermitian_batches(draw):
    """Half spectra c[0..M] of 1..4 random real fields on one grid, M in 1..8,
    each with some mode n >= 1 of modulus >= 0.1."""
    M = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 4))
    ch = np.array(
        [[draw(unit)] + [complex(draw(unit), draw(unit)) for _ in range(M)] for _ in range(rows)]
    )
    assume(np.all(np.max(np.abs(ch[:, 1:]), axis=1) >= 0.1))
    return GridSpec(M), ch


@PROPERTY
@given(batch=hermitian_batches())
def test_shared_synthesis_matches_complex_reference(batch):
    grid, ch = batch
    h = half_spectrum(grid)
    n = grid.modes.astype(float)
    for c_half in ch:
        dense = np.concatenate([np.conj(c_half[:0:-1]), c_half])
        for k in range(5):
            want = synthesize_values(grid, (1j * n) ** k * dense).real
            (got,) = h.synthesize(c_half, range(k, k + 1))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # and the rfft analysis back against the full complex fft
        values = h.synthesize(c_half, range(1))[0]
        want = analyze_complex(grid, values)[grid.max_mode:]
        assert np.max(np.abs(h.analyze(values) - want)) <= 1e-13 * np.max(np.abs(want))
    assert h.synthesize(ch, range(5)).shape == (5, len(ch), grid.phys_points)


@PROPERTY
@given(batch=hermitian_batches())
def test_batches_equal_row_by_row_bitwise(batch):
    grid, ch = batch
    h = half_spectrum(grid)
    stacked = h.synthesize(ch, range(5))
    for i, c_half in enumerate(ch):
        assert np.array_equal(stacked[:, i], h.synthesize(c_half, range(5)))
        assert np.array_equal(h.analyze(stacked[:, i]), h.analyze(stacked)[:, i])
    # every operator takes a leading batch axis; these are bitwise row by row
    # (the renormalized one, whose per-row sums may run in another order, is
    # checked at round-off below)
    flows = [
        ("mkdv3", EquationParams()),
        ("kdv3", EquationParams()),
        ("fifth_kdv", EquationParams()),
        ("physical_5mkdv", EquationParams.constrained_family(40.0)),
        ("physical_5mkdv", EquationParams(40.0, 11.0, 9.0, -25.0)),
    ]
    for tag, p in flows:
        op = equations.nonlinear_operator(grid, p, tag)
        rows = op(ch)
        for i, c_half in enumerate(ch):
            assert np.array_equal(rows[i], op(c_half))


def test_half_spectrum_keeps_no_per_call_state():
    # every flow, and every (cubic2, cubic3) mask of the renormalized one,
    # leaves the shared HalfSpectrum as built: ints and read-only tables
    grid = GridSpec(12)
    h = half_spectrum(grid)
    built = set(vars(h))
    u0 = SpectralField.from_modes(grid, {1: 0.05, -1: 0.05, 2: 0.025j, -2: -0.025j})
    p = equations.derive_gauge_params(u0, 40.0)
    runs = [(tag, None) for tag in equations.FLOWS] + [
        ("renormalized_5mkdv", RenormalizedTerms(cubic2=c2, cubic3=c3))
        for c2 in (False, True) for c3 in (False, True)]
    for tag, terms in runs:
        evolve(u0, 4e-5, p, tag, StepControl(dt=1e-5, record_stride=1), terms)
    assert set(vars(h)) == built
    for name, value in vars(h).items():
        assert type(value) is int or (
            type(value) is np.ndarray and not value.flags.writeable), name


def assert_matches(got: SpectralField, want: np.ndarray):
    assert mirror_defect(got.coeff) == 0.0
    assert np.max(np.abs(got.coeff - want)) <= RTOL * np.max(np.abs(want))


MASKS = [
    dict(resonant_cubic=True, cubic2=False, cubic3=False, quintic=False),
    dict(resonant_cubic=False, cubic2=True, cubic3=False, quintic=False),
    dict(resonant_cubic=False, cubic2=False, cubic3=True, quintic=False),
    dict(resonant_cubic=False, cubic2=False, cubic3=False, quintic=True),
    dict(resonant_cubic=True, cubic2=True, cubic3=True, quintic=True),
]


@pytest.mark.parametrize("mask", MASKS, ids=lambda m: "+".join(k for k, v in m.items() if v))
def test_renormalized_batch_equals_row_by_row(mask, rng):
    grid = GridSpec(16)
    ch = np.stack([random_real_coeffs(16, rng)[16:] for _ in range(10)])
    terms = RenormalizedTerms(**mask)
    batch = equations.renormalized_nonlinear_coeff(grid, ch, terms)
    rows = np.stack([equations.renormalized_nonlinear_coeff(grid, c, terms) for c in ch])
    assert batch.shape == ch.shape
    assert np.max(np.abs(batch - rows)) <= 1e-15 * np.max(np.abs(rows))


@pytest.mark.parametrize("mask", MASKS, ids=lambda m: "+".join(k for k, v in m.items() if v))
@PROPERTY
@given(u=hermitian_bands(), d1=st.floats(0.0, 5.0), d2=st.floats(0.0, 5.0))
def test_renormalized_matches_oracle(mask, u, d1, d2):
    p = EquationParams.constrained_family(40.0)
    p.d1, p.d2 = d1, d2
    got = rhs(u, p, "renormalized_5mkdv", RenormalizedTerms(**mask))
    assert_matches(got, rhs_renormalized_oracle(u.coeff, u.grid.max_mode, d1, d2, **mask))


@PROPERTY
@given(u=hermitian_bands(), c1=st.floats(-60.0, 60.0))
def test_physical_constrained_matches_oracle(u, c1):
    p = EquationParams.constrained_family(c1)
    got = rhs(u, p, "physical_5mkdv")
    assert_matches(got, rhs_physical_oracle(u.coeff, u.grid.max_mode, p.c1, p.c2, p.c3, p.c4))


@PROPERTY
@given(u=hermitian_bands(), cs=st.tuples(*[st.floats(-60.0, 60.0)] * 4))
def test_physical_unconstrained_matches_oracle(u, cs):
    p = EquationParams(*cs)
    assume(not p.constrained)
    got = rhs(u, p, "physical_5mkdv")
    assert_matches(got, rhs_physical_oracle(u.coeff, u.grid.max_mode, *cs))


def fifth_kdv_oracle(c, M, p):
    """The fifth-order KdV flow of the c1 family: a1, a2, a3 from c1."""
    return rhs_fifth_kdv_oracle(c, M, p.c1 / 2.0, p.c1 / 4.0, -3.0 * p.c1**2 / 160.0)


@PROPERTY
@given(u=hermitian_bands(), c1=st.floats(-80.0, 80.0))
def test_fifth_kdv_matches_oracle(u, c1):
    p = EquationParams(c1=c1)
    assert_matches(rhs(u, p, "fifth_kdv"), fifth_kdv_oracle(u.coeff, u.grid.max_mode, p))


@pytest.mark.parametrize("which", ["kdv", "mkdv_defocusing"])
@PROPERTY
@given(u=hermitian_bands())
def test_third_order_matches_oracle(which, u):
    got = rhs(u, EquationParams(), {"kdv": "kdv3", "mkdv_defocusing": "mkdv3"}[which])
    assert_matches(got, rhs_third_order_oracle(u.coeff, u.grid.max_mode, which))


# the definition-level right-hand side of every tag, at params p; the
# physical and fifth-order KdV flows ignore the gauge constants in p
ORACLES = {
    "physical_5mkdv": lambda c, M, p: rhs_physical_oracle(c, M, p.c1, p.c2, p.c3, p.c4),
    "renormalized_5mkdv": lambda c, M, p: rhs_renormalized_oracle(c, M, p.d1, p.d2),
    "fifth_kdv": fifth_kdv_oracle,
    "kdv3": lambda c, M, p: rhs_third_order_oracle(c, M, "kdv"),
    "mkdv3": lambda c, M, p: rhs_third_order_oracle(c, M, "mkdv_defocusing"),
    "linear": lambda c, M, p: rhs_renormalized_oracle(c, M, p.d1, p.d2, False, False, False, False),
}


def test_every_tag_has_an_oracle():
    assert set(ORACLES) == set(equations.FLOWS)


@pytest.mark.parametrize("tag", sorted(ORACLES))
def test_rhs_matches_oracle_for_every_tag(tag, rng):
    u = SpectralField(GridSpec(4), random_real_coeffs(4, rng, amplitude=0.6))
    p = EquationParams.constrained_family(40.0)
    p.d1, p.d2 = 2.5, -1.25
    assert_matches(rhs(u, p, tag), ORACLES[tag](u.coeff, 4, p))


@pytest.mark.parametrize("tag", sorted(ORACLES))
def test_evolve_without_nonlinearity_turns_each_mode_by_its_symbol(tag, monkeypatch):
    monkeypatch.setattr(equations, "nonlinear_operator", lambda *args: np.zeros_like)
    grid = GridSpec(8)
    u0 = SpectralField.from_modes(grid, {1: 0.3, -1: 0.3, 2: 0.2j, -2: -0.2j})
    p = EquationParams.constrained_family(40.0)
    p.d1, p.d2 = 1.0, 2.0
    traj = evolve(u0, 0.1, p, tag, StepControl(dt=0.05))
    want = u0.coeff * np.exp(1j * linear_symbol(grid.modes, p, tag) * 0.1)
    assert np.max(np.abs(traj.states[-1] - want)) < 1e-12


def test_symbol_of_every_tag():
    n = np.arange(-3.0, 4.0)
    p = EquationParams(d1=1.0, d2=2.0)
    for tag in ("physical_5mkdv", "fifth_kdv"):
        assert np.array_equal(linear_symbol(n, p, tag), n**5)
    for tag in ("renormalized_5mkdv", "linear"):
        assert np.array_equal(linear_symbol(n, p, tag), n**5 + n**3 + 2.0 * n)
    for tag in ("kdv3", "mkdv3"):
        assert np.array_equal(linear_symbol(n, p, tag), n**3)


@pytest.mark.parametrize("call", [
    lambda u, p: rhs(u, p, "kdv5"),
    lambda u, p: linear_symbol(u.grid.modes, p, "kdv5"),
    lambda u, p: evolve(u, 0.1, p, "kdv5"),
    lambda u, p: equations.nonlinear_operator(u.grid, p, "kdv5"),
    lambda u, p: equations.nonlinear_frequency_bound(u, p, "kdv5", 4),
], ids=["rhs", "linear_symbol", "evolve", "nonlinear_operator", "nonlinear_frequency_bound"])
def test_unknown_tag_rejected(call):
    u = SpectralField.from_modes(GridSpec(4), {1: 0.1, -1: 0.1})
    with pytest.raises(ConfigurationError, match="unknown equation tag 'kdv5'"):
        call(u, EquationParams())


def test_evolve_and_rhs_share_the_renormalized_operator(monkeypatch):
    calls = []

    def no_nonlinearity(grid, ch, terms):
        calls.append(ch.shape)
        return np.zeros_like(ch)

    monkeypatch.setattr(equations, "renormalized_nonlinear_coeff", no_nonlinearity)
    grid = GridSpec(8)
    u0 = SpectralField.from_modes(grid, {1: 0.3, -1: 0.3, 2: 0.2j, -2: -0.2j})
    p = EquationParams.constrained_family(40.0)
    p.d1, p.d2 = 1.0, 2.0

    mu = equations.dispersion_mu(grid.modes, p.d1, p.d2)
    got = rhs(u0, p, "renormalized_5mkdv")
    assert calls == [(9,)]
    assert np.array_equal(got.coeff, 1j * mu * u0.coeff)

    traj = evolve(u0, 0.1, p, "renormalized_5mkdv", StepControl(dt=0.05))
    assert calls == [(9,)] * (1 + 2 * 4)  # one call per stage, four stages a step
    want = u0.coeff * np.exp(1j * mu * 0.1)
    assert np.max(np.abs(traj.states[-1] - want)) < 1e-12
