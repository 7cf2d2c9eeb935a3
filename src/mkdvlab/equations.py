"""The flows of the hierarchy, coefficient constraints, gauge constants.

Every flow is d/dt c(n) = i*mu(n)*c(n) + N(c); the integrator applies the
linear part exactly.  Tags and their mu(n):

* ``physical_5mkdv`` (n^5):
    u_t = u_xxxxx - c1*u*u_x*u_xx - c2*u^2*u_xxx - c3*(u_x)^3 - c4*u^4*u_x
  for any coefficients, a pure divergence where c3 = (c1 - 2*c2)/2.
* ``renormalized_5mkdv`` (n^5 + d1*n^3 + d2*n; Fourier side):
    v_t(n) = i*mu(n)*v(n) - 20i n^3 |v(n)|^2 v(n) + 10i n sum_{A3(n)} v v n3^2 v
             + 10i n sum_{A3(n)} v n2 v n3 v + 6i n sum_{A5(n)} v v v v v
  where A3(n)/A5(n) exclude tuples with some component equal to n.
* ``fifth_kdv`` (n^5):  u_t = u_xxxxx - a1*u_x*u_xx - a2*u*u_xxx - a3*u^2*u_x
  with a1 = c1/2, a2 = c1/4, a3 = -3*c1^2/160 (the Miura partner of c1).
* ``kdv3``, ``mkdv3`` (n^3): KdV and defocusing mKdV; ``linear``: N = 0.

:data:`FLOWS` is the one table of tags: each flow's symbol
(:func:`linear_symbol`), its nonlinear term written once as an operator on
the half spectrum c[0..M] of real data (:func:`nonlinear_operator`) and its
step bound (:func:`nonlinear_frequency_bound`).  ``evolve`` steps the
operator and :func:`rhs` adds the symbol to it, so the oracles that pin
``rhs`` pin the code the integrator runs.

Coefficient normalization: coefficients are stored with the constant-free
convolution convention of :mod:`mkdvlab.spectral`; in that convention the
gauge constants are exactly d1 = 10*sum|c[n]|^2 and d2 = 10*(sum n^2|c[n]|^2 +
quartic_l4), with phase rate 20 (:data:`transforms.GAUGE_PHASE_RATE`), where
``quartic_l4 = sum_{n1+..+n4=0} c[n1]..c[n4]`` plays the role of the L^4 norm
to the fourth power.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import scipy.fft as sfft

from .errors import ConfigurationError, ParameterError
from .spectral import (
    GridSpec,
    HalfSpectrum,
    SpectralField,
    half_spectrum,
    hermitian_extend,
    require_hermitian,
)

CONSTRAINT_RTOL = 1e-12


@dataclass
class EquationParams:
    """Nonlinearity coefficients and gauge constants.

    c1..c4: coefficients of the generalized fifth-order equation.
    d1, d2: gauge dispersion constants (frozen at t=0 from the initial data).
    """

    c1: float = 40.0
    c2: float = 10.0
    c3: float = 10.0
    c4: float = -30.0
    d1: float = 0.0
    d2: float = 0.0

    @property
    def constrained(self) -> bool:
        return check_constraints(self.c1, self.c2, self.c3, self.c4)

    @classmethod
    def constrained_family(cls, c1: float = 40.0) -> "EquationParams":
        return cls(c1=c1, c2=c1 / 4.0, c3=c1 / 4.0, c4=-3.0 * c1**2 / 160.0)


def check_constraints(c1, c2, c3, c4) -> bool:
    """True iff c2 = c3 = c1/4 and c4 = -3*c1^2/160 within CONSTRAINT_RTOL."""
    tol1 = CONSTRAINT_RTOL * max(abs(c1) / 4.0, abs(c2), abs(c3), 1e-300)
    tol4 = CONSTRAINT_RTOL * max(abs(c4), 3.0 * c1**2 / 160.0, 1e-300)
    ok23 = abs(c2 - c1 / 4.0) <= tol1 and abs(c3 - c1 / 4.0) <= tol1
    ok4 = abs(c4 + 3.0 * c1**2 / 160.0) <= tol4
    return bool(ok23 and ok4)


def dispersion_mu(n, d1=0.0, d2=0.0):
    """mu(n) = n^5 + d1*n^3 + d2*n.

    An integer n gives one scalar expression, exact at any size for int or
    Fraction d1, d2; numpy arrays use float64, adequate for the integrator
    bands (|n| <= ~4000).
    """
    if isinstance(n, (int, np.integer)) and not isinstance(n, bool):
        n = int(n)
        return n**5 + d1 * n**3 + d2 * n
    arr = np.asarray(n, dtype=float)
    return arr**5 + d1 * arr**3 + d2 * arr


# ---------------------------------------------------------------------------
# Sequence-side quadratic/quartic functionals used by the gauge bookkeeping
# ---------------------------------------------------------------------------

def seq_l2_sq(coeff: np.ndarray) -> float:
    """sum |c[n]|^2 (equals (1/2pi) * integral u^2 for real fields)."""
    return float(np.sum(np.abs(coeff) ** 2))


def seq_h1dot_sq(grid: GridSpec, coeff: np.ndarray) -> float:
    n = grid.modes.astype(float)
    return float(np.sum(n * n * np.abs(coeff) ** 2))


def seq_l4_quartic(grid: GridSpec, coeff: np.ndarray):
    """sum_{n1+n2+n3+n4=0} c[n1]c[n2]c[n3]c[n4] of real fields, one value per
    row of ``coeff`` (dense -M..M on the last axis): :func:`half_l4_quartic`
    of its n >= 0 columns."""
    require_hermitian(coeff, "seq_l4_quartic input")
    half = coeff[..., grid.max_mode:]
    return half_l4_quartic(grid, half.reshape(-1, half.shape[-1])).reshape(half.shape[:-1])[()]


def half_l4_quartic(grid: GridSpec, half: np.ndarray) -> np.ndarray:
    """seq_l4_quartic of every row of 2-D half spectra c[0..M] of real fields.

    Computed as the collocation mean of u^4, exact on the dealiased grid,
    one stacked synthesis per chunk of rows (sized for u, u^2 and u^4).
    """
    out = np.empty(len(half))
    for chunk, (U,) in half_spectrum(grid).synthesize_rows(half, (0,), 2):
        u2 = U * U
        out[chunk] = np.mean(u2 * u2, axis=-1)
    return out


def derive_gauge_params(u0: SpectralField, c1: float = 40.0) -> EquationParams:
    """Freeze the gauge constants from the initial data.

    Only c1 = 40 carries the exact constants d1 = 10*sum|c|^2 and
    d2 = 10*(sum n^2 |c|^2 + quartic); other c1 values are rejected because
    the conservation-law bookkeeping changes.
    """
    if abs(c1 - 40.0) > 1e-12:
        raise ParameterError(
            "gauge constants are derived only for c1 = 40; the renormalized "
            "coefficients for other c1 are not pinned"
        )
    u0.require_real(what="gauge initial data")
    grid = u0.grid
    p2 = seq_l2_sq(u0.coeff)
    q2 = seq_h1dot_sq(grid, u0.coeff)
    r4 = float(seq_l4_quartic(grid, u0.coeff))
    p = EquationParams.constrained_family(c1)
    p.d1 = 10.0 * p2
    p.d2 = 10.0 * (q2 + r4)
    return p


# ---------------------------------------------------------------------------
# Half-spectrum nonlinear operators, one per flow
# ---------------------------------------------------------------------------
#
# Input and output are half spectra c[0..M] of real fields, c(-n) = conj(c(n)).
# One evaluation is one stacked irfft of the derivatives it needs and one
# stacked rfft of the pointwise products (:class:`spectral.HalfSpectrum`).


def _physical(h: HalfSpectrum, p: EquationParams, ch: np.ndarray) -> np.ndarray:
    """-c1 u u_x u_xx - c2 u^2 u_xxx - c3 u_x^3 - c4 u^4 u_x, written as
    -(c2 u^2 u_xx + b u u_x^2 + c4/5 u^5)_x - (c3 - b) u_x^3 with
    b = (c1 - 2 c2)/2.  Where c3 == b (every constrained family) only the
    divergence is left, so the mean is conserved exactly; otherwise the
    divergence's argument and u_x^3 share one stacked rfft."""
    U, Ux, Uxx = h.synthesize(ch, (0, 1, 2))
    u2 = U * U
    b = (p.c1 - 2.0 * p.c2) / 2.0
    G = U * (p.c2 * (U * Uxx) + b * (Ux * Ux) + (p.c4 / 5.0) * (u2 * u2))
    if p.c3 == b:
        return h.minus_dx * sfft.rfft(G, axis=-1)[..., : h.M + 1]
    g, cube = sfft.rfft(np.stack([G, Ux * Ux * Ux]), axis=-1)[..., : h.M + 1]
    return h.minus_dx * g - ((p.c3 - b) / h.P) * cube


def _fifth_kdv_coeffs(p: EquationParams) -> tuple:
    """a1, a2, a3 of the fifth-order KdV flow of the c1 family."""
    return p.c1 / 2.0, p.c1 / 4.0, -3.0 * p.c1**2 / 160.0


def _fifth_kdv(h: HalfSpectrum, p: EquationParams, ch: np.ndarray) -> np.ndarray:
    """-a1 u_x u_xx - a2 u u_xxx - a3 u^2 u_x."""
    a1, a2, a3 = _fifth_kdv_coeffs(p)
    U, Ux, Uxx, Uxxx = h.synthesize(ch, (0, 1, 2, 3))
    return h.analyze(-a1 * Ux * Uxx - a2 * U * Uxxx - a3 * U * U * Ux)


def _third_order(h: HalfSpectrum, p: EquationParams, ch: np.ndarray, cubic=False) -> np.ndarray:
    """6 u u_x (KdV) or, if cubic, 6 u^2 u_x (defocusing mKdV)."""
    U, Ux = h.synthesize(ch, (0, 1))
    return h.analyze(6.0 * U * U * Ux if cubic else 6.0 * U * Ux)


@dataclass
class RenormalizedTerms:
    """Term toggles for the renormalized flow (all on by default; the
    ill-posedness analysis drops the resonant cubic)."""

    resonant_cubic: bool = True
    cubic2: bool = True   # 10 i n sum v v n3^2 v
    cubic3: bool = True   # 10 i n sum v n2 v n3 v
    quintic: bool = True  # 6 i n sum v^5


def renormalized_nonlinear_coeff(
    grid: GridSpec, ch: np.ndarray, terms: RenormalizedTerms
) -> np.ndarray:
    """Nonlinear part of the renormalized flow on the half spectrum c[0..M],
    one row or a batch of rows (leading axes).

    The sums over A3(n) and A5(n) are full convolutions minus their
    hyperplane corrections.  One stacked synthesis gives v, v_x, v_xx for the
    enabled terms; one stacked analysis gives -10 v^2 v_xx - 10 v v_x^2 + 6 v^5
    together with v^2 and v^3.  Every correction is c(n) times a factor, and
    so is the resonant cubic -20i n^3 |c|^2 c = -i n (20 n^2 |c|^2) c, so the
    result is i n (full(n) - S(n) c(n)) with one factor S.  The corrections
    read c(-n), c(-3n) and the coefficients of v^3 at -n and of v^2 at -2n
    as the conjugates of their values at n, 3n, n and 2n.
    """
    h = half_spectrum(grid)
    cubic2, cubic3, quintic = terms.cubic2, terms.cubic3, terms.quintic
    a = ch.real**2 + ch.imag**2  # |c(n)|^2 = c(n) c(-n)
    if not (cubic2 or cubic3 or quintic):
        return h.i_n3 * (-20.0 * a * ch) if terms.resonant_cubic else np.zeros_like(ch)
    # S = w_a n^2 |c|^2 + 10 n^2 l2 [cubic2] + w_h h1 (+ the quintic's), with
    # l2 = sum_m c(m) c(-m) and h1 = sum_m m^2 c(m) c(-m): the resonant cubic
    # gives 20 n^2 |c|^2, 10 sum c(n1) c(n2) n3^2 c(n3) gives
    # 10 (n^2 l2 + 2 h1 - 3 n^2 |c|^2), 10 sum c(n1) n2 c(n2) n3 c(n3) gives
    # 10 (n^2 |c|^2 - h1), and with all three on w_a = 0
    w_a = 20.0 * terms.resonant_cubic - 30.0 * cubic2 + 10.0 * cubic3
    w_h = 20.0 * cubic2 - 10.0 * cubic3
    sums = a @ h.pair_sums  # l2 and h1 of each row
    S = w_h * sums[..., 1:]
    if cubic2:
        S = S + (10.0 * sums[..., :1]) * h.n2
    if w_a:
        S = S + w_a * (h.n2 * a)
    V = h.synthesize(ch, (0,) + (1,) * cubic3 + (2,) * cubic2)
    v0 = V[0]
    g = v0 * V[-1] if cubic2 else 0.0
    if cubic3:
        g = g + V[1] * V[1]
    if not quintic:
        return h.i_n * (h.analyze(-10.0 * v0 * g) - S * ch)
    # 6 sum c(n1)..c(n5): inclusion-exclusion over the five four-sum
    # hyperplanes; with q indices pinned to n the correction is
    # C(5,q) (-1)^(q+1) c(n)^q (c^{*(5-q)})(-(q-1)n).  The q = 5 tuple sits
    # at n = 0, where the factor i n kills it.
    M = h.M
    products = np.empty((3,) + v0.shape)  # v (6 v^4 - 10 g), v^2, v^3
    v2 = np.multiply(v0, v0, out=products[1])
    np.multiply(v2, v0, out=products[2])
    np.multiply(v0, 6.0 * (v2 * v2) - 10.0 * g, out=products[0])
    full, sq, cube = h.analyze(products, 2 * M + 1)
    S = S + np.vecdot(v2, v2)[..., None] * (30.0 / h.P)  # 30 sum_{n1+..+n4=0}
    S = S + 60.0 * ch * (np.conj(sq[..., ::2]) * ch - np.conj(cube[..., : M + 1]))
    m3 = M // 3 + 1
    c = ch[..., :m3]
    S[..., :m3] -= 30.0 * (c * c * c) * np.conj(ch[..., ::3])
    return h.i_n * (full[..., : M + 1] - S * ch)


# ---------------------------------------------------------------------------
# The flows: linear symbol, nonlinear operator and step bound of each tag
# ---------------------------------------------------------------------------

def _on_half(op):
    """The operator builder of a term op(h, p, c) of the half-spectrum tables h."""
    return lambda grid, p, terms: partial(op, half_spectrum(grid), p)


def _renormalized_operator(grid: GridSpec, p: EquationParams, terms):
    terms = RenormalizedTerms() if terms is None else terms
    # the module attribute is looked up at every call, so a wrapper
    # installed on it sees each stage
    return lambda ch: renormalized_nonlinear_coeff(grid, ch, terms)


def _mkdv5_bound(p: EquationParams, s0, s1, s01, M) -> float:
    return (abs(p.c2) * s0**2 * M**3 + abs(p.c1) * s01 * M**2
            + 3.0 * abs(p.c3) * s1**2 * M + abs(p.c4) * s0**4 * M)


def _fifth_kdv_bound(p: EquationParams, s0, s1, s01, M) -> float:
    a1, a2, a3 = _fifth_kdv_coeffs(p)
    return abs(a2) * s0 * M**3 + abs(a1) * s1 * M**2 + abs(a3) * s0**2 * M


class Flow(NamedTuple):
    """d/dt c(n) = i symbol(n, p) c(n) + operator(grid, p, terms)(c) on the
    half spectrum c[0..M] of real data; frequency_bound(p, sup|u|, sup|u_x|,
    sup|u u_x|, M) bounds the nonlinear frequency up to wavenumber M."""

    symbol: Callable
    operator: Callable
    frequency_bound: Callable


#: Every flow tag.  The physical and fifth-order KdV symbols ignore the gauge
#: constants d1, d2 that derive_gauge_params puts in p.
FLOWS = {
    "physical_5mkdv": Flow(lambda n, p: n**5, _on_half(_physical), _mkdv5_bound),
    "renormalized_5mkdv": Flow(
        lambda n, p: dispersion_mu(n, p.d1, p.d2), _renormalized_operator, _mkdv5_bound
    ),
    "fifth_kdv": Flow(lambda n, p: n**5, _on_half(_fifth_kdv), _fifth_kdv_bound),
    "kdv3": Flow(lambda n, p: n**3, _on_half(_third_order),
                 lambda p, s0, s1, s01, M: 6.0 * s0 * M + 6.0 * s1),
    "mkdv3": Flow(lambda n, p: n**3, _on_half(partial(_third_order, cubic=True)),
                  lambda p, s0, s1, s01, M: 6.0 * s0**2 * M + 12.0 * s0 * s1),
    "linear": Flow(lambda n, p: dispersion_mu(n, p.d1, p.d2),
                   lambda grid, p, terms: np.zeros_like, lambda *sups: 0.0),
}


def flow(tag: str) -> Flow:
    """The entry of FLOWS for ``tag``; an unknown tag raises ConfigurationError."""
    try:
        return FLOWS[tag]
    except KeyError:
        raise ConfigurationError(f"unknown equation tag {tag!r}") from None


def linear_symbol(n, p: EquationParams, tag: str) -> np.ndarray:
    """mu(n), in float64 at wavenumbers n, of the linear flow d/dt c = i mu c of ``tag``."""
    return flow(tag).symbol(np.asarray(n, dtype=float), p)


def nonlinear_operator(grid: GridSpec, p: EquationParams, tag: str,
                       renorm_terms: RenormalizedTerms | None = None):
    """The nonlinear term of flow ``tag`` as a function of c[0..M]."""
    return flow(tag).operator(grid, p, renorm_terms)


def nonlinear_frequency_bound(u0: SpectralField, p: EquationParams, tag: str,
                              n_top: float) -> float:
    """Frozen-coefficient bound on |nonlinear frequency| of flow ``tag`` up to
    wavenumber n_top."""
    u0.require_real(what="nonlinear_frequency_bound input")
    U, Ux = half_spectrum(u0.grid).synthesize(u0.coeff[u0.grid.max_mode:], (0, 1))
    s0, s1, s01 = (float(np.max(np.abs(v))) for v in (U, Ux, U * Ux))
    return flow(tag).frequency_bound(p, s0, s1, s01, float(n_top))


def rhs(u: SpectralField, p: EquationParams, tag: str,
        renorm_terms: RenormalizedTerms | None = None) -> SpectralField:
    """du/dt of flow ``tag`` for real u, alias-free: i mu(n) c(n) plus the
    operator ``evolve`` steps, as dense coefficients -M..M."""
    nonlinear = nonlinear_operator(u.grid, p, tag, renorm_terms)
    u.require_real(what=f"{tag} rhs input")
    ch = u.coeff[u.grid.max_mode:]
    mu = linear_symbol(half_spectrum(u.grid).n, p, tag)
    return SpectralField(u.grid, hermitian_extend(nonlinear(ch) + 1j * mu * ch))
