"""Gauge renormalization of trajectories, and the Miura map.

The gauge transform twists each Fourier mode by the accumulated quartic
phase:

    v(t, n) = exp(-i * 20 * n * Phi(t)) * u(t, n),
    Phi(t)  = int_0^t l4(u(s)) ds,
    l4(u)   = sum_{n1+n2+n3+n4=0} u(n1) u(n2) u(n3) u(n4),

so |v(t,n)| = |u(t,n)| pointwise and v(0) = u(0).  Phi is accumulated by
composite trapezoid on the recorded time grid.  The twist e^{-20 i n Phi}
translates u by 20*Phi in space, and l4 (the mean of u^4) does not change
under a translation, so l4(v) = l4(u) record by record: the inverse twist
(sign +1, the tests' round-trip reference) reads Phi from v directly.

Every real-data synthesis here is one stacked irfft of
:class:`spectral.HalfSpectrum` over all records and derivative orders.
"""

from __future__ import annotations

import numpy as np

from .equations import half_l4_quartic, linear_symbol, nonlinear_operator
from .errors import ConfigurationError
from .integrate import Trajectory
from .spectral import GridSpec, SpectralField, half_spectrum, hermitian_extend, row_chunks

GAUGE_PHASE_RATE = 20.0


def _cumtrapz(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    if len(times) > 1:
        dt = np.diff(times)
        out[1:] = np.cumsum(0.5 * dt * (values[1:] + values[:-1]))
    return out


def accumulate_phase(traj: Trajectory) -> np.ndarray:
    """Cumulative quartic integral Phi on the recorded grid (Phi[0] = 0)."""
    if np.any(np.diff(traj.times) <= 0):
        raise ConfigurationError("trajectory times must be strictly increasing")
    return _cumtrapz(traj.times, half_l4_quartic(traj.grid, traj.half))


def _apply_phase(traj: Trajectory, phi: np.ndarray, sign: float) -> Trajectory:
    """traj with every record twisted by exp(sign 20 i n Phi), the phase table
    made a chunk of records at a time; a chunk's complex phases and their
    exponentials fit spectral.BATCH_ELEMENTS together.  The phase is odd in
    n, so the twisted records stay real and only n >= 0 is twisted.  The
    product is formed as twist * half, the same bits for any chunking."""
    n = half_spectrum(traj.grid).n
    half = np.empty(traj.half.shape, dtype=np.complex128)
    for rows in row_chunks(len(phi), 2 * len(n)):
        twist = np.exp(sign * 1j * GAUGE_PHASE_RATE * np.outer(phi[rows], n))
        np.multiply(twist, traj.half[rows], out=half[rows])
    return Trajectory(
        traj.grid,
        traj.times.copy(),
        half,
        traj.params,
        traj.equation_tag,
        traj.dt,
        traj.record_stride,
    )


def gauge_forward(traj_u: Trajectory) -> Trajectory:
    """NT: u-trajectory -> v-trajectory (identity at t = 0).

    The phase accumulates on the recorded grid; for tight comparisons the
    recording spacing should satisfy stride*dt <= 1e-3 (the phase error
    scales like n * quadrature error, amplified by max_mode).
    """
    return _apply_phase(traj_u, accumulate_phase(traj_u), -1.0)


# ---------------------------------------------------------------------------
# Miura transform
# ---------------------------------------------------------------------------

def miura(v: SpectralField) -> SpectralField:
    """u = v_x + v^2 (dealiased quadratic)."""
    v.require_real(what="miura input")
    h = half_spectrum(v.grid)
    V, Vx = h.synthesize(v.coeff[v.grid.max_mode:], (0, 1))
    return SpectralField(v.grid, hermitian_extend(h.analyze(Vx + V * V)))


def _chain_samples(grid: GridSpec, v_half: np.ndarray, vdot_half: np.ndarray):
    """Real samples (v, v_x, ..., v_xxxx) and (vdot, vdot_x) of half spectra
    c[0..M], any leading axes."""
    h = half_spectrum(grid)
    return h.synthesize(v_half, range(5)), h.synthesize(vdot_half, (0, 1))


def _kdv_residual(Vs: np.ndarray, Vdots: np.ndarray) -> np.ndarray:
    """u_t + u_xxx - 6 u u_x with u = v_x + v^2 and u_t = (2v + d/dx) vdot."""
    V, Vx, Vxx, Vxxx, Vxxxx = Vs
    Vdot, Vdot_x = Vdots
    U = Vx + V * V
    Ux = Vxx + 2.0 * V * Vx
    u_t = 2.0 * V * Vdot + Vdot_x
    # u_xxx = v_xxxx + (v^2)_xxx = v_xxxx + 2(v v_xx + vx^2)_x
    u_xxx = Vxxxx + 2.0 * (V * Vxxx + 3.0 * Vx * Vxx)
    return u_t + u_xxx - 6.0 * U * Ux


def _mkdv_residual(Vs: np.ndarray, Vdots: np.ndarray) -> np.ndarray:
    """v_t + v_xxx - 6 v^2 v_x with v_t = vdot."""
    V, Vx, _, Vxxx, _ = Vs
    return Vdots[0] + Vxxx - 6.0 * V * V * Vx


def kdv_residual_values(grid: GridSpec, v_half: np.ndarray, vdot_half: np.ndarray) -> np.ndarray:
    """Pointwise values of u_t + u_xxx - 6 u u_x with u = v_x + v^2 and
    u_t = (2v + d/dx) vdot, for real v and vdot given by their half spectra.

    Evaluated entirely pointwise on the collocation grid, so no truncation
    enters the identity check.
    """
    return _kdv_residual(*_chain_samples(grid, v_half, vdot_half))


def chain_identity_gap(grid: GridSpec, v_half: np.ndarray, vdot_half: np.ndarray) -> float:
    """sup | KdV-residual(v_x+v^2) - (2v + d/dx) mKdV-residual(v) | for real
    v and vdot given by their half spectra.

    An algebraic identity in (v, vdot); zero to rounding for any fields.
    Every term (including the x-derivative of the residual) is expanded in
    closed form and evaluated pointwise, so no truncation enters.
    """
    Vs, Vdots = _chain_samples(grid, v_half, vdot_half)
    V, Vx, Vxx, _, Vxxxx = Vs
    Vdot_x = Vdots[1]
    lhs = _kdv_residual(Vs, Vdots)
    res = _mkdv_residual(Vs, Vdots)
    # d/dx res = vdot_x + v_xxxx - 12 v vx^2 - 6 v^2 vxx, closed form
    res_x = Vdot_x + Vxxxx - 12.0 * V * Vx * Vx - 6.0 * V * V * Vxx
    rhs = 2.0 * V * res + res_x
    return float(np.max(np.abs(lhs - rhs)))


def miura_residual(traj_v: Trajectory) -> np.ndarray:
    """Per-record L^2 norm of the KdV residual of u = v_x + v^2 at each
    recorded state of an mKdV (``mkdv3``) trajectory, with u_t chained
    through (2v + d/dx) applied to the discrete mKdV right-hand side of that
    state.  This checks the spatial Miura identity record by record; the
    recorded time evolution is never read, so any other flow is refused.
    All records are evaluated as one batch."""
    if traj_v.equation_tag != "mkdv3":
        raise ConfigurationError(
            f"miura_residual needs an mkdv3 trajectory, got {traj_v.equation_tag!r}"
        )
    grid = traj_v.grid
    h = half_spectrum(grid)
    ch = traj_v.half
    p = traj_v.params
    vdot = nonlinear_operator(grid, p, "mkdv3")(ch) + 1j * linear_symbol(h.n, p, "mkdv3") * ch
    vals = _kdv_residual(h.synthesize(ch, range(5)), h.synthesize(vdot, (0, 1)))
    dx = 2.0 * np.pi / grid.phys_points
    return np.sqrt(np.sum(vals**2, axis=-1) * dx / (2.0 * np.pi))
