"""Stiff exponential time integration for every in-scope flow.

The linear phase exp(i*t*mu(n)) is applied exactly in Fourier space by
Cox-Matthews ETD-RK4 with contour-evaluated phi coefficients.  Its stage
weights decay like 1/|mu(n) dt| at high wavenumbers, which suppresses the
non-normal mode-coupling instability of pure rotation, so the step is limited
only by the undamped low band.  The default dt is

    dt = min( 0.5 * min(1e-2, (2*max_mode)^-2),  C / omega_nl )

where omega_nl is a frozen-coefficient estimate of the largest nonlinear
frequency of the initial data at the highest undamped wavenumber
(mu(n) dt <= 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import equations
from .equations import EquationParams, RenormalizedTerms
from .errors import ConfigurationError, DivergenceError, SymmetryError
from .spectral import GridSpec, SpectralField, half_spectrum, hermitian_defects, hermitian_extend

BLOWUP_SUP = 1.0e6
RK4_IMAG_STABILITY = 2.5  # conservative fraction of the 2*sqrt(2) limit


@dataclass
class StepControl:
    """dt = 0 and record_stride = 0 mean 'choose automatically'."""

    dt: float = 0.0
    record_stride: int = 0

    def __post_init__(self):
        if not np.isfinite(self.dt) or self.dt < 0:
            raise ConfigurationError(
                f"dt must be finite and positive (or 0 for automatic), got {self.dt}"
            )
        if self.record_stride < 0:
            raise ConfigurationError("record_stride must be positive (or 0 for automatic)")


@dataclass
class Trajectory:
    """Recorded states of one run; states[i] are dense coefficients -M..M.

    times and states are held as read-only views (the caller's arrays stay
    writable), so tables memoized on the trajectory (the short-time window
    tables and the lag basis they share) cannot go stale.
    """

    grid: GridSpec
    times: np.ndarray
    states: np.ndarray
    params: EquationParams
    equation_tag: str
    dt: float
    record_stride: int
    window_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("times", "states"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            setattr(self, name, view)

    def __len__(self):
        return len(self.times)

    def field(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.states[i].copy())

    def final(self) -> SpectralField:
        return self.field(len(self.times) - 1)

    def hermitian_defects(self) -> np.ndarray:
        """max_n |coeff(-n) - conj(coeff(n))| of every record."""
        return hermitian_defects(self.states)[0]

    @cached_property
    def _first_non_hermitian(self):
        """(index, defect) of the first record that breaks SpectralField.require_real's
        rule (tol 1e-8 relative), or None; the states are read-only, so the
        check runs once per trajectory."""
        defect, scale = hermitian_defects(self.states)
        bad = np.nonzero(defect > 1e-8 * np.maximum(1.0, scale))[0]
        return (int(bad[0]), float(defect[bad[0]])) if bad.size else None

    def require_real(self, what: str):
        """SpectralField.require_real's rule on every record; the error names
        the first offending record."""
        if self._first_non_hermitian is not None:
            i, defect = self._first_non_hermitian
            raise SymmetryError(
                f"{what} record {i} (t={self.times[i]:.6e}) violates Hermitian symmetry"
                f" (defect {defect:.3e})"
            )


def default_dt(u0: SpectralField, p: EquationParams, tag: str) -> float:
    M = u0.grid.max_mode
    dt = 0.5 * min(1.0e-2, (2.0 * M) ** -2)
    # stages at mu(n) dt > 1 are phi-damped; the CFL only involves the
    # undamped low band
    n_eff = min(M, max(2, int(np.ceil((1.0 / dt) ** 0.2))))
    omega = equations.nonlinear_frequency_bound(u0, p, tag, n_top=n_eff)
    if omega > 0:
        dt = min(dt, RK4_IMAG_STABILITY / omega)
    return dt


# ---------------------------------------------------------------------------
# ETD-RK4 stepper
# ---------------------------------------------------------------------------

class _EtdRk4Coefficients:
    """Cox-Matthews coefficients via a Cauchy-integral contour mean
    (radius-1 contour, 32 points) to avoid cancellation for small |L dt|."""

    def __init__(self, imu: np.ndarray, dt: float, n_points: int = 32):
        L = imu * dt
        r = np.exp(2j * np.pi * (np.arange(n_points) + 0.5) / n_points)
        z = L[:, None] + r[None, :]
        ez = np.exp(z)
        self.E = np.exp(L)
        self.E2 = np.exp(L / 2.0)
        self.Q = dt * np.mean((np.exp(z / 2.0) - 1.0) / z, axis=1)
        self.f1 = dt * np.mean((-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z**3, axis=1)
        # 2 f2: Cox-Matthews' f2 weighs Na + Nb twice
        self.f2x2 = 2.0 * (dt * np.mean((2.0 + z + ez * (-2.0 + z)) / z**3, axis=1))
        self.f3 = dt * np.mean((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z**3, axis=1)


def _etdrk4_step(c, co: _EtdRk4Coefficients, nonlinear):
    Nv = nonlinear(c)
    E2c = co.E2 * c
    a = E2c + co.Q * Nv
    Na = nonlinear(a)
    b = E2c + co.Q * Na
    Nb = nonlinear(b)
    cc = co.E2 * a + co.Q * (2.0 * Nb - Nv)
    Nc = nonlinear(cc)
    return co.E * c + co.f1 * Nv + co.f2x2 * (Na + Nb) + co.f3 * Nc


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def uniform_steps(T: float, dt: float) -> tuple:
    """Number of steps evolve takes to T from a requested dt > 0, and the dt
    it steps with (T / steps, at most the requested dt up to round-off)."""
    steps = T / dt
    if not np.isfinite(steps):
        raise ConfigurationError(f"T = {T:g} takes {steps} steps of dt = {dt:g}")
    n_steps = max(1, int(np.ceil(steps - 1e-12)))
    return n_steps, T / n_steps


def step_plan(u0: SpectralField, T: float, p: EquationParams, tag: str,
              ctrl: StepControl) -> tuple:
    """(steps, dt, record_stride, records) of evolve's run: dt and the stride
    resolved where ctrl leaves them automatic (at most 600 recorded intervals),
    and the records kept: the first state, every stride-th step and the last."""
    dt = ctrl.dt if ctrl.dt > 0 else default_dt(u0, p, tag)
    n_steps, dt = uniform_steps(T, dt)
    stride = ctrl.record_stride or max(1, int(np.ceil(n_steps / 600)))
    return n_steps, dt, stride, -(-n_steps // stride) + 1


def evolve(
    u0: SpectralField,
    T: float,
    p: EquationParams,
    tag: str = "physical_5mkdv",
    ctrl: StepControl | None = None,
    renorm_terms: RenormalizedTerms | None = None,
) -> Trajectory:
    """Integrate the selected flow from u0 over [0, T] and record states.

    Every tag runs on the rfft half spectrum c[0..M] of real data, stepping
    the flow's operator from :func:`equations.nonlinear_operator` (the
    renormalized flow calls ``equations.renormalized_nonlinear_coeff`` once
    per stage); initial data that are not Hermitian raise SymmetryError
    naming the tag.  Raises DivergenceError (with last good state) if the
    sup norm exceeds 1e6 or coefficients stop being finite.
    """
    nonlinear = equations.nonlinear_operator(u0.grid, p, tag, renorm_terms)
    if T <= 0:
        raise ConfigurationError("T must be positive")
    if ctrl is None:
        ctrl = StepControl()

    grid = u0.grid
    M = grid.max_mode
    u0.require_real(what=f"{tag} initial data")
    n_steps, dt, stride, n_records = step_plan(u0, T, p, tag, ctrl)

    state = u0.coeff[M:].copy()
    mu = equations.linear_symbol(half_spectrum(grid).n, p, tag)
    co = _EtdRk4Coefficients(1j * mu, dt)

    times = np.empty(n_records)
    states = np.empty((n_records, 2 * M + 1), dtype=np.complex128)

    def record(idx, t, s):
        times[idx] = t
        states[idx] = hermitian_extend(s)

    record(0, 0.0, state)
    rec = 1
    t = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up detector below
        for step in range(1, n_steps + 1):
            state = _etdrk4_step(state, co, nonlinear)
            t = step * dt
            amax = np.max(np.abs(state))
            if not np.isfinite(amax) or amax > BLOWUP_SUP:
                last = Trajectory(
                    grid, times[:rec].copy(), states[:rec].copy(), p, tag, dt, stride
                )
                raise DivergenceError(
                    f"blow-up detected at t={t:.6g} (|coeff|_max={amax:.3e})",
                    t_last=times[rec - 1],
                    state_last=last.final(),
                )
            if step % stride == 0 or step == n_steps:
                record(rec, t, state)
                rec += 1

    # sup-norm check on the final state (coefficient bound is a lower bound
    # on the sup norm; the synthesized check catches the rest)
    sup = float(np.max(np.abs(half_spectrum(grid).synthesize(state, (0,)))))
    if not np.isfinite(sup) or sup > BLOWUP_SUP:
        raise DivergenceError(f"blow-up detected at final time (sup={sup:.3e})")

    return Trajectory(grid, times[:rec], states[:rec], p, tag, dt, stride)

