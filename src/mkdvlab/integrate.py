"""Stiff exponential time integration for every in-scope flow.

The linear phase exp(i*t*mu(n)) is applied exactly in Fourier space by
Cox-Matthews ETD-RK4 with contour-evaluated phi coefficients.  Its stage
weights decay like 1/|mu(n) dt| at high wavenumbers, which suppresses the
non-normal mode-coupling instability of pure rotation, so the step is limited
only by the undamped low band.  The default dt is

    dt = min( 0.5 * min(1e-2, (2*max_mode)^-2),  C / omega_nl )

where omega_nl is a frozen-coefficient estimate of the largest nonlinear
frequency of the initial data over the undamped band (|mu(n)| dt <= 1,
with mu taken without the gauge constants d1, d2).  A step updates its stage
combinations in place; the step loop and the final sup check run under
``scipy.fft.set_backend(spectral.PocketfftBackend)``, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.fft as sfft

from . import equations
from .equations import EquationParams, RenormalizedTerms
from .errors import ConfigurationError, DivergenceError
from .spectral import GridSpec, PocketfftBackend, SpectralField, half_spectrum, hermitian_extend

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
    """Recorded states of one run: half[i] is the half spectrum c[0..M] of
    the real field at times[i], the state evolve steps; c(-n) = conj(c(n)),
    so every record is real by construction.

    times and half are read-only views that share the caller's memory: the
    arrays passed in must not be written after construction, or the records
    change under the tables memoized on the trajectory (the short-time
    window tables and the lag basis they share).
    """

    grid: GridSpec
    times: np.ndarray
    half: np.ndarray
    params: EquationParams
    equation_tag: str
    dt: float
    record_stride: int
    window_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("times", "half"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            setattr(self, name, view)
        if self.half.shape != (len(self.times), self.grid.max_mode + 1):
            raise ConfigurationError(
                f"half must hold one row of max_mode + 1 = {self.grid.max_mode + 1} "
                f"coefficients per time, got {self.half.shape}"
            )

    def __len__(self):
        return len(self.times)

    @property
    def states(self) -> np.ndarray:
        """Dense coefficients -M..M of every record, (records, 2M+1), built on
        each access and read-only."""
        dense = hermitian_extend(self.half)
        dense.flags.writeable = False
        return dense


def default_dt(u0: SpectralField, p: EquationParams, tag: str) -> float:
    M = u0.grid.max_mode
    dt = 0.5 * min(1.0e-2, (2.0 * M) ** -2)
    # stages at |mu(n)| dt > 1 are phi-damped, so the CFL involves only the
    # band below the first such n.  mu is taken without the gauge constants
    # d1, d2: they are as large as the nonlinear frequency, so a mode only
    # they push past 1 is not damped against it
    n = np.arange(1, M + 1)
    mu = equations.linear_symbol(n, replace(p, d1=0.0, d2=0.0), tag)
    damped = n[np.abs(mu) * dt > 1.0]
    n_top = min(M, max(2, int(damped[0]) if len(damped) else M))
    omega = equations.nonlinear_frequency_bound(u0, p, tag, n_top=n_top)
    if not np.isfinite(omega):
        raise ConfigurationError(f"the automatic dt is undefined for these data: the "
                                 f"nonlinear frequency bound of {tag} is {omega}")
    if omega > 0:
        dt = min(dt, RK4_IMAG_STABILITY / omega)
    return dt


# ---------------------------------------------------------------------------
# ETD-RK4 stepper
# ---------------------------------------------------------------------------

class _EtdRk4Coefficients:
    """Cox-Matthews coefficients via a Cauchy-integral contour mean
    (radius-1 contour, 32 points) to avoid cancellation for small |L dt|.
    Where L = 0 they take their exact real limits, so a mode with mu = 0
    (the mean, c(0)) stays real whenever the nonlinearity keeps it real."""

    def __init__(self, imu: np.ndarray, dt: float):
        L = imu * dt
        r = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
        z = L[:, None] + r[None, :]
        ez = np.exp(z)
        self.E = np.exp(L)
        self.E2 = np.exp(L / 2.0)
        self.Q = dt * np.mean((np.exp(z / 2.0) - 1.0) / z, axis=1)
        self.f1 = dt * np.mean((-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z**3, axis=1)
        # 2 f2: Cox-Matthews' f2 weighs Na + Nb twice
        self.f2x2 = 2.0 * (dt * np.mean((2.0 + z + ez * (-2.0 + z)) / z**3, axis=1))
        self.f3 = dt * np.mean((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z**3, axis=1)
        zero = L == 0
        self.Q[zero] = dt / 2.0
        self.f1[zero] = self.f3[zero] = dt / 6.0
        self.f2x2[zero] = dt / 3.0


def _etdrk4_step(c, co: _EtdRk4Coefficients, nonlinear):
    # in place, in the operand order of E2 c + Q Nv, E2 a + Q (2 Nb - Nv), E c + ... + f3 Nc
    Nv = nonlinear(c)
    E2c = co.E2 * c
    a = co.Q * Nv
    Na = nonlinear(np.add(E2c, a, out=a))
    b = co.Q * Na
    Nb = nonlinear(np.add(E2c, b, out=b))
    cc = np.multiply(co.Q, np.subtract(np.multiply(2.0, Nb, out=b), Nv, out=b), out=b)
    Nc = nonlinear(np.add(np.multiply(co.E2, a, out=a), cc, out=cc))
    out = np.add(np.multiply(co.E, c, out=E2c), np.multiply(co.f1, Nv, out=Nv), out=E2c)
    out += np.multiply(co.f2x2, np.add(Na, Nb, out=Na), out=Na)
    out += np.multiply(co.f3, Nc, out=Nc)
    return out


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def uniform_steps(T: float, dt: float) -> tuple:
    """Number of steps evolve takes to T from a requested dt > 0, and the dt
    it steps with (T / steps, at most the requested dt up to a round-off of
    1e-12 relative to steps, so that uniform_steps(T, T / n) takes n steps).
    More than 2**53 steps, past which float64 does not count them exactly
    (nor step * dt), is a ConfigurationError."""
    steps = T / dt
    if not steps <= 2.0**53:
        raise ConfigurationError(f"T = {T:g} takes {steps:.4g} steps of dt = {dt:g}, over 2**53")
    n_steps = max(1, int(np.ceil(steps * (1.0 - 1e-12))))
    return n_steps, T / n_steps


def step_plan(u0: SpectralField, T: float, p: EquationParams, tag: str,
              ctrl: StepControl) -> tuple:
    """(steps, dt, record_stride, records) of evolve's run: the stepped dt and
    the stride, resolved where ctrl leaves them automatic (at most 600 recorded
    intervals), and the records kept: the first state, every stride-th step and the last."""
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
    per stage); initial data that are not Hermitian raise ConfigurationError
    naming the tag.  The records are the stepped half spectra themselves,
    one (records, M+1) buffer.  Raises DivergenceError if a coefficient
    passes 1e6 or stops being finite, or if the final state's sup norm
    passes 1e6; it carries the record before the failing state, its half
    spectrum c[0..M], and its time.
    """
    nonlinear = equations.nonlinear_operator(u0.grid, p, tag, renorm_terms)
    if T <= 0:
        raise ConfigurationError("T must be positive")
    if ctrl is None:
        ctrl = StepControl()

    grid = u0.grid
    state = u0.half(f"{tag} initial data").copy()
    n_steps, dt, stride, n_records = step_plan(u0, T, p, tag, ctrl)

    mu = equations.linear_symbol(half_spectrum(grid).n, p, tag)
    co = _EtdRk4Coefficients(1j * mu, dt)

    times = np.empty(n_records)
    half = np.empty((n_records, len(state)), dtype=np.complex128)
    times[0], half[0] = 0.0, state

    def diverged(message: str, i: int) -> DivergenceError:
        """The error, carrying record i, the last good one."""
        return DivergenceError(message, t_last=times[i], state_last=half[i].copy())

    rec = 1
    t = 0.0
    # errstate: the blow-up detector below reads overflow and NaN itself
    with sfft.set_backend(PocketfftBackend), np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            state = _etdrk4_step(state, co, nonlinear)
            t = step * dt
            if not np.vdot(state, state).real <= BLOWUP_SUP**2:  # else every |c| is below
                amax = np.abs(state).max()
                if not amax <= BLOWUP_SUP:  # NaN fails both tests
                    raise diverged(f"blow-up detected at t={t:.6g} (|coeff|_max={amax:.3e})", rec - 1)
            if step % stride == 0 or step == n_steps:
                times[rec], half[rec] = t, state
                rec += 1

        # sup-norm check on the final state (coefficient bound is a lower bound
        # on the sup norm; the synthesized check catches the rest)
        sup = float(np.max(np.abs(half_spectrum(grid).synthesize(state, range(1)))))
    if not np.isfinite(sup) or sup > BLOWUP_SUP:
        raise diverged(f"blow-up detected at final time (sup={sup:.3e})", rec - 2)

    return Trajectory(grid, times[:rec], half[:rec], p, tag, dt, stride)
