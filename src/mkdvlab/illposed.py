"""High-frequency growth counterexample: data, quintic normal-form terms,
remainder bounds, the t*N^2 growth experiment, and a numeric cross-check.

Everything here works with the renormalized flow's second Picard iterate at
fifth order in the data amplitude.  For data v(0) = delta * v0 the solution
expands as v = delta*v1 + delta^3*w3 + delta^5*w5 + ..., and w5 is a sum of
closed-form double oscillatory integrals over frequency tuples drawn from
the (finite) support of v0:

    w5(t, n) = sum  C_X(n) K_X * C_Y(n_s) K_Y * v0^5
               * exp(i t mu(n)) * I2(phi_out, phi_in, t)

with C = 10i*freq for the two cubic terms, K the respective kernels, and

    I2(a, b, t) = int_0^t e^{i a t'} E_{t'}(b) dt',
    E_t(b)      = int_0^t e^{i b s} ds = t e^{i t b/2} sinc(t b/2).

Integration by parts in t' splits each tuple into a boundary piece and a
distributed piece (phi_out != 0 on every tuple, see `_QuinticTable`); the
distributed pieces are the quintic normal-form terms, and boundary plus
distributed is the one w5 assembly here (`t2_duhamel_fifth`).  The direct sum of I2 closed forms is
kept only tuple by tuple, as the tests' reference.  Reported norms use the
structure-only normalization (the 10i prefactors dropped):

    structure_tuple = (n * n_s * K_X * K_Y / phi_out) * v0^5 * E_t(phi_out+phi_in)

All phases are exact integers (arbitrary precision), so resonant tuples are
detected exactly.  Every tuple sum takes one array path: index arrays over
the leaves (A3 triples from `_leaf_triples`), exact phases with mu once per
distinct integer, one E_t (`osc_single`) that takes scalars or arrays, and
per-mode sums in walk order (`_sum_by_mode`); I2 (`osc_double`) takes the
same arguments.  The quintic terms use one table per call (`_QuinticTable`),
factored by (inner triple, outer pair) so that a pair's mode, amplitude,
phases and E_t are formed once and broadcast over its three slots and its
inner cubic terms; D0 is its m0 pair.  Legs and kernels are int64, phases
object arrays of ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equations import EquationParams, RenormalizedTerms
from .errors import ConfigurationError, ConditioningError, ParameterError
from .spectral import SpectralField

# ---------------------------------------------------------------------------
# Exact oscillatory primitives
# ---------------------------------------------------------------------------

def _check_osc_bound(val, phi, t: float) -> None:
    """Raise ArithmeticError unless |E_t(phi)| <= min(t, 2/|phi|), to 1e-12
    relative, for a value or elementwise for arrays; NaN fails the check."""
    size = abs(val)
    ok = (size <= t * (1.0 + 1e-12)) & (size * abs(phi) <= 2.0 * (1.0 + 1e-12))
    if not np.asarray(ok).all():
        raise ArithmeticError(f"oscillatory primitive bound violated (t={t!r})")


def _floats(phi) -> np.ndarray:
    """A phase or array of phases (floats, or exact ints of any size) as float64."""
    return np.asarray(phi).astype(float)


def osc_single(phi, t: float):
    """E_t(phi) = (e^{i t phi} - 1)/(i phi), with the phi = 0 limit t.

    Computed as t * e^{i t phi / 2} * sinc(t phi / 2), which is exact and
    cancellation-free; |E_t| <= min(t, 2/|phi|) is checked on every value.
    phi is a scalar or an array (elementwise); exact-int phases, also in
    object arrays, are converted to float once.  A scalar gives a complex.
    """
    phi = _floats(phi)
    theta = 0.5 * t * phi
    val = np.where(theta == 0.0, t, t * np.exp(1j * theta) * np.sinc(theta / np.pi))
    _check_osc_bound(val, phi, t)
    return complex(val) if val.ndim == 0 else val


def osc_double(a, b, t: float):
    """I2(a, b, t) = int_0^t e^{i a t'} E_{t'}(b) dt', exact closed form, at
    scalars or elementwise over broadcast arrays.  Exact-int phases are summed
    exactly, and a + b converted to float once.  A scalar gives a complex."""
    af, bf, abf = np.broadcast_arrays(_floats(a), _floats(b), _floats(a + b))
    out = np.empty(af.shape, dtype=complex)
    b0 = bf == 0
    both0 = b0 & (af == 0)
    out[both0] = 0.5 * t * t
    a_only = b0 & ~both0
    a1 = af[a_only]
    eiat = np.exp(1j * a1 * t)
    out[a_only] = t * eiat / (1j * a1) + (eiat - 1.0) / a1**2
    out[~b0] = (osc_single(abf[~b0], t) - osc_single(af[~b0], t)) / (1j * bf[~b0])
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Counterexample data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleSpec:
    """Low+high frequency data of the growth experiment (C5):
    a_n = 1 at n in {-2,-1,1,2}, N^{-s} at n in {N-1, N}.
    The field is deliberately not Hermitian-symmetric.
    """

    N: int
    s: float = 1.0
    t: float = 1.0e-4

    def __post_init__(self):
        if self.N < 8:
            raise ConfigurationError("counterexample requires N >= 8")
        if self.s <= 0:
            raise ParameterError("s must be positive")
        if not 0.0 < self.t < 1.0:
            raise ParameterError("t must lie in (0, 1)")


def counterexample_support(spec: CounterexampleSpec) -> dict:
    """Mapping n -> a_n of the C5 data."""
    hi = spec.N ** (-spec.s)
    return {-2: 1.0, -1: 1.0, 1: 1.0, 2: 1.0, spec.N - 1: hi, spec.N: hi}


def symmetrized_support(support: dict) -> dict:
    """Hermitian part (a_n + conj(a_{-n}))/2, a real field's coefficients."""
    keys = set(support) | {-n for n in support}
    return {
        n: 0.5 * (support.get(n, 0.0) + np.conj(support.get(-n, 0.0))) for n in keys
    }


def hs_norm_of_map(values: dict, s: float) -> float:
    return math.sqrt(
        sum((1.0 + n * n) ** s * abs(v) ** 2 for n, v in values.items())
    )


# ---------------------------------------------------------------------------
# Tuple walking
# ---------------------------------------------------------------------------

_CUBIC_KERNELS = {
    # structure kernels of the two nonresonant cubic terms; both carry the
    # physical prefactor 10 i * (output frequency)
    "cubic2": lambda n1, n2, n3: n3 * n3,
    "cubic3": lambda n1, n2, n3: n2 * n3,
}


def _leaves(support: dict, keys) -> tuple:
    """The given keys of support as int64 legs, and their data values."""
    return np.array(keys, dtype=np.int64), np.array([support[m] for m in keys])


def _leaf_triples(legs: np.ndarray, vals: np.ndarray, a3: bool = True) -> tuple:
    """Every index triple into the leaves in C order (the walk order of three
    nested loops over them), kept only where it lies in A3 of its sum (no
    leg equal to the sum) unless a3 is False.  Returns the (rows, 3) legs,
    the sums and the amplitude products."""
    idx = np.indices((len(legs),) * 3).reshape(3, -1).T
    m = legs[idx]
    n = m.sum(axis=1)
    if a3:
        keep = np.all(m != n[:, None], axis=1)
        idx, m, n = idx[keep], m[keep], n[keep]
    return m, n, vals[idx[:, 0]] * vals[idx[:, 1]] * vals[idx[:, 2]]


def _cubic_phases(legs: np.ndarray) -> np.ndarray:
    """phi = -mu(a+b+c) + mu(a) + mu(b) + mu(c) per row (a, b, c) of legs,
    mu(m) = m^5, as exact ints in an object array (resonance.phi_cubic, one
    array pass); mu is evaluated once per distinct integer."""
    ints = np.column_stack([legs.sum(axis=1), legs])
    vals, inv = np.unique(ints, return_inverse=True)
    mu = np.array([m**5 for m in vals.tolist()], dtype=object)
    mu = mu[inv.reshape(ints.shape)]
    return -mu[:, 0] + mu[:, 1:].sum(axis=1)


# positions of the outer legs in (la, lb, n_slot), per slot
_SLOT_ORDER = np.array([[2, 0, 1], [0, 2, 1], [0, 1, 2]])


def _cells(a: np.ndarray) -> np.ndarray:
    """A per-pair array as the (pairs, 1, 1) leading axis of a cell array."""
    return a.reshape(-1, 1, 1)


@dataclass(frozen=True)
class _QuinticTable:
    """The quintic walk factored by (inner triple, outer pair).

    A pair is an inner triple (m1, m2, m3) in A3(n_slot) and outer legs
    la, lb with (la, lb, n_slot) in A3(n), in walk order: triple over the
    sorted leaves, then la, then lb.  It has one cell per (slot, inner
    term), the outer term being the n3^2-kernel cubic; the value methods
    return (pairs, slots, inner terms) arrays, whose C-order flattening is
    the tuple walk.  Mode, amplitude, exact phases and E_t are formed once
    per pair and broadcast, in the operation order of one tuple at a time.

    phi_out != 0 on every pair, so every tuple has a normal form: no leg of
    (la, lb, n_slot) equals n, so each pair sum la + lb = n - n_slot,
    la + n_slot = n - lb, lb + n_slot = n - la is nonzero, and
    phi_out = -(5/2)(la+lb)(la+n_slot)(lb+n_slot)(la^2+lb^2+n_slot^2+n^2)
    (resonance.resonance_g) is a product of nonzero factors.

    Legs and kernels are int64 (|leg| <= 5 max|leaf|); the phases are object
    arrays of exact Python ints, since n^5 overflows int64 once |n| > 6208,
    and float() is taken of phi_out and of the exact phi_out + phi_in.
    """

    n: np.ndarray          # (pairs,) output mode
    n_slot: np.ndarray     # (pairs,) output mode of the inner triple
    triple: np.ndarray     # (pairs,) row of `inner`
    inner: np.ndarray      # (triples, 3) inner legs
    amp: np.ndarray        # (pairs,) product of the five data values
    phi_out: np.ndarray    # (pairs,) exact ints
    phi_in: np.ndarray
    phi_out_f: np.ndarray  # (pairs,) float(phi_out), float(phi_out + phi_in)
    phi_sum_f: np.ndarray
    outer: np.ndarray      # (pairs, 3, 3) outer legs per slot, (la, lb, n_slot) at 2
    kernel_x: np.ndarray   # (pairs, 3, 1) n3^2 of each slot's outer legs
    kernel_y: np.ndarray   # (pairs, 1, inner terms)
    inner_terms: tuple

    def __len__(self) -> int:
        return len(self.n)

    def structure_values(self, t: float) -> np.ndarray:
        """Structure-only normal-form value (n * n_slot * K_X * K_Y / phi_out)
        * amp * E_t(phi_out + phi_in) of every cell.

        The kernel product is formed in float64: a product has no
        cancellation, and n * n_slot * K_X * K_Y can exceed int64.
        """
        nn = _cells(self.n.astype(float) * self.n_slot)
        k = nn * self.kernel_x * self.kernel_y / _cells(self.phi_out_f)
        return k * _cells(self.amp) * _cells(osc_single(self.phi_sum_f, t))

    def normal_form_values(self, t: float) -> np.ndarray:
        """Boundary plus distributed piece of the integration by parts of
        every cell."""
        a = _cells(self.phi_out_f)
        c = _cells((10j * self.n) * (10j * self.n_slot))
        c = c * self.kernel_x * self.kernel_y
        amp = _cells(self.amp)
        e_in = _cells(osc_single(self.phi_in, t))
        boundary = c * amp * np.exp(1j * a * t) * e_in / (1j * a)
        distributed = -c * amp * _cells(osc_single(self.phi_sum_f, t)) / (1j * a)
        return boundary + distributed


def _kernel_columns(terms, legs: np.ndarray) -> np.ndarray:
    """Each term's kernel at legs (..., 3), stacked on a last axis."""
    return np.stack([_CUBIC_KERNELS[name](*np.moveaxis(legs, -1, 0)) for name in terms], axis=-1)


def _quintic_table(support: dict, inner_terms) -> _QuinticTable:
    """Build every (inner in A3(n_slot), outer pair) entry over the leaves of
    support, with its cells for each slot and inner cubic term."""
    legs, vals = _leaves(support, sorted(support))
    k = len(legs)
    inner, n_slot, amp_in = _leaf_triples(legs, vals)
    # pairs: inner x la x lb, outer in A3(n) whatever the slot; C order is walk order
    i, ia, ib = np.indices((len(inner), k, k)).reshape(3, -1)
    base = np.stack([legs[ia], legs[ib], n_slot[i]], axis=1)
    n = base.sum(axis=1)
    keep = np.all(base != n[:, None], axis=1)
    i, ia, ib, base, n = (a[keep] for a in (i, ia, ib, base, n))
    outer = base[:, _SLOT_ORDER]
    # exact phases: mu once per distinct integer, phi_in once per inner
    # triple, phi_out once per distinct (la, lb, n_slot)
    slot_vals, slot_of_pair = np.unique(n_slot[i], return_inverse=True)
    shape = (len(slot_vals), k, k)
    keys, outer_of_pair = np.unique(
        np.ravel_multi_index((slot_of_pair.reshape(-1), ia, ib), shape), return_inverse=True
    )
    key_slot, key_a, key_b = np.unravel_index(keys, shape)
    outer_keys = np.stack([legs[key_a], legs[key_b], slot_vals[key_slot]], axis=1)
    phases = _cubic_phases(np.concatenate([inner, outer_keys]))
    phi_in = phases[:len(inner)][i]
    phi_out = phases[len(inner):][outer_of_pair.reshape(-1)]
    return _QuinticTable(
        n=n, n_slot=base[:, 2], triple=i, inner=inner,
        amp=amp_in[i] * vals[ia] * vals[ib],
        phi_out=phi_out, phi_in=phi_in,
        phi_out_f=phi_out.astype(float), phi_sum_f=(phi_out + phi_in).astype(float),
        outer=outer,
        kernel_x=_kernel_columns(("cubic2",), outer),
        kernel_y=_kernel_columns(inner_terms, inner)[i][:, None],
        inner_terms=tuple(inner_terms),
    )


def _mode_sums(n: np.ndarray):
    """Group the flat array of modes n once; the returned function maps a
    flat v of the same length to {mode: sum of v}: modes in order of first
    appearance and each sum accumulated in order, as a dict filled cell by
    cell holds them."""
    modes, first, inv = np.unique(n, return_index=True, return_inverse=True)
    inv, order = inv.reshape(-1), np.argsort(first)

    def sums(v: np.ndarray) -> dict:
        re = np.bincount(inv, weights=v.real, minlength=len(modes))
        im = np.bincount(inv, weights=v.imag, minlength=len(modes))
        return {int(modes[j]): complex(re[j], im[j]) for j in order}

    return sums


def _sum_by_mode(n: np.ndarray, v: np.ndarray) -> dict:
    """_mode_sums over the cells of v, a cell array whose leading axis
    follows n, flattened in C order."""
    n = np.broadcast_to(n.reshape((-1,) + (1,) * (v.ndim - 1)), v.shape).ravel()
    return _mode_sums(n)(v.ravel())


# ---------------------------------------------------------------------------
# Structure-normalized quintic terms
# ---------------------------------------------------------------------------

M0_SLOT = 2  # the resonant tuple lives in the third slot (inner on n3)


def _d_term_norms(tab: _QuinticTable, spec: CounterexampleSpec, v: np.ndarray) -> tuple:
    """H^s norms of D0 and of the full D term from v, the D value of each
    pair of tab.  D0 is the value of the m0 pair, the resonant tuple
    m0 = (N, 2, -1, -2, 1, N): outer legs (2, -1, N-1) in slot M0_SLOT over
    the inner triple (-2, 1, N), which the table holds for every N >= 8.
    phi(m0) = 0 exactly, so D0 is linear in t."""
    N = spec.N
    is_m0 = (np.all(tab.outer[:, M0_SLOT] == (2, -1, N - 1), axis=1)
             & np.all(tab.inner[tab.triple] == (-2, 1, N), axis=1))
    d0_hsnorm = (1.0 + N**2) ** (spec.s / 2.0) * abs(complex(v[is_m0][0]))
    return d0_hsnorm, hs_norm_of_map(_sum_by_mode(tab.n, v), spec.s)


@dataclass
class NormalFormTermReport:
    N: int
    s: float
    t: float
    d0_hsnorm: float
    d_full_hsnorm: float
    b1: float
    b2: float
    c1: float
    c2: float
    d1_norms: float


# report field -> (slot, inner term index into ("cubic2", "cubic3"))
_APPENDIX_TERMS = {"b1": (0, 0), "b2": (0, 1), "c1": (1, 0), "c2": (1, 1), "d1_norms": (2, 1)}


def eval_appendix_terms(spec: CounterexampleSpec) -> NormalFormTermReport:
    """H^s norms of the normal-form remainder terms B1, B2, C1, C2, D1.

    Every tuple on the 6-point data support is summed with exact
    oscillatory integrals; the phase-resonant tuples supported on the low
    modes {-2,-1,2} are what realize the t*max(N^{2-s},1) growth of the D1
    term.  Every tuple has a normal form (phi_out != 0, see _QuinticTable).
    """
    tab = _quintic_table(counterexample_support(spec), ("cubic2", "cubic3"))
    v = tab.structure_values(spec.t)
    d0_hsnorm, d_full_hsnorm = _d_term_norms(tab, spec, v[:, M0_SLOT, 0])
    sums = _mode_sums(tab.n)
    norms = {
        name: hs_norm_of_map(sums(v[:, slot, y]), spec.s)
        for name, (slot, y) in _APPENDIX_TERMS.items()
    }
    return NormalFormTermReport(
        N=spec.N,
        s=spec.s,
        t=spec.t,
        d0_hsnorm=d0_hsnorm,
        d_full_hsnorm=d_full_hsnorm,
        **norms,
    )


# ---------------------------------------------------------------------------
# C3 data: resonant cubic growth of the unrenormalized flow
# ---------------------------------------------------------------------------

def eval_c3_cubic(spec: CounterexampleSpec) -> dict:
    """First Picard iterate of the u^2 u_xxx term on the C3 data a_n = 1 at
    n in {-1, 1}, N^{-s} at n = N (from spec.N and spec.s): full
    (unrestricted) cubic sum with pure n^5 dispersion; the quadruple
    (N, 1, -1, N) is phase-resonant and drives ~ t N^3 growth."""
    support = {-1: 1.0, 1: 1.0, spec.N: spec.N ** (-spec.s)}
    m, n, amp = _leaf_triples(*_leaves(support, list(support)), a3=False)
    out = _sum_by_mode(n, (m[:, 2] ** 3) * amp * osc_single(_cubic_phases(m), spec.t))
    return {"field": out, "hs_norm": hs_norm_of_map(out, spec.s)}


# ---------------------------------------------------------------------------
# Growth experiment
# ---------------------------------------------------------------------------

@dataclass
class GrowthRow:
    N: int
    s: float
    t: float
    d0_norm: float
    ratio_tN2: float
    b1: float
    b2: float
    c1: float
    c2: float
    d1: float
    slope_running: float


def growth_experiment(Ns, s: float, t: float):
    """Per-N norms of the resonant quintic term and the remainders, plus the
    least-squares slope of log ||D0|| against log N."""
    rows = []
    logs = []
    for N in Ns:
        rep = eval_appendix_terms(CounterexampleSpec(N=int(N), s=s, t=t))
        d0n = rep.d0_hsnorm
        row = GrowthRow(
            int(N), s, t, d0n, d0n / (t * N**2),
            rep.b1, rep.b2, rep.c1, rep.c2, rep.d1_norms, float("nan"),
        )
        logs.append((math.log(N), math.log(d0n)))
        if len(logs) >= 2:
            row.slope_running = float(np.polyfit(*np.array(logs).T, 1)[0])
        rows.append(row)
    # the fit over every N is the last running one
    return rows, rows[-1].slope_running if rows else float("nan")


# ---------------------------------------------------------------------------
# Analytic fifth derivative (normal form) and numeric cross-check
# ---------------------------------------------------------------------------

def t2_duhamel_fifth(
    support: dict, spec: CounterexampleSpec, inner_terms=("cubic2",), route: str = "normal_form"
):
    """delta^5 coefficient of the n3^2-kernel cubic Duhamel term alone, by the
    normal form: the boundary + distributed split of every tuple.  Returns
    (field dict with e^{i t mu} prefactor, 0).  route names that one
    assembly, and any other value raises ValueError; route and the constant
    0 stay only because the benchmark's workloads pass the one and unpack
    the other.
    """
    if route != "normal_form":
        raise ValueError(f"unknown route {route!r}: only 'normal_form' is assembled")
    tab = _quintic_table(support, inner_terms)
    v = tab.normal_form_values(spec.t)
    field = {n: w * np.exp(1j * float(n**5) * spec.t)
             for n, w in _sum_by_mode(tab.n, v).items()}
    return field, 0


def numeric_fifth_derivative(
    u0: SpectralField,
    t: float,
    deltas,
    p: EquationParams,
    terms: RenormalizedTerms,
    ctrl=None,
):
    """Fifth divided difference in delta of delta*u0 -> v(t) under the
    renormalized flow (real-field integrator).

    deltas are positive amplitudes; each is run with both signs and the odd
    part is fitted to delta*a1 + delta^3*a3 + delta^5*a5 (+ delta^7
    nuisance).  Returns (SpectralField holding a5 = fifth derivative / 5!,
    report) with a conditioning summary; raises ConditioningError when the
    spread of deltas is degenerate.
    """
    from .integrate import evolve

    deltas = sorted(float(d) for d in deltas)
    if len(deltas) < 3 or len(set(deltas)) != len(deltas) or min(deltas) <= 0:
        raise ConditioningError("need >= 3 distinct positive delta values")
    if max(deltas) / min(deltas) < 1.2:
        raise ConditioningError("delta spread too small for a stable fit")

    finals = {}
    for d in deltas:
        for sgn in (1.0, -1.0):
            scaled = SpectralField(u0.grid, sgn * d * u0.coeff)
            traj = evolve(scaled, t, p, tag="renormalized_5mkdv", ctrl=ctrl, renorm_terms=terms)
            finals[sgn * d] = traj.final().coeff

    odd = np.array([(finals[d] - finals[-d]) / 2.0 for d in deltas])
    even = np.array([(finals[d] + finals[-d]) / 2.0 for d in deltas])
    darr = np.array(deltas)
    powers = [1, 3, 5, 7] if len(deltas) >= 4 else [1, 3, 5]
    V = np.stack([darr**k for k in powers], axis=1)
    coef, res, rank, sv = np.linalg.lstsq(V, odd, rcond=None)
    a5 = coef[powers.index(5)]
    cond = float(sv[0] / sv[-1])
    even_leak = float(np.max(np.abs(even)))
    report = {
        "vandermonde_condition": cond,
        "even_part_max": even_leak,
        "deltas": deltas,
        "powers": powers,
    }
    return SpectralField(u0.grid, a5), report
