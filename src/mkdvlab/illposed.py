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
distributed piece (valid when phi_out != 0); the distributed pieces are the
quintic normal-form terms.  Reported norms use the structure-only
normalization (the 10i prefactors dropped):

    structure_tuple = (n * n_s * K_X * K_Y / phi_out) * v0^5 * E_t(phi_out+phi_in)

All phases are exact integers (arbitrary precision), so resonant tuples are
detected exactly.  The tuple sums run over one table of rows per call
(`_QuinticTable`): legs and kernels as int64 arrays, phases as object arrays
of exact ints, each oscillatory integral and mode sum one array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .equations import EquationParams, RenormalizedTerms, dispersion_mu
from .errors import ConfigurationError, ConditioningError, ParameterError
from .spectral import GridSpec, SpectralField

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


def _osc_single_array(phi: np.ndarray, t: float) -> np.ndarray:
    """E_t at every float64 phase of phi (the exact phases, converted once)."""
    theta = 0.5 * t * phi
    val = t * np.exp(1j * theta) * np.sinc(theta / np.pi)
    val[theta == 0.0] = t
    _check_osc_bound(val, phi, t)
    return val


def _osc_double_array(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """I2(a, b, t) at every pair of exact phases (object or integer arrays)."""
    out = np.empty(len(a), dtype=complex)
    b0 = b == 0
    both0 = b0 & (a == 0)
    out[both0] = 0.5 * t * t
    a_only = b0 & ~both0
    af = a[a_only].astype(float)
    eiat = np.exp(1j * af * t)
    out[a_only] = t * eiat / (1j * af) + (eiat - 1.0) / af**2
    ga, gb = a[~b0], b[~b0]
    out[~b0] = (
        _osc_single_array((ga + gb).astype(float), t) - _osc_single_array(ga.astype(float), t)
    ) / (1j * gb.astype(float))
    return out


def osc_single(phi, t: float) -> complex:
    """E_t(phi) = (e^{i t phi} - 1)/(i phi), with the phi = 0 limit t.

    Computed as t * e^{i t phi / 2} * sinc(t phi / 2), which is exact and
    cancellation-free; |E_t| <= min(t, 2/|phi|) is checked on every value.
    One phase at a time, for the single-tuple D0 and the per-tuple
    reference walk; tuple tables use the array form.
    """
    phi = float(phi)
    theta = 0.5 * t * phi
    if theta == 0.0:
        val = complex(t)
    else:
        val = complex(t * np.exp(1j * theta) * np.sinc(theta / np.pi))
    _check_osc_bound(val, phi, t)
    return val


def osc_double(a, b, t: float) -> complex:
    """I2(a, b, t) = int_0^t e^{i a t'} E_{t'}(b) dt', exact closed form."""
    if b == 0:
        if a == 0:
            return 0.5 * t * t
        af = float(a)
        eiat = np.exp(1j * af * t)
        return complex(t * eiat / (1j * af) + (eiat - 1.0) / af**2)
    return (osc_single(a + b, t) - osc_single(a, t)) / (1j * float(b))


# ---------------------------------------------------------------------------
# Counterexample data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleSpec:
    """Low+high frequency data of the growth experiment.

    C5: a_n = 1 at n in {-2,-1,1,2}, N^{-s} at n in {N-1, N}.
    C3: a_n = 1 at n in {-1, 1},     N^{-s} at n = N.
    The field is deliberately not Hermitian-symmetric.
    """

    N: int
    s: float = 1.0
    variant: str = "C5"
    t: float = 1.0e-4
    d1: int = 0
    d2: int = 0

    def __post_init__(self):
        if self.N < 8:
            raise ConfigurationError("counterexample requires N >= 8")
        if self.s <= 0:
            raise ParameterError("s must be positive")
        if not 0.0 < self.t < 1.0:
            raise ParameterError("t must lie in (0, 1)")
        if self.variant not in ("C5", "C3"):
            raise ConfigurationError(f"unknown variant {self.variant!r}")


def counterexample_support(spec: CounterexampleSpec) -> dict:
    """Mapping n -> a_n of the chosen variant."""
    hi = spec.N ** (-spec.s)
    if spec.variant == "C5":
        return {-2: 1.0, -1: 1.0, 1: 1.0, 2: 1.0, spec.N - 1: hi, spec.N: hi}
    return {-1: 1.0, 1: 1.0, spec.N: hi}


def build_counterexample_data(spec: CounterexampleSpec, grid: GridSpec) -> SpectralField:
    if grid.max_mode < spec.N:
        raise ConfigurationError(
            f"grid max_mode={grid.max_mode} cannot hold the N={spec.N} mode"
        )
    f = SpectralField.zeros(grid)
    for n, a in counterexample_support(spec).items():
        f.coeff[n + grid.max_mode] = a
    return f


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


def _mu(n: int, spec: CounterexampleSpec):
    return dispersion_mu(int(n), spec.d1, spec.d2)


def _phi3(n, tup, spec):
    return -_mu(n, spec) + sum(_mu(m, spec) for m in tup)


def _a3_ok(n, tup) -> bool:
    return all(m != n for m in tup)


@dataclass
class QuinticTuple:
    """One (outer, slot, inner) contribution to the fifth delta-derivative."""

    n: int
    outer: tuple
    slot: int
    inner: tuple
    x_term: str
    y_term: str
    amp: complex        # product of the five data values
    kernel_x: int
    kernel_y: int
    phi_out: object
    phi_in: object

    @property
    def n_slot(self) -> int:
        return self.outer[self.slot]

    def structure_value(self, t: float) -> complex:
        """Structure-only normal-form value (10i factors dropped):
        (n * n_slot * K_X * K_Y / phi_out) * amp * E_t(phi_out + phi_in)."""
        if self.phi_out == 0:
            raise ZeroDivisionError("outer phase vanishes; tuple not normal-formable")
        k = self.n * self.n_slot * self.kernel_x * self.kernel_y / float(self.phi_out)
        return k * self.amp * osc_single(self.phi_out + self.phi_in, t)


# positions of the outer legs in (la, lb, n_slot), per slot
_SLOT_ORDER = np.array([[2, 0, 1], [0, 2, 1], [0, 1, 2]])


@dataclass(frozen=True)
class _QuinticTable:
    """Every row of the quintic walk as parallel arrays, in walk order: inner
    triple (m1, m2, m3) over the sorted leaves, then outer legs la, lb, then
    slot, outer term and inner term.

    Legs and kernels are int64 (|leg| <= 5 max|leaf|); the phases are object
    arrays of exact Python ints, since n^5 overflows int64 once |n| > 6208.
    """

    n: np.ndarray          # output mode
    outer: np.ndarray      # (rows, 3) outer legs, n_slot at position `slot`
    slot: np.ndarray
    inner: np.ndarray      # (rows, 3) inner legs, summing to n_slot
    x_term: np.ndarray     # index into outer_terms
    y_term: np.ndarray     # index into inner_terms
    amp: np.ndarray        # product of the five data values
    kernel_x: np.ndarray
    kernel_y: np.ndarray
    phi_out: np.ndarray
    phi_in: np.ndarray
    outer_terms: tuple
    inner_terms: tuple

    def __len__(self) -> int:
        return len(self.n)

    def take(self, rows) -> "_QuinticTable":
        return replace(self, **{
            f.name: getattr(self, f.name)[rows]
            for f in fields(self) if f.name not in ("outer_terms", "inner_terms")
        })

    @property
    def n_slot(self) -> np.ndarray:
        return self.inner.sum(axis=1)

    def leaves(self) -> np.ndarray:
        """(rows, 5): the inner legs, then the two outer legs other than n_slot."""
        other = np.arange(3) != self.slot[:, None]
        return np.column_stack([self.inner, self.outer[other].reshape(-1, 2)])

    def structure_values(self, t: float) -> np.ndarray:
        """QuinticTuple.structure_value of every row (phi_out != 0 on all).

        The kernel product is formed in float64: a product has no
        cancellation, and n * n_slot * K_X * K_Y can exceed int64.
        """
        k = (
            self.n.astype(float) * self.n_slot * self.kernel_x * self.kernel_y
            / self.phi_out.astype(float)
        )
        return k * self.amp * _osc_single_array((self.phi_out + self.phi_in).astype(float), t)

    def _physical_prefactor(self) -> np.ndarray:
        return (10j * self.n) * (10j * self.n_slot) * self.kernel_x * self.kernel_y

    def physical_values(self, t: float) -> np.ndarray:
        """Exact delta^5 coefficient contribution of every row (constants
        kept), without the overall e^{i t mu(n)} prefactor."""
        return self._physical_prefactor() * self.amp * _osc_double_array(self.phi_out, self.phi_in, t)

    def normal_form_values(self, t: float) -> np.ndarray:
        """Boundary plus distributed piece of the integration by parts of
        every row (phi_out != 0 on all)."""
        a = self.phi_out.astype(float)
        c = self._physical_prefactor()
        boundary = (
            c * self.amp * np.exp(1j * a * t)
            * _osc_single_array(self.phi_in.astype(float), t) / (1j * a)
        )
        total = (self.phi_out + self.phi_in).astype(float)
        distributed = -c * self.amp * _osc_single_array(total, t) / (1j * a)
        return boundary + distributed


def _kernel_column(terms, which: np.ndarray, legs: np.ndarray) -> np.ndarray:
    out = np.empty(len(which), dtype=np.int64)
    for j, name in enumerate(terms):
        sel = which == j
        out[sel] = _CUBIC_KERNELS[name](*legs[sel].T)
    return out


def _exact_phases(triples: np.ndarray, mu: dict) -> np.ndarray:
    """-mu(a+b+c) + mu(a) + mu(b) + mu(c) per row of triples, as exact ints."""
    return np.array(
        [-mu[a + b + c] + (mu[a] + mu[b] + mu[c]) for a, b, c in triples.tolist()],
        dtype=object,
    ).reshape(-1)


def _quintic_table(support: dict, spec: CounterexampleSpec, outer_terms, inner_terms,
                   slots) -> _QuinticTable:
    """Build every (outer in A3(n), slot, inner in A3(n_slot)) row over the
    leaves of support, for each outer and inner cubic term."""
    leaves = sorted(support)
    vals = np.array([support[m] for m in leaves])
    legs = np.array(leaves, dtype=np.int64)
    k = len(leaves)
    # inner triples in A3(n_slot), in walk order
    tri = np.indices((k, k, k)).reshape(3, -1).T
    inner = legs[tri]
    n_slot = inner.sum(axis=1)
    keep = np.all(inner != n_slot[:, None], axis=1)
    tri, inner, n_slot = tri[keep], inner[keep], n_slot[keep]
    # rows: inner x la x lb x slot x outer term x inner term; C order is walk order
    i, ia, ib, si, xi, yi = np.indices(
        (len(tri), k, k, len(slots), len(outer_terms), len(inner_terms))
    ).reshape(6, -1)
    base = np.stack([legs[ia], legs[ib], n_slot[i]], axis=1)
    n = base.sum(axis=1)
    keep = np.all(base != n[:, None], axis=1)  # outer in A3(n), whatever the slot
    i, ia, ib, si, xi, yi, base, n = (a[keep] for a in (i, ia, ib, si, xi, yi, base, n))
    slot = np.asarray(slots, dtype=np.int64)[si]
    outer = np.take_along_axis(base, _SLOT_ORDER[slot], axis=1)
    amp_in = vals[tri[:, 0]] * vals[tri[:, 1]] * vals[tri[:, 2]]
    # exact phases: mu once per distinct integer, phi_in once per inner
    # triple, phi_out once per distinct (la, lb, n_slot)
    slot_vals, slot_of_row = np.unique(n_slot[i], return_inverse=True)
    shape = (len(slot_vals), k, k)
    keys, outer_of_row = np.unique(
        np.ravel_multi_index((slot_of_row.reshape(-1), ia, ib), shape), return_inverse=True
    )
    key_slot, key_a, key_b = np.unravel_index(keys, shape)
    outer_keys = np.stack([legs[key_a], legs[key_b], slot_vals[key_slot]], axis=1)
    ints = np.unique(np.concatenate([legs, n_slot, outer_keys.sum(axis=1)])).tolist()
    mu = {m: dispersion_mu(m, spec.d1, spec.d2) for m in ints}
    return _QuinticTable(
        n=n, outer=outer, slot=slot, inner=inner[i], x_term=xi, y_term=yi,
        amp=amp_in[i] * vals[ia] * vals[ib],
        kernel_x=_kernel_column(outer_terms, xi, outer),
        kernel_y=_kernel_column(inner_terms, yi, inner[i]),
        phi_out=_exact_phases(outer_keys, mu)[outer_of_row.reshape(-1)],
        phi_in=_exact_phases(inner, mu)[i],
        outer_terms=tuple(outer_terms), inner_terms=tuple(inner_terms),
    )


def _off_resonance(tab: _QuinticTable) -> tuple:
    """The rows with phi_out != 0, where the normal form applies, and the
    count of the others."""
    live = tab.phi_out != 0
    skipped = int(np.count_nonzero(~live))
    return (tab.take(live) if skipped else tab), skipped


def _sum_by_mode(n: np.ndarray, v: np.ndarray) -> dict:
    """{mode: sum of v over its rows}, modes in order of first appearance and
    each sum accumulated in row order, as a dict filled row by row holds them."""
    modes, first, inv = np.unique(n, return_index=True, return_inverse=True)
    inv = inv.reshape(-1)
    re = np.bincount(inv, weights=v.real, minlength=len(modes))
    im = np.bincount(inv, weights=v.imag, minlength=len(modes))
    return {int(modes[j]): complex(re[j], im[j]) for j in np.argsort(first)}


# ---------------------------------------------------------------------------
# Structure-normalized quintic terms
# ---------------------------------------------------------------------------

M0_SLOT = 2  # the resonant tuple lives in the third slot (inner on n3)


def m0_tuple(spec: CounterexampleSpec) -> QuinticTuple:
    """The distinguished resonant tuple m0 = (N, 2, -1, -2, 1, N)."""
    if spec.variant != "C5":
        raise ConfigurationError("m0 is defined for the C5 variant")
    support = counterexample_support(spec)
    N = spec.N
    inner = (-2, 1, N)
    outer = (2, -1, N - 1)
    n = N
    amp = (
        support[2] * support[-1] * support[-2] * support[1] * support[N]
    )
    phi_out = _phi3(n, outer, spec)
    phi_in = _phi3(N - 1, inner, spec)
    return QuinticTuple(
        n, outer, M0_SLOT, inner, "cubic2", "cubic2", amp,
        _CUBIC_KERNELS["cubic2"](*outer), _CUBIC_KERNELS["cubic2"](*inner),
        phi_out, phi_in,
    )


def eval_d0(spec: CounterexampleSpec) -> complex:
    """Single-tuple value at m0 (structure-only normalization).

    phi(m0) = 0 exactly, so the integrand is constant and the value is
    linear in t."""
    tup = m0_tuple(spec)
    if tup.phi_out == 0:
        raise ZeroDivisionError("outer phase vanished at m0 (cannot happen for d1 >= 0)")
    return tup.structure_value(spec.t)


def eval_d_full(spec: CounterexampleSpec) -> dict:
    """Full quintic D term: slot-3 distribution with the n3^2-kernel inner
    cubic, exhaustively over the data support.

    Returns {"field": {n: value}, "hs_norm", "d0", "nonresonant_moduli",
    "skipped_outer_resonant"}.
    """
    tab = _quintic_table(
        counterexample_support(spec), spec, ("cubic2",), ("cubic2",), (M0_SLOT,)
    )
    return _d_full_report(tab, spec)


def _d_full_report(tab: _QuinticTable, spec: CounterexampleSpec) -> dict:
    """eval_d_full from a table holding exactly the D rows."""
    tab, skipped = _off_resonance(tab)
    v = tab.structure_values(spec.t)
    field_vals = _sum_by_mode(tab.n, v)
    d0 = eval_d0(spec)
    m0 = m0_tuple(spec)
    weight_N = (1.0 + spec.N**2) ** (spec.s / 2.0)
    is_m0 = np.all(tab.outer == m0.outer, axis=1) & np.all(tab.inner == m0.inner, axis=1)
    at_N = (tab.n == spec.N) & ~is_m0
    moduli_at_N = sum((weight_N * np.abs(v[at_N])).tolist(), 0.0)
    d0_hsnorm = weight_N * abs(d0)
    hs_norm = hs_norm_of_map(field_vals, spec.s)
    return {
        "field": field_vals,
        "hs_norm": hs_norm,
        "d0": d0,
        "d0_hsnorm": d0_hsnorm,
        # triangle inequality at the output mode N: |D(N)| >= |D0| - sum of
        # the other tuples' moduli (several share the resonant leg multiset
        # of m0, so the slack can be order one -- reported, never assumed)
        "nonresonant_moduli": moduli_at_N,
        "cancellation_slack": max(0.0, d0_hsnorm - hs_norm),
        "skipped_outer_resonant": skipped,
    }


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
    skipped_outer_resonant: int = 0


# report field -> (slot, inner term index into ("cubic2", "cubic3"))
_APPENDIX_TERMS = {"b1": (0, 0), "b2": (0, 1), "c1": (1, 0), "c2": (1, 1), "d1_norms": (2, 1)}


def eval_appendix_terms(spec: CounterexampleSpec, restricted: bool = False) -> NormalFormTermReport:
    """H^s norms of the normal-form remainder terms B1, B2, C1, C2, D1.

    By default every tuple on the 6-point data support is summed with exact
    oscillatory integrals; restricted=True keeps only data legs with values
    in {1, N}.  The restricted sum reproduces the crude remainder-bound
    computation but misses the phase-resonant tuples supported on the low
    modes {-2,-1,2}, which are what realize the t*max(N^{2-s},1) growth of
    the D1 term (exact time integrals suppress the {1,N} tuples whose total
    phase is large).  Tuples whose outer phase vanishes are skipped and
    counted (the normal form only applies off the resonant set).
    """
    tab = _quintic_table(
        counterexample_support(spec), spec, ("cubic2",), ("cubic2", "cubic3"), (0, 1, 2)
    )
    d_rows = (tab.slot == M0_SLOT) & (tab.y_term == 0)  # the D term itself
    dfull = _d_full_report(tab.take(d_rows), spec)
    rest = ~d_rows
    if restricted:
        rest &= np.all(np.isin(tab.leaves(), (1, spec.N)), axis=1)
    tab, skipped = _off_resonance(tab.take(rest))
    v = tab.structure_values(spec.t)
    norms = {}
    for name, (slot, y) in _APPENDIX_TERMS.items():
        sel = (tab.slot == slot) & (tab.y_term == y)
        norms[name] = hs_norm_of_map(_sum_by_mode(tab.n[sel], v[sel]), spec.s)
    return NormalFormTermReport(
        N=spec.N,
        s=spec.s,
        t=spec.t,
        d0_hsnorm=dfull["d0_hsnorm"],
        d_full_hsnorm=dfull["hs_norm"],
        **norms,
        skipped_outer_resonant=skipped + dfull["skipped_outer_resonant"],
    )


def eval_resonant_cubic_fifth(spec: CounterexampleSpec) -> float:
    """H^s norm of the fifth delta-derivative of the dropped resonant cubic
    Duhamel term -20i n^3 |v(n)|^2 v(n), with w3 sourced from the two
    nonresonant cubics and from the resonant term itself.

    The self-sourced piece (resonant inside resonant) carries the double
    time integral and produces the reported ~ t^2 N^{6-4s} growth.
    """
    out: dict = {}
    _add_resonant_outer_fifth(out, counterexample_support(spec), spec, ("cubic2", "cubic3"))
    return hs_norm_of_map(out, spec.s)


def _add_resonant_outer_fifth(out, support, spec, cubics):
    """delta^5 pieces with the resonant cubic -20i n^3 |v|^2 v as the outer
    Duhamel term: its w3 sourced by the nonresonant cubics, then by the
    resonant term itself (profile -20i n^3 a^2 conj(a) t')."""
    t = spec.t
    for m1 in support:
        for m2 in support:
            for m3 in support:
                inner = (m1, m2, m3)
                n = m1 + m2 + m3
                if not _a3_ok(n, inner) or n not in support:
                    continue
                phi_in = _phi3(n, inner, spec)
                amp_in = support[m1] * support[m2] * support[m3]
                an = support[n]
                for y in cubics:
                    ky = _CUBIC_KERNELS[y](*inner)
                    g3 = (10j * n) * ky * amp_in * osc_double(0, phi_in, t)
                    out[n] = out.get(n, 0.0) + (-20j * n**3) * (
                        2.0 * an * np.conj(an) * g3 + an * an * np.conj(g3)
                    )
    half_t2 = 0.5 * t * t
    for n in support:
        a = support[n]
        G = (-20j * n**3) * a * a * np.conj(a)
        out[n] = out.get(n, 0.0) + (-20j * n**3) * (
            2.0 * a * np.conj(a) * G + a * a * np.conj(G)
        ) * half_t2


# ---------------------------------------------------------------------------
# C3 variant: resonant cubic growth of the unrenormalized flow
# ---------------------------------------------------------------------------

def eval_c3_cubic(spec: CounterexampleSpec) -> dict:
    """First Picard iterate of the u^2 u_xxx term on the C3 data, full
    (unrestricted) cubic sum with pure n^5 dispersion; the quadruple
    (N, 1, -1, N) is phase-resonant and drives ~ t N^3 growth."""
    if spec.variant != "C3":
        raise ConfigurationError("eval_c3_cubic expects the C3 variant")
    support = counterexample_support(spec)
    out: dict = {}
    for m1 in support:
        for m2 in support:
            for m3 in support:
                n = m1 + m2 + m3
                phi = -(n**5) + m1**5 + m2**5 + m3**5
                amp = support[m1] * support[m2] * support[m3]
                val = (m3**3) * amp * osc_single(phi, spec.t)
                out[n] = out.get(n, 0.0) + val
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


def growth_experiment(Ns, s: float, t: float, variant: str = "C5", d1: int = 0, d2: int = 0):
    """Per-N norms of the resonant quintic term and the remainders, plus the
    least-squares slope of log ||D0|| against log N."""
    rows = []
    logs = []
    for N in Ns:
        spec = CounterexampleSpec(N=int(N), s=s, variant=variant, t=t, d1=d1, d2=d2)
        if variant == "C5":
            rep = eval_appendix_terms(spec)
            d0n = rep.d0_hsnorm
            row = GrowthRow(
                int(N), s, t, d0n, d0n / (t * N**2),
                rep.b1, rep.b2, rep.c1, rep.c2, rep.d1_norms, float("nan"),
            )
        else:
            d0n = eval_c3_cubic(spec)["hs_norm"]
            row = GrowthRow(int(N), s, t, d0n, d0n / (t * N**2), 0, 0, 0, 0, 0, float("nan"))
        logs.append((math.log(N), math.log(d0n)))
        if len(logs) >= 2:
            xs = np.array([a for a, _ in logs])
            ys = np.array([b for _, b in logs])
            row.slope_running = float(np.polyfit(xs, ys, 1)[0])
        rows.append(row)
    xs = np.array([math.log(r.N) for r in rows])
    ys = np.array([math.log(r.d0_norm) for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(rows) >= 2 else float("nan")
    return rows, slope


# ---------------------------------------------------------------------------
# Analytic fifth derivative (direct route) and numeric cross-check
# ---------------------------------------------------------------------------

def fifth_derivative_direct(
    support: dict, spec: CounterexampleSpec, flow: RenormalizedTerms
) -> dict:
    """Coefficient of delta^5 of the flow map at the given data (complex
    support form), assembled from exact double oscillatory integrals.

    Includes the e^{i t mu(n)} prefactor so values compare directly against
    evolved states.
    """
    t = spec.t
    out: dict = {}
    cubics = []
    if flow.cubic2:
        cubics.append("cubic2")
    if flow.cubic3:
        cubics.append("cubic3")
    if cubics:
        tab = _quintic_table(support, spec, tuple(cubics), tuple(cubics), (0, 1, 2))
        out = _sum_by_mode(tab.n, tab.physical_values(t))
    if flow.quintic:
        leaves = sorted(support)
        for i1 in leaves:
            for i2 in leaves:
                for i3 in leaves:
                    for i4 in leaves:
                        for i5 in leaves:
                            tup = (i1, i2, i3, i4, i5)
                            n = sum(tup)
                            if any(m == n for m in tup):
                                continue
                            phi = -_mu(n, spec) + sum(_mu(m, spec) for m in tup)
                            amp = 1.0
                            for m in tup:
                                amp *= support[m]
                            out[n] = out.get(n, 0.0) + (6j * n) * amp * osc_single(phi, t)
    if flow.resonant_cubic:
        _add_resonant_fifth(out, support, spec, cubics)
    # attach the linear phase
    return {n: v * np.exp(1j * float(_mu(n, spec)) * t) for n, v in out.items()}


def _add_resonant_fifth(out, support, spec, cubics):
    """delta^5 pieces involving the resonant cubic -20i n^3 |v|^2 v (both as
    the outer Duhamel term and inside w3)."""
    t = spec.t
    _add_resonant_outer_fifth(out, support, spec, cubics)
    # resonant inner (w3 piece) under a nonresonant outer cubic
    for n0 in support:
        a = support[n0]
        w3_amp = (-20j * n0**3) * a * a * np.conj(a)
        for la in support:
            for lb in support:
                for slot in (0, 1, 2):
                    outer = [la, lb]
                    outer.insert(slot, n0)
                    outer = tuple(outer)
                    n = la + lb + n0
                    if not _a3_ok(n, outer):
                        continue
                    phi_out = _phi3(n, outer, spec)
                    for x in cubics:
                        kx = _CUBIC_KERNELS[x](*outer)
                        out[n] = out.get(n, 0.0) + (10j * n) * kx * support[la] * support[
                            lb
                        ] * w3_amp * osc_double(phi_out, 0, t)


def t2_duhamel_fifth(
    support: dict, spec: CounterexampleSpec, inner_terms=("cubic2",), route: str = "direct"
):
    """delta^5 coefficient of the n3^2-kernel cubic Duhamel term alone.

    route="direct" uses I2 closed forms; route="normal_form" assembles the
    boundary + distributed split (skipping and counting phi_out = 0 tuples).
    Returns (field dict with e^{i t mu} prefactor, skipped count).
    """
    t = spec.t
    tab = _quintic_table(support, spec, ("cubic2",), tuple(inner_terms), (0, 1, 2))
    if route == "direct":
        v, skipped = tab.physical_values(t), 0
    else:
        tab, skipped = _off_resonance(tab)
        v = tab.normal_form_values(t)
    out = _sum_by_mode(tab.n, v)
    out = {n: v * np.exp(1j * float(_mu(n, spec)) * t) for n, v in out.items()}
    return out, skipped


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
            finals[sgn * d] = traj.states[-1]

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
