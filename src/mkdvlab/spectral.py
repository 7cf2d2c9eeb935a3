"""Fourier grid, spectral fields, dyadic cut-offs, and Sobolev norms on the torus.

Conventions (used consistently across the package):

* The domain is the 2*pi-periodic torus, sampled at ``phys_points`` equispaced
  collocation points.
* A field is stored by its Fourier coefficients ``c[n]``, |n| <= max_mode,
  with the constant-free synthesis ``u(x) = sum_n c[n] exp(i n x)``.
  Products of fields are then plain coefficient convolutions with no 2*pi
  factors, which is the normalization in which all nonlinear-term constants
  below are exact.
* Sobolev norms are sequence-side: ``||u||_{H^s}^2 = sum <n>^{2s} |c[n]|^2``
  with ``<n> = sqrt(1+n^2)``.  Physical integrals over [0, 2*pi] (used by the
  Hamiltonians) therefore carry an explicit 2*pi relative to these norms:
  ``integral |u|^2 dx = 2*pi * sum |c[n]|^2``.
* Real fields are synthesized and analyzed on the half spectrum c[0..M] by
  :class:`HalfSpectrum`, the one coefficient-to-samples path for real data:
  one stacked irfft for a range of derivative orders (orders axis first,
  then any batch axes), one stacked rfft back.
* Every transform is a ``scipy.fft`` attribute call; inside ``integrate.evolve``
  :class:`PocketfftBackend` runs them on scipy's pocketfft, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft as sfft
from scipy.fft._pocketfft import pypocketfft

from .errors import ConfigurationError

#: Working set of one chunk of a chunked pass over many records (short-time
#: windows, Hamiltonian and gauge syntheses, the gauge phase table), in
#: complex128 entries (2 MiB; a float64 entry counts half): every temporary a
#: chunk holds at once fits it, so the memory of these passes does not grow
#: with the record count.
BATCH_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class GridSpec:
    """Collocation grid for a 2*pi-periodic real field of the modes
    |n| <= max_mode, sampled at phys_points = next_fast_len(3*(2*max_mode+1))
    points, so quintic products of band-limited factors are alias-free on
    the retained band."""

    max_mode: int

    def __post_init__(self):
        if self.max_mode < 1:
            raise ConfigurationError(f"max_mode must be positive, got {self.max_mode}")

    @cached_property
    def phys_points(self) -> int:
        return sfft.next_fast_len(3 * (2 * self.max_mode + 1), real=True)

    @cached_property
    def modes(self) -> np.ndarray:
        """Retained mode numbers, ordered -max_mode ... max_mode (built once,
        read-only, since every caller shares the array)."""
        modes = np.arange(-self.max_mode, self.max_mode + 1)
        modes.setflags(write=False)
        return modes


@dataclass
class SpectralField:
    """Dense truncated Fourier coefficients of a real field on a GridSpec.

    ``coeff[i]`` is the coefficient of ``exp(i n x)`` with ``n = i - max_mode``
    (ordered -max_mode..max_mode), with ``coeff[-n] = conj(coeff[n])``.  The
    half spectrum ``coeff[max_mode:]`` is the layout every real field has
    inside the package: :meth:`from_half` is the one way from c[0..M] to a
    field, and :meth:`half`, which checks it, the one way back.
    """

    grid: GridSpec
    coeff: np.ndarray

    def __post_init__(self):
        n = 2 * self.grid.max_mode + 1
        c = np.asarray(self.coeff, dtype=np.complex128)
        if c.shape != (n,):
            raise ConfigurationError(f"coeff must have shape ({n},), got {c.shape}")
        self.coeff = c

    @classmethod
    def zeros(cls, grid: GridSpec) -> "SpectralField":
        return cls(grid, np.zeros(2 * grid.max_mode + 1, dtype=np.complex128))

    @classmethod
    def from_modes(cls, grid: GridSpec, values: dict) -> "SpectralField":
        """Build a field from a mapping n -> coefficient."""
        f = cls.zeros(grid)
        for n, v in values.items():
            if abs(n) > grid.max_mode:
                raise ConfigurationError(f"mode {n} outside |n| <= {grid.max_mode}")
            f.coeff[n + grid.max_mode] = v
        return f

    @classmethod
    def from_half(cls, grid: GridSpec, half: np.ndarray) -> "SpectralField":
        """The real field of the half spectrum c[0..M], extended by c(-n) = conj(c(n))."""
        return cls(grid, hermitian_extend(half))

    def half(self, what: str) -> np.ndarray:
        """The half spectrum c[0..M], a view; ConfigurationError naming `what` unless
        c(-n) = conj(c(n)) within 1e-8 relative to max(1, max |c|) (a NaN fails)."""
        c, M = self.coeff, self.grid.max_mode
        defect = np.max(np.abs(c[M::-1] - np.conj(c[M:])))
        if not defect <= 1e-8 * max(1.0, np.max(np.abs(c))):
            raise ConfigurationError(f"{what} violates Hermitian symmetry (defect {defect:.3e})")
        return c[M:]


def row_chunks(n_rows: int, row_elements: int) -> list:
    """Slices of range(n_rows) of at most BATCH_ELEMENTS // row_elements rows
    each (one row at least), where ``row_elements`` counts every temporary
    that one row of the caller's pass holds at once, in complex128 entries."""
    step = max(1, BATCH_ELEMENTS // row_elements)
    return [slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]


# ---------------------------------------------------------------------------
# Real-field synthesis and analysis
# ---------------------------------------------------------------------------
#
# Real fields go through the half spectrum c[0..M], c(-n) = conj(c(n)): one
# stacked irfft gives u and any of its first four x-derivatives, one stacked
# rfft gives the coefficients of real samples.  The hot loops are small FFTs,
# where the call count costs more than the points.


class HalfSpectrum:
    """Read-only wavenumber tables of one grid over n = 0..M and the real-field
    synthesis/analysis built on them."""

    def __init__(self, grid: GridSpec):
        M = grid.max_mode
        n = np.arange(M + 1, dtype=float)
        self.M, self.P = M, grid.phys_points
        self.n = n
        self.n2 = n * n
        self.i_n = 1j * n
        # P (i n)^k for k = 0..4: the irfft of table * c is the samples
        # themselves, with no scaling pass over the P points
        self.deriv = self.P * np.array(
            [np.ones(M + 1), 1j * n, -self.n2, -(1j * n * self.n2), n**4])
        # coefficients of -d/dx from an unnormalized rfft
        self.minus_dx = -self.i_n / self.P
        self.twice = np.where(n > 0, 2.0, 1.0)  # column n > 0 stands for -n too
        # |c(n)|^2 @ pair_sums = (sum_m c(m) c(-m), sum_m m^2 c(m) c(-m)) over -M..M
        self.pair_sums = np.stack([self.twice, 2.0 * self.n2], axis=1)
        for table in (self.n, self.n2, self.i_n, self.deriv, self.minus_dx, self.twice,
                      self.pair_sums):
            table.setflags(write=False)

    def synthesize(self, ch: np.ndarray, orders: range, padded=None) -> np.ndarray:
        """Real samples of d^k u/dx^k on the grid for every k in ``orders``, a
        range of derivative orders (0..4), read as a view of ``deriv``.

        ``ch`` holds half spectra on its last axis, with any leading (batch)
        axes; the result has the orders axis first, then the batch axes, then
        the P samples, so ``U, Ux = h.synthesize(ch, range(2))`` unpacks the
        same for one row or many.  The P-scaled table product is written
        straight into the zero-padded irfft input ``padded`` (new, or a caller's
        that stays zero past M), so scipy makes no padded copy.
        """
        table = self.deriv[orders.start:orders.stop:orders.step]
        if ch.ndim > 1:  # a length-1 axis per batch axis, still a view
            table = table[(slice(None),) + (None,) * (ch.ndim - 1)]
        if padded is None:
            padded = np.zeros((len(table), *ch.shape[:-1], self.P // 2 + 1), np.complex128)
        np.multiply(table, ch, out=padded[..., : self.M + 1])
        return sfft.irfft(padded, self.P)

    def synthesize_rows(self, ch: np.ndarray, orders: range, products: int):
        """Yield (rows, samples) of :meth:`synthesize` of the range ``orders``
        over slices of the rows of ``ch``, each sized (one row at least) so that
        its synthesis and the caller's work fit BATCH_ELEMENTS together: per row
        and order, the zero-padded irfft input and the P samples, and
        ``products`` more arrays of P samples that the caller holds beside
        them (the previous chunk's samples among them, while it is bound)."""
        n = len(orders)
        per_row = n * (self.P // 2 + 1) + (n + products) * self.P // 2
        for rows in row_chunks(len(ch), per_row):
            yield rows, self.synthesize(ch[rows], orders)

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Coefficients 0..M of real samples, per row."""
        return sfft.rfft(values)[..., : self.M + 1] / self.P


# the multimethods and dtypes the backend takes, compared by identity
_RFFT, _IRFFT, _FLOAT64, _COMPLEX128 = sfft.rfft, sfft.irfft, np.dtype("f8"), np.dtype("c16")


class PocketfftBackend:
    """``scipy.fft`` backend for the stepping loop's two call forms, rfft(x) of
    float64 x and irfft(x, n) of complex128 x with n//2 + 1 entries on its
    last axis: scipy's own pocketfft with scipy's arguments (last axis, inorm
    0 forward and 2 backward, one worker), without scipy's Python layer.  Any
    other call returns NotImplemented, so scipy's backend takes it.  Entered
    by ``scipy.fft.set_backend``, every call stays a counted attribute call."""

    __ua_domain__ = "numpy.scipy.fft"

    @staticmethod
    def __ua_function__(method, args, kwargs):
        x = args[0] if args else None
        if kwargs or type(x) is not np.ndarray or not x.ndim:
            return NotImplemented
        if method is _RFFT and len(args) == 1 and x.dtype is _FLOAT64 and x.shape[-1]:
            return pypocketfft.r2c(x, (-1,), True, 0, None, 1)
        if method is _IRFFT and len(args) == 2 and x.dtype is _COMPLEX128:
            n = args[1]
            if type(n) is int and n > 0 and x.shape[-1] == n // 2 + 1:
                return pypocketfft.c2r(x, (-1,), n, False, 2, None, 1)
        return NotImplemented


@lru_cache(maxsize=32)
def half_spectrum(grid: GridSpec) -> HalfSpectrum:
    return HalfSpectrum(grid)


def hermitian_extend(half: np.ndarray) -> np.ndarray:
    """Dense coefficients -M..M of a real field from its half spectrum
    c[0..M] (last axis), using c(-n) = conj(c(n))."""
    M = half.shape[-1] - 1
    dense = np.empty(half.shape[:-1] + (2 * M + 1,), dtype=np.complex128)
    dense[..., M:] = half
    dense[..., :M] = np.conj(half[..., :0:-1])
    return dense


# ---------------------------------------------------------------------------
# Smooth dyadic cut-offs
# ---------------------------------------------------------------------------

def _g(t):
    """exp(-1/t) for t > 0, 0 otherwise (smooth transition kernel)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _g_prime(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos]) / t[pos] ** 2
    return out


def eta0(x):
    """Smooth bump: 1 on [-1,1], supported in [-2,2].

    eta0(x) = g(2-|x|) / (g(2-|x|) + g(|x|-1)) with g(t) = exp(-1/t) (t>0).
    """
    x = np.abs(np.asarray(x, dtype=float))
    num = _g(2.0 - x)
    return num / (num + _g(x - 1.0))  # positive: one of g's arguments is


def eta0_prime(x):
    """d/dx of eta0 (odd function; closed form, no differencing)."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    sgn = np.sign(x)
    ga = _g(2.0 - ax)
    gb = _g(ax - 1.0)
    dga = -_g_prime(2.0 - ax)   # d/d|x| g(2-|x|)
    dgb = _g_prime(ax - 1.0)    # d/d|x| g(|x|-1)
    # the denominator is positive, and outside (1, 2) the numerator is 0
    return sgn * ((dga * gb - ga * dgb) / (ga + gb) ** 2)


def chi(k: int, n) -> np.ndarray:
    """Dyadic cut-off chi_k(n): chi_0 = eta0, chi_k = eta0(n/2^k) - eta0(n/2^{k-1})."""
    if k < 0:
        raise ConfigurationError(f"dyadic index k must be >= 0, got {k}")
    n = np.asarray(n, dtype=float)
    if k == 0:
        return eta0(n)
    return eta0(n / 2.0**k) - eta0(n / 2.0 ** (k - 1))


def top_band(max_mode: int) -> int:
    """k_max: the dyadic bands k = 0..k_max cover |n| <= max_mode, and band
    k_max + 1 misses it."""
    return max(1, int(np.ceil(np.log2(max(max_mode, 2)))))


def psi(k: int, n) -> np.ndarray:
    """psi_k(n) = n * chi_k'(n); psi_0 := n * eta0'(n).  Even and real."""
    if k < 0:
        raise ConfigurationError(f"dyadic index k must be >= 0, got {k}")
    n = np.asarray(n, dtype=float)
    if k == 0:
        return n * eta0_prime(n)
    dchi = eta0_prime(n / 2.0**k) / 2.0**k - eta0_prime(n / 2.0 ** (k - 1)) / 2.0 ** (k - 1)
    return n * dchi


def sobolev_norm(grid: GridSpec, half: np.ndarray, s: float):
    """(sum_{|n| <= M} <n>^{2s} |c(n)|^2)^{1/2}, <n> = sqrt(1+n^2), of each
    half spectrum c[0..M] of a real field on the last axis of ``half``."""
    h = half_spectrum(grid)
    w = h.twice * (1.0 + h.n2) ** s
    return np.sqrt(np.sum(w * np.abs(half) ** 2, axis=-1))

