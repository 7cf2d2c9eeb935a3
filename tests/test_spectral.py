"""Grid, transforms, cut-offs, and Sobolev norms."""

import numpy as np
import pytest
import scipy.fft as sfft

from mkdvlab.errors import ConfigurationError
from mkdvlab.spectral import (
    GridSpec,
    PocketfftBackend,
    SpectralField,
    chi,
    eta0,
    eta0_prime,
    half_spectrum,
    hermitian_extend,
    psi,
    sobolev_norm,
    top_band,
)

from oracles import dft_coefficients, random_real_coeffs


def real_samples(f: SpectralField) -> np.ndarray:
    """Real samples of f through its grid's half spectrum."""
    return half_spectrum(f.grid).synthesize(f.coeff[f.grid.max_mode:], range(1))[0]


def field_from_samples(grid: GridSpec, samples: np.ndarray) -> SpectralField:
    """The field of real samples through the grid's half spectrum."""
    return SpectralField.from_half(grid, half_spectrum(grid).analyze(samples))


def collocation_points(grid: GridSpec) -> np.ndarray:
    return 2 * np.pi * np.arange(grid.phys_points) / grid.phys_points


class TestGridSpec:
    def test_dealias_invariant(self):
        # the least fast size that keeps quintic products alias-free
        for M in (1, 8, 64, 100, 1000):
            g = GridSpec(M)
            assert g.phys_points == sfft.next_fast_len(3 * (2 * M + 1), real=True)
            assert g.phys_points >= 3 * (2 * M + 1)

    def test_undersized_grid_rejected(self):
        for M in (0, -3):
            with pytest.raises(ConfigurationError, match="max_mode must be positive"):
                GridSpec(M)

    def test_modes_built_once_and_read_only(self):
        g = GridSpec(8)
        assert g.modes is g.modes
        assert np.array_equal(g.modes, np.arange(-8, 9))
        with pytest.raises(ValueError):
            g.modes[0] = 0
        assert g == GridSpec(8) and hash(g) == hash(GridSpec(8))


class TestFromHalf:
    @pytest.mark.parametrize("half", [
        np.array([0.5, 0.25, 0.0, -0.125, 0.0625]),
        np.array([0.5, 0.25 - 0.75j, 1e-3j, -0.125 + 2.0j, 3e-7 - 1.0j]),
    ], ids=["real", "complex"])
    def test_half_and_dense_layout_bit_for_bit(self, half):
        f = SpectralField.from_half(GridSpec(4), half)
        assert f.half("from_half").tobytes() == half.astype(np.complex128).tobytes()
        assert f.coeff.tobytes() == hermitian_extend(half).tobytes()


class TestAnalyzeSynthesize:
    def test_cosine_coefficients(self, grid8):
        samples = np.cos(collocation_points(grid8))
        f = field_from_samples(grid8, samples)
        assert abs(f.coeff[1 + 8] - 0.5) < 1e-14
        assert abs(f.coeff[-1 + 8] - 0.5) < 1e-14
        others = [f.coeff[n + 8] for n in range(-8, 9) if abs(n) != 1]
        assert max(abs(v) for v in others) < 1e-14

    def test_zero_field(self, grid8):
        f = field_from_samples(grid8, np.zeros(grid8.phys_points))
        assert np.all(f.coeff == 0)
        assert np.all(real_samples(f) == 0)

    def test_synthesize_cosine(self, cosine_field, grid8):
        x = collocation_points(grid8)
        assert np.max(np.abs(real_samples(cosine_field) - np.cos(x))) < 1e-13

    def test_synthesize_sine_two(self, grid8):
        # coeff(2) = -i/2, coeff(-2) = i/2  ->  sin(2x)
        f = SpectralField.from_modes(grid8, {2: -0.5j, -2: 0.5j})
        assert np.max(np.abs(real_samples(f) - np.sin(2 * collocation_points(grid8)))) < 1e-13

    def test_roundtrip_random_trig_poly(self, grid8, rng):
        c = random_real_coeffs(8, rng)
        f = SpectralField(grid8, c)
        back = field_from_samples(grid8, real_samples(f))
        scale = np.max(np.abs(c))
        assert np.max(np.abs(back.coeff - c)) < 1e-12 * scale

    def test_against_direct_dft(self, grid8, rng):
        c = random_real_coeffs(8, rng)
        samples = real_samples(SpectralField(grid8, c))
        direct = dft_coefficients(samples)
        f = field_from_samples(grid8, samples)
        for n in range(-8, 9):
            assert abs(f.coeff[n + 8] - direct[n]) < 1e-12

    def test_length_mismatch(self, grid8):
        # a dense field holds exactly the 2M+1 coefficients -M..M
        with pytest.raises(ConfigurationError, match=r"coeff must have shape \(17,\)"):
            SpectralField(grid8, np.zeros(18))

    def test_non_hermitian_rejected(self, grid8):
        f = SpectralField.from_modes(grid8, {1: 1.0})
        with pytest.raises(ConfigurationError, match="field violates Hermitian symmetry"):
            f.half("field")


def evolve_call_forms(M: int, rng) -> list:
    """(transform, args) of each form of call that evolve's stages make at
    max_mode M: irfft(x, P) of the zero-padded table products of one row and
    of (B, M+1) batches, any number of orders, and rfft(x) of one or two
    stacked product rows, alone or over a batch."""
    P = GridSpec(M).phys_points
    forms = []
    for lead in ((1,), (3,), (5,), (1, 4), (3, 4)):
        padded = np.zeros(lead + (P // 2 + 1,), np.complex128)
        padded[..., : M + 1] = rng.standard_normal(lead + (M + 1,)) * (1 + 1j)
        forms.append((sfft.irfft, (padded, P)))
    for lead in ((), (2,), (4,), (2, 4)):
        forms.append((sfft.rfft, (rng.standard_normal(lead + (P,)),)))
    return forms


class TestPocketfftBackend:
    @pytest.mark.parametrize("M", [8, 16, 64, 256])
    def test_evolve_call_forms_bitwise_scipy(self, M, rng):
        # each form is handled by the backend itself, and its result is
        # scipy's own bit for bit
        for transform, args in evolve_call_forms(M, rng):
            want = transform(*args)
            got = PocketfftBackend.__ua_function__(transform, args, {})
            assert got is not NotImplemented
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            with sfft.set_backend(PocketfftBackend):
                assert transform(*args).tobytes() == want.tobytes()

    @pytest.mark.parametrize("transform, args, kwargs", [
        (sfft.rfft, ("x",), {"n": 100}),
        (sfft.rfft, ("x",), {"norm": "ortho"}),
        (sfft.rfft, ("x",), {"workers": 2}),
        (sfft.rfft, ("x",), {"axis": 0}),
        (sfft.rfft, ("x",), {"axis": -1}),
        (sfft.rfft, ("x32",), {}),
        (sfft.rfft, ("xint",), {}),
        (sfft.rfft, ("x", 64), {}),
        (sfft.irfft, ("c",), {}),
        (sfft.irfft, ("c",), {"n": 100}),
        (sfft.irfft, ("c", 100), {"norm": "forward"}),
        (sfft.irfft, ("c", 100), {"workers": 2}),
        (sfft.irfft, ("c", 100), {"axis": 0}),
        (sfft.irfft, ("short", 100), {}),
        (sfft.irfft, ("c64", 100), {}),
        (sfft.irfft, ("x51", 100), {}),
        (sfft.fft, ("x",), {}),
        (sfft.ifft, ("c",), {}),
    ], ids=lambda v: getattr(v, "__name__", None) or repr(v))
    def test_other_calls_fall_through_to_scipy(self, transform, args, kwargs, rng):
        # a keyword, another dtype or length, another transform: the backend
        # declines it, and under the backend the call returns scipy's result
        arrays = {
            "x": rng.standard_normal((2, 100)),
            "x32": rng.standard_normal((2, 100)).astype(np.float32),
            "xint": rng.integers(-5, 5, (2, 100)),
            "x51": rng.standard_normal((2, 51)),
            "c": rng.standard_normal((2, 51)) + 1j * rng.standard_normal((2, 51)),
            "short": rng.standard_normal((2, 17)) + 1j * rng.standard_normal((2, 17)),
            "c64": (rng.standard_normal((2, 51)) + 1j).astype(np.complex64),
        }
        args = (arrays[args[0]],) + args[1:]
        assert PocketfftBackend.__ua_function__(transform, args, kwargs) is NotImplemented
        want = transform(*args, **kwargs)
        with sfft.set_backend(PocketfftBackend):
            got = transform(*args, **kwargs)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_invalid_calls_raise_scipy_errors(self):
        # declined inputs reach scipy's own checks and errors
        with sfft.set_backend(PocketfftBackend):
            with pytest.raises(ValueError, match="invalid number of data points"):
                sfft.rfft(np.zeros((2, 0)))
            with pytest.raises(TypeError, match="real sequence"):
                sfft.rfft(np.zeros((2, 8), np.complex128))
            with pytest.raises(TypeError):
                sfft.rfft()


class TestCutoffs:
    def test_eta0_support_and_plateau(self):
        x = np.linspace(-3, 3, 601)
        v = eta0(x)
        assert np.all(v[np.abs(x) <= 1.0] == 1.0)
        assert np.all(v[np.abs(x) >= 2.0] == 0.0)
        assert np.all((v >= 0) & (v <= 1))

    def test_eta0_prime_matches_difference_quotient(self):
        x = np.linspace(-2.5, 2.5, 401)
        h = 1e-6
        num = (eta0(x + h) - eta0(x - h)) / (2 * h)
        assert np.max(np.abs(num - eta0_prime(x))) < 1e-5

    def test_partition_of_unity(self):
        for n in [0, 1, 3, 17, 100, 4097, 10**6]:
            K = max(2, int(np.ceil(np.log2(max(n, 1)))) + 2)
            total = sum(chi(k, n) for k in range(K + 1))
            assert abs(total - 1.0) < 1e-12

    def test_chi_support(self):
        # chi_k supported in 2^{k-1} <= |n| <= 2^{k+1}
        for k in range(1, 8):
            n = np.arange(-(2 ** (k + 2)), 2 ** (k + 2) + 1)
            v = chi(k, n)
            inside = (np.abs(n) >= 2 ** (k - 1)) & (np.abs(n) <= 2 ** (k + 1))
            assert np.all(v[~inside] == 0.0)

    def test_chi_plateau_value(self):
        assert float(chi(3, 8)) == pytest.approx(1.0, abs=1e-15)

    def test_evenness(self):
        for k in range(0, 7):
            for n in [1, 2, 5, 8, 33, 64]:
                ck, pk = float(chi(k, n)), float(psi(k, n))
                ckm, pkm = float(chi(k, -n)), float(psi(k, -n))
                assert ck == pytest.approx(ckm, abs=1e-15)
                assert pk == pytest.approx(pkm, abs=1e-15)

    def test_outside_support_zero(self):
        assert (float(chi(2, 64)), float(psi(2, 64))) == (0.0, 0.0)

    def test_psi_is_n_chi_prime(self):
        h = 1e-6
        for k in range(1, 6):
            for n in [2.0**k * 0.7, 2.0**k * 1.3, 2.0**k * 1.9]:
                dchi = (chi(k, n + h) - chi(k, n - h)) / (2 * h)
                assert psi(k, n) == pytest.approx(n * dchi, abs=1e-4)

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigurationError, match="dyadic index k must be >= 0, got -1"):
            chi(-1, 3)

    def test_psi_negative_k_rejected(self):
        with pytest.raises(ConfigurationError, match="dyadic index k must be >= 0, got -1"):
            psi(-1, 3)


class TestCutoffFamily:
    def test_k_max_covers_band(self):
        # chi_0..chi_K, K = top_band(M), sum to 1 over a grid's whole
        # retained band, and no later annulus meets |n| <= M
        for M in (1, 2, 3, 16, 17, 100, 2999):
            modes = GridSpec(M).modes
            K = top_band(M)
            total = sum(chi(k, modes) for k in range(K + 1))
            assert np.max(np.abs(total - 1.0)) < 1e-12
            assert not np.any(chi(K + 1, modes))


class TestSobolevNorm:
    def test_zero(self, grid8):
        assert sobolev_norm(grid8, np.zeros(9), 2.0) == 0.0

    def test_cosine_l2(self, cosine_field):
        assert sobolev_norm(cosine_field.grid, cosine_field.coeff[8:], 0.0) == pytest.approx(
            1 / np.sqrt(2), rel=1e-14)

    def test_parseval_quadrature(self, grid8, rng):
        c = random_real_coeffs(8, rng)
        f = SpectralField(grid8, c)
        u = real_samples(f)
        quad = np.sum(u**2) * (2 * np.pi / grid8.phys_points)
        assert sobolev_norm(grid8, c[8:], 0.0) ** 2 == pytest.approx(quad / (2 * np.pi), rel=1e-10)
