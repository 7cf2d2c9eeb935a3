"""Counterexample data, oscillatory primitives, quintic terms, growth law."""

import math
import os
import subprocess
import sys
from dataclasses import asdict, fields, is_dataclass
from datetime import timedelta
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    eval_appendix_terms_oracle,
    eval_c3_cubic_oracle,
    eval_d_full_oracle,
    fifth_derivative_nonresonant_oracle,
    fifth_derivative_quadrature_oracle,
    fifth_derivative_resonant_oracle,
    hs_norm_of_map,
    iter_quintic_tuples_oracle,
    m0_tuple,
    resonant_pieces_oracle,
    structure_value_oracle,
    t2_duhamel_fifth_oracle,
)

import mkdvlab
from mkdvlab.equations import EquationParams, RenormalizedTerms
from mkdvlab.errors import ConfigurationError
from mkdvlab.illposed import (
    CounterexampleSpec,
    _amplitudes,
    _c5_index,
    _check_osc_bound,
    _leaves,
    _pair_index,
    _pair_values,
    _quintic_table,
    counterexample_support,
    eval_appendix_terms,
    eval_c3_cubic,
    growth_experiment,
    numeric_fifth_derivative,
    osc_double,
    osc_single,
    symmetrized_support,
    t2_duhamel_fifth,
)
from mkdvlab.integrate import StepControl, evolve
from mkdvlab.resonance import enumerate_n3, phi_cubic, resonance_g
from mkdvlab.spectral import GridSpec, SpectralField


class TestOscillatoryPrimitives:
    def test_single_zero_phase(self):
        assert osc_single(0, 0.3) == 0.3

    def test_single_closed_form(self):
        for phi in (1.0, -7.0, 1234.0):
            t = 0.21
            want = (np.exp(1j * phi * t) - 1.0) / (1j * phi)
            assert abs(osc_single(phi, t) - want) < 1e-15

    def test_single_bound(self):
        for phi in (0, 1, -3, 10**6, -(10**12)):
            for t in (1e-6, 1e-3, 0.5):
                v = abs(osc_single(phi, t))
                bound = t if phi == 0 else min(t, 2.0 / abs(phi))
                assert v <= bound * (1 + 1e-12)

    @pytest.mark.parametrize("val, phi, t", [
        (0.6, 0, 0.5),                                   # above t
        (np.array([0.1, 0.3]), np.array([0.0, 10.0]), 0.5),  # above 2/|phi|
        (complex("nan"), 1.0, 0.5),
    ])
    def test_bound_violation_raises(self, val, phi, t):
        with pytest.raises(ArithmeticError, match="bound violated"):
            _check_osc_bound(val, phi, t)

    def test_bound_check_survives_optimize_flag(self):
        src = os.path.dirname(os.path.dirname(mkdvlab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "from mkdvlab.illposed import _check_osc_bound\n"
            "try:\n    _check_osc_bound(0.6, 0, 0.5)\n"
            "except ArithmeticError:\n    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120)
        assert proc.returncode == 0

    def test_scalar_gives_python_complex(self):
        for val in (osc_single(0, 0.3), osc_single(7, 0.3), osc_single(2**70, 0.3),
                    osc_double(0, 0, 0.3), osc_double(3, 0, 0.3), osc_double(2, 2**70, 0.3)):
            assert type(val) is complex

    def test_array_equals_scalar_calls(self):
        # exact phases beyond 2^63 in object arrays, floats, and the zero limits
        t = 1e-4
        big = [0, 1, -7, 3 * 2**63 + 5, -(2**70) - 1, 5**27, 2**63 - 1]
        a = np.array(big * len(big), dtype=object)
        b = np.array([x for x in big for _ in big], dtype=object)
        got = osc_single(a, t)
        assert got.tolist() == [osc_single(x, t) for x in a.tolist()]
        got = osc_double(a, b, t)
        assert got.tolist() == [osc_double(x, y, t) for x, y in zip(a.tolist(), b.tolist())]
        # the exact sum a + b = 1 enters I2, not float(a) + float(b) = 0
        a1, b1 = 2**70 + 1, -(2**70)
        want = (osc_single(1, t) - osc_single(a1, t)) / (1j * float(b1))
        assert osc_double(a1, b1, t) == pytest.approx(want, rel=1e-15)
        assert osc_double(a1, b1, t) != osc_double(float(a1), float(b1), t)
        phi = np.array([0.0, 2.5, -1e9, 3.0e21])
        assert osc_single(phi, t).tolist() == [osc_single(x, t) for x in phi.tolist()]
        assert osc_double(0, phi, t).tolist() == [osc_double(0, x, t) for x in phi.tolist()]

    @pytest.mark.parametrize("a,b", [(3.0, 5.0), (0.0, 7.0), (11.0, 0.0), (-40.0, 40.0), (0.0, 0.0)])
    def test_double_against_quadrature(self, a, b):
        t = 0.37
        qr, _ = si.quad(lambda tp: (np.exp(1j * a * tp) * osc_single(b, tp)).real, 0, t, limit=300)
        qi, _ = si.quad(lambda tp: (np.exp(1j * a * tp) * osc_single(b, tp)).imag, 0, t, limit=300)
        assert abs(osc_double(a, b, t) - (qr + 1j * qi)) < 1e-12


class TestCounterexampleData:
    def test_c5_values(self):
        spec = CounterexampleSpec(N=8, s=1.0)
        supp = counterexample_support(spec)
        assert supp[7] == supp[8] == pytest.approx(1 / 8)
        for n in (-2, -1, 1, 2):
            assert supp[n] == 1.0

    @pytest.mark.parametrize("N", [8, 64, 512])
    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0])
    def test_sobolev_norm_order_one(self, N, s):
        # ||v0||_{H^s} ~ 1, concretely in (2, 4) for s in (0, 1]
        spec = CounterexampleSpec(N=N, s=s)
        v = hs_norm_of_map(counterexample_support(spec), s)
        assert 2.0 < v < 4.0

    def test_symmetrization(self):
        spec = CounterexampleSpec(N=8, s=1.0)
        sym = symmetrized_support(counterexample_support(spec))
        for n, v in sym.items():
            assert sym[-n] == pytest.approx(np.conj(v))


class TestD0:
    def test_phi_m0_vanishes_exactly(self):
        for N in (8, 64, 4096):
            spec = CounterexampleSpec(N=N, s=1.0)
            tup = m0_tuple(spec)
            assert tup.phi_out + tup.phi_in == 0
            # cross-check through the resonance module
            assert (
                phi_cubic(N, 2, -1, N - 1) + phi_cubic(N - 1, -2, 1, N) == 0
            )

    def test_linear_in_t(self):
        s1 = CounterexampleSpec(N=128, s=1.0, t=1e-4)
        s2 = CounterexampleSpec(N=128, s=1.0, t=2e-4)
        d0 = [eval_appendix_terms(spec).d0_hsnorm for spec in (s1, s2)]
        assert d0[1] == pytest.approx(2 * d0[0], rel=1e-12)

    def test_closed_form_value(self):
        # |N^s D0| = t N^3 (N-1)^3 / [(5/2)(N-2)(N+1)(2N^2-2N+6)]  (s = 1)
        spec = CounterexampleSpec(N=64, s=1.0, t=1e-4)
        N, t = 64, 1e-4
        want_ns = t * N**3 * (N - 1) ** 3 / (2.5 * (N - 2) * (N + 1) * (2 * N**2 - 2 * N + 6))
        got = eval_appendix_terms(spec).d0_hsnorm  # <N>^s |D0|
        assert got == pytest.approx(want_ns * math.sqrt(1 + 1 / N**2), rel=1e-10)

    def test_ratio_to_tN2_is_one_fifth(self):
        # the exact constant: ratio * 5 -> 1 from below
        for N in (64, 512, 4096):
            spec = CounterexampleSpec(N=N, s=1.0, t=1e-4)
            ratio = eval_appendix_terms(spec).d0_hsnorm / (1e-4 * N**2)
            assert 0.98 < 5.0 * ratio < 1.001


class TestDFull:
    def test_m0_term_reproduced_bitwise(self):
        # D0 is the closed form of the walk's m0 tuple: its structure value, bit for bit
        for N in (8, 16, 64, 4096, 2**26):
            spec = CounterexampleSpec(N=N, s=1.0, t=1e-4)
            d0 = structure_value_oracle(m0_tuple(spec), spec.t)
            assert eval_appendix_terms(spec).d0_hsnorm == (1.0 + N**2) ** 0.5 * abs(d0), N

    @pytest.mark.parametrize("t", [1e-4, 1e-2])
    @pytest.mark.parametrize("N", [10**8, 2**40, (2**63 - 1) // 5])
    def test_d0_exact_at_s2(self, N, t):
        # at s = 2 the weight (1 + N^2)^(s/2) is an integer, so
        # <N>^2 N^3 (N-1)^3 / |phi_out| * N^-2 * t is exact as a fraction;
        # kernels past 2^53, where float64 would round (N-1)^2, stay exact
        spec = CounterexampleSpec(N=N, s=2.0, t=t)
        want = Fraction((1 + N**2) * N * (N - 1) ** 3, abs(phi_cubic(N, 2, -1, N - 1))) * Fraction(t)
        got = eval_appendix_terms(spec).d0_hsnorm
        assert abs(Fraction(got) - want) <= Fraction(2.5e-16) * want

    def test_tuples_respect_nonresonant_sets(self):
        # every outer tuple of the walker lies in the enumerated A3 sets
        spec = CounterexampleSpec(N=8, s=1.0, t=1e-3)
        supp = counterexample_support(spec)
        rows = table_rows(_quintic_table(supp, ("cubic2",)))
        from_enum = {}
        for n, outer in zip(rows["n"].tolist(), map(tuple, rows["outer"].tolist())):
            if abs(n) <= 12 and max(abs(m) for m in outer) <= 12:
                if n not in from_enum:
                    from_enum[n] = {(t3.n1, t3.n2, t3.n3) for t3 in enumerate_n3(n, 12)}
                assert outer in from_enum[n]

    def test_triangle_bookkeeping(self):
        spec = CounterexampleSpec(N=64, s=1.0, t=1e-4)
        rep = eval_d_full_oracle(spec)
        # |D(N)| >= |D0| - sum of other tuples' moduli at mode N (weighted)
        assert rep["hs_norm"] >= rep["d0_hsnorm"] - rep["nonresonant_moduli"] - 1e-12
        # the cancellation slack is what the siblings of m0 remove; reported
        assert rep["cancellation_slack"] >= 0.0

    def test_full_norm_linear_growth(self):
        # the resonant tuple's leg multiset admits sibling splits whose
        # outer phases come with opposite signs (outer legs (2,-1) versus
        # (-2,1)); exactly integrated they cancel the N^2 part and the full
        # sum grows like t*N -- still unbounded, one power below the
        # single-tuple rate
        norms = []
        for N in (256, 512, 1024, 2048):
            norms.append(eval_appendix_terms(CounterexampleSpec(N=N, s=1.0, t=1e-4)).d_full_hsnorm)
        slope = np.polyfit(np.log([256, 512, 1024, 2048]), np.log(norms), 1)[0]
        assert 0.9 <= slope <= 1.1


class TestGrowthExperiment:
    def test_slope_two(self):
        Ns = [2**k for k in range(6, 13)]
        rows, slope = growth_experiment(Ns, s=1.0, t=1e-4)
        assert 1.9 <= slope <= 2.1

    def test_rows_match_the_oracle(self):
        # one value pass per N over the shared pair index gives the rows of
        # the appendix terms summed tuple by tuple at each N
        rows, _ = growth_experiment([8, 16], s=1.0, t=1e-4)
        for row in rows:
            want = eval_appendix_terms_oracle(CounterexampleSpec(N=row.N, s=1.0, t=1e-4))
            got = (row.d0_norm, row.ratio_tN2, row.b1, row.b2, row.d1)
            assert got == pytest.approx(
                (want.d0_hsnorm, want.d0_hsnorm / (1e-4 * row.N**2), want.b1, want.b2,
                 want.d1_norms), rel=REL, abs=0.0)

    def test_ratio_holds_past_int64_kernels(self):
        # from N ~ 3.04e9 the kernel (N-1)^2 of D0 passes int64; the float64
        # kernels keep D0 at 0.2 t N^2 there, as at N = 2^31
        (below, beyond), _ = growth_experiment([2**31, 4 * 10**9], s=1.0, t=1e-4)
        assert beyond.ratio_tN2 == pytest.approx(below.ratio_tN2, rel=1e-9, abs=0.0)

    def test_legs_past_int64_rejected(self):
        CounterexampleSpec(N=(2**63 - 1) // 5)
        with pytest.raises(ConfigurationError, match="int64"):
            CounterexampleSpec(N=(2**63 - 1) // 5 + 1)

    # growth_experiment(64..4096, s=1, t=1e-4) as float.hex: N, d0_norm,
    # ratio_tN2, slope_running, and the remainders b1, b2, d1 (to 1e-12)
    PINNED_ROWS = [
        (64, "0x1.4a428d600c0bdp-4", "0x1.93263d93beb46p-3", "nan",
         0.0008369583334465097, 0.00043484358151612526, 0.0358872199180766),
        (128, "0x1.4ce99e0f17349p-2", "0x1.96632d716bd3ap-3", "0x1.017a2eca44d1cp+1",
         0.0008367396424094174, 0.0004344223404721442, 0.07196596559694213),
        (256, "0x1.4e3b24d09ad12p+0", "0x1.97ff3270a4fc4p-3", "0x1.011a84c442f4ap+1",
         0.0008366849385063682, 0.0004343169565627518, 0.1443112826770082),
        (512, "0x1.4ee368dc11a8bp+2", "0x1.98cc9980a38e6p-3", "0x1.00d80f445e029p+1",
         0.000836671260962422, 0.0004342906063275839, 0.2890959547409986),
        (1024, "0x1.4f376b392183bp+4", "0x1.993326633d694p-3", "0x1.00a8d0f899aa2p+1",
         0.000836667841452916, 0.0004342840184813289, 0.5787115231333972),
        (2048, "0x1.4f616483baba1p+6", "0x1.99666332cd702p-3", "0x1.00868106af5fep+1",
         0.000836666986568104, 0.0004342823715020392, 1.157965727797055),
        (4096, "0x1.4f765f30dd8b6p+8", "0x1.997fff332670ap-3", "0x1.006d13735e47ap+1",
         0.0008366667728464342, 0.0004342819597561069, 2.3164856455224254),
    ]

    def test_rows_pinned(self):
        # D0, its ratio to t N^2 and the slopes are bitwise the values below;
        # the remainders sum their pair factors per class, so they may move
        # in the last bits only
        rows, slope = growth_experiment([r[0] for r in self.PINNED_ROWS], s=1.0, t=1e-4)
        for row, (N, d0, ratio, running, b1, b2, d1) in zip(rows, self.PINNED_ROWS):
            assert row.N == N
            assert (row.d0_norm.hex(), row.ratio_tN2.hex(), row.slope_running.hex()) == (
                d0, ratio, running)
            assert (row.b1, row.b2, row.d1) == pytest.approx((b1, b2, d1), rel=1e-12, abs=0.0)
        assert slope.hex() == self.PINNED_ROWS[-1][3]

    def test_running_slope_column(self):
        Ns = [64, 128, 256]
        rows, _ = growth_experiment(Ns, s=1.0, t=1e-4)
        assert math.isnan(rows[0].slope_running)
        assert rows[-1].slope_running == pytest.approx(2.0, abs=0.1)

    def test_c3_variant_cubic_slope(self):
        # resonant quadruple (N,1,-1,N) drives ~ t N^3
        Ns = [2**k for k in range(6, 12)]
        norms = [eval_c3_cubic(CounterexampleSpec(N=N, s=1.0, t=1e-4))["hs_norm"] for N in Ns]
        slope = np.polyfit(np.log(Ns), np.log(norms), 1)[0]
        assert 2.9 <= slope <= 3.1

    def test_phi_ratio_converges_to_five(self):
        N = 4096
        val = abs(phi_cubic(N, 2, -1, N - 1)) / N**4
        assert abs(val - 5.0) < 0.05 * 5.0


class TestAppendixTerms:
    def test_separation_at_1024(self):
        spec = CounterexampleSpec(N=1024, s=1.0, t=1e-4)
        rep = eval_appendix_terms(spec)
        tn2 = spec.t * spec.N**2
        for v in (rep.b1, rep.b2, rep.d1_norms):
            assert v < 0.1 * tn2
        assert rep.d0_hsnorm > 10.0 * max(rep.b1, rep.b2, rep.d1_norms)

    def test_reported_columns_differ(self):
        # each remainder is reported once: no two columns repeat a number
        rep = eval_appendix_terms(CounterexampleSpec(N=64, s=1.0, t=1e-4))
        cols = [getattr(rep, f.name) for f in fields(rep) if f.name not in ("N", "s", "t")]
        assert len(set(cols)) == len(cols)

    def test_undifferentiated_slots_carry_one_remainder(self):
        # the outer kernel n3^2 reads lb in slots 0 and 1, so the two slots'
        # tuple sums are equal mode by mode: B and C are one term
        sums = {}
        for tup in iter_quintic_tuples_oracle(counterexample_support(CounterexampleSpec(N=8))):
            d = sums.setdefault((tup.slot, tup.y_term), {})
            d[tup.n] = d.get(tup.n, 0.0) + structure_value_oracle(tup, 1e-4)
        for y in ("cubic2", "cubic3"):
            assert sums[(1, y)] == sums[(0, y)]

    def test_b1_tracks_its_bound(self):
        rows, _ = growth_experiment([2**k for k in range(6, 13)], s=1.0, t=1e-4)
        ratios = [r.b1 / (r.t * max(r.N ** (1 - r.s), 1.0)) for r in rows]
        assert max(ratios) / min(ratios) <= 8.0

    def test_d1_tracks_its_bound(self):
        rows, _ = growth_experiment([2**k for k in range(6, 13)], s=1.0, t=1e-4)
        ratios = [r.d1 / (r.t * max(r.N ** (2 - r.s), 1.0)) for r in rows]
        assert max(ratios) / min(ratios) <= 8.0

    @staticmethod
    def resonant_cubic_fifth_norm(spec):
        """H^s norm of the delta^5 coefficient of the dropped resonant cubic
        -20i n^3 |v|^2 v over w3 of both nonresonant cubics and of itself."""
        outer, self_sourced, _ = resonant_pieces_oracle(
            counterexample_support(spec), spec, ("cubic2", "cubic3"))
        total = {n: outer.get(n, 0.0) + self_sourced.get(n, 0.0) for n in outer | self_sourced}
        return hs_norm_of_map(total, spec.s)

    def test_resonant_cubic_report_scaling(self):
        # dropped resonant term's fifth derivative ~ t^2 N^{6-4s}: the
        # self-sourced piece carries the double time integral
        Ns = (256, 512, 1024)
        vals = [self.resonant_cubic_fifth_norm(CounterexampleSpec(N=N, s=1.0, t=1e-4))
                for N in Ns]
        slope = np.polyfit(np.log(Ns), np.log(vals), 1)[0]
        assert abs(slope - 2.0) < 0.1
        v1 = self.resonant_cubic_fifth_norm(CounterexampleSpec(N=256, s=1.0, t=1e-4))
        v2 = self.resonant_cubic_fifth_norm(CounterexampleSpec(N=256, s=1.0, t=2e-4))
        assert v2 / v1 == pytest.approx(4.0, rel=0.05)  # t^2 scaling


class TestNormalFormConsistency:
    def test_direct_equals_boundary_plus_distributed(self):
        # the package's normal form against the oracle's sum of I2 closed forms
        spec = CounterexampleSpec(N=8, s=1.0, t=0.005)
        supp = symmetrized_support(counterexample_support(spec))
        d_direct = t2_duhamel_fifth_oracle(supp, spec, route="direct")
        d_nf, _ = t2_duhamel_fifth(supp, spec)
        keys = set(d_direct) | set(d_nf)
        scale = max(abs(v) for v in d_direct.values())
        gap = max(abs(d_direct.get(k, 0) - d_nf.get(k, 0)) for k in keys)
        assert gap < 1e-12 * scale

    def test_other_route_rejected(self):
        spec = CounterexampleSpec(N=8, s=1.0, t=0.005)
        with pytest.raises(ValueError, match="'direct'"):
            t2_duhamel_fifth(COMPLEX_SUPPORT, spec, route="direct")


class TestResonantCubicPieces:
    """The oracles' closed-form delta^5 pieces that pair the resonant cubic
    with a nonresonant cubic (resonant outer term over a nonresonant w3, and
    nonresonant outer term over the resonant w3), against quadrature."""

    @pytest.mark.parametrize("cubic", ["cubic2", "cubic3"])
    def test_with_one_nonresonant_cubic(self, cubic):
        spec = CounterexampleSpec(N=8, s=1.0, t=2e-6)
        supp = symmetrized_support(counterexample_support(spec))
        got = fifth_derivative_resonant_oracle(supp, spec, (cubic,))
        want = fifth_derivative_quadrature_oracle(supp, spec, (cubic,), nodes=96)
        assert set(got) == set(want)
        scale = max(abs(v) for v in want.values())
        for n, v in want.items():
            assert abs(got[n] - v) <= 1e-10 * scale


class TestNumericFifthDerivative:
    def test_linear_flow_higher_derivatives_vanish(self, monkeypatch):
        grid = GridSpec(16)
        u0 = SpectralField.from_modes(grid, {1: 0.5, -1: 0.5, 3: 0.2, -3: 0.2})
        p = EquationParams.constrained_family(40.0)
        terms = RenormalizedTerms(False, False, False, False)
        runs = []

        def counting_evolve(*args, **kwargs):
            runs.append(args[0])
            return evolve(*args, **kwargs)

        monkeypatch.setattr(mkdvlab.integrate, "evolve", counting_evolve)
        deltas = [0.05, 0.1, 0.15]
        a5, _ = numeric_fifth_derivative(u0, 0.01, deltas, p, terms)
        assert np.max(np.abs(a5.coeff)) < 1e-10
        assert len(runs) == len(deltas)  # one run per delta: the flow is odd in delta

    @pytest.mark.parametrize("terms", [
        RenormalizedTerms(False, True, False, False), RenormalizedTerms(),
    ], ids=["cubic2", "all_terms"])
    def test_flow_is_odd_in_delta(self, terms):
        # v(-delta) = -v(delta) bit for bit on every record, gauge terms and
        # automatic dt included, so numeric_fifth_derivative runs +delta only
        spec = CounterexampleSpec(N=8, s=1.0, t=0.002)
        u0 = SpectralField.from_modes(GridSpec(16), symmetrized_support(counterexample_support(spec)))
        p = EquationParams.constrained_family(40.0)
        p.d1, p.d2 = 3.0, -1.5
        plus, minus = (
            evolve(SpectralField(u0.grid, d * u0.coeff), spec.t, p, tag="renormalized_5mkdv",
                   renorm_terms=terms)
            for d in (0.3, -0.3))
        assert len(plus.half) > 2
        assert np.array_equal(minus.half, -plus.half)

    def test_degenerate_deltas_rejected(self):
        grid = GridSpec(16)
        u0 = SpectralField.from_modes(grid, {1: 0.5, -1: 0.5})
        p = EquationParams.constrained_family(40.0)
        with pytest.raises(ConfigurationError, match="delta spread too small for a stable fit"):
            numeric_fifth_derivative(u0, 0.01, [0.05, 0.0500001, 0.05000011], p,
                                     RenormalizedTerms())

    @pytest.mark.parametrize("deltas", [[0.05, 0.1], [0.05, 0.05, 0.1], [0.0, 0.05, 0.1],
                                        [-0.05, 0.05, 0.1]],
                             ids=["two", "repeated", "zero", "negative"])
    def test_deltas_must_be_three_distinct_positive(self, deltas):
        u0 = SpectralField.from_modes(GridSpec(16), {1: 0.5, -1: 0.5})
        p = EquationParams.constrained_family(40.0)
        with pytest.raises(ConfigurationError, match="need >= 3 distinct positive delta values"):
            numeric_fifth_derivative(u0, 0.01, deltas, p, RenormalizedTerms())

    @staticmethod
    def _cross_validation_rel(flow, t, dt, closed_form):
        """max |numeric - closed form| / max |closed form| of the fifth
        delta-derivative at N=8, max_mode=32; closed_form(support, spec)
        gives the field of the flow."""
        spec = CounterexampleSpec(N=8, s=1.0, t=t)
        grid = GridSpec(32)
        supp = symmetrized_support(counterexample_support(spec))
        u0 = SpectralField.from_modes(grid, supp)
        p = EquationParams.constrained_family(40.0)
        p.d1 = p.d2 = 0.0
        ana = closed_form(supp, spec)
        ana_arr = SpectralField.from_modes(
            grid, {n: v for n, v in ana.items() if abs(n) <= grid.max_mode}).coeff
        a5, _ = numeric_fifth_derivative(
            u0, spec.t, [0.01, 0.02, 0.03, 0.04], p, flow,
            ctrl=StepControl(dt=dt, record_stride=10**9),
        )
        return np.max(np.abs(a5.coeff - ana_arr)) / np.max(np.abs(ana_arr))

    def test_cross_validation_small(self):
        # cubic-only flow at N=8, max_mode=32: numeric divided difference
        # matches the normal-form second iterate
        flow = RenormalizedTerms(False, True, False, False)
        rel = self._cross_validation_rel(
            flow, 0.002, 2e-6, lambda supp, spec: t2_duhamel_fifth(supp, spec)[0])
        assert rel < 1e-3

    @pytest.mark.parametrize("flow, closed_form", [
        (RenormalizedTerms(False, False, False, True),
         lambda supp, spec: fifth_derivative_nonresonant_oracle(supp, spec, (), quintic=True)),
        (RenormalizedTerms(True, False, False, False),
         lambda supp, spec: fifth_derivative_resonant_oracle(supp, spec, ())),
    ], ids=["quintic", "resonant_cubic"])
    def test_cross_validation_single_term(self, flow, closed_form):
        # the k^5 quintuples and the self-sourced resonant-cubic piece, each
        # summed tuple by tuple by the oracles
        assert self._cross_validation_rel(flow, 5e-4, 5e-6, closed_form) < 1e-3


# complex, non-Hermitian data on four leaves: cheap for the per-tuple walker
COMPLEX_SUPPORT = {-1: 0.3 + 0.2j, 1: 0.3 - 0.2j, 2: 0.1j, 8: 0.05 - 0.01j}
REL = 1e-12


def assert_fields_close(got: dict, want: dict):
    assert list(got) == list(want)  # same modes, in the same order
    scale = max(abs(v) for v in want.values())
    for n, v in want.items():
        assert abs(got[n] - v) <= REL * scale


def assert_reports_close(got: dict, want: dict):
    assert list(got) == list(want)
    for key, v in want.items():
        assert got[key] == pytest.approx(v, rel=REL, abs=0.0), key


# positions in the pair's outer legs (la, lb, n_slot) of each slot's legs
SLOT_LEGS = np.array([[2, 0, 1], [0, 2, 1], [0, 1, 2]])


def outer_legs(tab):
    """(pairs, 3) outer legs (la, lb, n_slot) of each pair of tab."""
    return np.stack([tab.legs[tab.index.ia], tab.legs[tab.index.ib], tab.n_slot], axis=1)


def table_rows(tab):
    """The factored table flattened to one row per tuple, in C order of
    (pair, slot, inner term), with the pair of each row: each slot's legs
    from the pair's (la, lb, n_slot), and its outer kernel from the row of
    lb^2 (slots 0 and 1) or n_slot^2 (slot 2), and its exact phases
    gathered from its pair's outer-phase key and inner triple."""
    pair, slot, yi = np.indices((len(tab), 3, len(tab.inner_terms))).reshape(3, -1)
    return {
        "pair": pair,
        "n": tab.n[pair],
        "outer": np.take_along_axis(outer_legs(tab)[pair], SLOT_LEGS[slot], axis=1),
        "slot": slot,
        "inner": tab.inner[tab.index.triple[pair]],
        "y_term": [tab.inner_terms[y] for y in yi],
        "amp": tab.amp[pair],
        "kernel_x": tab.kernel_x[(slot == 2).astype(int), pair],
        "kernel_y": tab.kernel_y[yi, pair],
        "phi_out": tab.phi_out[tab.index.key[pair]],
        "phi_in": tab.phi_in[tab.index.triple[pair]],
    }


def assert_rows_match_walk(tab, walk):
    rows = table_rows(tab)
    assert len(rows["n"]) == len(walk) > 0
    assert rows["n"].tolist() == [w.n for w in walk]
    assert list(map(tuple, rows["outer"].tolist())) == [w.outer for w in walk]
    assert rows["slot"].tolist() == [w.slot for w in walk]
    assert list(map(tuple, rows["inner"].tolist())) == [w.inner for w in walk]
    assert rows["y_term"] == [w.y_term for w in walk]
    assert rows["amp"].tolist() == [w.amp for w in walk]
    assert rows["kernel_x"].tolist() == [w.kernel_x for w in walk]
    assert rows["kernel_y"].tolist() == [w.kernel_y for w in walk]
    assert rows["phi_out"].tolist() == [w.phi_out for w in walk]
    assert rows["phi_in"].tolist() == [w.phi_in for w in walk]


@st.composite
def random_supports(draw):
    """3-6 distinct leaves in [-12, 12] with complex amplitudes whose parts
    are multiples of 1/4, so that every product of five is exact: numpy's
    array and scalar complex products may round differently."""
    leaves = draw(st.lists(st.integers(-12, 12), min_size=3, max_size=6, unique=True))
    part = st.integers(-8, 8).map(lambda q: q / 4)
    return {m: complex(draw(part), draw(part)) for m in leaves}


@settings(max_examples=40, deadline=timedelta(seconds=5), derandomize=True, database=None)
@given(support=random_supports(),
       inner_terms=st.sampled_from([("cubic2", "cubic3"), ("cubic2",), ("cubic3",)]))
def test_factored_table_matches_walk(support, inner_terms):
    walk = list(iter_quintic_tuples_oracle(support, inner_terms))
    if walk:
        assert_rows_match_walk(_quintic_table(support, inner_terms), walk)
    else:
        assert len(_quintic_table(support, inner_terms)) == 0


@settings(max_examples=40, deadline=timedelta(seconds=5), derandomize=True, database=None)
@given(support=random_supports())
def test_outer_phase_never_vanishes(support):
    # phi_out = -G(la, lb, n_slot), whose factors are nonzero on A3(n): every
    # tuple has a normal form, so no caller masks phi_out = 0
    tab = _quintic_table(support, ("cubic2",))
    want = [-resonance_g(la, lb, n_slot) for la, lb, n_slot in outer_legs(tab).tolist()]
    assert tab.phi_out[tab.index.key].tolist() == want
    assert 0 not in want


def assert_same_arrays(got, want):
    """Every field of two dataclasses equal, arrays in dtype, shape and value,
    and a nested dataclass (a table's pair index) field by field."""
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape) and np.array_equal(a, b), f.name
        elif is_dataclass(b):
            assert_same_arrays(a, b)
        else:
            assert a == b, f.name


@settings(max_examples=40, deadline=timedelta(seconds=5), derandomize=True, database=None)
@given(N=st.integers(8, 10**4), N0=st.integers(8, 10**4))
@example(N=(2**63 - 1) // 5, N0=8)  # the largest N whose legs fit in int64
def test_pair_index_serves_every_n(N, N0):
    # which C5 pairs are kept depends only on which sums of two and of four
    # leaves vanish, the same at every N >= 8: the index built at N0 is the
    # module's, and valued at N it is the table built at N (legs, walk
    # order, exact phases and the float of their sum alike)
    supp0, supp = (counterexample_support(CounterexampleSpec(N=n)) for n in (N0, N))
    index = _pair_index(_leaves(supp0, sorted(supp0))[0])
    assert_same_arrays(index, _c5_index()[0])
    got = _pair_values(index, *_leaves(supp, sorted(supp)), ("cubic2", "cubic3"))
    assert_same_arrays(got, _quintic_table(supp, ("cubic2", "cubic3")))
    # every pair of a class has the class's exact phi_out + phi_in and n
    exact = got.phi_out[got.index.key] + got.phi_in[got.index.triple]
    assert exact.tolist() == got.phi_sum[got.index.cls].tolist()
    assert outer_legs(got).sum(axis=1).tolist() == got.n.tolist()


@settings(max_examples=40, deadline=timedelta(seconds=5), derandomize=True, database=None)
@given(N=st.integers(8, 5000))
def test_c3_cubic_matches_loops(N):
    # the array pass against the per-triple loop, modes in the loop's order
    c3 = CounterexampleSpec(N=N, s=1.0, t=1e-4)
    want = eval_c3_cubic_oracle(c3)
    got = eval_c3_cubic(c3)["field"]
    assert list(got) == list(want)
    for n, v in want.items():
        assert abs(got[n] - v) <= 1e-14 * abs(v), n


class TestTupleTableMatchesOracle:
    """The tuple table against the per-tuple walker of tests/oracles.py."""

    def test_rows_in_walk_order(self):
        supp = counterexample_support(CounterexampleSpec(N=8, s=1.0, t=1e-4))
        assert_rows_match_walk(_quintic_table(supp, ("cubic2", "cubic3")),
                               list(iter_quintic_tuples_oracle(supp)))

    def test_one_exact_phase_sum_per_pair(self):
        # every tuple of a pair shares its key's exact phi_out, its triple's
        # phi_in and its class's exact phi_out + phi_in, and the floats are
        # those of phi_out and of the exact sum
        spec = CounterexampleSpec(N=4096, s=1.0, t=1e-4)
        supp = counterexample_support(spec)
        tab = _quintic_table(supp, ("cubic2", "cubic3"))
        walk = list(iter_quintic_tuples_oracle(supp))
        pair = table_rows(tab)["pair"]
        for p, w in zip(pair.tolist(), walk):
            assert (w.phi_out, w.phi_in) == (tab.phi_out[tab.index.key[p]],
                                             tab.phi_in[tab.index.triple[p]])
            assert w.phi_out + w.phi_in == tab.phi_sum[tab.index.cls[p]]
        assert tab.phi_sum_f.tolist() == [float(v) for v in tab.phi_sum]
        assert tab.phi_out_f.tolist() == [float(v) for v in tab.phi_out]
        # at this N the float sum of the two phases would round differently
        sum_f = tab.phi_out_f[tab.index.key] + tab.phi_in.astype(float)[tab.index.triple]
        assert np.any(tab.phi_sum_f[tab.index.cls] != sum_f)

    def test_one_e_t_value_per_class(self, monkeypatch):
        # the sweep's E_t work: one value per class of the C5 index (248 of
        # its 4,992 pairs), in one call; D0 is a closed form with E_t(0) = t
        from mkdvlab import illposed

        sizes = []

        def counted(phi, t):
            sizes.append(np.size(phi))
            return osc_single(phi, t)

        monkeypatch.setattr(illposed, "osc_single", counted)
        eval_appendix_terms(CounterexampleSpec(N=64))
        index = _c5_index()[0]
        assert (len(index.leaves), len(index.cls)) == (248, 4992)
        assert sizes == [len(index.leaves)]

    def test_appendix_bins_class_sums(self, monkeypatch):
        # the pair factors are real and summed per (cell, class) first: the
        # one complex array binned by mode per N is (4 norms, 248 classes),
        # not (4, 4,992 pairs)
        from mkdvlab import illposed

        binned, bin_by_mode = [], illposed._bin_by_mode

        def counted(n, cls, v):
            binned.append((v.shape, v.dtype))
            return bin_by_mode(n, cls, v)

        monkeypatch.setattr(illposed, "_bin_by_mode", counted)
        eval_appendix_terms(CounterexampleSpec(N=64))
        assert binned == [((4, 248), np.dtype(complex))]

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.7, 3.0])
    @pytest.mark.parametrize("N", [8, 9, 4096, 3**9, 2**40])
    def test_c5_amplitude_one_per_class(self, N, s):
        # the C5 values are 1 and N^-s, so each pair's product of its five
        # in walk order is its class's, taken over the sorted leaves, bit for bit
        tab = _quintic_table(counterexample_support(CounterexampleSpec(N=N, s=s)), ("cubic2",))
        per_class = _amplitudes(tab.vals, _c5_index()[0].leaves)
        assert tab.amp.tolist() == per_class[tab.index.cls].tolist()

    def test_appendix_report(self):
        spec = CounterexampleSpec(N=8, s=1.0, t=1e-4)
        assert_reports_close(asdict(eval_appendix_terms(spec)),
                             asdict(eval_appendix_terms_oracle(spec)))

    def test_d_full(self):
        spec = CounterexampleSpec(N=16, s=1.0, t=1e-4)
        got, want = eval_appendix_terms(spec), eval_d_full_oracle(spec)
        assert got.d0_hsnorm == pytest.approx(want["d0_hsnorm"], rel=REL, abs=0.0)
        assert got.d_full_hsnorm == pytest.approx(want["hs_norm"], rel=REL, abs=0.0)

    # the package assembles the normal form only; the oracle's direct route
    # is compared with it in TestNormalFormConsistency
    @pytest.mark.parametrize("route", ["normal_form"])
    def test_t2_duhamel_fifth(self, route):
        spec = CounterexampleSpec(N=8, s=1.0, t=0.005)
        for supp in (counterexample_support(spec), COMPLEX_SUPPORT):
            got, _ = t2_duhamel_fifth(supp, spec, ("cubic2", "cubic3"), route)
            want = t2_duhamel_fifth_oracle(supp, spec, ("cubic2", "cubic3"), route)
            assert_fields_close(got, want)

    def test_phases_beyond_int64(self):
        # |n| reaches 5N = 20480 and 20480^5 ~ 3.6e21 does not fit in int64:
        # the phases stay exact ints, and E_t takes the float of their exact sum
        spec = CounterexampleSpec(N=4096, s=1.0, t=1e-4)
        supp = counterexample_support(spec)
        tab = _quintic_table(supp, ("cubic2", "cubic3"))
        rows = table_rows(tab)
        walk = list(iter_quintic_tuples_oracle(supp))
        phases = rows["phi_out"].tolist() + rows["phi_in"].tolist()
        assert all(type(p) is int for p in phases)
        assert phases == [t.phi_out for t in walk] + [t.phi_in for t in walk]
        big = [r for r, t in enumerate(walk) if abs(t.phi_out + t.phi_in) > 2**63]
        assert big
        # a tuple's structure value is its class factor n * amp * E_t(phi_out
        # + phi_in) times its pair factor K_X * K_Y * n_slot / phi_out
        pair, cls = rows["pair"], tab.index.cls[rows["pair"]]
        amp = _amplitudes(tab.vals, _c5_index()[0].leaves)
        factor = (tab.mode * amp * osc_single(tab.phi_sum_f, spec.t))[cls]
        values = factor * (rows["kernel_x"] * rows["kernel_y"] * tab.n_slot[pair]
                           / tab.phi_out_f[tab.index.key[pair]])
        np.testing.assert_allclose(
            values[big], [structure_value_oracle(walk[r], spec.t) for r in big], rtol=REL, atol=0,
        )
        assert_reports_close(asdict(eval_appendix_terms(spec)),
                             asdict(eval_appendix_terms_oracle(spec)))
