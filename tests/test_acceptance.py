"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s``; under ``pytest -v`` the test outcome itself is the line).

Criteria 1, 3, 4, 5, 6, 7 and 8 run the subcommand that makes their numbers
(``conserve``, ``gauge-check``, ``miura-check``, ``resonance-identity``,
``illposed-growth``, ``appendix-b``, ``fifth-derivative``) in-process through
``cli.main``, with their data as ``--set`` overrides, and take the verdict
from its exit code and the numbers from its manifest and CSV.  Every gate
that ``cli.TOLERANCES`` holds is read from it.  Criterion 5 adds the
enumerators against their defining-condition brute force.

Criterion 2 (negative control) reruns criterion 1 with c4 scaled by 1.01.
That perturbation is itself Hamiltonian: -c4 u^4 u_x is the x-derivative of
the variational derivative of -c4/30 * int u^6, so the perturbed flow
conserves H2 + 0.01 * int u^6 (the sextic weight of H2 is c1^2/1600 =
-c4/30 = 1 at c1 = 40).  H2 therefore drifts by exactly
-0.01 * (int u^6(t) - int u^6(0)), about 1.84e-7 relative on this data; a
drift above 1e-4 is out of reach.  The test asserts (a) H0 drifts below the
conserve gate, (b) that gate rejects the run, (c) the H2 drift series
matches that prediction to 1% of its maximum and (d) the shifted generator
drifts at least 100x less than H2.  It keeps its own run, since its sextic
checks need the recorded states.
"""

import csv
import json
import time

import numpy as np
import pytest

from mkdvlab import cli
from mkdvlab.cli import TOLERANCES
from mkdvlab.equations import EquationParams
from mkdvlab.integrate import StepControl, evolve
from mkdvlab.invariants import drift_report
from mkdvlab.spectral import GridSpec, SpectralField, half_spectrum, sobolev_norm, top_band

from oracles import (
    random_real_coeffs,
    rhs_physical_oracle,
    rhs_renormalized_oracle,
)


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def run_cli(out, command, artifact, *settings):
    """`mkdvlab <command> --set ... --out out` in-process: its exit code,
    manifest and CSV rows (dicts of strings) from out/mkdvlab_<artifact>*."""
    code = cli.main([command, "--out", str(out)] + [a for s in settings for a in ("--set", s)])
    manifest = json.loads((out / f"mkdvlab_{artifact}_manifest.json").read_text())
    with open(out / f"mkdvlab_{artifact}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return code, manifest, rows


@pytest.fixture(scope="module")
def growth_run(tmp_path_factory):
    """One `illposed-growth` sweep at its defaults, read by criteria 6 and 7."""
    return run_cli(tmp_path_factory.mktemp("growth"), "illposed-growth", "growth")


def _sextic_integrals(traj):
    """int u^6 over [0, 2*pi] for each recorded state.

    Collocation quadrature is exact here: u^6 has modes up to 6M, below the
    P >= 3*(2M+1) points of the grid."""
    grid = traj.grid
    u = half_spectrum(grid).synthesize(traj.states[:, grid.max_mode:], (0,))[0]
    return np.sum(u**6, axis=-1) * (2.0 * np.pi / grid.phys_points)


class TestCriterion1Conservation:
    def test_criterion_01_conservation(self, tmp_path):
        code, man, _ = run_cli(tmp_path, "conserve", "conserve",
                               "grid.max_mode=256", "time.T=0.05")
        drift = man["results_summary"]["relative_drift"]
        wall = man["wall_time_s"]
        ok = code == 0 and wall < 30.0
        report(1, ok, f"drift={drift} (<{TOLERANCES['conserve_drift']}), wall={wall:.1f}s (<30s)")
        assert code == 0
        assert wall < 30.0


class TestCriterion2NegativeControl:
    def test_criterion_02_negative_control(self):
        grid = GridSpec(256)
        u0 = SpectralField.from_modes(grid, {1: 0.05, -1: 0.05, 2: 0.025, -2: 0.025})
        p = EquationParams.constrained_family(40.0)
        p.c4 *= 1.01
        traj = evolve(u0, 0.05, p, tag="physical_5mkdv", ctrl=StepControl())
        rep = drift_report(traj, 40.0)
        delta = 0.01  # generator shift -(0.01 * c4)/30, see module docstring
        s6 = _sextic_integrals(traj)
        h2_ref = rep.h2[0]
        measured = (rep.h2 - h2_ref) / h2_ref
        predicted = -delta * (s6 - s6[0]) / h2_ref
        pred_max = float(np.max(np.abs(predicted)))
        mismatch = float(np.max(np.abs(measured - predicted)))
        generator = rep.h2 + delta * s6
        gen_drift = float(np.max(np.abs(generator - generator[0])) / abs(generator[0]))
        h2_drift = rep.relative_drift[2]
        gate = TOLERANCES["conserve_drift"]

        h0_ok = rep.relative_drift[0] < gate                      # (a)
        rejected = max(rep.relative_drift) >= gate                # (b)
        matches = mismatch <= 0.01 * pred_max                     # (c)
        gen_ok = gen_drift * 100.0 <= h2_drift                    # (d)
        ok = h0_ok and rejected and matches and gen_ok
        report(
            2, ok,
            f"H0 drift={rep.relative_drift[0]:.2e} (<{gate}), "
            f"H2 drift={h2_drift:.3e} (criterion-1 gate rejects: >={gate}), "
            f"predicted={pred_max:.3e} (mismatch {mismatch:.1e} <= 1%), "
            f"generator H2+0.01*int u^6 drift={gen_drift:.1e} (<= H2 drift/100)",
        )
        assert h0_ok, f"H0 drift {rep.relative_drift[0]:.3e} >= {gate}"
        assert rejected, (
            f"max relative drift {max(rep.relative_drift):.3e} passes the "
            "criterion-1 gate: the c4 perturbation went unnoticed"
        )
        assert matches, (
            f"H2 drift series differs from -0.01*(int u^6(t) - int u^6(0))/H2(0) "
            f"by {mismatch:.3e}, more than 1% of its maximum {pred_max:.3e}"
        )
        assert gen_ok, (
            f"generator H2 + 0.01*int u^6 drifts {gen_drift:.3e}, not 100x less "
            f"than H2 ({h2_drift:.3e})"
        )


class TestCriterion3GaugeEquivalence:
    def test_criterion_03_gauge_equivalence(self, tmp_path):
        code, man, _ = run_cli(tmp_path, "gauge-check", "gauge",
                               "initial_data.amplitudes=0.1", "time.record_stride=1")
        worst = man["results_summary"]["max_h2_discrepancy"]
        wall = man["wall_time_s"]
        # v is the gauged u exactly: only round-off separates them
        ok = code == 0 and worst < 1e-13 and wall < 60.0
        report(3, ok, f"max H2 discrepancy={worst:.2e} (<{TOLERANCES['gauge_h2']}, <1e-13), "
                      f"wall={wall:.1f}s (<60s)")
        assert code == 0
        assert worst < 1e-13
        assert wall < 60.0


class TestCriterion4Miura:
    def test_criterion_04_miura_identity(self, tmp_path):
        code, man, _ = run_cli(tmp_path, "miura-check", "miura",
                               "grid.max_mode=128", "initial_data.amplitudes=0.1",
                               "time.T=0.05", "initial_data.seed=4242")
        summary = man["results_summary"]
        report(4, code == 0,
               f"static identity rel={summary['static_identity_rel']:.2e} "
               f"(<{TOLERANCES['miura_static_rel']}), flow gap="
               f"{summary['max_flow_gap']:.2e} (<{TOLERANCES['miura_dynamic']})")
        assert code == 0


class TestCriterion5Resonance:
    def test_criterion_05_resonance_exactness(self, tmp_path):
        from mkdvlab.resonance import enumerate_n3, enumerate_n5

        t0 = time.perf_counter()
        # H direct == factored for all |n_i| <= 100, and G - mu in exact
        # rational arithmetic on the 1e4 random triples of seed 5
        code = cli.main(["resonance-identity", "--out", str(tmp_path),
                         "--set", "initial_data.seed=5"])
        man = json.loads((tmp_path / "mkdvlab_resonance_identity_manifest.json").read_text())
        ok_identity = code == 0 and man["results_summary"]["identity_checks"] == 10**4

        # enumerators against definitional brute force at radius 12
        def brute3(n, r):
            out = set()
            for x in range(-r, r + 1):
                for y in range(-r, r + 1):
                    z = n - x - y
                    if abs(z) <= r and (x + y) * (x + z) * (y + z) != 0:
                        out.add((x, y, z))
            return out

        ok_enum = all(
            {(t.n1, t.n2, t.n3) for t in enumerate_n3(n, 12)} == brute3(n, 12)
            for n in (0, 3, -7)
        )
        got5 = {(q.n1, q.n2, q.n3, q.n4, q.n5) for q in enumerate_n5(1, 4)}
        brute5 = set()
        rr = range(-4, 5)
        for a in rr:
            for b in rr:
                for c in rr:
                    for d in rr:
                        e = 1 - a - b - c - d
                        if abs(e) > 4:
                            continue
                        t5 = (a, b, c, d, e)
                        sums4 = [sum(t5) - v for v in t5]
                        if all(s != 0 for s in sums4):
                            brute5.add(t5)
        ok_enum = ok_enum and got5 == brute5
        wall = time.perf_counter() - t0
        ok = ok_identity and ok_enum and wall < 20.0
        report(5, ok, f"factorization and G-mu={ok_identity}, enum={ok_enum}, "
                      f"wall={wall:.1f}s (<20s)")
        assert ok_identity and ok_enum
        assert wall < 20.0


class TestCriterion6Growth:
    def test_criterion_06_growth_slope(self, growth_run):
        from oracles import m0_tuple

        from mkdvlab.illposed import CounterexampleSpec
        from mkdvlab.resonance import phi_cubic

        code, man, rows = growth_run
        slope = man["results_summary"]["slope"]
        wall = man["wall_time_s"]
        tup = m0_tuple(CounterexampleSpec(N=4096, s=1.0, t=1e-4))
        phi_m0_zero = (tup.phi_out + tup.phi_in) == 0
        ratio = abs(phi_cubic(4096, 2, -1, 4095)) / 4096**4
        phi_ok = abs(ratio - 5.0) < 0.05 * 5.0
        ok = code == 0 and phi_m0_zero and phi_ok and wall < 10.0
        report(6, ok,
               f"slope={slope:.3f} ({TOLERANCES['growth_slope_lo']}..."
               f"{TOLERANCES['growth_slope_hi']}), phi(m0)=0 exact={phi_m0_zero}, "
               f"|phi|/N^4={ratio:.4f} (->5 within 5%), wall={wall:.1f}s (<10s)")
        assert code == 0
        assert [int(r["N"]) for r in rows] == [2**k for k in range(6, 13)]
        assert list(rows[0])[:5] == ["N", "s", "t", "d0_norm", "ratio_tN2"]
        assert phi_m0_zero
        assert phi_ok
        assert wall < 10.0


class TestCriterion7AppendixSeparation:
    def test_criterion_07_appendix_separation(self, tmp_path, growth_run):
        code, _, (row,) = run_cli(tmp_path, "appendix-b", "appendix_b", "sweep.Ns=1024")
        bound = TOLERANCES["appendix_separation"] * float(row["t"]) * int(row["N"]) ** 2
        remainders = [float(row[key]) for key in ("b1", "b2", "d1")]

        def spread(key, power):
            vals = [float(r[key]) / (float(r["t"]) * max(int(r["N"]) ** (power - float(r["s"])), 1.0))
                    for r in growth_run[2]]
            return max(vals) / min(vals)

        b1_spread, d1_spread = spread("b1", 1), spread("d1", 2)
        track_ok = b1_spread <= 8.0 and d1_spread <= 8.0
        report(7, code == 0 and track_ok,
               f"max remainder={max(remainders):.2e} < {bound:.1f}, "
               f"b1 spread={b1_spread:.2f}, d1 spread={d1_spread:.2f} (<=8)")
        assert code == 0
        assert track_ok


class TestCriterion8CrossValidation:
    def test_criterion_08_fifth_derivative_cross_validation(self, tmp_path):
        # numeric delta^5 coefficient against the normal-form assembly
        # (boundary + distributed pieces of B1, in the two undifferentiated
        # slots, and of D), N = 8 at M = 64
        code, man, _ = run_cli(tmp_path, "fifth-derivative", "fifth_derivative", "time.T=0.005")
        rel = man["results_summary"]["relative_error"]
        wall = man["wall_time_s"]
        gate = TOLERANCES["fifth_derivative_rel"]
        ok = code == 0 and wall < 120.0
        report(8, ok, f"numeric-vs-assembly rel={rel:.2e} (<{gate}), wall={wall:.1f}s (<120s)")
        assert code == 0
        assert wall < 120.0


class TestCriterion9NormDiagnostics:
    def test_criterion_09_norm_diagnostics(self):
        from mkdvlab.shorttime import (
            beta_weight,
            fs_norm,
            max_record_spacing,
            modulation_decompose,
        )

        # beta table exact
        beta_ok = all(
            beta_weight(j, k) == (1.0 if k == 0 else 1.0 + 2.0 ** (0.25 * (j - 5 * k)))
            for k in range(0, 9)
            for j in range(0, 7 * max(k, 1), 3)
        )

        # Parseval closure and linear-wave concentration, k in 3..7
        p_lin = EquationParams(c1=0, c2=0, c3=0, c4=0)
        conc_ok = True
        pars_ok = True
        for k in range(3, 8):
            n0 = 2**k
            grid = GridSpec(2 ** (k + 1))
            u0 = SpectralField.from_modes(grid, {n0: 0.5, -n0: 0.5})
            span = 4.0 * 4.0 ** (-k)
            traj = evolve(u0, 2.0 * span, p_lin, tag="linear",
                          ctrl=StepControl(dt=span / 150, record_stride=1))
            mass_sq, l2_sq = modulation_decompose(traj, k, span)
            tot = mass_sq[0].sum()
            pars_ok &= abs(tot - l2_sq) < 1e-8 * max(tot, 1e-30)
            low = mass_sq[0][2.0 ** np.arange(mass_sq.shape[1]) <= 16.0 * 4.0**k].sum()
            conc_ok &= low / tot >= 0.95

        # embedding constant over 20 random trajectories
        rng = np.random.default_rng(99)
        ratios = []
        for _ in range(20):
            M = 16
            g = GridSpec(M)
            c = np.zeros(2 * M + 1, dtype=complex)
            for n in range(1, M + 1):
                a = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.02 / (1 + n) ** 1.5
                c[n + M] = a
                c[-n + M] = np.conj(a)
            u0 = SpectralField(g, c)
            p = EquationParams.constrained_family(40.0)
            p.d1, p.d2 = 1.0, 1.0
            T = 0.25
            dtr = max_record_spacing(top_band(M)) * 0.98  # the `norms` dt
            traj = evolve(u0, T, p, tag="renormalized_5mkdv",
                          ctrl=StepControl(dt=dtr, record_stride=1))
            sup_h = np.max(sobolev_norm(traj.grid, traj.half[::40], 1.0))
            ratios.append(sup_h / fs_norm(traj, 1.0, T))
        embed_ok = max(ratios) / min(ratios) < 4.0
        report(9, beta_ok and pars_ok and conc_ok and embed_ok,
               f"beta={beta_ok}, parseval={pars_ok}, concentration={conc_ok}, "
               f"C spread={max(ratios)/min(ratios):.2f} (<4)")
        assert beta_ok and pars_ok and conc_ok and embed_ok


class TestCriterion10Oracles:
    def test_criterion_10_oracle_equivalence(self):
        from mkdvlab.equations import rhs

        rng = np.random.default_rng(10)
        grid = GridSpec(8)
        p = EquationParams.constrained_family(40.0)
        worst = 0.0
        for _ in range(3):
            c = random_real_coeffs(8, rng, amplitude=0.6)
            got = rhs(SpectralField(grid, c), p, "physical_5mkdv").coeff
            want = rhs_physical_oracle(c, 8, p.c1, p.c2, p.c3, p.c4)
            worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
            p.d1, p.d2 = 1.5, -0.5
            got = rhs(SpectralField(grid, c), p, "renormalized_5mkdv").coeff
            want = rhs_renormalized_oracle(c, 8, p.d1, p.d2)
            worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
        rhs_ok = worst < 1e-12

        # temporal self-convergence order >= 3.8 of ETD-RK4 (Richardson)
        grid10 = GridSpec(10)
        pc = EquationParams.constrained_family(40.0)
        u0 = SpectralField.from_modes(grid10, {1: 0.125, -1: 0.125})
        T = 0.02
        fracs = (64, 128, 256, 512)
        sols = {
            f: evolve(u0, T, pc, "physical_5mkdv",
                      StepControl(dt=T / f, record_stride=10**9)).states[-1]
            for f in fracs + (1024,)
        }
        diffs = [np.max(np.abs(sols[f] - sols[2 * f])) for f in fracs]
        order = float(np.polyfit(np.log([T / f for f in fracs]), np.log(diffs), 1)[0])
        conv_ok = order >= 3.8
        report(10, rhs_ok and conv_ok,
               f"oracle agreement={worst:.2e} (<1e-12), convergence order={order}")
        assert rhs_ok
        assert conv_ok
