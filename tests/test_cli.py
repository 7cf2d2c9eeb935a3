"""CLI subcommands: exit codes, artifacts, determinism."""

import json

import numpy as np
import pytest

from mkdvlab import cli, errors, integrate
from mkdvlab.cli import (
    DEFAULTS,
    build_grid,
    build_initial_data,
    build_params,
    load_config,
    main,
)
from mkdvlab.equations import EquationParams
from mkdvlab.errors import ConfigurationError, DivergenceError
from mkdvlab.integrate import StepControl, Trajectory, evolve, step_plan, uniform_steps
from mkdvlab.invariants import drift_report
from mkdvlab.spectral import GridSpec, SpectralField
from mkdvlab.transforms import gauge_forward

from oracles import miura_static_fields_oracle, quintic_overlap_half, random_smooth_oracle


def run(args):
    return main(args)


def no_run(*args, **kwargs):
    raise AssertionError("the run started")


class TestValidation:
    def test_missing_field_named_in_message(self, tmp_path, capsys):
        code = run(["conserve", "--set", "grid.max_mode=", "--out", str(tmp_path)])
        assert code == 2
        assert "grid.max_mode" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        for item in ("grid.bogus=3", "time.splitting=etd_rk4"):
            code = run(["conserve", "--set", item, "--out", str(tmp_path)])
            assert code == 2
            assert capsys.readouterr().err == f"error: {item.split('=')[0]}: unknown config field\n"
        assert not list(tmp_path.iterdir())

    def test_bad_override_syntax(self, tmp_path):
        assert run(["conserve", "--set", "nonsense", "--out", str(tmp_path)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert run(["conserve", "--config", str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize("field, value", [
        ("time.T", "nan"),
        ("time.T", "inf"),
        ("time.dt", "nan"),
        ("equation.d1", "nan"),
        ("equation.d2", "abc"),
        ("time.T", "%(x)s"),  # no interpolation: a literal, not a number
    ])
    def test_bad_float_named(self, tmp_path, capsys, field, value):
        code = run(["conserve", "--set", f"{field}={value}", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, field, value", [
        ("illposed-growth", "sweep.Ns", "64,x"),
        ("illposed-growth", "sweep.Ns", "64,nan"),
        ("appendix-b", "sweep.Ns", "64,inf"),
        ("conserve", "initial_data.amplitudes", "0.1,zz"),
        ("conserve", "initial_data.amplitudes", "0.1,nan"),
        ("conserve", "initial_data.amplitudes", "inf"),
    ])
    def test_bad_list_named(self, tmp_path, capsys, command, field, value):
        code = run([command, "--set", f"{field}={value}", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, item, fields", [
        ("norms", "grid.max_mode=1", ("initial_data.amplitudes", "grid.max_mode")),
        ("norms", "norms.gamma=0.5", ("norms.gamma",)),
        ("evolve", "time.T=0", ("time.T",)),
        ("gauge-check", "time.dt=-1", ("time.dt",)),
        ("conserve", "time.record_stride=-1", ("time.record_stride",)),
        # arrays past cli.MAX_ENTRIES: 2.98 GiB of samples
        ("evolve", "grid.max_mode=100000000", ("grid.max_mode",)),
        # no modes, and a gamma below (0, 1/4]
        ("evolve", "grid.max_mode=0", ("grid.max_mode",)),
        ("norms", "norms.gamma=0", ("norms.gamma",)),
        # past cli.MAX_ENTRIES: a 74.5 GiB record buffer, and 601 records of
        # 150,001 modes n >= 0
        ("evolve", "time.dt=1e-12 time.record_stride=1", ("time.record_stride", "time.dt")),
        ("evolve", "grid.max_mode=150000", ("grid.max_mode",)),
        ("evolve", "time.T=1e308 time.dt=1e-10", ("time.T",)),  # T / dt overflows
        ("miura-check", "time.dt=1e-12 time.record_stride=1", ("time.record_stride",)),
        ("norms", "grid.max_mode=1024", ("time.T", "grid.max_mode")),
        # a growth slope needs two distinct N, an appendix-b table one
        ("illposed-growth", "sweep.Ns=", ("sweep.Ns",)),
        ("illposed-growth", "sweep.Ns=64", ("sweep.Ns",)),
        ("illposed-growth", "sweep.Ns=64,64", ("sweep.Ns",)),
        ("appendix-b", "sweep.Ns=", ("sweep.Ns",)),
        # the counterexample's N >= 8, s > 0 and 0 < t < 1, named by their fields
        ("illposed-growth", "sweep.Ns=4,64", ("sweep.Ns",)),
        ("illposed-growth", "sweep.s=0", ("sweep.s",)),
        ("illposed-growth", "sweep.t=2", ("sweep.t",)),
        ("appendix-b", "sweep.Ns=64,4", ("sweep.Ns",)),
        ("appendix-b", "sweep.s=-1", ("sweep.s",)),
        ("appendix-b", "sweep.t=0", ("sweep.t",)),
        ("fifth-derivative", "initial_data.N=3", ("initial_data.N",)),
        ("fifth-derivative", "initial_data.s=0", ("initial_data.s",)),
        ("fifth-derivative", "time.T=2", ("time.T",)),
        ("fifth-derivative", "grid.max_mode=7", ("grid.max_mode",)),
        # the counterexample data are not real, so no evolving subcommand takes them
        ("evolve", "initial_data.preset=counterexample_C5", ("initial_data.preset",)),
        # removed keys, so an old config never runs at a silent default (the
        # grid follows from grid.max_mode alone)
        ("evolve", "grid.dealias_factor=1e9", ("grid.dealias_factor",)),
        ("evolve", "grid.phys_points=2000000000", ("grid.phys_points",)),
        # inputs past float64 or int64, named by their fields: data past
        # evolve's blow-up threshold, an automatic dt of over 2**53 steps or
        # from a frequency bound past float64, a decay whose (1+n)**decay
        # passes float64, a negative seed, weights past float64 and legs
        # past int64
        ("conserve", "initial_data.amplitudes=1e100", ("initial_data.amplitudes",)),
        ("miura-check", "initial_data.amplitudes=1e100", ("initial_data.amplitudes",)),
        ("evolve", "equation.c1=1e300", ("time.dt",)),
        ("gauge-check", "equation.c2=1e308", ("time.dt",)),
        ("evolve", "time.dt=1e-300", ("time.T",)),
        ("evolve", "initial_data.preset=random_smooth initial_data.decay=400",
         ("initial_data.decay",)),
        ("evolve", "initial_data.preset=random_smooth initial_data.decay=-400",
         ("initial_data.decay",)),
        ("evolve", "initial_data.preset=random_smooth initial_data.seed=-1",
         ("initial_data.seed",)),
        ("miura-check", "initial_data.seed=-1", ("initial_data.seed",)),
        ("resonance-identity", "initial_data.seed=-1", ("initial_data.seed",)),
        ("illposed-growth", "sweep.s=1e6", ("sweep.s",)),
        ("norms", "norms.s=1e6", ("norms.s",)),
        ("appendix-b", "sweep.Ns=100000000000000000000", ("sweep.Ns",)),
        ("evolve", "norms.s=1e6", ("norms.s",)),
        # gauge constants whose term of the linear phase per step, d1 M^3 dt
        # or d2 M dt, would overflow the cube in the ETD-RK4 weights; the
        # gauge-check case is its renormalized run's
        ("evolve", "equation.tag=renormalized_5mkdv equation.d1=1e300", ("equation.d1",)),
        ("gauge-check", "equation.d1=1e300", ("equation.d1",)),
        ("evolve", "equation.tag=linear equation.d2=1e305", ("equation.d2",)),
        # an output name that would point into another directory
        ("evolve", "output.prefix=a/b", ("output.prefix",)),
    ])
    def test_out_of_range_named_before_the_run(self, tmp_path, capsys, monkeypatch,
                                               command, item, fields):
        from mkdvlab import illposed

        monkeypatch.setattr(cli, "evolve", no_run)
        for name in ("growth_experiment", "eval_appendix_terms", "t2_duhamel_fifth",
                     "numeric_fifth_derivative"):
            monkeypatch.setattr(illposed, name, no_run)
        settings = [a for s in item.split() for a in ("--set", s)]
        code = run([command, *settings, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {fields[0]}: ")
        assert all(f in err for f in fields)
        assert "Traceback" not in err

    @pytest.mark.parametrize("T", ["1e-300", "1e-160"])
    def test_vanishing_analytic_field_named_before_the_run(self, tmp_path, capsys,
                                                           monkeypatch, T):
        # the analytic field scales as T^2: 0 at 1e-300, subnormal at 1e-160,
        # and the relative error divides by its peak
        from mkdvlab import illposed

        monkeypatch.setattr(illposed, "numeric_fifth_derivative", no_run)
        code = run(["fifth-derivative", "--set", f"time.T={T}", "--set", "grid.max_mode=8",
                    "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: time.T: ") and "Traceback" not in err

    def test_output_dir_that_cannot_be_made_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "evolve", no_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = run(["evolve", "--out", str(blocker / "sub")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: output.dir: ") and "Not a directory" in err
        assert "Traceback" not in err

    def test_output_path_that_is_a_directory_named(self, tmp_path, capsys, monkeypatch):
        # every output path is checked before the run, not at the write after it
        monkeypatch.setattr(cli, "evolve", no_run)
        (tmp_path / "mkdvlab_evolve.csv").mkdir()
        code = run(["evolve", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: output.dir: ") and "mkdvlab_evolve.csv" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["evolve", "norms"])
    def test_unknown_tag_named(self, tmp_path, capsys, command):
        code = run([command, "--set", "equation.tag=kdv5", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: equation.tag: unknown equation tag 'kdv5'\n"

    @pytest.mark.parametrize("T, dt, stride", [
        (0.3, 1e-4, 5),  # a user stride
        (0.3, 1e-4, 7),  # a user stride that leaves a short last interval
        (1.5, 0.0, 0),   # the automatic dt and stride, past 600 steps
    ])
    def test_record_cap_counts_the_records_evolve_keeps(self, monkeypatch, T, dt, stride):
        # at least 363 records of c[0..8], so that the cap on collocation
        # points, MAX_ENTRIES // 64, still admits P = 51 at either cap
        settings = ["grid.max_mode=8", "initial_data.amplitudes=0.1", f"time.T={T}",
                    f"time.dt={dt}", f"time.record_stride={stride}"]
        u0 = SpectralField.from_modes(GridSpec(8), {1: 0.05, -1: 0.05})
        p, ctrl = EquationParams(), StepControl(dt=dt, record_stride=stride)
        kept = evolve(u0, T, p, "physical_5mkdv", ctrl).half.size  # 9 entries a record
        assert kept >= 363 * 9
        monkeypatch.setattr(cli, "MAX_ENTRIES", kept)
        cli.build_run(load_config(None, settings), "physical_5mkdv", p)
        monkeypatch.setattr(cli, "MAX_ENTRIES", kept - 1)
        with pytest.raises(ConfigurationError, match=f"would keep {kept // 9} records of 9 "):
            cli.build_run(load_config(None, settings), "physical_5mkdv", p)

    def test_gauge_check_cap_counts_its_two_buffers(self, tmp_path, capsys, monkeypatch):
        # gauge-check keeps two record buffers at once, u and the gauged u,
        # then the gauged u and v (and the cap on collocation points,
        # MAX_ENTRIES // 64, admits P = 51)
        settings = ["grid.max_mode=8", "time.T=0.02", "time.dt=1e-4", "time.record_stride=1"]
        args = ["gauge-check", *(a for s in settings for a in ("--set", s)), "--out", str(tmp_path)]
        kept = 2 * 201 * 9  # two buffers of 201 records of c[0..8]
        monkeypatch.setattr(cli, "MAX_ENTRIES", kept)
        assert run(args) == 0
        monkeypatch.setattr(cli, "MAX_ENTRIES", kept - 1)
        assert run(args) == 2
        assert capsys.readouterr().err == (
            "error: time.record_stride: the run would keep 2 x 201 records of 9 modes, above "
            f"the cap of {kept - 1} complex entries; raise time.record_stride or time.dt, "
            "or lower time.T or grid.max_mode\n"
        )

    @pytest.mark.parametrize("command, buffers", [
        ("evolve", 1), ("conserve", 1), ("gauge-check", 2), ("miura-check", 2), ("norms", 4),
    ])
    def test_record_cap_counts_the_buffers_a_run_holds(self, tmp_path, monkeypatch, peak_above,
                                                       command, buffers):
        # the traced peak of a subcommand on 10,001 records of c[0..64] stays
        # below the buffers its cap counts, a quarter buffer of slack, and the
        # chunked passes' working sets; every run returns a fresh copy of one
        # prebuilt trajectory, so nothing is integrated
        records, grid = 10001, GridSpec(64)
        rng = np.random.default_rng(7)
        half = (rng.standard_normal((records, 65)) + 1j * rng.standard_normal((records, 65)))
        half *= 1e-2 / (1.0 + np.arange(65)) ** 3
        half[:, 0] = half[:, 0].real
        times = np.linspace(0.0, 0.01, records)

        def prebuilt(u0, T, p, tag, ctrl):
            return Trajectory(grid, times.copy(), half.copy(), p, tag, times[1], 1)

        monkeypatch.setattr(cli, "evolve", prebuilt)
        peak, _, code = peak_above(run, [command, "--out", str(tmp_path)])
        assert code in (0, 4)
        assert peak < (buffers + 0.25) * half.nbytes + 2.25 * 2**20
    @pytest.mark.parametrize("text, name", [
        (b"[time]\nsplitting = integrating_factor_rk4\n", "time.splitting"),
        (b"[grid]\nmax_mod = 8\n", "grid.max_mod"),
        (b"[bogus]\n", "bogus"),
        (b"[DEFAULT]\nmax_mode = 8\n", "DEFAULT"),
        # a file that does not parse is named by its path
        (b"[grid]\nmax_mode = 8\nmax_mode = 9\n", "run.ini"),
        (b"[grid]\nmax_mode = 8\n[grid]\n", "run.ini"),
        (b"max_mode = 8\n", "run.ini"),
        (b"[grid]\nmax_mode = 8\nnot a key value line\n", "run.ini"),
        (b"[grid]\nmax_mode = 8 \xff\n", "run.ini"),
    ], ids=["removed-key", "misspelt-key", "unknown-section", "default-section",
            "duplicate-key", "duplicate-section", "no-section-header", "no-separator",
            "not-utf8"])
    def test_unknown_config_file_entry_named(self, tmp_path, capsys, text, name):
        ini = tmp_path / "run.ini"
        ini.write_bytes(text)
        out = tmp_path / "out"
        code = run(["conserve", "--config", str(ini), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert name in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_percent_is_an_ordinary_character(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[output]\nprefix = 100%\n")
        assert run(["evolve", "--config", str(ini), "--out", str(tmp_path),
                    "--set", "grid.max_mode=8", "--set", "time.T=0.001"]) == 0
        assert run(["evolve", "--out", str(tmp_path), "--set", "output.prefix=a%b",
                    "--set", "grid.max_mode=8", "--set", "time.T=0.001"]) == 0
        assert (tmp_path / "100%_evolve.csv").exists() and (tmp_path / "a%b_evolve.csv").exists()

    def test_config_file_fields_read(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[grid]\nmax_mode = 16\n[time]\nT = 0.001\n")
        assert run(["conserve", "--config", str(ini), "--out", str(tmp_path)]) == 0
        man = json.loads((tmp_path / "mkdvlab_conserve_manifest.json").read_text())
        assert man["config"]["grid"]["max_mode"] == "16"
        assert man["config"]["time"]["T"] == "0.001"

    def test_manifest_keys_in_defaults_spelling(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[grid]\nMAX_MODE = 16\n[initial_data]\nn = 4\n")
        assert run(["conserve", "--config", str(ini), "--out", str(tmp_path),
                    "--set", "time.t=0.001", "--set", "sweep.NS=64"]) == 0
        config = json.loads((tmp_path / "mkdvlab_conserve_manifest.json").read_text())["config"]
        assert {s: set(keys) for s, keys in config.items()} == {
            s: set(keys) for s, keys in DEFAULTS.items()
        }
        assert (config["grid"]["max_mode"], config["initial_data"]["N"],
                config["time"]["T"], config["sweep"]["Ns"]) == ("16", "4", "0.001", "64")

    def test_one_error_class_per_exit_code(self, tmp_path, capsys, monkeypatch):
        # the taxonomy is the exit codes: whatever a subcommand raises, a
        # divergence exits 3 and every other package error exits 2
        classes = {name for name, v in vars(errors).items()
                   if isinstance(v, type) and issubclass(v, Exception)}
        assert classes == {"MkdvLabError", "ConfigurationError", "DivergenceError"}
        for cls, code, prefix in ((errors.MkdvLabError, 2, "error"),
                                  (ConfigurationError, 2, "error"),
                                  (DivergenceError, 3, "divergence")):
            def failing(cfg, args, cls=cls):
                raise cls("planted")

            monkeypatch.setitem(cli.COMMANDS, "evolve", ("evolve", failing, ("evolve",)))
            assert run(["evolve", "--out", str(tmp_path)]) == code
            assert capsys.readouterr().err == f"{prefix}: planted\n"

    def test_workers_option_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["appendix-b", "--workers", "2", "--out", str(tmp_path),
                 "--set", "sweep.Ns=64"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestConserve:
    def test_small_preset_passes(self, tmp_path):
        code = run([
            "conserve", "--out", str(tmp_path),
            "--set", "grid.max_mode=32",
            "--set", "time.T=0.005",
        ])
        assert code == 0
        man = json.loads((tmp_path / "mkdvlab_conserve_manifest.json").read_text())
        assert man["results_summary"]["passed"] is True
        assert man["results_summary"]["max_drift"] < 1e-7
        body = (tmp_path / "mkdvlab_conserve.csv").read_text().splitlines()
        assert body[0] == "time,H0,H1,H2"

    def test_manifest_keys(self, tmp_path):
        run(["conserve", "--out", str(tmp_path), "--set", "grid.max_mode=16",
             "--set", "time.T=0.001"])
        man = json.loads((tmp_path / "mkdvlab_conserve_manifest.json").read_text())
        for key in ("config", "tolerances", "results_summary", "wall_time_s", "peak_rss_mib"):
            assert key in man
        assert man["peak_rss_mib"] > 0

    def test_reproducible_csv_bodies(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            run(["conserve", "--out", str(out), "--set", "grid.max_mode=16",
                 "--set", "time.T=0.001"])
        assert (a / "mkdvlab_conserve.csv").read_bytes() == (b / "mkdvlab_conserve.csv").read_bytes()

    def test_csv_rows_are_the_drift_report(self, tmp_path):
        settings = ["grid.max_mode=8", "time.T=0.001"]
        run(["conserve", "--out", str(tmp_path), *(a for s in settings for a in ("--set", s))])
        cfg = load_config(None, settings)
        u0 = build_initial_data(cfg, build_grid(cfg))
        p = build_params(cfg, u0)
        rep = drift_report(evolve(u0, 0.001, p, "physical_5mkdv", StepControl()), p.c1)
        lines = (tmp_path / "mkdvlab_conserve.csv").read_text().splitlines()
        assert lines[0] == "time,H0,H1,H2"
        assert len(lines) == len(rep.times) + 1 > 2
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(rows, np.column_stack([rep.times, rep.h0, rep.h1, rep.h2]))


class TestEvolve:
    def test_writes_series(self, tmp_path):
        code = run([
            "evolve", "--out", str(tmp_path),
            "--set", "grid.max_mode=16",
            "--set", "time.T=0.002",
        ])
        assert code == 0
        lines = (tmp_path / "mkdvlab_evolve.csv").read_text().splitlines()
        assert lines[0].startswith("time,H0,H1,H2")
        assert len(lines) > 2

    @pytest.mark.parametrize("dt, code", [("0", 0), ("3.94e-4", 3)])
    def test_automatic_dt_reads_the_third_order_band(self, tmp_path, dt, code):
        # mu = n^3 leaves a wider undamped band than n^5: the automatic dt
        # bounds the nonlinear frequency over all of it and completes, where
        # 3.94e-4, the dt read off the n^5 band, blows up
        assert run([
            "evolve", "--out", str(tmp_path),
            "--set", "grid.max_mode=16",
            "--set", "equation.tag=mkdv3",
            "--set", "initial_data.amplitudes=8,4",
            "--set", "time.T=0.1",
            "--set", f"time.dt={dt}",
        ]) == code

    def test_divergence_exit_code(self, tmp_path):
        code = run([
            "evolve", "--out", str(tmp_path),
            "--set", "grid.max_mode=8",
            "--set", "initial_data.amplitudes=80.0,60.0",
            "--set", "time.T=1.0",
            "--set", "time.dt=0.05",
        ])
        assert code == 3

    def test_coefficient_past_float64_diverges(self, tmp_path, capsys):
        # fifth_kdv's a3 = -3 c1^2/160 passes float64 at c1 = 1e300: at a
        # given dt the run reports a divergence, not an OverflowError
        code = run(["evolve", "--out", str(tmp_path), "--set", "grid.max_mode=8",
                    "--set", "equation.tag=fifth_kdv", "--set", "equation.c1=1e300",
                    "--set", "time.T=1e-4", "--set", "time.dt=1e-5"])
        assert code == 3
        assert capsys.readouterr().err.startswith("divergence: ")


class TestGaugeCheck:
    def test_passes_on_small_run(self, tmp_path):
        code = run([
            "gauge-check", "--out", str(tmp_path),
            "--set", "grid.max_mode=32",
            "--set", "initial_data.amplitudes=0.1",
            "--set", "time.T=0.004",
        ])
        assert code == 0
        man = json.loads((tmp_path / "mkdvlab_gauge_manifest.json").read_text())
        assert man["results_summary"]["max_h2_discrepancy"] < 1e-5

    def test_csv_equals_per_record_loop(self, tmp_path):
        settings = ["grid.max_mode=16", "time.T=0.001"]
        assert run(["gauge-check", "--out", str(tmp_path)]
                   + [a for s in settings for a in ("--set", s)]) == 0
        cfg = load_config(None, settings)
        grid = build_grid(cfg)
        u0 = build_initial_data(cfg, grid)
        p = build_params(cfg, u0)
        nt_u = gauge_forward(evolve(u0, 0.001, p, "physical_5mkdv", StepControl()))
        traj_v = evolve(u0, 0.001, p, "renormalized_5mkdv", StepControl())
        n = grid.modes.astype(float)
        w = (1.0 + n * n) ** 2
        lines = (tmp_path / "mkdvlab_gauge.csv").read_text().splitlines()[1:]
        assert len(lines) == min(len(nt_u), len(traj_v))
        for i, line in enumerate(lines):
            t, diff = (float(v) for v in line.split(","))
            assert t == nt_u.times[i]
            want = np.sqrt(np.sum(w * np.abs(nt_u.states[i] - traj_v.states[i]) ** 2))
            # the CSV sums the half spectra, the loop the dense -M..M rows
            assert diff == pytest.approx(float(want), rel=1e-14, abs=0.0)

    @staticmethod
    def gauge_check(tmp_path, *settings):
        """gauge-check's exit code and max_h2_discrepancy at the defaults
        with ``settings`` set."""
        code = run(["gauge-check", "--out", str(tmp_path)] + [a for s in settings for a in ("--set", s)])
        man = json.loads((tmp_path / "mkdvlab_gauge_manifest.json").read_text())
        return code, man["results_summary"]["max_h2_discrepancy"]

    @pytest.mark.parametrize("amplitudes", ["0.2,0.1", "0.4,0.2"])
    def test_passes_on_larger_data(self, tmp_path, amplitudes):
        # no O(a^5) model gap between the gauged u and v
        assert self.gauge_check(tmp_path, f"initial_data.amplitudes={amplitudes}")[0] == 0

    def test_large_data_gap_is_time_stepping_error(self, tmp_path):
        # at 0.5,0.25 the default dt misses the gate, and halving dt cuts
        # the gap by more than 8x (9.3e-7 -> 8.4e-8)
        gaps = [self.gauge_check(tmp_path, "initial_data.amplitudes=0.5,0.25", f"time.dt={dt}")[1]
                for dt in (1.5e-5, 7.5e-6)]
        assert gaps[0] >= 8.0 * gaps[1]

    def test_display_quintic_fails(self, tmp_path, monkeypatch):
        # control: v under the paper's A5(n) display of the quintic, the
        # gauged operator less the overlap tuples, keeps an a^5 model gap
        # that no dt removes (9.0e-3 at 0.5,0.25)
        from mkdvlab import equations

        gauged = equations.renormalized_nonlinear_coeff
        monkeypatch.setattr(equations, "renormalized_nonlinear_coeff",
                            lambda grid, ch, terms: gauged(grid, ch, terms) - quintic_overlap_half(ch))
        code, worst = self.gauge_check(tmp_path, "initial_data.amplitudes=0.5,0.25")
        assert code == 4
        assert worst >= 100.0 * cli.TOLERANCES["gauge_h2"]


def miura_check(tmp_path, *settings):
    """miura-check's exit code and results summary under --set settings."""
    code = run(["miura-check", "--out", str(tmp_path), *(a for s in settings for a in ("--set", s))])
    summary = json.loads((tmp_path / "mkdvlab_miura_manifest.json").read_text())["results_summary"]
    return code, summary


class TestMiuraCheck:
    def test_passes(self, tmp_path):
        code = run([
            "miura-check", "--out", str(tmp_path),
            "--set", "grid.max_mode=32",
            "--set", "initial_data.amplitudes=0.1",
            "--set", "time.T=0.01",
        ])
        assert code == 0

    def test_first_order_step_fails(self, tmp_path, monkeypatch):
        # exponential Euler, c + dt phi1(L dt) N(c) after the exact linear
        # step, in place of ETD-RK4: the flow gap reads the run, so a first
        # order stepper misses the gate (6.6e-4 here, 1.7e-15 with ETD-RK4)
        def exponential_euler(c, co, nonlinear):
            # dt phi1(L dt) = dt (e^L - 1) / L = Q (e^{L/2} + 1)
            return co.E * c + co.Q * (co.E2 + 1.0) * nonlinear(c)

        settings = ["grid.max_mode=32", "initial_data.amplitudes=1.0,0.5", "time.T=0.05"]
        assert miura_check(tmp_path, *settings)[0] == 0
        monkeypatch.setattr(integrate, "_etdrk4_step", exponential_euler)
        code, summary = miura_check(tmp_path, *settings)
        assert code == 4 and summary["passed"] is False
        assert summary["max_flow_gap"] > 1e-4

    def test_flow_gap_falls_at_fourth_order(self, tmp_path):
        # 2.0e-8, 1.3e-9 and 7.9e-11: a fall of 15.9 per halving of dt
        gaps = [miura_check(tmp_path, "grid.max_mode=32", "initial_data.amplitudes=1.0,0.5",
                            "time.T=0.25", f"time.dt={dt}")[1]["max_flow_gap"]
                for dt in (4e-4, 2e-4, 1e-4)]
        assert all(coarse > 12.0 * fine for coarse, fine in zip(gaps, gaps[1:])), gaps

    def test_u_and_v_recorded_at_the_same_times(self, tmp_path, monkeypatch):
        runs = []

        def recorded(*args):
            runs.append(evolve(*args))
            return runs[-1]

        monkeypatch.setattr(cli, "evolve", recorded)
        assert miura_check(tmp_path, "grid.max_mode=16", "time.T=0.01")[0] == 0
        v, u = runs
        assert (v.equation_tag, u.equation_tag) == ("mkdv3", "kdv3")
        assert len(v) > 2 and np.array_equal(v.times, u.times)
        lines = (tmp_path / "mkdvlab_miura.csv").read_text().splitlines()
        assert lines[0] == "time,flow_gap"
        assert [float(line.split(",")[0]) for line in lines[1:]] == v.times.tolist()

    def test_u_steps_as_v_and_the_stepped_dt_round_trips(self, tmp_path, monkeypatch):
        # T = 0.5 at dt = 2.06e-5 takes 24,272 steps of T / 24,272, and
        # 0.5 / (0.5 / 24,272) rounds past 24,272: both runs step on the
        # plan's dt, and a run at it takes 24,272 steps again.  Only the
        # step plans are compared
        plans = []

        def planned(u0, T, p, tag, ctrl):
            plans.append(step_plan(u0, T, p, tag, ctrl))
            steps, dt, stride, records = plans[-1]
            half = np.zeros((records, u0.grid.max_mode + 1))
            return Trajectory(u0.grid, np.arange(records) * stride * dt, half, p, tag, dt, stride)

        monkeypatch.setattr(cli, "evolve", planned)
        assert miura_check(tmp_path, "grid.max_mode=8", "time.T=0.5", "time.dt=2.06e-5")[0] == 0
        assert plans[0] == plans[1] and plans[0][0] == 24272
        assert uniform_steps(0.5, plans[0][1])[0] == 24272


class TestOneStepPlan:
    """Every run of a subcommand steps on the plan that build_run resolves."""

    SETTINGS = ("--set", "grid.max_mode=16", "--set", "time.T=0.005")

    @pytest.fixture
    def dt_calls(self, monkeypatch):
        # the automatic dt, with each call's tag; 0.9 times it for the
        # renormalized flow, so a run that chose its own dt would step apart
        calls, default_dt = [], integrate.default_dt

        def counted(u0, p, tag):
            calls.append(tag)
            return default_dt(u0, p, tag) * (0.9 if tag == "renormalized_5mkdv" else 1.0)

        monkeypatch.setattr(integrate, "default_dt", counted)
        return calls

    @pytest.mark.parametrize("command", ["evolve", "conserve", "gauge-check", "miura-check"])
    def test_automatic_dt_evaluated_once(self, tmp_path, dt_calls, command):
        # cli binds no default_dt of its own, which the count would not see
        assert not hasattr(cli, "default_dt")
        assert run([command, "--out", str(tmp_path), *self.SETTINGS]) == 0
        assert len(dt_calls) == 1

    def test_gauge_check_v_records_at_u_times(self, tmp_path, dt_calls, monkeypatch):
        runs = []

        def recorded(*args):
            runs.append(evolve(*args))
            return runs[-1]

        monkeypatch.setattr(cli, "evolve", recorded)
        assert run(["gauge-check", "--out", str(tmp_path), *self.SETTINGS]) == 0
        u, v = runs
        assert (u.equation_tag, v.equation_tag) == ("physical_5mkdv", "renormalized_5mkdv")
        assert len(u) > 2 and np.array_equal(u.times, v.times)


class TestStepNotice:
    """A plan above STEP_NOTICE steps says so on stderr before the run."""

    @pytest.mark.parametrize("settings, steps, rule", [
        (["equation.c1=1e10"], "49,446,470", "the automatic rule"),
        (["time.dt=1e-320", "time.T=1e-310"], "10,000,111,330", "time.dt"),
    ])
    def test_long_plan_announced(self, capsys, settings, steps, rule):
        cli.build_run(load_config(None, settings))
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"note: the run plans {steps} steps ")
        assert f"(dt from {rule})" in err

    def test_default_plan_quiet(self, capsys):
        cli.build_run(load_config(None, []))
        assert capsys.readouterr().err == ""

    def test_exit_code_kept(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "STEP_NOTICE", 0)
        code = run(["evolve", "--out", str(tmp_path), *TestOneStepPlan.SETTINGS])
        err = capsys.readouterr().err
        assert code == 0 and err.count("\n") == 1 and err.startswith("note: ")


class TestRandomData:
    """The CLI's random draws against the per-mode loops they replaced."""

    @pytest.mark.parametrize("seed", [20240817, 7])
    @pytest.mark.parametrize("decay", ["2.0", "1.5", "2.7", "0.3"])
    def test_random_smooth_matches_per_mode_draws(self, seed, decay):
        cfg = load_config(None, ["initial_data.preset=random_smooth", "grid.max_mode=40",
                                 f"initial_data.seed={seed}", f"initial_data.decay={decay}"])
        u0 = build_initial_data(cfg, build_grid(cfg))
        want = random_smooth_oracle(40, seed, float(decay),
                                    float(DEFAULTS["initial_data"]["amplitude"]))
        assert u0.coeff.tobytes() == want.tobytes()

    def test_miura_static_fields_match_per_mode_draws(self, tmp_path, monkeypatch):
        # the 100 pairs are one call on their (100, M+1) half spectra, row i
        # being the i-th pair of the per-pair loop
        drawn, calls = [], []
        gap = cli.chain_identity_gap

        def record(grid, c, cdot):
            calls.append(c.shape)
            drawn.extend((a.tobytes(), b.tobytes()) for a, b in zip(c, cdot))
            return gap(grid, c, cdot)

        monkeypatch.setattr(cli, "chain_identity_gap", record)
        assert run(["miura-check", "--out", str(tmp_path),
                    "--set", "grid.max_mode=8", "--set", "time.T=0.001"]) == 0
        want = miura_static_fields_oracle(8, int(DEFAULTS["initial_data"]["seed"]))
        assert calls == [(100, 9)]
        assert drawn == [(c[8:].tobytes(), cdot[8:].tobytes()) for c, cdot in want]


class TestResonance:
    def test_enum_writes_both_csvs(self, tmp_path):
        code = run(["resonance-enum", "--out", str(tmp_path), "--n", "0", "--radius", "5"])
        assert code == 0
        assert (tmp_path / "mkdvlab_resonance_n3.csv").exists()
        assert (tmp_path / "mkdvlab_resonance_n5.csv").exists()

    def test_enum_negative_radius_named(self, tmp_path, capsys):
        code = run(["resonance-enum", "--out", str(tmp_path), "--radius", "-3"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --radius: ")
        assert not (tmp_path / "mkdvlab_resonance_n3.csv").exists()

    def test_enum_csv_rows(self, tmp_path):
        from mkdvlab.resonance import enumerate_n3, enumerate_n5, resonance_g

        assert run(["resonance-enum", "--out", str(tmp_path), "--n", "1", "--radius", "3"]) == 0
        n3 = (tmp_path / "mkdvlab_resonance_n3.csv").read_text().splitlines()
        n5 = (tmp_path / "mkdvlab_resonance_n5.csv").read_text().splitlines()
        assert n3[0] == "n,n1,n2,n3,H" and n5[0] == "n,n1,n2,n3,n4,n5"
        trips = enumerate_n3(1, 3)
        rows = [[int(v) for v in line.split(",")] for line in n3[1:]]
        assert rows == [[1, *t] for t in trips.tolist()]
        assert all(h == resonance_g(a, b, c, 0) for _, a, b, c, h in rows)
        assert [[int(v) for v in line.split(",")] for line in n5[1:]] == [
            [1, *q] for q in enumerate_n5(1, 3).tolist()
        ]

    def test_enum_far_n_writes_empty_csvs(self, tmp_path):
        n = "100000000000000000000"
        assert run(["resonance-enum", "--out", str(tmp_path), "--n", n]) == 0
        for name, header in (("n3", "n,n1,n2,n3,H"), ("n5", "n,n1,n2,n3,n4,n5")):
            assert (tmp_path / f"mkdvlab_resonance_{name}.csv").read_text().splitlines() == [header]

    def test_enum_manifest_records_n5_radius(self, tmp_path):
        assert run(["resonance-enum", "--out", str(tmp_path), "--n", "1", "--radius", "20"]) == 0
        man = json.loads((tmp_path / "mkdvlab_resonance_n3_manifest.json").read_text())
        summary = man["results_summary"]
        assert (summary["radius"], summary["n5_radius"]) == (20, 12)

    def test_identity_passes(self, tmp_path):
        assert run(["resonance-identity", "--out", str(tmp_path)]) == 0

    def test_identity_failure_recorded(self, tmp_path, monkeypatch):
        from mkdvlab import resonance

        phi = resonance.phi_cubic
        monkeypatch.setattr(resonance, "phi_cubic", lambda *args: phi(*args) + 1)
        assert run(["resonance-identity", "--out", str(tmp_path)]) == 4
        man = json.loads((tmp_path / "mkdvlab_resonance_identity_manifest.json").read_text())
        summary = man["results_summary"]
        # the first random triple of the seed already fails
        first = np.random.default_rng(int(DEFAULTS["initial_data"]["seed"])).integers(-100, 101, 3)
        assert summary["passed"] is False
        assert summary["counterexample"] == first.tolist()
        assert summary["identity_checks"] == 0
        assert man["wall_time_s"] > 0.0

    def test_factorization_mismatch_is_a_verdict(self, tmp_path, monkeypatch, capsys):
        from mkdvlab import resonance

        h_array = resonance.resonance_h_array

        def broken(n1, n2, n3):
            h, bad = h_array(n1, n2, n3)
            return h, bad | ((n1 == 3) & (n2 == -5) & ((n3 == 7) | (n3 == 9)))

        monkeypatch.setattr(resonance, "resonance_h_array", broken)
        assert run(["resonance-identity", "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err == ""
        man = json.loads((tmp_path / "mkdvlab_resonance_identity_manifest.json").read_text())
        # the first mismatch in the cube's order, before any rational check
        assert man["results_summary"] == {
            "identity_checks": 0, "counterexample": [3, -5, 7], "passed": False,
        }


# subcommand -> (a small preset, its manifest's artifact name, its CSVs'
# names, its verdict: None where it checks nothing)
SCHEMA_RUNS = {
    "evolve": (["grid.max_mode=8", "time.T=0.001"], "evolve", ["evolve"], None),
    "conserve": (["grid.max_mode=8", "time.T=0.001"], "conserve", ["conserve"], True),
    "gauge-check": (["grid.max_mode=8", "time.T=0.001"], "gauge", ["gauge"], True),
    "miura-check": (["grid.max_mode=8", "time.T=0.001"], "miura", ["miura"], True),
    "resonance-enum": ([], "resonance_n3", ["resonance_n3", "resonance_n5"], None),
    "resonance-identity": ([], "resonance_identity", [], True),
    "illposed-growth": (["sweep.Ns=64,128"], "growth", ["growth"], True),
    "appendix-b": (["sweep.Ns=64"], "appendix_b", ["appendix_b"], True),
    "norms": (["grid.max_mode=8", "initial_data.amplitudes=0.05", "time.T=0.08"],
              "norms", ["norms", "norm_shells"], None),
    # relative error 1.9e-3 at this preset, above fifth_derivative_rel = 1e-3
    "fifth-derivative": (["grid.max_mode=16", "time.T=0.0005"],
                         "fifth_derivative", ["fifth_derivative"], False),
}


class TestManifestSchema:
    @pytest.mark.parametrize("command", list(SCHEMA_RUNS))
    def test_outputs_manifest_and_exit_code(self, tmp_path, command):
        # the prefix holds artifact names, which no output path may rewrite
        settings, manifest, tables, verdict = SCHEMA_RUNS[command]
        prefix = "my_norms_n3"
        flags = ["--radius", "3"] if command == "resonance-enum" else []
        code = run([command, *flags, "--out", str(tmp_path), "--set", f"output.prefix={prefix}",
                    *(a for s in settings for a in ("--set", s))])
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [f"{prefix}_{name}.csv" for name in tables] + [f"{prefix}_{manifest}_manifest.json"]
        )
        man = json.loads((tmp_path / f"{prefix}_{manifest}_manifest.json").read_text())
        assert set(man) == {"config", "code_version", "tolerances", "results_summary",
                            "wall_time_s", "peak_rss_mib"}
        summary = man["results_summary"]
        assert summary.get("passed") is verdict
        assert ("passed" in summary) == (verdict is not None)
        assert code == (4 if verdict is False else 0)


class TestToleranceFailure:
    @pytest.mark.parametrize("command, artifact, settings, key, value", [
        # criterion 2's perturbed c4: H2 drifts by the sextic generator shift
        ("conserve", "conserve", ["grid.max_mode=32", "time.T=0.05", "equation.c4=-30.3"],
         "max_drift", 1.84e-7),
        # a d1 that is not the gauge's: v runs under the wrong dispersion
        ("gauge-check", "gauge", ["grid.max_mode=16", "time.T=0.001", "equation.d1=1"],
         "max_h2_discrepancy", 1.3e-3),
    ], ids=["conserve", "gauge-check"])
    def test_failed_check_exits_4(self, tmp_path, command, artifact, settings, key, value):
        code = run([command, "--out", str(tmp_path)] + [a for s in settings for a in ("--set", s)])
        assert code == 4
        summary = json.loads(
            (tmp_path / f"mkdvlab_{artifact}_manifest.json").read_text())["results_summary"]
        assert summary["passed"] is False
        assert summary[key] == pytest.approx(value, rel=0.01)


class TestGrowth:
    def test_appendix_b(self, tmp_path):
        code = run(["appendix-b", "--out", str(tmp_path),
                    "--set", "sweep.Ns=64,256,1024"])
        assert code == 0


class TestFifthDerivative:
    def test_small_cross_check(self, tmp_path):
        code = run([
            "fifth-derivative", "--out", str(tmp_path),
            "--set", "grid.max_mode=32",
            "--set", "initial_data.N=8",
            "--set", "time.T=0.002",
        ])
        assert code == 0
        man = json.loads((tmp_path / "mkdvlab_fifth_derivative_manifest.json").read_text())
        assert man["results_summary"]["relative_error"] < 1e-3


class TestNorms:
    def test_runs_on_small_grid(self, tmp_path):
        code = run([
            "norms", "--out", str(tmp_path),
            "--set", "grid.max_mode=8",
            "--set", "initial_data.amplitudes=0.05",
            "--set", "time.T=0.08",
        ])
        assert code == 0
        lines = (tmp_path / "mkdvlab_norms.csv").read_text().splitlines()
        assert lines[0] == "k,fk,nk"
        assert len(lines) >= 3
        # windows 4 * 4^-k long: k <= 2 overhang the run, k = 3 slides
        man = json.loads((tmp_path / "mkdvlab_norms_manifest.json").read_text())
        summary = man["results_summary"]
        assert summary["zero_extended_k"] == [0, 1, 2]
        assert summary["windows_per_k"] == {"0": 1, "1": 1, "2": 1, "3": 5}
        # the two phases of the run, each within its wall time
        assert summary["evolve_s"] >= 0.0 and summary["tables_s"] >= 0.0
        assert summary["evolve_s"] + summary["tables_s"] <= man["wall_time_s"]
        # the middle window of every k, every shell up to the Nyquist one
        shells = (tmp_path / "mkdvlab_norm_shells.csv").read_text().splitlines()[1:]
        n_shells = int(np.ceil(np.log2(np.pi / summary["dt"])))
        assert [int(r.split(",")[2]) for r in shells] == list(range(n_shells)) * 3

    def test_manifest_records_dt_and_stride_used(self, tmp_path):
        # a dt above span_min/64 and the user's stride are replaced by the
        # run's own; the summary says what was used, the config what was asked
        code = run([
            "norms", "--out", str(tmp_path),
            "--set", "grid.max_mode=16",
            "--set", "time.T=0.002",
            "--set", "time.dt=0.001",
            "--set", "time.record_stride=3",
        ])
        assert code == 0
        man = json.loads((tmp_path / "mkdvlab_norms_manifest.json").read_text())
        span_min = 4.0 * 4.0 ** -4  # k_max = 4 at max_mode 16
        summary = man["results_summary"]
        assert summary["record_stride"] == 1
        assert 0.0 < summary["dt"] <= span_min / 64 * 0.98
        assert (man["config"]["time"]["dt"], man["config"]["time"]["record_stride"]) == ("0.001", "3")

    def test_user_stride_kept(self, tmp_path):
        # 10 steps of dt 1e-4 at stride 2: records 2e-4 apart, within the
        # top band's span_min/64 = 9.8e-4 at max_mode 8
        code = run([
            "norms", "--out", str(tmp_path),
            "--set", "grid.max_mode=8",
            "--set", "time.T=1e-3",
            "--set", "time.dt=1e-4",
            "--set", "time.record_stride=2",
        ])
        assert code == 0
        summary = json.loads((tmp_path / "mkdvlab_norms_manifest.json").read_text())["results_summary"]
        assert summary["record_stride"] == 2
        assert summary["dt"] == pytest.approx(1e-4, rel=1e-12)

    def test_user_dt_kept_records_every_step(self, tmp_path):
        # 1,429 steps of dt 7e-6: the automatic stride 3 would leave a short
        # last record interval; 1,429 is prime, so a kept dt records every step
        code = run([
            "norms", "--out", str(tmp_path),
            "--set", "grid.max_mode=16",
            "--set", "time.dt=7e-6",
        ])
        assert code == 0
        summary = json.loads((tmp_path / "mkdvlab_norms_manifest.json").read_text())["results_summary"]
        assert summary["record_stride"] == 1
        assert summary["dt"] == pytest.approx(0.01 / 1429, rel=1e-12)

    def test_user_dt_kept_records_at_the_coarsest_even_stride(self, tmp_path):
        # 2,000 steps of dt 5e-6 and span_min/64 = 2.441e-4 allow a stride of
        # at most 48; 40 is the largest that divides 2,000
        code = run([
            "norms", "--out", str(tmp_path),
            "--set", "grid.max_mode=16",
            "--set", "time.dt=5e-6",
        ])
        assert code == 0
        summary = json.loads((tmp_path / "mkdvlab_norms_manifest.json").read_text())["results_summary"]
        assert summary["record_stride"] == 40
        assert summary["dt"] == pytest.approx(5e-6, rel=1e-12)

    @pytest.mark.parametrize("dt, stride, msg", [
        ("7e-6", "3", "does not divide the 1429 steps"),
        ("5e-6", "50", "spaces records 2.500e-04 apart"),  # span_min/64 = 2.441e-4
    ])
    def test_user_stride_checked_before_evolve(self, tmp_path, capsys, monkeypatch, dt, stride, msg):
        monkeypatch.setattr(cli, "evolve", no_run)
        code = run([
            "norms", "--out", str(tmp_path),
            "--set", "grid.max_mode=16",
            "--set", f"time.dt={dt}",
            "--set", f"time.record_stride={stride}",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "time.record_stride" in err and msg in err
        assert not list(tmp_path.iterdir())
