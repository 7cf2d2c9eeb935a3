"""CLI subcommands: exit codes, artifacts, determinism."""

import json

import numpy as np
import pytest

from mkdvlab.cli import (
    DEFAULTS,
    build_ctrl,
    build_grid,
    build_initial_data,
    build_params,
    load_config,
    main,
)
from mkdvlab.integrate import evolve
from mkdvlab.transforms import gauge_forward


def run(args):
    return main(args)


class TestValidation:
    def test_missing_field_named_in_message(self, tmp_path, capsys):
        code = run(["conserve", "--set", "grid.max_mode=", "--out", str(tmp_path)])
        assert code == 2
        assert "grid.max_mode" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        for item in ("grid.bogus=3", "time.splitting=etd_rk4"):
            code = run(["conserve", "--set", item, "--out", str(tmp_path)])
            assert code == 2
            assert item.split("=")[0] in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bad_override_syntax(self, tmp_path):
        assert run(["conserve", "--set", "nonsense", "--out", str(tmp_path)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert run(["conserve", "--config", str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize("field, value", [
        ("time.T", "nan"),
        ("time.T", "inf"),
        ("time.dt", "nan"),
        ("grid.dealias_factor", "nan"),
        ("equation.d1", "nan"),
        ("equation.d2", "abc"),
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
    ])
    def test_out_of_range_named_before_the_run(self, tmp_path, capsys, monkeypatch,
                                               command, item, fields):
        from mkdvlab import cli

        def no_evolve(*args, **kwargs):
            raise AssertionError("evolve ran")

        monkeypatch.setattr(cli, "evolve", no_evolve)
        code = run([command, "--set", item, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {fields[0]}: ")
        assert all(f in err for f in fields)
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, name", [
        ("[time]\nsplitting = integrating_factor_rk4\n", "time.splitting"),
        ("[grid]\nmax_mod = 8\n", "grid.max_mod"),
        ("[bogus]\n", "bogus"),
        ("[DEFAULT]\nmax_mode = 8\n", "DEFAULT"),
    ], ids=["removed-key", "misspelt-key", "unknown-section", "default-section"])
    def test_unknown_config_file_entry_named(self, tmp_path, capsys, text, name):
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        out = tmp_path / "out"
        code = run(["conserve", "--config", str(ini), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert name in err
        assert "Traceback" not in err
        assert not out.exists()

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

    def test_divergence_exit_code(self, tmp_path):
        code = run([
            "evolve", "--out", str(tmp_path),
            "--set", "grid.max_mode=8",
            "--set", "initial_data.amplitudes=80.0,60.0",
            "--set", "time.T=1.0",
            "--set", "time.dt=0.05",
        ])
        assert code == 3


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
        nt_u = gauge_forward(evolve(u0, 0.001, p, "physical_5mkdv", build_ctrl(cfg)))
        traj_v = evolve(u0, 0.001, p, "renormalized_5mkdv", build_ctrl(cfg))
        n = grid.modes.astype(float)
        w = (1.0 + n * n) ** 2
        lines = (tmp_path / "mkdvlab_gauge.csv").read_text().splitlines()[1:]
        assert len(lines) == min(len(nt_u), len(traj_v))
        for i, line in enumerate(lines):
            t, diff = (float(v) for v in line.split(","))
            assert t == nt_u.times[i]
            want = np.sqrt(np.sum(w * np.abs(nt_u.states[i] - traj_v.states[i]) ** 2))
            assert diff == float(want)


class TestMiuraCheck:
    def test_passes(self, tmp_path):
        code = run([
            "miura-check", "--out", str(tmp_path),
            "--set", "grid.max_mode=32",
            "--set", "initial_data.amplitudes=0.1",
            "--set", "time.T=0.01",
        ])
        assert code == 0


class TestResonance:
    def test_enum_writes_both_csvs(self, tmp_path):
        code = run(["resonance-enum", "--out", str(tmp_path), "--n", "0", "--radius", "5"])
        assert code == 0
        assert (tmp_path / "mkdvlab_resonance_n3.csv").exists()
        assert (tmp_path / "mkdvlab_resonance_n5.csv").exists()

    def test_enum_negative_radius_named(self, tmp_path, capsys):
        code = run(["resonance-enum", "--out", str(tmp_path), "--radius", "-3"])
        assert code == 2
        assert "radius" in capsys.readouterr().err
        assert not (tmp_path / "mkdvlab_resonance_n3.csv").exists()

    def test_enum_far_n_writes_empty_csvs(self, tmp_path):
        n = "100000000000000000000"
        assert run(["resonance-enum", "--out", str(tmp_path), "--n", n]) == 0
        for name, header in (("n3", "n,n1,n2,n3,H,G"), ("n5", "n,n1,n2,n3,n4,n5")):
            assert (tmp_path / f"mkdvlab_resonance_{name}.csv").read_text().splitlines() == [header]

    def test_enum_manifest_records_n5_radius(self, tmp_path):
        assert run(["resonance-enum", "--out", str(tmp_path), "--n", "1", "--radius", "20"]) == 0
        man = json.loads((tmp_path / "mkdvlab_resonance_n3_manifest.json").read_text())
        summary = man["results_summary"]
        assert (summary["radius"], summary["n5_radius"]) == (20, 12)

    def test_identity_passes(self, tmp_path):
        assert run(["resonance-identity", "--out", str(tmp_path)]) == 0


class TestGrowth:
    def test_default_sweep(self, tmp_path):
        code = run(["illposed-growth", "--out", str(tmp_path)])
        assert code == 0
        man = json.loads((tmp_path / "mkdvlab_growth_manifest.json").read_text())
        assert 1.9 <= man["results_summary"]["slope"] <= 2.1
        lines = (tmp_path / "mkdvlab_growth.csv").read_text().splitlines()
        assert lines[0].startswith("N,s,t,d0_norm,ratio_tN2")

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
        from mkdvlab import cli

        def no_evolve(*args, **kwargs):
            raise AssertionError("evolve ran")

        monkeypatch.setattr(cli, "evolve", no_evolve)
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
