"""Batch experiment driver.

One subcommand per acceptance-check family:

    evolve               integrate a flow, write Hamiltonian/norm series
    conserve             constrained run, fail (exit 4) if drift exceeds tol
    gauge-check          physical-vs-renormalized gauge equivalence
    miura-check          algebraic + dynamic Miura identity checks
    resonance-enum       enumerate the nonresonant index sets to CSV
    resonance-identity   exact H/G identity checks
    illposed-growth      ||D0|| growth sweep with slope fit
    appendix-b           remainder-term norms and separation check
    norms                F_k / N_k / F^s diagnostics on a short run
    fifth-derivative     numeric-vs-analytic fifth-derivative cross-check

Configuration: a flat INI file (sections [grid], [equation], [initial_data],
[time], [norms], [sweep], [output]); every value can be overridden on the
command line with --set section.key=value.  Any other section or key, in the
file or in --set, is a validation error naming it.  Every subcommand runs in
one process.  Outputs: RFC-4180-style CSV with '.' decimals and 17
significant digits, plus a JSON manifest holding the config, tolerances, a
results summary, the wall time and the process's peak resident memory.

Exit codes: 0 success, 2 validation error, 3 numerical divergence,
4 tolerance failure in a check subcommand.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .equations import EquationParams, RenormalizedTerms, derive_gauge_params
from .errors import ConfigurationError, DivergenceError, MkdvLabError, ParameterError
from .integrate import StepControl, evolve, uniform_steps
from .invariants import drift_report
from .spectral import GridSpec, SpectralField, sobolev_norm
from .transforms import gauge_forward, miura_residual, chain_identity_gap

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_TOLERANCE = 4

FLOAT_FMT = "{:.16e}"

DEFAULTS = {
    "grid": {"max_mode": "64", "phys_points": "0", "dealias_factor": "3"},
    "equation": {"c1": "40", "c2": "10", "c3": "10", "c4": "-30",
                 "d1": "", "d2": "", "tag": "physical_5mkdv"},
    "initial_data": {"preset": "cosine", "amplitudes": "0.1,0.05",
                     "seed": "20240817", "decay": "2.0", "amplitude": "0.05",
                     "N": "8", "s": "1.0"},
    "time": {"T": "0.01", "dt": "0", "record_stride": "0"},
    "norms": {"s": "1.0", "gamma": "0.25"},
    "sweep": {"Ns": "64,128,256,512,1024,2048,4096", "t": "1e-4", "s": "1.0"},
    "output": {"dir": ".", "prefix": "mkdvlab"},
}

TOLERANCES = {
    "conserve_drift": 1e-7,
    "gauge_h2": 1e-5,
    "miura_static_rel": 1e-10,
    "miura_dynamic": 1e-6,
    "growth_slope_lo": 1.9,
    "growth_slope_hi": 2.1,
    "appendix_separation": 0.1,
    "fifth_derivative_rel": 1e-3,
}


@dataclass
class ExperimentConfig:
    raw: configparser.ConfigParser

    def get(self, section: str, key: str) -> str:
        return self.raw.get(section, key)

    def get_int(self, section, key, positive=False):
        v = _parse_number(f"{section}.{key}", self.raw.get(section, key), int)
        if positive and v <= 0:
            raise ConfigurationError(f"{section}.{key}: must be positive, got {v}")
        return v

    def get_float(self, section, key, positive=False):
        v = _parse_number(f"{section}.{key}", self.raw.get(section, key), float)
        if positive and v <= 0:
            raise ConfigurationError(f"{section}.{key}: must be positive, got {v}")
        return v

    def get_list(self, section, key, kind):
        """Comma-separated ints or finite floats (kind); empty items are skipped."""
        name = f"{section}.{key}"
        return [_parse_number(name, v, kind) for v in self.raw.get(section, key).split(",") if v]

    def as_dict(self) -> dict:
        """Every value, keyed in the DEFAULTS spelling (configparser
        lower-cases the keys it reads)."""
        return {s: {k: self.raw.get(s, k) for k in keys} for s, keys in DEFAULTS.items()}


def _parse_number(name: str, text: str, kind):
    """int(text) or a finite float(text); bad input names the field."""
    try:
        v = kind(text)
    except ValueError as e:
        what = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{name}: not {what} ({e})") from None
    if kind is float and not math.isfinite(v):
        raise ConfigurationError(f"{name}: must be finite, got {v}")
    return v


def _in_field(name: str, build, *args, **kwargs):
    """build(*args, **kwargs), with a validation error prefixed by the config
    field its input came from."""
    try:
        return build(*args, **kwargs)
    except (ConfigurationError, ParameterError) as e:
        raise ConfigurationError(f"{name}: {e}") from None


def load_config(path: str | None, overrides) -> ExperimentConfig:
    """DEFAULTS, then the INI file, then --set overrides.  A section or key
    that DEFAULTS does not hold, in the file (its [DEFAULT] section too) or in
    an override, is a ConfigurationError naming it."""
    cp = configparser.ConfigParser()
    cp.read_dict(DEFAULTS)
    known = {section: set(cp[section]) for section in cp.sections()}

    def require_known(section: str, keys) -> None:
        if section not in known:
            raise ConfigurationError(f"unknown config section {section!r}")
        for key in keys:
            if cp.optionxform(key) not in known[section]:
                raise ConfigurationError(f"unknown config field {section}.{key}")

    if path:
        read = cp.read(path)
        if not read:
            raise ConfigurationError(f"config file not found: {path}")
        if cp.defaults():
            require_known(cp.default_section, cp.defaults())
        for section in cp.sections():
            require_known(section, cp[section])
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigurationError(
                f"override {item!r} must look like section.key=value"
            )
        lhs, value = item.split("=", 1)
        section, key = lhs.split(".", 1)
        require_known(section, [key])
        cp.set(section, key, value)
    return ExperimentConfig(cp)


def build_grid(cfg: ExperimentConfig) -> GridSpec:
    max_mode = cfg.get_int("grid", "max_mode", positive=True)
    phys = cfg.get_int("grid", "phys_points")
    factor = cfg.get_float("grid", "dealias_factor")
    return GridSpec(max_mode, phys_points=phys, dealias_factor=factor)


def build_initial_data(cfg: ExperimentConfig, grid: GridSpec) -> SpectralField:
    preset = cfg.get("initial_data", "preset")
    if preset == "cosine":
        amps = cfg.get_list("initial_data", "amplitudes", float)
        if len(amps) > grid.max_mode:
            raise ConfigurationError(
                f"initial_data.amplitudes: {len(amps)} amplitudes set modes 1..{len(amps)}, "
                f"beyond grid.max_mode = {grid.max_mode}"
            )
        values = {}
        for i, a in enumerate(amps, start=1):
            values[i] = a / 2.0
            values[-i] = a / 2.0
        return SpectralField.from_modes(grid, values)
    if preset in ("counterexample_C5", "counterexample_C3"):
        from .illposed import CounterexampleSpec, build_counterexample_data

        spec = CounterexampleSpec(
            N=cfg.get_int("initial_data", "N", positive=True),
            s=cfg.get_float("initial_data", "s"),
            variant=preset.rsplit("_", 1)[1],
        )
        return build_counterexample_data(spec, grid)
    if preset == "random_smooth":
        rng = np.random.default_rng(cfg.get_int("initial_data", "seed"))
        decay = cfg.get_float("initial_data", "decay")
        amp = cfg.get_float("initial_data", "amplitude")
        M = grid.max_mode
        c = np.zeros(2 * M + 1, dtype=complex)
        for n in range(1, M + 1):
            a = (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + n) ** decay
            c[n + M] = a
            c[-n + M] = np.conj(a)
        c *= amp
        return SpectralField(grid, c)
    raise ConfigurationError(f"initial_data.preset: unknown preset {preset!r}")


def build_params(cfg: ExperimentConfig, u0: SpectralField | None = None) -> EquationParams:
    p = EquationParams(
        c1=cfg.get_float("equation", "c1"),
        c2=cfg.get_float("equation", "c2"),
        c3=cfg.get_float("equation", "c3"),
        c4=cfg.get_float("equation", "c4"),
    )
    d1 = cfg.get("equation", "d1")
    d2 = cfg.get("equation", "d2")
    if d1 or d2:
        p.d1 = cfg.get_float("equation", "d1") if d1 else 0.0
        p.d2 = cfg.get_float("equation", "d2") if d2 else 0.0
    elif u0 is not None and p.constrained and abs(p.c1 - 40.0) < 1e-12:
        gp = derive_gauge_params(u0, 40.0)
        p.d1, p.d2, p.gamma1, p.gamma2 = gp.d1, gp.d2, gp.gamma1, gp.gamma2
    return p


def build_ctrl(cfg: ExperimentConfig) -> StepControl:
    dt = cfg.get_float("time", "dt")
    stride = cfg.get_int("time", "record_stride")
    _in_field("time.dt", StepControl, dt=dt)
    return _in_field("time.record_stride", StepControl, dt=dt, record_stride=stride)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(
                [FLOAT_FMT.format(v) if isinstance(v, float) else v for v in row]
            )


def write_manifest(path: Path, cfg: ExperimentConfig, summary: dict, wall: float) -> None:
    doc = {
        "config": cfg.as_dict(),
        "code_version": __version__,
        "tolerances": TOLERANCES,
        "results_summary": summary,
        "wall_time_s": wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")


def _out_paths(cfg: ExperimentConfig, name: str):
    outdir = Path(cfg.get("output", "dir"))
    outdir.mkdir(parents=True, exist_ok=True)
    prefix = cfg.get("output", "prefix")
    return outdir / f"{prefix}_{name}.csv", outdir / f"{prefix}_{name}_manifest.json"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_evolve(cfg: ExperimentConfig, args) -> int:
    t0 = time.perf_counter()
    grid = build_grid(cfg)
    u0 = build_initial_data(cfg, grid)
    p = build_params(cfg, u0)
    T = cfg.get_float("time", "T", positive=True)
    traj = evolve(u0, T, p, cfg.get("equation", "tag"), build_ctrl(cfg))
    s = cfg.get_float("norms", "s")
    rep = drift_report(traj, p.c1)
    rows = [
        (rep.times[i], rep.h0[i], rep.h1[i], rep.h2[i], sobolev_norm(traj.field(i), s))
        for i in range(len(traj))
    ]
    csv_path, man_path = _out_paths(cfg, "evolve")
    write_csv(csv_path, ["time", "H0", "H1", "H2", f"Hs(s={s})"], rows)
    write_manifest(
        man_path, cfg,
        {"records": len(traj), "dt": traj.dt, "final_time": float(traj.times[-1])},
        time.perf_counter() - t0,
    )
    return EXIT_OK


def cmd_conserve(cfg: ExperimentConfig, args) -> int:
    t0 = time.perf_counter()
    grid = build_grid(cfg)
    u0 = build_initial_data(cfg, grid)
    p = build_params(cfg, u0)
    T = cfg.get_float("time", "T", positive=True)
    traj = evolve(u0, T, p, "physical_5mkdv", build_ctrl(cfg))
    rep = drift_report(traj, p.c1)
    csv_path, man_path = _out_paths(cfg, "conserve")
    rep.write_csv(csv_path)
    drift = max(rep.relative_drift)
    write_manifest(
        man_path, cfg,
        {"relative_drift": list(rep.relative_drift), "max_drift": drift,
         "passed": drift < TOLERANCES["conserve_drift"]},
        time.perf_counter() - t0,
    )
    return EXIT_OK if drift < TOLERANCES["conserve_drift"] else EXIT_TOLERANCE


def cmd_gauge_check(cfg: ExperimentConfig, args) -> int:
    t0 = time.perf_counter()
    grid = build_grid(cfg)
    u0 = build_initial_data(cfg, grid)
    p = build_params(cfg, u0)
    T = cfg.get_float("time", "T", positive=True)
    ctrl = build_ctrl(cfg)
    traj_u = evolve(u0, T, p, "physical_5mkdv", ctrl)
    traj_v = evolve(u0, T, p, "renormalized_5mkdv", ctrl)
    nt_u = gauge_forward(traj_u)
    n = grid.modes.astype(float)
    w = (1.0 + n * n) ** 2
    m = min(len(nt_u), len(traj_v))
    diff = np.sqrt(np.sum(w * np.abs(nt_u.states[:m] - traj_v.states[:m]) ** 2, axis=1))
    worst = float(np.max(diff, initial=0.0))
    rows = list(zip(nt_u.times[:m].tolist(), diff.tolist()))
    csv_path, man_path = _out_paths(cfg, "gauge")
    write_csv(csv_path, ["time", "h2_discrepancy"], rows)
    write_manifest(
        man_path, cfg,
        {"max_h2_discrepancy": worst, "passed": worst < TOLERANCES["gauge_h2"],
         "d1": p.d1, "d2": p.d2},
        time.perf_counter() - t0,
    )
    return EXIT_OK if worst < TOLERANCES["gauge_h2"] else EXIT_TOLERANCE


def cmd_miura_check(cfg: ExperimentConfig, args) -> int:
    t0 = time.perf_counter()
    grid = build_grid(cfg)
    rng = np.random.default_rng(cfg.get_int("initial_data", "seed"))
    M = grid.max_mode
    worst_static = 0.0
    for _ in range(100):
        c = np.zeros(2 * M + 1, dtype=complex)
        cdot = np.zeros(2 * M + 1, dtype=complex)
        for n in range(1, M + 1):
            c[n + M] = (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + n) ** 2
            c[-n + M] = np.conj(c[n + M])
            cdot[n + M] = (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + n) ** 2
            cdot[-n + M] = np.conj(cdot[n + M])
        c[M] = rng.standard_normal()
        cdot[M] = rng.standard_normal()
        gap = chain_identity_gap(grid, c, cdot)
        scale = max(1.0, float(np.max(np.abs(c))) ** 3 * M**4)
        worst_static = max(worst_static, gap / scale)

    u0 = build_initial_data(cfg, grid)
    T = cfg.get_float("time", "T", positive=True)
    traj = evolve(u0, T, EquationParams(), "mkdv3", build_ctrl(cfg))
    res = miura_residual(traj)
    rows = [(traj.times[i], float(res[i])) for i in range(len(traj))]
    csv_path, man_path = _out_paths(cfg, "miura")
    write_csv(csv_path, ["time", "kdv_residual_l2"], rows)
    ok = worst_static < TOLERANCES["miura_static_rel"] and float(np.max(res)) < TOLERANCES["miura_dynamic"]
    write_manifest(
        man_path, cfg,
        {"static_identity_rel": worst_static, "max_dynamic_residual": float(np.max(res)),
         "passed": ok},
        time.perf_counter() - t0,
    )
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_resonance_enum(cfg: ExperimentConfig, args) -> int:
    from .resonance import enumerate_n3, enumerate_n5, write_quintuples_csv, write_triples_csv

    t0 = time.perf_counter()
    n = args.n
    trips = enumerate_n3(n, args.radius)
    csv_path, man_path = _out_paths(cfg, "resonance_n3")
    write_triples_csv(csv_path, n, trips, d1=0)
    quint_path = csv_path.with_name(csv_path.name.replace("_n3", "_n5"))
    n5_radius = min(args.radius, 12)
    quints = enumerate_n5(n, n5_radius)
    write_quintuples_csv(quint_path, n, quints)
    write_manifest(
        man_path, cfg,
        {"n": n, "radius": args.radius, "n5_radius": n5_radius,
         "triples": len(trips), "quintuples": len(quints)},
        time.perf_counter() - t0,
    )
    return EXIT_OK


def cmd_resonance_identity(cfg: ExperimentConfig, args) -> int:
    from fractions import Fraction

    from .resonance import phi_cubic, resonance_g, resonance_h

    t0 = time.perf_counter()
    for a in range(-100, 101, 7):
        for b in range(-100, 101, 11):
            for c in range(-100, 101, 13):
                resonance_h(a, b, c)  # internal direct == factored assertion
    rng = np.random.default_rng(cfg.get_int("initial_data", "seed"))
    checked = 0
    for _ in range(10000):
        a, b, c = (int(x) for x in rng.integers(-80, 81, 3))
        d1 = Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 30)))
        d2 = Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 30)))
        if resonance_g(a, b, c, d1) != -phi_cubic(a + b + c, a, b, c, d1, d2):
            _, man_path = _out_paths(cfg, "resonance_identity")
            write_manifest(man_path, cfg, {"passed": False, "counterexample": (a, b, c)}, 0.0)
            return EXIT_TOLERANCE
        checked += 1
    _, man_path = _out_paths(cfg, "resonance_identity")
    write_manifest(
        man_path, cfg, {"passed": True, "identity_checks": checked},
        time.perf_counter() - t0,
    )
    return EXIT_OK


def cmd_illposed_growth(cfg: ExperimentConfig, args) -> int:
    from .illposed import growth_experiment

    t0 = time.perf_counter()
    Ns = cfg.get_list("sweep", "Ns", int)
    s = cfg.get_float("sweep", "s")
    t = cfg.get_float("sweep", "t")
    rows, slope = growth_experiment(Ns, s=s, t=t)
    csv_path, man_path = _out_paths(cfg, "growth")
    write_csv(
        csv_path,
        ["N", "s", "t", "d0_norm", "ratio_tN2", "b1", "b2", "c1", "c2", "d1", "slope_running"],
        [
            (r.N, r.s, r.t, r.d0_norm, r.ratio_tN2, r.b1, r.b2, r.c1, r.c2, r.d1,
             r.slope_running)
            for r in rows
        ],
    )
    ok = TOLERANCES["growth_slope_lo"] <= slope <= TOLERANCES["growth_slope_hi"]
    write_manifest(
        man_path, cfg, {"slope": slope, "passed": ok}, time.perf_counter() - t0
    )
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_appendix_b(cfg: ExperimentConfig, args) -> int:
    from .illposed import CounterexampleSpec, eval_appendix_terms

    t0 = time.perf_counter()
    Ns = cfg.get_list("sweep", "Ns", int)
    s = cfg.get_float("sweep", "s")
    t = cfg.get_float("sweep", "t")
    reps = [eval_appendix_terms(CounterexampleSpec(N=N, s=s, t=t)) for N in Ns]
    rows = [
        (r.N, r.s, r.t, r.d0_hsnorm, r.d_full_hsnorm, r.b1, r.b2, r.c1, r.c2,
         r.d1_norms, r.skipped_outer_resonant)
        for r in reps
    ]
    csv_path, man_path = _out_paths(cfg, "appendix_b")
    write_csv(
        csv_path,
        ["N", "s", "t", "d0", "d_full", "b1", "b2", "c1", "c2", "d1", "skipped"],
        rows,
    )
    ok = True
    for r in reps:
        bound = TOLERANCES["appendix_separation"] * r.t * r.N**2
        if max(r.b1, r.b2, r.c1, r.c2, r.d1_norms) >= bound:
            ok = False
    write_manifest(man_path, cfg, {"passed": ok, "rows": len(rows)}, time.perf_counter() - t0)
    return EXIT_OK if ok else EXIT_TOLERANCE


def _largest_divisor(n: int, cap: int) -> int:
    """The largest divisor of n that is at most cap (cap >= 1)."""
    best = 1
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            best = max([best] + [e for e in (d, n // d) if e <= cap])
    return best


def cmd_norms(cfg: ExperimentConfig, args) -> int:
    from .shorttime import WeightTable, _tk_grid, _window_table, fk_norm, fs_norm, nk_norm

    t0 = time.perf_counter()
    grid = build_grid(cfg)
    u0 = build_initial_data(cfg, grid)
    p = build_params(cfg, u0)
    T = cfg.get_float("time", "T", positive=True)
    k_max = max(1, int(np.ceil(np.log2(max(grid.max_mode, 2)))))
    span_min = 4.0 * 4.0 ** (-k_max)
    ctrl = build_ctrl(cfg)
    # the windows need uniform record spacing of at most span_min / 64
    if ctrl.dt == 0 or ctrl.dt > span_min / 64:
        ctrl = StepControl(dt=span_min / 64 * 0.98, record_stride=1)
    else:
        n_steps, dt = uniform_steps(T, ctrl.dt)
        stride = ctrl.record_stride
        if stride == 0:
            # the coarsest uniform spacing the windows accept
            cap = max(1, int(span_min / 64 / dt))
            ctrl = StepControl(dt=ctrl.dt, record_stride=_largest_divisor(n_steps, cap))
        elif n_steps % stride:
            raise ConfigurationError(
                f"time.record_stride = {stride} does not divide the {n_steps} steps, "
                "so the last record interval would be short; norms needs uniform "
                "record spacing (0 chooses one)"
            )
        elif stride * dt > span_min / 64:
            raise ConfigurationError(
                f"time.record_stride = {stride} spaces records {stride * dt:.3e} apart; "
                f"norms needs at most {span_min / 64:.3e} (0 chooses a stride)"
            )
    wt = _in_field("norms.gamma", WeightTable, cfg.get_float("norms", "gamma"))
    t_evolve = time.perf_counter()
    traj = evolve(u0, T, p, cfg.get("equation", "tag"), ctrl)
    t_tables = time.perf_counter()
    s = cfg.get_float("norms", "s")
    grids = {k: _tk_grid(traj, k, T) for k in range(k_max + 1)}
    rows = []
    shell_rows = []
    for k in range(1, k_max + 1):
        fk = fk_norm(traj, k, T, wt)
        nk = nk_norm(traj, k, T, wt)
        rows.append((k, fk, nk))
        # every shell mass of the middle window, from the table fk_norm built
        centers, _ = grids[k]
        c = len(centers) // 2
        for j, m_sq in enumerate(_window_table(traj, k, T)[0, c]):
            shell_rows.append((k, float(centers[c]), j, float(np.sqrt(m_sq))))
    fs = fs_norm(traj, s, T, wt)
    t_done = time.perf_counter()
    csv_path, man_path = _out_paths(cfg, "norms")
    write_csv(csv_path, ["k", "fk", "nk"], rows)
    shells_path = csv_path.with_name(csv_path.name.replace("_norms", "_norm_shells"))
    write_csv(shells_path, ["k", "t_k", "j", "shell_mass"], shell_rows)
    write_manifest(
        man_path, cfg,
        {"fs_norm": fs, "s": s, "gamma": wt.gamma,
         "dt": traj.dt, "record_stride": traj.record_stride,
         "evolve_s": t_tables - t_evolve, "tables_s": t_done - t_tables,
         "zero_extended_k": [k for k, (_, ext) in grids.items() if ext],
         "windows_per_k": {k: len(centers) for k, (centers, _) in grids.items()}},
        time.perf_counter() - t0,
    )
    return EXIT_OK


def cmd_fifth_derivative(cfg: ExperimentConfig, args) -> int:
    from .illposed import (
        CounterexampleSpec,
        counterexample_support,
        fifth_derivative_direct,
        numeric_fifth_derivative,
        symmetrized_support,
    )

    t0 = time.perf_counter()
    grid = build_grid(cfg)
    spec = CounterexampleSpec(
        N=cfg.get_int("initial_data", "N", positive=True),
        s=cfg.get_float("initial_data", "s"),
        t=cfg.get_float("time", "T", positive=True),
    )
    supp = symmetrized_support(counterexample_support(spec))
    u0 = SpectralField.zeros(grid)
    for n, a in supp.items():
        if abs(n) > grid.max_mode:
            raise ConfigurationError("grid.max_mode too small for the data support")
        u0.coeff[n + grid.max_mode] = a
    flow = RenormalizedTerms(resonant_cubic=False, cubic2=True, cubic3=False, quintic=False)
    p = EquationParams.constrained_family(40.0)
    p.d1 = p.d2 = 0.0
    ana = fifth_derivative_direct(supp, spec, flow)
    M = grid.max_mode
    ana_arr = np.zeros(2 * M + 1, dtype=complex)
    for n, v in ana.items():
        if abs(n) <= M:
            ana_arr[n + M] = v
    a5, rep = numeric_fifth_derivative(
        u0, spec.t, [0.01, 0.02, 0.03, 0.04], p, flow,
        ctrl=StepControl(dt=2e-6, record_stride=10**9),
    )
    rel = float(np.max(np.abs(a5.coeff - ana_arr)) / np.max(np.abs(ana_arr)))
    rows = [
        (int(n - M), abs(a5.coeff[n]), abs(ana_arr[n]))
        for n in range(2 * M + 1)
        if abs(ana_arr[n]) > 0
    ]
    csv_path, man_path = _out_paths(cfg, "fifth_derivative")
    write_csv(csv_path, ["n", "numeric_abs", "analytic_abs"], rows)
    ok = rel < TOLERANCES["fifth_derivative_rel"]
    write_manifest(
        man_path, cfg,
        {"relative_error": rel, "passed": ok,
         "conditioning": rep["vandermonde_condition"]},
        time.perf_counter() - t0,
    )
    return EXIT_OK if ok else EXIT_TOLERANCE


COMMANDS = {
    "evolve": cmd_evolve,
    "conserve": cmd_conserve,
    "gauge-check": cmd_gauge_check,
    "miura-check": cmd_miura_check,
    "resonance-enum": cmd_resonance_enum,
    "resonance-identity": cmd_resonance_identity,
    "illposed-growth": cmd_illposed_growth,
    "appendix-b": cmd_appendix_b,
    "norms": cmd_norms,
    "fifth-derivative": cmd_fifth_derivative,
}


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mkdvlab", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="INI config file")
        sp.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override a config value")
        sp.add_argument("--out", default=None, help="output directory (overrides output.dir)")
        if name == "resonance-enum":
            sp.add_argument("--n", type=int, default=0, help="output frequency")
            sp.add_argument("--radius", type=int, default=12)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        if args.out:
            cfg.raw.set("output", "dir", args.out)
        code = COMMANDS[args.command](cfg, args)
    except (ConfigurationError, ParameterError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except MkdvLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
