"""Batch experiment driver.

One subcommand per acceptance-check family:

    evolve               integrate a flow, write Hamiltonian/norm series
    conserve             constrained run, fail (exit 4) if drift exceeds tol
    gauge-check          physical-vs-renormalized gauge equivalence
    miura-check          algebraic + dynamic Miura identity checks
    resonance-enum       enumerate the nonresonant index sets to CSV
    resonance-identity   exact H (|n_i| <= 100) and G (10^4 rational samples) checks
    illposed-growth      ||D0|| growth sweep with slope fit
    appendix-b           remainder-term norms and separation check
    norms                F_k / N_k / F^s diagnostics on a short run
    fifth-derivative     numeric-vs-analytic fifth-derivative cross-check

Configuration: a flat INI file (sections [grid], [equation], [initial_data],
[time], [norms], [sweep], [output]); every value can be overridden on the
command line with --set section.key=value.  Any other section or key, in the
file or in --set, is a validation error naming it.  Every subcommand runs in
one process.  Each subcommand returns what it computed (an Outcome) and one
runner writes it: RFC-4180-style CSVs with '.' decimals and 17 significant
digits, <output.dir>/<output.prefix>_<artifact>.csv, plus a JSON manifest,
<output.prefix>_<artifact>_manifest.json, holding the config, tolerances, the
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
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .equations import EquationParams, RenormalizedTerms, derive_gauge_params, flow
from .errors import ConfigurationError, DivergenceError, MkdvLabError, ParameterError
from .integrate import StepControl, evolve, step_plan, uniform_steps
from .invariants import drift_report
from .spectral import GridSpec, SpectralField, hermitian_extend, row_chunks, sobolev_norm, top_band
from .transforms import chain_identity_gap, gauge_forward, kdv_residual_values, miura_residual

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_TOLERANCE = 4

FLOAT_FMT = "{:.16e}"

#: Cap on the complex entries a run may hold: 2**26 entries is 1 GiB, an
#: eighth of an 8 GiB machine.  It bounds the record buffers a subcommand
#: keeps at once, records x (max_mode+1) half-spectrum entries each, and,
#: through 3*(2*max_mode+1) <= MAX_ENTRIES // 64 collocation points, evolve's
#: working arrays of about 28 entries per point.
MAX_ENTRIES = 1 << 26

DEFAULTS = {
    "grid": {"max_mode": "64"},
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


def _counterexample_spec(**inputs):
    """CounterexampleSpec of the parameters given as param=(config field,
    value), in the order N, s, t: each is added and checked in turn through
    _in_field, so a rejected value is named by its own config field."""
    from .illposed import CounterexampleSpec

    given = {}
    for param, (name, value) in inputs.items():
        given[param] = value
        spec = _in_field(name, CounterexampleSpec, **given)
    return spec


def _sweep(cfg: ExperimentConfig, least: int) -> list:
    """The counterexample specs of sweep.Ns at sweep.s and sweep.t, checked
    before any table is built; sweep.Ns must hold at least `least` distinct N."""
    Ns = cfg.get_list("sweep", "Ns", int)
    if len(set(Ns)) < least:
        raise ConfigurationError(
            f"sweep.Ns: needs at least {least} distinct N, got {len(set(Ns))}"
        )
    s = cfg.get_float("sweep", "s")
    t = cfg.get_float("sweep", "t")
    return [_counterexample_spec(N=("sweep.Ns", N), s=("sweep.s", s), t=("sweep.t", t))
            for N in Ns]


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
                raise ConfigurationError(f"{section}.{key}: unknown config field")

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
    cap = MAX_ENTRIES // 64
    points = 3 * (2 * max_mode + 1)  # checked before GridSpec sizes anything
    if points > cap:
        raise ConfigurationError(
            f"grid.max_mode: asks for {points:.4g} collocation points, above the cap of {cap}"
        )
    return GridSpec(max_mode)


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
    if preset == "random_smooth":
        rng = np.random.default_rng(cfg.get_int("initial_data", "seed"))
        decay = cfg.get_float("initial_data", "decay")
        amp = cfg.get_float("initial_data", "amplitude")
        modes = _decaying_modes(rng.standard_normal((grid.max_mode, 2)), decay)[:, 0]
        return SpectralField(grid, hermitian_extend(np.concatenate(([0.0], modes))) * amp)
    raise ConfigurationError(f"initial_data.preset: unknown preset {preset!r}")


def _decaying_modes(normals: np.ndarray, decay: float) -> np.ndarray:
    """(M, k) complex modes n = 1..M from (M, 2k) normals, each (re, im) pair
    over (1+n)**decay in Python floats (numpy's array power can miss an ulp)."""
    scale = np.array([float(1 + n) ** decay for n in range(1, len(normals) + 1)])
    return (normals / scale[:, None]).view(complex)


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
        p.d1, p.d2 = gp.d1, gp.d2
    return p


def build_ctrl(cfg: ExperimentConfig) -> StepControl:
    dt = cfg.get_float("time", "dt")
    stride = cfg.get_int("time", "record_stride")
    _in_field("time.dt", StepControl, dt=dt)
    return _in_field("time.record_stride", StepControl, dt=dt, record_stride=stride)


def check_records(u0: SpectralField, T: float, p: EquationParams, tag: str,
                  ctrl: StepControl, name: str = "", buffers: int = 1) -> None:
    """ConfigurationError naming equation.tag if evolve does not know `tag`,
    or naming `name` (by default the stride, or the grid when evolve chooses
    the stride) if `buffers` record buffers of evolve's run would pass
    MAX_ENTRIES together."""
    _in_field("equation.tag", flow, tag)
    records = _in_field(name or "time.T", step_plan, u0, T, p, tag, ctrl)[3]
    width = u0.grid.max_mode + 1
    if buffers * records * width > MAX_ENTRIES:
        name = name or ("time.record_stride" if ctrl.record_stride else "grid.max_mode")
        kept = f"{buffers} x " if buffers > 1 else ""
        raise ConfigurationError(
            f"{name}: the run would keep {kept}{records:.4g} records of {width} modes, "
            f"above the cap of {MAX_ENTRIES} complex entries; raise time.record_stride "
            "or time.dt, or lower time.T or grid.max_mode"
        )


class Run(NamedTuple):
    """The inputs of an evolving subcommand, in evolve's argument order."""

    u0: SpectralField
    T: float
    p: EquationParams
    tag: str
    ctrl: StepControl


def build_run(cfg: ExperimentConfig, tag: str = "", params: EquationParams | None = None,
              buffers: int = 1, records=None) -> Run:
    """The initial data on the configured grid, time.T, the equation (params,
    or build_params'), the flow (tag, or equation.tag) and the step control
    of an evolving subcommand, checked by check_records for `buffers` record
    buffers before anything runs.  records(grid, T, ctrl), if given, returns
    the step control to use instead and the field that its records blame."""
    grid = build_grid(cfg)
    u0 = build_initial_data(cfg, grid)
    p = build_params(cfg, u0) if params is None else params
    T = cfg.get_float("time", "T", positive=True)
    tag = tag or cfg.get("equation", "tag")
    ctrl = build_ctrl(cfg)
    blame = ""
    if records is not None:
        ctrl, blame = records(grid, T, ctrl)
    check_records(u0, T, p, tag, ctrl, blame, buffers)
    return Run(u0, T, p, tag, ctrl)


@dataclass
class Outcome:
    """What a subcommand computed: its results summary, its verdict (None
    when it checks nothing) and its CSV tables, artifact name -> (header,
    rows)."""

    summary: dict
    passed: bool | None = None
    tables: dict = field(default_factory=dict)


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


def run_command(command: str, cfg: ExperimentConfig, args) -> int:
    """Run one subcommand, write each of its tables to
    <output.dir>/<output.prefix>_<artifact>.csv and its manifest to
    <output.prefix>_<artifact>_manifest.json under the artifact name COMMANDS
    gives it, and map its verdict to the exit code."""
    artifact, cmd = COMMANDS[command]
    t0 = time.perf_counter()
    out = cmd(cfg, args)
    outdir = Path(cfg.get("output", "dir"))
    outdir.mkdir(parents=True, exist_ok=True)
    prefix = cfg.get("output", "prefix")
    for name, (header, rows) in out.tables.items():
        write_csv(outdir / f"{prefix}_{name}.csv", header, rows)
    summary = out.summary if out.passed is None else {**out.summary, "passed": out.passed}
    write_manifest(outdir / f"{prefix}_{artifact}_manifest.json", cfg, summary,
                   time.perf_counter() - t0)
    return EXIT_TOLERANCE if out.passed is False else EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_evolve(cfg: ExperimentConfig, args) -> Outcome:
    run = build_run(cfg)
    s = cfg.get_float("norms", "s")
    traj = evolve(*run)
    rep = drift_report(traj, run.p.c1)
    rows = [
        (rep.times[i], rep.h0[i], rep.h1[i], rep.h2[i], sobolev_norm(traj.field(i), s))
        for i in range(len(traj))
    ]
    return Outcome(
        {"records": len(traj), "dt": traj.dt, "final_time": float(traj.times[-1])},
        tables={"evolve": (["time", "H0", "H1", "H2", f"Hs(s={s})"], rows)},
    )


def cmd_conserve(cfg: ExperimentConfig, args) -> Outcome:
    run = build_run(cfg, "physical_5mkdv")
    rep = drift_report(evolve(*run), run.p.c1)
    drift = max(rep.relative_drift)
    return Outcome(
        {"relative_drift": list(rep.relative_drift), "max_drift": drift},
        drift < TOLERANCES["conserve_drift"],
        {"conserve": (["time", "H0", "H1", "H2"], zip(rep.times, rep.h0, rep.h1, rep.h2))},
    )


def cmd_gauge_check(cfg: ExperimentConfig, args) -> Outcome:
    # u, v and the gauged u; the renormalized dt rule is the same
    run = build_run(cfg, "physical_5mkdv", buffers=3)
    nt_u = gauge_forward(evolve(*run))
    traj_v = evolve(*run._replace(tag="renormalized_5mkdv"))
    n = run.u0.grid.modes.astype(float)
    w = (1.0 + n * n) ** 2
    m = min(len(nt_u), len(traj_v))
    diff = np.empty(m)
    for rows in row_chunks(m, 3 * len(n)):  # two dense rows, |difference| and its square
        d = hermitian_extend(nt_u.half[rows])
        d -= hermitian_extend(traj_v.half[rows])
        diff[rows] = np.sqrt(np.sum(w * np.abs(d) ** 2, axis=1))
    worst = float(np.max(diff, initial=0.0))
    return Outcome(
        {"max_h2_discrepancy": worst, "d1": run.p.d1, "d2": run.p.d2},
        worst < TOLERANCES["gauge_h2"],
        {"gauge": (["time", "h2_discrepancy"], zip(nt_u.times[:m].tolist(), diff.tolist()))},
    )


def cmd_miura_check(cfg: ExperimentConfig, args) -> Outcome:
    run = build_run(cfg, "mkdv3", EquationParams())
    grid = run.u0.grid
    rng = np.random.default_rng(cfg.get_int("initial_data", "seed"))
    M = grid.max_mode
    worst_static = 0.0
    for _ in range(100):
        # per mode n = 1..M: Re c, Im c, Re cdot, Im cdot; then c(0), cdot(0)
        draws = rng.standard_normal(4 * M + 2)
        modes = _decaying_modes(draws[:4 * M].reshape(M, 4), 2.0).T
        c, cdot = hermitian_extend(np.column_stack([draws[4 * M:], modes]))
        gap = chain_identity_gap(grid, c, cdot)
        # scale: the identity's own term size
        scale = max(1.0, float(np.max(np.abs(kdv_residual_values(grid, c, cdot)))))
        worst_static = max(worst_static, gap / scale)

    traj = evolve(*run)
    res = miura_residual(traj)
    worst = float(np.max(res))
    return Outcome(
        {"static_identity_rel": worst_static, "max_dynamic_residual": worst},
        worst_static < TOLERANCES["miura_static_rel"] and worst < TOLERANCES["miura_dynamic"],
        {"miura": (["time", "kdv_residual_l2"], zip(traj.times.tolist(), res.tolist()))},
    )


def cmd_resonance_enum(cfg: ExperimentConfig, args) -> Outcome:
    from .resonance import N3_RADIUS_CAP, enumerate_n3, enumerate_n5

    n, radius = args.n, args.radius
    if not 0 <= radius <= N3_RADIUS_CAP:
        raise ConfigurationError(
            f"--radius: enumeration radius must be in [0, {N3_RADIUS_CAP}], got {radius}"
        )
    n5_radius = min(radius, 12)
    trips = enumerate_n3(n, radius)
    quints = enumerate_n5(n, n5_radius)
    # G = H + 3 d1 (n1+n2)(n1+n3)(n2+n3) is H at d1 = 0
    return Outcome(
        {"n": n, "radius": radius, "n5_radius": n5_radius,
         "triples": len(trips), "quintuples": len(quints)},
        tables={
            "resonance_n3": (["n", "n1", "n2", "n3", "H", "G"],
                             ((n, a, b, c, h, h) for a, b, c, h in trips.tolist())),
            "resonance_n5": (["n", "n1", "n2", "n3", "n4", "n5"],
                             ((n, *q) for q in quints.tolist())),
        },
    )


def cmd_resonance_identity(cfg: ExperimentConfig, args) -> Outcome:
    """H direct == factored on the cube |n_i| <= 100, then G = -phi_cubic on
    10^4 random triples of it with d1, d2 drawn from [-99, 99]/[1, 39]; the
    first failing triple is the counterexample."""
    from fractions import Fraction

    from .resonance import phi_cubic, resonance_g, resonance_h_array

    summary = {"identity_checks": 0}
    r = np.arange(-100, 101, dtype=np.int64)
    n2, n3 = np.meshgrid(r, r, indexing="ij")
    for a in r:  # one n1 slice of the cube at a time
        bad = np.argwhere(resonance_h_array(a, n2, n3)[1])
        if len(bad):
            summary["counterexample"] = (int(a), *r[bad[0]].tolist())
            return Outcome(summary, False)
    rng = np.random.default_rng(cfg.get_int("initial_data", "seed"))
    for _ in range(10000):
        a, b, c = (int(x) for x in rng.integers(-100, 101, 3))
        d1 = Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 40)))
        d2 = Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 40)))
        if resonance_g(a, b, c, d1) != -phi_cubic(a + b + c, a, b, c, d1, d2):
            summary["counterexample"] = (a, b, c)
            break
        summary["identity_checks"] += 1
    return Outcome(summary, "counterexample" not in summary)


def cmd_illposed_growth(cfg: ExperimentConfig, args) -> Outcome:
    from .illposed import GrowthRow, growth_experiment

    specs = _sweep(cfg, 2)  # a slope needs two N
    rows, slope = growth_experiment([sp.N for sp in specs], s=specs[0].s, t=specs[0].t)
    header = [f.name for f in fields(GrowthRow)]
    return Outcome(
        {"slope": slope},
        TOLERANCES["growth_slope_lo"] <= slope <= TOLERANCES["growth_slope_hi"],
        {"growth": (header, [astuple(r) for r in rows])},
    )


def cmd_appendix_b(cfg: ExperimentConfig, args) -> Outcome:
    from .illposed import eval_appendix_terms

    reps = [eval_appendix_terms(spec) for spec in _sweep(cfg, 1)]
    separated = all(
        max(r.b1, r.b2, r.c1, r.c2, r.d1_norms) < TOLERANCES["appendix_separation"] * r.t * r.N**2
        for r in reps
    )
    header = ["N", "s", "t", "d0", "d_full", "b1", "b2", "c1", "c2", "d1"]
    return Outcome({"rows": len(reps)}, separated,
                   {"appendix_b": (header, [astuple(r) for r in reps])})


def _largest_divisor(n: int, cap: int) -> int:
    """The largest divisor of n that is at most cap (cap >= 1)."""
    best = 1
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            best = max([best] + [e for e in (d, n // d) if e <= cap])
    return best


def _window_records(grid: GridSpec, T: float, ctrl: StepControl):
    """The step control of a `norms` run and the field its records blame: the
    windows of the top band need uniform record spacing of at most
    shorttime.max_record_spacing, so a dt above it is replaced, a kept user dt
    records at the coarsest stride that spaces records evenly within it, and a
    user stride that does not is rejected."""
    from .shorttime import max_record_spacing

    spacing = max_record_spacing(top_band(grid.max_mode))
    if ctrl.dt == 0 or ctrl.dt > spacing:
        return StepControl(dt=spacing * 0.98, record_stride=1), "time.T"
    n_steps, dt = _in_field("time.dt", uniform_steps, T, ctrl.dt)
    stride = ctrl.record_stride
    if stride == 0:
        stride = _largest_divisor(n_steps, max(1, int(spacing / dt)))
        return StepControl(dt=ctrl.dt, record_stride=stride), "time.dt"
    if n_steps % stride:
        raise ConfigurationError(
            f"time.record_stride = {stride} does not divide the {n_steps} steps, "
            "so the last record interval would be short; norms needs uniform "
            "record spacing (0 chooses one)"
        )
    if stride * dt > spacing:
        raise ConfigurationError(
            f"time.record_stride = {stride} spaces records {stride * dt:.3e} apart; "
            f"norms needs at most {spacing:.3e} (0 chooses a stride)"
        )
    return ctrl, "time.record_stride"


def cmd_norms(cfg: ExperimentConfig, args) -> Outcome:
    from .shorttime import beta_weight, fk_norm, fs_norm, nk_norm, window_centers, window_table

    run = build_run(cfg, records=_window_records)
    gamma = cfg.get_float("norms", "gamma")
    _in_field("norms.gamma", beta_weight, 0, 1, gamma)  # checks gamma before the run
    s = cfg.get_float("norms", "s")
    T = run.T
    t_evolve = time.perf_counter()
    traj = evolve(*run)
    t_tables = time.perf_counter()
    k_max = top_band(run.u0.grid.max_mode)
    grids = {k: window_centers(traj, k, T) for k in range(k_max + 1)}
    rows = []
    shell_rows = []
    for k in range(1, k_max + 1):
        rows.append((k, fk_norm(traj, k, T, gamma), nk_norm(traj, k, T, gamma)))
        # every shell mass of the middle window, from the table fk_norm built
        centers, _ = grids[k]
        c = len(centers) // 2
        for j, m_sq in enumerate(window_table(traj, k, T)[0, c]):
            shell_rows.append((k, float(centers[c]), j, float(np.sqrt(m_sq))))
    fs = fs_norm(traj, s, T, gamma)
    t_done = time.perf_counter()
    return Outcome(
        {"fs_norm": fs, "s": s, "gamma": gamma,
         "dt": traj.dt, "record_stride": traj.record_stride,
         "evolve_s": t_tables - t_evolve, "tables_s": t_done - t_tables,
         "zero_extended_k": [k for k, (_, ext) in grids.items() if ext],
         "windows_per_k": {k: len(centers) for k, (centers, _) in grids.items()}},
        tables={"norms": (["k", "fk", "nk"], rows),
                "norm_shells": (["k", "t_k", "j", "shell_mass"], shell_rows)},
    )


def cmd_fifth_derivative(cfg: ExperimentConfig, args) -> Outcome:
    from .illposed import (
        counterexample_support,
        numeric_fifth_derivative,
        symmetrized_support,
        t2_duhamel_fifth,
    )

    grid = build_grid(cfg)
    spec = _counterexample_spec(
        N=("initial_data.N", cfg.get_int("initial_data", "N", positive=True)),
        s=("initial_data.s", cfg.get_float("initial_data", "s")),
        t=("time.T", cfg.get_float("time", "T", positive=True)),
    )
    supp = symmetrized_support(counterexample_support(spec))
    u0 = _in_field("grid.max_mode", SpectralField.from_modes, grid, supp)
    terms = RenormalizedTerms(resonant_cubic=False, cubic2=True, cubic3=False, quintic=False)
    # the normal-form assembly: boundary + B1 + C1 + D pieces
    ana, _ = t2_duhamel_fifth(supp, spec)
    M = grid.max_mode
    ana_arr = SpectralField.from_modes(grid, {n: v for n, v in ana.items() if abs(n) <= M}).coeff
    a5, rep = numeric_fifth_derivative(
        u0, spec.t, [0.008, 0.012, 0.016, 0.02, 0.024],
        EquationParams.constrained_family(40.0), terms,
        ctrl=StepControl(dt=2e-6, record_stride=10**9),
    )
    rel = float(np.max(np.abs(a5.coeff - ana_arr)) / np.max(np.abs(ana_arr)))
    rows = [
        (int(n - M), abs(a5.coeff[n]), abs(ana_arr[n]))
        for n in range(2 * M + 1)
        if abs(ana_arr[n]) > 0
    ]
    return Outcome(
        {"relative_error": rel, "conditioning": rep["vandermonde_condition"]},
        rel < TOLERANCES["fifth_derivative_rel"],
        {"fifth_derivative": (["n", "numeric_abs", "analytic_abs"], rows)},
    )


#: subcommand -> (the artifact name of its manifest, its function)
COMMANDS = {
    "evolve": ("evolve", cmd_evolve),
    "conserve": ("conserve", cmd_conserve),
    "gauge-check": ("gauge", cmd_gauge_check),
    "miura-check": ("miura", cmd_miura_check),
    "resonance-enum": ("resonance_n3", cmd_resonance_enum),
    "resonance-identity": ("resonance_identity", cmd_resonance_identity),
    "illposed-growth": ("growth", cmd_illposed_growth),
    "appendix-b": ("appendix_b", cmd_appendix_b),
    "norms": ("norms", cmd_norms),
    "fifth-derivative": ("fifth_derivative", cmd_fifth_derivative),
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
        return run_command(args.command, cfg, args)
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except MkdvLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
