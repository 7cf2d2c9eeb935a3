"""Batch experiment driver.

One subcommand per acceptance-check family:

    evolve               integrate a flow, write Hamiltonian/norm series
    conserve             constrained run, fail (exit 4) if drift exceeds tol
    gauge-check          physical-vs-renormalized gauge equivalence
    miura-check          Miura chain identity, and miura(v(t)) against a KdV run
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
import os
import resource
import sys
import time
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .equations import EquationParams, RenormalizedTerms, derive_gauge_params, flow
from .errors import ConfigurationError, DivergenceError, MkdvLabError
from .integrate import BLOWUP_SUP, StepControl, evolve, step_plan, uniform_steps
from .invariants import drift_report
from .spectral import GridSpec, SpectralField, row_chunks, sobolev_norm, top_band
from .transforms import chain_identity_gap, gauge_forward, miura

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_TOLERANCE = 4

FLOAT_FMT = "{:.16e}"

#: Cap on the complex entries a run may hold: 2**26 entries is 1 GiB, an
#: eighth of an 8 GiB machine.  It bounds the record buffers a subcommand
#: holds at once (one; two for gauge-check and miura-check; four for norms,
#: whose short-time tables hold the demodulated band of every record and its
#: build temporaries; the rest of a pass goes a chunk of records at a time),
#: records x (max_mode+1) half-spectrum entries each, and, through
#: 3*(2*max_mode+1) <= MAX_ENTRIES // 64 collocation points, evolve's working
#: arrays of about 28 entries per point.
MAX_ENTRIES = 1 << 26

#: Bound on |d1| M^3 dt and |d2| M dt, the gauge terms of a step's linear phase
#: mu dt: the ETD-RK4 weights divide by (mu dt)^3, past float64 above 5.6e102.
MAX_GAUGE_PHASE = 1e100

#: A step plan above this many steps is announced on stderr before the run.
STEP_NOTICE = 10**6

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
    except ConfigurationError as e:
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
    an override, is a ConfigurationError naming it, and so is a file that
    does not parse.  No value is interpolated: '%' is an ordinary character."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(DEFAULTS)
    known = {section: set(cp[section]) for section in cp.sections()}

    def require_known(section: str, keys) -> None:
        if section not in known:
            raise ConfigurationError(f"unknown config section {section!r}")
        for key in keys:
            if cp.optionxform(key) not in known[section]:
                raise ConfigurationError(f"{section}.{key}: unknown config field")

    if path:
        try:
            read = cp.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as e:
            raise ConfigurationError(f"config file {path}: {e}") from None
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


def _rng(cfg: ExperimentConfig) -> np.random.Generator:
    """The generator of initial_data.seed, which must be non-negative."""
    seed = cfg.get_int("initial_data", "seed")
    if seed < 0:
        raise ConfigurationError(f"initial_data.seed: must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _evolvable(name: str, grid: GridSpec, half: np.ndarray) -> SpectralField:
    """The real field of the half spectrum c[0..M], or a ConfigurationError
    naming the field `name` where a coefficient passes evolve's blow-up
    threshold (a divergence at the first step)."""
    peak = float(np.max(np.abs(half)))
    if not peak <= BLOWUP_SUP:
        raise ConfigurationError(
            f"{name}: |c(n)| = {peak:.4g} passes evolve's blow-up threshold {BLOWUP_SUP:g}")
    return SpectralField.from_half(grid, half)


def build_initial_data(cfg: ExperimentConfig, grid: GridSpec) -> SpectralField:
    preset = cfg.get("initial_data", "preset")
    if preset == "cosine":
        amps = cfg.get_list("initial_data", "amplitudes", float)
        if len(amps) > grid.max_mode:
            raise ConfigurationError(
                f"initial_data.amplitudes: {len(amps)} amplitudes set modes 1..{len(amps)}, "
                f"beyond grid.max_mode = {grid.max_mode}"
            )
        half = np.zeros(grid.max_mode + 1)
        half[1:len(amps) + 1] = np.divide(amps, 2.0)
        return _evolvable("initial_data.amplitudes", grid, half)
    if preset == "random_smooth":
        rng = _rng(cfg)
        decay = cfg.get_float("initial_data", "decay")
        amp = cfg.get_float("initial_data", "amplitude")
        normals = rng.standard_normal((grid.max_mode, 2))
        modes = _in_field("initial_data.decay", _decaying_modes, normals, decay)[:, 0]
        return _evolvable("initial_data.amplitude", grid, np.concatenate(([0.0], modes)) * amp)
    raise ConfigurationError(f"initial_data.preset: unknown preset {preset!r}")


def _decaying_modes(normals: np.ndarray, decay: float) -> np.ndarray:
    """(..., M, k) complex modes n = 1..M from (..., M, 2k) normals, each
    (re, im) pair over (1+n)**decay in Python floats (numpy's array power
    can miss an ulp); ConfigurationError where one passes float64."""
    M = normals.shape[-2]
    try:
        scale = np.array([float(1 + n) ** decay for n in range(1, M + 1)])
        with np.errstate(over="raise", divide="raise"):
            return (normals / scale[:, None]).view(complex)
    except (OverflowError, FloatingPointError):
        raise ConfigurationError(
            f"decay = {decay:g}: (1+n)**decay passes float64 at some n <= {M}") from None


def build_params(cfg: ExperimentConfig, u0: SpectralField) -> EquationParams:
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
    elif p.constrained and abs(p.c1 - 40.0) < 1e-12:
        gp = derive_gauge_params(u0, 40.0)
        p.d1, p.d2 = gp.d1, gp.d2
    return p


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
    or build_params'), the flow (tag, or equation.tag) and the one step plan
    that step_plan resolves before anything runs, on which every run of the
    subcommand steps.  records(grid, T, ctrl), if given, returns the step
    control to resolve instead and the field that its records blame.  A
    ConfigurationError names equation.tag for a flow evolve does not know;
    the blamed field (by default time.T, or time.dt when evolve chooses it)
    for a plan step_plan rejects, or (by default the stride, or the grid when
    evolve chooses the stride) for `buffers` record buffers of the run that
    would pass MAX_ENTRIES together; and the gauge constant whose term of a
    step's phase passes MAX_GAUGE_PHASE.  A plan of more than STEP_NOTICE
    steps is announced on stderr."""
    grid = build_grid(cfg)
    u0 = build_initial_data(cfg, grid)
    p = build_params(cfg, u0) if params is None else params
    T = cfg.get_float("time", "T", positive=True)
    tag = tag or cfg.get("equation", "tag")
    dt, stride = cfg.get_float("time", "dt"), cfg.get_int("time", "record_stride")
    _in_field("time.dt", StepControl, dt=dt)
    ctrl = _in_field("time.record_stride", StepControl, dt=dt, record_stride=stride)
    blame = ""
    if records is not None:
        ctrl, blame = records(grid, T, ctrl)
    rule = "time.dt" if 0 < ctrl.dt == dt else "the automatic rule"
    _in_field("equation.tag", flow, tag)
    plan = blame or ("time.T" if ctrl.dt else "time.dt")
    steps, dt, stride, kept = _in_field(plan, step_plan, u0, T, p, tag, ctrl)
    M = grid.max_mode
    if buffers * kept * (M + 1) > MAX_ENTRIES:
        name = blame or ("time.record_stride" if ctrl.record_stride else "grid.max_mode")
        copies = f"{buffers} x " if buffers > 1 else ""
        raise ConfigurationError(
            f"{name}: the run would keep {copies}{kept:.4g} records of {M + 1} modes, "
            f"above the cap of {MAX_ENTRIES} complex entries; raise time.record_stride "
            "or time.dt, or lower time.T or grid.max_mode"
        )
    # for every tag: gauge-check's v run steps on p too
    for key, term, phase in (("d1", "M^3", abs(p.d1) * M**3 * dt), ("d2", "M", abs(p.d2) * M * dt)):
        if not phase <= MAX_GAUGE_PHASE:
            raise ConfigurationError(f"equation.{key}: |{key}| {term} dt = {phase:.4g} in a "
                                     f"step's linear phase passes {MAX_GAUGE_PHASE:g}")
    if steps > STEP_NOTICE:
        print(f"note: the run plans {steps:,} steps of dt = {dt:.4g} (dt from {rule})",
              file=sys.stderr)
    return Run(u0, T, p, tag, StepControl(dt, stride))


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
    """Run one subcommand after checking output.prefix, making output.dir and
    checking that each output path is no directory and can be written;
    write each of its tables to <output.dir>/<output.prefix>_<table>.csv
    and its manifest to <output.prefix>_<artifact>_manifest.json under the
    names COMMANDS gives it, and map its verdict to the exit code."""
    artifact, cmd, tables = COMMANDS[command]
    t0 = time.perf_counter()
    prefix, outdir = cfg.get("output", "prefix"), Path(cfg.get("output", "dir"))
    if os.sep in prefix or (os.altsep and os.altsep in prefix):
        raise ConfigurationError(f"output.prefix: {prefix!r} holds a path separator")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigurationError(f"output.dir: cannot create {outdir}: {e.strerror}") from None
    csvs = {name: outdir / f"{prefix}_{name}.csv" for name in tables}
    manifest = outdir / f"{prefix}_{artifact}_manifest.json"
    for path in (*csvs.values(), manifest):
        if path.is_dir() or not os.access(path if path.exists() else outdir, os.W_OK):
            raise ConfigurationError(f"output.dir: {path} is a directory or cannot be written")
    out = cmd(cfg, args)
    for name, path in csvs.items():
        write_csv(path, *out.tables[name])
    summary = out.summary if out.passed is None else {**out.summary, "passed": out.passed}
    write_manifest(manifest, cfg, summary, time.perf_counter() - t0)
    return EXIT_TOLERANCE if out.passed is False else EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_evolve(cfg: ExperimentConfig, args) -> Outcome:
    run = build_run(cfg)
    s = cfg.get_float("norms", "s")
    M = run.u0.grid.max_mode
    with np.errstate(over="ignore"):  # the Hs column's largest weight, as sobolev_norm forms it
        if np.isinf(2.0 * np.float64(1 + M * M) ** s):
            raise ConfigurationError(
                f"norms.s: s = {s:g}: the Hs column's weight 2 (1 + M^2)^s passes float64 at M = {M}")
    traj = evolve(*run)
    rep = drift_report(traj, run.p.c1)
    hs = np.empty(len(traj))
    for rows in row_chunks(len(hs), 2 * (M + 1)):  # |c|, |c|^2 and the weighted |c|^2
        hs[rows] = sobolev_norm(traj.grid, traj.half[rows], s)
    rows = zip(rep.times, rep.h0, rep.h1, rep.h2, hs)
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
    # two record buffers at once: u and the gauged u, then the gauged u and v
    # (u is freed when gauge_forward returns), both runs on the physical run's plan
    run = build_run(cfg, "physical_5mkdv", buffers=2)
    nt_u = gauge_forward(evolve(*run))
    traj_v = evolve(*run._replace(tag="renormalized_5mkdv"))
    grid = run.u0.grid
    diff = np.empty(len(nt_u))
    for rows in row_chunks(len(diff), 3 * (grid.max_mode + 1)):  # difference, |.|, weighted |.|^2
        diff[rows] = sobolev_norm(grid, nt_u.half[rows] - traj_v.half[rows], 2.0)
    worst = float(np.max(diff, initial=0.0))
    return Outcome(
        {"max_h2_discrepancy": worst, "d1": run.p.d1, "d2": run.p.d2},
        worst < TOLERANCES["gauge_h2"],
        {"gauge": (["time", "h2_discrepancy"], zip(nt_u.times.tolist(), diff.tolist()))},
    )


def cmd_miura_check(cfg: ExperimentConfig, args) -> Outcome:
    """The chain identity on 100 random (v, v_t) pairs, then the flow gap
    |miura(v_i) - u_i| / |u_i| in l2 over -M..M of each record of v under
    mkdv3 and u from miura(v0) under kdv3, on one plan (0 where u_i = 0)."""
    run = build_run(cfg, "mkdv3", EquationParams(), buffers=2)  # v and u; miura(v) by chunks
    grid = run.u0.grid
    rng = _rng(cfg)
    M = grid.max_mode
    worst_static = 0.0
    # the pairs in chunks of draws, normals, modes and the two half spectra
    # (one chunk up to M = 217), the generator filling them in loop order
    for pairs in row_chunks(100, 6 * (M + 1)):
        # per mode n = 1..M: Re c, Im c, Re cdot, Im cdot; then c(0), cdot(0)
        draws = rng.standard_normal((pairs.stop - pairs.start, 4 * M + 2))
        modes = np.moveaxis(_decaying_modes(draws[:, :4 * M].reshape(-1, M, 4), 2.0), -1, 0)
        c, cdot = np.concatenate([draws[:, 4 * M:].T[..., None], modes], axis=-1)
        worst_static = max(worst_static, chain_identity_gap(grid, c, cdot))

    traj_v = evolve(*run)
    u0 = SpectralField.from_half(grid, miura(grid, run.u0.half("miura-check v0")))
    traj_u = evolve(u0, run.T, run.p, "kdv3", run.ctrl)
    gap = np.empty(len(traj_v))
    for rows in row_chunks(len(gap), 4 * grid.phys_points):  # miura's syntheses and rfft
        u = traj_u.half[rows]
        d = sobolev_norm(grid, miura(grid, traj_v.half[rows]) - u, 0.0)
        gap[rows] = d / np.maximum(sobolev_norm(grid, u, 0.0), np.finfo(float).tiny)
    worst = float(np.max(gap))
    return Outcome(
        {"static_identity_rel": worst_static, "max_flow_gap": worst},
        worst_static < TOLERANCES["miura_static_rel"] and worst < TOLERANCES["miura_dynamic"],
        {"miura": (["time", "flow_gap"], zip(traj_v.times.tolist(), gap.tolist()))},
    )


def cmd_resonance_enum(cfg: ExperimentConfig, args) -> Outcome:
    from .resonance import enumerate_n3, enumerate_n5

    n, radius = args.n, args.radius
    n5_radius = min(radius, 12)
    trips = _in_field("--radius", enumerate_n3, n, radius)
    quints = enumerate_n5(n, n5_radius)
    # only H: G = H + 3 d1 (n1+n2)(n1+n3)(n2+n3) is H at d1 = 0, and no d1 is taken
    return Outcome(
        {"n": n, "radius": radius, "n5_radius": n5_radius,
         "triples": len(trips), "quintuples": len(quints)},
        tables={
            "resonance_n3": (["n", "n1", "n2", "n3", "H"], ((n, *t) for t in trips.tolist())),
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

    rng = _rng(cfg)  # checks the seed before the cube
    summary = {"identity_checks": 0}
    r = np.arange(-100, 101, dtype=np.int64)
    n2, n3 = np.meshgrid(r, r, indexing="ij")
    for a in r:  # one n1 slice of the cube at a time
        bad = np.argwhere(resonance_h_array(a, n2, n3)[1])
        if len(bad):
            summary["counterexample"] = (int(a), *r[bad[0]].tolist())
            return Outcome(summary, False)
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
        max(r.b1, r.b2, r.d1_norms) < TOLERANCES["appendix_separation"] * r.t * r.N**2
        for r in reps
    )
    header = ["N", "s", "t", "d0", "d_full", "b1", "b2", "d1"]
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
    from .shorttime import (band_weight, beta_weight, fk_norm, fs_norm, nk_norm, window_centers,
                            window_table)

    run = build_run(cfg, buffers=4, records=_window_records)  # its tables peak at 3.72
    gamma = cfg.get_float("norms", "gamma")
    _in_field("norms.gamma", beta_weight, 0, 1, gamma)  # checks gamma before the run
    s = cfg.get_float("norms", "s")
    k_max = top_band(run.u0.grid.max_mode)
    _in_field("norms.s", band_weight, k_max, s)  # and the top band's F^s weight
    T = run.T
    t_evolve = time.perf_counter()
    traj = evolve(*run)
    t_tables = time.perf_counter()
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
    # the normal-form assembly: boundary + distributed pieces of B1 (the two
    # undifferentiated slots) and of D (the third)
    ana, _ = t2_duhamel_fifth(supp, spec)
    M = grid.max_mode
    ana_arr = SpectralField.from_modes(grid, {n: v for n, v in ana.items() if abs(n) <= M}).coeff
    scale = float(np.max(np.abs(ana_arr)))
    if not scale >= np.finfo(float).tiny:  # the relative error divides by it
        raise ConfigurationError(
            f"time.T: the analytic fifth derivative at T = {spec.t:g} peaks at {scale:.4g}, "
            "below float64's normal range; raise time.T")
    a5, rep = numeric_fifth_derivative(
        u0, spec.t, [0.008, 0.012, 0.016, 0.02, 0.024],
        EquationParams.constrained_family(40.0), terms,
        ctrl=StepControl(dt=2e-6, record_stride=10**9),
    )
    rel = float(np.max(np.abs(a5.coeff - ana_arr)) / scale)
    rows = [
        (int(n - M), abs(a5.coeff[n]), abs(ana_arr[n]))
        for n in range(2 * M + 1)
        if abs(ana_arr[n]) > 0
    ]
    return Outcome(
        {"relative_error": rel, "conditioning": rep["vandermonde_condition"],
         "deltas": rep["deltas"], "powers": rep["powers"]},
        rel < TOLERANCES["fifth_derivative_rel"],
        {"fifth_derivative": (["n", "numeric_abs", "analytic_abs"], rows)},
    )


#: subcommand -> (the artifact name of its manifest, its function, the
#: names of the CSV tables it returns)
COMMANDS = {
    "evolve": ("evolve", cmd_evolve, ("evolve",)),
    "conserve": ("conserve", cmd_conserve, ("conserve",)),
    "gauge-check": ("gauge", cmd_gauge_check, ("gauge",)),
    "miura-check": ("miura", cmd_miura_check, ("miura",)),
    "resonance-enum": ("resonance_n3", cmd_resonance_enum, ("resonance_n3", "resonance_n5")),
    "resonance-identity": ("resonance_identity", cmd_resonance_identity, ()),
    "illposed-growth": ("growth", cmd_illposed_growth, ("growth",)),
    "appendix-b": ("appendix_b", cmd_appendix_b, ("appendix_b",)),
    "norms": ("norms", cmd_norms, ("norms", "norm_shells")),
    "fifth-derivative": ("fifth_derivative", cmd_fifth_derivative, ("fifth_derivative",)),
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
