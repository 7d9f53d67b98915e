"""Configuration-driven command line front end.

Every computing command consumes one JSON config, writes CSV outputs plus
a JSON manifest into the output directory, and is a pure function of
(config, seed): identical inputs reproduce identical CSV bytes on one
platform.  ``report`` merges scan CSVs into ``summary.csv``; ``validate``
only parses.  Floating point output carries 17 significant digits so files
reload losslessly.

Every command goes through ``main``, which maps a failure to its exit code:
0 success, 2 config/validation error, 3 numerical failure, 64 usage error
(unknown command).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
import typing
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from itertools import chain

import numpy as np

from . import __version__, freeconv, locallaw, measure, models, ringlaw
from .freeconv import ConvergenceError
from .measure import DiscreteMeasure, MeasureError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

GENERATOR_ID = "numpy.random.PCG64+SeedSequence"
TAU_FRACTION = 0.05  # the default annulus shrink tau, as a share of r_plus - r_minus


class ConfigError(ValueError):
    """Invalid configuration; message names the offending JSON path."""


def fmt(x) -> str:
    """17-significant-digit decimal rendering for lossless reload."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# config access and validation
# ---------------------------------------------------------------------------


_NUMBER_TYPES = {int: (int,), float: (int, float)}  # the JSON types of each kind; no bool
_REQUIRED = object()  # the default of a key that must be present


def _get(cfg, path, expected=None, default=_REQUIRED, least=None, above=None, length=None):
    """The value at the dotted ``path``, or ``default`` where it is missing.

    ``expected`` is the value's type: ``int`` takes only an integer and
    ``float`` any JSON number, as a float; ``[int]`` and ``[float]`` take a
    list of them (``length`` of them, if given) through ``_numbers``.  As
    there, a number must lie in the float range: json.load also reads NaN,
    Infinity and integers beyond it.  A number read with ``least`` must be at
    least that, and one read with ``above`` greater than that.
    """
    node = cfg
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            if default is _REQUIRED:
                raise ConfigError(f"{path}: missing")
            return default
        node = node[key]
    if isinstance(expected, list):
        return _numbers(node, path, length, *expected)
    types = _NUMBER_TYPES.get(expected, (expected,))
    if expected is not None and type(node) not in types:
        names = "/".join(t.__name__ for t in types)
        raise ConfigError(f"{path}: expected {names}, got {type(node).__name__}")
    if type(node) in (int, float) and not abs(node) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {node}")
    if least is not None and node < least:
        raise ConfigError(f"{path}: need {key} >= {least}, got {node}")
    if above is not None and node <= above:
        raise ConfigError(f"{path}: need {key} > {above}, got {node:g}")
    return expected(node) if expected in _NUMBER_TYPES else node


def load_measure(cfg: dict, path: str) -> DiscreteMeasure:
    spec = _get(cfg, path, dict)
    try:
        if "kind" in spec:
            kind = _get(cfg, f"{path}.kind", str)
            keys = [k for k in spec if k != "kind"]
            params = {k: _get(cfg, f"{path}.{k}", int if k == "n_atoms" else float) for k in keys}
            return measure.reference_measure(kind, **params)
        return DiscreteMeasure(*(
            np.array(_get(cfg, f"{path}.{key}", [float])) for key in ("atoms", "weights")
        ))
    except measure.ParameterError as exc:
        raise ConfigError(f"{path}.{exc.key}: {exc}") from exc
    except (MeasureError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@contextmanager
def _at(path, errors=ValueError):
    """Re-raise an ``errors`` exception of the block as a ConfigError that names path."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _numbers(value, path, length=None, kind=float):
    """A JSON list of numbers (``length`` of them, if given) as ``kind`` values.

    With ``kind=int`` only integers qualify; a bool, NaN, an infinity or an
    integer beyond the float range is no number.  Anything else is a
    ConfigError naming path.
    """
    if (
        isinstance(value, list)
        and length in (None, len(value))
        and all(type(v) in _NUMBER_TYPES[kind] and abs(v) <= sys.float_info.max for v in value)
    ):
        return [kind(v) for v in value]
    noun = "integers" if kind is int else "numbers"
    what = "a pair of numbers" if length == 2 else f"a list of {noun}"
    raise ConfigError(f"{path}: expected {what}, got {value!r}")


def _squarable(x, path, name):
    """x, or a ConfigError naming path where a solve would square x past the float range."""
    with _at(path):
        return freeconv._squarable(x, name)


def _spectral_points(points, path, axis=False):
    """One or more pairs as points z with Im z > 0; ``axis`` adds z = 0 (z = i eta, eta >= 0)."""
    if not points:
        raise ConfigError(f"{path}: need one or more points")
    zs = [complex(*_numbers(p, f"{path}[{i}]", 2)) for i, p in enumerate(points)]
    for i, z in enumerate(zs):
        if not (z.imag > 0 or (axis and z == 0)):
            need = "Im z > 0, or z = i eta with eta >= 0" if axis else "Im z > 0"
            raise ConfigError(f"{path}[{i}]: need {need}; got z = {z}")
        _squarable(z.imag, f"{path}[{i}]", "Im z")
    return zs


def _profile(cfg):
    """The ``measure`` block as a singular value profile, which has no negative atom."""
    mu = load_measure(cfg, "measure")
    if mu.atoms[0] < 0:
        raise ConfigError("measure: radii expects a measure supported on nonnegative reals")
    return mu


def _radii(mu):
    """measure.radii(mu); a ValueError of it is a ConfigError naming ``measure``."""
    with _at("measure"):
        return measure.radii(mu)


def _annulus(cfg, mu):
    """The bulk annulus (lo, hi) = (r_minus + tau, r_plus - tau) of mu's ring, which
    holds |w| of every local law test; tau is ``grid.tau``, or TAU_FRACTION of the width."""
    if len(mu) < 2:
        raise ConfigError("measure: a single atom makes the ring degenerate, r_minus = r_plus")
    r_minus, r_plus = _radii(mu)
    tau = _get(cfg, "grid.tau", float, default=TAU_FRACTION * (r_plus - r_minus), least=0)
    if r_minus + tau > r_plus - tau:
        raise ConfigError(
            f"grid.tau: tau = {tau:g} empties the annulus [r_minus + tau, r_plus - tau]"
            f" = [{r_minus + tau:g}, {r_plus - tau:g}]"
        )
    return r_minus + tau, r_plus - tau


def _etas(cfg, eta_min, eta_max):
    """The dyadic etas from grid.eta_max down to grid.eta_min, whose defaults are the args."""
    lo = _get(cfg, "grid.eta_min", float, default=eta_min)
    hi = _squarable(_get(cfg, "grid.eta_max", float, default=eta_max), "grid.eta_max", "eta_max")
    with _at("grid"):
        return locallaw.dyadic_etas(lo, hi)


def _scan_grid(cfg, sizes):
    """(etas, trials) of a local law scan: the dyadic etas of the ``grid``
    block, down to max(sizes)^-0.9 by default, and its trial count."""
    trials = _get(cfg, "grid.trials", int, default=10, least=1)
    return _etas(cfg, max(sizes) ** -0.9, 1.0), trials


def _ensembles(cfg, build):
    """[build(N, symmetry, seed)] at each size N of the ``ensemble`` block.

    A profile too large to allocate is a ConfigError that names the sizes.
    """
    sizes = _get(cfg, "ensemble.N_values", [int], default=None)
    path = "ensemble.N" if sizes is None else "ensemble.N_values"
    sizes = [_get(cfg, path, int)] if sizes is None else sizes
    if not sizes or min(sizes) < 2:
        raise ConfigError(f"{path}: need one or more sizes N >= 2, got {sizes}")
    sym = _get(cfg, "ensemble.symmetry", str, default="unitary")
    if sym not in models.SYMMETRY_CLASSES:
        raise ConfigError(f"ensemble.symmetry: unknown class {sym!r}")
    seed = _get(cfg, "ensemble.seed", int, least=0)
    with _at(path, MemoryError):
        return [build(N, sym, seed) for N in sizes]


def _each_size(ctx, scan, ensembles, *args):
    """[scan(e, *args, (i,), threads)] for the ensemble e at each list position i,
    so that trial t at size position i draws from the stream (i, t)."""
    return [scan(e, *args, (i,), ctx.threads) for i, e in enumerate(ensembles)]


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else fmt(c) for c in row])


# A record type (a dataclass) is a CSV schema: a column per field, and a
# complex field f is the two columns f_re, f_im.  The header comes from the
# type's annotations, so an output without records still has one.


def _fields(record_type):
    hints = typing.get_type_hints(record_type)
    return [(f.name, hints[f.name]) for f in fields(record_type)]


def _header(record_type):
    return tuple(
        col
        for name, kind in _fields(record_type)
        for col in ((f"{name}_re", f"{name}_im") if kind is complex else (name,))
    )


def _write_records(path, record_type, records):
    cols = _fields(record_type)

    def cells(r):
        values = [(getattr(r, name), kind) for name, kind in cols]
        return [x for v, kind in values for x in ((v.real, v.imag) if kind is complex else (v,))]

    _write_csv(path, _header(record_type), map(cells, records))


def _read_records(path, record_type):
    """The records of a CSV that _write_records wrote; anything else is a ConfigError."""
    header, cols = _header(record_type), _fields(record_type)

    def record(cells):
        if len(cells) != len(header):
            raise ValueError(f"{len(cells)} cells for {len(header)} columns")
        row = dict(zip(header, cells))
        return record_type(**{
            name: complex(float(row[f"{name}_re"]), float(row[f"{name}_im"]))
            if kind is complex
            else kind(row[name])
            for name, kind in cols
        })

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = tuple(next(reader, ()))
        if found != header:
            raise ConfigError(f"report: {path} has unknown schema {found}")
        try:
            return [record(cells) for cells in reader if cells]
        except ValueError as exc:
            raise ConfigError(f"report: {path} line {reader.line_num}: {exc}") from exc


@dataclass
class RunContext:
    out_dir: str
    threads: int
    outputs: list = field(default_factory=list)

    def path(self, name):
        self.outputs.append(name)
        return os.path.join(self.out_dir, name)


def _make_out_dir(path):
    """Make the output directory; a path that cannot be one is a ConfigError."""
    with _at("--out", OSError):
        os.makedirs(path, exist_ok=True)


def _write_json(path, obj):
    """Strict JSON: a float that is not finite (NaN, +-Infinity) is written as null."""
    strict = json.loads(json.dumps(obj), parse_constant=lambda name: None)
    with open(path, "w") as fh:
        json.dump(strict, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# command implementations: _cmd_x(cfg) makes every config check of command x
# and returns the runner run(ctx), which does the numerical work
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiiRecord:
    """The ring radii, largest atom and second moment of a profile: radii.csv's schema."""

    r_minus: float
    r_plus: float
    s_plus: float
    second_moment: float


def _cmd_radii(cfg):
    mu = _profile(cfg)
    rec = RadiiRecord(*_radii(mu), *measure.support_stats(mu))

    def run(ctx):
        print(f"{fmt(rec.r_minus)} {fmt(rec.r_plus)}")
        _write_records(ctx.path("radii.csv"), RadiiRecord, [rec])

    return run


def _cmd_freeconv(cfg):
    mu1 = measure.symmetrize(load_measure(cfg, "measure"))
    r = _get(cfg, "params.r", float, default=None, above=0)
    mu2 = None if r is not None else measure.symmetrize(load_measure(cfg, "measure2"))
    if r is not None:
        _squarable(r, "params.r", "r")
    z_grid = _get(cfg, "params.z_grid", list, default=None)
    if z_grid is None:
        zs = [complex(0.0, e) for e in _etas(cfg, 1e-3, 8.0)]
    else:
        zs = _spectral_points(z_grid, "params.z_grid", axis=mu2 is None)
        if mu2 is None and 0 in zs:
            _radii(mu1)
            with _at("params.r"):  # the boundary value z = 0 needs r inside the ring
                freeconv.bulk_ring(mu1, r)

    def run(ctx):
        states = [
            freeconv.solve_delta_conv(mu1, r, z)
            if mu2 is None
            else freeconv.solve_phi_system(mu1, mu2, z)
            for z in zs
        ]
        _write_records(ctx.path("freeconv.csv"), freeconv.SubordinationState, states)

    return run


def _cmd_certificate(cfg):
    mu_sym = measure.symmetrize(load_measure(cfg, "measure"))
    r = _get(cfg, "params.r", float)
    _radii(mu_sym)
    with _at("params.r"):
        freeconv.bulk_ring(mu_sym, r)
    eta_max = _get(cfg, "params.eta_max", float, default=10.0, above=0)
    _squarable(eta_max, "params.eta_max", "eta_max")
    grid = _get(cfg, "params.grid", int, default=64, least=2)
    with _at("params"):
        freeconv._bulk_bounds(mu_sym, r, eta_max, grid)

    def run(ctx):
        report = freeconv.bulk_bound_certificate(mu_sym, r, eta_max=eta_max, grid=grid)
        _write_json(ctx.path("certificate.json"), asdict(report))
        ok = report.lower_ok and report.upper_ok and report.zero_bound_ok
        print(
            f"certificate {'PASS' if ok else 'FAIL'}: s_minus={fmt(report.s_minus)} "
            f"b_minus={fmt(report.b_minus)} im_omega2_zero={fmt(report.im_omega2_zero)}"
        )

    return run


def _cmd_ring_density(cfg):
    mu = _profile(cfg)
    s_min = _get(cfg, "params.s_min", float, above=0)
    s_max = _get(cfg, "params.s_max", float, above=s_min)
    n = _get(cfg, "params.n_radii", int, default=17, least=2)
    with warnings.catch_warnings():  # the run's profile warns of a single atom, once
        warnings.simplefilter("ignore")
        _radii(mu)

    def run(ctx):
        records = ringlaw.radial_profile(mu, np.linspace(s_min, s_max, n))
        _write_records(ctx.path("ring_density.csv"), ringlaw.RingRecord, records)

    return run


def _cmd_local_law(cfg):
    mu = _profile(cfg)
    lo, hi = _annulus(cfg, mu)
    ensembles = _ensembles(cfg, partial(models.SingleRingEnsemble.from_measure, mu))
    w_abs = _get(cfg, "grid.w_abs", float, default=0.5 * (lo + hi))
    phases = _get(cfg, "grid.w_phases", [float], default=[0.0])
    if not phases:
        raise ConfigError("grid.w_phases: need one or more phases")
    ws = np.array([w_abs * complex(math.cos(p), math.sin(p)) for p in phases])
    if not all(lo <= abs(w) <= hi for w in ws):
        raise ConfigError(f"grid.w_abs: |w| = {abs(w_abs):g} outside the annulus [{lo:g}, {hi:g}]")
    etas, trials = _scan_grid(cfg, [e.N for e in ensembles])

    def run(ctx):
        scans = _each_size(ctx, locallaw.local_law_scan, ensembles, ws, etas, trials)
        records, splits = zip(*scans)
        _write_records(ctx.path("locallaw.csv"), locallaw.DevRecord, chain(*records))
        _write_records(ctx.path("locallaw_split.csv"), locallaw.SplitRecord, chain(*splits))

    return run


def _cmd_main_gap(cfg):
    mu = _profile(cfg)
    lo, hi = _annulus(cfg, mu)
    ensembles = _ensembles(cfg, partial(models.SingleRingEnsemble.from_measure, mu))
    w0 = complex(*_get(cfg, "params.w0", [float], length=2))
    if not lo <= abs(w0) <= hi:
        raise ConfigError(f"params.w0: |w0| = {abs(w0):g} outside the annulus [{lo:g}, {hi:g}]")
    alphas = _get(cfg, "params.alphas", [float])
    if not alphas:
        raise ConfigError("params.alphas: need one or more alphas")
    if not all(0.0 <= a < 0.5 for a in alphas):
        raise ConfigError(f"params.alphas: each alpha must lie in [0, 1/2), got {alphas}")
    radii_cfg = _get(cfg, "params.support_radii", [float], default=[0.5] * len(alphas))
    if len(radii_cfg) != len(alphas):
        raise ConfigError(f"params.support_radii: {len(radii_cfg)} radii for {len(alphas)} alphas")
    if not all(radius > 0 for radius in radii_cfg):
        raise ConfigError("params.support_radii: support radius must be positive")
    N = min(e.N for e in ensembles)  # where the test function supports are widest
    tests = [(w0, alpha, radius) for alpha, radius in zip(alphas, radii_cfg)]
    for _, alpha, radius in tests:
        scale = float(N) ** (-alpha) * radius  # the support radius linear_statistic_rhs tests
        if abs(w0) <= scale:
            raise ConfigError(
                f"params.support_radii: test function support touches w = 0: "
                f"N^-alpha R = {scale:g} >= |w0| = {abs(w0):g} at alpha = {alpha:g}, N = {N}"
            )
    trials = _get(cfg, "grid.trials", int, default=10, least=1)

    def run(ctx):
        scans = _each_size(ctx, locallaw.linear_statistic_gap, ensembles, tests, trials)
        _write_records(ctx.path("gap.csv"), locallaw.GapRecord, chain(*scans))

    return run


def _cmd_ssv_tail(cfg):
    mu = _profile(cfg)
    ensembles = _ensembles(cfg, partial(models.SingleRingEnsemble.from_measure, mu))
    if len(ensembles) > 1:
        # ssv_fit.json holds the fit of one size
        sizes = [e.N for e in ensembles]
        raise ConfigError(f"ensemble.N_values: this command runs one size, got {sizes}")
    [e] = ensembles
    w_abs = _squarable(_get(cfg, "grid.w_abs", float, default=1.0, above=0), "grid.w_abs", "w_abs")
    trials = _get(cfg, "grid.trials", int, default=500, least=1)
    t_grid = _get(cfg, "params.t_grid", [float], default=None)
    if t_grid == []:
        raise ConfigError("params.t_grid: need one or more t")
    t_grid = None if t_grid is None else np.array(t_grid)
    with _at("measure"):
        locallaw._check_tail_profile(e)

    def run(ctx):
        [(records, fit)] = _each_size(
            ctx, locallaw.smallest_sv_tail, ensembles, complex(w_abs), t_grid, trials
        )
        _write_records(ctx.path("ssv.csv"), locallaw.SsvRecord, records)
        _write_json(ctx.path("ssv_fit.json"), fit)

    return run


def _block_ensembles(cfg):
    """The block additive model at each of the ensemble's sizes."""
    mu_s = load_measure(cfg, "measure")
    mu_x = load_measure(cfg, "measure2")
    return _ensembles(cfg, lambda N, sym, seed: models.BlockAdditiveEnsemble(
        models.sigma_from_measure(mu_s, N), models.sigma_from_measure(mu_x, N), N, sym, seed
    ))


def _cmd_block_law(cfg):
    ensembles = _block_ensembles(cfg)
    interval = _get(cfg, "params.E_interval", [float], default=[0.0, 0.0], length=2)
    if interval[1] < interval[0]:
        raise ConfigError(f"params.E_interval: empty energy interval {interval}")
    n_energies = _get(cfg, "params.n_energies", int, default=1, least=1)
    with _at("params.E_interval"):
        energies = locallaw.block_energies(ensembles[0], interval, n_energies)
    etas, trials = _scan_grid(cfg, [e.N for e in ensembles])

    def run(ctx):
        scans = _each_size(ctx, locallaw.block_local_law_scan, ensembles, energies, etas, trials)
        _write_records(ctx.path("block.csv"), locallaw.BlockRecord, chain(*scans))

    return run


def _cmd_green_sub(cfg):
    ensembles = _block_ensembles(cfg)
    zs = _spectral_points(_get(cfg, "params.z_values", list), "params.z_values")
    window = _get(cfg, "params.bulk_window", [float], default=None, length=2)
    if window is not None and window[0] > window[1]:
        raise ConfigError(f"params.bulk_window: empty singular value window {window}")
    trials = _get(cfg, "grid.trials", int, default=10, least=1)

    def run(ctx):
        scans = _each_size(ctx, locallaw.green_subordination_scan, ensembles, zs, window, trials)
        _write_records(ctx.path("subordination.csv"), locallaw.SubDiagRecord, chain(*scans))

    return run


_SCAN_SCHEMAS = {"locallaw.csv": locallaw.DevRecord, "block.csv": locallaw.BlockRecord}


def run_report(run_dirs, out_dir):
    """Merge scan CSVs from run directories and fit the domination slope.

    Each size N gets a per-N row, NaN where every dev is flagged; the fit's
    rows follow when ``locallaw.fit_domination`` finds enough sizes to fit.
    """
    if not run_dirs:
        raise ConfigError("report: no run directories given")
    records_by_name = {}
    for d in run_dirs:
        if not os.path.isdir(d):
            raise ConfigError(f"report: {d} is not a directory")
        found = False
        for name, record_type in _SCAN_SCHEMAS.items():
            p = os.path.join(d, name)
            if not os.path.exists(p):
                continue
            records_by_name.setdefault(name, []).extend(_read_records(p, record_type))
            found = True
        if not found:
            raise ConfigError(f"report: no scan CSV found in {d}")
    if len(records_by_name) > 1:
        raise ConfigError(f"report: mixed scans {sorted(records_by_name)} cannot be merged")
    _, records = records_by_name.popitem()

    rows = [[n, *per_n] for n, per_n in locallaw.domination_stats(records).items()]
    fit = locallaw.fit_domination(records)
    if fit is not None:
        print(
            f"slope {fmt(fit.slope)} intercept {fmt(fit.intercept)} "
            f"{'PASS' if fit.passed else 'FAIL'} (threshold {locallaw.DOMINATION_SLOPE_MAX:g})"
        )
        rows += [
            ["slope", "intercept", "verdict", ""],
            [fit.slope, fit.intercept, "pass" if fit.passed else "fail", ""],
        ]
    _make_out_dir(out_dir)
    # the fit's rows share the per-N header, so no one record type holds them
    _write_csv(os.path.join(out_dir, "summary.csv"), ["N", "count", "max_dev", "q95_dev"], rows)


_COMMAND_IMPL = {
    "radii": _cmd_radii,
    "freeconv": _cmd_freeconv,
    "certificate": _cmd_certificate,
    "ring-density": _cmd_ring_density,
    "local-law": _cmd_local_law,
    "main-gap": _cmd_main_gap,
    "ssv-tail": _cmd_ssv_tail,
    "block-law": _cmd_block_law,
    "green-sub": _cmd_green_sub,
}
COMMANDS = (*_COMMAND_IMPL, "report", "validate")


def _parse(config_path, command=None, seed=None):
    """Read the config and parse it exactly as ``command`` does.

    Nothing is sampled, and only ``block-law`` solves: its bulk check of
    ``params.E_interval`` makes one subordination solve per energy, whose
    ConvergenceError is a numerical failure of the parse.  ``seed``
    replaces ``ensemble.seed`` first.  Returns the config and the command's
    runner; without a command, only check that every measure block loads.
    """
    # ValueError: bad JSON, or an integer too long to read
    with _at("config", (OSError, ValueError)), open(config_path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError(f"config: expected a JSON object, got {type(cfg).__name__}")
    if seed is not None:
        cfg.setdefault("ensemble", {})
        _get(cfg, "ensemble", dict)["seed"] = int(seed)
    if command is not None:
        return cfg, _COMMAND_IMPL[command](cfg)
    for path in ("measure", "measure2"):
        if path in cfg:
            load_measure(cfg, path)
    return cfg, None


def _run(args):
    """Parse, then run one of the computing commands into ``args.out`` with its manifest."""
    cfg, runner = _parse(args.config, args.command, args.seed)
    _make_out_dir(args.out)
    if os.listdir(args.out) and not args.overwrite:
        raise ConfigError(f"output directory {args.out} is not empty; pass --overwrite to reuse it")
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    ctx = RunContext(args.out, args.threads)
    runner(ctx)
    _write_json(os.path.join(args.out, "manifest.json"), {
        "command": args.command,
        "config_hash": config_hash(cfg),
        "seed": _get(cfg, "ensemble.seed", int, default=0),
        "generator_id": GENERATOR_ID,
        "config": cfg,
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "outputs": ctx.outputs,
        "version": __version__,
    })


def _positive_int(text):
    """The type of ``--threads``: an integer >= 1; anything else is a usage error."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"need a positive integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def main(argv=None) -> int:
    """Run one command line; returns its exit code."""
    parser = _Parser(
        prog="singlering",
        description="Subordination solvers, ring densities, and local law experiments",
    )
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "report":
            p.add_argument("run_dirs", nargs="*")
        else:
            p.add_argument("--config", required=True)
        if name == "validate":
            p.add_argument("--for-command", choices=list(_COMMAND_IMPL))
        else:
            p.add_argument("--out", required=True)
        if name in _COMMAND_IMPL:
            p.add_argument("--seed", type=int)
            p.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1)
            p.add_argument("--overwrite", action="store_true")
    args = parser.parse_args(argv)

    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "validate":
            _parse(args.config, args.for_command)
        elif args.command == "report":
            run_report(args.run_dirs, args.out)
        else:
            _run(args)
    except (ValueError, ConvergenceError) as exc:
        # ConfigError and MeasureError are ValueErrors, as are the library's argument checks
        config = isinstance(exc, ValueError)
        print(f"{'invalid config' if config else 'numerical failure'}: {exc}", file=sys.stderr)
        return EXIT_CONFIG if config else EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
