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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__, freeconv, locallaw, measure, models, ringlaw
from .freeconv import ConvergenceError
from .measure import DiscreteMeasure, MeasureError, RingGeometry

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

GENERATOR_ID = "numpy.random.PCG64+SeedSequence"


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


def _get(cfg, path, expected=None, default=_REQUIRED, least=None):
    """The value at the dotted ``path``, or ``default`` where it is missing.

    ``expected`` is the value's type: ``int`` takes only an integer and
    ``float`` any JSON number, as a float, as ``_numbers`` does; a number
    read with ``least`` must be at least that.
    """
    node = cfg
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            if default is _REQUIRED:
                raise ConfigError(f"{path}: missing")
            return default
        node = node[key]
    types = _NUMBER_TYPES.get(expected, (expected,))
    if expected is not None and type(node) not in types:
        names = "/".join(t.__name__ for t in types)
        raise ConfigError(f"{path}: expected {names}, got {type(node).__name__}")
    if least is not None and node < least:
        raise ConfigError(f"{path}: need {key} >= {least}, got {node}")
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
            np.array(_numbers(_get(cfg, f"{path}.{key}"), f"{path}.{key}"))
            for key in ("atoms", "weights")
        ))
    except measure.ParameterError as exc:
        raise ConfigError(f"{path}.{exc.key}: {exc}") from exc
    except (MeasureError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _numbers(value, path, length=None, kind=float):
    """A JSON list of numbers (``length`` of them, if given) as ``kind`` values.

    With ``kind=int`` only integers qualify; a bool is no number.  Anything
    else is a ConfigError naming path.
    """
    if (
        isinstance(value, list)
        and length in (None, len(value))
        and all(type(v) in _NUMBER_TYPES[kind] for v in value)
    ):
        return [kind(v) for v in value]
    noun = "integers" if kind is int else "numbers"
    what = "a pair of numbers" if length == 2 else f"a list of {noun}"
    raise ConfigError(f"{path}: expected {what}, got {value!r}")


def _spectral_points(points, path, axis=False):
    """Pairs as points z with Im z > 0; ``axis`` adds z = 0 (z = i eta, eta >= 0)."""
    zs = [complex(*_numbers(p, f"{path}[{i}]", 2)) for i, p in enumerate(points)]
    for i, z in enumerate(zs):
        if not (z.imag > 0 or (axis and z == 0)):
            need = "Im z > 0, or z = i eta with eta >= 0" if axis else "Im z > 0"
            raise ConfigError(f"{path}[{i}]: need {need}; got z = {z}")
    return zs


def _radii(mu):
    try:
        return measure.radii(mu)
    except ValueError as exc:
        raise ConfigError(f"measure: {exc}") from exc


def _bulk_ring(mu_sym, r):
    """``params.r`` must lie in the open ring of mu_sym."""
    try:
        freeconv.bulk_ring(mu_sym, r)
    except ValueError as exc:
        raise ConfigError(f"params.r: {exc}") from exc


def _ring_and_tau(cfg, mu):
    tau = _get(cfg, "grid.tau", float, default=None)
    if len(mu) < 2:
        raise ConfigError("measure: a single atom makes the ring degenerate, r_minus = r_plus")
    _radii(mu)  # a measure off [0, inf) is an error of the measure, not of tau
    try:
        ring = RingGeometry.from_measure(mu, tau)
    except MeasureError as exc:
        raise ConfigError(f"grid.tau: {exc}") from exc
    if ring.annulus() is None:
        raise ConfigError(
            f"grid.tau: tau = {ring.tau:g} empties the annulus [r_minus + tau, r_plus - tau]"
            f" = [{ring.r_minus + ring.tau:g}, {ring.r_plus - ring.tau:g}]"
        )
    return ring


def _scan_grid(cfg, ring, N_values, default_eta_exponent=0.9):
    trials = _get(cfg, "grid.trials", int, default=10, least=1)
    eta_max = _get(cfg, "grid.eta_max", float, default=1.0)
    eta_min = _get(cfg, "grid.eta_min", float, default=max(N_values) ** -default_eta_exponent)
    w_abs = _get(cfg, "grid.w_abs", float, default=None)
    phases = _numbers(_get(cfg, "grid.w_phases", default=[0.0]), "grid.w_phases")
    if w_abs is None and ring is not None:
        w_abs = 0.5 * sum(ring.annulus())
    phases = [] if w_abs is None else phases
    ws = np.array([w_abs * complex(math.cos(p), math.sin(p)) for p in phases], dtype=complex)
    try:
        return locallaw.ScanGrid(
            locallaw.dyadic_etas(eta_min, eta_max), ws, tuple(N_values), trials, ring
        )
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _ensemble(cfg):
    """Sizes, symmetry class and seed of the ``ensemble`` block."""
    ns = _get(cfg, "ensemble.N_values", default=None)
    path = "ensemble.N" if ns is None else "ensemble.N_values"
    sizes = [_get(cfg, path, int)] if ns is None else _numbers(ns, path, kind=int)
    if not sizes or min(sizes) < 2:
        raise ConfigError(f"{path}: need one or more sizes N >= 2, got {sizes}")
    sym = _get(cfg, "ensemble.symmetry", str, default="unitary")
    if sym not in models.SYMMETRY_CLASSES:
        raise ConfigError(f"ensemble.symmetry: unknown class {sym!r}")
    return sizes, sym, _get(cfg, "ensemble.seed", int, least=0)


def _one_size(sizes):
    """The size of a command that runs at one N; a longer list is a ConfigError."""
    if len(sizes) > 1:
        raise ConfigError(f"ensemble.N_values: this command runs one size, got {sizes}")
    return sizes[0]


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
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from exc


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


def _cmd_radii(cfg):
    mu = load_measure(cfg, "measure")
    r_minus, r_plus = _radii(mu)
    s_plus, m2 = measure.support_stats(mu)

    def run(ctx):
        print(f"{fmt(r_minus)} {fmt(r_plus)}")
        _write_csv(
            ctx.path("radii.csv"),
            ["r_minus", "r_plus", "s_plus", "second_moment"],
            [[r_minus, r_plus, s_plus, m2]],
        )

    return run


def _cmd_freeconv(cfg):
    mu1 = measure.symmetrize(load_measure(cfg, "measure"))
    r = _get(cfg, "params.r", float, default=None)
    mu2 = None
    if r is None:
        mu2 = measure.symmetrize(load_measure(cfg, "measure2"))
    elif r <= 0:
        raise ConfigError(f"params.r: need r > 0, got {r:g}")
    z_grid = _get(cfg, "params.z_grid", list, default=None)
    if z_grid is None:
        try:
            etas = locallaw.dyadic_etas(
                _get(cfg, "grid.eta_min", float, default=1e-3),
                _get(cfg, "grid.eta_max", float, default=8.0),
            )
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc
        zs = [complex(0.0, e) for e in etas]
    else:
        zs = _spectral_points(z_grid, "params.z_grid", axis=mu2 is None)
        if mu2 is None and 0 in zs:
            _bulk_ring(mu1, r)  # the boundary value z = 0 needs r inside the ring

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
    _bulk_ring(mu_sym, r)
    eta_max = _get(cfg, "params.eta_max", float, default=10.0)
    if eta_max <= 0:
        raise ConfigError(f"params.eta_max: need eta_max > 0, got {eta_max:g}")
    grid = _get(cfg, "params.grid", int, default=64, least=2)

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
    mu = load_measure(cfg, "measure")
    s_min = _get(cfg, "params.s_min", float)
    s_max = _get(cfg, "params.s_max", float)
    n = _get(cfg, "params.n_radii", int, default=17)
    if not (0 < s_min <= s_max) or n < 2:
        raise ConfigError("params: need 0 < s_min <= s_max and n_radii >= 2")
    if s_min == s_max:
        raise ConfigError(f"params: s_min = s_max = {s_min:g} spans no radius grid")

    def run(ctx):
        profile = ringlaw.radial_profile(mu, np.linspace(s_min, s_max, n))
        _write_csv(ctx.path("ring_density.csv"), ["s", "L", "dL", "d2L", "rho"], profile.rows())

    return run


def _cmd_local_law(cfg):
    mu = load_measure(cfg, "measure")
    ring = _ring_and_tau(cfg, mu)
    sizes, sym, seed = _ensemble(cfg)
    grid = _scan_grid(cfg, ring, sizes)
    if len(grid.w_values) == 0:
        raise ConfigError("grid.w_abs: missing")
    e = models.SingleRingEnsemble.from_measure(mu, sizes[0], sym, seed)

    def run(ctx):
        report = locallaw.local_law_scan(e, grid, threads=ctx.threads)
        _write_records(ctx.path("locallaw.csv"), locallaw.DevRecord, report.records)
        _write_records(ctx.path("locallaw_split.csv"), locallaw.SplitRecord, report.splits)

    return run


def _cmd_main_gap(cfg):
    mu = load_measure(cfg, "measure")
    ring = _ring_and_tau(cfg, mu)
    sizes, sym, seed = _ensemble(cfg)
    w0 = complex(*_numbers(_get(cfg, "params.w0"), "params.w0", 2))
    if not ring.contains(w0):
        raise ConfigError(f"params.w0: |w0| = {abs(w0):g} outside the annulus {ring.annulus()}")
    alphas = _numbers(_get(cfg, "params.alphas"), "params.alphas")
    if not all(0.0 <= a < 0.5 for a in alphas):
        raise ConfigError(f"params.alphas: each alpha must lie in [0, 1/2), got {alphas}")
    radii_cfg = _numbers(
        _get(cfg, "params.support_radii", default=[0.5] * len(alphas)),
        "params.support_radii",
    )
    if len(radii_cfg) != len(alphas):
        raise ConfigError(f"params.support_radii: {len(radii_cfg)} radii for {len(alphas)} alphas")
    if not all(radius > 0 for radius in radii_cfg):
        raise ConfigError("params.support_radii: support radius must be positive")
    N = _one_size(sizes)
    tests = list(zip(alphas, radii_cfg))
    for alpha, radius in tests:
        scale = float(N) ** (-alpha) * radius  # the support radius linear_statistic_rhs tests
        if abs(w0) <= scale:
            raise ConfigError(
                f"params.support_radii: test function support touches w = 0: "
                f"N^-alpha R = {scale:g} >= |w0| = {abs(w0):g} at alpha = {alpha:g}"
            )
    trials = _get(cfg, "grid.trials", int, default=10, least=1)
    e = models.SingleRingEnsemble.from_measure(mu, N, sym, seed)

    def run(ctx):
        records = locallaw.linear_statistic_gap(e, w0, tests, trials, threads=ctx.threads)
        _write_records(ctx.path("gap.csv"), locallaw.GapRecord, records)

    return run


def _cmd_ssv_tail(cfg):
    mu = load_measure(cfg, "measure")
    sizes, sym, seed = _ensemble(cfg)
    w_abs = _get(cfg, "grid.w_abs", float, default=1.0)
    if w_abs <= 0:
        raise ConfigError(f"grid.w_abs: need w_abs > 0, got {w_abs:g}")
    trials = _get(cfg, "grid.trials", int, default=500, least=1)
    t_grid = _get(cfg, "params.t_grid", default=None)
    t_grid = None if t_grid is None else np.array(_numbers(t_grid, "params.t_grid"))
    if t_grid is not None and len(t_grid) == 0:
        raise ConfigError("params.t_grid: need one or more t")
    e = models.SingleRingEnsemble.from_measure(mu, _one_size(sizes), sym, seed)

    def run(ctx):
        rep = locallaw.smallest_sv_tail(
            e, complex(w_abs), t_grid=t_grid, trials=trials, threads=ctx.threads
        )
        rows = []
        for trial, lam in enumerate(rep.lambda1):
            for t in rep.t_grid:
                rows.append([rep.N, trial, rep.w_abs, t, lam])
        _write_csv(ctx.path("ssv.csv"), ["N", "trial", "w_abs", "t", "lambda1"], rows)
        _write_json(ctx.path("ssv_fit.json"), {
            "slope": rep.slope,
            "slope_ci": list(rep.slope_ci),
            "monotone": rep.monotone(),
            "t_grid": [float(t) for t in rep.t_grid],
            "tail_probability": [float(p) for p in rep.tail_probability],
        })

    return run


def _block_ensemble(cfg):
    """The ensemble's sizes and its block additive model at the first size."""
    mu_s = load_measure(cfg, "measure")
    mu_x = load_measure(cfg, "measure2")
    sizes, sym, seed = _ensemble(cfg)
    N = sizes[0]
    return sizes, models.BlockAdditiveEnsemble(
        models.sigma_from_measure(mu_s, N), models.sigma_from_measure(mu_x, N), N, sym, seed
    )


def _cmd_block_law(cfg):
    sizes, e = _block_ensemble(cfg)
    interval = _numbers(
        _get(cfg, "params.E_interval", default=[0.0, 0.0]), "params.E_interval", 2
    )
    if interval[1] < interval[0]:
        raise ConfigError(f"params.E_interval: empty energy interval {interval}")
    n_energies = _get(cfg, "params.n_energies", int, default=1, least=1)
    try:
        energies = locallaw.block_energies(e, interval, n_energies)
    except ValueError as exc:
        raise ConfigError(f"params.E_interval: {exc}") from exc
    grid = _scan_grid(cfg, None, sizes)

    def run(ctx):
        report = locallaw.block_local_law_scan(e, energies, grid, threads=ctx.threads)
        _write_records(ctx.path("block.csv"), locallaw.BlockRecord, report.records)

    return run


def _cmd_green_sub(cfg):
    sizes, e = _block_ensemble(cfg)
    _one_size(sizes)
    zs = _spectral_points(_get(cfg, "params.z_values", list), "params.z_values")
    window = _get(cfg, "params.bulk_window", default=None)
    window = None if window is None else _numbers(window, "params.bulk_window", 2)
    trials = _get(cfg, "grid.trials", int, default=10, least=1)

    def run(ctx):
        recs = locallaw.green_subordination_scan(
            e, zs, trials=trials, bulk_window=window, threads=ctx.threads
        )
        _write_records(ctx.path("subordination.csv"), locallaw.SubDiagRecord, recs)

    return run


_SCAN_SCHEMAS = {"locallaw.csv": locallaw.DevRecord, "block.csv": locallaw.BlockRecord}


def run_report(run_dirs, out_dir):
    """Merge scan CSVs from run directories and fit the domination slope.

    With fewer than three matrix sizes only per-N quantiles are emitted.
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

    report = locallaw.DominationReport(records)
    maxes = report.per_N_max()
    q95 = report.per_N_quantile()
    rows = [[n, sum(1 for r in records if r.N == n), maxes[n], q95[n]] for n in sorted(maxes)]
    if len(maxes) >= 3:
        fit = locallaw.fit_domination(report)
        print(
            f"slope {fmt(fit.slope)} intercept {fmt(fit.intercept)} "
            f"{'PASS' if fit.passed else 'FAIL'} (threshold {locallaw.DOMINATION_SLOPE_MAX:g})"
        )
        rows += [
            ["slope", "intercept", "verdict", ""],
            [fit.slope, fit.intercept, "pass" if fit.passed else "fail", ""],
        ]
    _make_out_dir(out_dir)
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
    """Read the config and parse it exactly as ``command`` does; nothing is solved or sampled.

    ``seed`` replaces ``ensemble.seed`` first.  Returns the config and the
    command's runner; without a command, only check that every measure
    block loads.
    """
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config: {exc}") from exc
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


# ConfigError and MeasureError are ValueErrors, as are the library's argument checks
_FAILURES = (ValueError, ConvergenceError, FloatingPointError)


def _failure(exc) -> int:
    """Report a failed run or validation on stderr; return its exit code."""
    if isinstance(exc, ValueError):
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"numerical failure: {exc}", file=sys.stderr)
    return EXIT_NUMERICAL


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
            p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
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
    except _FAILURES as exc:
        return _failure(exc)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
