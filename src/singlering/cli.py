"""Configuration-driven command line front end.

Every run consumes one JSON config, writes CSV outputs plus a JSON
manifest into the output directory, and is a pure function of
(config, seed): identical inputs reproduce identical CSV bytes on one
platform.  Floating point output carries 17 significant digits so files
reload losslessly.

Exit codes: 0 success, 2 config/validation error, 3 numerical failure,
64 usage error (unknown command).
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
from dataclasses import dataclass, field

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
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def canonical_config_bytes(cfg: dict) -> bytes:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_config_bytes(cfg)).hexdigest()


# ---------------------------------------------------------------------------
# config access and validation
# ---------------------------------------------------------------------------


def _get(cfg, path, expected=None, required=True, default=None):
    node = cfg
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            if required:
                raise ConfigError(f"{path}: missing")
            return default
        node = node[key]
    if expected is not None and not isinstance(node, expected):
        names = (
            expected.__name__
            if isinstance(expected, type)
            else "/".join(t.__name__ for t in expected)
        )
        raise ConfigError(f"{path}: expected {names}, got {type(node).__name__}")
    return node


def load_measure(cfg: dict, path: str) -> DiscreteMeasure:
    spec = _get(cfg, path, dict)
    try:
        if "kind" in spec:
            kind = spec["kind"]
            params = {k: v for k, v in spec.items() if k not in ("kind", "n_atoms")}
            return measure.reference_measure(kind, int(spec.get("n_atoms", 2)), **params)
        return DiscreteMeasure(
            np.asarray(_get(cfg, f"{path}.atoms"), float),
            np.asarray(_get(cfg, f"{path}.weights"), float),
        )
    except (MeasureError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _pair(value, path):
    """Two numbers as floats; anything else is a ConfigError naming path."""
    ok = isinstance(value, list) and len(value) == 2
    if ok and all(isinstance(v, (int, float)) for v in value):
        return float(value[0]), float(value[1])
    raise ConfigError(f"{path}: expected a pair of numbers, got {value!r}")


def _spectral_points(points, path, axis=False):
    """Pairs as points z with Im z > 0; ``axis`` adds z = 0 (z = i eta, eta >= 0)."""
    zs = [complex(*_pair(p, f"{path}[{i}]")) for i, p in enumerate(points)]
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


def _ring_and_tau(cfg, mu):
    tau_cfg = _get(cfg, "grid.tau", (int, float), required=False, default=None)
    r_minus, r_plus = _radii(mu)
    tau = 0.05 * (r_plus - r_minus) if tau_cfg is None else float(tau_cfg)
    try:
        ring = RingGeometry.from_measure(mu, tau)
    except MeasureError as exc:
        raise ConfigError(f"grid.tau: {exc}") from exc
    if ring.annulus() is None:
        raise ConfigError(
            f"grid.tau: tau = {tau:g} empties the annulus "
            f"[r_minus + tau, r_plus - tau] = [{r_minus + tau:g}, {r_plus - tau:g}]"
        )
    return ring


def _scan_grid(cfg, ring, N_values, default_eta_exponent=0.9):
    trials = int(_get(cfg, "grid.trials", int, required=False, default=10))
    eta_max = float(_get(cfg, "grid.eta_max", (int, float), required=False, default=1.0))
    eta_min = _get(cfg, "grid.eta_min", (int, float), required=False, default=None)
    if eta_min is None:
        eta_min = float(max(N_values)) ** (-default_eta_exponent)
    w_abs = _get(cfg, "grid.w_abs", (int, float), required=False, default=None)
    phases = _get(cfg, "grid.w_phases", list, required=False, default=[0.0])
    if w_abs is None and ring is not None:
        lo, hi = ring.annulus()
        w_abs = 0.5 * (lo + hi)
    ws = (
        np.array([w_abs * complex(math.cos(p), math.sin(p)) for p in phases])
        if w_abs is not None
        else np.array([], dtype=complex)
    )
    try:
        return locallaw.ScanGrid(
            locallaw.dyadic_etas(float(eta_min), eta_max), ws, tuple(N_values), trials, ring
        )
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _ensemble(cfg):
    """Sizes, symmetry class and seed of the ``ensemble`` block."""
    ns = _get(cfg, "ensemble.N_values", list, required=False, default=None)
    if ns is None:
        ns = [_get(cfg, "ensemble.N", int)]
    if not ns:
        raise ConfigError("ensemble.N_values: empty")
    sym = _get(cfg, "ensemble.symmetry", str, required=False, default="unitary")
    if sym not in models.SYMMETRY_CLASSES:
        raise ConfigError(f"ensemble.symmetry: unknown class {sym!r}")
    return [int(n) for n in ns], sym, _get(cfg, "ensemble.seed", int)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else fmt(c) for c in row])


@dataclass
class RunContext:
    command: str
    cfg: dict
    out_dir: str
    seed: int
    threads: int
    outputs: list = field(default_factory=list)

    def path(self, name):
        self.outputs.append(name)
        return os.path.join(self.out_dir, name)


def _finish(ctx: RunContext, started: str):
    manifest = {
        "command": ctx.command,
        "config_hash": config_hash(ctx.cfg),
        "seed": ctx.seed,
        "generator_id": GENERATOR_ID,
        "config": ctx.cfg,
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "outputs": ctx.outputs,
        "version": __version__,
    }
    with open(os.path.join(ctx.out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
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
    mu1 = load_measure(cfg, "measure")
    if not mu1.is_symmetric():
        mu1 = measure.symmetrize(mu1)
    r = _get(cfg, "params.r", (int, float), required=False, default=None)
    mu2 = None
    if r is None:
        mu2 = load_measure(cfg, "measure2")
        if not mu2.is_symmetric():
            mu2 = measure.symmetrize(mu2)
    z_grid = _get(cfg, "params.z_grid", list, required=False, default=None)
    if z_grid is None:
        etas = locallaw.dyadic_etas(
            float(_get(cfg, "grid.eta_min", (int, float), required=False, default=1e-3)),
            float(_get(cfg, "grid.eta_max", (int, float), required=False, default=8.0)),
        )
        zs = [complex(0.0, e) for e in etas]
    else:
        zs = _spectral_points(z_grid, "params.z_grid", axis=mu2 is None)

    def run(ctx):
        rows = []
        for z in zs:
            st = (
                freeconv.solve_delta_conv(mu1, float(r), z)
                if mu2 is None
                else freeconv.solve_phi_system(mu1, mu2, z)
            )
            rows.append(
                [
                    z.real, z.imag,
                    st.omega1.real, st.omega1.imag,
                    st.omega2.real, st.omega2.imag,
                    st.m.real, st.m.imag,
                    st.residual, st.iterations,
                ]
            )
        _write_csv(
            ctx.path("freeconv.csv"),
            [
                "z_re", "z_im",
                "omega1_re", "omega1_im",
                "omega2_re", "omega2_im",
                "m_re", "m_im",
                "residual", "iterations",
            ],
            rows,
        )

    return run


def _cmd_certificate(cfg):
    mu = load_measure(cfg, "measure")
    mu_sym = mu if mu.is_symmetric() else measure.symmetrize(mu)
    r = float(_get(cfg, "params.r", (int, float)))
    try:
        freeconv.bulk_ring(mu_sym, r)
    except ValueError as exc:
        raise ConfigError(f"params.r: {exc}") from exc
    eta_max = float(_get(cfg, "params.eta_max", (int, float), required=False, default=10.0))
    grid = int(_get(cfg, "params.grid", int, required=False, default=64))

    def run(ctx):
        report = freeconv.bulk_bound_certificate(mu_sym, r, eta_max=eta_max, grid=grid)
        with open(ctx.path("certificate.json"), "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        ok = report.lower_ok and report.upper_ok and report.zero_bound_ok
        print(
            f"certificate {'PASS' if ok else 'FAIL'}: s_minus={fmt(report.s_minus)} "
            f"b_minus={fmt(report.b_minus)} im_omega2_zero={fmt(report.im_omega2_zero)}"
        )

    return run


def _cmd_ring_density(cfg):
    mu = load_measure(cfg, "measure")
    s_min = float(_get(cfg, "params.s_min", (int, float)))
    s_max = float(_get(cfg, "params.s_max", (int, float)))
    n = int(_get(cfg, "params.n_radii", int, required=False, default=17))
    if not (0 < s_min <= s_max) or n < 2:
        raise ConfigError("params: need 0 < s_min <= s_max and n_radii >= 2")

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
        _write_csv(
            ctx.path("locallaw.csv"),
            ["N", "trial", "w_re", "w_im", "eta", "dev"],
            [[r.N, r.trial, r.w.real, r.w.imag, r.eta, r.dev] for r in report.records],
        )
        _write_csv(
            ctx.path("locallaw_split.csv"),
            ["N", "trial", "w_re", "w_im", "eta_star", "small_eta_integral", "lambda1"],
            [
                [s.N, s.trial, s.w.real, s.w.imag, s.eta_star, s.small_eta_integral, s.lambda1]
                for s in report.splits
            ],
        )

    return run


def _cmd_main_gap(cfg):
    mu = load_measure(cfg, "measure")
    ring = _ring_and_tau(cfg, mu)
    sizes, sym, seed = _ensemble(cfg)
    w0 = complex(*_pair(_get(cfg, "params.w0"), "params.w0"))
    if not ring.contains(w0):
        raise ConfigError(f"params.w0: |w0| = {abs(w0):g} outside the annulus {ring.annulus()}")
    alphas = [float(a) for a in _get(cfg, "params.alphas", list)]
    if not all(0.0 <= a < 0.5 for a in alphas):
        raise ConfigError(f"params.alphas: each alpha must lie in [0, 1/2), got {alphas}")
    radii_cfg = _get(cfg, "params.support_radii", list, required=False, default=[0.5] * len(alphas))
    if len(radii_cfg) != len(alphas):
        raise ConfigError(f"params.support_radii: {len(radii_cfg)} radii for {len(alphas)} alphas")
    try:
        specs = [locallaw.FSpec(float(radius)) for radius in radii_cfg]
    except ValueError as exc:
        raise ConfigError(f"params.support_radii: {exc}") from exc
    trials = int(_get(cfg, "grid.trials", int, required=False, default=10))
    e = models.SingleRingEnsemble.from_measure(mu, sizes[0], sym, seed)

    def run(ctx):
        _write_csv(
            ctx.path("gap.csv"),
            ["N", "trial", "alpha", "w0_re", "w0_im", "lhs", "rhs", "gap_norm"],
            [
                [r.N, r.trial, r.alpha, r.w0.real, r.w0.imag, r.lhs, r.rhs, r.gap_norm]
                for alpha, spec in zip(alphas, specs)
                for r in locallaw.linear_statistic_gap(
                    e, w0, alpha, trials, f_spec=spec, threads=ctx.threads
                )
            ],
        )

    return run


def _cmd_ssv_tail(cfg):
    mu = load_measure(cfg, "measure")
    sizes, sym, seed = _ensemble(cfg)
    w_abs = float(_get(cfg, "grid.w_abs", (int, float), required=False, default=1.0))
    trials = int(_get(cfg, "grid.trials", int, required=False, default=500))
    t_grid = _get(cfg, "params.t_grid", list, required=False, default=None)
    t_grid = None if t_grid is None else np.asarray(t_grid, float)
    e = models.SingleRingEnsemble.from_measure(mu, sizes[0], sym, seed)

    def run(ctx):
        rep = locallaw.smallest_sv_tail(
            e, complex(w_abs), t_grid=t_grid, trials=trials, threads=ctx.threads
        )
        rows = []
        for trial, lam in enumerate(rep.lambda1):
            for t in rep.t_grid:
                rows.append([rep.N, trial, rep.w_abs, t, lam])
        _write_csv(ctx.path("ssv.csv"), ["N", "trial", "w_abs", "t", "lambda1"], rows)
        with open(ctx.path("ssv_fit.json"), "w") as fh:
            json.dump(
                {
                    "slope": rep.slope,
                    "slope_ci": list(rep.slope_ci),
                    "monotone": rep.monotone(),
                    "t_grid": [float(t) for t in rep.t_grid],
                    "tail_probability": [float(p) for p in rep.tail_probability],
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")

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
    interval = _pair(
        _get(cfg, "params.E_interval", required=False, default=[0.0, 0.0]), "params.E_interval"
    )
    if interval[1] < interval[0]:
        raise ConfigError(f"params.E_interval: empty energy interval {list(interval)}")
    n_energies = int(_get(cfg, "params.n_energies", int, required=False, default=1))
    grid = _scan_grid(cfg, None, sizes)

    def run(ctx):
        report = locallaw.block_local_law_scan(
            e, interval, grid, threads=ctx.threads, n_energies=n_energies
        )
        _write_csv(
            ctx.path("block.csv"),
            ["N", "trial", "E", "eta", "dev"],
            [[r.N, r.trial, r.w.real, r.eta, r.dev] for r in report.records],
        )

    return run


def _cmd_green_sub(cfg):
    _, e = _block_ensemble(cfg)
    zs = _spectral_points(_get(cfg, "params.z_values", list), "params.z_values")
    window = _get(cfg, "params.bulk_window", required=False, default=None)
    window = None if window is None else _pair(window, "params.bulk_window")
    trials = int(_get(cfg, "grid.trials", int, required=False, default=10))

    def run(ctx):
        recs = locallaw.green_subordination_scan(
            e, zs, trials=trials, bulk_window=window, threads=ctx.threads
        )
        _write_csv(
            ctx.path("subordination.csv"),
            [
                "N", "trial", "z_re", "z_im",
                "lambda_d_scaled", "omegaB_gap", "omegaA_gap", "eigvec_sup",
            ],
            [
                [
                    r.N, r.trial, r.z.real, r.z.imag,
                    r.lambda_d_scaled, r.omegaB_gap, r.omegaA_gap, r.eigvec_sup,
                ]
                for r in recs
            ],
        )

    return run


_SCAN_SCHEMAS = {
    ("N", "trial", "w_re", "w_im", "eta", "dev"): "local-law",
    ("N", "trial", "E", "eta", "dev"): "block-law",
}


def run_report(run_dirs, out_dir, slope_max=0.2):
    """Merge scan CSVs from run directories and fit the domination slope.

    With fewer than three matrix sizes only per-N quantiles are emitted.
    """
    rows_by_kind = {}
    for d in run_dirs:
        if not os.path.isdir(d):
            raise ConfigError(f"report: {d} is not a directory")
        found = False
        for name in ("locallaw.csv", "block.csv"):
            p = os.path.join(d, name)
            if not os.path.exists(p):
                continue
            with open(p) as fh:
                reader = csv.reader(fh)
                header = tuple(next(reader))
                kind = _SCAN_SCHEMAS.get(header)
                if kind is None:
                    raise ConfigError(f"report: {p} has unknown schema {header}")
                rows_by_kind.setdefault(kind, []).extend(
                    (int(r[0]), float(r[-2]), float(r[-1])) for r in reader
                )
            found = True
        if not found:
            raise ConfigError(f"report: no scan CSV found in {d}")
    if len(rows_by_kind) > 1:
        raise ConfigError(f"report: mixed scan schemas {sorted(rows_by_kind)} cannot be merged")
    kind, rows = rows_by_kind.popitem()

    report = locallaw.DominationReport(kind=kind)
    for N, eta, dev in rows:
        report.records.append(locallaw.DevRecord(N, 0, 0j, eta, dev, True))
    maxes = report.per_N_max()
    q95 = report.per_N_quantile()
    out_rows = [
        [n, sum(1 for r in rows if r[0] == n), maxes[n], q95[n]] for n in sorted(maxes)
    ]
    fit = None
    if len(maxes) >= 3:
        fit = locallaw.fit_domination(report, eps_pass=slope_max)
        print(
            f"slope {fmt(fit.slope)} intercept {fmt(fit.intercept)} "
            f"{'PASS' if fit.passed else 'FAIL'} (threshold {slope_max:g})"
        )
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "summary.csv")
    _write_csv(path, ["N", "count", "max_dev", "q95_dev"], out_rows)
    if fit is not None:
        with open(path, "a", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["slope", "intercept", "verdict", ""])
            writer.writerow([fmt(fit.slope), fmt(fit.intercept), "pass" if fit.passed else "fail", ""])
    return path


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


def validate_config(config_path: str, command: str | None = None) -> list:
    """The problem ``validate`` reports for the config, as [] or [message]."""
    try:
        _parse(config_path, command)
    except ValueError as exc:
        return [str(exc)]
    return []


# ConfigError and MeasureError are ValueErrors, as are the library's argument checks
_FAILURES = (ValueError, ConvergenceError, FloatingPointError)


def _failure(exc) -> int:
    """Report a failed run or validation on stderr; return its exit code."""
    if isinstance(exc, ValueError):
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"numerical failure: {exc}", file=sys.stderr)
    return EXIT_NUMERICAL


def run(command, config_path, out_dir, seed=None, threads=None, overwrite=False) -> int:
    """Execute one command; returns a process exit code."""
    if command not in _COMMAND_IMPL:
        print(
            f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        cfg, runner = _parse(config_path, command, seed)
        if threads is None:
            threads = os.cpu_count() or 1
        os.makedirs(out_dir, exist_ok=True)
        if os.listdir(out_dir) and not overwrite:
            print(
                f"output directory {out_dir} is not empty; pass --overwrite to reuse it",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        eff_seed = int(_get(cfg, "ensemble.seed", int, required=False, default=0))
        ctx = RunContext(command, cfg, out_dir, eff_seed, threads)
        runner(ctx)
        _finish(ctx, started)
        return EXIT_OK
    except _FAILURES as exc:
        return _failure(exc)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def main(argv=None) -> int:
    parser = _Parser(
        prog="singlering",
        description="Subordination solvers, ring densities, and local law experiments",
    )
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "report":
            p.add_argument("run_dirs", nargs="*")
            p.add_argument("--out", required=True)
            p.add_argument("--slope-max", type=float, default=0.2)
        elif name == "validate":
            p.add_argument("--config", required=True)
            p.add_argument("--for-command", dest="for_command", default=None,
                           choices=list(_COMMAND_IMPL))
        else:
            p.add_argument("--config", required=True)
            p.add_argument("--out", required=True)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--threads", type=int, default=None)
            p.add_argument("--overwrite", action="store_true")
    args = parser.parse_args(argv)

    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.command == "validate":
        try:
            _parse(args.config, args.for_command)
        except _FAILURES as exc:
            return _failure(exc)
        return EXIT_OK
    if args.command == "report":
        if not args.run_dirs:
            print("report: no run directories given", file=sys.stderr)
            return EXIT_CONFIG
        try:
            run_report(args.run_dirs, args.out, args.slope_max)
            return EXIT_OK
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_CONFIG
    return run(
        args.command,
        args.config,
        args.out,
        seed=args.seed,
        threads=args.threads,
        overwrite=args.overwrite,
    )


if __name__ == "__main__":
    sys.exit(main())
