"""The benchmark's workloads: seeded CLI configs and the checks on their outputs.

Each workload is a list of CLI calls.  A call's check reads the files the
call wrote and returns ``(problems, info)``: any problem fails the call,
``info`` is recorded but never gates.  Checks are caps that hold on every
seed; the domination slope fitted by ``report`` is random at these trial
counts, so it is recorded as information only.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

DEV_CAP = 20.0  # per-N max of the scaled local-law deviations
GAP_CAP = 10.0  # main-gap gap_norm cap, met by >= GAP_SHARE of trials per alpha
GAP_SHARE = 0.9
LAMBDA_D_CAP = 20.0
EIGVEC_CAP = 10.0
RHO_RTOL = 1e-4  # ring-density against the closed form
ORACLE_SELF_RTOL = 1e-8  # closed-form F against the eta = 0 subordination solve


@dataclass
class Call:
    """One CLI call: `label` names its output directory within an iteration."""

    label: str
    command: str
    config: dict | None = None
    threads: int | None = None
    seeded: bool = False
    report_of: str | None = None
    check: object = None
    oracle_radii: tuple = ()  # radii for the closed form's self-test, once per run


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def _quarter_circle_atoms(n):
    """(i - 1/2)/n quantiles of the density (1/pi) sqrt(4 - x^2) on [0, 2]."""
    q = (np.arange(n) + 0.5) / n
    lo, hi = np.zeros(n), np.full(n, 2.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        cdf = (mid * np.sqrt(4.0 - mid * mid) / 2.0 + 2.0 * np.arcsin(mid / 2.0)) / np.pi
        below = cdf < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return [float(x) for x in 0.5 * (lo + hi)]


QUARTER_CIRCLE = {"atoms": _quarter_circle_atoms(500), "weights": [1.0 / 500] * 500}
TWO_POINT = {"atoms": [1.0, 2.0], "weights": [0.5, 0.5]}
POINT_ONE = {"atoms": [1.0], "weights": [1.0]}


# ---------------------------------------------------------------------------
# closed-form ring law (Haagerup-Larsen)
# ---------------------------------------------------------------------------


class RingLaw:
    """Ring law of X = U diag(sigma) V* with sigma ~ sum_k p_k delta_{sigma_k}.

    For y > 0, t(y) = sum p/(1 + y sigma^2) is the mass inside the radius
    s(y) with s(y)^2 = [sum p sigma^2/(1 + y sigma^2)] / t(y), so
    F(s(y)) = t(y) and rho(s) = F'(s)/(2 pi s) = t'(y) / (pi (s^2)'(y)).
    """

    def __init__(self, atoms, weights):
        self.a2 = np.asarray(atoms, float) ** 2
        self.p = np.asarray(weights, float)
        self.r_plus = math.sqrt(float(np.sum(self.p * self.a2)))
        self.r_minus = 1.0 / math.sqrt(float(np.sum(self.p / self.a2)))

    def _parts(self, y):
        d = 1.0 + y * self.a2
        t = float(np.sum(self.p / d))
        a = float(np.sum(self.p * self.a2 / d))
        dt = -float(np.sum(self.p * self.a2 / d**2))
        da = -float(np.sum(self.p * self.a2**2 / d**2))
        return t, a, dt, da

    def _y(self, s):
        if not self.r_minus < s < self.r_plus:
            raise ValueError(f"radius {s} outside the open ring ({self.r_minus}, {self.r_plus})")

        def gap(u):  # s(y)^2 - s^2 with y = e^u; decreasing in u
            t, a, _, _ = self._parts(math.exp(u))
            return a / t - s * s

        lo, hi = -1.0, 1.0
        while gap(lo) <= 0.0:
            lo -= 2.0
        while gap(hi) >= 0.0:
            hi += 2.0
        return math.exp(brentq(gap, lo, hi, xtol=1e-14))

    def mass(self, s):
        """F(s): the ring law's mass inside radius s."""
        return self._parts(self._y(s))[0]

    def density(self, s):
        t, a, dt, da = self._parts(self._y(s))
        ds2 = (da * t - a * dt) / (t * t)
        return dt / (math.pi * ds2)


def oracle_self_test(law: RingLaw, measure_spec: dict, radii) -> list:
    """F(s) against Im omega2(i0) Im m(i0) from the library's eta = 0 solve."""
    from singlering import freeconv, measure

    mu = measure.DiscreteMeasure(
        np.asarray(measure_spec["atoms"], float), np.asarray(measure_spec["weights"], float)
    )
    mu_sym = measure.symmetrize(mu)
    problems = []
    for s in radii:
        st = freeconv.solve_delta_conv(mu_sym, s, 0.0)
        solved = st.omega2.imag * st.m.imag
        closed = law.mass(s)
        if not abs(solved - closed) <= ORACLE_SELF_RTOL * abs(closed):
            problems.append(f"oracle self-test at s={s}: F={closed!r}, solver {solved!r}")
    return problems


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _rows(out, name):
    with open(os.path.join(out, name), newline="") as fh:
        return list(csv.DictReader(fh))


def _n_etas(cfg):
    sizes = cfg["ensemble"]["N_values"]
    eta_max = cfg["grid"]["eta_max"]
    eta_min = cfg["grid"].get("eta_min", float(max(sizes)) ** -0.9)
    return sum(1 for k in range(64) if eta_max * 0.5**k > eta_min)


def _per_n_max(rows, col):
    worst = {}
    for r in rows:
        worst[r["N"]] = max(worst.get(r["N"], 0.0), float(r[col]))
    return worst


def _dev_problems(rows, expected, col="dev"):
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    if not all(math.isfinite(float(r[col])) for r in rows):
        problems.append("flagged (non-finite) rows")
    for n, worst in _per_n_max(rows, col).items():
        if not worst <= DEV_CAP:
            problems.append(f"N={n}: max {col} {worst:.3g} > {DEV_CAP}")
    return problems


def check_ring_density(call, out, stdout):
    spec = call.config["measure"]
    law = RingLaw(spec["atoms"], spec["weights"])
    rows = _rows(out, "ring_density.csv")
    problems = []
    if len(rows) != call.config["params"]["n_radii"]:
        problems.append(f"{len(rows)} radii, expected {call.config['params']['n_radii']}")
    worst = 0.0
    for r in rows:
        exact = law.density(float(r["s"]))
        worst = max(worst, abs(float(r["rho"]) - exact) / abs(exact))
    if not worst <= RHO_RTOL:
        problems.append(f"rho off the closed form by {worst:.3g} relative (> {RHO_RTOL})")
    return problems, {"rho_max_rel_err": worst}


def check_certificate(call, out, stdout):
    with open(os.path.join(out, "certificate.json")) as fh:
        json.load(fh)
    ok = stdout.startswith("certificate PASS")
    return ([] if ok else [f"certificate did not pass: {stdout.strip()!r}"]), {}


def check_local_law(call, out, stdout):
    cfg = call.config
    per_n = cfg["grid"]["trials"] * _n_etas(cfg)  # one w value
    rows = _rows(out, "locallaw.csv")
    problems = _dev_problems(rows, per_n * len(cfg["ensemble"]["N_values"]))
    splits = _rows(out, "locallaw_split.csv")
    if len(splits) != cfg["grid"]["trials"] * len(cfg["ensemble"]["N_values"]):
        problems.append(f"{len(splits)} split rows")
    return problems, {"max_dev": max(_per_n_max(rows, "dev").values(), default=math.nan)}


def check_block_law(call, out, stdout):
    cfg = call.config
    expected = cfg["grid"]["trials"] * _n_etas(cfg) * len(cfg["ensemble"]["N_values"])
    rows = _rows(out, "block.csv")
    problems = _dev_problems(rows, expected)
    return problems, {"max_dev": max(_per_n_max(rows, "dev").values(), default=math.nan)}


def check_report(call, out, stdout):
    with open(os.path.join(out, "summary.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    problems = [] if len(rows) == 6 else [f"summary.csv has {len(rows)} lines, expected 6"]
    info = {}
    if len(rows) == 6:  # header, three sizes, fit header, fit
        info = {"slope": float(rows[5][0]), "verdict": rows[5][2]}
    return problems, info


def check_ssv_tail(call, out, stdout):
    with open(os.path.join(out, "ssv_fit.json")) as fh:
        fit = json.load(fh)
    problems = []
    if not fit["monotone"]:
        problems.append("tail probabilities not monotone")
    if not fit["slope"] > 0:
        problems.append(f"tail slope {fit['slope']} not positive")
    rows = _rows(out, "ssv.csv")
    if len(rows) != call.config["grid"]["trials"] * len(fit["t_grid"]):
        problems.append(f"ssv.csv has {len(rows)} rows")
    return problems, {"slope": fit["slope"], "slope_ci": fit["slope_ci"]}


def check_main_gap(call, out, stdout):
    cfg = call.config
    rows = _rows(out, "gap.csv")
    problems = []
    if len(rows) != cfg["grid"]["trials"] * len(cfg["params"]["alphas"]):
        problems.append(f"gap.csv has {len(rows)} rows")
    worst = {}
    for alpha in {r["alpha"] for r in rows}:
        gaps = [float(r["gap_norm"]) for r in rows if r["alpha"] == alpha]
        within = sum(1 for g in gaps if g <= GAP_CAP)
        if within < GAP_SHARE * len(gaps):
            problems.append(f"alpha={alpha}: {within}/{len(gaps)} gap_norm <= {GAP_CAP}")
        worst[alpha] = max(gaps)
    return problems, {"worst_gap_norm": worst}


def check_green_sub(call, out, stdout):
    cfg = call.config
    rows = _rows(out, "subordination.csv")
    problems = []
    if len(rows) != cfg["grid"]["trials"] * len(cfg["params"]["z_values"]):
        problems.append(f"subordination.csv has {len(rows)} rows")
    lam = max(float(r["lambda_d_scaled"]) for r in rows)
    vec = max(float(r["eigvec_sup"]) for r in rows)
    if not lam <= LAMBDA_D_CAP:
        problems.append(f"lambda_d_scaled {lam:.3g} > {LAMBDA_D_CAP}")
    if not vec <= EIGVEC_CAP:
        problems.append(f"eigvec_sup {vec:.3g} > {EIGVEC_CAP}")
    return problems, {"lambda_d_scaled": lam, "eigvec_sup": vec}


# ---------------------------------------------------------------------------
# workloads
#
# Sizes keep one iteration at 5-9 s on a 2-core box, so that a 30 s run
# holds several iterations, while each workload keeps the layer that
# dominates it: subordination solves (ring-reference), eigenvalues and Haar
# sampling on the thread pool (hermitized-scan), shifted log-determinants
# (statistic-gap; a second alpha would let log_potential outweigh them),
# block_H and eigenvectors (block-additive).
# ---------------------------------------------------------------------------


def _ring_reference(seed):
    rng = random.Random(seed)
    # radius windows shrink inside the ranges the closed form was checked on
    qc = {"s_min": 0.1 + 0.02 * rng.random(), "s_max": 0.95 - 0.02 * rng.random()}
    tp = {"s_min": 1.3 + 0.01 * rng.random(), "s_max": 1.55 - 0.01 * rng.random()}
    return [
        Call("quarter", "ring-density",
             {"measure": QUARTER_CIRCLE, "params": dict(qc, n_radii=7)},
             check=check_ring_density, oracle_radii=(qc["s_min"], 0.5, qc["s_max"])),
        Call("twopoint", "ring-density",
             {"measure": TWO_POINT, "params": dict(tp, n_radii=7)},
             check=check_ring_density, oracle_radii=(tp["s_min"], 1.4, tp["s_max"])),
        Call("certificate", "certificate",
             {"measure": TWO_POINT, "params": {"r": 1.4}},
             check=check_certificate),
    ]


def _hermitized_scan(seed):
    ensemble = {"N_values": [128, 256, 512], "symmetry": "unitary", "seed": seed}
    return [
        Call("local-law", "local-law",
             {"measure": TWO_POINT, "ensemble": ensemble,
              "grid": {"eta_max": 1.0, "w_abs": 1.4, "trials": 4}},
             threads=2, seeded=True, check=check_local_law),
        Call("report", "report", report_of="local-law", check=check_report),
        Call("ssv-tail", "ssv-tail",
             {"measure": TWO_POINT, "ensemble": {"N": 128, "symmetry": "unitary", "seed": seed},
              "grid": {"w_abs": 1.4, "trials": 80}},
             threads=2, seeded=True, check=check_ssv_tail),
    ]


def _statistic_gap(seed):
    return [
        Call("main-gap", "main-gap",
             {"measure": TWO_POINT,
              "ensemble": {"N": 256, "symmetry": "unitary", "seed": seed},
              "grid": {"trials": 2},
              "params": {"w0": [1.4, 0.0], "alphas": [0.25], "support_radii": [0.5]}},
             threads=1, seeded=True, check=check_main_gap),
    ]


def _block_additive(seed):
    return [
        Call("block-law", "block-law",
             {"measure": POINT_ONE, "measure2": POINT_ONE,
              "ensemble": {"N_values": [64, 128, 256], "symmetry": "unitary", "seed": seed},
              "grid": {"eta_max": 1.0, "trials": 1}},
             threads=1, seeded=True, check=check_block_law),
        Call("report", "report", report_of="block-law", check=check_report),
        Call("green-sub", "green-sub",
             {"measure": POINT_ONE, "measure2": POINT_ONE,
              "ensemble": {"N": 512, "symmetry": "unitary", "seed": seed},
              "grid": {"trials": 1},
              "params": {"z_values": [[0.0, 0.1]], "bulk_window": [-0.5, 0.5]}},
             threads=1, seeded=True, check=check_green_sub),
    ]


WORKLOADS = {
    "ring-reference": _ring_reference,
    "hermitized-scan": _hermitized_scan,
    "statistic-gap": _statistic_gap,
    "block-additive": _block_additive,
}


def self_test(calls) -> list:
    """Oracle self-tests requested by a workload's calls."""
    problems = []
    for call in calls:
        if call.oracle_radii:
            spec = call.config["measure"]
            law = RingLaw(spec["atoms"], spec["weights"])
            problems += oracle_self_test(law, spec, call.oracle_radii)
    return problems
