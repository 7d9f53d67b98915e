"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Monte Carlo criteria run pinned, reproducible configurations (seed below);
tolerances and caps are the stated ones.  Run directly with

    python3 tests/test_acceptance.py

or as part of pytest (use -s to see the lines while running).  The Monte
Carlo criteria 7-11, 13 and 15 are marked slow, so ``pytest -m "not slow"``
skips them.
"""

import json
import math
import os
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import boundary_density, flagged, hermitize, log_potential, ring_mass
from singlering import cli, freeconv, linalg, locallaw, measure, models, ringlaw

SEED = 3
THREADS = os.cpu_count() or 1  # the CLI default; the bytes do not depend on it


def verdict(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_golden_ratio_subordination(bernoulli):
    st = freeconv.solve_delta_conv(bernoulli, 1.0, 1j)
    err_w = abs(st.omega2 - 1.6180339887j)
    err_m = abs(st.m - 0.4472135955j)
    for _ in range(5):
        freeconv.solve_delta_conv(bernoulli, 1.0, 1j)
    times = []
    for _ in range(200):
        t0 = time.perf_counter()
        freeconv.solve_delta_conv(bernoulli, 1.0, 1j)
        times.append(time.perf_counter() - t0)
    ms = float(np.median(times)) * 1e3
    ok = err_w <= 1e-10 and err_m <= 1e-10 and ms < 1.0
    verdict(
        1,
        ok,
        f"golden ratio: |omega2 err| = {err_w:.2e}, |m err| = {err_m:.2e}, "
        f"median runtime {ms:.3f} ms (< 1 ms)",
    )


def test_criterion_02_arcsine_boundary_density(bernoulli):
    est = boundary_density(
        bernoulli, bernoulli, 0.0, [0.1 * 0.5**k for k in range(6)]
    )
    err = abs(est.value - 1.0 / (2.0 * math.pi))
    ok = err <= 1e-6 and est.reliable
    verdict(2, ok, f"arcsine density at 0: {est.value:.9f}, err = {err:.2e} (<= 1e-6)")


def test_criterion_03_radii(two_point):
    r_minus, r_plus = measure.radii(two_point)
    e1 = abs(r_minus - math.sqrt(8.0 / 5.0))
    e2 = abs(r_plus - math.sqrt(2.5))
    ok = e1 <= 1e-12 and e2 <= 1e-12
    verdict(3, ok, f"radii errors ({e1:.2e}, {e2:.2e}) (<= 1e-12)")


def test_criterion_04_certificate(two_point):
    rep = freeconv.bulk_bound_certificate(measure.symmetrize(two_point), 1.4)
    targets = {
        "s_minus": (rep.s_minus, math.sqrt(2.5)),
        "sigma_minus": (rep.sigma_minus, math.sqrt(0.4)),
        "sigma_plus": (rep.sigma_plus, math.sqrt(2.5 / 0.54)),
        "a_minus": (rep.a_minus, 0.36),
        "omega_hat_abs": (rep.omega_hat_abs, 1.0),
        "b_minus": (rep.b_minus, 0.36 / 1.96),
    }
    worst = max(abs(got - want) for got, want in targets.values())
    zero_err = abs(rep.im_omega2_zero - math.sqrt(5.0 / 3.0))
    ok = (
        worst <= 1e-10
        and zero_err <= 1e-8
        and rep.im_omega2_zero > 0.8660254
        and rep.upper_ok
        and all(m >= -1e-12 for m in rep.upper_margins)
    )
    verdict(
        4,
        ok,
        f"certificate scalars worst err {worst:.2e} (<= 1e-10), "
        f"Im omega2(0) err {zero_err:.2e} (<= 1e-8), "
        f"> 0.8660254 and r^2/eta bound at all {len(rep.eta_grid)} grid points",
    )


def test_criterion_05_circular_law(quarter_circle_2000):
    t0 = time.time()
    L = log_potential(quarter_circle_2000, 0.5)
    rho = ringlaw.radial_profile(quarter_circle_2000, [0.5])[0].rho
    mass = ring_mass(quarter_circle_2000, tau=0.02)
    elapsed = time.time() - t0
    e_L = abs(L + 0.375)
    rel_rho = abs(rho - 1.0 / math.pi) * math.pi
    ok = (
        e_L <= 1e-3
        and rel_rho <= 0.02
        and 0.94 <= mass <= 1.001
        and elapsed < 120.0
    )
    verdict(
        5,
        ok,
        f"circular law: L(0.5) err {e_L:.2e} (<= 1e-3), rho(0.5) rel err "
        f"{rel_rho:.4f} (<= 2%), ring mass {mass:.4f} in [0.94, 1.001], "
        f"{elapsed:.0f} s (< 120 s)",
    )


def test_criterion_06_exact_identities(two_point):
    N, w, K = 64, 1.4, 100.0
    e = models.SingleRingEnsemble.from_measure(two_point, N, "unitary", seed=SEED)
    X = models.sample_X(e, linalg.child_rng(SEED, 0))
    s = models.svd(X, w)
    lam = np.linalg.eigvalsh(hermitize(X - w * np.eye(N)))

    sym_err = float(np.max(np.abs(lam - np.sort(np.concatenate([-s, s])))))
    lhs = float(np.mean(np.log(s)))
    term1 = float(np.mean(np.log(np.abs(s - 1j * K))))
    integral, _ = quad(
        lambda eta: models.resolvent_trace(s, 1j * eta).imag,
        0.0,
        K,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=500,
        points=[s.min(), 1.0, 10.0],
    )
    ksplit_err = abs(lhs - (term1 - integral))
    logdet_err = abs(np.linalg.slogdet(X - w * np.eye(N))[1] - N * lhs)

    be = models.BlockAdditiveEnsemble(
        e.sigma_diag, np.linspace(0.2, 1.0, N).astype(complex), N, "unitary", seed=SEED
    )
    Y = models.sample_Y(be, linalg.child_rng(SEED, 1))
    z = 0.3 + 0.2j
    obs = models.resolvent_observables(models.svd(Y, compute_uv=True), z, be.xi_diag, 1.0j)
    d = np.diagonal(np.linalg.inv(hermitize(Y) - z * np.eye(2 * N)))
    tau_err = max(abs(obs.m_H - np.mean(d[:N])), abs(obs.m_H - np.mean(d[N:])))
    omega_err = abs(obs.omega_A_c + obs.omega_B_c - z + 1.0 / obs.m_H)

    ok = (
        ksplit_err <= 1e-9
        and logdet_err <= 1e-9
        and sym_err <= 1e-10
        and tau_err <= 1e-10
        and omega_err <= 1e-10
    )
    verdict(
        6,
        ok,
        f"N=64 identities: K-split {ksplit_err:.2e} (<= 1e-9), log-det routes "
        f"{logdet_err:.2e} (<= 1e-9), hermitization = +-sv {sym_err:.2e} (<= 1e-10), "
        f"m_H vs both partial traces {tau_err:.2e}, omega identity {omega_err:.2e} (<= 1e-10)",
    )


@pytest.mark.slow
def test_criterion_07_local_law(two_point):
    t0 = time.time()
    ensembles = [
        models.SingleRingEnsemble.from_measure(two_point, n, "unitary", seed=SEED)
        for n in (128, 256, 512)
    ]
    etas = locallaw.dyadic_etas(512.0**-0.9, 1.0)
    records = [
        r
        for i, e in enumerate(ensembles)
        for r in locallaw.local_law_scan(e, [1.4 + 0j], etas, 20, (i,), threads=THREADS)[0]
    ]
    fit = locallaw.fit_domination(records)
    max_dev = max(mx for _, mx, _ in locallaw.domination_stats(records).values())
    elapsed = time.time() - t0
    ok = fit.slope <= 0.2 and max_dev <= 20.0 and elapsed < 600.0 and not flagged(records)
    verdict(
        7,
        ok,
        f"local law: slope {fit.slope:+.3f} (<= 0.2), per-N max dev "
        f"{max_dev:.2f} (<= 20), {elapsed:.0f} s with {THREADS} threads (< 600 s)",
    )


def scan_spectra(ensembles, sample, w, trials):
    """[[svd of trial t's draw minus w]] at each size position i, trial t drawing
    from child_rng(SEED, i, t): the spectra a scan over the ensembles reads."""
    return [
        locallaw.parallel_map(
            lambda t: models.svd(sample(e, linalg.child_rng(SEED, i, t)), w), range(trials), THREADS
        )
        for i, e in enumerate(ensembles)
    ]


@pytest.mark.slow
def test_criterion_07_fit_fails_a_shifted_reference(two_point):
    # criterion 7's spectra against its reference and against one solved at
    # |w| = 1.4 (1 + 2 N^-1/2): only the fit catches the second
    ensembles = [
        models.SingleRingEnsemble.from_measure(two_point, n, "unitary", seed=SEED)
        for n in (128, 256, 512)
    ]
    etas = locallaw.dyadic_etas(512.0**-0.9, 1.0)
    spectra = scan_spectra(ensembles, models.sample_X, 1.4, 20)

    def records(radius):
        recs = []
        for e, spectrum in zip(ensembles, spectra):
            mu_sym = measure.symmetrize(models.uniform_measure(e.sigma_diag))
            ref = np.array(
                [freeconv.solve_delta_conv(mu_sym, radius(e.N), 1j * eta).m for eta in etas]
            )
            for t, s in enumerate(spectrum):
                devs = e.N * etas * np.abs(models.resolvent_trace(s, 1j * etas) - ref)
                recs += [locallaw.DevRecord(e.N, t, 1.4 + 0j, eta, d) for eta, d in zip(etas, devs)]
        return recs

    right = locallaw.fit_domination(records(lambda n: 1.4))
    shifted_records = records(lambda n: 1.4 * (1.0 + 2.0 / math.sqrt(n)))
    shifted = locallaw.fit_domination(shifted_records)
    max_devs = [mx for _, mx, _ in locallaw.domination_stats(shifted_records).values()]
    print(f"criterion 7 slopes: reference {right.slope:+.3f}, shifted {shifted.slope:+.3f}, "
          f"shifted per-N max dev {', '.join(f'{d:.2f}' for d in max_devs)}")
    assert right.passed
    assert not shifted.passed and max(max_devs) <= 20.0


@pytest.mark.slow
def test_criterion_09_fit_fails_a_misscaled_arcsine():
    # criterion 9's spectra against the arcsine law on [-2, 2] and on [-2c, 2c]
    ensembles = [
        models.BlockAdditiveEnsemble(np.ones(n), np.ones(n), n, "unitary", seed=SEED)
        for n in (128, 256, 512)
    ]
    zs = 1j * locallaw.dyadic_etas(512.0**-0.9, 1.0)
    spectra = scan_spectra(ensembles, models.sample_Y, 0.0, 10)

    def fit(c):
        ref = -1.0 / (np.sqrt(zs - 2.0 * c) * np.sqrt(zs + 2.0 * c))
        recs = [
            locallaw.BlockRecord(e.N, t, 0.0, z.imag, e.N * z.imag * (1.0 + z.imag) * abs(m - r))
            for e, spectrum in zip(ensembles, spectra)
            for t, s in enumerate(spectrum)
            for z, m, r in zip(zs, models.resolvent_trace(s, zs), ref)
        ]
        return locallaw.fit_domination(recs)

    right, misscaled = fit(1.0), fit(1.01)
    print(f"criterion 9 slopes: arcsine {right.slope:+.3f}, scaled by 1.01 {misscaled.slope:+.3f}")
    assert right.passed and not misscaled.passed


@pytest.fixture(scope="module")
def statistic_gaps(two_point):
    """{(alpha, R): records} of criteria 8 and 13, over 20 trials of one
    set of spectra at N = 512: criterion 8 reads the first 10 trials."""
    e = models.SingleRingEnsemble.from_measure(two_point, 512, "unitary", seed=SEED)
    tests = [(0.0, 0.1), (0.25, 0.5), (0.45, 2.0)]
    recs = locallaw.linear_statistic_gap(
        e, [(1.4 + 0j, a, r) for a, r in tests], trials=20, path=(), threads=THREADS
    )
    return {test: recs[20 * i : 20 * (i + 1)] for i, test in enumerate(tests)}


@pytest.mark.slow
def test_criterion_08_statistic_gap(statistic_gaps):
    details = []
    ok = True
    for alpha, radius in ((0.0, 0.1), (0.25, 0.5)):
        recs = statistic_gaps[(alpha, radius)][:10]
        good = sum(r.gap_norm <= 10.0 for r in recs)
        worst = max(r.gap_norm for r in recs)
        ok &= good >= 9
        details.append(f"alpha={alpha}: {good}/10 within cap, worst {worst:.2f}")
    verdict(8, ok, "main-theorem gap, " + "; ".join(details))


@pytest.mark.slow
def test_criterion_09_block_strong_law():
    ensembles = [
        models.BlockAdditiveEnsemble(np.ones(n), np.ones(n), n, "unitary", seed=SEED)
        for n in (128, 256, 512)
    ]
    e = ensembles[-1]
    etas = locallaw.dyadic_etas(512.0**-0.9, 1.0)
    energies = locallaw.block_energies(e, (0.0, 0.0), 1)
    records = [
        r
        for i, ens in enumerate(ensembles)
        for r in locallaw.block_local_law_scan(ens, energies, etas, 10, (i,), threads=THREADS)
    ]

    # the scan's reference transform is the closed-form arcsine law
    mu_b = measure.symmetrize(models.uniform_measure(e.sigma_diag))
    ref_err = 0.0
    for eta in etas[:3]:
        solver = freeconv.solve_phi_system(mu_b, mu_b, 1j * eta).m
        closed = -1.0 / (np.sqrt(complex(1j * eta - 2)) * np.sqrt(complex(1j * eta + 2)))
        ref_err = max(ref_err, abs(solver - closed))

    fit = locallaw.fit_domination(records)
    ok = fit.slope <= 0.2 and ref_err <= 1e-10
    verdict(
        9,
        ok,
        f"block strong law: slope {fit.slope:+.3f} (<= 0.2) against the arcsine "
        f"transform (solver vs closed form {ref_err:.1e})",
    )


@pytest.mark.slow
def test_criterion_10_subordination_diagnostics():
    e = models.BlockAdditiveEnsemble(
        np.ones(512), np.ones(512), 512, "unitary", seed=SEED
    )
    recs = locallaw.green_subordination_scan(
        e, [0.1j], bulk_window=(-0.5, 0.5), trials=10, path=(), threads=THREADS
    )
    lam_max = max(r.lambda_d_scaled for r in recs)
    vec_max = max(r.eigvec_sup for r in recs)
    ok = lam_max <= 20.0 and vec_max <= 10.0
    verdict(
        10,
        ok,
        f"subordination diagnostics: sqrt(N eta) Lambda_d max {lam_max:.2f} (<= 20), "
        f"sqrt(N) eigenvector sup max {vec_max:.2f} (<= 10) over {len(recs)} trials",
    )


@pytest.mark.slow
def test_criterion_11_smallest_sv_tail(two_point):
    e = models.SingleRingEnsemble.from_measure(two_point, 128, "unitary", seed=SEED)
    _, fit = locallaw.smallest_sv_tail(
        e, 1.4 + 0j, t_grid=None, trials=500, path=(), threads=THREADS
    )
    lo, hi = fit["slope_ci"]
    ok = fit["monotone"] and fit["slope"] > 0 and lo > 0
    verdict(
        11,
        ok,
        f"ssv tail: monotone, slope {fit['slope']:.2f}, bootstrap CI "
        f"({lo:.2f}, {hi:.2f}) excludes 0",
    )


def test_criterion_12_reproducibility(tmp_path):
    cfg = {
        "measure": {"kind": "two_point", "a": 1.0, "b": 2.0, "p": 0.5},
        "ensemble": {"N_values": [64], "symmetry": "unitary", "seed": SEED},
        "grid": {"eta_min": 0.05, "eta_max": 1.0, "w_abs": 1.4, "trials": 3},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b, c = (str(tmp_path / d) for d in "abc")
    assert cli.main(["local-law", "--config", str(cfg_path), "--out", a, "--threads", "1"]) == 0
    assert cli.main(
        ["local-law", "--config", str(cfg_path), "--out", b, "--threads", str(THREADS)]
    ) == 0
    with open(os.path.join(a, "manifest.json")) as fh:
        echo = json.load(fh)["config"]
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(echo))
    assert cli.main(["local-law", "--config", str(echo_path), "--out", c]) == 0

    def csv_bytes(d):
        with open(os.path.join(d, "locallaw.csv"), "rb") as fh:
            return fh.read()

    ok = csv_bytes(a) == csv_bytes(b) == csv_bytes(c)
    verdict(
        12,
        ok,
        "byte-identical CSVs across repeat runs, thread counts, and the "
        "manifest-echoed config",
    )


@pytest.mark.slow
def test_criterion_13_statistic_gap_near_optimal_scale(statistic_gaps):
    # s = 2.0 * 512^-0.45 puts the support 1.279 < |w| < 1.521 inside the
    # ring 1.265 < |w| < 1.581; it holds about 2 of the 512 eigenvalues
    recs = statistic_gaps[(0.45, 2.0)]
    good = sum(r.gap_norm <= 1.0 for r in recs)
    worst = max(r.gap_norm for r in recs)
    verdict(
        13,
        good >= 18,
        f"main-theorem gap at alpha=0.45: {good}/20 within 1.0, worst {worst:.3f}",
    )


@pytest.mark.slow
def test_criterion_15_orthogonal_statistic_gap(two_point):
    # the O(N) class in real arithmetic: about sqrt(2N/pi) = 18 of its 512
    # eigenvalues are real, so w0 = 1.4 on the real axis is where it differs
    # from U(N), and w0 = 1.4i is a point off it
    e = models.SingleRingEnsemble.from_measure(two_point, 512, "orthogonal", seed=SEED)
    scales = [(0.0, 0.1), (0.25, 0.5), (0.45, 2.0)]
    caps = (10.0, 10.0, 1.0)
    points = ((1.4 + 0j, "1.4"), (1.4j, "1.4i"))
    t0 = time.perf_counter()
    # the six tests read one set of spectra: ten eigvals calls in all
    tests = [(w0, a, r) for w0, _ in points for a, r in scales]
    recs = locallaw.linear_statistic_gap(e, tests, trials=10, path=(), threads=THREADS)
    details = []
    ok = True
    for j, (_, label) in enumerate(points):
        goods = []
        for i, cap in enumerate(caps):
            k = j * len(scales) + i
            good = sum(r.gap_norm <= cap for r in recs[10 * k : 10 * (k + 1)])
            ok &= good >= 9
            goods.append(f"{good}/10")
        worst = max(r.gap_norm for r in recs[30 * j : 30 * (j + 1)])
        details.append(f"w0={label}: {', '.join(goods)} within caps, worst {worst:.3f}")
    elapsed = time.perf_counter() - t0
    verdict(
        15,
        ok,
        f"orthogonal main-theorem gap at alpha=0, 0.25, 0.45 (caps 10, 10, 1.0): "
        f"{'; '.join(details)}; {elapsed:.1f} s",
    )


if __name__ == "__main__":
    sys.exit(pytest.main(["-s", "-v", __file__]))
