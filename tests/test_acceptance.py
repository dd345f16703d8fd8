"""Acceptance suite: the nine headline checks, one printed pass/fail line each.

Each test exercises the library end to end at the reference configuration
(775 nm / 3.5 ps pump, 1530 nm + energy-matched idler arms, 18 nm
rectangular filters) and compares fitted observables against the published
reference values at the stated tolerances.
"""

import time

import numpy as np
import pytest

from biphoton import cli, core, detector, fitting, reconstruction as rec
from biphoton import interferometer as ifm
from biphoton.config import build_budget, build_detector, load_config

import reference


@pytest.fixture
def report(capsys):
    def _report(num, desc, ok, detail):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} ({detail})"
        with capsys.disabled():
            print("\n" + line)
        assert ok, line
    return _report


@pytest.fixture(scope="module")
def fringe_fit(reference_sampled):
    """Noiseless reference fringe scan along delta_x2 plus its fit."""
    t0 = time.perf_counter()
    step = 0.15e-6
    n = int(0.13e-3 / step)
    x2 = step * np.arange(-n, n + 1)
    taus = np.sort(-x2 / core.C)
    ig = ifm.scan_1d(reference_sampled, reference_sampled, "L", 0.0,
                     taus[0], taus[1] - taus[0], len(taus))
    x = -core.C * ig.axes[0].values
    order = np.argsort(x)
    fit = fitting.fit_fringe(x[order], ig.values[order])
    return fit, ig, x[order], time.perf_counter() - t0


def test_criterion_1_fringe_envelope_width(fringe_fit, report):
    fit, _, _, elapsed = fringe_fit
    pi_sigma = np.pi * fit.sigma_x
    rel = abs(pi_sigma - 0.137e-3) / 0.137e-3
    ok = rel < 0.05 and elapsed < 10.0
    report(1, "fringe envelope width",
           ok, f"pi*sigma_x = {pi_sigma * 1e3:.4f} mm vs 0.137 mm, "
               f"rel dev {rel:.3%}, {elapsed:.1f} s")


def test_criterion_2_fringe_period(fringe_fit, reference_setup, report):
    fit, _, _, elapsed = fringe_fit
    lam2 = reference_setup[0].idler_center_wavelength
    rel = abs(fit.period - lam2) / lam2
    ok = rel < 0.005 and elapsed < 10.0
    report(2, "fringe period equals arm-2 center wavelength",
           ok, f"{fit.period * 1e9:.3f} nm vs {lam2 * 1e9:.3f} nm, rel dev {rel:.4%}")


def test_criterion_3_phase_sensitive_visibility(fringe_fit, report):
    fit, ig, x, _ = fringe_fit
    noiseless_ok = abs(fit.visibility - 1.0) < 1e-3
    cfg = load_config()
    budget, det = build_budget(cfg), build_detector(cfg)
    vs, errs = [], []
    for seed in range(10):
        noisy = detector.rate_to_counts(ig, budget, det, 10.0, seed)
        order = np.argsort(-core.C * ig.axes[0].values)
        f = fitting.fit_fringe(x, detector.fit_data(noisy)[order])
        vs.append(f.visibility)
        errs.append(f.stderr["visibility"])
    v_bar = np.mean(vs)
    combined = np.sqrt(0.0109**2 + np.std(vs) ** 2 / len(vs))
    noisy_ok = abs(v_bar - 0.9957) < combined
    ok = noiseless_ok and noisy_ok
    report(3, "phase-sensitive visibility",
           ok, f"noiseless V = {fit.visibility:.5f}, noisy mean V = {v_bar:.4f} "
               f"vs 0.9957 +- {combined:.4f} over 10 seeds")


def test_criterion_4_analytic_numeric_oracle(report):
    t0 = time.perf_counter()
    lam = 1570e-9
    flat = core.BiphotonAmplitude.gaussian(
        core.omega_from_wavelength(lam), core.omega_from_wavelength(lam),
        5e15, 5e15, rho=0.0)
    filt = core.SpectralFilter.from_wavelength("rectangular", lam, 18e-9)
    grid = core.grid_for_filters(filt, filt, n=1024)
    sampled = core.sample_on_grid(flat, grid, filt, filt)
    sigma_x = lam**2 / (np.pi * 18e-9)  # first envelope zero at pi*sigma_x
    span = 3.0 * np.pi * sigma_x
    x2 = np.linspace(-span, span, 4001)
    taus = np.sort(-x2 / core.C)
    ig = ifm.scan_1d(sampled, sampled, "L", 0.0, taus[0], taus[1] - taus[0], len(taus))
    x = -core.C * ig.axes[0].values
    numeric = ig.values / 2.0
    analytic = reference.hom_fringe_analytic(1.0, sigma_x, lam, x)
    max_dev = float(np.max(np.abs(numeric - analytic)))
    elapsed = time.perf_counter() - t0
    ok = max_dev < 1e-3 and elapsed < 30.0
    report(4, "closed-form fringe vs quadrature",
           ok, f"max |dP| = {max_dev:.2e} over +-3 envelope widths, {elapsed:.1f} s")


def test_criterion_5_independent_photon_hom(tmp_path, report):
    out = tmp_path / "jittered"
    assert cli.main(["--out", str(out), "--noiseless", "hom-dip"]) == cli.EXIT_OK
    rep = dict(line.split(": ", 1) for line in
               (out / "fit_report.txt").read_text().splitlines()[1:])
    vis = float(rep["visibility_percent"].split(" ")[0])
    fwhm = float(rep["fwhm_mm"].split(" ")[0])
    out0 = tmp_path / "zero"
    assert cli.main(["--out", str(out0), "--noiseless",
                     "--set", "jitter.gvd_fwhm_ps=0", "hom-dip"]) == cli.EXIT_OK
    rep0 = dict(line.split(": ", 1) for line in
                (out0 / "fit_report.txt").read_text().splitlines()[1:])
    vis0 = float(rep0["visibility_percent"].split(" ")[0])
    ok = (abs(vis - 4.48) <= 1.0 and abs(fwhm - 0.95) / 0.95 <= 0.15
          and abs(vis0 - 33.0) <= 0.5)
    report(5, "independent-photon HOM with timing jitter",
           ok, f"V = {vis:.2f}% vs 4.48 +- 1.0 pp, FWHM = {fwhm:.3f} mm vs 0.95 +- 15%, "
               f"zero-jitter V = {vis0:.2f}% vs 33.0 +- 0.5 pp")


def test_criterion_6_two_photon_coherence_envelope(reference_sampled, report):
    t0 = time.perf_counter()
    x1 = 0.1e-3 * np.arange(-12, 13)
    step = 0.15e-6
    half2 = 1.2e-3 + 0.13e-3
    n2 = int(half2 / step)
    x2 = step * np.arange(-n2, n2 + 1)
    tau_s = x1 / core.C
    tau_l = np.sort(-x2 / core.C)
    ig = ifm.scan_2d(reference_sampled, reference_sampled,
                     (tau_s[0], tau_s[1] - tau_s[0], len(tau_s)),
                     (tau_l[0], tau_l[1] - tau_l[0], len(tau_l)))
    env = fitting.visibility_envelope(ig, period_guess=1570.5e-9)
    elapsed = time.perf_counter() - t0
    rel = abs(env.fit.fwhm - 1.17e-3) / 1.17e-3
    ok = rel < 0.20 and elapsed < 120.0
    report(6, "two-photon coherence envelope",
           ok, f"FWHM = {env.fit.fwhm * 1e3:.3f} mm vs 1.17 mm, rel dev {rel:.1%}, "
               f"{elapsed:.1f} s")


def test_criterion_7_counting_arithmetic(report):
    acc = detector.accidentals(95e3, 91e3, 4e6)
    pair = detector.pair_probability_from_car(2.68)
    ok = acc == 2161.25 and round(pair, 3) == 0.373
    report(7, "counting arithmetic",
           ok, f"accidentals = {acc} Hz, pair probability = {pair:.3f}")


def test_criterion_8_jsi_round_trip(report):
    t0 = time.perf_counter()
    sigma = 7e12
    results = {}
    for rho in (0.0, -0.9):
        model = core.BiphotonAmplitude.gaussian(1.23e15, 1.20e15, sigma, sigma, rho=rho)
        grid = core.grid_for_gaussian(model, n=64)
        step = 0.9 * rec.nyquist_step(grid)
        slow = np.sqrt(2.0) / (sigma * np.sqrt(1.0 - abs(rho)))
        half = int(np.ceil(5.0 * slow / step))
        lattice = rec.DelayLattice.symmetric(step, half, step, half)
        _, err = rec.roundtrip_error(model, grid, lattice)
        sampled = core.sample_on_grid(model, grid)
        ig = ifm.scan_2d(sampled, sampled,
                         (lattice.start1, lattice.step1, lattice.count1),
                         (lattice.start2, lattice.step2, lattice.count2))
        est = rec.reconstruct_jsi(ig, grid)
        results[rho] = (err, core.jsi_correlation(est.values, grid))
    elapsed = time.perf_counter() - t0
    sep_err, sep_corr = results[0.0]
    ent_err, ent_corr = results[-0.9]
    ok = (sep_err < 0.05 and ent_err < 0.05
          and abs(sep_corr - 0.0) < 0.05 and abs(ent_corr - (-0.9)) < 0.05
          and abs(sep_corr) < 0.1 and ent_corr < -0.5  # qualitative signatures
          and elapsed < 300.0)
    report(8, "JSI round trip (separable vs entangled)",
           ok, f"rho=0: err {sep_err:.4f}, corr {sep_corr:+.3f}; "
               f"rho=-0.9: err {ent_err:.4f}, corr {ent_corr:+.3f}; {elapsed:.1f} s")


def test_criterion_9_property_suites(small_gaussian, tmp_path, report):
    model, grid, sampled = small_gaussian
    checks = {}
    # normalization
    norm = np.sum(core.jsi(sampled)) * grid.measure
    checks["norm"] = abs(norm - 1.0) < 1e-10
    # Hermitian symmetry of Gamma
    g1 = reference.gamma(sampled, sampled, 1.3e-13, -0.7e-13)
    g2 = reference.gamma(sampled, sampled, -1.3e-13, 0.7e-13)
    checks["hermitian"] = abs(g2 - np.conj(g1)) < 1e-12
    # rho = 0 factorization
    gab = reference.gamma(sampled, sampled, 1e-13, 2e-13)
    ga = reference.gamma(sampled, sampled, 1e-13, 0.0)
    gb = reference.gamma(sampled, sampled, 0.0, 2e-13)
    checks["factorization"] = abs(gab - ga * gb) < 1e-6 * abs(gab)
    # G range
    taus = np.linspace(-5e-13, 5e-13, 21)
    ig = ifm.scan_2d(sampled, sampled, (taus[0], taus[1] - taus[0], 21),
                     (taus[0], taus[1] - taus[0], 21))
    checks["range"] = ig.values.min() >= 0.0 and ig.values.max() <= 2.0
    # quadrature convergence under doubling
    refined = core.sample_on_grid(model, reference.refine(grid))
    d = reference.gamma(sampled, sampled, 1e-13, -1e-13) - reference.gamma(refined, refined, 1e-13, -1e-13)
    checks["convergence"] = abs(d) < 1e-5
    # Poisson mean/variance
    c = detector._poisson(np.full(10_000, 1e3 * 10.0), seed=42)
    checks["poisson"] = (abs(c.mean() - 1e4) < 3.0 and 0.95 < c.var() / c.mean() < 1.05)
    # byte-level determinism
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["--out", str(a), "--seed", "7", "hom-dip"])
    cli.main(["--out", str(b), "--seed", "7", "hom-dip"])
    checks["determinism"] = (a / "dip.csv").read_bytes() == (b / "dip.csv").read_bytes()
    ok = all(checks.values())
    report(9, "property suites", ok,
           ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
