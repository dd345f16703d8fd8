import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from biphoton import cli, core, detector, fitting
from biphoton import interferometer as ifm

import reference

FWHM = 2.0 * np.sqrt(2.0 * np.log(2.0))


def fringe_model(x, a, v, sx, lam, x0, phi):
    return a * (1.0 - v * reference.sinc((x - x0) / sx) * np.cos(2 * np.pi * (x - x0) / lam + phi))


def dip_model(x, a, v, x0, fwhm):
    s = fwhm / FWHM
    return a * (1.0 - v * np.exp(-0.5 * ((x - x0) / s) ** 2))


class TestFringePeriod:
    def test_synthetic_cosine(self):
        x = np.arange(-60e-6, 60e-6, 0.15e-6)
        y = 1.0 - np.cos(2 * np.pi * x / 1570e-9)
        assert fitting.fringe_period(x, y) == pytest.approx(1570e-9, rel=5e-3)

    @pytest.mark.parametrize("level", [-2.1612e-5, 0.0, 3.0])
    def test_flat_data_rejected(self, level):
        # y - mean of a constant is rounding residue, whose hanning-windowed
        # spectrum peaks at bin 1
        x = 0.15e-6 * np.arange(1733)
        with pytest.raises(fitting.NoPeriodError, match="noise floor"):
            fitting.fringe_period(x, np.full(1733, level))

    def test_white_noise_rejected(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0, 1, 256)
        with pytest.raises(fitting.NoPeriodError):
            fitting.fringe_period(x, rng.normal(size=256))

    def test_nonuniform_rejected(self):
        x = np.array([0.0, 1e-6, 3e-6, 4e-6])
        with pytest.raises(ValueError, match="uniform"):
            fitting.fringe_period(x, np.zeros(4))

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_too_few_points_rejected(self, n):
        # fewer than 6 points leave fewer than 4 bins before padding; 0 and
        # 1 points have no spacing to check
        x = 0.15e-6 * np.arange(n)
        with pytest.raises(fitting.NoPeriodError, match="too few points"):
            fitting.fringe_period(x, np.cos(x / 1e-6))


class TestAnalyticSignal:
    @pytest.mark.parametrize("n", [255, 256])
    def test_matches_scipy_hilbert(self, n):
        from scipy.signal import hilbert
        x = np.random.default_rng(n).normal(size=n)
        assert np.max(np.abs(fitting._analytic_signal(x) - hilbert(x))) <= 1e-12

    def test_fringe_fit_loads_no_scipy(self):
        src = str(Path(fitting.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = ("import sys, numpy as np; from biphoton import fitting; "
                "x = np.linspace(-20e-6, 20e-6, 400); "
                "fitting.fit_fringe(x, 1 - 0.9 * np.sinc(x / 8e-6) * np.cos(2 * np.pi * x / 1.5e-6)); "
                "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], "
                "sorted(m for m in sys.modules if 'scipy' in m)")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestFitFringe:
    def test_generator_round_trip_reference(self):
        x = np.arange(-130e-6, 130e-6, 0.15e-6)
        y = fringe_model(x, 1.0, 0.9, 44.9e-6, 1570e-9, 0.0, 0.0)
        fit = fitting.fit_fringe(x, y)
        assert fit.visibility == pytest.approx(0.9, rel=1e-6)
        assert fit.sigma_x == pytest.approx(44.9e-6, rel=1e-6)
        assert fit.period == pytest.approx(1570e-9, rel=1e-6)
        assert fit.amplitude == pytest.approx(1.0, rel=1e-6)
        # center and phase are nearly degenerate; check the combined fringe
        # position: phase at x=0 must vanish
        phase_at_zero = fit.phase - 2 * np.pi * fit.center / fit.period
        assert abs(np.angle(np.exp(1j * phase_at_zero))) < 1e-6
        assert abs(fit.center) < 1e-9
        assert fit.residual_rms < 1e-6

    @pytest.mark.parametrize("v", [0.2, 0.4, 0.6, 0.8, 0.995])
    def test_generator_round_trip_lattice(self, v):
        x = np.arange(-130e-6, 130e-6, 0.15e-6)
        y = fringe_model(x, 2.0, v, 44.9e-6, 1570e-9, 5e-6, 0.3)
        fit = fitting.fit_fringe(x, y)
        assert fit.visibility == pytest.approx(v, rel=1e-6)
        assert fit.sigma_x == pytest.approx(44.9e-6, rel=1e-6)
        assert fit.period == pytest.approx(1570e-9, rel=1e-6)
        assert fit.phase == pytest.approx(0.3, abs=1e-6)

    def test_fit_invariants(self):
        x = np.arange(-130e-6, 130e-6, 0.15e-6)
        y = fringe_model(x, 1.0, 0.7, 44.9e-6, 1570e-9, 0.0, 0.0)
        fit = fitting.fit_fringe(x, y)
        assert 0.0 <= fit.visibility <= 1.0 + 3.0 * fit.stderr["visibility"]
        assert fit.sigma_x > 0 and fit.period > 0
        assert np.isfinite(fit.residual_rms)

    def test_insufficient_points(self):
        x = np.linspace(0, 1e-6, 5)
        with pytest.raises(fitting.InsufficientDataError):
            fitting.fit_fringe(x, np.ones(5))

    def test_too_few_periods(self):
        x = np.linspace(0, 1e-6, 64)
        y = fringe_model(x, 1.0, 0.9, 44.9e-6, 1570e-9, 0.0, 0.0)
        with pytest.raises(fitting.InsufficientDataError, match="period"):
            fitting.fit_fringe(x, y, period_guess=1570e-9 * 0.8)

    def test_noisy_visibility_within_stderr(self):
        x = np.arange(-130e-6, 130e-6, 0.3e-6)
        truth = fringe_model(x, 1.0, 0.995, 44.9e-6, 1570e-9, 0.0, 0.0)
        baseline = 4465.0 * 10.0  # counts per bin at the background level
        pulls = []
        for seed in range(10):
            counts = detector._poisson(baseline * truth, seed=seed)
            fit = fitting.fit_fringe(x, counts)
            pulls.append((fit.visibility - 0.995) / fit.stderr["visibility"])
        pulls = np.asarray(pulls)
        assert np.max(np.abs(pulls)) < 5.0
        assert abs(pulls.mean()) < 1.5

    def test_noise_consistency_of_stderr(self):
        x = np.arange(-130e-6, 130e-6, 0.6e-6)
        truth = fringe_model(x, 1.0, 0.9, 44.9e-6, 1570e-9, 0.0, 0.0)
        baseline = 2e4
        vs, errs = [], []
        for seed in range(50):
            counts = detector._poisson(baseline * truth, seed=1000 + seed)
            fit = fitting.fit_fringe(x, counts)
            vs.append(fit.visibility)
            errs.append(fit.stderr["visibility"])
        ratio = np.std(vs) / np.mean(errs)
        assert 0.5 < ratio < 2.0

    def test_noise_never_improves_residual(self):
        x = np.arange(-130e-6, 130e-6, 0.3e-6)
        truth = fringe_model(x, 1.0, 0.9, 44.9e-6, 1570e-9, 0.0, 0.0)
        clean_rms = fitting.fit_fringe(x, 1e4 * truth).residual_rms
        for seed in (1, 2, 3):
            counts = detector._poisson(1e4 * truth, seed=seed)
            assert fitting.fit_fringe(x, counts).residual_rms >= clean_rms


class TestFitDip:
    def test_exact_recovery(self):
        x = np.linspace(-3e-3, 3e-3, 301)
        y = dip_model(x, 1.0, 0.33, 0.0, 0.95e-3)
        fit = fitting.fit_dip(x, y)
        assert fit.visibility == pytest.approx(0.33, rel=1e-6)
        assert fit.fwhm == pytest.approx(0.95e-3, rel=1e-6)
        assert abs(fit.center) < 1e-10

    @pytest.mark.parametrize("v", [0.05, 0.1, 0.33, 0.6, 1.0])
    def test_parameter_lattice(self, v):
        x = np.linspace(-3e-3, 3e-3, 301)
        y = dip_model(x, 2.5, v, 0.2e-3, 1.2e-3)
        fit = fitting.fit_dip(x, y)
        assert fit.visibility == pytest.approx(v, rel=1e-6)
        assert fit.fwhm == pytest.approx(1.2e-3, rel=1e-6)
        assert fit.center == pytest.approx(0.2e-3, rel=1e-6)

    def test_flat_data_degenerate(self):
        x = np.linspace(-3e-3, 3e-3, 101)
        fit = fitting.fit_dip(x, np.full(101, 2.0))
        assert abs(fit.visibility) < 1e-3
        assert fit.stderr["fwhm"] > 0 or fit.stderr["visibility"] >= 0
        assert np.isinf(fit.stderr["center"]) and np.isinf(fit.stderr["fwhm"])

    def test_insufficient_points(self):
        with pytest.raises(fitting.InsufficientDataError):
            fitting.fit_dip(np.linspace(0, 1, 4), np.ones(4))

    def test_noise_consistency_of_stderr(self):
        x = np.linspace(-3e-3, 3e-3, 61)
        truth = dip_model(x, 2000.0, 0.33, 0.1e-3, 0.95e-3)
        fits = [fitting.fit_dip(x, detector._poisson(truth, seed=2000 + seed))
                for seed in range(50)]
        for name in ("amplitude", "visibility", "center", "fwhm"):
            ratio = (np.std([getattr(f, name) for f in fits])
                     / np.mean([f.stderr[name] for f in fits]))
            assert 0.5 < ratio < 2.0, name


class TestFitEnvelope:
    def test_noise_consistency_of_stderr(self):
        xi = np.linspace(-1.2e-3, 1.2e-3, 13)
        truth = 0.99 * np.exp(-0.5 * ((xi - 0.05e-3) / (1.05e-3 / FWHM)) ** 2)
        fits = [fitting._fit_gaussian_peak(
                    xi, truth + np.random.default_rng(3000 + seed).normal(0.0, 0.01, xi.size))
                for seed in range(50)]
        for name in ("peak_visibility", "center", "fwhm"):
            ratio = (np.std([getattr(f, name) for f in fits])
                     / np.mean([f.stderr[name] for f in fits]))
            assert 0.5 < ratio < 2.0, name


class TestAnalyticJacobians:
    # (model, params, typical scale per parameter for the step, samples);
    # each model returns (f, J)
    CASES = {
        # center = 0 with a sample at x = 0, i.e. at u = 0 of the sinc
        "fringe_u0": (fitting._fringe,
                      (2.0e4, 0.9, 44.9e-6, 1570e-9, 0.0, 0.0),
                      (2.0e4, 1.0, 44.9e-6, 1570e-9, 44.9e-6, 1.0),
                      0.15e-6 * np.arange(-400, 401)),
        "fringe": (fitting._fringe,
                   (1.5, 0.6, 30e-6, 1550e-9, 3.3e-6, 0.3),
                   (1.5, 0.6, 30e-6, 1550e-9, 3.3e-6, 0.3),
                   np.linspace(-100e-6, 100e-6, 613)),
        "dip": (fitting._dip,
                (2.5, 0.33, 0.0, 0.5e-3), (2.5, 0.33, 0.5e-3, 0.5e-3),
                np.linspace(-3e-3, 3e-3, 301)),
        "peak": (fitting._peak,
                 (0.99, 0.1e-3, 0.45e-3), (0.99, 0.1e-3, 0.45e-3),
                 np.linspace(-1e-3, 1e-3, 11)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_central_difference(self, case):
        model, p, scale, x = self.CASES[case]
        p = np.asarray(p, float)
        analytic = model(p, x)[1]
        assert analytic.shape == (len(x), len(p))
        for j in range(len(p)):
            h = np.zeros_like(p)
            h[j] = 1e-6 * scale[j]
            numeric = (model(p + h, x)[0] - model(p - h, x)[0]) / (2.0 * h[j])
            col_scale = np.max(np.abs(numeric))
            np.testing.assert_allclose(analytic[:, j], numeric, rtol=0.0,
                                       atol=1e-7 * col_scale, err_msg=f"column {j}")


class TestCovariance:
    """The stderr of `_solve` on linear models y ~ J p, whose covariance is
    (J^T J)^-1 exactly."""

    @staticmethod
    def variance(jac):
        """stderr^2 dof / cost of the fit of J p to random data: the diagonal
        of (J^T J)^-1 as the solver's own eigendecomposition gives it."""
        y = np.random.default_rng(2).normal(size=len(jac))
        p, stderr, _ = fitting._solve(lambda p, x: (jac @ p, jac),
                                      np.zeros(jac.shape[1]), None, y)
        r = jac @ p - y
        return stderr ** 2 * (len(y) - len(p)) / (r @ r)

    def test_badly_scaled_columns(self):
        # amplitude ~1e4 next to lengths ~1e-6: J^T J has cond ~1e24
        base = np.random.default_rng(0).normal(size=(200, 3))
        scale = np.array([1e4, 1e6, 1e-6])
        expected = np.diag(np.linalg.inv(base.T @ base)) / scale ** 2
        np.testing.assert_allclose(self.variance(base * scale), expected, rtol=1e-10)

    def test_unconstrained_parameter_is_infinite(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 100))
        var = self.variance(np.column_stack([a, b, 2e-6 * b, np.zeros(100)]))
        assert np.isfinite(var[0])
        assert np.all(np.isinf(var[1:]))
        # every column zero: nothing is constrained, and no direction is kept
        assert np.all(np.isinf(self.variance(np.zeros((10, 3)))))

    def test_zero_column_steps_without_warnings(self):
        # the zero column's eigenvalue is exactly 0, and the first step has lam = 0
        jac = np.column_stack([np.random.default_rng(3).normal(size=(50, 2)), np.zeros(50)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            var = self.variance(jac)
        assert np.all(np.isfinite(var[:2])) and np.isinf(var[2])

    @pytest.mark.parametrize("n", [2, 3])
    def test_no_residual_degree_of_freedom_is_infinite(self, n):
        # 3 parameters fitted to n <= 3 points: the fit is exact, and its zero
        # cost bounds no parameter's spread
        jac = np.random.default_rng(4).normal(size=(n, 3))
        y = np.random.default_rng(5).normal(size=n)
        _, stderr, _ = fitting._solve(lambda p, x: (jac @ p, jac), np.zeros(3), None, y)
        assert np.all(np.isinf(stderr))

    def test_residual_within_rounding_is_zero(self):
        # data fitted to their rounding (4 eps max |y|) leave no misfit to report
        x = np.linspace(-3e-3, 3e-3, 301)
        y = fitting._dip(np.array([1.0, 0.33, 0.0, 0.4e-3]), x)[0]
        noise = 1e-12 * np.random.default_rng(7).normal(size=len(x))
        for data, exact in ((y, True), (y + noise, False)):
            rms = fitting._solve(fitting._dip, np.array([0.9, 0.3, 1e-5, 0.5e-3]), x, data)[2]
            assert (rms == 0.0) == exact


SMALL_SCAN2D = ["--set", "grid.n=64", "--set", "scan.x1_halfspan_mm=0.6",
                "--set", "scan.x1_step_mm=0.2", "--set", "scan.fringe_halfspan_mm=0.05"]


class TestSolver:
    @staticmethod
    def cli_problems(tmp_path, monkeypatch, argv, model):
        """The (model, p0, x, y) of every `model` fit in a CLI run."""
        calls = []
        solve = fitting._solve
        with monkeypatch.context() as patch:
            patch.setattr(fitting, "_solve", lambda *a: (calls.append(a), solve(*a))[1])
            assert cli.main(["--out", str(tmp_path), "--seed", "3", *argv]) == cli.EXIT_OK
        return [call for call in calls if call[0] is model]

    # fringe, dip and envelope-peak fits of the CLI, with and without counts.
    # The scan2d slices are left out: on their nearly degenerate
    # center/phase pairs the reference stops short of the minimum.
    @pytest.mark.parametrize("argv,model", [
        (["--set", "grid.n=64", "fringe"], fitting._fringe),
        (["--noiseless", "--set", "grid.n=64", "fringe"], fitting._fringe),
        (["hom-dip"], fitting._dip),
        (["--noiseless", "hom-dip"], fitting._dip),
        ([*SMALL_SCAN2D, "scan2d"], fitting._peak),
        (["--noiseless", *SMALL_SCAN2D, "scan2d"], fitting._peak),
    ], ids=["fringe", "fringe-noiseless", "dip", "dip-noiseless", "peak", "peak-noiseless"])
    def test_matches_minpack_reference(self, tmp_path, monkeypatch, argv, model):
        from scipy.optimize import least_squares
        problems = self.cli_problems(tmp_path, monkeypatch, argv, model)
        assert problems
        for _, p0, x, y in problems:
            params, stderr, rms = fitting._solve(model, p0, x, y)
            ref = least_squares(lambda p: model(p, x)[0] - y, p0, jac=lambda p: model(p, x)[1],
                                method="lm", x_scale=1.0, xtol=1e-8, ftol=1e-14,
                                gtol=1e-14, max_nfev=200 * (len(p0) + 1))
            assert ref.success
            ref_stderr = np.sqrt(reference.covariance_diag(ref.jac) * 2.0 * ref.cost
                                 / (len(y) - len(p0)))
            # noiseless data the model fits exactly leave stderr ~1e-20: no
            # parameter is told apart finer than the abscissa's rounding
            floor = 8 * np.finfo(float).eps * np.max(np.abs(x))
            assert np.all(np.abs(params - ref.x) <= np.maximum(1e-3 * stderr, floor))
            np.testing.assert_allclose(stderr, ref_stderr, rtol=1e-6)
            assert rms == pytest.approx(np.sqrt(2.0 * ref.cost / len(y)), rel=1e-9)

    @pytest.mark.parametrize("argv,model", [
        (["fringe"], fitting._fringe), (["hom-dip"], fitting._dip),
    ], ids=["fringe", "hom-dip"])
    def test_model_is_evaluated_once_per_trial(self, tmp_path, monkeypatch, argv, model):
        # each call returns f and J together: no point, the iterates among
        # them, is evaluated a second time for its Jacobian
        (_, p0, x, y), = self.cli_problems(tmp_path, monkeypatch, argv, model)
        points = []
        params = fitting._solve(lambda p, x: (points.append(p), model(p, x))[1], p0, x, y)[0]
        assert np.array_equal(points[0], p0)
        assert len(np.unique(points, axis=0)) == len(points) > 2
        assert any(np.array_equal(params, p) for p in points)

    def test_non_finite_model_raises(self):
        x = np.linspace(-1e-3, 1e-3, 50)
        with pytest.raises(fitting.FitConvergenceError, match="non-finite") as err:
            fitting._solve(lambda p, x: (np.full_like(x, np.nan), fitting._peak(p, x)[1]),
                           np.array([1.0, 0.0, 1e-3]), x, np.zeros_like(x))
        np.testing.assert_array_equal(err.value.last_params, [1.0, 0.0, 1e-3])

    def test_evaluation_cap_raises(self):
        # each evaluation shrinks the residual by 3% whatever p is: every step
        # is taken, and no stopping rule comes near its tolerance
        calls = []

        def model(p, x):
            calls.append(p[0])
            return np.array([0.97 ** len(calls)]), np.ones((1, 1))

        with pytest.raises(fitting.FitConvergenceError, match="400 evaluations") as err:
            fitting._solve(model, np.array([0.0]), np.zeros(1), np.zeros(1))
        assert len(calls) == 200 * (1 + 1)
        assert err.value.last_params[0] == calls[-1]


def is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


class TestSeedFftLengths:
    def test_fft_length_is_next_5_smooth(self):
        lengths = [fitting._fft_length(n) for n in range(1, 2000)]
        assert all(is_5_smooth(m) for m in lengths)
        assert all(m >= n and not any(is_5_smooth(k) for k in range(n, m))
                   for n, m in enumerate(lengths, start=1))
        assert fitting._fft_length(1733) == 1800 and fitting._fft_length(17733) == 18000

    @pytest.mark.parametrize("argv", [["fringe"], [*SMALL_SCAN2D, "scan2d"]],
                             ids=["fringe", "scan2d"])
    def test_seed_ffts_take_no_prime_length(self, tmp_path, monkeypatch, argv):
        # fit_fringe on the default seeded 1,733-point scan (a prime length)
        # and visibility_envelope on the reduced scan2d lattice: every FFT
        # of the seeds runs at a zero-padded 5-smooth length
        lengths = []

        def recording(func):
            def call(a, n=None, *args, **kwargs):
                lengths.append(len(a) if n is None else n)
                return func(a, n, *args, **kwargs)
            return call

        for name in ("rfft", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name)))
        assert cli.main(["--out", str(tmp_path), "--seed", "3", *argv]) == cli.EXIT_OK
        assert lengths and all(is_5_smooth(n) for n in lengths), sorted(set(lengths))


class TestDelayToPosition:
    def test_sign_conventions(self):
        assert fitting.delay_to_position(1e-12, "delta_tau_S") == pytest.approx(core.C * 1e-12)
        assert fitting.delay_to_position(1e-12, "delta_tau_L") == pytest.approx(-core.C * 1e-12)


@pytest.fixture(scope="module")
def entangled_scan(reference_sampled):
    x1 = 0.2e-3 * np.arange(-5, 6)
    step = 0.15e-6
    half2 = 1.0e-3 + 0.13e-3
    n2 = int(half2 / step)
    x2 = step * np.arange(-n2, n2 + 1)
    tau_s = x1 / core.C
    tau_l = np.sort(-x2 / core.C)
    return ifm.scan_2d(reference_sampled, reference_sampled,
                       (tau_s[0], tau_s[1] - tau_s[0], len(tau_s)),
                       (tau_l[0], tau_l[1] - tau_l[0], len(tau_l)))


class TestVisibilityEnvelope:
    def test_center_and_ridge(self, entangled_scan):
        env = fitting.visibility_envelope(entangled_scan, period_guess=1570.5e-9)
        assert env.failed == ()
        assert abs(env.fit.center) <= 0.2e-3  # within one slice spacing of zero
        slope = fitting.ridge_slope(env)
        assert slope == pytest.approx(-1.0, abs=0.1)

    def test_separable_envelope_flat(self):
        model = core.BiphotonAmplitude.gaussian(1.2312e15, 1.2e15, 2.5e14, 2.5e14, rho=0.0)
        grid = core.grid_for_gaussian(model, n=256)
        sampled = core.sample_on_grid(model, grid)
        lam2 = 2 * np.pi * core.C / 1.2e15
        # single-photon coherence length is 2c/sigma ~ 2.4 um; stay well inside
        x1 = 0.04e-6 * np.arange(-5, 6)
        step = lam2 / 20.0
        n2 = 60
        x2 = step * np.arange(-n2, n2 + 1)
        ig = ifm.scan_2d(sampled, sampled,
                         (x1[0] / core.C, (x1[1] - x1[0]) / core.C, len(x1)),
                         (np.sort(-x2 / core.C)[0], step / core.C, len(x2)))
        env = fitting.visibility_envelope(ig, period_guess=lam2)
        spread = env.visibilities.max() - env.visibilities.min()
        assert spread < 0.01
        assert abs(fitting.ridge_slope(env)) < 0.3

    def test_requires_2d(self, reference_sampled):
        ig = ifm.scan_1d(reference_sampled, reference_sampled, "L", 0.0, 0.0, 1e-14, 16)
        with pytest.raises(ValueError, match="2D"):
            fitting.visibility_envelope(ig)

    def test_fatal_when_most_slices_fail(self):
        ax1 = ifm.Axis("delta_tau_S", 0.0, 1e-13, 4)
        ax2 = ifm.Axis("delta_tau_L", 0.0, 1e-14, 32)
        ig = ifm.Interferogram((ax1, ax2), np.ones((4, 32)))
        with pytest.raises(fitting.FitConvergenceError, match="slice"):
            fitting.visibility_envelope(ig)
