import numpy as np
import pytest
from scipy import stats

from biphoton import core, detector
from biphoton import interferometer as ifm
from biphoton.config import build_jitter, load_config

import reference

FWHM = 2.0 * np.sqrt(2.0 * np.log(2.0))


class TestAccidentals:
    def test_reference_rates(self):
        assert detector.accidentals(95e3, 91e3, 4e6) == 2161.25

    def test_zero_singles(self):
        assert detector.accidentals(0.0, 91e3, 4e6) == 0.0

    def test_bilinear(self):
        base = detector.accidentals(95e3, 91e3, 4e6)
        assert detector.accidentals(2 * 95e3, 2 * 91e3, 4e6) == pytest.approx(4 * base)
        assert detector.accidentals(95e3, 91e3, 8e6) == pytest.approx(base / 2)

    def test_zero_trigger_rejected(self):
        with pytest.raises(ZeroDivisionError):
            detector.accidentals(1.0, 1.0, 0.0)


class TestPairProbability:
    def test_reference_car(self):
        assert round(detector.pair_probability_from_car(2.68), 3) == 0.373

    def test_limits(self):
        assert detector.pair_probability_from_car(1e12) == pytest.approx(0.0, abs=1e-11)
        assert detector.pair_probability_from_car(1.0) == 1.0


def poisson_counts(mean: float, trials: int, seed: int) -> np.ndarray:
    """`trials` independent Poisson draws of the given mean, as rate_to_counts
    makes them."""
    return detector._poisson(np.full(trials, mean), seed)


class TestSynthCounts:
    def test_zero_mean(self):
        assert np.all(poisson_counts(0.0, 100, seed=1) == 0)

    def test_mean_and_variance(self):
        c = poisson_counts(1e3 * 10.0, 10_000, seed=42)
        mu = 1e4
        assert abs(c.mean() - mu) < 3.0 * np.sqrt(mu / len(c))
        assert 0.95 < c.var() / c.mean() < 1.05

    def test_deterministic(self):
        a = poisson_counts(50.0 * 2.0, 1000, seed=7)
        b = poisson_counts(50.0 * 2.0, 1000, seed=7)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_counts(-1.0, 10, seed=0)
        with pytest.raises(ValueError):
            poisson_counts(np.nan, 10, seed=0)

    @pytest.mark.parametrize("mean", [1.0, 10.0, 100.0])
    def test_poisson_chi_squared(self, mean):
        n = 100_000
        counts = poisson_counts(mean, n, seed=2024).astype(int)
        kmax = int(stats.poisson.isf(1e-6, mean))
        observed = np.bincount(counts, minlength=kmax + 1)[: kmax + 1].astype(float)
        expected = stats.poisson.pmf(np.arange(kmax + 1), mean) * n
        expected[-1] += n - expected.sum()  # fold the tail into the last bin
        observed[-1] += n - observed.sum()
        # merge bins with expected < 5 into their neighbor
        obs_m, exp_m = [], []
        o_acc = e_acc = 0.0
        for o, e in zip(observed, expected):
            o_acc += o
            e_acc += e
            if e_acc >= 5.0:
                obs_m.append(o_acc)
                exp_m.append(e_acc)
                o_acc = e_acc = 0.0
        obs_m[-1] += o_acc
        exp_m[-1] += e_acc
        _, p = stats.chisquare(obs_m, exp_m)
        assert p > 1e-3


class TestSubtractAccidentals:
    def test_exact_expectation_gives_zero(self):
        raw = np.full(5, 2161.25 * 10.0)
        assert np.all(detector.subtract_accidentals(raw, 2161.25 * 10.0) == 0.0)

    def test_reference_arithmetic(self):
        assert detector.subtract_accidentals(24000.0, 2161.25 * 10.0) == pytest.approx(2387.5)

    def test_zero_rate_identity(self):
        raw = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(detector.subtract_accidentals(raw, 0.0), raw)

    def test_never_clipped(self):
        assert detector.subtract_accidentals(0.0, 100.0) == -100.0


class TestEstimatedG:
    AX = ifm.Axis("t", 0.0, 1.0, 3)

    def test_g_is_g(self):
        ig = ifm.Interferogram((self.AX,), np.array([0.0, 1.0, 2.0]))
        assert detector.estimated_g(ig) is ig.values

    def test_counts_give_the_net_rate_over_the_baseline(self):
        # metadata read from CSV are strings; G^ is not clipped to [0, 2]
        ig = ifm.Interferogram((self.AX,), np.ones(3), counts=np.array([10.0, 30.0, 70.0]),
                               metadata={"baseline_counts": "20.0", "accidental_counts": "20.0"})
        assert detector.estimated_g(ig).tolist() == [-0.5, 0.5, 2.5]

    @pytest.mark.parametrize("baseline", ["0.0", "-1.0", "nan"])
    def test_baseline_must_be_positive(self, baseline):
        ig = ifm.Interferogram((self.AX,), None, counts=np.ones(3),
                               metadata={"baseline_counts": baseline})
        with pytest.raises(ValueError, match="baseline_counts"):
            detector.estimated_g(ig)


class TestBuildJitter:
    @staticmethod
    def jitter(**overrides):
        return build_jitter(load_config(overrides={("jitter", k): v for k, v in overrides.items()}))

    def test_quadrature_combination(self):
        assert self.jitter() == pytest.approx(np.sqrt(2 * 2.34**2) * 1e-12)
        assert self.jitter(gvd_terms="3", gvd_fwhm_ps="1.5") == pytest.approx(
            np.sqrt(3 * 1.5**2) * 1e-12)
        assert self.jitter(gvd_terms="0") == 0.0

    def test_include_pump(self):
        assert self.jitter(include_pump="true") == pytest.approx(
            np.sqrt(3.5**2 + 2 * 2.34**2) * 1e-12)
        assert self.jitter(include_pump="true", gvd_terms="0") == pytest.approx(3.5e-12)


class TestIndependentHomDip:
    S = 3.17e-12 / FWHM  # zero-jitter width, s

    def _axis(self, step=3.3e-14, half=1e-11):
        n = int(half / step)
        return step * np.arange(-n, n + 1)

    def test_zero_jitter_caps_only(self):
        dt = self._axis()
        out = detector.independent_hom_dip(dt, self.S, 0.0)
        np.testing.assert_array_equal(out, 1.0 / 3.0 * np.exp(-0.5 * (dt / self.S) ** 2))
        assert out.max() == pytest.approx(1.0 / 3.0)

    def test_never_exceeds_cap(self):
        dt = self._axis()
        for fwhm in (0.0, 1e-12, 3e-12, 1e-11):
            assert detector.independent_hom_dip(dt, self.S, fwhm).max() <= 1.0 / 3.0

    def test_never_narrows(self):
        dt = self._axis()
        base = detector.independent_hom_dip(dt, self.S, 0.0)

        def fwhm_of(y):
            above = y >= 0.5 * y.max()
            return dt[above][-1] - dt[above][0]

        for fwhm in (1e-12, 3e-12, 6e-12):
            out = detector.independent_hom_dip(dt, self.S, fwhm)
            assert fwhm_of(out) >= fwhm_of(base)

    @pytest.mark.parametrize("jitter_fwhm", [1e-12, 3.31e-12, 1e-11])
    def test_matches_numerical_convolution(self, jitter_fwhm):
        s = self.S
        sp = np.hypot(s, jitter_fwhm / FWHM)
        step = s / 20
        n = int(np.ceil(14 * sp / step))
        dt = step * np.arange(-n, n + 1)
        ideal = np.exp(-0.5 * (dt / s) ** 2)
        out = detector.independent_hom_dip(dt, s, jitter_fwhm)
        ref = reference.jittered_dip(dt, ideal, jitter_fwhm)
        assert np.max(np.abs(out - ref)) <= 1e-12 * out.max()

    def test_gaussian_convolution_width_oracle(self):
        in_fwhm = 3.17e-12
        jit_fwhm = 3.31e-12
        dt = self._axis(half=3e-11)
        out = detector.independent_hom_dip(dt, in_fwhm / FWHM, jit_fwhm, v_cap=1.0)
        from biphoton import fitting
        fit = fitting.fit_dip(dt, 1.0 - out)
        expect = np.sqrt(in_fwhm**2 + jit_fwhm**2)
        assert fit.fwhm == pytest.approx(expect, rel=1e-9)
        assert fit.visibility == pytest.approx(in_fwhm / expect, rel=1e-9)

    @pytest.mark.parametrize("sigma", [0.0, -1e-13, np.nan, np.inf])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            detector.independent_hom_dip(self._axis(), sigma, 0.0)

    @pytest.mark.parametrize("fwhm", [-1e-12, np.nan])
    def test_negative_or_nan_jitter_rejected(self, fwhm):
        with pytest.raises(ValueError, match="jitter_fwhm"):
            detector.independent_hom_dip(self._axis(), self.S, fwhm)

    def test_infinite_jitter_rejected(self):
        with pytest.raises(ValueError, match="jitter_fwhm"):
            detector.independent_hom_dip(self._axis(), self.S, np.inf)

    @pytest.mark.parametrize("v_cap", [-0.1, 1.5])
    def test_v_cap_outside_unit_interval_rejected(self, v_cap):
        with pytest.raises(ValueError, match="v_cap"):
            detector.independent_hom_dip(self._axis(), self.S, 0.0, v_cap=v_cap)


@pytest.fixture
def budget():
    return detector.SourceBudget(singles_rate_1=95e3, singles_rate_2=91e3,
                                 pair_probability_per_pulse=0.373,
                                 coincidence_to_singles=0.047, car=2.68)


@pytest.fixture
def det_config():
    return 4e6  # trigger rate, Hz


class TestRateToCounts:
    def _interferogram(self, values):
        ax = ifm.Axis("delta_tau_L", 0.0, 1e-14, len(values))
        return ifm.Interferogram((ax,), np.asarray(values, float))

    def test_zero_rate_zero_accidentals(self, budget, det_config):
        quiet = detector.SourceBudget(singles_rate_1=budget.singles_rate_1,
                                      singles_rate_2=0.0,
                                      pair_probability_per_pulse=0.373,
                                      coincidence_to_singles=0.047, car=2.68)
        ig = self._interferogram(np.zeros(16))
        out = detector.rate_to_counts(ig, quiet, det_config, 10.0, seed=3)
        assert np.all(out.counts == 0)

    def test_background_fluctuates_around_baseline(self, budget, det_config):
        quiet = detector.SourceBudget(singles_rate_1=budget.singles_rate_1,
                                      singles_rate_2=0.0,
                                      pair_probability_per_pulse=0.373,
                                      coincidence_to_singles=0.047, car=2.68)
        ig = self._interferogram(np.ones(400))
        out = detector.rate_to_counts(ig, quiet, det_config, 10.0, seed=3)
        baseline = budget.singles_rate_1 * budget.coincidence_to_singles * 10.0
        assert abs(out.counts.mean() - baseline) < 5.0 * np.sqrt(baseline / 400)
        assert out.counts.std() > 0

    def test_deterministic_and_metadata(self, budget, det_config):
        ig = self._interferogram(1.0 - 0.9 * np.cos(np.linspace(0, 6 * np.pi, 50)))
        a = detector.rate_to_counts(ig, budget, det_config, 10.0, seed=11)
        b = detector.rate_to_counts(ig, budget, det_config, 10.0, seed=11)
        assert np.array_equal(a.counts, b.counts)
        assert a.values is None  # a measurement holds counts, not G
        assert a.metadata["seed"] == 11
        c = detector.rate_to_counts(ig, budget, det_config, 10.0, seed=12)
        assert not np.array_equal(a.counts, c.counts)


class TestConfigValidation:
    def test_trigger_rate(self, budget):
        ig = ifm.Interferogram((ifm.Axis("delta_tau_L", 0.0, 1e-14, 4),), np.ones(4))
        with pytest.raises(ValueError, match="trigger_rate"):
            detector.rate_to_counts(ig, budget, 0.0, 10.0, seed=3)
        with pytest.raises(ValueError, match="trigger_rate"):
            detector.rate_to_counts(ig, budget, -1.0, 10.0, seed=3)

    def test_source_budget(self):
        with pytest.raises(ValueError):
            detector.SourceBudget(-1.0, 91e3, 0.373, 0.047, 2.68)
        with pytest.raises(ValueError):
            detector.SourceBudget(95e3, 91e3, 1.5, 0.047, 2.68)
        with pytest.raises(ValueError):
            detector.SourceBudget(95e3, 91e3, 0.373, -0.047, 2.68)
        with pytest.raises(ValueError):
            detector.SourceBudget(95e3, 91e3, 0.373, 0.047, 0.0)
