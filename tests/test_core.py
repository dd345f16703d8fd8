from fractions import Fraction

import numpy as np
import pytest

from biphoton import config, core

import reference


def test_wavelength_omega_round_trip():
    lam = 1550e-9
    assert 2 * np.pi * core.C / core.omega_from_wavelength(lam) == pytest.approx(lam, rel=1e-15)


def test_energy_matched_idler_conserves_energy():
    idler = core.energy_matched_idler(775e-9, 1530e-9)
    assert 1.0 / 1530e-9 + 1.0 / idler == pytest.approx(1.0 / 775e-9, rel=1e-14)


def test_source_params_rejects_mismatched_centers():
    with pytest.raises(ValueError, match="energy conservation"):
        core.SourceParams(775e-9, 1530e-9, 1570e-9)


class TestFrequencyGrid:
    def test_invariants(self):
        with pytest.raises(ValueError):
            core.FrequencyGrid(1, 4, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            core.FrequencyGrid(4, 4, 1.0, 1.0, 0.0, 1.0)

    def test_midpoint_axes(self):
        g = core.FrequencyGrid(4, 8, 0.0, 4.0, 0.0, 2.0)
        assert np.allclose(g.axis1, [0.5, 1.5, 2.5, 3.5])
        assert g.d1 == 1.0 and g.d2 == 0.25
        assert g.measure == 0.25

    def test_refine_preserves_bounds(self):
        g = core.FrequencyGrid(4, 4, 0.0, 4.0, 1.0, 2.0)
        r = reference.refine(g)
        assert (r.n1, r.n2) == (8, 8)
        assert (r.omega1_min, r.omega1_max) == (0.0, 4.0)


class TestPhasors:
    @pytest.mark.parametrize("n", [2, 3, 96, 97, 256])
    def test_matches_complex_exponential(self, n):
        # an exactly uniform axis near 1.2e15 rad/s (integers times 2**30):
        # the tables and the reference differ only by the rounding of the
        # phases, which reach ~4e3 rad
        omega = 2.0**30 * (1_100_000 + 64 * np.arange(n))
        tmax = 4e3 / omega[-1]
        t = np.concatenate([[0.0, tmax, -tmax],
                            np.random.default_rng(n).uniform(-tmax, tmax, 200)])
        # free delays as the indices k of the axis (0, 1), whose t = k exactly
        for delays in (0.7 * tmax, -tmax, t, -np.sort(t)):
            expect = np.exp(-1j * np.outer(delays, omega))
            got = core.phasors(omega, (0.0, 1.0), delays)
            assert got.shape == expect.shape
            assert np.max(np.abs(got - expect)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 96, 97, 256])
    def test_grid_axis_as_accurate_as_direct(self, n):
        # a grid axis carries its own rounding (~1 ulp of omega, ~1e-12 rad
        # at these delays), which exp(-i t omega) follows and the tables do
        # not: both are measured against the ideal midpoint axis in long double
        grid = core.FrequencyGrid(n, n, 1.1e15, 1.3e15, 1.1e15, 1.3e15)
        ld = np.longdouble
        ideal = ld(grid.omega1_min) + (np.arange(n).astype(ld) + ld(0.5)) * (
            (ld(grid.omega1_max) - ld(grid.omega1_min)) / n)
        tmax = 4e3 / grid.omega1_max
        t = np.random.default_rng(n).uniform(-tmax, tmax, 200)
        phase = np.outer(t.astype(ld), ideal)
        exact = np.cos(phase) - 1j * np.sin(phase)
        err = np.max(np.abs(core.phasors(grid.axis1, (0.0, 1.0), t) - exact))
        direct = np.max(np.abs(np.exp(-1j * np.outer(t, grid.axis1)) - exact))
        assert err <= 1.5 * direct

    @pytest.mark.parametrize("rows", [128, 8])
    def test_blocks_join_to_the_whole_table(self, rows):
        # each row of a table depends on its own delay only, so the tables of
        # blocks of indices, as the inverse transform takes them, are bit for
        # bit those rows of the table of all 203 delays
        grid = core.FrequencyGrid(96, 96, 1.1e15, 1.3e15, 1.1e15, 1.3e15)
        axis, k = (-4e-12, 3.9e-14), np.arange(203)
        whole = core.phasors(grid.axis1, axis, k)
        assert whole.shape == (203, 96)
        for r in range(0, len(k), rows):
            assert np.array_equal(core.phasors(grid.axis1, axis, k[r:r + rows]),
                                  whole[r:r + rows]), r

    def test_two_float_delays(self):
        # the delays start + k step of a lattice axis are formed as two-floats,
        # and the tables follow their low parts (~4e-13 rad of phase at
        # ~4e3 rad); the same delays rounded to doubles miss
        omega = 2.0**30 * (1_100_000 + 64 * np.arange(96))
        start, step = -3.1e-12, 2.3e-15
        ld = np.longdouble
        phase = np.outer(ld(start) + ld(step) * np.arange(2700, dtype=ld), omega.astype(ld))
        exact = np.cos(phase) - 1j * np.sin(phase)
        k = np.arange(2700)
        assert np.max(np.abs(core.phasors(omega, (start, step), k) - exact)) <= 1e-14
        rounded = start + step * k
        assert np.max(np.abs(core.phasors(omega, (0.0, 1.0), rounded) - exact)) > 1e-14

    def test_add_two_is_exact(self):
        # hi + lo is the sum of the doubles as a rational number
        rng = np.random.default_rng(3)
        a = rng.uniform(-1.0, 1.0, 200) * 10.0 ** rng.integers(-15, -10, 200)
        b = rng.uniform(-1.0, 1.0, 200) * 10.0 ** rng.integers(-15, -10, 200)
        hi, lo = core.add_two((a, 0.0), (b, 0.0))
        assert all(Fraction(x) + Fraction(y) == Fraction(h) + Fraction(r)
                   for x, y, h, r in zip(a, b, hi, lo))
        assert np.array_equal(hi, a + b)

    def test_two_product_is_exact(self):
        # p + e is the product of the doubles as a rational number
        rng = np.random.default_rng(7)
        a = rng.uniform(-1.0, 1.0, 200) * 10.0 ** rng.integers(-15, 16, 200)
        b = np.concatenate([[3.0, 2863.0, 0.5], rng.uniform(1.1e15, 1.3e15, 197)])
        p, e = core.two_product(a, b)
        assert all(Fraction(x) * Fraction(y) == Fraction(q) + Fraction(r)
                   for x, y, q, r in zip(a, b, p, e))
        assert np.array_equal(p, a * b)


class TestSpectralFilter:
    def test_rectangular_exact_passband(self):
        f = core.SpectralFilter("rectangular", 10.0, 4.0)
        t = f.transmission(np.array([7.9, 8.0, 10.0, 12.0, 12.1]))
        assert t.tolist() == [0.0, 1.0, 1.0, 1.0, 0.0]

    def test_gaussian_fwhm(self):
        f = core.SpectralFilter("gaussian", 10.0, 4.0)
        assert f.transmission(np.array([8.0, 12.0])) == pytest.approx([0.5, 0.5])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            core.SpectralFilter("triangular", 1.0, 1.0)
        with pytest.raises(ValueError):
            core.SpectralFilter("rectangular", 1.0, 0.0)

    def test_rectangular_idempotent_bit_for_bit(self):
        f = core.SpectralFilter.from_wavelength("rectangular", 1530e-9, 18e-9)
        w = np.linspace(f.center - f.bandwidth, f.center + f.bandwidth, 1001)
        t = f.transmission(w)
        assert np.array_equal(t * t, t)
        v = np.exp(1j * w * 1e-15)  # arbitrary complex amplitude row
        assert np.array_equal(v * t * t, v * t)


class TestGaussianAmplitude:
    def test_peak_and_one_sigma_falloff(self):
        m = core.BiphotonAmplitude.gaussian(10.0, 20.0, 2.0, 3.0, rho=0.0)
        assert m(10.0, 20.0) == pytest.approx(1.0)
        assert m(12.0, 20.0) == pytest.approx(np.exp(-0.5))
        assert m(10.0, 23.0) == pytest.approx(np.exp(-0.5))

    def test_matches_direct_density_formula(self):
        rho = -0.9
        m = core.BiphotonAmplitude.gaussian(0.0, 0.0, 1.0, 1.0, rho=rho)
        grid = core.grid_for_gaussian(m, n=64, span_sigmas=4.0)
        w1, w2 = reference.mesh(grid)
        direct = np.exp(-(w1**2 - 2 * rho * w1 * w2 + w2**2) / (2 * (1 - rho**2)))
        assert np.allclose(np.abs(m(w1, w2)), direct, atol=1e-14)

    def test_anticorrelated_ridge(self):
        m = core.BiphotonAmplitude.gaussian(0.0, 0.0, 1.0, 1.0, rho=-0.9)
        grid = core.grid_for_gaussian(m, n=64, span_sigmas=4.0)
        sampled = core.sample_on_grid(m, grid)
        assert core.jsi_correlation(core.jsi(sampled), grid) == pytest.approx(-0.9, abs=1e-3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            core.BiphotonAmplitude.gaussian(0.0, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            core.BiphotonAmplitude.gaussian(0.0, 0.0, 1.0, 1.0, rho=1.0)


class TestSampling:
    @pytest.mark.parametrize("shape", ["rectangular", "gaussian", None],
                             ids=["rectangular", "gaussian", "unfiltered"])
    def test_in_place_sampling_is_bit_identical(self, shape):
        # the default fringe grid and amplitude, with either filter shape or
        # none (as reconstruct samples its model)
        cfg = config.load_config(overrides={("filters", "shape"): shape or "rectangular"})
        src = config.build_source_params(cfg)
        f1, f2 = config.build_filters(cfg, src)
        model = config.build_model(cfg, src)
        grid = core.grid_for_filters(f1, f2, n=cfg.getint("grid", "n"))
        filters = (f1, f2) if shape else (None, None)
        got = core.sample_on_grid(model, grid, *filters).values
        assert np.array_equal(got, reference.sampled_values(model, grid, *filters))

    def test_in_place_amplitude_is_bit_identical(self):
        m = core.BiphotonAmplitude(10.0, 20.0, 2.0, 3.0, rho=-0.3)
        x = np.linspace(0.0, 30.0, 7)
        for args in ((12.0, 21.0), (x, 21.0), (12.0, x), (x, x), (x[:, None], x[None, :])):
            got, expect = m(*args), reference.amplitude(m, *args)
            assert type(got) is type(expect) and np.array_equal(got, expect)

    def test_unfiltered_norm(self, small_gaussian):
        _, grid, sampled = small_gaussian
        norm = np.sum(np.abs(sampled.values) ** 2) * grid.measure
        assert abs(norm - 1.0) < 1e-10

    def test_filtered_norm_and_support(self, reference_setup, reference_sampled):
        _, f1, f2, _ = reference_setup
        grid = reference_sampled.grid
        norm = np.sum(core.jsi(reference_sampled)) * grid.measure
        assert abs(norm - 1.0) < 1e-10
        # support confined to the passband rectangle
        in1 = f1.transmission(grid.axis1).astype(bool)
        in2 = f2.transmission(grid.axis2).astype(bool)
        outside = ~np.outer(in1, in2)
        assert np.all(core.jsi(reference_sampled)[outside] == 0.0)

    def test_empty_support_raises(self):
        m = core.BiphotonAmplitude.gaussian(1.23e15, 1.20e15, 5e12, 5e12)
        grid = core.grid_for_gaussian(m, n=64)
        miss = core.SpectralFilter("rectangular", 2e15, 1e12)
        with pytest.raises(core.EmptySupportError):
            core.sample_on_grid(m, grid, miss, None)

    def test_unnormalized_construction_rejected(self):
        grid = core.FrequencyGrid(8, 8, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="normalized"):
            core.SampledAmplitude(2.0 * np.ones((8, 8), dtype=complex), grid)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_construction_rejected(self, value):
        # a NaN norm compares False with anything, so it must fail the check
        # by not passing it, as an infinite norm does
        grid = core.FrequencyGrid(4, 4, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="not normalized"):
            core.SampledAmplitude(np.full((4, 4), value + 0j), grid)


class TestJsiAndMarginals:
    def test_jsi_nonnegative_unit_integral(self, small_gaussian):
        _, grid, sampled = small_gaussian
        j = core.jsi(sampled)
        assert j.min() >= 0.0
        assert np.sum(j) * grid.measure == pytest.approx(1.0, abs=1e-10)

    def test_separable_factorizes(self, small_gaussian):
        _, grid, sampled = small_gaussian
        j = core.jsi(sampled)
        outer = np.outer(j.sum(axis=1) * grid.d2, j.sum(axis=0) * grid.d1)
        assert np.max(np.abs(j - outer)) <= 1e-8 * j.max()

    def test_correlated_does_not_factorize(self):
        m = core.BiphotonAmplitude.gaussian(0.0, 0.0, 1.0, 1.0, rho=-0.9)
        grid = core.grid_for_gaussian(m, n=64, span_sigmas=4.0)
        sampled = core.sample_on_grid(m, grid)
        j = core.jsi(sampled)
        outer = np.outer(j.sum(axis=1) * grid.d2, j.sum(axis=0) * grid.d1)
        assert np.max(np.abs(j - outer)) > 1e-3 * j.max()

    def test_marginals_integrate_to_one(self, reference_sampled):
        grid = reference_sampled.grid
        j = core.jsi(reference_sampled)
        m1, m2 = j.sum(axis=1) * grid.d2, j.sum(axis=0) * grid.d1
        assert np.sum(m1) * grid.d1 == pytest.approx(1.0, abs=1e-10)
        assert np.sum(m2) * grid.d2 == pytest.approx(1.0, abs=1e-10)

    def test_truncated_gaussian_marginal_oracle(self):
        # separable gaussian with an asymmetric filter on arm 1 only
        m = core.BiphotonAmplitude.gaussian(1.23e15, 1.20e15, 5e12, 5e12, rho=0.0)
        grid = core.grid_for_gaussian(m, n=128, span_sigmas=6.0)
        filt = core.SpectralFilter("rectangular", 1.23e15 + 2e12, 6e12)
        sampled = core.sample_on_grid(m, grid, filt, None)
        got = core.jsi(sampled).sum(axis=1) * grid.d2
        # 1D truncated-gaussian quadrature on the same axis
        w = grid.axis1
        oracle = np.exp(-((w - 1.23e15) / 5e12) ** 2) * filt.transmission(w)
        oracle /= np.sum(oracle) * grid.d1
        assert np.allclose(got, oracle, atol=1e-12 * oracle.max())

    def test_flat_spectrum_top_hat_marginal(self):
        flat = core.BiphotonAmplitude.gaussian(1.2e15, 1.2e15, 5e17, 5e17, rho=0.0)
        f = core.SpectralFilter("rectangular", 1.2e15, 1e13)
        grid = core.grid_for_filters(f, f, n=128)
        sampled = core.sample_on_grid(flat, grid, f, f)
        m1 = core.jsi(sampled).sum(axis=1) * grid.d2
        width = np.count_nonzero(m1) * grid.d1
        assert width == pytest.approx(f.bandwidth, rel=1e-12)

    def test_conditional_narrower_than_marginal(self):
        m = core.BiphotonAmplitude.gaussian(0.0, 0.0, 1.0, 1.0, rho=-0.9)
        grid = core.grid_for_gaussian(m, n=128, span_sigmas=5.0)
        sampled = core.sample_on_grid(m, grid)
        j = core.jsi(sampled)
        m1 = j.sum(axis=1) * grid.d2
        w = grid.axis1
        marg_std = np.sqrt(np.sum(m1 * w**2) * grid.d1 - (np.sum(m1 * w) * grid.d1) ** 2)
        row = j[:, grid.n2 // 2]  # conditional slice at omega2 ~ center
        row = row / (row.sum() * grid.d1)
        cond_std = np.sqrt(np.sum(row * w**2) * grid.d1 - (np.sum(row * w) * grid.d1) ** 2)
        assert cond_std < marg_std
        assert marg_std / cond_std == pytest.approx(1.0 / np.sqrt(1 - 0.9**2), rel=0.02)


def test_grid_refinement_changes_integrals_little():
    m = core.BiphotonAmplitude.gaussian(1.23e15, 1.20e15, 5e12, 5e12, rho=-0.5)
    grid = core.grid_for_gaussian(m, n=128, span_sigmas=6.0)

    def raw_norm(g):
        w1, w2 = reference.mesh(g)
        return np.sum(np.abs(m(w1, w2)) ** 2) * g.measure

    a, b = raw_norm(grid), raw_norm(reference.refine(grid))
    assert abs(b - a) / a < 1e-4


def test_two_photon_coherence_length_examples():
    # the pump duration combined in quadrature with the GVD timing spreads
    def coherence_time(pump_fwhm_ps="3.5", gvd_terms="2"):
        cfg = config.load_config(overrides={("jitter", "include_pump"): "true",
                                            ("source", "pump_fwhm_ps"): pump_fwhm_ps,
                                            ("jitter", "gvd_terms"): gvd_terms})
        return config.build_jitter(cfg)

    assert coherence_time(gvd_terms="0") == pytest.approx(3.5e-12)
    with_gvd = core.C * coherence_time()
    assert with_gvd == pytest.approx(core.C * np.sqrt(3.5e-12**2 + 2 * 2.34e-12**2))
    assert abs(with_gvd - 1.26e-3) / 1.26e-3 < 0.15
    assert coherence_time(pump_fwhm_ps="1e-8", gvd_terms="1") == pytest.approx(2.34e-12)


def test_gaussian_from_setup_envelope_width():
    wc = 1.2e15
    m = core.gaussian_from_setup(wc, wc, 2.5e14, 2.5e14, coherence_fwhm=3.5e-12)
    s1 = 2.5e14 / np.sqrt(2.0)
    cond = s1 * np.sqrt(1.0 - m.rho**2)
    fwhm = 2.0 * np.sqrt(2.0 * np.log(2.0)) / cond
    assert fwhm == pytest.approx(3.5e-12, rel=1e-12)
    assert m.rho < -0.999


def test_gaussian_from_setup_rejects_too_short_coherence():
    with pytest.raises(ValueError, match="too short"):
        core.gaussian_from_setup(1.2e15, 1.2e15, 1e12, 1e12, coherence_fwhm=1e-15)
