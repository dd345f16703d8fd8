import tracemalloc

import numpy as np
import pytest

from biphoton import core, fitting
from biphoton import interferometer as ifm
from biphoton.config import (build_fringe_axis, build_reconstruct, build_sampled,
                             build_scan2d_axes, load_config)

import reference


class TestGamma:
    def test_zero_delay_is_one(self, small_gaussian):
        _, _, sampled = small_gaussian
        assert reference.gamma(sampled, sampled, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_symmetry(self, small_gaussian):
        _, _, sampled = small_gaussian
        for a, b in [(1e-13, 0.0), (2e-13, -1e-13), (5e-14, 3e-13)]:
            g1 = reference.gamma(sampled, sampled, a, b)
            g2 = reference.gamma(sampled, sampled, -a, -b)
            assert g2 == pytest.approx(np.conj(g1), abs=1e-12)

    def test_separable_gaussian_magnitude_oracle(self, small_gaussian):
        # Fourier pair: intensity marginal std sigma/sqrt(2) gives
        # |Gamma(a,b)| = exp(-sigma^2 a^2/4) * exp(-sigma^2 b^2/4)
        model, _, sampled = small_gaussian
        sig = model.sigma1
        for a, b in [(0.0, 0.0), (1e-13, 0.0), (1e-13, 2e-13), (3e-13, 1e-13)]:
            expect = np.exp(-sig**2 * a**2 / 4.0) * np.exp(-sig**2 * b**2 / 4.0)
            got = abs(reference.gamma(sampled, sampled, a, b))
            assert got == pytest.approx(expect, abs=1e-6)

    def test_separable_factorization(self, small_gaussian):
        _, _, sampled = small_gaussian
        for a, b in [(1e-13, 1e-13), (2e-13, -1e-13), (-5e-14, 3e-13)]:
            gab = reference.gamma(sampled, sampled, a, b)
            ga = reference.gamma(sampled, sampled, a, 0.0)
            gb = reference.gamma(sampled, sampled, 0.0, b)
            assert gab == pytest.approx(ga * gb, rel=1e-6)

    def test_lattice_matches_direct(self, reference_sampled):
        # Gamma at the exact lattice start + k step, within a bound that the
        # same tables on the rounded Axis.values (off by 2.8e-14) fail
        ph = reference_sampled
        axes = ((-1e-13, 7e-14, 4), (-2e-13, 1e-13, 4))
        ref = reference.re_gamma_longdouble(ph, ph, axes)
        lat = ifm.gamma_lattice(ph, ph, *axes)
        assert np.max(np.abs(lat - ref)) <= 5e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", ["reconstruct", "fringe"])
    def test_lattice_as_accurate_as_direct_phases(self, case, reference_sampled):
        # Re(Gamma) from the phasor tables and from cos/sin of
        # outer(omega, t) on the rounded delays, each against long-double
        # phases on the ideal midpoint axes and the ideal lattice, on a
        # subset of the default reconstruct half lattice (phases to ~4e3 rad)
        # and of the default fringe scan.  The bound lies below the error
        # of the same tables on the rounded delays (2.5e-13 and 5.9e-14)
        if case == "reconstruct":
            model, grid, lattice = build_reconstruct(load_config())
            ph = core.sample_on_grid(model, grid)
            (s0, ds, ns), (l0, dl, nl) = lattice.axes
            axes, bound = ((s0, 36 * ds, -(-ns // 36)), (l0, 7 * dl, -(-nl // 7))), 6e-14
        else:
            ph, grid = reference_sampled, reference_sampled.grid
            axes, bound = ((0.0, 0.0, 1), (-866 * 5e-16, 15e-16, 578)), 1e-14
        ref = reference.re_gamma_longdouble(ph, ph, axes)
        s, l = (start + step * np.arange(count) for start, step, count in axes)
        p = np.exp(-1j * np.outer(s, grid.axis1)) @ ifm._joint_measure(ph, ph)
        phase = np.outer(grid.axis2, l)
        direct = np.hstack([p.real, p.imag]) @ np.vstack([np.cos(phase), np.sin(phase)])
        err = np.max(np.abs(ifm.gamma_lattice(ph, ph, *axes) - ref))
        assert err <= bound * np.max(np.abs(ref))
        assert err <= np.max(np.abs(direct - ref))

    def test_lattice_peak_memory_does_not_grow_with_the_scan(self):
        # the default fringe scan and one 10x as long on the default grid:
        # the long axis's phasor tables have ~sqrt(count) rows, so beyond
        # them only the scan's Re(Gamma) and G arrays grow with it
        cfg = load_config()
        _, ph = build_sampled(cfg)
        step = cfg.getfloat("scan", "fringe_step_um") * 1e-6 / core.C

        def peak(count):
            tracemalloc.start()
            try:
                ig = ifm.scan_1d(ph, ph, "L", 0.0, -step * (count // 2), step, count)
                return tracemalloc.get_traced_memory()[1], ig
            finally:
                tracemalloc.stop()

        (short, _), (long, ig) = peak(1733), peak(17333)
        assert long - short <= 3 * ig.values.nbytes + 2**20
        for p, count in ((short, 1733), (long, 17333)):
            assert p < count * ph.grid.n2 * np.dtype(complex).itemsize

    @pytest.mark.parametrize("counts", [(5, 300), (300, 5), (300, 300)],
                             ids=["short-S", "short-L", "tie"])
    def test_lattice_builds_each_phasor_table_once(self, small_gaussian, monkeypatch, counts):
        # one table for the shorter axis (S on a tie) and two of ~sqrt(300)
        # rows for the other: A at start + 18 q step, q < 17, and F at
        # r step, r < 18
        _, grid, sampled = small_gaussian
        calls, phasors = [], core.phasors
        monkeypatch.setattr(ifm, "phasors", lambda w, axis, k: (
            calls.append((w[0], len(k))), phasors(w, axis, k))[1])
        ifm.gamma_lattice(sampled, sampled, (0.0, 1e-14, counts[0]), (0.0, 1e-14, counts[1]))
        short, long = (grid.axis2[0], grid.axis1[0]) if counts[1] < counts[0] else (
            grid.axis1[0], grid.axis2[0])
        assert calls == [(short, min(counts)), (long, 17), (long, 18)]

    def test_grid_mismatch_rejected(self, small_gaussian):
        model, grid, sampled = small_gaussian
        other = core.sample_on_grid(model, reference.refine(grid))
        with pytest.raises(core.GridMismatchError):
            ifm.gamma_lattice(sampled, other, 0.0, 0.0)

    def test_quadrature_convergence_under_doubling(self):
        model = core.BiphotonAmplitude.gaussian(1.23e15, 1.20e15, 5e12, 5e12, rho=-0.5)
        g1 = core.grid_for_gaussian(model, n=128, span_sigmas=5.0)
        s1 = core.sample_on_grid(model, g1)
        s2 = core.sample_on_grid(model, reference.refine(g1))
        for a, b in [(0.0, 0.0), (1e-13, -1e-13), (2e-13, 2e-13)]:
            d = reference.gamma(s1, s1, a, b) - reference.gamma(s2, s2, a, b)
            assert abs(d) < 1e-5


class TestRealContraction:
    # a real M contracts as Re(E) @ M and Im(E) @ M; the same amplitude
    # promoted to complex takes the complex product E @ M of the same M
    @staticmethod
    def default_pair():
        cfg = load_config()
        _, sampled = build_sampled(cfg)
        cplx = core.SampledAmplitude(sampled.values.astype(complex), sampled.grid)
        assert ifm._joint_measure(sampled, sampled).dtype == np.float64
        assert np.iscomplexobj(ifm._joint_measure(cplx, cplx))
        return cfg, sampled, cplx

    def test_one_delay_axis_is_bit_for_bit(self):
        # the default fringe scan: one S delay, contracted first
        cfg, sampled, cplx = self.default_pair()
        axes = ((0.0, 0.0, 1), build_fringe_axis(cfg, sampled.grid))
        assert np.array_equal(ifm.gamma_lattice(sampled, sampled, *axes),
                              ifm.gamma_lattice(cplx, cplx, *axes))

    def test_lattice_within_two_ulp(self):
        # the default 25 x 17,733 scan2d lattice: the real products sum in
        # another order than the complex one (1.1 ulp of max |G| measured)
        cfg, sampled, cplx = self.default_pair()
        axes = build_scan2d_axes(cfg, sampled.grid)
        assert axes[0][2] == 25
        real = ifm.gamma_lattice(sampled, sampled, *axes)
        ref = ifm.gamma_lattice(cplx, cplx, *axes)
        assert np.max(np.abs(real - ref)) <= 2.0 * np.spacing(np.max(np.abs(ref)))


class TestCoincidenceRate:
    def test_zero_delay_null(self, small_gaussian):
        _, _, sampled = small_gaussian
        assert 1.0 - reference.gamma(sampled, sampled, 0.0, 0.0).real == pytest.approx(0.0, abs=1e-12)

    def test_far_delay_background(self, small_gaussian):
        model, _, sampled = small_gaussian
        far = 50.0 / model.sigma1
        assert 1.0 - reference.gamma(sampled, sampled, far, far).real == pytest.approx(1.0, abs=1e-3)

    def test_range_bounded(self, reference_sampled):
        taus = np.linspace(-1e-12, 1e-12, 41)
        ig = ifm.scan_2d(reference_sampled, reference_sampled,
                         (taus[0], taus[1] - taus[0], len(taus)),
                         (taus[0], taus[1] - taus[0], len(taus)))
        assert ig.values.min() >= 0.0 and ig.values.max() <= 2.0


class TestScans:
    def test_scan1d_minimum_at_origin(self, reference_sampled):
        ig = ifm.scan_1d(reference_sampled, reference_sampled, "L", 0.0, -2e-13, 1e-14, 41)
        i_min = int(np.argmin(ig.values))
        assert abs(ig.axes[0].values[i_min]) < 1e-14 / 2

    def test_scan1d_period_matches_arm2_center(self, reference_setup, reference_sampled):
        src, _, _, _ = reference_setup
        step = 0.15e-6 / core.C
        n = 1201
        ig = ifm.scan_1d(reference_sampled, reference_sampled, "L", 0.0, -step * (n // 2), step, n)
        x = -core.C * ig.axes[0].values  # delta_x2 positions
        order = np.argsort(x)
        period = fitting.fringe_period(x[order], ig.values[order])
        assert period == pytest.approx(src.idler_center_wavelength, rel=5e-3)

    def test_scan_s_same_period_reduced_visibility(self, reference_setup, reference_sampled):
        src, _, _, _ = reference_setup
        step = 0.15e-6 / core.C
        n = 1201
        # envelope width along S for the pump-derived model is 3.5 ps FWHM
        at_ridge = ifm.scan_1d(reference_sampled, reference_sampled, "S", 0.0, -step * (n // 2), step, n)
        offset = 3.5e-12 / 2.0
        off_ridge = ifm.scan_1d(reference_sampled, reference_sampled, "S", 0.0,
                                -step * (n // 2) + offset, step, n)
        x = core.C * at_ridge.axes[0].values
        f0 = fitting.fit_fringe(x, at_ridge.values)
        f1 = fitting.fit_fringe(core.C * off_ridge.axes[0].values, off_ridge.values)
        assert f1.period == pytest.approx(f0.period, rel=5e-3)
        assert f1.visibility < 0.8 * f0.visibility

    def test_scan2d_consistent_with_pointwise_gamma(self, reference_sampled):
        ig = ifm.scan_2d(reference_sampled, reference_sampled, (-1e-13, 5e-14, 5), (-1e-13, 5e-14, 5))
        ts, tl = (ax.values for ax in ig.axes)
        for i in [0, 2, 4]:
            for j in [1, 3]:
                g = reference.gamma(reference_sampled, reference_sampled, ts[i], tl[j])
                assert 1.0 - ig.values[i, j] == pytest.approx(g.real, abs=1e-12)

    def test_scans_match_complex_lattice(self, reference_sampled):
        # the scans against 1 - Re(Gamma) in long double on the ideal lattice,
        # within a bound that the same tables on the rounded delays (off by
        # 3.0e-13) fail
        ph = reference_sampled
        axes = ((-2e-12, 1e-13, 41), (-3e-12, 1e-13, 61))
        s, l = (ifm.Axis("t", *ax).values for ax in axes)
        ig = ifm.scan_2d(ph, ph, *axes)
        row = ifm.scan_1d(ph, ph, "L", s[7], *axes[1])
        col = ifm.scan_1d(ph, ph, "S", l[9], *axes[0])
        tol = 1.5e-13 * np.max(np.abs(reference.re_gamma_longdouble(ph, ph, axes)))
        for got, lattice in ((ig.values, axes), (row.values, ((s[7], 0.0, 1), axes[1])),
                             (col.values, (axes[0], (l[9], 0.0, 1)))):
            gam = reference.re_gamma_longdouble(ph, ph, lattice).reshape(got.shape)
            assert np.max(np.abs(got - (1.0 - gam))) <= tol

    def test_scan_axis_validation(self, small_gaussian):
        _, _, sampled = small_gaussian
        with pytest.raises(ValueError):
            ifm.scan_1d(sampled, sampled, "Q", 0.0, 0.0, 1e-14, 8)


def symmetrized_gamma(s, t1, t2):
    """Overlap of Phi with its argument-swapped conjugate, on a square grid
    with identical axes: gamma against Phi(w2, w1) sampled on the same grid."""
    return reference.gamma(s, core.SampledAmplitude(s.values.T.copy(), s.grid), t1, t2)


class TestSymmetrizedGamma:
    def test_degenerate_equals_gamma(self):
        m = core.BiphotonAmplitude.gaussian(1.2e15, 1.2e15, 5e12, 5e12, rho=-0.3)
        grid = core.grid_for_gaussian(m, n=128, span_sigmas=5.0)
        s = core.sample_on_grid(m, grid)
        for t1, t2 in [(0.0, 0.0), (1e-13, -5e-14)]:
            assert symmetrized_gamma(s, t1, t2) == pytest.approx(
                reference.gamma(s, s, t1, t2), abs=1e-10)

    def test_disjoint_passbands_kill_overlap(self, reference_setup):
        _, f1, f2, model = reference_setup
        lo = min(f1.center, f2.center) - 2e13
        hi = max(f1.center, f2.center) + 2e13
        grid = core.FrequencyGrid(256, 256, lo, hi, lo, hi)
        s = core.sample_on_grid(model, grid, f1, f2)
        assert abs(symmetrized_gamma(s, 0.0, 0.0)) < 1e-3

    def test_separable_factorizes_into_1d_overlaps(self):
        m = core.BiphotonAmplitude.gaussian(1.22e15, 1.18e15, 5e12, 6e12, rho=0.0)
        grid = core.FrequencyGrid(256, 256, 1.14e15, 1.26e15, 1.14e15, 1.26e15)
        s = core.sample_on_grid(m, grid)
        t1, t2 = 4e-14, -7e-14
        got = symmetrized_gamma(s, t1, t2)
        w = grid.axis1
        # 1D overlap oracle: Phi = f(w1) g(w2) separable, so the swapped
        # overlap is [sum f conj(g) e^{-i w t1}] * [sum g conj(f) e^{-i w t2}];
        # recover the rank-1 factors by SVD
        u, sv, vh = np.linalg.svd(s.values, full_matrices=False)
        f = u[:, 0] * np.sqrt(sv[0])
        g = vh[0, :] * np.sqrt(sv[0])
        o1 = np.sum(f * np.conj(g) * np.exp(-1j * w * t1)) * grid.d1
        o2 = np.sum(g * np.conj(f) * np.exp(-1j * w * t2)) * grid.d2
        assert got == pytest.approx(o1 * o2, rel=1e-8)


class TestAnalyticModels:
    def test_fringe_null_and_background(self):
        assert reference.hom_fringe_analytic(1.0, 44.9e-6, 1570e-9, 0.0) == pytest.approx(0.0)
        far = reference.hom_fringe_analytic(1.0, 44.9e-6, 1570e-9, 1.0)
        assert far == pytest.approx(0.5, abs=1e-4)

    def test_fringe_half_wavelength_point(self):
        sigma_x = 0.141e-3 / np.pi
        lam = 1570e-9
        dx = lam / 2.0
        u = dx / sigma_x
        expect = 0.5 * (1.0 + np.sin(u) / u)
        got = reference.hom_fringe_analytic(1.0, sigma_x, lam, dx)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(0.99997, abs=5e-5)

    def test_fringe_validation(self):
        with pytest.raises(ValueError):
            reference.hom_fringe_analytic(1.5, 1e-5, 1e-6, 0.0)
        with pytest.raises(ValueError):
            reference.hom_fringe_analytic(0.5, -1e-5, 1e-6, 0.0)

    def test_beat_period_for_reference_wavelengths(self):
        lam1, lam2 = 1530e-9, 1570e-9
        d_omega = abs(core.omega_from_wavelength(lam1) - core.omega_from_wavelength(lam2))
        assert d_omega == pytest.approx(2 * np.pi * 5.0e12, rel=0.01)
        beat_length = 2 * np.pi * core.C / d_omega
        assert beat_length == pytest.approx(60e-6, rel=0.01)


class TestInterferogram:
    def test_range_validation(self):
        ax = ifm.Axis("t", 0.0, 1.0, 3)
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            ifm.Interferogram((ax,), np.array([0.0, 1.0, 2.5]))
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            ifm.Interferogram((ax,), np.array([0.0, np.nan, 1.0]))

    def test_g_may_be_absent_only_with_counts(self):
        # counts are what a measurement holds; they are not range-checked as G
        ax = ifm.Axis("t", 0.0, 1.0, 3)
        counts = np.array([0.0, 5.0, 9000.0])
        assert ifm.Interferogram((ax,), None, counts=counts).counts is counts
        with pytest.raises(ValueError, match="G values or counts"):
            ifm.Interferogram((ax,), None)

    def test_tolerance_band_is_clipped_and_in_range_values_kept(self):
        ax = ifm.Axis("t", 0.0, 1.0, 3)
        tol = ifm._RANGE_TOL
        ig = ifm.Interferogram((ax,), np.array([-0.5 * tol, 1.0, 2.0 + 0.5 * tol]))
        assert ig.values.tolist() == [0.0, 1.0, 2.0]
        values = np.array([0.0, 1.0, 2.0])
        assert ifm.Interferogram((ax,), values).values is values
        assert ifm.Interferogram((ax,), np.array([0, 1, 2])).values.dtype == np.float64
        small = np.array([0.0, 1.0, 2.0], dtype=np.float32)
        assert ifm.Interferogram((ax,), small).values.dtype == np.float32

    def test_shape_validation(self):
        ax = ifm.Axis("t", 0.0, 1.0, 3)
        with pytest.raises(ValueError, match="shape"):
            ifm.Interferogram((ax,), np.zeros(4))
        # counts too: 5 counts on a 3-point axis, and 2-D counts transposed
        with pytest.raises(ValueError, match="counts shape"):
            ifm.Interferogram((ax,), np.ones(3), counts=np.ones(5))
        axes = (ifm.Axis("s", 0.0, 1.0, 2), ax)
        with pytest.raises(ValueError, match="counts shape"):
            ifm.Interferogram(axes, np.ones((2, 3)), counts=np.ones((3, 2)))

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            ifm.Axis("t", 0.0, -1.0, 4)
        with pytest.raises(ValueError):
            ifm.Axis("t", 0.0, 1.0, 1)

    @staticmethod
    def round_trip(ig, path):
        """A file holds counts when `ig` carries them, and G otherwise."""
        ifm.write_interferogram_csv(ig, path)
        back = ifm.read_interferogram_csv(path)
        assert back.axes == ig.axes
        if ig.counts is None:
            assert np.array_equal(back.values, ig.values) and back.counts is None
        else:
            assert back.values is None and np.array_equal(back.counts, ig.counts)
        assert back.metadata == ig.metadata

    def test_csv_round_trip_1d(self, tmp_path):
        ax = ifm.Axis("delta_tau_L", -1.5e-13, 1e-14, 31)
        counts = np.round(1000 * (1.0 - 0.9 * np.cos(1e14 * ax.values)))
        ig = ifm.Interferogram((ax,), None, counts=counts,
                               metadata={"seed": "7", "baseline_counts": "1000.0"})
        self.round_trip(ig, tmp_path / "ig.csv")
        assert len((tmp_path / "ig.csv").read_text().splitlines()) == 4 + ax.count

    def test_csv_counts_need_a_baseline(self, tmp_path):
        # counts alone cannot be turned back into G: the writer refuses them
        ax = ifm.Axis("t", 0.0, 1.0, 3)
        ig = ifm.Interferogram((ax,), None, counts=np.array([4465.0, 523.0, 4470.0]),
                               metadata={"accidental_counts": 21.6125})
        with pytest.raises(ValueError, match="baseline_counts"):
            ifm.write_interferogram_csv(ig, tmp_path / "c.csv")
        assert not (tmp_path / "c.csv").exists()

    def test_csv_g_counts_rows_read_as_counts(self, tmp_path):
        # the 'G,counts' rows of a seeded file of the earlier layout: the
        # counts are read and G is not, not even checked against [0, 2]
        path = tmp_path / "old.csv"
        head = ("# format=2\n# axis1 delta_tau_L,-1e-13,1e-13,3\n"
                "# accidental_counts=21.6125\n")
        path.write_text(head + "# baseline_counts=4465.0\n# seed=7\n"
                        "1.0,4465\n9.0,523\n1.0,4470\n")
        back = ifm.read_interferogram_csv(path)
        assert back.values is None and back.counts.tolist() == [4465.0, 523.0, 4470.0]
        assert back.metadata == {"accidental_counts": "21.6125", "baseline_counts": "4465.0",
                                 "seed": "7"}
        # without a baseline the second column is not counts: the file is refused
        path.write_text(head + "1.0,4465\n0.1,523\n1.0,4470\n")
        with pytest.raises(ValueError, match="columns do not match axes"):
            ifm.read_interferogram_csv(path)

    def test_csv_fractional_counts_are_refused(self, tmp_path):
        # the reader refuses what the writer refuses to write
        path = tmp_path / "c.csv"
        path.write_text("# format=2\n# axis1 delta_tau_L,-1e-13,1e-13,3\n"
                        "# baseline_counts=4465.0\n4465.5\n523\n4470\n")
        with pytest.raises(ValueError, match="counts must be finite, nonnegative integers"):
            ifm.read_interferogram_csv(path)
        path.write_text(path.read_text().replace("4465.5", "4465"))
        assert ifm.read_interferogram_csv(path).counts.tolist() == [4465.0, 523.0, 4470.0]

    def test_csv_round_trip_2d(self, tmp_path, reference_sampled):
        ig = ifm.scan_2d(reference_sampled, reference_sampled, (-1e-13, 5e-14, 4), (-1e-13, 5e-14, 5))
        self.round_trip(ig, tmp_path / "ig2.csv")

    def test_csv_round_trip_float32(self, tmp_path):
        ax = ifm.Axis("delta_tau", 0.0, 0.25, 5)
        values = np.array([0.1, 0.7, 1.3, 1.9, 2.0], dtype=np.float32)
        ig = ifm.Interferogram((ax,), values, metadata={"note": "float32"})
        self.round_trip(ig, tmp_path / "f32.csv")

    def test_csv_round_trip_spans_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ifm, "_BLOCK_ROWS", 4)
        axes = (ifm.Axis("delta_tau_S", 0.0, 1e-15, 3), ifm.Axis("delta_tau_L", -2e-15, 1e-15, 5))
        values = np.linspace(0.0, 2.0, 15).reshape(3, 5)
        ig = ifm.Interferogram(axes, values, counts=np.arange(15.0).reshape(3, 5) * 97,
                               metadata={"baseline_counts": "97.0"})
        self.round_trip(ig, tmp_path / "blocks.csv")

    def test_csv_format_is_pinned(self, tmp_path):
        ax = ifm.Axis("delta_tau_L", -1e-13, 1e-13, 3)
        ig = ifm.Interferogram((ax,), np.array([1.0, 0.1, 1.0]),
                               counts=np.array([4465, 523, 4470]),
                               metadata={"seed": 7, "accidental_counts": 21.6125,
                                         "baseline_counts": 4465.0})
        ifm.write_interferogram_csv(ig, tmp_path / "1d.csv")
        assert (tmp_path / "1d.csv").read_text() == (
            "# format=2\n"
            "# axis1 delta_tau_L,-1e-13,1e-13,3\n"
            "# accidental_counts=21.6125\n"
            "# baseline_counts=4465.0\n"
            "# seed=7\n"
            "4465\n"
            "523\n"
            "4470\n")
        axes = (ifm.Axis("delta_tau_S", 0.0, 0.5, 2), ifm.Axis("delta_tau_L", 1.0, 0.25, 2))
        ig = ifm.Interferogram(axes, np.array([[0.0, 0.5], [1.5, 2.0]], dtype=np.float32))
        ifm.write_interferogram_csv(ig, tmp_path / "2d.csv")
        assert (tmp_path / "2d.csv").read_text() == (
            "# format=2\n"
            "# axis1 delta_tau_S,0.0,0.5,2\n"
            "# axis2 delta_tau_L,1.0,0.25,2\n"
            "0.0\n"
            "0.5\n"
            "1.5\n"
            "2.0\n")

    @pytest.mark.parametrize("column,rows", [
        (np.array([-0.0, 1e-300, 0.1, 2.0, 1e-24]), "-0.0\n1e-300\n0.1\n2.0\n1e-24\n"),
        (np.array([0, -3, 7, 123456789012, 5], dtype=np.int64), "0\n-3\n7\n123456789012\n5\n"),
    ], ids=["float", "int64"])
    def test_write_csv_text_is_pinned(self, tmp_path, monkeypatch, column, rows):
        # each value is its own shortest repr (a signed zero, exponent forms,
        # 0.1, a 12-digit integer), across blocks of 2 rows and a partial one
        monkeypatch.setattr(ifm, "_BLOCK_ROWS", 2)
        ifm.write_csv(tmp_path / "c.csv", ["h"], column)
        assert (tmp_path / "c.csv").read_text() == "# format=2\n# h\n" + rows

    @pytest.mark.parametrize("bad", [523.5, np.nan, np.inf])
    def test_csv_non_integral_counts_rejected(self, tmp_path, bad):
        ax = ifm.Axis("t", 0.0, 1.0, 3)
        ig = ifm.Interferogram((ax,), None, counts=np.array([4465.0, bad, 4470.0]),
                               metadata={"baseline_counts": 4465.0})
        with pytest.raises(ValueError, match="integers"):
            ifm.write_interferogram_csv(ig, tmp_path / "bad.csv")

    def test_csv_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n")
        with pytest.raises(ValueError, match="axis"):
            ifm.read_interferogram_csv(path)

    @pytest.mark.parametrize("rows,message", [
        ("1.0\n1.0\n", "do not match axes"),
        ("1.0\n1.0\n1.0,5,5\n", "columns"),
        ("1.0,5,5\n1.0,5,5\n1.0,5,5\n", "do not match axes"),
    ])
    def test_csv_rows_must_fill_the_lattice(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("# format=2\n# axis1 t,0.0,1.0,3\n# seed=1\n" + rows)
        with pytest.raises(ValueError, match=message):
            ifm.read_interferogram_csv(path)
