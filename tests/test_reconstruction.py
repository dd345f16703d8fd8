import tracemalloc

import numpy as np
import pytest

from biphoton import core, reconstruction as rec
from biphoton import interferometer as ifm
from biphoton.config import build_source_params, load_config

import reference


def slow_axis_time(sigma, rho):
    """Decay time of Gamma along its slowest direction (the correlation
    ridge for anticorrelated sources)."""
    s1 = sigma / np.sqrt(2.0)
    return 1.0 / (s1 * np.sqrt(1.0 - abs(rho)))


def make_lattice(grid, sigma, rho, span=5.0, step_fraction=0.9):
    step = step_fraction * rec.nyquist_step(grid)
    half = int(np.ceil(span * slow_axis_time(sigma, rho) / step))
    return rec.DelayLattice.symmetric(step, half, step, half)


class TestNyquistStep:
    def test_reference_band_arithmetic(self):
        w_max = core.omega_from_wavelength(1530e-9)
        grid = core.FrequencyGrid(8, 8, w_max - 1e13, w_max, w_max - 1e13, w_max)
        step = rec.nyquist_step(grid)
        assert step == pytest.approx(np.pi / w_max)
        assert step == pytest.approx(2.55e-15, rel=0.01)

    def test_doubling_band_halves_step(self):
        g1 = core.FrequencyGrid(8, 8, 0.5e15, 1e15, 0.5e15, 1e15)
        g2 = core.FrequencyGrid(8, 8, 0.5e15, 2e15, 0.5e15, 2e15)
        assert rec.nyquist_step(g1) == pytest.approx(2 * rec.nyquist_step(g2))

    def test_uses_band_edge_not_width(self):
        narrow = core.FrequencyGrid(8, 8, 1e15, 1e15 + 1.0, 1e15, 1e15 + 1.0)
        assert rec.nyquist_step(narrow) == pytest.approx(np.pi / (1e15 + 1.0))


def lattice_interferogram(*axes):
    """A flat (G = 1) interferogram on (start, step, count) axes."""
    axes = tuple(ifm.Axis(name, *ax) for name, ax in zip(("delta_tau_S", "delta_tau_L"), axes))
    return ifm.Interferogram(axes, np.ones(tuple(ax.count for ax in axes)))


class TestDelayLattice:
    GRID = core.FrequencyGrid(8, 8, 1e14, 1.1e14, 1e14, 1.1e14)

    def test_symmetric_and_half_modes(self):
        sym = rec.DelayLattice.symmetric(1e-15, 4, 1e-15, 4)
        assert sym.axes == ((-4e-15, 1e-15, 9), (-4e-15, 1e-15, 9))
        half = rec.DelayLattice.half(1e-15, 4)
        assert half.axes == ((0.0, 1e-15, 5), (-4e-15, 1e-15, 9))
        assert rec._half_axis(lattice_interferogram(*sym.axes).axes) is None
        assert rec._half_axis(lattice_interferogram(*half.axes).axes) == 0
        assert rec._half_axis(lattice_interferogram(*half.axes[::-1]).axes) == 1

    def test_invalid_lattices_rejected(self):
        # an offset axis 1; a symmetric axis 2 with no point at 0; two half
        # axes; a negative step, which the Axis of the interferogram refuses
        for axes, message in [
                (((1e-15, 1e-15, 5), (-4e-15, 1e-15, 9)), "axis 1 must be symmetric about 0"),
                (((0.0, 1e-15, 5), (-3.5e-15, 1e-15, 8)), "axis 2 must be symmetric about 0"),
                (((0.0, 1e-15, 5), (0.0, 1e-15, 5)), "at most one"),
                (((0.0, -1e-15, 5), (-4e-15, 1e-15, 9)), "positive")]:
            with pytest.raises(ValueError, match=message):
                rec.reconstruct_jsi(lattice_interferogram(*axes), self.GRID)

    def test_reconstruct_requires_2d(self, reference_sampled):
        ig = ifm.scan_1d(reference_sampled, reference_sampled, "L", 0.0, 0.0, 1e-15, 8)
        with pytest.raises(ValueError, match="2D"):
            rec.reconstruct_jsi(ig, reference_sampled.grid)


@pytest.mark.parametrize("rho", [0.0, 0.5, -0.5, 0.9, -0.9])
def test_round_trip_across_correlations(rho):
    sigma = 7e12
    model = core.BiphotonAmplitude.gaussian(1.23e15, 1.20e15, sigma, sigma, rho=rho)
    grid = core.grid_for_gaussian(model, n=64)
    lattice = make_lattice(grid, sigma, rho)
    _, err = rec.roundtrip_error(model, grid, lattice)
    assert err < 0.05


def test_reconstructed_correlation_matches_truth():
    sigma = 7e12
    for rho in (0.0, -0.9):
        model = core.BiphotonAmplitude.gaussian(1.23e15, 1.20e15, sigma, sigma, rho=rho)
        grid = core.grid_for_gaussian(model, n=64)
        lattice = make_lattice(grid, sigma, rho)
        sampled = core.sample_on_grid(model, grid)
        ig = ifm.scan_2d(sampled, sampled,
                         (lattice.start1, lattice.step1, lattice.count1),
                         (lattice.start2, lattice.step2, lattice.count2))
        est = rec.reconstruct_jsi(ig, grid)
        corr = core.jsi_correlation(est.values, grid)
        assert corr == pytest.approx(rho, abs=0.05)


def test_half_axis_lattice_matches_symmetric():
    sigma = 7e12
    model = core.BiphotonAmplitude.gaussian(1.23e15, 1.20e15, sigma, sigma, rho=-0.5)
    grid = core.grid_for_gaussian(model, n=48)
    full = make_lattice(grid, sigma, -0.5)
    sampled = core.sample_on_grid(model, grid)
    ig_full = ifm.scan_2d(sampled, sampled,
                          (full.start1, full.step1, full.count1),
                          (full.start2, full.step2, full.count2))
    est_full = rec.reconstruct_jsi(ig_full, grid)
    # same data restricted to the a >= 0 half-plane
    half_count = (full.count1 - 1) // 2
    ig_half = ifm.scan_2d(sampled, sampled,
                          (0.0, full.step1, half_count + 1),
                          (full.start2, full.step2, full.count2))
    est_half = rec.reconstruct_jsi(ig_half, grid)
    rel = np.linalg.norm(est_half.values - est_full.values) / np.linalg.norm(est_full.values)
    assert rel < 1e-9


def test_truncation_monotonicity_and_negativity():
    sigma = 7e12
    rho = -0.5
    model = core.BiphotonAmplitude.gaussian(1.23e15, 1.20e15, sigma, sigma, rho=rho)
    grid = core.grid_for_gaussian(model, n=48)
    spans = [1.0, 2.0, 5.0]
    errors, neg_fracs = [], []
    sampled = core.sample_on_grid(model, grid)
    for span in spans:
        lattice = make_lattice(grid, sigma, rho, span=span)
        errors.append(rec.roundtrip_error(model, grid, lattice)[1])
        ig = ifm.scan_2d(sampled, sampled,
                         (lattice.start1, lattice.step1, lattice.count1),
                         (lattice.start2, lattice.step2, lattice.count2))
        neg_fracs.append(rec.reconstruct_jsi(ig, grid).negativity_fraction)
    assert errors[0] > errors[2]
    assert neg_fracs[0] >= neg_fracs[1] >= neg_fracs[2]


def test_hann_reduces_truncation_ringing():
    # The window trades resolution (L2 bias) for suppressed truncation
    # ringing; the honest, checkable benefit is a smaller pre-clip
    # negative-mass fraction on truncated lattices.
    sigma = 7e12
    rho = -0.5
    model = core.BiphotonAmplitude.gaussian(1.23e15, 1.20e15, sigma, sigma, rho=rho)
    grid = core.grid_for_gaussian(model, n=48)
    sampled = core.sample_on_grid(model, grid)
    for span in (1.0, 2.0):
        lattice = make_lattice(grid, sigma, rho, span=span)
        ig = ifm.scan_2d(sampled, sampled,
                         (lattice.start1, lattice.step1, lattice.count1),
                         (lattice.start2, lattice.step2, lattice.count2))
        neg_none = rec.reconstruct_jsi(ig, grid, window="none").negativity_fraction
        neg_hann = rec.reconstruct_jsi(ig, grid, window="hann").negativity_fraction
        assert neg_hann < neg_none


def test_degenerate_interferogram_warns():
    grid = core.FrequencyGrid(16, 16, 1e15, 1.1e15, 1e15, 1.1e15)
    step = 0.5 * rec.nyquist_step(grid)
    lat = rec.DelayLattice.symmetric(step, 4, step, 4)
    ax1 = ifm.Axis("delta_tau_S", lat.start1, lat.step1, lat.count1)
    ax2 = ifm.Axis("delta_tau_L", lat.start2, lat.step2, lat.count2)
    ig = ifm.Interferogram((ax1, ax2), np.ones((lat.count1, lat.count2)))
    with pytest.warns(UserWarning, match="degenerate"):
        est = rec.reconstruct_jsi(ig, grid)
    assert est.degenerate
    assert np.all(est.values == 0.0)


def test_aliasing_guard_names_axis_and_step():
    # on this band the bandpass windows k pi / w_min <= step <= (k + 1) pi / w_max
    # leave a gap between 3 x nyquist_step (k = 2) and 3.3 x (k = 3): both axes alias
    grid = core.FrequencyGrid(16, 16, 1e15, 1.1e15, 1e15, 1.1e15)
    coarse = 3.1 * rec.nyquist_step(grid)
    lat = rec.DelayLattice.symmetric(coarse, 4, coarse, 4)
    ax1 = ifm.Axis("delta_tau_S", lat.start1, lat.step1, lat.count1)
    ax2 = ifm.Axis("delta_tau_L", lat.start2, lat.step2, lat.count2)
    ig = ifm.Interferogram((ax1, ax2), np.ones((lat.count1, lat.count2)))
    with pytest.raises(rec.AliasingError) as exc:
        rec.reconstruct_jsi(ig, grid)
    assert exc.value.axis_name == "delta_tau_S"
    # the top of the window below passes
    assert exc.value.required_step == pytest.approx(3.0 * rec.nyquist_step(grid))


def test_bandpass_sampling_accepts_steps_beyond_nyquist():
    # band half-width is far below omega_max, so bandpass sampling
    # tolerates much coarser lattices
    sigma = 7e12
    model = core.BiphotonAmplitude.gaussian(1.23e15, 1.20e15, sigma, sigma, rho=0.0)
    grid = core.grid_for_gaussian(model, n=48)
    coarse = 3.0 * rec.nyquist_step(grid)
    half = int(np.ceil(5.0 * slow_axis_time(sigma, 0.0) / coarse))
    lattice = rec.DelayLattice.symmetric(coarse, half, coarse, half)
    sampled = core.sample_on_grid(model, grid)
    ig = ifm.scan_2d(sampled, sampled,
                     (lattice.start1, lattice.step1, lattice.count1),
                     (lattice.start2, lattice.step2, lattice.count2))
    est = rec.reconstruct_jsi(ig, grid)
    assert not est.degenerate


def brute_force_jsi(ig, band, window):
    """sum h * w * fold * cos(w1 a + w2 b) da db over the lattice, term by
    term with np.cos, then clipped and normalised to a unit integral.  A half
    axis (one that starts at 0) stands for its mirrored axis: it takes the
    right half of the window over that axis and weight 2 off 0."""
    ax_a, ax_b = ig.axes
    a, b = ax_a.values, ax_b.values
    weights = []
    for t in (a, b):
        n = len(t)
        if t[0] == 0.0:
            w = np.hanning(2 * n - 1)[n - 1:] if window == "hann" else np.ones(n)
            w = w * np.where(t == 0.0, 1.0, 2.0)
        else:
            w = np.hanning(n) if window == "hann" else np.ones(n)
        weights.append(w)
    hw = (1.0 - ig.values) * np.outer(*weights) * ax_a.step * ax_b.step
    est = np.array([[np.sum(hw * np.cos(w1 * a[:, None] + w2 * b[None, :]))
                     for w2 in band.axis2] for w1 in band.axis1])
    est = np.clip(est, 0.0, None)
    return est / (np.sum(est) * band.measure)


def test_demodulated_path_agrees_with_direct():
    # small unit-free band so the lattice stays small enough to sum term by term
    sigma = 0.7
    model = core.BiphotonAmplitude.gaussian(12.3, 12.0, sigma, sigma, rho=-0.5)
    grid = core.grid_for_gaussian(model, n=16)
    full = make_lattice(grid, sigma, -0.5)
    sampled = core.sample_on_grid(model, grid)
    half = (full.count1 - 1) // 2
    for window, s_axis in (("hann", (full.start1, full.step1, full.count1)),
                           ("none", (0.0, full.step1, half + 1))):
        ig = ifm.scan_2d(sampled, sampled, s_axis, (full.start2, full.step2, full.count2))
        direct = brute_force_jsi(ig, grid, window)
        for demodulate in (False, True):
            est = rec.reconstruct_jsi(ig, grid, window=window, demodulate=demodulate)
            rel = np.linalg.norm(est.values - direct) / np.linalg.norm(direct)
            assert rel <= 1e-9, (window, demodulate, rel)


def test_l2_error_rejects_amplitude_on_another_grid():
    model = core.BiphotonAmplitude.gaussian(12.3, 12.0, 0.7, 0.7, rho=-0.5)
    grid = core.grid_for_gaussian(model, n=16)
    lattice = make_lattice(grid, 0.7, -0.5)
    sampled = core.sample_on_grid(model, grid)
    est = rec.reconstruct_jsi(ifm.LatticeScan(sampled, sampled, *lattice.axes), grid)
    assert rec.l2_error(est, sampled) == rec.roundtrip_error(model, grid, lattice)[1]
    with pytest.raises(ValueError, match="band grid"):
        rec.l2_error(est, core.sample_on_grid(model, core.grid_for_gaussian(model, n=20)))


def test_pure_math_cosine_series_self_adjoint():
    """Inverting an analytically generated cosine series recovers the
    generating nonnegative function, independent of the physics model."""
    band = core.FrequencyGrid(48, 48, 10.0, 20.0, 10.0, 20.0)
    w1, w2 = reference.mesh(band)
    true = (np.exp(-0.5 * ((w1 - 14.0) ** 2 + (w2 - 16.0) ** 2))
            + 0.5 * np.exp(-(((w1 - 17.0) ** 2 + (w2 - 13.0) ** 2))))
    true /= np.sum(true) * band.measure
    step = 0.9 * rec.nyquist_step(band)
    half = int(np.ceil(8.0 / step))
    lat = rec.DelayLattice.symmetric(step, half, step, half)
    a, b = (ifm.Axis("t", *ax).values for ax in lat.axes)
    # forward cosine series of the known function
    h = np.einsum("ij,ai,bj->ab", true,
                  np.cos(np.outer(a, band.axis1)),
                  np.cos(np.outer(b, band.axis2))) * band.measure
    h_sin = np.einsum("ij,ai,bj->ab", true,
                      np.sin(np.outer(a, band.axis1)),
                      np.sin(np.outer(b, band.axis2))) * band.measure
    series = h - h_sin  # cos(w1 a + w2 b) expanded
    ax1 = ifm.Axis("delta_tau_S", lat.start1, lat.step1, lat.count1)
    ax2 = ifm.Axis("delta_tau_L", lat.start2, lat.step2, lat.count2)
    ig = ifm.Interferogram((ax1, ax2), 1.0 - series)
    est = rec.reconstruct_jsi(ig, band)
    rel = np.linalg.norm(est.values - true) / np.linalg.norm(true)
    assert rel < 1e-4


def small_band(rho=-0.5):
    """The unit-free 12.3/12.0 band of the brute-force tests: its grid, the
    sampled amplitude and a symmetric lattice for it."""
    model = core.BiphotonAmplitude.gaussian(12.3, 12.0, 0.7, 0.7, rho=rho)
    grid = core.grid_for_gaussian(model, n=16)
    return grid, core.sample_on_grid(model, grid), make_lattice(grid, 0.7, rho)


def test_complex_amplitude_scans_and_inverts_as_the_real_one():
    # sampling keeps a real model real; an amplitude a caller builds as
    # complex still goes through the scan, the inverse and the JSI
    grid, sampled, lattice = small_band()
    cplx = core.SampledAmplitude(sampled.values.astype(complex), grid)
    assert np.array_equal(core.jsi(cplx), core.jsi(sampled))
    real_ig = ifm.scan_2d(sampled, sampled, *lattice.axes)
    cplx_ig = ifm.scan_2d(cplx, cplx, *lattice.axes)
    assert np.allclose(cplx_ig.values, real_ig.values, rtol=0.0, atol=1e-12)
    real = rec.reconstruct_jsi(ifm.LatticeScan(sampled, sampled, *lattice.axes), grid)
    est = rec.reconstruct_jsi(ifm.LatticeScan(cplx, cplx, *lattice.axes), grid)
    assert np.linalg.norm(est.values - real.values) <= 1e-12 * np.linalg.norm(real.values)


def test_hann_on_half_lattice_matches_symmetric():
    # the half axis takes the right half of the window over its mirrored
    # axis, so Hann keeps the a = 0 row instead of zeroing it
    grid, sampled, full = small_band()
    half = (full.count1 - 1) // 2
    l_axis = (full.start2, full.step2, full.count2)
    sym, half_est = (rec.reconstruct_jsi(ifm.scan_2d(sampled, sampled, s_axis, l_axis), grid,
                                         window="hann")
                     for s_axis in ((full.start1, full.step1, full.count1),
                                    (0.0, full.step1, half + 1)))
    assert not half_est.degenerate
    rel = np.linalg.norm(half_est.values - sym.values) / np.linalg.norm(sym.values)
    assert rel <= 1e-12


@pytest.mark.parametrize("demodulate", [True, False])
@pytest.mark.parametrize("window", ["none", "hann"])
def test_lattice_scan_inverts_like_its_interferogram(window, demodulate):
    # the lazy scan's factors give the in-memory result; 300 half-axis rows
    # make three blocks of the interferogram's product
    grid, sampled, full = small_band()
    half = 299
    axes = ((0.0, full.step1, half + 1), (-half * full.step2, full.step2, 2 * half + 1))
    ref, lazy = (rec.reconstruct_jsi(ig, grid, window=window, demodulate=demodulate)
                 for ig in (ifm.scan_2d(sampled, sampled, *axes),
                            ifm.LatticeScan(sampled, sampled, *axes)))
    assert lazy.negativity_fraction == pytest.approx(ref.negativity_fraction, abs=1e-12)
    assert np.max(np.abs(lazy.values - ref.values)) <= 1e-14 * np.max(ref.values)


@pytest.mark.parametrize("spoil", ["nan", "scale"])
def test_lattice_scan_out_of_range_is_refused(spoil):
    # the amplitude is spoiled after its own normalization check, so only
    # the range check of the scan sees it
    grid, sampled, full = small_band()
    if spoil == "nan":
        sampled.values[3, 4] = np.nan
    else:  # Gamma(0, 0) = 1.21, so G(0, 0) = -0.21
        sampled.values[...] *= 1.1
    axes = ((0.0, full.step1, full.count1 // 2 + 1), (full.start2, full.step2, full.count2))
    with pytest.raises(ValueError, match="outside"):
        ifm.LatticeScan(sampled, sampled, *axes)


@pytest.mark.parametrize("window", ["none", "hann"])
def test_lattice_scan_sums_match_scan_2d(reference_sampled, window):
    # the closed-form lattice sums against a long-double direct sum over the
    # scan_2d lattice on its ideal axes, with the weights of `window`
    ph, grid = reference_sampled, reference_sampled.grid
    axes = ((0.0, 1e-13, 21), (-3e-12, 1e-13, 61))
    scan = ifm.LatticeScan(ph, ph, *axes)
    assert scan.axes == ifm.scan_2d(ph, ph, *axes).axes
    wa, wb = rec._weights(scan.axes[0], window, True), rec._weights(scan.axes[1], window, False)
    expected = reference.inverse_longdouble(scan.m, grid, axes, wa, wb).astype(float)
    # |1 - G| <= 1, so no entry exceeds the weights' sum product
    scale = wa.sum() * wb.sum()
    assert np.max(np.abs(rec._invert_scan(scan, grid, window, 0) - expected)) <= 5e-15 * scale


@pytest.mark.parametrize("window", ["none", "hann"])
def test_weights_are_numpys_window(window):
    # the Interferogram branch's weights stay np.ones and np.hanning bit for bit
    window_of = np.ones if window == "none" else np.hanning
    for count in (2, 3, 4, 97, 1432, 2863):
        ax = ifm.Axis("t", 0.0, 2.2e-15, count)
        assert np.array_equal(rec._weights(ax, window, False), window_of(count) * ax.step)
        half = window_of(2 * count - 1)[count - 1:] * (2.0 * ax.step)
        half[0] /= 2.0
        assert np.array_equal(rec._weights(ax, window, True), half)


PHYSICAL_MODEL = core.BiphotonAmplitude.gaussian(1.23e15, 1.20e15, 7e12, 7e12, rho=-0.5)
PHYSICAL_GRID = core.grid_for_gaussian(PHYSICAL_MODEL, n=32)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is plain double here")
@pytest.mark.parametrize("half_count", [1, 2, 40, 1432, 5722])
@pytest.mark.parametrize("half", [False, True], ids=["symmetric", "half"])
@pytest.mark.parametrize("window", ["none", "hann"])
@pytest.mark.parametrize("step", ["nyquist", "mirror-on-band", "on-pole"])
def test_lattice_sums_match_long_double(step, window, half, half_count):
    # every D(nu) of one axis against its long-double sum: T's diagonal is the
    # difference 0, where _geometric's sines vanish; the
    # mirror-on-band step (pi / w_c1) puts the sum frequencies near
    # nu s = 2 pi, and the on-pole step puts one of them there to a double.
    # Half counts 1 and 2 make axes of 2, 3 (half) and 3, 5 (symmetric)
    # delays; 1432 and 5722 are those of the default and the span-20
    # reconstruct.  Each axis also starts off its ideal start (0, or
    # -half_count s) by +5e-10 and -9e-10 of a step, inside _half_axis's
    # tolerance, where the phase of the delay at ~0 counts.  The reference
    # is evaluated at the 3n - 1 distinct frequencies (D(-nu) = conj D(nu))
    grid = PHYSICAL_GRID
    lo, d, n = grid.omega1_min, grid.d1, grid.n1
    s = {"nyquist": 0.9 * rec.nyquist_step(grid),
         "mirror-on-band": grid.omega1_max / PHYSICAL_MODEL.omega_c1 * rec.nyquist_step(grid),
         "on-pole": 2.0 * np.pi / (2.0 * lo + n * d)}[step]
    start, count = (0.0, half_count + 1) if half else (-s * half_count, 2 * half_count + 1)
    p, k = np.indices((n, n))
    for offset in (0.0, 5e-10, -9e-10):
        axis = (start + offset * s, s, count)
        ax = ifm.Axis("t", *axis)
        w = rec._weights(ax, window, half)
        t, h = rec._lattice_sums(ax, window, half, lo, d, n)
        diff = reference.lattice_sum_longdouble(axis, w, 0.0, d, np.arange(n))
        diff = np.concatenate([np.conj(diff[:0:-1]), diff])
        sums = reference.lattice_sum_longdouble(axis, w, 2.0 * lo, d, np.arange(1, 2 * n))
        for got, expected in ((t, diff[n - 1 + p - k]), (h, sums[p + k])):
            assert np.max(np.abs(got - expected)) <= 1e-15 * np.sum(np.abs(w)), offset


def test_lattice_scan_inverts_only_on_its_own_grid():
    # its phasor tables are the inverse kernels only on the sampling grid;
    # one more band column keeps the band edges, so the sampling check passes
    grid, sampled, full = small_band()
    scan = ifm.LatticeScan(sampled, sampled, *full.axes)
    band = core.FrequencyGrid(grid.n1, grid.n2 + 1, grid.omega1_min, grid.omega1_max,
                              grid.omega2_min, grid.omega2_max)
    assert not rec.reconstruct_jsi(ifm.scan_2d(sampled, sampled, *full.axes), band).degenerate
    with pytest.raises(ValueError, match="sampled on"):
        rec.reconstruct_jsi(scan, band)


def shaped_axes(full, half_axis):
    """The symmetric axes of `full`, with axis `half_axis` (1 or 2, or None
    for none) replaced by its half that starts at 0."""
    axes = [(full.start1, full.step1, full.count1), (full.start2, full.step2, full.count2)]
    if half_axis is not None:
        step, count = axes[half_axis - 1][1:]
        axes[half_axis - 1] = (0.0, step, (count - 1) // 2 + 1)
    return axes


@pytest.mark.parametrize("half_axis", [None, 1, 2], ids=["symmetric", "half-S", "half-L"])
def test_lattice_scan_inverts_on_every_lattice_shape(half_axis):
    grid, sampled, full = small_band()
    axes = shaped_axes(full, half_axis)
    for window in ("none", "hann"):
        ref, lazy = (rec.reconstruct_jsi(ig, grid, window=window)
                     for ig in (ifm.scan_2d(sampled, sampled, *axes),
                                ifm.LatticeScan(sampled, sampled, *axes)))
        assert np.max(np.abs(lazy.values - ref.values)) <= 1e-14 * np.max(ref.values)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is plain double here")
@pytest.mark.parametrize("half_axis", [None, 1, 2], ids=["symmetric", "half-S", "half-L"])
@pytest.mark.parametrize("window", ["none", "hann"])
@pytest.mark.parametrize("mirrored", [False, True], ids=["nyquist", "mirror-on-band"])
def test_lattice_scan_inverse_matches_long_double_on_a_physical_band(mirrored, window,
                                                                     half_axis):
    # sum frequencies near 2.4e15 rad/s over delays up to ~0.6 ps: phases of
    # ~1e3 rad.  A step of pi / w_c1 (which check_sampling refuses) aliases
    # the sum band onto the band, so the Hankel sums weigh as much as the
    # Toeplitz ones: rounding each sum frequency to a double misses 1e-14
    model = core.BiphotonAmplitude.gaussian(1.23e15, 1.20e15, 7e12, 7e12, rho=-0.5)
    grid = core.grid_for_gaussian(model, n=32)
    sampled = core.sample_on_grid(model, grid)
    fraction = grid.omega1_max / model.omega_c1 if mirrored else 0.9
    axes = shaped_axes(make_lattice(grid, 7e12, -0.5, span=2.0, step_fraction=fraction),
                       half_axis)
    scan = ifm.LatticeScan(sampled, sampled, *axes)
    wa, wb = (rec._weights(ax, window, half_axis == i) for i, ax in enumerate(scan.axes, 1))
    expected = reference.inverse_longdouble(scan.m, grid, axes, wa, wb).astype(float)
    est = rec._invert_scan(scan, grid, window, rec._half_axis(scan.axes))
    assert np.max(np.abs(est - expected)) <= 1e-14 * np.max(np.abs(expected))


def physical_band(rho=-0.5, band_n=32):
    """The noiseless `reconstruct`'s source on the 1530/1570 nm band at its
    default width, span and step, with `rho` and `band_n`: the band grid,
    the sampled amplitude and the symmetric lattice whose a >= 0 half the
    run inverts."""
    src = build_source_params(load_config())
    model = core.BiphotonAmplitude.gaussian(
        core.omega_from_wavelength(src.signal_center_wavelength),
        core.omega_from_wavelength(src.idler_center_wavelength), 7e12, 7e12, rho=rho)
    grid = core.grid_for_gaussian(model, n=band_n)
    return grid, core.sample_on_grid(model, grid), make_lattice(grid, 7e12, rho)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is plain double here")
@pytest.mark.parametrize("half_axis", [None, 1, 2], ids=["symmetric", "half-S", "half-L"])
@pytest.mark.parametrize("window", ["none", "hann"])
def test_interferogram_inverse_matches_long_double_on_a_physical_band(window, half_axis):
    # a scan's G inverted through the Interferogram branch against a
    # long-double sum over the same G on the ideal axes.  Half-S is the
    # noiseless reconstruct's own 641 x 1281 half lattice; its phases reach
    # ~3e3 rad, so kernels at delays rounded to doubles miss by ~1e-14
    grid, sampled, full = physical_band()
    axes = shaped_axes(full, half_axis)
    ig = ifm.scan_2d(sampled, sampled, *axes)
    wa, wb = (rec._weights(ax, window, half_axis == i) for i, ax in enumerate(ig.axes, 1))
    expected = reference.inverse_g_longdouble(ig.values, grid, axes, wa, wb).astype(float)
    expected = np.clip(expected, 0.0, None)
    expected /= np.sum(expected) * grid.measure
    est = rec.reconstruct_jsi(ig, grid, window=window)
    assert np.max(np.abs(est.values - expected)) <= 2e-15 * np.max(expected)


def lattice_axes(full, shape):
    """(start, step, count) axes of a lattice `shape` on the step s of the
    symmetric lattice `full`: its symmetric axes or one half of them
    (`shaped_axes`), where the half axis is the shorter one, and lattices
    whose half axis is the longer one, which gamma_lattice factors: half
    (0, s, 301) x symmetric (-40 s, s, 81) either way round, and a tie,
    whose S axis is contracted first and whose half L axis is factored."""
    if shape in ("symmetric", "half-S", "half-L"):
        return shaped_axes(full, {"symmetric": None, "half-S": 1, "half-L": 2}[shape])
    s = full.step1
    half, sym = (0.0, s, 81 if shape == "tie" else 301), (-40 * s, s, 81)
    return [half, sym] if shape == "half-longer-S" else [sym, half]


LATTICE_SHAPES = ["symmetric", "half-S", "half-L", "half-longer-S", "half-longer-L", "tie"]


@pytest.mark.parametrize("shape", LATTICE_SHAPES)
@pytest.mark.parametrize("demodulate", [False, True])
@pytest.mark.parametrize("window", ["none", "hann"])
def test_fold_matches_brute_force_on_noisy_lattice(window, demodulate, shape):
    # seeded noise makes G far from point-symmetric: the inverse must still
    # equal the term-by-term sum, whose half axis folds in its mirrored one
    grid, sampled, full = small_band()
    ig = ifm.scan_2d(sampled, sampled, *lattice_axes(full, shape))
    noise = np.random.default_rng(11).normal(0.0, 0.05, ig.values.shape)
    noisy = ifm.Interferogram(ig.axes, np.clip(ig.values + noise, 0.0, 2.0))
    if shape == "symmetric":
        assert np.max(np.abs(noisy.values - noisy.values[::-1, ::-1])) > 0.1
    direct = brute_force_jsi(noisy, grid, window)
    est = rec.reconstruct_jsi(noisy, grid, window=window, demodulate=demodulate)
    assert np.linalg.norm(est.values - direct) / np.linalg.norm(direct) <= 1e-9


@pytest.mark.parametrize("transposed", [False, True], ids=["SL", "LS"])
@pytest.mark.parametrize("shape", LATTICE_SHAPES)
@pytest.mark.parametrize("window", ["none", "hann"])
def test_adjoint_passes_the_dot_product_test(window, shape, transposed):
    # <F(M), h> = <M, F*(h)> for the forward F(M) = Re(E1 M E2^T) of
    # gamma_lattice and its adjoint, at a complex M and h = wa (1 - g) wb of
    # a random real g with the inverse's weights, on either axis order
    grid, _, full = small_band()
    axes = lattice_axes(full, shape)[::-1 if transposed else 1]
    rng = np.random.default_rng(5)
    size = (2, grid.n1, grid.n2)
    phi_a, phi_b = (core.SampledAmplitude(v / np.sqrt(np.vdot(v, v).real * grid.measure), grid)
                    for v in rng.normal(size=size) + 1j * rng.normal(size=size))
    g = rng.uniform(0.0, 2.0, tuple(ax[2] for ax in axes))
    half = rec._half_axis([ifm.Axis("t", *ax) for ax in axes])
    wa, wb = (rec._weights(ifm.Axis("t", *ax), window, half == i) for i, ax in enumerate(axes))
    forward = ifm.gamma_lattice(phi_a, phi_b, *axes)
    adjoint = ifm.gamma_lattice_adjoint(grid, *axes, g, wa, wb)
    h = wa[:, None] * (1.0 - g) * wb
    m = ifm._joint_measure(phi_a, phi_b)
    gap = np.sum(forward * h) - np.sum(np.conj(m) * adjoint).real
    assert abs(gap) <= 1e-15 * np.sum(np.abs(forward)) * np.max(np.abs(h))


@pytest.mark.parametrize("half_axis", [False, True], ids=["symmetric", "half"])
def test_kernel_matches_complex_exponential(half_axis):
    # a long axis of 161 delays (b = 13) or a half axis of 301 (b = 18), the
    # last block partial: the products A[q] F[r] of the factor tables are
    # the whole kernel exp(-i w t_k)
    grid, _, full = small_band()
    axis = lattice_axes(full, "half-longer-S")[0] if half_axis else full.axes[1]
    swap, _, a, conj_f, count = ifm._lattice_tables(grid, (0.0, full.step1, 2), axis)
    assert not swap and count % len(conj_f)
    kernel = (a[:, None] * np.conj(conj_f)).reshape(-1, grid.n2)[:count]
    direct = np.exp(-1j * np.outer(ifm.Axis("t", *axis).values, grid.axis2))
    assert np.max(np.abs(kernel - direct)) <= 1e-12


def test_inverse_allocates_a_fraction_of_the_lattice():
    # no lattice-sized temporary on any lattice shape.  numpy's copy of a
    # strided G (a CSV column) inside one large product is invisible to
    # tracemalloc, so the resident peak of `reconstruct --input`, not this
    # test, guards reconstruct_jsi's blocks of rows of G
    grid, sampled, _ = small_band()
    step = 0.9 * rec.nyquist_step(grid)
    axis, half = (-500 * step, step, 1001), (0.0, step, 501)
    for axes in ((axis, axis), (half, axis), (axis, half)):
        ig = ifm.scan_2d(sampled, sampled, *axes)
        tracemalloc.start()
        try:
            rec.reconstruct_jsi(ig, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * ig.values.nbytes, (axes, peak / ig.values.nbytes)


# a band narrow beside its center: steps far above nyquist_step fall in or
# between the bandpass windows, where the mirror band does or does not alias
SWEEP_MODEL = core.BiphotonAmplitude.gaussian(12.3, 12.0, 0.2, 0.2, rho=0.0)
SWEEP_GRID = core.grid_for_gaussian(SWEEP_MODEL, n=48)
SWEEP_FRACTIONS = np.geomspace(1.5, 8.0, 24).round(3).tolist()


def sweep_axes(fraction):
    lattice = make_lattice(SWEEP_GRID, 0.2, 0.0, span=6.0, step_fraction=fraction)
    return ((lattice.start1, lattice.step1, lattice.count1),
            (lattice.start2, lattice.step2, lattice.count2))


@pytest.mark.parametrize("fraction", SWEEP_FRACTIONS)
def test_bandpass_guard_accepts_only_accurate_steps(fraction):
    sampled = core.sample_on_grid(SWEEP_MODEL, SWEEP_GRID)
    ig = ifm.scan_2d(sampled, sampled, *sweep_axes(fraction))
    try:
        est = rec.reconstruct_jsi(ig, SWEEP_GRID)
    except rec.AliasingError as exc:
        # the required step passes in place of the named axis's step
        axes = [ifm.Axis(ax.name, ax.start, exc.required_step, ax.count)
                if ax.name == exc.axis_name else ax for ax in ig.axes]
        assert exc.required_step < ig.axes[0].step
        rec.check_sampling(SWEEP_GRID, axes)
    else:
        assert rec.l2_error(est, sampled) <= 1e-6


def test_bandpass_sweep_accepts_and_refuses():
    accepted = 0
    for fraction in SWEEP_FRACTIONS:
        axes = [ifm.Axis(name, *ax) for name, ax in zip("SL", sweep_axes(fraction))]
        try:
            rec.check_sampling(SWEEP_GRID, axes)
            accepted += 1
        except rec.AliasingError:
            pass
    assert 0 < accepted < len(SWEEP_FRACTIONS)


@pytest.mark.parametrize("band", [SWEEP_GRID, small_band()[0],
                                  core.FrequencyGrid(8, 8, 1.0e15, 1.3e15, 1.1e15, 1.2e15)])
def test_nyquist_step_passes(band):
    step = rec.nyquist_step(band)
    axes = (ifm.Axis("S", -step, step, 3), ifm.Axis("L", -step, step, 3))
    rec.check_sampling(band, axes)


@pytest.mark.parametrize("band", [core.FrequencyGrid(8, 8, -1.0, 1.0, -1.0, 1.0),
                                  core.FrequencyGrid(8, 8, -0.1, 10.0, -5.0, 0.5),
                                  core.FrequencyGrid(8, 8, -1e13, 1.2e15, -1e12, 1.0e15)],
                         ids=["centred", "skewed", "optical"])
def test_band_reaching_below_zero_frequency_refuses_every_step(band):
    # on both axes the mirror band at -w_c overlaps the band itself, so no
    # bandpass window exists, however fine the step
    for fraction in (1e-6, 0.1, 0.5, 1.0):
        step = fraction * rec.nyquist_step(band)
        axes = (ifm.Axis("S", -step, step, 3), ifm.Axis("L", -step, step, 3))
        with pytest.raises(rec.AliasingError):
            rec.check_sampling(band, axes)


def test_every_step_within_pi_over_the_axis_band_top_passes():
    # on a positive band, a step <= pi / w_max of its axis's band puts no
    # multiple of w_s in (2 w_min, 2 w_max): the one rule accepts every such
    # lattice, across 18 decades of frequency and bands 1e-3 to 100 x w_min wide
    rng = np.random.default_rng(17)
    for _ in range(1000):
        lo = 10.0 ** rng.uniform(-2.0, 16.0, 2)
        hi = lo * (1.0 + 10.0 ** rng.uniform(-3.0, 2.0, 2))
        band = core.FrequencyGrid(8, 8, lo[0], hi[0], lo[1], hi[1])
        steps = np.pi / hi * np.where(rng.random(2) < 0.1, 1.0, rng.uniform(0.0, 1.0, 2))
        axes = [ifm.Axis(name, 0.0, step, 5) for name, step in zip("SL", steps)]
        rec.check_sampling(band, axes)
