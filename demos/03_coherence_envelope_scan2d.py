"""Map the two-photon coherence envelope with a 2D delay scan.

Both interferometer path differences are scanned: a coarse grid along
delta_x1 and a fine, fringe-resolving grid along delta_x2.  Each fine slice
is fitted for its fringe visibility; the fitted peaks trace out a Gaussian
envelope whose width is the two-photon coherence length, far larger than
the single-photon coherence length set by the 18 nm filters.  For the
frequency-anticorrelated source the envelope ridge follows
delta_x2 = -delta_x1 (slope -1); a separable source would show no such
dependence.
"""

from biphoton import fitting
from biphoton import interferometer as ifm
from biphoton.config import build_sampled, build_scan2d_axes, load_config


def main():
    cfg = load_config()
    src, sampled = build_sampled(cfg)

    # Coarse arm-1 steps over +-1.2 mm, fringe-resolving arm-2 steps over
    # +-(0.13 + 1.2) mm: the fringe half-span widened to cover the ridge.
    ig = ifm.scan_2d(sampled, sampled, *build_scan2d_axes(cfg, sampled.grid))
    env = fitting.visibility_envelope(ig, period_guess=src.idler_center_wavelength)
    slope = fitting.ridge_slope(env)

    print("two-photon coherence envelope")
    print(f"  envelope FWHM   : {env.fit.fwhm * 1e3:.3f} mm")
    print(f"  peak visibility : {env.fit.peak_visibility:.4f}")
    print(f"  ridge slope     : {slope:+.3f}  (frequency-anticorrelated => -1)")
    for xi, vi in zip(env.slice_coords[::4], env.visibilities[::4]):
        bar = "#" * int(round(40 * vi))
        print(f"  dx1 = {xi * 1e3:+6.2f} mm  V = {vi:5.3f} {bar}")


if __name__ == "__main__":
    main()
