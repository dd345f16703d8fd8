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

import numpy as np

from biphoton import core, fitting
from biphoton import interferometer as ifm
from biphoton.config import build_sampled, load_config


def main():
    src, sampled = build_sampled(load_config())

    x1 = 0.1e-3 * np.arange(-12, 13)              # coarse arm-1 positions
    step = 0.15e-6                                # fringe-resolving arm-2 step
    half2 = 1.2e-3 + 0.13e-3                      # cover ridge + envelope
    n2 = int(half2 / step)
    x2 = step * np.arange(-n2, n2 + 1)
    tau_s = x1 / core.C
    tau_l = np.sort(-x2 / core.C)

    ig = ifm.scan_2d(sampled, sampled,
                     (tau_s[0], tau_s[1] - tau_s[0], len(tau_s)),
                     (tau_l[0], tau_l[1] - tau_l[0], len(tau_l)))
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
