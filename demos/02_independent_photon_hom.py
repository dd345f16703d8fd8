"""Hong-Ou-Mandel dip between photons from independent heralded sources.

Two separately heralded photons meet on a beamsplitter.  Because the pairs
are uncorrelated, multi-pair emission caps the visibility at 1/3 even with
perfect spectral overlap, and relative timing jitter (group-velocity
dispersion in each heralding fiber) blurs the dip further.  The jitter,
one FWHM summed in quadrature over its sources by build_jitter, is a
Gaussian; so is the zero-jitter visibility profile, so the blurred dip is
the Gaussian whose width adds both in quadrature and whose area is kept:
the observed dip is both shallower and wider.
"""

from biphoton import core, detector, fitting
from biphoton.config import build_dip_profile, build_jitter, load_config


def main():
    cfg = load_config()

    # Delays over +-3 mm in 10 um steps, and the width s of the zero-jitter
    # profile exp(-dt^2/2s^2), whose area is the photons' spectral overlap.
    dt, s = build_dip_profile(cfg)

    for label, jitter_fwhm in [("no jitter", 0.0), ("with jitter", build_jitter(cfg))]:
        vis = detector.independent_hom_dip(dt, s, jitter_fwhm)
        rate = 1.0 - vis
        x_mm = core.C * dt * 1e3
        fit = fitting.fit_dip(x_mm, rate)
        print(f"{label:12s}: visibility {100 * fit.visibility:6.2f} %, "
              f"dip FWHM {fit.fwhm:.3f} mm, "
              f"jitter FWHM {jitter_fwhm * 1e12:.2f} ps")


if __name__ == "__main__":
    main()
