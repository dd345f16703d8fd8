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

import numpy as np

from biphoton import core, detector, fitting
from biphoton.config import build_jitter, load_config


def main():
    cfg = load_config()

    # Width s of the zero-jitter profile exp(-dt^2/2s^2): a Gaussian dip whose
    # area matches the squared spectral overlap of two identical
    # rectangular-filtered photons.
    bw = core.bandwidth_omega_from_wavelength(1570.53e-9, 18e-9)
    sigma_t = 2.0 / bw
    s = sigma_t * np.sqrt(np.pi / 2.0)
    dt = np.linspace(-8e-12, 8e-12, 1601)

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
