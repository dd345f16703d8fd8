"""Reconstruct the joint spectral intensity from a 2D delay scan.

The two-photon interference pattern G(delta_tau_S, delta_tau_L) encodes the
joint spectral intensity through a cosine transform; sampling G on a
uniform delay lattice and inverting it recovers the JSI without a
spectrometer.  The demo runs the round trip for a separable source and for
a strongly frequency-anticorrelated one and compares the recovered
spectral correlation coefficients.  Both are the config's [reconstruct]
Gaussian at the [source] centres, with its band and half lattice from
config.build_reconstruct, the builder `biphoton reconstruct` uses.

For identical sources M = |Phi|^2 is real, so G is point-symmetric,
G(-a, -b) = G(a, b): the lattice half with a >= 0 holds every value the
inverse needs.  The demo scans only that half, as `biphoton reconstruct`
does, which halves the forward product and, in the laboratory, the
acquisition time; the inverse reads it as a half lattice.  Each round
trip is reconstruction.roundtrip_error, the noiseless `biphoton
reconstruct` itself, which never forms the lattice: a LatticeScan holds
only the sampled amplitude's M = |Phi|^2 measure, and the inverse takes
every sum over the lattice from 2n - 1 difference and 2n - 1 sum
frequencies of each axis's sum over its delays.
"""

from biphoton import core, reconstruction as rec
from biphoton.config import build_reconstruct, load_config


def main():
    for rho in (0.0, -0.9):
        # the [reconstruct] source at this rho on a 64-point band: its
        # lattice half-span grows as the correlation strengthens, because
        # Gamma decays slowest along the correlation ridge
        cfg = load_config(overrides={("reconstruct", "rho"): str(rho),
                                     ("reconstruct", "band_n"): "64"})
        model, grid, lattice = build_reconstruct(cfg)
        est, err = rec.roundtrip_error(model, grid, lattice, demodulate=True)
        # a correlation that prints as zero is rounding noise: drop its sign
        corr = format(core.jsi_correlation(est.values, grid), "+.3f").replace("-0.000", "+0.000")
        print(f"rho = {rho:+.1f}: lattice {lattice.count1}x{lattice.count2}, "
              f"relative L2 error {err:.2e}, recovered correlation {corr}, "
              f"negativity fraction {est.negativity_fraction:.2e}")


if __name__ == "__main__":
    main()
