"""Simulation and analysis toolkit for generalized two-photon quantum
interference: bi-photon spectral amplitudes, nonlocal coincidence
interferograms, photon-counting statistics, fringe fitting and joint
spectral intensity reconstruction."""

__version__ = "0.1.0"
