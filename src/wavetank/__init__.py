"""Spectral simulator for a wave-maker-driven linear water tank on [0, pi] x [-1, 0],
with a convergence laboratory for the shallow-water limit.

Import names from their modules, e.g. `from wavetank.lab import run_sweep`."""

__version__ = "0.1.0"
