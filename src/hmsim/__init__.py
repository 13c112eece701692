"""hmsim: spectrum-efficiency gains of hierarchical-modulation time sharing
in a DVB-S2-like satellite broadcast system.

The package splits into constellation geometry (pure math), decoding
threshold tables, the pair/population rate optimizer, the spot-beam channel
model, the Monte Carlo campaign engine, and a CLI front end.
"""

__version__ = "0.1.0"
