"""Layered BPSK over AWGN: modulation, achievable rates, and validation.

Two independent antipodal bit streams share one signal dimension through
data-dependent amplitude weights; the receiver peels them apart with a
sign decision followed by a feedback subtraction.  This package provides
the encoder/demodulator pair, seeded AWGN channels, numeric achievable-rate
evaluation with an exact mutual-information oracle, a Monte Carlo harness,
and a CLI that writes the standard comparison sweeps as CSV.

The top level re-exports the names of the README example and a few entry
points; everything else is imported from its module.
"""

from .channel import NoiseStream, awgn_real
from .core import NoiseSpec, WeightPair, weights_from_ratio
from .montecarlo import GENIE_AIDED, SimConfig, empirical_entropy, simulate_1d, simulate_2d
from .rates import bpsk_rate, ebn0_1d, exact_mi_1d, rate_1d, to_db

__version__ = "0.1.0"

__all__ = [
    "NoiseStream", "awgn_real", "NoiseSpec", "WeightPair", "weights_from_ratio",
    "GENIE_AIDED", "SimConfig", "empirical_entropy", "simulate_1d", "simulate_2d",
    "bpsk_rate", "ebn0_1d", "exact_mi_1d", "rate_1d", "to_db",
]
