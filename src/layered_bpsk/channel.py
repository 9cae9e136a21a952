"""Seeded real AWGN generation.

Samples come from numpy's PCG64 generator (ziggurat normal sampling), seeded
with the pair ``(seed, stream_id)``.  Identical pairs reproduce bit-identical
sequences across runs and machines with the same numpy, and distinct
``stream_id`` values give statistically independent substreams, which is how
parallel workers keep results independent of the worker count.

Noise variance is ``NoiseSpec.sigma2`` per real dimension.  A complex
channel is two real ones: consecutive draws from one stream give its real
axis and then its imaginary axis, each of variance ``sigma2`` (total complex
noise power ``2 * sigma2``).
"""

from __future__ import annotations

import math

import numpy as np

from .core import NoiseSpec


def check_seed(seed) -> int:
    """The seed rule: an ``int`` in [0, 2**64)."""
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return seed


class NoiseStream:
    """Single-owner AWGN source; one substream per (seed, stream_id)."""

    def __init__(self, seed: int, stream_id: int, spec: NoiseSpec):
        self.seed = check_seed(seed)
        if not isinstance(stream_id, int) or stream_id < 0:
            raise ValueError(f"stream_id must be a non-negative integer, got {stream_id!r}")
        self.stream_id = stream_id
        self.spec = spec
        self.generator = np.random.default_rng((seed, stream_id))

    def __repr__(self) -> str:
        return f"NoiseStream(seed={self.seed}, stream_id={self.stream_id}, spec={self.spec})"


def noise_real(shape, stream: NoiseStream) -> np.ndarray:
    """An array of N(0, sigma2) samples; advances the stream.

    Scaling standard normals in place draws the same bits as
    ``normal(0.0, sigma)`` without a second array.
    """
    noise = stream.generator.standard_normal(shape)
    noise *= math.sqrt(stream.spec.sigma2)
    return noise


def awgn_real(tx, stream: NoiseStream) -> np.ndarray:
    """Add N(0, sigma2) noise to a real array; advances the stream."""
    tx = np.asarray(tx, dtype=float)
    return tx + noise_real(tx.shape, stream)
