"""Bit-level encoders and hard-decision demodulators.

The layered scheme transmits one of four equiprobable amplitudes per
dimension, as listed by the table ``WeightPair.points`` in
:mod:`layered_bpsk.core`.  The receiver first decides z from the sign of the
sample, then subtracts ``z_hat * beta`` and decides x from the sign of the
residual.  With a correct z decision the residual amplitude is either
``alpha - beta`` or ``beta / 2``, which is what makes the second stream
demodulable without inter-stream interference.

Sign decisions at exactly zero resolve to +1: the event has measure zero
under AWGN and a deterministic rule keeps every path reproducible.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import Bit, WeightPair


@dataclass(frozen=True)
class Demod1DResult:
    z_hat: Bit
    x_hat: Bit
    x_tilde: float  # residual handed to the second-stage sign decision


@dataclass(frozen=True)
class Demod2DResult:
    z_hat: Bit
    z_hat_prime: Bit
    x_hat: Bit
    x_hat_prime: Bit
    x_tilde_prime: complex


def _sign_bit(value: float) -> Bit:
    return Bit.PLUS if value >= 0.0 else Bit.MINUS


def encode_1d(x: Bit, z: Bit, w: WeightPair) -> float:
    """Map a bit pair to its layered amplitude: alpha*x when the bits agree,
    (beta/2)*z when they differ."""
    x, z = Bit(x), Bit(z)
    return next(a for px, pz, a in w.points if (px, pz) == (x, z))


def demod_1d(y: float, w: WeightPair) -> Demod1DResult:
    """Two-stage hard demodulation of a real received sample."""
    if not math.isfinite(y):
        raise ValueError(f"received sample must be finite, got {y!r}")
    z_hat = _sign_bit(y)
    x_tilde = y - float(z_hat) * w.beta
    return Demod1DResult(z_hat=z_hat, x_hat=_sign_bit(x_tilde), x_tilde=x_tilde)


def encode_2d(x: Bit, z: Bit, xp: Bit, zp: Bit, w: WeightPair, wp: WeightPair) -> complex:
    """Layer two independent bit pairs onto the real and imaginary axes.

    ``xp`` and ``zp`` are the +-1 coefficients of the imaginary-axis symbols.
    """
    return complex(encode_1d(x, z, w), encode_1d(xp, zp, wp))


def demod_2d(y_prime: complex, w: WeightPair, wp: WeightPair) -> Demod2DResult:
    """Per-axis two-stage demodulation of a complex received sample."""
    y_prime = complex(y_prime)
    if not cmath.isfinite(y_prime):
        raise ValueError(f"received sample must be finite, got {y_prime!r}")
    z_hat = _sign_bit(y_prime.real)
    z_hat_prime = _sign_bit(y_prime.imag)
    x_tilde_prime = y_prime - complex(float(z_hat) * w.beta, float(z_hat_prime) * wp.beta)
    return Demod2DResult(
        z_hat=z_hat,
        z_hat_prime=z_hat_prime,
        x_hat=_sign_bit(x_tilde_prime.real),
        x_hat_prime=_sign_bit(x_tilde_prime.imag),
        x_tilde_prime=x_tilde_prime,
    )


def demod_bpsk(y: float) -> Bit:
    if not math.isfinite(y):
        raise ValueError(f"received sample must be finite, got {y!r}")
    return _sign_bit(y)

