"""The layered mapping and its two-stage receiver, stated once.

The layered scheme transmits one of four equiprobable amplitudes per
dimension, as listed by the table ``WeightPair.points`` in
:mod:`layered_bpsk.core`.  The receiver first decides z from the sign of the
sample, then subtracts ``z_hat * beta`` and decides x from the sign of the
residual.  With a correct z decision the residual amplitude is either
``alpha - beta`` or ``beta / 2``, which is what makes the second stream
demodulable without inter-stream interference.  The two-dimensional scheme
runs the same construction on each axis.

The encoder is :func:`amplitude_table` indexed by :func:`symbol_index`, and
:func:`decide` is the receiver; both work on arrays of 0/1 bits, 1 standing
for +1.  The simulator draws how many of a chunk's symbols hold each index,
sorts the slice of noise that goes to each index, and calls :func:`decide`
once: the decisions in each region between -beta, 0 and beta do not depend
on beta, so one table serves every grid point.  The BER predictions sum the
same table over the Gaussian mass each index puts in each region.  The
scalar functions on :class:`~layered_bpsk.core.Bit` values are thin calls
of the same functions.

Sign decisions at exactly zero resolve to +1: the event has measure zero
under AWGN and a deterministic rule keeps every path reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Bit, WeightPair, is_finite


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


def symbol_index(x01, z01):
    """Index 2*x01 + z01 of a bit pair into :func:`amplitude_table`."""
    return 2 * x01 + z01


# The inverse of symbol_index: row k holds the (x, z) bits of index k, True
# for +1.
_INDEX_BITS = np.array([divmod(k, 2) for k in range(4)]) == 1


def amplitude_table(w: WeightPair) -> np.ndarray:
    """The amplitudes of ``w.points`` as a 4-entry array, by symbol index."""
    table = np.empty(4)
    for x, z, amplitude in w.points:
        table[symbol_index((x + 1) // 2, (z + 1) // 2)] = amplitude
    return table


def decide(y, beta: float, feedback=None):
    """Boolean (z_hat, x_hat) decisions, True for +1.

    z_hat = sign(y) and x_hat = sign(y - fb*beta), ties deciding +1, where fb
    is z_hat or, in genie-aided mode, the true z passed as ``feedback``.  For
    finite floats y - beta >= 0 exactly when y >= beta, so x_hat is +1
    exactly when y >= beta, or when y >= -beta and fb is -1.
    """
    z_hat = y >= 0.0
    fb = z_hat if feedback is None else feedback
    return z_hat, (y >= beta) | ((y >= -beta) & ~fb)


def _bit(flag) -> Bit:
    return Bit.PLUS if flag else Bit.MINUS


def encode_1d(x: Bit, z: Bit, w: WeightPair) -> float:
    """Map a bit pair to its layered amplitude: alpha*x when the bits agree,
    (beta/2)*z when they differ."""
    x, z = Bit(x), Bit(z)
    return float(amplitude_table(w)[symbol_index((x + 1) // 2, (z + 1) // 2)])


def demod_1d(y: float, w: WeightPair) -> Demod1DResult:
    """Two-stage hard demodulation of a real received sample."""
    if not is_finite(y):
        raise ValueError(f"received sample must be finite, got {y!r}")
    z_hat, x_hat = map(_bit, decide(np.float64(y), w.beta))
    return Demod1DResult(z_hat=z_hat, x_hat=x_hat, x_tilde=float(y) - float(z_hat) * w.beta)


def encode_2d(x: Bit, z: Bit, xp: Bit, zp: Bit, w: WeightPair, wp: WeightPair) -> complex:
    """Layer two independent bit pairs onto the real and imaginary axes.

    ``xp`` and ``zp`` are the +-1 coefficients of the imaginary-axis symbols.
    """
    return complex(encode_1d(x, z, w), encode_1d(xp, zp, wp))


def demod_2d(y_prime: complex, w: WeightPair, wp: WeightPair) -> Demod2DResult:
    """Per-axis two-stage demodulation of a complex received sample."""
    y_prime = complex(y_prime)
    re, im = demod_1d(y_prime.real, w), demod_1d(y_prime.imag, wp)
    return Demod2DResult(z_hat=re.z_hat, z_hat_prime=im.z_hat,
                         x_hat=re.x_hat, x_hat_prime=im.x_hat)
