"""Shared domain types for the layered-BPSK toolkit.

Conventions used throughout the package:

* Amplitudes are dimensionless signal units.  SNRs are always formed as
  power / noise-variance at the point of use and never stored redundantly.
* ``NoiseSpec.sigma2`` is the noise variance **per real dimension**; the
  total noise power of a complex observation is ``2 * sigma2``.
* A real input is whatever :func:`is_finite` accepts: a Python or numpy real
  scalar that ``math.isfinite`` finds finite, checked entry by entry in an
  array.  Each input rule has one owner that raises one ``ValueError``
  message: ``check_sigma2`` here, ``channel.check_seed``, the mode rule of
  ``montecarlo``, and the amplitude and rho rules of ``rates``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Bit(enum.IntEnum):
    """Antipodal symbol, restricted to +1 / -1 by construction."""

    PLUS = 1
    MINUS = -1

    def __repr__(self) -> str:  # +1 / -1 reads better than PLUS/MINUS in test output
        return f"Bit({int(self):+d})"


# Largest alpha/beta ratio accepted.  Its square stays a finite float, and
# weights_from_ratio keeps beta a normal float for every power in
# [2e-300, 2e300], the signal powers of the CLI's dB range.
MAX_RATIO = 1e150


def is_finite(value) -> bool:
    """Whether ``value`` is a finite real number: ``math.isfinite`` without
    its TypeError for a non-number or OverflowError for a huge int."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def check_sigma2(sigma2) -> float:
    """The noise-variance rule: a finite real > 0, returned as a float."""
    if not (is_finite(sigma2) and sigma2 > 0.0):
        raise ValueError(f"sigma2 must be a finite number > 0, got {sigma2!r}")
    return float(sigma2)


def mean_power(pair: tuple[float, float]) -> float:
    """Mean power of two equiprobable antipodal magnitudes (a, b)."""
    a, b = pair
    return 0.5 * a**2 + 0.5 * b**2


@dataclass(frozen=True)
class WeightPair:
    """Layering weights of one dimension; requires alpha > beta > 0.

    This class is the one table of the layered mapping.  The bits (x, z)
    select one of four equiprobable amplitudes, listed by ``points``:

    ====  ====  ==========
     x     z    amplitude
    ====  ====  ==========
     +1    +1    +alpha
     -1    -1    -alpha
     -1    +1    +beta/2
     +1    -1    -beta/2
    ====  ====  ==========

    The sign of the amplitude is always z.  The sign decision therefore sees
    the magnitudes ``sign_pair`` = (alpha, beta/2); once the receiver
    subtracts ``z * beta``, the residual magnitudes are ``residual_pair`` =
    (alpha - beta, beta/2).  Both pairs are equiprobable.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not is_finite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.alpha <= self.beta:
            raise ValueError(
                f"alpha must exceed beta, got alpha={self.alpha}, beta={self.beta}"
            )

    @property
    def ratio(self) -> float:
        return self.alpha / self.beta

    @property
    def points(self) -> tuple[tuple[int, int, float], ...]:
        """The four (x, z, amplitude) symbols, in the order densities sum them."""
        half = 0.5 * self.beta
        return ((1, 1, self.alpha), (-1, -1, -self.alpha), (-1, 1, half), (1, -1, -half))

    @property
    def amplitudes(self) -> tuple[float, ...]:
        return tuple(amplitude for _, _, amplitude in self.points)

    @property
    def sign_pair(self) -> tuple[float, float]:
        return (self.alpha, 0.5 * self.beta)

    @property
    def residual_pair(self) -> tuple[float, float]:
        return (self.alpha - self.beta, 0.5 * self.beta)

    def average_power(self) -> float:
        """Mean transmitted power over the four equiprobable amplitudes."""
        return mean_power(self.sign_pair)


def weights_from_ratio(ratio: float, avg_power: float) -> WeightPair:
    """Build the WeightPair with the given alpha/beta ratio and average power.

    Scales the pair (ratio, 1) to the requested power, so sweeps can hold
    received power fixed while varying the weight split.  For a power in
    [2e-300, 2e300] and a ratio up to MAX_RATIO both square roots are normal
    floats, so beta >= 2e-300, alpha <= 2e150 and the pair holds the
    requested power to a few ulp.
    """
    if not (is_finite(ratio) and 1.0 < float(ratio) <= MAX_RATIO):
        raise ValueError(f"ratio must be a finite number in (1, {MAX_RATIO:g}], got {ratio!r}")
    if not (is_finite(avg_power) and avg_power > 0.0):
        raise ValueError(f"avg_power must be a finite number > 0, got {avg_power!r}")
    ratio = float(ratio)
    # mean_power((ratio, 0.5)) is the power of the pair (ratio, 1).
    beta = math.sqrt(avg_power) / math.sqrt(mean_power((ratio, 0.5)))
    return WeightPair(alpha=ratio * beta, beta=beta)


@dataclass(frozen=True)
class NoiseSpec:
    """AWGN power; ``sigma2`` is the variance per real dimension."""

    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "sigma2", check_sigma2(self.sigma2))


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo error counts of ``n_symbols`` symbols per axis.

    ``errors`` holds one (z errors, x errors) pair per simulated axis, the
    real axis first.  The bit error rates and their 3-sigma binomial
    confidence radii are derived from the counts.  The received-signal
    entropy is a separate pass, ``montecarlo.empirical_entropy``.
    """

    n_symbols: int
    errors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for axis, pair in enumerate(self.errors):
            if not all(0 <= count <= self.n_symbols for count in pair):
                raise ValueError(f"error counts of axis {axis} out of "
                                 f"[0, {self.n_symbols}]: {pair}")

    def ber(self, axis: int) -> tuple[float, float]:
        """(ber_z, ber_x) of one axis."""
        return tuple(count / self.n_symbols for count in self.errors[axis])

    def ci(self, axis: int) -> tuple[float, float]:
        """3-sigma binomial confidence radii of ``ber(axis)``."""
        n = self.n_symbols
        return tuple(3.0 * math.sqrt(p * (1.0 - p) / n) for p in self.ber(axis))
