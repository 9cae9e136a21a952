"""Each input rule has one owner, so every entry that takes an input of its
kind gives the same outcome for the same value: one ValueError message for a
bad value, and for a numpy scalar the result of the equal Python number."""

import math
import re

import numpy as np
import pytest

from layered_bpsk.channel import NoiseStream
from layered_bpsk.core import NoiseSpec, WeightPair, weights_from_ratio
from layered_bpsk.modem import demod_1d
from layered_bpsk.montecarlo import (
    GENIE_AIDED,
    SimConfig,
    ber_predictions_1d,
    empirical_entropy,
    qfunc,
)
from layered_bpsk.rates import (
    bpsk_rate,
    bpsk_rate_at_snr,
    bpsk_rate_grid,
    ebn0_1d,
    exact_mi_1d,
    gaussian_entropy,
    layered_pdf,
    mixture_mi,
    mixture_pdf,
    operating_point_grid,
    rho_bpsk,
    rho_x,
    shannon_capacity,
    snr_to_amplitude,
)

W21 = WeightPair(2.0, 1.0)
SPEC1 = NoiseSpec(1.0)


def _cfg(**fields):
    return SimConfig(**{"n_symbols": 10_000, "w": W21, "spec": SPEC1, "seed": 1, **fields})


# rule: (message before ", got <repr>", out-of-range value, numpy scalar,
# whether the rule accepts that scalar, entries taking the value).
RULES = {
    "sigma2": ("sigma2 must be a finite number > 0", 0.0, np.float32(0.1), True, {
        "NoiseSpec": NoiseSpec,
        "gaussian_entropy": gaussian_entropy,
        "mixture_pdf": lambda v: mixture_pdf(0.3, 1.0, v),
        "layered_pdf": lambda v: layered_pdf(0.3, W21, v),
        "bpsk_rate": lambda v: bpsk_rate(1.0, v),
        "exact_mi_1d": lambda v: exact_mi_1d(W21, v),
        "mixture_mi": lambda v: mixture_mi((-1.0, 1.0), v),
        "rho_bpsk": lambda v: rho_bpsk(W21, v),
        "rho_x": lambda v: rho_x(W21, v),
        "snr_to_amplitude": lambda v: snr_to_amplitude(1.0, v),
        "ebn0_1d": lambda v: ebn0_1d(W21, v),
    }),
    # Integers are ints: a numpy integer is not a seed.
    "seed": ("seed must be an integer in [0, 2**64)", 2**64, np.uint64(7), False, {
        "NoiseStream": lambda v: NoiseStream(v, 0, SPEC1),
        "SimConfig": lambda v: _cfg(seed=v),
    }),
    "mode": (f"mode must be one of {('decision-feedback', 'genie-aided')}", "oracle",
             np.str_(GENIE_AIDED), True, {
        "SimConfig": lambda v: _cfg(mode=v),
        "ber_predictions_1d": lambda v: ber_predictions_1d(W21, SPEC1, v),
    }),
    "amplitude": ("amplitude must be a finite number >= 0", -1.0, np.float32(0.1), True, {
        "mixture_pdf": lambda v: mixture_pdf(0.3, v, 1.0),
        "bpsk_rate": lambda v: bpsk_rate(v, 1.0),
        "bpsk_rate_grid": lambda v: bpsk_rate_grid([0.5, v], 1.0).tolist(),
        "empirical_entropy": lambda v: empirical_entropy(_cfg(), v),
    }),
    "rho": ("rho must be a finite number >= 0", -1.0, np.float32(0.1), True, {
        "shannon_capacity": shannon_capacity,
        "snr_to_amplitude": lambda v: snr_to_amplitude(v, 1.0),
        "bpsk_rate_at_snr": bpsk_rate_at_snr,
        "operating_point_grid": lambda v: operating_point_grid([v], (2.0,)),
    }),
}

BAD = {"string": "1", "None": None, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}
# empirical_entropy's amplitude=None selects the layered scheme.
TAKES_NONE = {("amplitude", "empirical_entropy")}


def _cases():
    for rule, (_, out_of_range, _, _, entries) in RULES.items():
        for entry in entries:
            for name, value in {**BAD, "out-of-range": out_of_range}.items():
                if not (value is None and (rule, entry) in TAKES_NONE):
                    yield pytest.param(rule, entry, value, id=f"{rule}-{entry}-{name}")


@pytest.mark.parametrize("rule, entry, value", _cases())
def test_every_entry_of_a_rule_rejects_with_its_one_message(rule, entry, value):
    message, *_, entries = RULES[rule]
    with pytest.raises(ValueError) as info:
        entries[entry](value)
    assert str(info.value) == f"{message}, got {value!r}"


@pytest.mark.parametrize("rule, entry", [pytest.param(rule, entry, id=f"{rule}-{entry}")
                                         for rule, spec in RULES.items() for entry in spec[-1]])
def test_every_entry_of_a_rule_takes_a_numpy_scalar_alike(rule, entry):
    message, _, scalar, accepted, entries = RULES[rule]
    if accepted:
        assert entries[entry](scalar) == entries[entry](scalar.item())
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            entries[entry](scalar)


# Inputs that take any finite real, each named by the first word of its
# error: a numpy scalar gives what the equal Python float gives.
REALS = {
    "alpha": (lambda v: WeightPair(v, 1.0), np.float32(2.1)),
    "beta": (lambda v: WeightPair(4.0, v), np.float32(2.1)),
    "ratio": (lambda v: weights_from_ratio(v, 1.0), np.float32(2.1)),
    "avg_power": (lambda v: weights_from_ratio(2.0, v), np.float32(2.1)),
    "points": (lambda v: mixture_mi((-1.0, v, 1.0), 1.0), np.float32(0.0)),
    "qfunc": (qfunc, np.float32(0.1)),
    "received": (lambda v: demod_1d(v, W21), np.float32(0.1)),
}


@pytest.mark.parametrize("entry", REALS)
@pytest.mark.parametrize("value", BAD.values(), ids=BAD.keys())
def test_what_counts_as_a_number_is_one_test(entry, value):
    call, _ = REALS[entry]
    with pytest.raises(ValueError, match=f"^{entry}"):
        call(value)


@pytest.mark.parametrize("entry", REALS)
def test_a_numpy_real_scalar_is_a_number(entry):
    call, scalar = REALS[entry]
    assert call(scalar) == call(scalar.item())
