import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from layered_bpsk.quadrature import MAX_STEP, NODE_REACH, integrate, node_counts, plogp


def _normal_pdf(x, sigma2=1.0):
    return np.exp(-(x**2) / (2.0 * sigma2)) / math.sqrt(2.0 * math.pi * sigma2)


class TestIntegralSpec:
    """The rule's settings: its node reach and its step."""

    def test_defaults(self):
        assert (NODE_REACH, MAX_STEP) == (12.0, 0.2)
        assert inspect.signature(integrate).parameters["step"].default == MAX_STEP

    @pytest.mark.parametrize("kwargs", [
        dict(step=0.0),
        dict(step=-0.1),
        dict(step=math.nextafter(MAX_STEP, 1.0)),
        dict(step=1.0),
        dict(step=math.nan),
        dict(step=math.inf),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError, match="step"):
            integrate(np.cos, **kwargs)

    @pytest.mark.parametrize("step", [[0.1, 0.0], [0.1, math.nan], [[0.1, 0.2]]])
    def test_invalid_grid(self, step):
        with pytest.raises(ValueError, match="step"):
            integrate(np.cos, step)

    def test_node_counts(self):
        assert node_counts(0.1) == 241
        assert node_counts(MAX_STEP) == 121
        # One more node on each side when the step does not divide the reach.
        assert node_counts([0.2, 0.05, 0.19]).tolist() == [121, 481, 129]


class TestIntegrate:
    """E[f(t)] for t ~ N(0, 1).  Entire integrands are exact to rounding at
    every step up to MAX_STEP, so each moment holds to 1e-15."""

    def test_normal_density_normalizes(self):
        assert abs(integrate(np.ones_like) - 1.0) <= 1e-15

    def test_polynomial(self):
        assert abs(integrate(lambda t: t**2) - 1.0) <= 1e-15
        assert abs(integrate(lambda t: t**4) - 3.0) <= 1e-15

    def test_sine(self):
        assert abs(integrate(np.cos) - math.exp(-0.5)) <= 1e-15
        assert abs(integrate(lambda t: np.sin(t + 1.0)) - math.sin(1.0) * math.exp(-0.5)) <= 1e-15

    def test_zero_mean_integrand(self):
        # Odd integrands cancel between the nodes t and -t.
        assert abs(integrate(lambda t: t)) <= 1e-15
        assert abs(integrate(np.sin)) <= 1e-15

    def test_deterministic(self):
        f = lambda t: _normal_pdf(t - 0.3, 0.5) * np.cos(3.0 * t)
        first = integrate(f, 0.0123)
        assert all(integrate(f, 0.0123) == first for _ in range(5))

    def test_halving_tolerance_self_consistency(self):
        # A two-bump mixture density: halving the step moves nothing.
        f = lambda t: _normal_pdf(t - 2.0, 0.04) + _normal_pdf(t + 2.0, 0.04)
        for step in (0.04, 0.02):
            assert abs(integrate(f, step) - integrate(f, step / 2.0)) <= 1e-15

    def test_narrow_spike_still_found(self):
        # A bump of width 1e-2 off the node grid, at a step a fifth of its
        # width; E[exp(-(t - mu)**2 / (2 tau**2))] has a closed form.
        mu, tau = 0.1234567, 1e-2
        value = integrate(lambda t: np.exp(-0.5 * ((t - mu) / tau) ** 2), tau / 5.0)
        exact = tau / math.sqrt(1.0 + tau**2) * math.exp(-0.5 * mu**2 / (1.0 + tau**2))
        assert math.isclose(value, exact, rel_tol=1e-14)

    def test_integrand_sees_one_array_of_nodes(self):
        seen = []

        def f(t):
            seen.append(t.copy())
            return np.zeros_like(t)

        integrate(f, 0.1)
        (nodes,) = seen
        assert np.array_equal(nodes, 0.1 * np.arange(-120, 121))

    def test_grid_equals_one_call_per_step(self):
        f = lambda t: np.log1p(np.exp(-2.0 * (1.5 + 1.3 * t)))
        steps = [0.2, 0.0123, 0.1, 0.2, 0.07]
        grid = integrate(f, np.array(steps))
        assert isinstance(grid, np.ndarray) and isinstance(integrate(f, 0.1), float)
        assert [v.hex() for v in grid.tolist()] == [integrate(f, h).hex() for h in steps]

    def test_grid_integrand_sees_rows_concatenated(self):
        seen = []

        def f(t):
            seen.append(t.copy())
            return np.zeros_like(t)

        integrate(f, np.array([0.1, 0.2]))
        (nodes,) = seen
        assert nodes.size == node_counts([0.1, 0.2]).sum()
        assert np.array_equal(nodes, np.concatenate([0.1 * np.arange(-120, 121),
                                                     0.2 * np.arange(-60, 61)]))

    def test_non_finite_integrand_rejected(self):
        f = lambda t: np.where(np.abs(t) < 0.5, np.inf, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            integrate(f)

    def test_non_finite_node_of_one_grid_row_rejected(self):
        # Finiteness is checked on each row's sum; a NaN at one node of the
        # middle row must still reach it.
        first = int(node_counts(0.2))

        def f(t):
            fx = np.ones_like(t)
            fx[first + 5] = np.nan
            return fx

        with pytest.raises(ValueError, match="non-finite"):
            integrate(f, np.array([0.2, 0.1, 0.2]))

    def test_opposite_infinities_in_one_row_rejected(self):
        # +inf and -inf in one row sum to NaN: a ValueError, not a
        # RuntimeWarning from the row sum.
        f = lambda t: np.where(t > 0.5, np.inf, np.where(t < -0.5, -np.inf, 1.0))
        with pytest.raises(ValueError, match="non-finite"):
            integrate(f)

    def test_empty_grid(self):
        out = integrate(np.cos, np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_non_elementwise_integrand_rejected(self):
        with pytest.raises(ValueError, match="elementwise"):
            integrate(lambda t: 1.0)


class TestPlogP:
    def test_limit_values(self):
        assert plogp(0.0) == 0.0
        assert plogp(1.0) == 0.0
        assert plogp(0.5) == -0.5

    def test_array_input(self):
        out = plogp(np.array([0.0, 0.5, 1.0, 2.0]))
        assert out.tolist() == [0.0, -0.5, 0.0, 2.0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            plogp(-1e-9)
        with pytest.raises(ValueError):
            plogp(np.array([0.1, -0.1]))

    @given(st.tuples(st.floats(min_value=1e-300, max_value=0.25),
                     st.floats(min_value=1e-300, max_value=0.25)))
    def test_monotone_convergence_to_zero(self, pair):
        # |p log2 p| shrinks monotonically as p drops below 1/e.
        small, large = sorted(pair)
        assert abs(plogp(small)) <= abs(plogp(large))
