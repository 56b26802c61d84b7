import numpy as np
import pytest

from conslab.errors import ParameterError
from conslab.rates import RateFit, aitken_limit, fit_loglog


@pytest.mark.parametrize("slope", [-2.0, -0.5, 0.0, 1.0, 3.0])
def test_fit_recovers_exact_power_law(slope):
    x = 2.0 ** -np.arange(1, 8)
    y = 3.7 * x ** slope
    fit = fit_loglog(x, y)
    assert fit.slope == pytest.approx(slope, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.7), abs=1e-12)
    assert fit.residual < 1e-12
    assert not fit.degenerate
    assert fit.n_points == 7


def test_fit_noisy_data_within_tolerance(rng):
    x = 2.0 ** -np.arange(2, 12)
    y = x ** 1.5 * np.exp(rng.normal(0.0, 0.05, size=x.size))
    fit = fit_loglog(x, y)
    assert fit.slope == pytest.approx(1.5, abs=0.1)
    assert fit.residual < 0.2


def test_fit_drops_nonpositive_and_nonfinite():
    x = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    y = np.array([1.0, 0.5, -1.0, np.nan, 0.0625])
    fit = fit_loglog(x, y)
    assert fit.n_points == 3
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_fit_drop_endpoints():
    x = 2.0 ** -np.arange(6)
    y = x.copy()
    y[0] = 100.0  # endpoint outlier must not matter
    fit = fit_loglog(x, y, drop_endpoints=True)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 4
    assert fit.x_max < 1.0


def test_fit_degenerate_cases():
    fit = fit_loglog(np.array([1.0]), np.array([2.0]))
    assert fit.degenerate
    assert np.isnan(fit.slope)
    fit = fit_loglog(np.array([1.0, 0.5]), np.array([0.0, -3.0]))
    assert fit.degenerate
    assert fit.n_points == 0


def test_fit_shape_mismatch_raises():
    with pytest.raises(ParameterError):
        fit_loglog(np.ones(3), np.ones(4))
    with pytest.raises(ParameterError):
        fit_loglog(np.ones((2, 2)), np.ones((2, 2)))


def test_fit_is_frozen():
    fit = fit_loglog(np.array([1.0, 0.5, 0.25]), np.array([1.0, 0.5, 0.25]))
    assert isinstance(fit, RateFit)
    with pytest.raises(AttributeError):
        fit.slope = 0.0


def test_aitken_accelerates_geometric_sequence():
    # partial sums of a geometric series converge linearly; Aitken is exact
    r = 0.5
    n = np.arange(1, 8)
    partial = (1.0 - r ** n) / (1.0 - r)
    assert aitken_limit(partial) == pytest.approx(2.0, abs=1e-12)
    raw_err = abs(partial[-1] - 2.0)
    assert abs(aitken_limit(partial) - 2.0) < 1e-6 * raw_err


def test_aitken_short_and_flat_sequences():
    assert np.isnan(aitken_limit([]))
    assert aitken_limit([4.0]) == 4.0
    assert aitken_limit([1.0, 3.0]) == 3.0
    # constant tail: second difference vanishes, fall back to last entry
    assert aitken_limit([5.0, 5.0, 5.0, 5.0]) == 5.0


def test_aitken_ignores_nonfinite_entries():
    vals = [np.nan, 1.5, 1.25, 1.125]
    # tail 1.5,1.25,1.125 halves its distance to 1.0 each step
    assert aitken_limit(vals) == pytest.approx(1.0, abs=1e-12)
