"""The numpy ports of ``maskmodes._special`` return ``scipy.special``'s bits.

Each property draws arguments from the range the package calls the function
on and compares the float64 bits with scipy's, which stays the oracle.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, eval_hermite, gammaln, j1, xlogy

from maskmodes import _special
from maskmodes.diffraction import jinc


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (got, want)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# the rational form and the asymptotic form meet at |x| = 5
_EDGE = st.sampled_from([5.0, np.nextafter(5.0, 0.0), np.nextafter(5.0, 6.0), 4.999, 5.001])
_TINY = st.floats(-1e-6, 1e-6, allow_nan=False)
_J1_ARGS = st.lists(st.one_of(_FINITE, _EDGE, _EDGE.map(lambda v: -v), _TINY,
                              st.floats(-60.0, 60.0)), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(_J1_ARGS)
def test_j1_matches_scipy(values):
    x = np.array(values)
    _same_bits(_special.j1(x), j1(x))
    _same_bits(_special.j1(x[0]), j1(x[0]))


def _jinc_reference(x):
    small = np.abs(x) < 1e-6
    out = np.empty_like(x)
    out[small] = 0.5 - x[small] ** 2 / 16.0
    out[~small] = j1(x[~small]) / x[~small]
    return out


@settings(max_examples=300, deadline=None)
@given(_J1_ARGS)
def test_jinc_matches_j1_over_x(values):
    x = np.array(values)
    _same_bits(jinc(x), _jinc_reference(x))


def test_j1_of_signed_zeros_and_non_finite_arguments():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    _same_bits(_special.j1(x), j1(x))


def test_log_factorial_matches_gammaln_up_to_5000():
    n = np.arange(5001)
    _same_bits(_special.log_factorial(n), gammaln(n + 1))
    # scalars, and a table that has already grown past them
    for k in (0, 1, 12, 13, 999, 1000, 5000):
        _same_bits(_special.log_factorial(k), gammaln(k + 1))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 10**9), min_size=1, max_size=8))
def test_log_factorial_matches_gammaln_at_large_integers(values):
    # past the table's cap the values are evaluated per call, with the same formula;
    # at 9170, 19143 and 94869 np.log rounds differently from the C library's log
    n = np.array(values + [9169, 19142, 94868, _special._TABLE_CAP, 10**8, 10**8 + 1])
    _same_bits(_special.log_factorial(n), gammaln(n + 1))


@pytest.mark.parametrize("y", [0.0, 1.0, 5e-324, 1e-300, 0.3, np.nan, np.inf])
def test_xlogy_matches_scipy_without_a_warning(y):
    x = np.arange(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _same_bits(_special.xlogy(x, y), xlogy(x, y))
        _same_bits(_special.xlogy(0, y), xlogy(0, y))
        # one row per count, one column per y: the splitter scan's layout
        ys = np.array([y, 0.0, 1.0, 0.5])
        _same_bits(_special.xlogy(x[:, None], ys), xlogy(x[:, None], ys))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, allow_infinity=False)),
                min_size=1, max_size=60))
def test_xlogy_matches_scipy_at_any_non_negative_y(values):
    # the logarithms come from the C library, where np.log rounds some arguments differently
    x, y = np.arange(4)[:, None], np.array(values)
    _same_bits(_special.xlogy(x, y), xlogy(x, y))
    _same_bits(_special.xlogy(3, values[0]), xlogy(3, values[0]))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 60), st.lists(st.floats(-1000.0, 1000.0), min_size=1, max_size=20))
def test_hermite_matches_eval_hermite(n, values):
    x = np.array(values)
    _same_bits(_special.hermite(n, x), eval_hermite(n, x))


@pytest.mark.parametrize("n", [171, 400, 5000])
def test_hermite_at_orders_that_overflow(n):
    # the recurrence stops once every value is nan; finite values keep their bits
    x = np.linspace(-10.0, 10.0, 64)
    got, want = _special.hermite(n, x), eval_hermite(n, x)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    _same_bits(got[finite], want[finite])


def test_hermite_of_order_one_is_not_twice_x():
    # scipy takes sqrt(2) x times 2**0.5, which is 2 x but for the last bit
    x = np.linspace(-3.0, 3.0, 401)
    _same_bits(_special.hermite(1, x), eval_hermite(1, x))
    assert not np.array_equal(eval_hermite(1, x), 2.0 * x)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 19), st.integers(-19, 19),
       st.lists(st.floats(0.0, 80.0), min_size=1, max_size=20))
def test_genlaguerre_matches_eval_genlaguerre(p, l, values):
    # scipy's binomial leaves its product loop once p and |l| both reach 20
    x = np.array(values)
    _same_bits(_special.genlaguerre(p, abs(l), x), eval_genlaguerre(p, abs(l), x))


def test_genlaguerre_beyond_the_product_loop_takes_the_exact_binomial():
    x = np.array([0.0])
    assert _special.genlaguerre(20, 20, x)[0] == float(math.comb(40, 20))
    assert _special.genlaguerre(20, 20, x)[0] == pytest.approx(eval_genlaguerre(20, 20, x)[0],
                                                               rel=1e-13)
