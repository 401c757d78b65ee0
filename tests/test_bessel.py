"""Bessel substrate: evaluation, zeros, the normalization sum."""

import math

import numpy as np
import pytest

from polar_olct import (
    BesselOrder,
    OffsetParams,
    ZeroTable,
    bessel_j,
    bessel_j_prime,
    bessel_jn_chain,
    bessel_zero,
    bessel_zeros,
    lambda_sum,
    normalized_zero,
    normalized_zeros,
)
from polar_olct.bessel import _bessel_j_signed_int

# frozen from the bisection-on-series oracles below
Z01 = 2.404825557695773
Z11 = 3.831705970207512
J0_AT_5 = -0.17759677131433835


def series_j(n, x, terms=60):
    """Independent ascending-series oracle (plain float arithmetic)."""
    term = (x / 2.0) ** n / math.factorial(n)
    total = term
    for k in range(1, terms):
        term *= -(x / 2.0) ** 2 / (k * (n + k))
        total += term
    return total


def bisect_zero(f, lo, hi, iters=100):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_value_at_origin():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(3, 0.0) == 0.0


def test_first_zero_of_j0_against_series_bisection():
    oracle = bisect_zero(lambda x: series_j(0, x), 2.0, 3.0)
    assert abs(oracle - Z01) < 1e-12
    assert abs(bessel_j(0, Z01)) < 1e-12
    assert abs(bessel_zero(0, 1) - oracle) < 1e-12


def test_first_zero_of_j1_against_series_bisection():
    oracle = bisect_zero(lambda x: series_j(1, x), 3.0, 4.0)
    assert abs(oracle - Z11) < 1e-12
    assert abs(bessel_zero(1, 1) - oracle) < 1e-12


def test_zero_residuals_and_monotonicity():
    for v in range(9):
        z = bessel_zeros(v, 50)
        assert z.shape == (50,)
        assert np.all(np.diff(z) > 0)
        assert np.max(np.abs(bessel_j(v, z))) <= 1e-12


def test_zero_spacing_bounds():
    for v in [0, 1, 4, 8, 0.5, -0.5]:
        z = bessel_zeros(v, 40)
        gaps = np.diff(z)
        assert np.all(gaps < np.pi + 1.0)
        # far out the spacing settles to pi
        assert np.all(np.abs(gaps[20:] - np.pi) < 0.5)


def test_mcmahon_asymptotic_regime():
    z = bessel_zeros(0, 60)
    j = np.arange(20, 61)
    assert np.max(np.abs(z[19:] - (j - 0.25) * np.pi)) < 0.1


def test_integer_reflection():
    x = np.linspace(0.0, 50.0, 277)
    for m in range(0, 7):
        lhs = _bessel_j_signed_int(-m, x)
        rhs = (-1.0) ** m * bessel_j(m, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_integral_representation_cross_check():
    # (1/2pi) * integral of exp(i(n t - x sin t)) over [-pi, pi], trapezoid
    t = -np.pi + 2.0 * np.pi * np.arange(4096) / 4096
    for n in range(0, 7):
        for x in (0.5, 1.0, 5.0, 10.0):
            quad = np.mean(np.exp(1j * (n * t - x * np.sin(t))))
            assert abs(quad.real - bessel_j(n, x)) < 1e-9
            assert abs(quad.imag) < 1e-12


def test_integer_and_real_order_paths_agree():
    from polar_olct.bessel import _miller_real

    x = np.linspace(13.0, 150.0, 101)
    for v in (1.0, 3.0, 6.0):
        assert np.max(np.abs(_miller_real(v, x) - bessel_j(v, x))) < 1e-12


def test_half_integer_closed_forms():
    x = np.linspace(0.05, 80.0, 400)
    exact = np.sqrt(2.0 / (np.pi * x)) * np.sin(x)
    assert np.max(np.abs(bessel_j(0.5, x) - exact)) < 1e-12
    z = bessel_zeros(0.5, 30)
    assert np.max(np.abs(z - np.arange(1, 31) * np.pi)) < 1e-12
    zc = bessel_zeros(-0.5, 30)
    assert np.max(np.abs(zc - (np.arange(1, 31) - 0.5) * np.pi)) < 1e-12


def test_derivative_matches_finite_differences():
    x = np.linspace(0.5, 30.0, 50)
    h = 1e-6
    for v in (0, 1, 2.5):
        fd = (bessel_j(v, x + h) - bessel_j(v, x - h)) / (2.0 * h)
        assert np.max(np.abs(bessel_j_prime(v, x) - fd)) < 1e-8


def test_chain_consistent_with_scalar_evaluation():
    x = np.array([0.05, 0.7, 3.3, 40.0, 300.0])
    chain = bessel_jn_chain(x, 12)
    for m in range(13):
        assert np.max(np.abs(chain[m] - bessel_j(m, x))) < 1e-13


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(-0.75, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            bessel_j(0, bad)
        with pytest.raises(ValueError, match="finite"):
            bessel_jn_chain(np.array([1.0, bad]), 4)
    with pytest.raises(ValueError):
        bessel_zero(0, 0)
    with pytest.raises(ValueError):
        BesselOrder(-1.0)


def test_order_type():
    assert BesselOrder(2.0).is_integer
    assert not BesselOrder(0.5).is_integer
    assert float(BesselOrder(1.5)) == 1.5


def test_zero_table_cached_and_immutable():
    t1 = ZeroTable.for_order(2, 10)
    t2 = ZeroTable.for_order(2, 5)
    assert t2.zeros.size >= 5
    with pytest.raises(ValueError):
        ZeroTable(BesselOrder(0), np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        t1.zeros[0] = 0.0


def test_normalized_zeros():
    p1 = OffsetParams(0.0, 1.0, -1.0, 0.0)
    p2 = OffsetParams(0.0, 2.0, -0.5, 0.0)
    assert abs(normalized_zero(p1, 1.0, 0, 1) - Z01) < 1e-12
    assert abs(normalized_zero(p2, 1.0, 0, 1) - 2.0 * Z01) < 1e-12
    assert abs(normalized_zero(p1, np.pi, 1, 1) - Z11 / np.pi) < 1e-12
    arr = normalized_zeros(p1, np.pi, 1, 5)
    assert arr.shape == (5,)
    assert abs(arr[0] - Z11 / np.pi) < 1e-12
    with pytest.raises(ValueError):
        normalized_zero(p1, 0.0, 0, 1)


def test_lambda_sum_values():
    assert lambda_sum(0.0, 7) == 1.0
    assert abs(lambda_sum(5.0, 0) - series_j(0, 5.0)) < 1e-13
    assert abs(lambda_sum(5.0, 0) - J0_AT_5) < 1e-13
    assert abs(lambda_sum(5.0, 40) - 1.0) < 1e-12


def test_lambda_sum_default_truncation():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 30.0, 50)
    assert np.max(np.abs(lambda_sum(x) - 1.0)) <= 1e-10
    # explicit M >= x + 30 keeps the identity everywhere on the range
    for xv in np.linspace(0.0, 30.0, 13):
        assert abs(lambda_sum(xv, int(xv) + 30) - 1.0) <= 1e-10


def test_lambda_sum_partial_sums_within_tail_bound():
    # |sum_{|m|<=M} J_m - 1| is controlled by the dropped |J_m| tail
    for x in (3.0, 11.0, 24.0):
        for M in (2, 8, 20):
            dev = abs(lambda_sum(x, M) - 1.0)
            tail = 2.0 * sum(abs(bessel_j(m, x)) for m in range(M + 1, M + 80))
            assert dev <= tail + 1e-14


def test_lambda_sum_errors():
    with pytest.raises(ValueError):
        lambda_sum(-1.0)
    with pytest.raises(ValueError):
        lambda_sum(1.0, -2)
