"""Bessel substrate: evaluation, zeros, the normalization sum."""

import math

import numpy as np
import pytest

from polar_olct import (
    OffsetParams,
    SampleGrid,
    fourier_coefficients,
    ZeroTable,
    bessel_j,
    bessel_jn_chain,
    bessel_zeros,
    lambda_sum,
)
from polar_olct import bessel
from polar_olct.bessel import _asymptotic_threshold, _bessel_j_core, _bessel_j_rows

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
    assert abs(ZeroTable.for_order(0, 1).zeros[0] - oracle) < 1e-12


def test_first_zero_of_j1_against_series_bisection():
    oracle = bisect_zero(lambda x: series_j(1, x), 3.0, 4.0)
    assert abs(oracle - Z11) < 1e-12
    assert abs(ZeroTable.for_order(1, 1).zeros[0] - oracle) < 1e-12


def test_zero_residuals_and_monotonicity():
    for v in range(9):
        z = bessel_zeros(v, 50)
        assert z.shape == (50,)
        assert np.all(np.diff(z) > 0)
        assert np.max(np.abs(bessel_j(v, z))) <= 1e-12


def scalar_scan_zeros(v, count):
    """The one-point-at-a-time sign-change scan and bisection (reference)."""
    f = lambda x: _bessel_j_core((v,), np.array([x]))[0, 0]
    x_prev = max(0.05, math.sqrt(max(v, 0.0) * (max(v, 0.0) + 2.0)) * 0.98)
    f_prev = f(x_prev)
    found = []
    while len(found) < count:
        x = x_prev + 0.15
        fx = f(x)
        if f_prev == 0.0:
            found.append(x_prev)
        elif f_prev * fx < 0:
            found.append(bisect_zero(f, x_prev, x, iters=80))
        x_prev, f_prev = x, fx
    return np.array(found[:count])


def test_vectorized_scan_matches_scalar_scan():
    # bracketed Newton on a unit grid against bisection on a 0.15 grid
    for v, count in [(0, 9), (1, 4), (3, 4), (8, 4), (0.5, 4), (-0.5, 4)]:
        got = bessel_zeros(v, count)
        assert got.shape == (count,)
        assert np.max(np.abs(got - scalar_scan_zeros(v, count))) <= 1e-14, v
    for v, count in [(0.3, 9), (25, 6), (100, 4)]:
        ref = scalar_scan_zeros(v, count)
        assert np.max(np.abs(bessel_zeros(v, count) - ref) / ref) <= 1e-15, v


def test_zero_spacing_bounds():
    for v in [-0.5, -0.3, 0, 0.2, 0.5, 1, 4, 8]:
        z = bessel_zeros(v, 40)
        gaps = np.diff(z)
        # more than 3.1 apart: a unit-step grid holds at most one zero a step
        assert np.all(gaps > 3.1), v
        assert np.all(gaps < np.pi + 1.0)
        # far out the spacing settles to pi
        assert np.all(np.abs(gaps[20:] - np.pi) < 0.5)


def test_high_order_zeros_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    ref = [float(mpmath.besseljzero(170.5, k)) for k in (1, 2, 3)]
    assert np.max(np.abs(bessel_zeros(170.5, 3) - ref) / ref) <= 1e-15
    # besseljzero takes minutes at v = 1000: the first three sign changes of
    # mpmath's besselj on a unit grid from x = v (below the first zero),
    # each refined by mpmath's own root finder
    f = lambda x: mpmath.besselj(1000, x)
    grid = [1000.0 + k for k in range(50)]
    signs = [mpmath.sign(f(x)) for x in grid]
    brackets = [(grid[k], grid[k + 1]) for k in range(49) if signs[k] != signs[k + 1]][:3]
    ref = [float(mpmath.findroot(f, br, solver="anderson")) for br in brackets]
    assert len(ref) == 3
    assert np.max(np.abs(bessel_zeros(1000, 3) - ref) / ref) <= 1e-15


@pytest.mark.parametrize("v, count", [(0, 50), (3, 1600), (40, 200), (100, 50)])
def test_zero_finder_work_bound(monkeypatch, v, count):
    # one grid evaluation, then one pass a Newton step for J_v and J_{v+1}
    calls = []

    def counted(orders, x):
        calls.append(x.size)
        return _bessel_j_core(orders, x)

    monkeypatch.setattr(bessel, "_bessel_j_core", counted)
    assert bessel_zeros(v, count).size == count
    assert len(calls) <= 8


def test_mcmahon_asymptotic_regime():
    z = bessel_zeros(0, 60)
    j = np.arange(20, 61)
    assert np.max(np.abs(z[19:] - (j - 0.25) * np.pi)) < 0.1


def test_integral_representation_cross_check():
    # (1/2pi) * integral of exp(i(n t - x sin t)) over [-pi, pi], trapezoid
    t = -np.pi + 2.0 * np.pi * np.arange(4096) / 4096
    for n in range(0, 7):
        for x in (0.5, 1.0, 5.0, 10.0):
            quad = np.mean(np.exp(1j * (n * t - x * np.sin(t))))
            assert abs(quad.real - bessel_j(n, x)) < 1e-9
            assert abs(quad.imag) < 1e-12


# integer, half-integer and irrational orders up to 100; the worst errors
# used to sit near x = 2v
ORACLE_ORDERS = (0, 1, 2, 5, 7, 10, 11, 12, 16, 20, 25, 30, 40, 50, 75, 100,
                 0.5, 11.5, 49.5, 99.5, math.pi, 10 * math.e, 50 * math.sqrt(2), 100 / 3)
ORACLE_X = np.unique(np.concatenate([np.linspace(0.0, 1e3, 4001), np.linspace(0.0, 250.0, 2501)]))


def test_bessel_j_against_scipy_jv():
    jv = pytest.importorskip("scipy.special").jv
    for v in ORACLE_ORDERS:
        assert np.max(np.abs(bessel_j(v, ORACLE_X) - jv(v, ORACLE_X))) <= 1e-13, v


def test_bessel_j_property_against_scipy_jv():
    jv = pytest.importorskip("scipy.special").jv
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # scipy's jv returns 0 below x ~ 1e-307, where J_v is still ~1e-10 at
    # small orders, so the oracle is asked for x = 0 or x >= 1e-300 only
    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.floats(0.0, 100.0), st.just(0.0) | st.floats(1e-300, 1e3))
    def check(v, x):
        assert abs(bessel_j(v, x) - jv(v, x)) <= 1e-13

    check()


def test_bessel_j_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        # around x = 2v, where the recurrence once lost digits
        for v in (20, 30, 50):
            for x in (2 * v - 0.7, 2 * v, 2 * v + 0.3):
                assert abs(bessel_j(v, x) - float(mpmath.besselj(v, x))) <= 1e-14, (v, x)
        # far below the turning point, where the series stopped on an
        # absolute floor and lost the value
        for v, x in ((30, 0.5), (60, 5.0), (100, 11.9), (150, 11.9)):
            ref = mpmath.besselj(v, x)
            assert abs(bessel_j(v, x) - ref) <= 1e-13 * abs(ref), (v, x)
        # relative error on x <= 12, away from zeros (Newton distance
        # |J_v / J_v'| >= 1e-3) and wherever J_v is a normal float
        rng = np.random.default_rng(8)
        xs = np.concatenate([np.geomspace(1e-6, 12.0, 30), [1e-3, 1.001e-3], rng.uniform(0.0, 12.0, 30)])
        for v in (-0.5, 0, 0.1, 1, math.pi, 7, 11.9, 20, 30.3, 45, 60, 77.7, 100):
            for x, got in zip(xs, bessel_j(v, xs)):
                ref = mpmath.besselj(v, x)
                slope = mpmath.besselj(v - 1, x) - v / x * ref
                if abs(ref) > 1e-290 and abs(ref) >= 1e-3 * abs(slope):
                    assert abs(got - ref) <= 1e-13 * abs(ref), (v, x)
        # 1.16e-3 past a zero of J_12 near 787.66: the asymptotic form used to
        # round its phase x - c, 1.5e-11 off here (scipy's jv: 3.7e-15)
        x = float(mpmath.besseljzero(12, 245)) + 1.16e-3
        ref = mpmath.besselj(12, x)
        assert abs(bessel_j(12, x) - ref) <= 1e-12 * abs(ref)
        # near zeros above x = 12 the relative error is an absolute floor over
        # the distance d to the zero: ~6e-17 x / d for the recurrence, below
        # max(25, 4 v^2), and ~2e-16 / d for the asymptotic form above it
        for v, first, last in ((0, 5, 40), (1, 5, 70), (3, 5, 70), (7.3, 10, 60), (2.5, 80, 600),
                               (12, 90, 600), (30.5, 330, 900)):
            for k in range(first, last, max(1, (last - first) // 4)):
                z = mpmath.besseljzero(v, k)
                floor = 1e-16 * float(z) if z < _asymptotic_threshold(v) else 5e-16
                for d in (1e-4, -1.16e-3, 3e-2, -0.4):
                    ref = mpmath.besselj(v, float(z) + d)
                    assert abs(bessel_j(v, float(z) + d) - ref) * abs(d) <= floor * abs(ref), (v, k, d)
    # above order ~170 Gamma(v+1) overflows a float, the value underflows
    assert bessel_j(500, 1.0001) == 0.0
    wide = bessel_j(1000, np.linspace(0.0, 2000.0, 4001))
    assert np.all(np.isfinite(wide)) and np.max(np.abs(wide)) < 0.07


def test_asymptotic_regime_from_its_threshold_against_mpmath():
    # the Hankel expansion serves low orders from x = 25 (7e-17 measured)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for v in (-0.5, 0, 0.5, 1, 2, 2.5, 3, 5, 7):
            xs = np.linspace(_asymptotic_threshold(v), 220.0, 120)
            for x, got in zip(xs, bessel_j(v, xs)):
                assert abs(got - mpmath.besselj(v, x)) <= 2e-16, (v, x)


def test_asymptotic_values_independent_of_call_mates():
    # a value is the same alone and beside any other arguments, in every
    # regime: each argument starts its own recurrence and rescaling is exact
    x = np.linspace(0.5, 30.0, 200)
    assert np.array_equal(bessel_j(0, np.append(x, 200.0))[:-1], bessel_j(0, x))
    # one large mate used to lengthen every recurrence of its call and moved
    # 137 of these values by up to 8.2e-15
    x = np.linspace(0.5, 5.0, 200)
    assert np.array_equal(bessel_j(0, np.append(x, 24.9))[:-1], bessel_j(0, x))
    rng = np.random.default_rng(15)
    for v in (-0.5, 0, 1, 2.5, 3, 7, 12.5):
        mates = np.concatenate([rng.uniform(0.0, 1e3, 150), rng.uniform(0.0, 1e-3, 5)])
        far = rng.uniform(_asymptotic_threshold(v), 1e3, 150)
        near = np.concatenate([rng.uniform(1e-3, 25.0, 150), rng.uniform(0.0, 1e-3, 5)])
        for x in (far, near):
            alone = bessel_j(v, x)
            assert np.array_equal(bessel_j(v, np.concatenate([mates, x]))[155:], alone), v
            assert np.array_equal([bessel_j(v, xi) for xi in x[::10]], alone[::10]), v


@pytest.mark.parametrize("v", [0, 0.5, 2.3, 5])
def test_one_pass_rows_equal_single_order_calls(v):
    # series, recurrence and asymptotic points alike: the orders v..v+3 of
    # one pass are the four one-order values, bit for bit
    x = np.concatenate([[0.0, 1e-5, 1e-3], np.geomspace(1.001e-3, 3e3, 400)])
    rows = _bessel_j_rows([v + k for k in range(4)], x)
    for k, row in enumerate(rows):
        assert np.array_equal(row, bessel_j(v + k, x)), k


@pytest.mark.parametrize("v", [0, 1, 2.5, 7, 40])
def test_zeros_independent_of_table_size(v):
    # each bracket stops its Newton steps on its own test
    assert np.array_equal(bessel_zeros(v, 400)[:16], bessel_zeros(v, 16))


def test_zeros_against_scipy_jn_zeros():
    jn_zeros = pytest.importorskip("scipy.special").jn_zeros
    for v, count in [(0, 50), (7, 50), (13, 50), (25, 50), (64, 50), (100, 50), (40, 200)]:
        assert np.max(np.abs(bessel_zeros(v, count) - jn_zeros(v, count))) <= 1e-12, v


def test_half_integer_closed_forms():
    x = np.linspace(0.05, 80.0, 400)
    exact = np.sqrt(2.0 / (np.pi * x)) * np.sin(x)
    assert np.max(np.abs(bessel_j(0.5, x) - exact)) < 1e-12
    z = bessel_zeros(0.5, 30)
    assert np.max(np.abs(z - np.arange(1, 31) * np.pi)) < 1e-12
    zc = bessel_zeros(-0.5, 30)
    assert np.max(np.abs(zc - (np.arange(1, 31) - 0.5) * np.pi)) < 1e-12


def test_chain_consistent_with_scalar_evaluation():
    # up to order 8 the chain's rows are bessel_j's to the bit in all three
    # regimes: the series (x <= 1e-3), the recurrence and, from x = 25, the
    # asymptotic form
    x = np.array([1e-30, 1e-3, 0.05, 0.7, 3.3, 24.9, 25.0, 40.0, 300.0, 1000.0])
    for m_max in (0, 1, 2, 5, 8):
        chain = bessel_jn_chain(x, m_max)
        assert chain.shape == (m_max + 1, x.size)
        for m in range(m_max + 1):
            assert np.array_equal(chain[m], bessel_j(m, x)), (m_max, m)
    assert np.array_equal(bessel_jn_chain(3.3, 4), [bessel_j(m, 3.3) for m in range(5)])
    chain = bessel_jn_chain(x, 12)
    for m in range(13):
        assert np.max(np.abs(chain[m] - bessel_j(m, x))) < 1e-13
    # near x = 1 a step grows a row by ~2 m_start = 7,500 here; the
    # rescaling has to keep pace or the rows overflow
    wide = np.array([1.0001, 3000.0])
    chain = bessel_jn_chain(wide, 500)
    for m in range(0, 151, 25):
        assert np.max(np.abs(chain[m] - bessel_j(m, wide))) < 1e-13


@pytest.mark.parametrize("call, message", [
    (lambda: fourier_coefficients(lambda r, th: r + 0.0 * th, -1),
     "n_max must be a non-negative integer, got -1"),
    (lambda: lambda_sum(1.0, truncation=2.7), "truncation must be a non-negative integer, got 2.7"),
    (lambda: lambda_sum(1.0, truncation=-1), "truncation must be a non-negative integer, got -1"),
    (lambda: ZeroTable.for_order(0, 2.5), "count must be a non-negative integer, got 2.5"),
    (lambda: bessel_zeros(0, 2.5), "count must be a non-negative integer, got 2.5"),
    (lambda: bessel_zeros(0, -1), "count must be a non-negative integer, got -1"),
    (lambda: bessel_jn_chain(np.array([1.0]), 2.5), "m_max must be a non-negative integer, got 2.5"),
], ids=["fourier_n_max", "lambda_float", "lambda_negative", "zero_table", "zeros_float",
        "zeros_negative", "jn_chain"])
def test_counts_are_checked_in_one_line(call, message):
    # a count that is not a non-negative integer is refused by name, where
    # it used to run truncated, return nothing or raise a bare TypeError
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(-0.75, 1.0)
    checked = (lambda x: bessel_j(0, x), lambda x: bessel_jn_chain(np.array([1.0, x]), 4), lambda_sum)
    for fn in checked:
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                fn(bad)
        with pytest.raises(ValueError, match="x >= 0"):
            fn(-1.0)
    with pytest.raises(ValueError, match="m_max must be a non-negative integer, got -1"):
        bessel_jn_chain(np.array([1.0]), -1)
    assert bessel_zeros(0, 0).size == 0
    with pytest.raises(ValueError):
        ZeroTable.for_order(-0.75, 3)
    # a negative count must not slice the cached table from its end
    for bad in (-1, -3):
        with pytest.raises(ValueError, match=f"count must be a non-negative integer, got {bad}"):
            ZeroTable.for_order(0, bad)
    with pytest.raises(ValueError, match="order must be finite and >= -0.5"):
        ZeroTable(-1.0, np.array([2.0]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="order must be finite"):
            bessel_j(bad, 1.0)
        with pytest.raises(ValueError, match="order must be finite"):
            bessel_zeros(bad, 3)


def test_zero_table_cached_and_immutable():
    t1 = ZeroTable.for_order(2, 10)
    t2 = ZeroTable.for_order(2, 5)
    assert t2.zeros.size >= 5
    with pytest.raises(ValueError):
        ZeroTable(0.0, np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        t1.zeros[0] = 0.0
    assert t1.jnext is t1.jnext
    with pytest.raises(ValueError):
        t1.jnext[0] = 0.0
    assert t1.taylor is t1.taylor
    assert t1.taylor.shape == (24, t1.zeros.size)
    assert np.array_equal(t1.taylor[0], -t1.jnext)
    with pytest.raises(ValueError):
        t1.taylor[0, 0] = 0.0


@pytest.mark.parametrize("v", [0, 1, 2.5, 40])
def test_zero_table_jnext_against_scipy_jv(v):
    jv = pytest.importorskip("scipy.special").jv
    table = ZeroTable.for_order(v, 200)
    assert table.jnext.shape == table.zeros.shape
    assert np.max(np.abs(table.jnext - jv(v + 1.0, table.zeros))) <= 3.2e-14


def test_taylor_at_zeros_reads_a_warm_table(bessel_core_calls):
    # any zeros the cached table holds, a single one past the first
    # included, take its Taylor columns and no Bessel pass
    table = ZeroTable.for_order(1, 16)
    table.taylor
    bessel_core_calls.clear()
    for at in ([1], [3, 0, 7]):
        assert np.array_equal(bessel._taylor_at_zeros(1, table.zeros[at]), table.taylor[:, at])
    assert bessel_core_calls == []


def test_taylor_at_zeros_builds_no_table_for_other_abscissae(bessel_core_calls):
    # with no table of order 0.37 cached, its second and third zeros and a
    # non-zero each take one checked pass, and no table is built
    zeros = bessel_zeros(0.37, 3)[1:]
    cached = len(bessel._ZERO_CACHE)
    bessel_core_calls.clear()
    got = bessel._taylor_at_zeros(0.37, zeros)
    jnext = _bessel_j_rows((0.37, 1.37), zeros)[1]
    assert np.array_equal(got, bessel._zero_taylor(0.37, zeros, jnext))
    with pytest.raises(ValueError, match=r"^2\.7 is not a zero of the order-0\.37 "):
        bessel._taylor_at_zeros(0.37, np.array([2.7]))
    assert bessel_core_calls == [(0.37, 1.37)] * 3
    assert len(bessel._ZERO_CACHE) == cached


def test_normalized_zeros():
    # the sampling abscissae b z / omega, as the sampling grids lay them out
    p1 = OffsetParams(0.0, 1.0, -1.0, 0.0)
    p2 = OffsetParams(0.0, 2.0, -0.5, 0.0)
    assert abs(ZeroTable.for_order(0, 1).zeros[0] - Z01) < 1e-12
    assert abs(SampleGrid.theorem2(p2, 1.0, 0, 1).alphas(0)[0] - 2.0 * Z01) < 1e-12
    arr = SampleGrid("theorem2", p1, np.pi, 0, {1: ZeroTable.for_order(1, 5).zeros[:5]}).alphas(0)
    assert arr.shape == (5,)
    assert abs(arr[0] - Z11 / np.pi) < 1e-12
    with pytest.raises(ValueError):
        SampleGrid.theorem2(p1, 0.0, 0, 1)


def test_lambda_sum_values():
    assert lambda_sum(0.0, 7) == 1.0
    assert abs(lambda_sum(5.0, 0) - series_j(0, 5.0)) < 1e-13
    assert abs(lambda_sum(5.0, 0) - J0_AT_5) < 1e-13
    assert abs(lambda_sum(5.0, 40) - 1.0) < 1e-12


def test_lambda_sum_default_truncation():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 30.0, 50)
    assert np.max(np.abs(lambda_sum(x) - 1.0)) <= 1e-10
    # the default truncation follows the Bessel decay out to x = 1e3
    for xv in np.concatenate([np.linspace(0.0, 30.0, 31), np.geomspace(30.0, 1e3, 25)]):
        assert abs(lambda_sum(xv) - 1.0) <= 1e-13
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
