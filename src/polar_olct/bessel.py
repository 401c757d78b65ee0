"""Bessel functions of the first kind: evaluation, zeros, the lambda sums.

Self-contained J_v machinery for orders v >= -1/2 (the range the polar
transforms need) in two regimes: the large-argument cosine asymptotics for
x >= max(25, 4 v^2), and below it one Miller-style downward recurrence,
with a few terms of the ascending series only at x <= 1e-3, where a
recurrence step can overflow.  A recurrence value is a function of its
order and argument alone: each argument starts the recurrence at its own
order and rescaling is exact, so orders that differ by integers are taken
for all arguments in one checked pass, which below order 9 equals
one-order calls bit for bit; `bessel_j` is its one-order case and the
J_0..J_M chain its 0..M case, so the chain equals `bessel_j` in every
regime.  One removable-point quotient J_v(x) / (x - z) at zeros z serves
both sampling kernels, and one source gives its Taylor data at the zeros:
the zero table's, or a checked pass where z are not the table's.
Positive zeros are bracketed by the sign changes of J_v on a unit-step
grid and found by Newton steps kept inside their brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .params import _check_count

__all__ = [
    "ZeroTable",
    "bessel_j",
    "bessel_jn_chain",
    "bessel_zeros",
    "lambda_sum",
]

_MIN_ORDER = -0.5
# The recurrence rescales its rows past 1e250, 58 decades short of overflow,
# and one step grows a row by up to 2 (v0 + m) / x: at x ~ 1e-300 a single
# step overflows.  At and below this argument the series takes over; above
# it a step grows a row by at most 2e3 (v0 + m), far inside that headroom.
_X_TINY = 1e-3
# Rows past 1e250 are multiplied by 2^-830 (~1.4e-250): a power of two, so
# the values do not depend on when, or how often, a row was rescaled.
_RESCALE = 2.0 ** -830
# Each argument joins the recurrence at a multiple of this order, holding
# exact zeros above it; the coarse grid keeps the seeding steps few.
_START_STEP = 8
# Rows up to this order do not lengthen the recurrence, so J_v .. J_{v+k}
# from one pass equal k+1 one-order passes for 0 <= v, v + k < 9.
_FREE_ORDER = 8


def _as_order(order) -> float:
    v = float(order)
    if not (math.isfinite(v) and v >= _MIN_ORDER - 1e-15):
        raise ValueError(f"Bessel order must be finite and >= {_MIN_ORDER}, got {v}")
    return v


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _series(v, x: np.ndarray) -> np.ndarray:
    """J_v on 0 <= x <= _X_TINY: the leading term (x/2)^v / Gamma(v+1) times
    seven terms of the ascending series in float64, whose terms fall by
    (x/2)^2 / (k |v + k|) <= 5e-7 a step, for every point alike.  `v` is a
    column of orders, broadcast against x."""
    # log Gamma(v+1) does not overflow at high order; Gamma(v+1) > 0 for v >= -1/2
    gam = np.exp(-np.vectorize(math.lgamma)(v + 1.0))
    with np.errstate(divide="ignore"):  # (x/2)^v = inf at x = 0 for v < 0
        lead = gam * (x / 2.0) ** v
    xx = (x / 2.0) ** 2
    total = term = np.ones(lead.shape)
    for k in range(1, 8):
        term = term * (-xx / (k * (v + k)))
        total = total + term
    return lead * total


def _miller_starts(x: np.ndarray, hi: int) -> np.ndarray:
    # each argument's start order, a function of x alone while hi <= _FREE_ORDER;
    # against mpmath it leaves an error below 1e-48 in rows up to order 100
    # for x up to 1500
    starts = np.cbrt(x)  # x + 15 x^(1/3) + 10, rounded up, in place
    starts *= 15.0
    starts += x
    starts += 10 + max(0, hi - _FREE_ORDER)
    starts /= _START_STEP
    np.ceil(starts, out=starts)
    starts *= _START_STEP
    return starts


def _neumann_coeffs(v0: float, count: int) -> list:
    # c_0 .. c_{count-1} of (x/2)^v0 = sum_k c_k J_{v0+2k}: c_0 = Gamma(v0+1),
    # c_k = (v0 + 2k) Gamma(v0 + k) / k!, exactly 1, 2, 2, ... at v0 = 0.
    # Gamma(v0 + k) / k! is a longdouble running product; a difference of
    # lgammas would lose ~1e-14 relative at k ~ 100.
    if v0 == 0.0:
        return [1.0] + [2.0] * (count - 1)
    c0 = math.gamma(v0 + 1.0)
    k = np.arange(1, count, dtype=np.longdouble)
    ratio = np.concatenate([[1.0], (v0 + k[1:] - 1.0) / k[1:]])
    return [c0] + ((v0 + 2.0 * k) * c0 * np.cumprod(ratio)).astype(float).tolist()


def _miller(v0: float, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """J_{v0+lo} .. J_{v0+hi} on x > 0, shape (hi-lo+1,) + x.shape.

    Downward recurrence at orders v0 + m, normalized by the Neumann sum
    (x/2)^v0 = sum_k c_k J_{v0+2k}; with v0 < 1 no c_k exceeds ~2 k^v0.
    Each argument is seeded with 1e-290 at its own start order and holds
    exact zeros above it, so its rows do not depend on the other arguments.
    Rows past 1e250 are rescaled by _RESCALE.  A step grows a row by at most
    2 (v0 + top) / min(x) + 1, so rows are checked every 16 steps, or more
    often where that growth could carry a row from 1e250 to overflow.
    """
    starts = _miller_starts(x, hi)
    top, first = int(starts.max()), int(starts.min())
    jp = np.zeros_like(x)
    jc = np.zeros_like(x)
    s = np.zeros_like(x)
    out = np.zeros((hi - lo + 1, x.size))
    growth = math.log10(2.0 * (abs(v0) + top) / float(np.min(x)) + 1.0)
    every = max(1, min(16, int(50.0 / growth)))
    coeffs = _neumann_coeffs(v0, top // 2 + 1)
    for m in range(top, 0, -1):
        if m >= first and m % _START_STEP == 0:
            jc += (starts == m) * 1e-290  # branch-free: adds 0 elsewhere
        jm = 2.0 * (v0 + m) / x  # in place from here: one new array a step
        jm *= jc
        jm -= jp
        jp = jc
        jc = jm
        k = m - 1
        if lo <= k <= hi:
            out[k - lo] = jc
        if k % 2 == 0 and k:
            # at v0 = 0 every c_k past c_0 is 2: the sum is doubled once, exactly
            s += jc if v0 == 0.0 else coeffs[k // 2] * jc
        if m % every == 0:
            big = np.abs(jc) > 1e250
            if np.any(big):
                scale = np.where(big, _RESCALE, 1.0)
                jc *= scale
                jp *= scale
                s *= scale
                out *= scale
    if v0 == 0.0:
        s += s
    s += coeffs[0] * jc
    if v0:
        out *= (x / 2.0) ** v0
    return out / s


def _cos_sin_pi(s: float):
    """cos(pi s) and sin(pi s), reduced by exact quarter turns to |pi r| <= pi/4."""
    n = round(2.0 * s)
    a = math.pi * (s - 0.5 * n)
    c, sn = math.cos(a), math.sin(a)
    return ((c, sn), (-sn, c), (-c, -sn), (sn, -c))[n % 4]


def _asymptotic(v: float, x: np.ndarray) -> np.ndarray:
    # Large-argument cosine form with the (mu - (2k-1)^2)/(8kx) term recursion.
    # The phase x - c, c = (v/2 + 1/4) pi, is never formed: rounding it would
    # cost up to ulp(x)/2, which near a zero of J_v is a large relative error.
    # cos and sin of x itself are reduced exactly and combined with those of c.
    # |term| peaks at the smallest x (rounding is monotone): t is that term, the stop test.
    mu = 4.0 * v * v
    cos_c, sin_c = _cos_sin_pi(0.5 * v + 0.25)
    cos_x, sin_x = np.cos(x), np.sin(x)
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    t, xmin = 1.0, float(np.min(x))
    for k in range(1, 40):
        term *= mu - (2 * k - 1) ** 2
        term /= 8.0 * k * x
        acc = q if k % 2 else p  # odd terms build q, even ones p, signs (-1)^(k//2)
        if k // 2 % 2:
            acc -= term
        else:
            acc += term
        t = t * (mu - (2 * k - 1) ** 2) / (8.0 * k * xmin)
        if abs(t) < 1e-18:
            break
    return np.sqrt(2.0 / (math.pi * x)) * (p * (cos_x * cos_c + sin_x * sin_c)
                                          - q * (sin_x * cos_c - cos_x * sin_c))


def _asymptotic_threshold(v: float) -> float:
    return max(25.0, 4.0 * v * v)


def _bessel_j_core(orders, x: np.ndarray) -> np.ndarray:
    """J_v(x) for each order v of `orders` (rows) on nonnegative 1-d x.

    Any real v >= -1/2.  The orders must differ by integers: one recurrence
    serves them all.  For orders 0 <= v < _FREE_ORDER + 1 the rows equal
    one-order calls on the same x bit for bit.
    """
    orders = [float(v) for v in orders]
    vmin = min(orders)
    v0 = vmin - (math.floor(vmin) if vmin >= 0 else 0)
    steps = [round(v - v0) for v in orders]
    if any(abs(v - v0 - m) > 1e-9 for v, m in zip(orders, steps)):
        raise ValueError(f"orders of one pass must differ by integers, got {orders}")
    out = np.empty((len(orders), x.size))
    tiny = x <= _X_TINY
    if tiny.any():
        out[:, tiny] = _series(np.array(orders)[:, None], x[tiny])
    thresholds = [_asymptotic_threshold(v) for v in orders]
    mid = x < max(thresholds)
    mid &= ~tiny
    if mid.any():
        lo = min(steps)
        rows = _miller(v0, x[mid], lo, max(steps))
        for i, m in enumerate(steps):
            out[i, mid] = rows[m - lo]
    for row, v, threshold in zip(out, orders, thresholds):
        asym = x >= threshold
        if asym.any():
            row[asym] = _asymptotic(v, x[asym])
    return out


def _checked_x(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} requires finite x")
    if np.any(arr < 0):
        raise ValueError(f"{name} requires x >= 0")
    return arr


def _bessel_j_rows(orders, x, name: str = "bessel_j") -> np.ndarray:
    """J_v(x) for each of `orders` (rows, differing by integers, v >= -1/2)
    on finite x >= 0 of any shape, from one recurrence pass: shape
    (len(orders),) + x.shape.  Below order 9 each row equals its one-order
    call bit for bit."""
    orders = [_as_order(v) for v in orders]
    arr = _checked_x(x, name)
    return _bessel_j_core(orders, arr.ravel()).reshape((len(orders),) + arr.shape)


def bessel_j(order, x):
    """J_v(x) for v >= -1/2 and finite x >= 0.

    Scalar or array `x`.  Against 40-digit mpmath at -1/2 <= v <= 100:
    relative error <= 1e-13 on x <= 12 wherever |J_v| > 1e-290, except
    within 1e-3 of a zero.  Above x = 12, near a zero at distance d, the
    relative error is an absolute floor over d: ~6e-17 x / d where the
    recurrence serves (x < max(25, 4 v^2)) and ~2e-16 / d where the
    asymptotic form does.  Against scipy.special.jv on x in [0, 1e3]:
    absolute error <= 3.2e-14.  Below the asymptotic threshold a value
    depends on v and x alone, never on the other arguments of the call;
    above it the term count follows the smallest argument, and the terms a
    smaller one adds are below 1e-18.  Any order returns, underflowing to 0
    where J_v is below the float range (v = 1000 on [0, 2000] raises
    nothing).  Raises ValueError off the supported domain, non-finite x
    included.
    """
    res = _bessel_j_rows((order,), x)[0]
    return float(res) if res.ndim == 0 else res


def bessel_jn_chain(x, m_max: int) -> np.ndarray:
    """J_0(x) .. J_{m_max}(x) in one downward-recurrence pass, shape
    (m_max+1,) + shape(x); each row is bessel_j's, in every regime, and
    bit for bit for m_max <= 8."""
    return _bessel_j_rows(range(_check_count("m_max", m_max, 0) + 1), x, "bessel_jn_chain")


def _zero_taylor(v: float, z: np.ndarray, jnext: np.ndarray) -> np.ndarray:
    """J_v^(k)(z) / k!, k = 1..24 (rows), at zeros z of J_v, jnext = J_{v+1}(z):
    Bessel's equation differentiated k times, from y(0) = 0, y(1) = -jnext."""
    terms, zz = 24, z * z
    y = [0.0, 0.0, 0.0, -jnext]  # y(k) is y[k + 2]
    for k in range(terms - 1):
        y.append(-((2 * k + 1) * z * y[k + 3] + (k * k + zz - v * v) * y[k + 2]
                   + 2 * k * z * y[k + 1] + k * (k - 1) * y[k]) / zz)
    return np.stack([y[k + 2] / math.factorial(k) for k in range(1, terms + 1)])


def _zero_quotient(values: np.ndarray, x: np.ndarray, z: np.ndarray, taylor: np.ndarray) -> np.ndarray:
    """J_v(x) / (x - z) for zeros z of J_v (rows) and x >= 0 (columns, 1-d),
    from values = J_v(x) and taylor = _zero_taylor(v, z, J_{v+1}(z)); smooth
    through x = z, where it is J_v'(z) = -J_{v+1}(z).

    Where |x - z| < min(1, z/5) the quotient is the Taylor polynomial of
    J_v(z + h) / h in h = x - z.  The series converges like (h/z)^k for
    non-integer v (a branch point at 0) and the derivative recursion's
    spurious solutions shrink alike, so 24 terms leave below 5^-24 ~ 1e-17
    and below 1/24!.
    """
    h = x[None, :] - z[:, None]
    near = np.abs(h) < np.minimum(1.0, z / 5.0)[:, None]
    out = values[None, :] / np.where(near, 1.0, h)
    if np.any(near):
        coeffs, hn = taylor[:, np.nonzero(near)[0]], h[near]
        acc = coeffs[-1]
        for c in coeffs[-2::-1]:
            acc = acc * hn + c
        out[near] = acc
    return out


# --------------------------------------------------------------------------
# zeros
# --------------------------------------------------------------------------

def _mcmahon(v: float, j: float) -> float:
    mu = 4.0 * v * v
    beta = (j + 0.5 * v - 0.25) * math.pi
    b8 = 8.0 * beta
    z = beta - (mu - 1.0) / b8
    z -= 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b8 ** 3)
    z -= 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * b8 ** 5)
    return z


def bessel_zeros(order, count: int) -> np.ndarray:
    """First `count` positive zeros of J_v, ascending, |J_v(z)| <= 1e-12.

    The sign changes of J_v on a unit-step grid bracket the zeros: the grid
    starts below the first zero, j_{v,1} > sqrt(v (v + 2)), and consecutive
    zeros are more than 3.1 apart for v >= -1/2.  Newton steps with
    J_v' = (v/x) J_v - J_{v+1}, both from one pass, shrink every bracket,
    bisecting wherever a step would leave it.  Each bracket stops on its own
    test, so a zero does not depend on how many others are sought.
    McMahon's expansion only sizes the grid.
    """
    v = _as_order(order)
    if _check_count("count", count, 0) == 0:
        return np.zeros(0)
    lo = max(0.05, math.sqrt(max(v, 0.0) * (max(v, 0.0) + 2.0)) * 0.98)
    n = int(math.ceil(_mcmahon(v, count + 1.0) + 2.0 - lo)) + 1
    x = f = np.empty(0)
    while True:  # grown while it holds fewer than `count` zeros
        new = lo + np.arange(x.size, max(n, x.size + 1), dtype=float)
        x, f = np.concatenate([x, new]), np.concatenate([f, _bessel_j_core((v,), new)[0]])
        exact = np.nonzero(f == 0.0)[0]
        bracket = np.nonzero(f[:-1] * f[1:] < 0)[0]
        if exact.size + bracket.size >= count:
            break
        n = 2 * x.size
    a, b, fa = x[bracket], x[bracket + 1], f[bracket]
    z = a - fa / (f[bracket + 1] - fa)  # the secant root of the unit bracket
    todo = np.arange(z.size)  # brackets still stepping
    for _ in range(40):
        zt, at, bt, fat = z[todo], a[todo], b[todo], fa[todo]
        fz, fnext = _bessel_j_core((v, v + 1.0), zt)
        same = fat * fz > 0
        at, fat, bt = np.where(same, zt, at), np.where(same, fz, fat), np.where(same, bt, zt)
        step = fz / ((v / zt) * fz - fnext)
        zt = zt - step
        zt = np.where((at <= zt) & (zt <= bt), zt, 0.5 * (at + bt))
        z[todo], a[todo], b[todo], fa[todo] = zt, at, bt, fat
        todo = todo[np.abs(step) > 1e-13 * zt]
        if not todo.size:
            break
    else:
        raise RuntimeError(f"zeros of the order-{v} Bessel function did not converge")
    # grid order: an exact zero at node i precedes the bracket [i, i+1]
    order = np.argsort(np.concatenate([exact, bracket + 0.5]), kind="stable")
    return np.concatenate([x[exact], z])[order][:count]


@dataclass(frozen=True)
class ZeroTable:
    """Cached ascending positive zeros of one order v >= -1/2, J_{v+1} and
    the Taylor coefficients there."""

    order: float
    zeros: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "order", _as_order(self.order))
        z = np.asarray(self.zeros, dtype=float)
        if z.size and (np.any(z <= 0) or np.any(np.diff(z) <= 0)):
            raise ValueError("zeros must be positive and strictly increasing")
        object.__setattr__(self, "zeros", z)
        self.zeros.setflags(write=False)

    @cached_property
    def jnext(self) -> np.ndarray:
        """J_{v+1} at the zeros (read-only), taken on first use."""
        out = _bessel_j_core((self.order + 1.0,), self.zeros)[0]
        out.setflags(write=False)
        return out

    @cached_property
    def taylor(self) -> np.ndarray:
        """_zero_taylor's coefficients at the zeros (read-only), taken on first use."""
        out = _zero_taylor(self.order, self.zeros, self.jnext)
        out.setflags(write=False)
        return out

    @classmethod
    def for_order(cls, order, count: int) -> "ZeroTable":
        count = _check_count("count", count, 0)
        v = _as_order(order)
        key = round(v, 12)
        cached = _ZERO_CACHE.get(key)
        if cached is None or cached.zeros.size < count:
            grow = max(count, 2 * (cached.zeros.size if cached else 0), 16)
            cached = cls(v, bessel_zeros(v, grow))
            _ZERO_CACHE[key] = cached
        return cached


_ZERO_CACHE: dict = {}


def _taylor_at_zeros(order, z: np.ndarray) -> np.ndarray:
    """_zero_taylor's coefficients at the 1-d zeros z of J_order: the cached
    zero table's where it holds every z, as on every grid and synthesized
    basis, at no Bessel pass.  Other z are checked, |J_v(z)| <= 1e-10 at
    z > 0, with J_v and J_{v+1} from one pass, and no table is built."""
    v = _as_order(order)
    table = _ZERO_CACHE.get(round(v, 12))
    if table is not None and np.array_equal(table.zeros[: z.size], z):
        return table.taylor[:, : z.size]  # leading zeros, as on every grid: a view
    if table is not None:
        at = np.minimum(np.searchsorted(table.zeros, z), table.zeros.size - 1)
        if np.array_equal(table.zeros[at], z):
            return table.taylor[:, at]
    bad = z <= 0
    if not bad.any():
        at_z, jnext = _bessel_j_rows((v, v + 1.0), z)
        bad = np.abs(at_z) > 1e-10
    if bad.any():
        raise ValueError(f"{float(z[np.argmax(bad)])!r} is not a zero of the order-{v:g} Bessel function")
    return _zero_taylor(v, z, jnext)


# --------------------------------------------------------------------------
# the lambda normalization sums
# --------------------------------------------------------------------------

def _lambda_truncation(x: float) -> int:
    """Default truncation for lambda_sum: the dropped tail 2 sum_{m > M} |J_m(x)|
    is below 2e-16 for x <= 1e3, since J_m(x) decays super-exponentially once m
    passes the transition region x + O(x^{1/3})."""
    x = abs(x)
    return int(math.ceil(x + 10.5 * x ** (1.0 / 3.0) + 4.0))


def lambda_sum(x, truncation: int | None = None):
    """sum_{|m| <= M} J_m(x).

    Odd +-m pairs cancel, so this is J_0 + 2 * sum of even orders; the full
    sum converges to 1 for every x.  Array input shares one truncation,
    sized for the largest argument when not given explicitly.
    """
    arr = _checked_x(x, "lambda_sum")
    m = (_lambda_truncation(float(np.max(arr, initial=0.0))) if truncation is None
         else _check_count("truncation", truncation, 0))
    chain = bessel_jn_chain(arr, m)
    out = chain[0] + 2.0 * np.sum(chain[2::2], axis=0)
    return float(out) if out.ndim == 0 else out
