"""Bessel functions of the first kind: evaluation, zeros, sampling abscissae.

Self-contained J_v machinery for orders v >= -1/2 (the range the polar
transforms need): ascending series at small argument, Miller-style downward
recurrence at moderate argument, and the large-argument cosine asymptotics.
Positive zeros are located from McMahon estimates and polished by Newton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BesselOrder",
    "ZeroTable",
    "bessel_j",
    "bessel_j_prime",
    "bessel_jn_chain",
    "bessel_zero",
    "bessel_zeros",
    "normalized_zero",
    "normalized_zeros",
    "lambda_sum",
    "lambda_truncation",
]

_MIN_ORDER = -0.5


def _series_cutoff(v: float) -> float:
    return max(12.0, 2.0 * abs(v))


def _is_integer(v: float) -> bool:
    return float(v).is_integer()


def _validate_order(v: float, minimum: float = _MIN_ORDER) -> float:
    v = float(v)
    if v < minimum - 1e-15:
        raise ValueError(f"Bessel order must be >= {minimum}, got {v}")
    return v


@dataclass(frozen=True)
class BesselOrder:
    """A validated transform order, v >= -1/2.

    Integral values take the integer evaluation path; everything else goes
    through the real-order path.  Both paths agree to ~1e-12 on integers.
    """

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _validate_order(self.value))

    @property
    def is_integer(self) -> bool:
        return _is_integer(self.value)

    def __float__(self) -> float:
        return self.value


def _as_order(order) -> float:
    if isinstance(order, BesselOrder):
        return order.value
    return _validate_order(order)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _series(v: float, x: np.ndarray) -> np.ndarray:
    # Ascending series in extended precision; the alternating terms peak near
    # (x/2)^(v+2k)/k!^2 and would cost ~4 digits in float64 at x ~ 16.
    xl = x.astype(np.longdouble)
    half = xl / 2.0
    out = np.zeros_like(xl)
    pos = xl > 0
    if v == 0:
        out[~pos] = 1.0
    elif v < 0:
        # (x/2)^v diverges at the origin for -1/2 <= v < 0
        out[~pos] = np.inf
    if np.any(pos):
        hp = half[pos]
        # Gamma(v+1) is negative on part of the internal order range; keep its
        # sign rather than going through lgamma.
        gam = math.gamma(v + 1.0)
        t = (np.exp(v * np.log(hp)) / gam).astype(np.longdouble)
        total = t.copy()
        xx = hp * hp
        for k in range(1, 400):
            t = -t * xx / (k * (v + k))
            total = total + t
            if np.all(np.abs(t) <= 1e-24 * (np.abs(total) + 1e-30)):
                break
        out[pos] = total
    return out.astype(np.float64)


def _miller_start(xmax: float, extra: int) -> int:
    m = int(xmax + 15.0 * xmax ** (1.0 / 3.0) + 30) + extra
    return m + (m % 2)


def _miller_integer(n: int, x: np.ndarray) -> np.ndarray:
    # Downward recurrence, normalized by J_0 + 2*sum J_{2k} = 1.
    m_start = _miller_start(float(np.max(x)), n)
    jp = np.zeros_like(x)
    jc = np.full_like(x, 1e-290)
    s = np.zeros_like(x)
    out = np.zeros_like(x)
    for m in range(m_start, 0, -1):
        jm = (2.0 * m / x) * jc - jp
        jp = jc
        jc = jm
        k = m - 1
        if k == n:
            out = jc.copy()
        if k > 0 and k % 2 == 0:
            s += 2.0 * jc
        if m % 16 == 0:
            big = np.abs(jc) > 1e250
            if np.any(big):
                scale = np.where(big, 1e-250, 1.0)
                jc *= scale
                jp *= scale
                s *= scale
                out *= scale
    s += jc
    return out / s


def _neumann_coeff(v: float, k: int) -> float:
    # (v + 2k) * Gamma(v + k) / k!  for the real-order normalization sum
    if v + k > 0:
        return (v + 2 * k) * math.exp(math.lgamma(v + k) - math.lgamma(k + 1))
    return (v + 2 * k) * math.gamma(v + k) / math.gamma(k + 1)


def _miller_real(v: float, x: np.ndarray) -> np.ndarray:
    # Downward recurrence normalized by (x/2)^v = sum_k c_k J_{v+2k}.
    m_start = _miller_start(float(np.max(x)), int(abs(v)) + 2)
    jp = np.zeros_like(x)
    jc = np.full_like(x, 1e-290)
    s = np.zeros_like(x)
    out = np.zeros_like(x)
    for m in range(m_start, 0, -1):
        jm = (2.0 * (v + m) / x) * jc - jp
        jp = jc
        jc = jm
        k = m - 1
        if k == 0:
            out = jc.copy()
        if k % 2 == 0:
            s += _neumann_coeff(v, k // 2) * jc
        if m % 16 == 0:
            big = np.abs(jc) > 1e250
            if np.any(big):
                scale = np.where(big, 1e-250, 1.0)
                jc *= scale
                jp *= scale
                s *= scale
                out *= scale
    return out * (x / 2.0) ** v / s


def _asymptotic(v: float, x: np.ndarray) -> np.ndarray:
    # Large-argument cosine form with the (mu - (2k-1)^2)/(8kx) term recursion.
    mu = 4.0 * v * v
    omega = x - 0.5 * v * math.pi - 0.25 * math.pi
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    for k in range(1, 40):
        term = term * (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if k % 2 == 1:
            q += term * (-1) ** ((k - 1) // 2)
        else:
            p += term * (-1) ** (k // 2)
        if np.all(np.abs(term) < 1e-18):
            break
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(omega) - q * np.sin(omega))


def _asymptotic_threshold(v: float) -> float:
    return max(220.0, 4.0 * v * v)


def _bessel_j_core(v: float, x: np.ndarray) -> np.ndarray:
    """J_v on nonnegative x, any real v > -3/2 (wider than the public range
    so that derivative formulas can reach one order below -1/2)."""
    out = np.empty_like(x)
    cutoff = _series_cutoff(v)
    lo = x <= cutoff
    if np.any(lo):
        out[lo] = _series(v, x[lo])
    hi = ~lo
    if np.any(hi):
        xh = x[hi]
        oh = np.empty_like(xh)
        asym = xh >= _asymptotic_threshold(v)
        if np.any(asym):
            oh[asym] = _asymptotic(v, xh[asym])
        mid = ~asym
        if np.any(mid):
            if _is_integer(v):
                n = int(round(v))
                if n >= 0:
                    oh[mid] = _miller_integer(n, xh[mid])
                else:
                    sign = -1.0 if (-n) % 2 else 1.0
                    oh[mid] = sign * _miller_integer(-n, xh[mid])
            else:
                oh[mid] = _miller_real(v, xh[mid])
        out[hi] = oh
    return out


def bessel_j(order, x):
    """J_v(x) for v >= -1/2 and finite x >= 0.

    Scalar or array `x`.  Validated against scipy.special.jv on x in
    [0, 1e3]: absolute error ~1e-13 or better for orders v <= 10 (5e-14 at
    v = 10).  Above that the error grows with the order, worst near
    x = 2v: 2.5e-13 at v = 11, 1.3e-12 at 12, 1e-9 at 16, 8e-7 at 20.
    Raises ValueError off the supported domain, non-finite x included.
    """
    v = _as_order(order)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("bessel_j requires finite x")
    if np.any(arr < 0):
        raise ValueError("bessel_j requires x >= 0")
    scalar = arr.ndim == 0
    res = _bessel_j_core(v, np.atleast_1d(arr).ravel())
    return float(res[0]) if scalar else res.reshape(arr.shape)


def _bessel_j_signed_int(n: int, x: np.ndarray) -> np.ndarray:
    # Integer order of any sign via J_{-n} = (-1)^n J_n.
    if n >= 0:
        return _bessel_j_core(float(n), x)
    sign = -1.0 if (-n) % 2 else 1.0
    return sign * _bessel_j_core(float(-n), x)


def bessel_j_prime(order, x):
    """dJ_v/dx via the two-sided recurrence (J_{v-1} - J_{v+1})/2."""
    v = _as_order(order)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).astype(float).ravel()
    if _is_integer(v):
        lower = _bessel_j_signed_int(int(round(v)) - 1, flat)
    else:
        lower = _bessel_j_core(v - 1.0, flat)
    upper = _bessel_j_core(v + 1.0, flat)
    res = 0.5 * (lower - upper)
    return float(res[0]) if scalar else res.reshape(arr.shape)


def bessel_jn_chain(x, m_max: int) -> np.ndarray:
    """J_0(x) .. J_{m_max}(x) in one downward-recurrence pass.

    Returns shape (m_max+1,) + shape(x).
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ValueError("bessel_jn_chain requires finite x")
    if np.any(arr < 0):
        raise ValueError("bessel_jn_chain requires x >= 0")
    flat = arr.ravel()
    out = np.zeros((m_max + 1, flat.size))
    # Mixed magnitudes break a shared downward recurrence (growth per step
    # scales with m/x), so small arguments take the series per order.
    pos = flat > 1.0
    if np.any(~pos):
        xs = flat[~pos]
        for m in range(m_max + 1):
            out[m, ~pos] = _series(float(m), xs)
    if np.any(pos):
        xp = flat[pos]
        m_start = _miller_start(float(np.max(xp)), m_max)
        jp = np.zeros_like(xp)
        jc = np.full_like(xp, 1e-290)
        s = np.zeros_like(xp)
        chain = np.zeros((m_max + 1, xp.size))
        for m in range(m_start, 0, -1):
            jm = (2.0 * m / xp) * jc - jp
            jp = jc
            jc = jm
            k = m - 1
            if k <= m_max:
                chain[k] = jc
            if k > 0 and k % 2 == 0:
                s += 2.0 * jc
            if m % 8 == 0:
                big = np.abs(jc) > 1e230
                if np.any(big):
                    scale = np.where(big, 1e-230, 1.0)
                    jc *= scale
                    jp *= scale
                    s *= scale
                    chain *= scale
        s += jc
        chain /= s
        out[:, pos] = chain
    return out.reshape((m_max + 1,) + arr.shape)


# --------------------------------------------------------------------------
# zeros
# --------------------------------------------------------------------------

def _mcmahon(v: float, j: np.ndarray) -> np.ndarray:
    mu = 4.0 * v * v
    beta = (j + 0.5 * v - 0.25) * math.pi
    b8 = 8.0 * beta
    z = beta - (mu - 1.0) / b8
    z -= 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b8 ** 3)
    z -= 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * b8 ** 5)
    return z


def _newton_polish(v: float, z: np.ndarray, iters: int = 30) -> np.ndarray:
    z = z.copy()
    for _ in range(iters):
        f = _bessel_j_core(v, z)
        fp = bessel_j_prime(v, z)
        step = f / np.where(fp == 0.0, 1.0, fp)
        step = np.clip(step, -0.8, 0.8)
        z = z - step
        if np.all(np.abs(f) < 1e-13):
            break
    return z


def _scan_low_zeros(v: float, count: int) -> np.ndarray:
    # Sign-change scan on a 0.15 grid for the first zeros, where McMahon can
    # be off: the grid up to McMahon(count + 1) + 2 in one call, doubled
    # while it holds fewer than `count` zeros, then one joint bisection.
    lo = max(0.05, math.sqrt(max(v, 0.0) * (max(v, 0.0) + 2.0)) * 0.98)
    n = int(math.ceil((_mcmahon(v, np.array([count + 1.0]))[0] + 2.0 - lo) / 0.15)) + 1
    x = f = np.empty(0)
    while True:
        new = lo + 0.15 * np.arange(x.size, min(max(n, x.size + 1), 20001))
        x, f = np.concatenate([x, new]), np.concatenate([f, _bessel_j_core(v, new)])
        exact = np.nonzero(f == 0.0)[0]
        bracket = np.nonzero(f[:-1] * f[1:] < 0)[0]
        if exact.size + bracket.size >= count or x.size > 20000:
            break
        n = 2 * x.size
    a, b, fa = x[bracket], x[bracket + 1], f[bracket]
    for _ in range(80):
        mid = 0.5 * (a + b)
        if np.all((mid == a) | (mid == b)):
            break  # every bracket is down to adjacent floats
        fm = _bessel_j_core(v, mid)
        left = fa * fm <= 0
        b = np.where(left, mid, b)
        a, fa = np.where(left, a, mid), np.where(left, fa, fm)
    # grid order: an exact zero at node i precedes the bracket [i, i+1]
    order = np.argsort(np.concatenate([exact, bracket + 0.5]), kind="stable")
    return np.concatenate([x[exact], 0.5 * (a + b)])[order][:count]


def bessel_zeros(order, count: int) -> np.ndarray:
    """First `count` positive zeros of J_v, ascending, |J_v(z)| <= 1e-12."""
    v = _as_order(order)
    if count < 1:
        return np.zeros(0)
    n_scan = min(count, 4)
    low = _scan_low_zeros(v, n_scan)
    low = _newton_polish(v, low)
    if count > n_scan:
        idx = np.arange(n_scan + 1, count + 1, dtype=float)
        z = _newton_polish(v, _mcmahon(v, idx))
        zeros = np.concatenate([low, z])
    else:
        zeros = low
    # Polished zeros must interlace correctly; re-derive any stragglers.
    bad = np.nonzero(
        (np.abs(_bessel_j_core(v, zeros)) > 1e-12)
        | np.concatenate([[False], np.diff(zeros) < 1.5])
    )[0]
    if bad.size:
        full = _scan_low_zeros(v, count)
        zeros = _newton_polish(v, full)
    return zeros


def bessel_zero(order, index: int) -> float:
    """The index-th positive zero (index >= 1) of J_v."""
    if index < 1:
        raise ValueError("zero index must be >= 1")
    return float(ZeroTable.for_order(order, index).zeros[index - 1])


@dataclass(frozen=True)
class ZeroTable:
    """Cached ascending positive zeros of one order."""

    order: BesselOrder
    zeros: np.ndarray = field(repr=False)

    def __post_init__(self):
        z = np.asarray(self.zeros, dtype=float)
        if z.size and (np.any(z <= 0) or np.any(np.diff(z) <= 0)):
            raise ValueError("zeros must be positive and strictly increasing")
        object.__setattr__(self, "zeros", z)
        self.zeros.setflags(write=False)

    @classmethod
    def for_order(cls, order, count: int) -> "ZeroTable":
        v = _as_order(order)
        key = round(v, 12)
        cached = _ZERO_CACHE.get(key)
        if cached is None or cached.zeros.size < count:
            grow = max(count, 2 * (cached.zeros.size if cached else 0), 16)
            cached = cls(BesselOrder(v), bessel_zeros(v, grow))
            _ZERO_CACHE[key] = cached
        return cached


_ZERO_CACHE: dict = {}


def normalized_zero(params, omega: float, order, index: int) -> float:
    """Sampling abscissa b * z_{v,index} / omega."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return params.b * bessel_zero(order, index) / omega


def normalized_zeros(params, omega: float, order, count: int) -> np.ndarray:
    if omega <= 0:
        raise ValueError("omega must be positive")
    return params.b * ZeroTable.for_order(order, count).zeros[:count] / omega


# --------------------------------------------------------------------------
# the lambda normalization sums
# --------------------------------------------------------------------------

def lambda_truncation(x: float) -> int:
    """Default truncation for lambda_sum; J_m(x) decays super-exponentially
    once m exceeds x."""
    return int(math.ceil(abs(x))) + 30


def lambda_sum(x, truncation: int | None = None):
    """sum_{|m| <= M} J_m(x).

    Odd +-m pairs cancel, so this is J_0 + 2 * sum of even orders; the full
    sum converges to 1 for every x.  Array input shares one truncation,
    sized for the largest argument when not given explicitly.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    if np.any(flat < 0):
        raise ValueError("lambda_sum requires x >= 0")
    m = lambda_truncation(float(np.max(flat, initial=0.0))) if truncation is None else int(truncation)
    if m < 0:
        raise ValueError("truncation must be >= 0")
    if m == 0:
        out = _bessel_j_core(0.0, flat)
    else:
        chain = bessel_jn_chain(flat, m)
        out = chain[0] + 2.0 * np.sum(chain[2 : m + 1 : 2], axis=0)
    res = out.reshape(np.atleast_1d(arr).shape)
    return float(res[0]) if scalar else res.reshape(arr.shape)
