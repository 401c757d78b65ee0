"""Sampling grids and reconstruction series on Bessel-zero abscissae.

Radial samples sit at normalized zeros alpha = b z / omega, azimuthal
samples at 2K+1 uniform angles.  All four modes run one series engine: per
distinct radial order, the angular DFT coefficients of the dechirped samples
are summed against the radial interpolating function (with the optional
side-order m-sum) and carried by e^{in theta}.  The per-order modes give
each angular order the zeros of its own radial order; the fixed-order modes
are the same per-order sum on one radial order, because the periodic sinc
interpolant of 2K+1 nodes is the degree-K DFT series.  The spectrum-domain
variants run the series on transform samples with the support radius
playing the role of the band limit and mu1, mu2 swapped in the side-order
chains.

The alternating prefactor (-1)^v * sigma that the printed series carries is
kept as an option; the default "unit" prefactor is the one that actually
reproduces the field (the offset-free reduction fixes it unambiguously).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .bessel import ZeroTable, bessel_j, bessel_jn_chain
from .params import OffsetParams

__all__ = [
    "stark_kernel",
    "stark_interpolate",
    "theta_kernel",
    "default_m_sum",
    "SampleGrid",
    "SampleSet",
    "sample_field",
    "sample_count",
    "reconstruct_isotropic",
    "reconstruct_field",
    "reconstruct_spectrum",
    "ReconstructionReport",
]

_PREFACTORS = ("unit", "alternating")
_INNER_CHIRPS = ("spectral", "spatial")
_NEAR_ZERO_SWITCH = 1e-6


# --------------------------------------------------------------------------
# azimuthal interpolation
# --------------------------------------------------------------------------

def _angular_coefficients(values, k_max: int) -> np.ndarray:
    """c_n = (1/(2K+1)) sum_l values_l e^{-i n theta_l} for n = -K..K, along
    the last axis of `values`; exact for angular degree <= K."""
    az = 2 * k_max + 1
    nodes = 2.0 * np.pi * np.arange(az) / az
    return values @ (np.exp(-1j * np.outer(nodes, np.arange(-k_max, k_max + 1))) / az)


def stark_kernel(theta, l: int, k_max: int):
    """Periodic interpolating function o_l for 2K+1 uniform azimuth nodes.

    o_l(theta) = sin((2K+1)u/2) / ((2K+1) sin(u/2)) with u = theta - theta_l,
    equal to 1 at its own node and 0 at the others.  Evaluated through the
    identical finite sum (1/(2K+1)) sum_{|n|<=K} e^{i n u}, which has no
    removable singularity to lose digits near the nodes.
    """
    if not 0 <= l <= 2 * k_max:
        raise ValueError("node index out of range")
    return stark_interpolate(np.eye(2 * k_max + 1)[l], theta, k_max).real


def stark_interpolate(values, theta, k_max: int):
    """Evaluate the azimuthal interpolant of 2K+1 node values; exact on
    angular polynomials of degree <= K."""
    values = np.asarray(values, dtype=complex)
    if values.shape != (2 * k_max + 1,):
        raise ValueError(f"need exactly {2 * k_max + 1} node values, got {values.shape}")
    theta = np.asarray(theta, dtype=float)
    out = np.exp(1j * theta[..., None] * np.arange(-k_max, k_max + 1)) \
        @ _angular_coefficients(values, k_max)
    return complex(out) if theta.ndim == 0 else out


# --------------------------------------------------------------------------
# radial interpolation
# --------------------------------------------------------------------------

def theta_kernel(r, alpha, z, order, params: OffsetParams, omega: float):
    """Radial interpolating function for the sample at alpha = b z / omega.

    Scalar or array `alpha` and `z` (one sample each); the result has shape
    alpha.shape + r.shape.  Within 1e-6*alpha of the sample point the 0/0
    form is replaced by its limit, which is 1 for every mu2 (numerator and
    denominator share the (mu2 + alpha) factor under l'Hopital with
    J_v' = -J_{v+1} at zeros).
    """
    alpha = np.asarray(alpha, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(np.abs(alpha - params.b * z / omega) > 1e-9 * alpha):
        raise ValueError("alpha is not the normalized zero of z")
    r = np.asarray(r, dtype=float)
    mu2, b = params.mu2, params.b
    al = np.atleast_1d(alpha).ravel()[:, None]
    rr = np.atleast_1d(r).ravel()
    jnext = bessel_j(float(order) + 1.0, np.atleast_1d(z).ravel())[:, None]
    num = 2.0 * b * (mu2 + al) * bessel_j(order, omega * rr / b)
    den = omega * jnext * (al * al - rr * rr + 2.0 * mu2 * (al - rr))
    near = np.abs(rr - al) < _NEAR_ZERO_SWITCH * al
    out = np.where(near, 1.0, num / np.where(den == 0.0, 1.0, den))
    out = out.reshape(alpha.shape + r.shape)
    return float(out) if out.ndim == 0 else out


def default_m_sum(params: OffsetParams, omega: float, r_max: float) -> int:
    """Side-order truncation: 0 without offsets, else scale/b plus margin."""
    mu = max(params.mu1, params.mu2)
    if mu == 0.0:
        return 0
    return int(math.ceil(mu * max(r_max, omega) / params.b)) + 20


def _zero_series(coeffs, alphas, zeros, order, params, omega, m_sum, r, mu_r, mu_om):
    """sum_m J_m(mu_r r/b) J_m(mu_om omega/b)^2 sum_j J_m(mu_r a_j/b) c_j theta_j(r)
    for each row of `coeffs`: shape (rows, r.size).

    Odd side orders cancel in +-m pairs; m_sum = 0 keeps the bare j-sum.
    The chirp factors are applied by the callers.
    """
    theta_mat = theta_kernel(r, alphas, zeros, order, params, omega)
    if m_sum == 0 or not params.has_offsets:
        return coeffs @ theta_mat
    b = params.b
    chain_r = bessel_jn_chain(mu_r * r / b, m_sum)
    chain_om = bessel_jn_chain(np.array([mu_om * omega / b]), m_sum)[:, 0]
    chain_al = bessel_jn_chain(mu_r * alphas / b, m_sum)
    out = np.zeros((coeffs.shape[0], r.size), dtype=complex)
    for m in range(0, m_sum + 1, 2):
        factor = 1.0 if m == 0 else 2.0
        out += factor * chain_om[m] ** 2 * chain_r[m] * ((coeffs * chain_al[m]) @ theta_mat)
    return out


def _series_prefactor(order, params, prefactor: str) -> complex:
    if prefactor not in _PREFACTORS:
        raise ValueError(f"prefactor must be one of {_PREFACTORS}")
    if prefactor == "unit":
        return 1.0 + 0.0j
    return ((-1.0) ** order) * params.sigma


def reconstruct_isotropic(samples, order, params: OffsetParams, omega: float,
                          m_sum: int, r, *, zeros=None,
                          prefactor: str = "unit") -> np.ndarray:
    """Recover a transform-bandlimited radial profile (or one angular
    coefficient) from its values at the normalized zeros of `order`."""
    samples = np.asarray(samples, dtype=complex)
    r = np.asarray(r, dtype=float)
    rr = np.atleast_1d(r).ravel()
    if zeros is None:
        zeros = ZeroTable.for_order(order, samples.size).zeros[: samples.size]
    zeros = np.asarray(zeros, dtype=float)
    alphas = params.b * zeros / omega
    a, b = params.a, params.b
    weights = np.exp(1j * (a / (2.0 * b)) * alphas ** 2) * samples
    series = _zero_series(weights[None, :], alphas, zeros, order, params, omega, m_sum, rr,
                          params.mu1, params.mu2)[0]
    out = _series_prefactor(order, params, prefactor) \
        * np.exp(-1j * (a / (2.0 * b)) * rr ** 2) * series
    return complex(out[0]) if r.ndim == 0 else out.reshape(r.shape)


# --------------------------------------------------------------------------
# grids and sample sets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleGrid:
    """Radial zeros x uniform azimuths, with mode provenance.

    For the field-domain modes `omega` is the band limit; for the
    spectrum-domain modes it is the support radius that takes over the band
    limit's role in the interpolating function.
    """

    mode: str
    params: OffsetParams
    omega: float
    k_max: int
    radial_orders: dict
    zeros: dict
    resolution: int = 0

    def __post_init__(self):
        if self.mode not in ("theorem1", "theorem2", "corollary1", "corollary2"):
            raise ValueError(f"unknown grid mode {self.mode!r}")
        for w, z in self.zeros.items():
            z = np.asarray(z, dtype=float)
            if np.any(z <= 0) or np.any(np.diff(z) <= 0):
                raise ValueError(f"zeros for order {w} not positive increasing")

    @property
    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(2 * self.k_max + 1) / (2 * self.k_max + 1)

    @property
    def orders(self) -> tuple:
        return tuple(sorted(self.radial_orders))

    def alphas(self, n: int) -> np.ndarray:
        return self.params.b * self.zeros[self.radial_orders[n]] / self.omega

    def order_zeros(self, n: int) -> np.ndarray:
        return self.zeros[self.radial_orders[n]]

    @property
    def per_order(self) -> bool:
        return self.mode in ("theorem1", "corollary1")

    @property
    def slab_keys(self) -> tuple:
        """Angular orders owning a stored slab: every order for the
        per-order grids, a single one when all orders share the zeros."""
        if self.per_order:
            return tuple(range(-self.k_max, self.k_max + 1))
        return (0,)

    @property
    def total_count(self) -> int:
        az = 2 * self.k_max + 1
        return sum(self.zeros[self.radial_orders[n]].size for n in self.slab_keys) * az

    # -- factories -------------------------------------------------------

    @classmethod
    def theorem1(cls, params, omega, k_max, resolution, zeros_per_order=None):
        z_count = zeros_per_order or resolution * resolution
        orders = {n: abs(n) for n in range(-k_max, k_max + 1)}
        zeros = {w: ZeroTable.for_order(w, z_count).zeros[:z_count].copy()
                 for w in sorted({abs(n) for n in orders})}
        return cls("theorem1", params, omega, k_max, orders, zeros, resolution)

    @classmethod
    def theorem2(cls, params, omega, k_max, resolution, order=0, zeros_per_order=None):
        z_count = zeros_per_order or resolution * resolution
        orders = {n: order for n in range(-k_max, k_max + 1)}
        zeros = {order: ZeroTable.for_order(order, z_count).zeros[:z_count].copy()}
        return cls("theorem2", params, omega, k_max, orders, zeros, resolution)

    @classmethod
    def corollary1(cls, params, support_radius, k_max, band_limit, coverage=0.98):
        orders = {n: abs(n) for n in range(-k_max, k_max + 1)}
        zeros = {}
        for w in sorted({abs(n) for n in orders}):
            zeros[w] = _zeros_below(w, params.b, support_radius, coverage * band_limit)
        return cls("corollary1", params, support_radius, k_max, orders, zeros)

    @classmethod
    def corollary2(cls, params, support_radius, k_max, band_limit, order=0, coverage=0.98):
        orders = {n: order for n in range(-k_max, k_max + 1)}
        zeros = {order: _zeros_below(order, params.b, support_radius, coverage * band_limit)}
        return cls("corollary2", params, support_radius, k_max, orders, zeros)


def _zeros_below(order, b, scale, rho_cap):
    # all zeros whose normalized abscissa b z / scale stays under rho_cap
    count = max(8, int(scale * rho_cap / (b * math.pi)) + 4)
    while True:
        z = ZeroTable.for_order(order, count).zeros[:count]
        keep = z[b * z / scale < rho_cap]
        if keep.size < count:
            return keep.copy()
        count *= 2


@dataclass(frozen=True)
class SampleSet:
    """Values stored per angular order as (n_zeros x 2K+1) slabs."""

    grid: SampleGrid
    slabs: dict

    def __post_init__(self):
        az = 2 * self.grid.k_max + 1
        if set(self.slabs) != set(self.grid.slab_keys):
            raise ValueError("slab keys do not match the grid layout")
        for n in self.grid.slab_keys:
            arr = np.asarray(self.slabs[n], dtype=complex)
            expected = (self.grid.alphas(n).size, az)
            if arr.shape != expected:
                raise ValueError(f"slab {n} has shape {arr.shape}, expected {expected}")

    @property
    def total_count(self) -> int:
        return sum(np.asarray(v).size for v in self.slabs.values())

    def slab(self, n: int) -> np.ndarray:
        if n in self.slabs:
            return np.asarray(self.slabs[n])
        # fixed-order grids share one slab across angular orders
        return np.asarray(self.slabs[self.grid.slab_keys[0]])


def sample_field(source, grid: SampleGrid) -> SampleSet:
    """Evaluate a field (or, for the spectrum-domain grids, a spectrum) on
    every grid point; duplicate-radius slabs are evaluated once."""
    f = source if callable(source) else source.evaluate
    th = grid.thetas
    cache = {}
    slabs = {}
    for n in grid.slab_keys:
        w = grid.radial_orders[n]
        if w not in cache:
            radii = grid.alphas(n)
            cache[w] = np.asarray(f(radii[:, None], th[None, :]), dtype=complex)
        slabs[n] = cache[w]
    return SampleSet(grid, slabs)


def sample_count(k_max: int, resolution: int, mode: str) -> int:
    """Published sample budgets: ((2K+1)N)^2 for the per-order grid,
    (2K+1)N^2 for the fixed-order grid."""
    if k_max < 0 or resolution < 1:
        raise ValueError("need k_max >= 0 and resolution >= 1")
    az = 2 * k_max + 1
    if mode == "theorem1":
        return (az * resolution) ** 2
    if mode == "theorem2":
        return az * resolution * resolution
    raise ValueError("sample_count is defined for 'theorem1' and 'theorem2'")


# --------------------------------------------------------------------------
# field and spectrum reconstruction
# --------------------------------------------------------------------------

def _reconstruct(sample_set: SampleSet, params: OffsetParams, m_sum: int, r, theta,
                 inner_rate: float, outer_rate: float, mu_r: float, mu_om: float,
                 prefactor: str):
    """The zero-grid series shared by the four modes.

    Per distinct radial order: the angular DFT coefficients of the samples,
    dechirped by e^{i inner_rate alpha^2/2b}, go through the radial series on
    the unique probe radii, times e^{in theta}.  The fixed-order modes are
    this per-order sum on one radial order, because the periodic sinc of
    2K+1 nodes is the degree-K DFT series.
    """
    grid = sample_set.grid
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast(r, theta).shape
    rb = np.broadcast_to(r, shape).ravel()
    tb = np.broadcast_to(theta, shape).ravel()
    uniq, inv = np.unique(rb, return_inverse=True)
    k, b = grid.k_max, params.b
    out = np.zeros(rb.size, dtype=complex)
    for w in sorted(set(grid.radial_orders.values())):
        ns = [n for n in range(-k, k + 1) if grid.radial_orders[n] == w]
        alphas = grid.alphas(ns[0])
        coeffs = np.stack([_angular_coefficients(sample_set.slab(n), k)[:, n + k] for n in ns])
        coeffs *= np.exp(1j * (inner_rate / (2.0 * b)) * alphas ** 2)
        series = _zero_series(coeffs, alphas, grid.order_zeros(ns[0]), w, params,
                              grid.omega, m_sum, uniq, mu_r, mu_om)
        out += _series_prefactor(w, params, prefactor) \
            * np.sum(series[:, inv] * np.exp(1j * np.outer(ns, tb)), axis=0)
    res = (out * np.exp(1j * (outer_rate / (2.0 * b)) * rb ** 2)).reshape(shape)
    return complex(res[()]) if shape == () else res


def _check_mode(grid: SampleGrid, mode: str, allowed: tuple, caller: str):
    if mode != grid.mode:
        raise ValueError(f"grid was built for {grid.mode!r}, not {mode!r}")
    if mode not in allowed:
        raise ValueError(f"{caller} handles {allowed[0]!r} and {allowed[1]!r}")


def reconstruct_field(sample_set: SampleSet, mode: str, params: OffsetParams,
                      m_sum: int, r, theta, *, prefactor: str = "unit") -> np.ndarray:
    """Field values from grid samples.

    theorem1: per-order zeros, azimuthal DFT factor e^{in(theta-theta_l)};
    theorem2: one fixed order, azimuthal periodic-sinc interpolation.
    """
    _check_mode(sample_set.grid, mode, ("theorem1", "theorem2"), "reconstruct_field")
    return _reconstruct(sample_set, params, m_sum, r, theta, params.a, -params.a,
                        params.mu1, params.mu2, prefactor)


def reconstruct_spectrum(sample_set: SampleSet, mode: str, params: OffsetParams,
                         m_sum: int, rho, phi, *, inner_chirp: str = "spectral",
                         prefactor: str = "unit") -> np.ndarray:
    """Transform values from spectrum samples at normalized zeros.

    The support radius stored in the grid acts as the band limit of the
    inverse-domain series, and mu1, mu2 trade places in the side-order
    chains.  `inner_chirp` selects which printed convention dechirps the
    samples: "spectral" uses e^{-i d alpha^2 / 2b} (mirror of the outer
    factor), "spatial" the e^{-i a alpha^2 / 2b} variant; the offset-free
    oracle identifies the self-consistent one.
    """
    _check_mode(sample_set.grid, mode, ("corollary1", "corollary2"), "reconstruct_spectrum")
    if inner_chirp not in _INNER_CHIRPS:
        raise ValueError(f"inner_chirp must be one of {_INNER_CHIRPS}")
    inner_rate = params.d if inner_chirp == "spectral" else params.a
    return _reconstruct(sample_set, params, m_sum, rho, phi, -inner_rate, params.d,
                        params.mu2, params.mu1, prefactor)


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReconstructionReport:
    """Error summary of one reconstruction run."""

    mode: str
    k_max: int
    n_zeros: int
    m_sum: int
    sample_total: int
    n_probes: int
    max_abs_error: float
    mean_abs_error: float
    max_rel_error: float
    elapsed_s: float
    details: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.n_probes < 100:
            raise ValueError("error statistics need at least 100 probe points")

    @classmethod
    def from_run(cls, mode, sample_set, m_sum, truth, recon, elapsed_s, details=None):
        truth = np.asarray(truth).ravel()
        recon = np.asarray(recon).ravel()
        if truth.size != recon.size:
            raise ValueError("truth/reconstruction size mismatch")
        err = np.abs(recon - truth)
        scale = float(np.max(np.abs(truth))) or 1.0
        grid = sample_set.grid
        return cls(
            mode=mode,
            k_max=grid.k_max,
            n_zeros=max(grid.zeros[w].size for w in grid.zeros),
            m_sum=m_sum,
            sample_total=sample_set.total_count,
            n_probes=truth.size,
            max_abs_error=float(np.max(err)),
            mean_abs_error=float(np.mean(err)),
            max_rel_error=float(np.max(err)) / scale,
            elapsed_s=float(elapsed_s),
            details=dict(details or {}),
        )


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0
