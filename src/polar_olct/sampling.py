"""Sampling grids and reconstruction series on Bessel-zero abscissae.

Radial samples sit at normalized zeros alpha = b z / omega, azimuthal
samples at 2K+1 uniform angles.  All four modes run one series engine: per
radial order, the angular DFT coefficients of the dechirped samples are
summed against the radial interpolating function (with the optional
side-order m-sum) and carried by e^{in theta}.  A sample set stores one slab
per radial order: the per-order modes put angular orders n and -n on the
zeros of radial order |n|, so the two share a slab; the fixed-order modes
are the same per-order sum on one radial order, because the periodic sinc
interpolant of 2K+1 nodes is the degree-K DFT series.  The spectrum-domain
variants run the series on transform samples with the support radius
playing the role of the band limit and mu1, mu2 swapped in the side-order
chains.

One convention runs: the unit prefactor and the spectral inner chirp, which
the offset-free reduction shows reproduce the field and spectrum.  The printed
alternating (-1)^v sigma and spatial chirp are sample maps in the harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import ZeroTable, _bessel_j_rows, _taylor_at_zeros, _zero_quotient, bessel_j, bessel_jn_chain
from .params import OffsetParams, _check_count, _check_positive
from .synthesis import _radial_order

__all__ = [
    "stark_kernel",
    "stark_interpolate",
    "theta_kernel",
    "default_m_sum",
    "SampleGrid",
    "SampleSet",
    "sample_field",
    "sample_count",
    "reconstruct_field",
    "reconstruct_spectrum",
]

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
    if not np.all(np.isfinite(theta)):
        raise ValueError("stark_interpolate: theta must be finite")
    out = np.exp(1j * theta[..., None] * np.arange(-k_max, k_max + 1)) \
        @ _angular_coefficients(values, k_max)
    return complex(out) if theta.ndim == 0 else out


# --------------------------------------------------------------------------
# radial interpolation
# --------------------------------------------------------------------------

def theta_kernel(r, alpha, z, order, params: OffsetParams, omega: float):
    """Radial interpolating function for the sample at alpha = b z / omega.

    2 b (mu2 + alpha) J_v(omega r / b) / (omega J_{v+1}(z) (alpha^2 - r^2
    + 2 mu2 (alpha - r))), evaluated as
    -2 (mu2 + alpha) Q / (J_{v+1}(z) (alpha + r + 2 mu2)) with the
    removable-point quotient Q = J_v(omega r / b) / (omega r / b - z), so it
    is smooth through r = alpha, where it is 1 for every mu2.  Scalar or
    array `alpha` and `z` (one sample each); the result has shape
    alpha.shape + r.shape.  Raises ValueError, naming the abscissa, where
    z is not a positive zero of J_v (|J_v(z)| > 1e-10), since the formula
    has no removable point there.
    """
    alpha = np.asarray(alpha, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(np.abs(alpha - params.b * z / omega) > 1e-9 * alpha):
        raise ValueError("alpha is not the normalized zero of z")
    r = np.asarray(r, dtype=float)
    rr = r.ravel()
    out = _theta_matrix(rr, bessel_j(order, omega * rr / params.b), alpha.ravel(), z.ravel(),
                        params, omega, _taylor_at_zeros(order, z.ravel()))
    out = out.reshape(alpha.shape + r.shape)
    return float(out) if out.ndim == 0 else out


def _theta_matrix(r, jr, alphas, zeros, params, omega, taylor):
    # theta_kernel on 1-d r and samples, given jr = J_v(omega r / b) and the
    # zeros' _zero_taylor coefficients, whose first row is -J_{v+1}(zeros)
    mu2, al, jnext = params.mu2, alphas[:, None], -taylor[0]
    quotient = _zero_quotient(jr, omega * r / params.b, zeros, taylor)
    return -2.0 * (mu2 + al) * quotient / (jnext[:, None] * (al + r + 2.0 * mu2))


def default_m_sum(params: OffsetParams, omega: float) -> int:
    """Side-order truncation: 0 without offsets, else mu max(10, omega)/b
    plus a margin of 20."""
    mu = max(params.mu1, params.mu2)
    if mu == 0.0:
        return 0
    return int(math.ceil(mu * max(10.0, omega) / params.b)) + 20


def _zero_series(coeffs, alphas, zeros, order, jr, params, omega, m_sum, r, mu_r, mu_om):
    """sum_m J_m(mu_r r/b) J_m(mu_om omega/b)^2 sum_j J_m(mu_r a_j/b) c_j theta_j(r)
    for each row of `coeffs`: shape (rows, r.size), given jr = J_order(omega r / b).

    Odd side orders cancel in +-m pairs; m_sum = 0 keeps the bare j-sum.
    The chirp factors are applied by the callers.
    """
    theta_mat = _theta_matrix(r, jr, alphas, zeros, params, omega, _taylor_at_zeros(order, zeros))
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


# --------------------------------------------------------------------------
# grids and sample sets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleGrid:
    """Radial zeros x uniform azimuths, with mode provenance.

    For the field-domain modes `omega` is the band limit; for the
    spectrum-domain modes it is the support radius that takes over the band
    limit's role in the interpolating function.  `zeros` maps each radial
    order to its zeros: orders 0..K for the per-order modes, one order for
    the fixed-order modes.
    """

    mode: str
    params: OffsetParams
    omega: float
    k_max: int
    zeros: dict

    def __post_init__(self):
        if self.mode not in ("theorem1", "theorem2", "corollary1", "corollary2"):
            raise ValueError(f"unknown grid mode {self.mode!r}")
        _check_positive("omega", self.omega)
        # the abscissae b z / omega and the zero counts assume b > 0
        if self.params.b <= 0.0:
            raise ValueError(f"{self.mode} grid needs b > 0, got b = {self.params.b!r}")
        _check_count("k_max", self.k_max, 0)
        keys = sorted(self.zeros)
        if self.per_order and keys != list(range(self.k_max + 1)):
            raise ValueError(f"{self.mode} needs zeros for orders 0..{self.k_max}, got {keys}")
        if not self.per_order and len(keys) != 1:
            raise ValueError(f"{self.mode} needs zeros for one order, got {keys}")
        for w, z in self.zeros.items():
            z = np.asarray(z, dtype=float)
            if z.size == 0:
                raise ValueError(f"{self.mode} grid holds no zeros for order {w}")
            if np.any(z <= 0) or np.any(np.diff(z) <= 0):
                raise ValueError(f"zeros for order {w} not positive increasing")

    @property
    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(2 * self.k_max + 1) / (2 * self.k_max + 1)

    @property
    def per_order(self) -> bool:
        return self.mode in ("theorem1", "corollary1")

    def radial_order(self, n: int) -> int:
        """The radial order whose zeros carry angular order n."""
        return _radial_order("per_order" if self.per_order else "fixed", next(iter(self.zeros)), n)

    def alphas(self, n: int) -> np.ndarray:
        return self.params.b * self.zeros[self.radial_order(n)] / self.omega

    # -- factories: the theorem grids hold N^2 zeros per radial order, and
    # a grid with another count is SampleGrid(mode, params, omega, k_max,
    # {w: zeros})

    @classmethod
    def theorem1(cls, params, omega, k_max, resolution):
        z_count = _check_count("resolution", resolution) ** 2
        zeros = {w: ZeroTable.for_order(w, z_count).zeros[:z_count].copy()
                 for w in range(_check_count("k_max", k_max, 0) + 1)}
        return cls("theorem1", params, omega, k_max, zeros)

    @classmethod
    def theorem2(cls, params, omega, k_max, resolution, order=0):
        z_count = _check_count("resolution", resolution) ** 2
        zeros = {order: ZeroTable.for_order(order, z_count).zeros[:z_count].copy()}
        return cls("theorem2", params, omega, k_max, zeros)

    @classmethod
    def corollary1(cls, params, support_radius, k_max, band_limit):
        zeros = {w: _zeros_below(w, params.b, support_radius, band_limit)
                 for w in range(_check_count("k_max", k_max, 0) + 1)}
        return cls("corollary1", params, support_radius, k_max, zeros)

    @classmethod
    def corollary2(cls, params, support_radius, k_max, band_limit, order=0):
        zeros = {order: _zeros_below(order, params.b, support_radius, band_limit)}
        return cls("corollary2", params, support_radius, k_max, zeros)


def _zeros_below(order, b, scale, band_limit):
    # all zeros whose normalized abscissa b z / scale stays under 98 % of the
    # band limit.  For v >= -1/2 the k-th zero of J_v is at least
    # (k - 1/2) pi, so at most int(X/pi) + 1 zeros lie below
    # X = scale rho_cap / b, and a table of int(X/pi) + 4 holds them all
    _check_positive("support_radius", scale)
    _check_positive("band_limit", band_limit)
    rho_cap = 0.98 * band_limit
    count = max(8, int(scale * rho_cap / (b * math.pi)) + 4)
    z = ZeroTable.for_order(order, count).zeros[:count]
    return z[b * z / scale < rho_cap].copy()


@dataclass(frozen=True)
class SampleSet:
    """Values stored per radial order, the keys of `grid.zeros`, as
    (n_zeros x 2K+1) slabs; angular order n reads the slab of
    `grid.radial_order(n)`, so theorem 1's n and -n share one."""

    grid: SampleGrid
    slabs: dict

    def __post_init__(self):
        if set(self.slabs) != set(self.grid.zeros):
            raise ValueError("slab keys do not match the grid layout")
        for w, z in self.grid.zeros.items():
            shape, expected = np.shape(self.slabs[w]), (len(z), 2 * self.grid.k_max + 1)
            if shape != expected:
                raise ValueError(f"slab {w} has shape {shape}, expected {expected}")

    @property
    def total_count(self) -> int:
        """The paper's count: a slab per angular order, or one on a fixed-order grid."""
        k = self.grid.k_max
        return sum(self.slab(n).size for n in (range(-k, k + 1) if self.grid.per_order else (0,)))

    def slab(self, n: int) -> np.ndarray:
        return np.asarray(self.slabs[self.grid.radial_order(n)])


def sample_field(source, grid: SampleGrid) -> SampleSet:
    """Evaluate a callable field (or, for the spectrum-domain grids, a
    spectrum) source(r, theta) on every grid point in one call, with the
    radii of every radial order concatenated, and split the values into one
    slab per radial order."""
    radii = [grid.alphas(w) for w in grid.zeros]
    values = np.asarray(source(np.concatenate(radii)[:, None], grid.thetas[None, :]), dtype=complex)
    parts = np.split(values, np.cumsum([a.size for a in radii])[:-1])
    return SampleSet(grid, dict(zip(grid.zeros, parts)))


def sample_count(k_max: int, resolution: int, mode: str) -> int:
    """Published sample budgets: ((2K+1)N)^2 for the per-order grid,
    (2K+1)N^2 for the fixed-order grid."""
    az = 2 * _check_count("k_max", k_max, 0) + 1
    resolution = _check_count("resolution", resolution)
    if mode == "theorem1":
        return (az * resolution) ** 2
    if mode == "theorem2":
        return az * resolution * resolution
    raise ValueError("sample_count is defined for 'theorem1' and 'theorem2'")


# --------------------------------------------------------------------------
# field and spectrum reconstruction
# --------------------------------------------------------------------------

def _reconstruct(sample_set: SampleSet, params: OffsetParams, m_sum: int, r, theta,
                 inner, outer, mu_r: float, mu_om: float):
    """The zero-grid series shared by the four modes.

    Per radial order: the angular DFT coefficients of its slab, columns n + K,
    times the chirp inner(alpha), go through the radial series on the unique
    probe radii, times e^{in theta}; the sum carries the chirp outer(r).  The
    callers take both chirps from params.input_phase and .output_phase.  The
    fixed-order modes are this per-order sum on one radial order, because
    the periodic sinc of 2K+1 nodes is the degree-K DFT series.
    """
    grid = sample_set.grid
    if params != grid.params:
        raise ValueError(f"grid was built for {grid.params!r}, not {params!r}")
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast(r, theta).shape
    rb = np.broadcast_to(r, shape).ravel()
    tb = np.broadcast_to(theta, shape).ravel()
    if not (np.all(np.isfinite(rb)) and np.all(np.isfinite(tb))):
        raise ValueError("reconstruction: the probe points must be finite")
    uniq, inv = np.unique(rb, return_inverse=True)
    k = grid.k_max
    orders = sorted(grid.zeros)
    # J_w at the probes for every radial order w from one recurrence pass
    j_probe = _bessel_j_rows(orders, grid.omega * uniq / params.b)
    out = np.zeros(rb.size, dtype=complex)
    for w, jr in zip(orders, j_probe):
        ns = [n for n in range(-k, k + 1) if grid.radial_order(n) == w]
        alphas = grid.alphas(w)
        coeffs = _angular_coefficients(sample_set.slab(w), k).T[np.add(ns, k)] * inner(alphas)
        series = _zero_series(coeffs, alphas, grid.zeros[w], w, jr, params,
                              grid.omega, m_sum, uniq, mu_r, mu_om)
        out += np.sum(series[:, inv] * np.exp(1j * np.outer(ns, tb)), axis=0)
    res = (out * outer(rb)).reshape(shape)
    return complex(res[()]) if shape == () else res


def _check_mode(grid: SampleGrid, mode: str, allowed: tuple, caller: str):
    if mode != grid.mode:
        raise ValueError(f"grid was built for {grid.mode!r}, not {mode!r}")
    if mode not in allowed:
        raise ValueError(f"{caller} handles {allowed[0]!r} and {allowed[1]!r}")


def reconstruct_field(sample_set: SampleSet, mode: str, params: OffsetParams,
                      m_sum: int, r, theta) -> np.ndarray:
    """Field values from grid samples.

    theorem1: per-order zeros, azimuthal DFT factor e^{in(theta-theta_l)};
    theorem2: one fixed order, azimuthal periodic-sinc interpolation.
    Non-finite probes and params not the grid's raise ValueError.
    """
    _check_mode(sample_set.grid, mode, ("theorem1", "theorem2"), "reconstruct_field")
    return _reconstruct(sample_set, params, m_sum, r, theta, params.input_phase,
                        lambda x: np.conj(params.input_phase(x)), params.mu1, params.mu2)


def reconstruct_spectrum(sample_set: SampleSet, mode: str, params: OffsetParams,
                         m_sum: int, rho, phi) -> np.ndarray:
    """Transform values from spectrum samples at normalized zeros.

    The support radius stored in the grid acts as the band limit of the
    inverse-domain series, and mu1, mu2 trade places in the side-order
    chains.  The samples are dechirped by e^{-i d alpha^2 / 2b}, the mirror
    of the outer factor: the offset-free oracle shows it is the printed
    inner chirp that reproduces the spectrum, and the e^{-i a alpha^2 / 2b}
    one does not once a != d.  Raises ValueError as reconstruct_field does.
    """
    _check_mode(sample_set.grid, mode, ("corollary1", "corollary2"), "reconstruct_spectrum")
    return _reconstruct(sample_set, params, m_sum, rho, phi,
                        lambda x: np.conj(params.output_phase(x)),
                        params.output_phase, params.mu2, params.mu1)
