"""Exactly bandlimited test fields.

Fields are built spectrum-first: a finite coefficient set in the transform
domain defines closed-form radial profiles through the truncated-interval
Bessel-product integral, so the bandlimit holds by construction rather than
approximately.  A smooth weight-function profile with known closed form is
included for convergence studies, whose sampling series does not terminate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from .bessel import ZeroTable, _bessel_j_rows, _taylor_at_zeros, _zero_quotient, bessel_j
from .params import OffsetParams, _check_positive

__all__ = [
    "lommel_kernel",
    "FourierBesselSpectrum",
    "PolarField",
    "SynthesizedField",
    "synthesize",
    "sonine_profile",
    "synthesize_sonine",
    "random_spectrum",
]

_COEFF_BOUND = 1e6


def lommel_kernel(alpha, r, c: float, order):
    """Closed form of int_0^c J_v(alpha*rho) J_v(r*rho) rho d(rho) when
    alpha*c is a positive zero of J_v.

    Equals c*alpha*J_{v+1}(alpha*c)*J_v(r*c)/(alpha^2 - r^2), evaluated as
    -c^2*alpha*J_{v+1}(alpha*c)*Q/(alpha + r) with the removable-point
    quotient Q = J_v(r*c)/(r*c - alpha*c), so it is smooth through r = alpha
    (limit (c^2/2)*J_{v+1}(alpha*c)^2).  Scalar or array `alpha` (one zero
    each); the result has shape alpha.shape + r.shape.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0) or c <= 0:
        raise ValueError("alpha and c must be positive")
    r = np.asarray(r, dtype=float)
    rr = r.ravel()
    z = alpha.ravel() * c
    out = _lommel_values(alpha, c, z, _taylor_at_zeros(order, z), rr, bessel_j(order, rr * c))
    out = out.reshape(alpha.shape + r.shape)
    return float(out) if out.ndim == 0 else out


def _lommel_values(alpha: np.ndarray, c: float, z, taylor, r: np.ndarray, jr: np.ndarray) -> np.ndarray:
    """lommel_kernel's values, shape (alpha.size, r.size), on the 1-d r from
    the zeros z = alpha c, their _taylor_at_zeros coefficients and
    jr = J_v(r c)."""
    al, jnext = alpha.ravel()[:, None], -taylor[0]
    return -c * c * al * jnext[:, None] * _zero_quotient(jr, r * c, z, taylor) / (al + r)


def _check_finite(name: str, *points):
    # on the points as passed, before broadcasting, so a tensor grid costs
    # its rows plus its columns
    if not all(np.all(np.isfinite(p)) for p in points):
        raise ValueError(f"{name}: the points must be finite")


def _radial_order(order_map: str, fixed_order: int, n: int) -> int:
    # the radial order that carries angular coefficient n under `order_map`:
    # the one rule shared by the spectra, the sonine fields and the grids
    if order_map == "per_order":
        return abs(n)
    if order_map == "fixed":
        return fixed_order
    raise ValueError(f"unknown order_map {order_map!r}")


@dataclass(frozen=True)
class FourierBesselSpectrum:
    """Finite transform-domain coefficients eps[n][j], |n| <= K, j = 1..J.

    `order_map` fixes which radial order carries angular coefficient n:
    "per_order" uses |n| (membership in the transform-bandlimited class),
    "fixed" uses `fixed_order` for every n (the single-order sampling
    grids).
    """

    omega: float
    k_max: int
    coefficients: dict = dc_field(repr=False)
    order_map: str = "per_order"
    fixed_order: int = 0

    def __post_init__(self):
        _check_positive("omega", self.omega)
        if self.k_max < 0:
            raise ValueError("k_max must be nonnegative")
        _radial_order(self.order_map, self.fixed_order, 0)  # rejects an unknown map
        coeffs = {}
        for n, eps in self.coefficients.items():
            n = int(n)
            if abs(n) > self.k_max:
                raise ValueError(f"coefficient order {n} exceeds k_max={self.k_max}")
            arr = np.asarray(eps, dtype=complex)
            if arr.ndim != 1:
                raise ValueError("coefficients must be 1-d per order")
            if np.any(np.abs(arr) > _COEFF_BOUND):
                raise ValueError(f"coefficient magnitude exceeds {_COEFF_BOUND:g}")
            coeffs[n] = arr
        object.__setattr__(self, "coefficients", coeffs)

    def radial_order(self, n: int) -> int:
        return _radial_order(self.order_map, self.fixed_order, n)


@dataclass(frozen=True)
class PolarField:
    """A field as evaluable angular coefficients: `coefficients` maps each
    angular order n to its radial profile f_n(r)."""

    coefficients: dict

    def evaluate(self, r, theta):
        """f(r, theta) = sum_n f_n(r) e^{i n theta}, broadcast over inputs."""
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        _check_finite("evaluate", r, theta)
        shape = np.broadcast(r, theta).shape
        # profiles on the unique radii of r and phases on theta, each as
        # passed, so a tensor grid costs one profile call per radius
        uniq, inv = np.unique(r.ravel(), return_inverse=True)
        out = np.zeros(shape, dtype=complex)
        for n, prof in self._profiles(uniq).items():
            out += prof[inv].reshape(r.shape) * np.exp(1j * n * theta)
        return complex(out[()]) if shape == () else out

    __call__ = evaluate

    def _profiles(self, r) -> dict:
        # f_n on the 1-d radii r, n ascending.  The memo holds each shared
        # radial basis and chirp, taken once, and the bases take their
        # Bessel values from one pass per scale
        memo = _basis_values({p.basis for p in self.coefficients.values()
                              if isinstance(p, _Profile)}, r)
        return {n: p.at(r, memo) if isinstance(p, _Profile) else np.asarray(p(r), dtype=complex)
                for n, p in sorted(self.coefficients.items())}


@dataclass(frozen=True)
class SynthesizedField(PolarField):
    """Field generated from a FourierBesselSpectrum under given parameters.

    Carries closed forms for both sides: the radial profiles and the
    transform-domain coefficients they came from.
    """

    spectrum: FourierBesselSpectrum
    params: OffsetParams

    def spectral_coefficient(self, n: int, rho) -> np.ndarray:
        """Reduced-kernel radial transform of f_n: supported on [0, omega)."""
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        _check_finite("spectral_coefficient", rho)
        return self._spectral(rho, (n,))[n]

    def spectrum_values(self, rho, phi) -> np.ndarray:
        """Transform values assembled from the spectral coefficients with the
        plane-wave angular phase; equals the kernel quadrature in the
        offset-free regime."""
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        _check_finite("spectrum_values", rho, phi)
        shape = np.broadcast(rho, phi).shape
        rb = np.broadcast_to(rho, shape).ravel()
        pb = np.broadcast_to(phi, shape).ravel()
        ns = sorted(self.spectrum.coefficients)
        # coefficients on the unique radii, as evaluate takes its profiles
        uniq, inv = np.unique(rb, return_inverse=True)
        coeffs = self._spectral(uniq, ns)
        out = np.zeros(rb.size, dtype=complex)
        for n in ns:
            out += ((-1.0) ** self.spectrum.radial_order(n)) * coeffs[n][inv] * np.exp(1j * n * pb)
        return out.reshape(shape)

    def _spectral(self, rho, ns) -> dict:
        # spectral coefficients of the angular orders ns on 1-d rho; orders
        # of one radial order and coefficient count share one Bessel matrix,
        # and the matrices' arguments go through one Bessel pass
        spec, p = self.spectrum, self.params
        inside = rho < spec.omega
        out = {n: np.zeros(rho.shape, dtype=complex) for n in ns}
        keys = {n: (spec.radial_order(n), spec.coefficients[n].size) for n in ns
                if n in spec.coefficients and spec.coefficients[n].size}
        if not keys or not np.any(inside):
            return out
        shared = sorted(set(keys.values()))
        args = [np.outer(ZeroTable.for_order(w, size).zeros[:size], rho[inside] / spec.omega)
                for w, size in shared]
        orders = sorted({w for w, _ in shared})
        values = _bessel_j_rows(orders, np.concatenate([a.ravel() for a in args]))
        blocks = np.split(values, np.cumsum([a.size for a in args])[:-1], axis=1)
        phase = p.output_phase(rho[inside])
        mats = {(w, size): ((1j ** w) * p.ell1 / p.b * phase, block[orders.index(w)].reshape(a.shape))
                for (w, size), a, block in zip(shared, args, blocks)}
        for n, key in keys.items():
            pref, mat = mats[key]
            out[n][inside] = pref * (spec.coefficients[n] @ mat)
        return out


def synthesize(spectrum: FourierBesselSpectrum, params: OffsetParams) -> SynthesizedField:
    """Materialize the field whose olcht_forward transforms equal the given
    finite coefficient sets on [0, omega).

    Each profile is f_n(r) = e^{-i a r^2 / 2b} * sum_j eps_nj *
    lommel_kernel(alpha_wj, r, omega/b, w), the closed-form inverse of the
    boxed spectrum, so membership in the bandlimited class is exact.  The
    profiles of one radial order and coefficient count share their Lommel
    rows, which take the zeros and their Taylor data from the zero table.
    """
    b = params.b
    c = spectrum.omega / b
    bases, profiles = {}, {}
    for n in range(-spectrum.k_max, spectrum.k_max + 1):
        eps = spectrum.coefficients.get(n)
        if eps is None or eps.size == 0:
            profiles[n] = _zero_profile
            continue
        w = spectrum.radial_order(n)
        if (w, eps.size) not in bases:
            z = ZeroTable.for_order(w, eps.size).zeros[: eps.size]
            bases[w, eps.size] = _Basis(w, c, partial(_lommel_values, b * z / spectrum.omega, c,
                                                      z, _taylor_at_zeros(w, z)))
        profiles[n] = _Profile(bases[w, eps.size], eps, params)
    return SynthesizedField(profiles, spectrum, params)


def _zero_profile(r):
    return np.zeros(np.shape(np.atleast_1d(r)), dtype=complex)


class _Basis:
    """Radial functions form(r, J_order(scale r)) on 1-d r: the bases of one
    field share `scale`, so their Bessel values come from one pass."""

    def __init__(self, order, scale, form):
        self.order, self.scale, self.form = order, scale, form

    def __call__(self, r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        return self.form(r, bessel_j(self.order, r * self.scale))


def _basis_values(bases, r) -> dict:
    # each basis on the 1-d radii r, one Bessel pass per scale
    out = {}
    for scale in {basis.scale for basis in bases}:
        group = [basis for basis in bases if basis.scale == scale]
        orders = sorted({basis.order for basis in group})
        rows = dict(zip(orders, _bessel_j_rows(orders, r * scale)))
        out.update((basis, basis.form(r, rows[basis.order])) for basis in group)
    return out


class _Profile:
    """f_n(r) = conj(input chirp) * (weights @ basis(r)), a plain callable.

    Profiles of one radial order share `basis`; PolarField.evaluate passes
    them one memo, so each basis and the chirp are taken once per call.
    """

    def __init__(self, basis, weights, params):
        self.basis, self.weights, self.params = basis, weights, params

    def __call__(self, r):
        return self.at(np.atleast_1d(np.asarray(r, dtype=float)), {})

    def at(self, r, memo):
        # values on the 1-d radii r, from memo where already taken there
        if self.basis not in memo:
            memo[self.basis] = self.basis(r)
        if self.params not in memo:
            memo[self.params] = np.conj(self.params.input_phase(r))
        return self._combine(memo[self.params], memo[self.basis])

    def _combine(self, chirp, values):
        return chirp * (self.weights @ values)


class _ScaledProfile(_Profile):
    # one radial function times a complex weight
    def _combine(self, chirp, values):
        return self.weights * chirp * values


# --------------------------------------------------------------------------
# smooth-spectrum profiles for convergence studies
# --------------------------------------------------------------------------

def sonine_profile(order: int, c: float, s: int = 1):
    """The pair g, G with G(u) = (u/c)^w (1 - (u/c)^2)^s on [0, c].

    g(r) = c^2 2^s s! J_{w+s+1}(rc) / (rc)^{s+1} is the order-w transform of
    G; its samples at every normalized zero are nonzero, so sampling-series
    truncation error is real rather than identically zero.
    """
    w = int(order)
    if w < 0 or s < 0 or c <= 0:
        raise ValueError("need order >= 0, s >= 0, c > 0")
    amp = c * c * (2.0 ** s) * math.factorial(s)
    lead = amp / (2.0 ** (w + s + 1) * math.gamma(w + s + 2))

    def form(r, jr):  # g from jr = J_{w+s+1}(r c)
        x = r * c
        small = x < 1e-4
        safe = np.where(small, 1.0, x)
        return np.where(small, lead * np.where(small, x, 0.0) ** w, amp * jr / safe ** (s + 1))

    def G(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        t = u / c
        return np.where(u < c, t ** w * (1.0 - t * t) ** s, 0.0)

    return _Basis(w + s + 1, c, form), G


def synthesize_sonine(weights: dict, params: OffsetParams, omega: float, *,
                      s: int = 1, order_map: str = "per_order",
                      fixed_order: int = 0) -> PolarField:
    """Field with smooth (non-terminating) spectra per angular order."""
    b = params.b
    c = omega / b

    k_max = max((abs(n) for n in weights), default=0)
    bases, profiles = {}, {}
    for n in range(-k_max, k_max + 1):
        wgt = weights.get(n)
        if wgt is None:
            profiles[n] = _zero_profile
            continue
        w = _radial_order(order_map, fixed_order, n)
        if w not in bases:
            bases[w] = sonine_profile(w, c, s)[0]
        profiles[n] = _ScaledProfile(bases[w], complex(wgt), params)
    return PolarField(profiles)


def random_spectrum(omega: float, k_max: int, j_spec: int, seed: int, *,
                    order_map: str = "per_order", fixed_order: int = 0) -> FourierBesselSpectrum:
    """Seeded random coefficients from the unit disk.

    For j_spec >= 2 the last coefficient of each order is chosen so the
    spectrum's slope vanishes at the band edge (sum_j eps_j z_j J_{w+1}(z_j)
    = 0), which sharpens the field's spatial decay from r^{-5/2} to r^{-7/2}.
    """
    rng = np.random.default_rng(seed)

    def flatten(eps, w):
        if j_spec < 2:
            return eps
        table = ZeroTable.for_order(w, eps.size)
        slope = table.zeros[: eps.size] * table.jnext[: eps.size]
        eps = eps.copy()
        eps[-1] = -np.dot(eps[:-1], slope[:-1]) / slope[-1]
        return eps

    coeffs = {}
    for n in range(-k_max, k_max + 1):
        eps = (rng.uniform(-1, 1, j_spec) + 1j * rng.uniform(-1, 1, j_spec)) / math.sqrt(2.0)
        coeffs[n] = flatten(eps, _radial_order(order_map, fixed_order, n))
    return FourierBesselSpectrum(omega, k_max, coeffs, order_map, fixed_order)
