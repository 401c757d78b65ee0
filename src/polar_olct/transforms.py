"""Polar offset canonical transforms by direct quadrature.

The forward map is the double integral with the full oscillatory kernel; it
is the module's ground truth.  Every radial integral here (kernel, Hankel-
type transforms and inverse, angular series) uses one rule under error
control: 16-node Gauss-Legendre panels, each compared with its two halves,
and only the panels that disagree by more than 1e-11 of the largest output
are split (a refinement that does not converge raises
QuadratureAccuracyError).  The azimuthal direction is a uniform trapezoid
rule on an even number of nodes, evaluated as a circular convolution: the
kernel's spectrum is real and even up to a fixed phase, so each output
radius costs one real FFT, and its exponentials are taken on a quarter turn
and factored over each panel.  Everything but field evaluation runs on
every usable CPU, one thread per contiguous block of panels (the calling
thread takes the first): the input phases, the azimuth FFT and its fold,
then the per-radius loop.  The field is evaluated on the calling thread,
and the result is identical to the bit for any number of blocks.  This is
the trapezoid sum up to rounding, checked against a point-by-point double
sum.
Everything else here - the FT route, the Hankel-type radial transforms,
the angular series - is an algebraic rearrangement of the same integral
and serves as a cross-check oracle.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bessel import bessel_j, bessel_jn_chain, lambda_truncation
from .params import InverseParams, KernelParams, OffsetParams

__all__ = [
    "PolarGrid",
    "SpectrumField",
    "QuadratureAccuracyError",
    "radial_rule",
    "spectral_grid",
    "olct_forward",
    "olct_inverse",
    "olct_via_ft",
    "olcht_forward",
    "olcht_inverse",
    "hankel_transform",
    "fourier_coefficients",
    "olct_series",
    "parseval_residual",
    "spectral_extent",
]

_NODES_PER_PANEL = 16
_DEFAULT_AZIMUTH_NODES = 512
# adaptive radial rule: initial uniform panels, the accepted halves-vs-whole
# deviation relative to the largest output, and the most halvings of an
# initial panel
_INITIAL_PANELS = 16
_PANEL_RTOL = 1e-11
_MAX_DEPTH = 12
# outputs below this share of the summed first-level panel magnitudes are
# rounding-limited (~1e-16 of those), so they are resolved to 1e-14 of them
_CANCELLATION = 1e-3
# elements (rows x azimuths) in one batch of kernel work arrays
_CHUNK = 8e6


class QuadratureAccuracyError(RuntimeError):
    """A refined quadrature disagreed with the base result beyond tolerance.

    `value` is the base result and `refined` the refined one; their
    difference is the error estimate quoted in the message.
    """

    def __init__(self, message: str, value, refined):
        super().__init__(message)
        self.value = value
        self.refined = refined


@lru_cache(maxsize=1)
def _panel_rule():
    return np.polynomial.legendre.leggauss(_NODES_PER_PANEL)


def _panel_nodes(lo: np.ndarray, half: np.ndarray):
    """Gauss-Legendre nodes/weights of the panels [lo, lo + 2 half], panel-major."""
    xg, wg = _panel_rule()
    return ((lo + half)[:, None] + half[:, None] * xg[None, :]).ravel(), (half[:, None] * wg[None, :]).ravel()


def _halve(lo: np.ndarray, half: np.ndarray):
    """Both halves of each panel (lo, half): all left halves, then all right.
    Halving a half-width is exact, so the panels of one depth share it to the bit."""
    quarter = 0.5 * half
    return np.concatenate([lo, lo + half]), np.concatenate([quarter, quarter])


def _initial_panels(r_max: float, n_radial: int | None):
    """Panels (lo, half), each [lo, lo + 2 half], of the uniform rule with
    `n_radial` nodes, or the first level of the adaptive rule when
    `n_radial` is None."""
    n = max(1, int(math.ceil(n_radial / _NODES_PER_PANEL))) if n_radial else _INITIAL_PANELS
    width = r_max / n
    return width * np.arange(n), np.full(n, 0.5 * width)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _on_blocks(task, blocks) -> None:
    """task(block) for every block: the calling thread takes the first and
    one thread each the others.  All are joined before a failure in any of
    them is raised again here."""
    failures = []

    def run(block):
        try:
            task(block)
        except BaseException as exc:  # raised again on the calling thread
            failures.append(exc)

    workers = [threading.Thread(target=run, args=(block,)) for block in blocks[1:]]
    for worker in workers:
        worker.start()
    run(blocks[0])
    for worker in workers:
        worker.join()
    if failures:
        raise failures[0]


def _per_panel(x: np.ndarray) -> np.ndarray:
    """Sums of node-major rows over each panel's 16 consecutive nodes."""
    return x.reshape((-1, _NODES_PER_PANEL) + x.shape[1:]).sum(axis=1)


def radial_rule(r_max: float, n_nodes: int):
    """Composite Gauss-Legendre nodes/weights on [0, r_max]."""
    return _panel_nodes(*_initial_panels(r_max, n_nodes))


def _azimuth_node_count(bundle: KernelParams, r_max: float, rho_max: float,
                        base: int = _DEFAULT_AZIMUTH_NODES) -> int:
    rate = r_max * rho_max / abs(bundle.b) + r_max * bundle.mu1 / abs(bundle.b)
    need = int(2 ** math.ceil(math.log2(max(base, 2.5 * rate + 32))))
    return need


@dataclass(frozen=True)
class PolarGrid:
    """Output grid: explicit radial nodes, uniform azimuths on [-pi, pi).

    `rho_weights`, when present, makes the radial nodes a quadrature rule so
    a SpectrumField on this grid can be integrated (the inverse needs that).
    """

    rho: np.ndarray
    n_phi: int
    rho_weights: np.ndarray | None = None

    def __post_init__(self):
        rho = np.atleast_1d(np.asarray(self.rho, dtype=float))
        if not np.all(np.isfinite(rho)):
            raise ValueError(f"PolarGrid: rho must be finite, got {rho[~np.isfinite(rho)][0]!r}")
        if rho.size and np.any(np.diff(rho) <= 0):
            raise ValueError("radial nodes must be strictly increasing")
        object.__setattr__(self, "rho", rho)
        if self.rho_weights is not None:
            w = np.atleast_1d(np.asarray(self.rho_weights, dtype=float))
            if w.shape != rho.shape:
                raise ValueError("rho_weights must match rho")
            object.__setattr__(self, "rho_weights", w)
        if self.n_phi < 1:
            raise ValueError("need at least one azimuth")

    @property
    def phi(self) -> np.ndarray:
        return -np.pi + 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi


def spectral_grid(params: OffsetParams, omega: float, *, n_radial: int = 256,
                  n_phi: int = 64, margin: float = 1.05) -> PolarGrid:
    """Quadrature grid covering the spectral support of an omega-bandlimited
    field under `params` (the offset tau shifts the support disk)."""
    rho, w = radial_rule(spectral_extent(params, omega, margin), n_radial)
    return PolarGrid(rho, n_phi, rho_weights=w)


@dataclass(frozen=True)
class SpectrumField:
    """Transform values on a polar output grid."""

    values: np.ndarray
    grid: PolarGrid
    params: KernelParams

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.rho.size, self.grid.n_phi):
            raise ValueError("values shape does not match grid")
        object.__setattr__(self, "values", v)


def _field_values(f, r, th, name: str) -> np.ndarray:
    """f(r, th), broadcast to the shape of r and th together; a result that
    does not broadcast to it raises ValueError."""
    values = np.asarray(f(r, th))
    shape = np.broadcast_shapes(np.shape(r), np.shape(th))
    try:
        return np.broadcast_to(values, shape)
    except ValueError:
        raise ValueError(f"{name}: the field returned shape {values.shape}, "
                         f"which does not broadcast to {shape}") from None


def _as_field_callable(field):
    if callable(field):
        return field
    return field.evaluate


def _panel_quadrature(sums, width: int, lo: np.ndarray, half: np.ndarray, *, refine: bool,
                      name: str, measure=lambda x: x, pref=1.0):
    """pref * measure(sum of the panel sums over the radial rule), and the
    panels (lo, half) of that rule.

    `sums(lo, half)` maps a run of panels (lo[p], half[p]) to their per-panel
    sums (panel axis first), in batches of at most
    _CHUNK / (16 * width) panels.  `measure` is a linear map into the output
    domain (it may work in place) where deviations are taken, relative to
    the largest output or _CANCELLATION of the summed first-level panel
    magnitudes, whichever is larger.  Without `refine` the panels given are
    the rule.  With it a panel whose halves agree with it to _PANEL_RTOL of
    that scale at every output is replaced by them; the others are split
    again, up to _MAX_DEPTH halvings (then QuadratureAccuracyError).
    Non-finite sums raise ValueError.
    """
    per_batch = max(1, int(_CHUNK // (_NODES_PER_PANEL * width)))
    non_finite = ValueError(f"{name}: the integrand has non-finite values")

    def batches(lo, half):
        for s in range(0, lo.size, per_batch):
            yield sums(lo[s:s + per_batch], half[s:s + per_batch])

    if not refine:
        total = sum(part.sum(axis=0) for part in batches(lo, half))
        if not np.all(np.isfinite(total)):
            raise non_finite
        return pref * measure(total), (lo, half)

    def panel_sums(lo, half):
        parts = list(batches(lo, half))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    kept_lo, kept_half = [], []
    whole = panel_sums(lo, half)
    for depth in range(1, _MAX_DEPTH + 1):
        n = lo.size
        lo, half = _halve(lo, half)
        halves = panel_sums(lo, half)
        if depth == 1:
            scale = np.max(np.abs(measure(halves.sum(axis=0))), initial=0.0)
        # whole minus halves, in place and then in the output domain
        whole -= halves[:n]
        whole -= halves[n:]
        diff = measure(whole)
        dev = np.max(np.abs(diff).reshape(n, -1), axis=1, initial=0.0)
        if not np.all(np.isfinite(dev)):
            raise non_finite
        if depth == 1 and dev.max() > _PANEL_RTOL * scale:
            # the cancellation floor only loosens the test: needed once a panel fails
            mass = np.max(sum(np.abs(measure(part.copy())) for part in halves), initial=0.0)
            scale = max(scale, _CANCELLATION * mass)
        ok = np.tile(dev <= _PANEL_RTOL * scale, 2)
        # a masked sum: indexing halves[ok] would copy every accepted half first
        accepted = halves.sum(axis=0, where=ok.reshape((-1,) + (1,) * (halves.ndim - 1)))
        if depth == 1:
            total = accepted
        else:
            total += accepted
        kept_lo.append(lo[ok])
        kept_half.append(half[ok])
        if ok.all():
            return pref * measure(total), (np.concatenate(kept_lo), np.concatenate(kept_half))
        if depth == _MAX_DEPTH:
            refined = pref * measure(total + halves[~ok].sum(axis=0))
            raise QuadratureAccuracyError(
                f"{name}: radial panels unresolved after {depth} halvings; halves differ "
                f"by {dev.max() / scale:.3e} of the output scale (> {_PANEL_RTOL:.0e})",
                refined + pref * diff[~ok[:n]].sum(axis=0), refined)
        lo, half, whole = lo[~ok], half[~ok], halves[~ok]


def _kernel_quadrature(field, bundle: KernelParams, rho_nodes: np.ndarray,
                       lo: np.ndarray, half: np.ndarray, n_azimuth: int, refine: bool):
    """Transform values on (rho_nodes x uniform azimuth grid of an even
    n_azimuth), and the panels (lo, half) of the radial rule that produced them.

    The azimuth integral is a circular convolution with the kernel e^{-i t},
    t = (rho/b) r cos psi on the difference angle psi = theta - phi.  t
    changes sign at psi + pi, so the kernel's DFT is i^{m mod 2} G[m] with
    G = rfft(cos t - sin t) real and even; i^{m mod 2} is folded into the
    field's spectrum once per batch.  As cos(pi - psi) = -cos psi, t is only
    evaluated on psi in [0, pi/2], and there per panel as
    e^{-i (rho/b) mid cos psi} e^{-i (rho/b) half x cos psi} for the nodes
    mid + half x: one exponential row per panel and 16 per distinct
    half-width in a block of panels, of which each depth of the rule has
    one.  A panel's sum [p, k] is the DFT over the quadrature azimuths of
    its contribution at rho_nodes[k]; the deviations of the adaptive rule
    are taken after the inverse DFT, so they are bounded over phi.

    The calling thread evaluates the field on a batch of panels.  Then one
    thread per contiguous block of panels takes its rows' spectra in place
    and folds them into `spec`, and, once the batch is freed, runs the loop
    over rho_nodes.  The arrays they fill are allocated by the calling
    thread; a worker allocates nothing larger than one panel's rows.
    """
    a, b = bundle.a, bundle.b
    mu1 = bundle.mu1
    n = n_azimuth
    th = -np.pi + 2.0 * np.pi * np.arange(n) / n
    wth = 2.0 * np.pi / n
    h = n // 2
    q = n // 4 + 1
    # cos psi for psi = 2 pi m / n, m <= n/4; exactly 0 at psi = pi/2
    cos_psi = np.sin(np.pi * (n - 4 * np.arange(q)) / (2 * n))
    parity = np.where(np.arange(n) % 2, 1j, 1.0)
    sin_th = np.sin(th[None, :] + bundle.phi1)
    # columns m and n - m, m <= n/2, of the real and of the imaginary plane,
    # as indices into a row of complex values seen as float pairs
    mirror = np.array([np.arange(h + 1), (n - np.arange(h + 1)) % n])
    fold = 2 * mirror + np.arange(2)[:, None, None]
    xg = _panel_rule()[0]

    def sums(lo, half):
        r, wr = _panel_nodes(lo, half)
        base = np.empty((r.size, n), dtype=complex)
        base[...] = _field_values(field, r[:, None], th[None, :], "olct_forward")
        spec = np.empty((lo.size, _NODES_PER_PANEL, 2, 2, h + 1))
        # contiguous panel blocks, one per usable CPU; rows are independent,
        # so the result is the same to the bit for any number of blocks
        n_blocks = min(_usable_cpus(), lo.size)
        blocks = [slice(lo.size * i // n_blocks, lo.size * (i + 1) // n_blocks)
                  for i in range(n_blocks)]

        def spectrum(p):
            # rows of panels p, in place: input phases, weights, azimuth DFT
            # and parity, then folded into spec[p]
            rows = slice(_NODES_PER_PANEL * p.start, _NODES_PER_PANEL * p.stop)
            f, rr = base[rows], r[rows, None]
            f *= np.exp(1j * (a / (2.0 * b)) * rr ** 2)
            if mu1 != 0.0:
                # a panel at a time: the phase over every row would be a
                # work array as large as the block.  The phase is the first
                # factor, as numpy's complex product is not symmetric to the bit
                for s in range(0, f.shape[0], _NODES_PER_PANEL):
                    panel = f[s:s + _NODES_PER_PANEL]
                    np.multiply(np.exp(1j * (mu1 / b) * rr[s:s + _NODES_PER_PANEL] * sin_th),
                                panel, out=panel)
            f *= ((r[rows] * wr[rows])[:, None] * wth)
            np.fft.fft(f, axis=1, out=f)
            f *= parity
            # G is even: pair each column m <= n/2 with its mirror n - m, and keep
            # real and imaginary planes, so the products with G are real and
            # unit-stride.  mode="clip" takes into `out` without a temporary
            np.take(f.view(float), fold, axis=1, out=spec[p].reshape(-1, 2, 2, h + 1), mode="clip")

        _on_blocks(spectrum, blocks)
        del base
        mid = lo + half
        out = np.empty((lo.size, rho_nodes.size, n), dtype=complex)

        def radius_loop(block):
            # panels p at every output radius.  Exponents go into the imaginary
            # parts of zeroed buffers, so e^{i x} is taken in place.
            p, offs, which, (arg, e_off, e_mid, e, g, g_hat, res) = block
            out_p = out[p]
            for k, rho in enumerate(rho_nodes):
                np.multiply(-rho / b, cos_psi, out=arg)
                e_off.real = 0.0
                np.multiply(offs, arg, out=e_off.imag)
                np.exp(e_off, out=e_off)
                e_mid.real = 0.0
                np.multiply(mid[p, None, None], arg, out=e_mid.imag)
                np.exp(e_mid, out=e_mid)
                np.take(e_off, which, axis=0, out=e, mode="clip")
                np.multiply(e_mid, e, out=e)
                # cos t - sin t on [0, pi/2], cos t + sin t mirrored onto [pi/2, pi],
                # even in psi; each written at m and n - m, as a copy within g
                # would take a temporary
                np.add(e.real, e.imag, out=g[..., :q])
                np.add(e.real[..., 1:], e.imag[..., 1:], out=g[..., n - 1:n - q:-1])
                np.subtract(e.real, e.imag, out=g[..., h:h - q:-1])
                np.subtract(e.real[..., 1:], e.imag[..., 1:], out=g[..., h + 1:h + q])
                np.fft.rfft(g, axis=-1, out=g_hat)
                np.einsum("pncsm,pnm->pcsm", spec[p], g_hat.real, out=res)
                ring = out_p[:, k]
                ring.real[:, :h + 1] = res[:, 0, 0]
                ring.imag[:, :h + 1] = res[:, 1, 0]
                ring.real[:, h + 1:] = res[:, 0, 1, h - 1:0:-1]
                ring.imag[:, h + 1:] = res[:, 1, 1, h - 1:0:-1]

        loops = []
        for p in blocks:
            m = p.stop - p.start
            widths, which = np.unique(half[p], return_inverse=True)
            # allocated here: large allocations in worker threads would land
            # in per-thread malloc arenas and raise peak memory
            work = (np.empty(q), np.empty((widths.size, _NODES_PER_PANEL, q), dtype=complex),
                    np.empty((m, 1, q), dtype=complex), np.empty((m, _NODES_PER_PANEL, q), dtype=complex),
                    np.empty((m, _NODES_PER_PANEL, n)), np.empty((m, _NODES_PER_PANEL, h + 1), dtype=complex),
                    np.empty((m, 2, 2, h + 1)))
            loops.append((p, widths[:, None, None] * xg[None, :, None], which, work))
        _on_blocks(radius_loop, loops)
        return out

    pref = bundle.ell1 / (2.0 * np.pi * abs(b)) * np.exp(1j * bundle.d * rho_nodes ** 2 / (2.0 * b))[:, None]
    if bundle.mu2 != 0.0:
        pref = pref * np.exp(-1j * (rho_nodes[:, None] * bundle.mu2 / b) * np.sin(th[None, :] + bundle.phi2))
    return _panel_quadrature(sums, n_azimuth, lo, half, refine=refine, name="olct_forward",
                             measure=lambda x: np.fft.ifft(x, axis=-1, out=x), pref=pref)


def _check_refined(value, refined, verify_tol: float, what: str) -> None:
    """Raise QuadratureAccuracyError above 10 x verify_tol relative."""
    scale = float(np.max(np.abs(refined))) or 1.0
    dev = float(np.max(np.abs(value - refined))) / scale
    if dev > 10.0 * verify_tol:
        raise QuadratureAccuracyError(
            f"{what} differs by {dev:.3e} (> 10 x {verify_tol:.1e})", value, refined)


def _subsample(values: np.ndarray, n_azimuth: int, n_phi: int) -> np.ndarray:
    if n_azimuth % n_phi:
        raise ValueError("output azimuth count must divide the quadrature grid")
    return values[:, :: n_azimuth // n_phi]


def _check_r_max(r_max: float, name: str = "r_max") -> None:
    if not (math.isfinite(r_max) and r_max > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {r_max!r}")


def olct_forward(field, params: OffsetParams, grid: PolarGrid, *,
                 r_max: float = 40.0, n_radial: int | None = None,
                 n_azimuth: int | None = None, verify_tol: float | None = None) -> SpectrumField:
    """Forward transform of an evaluable field by full-kernel quadrature.

    `field` is a callable f(r, theta) accepting broadcast arrays, or an
    object with such an `evaluate` method; its values may have any shape
    that broadcasts to that of r and theta together (a radial-only field
    is one), others raise ValueError.  It must be negligible beyond `r_max`
    and finite on [0, r_max] (non-finite values raise ValueError).

    With `n_radial` the radial rule is `n_radial` nodes of uniform 16-node
    Gauss-Legendre panels.  Without it, starting from 16 uniform panels,
    each panel is split until it agrees with its two halves to 1e-11 of
    max|F| at every output point (1e-14 of the summed panel magnitudes
    where F cancels below 1e-3 of them); a panel unresolved after 12
    halvings raises QuadratureAccuracyError with the estimate.  With
    `verify_tol` the quadrature is repeated with every panel split once
    more and twice the azimuth nodes, raising QuadratureAccuracyError if
    the two differ by more than 10 x verify_tol relative.

    The azimuth rule has `n_azimuth` nodes, by default a power of two set by
    the kernel's oscillation rate; either is rounded up to a multiple of
    lcm(2, grid.n_phi), so the output azimuths are quadrature nodes and the
    kernel's half-turn symmetry holds on the rule.

    `field` is called on the calling thread only.  Everything else - input
    phases, azimuth FFT and the loop over output radii - runs on one thread
    per usable CPU (os.sched_getaffinity), the calling thread included, each
    over its own block of radial panels; the result is identical to the bit
    for any CPU count.
    """
    _check_r_max(r_max)
    f = _as_field_callable(field)
    rho_max = float(grid.rho.max()) if grid.rho.size else 0.0
    step = math.lcm(2, grid.n_phi)
    na = step * math.ceil((n_azimuth or _azimuth_node_count(params, r_max, rho_max)) / step)
    full, panels = _kernel_quadrature(f, params, grid.rho, *_initial_panels(r_max, n_radial),
                                      na, refine=not n_radial)
    values = _subsample(full, na, grid.n_phi)
    if verify_tol is not None:
        refined, _ = _kernel_quadrature(f, params, grid.rho, *_halve(*panels), 2 * na,
                                        refine=False)
        _check_refined(values, _subsample(refined, 2 * na, grid.n_phi), verify_tol,
                       "olct_forward: split-panel result")
    return SpectrumField(values, grid, params)


def spectral_extent(params: OffsetParams, omega: float, margin: float = 1.05) -> float:
    """Radial reach of the transform of an omega-bandlimited field; the
    spatial offset tau translates the spectral disk."""
    return margin * (omega + params.mu1)


def olct_inverse(spectrum: SpectrumField, params: OffsetParams, r, theta,
                 *, verify_tol: float | None = None) -> np.ndarray:
    """Evaluate the inverse transform at points (r, theta).

    Applies the kernel quadrature with the inverse bundle (d,-b;-c,a) and
    offsets (xi, gamma) over the spectrum's own grid.  Two corrections to
    the bundle-substitution recipe are required for an exact round trip:
    the normalization uses |b| and the result carries conj(sigma).  With
    `verify_tol` the sum is repeated on every other azimuth, so the grid's
    n_phi must be even, raising QuadratureAccuracyError if the two differ by
    more than 10 x verify_tol relative.
    """
    bundle = InverseParams(params).bundle()
    r = np.atleast_1d(np.asarray(r, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if r.shape != theta.shape:
        raise ValueError("r and theta must have matching shapes")

    grid = spectrum.grid
    rho = grid.rho
    phi = grid.phi
    wrho = grid.rho_weights
    if wrho is None:
        raise ValueError("olct_inverse needs a quadrature grid (rho_weights); "
                         "build the spectrum on spectral_grid(...)")
    if not np.all(np.isfinite(spectrum.values)):
        raise ValueError("olct_inverse: the spectrum has non-finite values")
    if verify_tol is not None and grid.n_phi % 2:
        # every other node of an odd uniform grid is not a uniform rule
        raise ValueError(f"olct_inverse: verify_tol needs an even n_phi, got {grid.n_phi}")

    out = _apply_inverse(spectrum.values, bundle, r, theta, rho, wrho, phi)
    if verify_tol is not None:
        # refinement along azimuth: drop every other node and compare
        coarse = _apply_inverse(spectrum.values[:, ::2], bundle, r, theta,
                                rho, wrho, phi[::2])
        _check_refined(coarse, out, verify_tol, "olct_inverse: azimuth-halved result")
    return np.conj(params.sigma) * out


def _apply_inverse(values, bundle, r_out, th_out, rho, wrho, phi):
    a, b = bundle.a, bundle.b
    mu1, mu2 = bundle.mu1, bundle.mu2
    wphi = 2.0 * np.pi / phi.size
    base = values * np.exp(1j * (a / (2.0 * b)) * rho[:, None] ** 2)
    if mu1 != 0.0:
        base = base * np.exp(1j * (rho[:, None] * mu1 / b) * np.sin(phi[None, :] + bundle.phi1))
    base = base * (rho * wrho)[:, None] * wphi
    norm = bundle.ell1 / (2.0 * np.pi * abs(b))
    out = np.empty(r_out.shape, dtype=complex)
    chunk = max(1, int(2e6 // (rho.size * phi.size)) or 1)
    flat_r = r_out.ravel()
    flat_t = th_out.ravel()
    res = np.empty(flat_r.size, dtype=complex)
    for s in range(0, flat_r.size, chunk):
        rr = flat_r[s:s + chunk]
        tt = flat_t[s:s + chunk]
        kern = np.exp(-1j * (rho[None, :, None] * rr[:, None, None] / b)
                      * np.cos(phi[None, None, :] - tt[:, None, None]))
        vals = np.einsum("ij,pij->p", base, kern)
        pref = norm * np.exp(1j * bundle.d * rr ** 2 / (2.0 * b))
        if mu2 != 0.0:
            pref = pref * np.exp(-1j * (rr * mu2 / b) * np.sin(tt + bundle.phi2))
        res[s:s + chunk] = pref * vals
    return res.reshape(r_out.shape)


def olct_via_ft(field, params: OffsetParams, grid: PolarGrid, *,
                r_max: float = 40.0, n_radial: int | None = None,
                n_azimuth: int | None = None) -> SpectrumField:
    """Forward transform through the chirp/FT factorization.

    Multiplies the field by the input chirp and spatial-offset phase, takes
    the plain polar Fourier transform, and restores the output phases.
    Serves as the independent route against olct_forward, whose azimuth
    rounding `n_azimuth` follows.
    """
    f = _as_field_callable(field)
    a, b, d = params.a, params.b, params.d
    mu1, mu2 = params.mu1, params.mu2

    def f_tilde(r, th):
        mod = np.exp(1j * (a / (2.0 * b)) * r ** 2)
        if mu1 != 0.0:
            mod = mod * np.exp(1j * (mu1 / b) * r * np.sin(th + params.phi1))
        return _field_values(f, r, th, "olct_via_ft") * mod

    _check_r_max(r_max)
    ft_params = OffsetParams(0.0, 1.0, -1.0, 0.0)
    inner = PolarGrid(grid.rho / b, grid.n_phi)
    rho_max = float(grid.rho.max()) if grid.rho.size else 0.0
    na = n_azimuth or _azimuth_node_count(params, r_max, rho_max)
    ft = olct_forward(f_tilde, ft_params, inner, r_max=r_max, n_radial=n_radial, n_azimuth=na)

    phase = np.exp(1j * (d / (2.0 * b)) * grid.rho[:, None] ** 2)
    phase = phase * np.exp(-1j * (grid.rho[:, None] * mu2 / b) * np.sin(grid.phi[None, :] + params.phi2))
    values = (params.ell1 / b) * phase * ft.values
    return SpectrumField(values, grid, params)


# --------------------------------------------------------------------------
# radial (Hankel-type) transforms
# --------------------------------------------------------------------------

def _radial_quadrature(integrand, order, b: float, out: np.ndarray, pref, extent: float,
                       n_radial: int | None, verify_tol: float | None, name: str,
                       extent_name: str = "r_max") -> np.ndarray:
    """pref * sum over the radial rule on [0, extent] of
    integrand(s) J_v(s out / b) s ds: adaptive panels unless `n_radial`."""
    _check_r_max(extent, extent_name)

    def sums(lo, half):
        s, ws = _panel_nodes(lo, half)
        g = np.asarray(integrand(s), dtype=complex) * s * ws
        return _per_panel(bessel_j(order, s[:, None] * out[None, :] / b) * g[:, None])

    value, panels = _panel_quadrature(sums, out.size, *_initial_panels(extent, n_radial),
                                      refine=not n_radial, name=name, pref=pref)
    if verify_tol is not None:
        refined, _ = _panel_quadrature(sums, out.size, *_halve(*panels), refine=False,
                                       name=name, pref=pref)
        _check_refined(value, refined, verify_tol, f"{name}: split-panel result")
    return value


def hankel_transform(radial, order, u, *, r_max: float = 40.0,
                     n_radial: int | None = None) -> np.ndarray:
    """Classical order-v Hankel transform by quadrature (olct_forward's radial rule)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return _radial_quadrature(radial, order, 1.0, u, 1.0, r_max, n_radial, None, "hankel_transform")


def olcht_forward(radial, order, params: OffsetParams, rho, *,
                  r_max: float = 40.0, n_radial: int | None = None,
                  verify_tol: float | None = None) -> np.ndarray:
    """Order-v radial transform of the polar kernel without its offset phases,

        i^v ell1/b e^{i d rho^2/2b} int f(r) e^{i a r^2/2b} J_v(r rho/b) r dr,

    so it is one term of the angular series only for tau = eta = 0
    (olct_series carries the offset phases).  The radial rule, `n_radial`,
    `verify_tol` and the non-finite check are olct_forward's, with max|H|
    over rho as the scale.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    a, b, d = params.a, params.b, params.d

    def integrand(r):
        return np.asarray(radial(r), dtype=complex) * np.exp(1j * (a / (2.0 * b)) * r ** 2)

    pref = (1j ** float(order)) * params.ell1 / b * np.exp(1j * (d / (2.0 * b)) * rho ** 2)
    return _radial_quadrature(integrand, order, b, rho, pref, r_max, n_radial, verify_tol,
                              "olcht_forward")


def olcht_inverse(transform, order, params: OffsetParams, r, *,
                  rho_max: float, n_radial: int | None = None,
                  verify_tol: float | None = None) -> np.ndarray:
    """Inverse of olcht_forward.

    `transform` is a callable H(rho) evaluable on [0, rho_max].  This is the
    exact algebraic inverse of olcht_forward's kernel: prefactor
    i^{-v} conj(ell1)/b with both chirps conjugated.  The rho rule is
    olcht_forward's, with max|f| over the output radii as the scale.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    a, b, d = params.a, params.b, params.d
    pref = (1j ** (-float(order))) * np.conj(params.ell1) / b * np.exp(-1j * (a / (2.0 * b)) * r ** 2)
    return _radial_quadrature(
        lambda rho: np.asarray(transform(rho), dtype=complex) * np.exp(-1j * (d / (2.0 * b)) * rho ** 2),
        order, b, r, pref, rho_max, n_radial, verify_tol, "olcht_inverse", "rho_max")


# --------------------------------------------------------------------------
# angular decomposition and the series route
# --------------------------------------------------------------------------

def fourier_coefficients(field, n_max: int, n_theta: int | None = None) -> dict:
    """Angular Fourier coefficients f_n as radial callables, |n| <= n_max.

    Uniform trapezoid in theta; exact for angular polynomials of degree up
    to n_max once n_theta >= 2*n_max + 1 (default 4*n_max + 8).  The field
    values broadcast over theta as in olct_forward.
    """
    f = _as_field_callable(field)
    nt = n_theta or (4 * n_max + 8)
    th = 2.0 * np.pi * np.arange(nt) / nt

    def make(n):
        w = np.exp(-1j * n * th) / nt

        def coeff(r):
            r = np.atleast_1d(np.asarray(r, dtype=float))
            # copied where broadcast: the product then sums as it does over
            # full-shape values, to the bit
            vals = np.ascontiguousarray(
                _field_values(f, r[:, None], th[None, :], "fourier_coefficients"), dtype=complex)
            if not np.all(np.isfinite(vals)):
                raise ValueError("fourier_coefficients: field returned non-finite values")
            return vals @ w

        return coeff

    return {n: make(n) for n in range(-n_max, n_max + 1)}


def olct_series(coefficients: dict, params: OffsetParams, grid: PolarGrid, *,
                r_max: float = 40.0, n_radial: int | None = None) -> SpectrumField:
    """Assemble the transform from the angular coefficients f_n by the
    order-coupled expansion of the kernel,

        F(rho, phi) = ell1/b e^{i d rho^2/2b} e^{-i (mu2/b) rho sin(phi + phi2)}
            sum_{n, |p| <= M} (-i)^{n+p} e^{i p phi1} e^{i (n+p) phi}
            int f_n(r) e^{i a r^2/2b} J_p(r mu1/b) J_{n+p}(r rho/b) r dr,

    with M = lambda_truncation(mu1 r_max / b), or M = 0 without a spatial
    offset, where only the order-n terms remain.  It reproduces olct_forward
    with and without offsets.  All terms share one radial rule, olct_forward's
    with the largest term integral as the scale.
    """
    _check_r_max(r_max)
    a, b, d = params.a, params.b, params.d
    mu1, mu2 = params.mu1, params.mu2
    rho = grid.rho
    phi = grid.phi
    M = lambda_truncation(mu1 * r_max / b) if mu1 != 0.0 else 0
    n_max = max((abs(n) for n in coefficients), default=0)
    # term (n, p): coefficient n times the side factor J_p(r mu1 / b) against
    # the order-(n + p) kernel; all terms share one radial rule as columns
    terms = [(n, p) for n in sorted(coefficients) for p in range(-M, M + 1)]

    def signed(chain, m):
        # J_{-m} = (-1)^m J_m
        return chain[abs(m)] * ((-1.0) ** m if m < 0 else 1.0)

    def sums(lo, half):
        r, wr = _panel_nodes(lo, half)
        # the p = 0 row of the side factor is identically 1 when mu1 = 0
        side = bessel_jn_chain(r * mu1 / b, M)
        J_big = bessel_jn_chain(r[:, None] * rho[None, :] / b, n_max + M)
        chirp = np.exp(1j * (a / (2.0 * b)) * r ** 2) * r * wr
        fn = {n: np.asarray(coefficients[n](r), dtype=complex) * chirp for n in coefficients}
        out = np.empty((r.size // _NODES_PER_PANEL, rho.size, len(terms)), dtype=complex)
        for t, (n, p) in enumerate(terms):
            out[:, :, t] = _per_panel(signed(J_big, n + p) * (fn[n] * signed(side, p))[:, None])
        return out

    integrals, _ = _panel_quadrature(sums, (n_max + M + 1) * rho.size,
                                     *_initial_panels(r_max, n_radial),
                                     refine=not n_radial, name="olct_series")
    phase = np.array([[((-1j) ** (n + p)) * np.exp(1j * p * params.phi1)] for n, p in terms]) \
        * np.exp(1j * np.array([n + p for n, p in terms])[:, None] * phi[None, :])
    values = integrals @ phase
    values *= (params.ell1 / b) * np.exp(1j * (d / (2.0 * b)) * rho[:, None] ** 2)
    if mu2 != 0.0:
        values *= np.exp(-1j * (rho[:, None] * mu2 / b) * np.sin(phi[None, :] + params.phi2))
    return SpectrumField(values, grid, params)


def parseval_residual(ring_values: np.ndarray, terms: np.ndarray) -> float:
    """| mean |F(rho, .)|^2  -  sum_n |term_n|^2 | at one radius."""
    ring_values = np.asarray(ring_values, dtype=complex)
    terms = np.asarray(terms, dtype=complex)
    lhs = float(np.mean(np.abs(ring_values) ** 2))
    rhs = float(np.sum(np.abs(terms) ** 2))
    return abs(lhs - rhs)
