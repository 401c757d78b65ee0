"""Polar offset canonical transforms by direct quadrature.

The forward map is the double integral with the full oscillatory kernel; it
is the module's ground truth.  Every radial integral here (kernel, Hankel-
type transforms and inverse, angular series) uses one rule under error
control: 16-node Gauss-Legendre panels, each compared with its two halves.
A coarse level of 8 panels is taken whole, as its 16 halves, when every
panel agrees with its halves to 1e-11 of the largest output.  Otherwise
those halves start the refinement, and only the panels that disagree by
more than 1e-11 of the largest output are split (a refinement that does
not converge raises QuadratureAccuracyError).  The azimuthal direction is a
uniform trapezoid rule on an even number of nodes, evaluated as a circular
convolution with the kernel e^{-i t cos psi}, t = rho r_max / |b|, whose
spectrum is real and even up to a fixed phase.  Its Fourier coefficients
(-i)^m J_m(t) are below 1e-18 from M = ceil(1.25 t + 33), so each output
radius takes it on the least multiple of 4 azimuths at or above
M + min(M, B) (2M without a band B), or on the whole rule where that is
not fewer.  Only its coefficients at the field's orders are used: direct
sums over a quarter turn, with the exponentials factored over each panel,
for a batch of output radii in a few real matrix products.  The field's
azimuth spectrum on a batch of panels comes from one of two sources.  A
PolarField evaluated by PolarField.evaluate, under a bundle without a
spatial offset (mu1 = 0) and on more than 2B azimuths, B = max |n| of its
orders, gives it from its angular profiles f_n(r), its only 2B + 1
nonzero columns: no azimuth sampling, no FFT of field values.  Any other
field is evaluated on every azimuth, in blocks of whole panels of at most
2^16 points, each taking one FFT of which only the columns the kernels
reach are kept; its band on the batch is what is left after dropping the
longest run of top columns whose summed magnitude is at most 1e-14 of the
largest column.  The panel sums hold only those columns, bins m < C and
n - m, C = B + 1 or the kernels' top column, so their memory follows the
field's band rather than the azimuth rule; they are spread onto all n
bins only to be measured by the inverse DFT, and the adaptive rule takes
its deviations a bounded block of panels at a time.  Everything runs on
the calling thread, and the result is the trapezoid sum up to rounding,
checked against a point-by-point double sum.
The Hankel-type radial transforms and the angular series are algebraic
rearrangements of the same integral; they are checked against it and
against closed forms that share no code with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bessel import _lambda_truncation, bessel_j, bessel_jn_chain
from .params import KernelParams, OffsetParams, _check_count, _check_positive
from .synthesis import PolarField

__all__ = [
    "PolarGrid",
    "SpectrumField",
    "QuadratureAccuracyError",
    "radial_rule",
    "spectral_grid",
    "olct_forward",
    "olct_inverse",
    "olcht_forward",
    "olcht_inverse",
    "fourier_coefficients",
    "olct_series",
    "parseval_residual",
]

_NODES_PER_PANEL = 16
_DEFAULT_AZIMUTH_NODES = 512
# adaptive radial rule: coarse uniform panels, the accepted halves-vs-whole
# deviation relative to the largest output, and the most halvings of a
# coarse panel's half
_INITIAL_PANELS = 8
_PANEL_RTOL = 1e-11
_MAX_DEPTH = 12
# outputs below this share of the summed first-level panel magnitudes are
# rounding-limited (~1e-16 of those), so they are resolved to 1e-14 of them
_CANCELLATION = 1e-3
# elements (rows x azimuths) in one batch of kernel work arrays
_CHUNK = 8e6
# elements in one block of field values (nodes x azimuths) or of measured
# deviations (panels x outputs): bounded work arrays within a batch
_BLOCK = 2 ** 16
# multiply-adds in one matrix product (_direct_sums): OpenBLAS runs a gemm
# of at most 65536 x GEMM_MULTITHREAD_THRESHOLD (4 by default) on the
# calling thread, and wakes its threads for larger ones
_GEMM_SIZE = 2 ** 18


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
    `n_radial` nodes, or the coarse level of the adaptive rule when
    `n_radial` is None; anything but a positive integer raises ValueError."""
    if n_radial is None:
        n = _INITIAL_PANELS
    else:
        n = math.ceil(_check_count("n_radial", n_radial) / _NODES_PER_PANEL)
    width = r_max / n
    return width * np.arange(n), np.full(n, 0.5 * width)


def _per_panel(x: np.ndarray) -> np.ndarray:
    """Sums of node-major rows over each panel's 16 consecutive nodes."""
    return x.reshape((-1, _NODES_PER_PANEL) + x.shape[1:]).sum(axis=1)


def radial_rule(r_max: float, n_nodes: int):
    """Composite Gauss-Legendre nodes/weights on [0, r_max]."""
    return _panel_nodes(*_initial_panels(r_max, _check_count("n_nodes", n_nodes)))


def _kernel_length(t: float, n: int, band: int | None = None) -> int:
    """Azimuths for the kernel e^{-i t cos psi}: the least multiple of 4 that
    is at least M + min(M, band), n if not less.  From M = ceil(1.25 t + 33)
    its Fourier coefficients (-i)^m J_m(t) are below 1e-18, so the columns
    m <= band that are used see no alias above that (no band: every column
    up to the length's half)."""
    m = math.ceil(1.25 * t + 33.0)
    return min(4 * math.ceil((m + (m if band is None else min(m, band))) / 4), n)


def _profile_band(field, bundle: KernelParams, n: int) -> int | None:
    """B = max |n| over a PolarField's angular orders, when its azimuth
    spectrum on the n-node rule can be read from its profiles: the field
    is evaluated by PolarField.evaluate, the input phase is radial
    (mu1 = 0) and 2B < n, so that no two orders share a bin; else None."""
    if not (isinstance(field, PolarField) and bundle.mu1 == 0.0
            and type(field).evaluate is PolarField.evaluate
            and type(field).__call__ is PolarField.evaluate):
        return None
    band = max((abs(k) for k in field.coefficients), default=0)
    return band if 2 * band < n else None


def _azimuth_node_count(bundle: KernelParams, r_max: float, rho_max: float) -> int:
    rate = r_max * rho_max / abs(bundle.b) + r_max * bundle.mu1 / abs(bundle.b)
    return int(2 ** math.ceil(math.log2(max(_DEFAULT_AZIMUTH_NODES, 2.5 * rate + 32))))


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
        if np.any(rho < 0):
            # a negative radius would give _kernel_length a negative t, and
            # olct_forward zeros there in place of its values
            raise ValueError(f"PolarGrid: rho must be >= 0, got {float(rho[rho < 0][0])!r}")
        if rho.size and np.any(np.diff(rho) <= 0):
            raise ValueError("radial nodes must be strictly increasing")
        object.__setattr__(self, "rho", rho)
        if self.rho_weights is not None:
            w = np.atleast_1d(np.asarray(self.rho_weights, dtype=float))
            if w.shape != rho.shape:
                raise ValueError("rho_weights must match rho")
            if not np.all(np.isfinite(w)):
                raise ValueError(f"PolarGrid: rho_weights must be finite, got {w[~np.isfinite(w)][0]!r}")
            object.__setattr__(self, "rho_weights", w)
        object.__setattr__(self, "n_phi", _check_count("n_phi", self.n_phi))

    @property
    def phi(self) -> np.ndarray:
        return -np.pi + 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi


def spectral_grid(params: OffsetParams, omega: float, *, n_radial: int = 256,
                  n_phi: int = 64) -> PolarGrid:
    """Quadrature grid covering the spectral support of an omega-bandlimited
    field under `params`, with a 5 % margin: the offset tau translates the
    support disk, so its reach is omega + mu1."""
    _check_positive("omega", omega)
    rho, w = radial_rule(1.05 * (omega + params.mu1), _check_count("n_radial", n_radial))
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


def _non_finite(name: str) -> ValueError:
    return ValueError(f"{name}: the integrand has non-finite values")


def _panel_quadrature(sums, width: int, lo: np.ndarray, half: np.ndarray, *, refine: bool,
                      name: str, measure=lambda x: x, pref=1.0):
    """pref * measure(sum of the panel sums over the radial rule).

    `sums(lo, half)` maps a run of panels (lo[p], half[p]) to their per-panel
    sums (panel axis first), in batches of at most
    _CHUNK / (16 * width) panels.  The panels given share one half-width
    and each level of the rule is one depth of exact halvings, so the
    panels of one call do too.  `measure` is a linear map into the output
    domain (it may work in place, and its output may be wider than the
    sums) where deviations are taken: each panel's largest, over blocks
    of panels whose measured values hold about _BLOCK elements, so no work
    array is as large as a level.  The measured blocks are kept only at
    _MAX_DEPTH, for the estimate QuadratureAccuracyError carries.  Without
    `refine` the panels given are the rule.  With it they are a coarse
    level: if every one agrees with its two halves to _PANEL_RTOL of the
    largest output at every output, the halves are the rule.  Otherwise
    the halves are the first level, whose scale is the largest output or
    _CANCELLATION of the summed panel magnitudes, both from its own halves,
    whichever is larger.  A panel whose halves agree with it to _PANEL_RTOL
    of that scale at every output is replaced by them; the others are split
    again, up to _MAX_DEPTH halvings of the first level (then
    QuadratureAccuracyError).  Non-finite sums raise ValueError.
    """
    per_batch = max(1, int(_CHUNK // (_NODES_PER_PANEL * width)))
    non_finite = _non_finite(name)

    def batches(lo, half):
        for s in range(0, lo.size, per_batch):
            yield sums(lo[s:s + per_batch], half[s:s + per_batch])

    if not refine:
        total = sum(part.sum(axis=0) for part in batches(lo, half))
        if not np.all(np.isfinite(total)):
            raise non_finite
        return pref * measure(total)

    def panel_sums(lo, half):
        parts = list(batches(lo, half))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    whole = panel_sums(lo, half)
    # depth 0 is the coarse level, taken whole or not at all; the halvings
    # of the rule proper are counted from its halves
    for depth in range(_MAX_DEPTH + 1):
        n = lo.size
        lo, half = _halve(lo, half)
        halves = panel_sums(lo, half)
        if depth <= 1:
            level = np.abs(measure(halves.sum(axis=0)))
            # and the panels per block of measured deviations
            scale, step = np.max(level, initial=0.0), max(1, _BLOCK // max(level.size, 1))
            del level  # freed before the blocks
        # whole minus halves, in place; each panel's largest deviation in the
        # output domain, a block of panels at a time.  The blocks are kept
        # only for the estimate of a rule that does not converge
        whole -= halves[:n]
        whole -= halves[n:]
        dev, diff = np.empty(n), []
        for s in range(0, n, step):
            block = measure(whole[s:s + step])
            dev[s:s + step] = np.max(np.abs(block).reshape(len(block), -1), axis=1, initial=0.0)
            if depth == _MAX_DEPTH:
                diff.append(block)
        if not np.all(np.isfinite(dev)):
            raise non_finite
        if depth == 0:
            if dev.max() <= _PANEL_RTOL * scale:
                return pref * measure(halves.sum(axis=0))
            # the first level in panel order: the rule then runs, and sums, as
            # it would from 16 uniform panels
            order = np.argsort(lo)
            lo, half, whole = lo[order], half[order], halves[order]
            del halves  # freed before the next level's sums
            continue
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
        if ok.all():
            return pref * measure(total)
        if depth == _MAX_DEPTH:
            refined = pref * measure(total + halves[~ok].sum(axis=0))
            raise QuadratureAccuracyError(
                f"{name}: radial panels unresolved after {depth} halvings; halves differ "
                f"by {dev.max() / scale:.3e} of the output scale (> {_PANEL_RTOL:.0e})",
                refined + pref * np.concatenate(diff)[~ok[:n]].sum(axis=0), refined)
        lo, half, whole = lo[~ok], half[~ok], halves[~ok]
        del halves


def _kernel_quadrature(field, bundle: KernelParams, rho_nodes: np.ndarray,
                       lo: np.ndarray, half: np.ndarray, n_azimuth: int, refine: bool):
    """Transform values on (rho_nodes x uniform azimuth grid of an even
    n_azimuth).

    The field is multiplied by `bundle.input_phase` and the sum by
    ell1/(2 pi |b|) times `bundle.output_phase`; between them is the plain
    Fourier kernel.  Its azimuth integral is a circular convolution with
    e^{-i t}, t = (rho/b) r cos psi on the difference angle
    psi = theta - phi.  t changes sign at psi + pi, so the kernel's DFT is
    i^{m mod 2} G[m] with G the DFT of cos t - sin t, real and even;
    i^{m mod 2} is folded into the field's spectrum.  G is taken on
    _kernel_length's n_k azimuths (t up to rho r_ext / |b|, r_ext the
    panels' reach) and scaled by n/n_k; its columns past n_k/2, below
    1e-18, are left out.  As cos(pi - psi) = -cos psi, t is only evaluated
    on psi in [0, pi/2], and there per panel as
    e^{-i (rho/b) mid cos psi} e^{-i (rho/b) half x cos psi} for the nodes
    mid + half x: one exponential row per panel and 16 rows for all of them,
    since the panels of one call share their half-width (_panel_quadrature).
    A panel's sum [p, k] is the DFT over the quadrature azimuths of its
    contribution at rho_nodes[k]; the deviations of the adaptive rule are
    taken after the inverse DFT, so they are bounded over phi.  G is needed
    at the field's orders alone, and _direct_sums takes it there by sums
    over a quarter turn.  The field's spectrum on a batch of panels comes
    from its profiles where _profile_band allows (_profile_spectrum), else
    from FFTs of its values (_sampled_spectrum).  It holds bins m < C and
    n - m, C = min(top, B + 1) from the profiles and the kernels' top column
    otherwise, so the sums are stored compact, 2 C - 1 columns wide (bin
    n - m at column 2 C - 1 - m), or n wide where that is not fewer;
    `measure` spreads them onto the n bins just before the inverse DFT.
    """
    b = bundle.b
    n = n_azimuth
    band = _profile_band(field, bundle, n)
    # kernel lengths from the reach of all panels given, so no row depends on its batch
    r_ext = float(np.max(lo + 2.0 * half, initial=0.0))
    lengths = [_kernel_length(rho * r_ext / abs(b), n, band) for rho in rho_nodes]
    # no column past the longest kernel's half, nor past the field's band
    top = max(lengths, default=n) // 2 + 1
    cols = top if band is None else min(top, band + 1)
    th = -np.pi + 2.0 * np.pi * np.arange(n) / n
    if band is None:
        spectrum = lambda r, wr: _sampled_spectrum(field, bundle, r, wr, th, cols)
    else:
        spectrum = lambda r, wr: _profile_spectrum(field, bundle, r, wr, cols)
    width = min(2 * cols - 1, n)
    sums = _direct_sums(spectrum, bundle, rho_nodes, lengths, n, width)

    def measure(x):
        # the compact columns onto the n azimuths' bins, then the inverse DFT
        if width < n:
            full = np.zeros(x.shape[:-1] + (n,), dtype=complex)
            full[..., :cols] = x[..., :cols]
            full[..., n - cols + 1:] = x[..., cols:]
            x = full
        return np.fft.ifft(x, axis=-1, out=x)

    pref = bundle.ell1 / (2.0 * np.pi * abs(b)) * bundle.output_phase(rho_nodes[:, None], th)
    return _panel_quadrature(sums, n_azimuth, lo, half, refine=refine, name="olct_forward",
                             measure=measure, pref=pref)


def _profile_spectrum(field: PolarField, bundle: KernelParams, r: np.ndarray, wr: np.ndarray,
                      cols: int) -> np.ndarray:
    """The azimuth spectrum of a PolarField read from its angular profiles
    (_profile_band) at the radial nodes r with weights wr: bins m (s = 0)
    and n - m (s = 1) of the rule's DFT, m < cols, as [m, s, node], times
    the input phase, the weights and the kernel's parity.

    Bin m of the DFT of sum_k f_k(r) e^{ik theta} on n azimuths from -pi is
    n (-1)^m f_m(r), and bin n - m is n (-1)^m f_{-m}(r), as 2B < n.
    """
    profiles = field._profiles(r)
    if not all(np.all(np.isfinite(v)) for v in profiles.values()):
        raise _non_finite("olct_forward")
    vals = np.zeros((cols, 2, r.size), dtype=complex)
    for k, v in profiles.items():
        if abs(k) < cols:
            vals[abs(k), int(k < 0)] = v
    # n wth = 2 pi, and (-1)^m i^{m mod 2} is -i on odd m
    vals *= 2.0 * np.pi * bundle.input_phase(r) * r * wr
    vals[1::2] *= -1j
    return vals


def _sampled_spectrum(field, bundle: KernelParams, r: np.ndarray, wr: np.ndarray,
                      th: np.ndarray, top: int) -> np.ndarray:
    """_profile_spectrum's bins for any field, from FFTs of its values on
    the rule's azimuths th, on the field's band at these nodes.

    The field is evaluated, times the input phase and the weights, and
    transformed in blocks of whole panels of at most _BLOCK points (one
    panel at least), and only bins m < top and n - m of each block are
    kept, so no work array holds the batch on every azimuth.  Bins m < top
    are folded from them, and then the longest run of top
    columns is dropped whose summed magnitude (per column the largest over
    the nodes at m plus that at n - m) is at most _PANEL_RTOL *
    _CANCELLATION of the largest column's, the finest level the adaptive
    rule resolves (at least column 0 is kept).
    """
    n = th.size
    # bins m < top at column m and bin n - m at 2 top - 1 - m, and the
    # largest magnitude of each over the nodes
    kept = np.empty((r.size, 2 * top - 1), dtype=complex)
    largest = np.zeros(2 * top - 1)
    rows = _NODES_PER_PANEL * max(1, _BLOCK // (_NODES_PER_PANEL * n))
    for s in range(0, r.size, rows):
        rs = r[s:s + rows, None]
        # allocated once the field has returned, so its temporaries are freed
        f = np.array(_field_values(field, rs, th[None, :], "olct_forward"), dtype=complex)
        f *= bundle.input_phase(rs, th)
        f *= rs * wr[s:s + rows, None] * (2.0 * np.pi / n)
        np.fft.fft(f, axis=1, out=f)
        block = kept[s:s + rows]
        block[:, :top] = f[:, :top]
        block[:, top:] = f[:, n - top + 1:]
        np.maximum(largest, np.abs(block).max(axis=0), out=largest)
    # each column's largest magnitude at m plus that at n - m; a non-finite
    # value makes every bin of its row non-finite
    column = largest[:top]
    column[1:] += largest[top:][::-1]
    if not np.all(np.isfinite(column)):
        raise _non_finite("olct_forward")
    tail = np.cumsum(column[::-1])[::-1]
    m = np.arange(max(1, np.count_nonzero(tail > _PANEL_RTOL * _CANCELLATION * column.max())))
    vals = kept[:, np.array([m, -m % (2 * top - 1)])].transpose(2, 1, 0)
    vals[0, 1] = 0.0  # bin n - 0 is bin 0
    vals[1::2] *= 1j
    return vals


def _quarter_turn(lengths: np.ndarray, cols: int):
    """cos psi_j and weights W[k, j, m] on the quarter turn psi_j = 2 pi j / n_k
    of each length n_k = lengths[k], such that
    Re(sum_j e^{-i t cos psi_j} W[k, j, m]) is the kernel's G[m], m < cols,
    on n_k azimuths (_kernel_quadrature): i^{m mod 2} times it is
    n_k (-i)^m J_m(t), up to aliases below 1e-18 (_kernel_length).

    psi -> -psi and psi -> pi - psi fold the n_k azimuths onto the quarter
    turn 4 j <= n_k, with weight 2 at j = 0 (psi = 0 and pi) and at
    4 j = n_k (pi/2 and -pi/2, nodes only when 4 divides n_k), 4 elsewhere.
    Even m take cos t, odd m -sin t = Re(-i e^{-i t}): W = w_j cos(m psi_j)
    (-i)^{m mod 2}, zero past the quarter turn and for m > n_k/2.  j runs to
    the longest length's quarter turn; cos psi_j is exactly 0 at pi/2.
    """
    nk = np.asarray(lengths)[:, None]
    j = np.arange(int(nk.max(initial=0)) // 4 + 1)
    cos_psi = np.sin(np.pi * (nk - 4 * j) / (2 * nk))
    w = np.where(4 * j > nk, 0.0, np.where((j == 0) | (4 * j == nk), 2.0, 4.0))
    m = np.arange(cols)
    nk = nk[..., None]
    weights = np.where(2 * m > nk, 0.0, w[..., None] * np.cos(2.0 * np.pi * (j[:, None] * m % nk) / nk))
    return cos_psi, weights * np.where(m % 2, -1j, 1.0)


def _direct_sums(spectrum, bundle: KernelParams, rho_nodes: np.ndarray, lengths: list, n: int,
                 width: int):
    """_kernel_quadrature's per-panel sums of each output radius, `width`
    columns wide: bin m < cols at column m and bin n - m at width - m, the
    rest zero (width = n is the DFT's own layout), all on the calling
    thread.

    `spectrum(r, wr)` gives the field's bins m and n - m on a batch of
    panels as [m, s, node] (_profile_spectrum, _sampled_spectrum); cols is
    its length.  So only the kernel's G[m], m < cols, is needed, and it
    comes from _quarter_turn's direct sums, not from an FFT.  With
    e^{-i t} = e_mid e_off factored as in _kernel_quadrature, G at a batch
    of radii is one real matrix product per radius: the panels' e_mid, as
    float pairs, against the nodes' e_off times the weights and n / n_k;
    the sums are one more over the 16 nodes.  Radii are taken in batches
    whose work arrays hold no more floats than one kernel row of the
    longest length per node (at least one radius each), and the products
    in runs of panels of at most _GEMM_SIZE multiply-adds, so no BLAS
    thread is woken.
    """
    b = bundle.b
    xg = _panel_rule()[0]

    def radius_batches(panels, cols):
        # consecutive radii; a radius takes 2 q floats per panel for e_mid,
        # at most 64 q per column for e_off and its products with the
        # weights, and 20 per panel and column for the products
        budget = _NODES_PER_PANEL * panels * max(lengths)
        k0 = 0
        while k0 < len(lengths):
            k1 = k0 + 1
            while k1 < len(lengths) and (k1 + 1 - k0) * (
                    (max(lengths[k0:k1 + 1]) // 4 + 1) * (2 * panels + 64 * cols)
                    + 20 * panels * cols) <= budget:
                k1 += 1
            yield slice(k0, k1)
            k0 = k1

    def sums(lo, half):
        r, wr = _panel_nodes(lo, half)
        vals = spectrum(r, wr)
        cols, panels = vals.shape[0], lo.size
        # as [panel, m, node, (s, real/imag)]
        spec = np.ascontiguousarray(
            vals.reshape(cols, 2, panels, _NODES_PER_PANEL).transpose(2, 0, 3, 1)).view(float)
        del vals
        mid = lo + half
        offs = half[0] * xg
        out = np.zeros((panels, rho_nodes.size, width), dtype=complex)
        for ks in radius_batches(panels, cols):
            nk = np.array(lengths[ks])
            cos_psi, weights = _quarter_turn(nk, cols)
            weights *= (n / nk)[:, None, None]  # a DFT on n_k azimuths sums n_k samples
            arg = (-rho_nodes[ks, None] / b) * cos_psi
            # G = Re(e_mid e_off W): conj(e_mid) as float pairs, its exponent
            # taken in the imaginary part of a zeroed buffer, against the
            # real and imaginary parts of e_off W.  W is real on even m and
            # imaginary on odd m, so those parts are products of reals
            a = np.zeros(arg.shape[:1] + (panels,) + arg.shape[1:], dtype=complex)
            np.multiply(arg[:, None, :], -mid[:, None], out=a.imag)
            np.exp(a, out=a)
            a = a.view(float)
            e = np.exp(1j * arg[..., None] * offs)[..., None]
            w_even, w_odd = weights.real[:, :, None, ::2], weights.imag[:, :, None, 1::2]
            y = np.empty(arg.shape + (2, _NODES_PER_PANEL, cols))
            np.multiply(e.real, w_even, out=y[:, :, 0, :, ::2])
            np.multiply(e.imag, w_even, out=y[:, :, 1, :, ::2])
            np.multiply(e.imag, -w_odd, out=y[:, :, 0, :, 1::2])
            np.multiply(e.real, w_odd, out=y[:, :, 1, :, 1::2])
            y = y.reshape(arg.shape[0], -1, _NODES_PER_PANEL * cols)
            g = np.empty(a.shape[:2] + y.shape[2:])
            step = max(1, _GEMM_SIZE // y[0].size)
            for p in range(0, panels, step):
                np.matmul(a[:, p:p + step], y, out=g[:, p:p + step])
            g = g.reshape(-1, panels, _NODES_PER_PANEL, cols)
            # each column's sums over the nodes, then columns n - m and m:
            # bin n/2, where they meet, is taken from m
            res = np.matmul(g.transpose(1, 3, 0, 2), spec).view(complex)
            out[:, ks, width - cols + 1:] = res[:, :0:-1, :, 1].transpose(0, 2, 1)
            out[:, ks, :cols] = res[..., 0].transpose(0, 2, 1)
        return out

    return sums


def olct_forward(field, params: OffsetParams, grid: PolarGrid, *,
                 r_max: float = 40.0, n_radial: int | None = None,
                 n_azimuth: int | None = None) -> SpectrumField:
    """Forward transform of an evaluable field by full-kernel quadrature.

    `field` is a callable f(r, theta) accepting broadcast arrays; its values
    may have any shape that broadcasts to that of r and theta together (a
    radial-only field is one), others raise ValueError.  It must be
    negligible beyond `r_max` and finite on [0, r_max] (non-finite values
    raise ValueError).

    With `n_radial` the radial rule is `n_radial` nodes of uniform 16-node
    Gauss-Legendre panels.  Without it, the 16 halves of 8 uniform panels
    are the rule if each of the 8 agrees with its halves to 1e-11 of max|F|
    at every output point.  Otherwise each of those halves is split until
    it agrees with its two halves to that tolerance (1e-14 of the summed
    panel magnitudes where F cancels below 1e-3 of them); a panel
    unresolved after 12 halvings raises QuadratureAccuracyError with the
    estimate.  Other than None, `n_radial` and `n_azimuth` must be positive
    integers (else ValueError).

    The azimuth rule has `n_azimuth` nodes, by default a power of two set by
    the kernel's oscillation rate; either is rounded up to a multiple of
    lcm(2, grid.n_phi), so the output azimuths are quadrature nodes and the
    kernel's half-turn symmetry holds on the rule.  The field is taken on
    all of them, unless it is a PolarField evaluated by PolarField.evaluate,
    `params` has mu1 = 0 and the rule has more than 2B azimuths, B the
    largest |n| of its orders: then its azimuth spectrum is read from its
    angular profiles, to rounding that of `field.evaluate`.  The kernel is
    taken at each output radius on its own number of azimuths, at most the
    rule's: the least multiple of 4 at or above M + min(M, B) (2M without
    B), M = ceil(1.25 rho r_max / |b| + 33), past which its Fourier
    coefficients are below 1e-18.

    The kernel is needed only at the orders the field's spectrum holds:
    direct sums over a quarter turn of azimuths, output radii in batches of
    a few matrix products, with no kernel FFT.  Those orders are m <= B for
    a field read from its profiles.  Any other field takes, on each batch of
    radial panels, the columns of the FFT of its values that are left after
    dropping the longest run of top columns whose summed magnitude is at
    most 1e-14 of the largest column's; it is evaluated and transformed in
    blocks of whole panels of at most 2^16 points, so it is called once per
    block.  Memory follows those columns, not the azimuth rule.  Everything
    runs on the calling thread, so the result is the same for any CPU count.
    """
    _check_positive("r_max", r_max)
    rho_max = float(grid.rho.max()) if grid.rho.size else 0.0
    step = math.lcm(2, grid.n_phi)
    if n_azimuth is None:
        n_azimuth = _azimuth_node_count(params, r_max, rho_max)
    na = step * math.ceil(_check_count("n_azimuth", n_azimuth) / step)
    full = _kernel_quadrature(field, params, grid.rho, *_initial_panels(r_max, n_radial),
                              na, refine=n_radial is None)
    return SpectrumField(full[:, :: na // grid.n_phi], grid, params)


def olct_inverse(spectrum: SpectrumField, r, theta) -> np.ndarray:
    """Evaluate the inverse transform at points (r, theta).

    Applies the kernel quadrature with the inverse of the spectrum's own
    bundle, (d,-b;-c,a) with offsets (xi, gamma), over the spectrum's own
    grid.  Two corrections to the bundle-substitution recipe are required
    for an exact round trip: the normalization uses |b| and the result
    carries conj(sigma).  Non-finite r or theta raise ValueError.
    """
    params = spectrum.params
    bundle = params.inverse()
    r = np.atleast_1d(np.asarray(r, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if r.shape != theta.shape:
        raise ValueError("r and theta must have matching shapes")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(theta))):
        raise ValueError("olct_inverse: r and theta must be finite")

    grid = spectrum.grid
    rho, phi, wrho = grid.rho, grid.phi, grid.rho_weights
    if wrho is None:
        raise ValueError("olct_inverse needs a quadrature grid (rho_weights); "
                         "build the spectrum on spectral_grid(...)")
    if not np.all(np.isfinite(spectrum.values)):
        raise ValueError("olct_inverse: the spectrum has non-finite values")
    b = bundle.b
    wphi = 2.0 * np.pi / phi.size
    base = spectrum.values * bundle.input_phase(rho[:, None], phi) * (rho * wrho)[:, None] * wphi
    norm = bundle.ell1 / (2.0 * np.pi * abs(b))
    chunk = max(1, int(2e6 // (rho.size * phi.size)))
    flat_r = r.ravel()
    flat_t = theta.ravel()
    res = np.empty(flat_r.size, dtype=complex)
    for s in range(0, flat_r.size, chunk):
        rr = flat_r[s:s + chunk]
        tt = flat_t[s:s + chunk]
        kern = np.exp(-1j * (rho[None, :, None] * rr[:, None, None] / b)
                      * np.cos(phi[None, None, :] - tt[:, None, None]))
        vals = np.einsum("ij,pij->p", base, kern)
        res[s:s + chunk] = norm * bundle.output_phase(rr, tt) * vals
    return np.conj(params.sigma) * res.reshape(r.shape)


# --------------------------------------------------------------------------
# radial (Hankel-type) transforms
# --------------------------------------------------------------------------

def _radial_quadrature(integrand, order, b: float, out: np.ndarray, pref, extent: float,
                       n_radial: int | None, name: str, extent_name: str = "r_max") -> np.ndarray:
    """pref * sum over the radial rule on [0, extent] of
    integrand(s) J_v(s out / b) s ds: adaptive panels unless `n_radial`."""
    _check_positive(extent_name, extent)

    def sums(lo, half):
        s, ws = _panel_nodes(lo, half)
        g = np.asarray(integrand(s), dtype=complex) * s * ws
        return _per_panel(bessel_j(order, s[:, None] * out[None, :] / b) * g[:, None])

    return _panel_quadrature(sums, out.size, *_initial_panels(extent, n_radial),
                             refine=n_radial is None, name=name, pref=pref)


def olcht_forward(radial, order, params: OffsetParams, rho, *,
                  r_max: float = 40.0, n_radial: int | None = None) -> np.ndarray:
    """Order-v radial transform of the polar kernel without its offset phases,

        i^v ell1/b e^{i d rho^2/2b} int f(r) e^{i a r^2/2b} J_v(r rho/b) r dr,

    so it is one term of the angular series only for tau = eta = 0
    (olct_series carries the offset phases).  The radial rule, `n_radial`
    and the non-finite check are olct_forward's, with max|H| over rho as the
    scale.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    b = params.b

    def integrand(r):
        return np.asarray(radial(r), dtype=complex) * params.input_phase(r)

    pref = (1j ** float(order)) * params.ell1 / b * params.output_phase(rho)
    return _radial_quadrature(integrand, order, b, rho, pref, r_max, n_radial, "olcht_forward")


def olcht_inverse(transform, order, params: OffsetParams, r, *,
                  rho_max: float, n_radial: int | None = None) -> np.ndarray:
    """Inverse of olcht_forward.

    `transform` is a callable H(rho) evaluable on [0, rho_max].  This is the
    exact algebraic inverse of olcht_forward's kernel: prefactor
    i^{-v} conj(ell1)/b with both chirps conjugated.  The rho rule is
    olcht_forward's, with max|f| over the output radii as the scale.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    b = params.b
    pref = (1j ** (-float(order))) * np.conj(params.ell1) / b * np.conj(params.input_phase(r))
    return _radial_quadrature(
        lambda rho: np.asarray(transform(rho), dtype=complex) * np.conj(params.output_phase(rho)),
        order, b, r, pref, rho_max, n_radial, "olcht_inverse", "rho_max")


# --------------------------------------------------------------------------
# angular decomposition and the series route
# --------------------------------------------------------------------------

def fourier_coefficients(field, n_max: int) -> dict:
    """Angular Fourier coefficients f_n of the callable field f(r, theta) as
    radial callables, |n| <= n_max.

    Uniform trapezoid on 4*n_max + 8 azimuths in theta; exact for angular
    polynomials of degree up to n_max.  The field values broadcast over
    theta as in olct_forward.
    """
    nt = 4 * _check_count("n_max", n_max, 0) + 8
    th = 2.0 * np.pi * np.arange(nt) / nt

    def make(n):
        w = np.exp(-1j * n * th) / nt

        def coeff(r):
            r = np.atleast_1d(np.asarray(r, dtype=float))
            # copied where broadcast: the product then sums as it does over
            # full-shape values, to the bit
            vals = np.ascontiguousarray(
                _field_values(field, r[:, None], th[None, :], "fourier_coefficients"), dtype=complex)
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

    with M = _lambda_truncation(mu1 r_max / b), or M = 0 without a spatial
    offset, where only the order-n terms remain.  It reproduces olct_forward
    with and without offsets.  All terms share one radial rule, olct_forward's
    with the largest term integral as the scale.
    """
    _check_positive("r_max", r_max)
    b, mu1 = params.b, params.mu1
    rho = grid.rho
    phi = grid.phi
    M = _lambda_truncation(mu1 * r_max / b) if mu1 != 0.0 else 0
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
        chirp = params.input_phase(r) * r * wr
        fn = {n: np.asarray(coefficients[n](r), dtype=complex) * chirp for n in coefficients}
        out = np.empty((r.size // _NODES_PER_PANEL, rho.size, len(terms)), dtype=complex)
        for t, (n, p) in enumerate(terms):
            out[:, :, t] = _per_panel(signed(J_big, n + p) * (fn[n] * signed(side, p))[:, None])
        return out

    integrals = _panel_quadrature(sums, (n_max + M + 1) * rho.size,
                                  *_initial_panels(r_max, n_radial),
                                  refine=n_radial is None, name="olct_series")
    phase = np.array([[((-1j) ** (n + p)) * np.exp(1j * p * params.phi1)] for n, p in terms]) \
        * np.exp(1j * np.array([n + p for n, p in terms])[:, None] * phi[None, :])
    values = integrals @ phase
    values *= (params.ell1 / b) * params.output_phase(rho[:, None], phi)
    return SpectrumField(values, grid, params)


def parseval_residual(ring_values: np.ndarray, terms: np.ndarray) -> float:
    """| mean |F(rho, .)|^2  -  sum_n |term_n|^2 | at one radius."""
    ring_values = np.asarray(ring_values, dtype=complex)
    terms = np.asarray(terms, dtype=complex)
    lhs = float(np.mean(np.abs(ring_values) ** 2))
    rhs = float(np.sum(np.abs(terms) ** 2))
    return abs(lhs - rhs)
