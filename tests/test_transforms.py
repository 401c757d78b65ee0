"""Transform quadratures against independent oracles and round trips."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from polar_olct import (
    OffsetParams,
    PolarField,
    PolarGrid,
    QuadratureAccuracyError,
    SpectrumField,
    fourier_coefficients,
    olct_forward,
    olct_inverse,
    olct_series,
    olcht_forward,
    olcht_inverse,
    parseval_residual,
    random_spectrum,
    spectral_grid,
    synthesize,
    synthesize_sonine,
)
from polar_olct import KernelParams, bessel, transforms
from polar_olct.harness import _gaussian_olct, _gaussian_olcht, _per_order_series
from polar_olct.transforms import radial_rule


def rel_err(x, truth):
    return float(np.max(np.abs(x - truth))) / (float(np.max(np.abs(truth))) or 1.0)


def direct_kernel_sum(field, p, grid, r_max, n_radial, n_azimuth):
    """The forward double sum with the kernel evaluated at every (r, theta)
    for every output point: radial_rule nodes, trapezoid azimuths, no FFT."""
    r, wr = radial_rule(r_max, n_radial)
    th = -np.pi + 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    R, TH = r[:, None], th[None, :]
    g = field(R, TH) * np.exp(1j * (p.a / (2 * p.b)) * R ** 2 + 1j * (p.mu1 / p.b) * R * np.sin(TH + p.phi1)) \
        * (r * wr)[:, None] * (2.0 * np.pi / n_azimuth)
    out = np.empty((grid.rho.size, grid.n_phi), dtype=complex)
    for k, rho in enumerate(grid.rho):
        for j, phi in enumerate(grid.phi):
            total = np.sum(g * np.exp(-1j * R * rho * np.cos(TH - phi) / p.b))
            out[k, j] = total * np.exp(1j * (p.d / (2 * p.b)) * rho ** 2
                                       - 1j * (rho * p.mu2 / p.b) * np.sin(phi + p.phi2))
    return p.ell1 / (2.0 * np.pi * abs(p.b)) * out


def test_engine_matches_direct_double_loop(offset_params):
    field = lambda r, th: np.exp(-0.3 * r ** 2) * (1.0 + 0.5 * r * np.exp(1j * th)
                                                   + 0.2 * np.exp(-2j * th))
    # LCT (1, 2; -0.25, 0.5) with both offsets, on 32 azimuths (a multiple
    # of four) and on 30 (n_phi = 5, rounded to an even multiple)
    lct_offsets = OffsetParams(1.0, 2.0, -0.25, 0.5, (0.3, 0.4), (0.1, -0.2))
    rho = np.array([0.3, 1.1, 2.0])
    for p, n_phi, n_azimuth in ((offset_params, 16, 16), (lct_offsets, 8, 32), (lct_offsets, 5, 30)):
        grid = PolarGrid(rho, n_phi)
        got = olct_forward(field, p, grid, r_max=8.0, n_radial=64, n_azimuth=n_azimuth)
        assert rel_err(got.values, direct_kernel_sum(field, p, grid, 8.0, 64, n_azimuth)) < 1e-13
    # on 512 and 520 azimuths the kernel at rho = 60 (t up to 240) takes all
    # of them, and the three smaller radii (t up to 120) their own band
    rho = np.array([0.3, 2.0, 30.0, 60.0])
    assert [transforms._kernel_length(x * 8.0 / 2.0, 512) for x in rho] == [72, 88, 368, 512]
    for p, n_phi, n_azimuth in ((offset_params, 16, 512), (lct_offsets, 8, 512), (lct_offsets, 5, 520)):
        grid = PolarGrid(rho, n_phi)
        got = olct_forward(field, p, grid, r_max=8.0, n_radial=64, n_azimuth=n_azimuth).values
        assert rel_err(got, direct_kernel_sum(field, p, grid, 8.0, 64, n_azimuth)) < 1e-13
        # a radius whose kernel takes every azimuth runs the full-band path
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transforms, "_kernel_length", lambda t, n, band: n)
            full = olct_forward(field, p, grid, r_max=8.0, n_radial=64, n_azimuth=n_azimuth).values
        assert np.array_equal(got[3], full[3])


def test_zero_field_and_linearity(rot, make_field):
    grid = PolarGrid(np.linspace(0.1, 0.9, 4), 8)
    zero = olct_forward(lambda r, t: np.zeros(np.broadcast(r, t).shape, complex),
                        rot, grid, r_max=20.0, n_radial=128, n_azimuth=64)
    assert np.max(np.abs(zero.values)) == 0.0
    g = make_field(rot, seed=21)
    h = make_field(rot, seed=22)
    both = lambda r, t: g.evaluate(r, t) + h.evaluate(r, t)
    kw = dict(r_max=40.0, n_radial=512, n_azimuth=128)
    Fg = olct_forward(g, rot, grid, **kw).values
    Fh = olct_forward(h, rot, grid, **kw).values
    Fb = olct_forward(both, rot, grid, **kw).values
    assert rel_err(Fb, Fg + Fh) < 1e-9


def test_reduction_matches_classical_polar_ft(rot, make_field):
    f = make_field(rot, seed=5)
    grid = PolarGrid(np.linspace(0.1, 0.9, 5), 16)
    F = olct_forward(f, rot, grid, r_max=60.0)
    # classical unitary polar FT by separate quadrature code
    r, wr = radial_rule(60.0, 1024)
    th = -np.pi + 2.0 * np.pi * np.arange(256) / 256
    vals = np.empty((5, 16), complex)
    fv = f.evaluate(r[:, None], th[None, :])
    for i, rho in enumerate(grid.rho):
        for q, phi in enumerate(grid.phi):
            kern = np.exp(-1j * rho * r[:, None] * np.cos(th[None, :] - phi))
            vals[i, q] = np.sum(fv * kern * (r * wr)[:, None]) * (2 * np.pi / 256) / (2 * np.pi)
    assert rel_err(F.values, vals) < 1e-6


def test_forward_vs_closed_form_on_random_draws():
    # oracle: harness._gaussian_olct, the closed-form offset transform of a
    # Gaussian times (c0 + c1 (r/s) e^{i theta}) with every phase written out
    rng = np.random.default_rng(42)
    worst = 0.0
    grid = PolarGrid(np.linspace(0.05, 1.0, 16), 16)
    for _ in range(5):
        a = rng.uniform(-1.0, 1.0)
        b = rng.uniform(0.5, 2.0)
        d = rng.uniform(-1.0, 1.0)
        p = OffsetParams(a, b, (a * d - 1.0) / b, d,
                         (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                         (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
        fw = olct_forward(chirped_gaussian(2.0, *CHIRP_COEFFS), p, grid, r_max=30.0)
        truth = _gaussian_olct(p, 2.0, *CHIRP_COEFFS, grid.rho[:, None], grid.phi[None, :])
        worst = max(worst, rel_err(fw.values, truth))
    assert worst < 1e-6


def test_olcht_reduction_is_classical_hankel(rot, make_field, scipy_hankel):
    # oracle: scipy quad_vec with scipy.special.jv (the scipy_hankel fixture)
    f0 = make_field(rot, k_max=0, seed=9).coefficients[0]
    rho = np.linspace(0.05, 0.95, 9)
    got = olcht_forward(f0, 0, rot, rho, r_max=60.0)
    classical = scipy_hankel(f0, 0, rho, 60.0)
    assert rel_err(got, classical) < 1e-8


def test_olcht_chirp_factorization(lct, make_field, scipy_hankel):
    # oracle: the input chirp written out, then scipy quad_vec with
    # scipy.special.jv, then the prefactor and output chirp written out
    for v in (0, 1, 3):
        f0 = make_field(lct, k_max=0, seed=9 + v, order_map="fixed", fixed_order=v).coefficients[0]
        rho = np.linspace(0.05, 0.95, 9)
        lhs = olcht_forward(f0, v, lct, rho, r_max=60.0)
        chirped = lambda r: np.exp(1j * lct.a * r ** 2 / (2 * lct.b)) * f0(r)
        cl = scipy_hankel(chirped, v, rho / lct.b, 60.0)
        ell1 = np.exp(1j * lct.d * (lct.tau[0] ** 2 + lct.tau[1] ** 2) / lct.b)
        rhs = (1j ** v) * ell1 / lct.b * np.exp(1j * lct.d * rho ** 2 / (2 * lct.b)) * cl
        assert rel_err(lhs, rhs) < 1e-8


def test_olcht_zero_input(lct):
    rho = np.linspace(0.1, 1.0, 4)
    out = olcht_forward(lambda r: np.zeros_like(np.atleast_1d(r)), 1, lct, rho, r_max=10.0)
    assert np.max(np.abs(out)) == 0.0


def test_olct_roundtrip_reduction(rot, make_field):
    f = make_field(rot, seed=3)
    sg = spectral_grid(rot, 1.0, n_radial=96, n_phi=64)
    spec = olct_forward(f, rot, sg, r_max=60.0)
    rr = np.linspace(0.2, 4.0, 7)
    tt = np.linspace(-2.5, 2.5, 7)
    rec = olct_inverse(spec, rr, tt)
    assert rel_err(rec, f.evaluate(rr, tt)) < 1e-5


def test_olct_roundtrip_with_offsets(offset_params, make_field):
    p = offset_params
    f = make_field(p, seed=4)
    sg = spectral_grid(p, 1.0, n_radial=96, n_phi=64)
    spec = olct_forward(f, p, sg, r_max=40.0)
    rr = np.linspace(0.2, 4.0, 7)
    tt = np.linspace(-2.5, 2.5, 7)
    rec = olct_inverse(spec, rr, tt)
    assert rel_err(rec, f.evaluate(rr, tt)) < 1e-4


def test_olct_roundtrip_error_halves_under_node_doubling(rot, make_field):
    f = make_field(rot, seed=3)
    rr = np.linspace(0.2, 4.0, 7)
    tt = np.linspace(-2.5, 2.5, 7)
    truth = f.evaluate(rr, tt)

    def run(n_r, n_az, n_grid, n_phi):
        sg = spectral_grid(rot, 1.0, n_radial=n_grid, n_phi=n_phi)
        spec = olct_forward(f, rot, sg, r_max=60.0, n_radial=n_r, n_azimuth=n_az)
        return rel_err(olct_inverse(spec, rr, tt), truth)

    coarse = run(32, 32, 16, 16)
    fine = run(64, 64, 32, 32)
    assert coarse > 1e-4  # genuinely under-resolved baseline
    assert fine <= 0.5 * coarse


def test_olcht_roundtrip(lct, make_field):
    for v in (0, 1, 2):
        f0 = make_field(lct, k_max=0, seed=5 + v, order_map="fixed", fixed_order=v).coefficients[0]
        fwd = lambda q: olcht_forward(f0, v, lct, q, r_max=120.0)
        r = np.linspace(0.2, 4.0, 9)
        rec = olcht_inverse(fwd, v, lct, r, rho_max=1.0)
        assert rel_err(rec, f0(r)) < 1e-5


def test_olcht_roundtrip_with_offsets():
    p = OffsetParams(1.0, 1.0, 0.0, 1.0, (0.2, 0.5), (0.0, 0.1))
    from polar_olct import random_spectrum, synthesize
    f0 = synthesize(random_spectrum(1.0, 0, 3, seed=8, order_map="fixed", fixed_order=1), p).coefficients[0]
    fwd = lambda q: olcht_forward(f0, 1, p, q, r_max=120.0)
    r = np.linspace(0.2, 4.0, 9)
    rec = olcht_inverse(fwd, 1, p, r, rho_max=1.0)
    assert rel_err(rec, f0(r)) < 1e-4


def test_olcht_error_halves_under_node_doubling(lct, make_field):
    f0 = make_field(lct, k_max=0, seed=6, order_map="fixed", fixed_order=1).coefficients[0]
    rho = np.linspace(0.05, 0.95, 12)
    ref = olcht_forward(f0, 1, lct, rho, r_max=120.0)
    coarse = rel_err(olcht_forward(f0, 1, lct, rho, r_max=120.0, n_radial=32), ref)
    fine = rel_err(olcht_forward(f0, 1, lct, rho, r_max=120.0, n_radial=64), ref)
    assert coarse > 10.0 * fine
    assert fine <= 0.5 * coarse


def test_inverse_verify_needs_even_azimuths(rot, make_field):
    # the round trip holds on odd azimuth grids as on even ones
    f = make_field(rot, seed=3)
    rr = np.linspace(0.2, 4.0, 7)
    tt = np.linspace(-2.5, 2.5, 7)
    for n_phi in (64, 63, 65):
        spec = olct_forward(f, rot, spectral_grid(rot, 1.0, n_radial=96, n_phi=n_phi), r_max=60.0)
        assert rel_err(olct_inverse(spec, rr, tt), f.evaluate(rr, tt)) < 1e-5


def test_inverse_requires_quadrature_grid(rot, make_field):
    f = make_field(rot, seed=3)
    grid = PolarGrid(np.linspace(0.05, 1.0, 12), 16)  # no weights
    spec = olct_forward(f, rot, grid, r_max=30.0, n_radial=256, n_azimuth=64)
    with pytest.raises(ValueError):
        olct_inverse(spec, np.array([0.5]), np.array([0.0]))


def test_fourier_coefficients_orthogonality():
    g = lambda r: np.exp(-np.asarray(r) ** 2)
    field = lambda r, th: g(r) * np.exp(3j * np.asarray(th))
    coeffs = fourier_coefficients(field, 5)
    r = np.linspace(0.0, 2.0, 7)
    assert np.max(np.abs(coeffs[3](r) - g(r))) < 1e-12
    for n in (-5, -1, 0, 2, 4):
        assert np.max(np.abs(coeffs[n](r))) < 1e-12


def test_fourier_coefficients_symmetries():
    field = lambda r, th: np.cos(np.asarray(th)) * np.exp(-np.asarray(r) ** 2)
    coeffs = fourier_coefficients(field, 2)
    r = np.array([0.3, 1.1])
    assert np.max(np.abs(coeffs[1](r) - 0.5 * np.exp(-r ** 2))) < 1e-12
    assert np.max(np.abs(coeffs[-1](r) - 0.5 * np.exp(-r ** 2))) < 1e-12
    rng = np.random.default_rng(2)
    real_field = lambda r, th: np.exp(-np.asarray(r) ** 2) * (
        1.0 + 0.7 * np.cos(np.asarray(th)) - 0.2 * np.sin(2.0 * np.asarray(th)))
    cf = fourier_coefficients(real_field, 3)
    for n in range(0, 4):
        assert np.max(np.abs(cf[-n](r) - np.conj(cf[n](r)))) < 1e-12


def test_series_adjudication_single_mode(rot, make_field):
    f = make_field(rot, k_max=1, seed=12)
    grid = PolarGrid(np.linspace(0.1, 0.9, 5), 16)
    fw = olct_forward(f, rot, grid, r_max=60.0)
    coeffs = {n: f.coefficients[n] for n in (-1, 0, 1)}
    err_n = rel_err(olct_series(coeffs, rot, grid, r_max=60.0).values, fw.values)
    # the order-doubling pairing of the printed series
    err_2n = rel_err(_per_order_series(coeffs, rot, grid, 2, 60.0), fw.values)
    assert err_n < 1e-6
    assert err_2n > 1e-3


def test_series_zero_input(rot):
    grid = PolarGrid(np.linspace(0.1, 0.9, 4), 8)
    zero = lambda r: np.zeros_like(np.atleast_1d(r), dtype=complex)
    out = olct_series({0: zero, 1: zero}, rot, grid, r_max=10.0)
    assert np.max(np.abs(out.values)) == 0.0


def test_series_matches_quadrature_with_chirps(lct, make_field):
    f = make_field(lct, seed=3)
    grid = PolarGrid(np.linspace(0.1, 0.9, 5), 16)
    fw = olct_forward(f, lct, grid, r_max=40.0)
    coeffs = {n: f.coefficients[n] for n in (-1, 0, 1)}
    assert rel_err(olct_series(coeffs, lct, grid, r_max=40.0).values, fw.values) < 1e-6


@pytest.mark.parametrize("params", [
    # the offset_params fixture: both offset phases
    OffsetParams(1.0, 1.0, 0.0, 1.0, (0.3, 0.4), (0.1, -0.2)),
    # mu1 = 0, mu2 != 0: M = 0 and only the output offset phase
    OffsetParams(1.0, 1.0, 0.0, 1.0, (0.0, 0.0), (0.1, -0.2)),
    # mu1 != 0, mu2 = 0 (eta = d tau / b): only the input offset phase
    OffsetParams(1.0, 2.0, -0.25, 0.5, (0.3, 0.4), (0.075, 0.1)),
], ids=["tau_eta", "eta_only", "tau_only"])
def test_series_matches_quadrature_with_offsets(params, make_field):
    p = params
    f = make_field(p, seed=3)
    grid = PolarGrid(np.linspace(0.1, 0.9, 5), 16)
    fw = olct_forward(f, p, grid, r_max=40.0)
    coeffs = {n: f.coefficients[n] for n in (-1, 0, 1)}
    series = olct_series(coeffs, p, grid, r_max=40.0)
    assert rel_err(series.values, fw.values) < 1e-8
    # the per-order series drops the offset phases, so it is not exact here
    reduced = _per_order_series(coeffs, p, grid, 1, 40.0)
    assert rel_err(reduced, fw.values) > 1e-3


def test_parseval(rot, make_field):
    f = make_field(rot, k_max=3, seed=14)
    phi = -np.pi + 2.0 * np.pi * np.arange(64) / 64
    ring = f.spectrum_values(0.5, phi)
    terms = np.array([((-1.0) ** abs(n)) * f.spectral_coefficient(n, np.array([0.5]))[0]
                      for n in range(-3, 4)])
    scale = max(float(np.max(np.abs(ring))) ** 2, 1.0)
    assert parseval_residual(ring, terms) < 1e-8 * scale
    # zero spectrum
    assert parseval_residual(np.zeros(8), np.zeros(3)) == 0.0
    # single order: one-term identity
    f1 = make_field(rot, k_max=0, seed=15)
    ring1 = f1.spectrum_values(0.5, phi)
    t1 = np.array([f1.spectral_coefficient(0, np.array([0.5]))[0]])
    assert parseval_residual(ring1, t1) < 1e-10 * max(np.max(np.abs(ring1)) ** 2, 1.0)
    # the quadrature ring satisfies the same identity up to truncation error
    ringq = olct_forward(f, rot, PolarGrid(np.array([0.5]), 64), r_max=60.0)
    assert parseval_residual(ringq.values[0], terms) < 1e-3 * scale


def test_bandlimit_preservation(lct, make_field):
    f = make_field(lct, k_max=1, seed=16)
    inside = np.linspace(0.1, 0.9, 5)
    outside = np.array([1.05, 1.2, 1.6, 2.5])
    for n in (-1, 0, 1):
        prof = f.coefficients[n]
        peak = np.max(np.abs(olcht_forward(prof, abs(n), lct, inside, r_max=400.0)))
        tail = np.max(np.abs(olcht_forward(prof, abs(n), lct, outside, r_max=400.0)))
        assert tail <= 1e-6 * peak


def test_non_finite_input_rejected(lct):
    grid = PolarGrid(np.array([0.5]), 4)
    nan_field = lambda r, t: np.full(np.broadcast(r, t).shape, np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        olct_forward(nan_field, lct, grid, r_max=5.0)
    gauss = lambda r, t: np.exp(-np.asarray(r) ** 2) + 0.0 * np.asarray(t)
    for r_max in (np.inf, np.nan, 0.0, -3.0):
        with pytest.raises(ValueError, match="r_max"):
            olct_forward(gauss, lct, grid, r_max=r_max)
    gauss_radial = lambda r: np.exp(-np.asarray(r) ** 2)
    for extent in (np.inf, np.nan, 0.0, -5.0):
        with pytest.raises(ValueError, match="r_max"):
            olcht_forward(gauss_radial, 0, lct, [0.3], r_max=extent)
        with pytest.raises(ValueError, match="rho_max"):
            olcht_inverse(gauss_radial, 0, lct, [0.3], rho_max=extent)
        with pytest.raises(ValueError, match="r_max"):
            olct_series({0: gauss_radial}, lct, grid, r_max=extent)
    nan_radial = lambda r: np.full(np.shape(r), np.nan)
    for n_radial in (None, 32):
        with pytest.raises(ValueError, match="non-finite"):
            olcht_forward(nan_radial, 0, lct, [0.3], r_max=5.0, n_radial=n_radial)
        with pytest.raises(ValueError, match="non-finite"):
            olcht_inverse(nan_radial, 0, lct, [0.3], rho_max=1.0, n_radial=n_radial)
        with pytest.raises(ValueError, match="non-finite"):
            olct_series({0: nan_radial}, lct, grid, r_max=5.0, n_radial=n_radial)
    sg = spectral_grid(lct, 1.0, n_radial=16, n_phi=4)
    spec = SpectrumField(np.full((sg.rho.size, 4), np.nan), sg, lct)
    with pytest.raises(ValueError, match="non-finite"):
        olct_inverse(spec, np.array([0.5]), np.array([0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        fourier_coefficients(nan_field, 2)[1](np.array([0.5]))
    for rho in ([np.nan, 1.0], [np.inf], [0.5, -np.inf]):
        with pytest.raises(ValueError, match="rho must be finite"):
            PolarGrid(rho, 8)
    # non-finite weights made olct_inverse return nan without a word
    rho = np.linspace(0.1, 1.0, 4)
    for weights in ([np.nan, 1.0, 1.0, 1.0], [1.0, 1.0, np.inf, 1.0]):
        with pytest.raises(ValueError, match="rho_weights must be finite"):
            PolarGrid(rho, 8, rho_weights=weights)


def test_bad_node_counts_rejected(lct):
    # None means adaptive (n_radial) or automatic (n_azimuth) where the
    # signature allows it; anything else must be a positive integer
    grid = PolarGrid(np.array([0.5]), 4)
    gauss = lambda r, t: np.exp(-np.asarray(r) ** 2) + 0.0 * np.asarray(t)
    gauss_radial = lambda r: np.exp(-np.asarray(r) ** 2)
    calls = {
        "n_radial": [
            lambda n: olct_forward(gauss, lct, grid, r_max=5.0, n_radial=n),
            lambda n: olcht_forward(gauss_radial, 0, lct, [0.3], r_max=5.0, n_radial=n),
            lambda n: olcht_inverse(gauss_radial, 0, lct, [0.3], rho_max=1.0, n_radial=n),
            lambda n: olct_series({0: gauss_radial}, lct, grid, r_max=5.0, n_radial=n),
            lambda n: spectral_grid(lct, 1.0, n_radial=n),
        ],
        "n_azimuth": [
            lambda n: olct_forward(gauss, lct, grid, r_max=5.0, n_radial=32, n_azimuth=n),
        ],
        "n_nodes": [lambda n: radial_rule(5.0, n)],
    }
    for name, entries in calls.items():
        for call in entries:
            for bad in (-5, 0, 3.5, 32.0, True, "32"):
                with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
                    call(bad)
            call(np.int64(32))
    # radial_rule and spectral_grid have no adaptive rule
    for name, call in (("n_nodes", calls["n_nodes"][0]), ("n_radial", calls["n_radial"][-1])):
        with pytest.raises(ValueError, match=f"{name} must be a positive integer, got None"):
            call(None)
    assert radial_rule(5.0, np.int64(40))[0].size == 48


def test_polar_grid_azimuth_count_checked(lct):
    # a float count passed the old `n_phi < 1` test, and olct_forward then
    # raised TypeError from math.lcm
    rho = np.array([0.5])
    for bad in (8.0, 0, -4, True):
        with pytest.raises(ValueError, match="n_phi must be a positive integer"):
            PolarGrid(rho, bad)
    grid = PolarGrid(rho, np.int64(8))
    assert type(grid.n_phi) is int
    gauss = lambda r, t: np.exp(-np.asarray(r) ** 2) + 0.0 * np.asarray(t)
    assert olct_forward(gauss, lct, grid, r_max=5.0, n_radial=32).values.shape == (1, 8)


def chirped_gaussian(s, c0, c1):
    return lambda r, th: np.exp(-r * r / (2.0 * s * s)) * (c0 + c1 * (r / s) * np.exp(1j * th))


CHIRP_GRID = PolarGrid(np.linspace(0.1, 2.0, 10), 16)
CHIRP_COEFFS = (0.6 - 0.3j, -0.4 + 0.5j)


def least_length(target):
    """The least multiple of 4 at or above target."""
    return 4 * math.ceil(target / 4)


def test_kernel_length_covers_the_kernel_band():
    # the kernel e^{-i t cos psi} has Fourier coefficients (-i)^m J_m(t).
    # scipy's jv, which shares no code with the library, puts them below
    # 1e-18 from M = ceil(1.25 t + 33) (from 1.25 t + 32 they reach 1.55e-18
    # near t = 58).  A field of band B uses the columns m <= B of a kernel on
    # n_k azimuths, whose aliases sit at m' >= n_k - B; without a band every
    # column up to n_k / 2 is used.  Each length is the least multiple of 4
    # at or above M + min(M, B), so 2 M without a band, or n when that is
    # not less
    jv = pytest.importorskip("scipy.special").jv
    for t in np.linspace(0.0, 2000.0, 1001)[1:]:
        m0 = math.ceil(1.25 * t + 33.0)
        assert np.max(np.abs(jv(np.arange(m0, m0 + 17), t))) < 1e-18, t
        nk = transforms._kernel_length(t, 10 ** 6)
        assert nk == least_length(2 * m0) == transforms._kernel_length(t, 10 ** 6, None)
        assert transforms._kernel_length(t, nk) == nk
        assert transforms._kernel_length(t, nk + 2) == nk
        for band in (0, 2, 5, 40):
            nk = transforms._kernel_length(t, 10 ** 6, band)
            assert nk == least_length(m0 + min(m0, band)), (t, band)
            assert np.max(np.abs(jv(np.arange(nk - band, nk - band + 17), t))) < 1e-18, (t, band)
            assert transforms._kernel_length(t, nk - 2, band) == nk - 2


def test_quarter_turn_sums_match_the_kernel_spectrum():
    # the kernel e^{-i t cos psi} on n_k azimuths has DFT n_k (-i)^m J_m(t)
    # at m <= B, aliases below 1e-18 (scipy's jv shares no code with the
    # library).  A field of band B takes those columns from direct sums on
    # the quarter turn, Re(sum_j e^{-i t cos psi_j} W[j, m]) = G[m] with
    # i^{m mod 2} G[m] the DFT.  The length one past a multiple of 4 by 2
    # has no node at pi/2, so only psi = 0 (with pi) weighs 2 there.  Past
    # n_k / 2 the sums are zero: at B = 150 and t = 40 the alias of m = 130
    # on 180 azimuths would be J_50(40) = 6.8e-4
    jv = pytest.importorskip("scipy.special").jv
    for band in (0, 1, 2, 5, 40, 150):
        m = np.arange(band + 1)
        for t in np.linspace(0.0, 1000.0, 201):
            nk = transforms._kernel_length(t, 10 ** 6, band)
            for length in (nk, nk + 2):
                cos_psi, weights = transforms._quarter_turn(np.array([length]), band + 1)
                g = (np.exp(-1j * t * cos_psi[0]) @ weights[0]).real
                want = length * (-1j) ** m * jv(m, t)
                assert np.max(np.abs(1j ** (m % 2) * g - want)) < 1e-13 * length, (band, t, length)


@pytest.fixture
def quarter_turns(monkeypatch):
    """(lengths, cols) of each _quarter_turn call the test makes."""
    calls = []
    quarter_turn = transforms._quarter_turn

    def counted(lengths, cols):
        calls.append((np.array(lengths), cols))
        return quarter_turn(lengths, cols)

    monkeypatch.setattr(transforms, "_quarter_turn", counted)
    return calls


def test_kernel_takes_each_radius_on_its_own_band(lct, quarter_turns):
    # 512 azimuths, t = 40 rho up to 80: no radius needs more than 268
    olct_forward(chirped_gaussian(10.0, *CHIRP_COEFFS), lct, CHIRP_GRID, r_max=80.0)
    assert quarter_turns and max(lengths.max() for lengths, _ in quarter_turns) == 268


def test_plain_field_takes_the_columns_of_its_band(lct, quarter_turns):
    # a field that is not read from its profiles takes, on each batch of
    # panels, the columns left after dropping the longest run of top ones
    # whose summed magnitude is at most 1e-14 of the largest.  The chirped
    # Gaussian has orders 0 and 1 alone
    olct_forward(chirped_gaussian(10.0, *CHIRP_COEFFS), lct, CHIRP_GRID, r_max=80.0)
    assert quarter_turns and {cols for _, cols in quarter_turns} == {2}
    # an m = +-37 component at eps of the m = 0 one.  At rho = 20 the
    # kernel's J_37 reaches it: its transform is 1.4 times the m = 0 one's
    # largest, so dropping it at eps = 1e-12 would miss by 1.4e-12.  At
    # 1e-17 it is below the band rule's level, and is dropped.
    # direct_kernel_sum shares no code with the engine
    grid = PolarGrid(np.array([0.3, 4.0, 12.0, 20.0]), 8)
    for eps in (1e-12, 1e-17):
        def field(r, th, eps=eps):
            return np.exp(-0.3 * r ** 2) * (1.0 + eps * (r / 2.0) ** 8 * 2.0 * np.cos(37 * th))

        quarter_turns.clear()
        got = olct_forward(field, lct, grid, r_max=8.0, n_radial=64, n_azimuth=128).values
        cols = {cols for _, cols in quarter_turns}
        assert min(cols) >= 38 if eps == 1e-12 else max(cols) < 38, (eps, cols)
        assert rel_err(got, direct_kernel_sum(field, lct, grid, 8.0, 64, 128)) < 1e-13, eps


def test_adaptive_resolves_chirped_gaussian(lct):
    # at s = 6, r_max = 60 the coarse tail panels on [45, 60] agree with
    # their halves below 1e-11 while the chirp is unresolved there, so
    # taking coarse panels one at a time would give 1.3e-11
    for s, r_max in ((10.0, 80.0), (6.0, 60.0)):
        # an odd n_phi rounds the azimuth rule up to an even multiple of it
        for grid in (CHIRP_GRID, PolarGrid(CHIRP_GRID.rho, 9)):
            truth = _gaussian_olct(lct, s, *CHIRP_COEFFS, grid.rho[:, None], grid.phi[None, :])
            got = olct_forward(chirped_gaussian(s, *CHIRP_COEFFS), lct, grid, r_max=r_max)
            assert rel_err(got.values, truth) < 1e-12


def test_adaptive_matches_fine_uniform_rule(lct):
    f = synthesize(random_spectrum(4.0, 2, 3, seed=3), lct)
    grid = PolarGrid(4.0 * np.linspace(0.02, 0.9, 20), 20)
    auto = olct_forward(f, lct, grid, r_max=60.0)
    uniform = olct_forward(f, lct, grid, r_max=60.0, n_radial=2304)
    assert rel_err(auto.values, uniform.values) < 1e-12


def test_adaptive_panels_share_one_width_per_depth(lct, monkeypatch):
    # 37.3 / 16 is no binary fraction; equal-width edges used to give 5-9
    # half-widths per depth that differed in their last bits.  The kernel
    # takes one row of node offsets per call, so each call is one width
    r_max, f = 37.3, chirped_gaussian(6.0, *CHIRP_COEFFS)
    widths = []
    panel_nodes = transforms._panel_nodes

    def spy(lo, half):
        widths.append(np.unique(half))
        return panel_nodes(lo, half)

    monkeypatch.setattr(transforms, "_panel_nodes", spy)
    auto = olct_forward(f, lct, CHIRP_GRID, r_max=r_max)
    monkeypatch.undo()
    assert all(w.size == 1 for w in widths)
    depth = np.round(np.log2(r_max / 32.0 / np.concatenate(widths)))
    assert np.unique(depth).size >= 2
    assert np.array_equal(np.concatenate(widths), (r_max / 32.0) / 2.0 ** depth)
    uniform = olct_forward(f, lct, CHIRP_GRID, r_max=r_max, n_radial=8192)
    assert rel_err(auto.values, uniform.values) < 1e-12


def test_adaptive_jump_hits_depth_cap(lct):
    step = lambda r, t: np.where(np.asarray(r) < 2.3, 1.0, 0.0) * np.exp(-np.asarray(r) ** 2) \
        + 0.0 * np.asarray(t)
    with pytest.raises(QuadratureAccuracyError, match="unresolved") as exc:
        olct_forward(step, lct, PolarGrid(np.array([0.5, 1.0]), 8), r_max=5.0)
    assert exc.value.value.shape == exc.value.refined.shape == (2, 512)
    # the estimate is the kept deviations of the unresolved panels
    estimate = exc.value.refined - exc.value.value
    assert np.all(np.isfinite(estimate)) and np.any(estimate != 0.0)


class PointCounter:
    """Field or profile wrapper counting the calls and the points the
    quadrature asks for."""

    def __init__(self, field):
        self.field = field
        self.calls = 0
        self.points = 0

    def __call__(self, *args):
        self.calls += 1
        self.points += np.broadcast(*args).size
        return self.field(*args)


def test_adaptive_node_budget(lct):
    # the chirp-rate heuristic asked for 36,672 x 520 points on the
    # criterion-8 field and 4,080 x 512 on the chirped Gaussian.  The smooth
    # criterion-8 integrand settles on the coarse level: 8 panels and their
    # 16 halves
    f = PointCounter(synthesize(random_spectrum(1.0, 2, 3, seed=109), lct))
    olct_forward(f, lct, PolarGrid(np.linspace(0.02, 0.9, 20), 20), r_max=240.0)
    assert f.points == 384 * 520
    # the chirped Gaussian fails the coarse level and then takes the panels
    # of the rule that starts from 16 panels (3,264 nodes), plus the 128
    # nodes of the coarse panels
    g = PointCounter(chirped_gaussian(10.0, *CHIRP_COEFFS))
    olct_forward(g, lct, CHIRP_GRID, r_max=80.0)
    assert g.points == (3264 + 128) * 512


def test_field_is_evaluated_on_the_calling_thread(offset_params, monkeypatch):
    # the whole transform runs on the calling thread: it starts no thread
    callers, started = set(), []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)

    def field(r, th):
        callers.add(threading.get_ident())
        return chirped_gaussian(4.0, *CHIRP_COEFFS)(r, th)

    threads = threading.active_count()
    olct_forward(field, offset_params, PolarGrid(np.linspace(0.1, 2.0, 7), 12), r_max=30.0)
    assert callers == {threading.get_ident()}
    assert not started and threading.active_count() == threads


def traced_peak(call):
    """The traced allocation peak of call(), in MiB, after a first call has
    filled the caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_kernel_allocation_peak(lct):
    # the field is sampled in blocks of at most 2^16 points, of which only
    # the kernel's columns are kept, the panel sums are as wide as those
    # columns, and the deviations are measured a block of panels at a
    # time: a quad_chirped-sized call peaks at 12.0 MiB traced, where
    # sampling each batch whole, full-width sums and one measured deviation
    # per level took 35.1 MiB.  The peak is the kept columns of the largest
    # batch (6.3 MiB) with one block of the field's temporaries.  The bound
    # is 7 % above it
    f = chirped_gaussian(10.0, *CHIRP_COEFFS)
    assert traced_peak(lambda: olct_forward(f, lct, CHIRP_GRID, r_max=80.0)) < 12.9


class _OwnEvaluate(PolarField):
    # same values as PolarField.evaluate, but a method of its own
    def evaluate(self, r, theta):
        return super().evaluate(r, theta)


def test_polar_field_spectrum_from_its_profiles(rot, lct, offset_params, monkeypatch):
    # a PolarField evaluated by PolarField.evaluate, under a radial input
    # phase (mu1 = 0) and on more than twice its band B of azimuths, gives
    # its azimuth spectrum from its profiles: no FFT of field values, and
    # the transform of its evaluate to rounding.  Elsewhere the field is
    # evaluated on every azimuth, as any callable is
    fft, fft_calls = np.fft.fft, []

    def counted(*args, **kwargs):
        fft_calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    gauss = lambda r: np.exp(-np.asarray(r) ** 2 / 8.0)
    plain = {0: gauss, 2: lambda r: (0.3 + 0.1j) * r ** 2 * gauss(r),
             -1: lambda r: -0.5j * r * gauss(r)}
    rho = np.linspace(0.05, 0.9, 6)
    kw = dict(r_max=30.0, n_radial=192)
    eta_only = OffsetParams(1.0, 2.0, -0.25, 0.5, eta=(0.1, -0.2))  # mu1 = 0 < mu2
    for params in (rot, lct, eta_only):
        fields = (synthesize(random_spectrum(1.0, 2, 3, seed=11), params),
                  synthesize_sonine({0: 1.0, 1: 0.4 - 0.2j, -2: 0.3j}, params, 1.0),
                  PolarField(plain))
        for field in fields:
            # the default rule, and 6 azimuths: just above 2 B = 4
            for grid, n_azimuth in ((PolarGrid(rho, 8), None), (PolarGrid(rho, 2), 6)):
                fft_calls.clear()
                got = olct_forward(field, params, grid, n_azimuth=n_azimuth, **kw).values
                assert not fft_calls
                want = olct_forward(field.evaluate, params, grid, n_azimuth=n_azimuth, **kw).values
                assert fft_calls
                assert rel_err(got, want) < 1e-14, (params, type(field).__name__, n_azimuth)
    # a spatial offset, an evaluate of its own and 2 B = n take every azimuth
    for field, params, grid, n_azimuth in (
            (synthesize(random_spectrum(1.0, 2, 3, seed=11), offset_params), offset_params,
             PolarGrid(rho, 8), None),
            (_OwnEvaluate(plain), lct, PolarGrid(rho, 8), None),
            (PolarField(plain), lct, PolarGrid(rho, 2), 4)):
        fft_calls.clear()
        got = olct_forward(field, params, grid, n_azimuth=n_azimuth, **kw).values
        assert fft_calls
        assert np.array_equal(got, olct_forward(field.evaluate, params, grid,
                                                n_azimuth=n_azimuth, **kw).values)
    # a non-finite profile raises as a non-finite field does, also where its
    # order is past every column the kernels reach (40 > n_k / 2 = 36)
    nan = lambda r: np.full(np.shape(r), np.nan)
    for coefficients in ({0: nan}, {0: gauss, 40: nan}):
        field = PolarField(coefficients)
        for f in (field, field.evaluate):
            with pytest.raises(ValueError) as err:
                olct_forward(f, lct, PolarGrid(np.array([0.1]), 4), r_max=5.0)
            assert str(err.value) == "olct_forward: the integrand has non-finite values"


def test_profile_spectrum_allocation_peak(lct):
    # a quad_smooth-sized transform (omega = 4, K = 2, 20 x 20 outputs,
    # r_max = 60, 520 azimuths) of a synthesized field, from its profiles,
    # allocates no batch of field values on every azimuth, and its panel
    # sums hold its 2 B + 1 = 5 columns: 1.48 MiB traced, where the same
    # field as a plain callable takes 5.08 MiB.  With full-width sums and
    # one measured deviation per level it took 4.45 MiB
    field = synthesize(random_spectrum(4.0, 2, 3, seed=109), lct)
    grid = PolarGrid(4.0 * np.linspace(0.02, 0.9, 20), 20)
    peaks = [traced_peak(lambda: olct_forward(f, lct, grid, r_max=60.0))
             for f in (field, field.evaluate)]
    assert peaks[0] < 0.8 * peaks[1]
    assert peaks[0] < 1.6


def test_spectral_grid_forward_allocation_peak(rot):
    # the forward of verify's roundtrip_olct row: a band-1 field on a
    # 96-radius spectral grid, 512 azimuths.  Each deviation block is one
    # panel's 96 x 512 outputs, and the sums hold 3 columns: 2.49 MiB
    # traced, where full-width sums and one measured deviation per level
    # took 21.0 MiB.  The bound is 7 % above it
    field = synthesize(random_spectrum(1.0, 1, 3, seed=10), rot)
    grid = spectral_grid(rot, 1.0, n_radial=96, n_phi=64)
    assert traced_peak(lambda: olct_forward(field, rot, grid, r_max=60.0)) < 2.7


def test_blocks_leave_the_transform_unchanged(lct, offset_params, monkeypatch):
    # the field is sampled and the deviations are measured in blocks; one
    # panel per block and a whole batch per block give the default's bits.
    # A synthesized field under a spatial offset is sampled too
    cases = ((chirped_gaussian(10.0, *CHIRP_COEFFS), lct, CHIRP_GRID, 80.0),
             (synthesize(random_spectrum(1.0, 2, 3, seed=11), offset_params), offset_params,
              PolarGrid(np.linspace(0.05, 0.9, 6), 8), 30.0))
    for field, params, grid, r_max in cases:
        want = olct_forward(field, params, grid, r_max=r_max).values
        for block in (1, 2 ** 40):
            monkeypatch.setattr(transforms, "_BLOCK", block)
            got = olct_forward(field, params, grid, r_max=r_max).values
            monkeypatch.undo()
            assert np.array_equal(got, want), (type(field).__name__, block)


def test_panel_sums_hold_the_columns_the_field_reaches(lct, monkeypatch):
    # the panel sums hold bins m < C and n - m, 2 C - 1 columns: C = B + 1
    # for a field read from its profiles, and the kernel's top column
    # (268 // 2 + 1 = 135 here) for any other field, so 269 of 512; all n
    # where the kernel takes every azimuth
    widths = []
    panel_quadrature = transforms._panel_quadrature

    def spy(sums, *args, **kwargs):
        def counted(lo, half):
            out = sums(lo, half)
            widths.append(out.shape[-1])
            return out

        return panel_quadrature(counted, *args, **kwargs)

    monkeypatch.setattr(transforms, "_panel_quadrature", spy)
    field = synthesize(random_spectrum(1.0, 2, 3, seed=11), lct)
    olct_forward(field, lct, PolarGrid(np.linspace(0.05, 0.9, 6), 8), r_max=30.0)
    assert widths and set(widths) == {5}
    widths.clear()
    olct_forward(chirped_gaussian(10.0, *CHIRP_COEFFS), lct, CHIRP_GRID, r_max=80.0)
    assert widths and set(widths) == {269}
    widths.clear()
    monkeypatch.setattr(transforms, "_kernel_length", lambda t, n, band: n)
    olct_forward(chirped_gaussian(10.0, *CHIRP_COEFFS), lct, CHIRP_GRID, r_max=80.0)
    assert widths and set(widths) == {512}


def test_radial_only_field_broadcasts(lct, offset_params):
    radial = lambda r, th: np.exp(-r ** 2)
    full = lambda r, th: np.exp(-r ** 2) + 0 * th
    grid = PolarGrid(np.linspace(0.1, 2.0, 5), 8)
    for params in (lct, offset_params):
        assert np.array_equal(olct_forward(radial, params, grid, r_max=6.0).values,
                              olct_forward(full, params, grid, r_max=6.0).values)
    r = np.linspace(0.0, 3.0, 7)
    got, want = fourier_coefficients(radial, 2), fourier_coefficients(full, 2)
    for n in range(-2, 3):
        assert np.array_equal(got[n](r), want[n](r))
    wrong = lambda r, th: np.ones(3)
    for name, call in (("olct_forward", lambda: olct_forward(wrong, lct, grid, r_max=6.0)),
                       ("fourier_coefficients", lambda: fourier_coefficients(wrong, 2)[0](r))):
        with pytest.raises(ValueError, match=f"{name}: the field returned shape \\(3,\\)"):
            call()


def chirped_gaussian_profile(s, v):
    return lambda r: np.asarray(r) ** v * np.exp(-np.asarray(r) ** 2 / (2.0 * s * s))


def roundtrip_profile(params):
    # the profile of the roundtrip_olcht check: its chirp cancels the kernel's
    spec = random_spectrum(1.0, 0, 3, seed=5, order_map="fixed", fixed_order=1)
    return synthesize(spec, params).coefficients[0]


def test_olcht_adaptive_resolves_chirped_gaussian(lct):
    rho = np.linspace(0.1, 2.0, 10)
    for v in (0, 1, 3):
        got = olcht_forward(chirped_gaussian_profile(6.0, v), v, lct, rho, r_max=60.0)
        assert rel_err(got, _gaussian_olcht(lct, 6.0, v, rho)) < 2e-12


@pytest.mark.xfail(strict=True, reason="the adaptive rule takes its scale from unresolved "
                   "first-level halves; uniform rules of 32,768 nodes reach 4.5e-9")
def test_olcht_adaptive_scale_from_resolved_panels(lct):
    # r^6 e^{-r^2/288} at r_max = 120: the 32 first-level halves do not
    # resolve the chirp e^{i r^2/4}, so their summed output, which sets the
    # per-panel tolerance, is ~5e6 times the true largest output (1.4e-5 today)
    rho = np.linspace(0.1, 2.0, 10)
    got = olcht_forward(chirped_gaussian_profile(12.0, 6), 6, lct, rho, r_max=120.0)
    assert rel_err(got, _gaussian_olcht(lct, 12.0, 6, rho)) < 1e-7


def test_closed_forms_share_no_code_with_the_transforms(offset_params, monkeypatch):
    # the oracles of criterion 4, oracle_agreement and chirp_factorization
    # must run no kernel phase, Bessel or radial quadrature code
    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle ran library transform code")

    for name in ("input_phase", "output_phase"):
        monkeypatch.setattr(KernelParams, name, forbidden)
    monkeypatch.setattr(KernelParams, "ell1", property(forbidden))
    monkeypatch.setattr(bessel, "_bessel_j_core", forbidden)
    monkeypatch.setattr(transforms, "_panel_quadrature", forbidden)
    rho, phi = np.linspace(0.05, 1.0, 4)[:, None], np.linspace(-np.pi, np.pi, 5)[None, :]
    assert np.all(np.isfinite(_gaussian_olct(offset_params, 2.0, *CHIRP_COEFFS, rho, phi)))
    assert np.all(np.isfinite(_gaussian_olcht(offset_params, 6.0, 1, rho)))
    with pytest.raises(AssertionError, match="an oracle ran"):
        olcht_forward(chirped_gaussian_profile(6.0, 1), 1, offset_params, [0.3], r_max=60.0)


def test_olcht_adaptive_matches_fine_uniform_rule(lct):
    prof = roundtrip_profile(lct)
    rho = np.linspace(0.0, 1.0, 40)
    auto = olcht_forward(prof, 1, lct, rho, r_max=120.0)
    uniform = olcht_forward(prof, 1, lct, rho, r_max=120.0, n_radial=9168)
    assert rel_err(auto, uniform) < 1e-12


def test_olcht_jump_hits_depth_cap(lct):
    step = lambda r: np.where(np.asarray(r) < 2.3, 1.0, 0.0) * np.exp(-np.asarray(r) ** 2)
    with pytest.raises(QuadratureAccuracyError, match="unresolved") as exc:
        olcht_forward(step, 1, lct, np.array([0.5, 1.0]), r_max=5.0)
    assert exc.value.value.shape == exc.value.refined.shape == (2,)


def test_olcht_node_budget(lct):
    # the chirp-rate heuristic took 9,168 nodes per forward call of the
    # round trip; its integrand is smooth, so the coarse level settles it
    prof = PointCounter(roundtrip_profile(lct))
    fwd = PointCounter(lambda q: olcht_forward(prof, 1, lct, q, r_max=120.0))
    olcht_inverse(fwd, 1, lct, np.linspace(0.2, 4.0, 9), rho_max=1.0)
    assert fwd.calls >= 2
    assert prof.points <= 384 * fwd.calls
    # a chirped Gaussian is refined beyond the first level, within that budget
    g = PointCounter(chirped_gaussian_profile(6.0, 3))
    olcht_forward(g, 3, lct, np.linspace(0.1, 2.0, 10), r_max=60.0)
    assert 768 < g.points <= 9168
