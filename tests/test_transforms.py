"""Transform quadratures against independent oracles and round trips."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from polar_olct import (
    OffsetParams,
    PolarGrid,
    QuadratureAccuracyError,
    SpectrumField,
    fourier_coefficients,
    hankel_transform,
    olct_forward,
    olct_inverse,
    olct_series,
    olct_via_ft,
    olcht_forward,
    olcht_inverse,
    parseval_residual,
    random_spectrum,
    spectral_grid,
    synthesize,
)
from polar_olct import transforms
from polar_olct.harness import _per_order_series
from polar_olct.transforms import _initial_panels, _kernel_quadrature, radial_rule


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
    # a chirped Gaussian settles on panels of two widths; the verify_tol
    # re-run halves them all, so one batch mixes widths
    olct_forward(chirped_gaussian(6.0, *CHIRP_COEFFS), lct_offsets,
                 PolarGrid(np.linspace(0.1, 2.0, 4), 8), r_max=48.0, verify_tol=1e-10)


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


def test_forward_vs_via_ft_on_random_draws(make_field):
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
        f = make_field(p, seed=7)
        fw = olct_forward(f, p, grid, r_max=30.0)
        via = olct_via_ft(f, p, grid, r_max=30.0)
        worst = max(worst, rel_err(via.values, fw.values))
    assert worst < 1e-6


def test_olcht_reduction_is_classical_hankel(rot, make_field):
    f0 = make_field(rot, k_max=0, seed=9).coefficient(0)
    rho = np.linspace(0.05, 0.95, 9)
    got = olcht_forward(f0, 0, rot, rho, r_max=60.0)
    classical = hankel_transform(f0, 0, rho, r_max=60.0, n_radial=2048)
    assert rel_err(got, classical) < 1e-8


def test_olcht_chirp_factorization(lct, make_field):
    for v in (0, 1, 3):
        f0 = make_field(lct, k_max=0, seed=9 + v, order_map="fixed", fixed_order=v).coefficient(0)
        rho = np.linspace(0.05, 0.95, 9)
        lhs = olcht_forward(f0, v, lct, rho, r_max=60.0)
        chirped = lambda r: np.exp(1j * lct.a * r ** 2 / (2 * lct.b)) * f0(r)
        cl = hankel_transform(chirped, v, rho / lct.b, r_max=60.0, n_radial=4096)
        rhs = (1j ** v) * lct.ell1 / lct.b * np.exp(1j * lct.d * rho ** 2 / (2 * lct.b)) * cl
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
    rec = olct_inverse(spec, rot, rr, tt)
    assert rel_err(rec, f.evaluate(rr, tt)) < 1e-5


def test_olct_roundtrip_with_offsets(offset_params, make_field):
    p = offset_params
    f = make_field(p, seed=4)
    sg = spectral_grid(p, 1.0, n_radial=96, n_phi=64)
    spec = olct_forward(f, p, sg, r_max=40.0)
    rr = np.linspace(0.2, 4.0, 7)
    tt = np.linspace(-2.5, 2.5, 7)
    rec = olct_inverse(spec, p, rr, tt)
    assert rel_err(rec, f.evaluate(rr, tt)) < 1e-4


def test_olct_roundtrip_error_halves_under_node_doubling(rot, make_field):
    f = make_field(rot, seed=3)
    rr = np.linspace(0.2, 4.0, 7)
    tt = np.linspace(-2.5, 2.5, 7)
    truth = f.evaluate(rr, tt)

    def run(n_r, n_az, n_grid, n_phi):
        sg = spectral_grid(rot, 1.0, n_radial=n_grid, n_phi=n_phi)
        spec = olct_forward(f, rot, sg, r_max=60.0, n_radial=n_r, n_azimuth=n_az)
        return rel_err(olct_inverse(spec, rot, rr, tt), truth)

    coarse = run(32, 32, 16, 16)
    fine = run(64, 64, 32, 32)
    assert coarse > 1e-4  # genuinely under-resolved baseline
    assert fine <= 0.5 * coarse


def test_olcht_roundtrip(lct, make_field):
    for v in (0, 1, 2):
        f0 = make_field(lct, k_max=0, seed=5 + v, order_map="fixed", fixed_order=v).coefficient(0)
        fwd = lambda q: olcht_forward(f0, v, lct, q, r_max=120.0)
        r = np.linspace(0.2, 4.0, 9)
        rec = olcht_inverse(fwd, v, lct, r, rho_max=1.0)
        assert rel_err(rec, f0(r)) < 1e-5


def test_olcht_roundtrip_with_offsets():
    p = OffsetParams(1.0, 1.0, 0.0, 1.0, (0.2, 0.5), (0.0, 0.1))
    from polar_olct import random_spectrum, synthesize
    f0 = synthesize(random_spectrum(1.0, 0, 3, seed=8, order_map="fixed", fixed_order=1), p).coefficient(0)
    fwd = lambda q: olcht_forward(f0, 1, p, q, r_max=120.0)
    r = np.linspace(0.2, 4.0, 9)
    rec = olcht_inverse(fwd, 1, p, r, rho_max=1.0)
    assert rel_err(rec, f0(r)) < 1e-4


def test_olcht_error_halves_under_node_doubling(lct, make_field):
    f0 = make_field(lct, k_max=0, seed=6, order_map="fixed", fixed_order=1).coefficient(0)
    rho = np.linspace(0.05, 0.95, 12)
    ref = olcht_forward(f0, 1, lct, rho, r_max=120.0)
    coarse = rel_err(olcht_forward(f0, 1, lct, rho, r_max=120.0, n_radial=32), ref)
    fine = rel_err(olcht_forward(f0, 1, lct, rho, r_max=120.0, n_radial=64), ref)
    assert coarse > 10.0 * fine
    assert fine <= 0.5 * coarse


def test_accuracy_failure_reported(lct, make_field):
    f = make_field(lct, seed=13)
    grid = PolarGrid(np.array([0.4, 0.8]), 8)
    with pytest.raises(QuadratureAccuracyError) as exc:
        olct_forward(f, lct, grid, r_max=40.0, n_radial=48, n_azimuth=16, verify_tol=1e-9)
    assert exc.value.value.shape == exc.value.refined.shape
    # resolved quadrature passes the same check
    olct_forward(f, lct, grid, r_max=40.0, verify_tol=1e-4)


def test_inverse_verify_needs_even_azimuths(rot, make_field):
    # the azimuth-halved check is a uniform rule only on an even grid; on an
    # odd one it reported a 2e-2 difference for a 2e-6 reconstruction
    f = make_field(rot, seed=3)
    rr = np.linspace(0.2, 4.0, 7)
    tt = np.linspace(-2.5, 2.5, 7)
    for n_phi in (64, 63, 65):
        spec = olct_forward(f, rot, spectral_grid(rot, 1.0, n_radial=96, n_phi=n_phi), r_max=60.0)
        assert rel_err(olct_inverse(spec, rot, rr, tt), f.evaluate(rr, tt)) < 1e-5
        if n_phi % 2:
            with pytest.raises(ValueError, match="even n_phi"):
                olct_inverse(spec, rot, rr, tt, verify_tol=1e-6)
        else:
            olct_inverse(spec, rot, rr, tt, verify_tol=1e-6)


def test_inverse_requires_quadrature_grid(rot, make_field):
    f = make_field(rot, seed=3)
    grid = PolarGrid(np.linspace(0.05, 1.0, 12), 16)  # no weights
    spec = olct_forward(f, rot, grid, r_max=30.0, n_radial=256, n_azimuth=64)
    with pytest.raises(ValueError):
        olct_inverse(spec, rot, np.array([0.5]), np.array([0.0]))


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
    coeffs = {n: f.coefficient(n) for n in (-1, 0, 1)}
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
    coeffs = {n: f.coefficient(n) for n in (-1, 0, 1)}
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
    coeffs = {n: f.coefficient(n) for n in (-1, 0, 1)}
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
        prof = f.coefficient(n)
        peak = np.max(np.abs(olcht_forward(prof, abs(n), lct, inside, r_max=400.0)))
        tail = np.max(np.abs(olcht_forward(prof, abs(n), lct, outside, r_max=400.0)))
        assert tail <= 1e-6 * peak


def test_non_finite_input_rejected(lct):
    grid = PolarGrid(np.array([0.5]), 4)
    nan_field = lambda r, t: np.full(np.broadcast(r, t).shape, np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        olct_forward(nan_field, lct, grid, r_max=5.0)
    with pytest.raises(ValueError, match="non-finite"):
        olct_via_ft(nan_field, lct, grid, r_max=5.0, n_radial=32)
    gauss = lambda r, t: np.exp(-np.asarray(r) ** 2) + 0.0 * np.asarray(t)
    for r_max in (np.inf, np.nan, 0.0, -3.0):
        for transform in (olct_forward, olct_via_ft):
            with pytest.raises(ValueError, match="r_max"):
                transform(gauss, lct, grid, r_max=r_max)
    gauss_radial = lambda r: np.exp(-np.asarray(r) ** 2)
    for extent in (np.inf, np.nan, 0.0, -5.0):
        with pytest.raises(ValueError, match="r_max"):
            olcht_forward(gauss_radial, 0, lct, [0.3], r_max=extent)
        with pytest.raises(ValueError, match="rho_max"):
            olcht_inverse(gauss_radial, 0, lct, [0.3], rho_max=extent)
        with pytest.raises(ValueError, match="r_max"):
            hankel_transform(gauss_radial, 0, [0.3], r_max=extent)
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
        olct_inverse(spec, lct, np.array([0.5]), np.array([0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        fourier_coefficients(nan_field, 2)[1](np.array([0.5]))
    for rho in ([np.nan, 1.0], [np.inf], [0.5, -np.inf]):
        with pytest.raises(ValueError, match="rho must be finite"):
            PolarGrid(rho, 8)


def chirped_gaussian(s, c0, c1):
    return lambda r, th: np.exp(-r * r / (2.0 * s * s)) * (c0 + c1 * (r / s) * np.exp(1j * th))


def chirped_gaussian_transform(p, s, c0, c1, rho, phi):
    # angular integrals 2 pi J_0(k r), -2 pi i e^{i phi} J_1(k r) with
    # k = rho/b, then Gaussian moments in r with q = 1/2s^2 - i a/2b
    k = rho / p.b
    q = 1.0 / (2.0 * s * s) - 1j * p.a / (2.0 * p.b)
    g = np.exp(-k * k / (4.0 * q))
    body = c0 * g / (2.0 * q) - 1j * c1 * np.exp(1j * phi) * k * g / (4.0 * q * q * s)
    return (p.ell1 / p.b) * np.exp(1j * p.d * rho * rho / (2.0 * p.b)) * body


CHIRP_GRID = PolarGrid(np.linspace(0.1, 2.0, 10), 16)
CHIRP_COEFFS = (0.6 - 0.3j, -0.4 + 0.5j)


def test_adaptive_resolves_chirped_gaussian(lct):
    s = 10.0
    # an odd n_phi rounds the azimuth rule up to an even multiple of it
    for grid in (CHIRP_GRID, PolarGrid(CHIRP_GRID.rho, 9)):
        truth = chirped_gaussian_transform(lct, s, *CHIRP_COEFFS, grid.rho[:, None],
                                           grid.phi[None, :])
        got = olct_forward(chirped_gaussian(s, *CHIRP_COEFFS), lct, grid, r_max=80.0)
        assert rel_err(got.values, truth) < 1e-12


def test_adaptive_matches_fine_uniform_rule(lct):
    f = synthesize(random_spectrum(4.0, 2, 3, seed=3), lct)
    grid = PolarGrid(4.0 * np.linspace(0.02, 0.9, 20), 20)
    # verify_tol re-runs with every accepted panel halved and twice the azimuths
    auto = olct_forward(f, lct, grid, r_max=60.0, verify_tol=1e-12)
    uniform = olct_forward(f, lct, grid, r_max=60.0, n_radial=2304)
    assert rel_err(auto.values, uniform.values) < 1e-12


def test_adaptive_panels_share_one_width_per_depth(lct):
    # 37.3 / 16 is no binary fraction; equal-width edges used to give 5-9
    # half-widths per depth that differed in their last bits
    r_max, f = 37.3, chirped_gaussian(6.0, *CHIRP_COEFFS)
    _, (lo, half) = _kernel_quadrature(f, lct, CHIRP_GRID.rho, *_initial_panels(r_max, None),
                                       512, refine=True)
    depth = np.round(np.log2(r_max / 32.0 / half))
    assert np.unique(depth).size >= 2
    assert np.array_equal(half, (r_max / 32.0) / 2.0 ** depth)
    # the panels tile [0, r_max], up to rounding of their edges
    assert np.max(np.abs(np.sort(lo)[1:] - np.sort(lo + 2.0 * half)[:-1])) <= 1e-14 * r_max
    auto = olct_forward(f, lct, CHIRP_GRID, r_max=r_max)
    uniform = olct_forward(f, lct, CHIRP_GRID, r_max=r_max, n_radial=8192)
    assert rel_err(auto.values, uniform.values) < 1e-12


def test_adaptive_jump_hits_depth_cap(lct):
    step = lambda r, t: np.where(np.asarray(r) < 2.3, 1.0, 0.0) * np.exp(-np.asarray(r) ** 2) \
        + 0.0 * np.asarray(t)
    with pytest.raises(QuadratureAccuracyError, match="unresolved") as exc:
        olct_forward(step, lct, PolarGrid(np.array([0.5, 1.0]), 8), r_max=5.0)
    assert exc.value.value.shape == exc.value.refined.shape == (2, 512)


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
    # criterion-8 field and 4,080 x 512 on the chirped Gaussian
    f = PointCounter(synthesize(random_spectrum(1.0, 2, 3, seed=109), lct))
    olct_forward(f, lct, PolarGrid(np.linspace(0.02, 0.9, 20), 20), r_max=240.0)
    assert f.points <= 36672 * 520 // 8
    g = PointCounter(chirped_gaussian(10.0, *CHIRP_COEFFS))
    olct_forward(g, lct, CHIRP_GRID, r_max=80.0)
    assert g.points <= 4080 * 512


def test_panel_blocks_give_identical_results(offset_params, monkeypatch):
    # s = 4 at r_max = 30 keeps panels of two depths, and verify_tol halves
    # them again, so blocks hold mixed panel widths; a frequent thread
    # switch interleaves the blocks' numpy calls
    f = chirped_gaussian(4.0, *CHIRP_COEFFS)
    grid = PolarGrid(np.linspace(0.1, 2.0, 7), 12)
    results = {}

    def run():
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n_blocks in (1, 2, 7):
                monkeypatch.setattr(transforms, "_usable_cpus", lambda n=n_blocks: n)
                results[n_blocks] = olct_forward(f, offset_params, grid, r_max=30.0,
                                                 verify_tol=1e-9).values
        finally:
            sys.setswitchinterval(interval)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=300.0)
    assert not worker.is_alive()
    assert sorted(results) == [1, 2, 7]
    assert np.array_equal(results[1], results[2])
    assert np.array_equal(results[1], results[7])


def test_field_is_evaluated_on_the_calling_thread(offset_params, monkeypatch):
    monkeypatch.setattr(transforms, "_usable_cpus", lambda: 4)
    callers = set()

    def field(r, th):
        callers.add(threading.get_ident())
        return chirped_gaussian(4.0, *CHIRP_COEFFS)(r, th)

    olct_forward(field, offset_params, PolarGrid(np.linspace(0.1, 2.0, 7), 12), r_max=30.0,
                 verify_tol=1e-9)
    assert callers == {threading.get_ident()}


def test_failure_in_a_worker_thread_is_raised(offset_params, monkeypatch):
    # einsum runs in the per-radius loop, fft in the batch's spectra before it
    monkeypatch.setattr(transforms, "_usable_cpus", lambda: 3)
    caller = threading.get_ident()
    for module, name in ((np, "einsum"), (np.fft, "fft")):
        with monkeypatch.context() as patch:
            real = getattr(module, name)

            def failing_off_the_caller(*args, **kwargs):
                if threading.get_ident() != caller:
                    raise FloatingPointError("worker failed")
                return real(*args, **kwargs)

            patch.setattr(module, name, failing_off_the_caller)
            threads = threading.active_count()
            with pytest.raises(FloatingPointError, match="worker failed"):
                olct_forward(chirped_gaussian(4.0, *CHIRP_COEFFS), offset_params,
                             PolarGrid(np.linspace(0.1, 2.0, 7), 12), r_max=30.0)
            assert threading.active_count() == threads


def test_kernel_allocation_peak(lct, monkeypatch):
    # the batch's spectra are folded in place into one array, and the batch
    # is freed before the per-radius work arrays exist: 47.1 MiB traced on
    # two blocks, where whole-batch copies of the spectra took 59.1 MiB
    monkeypatch.setattr(transforms, "_usable_cpus", lambda: 2)
    f = chirped_gaussian(10.0, *CHIRP_COEFFS)
    olct_forward(f, lct, CHIRP_GRID, r_max=80.0)
    tracemalloc.start()
    try:
        olct_forward(f, lct, CHIRP_GRID, r_max=80.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20


def test_radial_only_field_broadcasts(lct, offset_params):
    radial = lambda r, th: np.exp(-r ** 2)
    full = lambda r, th: np.exp(-r ** 2) + 0 * th
    grid = PolarGrid(np.linspace(0.1, 2.0, 5), 8)
    for params in (lct, offset_params):
        for transform in (olct_forward, olct_via_ft):
            assert np.array_equal(transform(radial, params, grid, r_max=6.0).values,
                                  transform(full, params, grid, r_max=6.0).values)
    r = np.linspace(0.0, 3.0, 7)
    got, want = fourier_coefficients(radial, 2), fourier_coefficients(full, 2)
    for n in range(-2, 3):
        assert np.array_equal(got[n](r), want[n](r))
    wrong = lambda r, th: np.ones(3)
    for name, call in (("olct_forward", lambda: olct_forward(wrong, lct, grid, r_max=6.0)),
                       ("olct_via_ft", lambda: olct_via_ft(wrong, lct, grid, r_max=6.0)),
                       ("fourier_coefficients", lambda: fourier_coefficients(wrong, 2)[0](r))):
        with pytest.raises(ValueError, match=f"{name}: the field returned shape \\(3,\\)"):
            call()


def chirped_gaussian_profile(s, v):
    return lambda r: np.asarray(r) ** v * np.exp(-np.asarray(r) ** 2 / (2.0 * s * s))


def chirped_gaussian_olcht(p, s, v, rho):
    # int r^{v+1} e^{-q r^2} J_v(k r) dr = k^v e^{-k^2/4q} / (2q)^{v+1},
    # k = rho/b, q = 1/2s^2 - i a/2b
    k = rho / p.b
    q = 1.0 / (2.0 * s * s) - 1j * p.a / (2.0 * p.b)
    return (1j ** v) * p.ell1 / p.b * np.exp(1j * p.d * rho ** 2 / (2.0 * p.b)) \
        * k ** v * np.exp(-k * k / (4.0 * q)) / (2.0 * q) ** (v + 1)


def roundtrip_profile(params):
    # the profile of the roundtrip_olcht check: its chirp cancels the kernel's
    spec = random_spectrum(1.0, 0, 3, seed=5, order_map="fixed", fixed_order=1)
    return synthesize(spec, params).coefficient(0)


def test_olcht_adaptive_resolves_chirped_gaussian(lct):
    rho = np.linspace(0.1, 2.0, 10)
    for v in (0, 1, 3):
        got = olcht_forward(chirped_gaussian_profile(6.0, v), v, lct, rho, r_max=60.0)
        assert rel_err(got, chirped_gaussian_olcht(lct, 6.0, v, rho)) < 2e-12


def test_olcht_adaptive_matches_fine_uniform_rule(lct):
    prof = roundtrip_profile(lct)
    rho = np.linspace(0.0, 1.0, 40)
    # verify_tol re-runs with every accepted panel halved
    auto = olcht_forward(prof, 1, lct, rho, r_max=120.0, verify_tol=1e-12)
    uniform = olcht_forward(prof, 1, lct, rho, r_max=120.0, n_radial=9168)
    assert rel_err(auto, uniform) < 1e-12


def test_olcht_jump_hits_depth_cap(lct):
    step = lambda r: np.where(np.asarray(r) < 2.3, 1.0, 0.0) * np.exp(-np.asarray(r) ** 2)
    with pytest.raises(QuadratureAccuracyError, match="unresolved") as exc:
        olcht_forward(step, 1, lct, np.array([0.5, 1.0]), r_max=5.0)
    assert exc.value.value.shape == exc.value.refined.shape == (2,)


def test_olcht_node_budget(lct):
    # the chirp-rate heuristic took 9,168 nodes per forward call of the
    # round trip; its integrand is smooth, so the first level settles it
    prof = PointCounter(roundtrip_profile(lct))
    fwd = PointCounter(lambda q: olcht_forward(prof, 1, lct, q, r_max=120.0))
    olcht_inverse(fwd, 1, lct, np.linspace(0.2, 4.0, 9), rho_max=1.0)
    assert fwd.calls >= 2
    assert prof.points <= 768 * fwd.calls
    # a chirped Gaussian is refined beyond the first level, within that budget
    g = PointCounter(chirped_gaussian_profile(6.0, 3))
    olcht_forward(g, 3, lct, np.linspace(0.1, 2.0, 10), r_max=60.0)
    assert 768 < g.points <= 9168
