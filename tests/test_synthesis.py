"""Bandlimited field construction: closed forms against quadrature."""

import numpy as np
import pytest

from polar_olct import (
    FourierBesselSpectrum,
    OffsetParams,
    ZeroTable,
    bessel_j,
    fourier_coefficients,
    lommel_kernel,
    olcht_forward,
    random_spectrum,
    sonine_profile,
    stark_interpolate,
    synthesize,
    synthesize_sonine,
)

Z0 = ZeroTable.for_order(0, 8).zeros


def gl_quadrature(f, a, b, n):
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (a + b) + 0.5 * (b - a) * x
    return 0.5 * (b - a) * np.sum(w * f(t))


def test_lommel_limit_at_its_own_zero():
    c = 1.0
    alpha = Z0[0]
    expected = 0.5 * c * c * bessel_j(1, alpha * c) ** 2
    assert abs(lommel_kernel(alpha, alpha, c, 0) - expected) < 1e-14


def test_lommel_orthogonality_at_other_zeros():
    c = 1.0
    for j in range(1, 5):
        val = lommel_kernel(Z0[0], Z0[j], c, 0)
        assert abs(val) < 1e-12


def test_lommel_against_quadrature_oracle():
    c, alpha, r, v = 1.0, Z0[0], 0.5, 0
    oracle = gl_quadrature(lambda u: bessel_j(v, alpha * u) * bessel_j(v, r * u) * u,
                           0.0, c, 2048)
    assert abs(lommel_kernel(alpha, r, c, v) - oracle) < 1e-10
    # through the removable point r = alpha the kernel stays smooth
    for v in (0, 1, 3):
        alpha = ZeroTable.for_order(v, 3).zeros[2] / 0.5
        for rel in (-1e-3, -1e-5, -3e-7, 5e-7, 2e-6, 1e-4, 0.1):
            r = alpha * (1.0 + rel)
            oracle = gl_quadrature(lambda u: bessel_j(v, alpha * u) * bessel_j(v, r * u) * u,
                                   0.0, 0.5, 256)
            assert abs(lommel_kernel(alpha, r, 0.5, v) - oracle) < 1e-14


def test_lommel_rejects_non_zero_alpha():
    with pytest.raises(ValueError):
        lommel_kernel(2.0, 0.5, 1.0, 0)  # J_0(2) != 0
    with pytest.raises(ValueError):
        lommel_kernel(np.array([Z0[0], 2.0]), 0.5, 1.0, 0)


def test_lommel_array_alpha_matches_scalar_calls():
    c, v = 0.5, 1
    alphas = ZeroTable.for_order(v, 6).zeros[:6].reshape(2, 3) / c
    # probes far from the zeros and within 1e-6 alpha of each of them
    r = np.concatenate([np.linspace(0.0, 40.0, 9), alphas.ravel() * (1.0 + 3e-7)])
    mat = lommel_kernel(alphas, r, c, v)
    assert mat.shape == (2, 3, r.size)
    for idx in np.ndindex(alphas.shape):
        assert np.max(np.abs(mat[idx] - lommel_kernel(alphas[idx], r, c, v))) <= 1e-15
    assert lommel_kernel(alphas, 0.3, c, v).shape == (2, 3)


def test_gram_matrix_diagonal():
    c = 0.5
    zeros = ZeroTable.for_order(2, 5).zeros[:5]
    alphas = zeros / c
    for i, ai in enumerate(alphas):
        for j, aj in enumerate(alphas):
            val = lommel_kernel(ai, aj, c, 2)
            if i == j:
                expected = 0.5 * c * c * bessel_j(3, zeros[i]) ** 2
                assert abs(val - expected) < 1e-13
            else:
                assert abs(val) < 1e-12


def test_spectrum_validation():
    for omega in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="omega"):
            FourierBesselSpectrum(omega, 1, {0: np.array([1.0 + 0j])})
    with pytest.raises(ValueError):
        FourierBesselSpectrum(1.0, 1, {2: np.array([1.0 + 0j])})
    with pytest.raises(ValueError):
        FourierBesselSpectrum(1.0, 1, {0: np.array([2e6 + 0j])})
    with pytest.raises(ValueError):
        FourierBesselSpectrum(1.0, 1, {0: np.array([1.0 + 0j])}, order_map="bogus")


def test_unknown_order_map_rejected(rot):
    # a misspelt map used to build the fixed-order field silently
    with pytest.raises(ValueError, match="order_map"):
        synthesize_sonine({0: 1.0, 1: 0.5}, rot, 1.0, order_map="per_ordr")
    with pytest.raises(ValueError, match="order_map"):
        random_spectrum(1.0, 1, 2, seed=1, order_map="per_ordr")


def test_zero_spectrum_gives_zero_field(rot):
    spec = FourierBesselSpectrum(1.0, 1, {})
    f = synthesize(spec, rot)
    r = np.linspace(0.0, 3.0, 7)
    assert np.max(np.abs(f.evaluate(r, 0.3))) == 0.0


def test_single_term_profile_is_lommel(rot):
    spec = FourierBesselSpectrum(1.0, 0, {0: np.array([1.0 + 0j])})
    f = synthesize(spec, rot)
    r = np.linspace(0.0, 5.0, 11)
    expected = lommel_kernel(Z0[0], r, 1.0, 0)
    assert np.max(np.abs(f.coefficients[0](r) - expected)) < 1e-14


def test_profiles_equal_lommel_kernel_sums(lct):
    # profiles check their zeros and take J_{w+1} there once, when built;
    # their values are still exactly the chirped eps @ lommel_kernel(...)
    spec = random_spectrum(1.5, 2, 4, seed=12)
    f = synthesize(spec, lct)
    c = spec.omega / lct.b
    r = np.concatenate([np.linspace(0.0, 9.0, 37), lct.b * ZeroTable.for_order(2, 3).zeros / spec.omega])
    for n, eps in spec.coefficients.items():
        w = spec.radial_order(n)
        alphas = lct.b * ZeroTable.for_order(w, eps.size).zeros[:eps.size] / spec.omega
        expected = np.exp(-1j * (lct.a / (2.0 * lct.b)) * r ** 2) * (eps @ lommel_kernel(alphas, r, c, w))
        assert np.array_equal(f.coefficients[n](r), expected), n


def test_warm_synthesize_takes_no_bessel_pass(lct, bessel_core_calls):
    # the bases take their zeros and the Taylor data there from the zero
    # tables, so once those are warm a synthesis runs no Bessel code; at
    # b = 2, omega = pi some of b z / omega * omega / b round off the zero
    spec = random_spectrum(np.pi, 3, 4, seed=21)
    r = np.linspace(0.0, 6.0, 13)
    cold = synthesize(spec, lct)
    bessel_core_calls.clear()
    warm = synthesize(spec, lct)
    assert bessel_core_calls == []
    assert np.array_equal(warm.evaluate(r, 0.3), cold.evaluate(r, 0.3))


def test_single_term_against_inverse_hankel_quadrature(rot, scipy_hankel):
    # profile equals the inverse transform of the boxed spectrum J_0(z_1 u),
    # u < 1; oracle: scipy quad_vec with scipy.special.jv on both factors
    jv = pytest.importorskip("scipy.special").jv
    spec = FourierBesselSpectrum(1.0, 0, {0: np.array([1.0 + 0j])})
    f = synthesize(spec, rot)
    r = np.linspace(0.1, 3.0, 7)
    oracle = scipy_hankel(lambda u: jv(0, Z0[0] * u), 0, r, 1.0)
    assert np.max(np.abs(f.coefficients[0](r) - oracle)) < 1e-8


def test_hermitian_spectrum_gives_real_field(rot):
    spec = random_spectrum(1.0, 2, 3, seed=31, hermitian=True)
    f = synthesize(spec, rot)
    rng = np.random.default_rng(0)
    r = rng.uniform(0.0, 4.0, 50)
    t = rng.uniform(-np.pi, np.pi, 50)
    vals = f.evaluate(r, t)
    assert np.max(np.abs(vals.imag)) < 1e-10 * max(np.max(np.abs(vals)), 1.0)


def test_evaluate_periodicity_and_spot_value(rot, make_field):
    f = make_field(rot, k_max=2, seed=33)
    assert abs(f.evaluate(0.7, 1.1) - f.evaluate(0.7, 1.1 + 2.0 * np.pi)) < 1e-13
    manual = sum(f.coefficients[n](np.array([0.7]))[0] * np.exp(1j * n * 1.1)
                 for n in range(-2, 3))
    assert abs(f.evaluate(0.7, 1.1) - manual) < 1e-12


def test_evaluate_separable_matches_broadcast_reference(lct, make_field):
    # the fixed-order fields share one radial basis across all five profiles
    weights = {n: 0.5 - 0.3j * n for n in range(-2, 3)}
    fields = [make_field(lct, k_max=2, seed=36, order_map=m) for m in ("per_order", "fixed")]
    fields += [synthesize_sonine(weights, lct, 1.0, order_map=m, fixed_order=1)
               for m in ("per_order", "fixed")]

    def reference(f, r, theta):
        # every point broadcast to the full grid, profiles on its unique radii
        shape = np.broadcast(r, theta).shape
        flat_r = np.broadcast_to(r, shape).ravel()
        flat_t = np.broadcast_to(theta, shape).ravel()
        uniq, inv = np.unique(flat_r, return_inverse=True)
        out = np.zeros(flat_r.size, dtype=complex)
        for n in sorted(f.coefficients):
            out += np.asarray(f.coefficients[n](uniq), dtype=complex)[inv] * np.exp(1j * n * flat_t)
        return out.reshape(shape)

    r = np.linspace(0.0, 30.0, 77)
    t = np.linspace(-np.pi, np.pi, 52, endpoint=False)
    rng = np.random.default_rng(4)
    scattered = (rng.uniform(0.0, 30.0, 40), rng.uniform(-np.pi, np.pi, 40))
    for f in fields:
        for args in ((r[:, None], t[None, :]), np.meshgrid(r, t, indexing="ij"),
                     np.meshgrid(r, t), scattered):
            got = f.evaluate(*args)
            want = reference(f, *args)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), type(f).__name__


def test_angular_bandlimit(rot, make_field):
    f = make_field(rot, k_max=2, seed=34)
    coeffs = fourier_coefficients(f, 5)
    r = np.linspace(0.2, 2.0, 5)
    scale = max(float(np.max(np.abs(coeffs[n](r)))) for n in range(-2, 3))
    for n in (-5, -4, 3, 4, 5):
        assert np.max(np.abs(coeffs[n](r))) < 1e-12 * max(scale, 1.0)


def test_exact_radial_bandlimit(rot, make_field):
    f = make_field(rot, k_max=1, seed=35)
    inside = np.linspace(0.1, 0.9, 5)
    outside = np.array([1.05, 1.4, 2.0])
    for n in (-1, 0, 1):
        peak = np.max(np.abs(olcht_forward(f.coefficients[n], abs(n), rot, inside, r_max=400.0)))
        tail = np.max(np.abs(olcht_forward(f.coefficients[n], abs(n), rot, outside, r_max=400.0)))
        assert tail <= 1e-6 * peak


def test_spectral_coefficient_closed_form(lct, make_field):
    f = make_field(lct, k_max=1, seed=36)
    rho = np.linspace(0.05, 0.9, 7)
    for n in (-1, 0, 1):
        closed = f.spectral_coefficient(n, rho)
        quad = olcht_forward(f.coefficients[n], abs(n), lct, rho, r_max=240.0)
        assert np.max(np.abs(closed - quad)) < 1e-5 * max(np.max(np.abs(closed)), 1e-30)
    assert np.max(np.abs(f.spectral_coefficient(0, np.array([1.0, 1.5])))) == 0.0


@pytest.mark.parametrize("entry, args", [
    ("spectrum_values", (np.nan, 0.0)), ("spectrum_values", (np.inf, 0.0)),
    ("spectrum_values", (0.5, np.nan)), ("spectral_coefficient", (0, np.nan)),
    ("evaluate", (0.5, np.nan)), ("evaluate", (np.inf, 0.0)),
    ("evaluate", (np.array([[0.5], [np.nan]]), np.zeros((1, 3)))),
    ("stark_interpolate", (np.ones(3), np.nan, 1)),
])
def test_non_finite_points_rejected(lct, make_field, entry, args):
    call = stark_interpolate if entry == "stark_interpolate" else getattr(make_field(lct, j_spec=2), entry)
    with pytest.raises(ValueError, match="finite"):
        call(*args)


def test_fixed_order_field_evaluates_its_basis_once(lct, bessel_core_calls):
    # theorem-2 fields: all 2K+1 profiles share one radial basis, so one
    # evaluate call makes one Bessel evaluation, not one per angular order
    fields = (synthesize(random_spectrum(1.0, 2, 3, seed=8, order_map="fixed"), lct),
              synthesize_sonine({n: 1.0 for n in range(-2, 3)}, lct, 1.0, order_map="fixed"))
    r, t = np.meshgrid(np.linspace(0.0, 9.0, 30), np.linspace(-np.pi, np.pi, 12), indexing="ij")
    for f in fields:
        bessel_core_calls.clear()
        f.evaluate(r, t)
        assert len(bessel_core_calls) == 1, type(f).__name__


def test_sonine_profile_closed_form_vs_quadrature(scipy_hankel):
    # oracle: the order-w Hankel transform of the spectrum G on [0, c] by
    # scipy quad_vec with scipy.special.jv
    c, w, s = 0.8, 2, 1
    g, G = sonine_profile(w, c, s)
    r = np.array([0.3, 1.7, 6.0])
    oracle = scipy_hankel(G, w, r, c)
    assert np.max(np.abs(g(r) - oracle)) < 1e-10
    # small-argument branch agrees with the quadrature too
    tiny = np.array([1e-6, 5e-5])
    oracle_tiny = scipy_hankel(G, w, tiny, c)
    assert np.max(np.abs(g(tiny) - oracle_tiny)) < 1e-12


def test_sonine_field_bandlimited(rot):
    # the s = 2 weight decays fast enough in space for the out-of-band
    # quadrature to resolve the support boundary
    f = synthesize_sonine({0: 1.0, 1: 0.5j, -1: -0.5j}, rot, 1.0, s=2)
    outside = np.array([1.05, 1.5])
    inside = np.linspace(0.1, 0.9, 5)
    for n in (-1, 0, 1):
        peak = np.max(np.abs(olcht_forward(f.coefficients[n], abs(n), rot, inside, r_max=600.0)))
        tail = np.max(np.abs(olcht_forward(f.coefficients[n], abs(n), rot, outside, r_max=600.0)))
        assert tail <= 1e-6 * peak


def test_random_spectrum_deterministic_and_edge_flattened():
    s1 = random_spectrum(1.0, 2, 3, seed=77)
    s2 = random_spectrum(1.0, 2, 3, seed=77)
    for n in s1.coefficients:
        assert np.array_equal(s1.coefficients[n], s2.coefficients[n])
    for n, eps in s1.coefficients.items():
        w = s1.radial_order(n)
        zeros = ZeroTable.for_order(w, eps.size).zeros[: eps.size]
        slope = sum(e * z * bessel_j(w + 1, z) for e, z in zip(eps, zeros))
        assert abs(slope) < 1e-12
