"""Zero-grid sampling and the reconstruction series."""

import cmath
import re

import numpy as np
import pytest

from polar_olct import (
    KernelParams,
    OffsetParams,
    SampleGrid,
    SampleSet,
    SpectrumField,
    ZeroTable,
    default_m_sum,
    olct_inverse,
    random_spectrum,
    reconstruct_field,
    reconstruct_spectrum,
    sample_count,
    sample_field,
    spectral_grid,
    stark_interpolate,
    stark_kernel,
    synthesize,
    synthesize_sonine,
    theta_kernel,
)
from polar_olct import sampling
from polar_olct.harness import _alternating_prefactor, _spatial_chirp


def rel_err(x, truth):
    return float(np.max(np.abs(x - truth))) / (float(np.max(np.abs(truth))) or 1.0)


# --------------------------------------------------------------------------
# azimuthal interpolation
# --------------------------------------------------------------------------

def test_stark_kronecker():
    for K in (0, 1, 3, 5):
        nodes = 2.0 * np.pi * np.arange(2 * K + 1) / (2 * K + 1)
        for l in range(2 * K + 1):
            vals = stark_kernel(nodes, l, K)
            assert abs(vals[l] - 1.0) < 1e-12
            others = np.delete(vals, l)
            if others.size:
                assert np.max(np.abs(others)) < 1e-12


def test_stark_partition_of_unity():
    rng = np.random.default_rng(1)
    for K in (1, 2, 5):
        th = rng.uniform(-np.pi, np.pi, 200)
        total = sum(stark_kernel(th, l, K) for l in range(2 * K + 1))
        assert np.max(np.abs(total - 1.0)) < 1e-12


def test_stark_exact_on_band_limited_polynomials():
    rng = np.random.default_rng(2)
    for K in (1, 2, 3, 5):
        nodes = 2.0 * np.pi * np.arange(2 * K + 1) / (2 * K + 1)
        c = rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)
        poly = lambda t: sum(c[K + n] * np.exp(1j * n * np.asarray(t))
                             for n in range(-K, K + 1))
        th = rng.uniform(-np.pi, np.pi, 200)
        interp = stark_interpolate(poly(nodes), th, K)
        assert np.max(np.abs(interp - poly(th))) < 1e-12


def test_stark_interpolate_basics():
    K = 3
    nodes = 2.0 * np.pi * np.arange(2 * K + 1) / (2 * K + 1)
    const = stark_interpolate(np.full(2 * K + 1, 2.5 + 0j), 1.234, K)
    assert abs(const - 2.5) < 1e-12
    vals = np.exp(1j * K * nodes)
    probe = stark_interpolate(vals, 0.37, K)
    assert abs(probe - cmath.exp(1j * K * 0.37)) < 1e-12
    reproduced = stark_interpolate(vals, nodes, K)
    assert np.max(np.abs(reproduced - vals)) < 1e-12
    grid_th = np.linspace(-np.pi, np.pi, 12).reshape(3, 4)
    on_grid = stark_interpolate(vals, grid_th, K)
    assert on_grid.shape == (3, 4)
    assert np.max(np.abs(on_grid - np.exp(1j * K * grid_th))) < 1e-12
    with pytest.raises(ValueError):
        stark_interpolate(np.ones(4), 0.0, K)
    with pytest.raises(ValueError):
        stark_kernel(0.1, 7, K)


def test_stark_moment_identity_by_quadrature():
    # integral of o_l(t) e^{-i n t} over the circle, |n| <= K
    K, l, n = 2, 1, -1
    th = -np.pi + 2.0 * np.pi * np.arange(8192) / 8192
    quad = np.sum(stark_kernel(th, l, K) * np.exp(-1j * n * th)) * (2.0 * np.pi / 8192)
    target = (2.0 * np.pi / (2 * K + 1)) * cmath.exp(-1j * n * 2.0 * np.pi * l / (2 * K + 1))
    assert abs(quad - target) < 1e-10


# --------------------------------------------------------------------------
# radial interpolation
# --------------------------------------------------------------------------

def test_theta_kernel_at_its_sample(rot, offset_params):
    mpmath = pytest.importorskip("mpmath")
    omega = np.pi
    # at the sample, inside 1e-6 alpha of it, just outside, and where the
    # Taylor series about the zero of a half-integer order converges slowly
    offsets = (0.0, 1e-12, -3e-9, 4e-7, -9e-7, 1.1e-6, -2e-6, 1e-5, 0.2, -0.3)
    with mpmath.workdps(40):
        for order in (-0.5, 0, 1):
            zeros = ZeroTable.for_order(order, 3).zeros[:3]
            for z in zeros:
                z_mp = mpmath.findroot(lambda t: mpmath.besselj(order, t), z)
                for params in (rot, offset_params):
                    b, mu2 = mpmath.mpf(params.b), mpmath.mpf(params.mu2)
                    al = b * z_mp / omega
                    alpha = params.b * z / omega
                    for rel in offsets:
                        r = alpha * (1.0 + rel)
                        rm = mpmath.mpf(r)
                        ref = 2 * b * (mu2 + al) * mpmath.besselj(order, omega * rm / b) / (
                            omega * mpmath.besselj(order + 1, z_mp) * (al * al - rm * rm + 2 * mu2 * (al - rm)))
                        got = theta_kernel(r, alpha, z, order, params, omega)
                        assert abs(got - float(ref)) <= 1e-14, (order, z, rel)


def test_theta_kernel_vanishes_at_other_zeros(rot):
    z = ZeroTable.for_order(1, 6).zeros
    omega = np.pi
    alphas = rot.b * z / omega
    for jp in (1, 3, 5):
        assert abs(theta_kernel(alphas[jp], alphas[0], z[0], 1, rot, omega)) < 1e-12


def test_theta_kernel_matches_direct_formula():
    params = OffsetParams(1.0, 1.0, 0.0, 1.0, (0.5, 0.0), (0.0, 0.0))
    assert abs(params.mu2 - 0.5) < 1e-15
    z = ZeroTable.for_order(0, 2).zeros
    omega, b = np.pi, params.b
    alpha = b * z[0] / omega
    r = 0.3
    from polar_olct import bessel_j
    num = 2 * b * (params.mu2 + alpha) * bessel_j(0, omega * r / b)
    den = omega * bessel_j(1, z[0]) * (alpha ** 2 - r ** 2 + 2 * params.mu2 * (alpha - r))
    assert abs(theta_kernel(r, alpha, z[0], 0, params, omega) - num / den) < 1e-14
    # continuity across the sample point
    lo = theta_kernel(alpha * (1 - 2e-6), alpha, z[0], 0, params, omega)
    hi = theta_kernel(alpha * (1 + 2e-6), alpha, z[0], 0, params, omega)
    assert abs(0.5 * (lo + hi) - 1.0) < 1e-8
    with pytest.raises(ValueError):
        theta_kernel(r, 1.1 * alpha, z[0], 0, params, omega)


def test_theta_kernel_array_samples(offset_params):
    order, omega = 1, np.pi
    z = ZeroTable.for_order(order, 6).zeros[:6].reshape(2, 3)
    alpha = offset_params.b * z / omega
    r = np.linspace(0.05, 2.5, 8).reshape(2, 4)
    mat = theta_kernel(r, alpha, z, order, offset_params, omega)
    assert mat.shape == (2, 3, 2, 4)
    for idx in np.ndindex(alpha.shape):
        row = theta_kernel(r, alpha[idx], z[idx], order, offset_params, omega)
        assert np.max(np.abs(mat[idx] - row)) <= 1e-14
    bad = alpha.copy()
    bad[1, 2] *= 1.1
    with pytest.raises(ValueError):
        theta_kernel(r, bad, z, order, offset_params, omega)


def test_theta_kernel_rejects_an_abscissa_that_is_not_a_zero(rot):
    # J_0(2) = 0.22: the formula has a pole at r = 2, about +-3.9e5 at
    # r = 2 -+ 1e-6, so there is no removable value to return
    r = np.array([2.0 - 1e-6, 2.0, 2.0 + 1e-6])
    with pytest.raises(ValueError, match=r"^2\.0 is not a zero of the order-0 "):
        theta_kernel(r, 2.0, 2.0, 0, rot, 1.0)


def test_reconstruction_rejects_grid_zeros_that_are_not_zeros(rot):
    # a hand-built grid whose third abscissa is off the zero of J_0
    z = ZeroTable.for_order(0, 4).zeros[:4].copy()
    z[2] += 0.01
    grid = SampleGrid("theorem2", rot, np.pi, 1, {0: z})
    samples = sample_field(lambda r, t: np.ones(np.broadcast(r, t).shape), grid)
    with pytest.raises(ValueError, match=f"^{re.escape(repr(float(z[2])))} is not a zero"):
        reconstruct_field(samples, "theorem2", rot, 0, np.array([0.5, 1.0]), 0.0)


def test_default_m_sum(rot, offset_params):
    assert default_m_sum(rot, 1.0) == 0
    m = default_m_sum(offset_params, 1.0)
    assert m >= 20 and m == int(np.ceil(max(offset_params.mu1, offset_params.mu2) * 10.0)) + 20


# --------------------------------------------------------------------------
# grids, sample sets, counts
# --------------------------------------------------------------------------

def test_sample_counts_match_budget_formulas(rot):
    assert sample_count(2, 10, "theorem1") == 2500
    assert sample_count(2, 10, "theorem2") == 500
    assert sample_count(1, 10, "theorem1") == 900
    assert sample_count(1, 10, "theorem2") == 300
    for k in range(0, 4):
        for n in (10, 20, 40):
            ratio = sample_count(k, n, "theorem1") / sample_count(k, n, "theorem2")
            assert ratio == 2 * k + 1
    with pytest.raises(ValueError):
        sample_count(2, 10, "corollary1")
    with pytest.raises(ValueError):
        sample_count(-1, 10, "theorem1")
    # counts are integers: sample_count(1, 2.5, "theorem1") returned 56.25
    for k, n, message in ((1, 2.5, "resolution must be a positive integer, got 2.5"),
                          (1, 0, "resolution must be a positive integer, got 0"),
                          (1.5, 3, "k_max must be a non-negative integer, got 1.5"),
                          (True, 3, "k_max must be a non-negative integer, got True")):
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_count(k, n, "theorem1")


@pytest.mark.parametrize("factory", ["theorem1", "theorem2", "corollary1", "corollary2"])
@pytest.mark.parametrize("k_max", [1.5, 2.0, -1])
def test_grid_refuses_a_non_integer_k_max(rot, factory, k_max):
    # theorem2 accepted 1.5, and reconstruct_field then died with a TypeError
    with pytest.raises(ValueError, match=re.escape(f"k_max must be a non-negative integer, "
                                                   f"got {k_max!r}")):
        getattr(SampleGrid, factory)(rot, np.pi, k_max, 3)


def test_sample_field_counts_and_zero_field(rot):
    g1 = SampleGrid.theorem1(rot, np.pi, 2, 10)
    g2 = SampleGrid.theorem2(rot, np.pi, 2, 10)
    zero = lambda r, t: np.zeros(np.broadcast(r, t).shape, complex)
    s1 = sample_field(zero, g1)
    s2 = sample_field(zero, g2)
    assert s1.total_count == 2500
    assert s2.total_count == 500
    assert all(np.max(np.abs(s1.slab(n))) == 0.0 for n in range(-2, 3))
    assert g1.thetas.size == 5 and g2.thetas.size == 5


def test_sample_field_calls_its_source_once_per_grid(rot, bessel_core_calls):
    # theorem 1 at K = 2 has three radial orders; their radii go to the
    # source in one call, and its three radial bases take one Bessel pass
    grid = SampleGrid.theorem1(rot, np.pi, 2, 6)
    f = synthesize(random_spectrum(np.pi, 2, 3, seed=47), rot)
    shapes = []

    def source(r, t):
        shapes.append(np.broadcast(r, t).shape)
        return f.evaluate(r, t)

    bessel_core_calls.clear()
    samples = sample_field(source, grid)
    assert shapes == [(sum(z.size for z in grid.zeros.values()), 5)]
    assert bessel_core_calls == [(0.0, 1.0, 2.0)]
    for n in range(-2, 3):
        alone = f.evaluate(grid.alphas(n)[:, None], grid.thetas[None, :])
        assert rel_err(samples.slab(n), alone) <= 1e-14


def test_sample_set_stores_one_slab_per_radial_order(rot):
    # theorem 1 puts n and -n on the zeros of radial order |n|: the set
    # keeps one slab for both, while total_count stays the paper's count
    g1 = SampleGrid.theorem1(rot, np.pi, 2, 3)
    g2 = SampleGrid.theorem2(rot, np.pi, 2, 3, order=1)
    f = synthesize(random_spectrum(np.pi, 2, 3, seed=48), rot)
    s1, s2 = sample_field(f, g1), sample_field(f, g2)
    assert sorted(s1.slabs) == [0, 1, 2] and sorted(s2.slabs) == [1]
    assert all(s1.slab(n) is s1.slab(-n) for n in (1, 2))
    assert (s1.total_count, s2.total_count) == (sample_count(2, 3, "theorem1"),
                                                sample_count(2, 3, "theorem2"))
    # a set keyed by angular order, or by a radial order the grid lacks
    angular = {n: s1.slab(n) for n in range(-2, 3)}
    for grid, slabs in ((g1, angular), (g2, {0: s2.slab(0)})):
        with pytest.raises(ValueError, match="slab keys do not match the grid layout"):
            SampleSet(grid, slabs)
    with pytest.raises(ValueError, match=re.escape("slab 2 has shape (9, 4), expected (9, 5)")):
        SampleSet(g1, {**s1.slabs, 2: s1.slabs[2][:, :4]})


@pytest.mark.parametrize("mode, dfts", [("theorem1", 3), ("theorem2", 1)])
def test_reconstruction_takes_one_angular_dft_per_radial_order(rot, monkeypatch, mode, dfts):
    # one DFT per radial order, not per angular order: at K = 2 theorem 1
    # has radial orders 0, 1 and 2 and theorem 2 one, for five angular orders
    samples = sample_field(synthesize(random_spectrum(np.pi, 2, 3, seed=49), rot),
                           getattr(SampleGrid, mode)(rot, np.pi, 2, 3))
    calls = []
    dft = sampling._angular_coefficients
    monkeypatch.setattr(sampling, "_angular_coefficients",
                        lambda values, k: calls.append(k) or dft(values, k))
    reconstruct_field(samples, mode, rot, 0, np.linspace(0.1, 3.0, 4), 0.3)
    assert calls == [2] * dfts


def test_warm_table_reconstruction_takes_no_jnext(rot, bessel_core_calls, zero_taylor_calls):
    # J_{v+1} at the zeros and the Taylor coefficients there come from the
    # zero tables: a second run takes J_v at the probes for all three
    # radial orders in one pass and nothing else
    f = synthesize(random_spectrum(np.pi, 2, 3, seed=45), rot)
    samples = sample_field(f, SampleGrid.theorem1(rot, np.pi, 2, 6))
    r, t = np.linspace(0.05, 5.0, 20), np.linspace(-np.pi, np.pi, 20)
    warm = reconstruct_field(samples, "theorem1", rot, 0, r, t)
    bessel_core_calls.clear()
    zero_taylor_calls.clear()
    assert np.array_equal(reconstruct_field(samples, "theorem1", rot, 0, r, t), warm)
    assert bessel_core_calls == [(0.0, 1.0, 2.0)]
    assert zero_taylor_calls == []


def test_four_modes_take_one_recurrence_per_sampling_and_reconstruction(rot, lct, miller_calls):
    # one pass of the four modes at K = 2 with Fourier-Bessel and Sonine
    # fields on warm zero tables, as the zero-grid benchmark runs it: each
    # sampling and each reconstruction takes all its radial orders from one
    # recurrence pass, 12 in all
    k = 2
    r, t = np.meshgrid(np.linspace(0.05, 8.0, 5), np.linspace(-np.pi, np.pi, 5, endpoint=False),
                       indexing="ij")
    rho, phi = np.meshgrid(np.linspace(0.02, 0.9, 5), np.linspace(-np.pi, np.pi, 5, endpoint=False))
    weights = {n: 1.0 for n in range(-k, k + 1)}
    cases = []
    for mode, order_map in (("theorem1", "per_order"), ("theorem2", "fixed")):
        grid = getattr(SampleGrid, mode)(rot, np.pi, k, 4)
        for field in (synthesize(random_spectrum(np.pi, k, 3, seed=5, order_map=order_map), rot),
                      synthesize_sonine(weights, rot, np.pi, order_map=order_map)):
            cases.append(lambda f=field, g=grid, m=mode:
                         reconstruct_field(sample_field(f, g), m, rot, 0, r, t))
    for mode, order_map in (("corollary1", "per_order"), ("corollary2", "fixed")):
        grid = getattr(SampleGrid, mode)(lct, 60.0, k, 1.0)
        field = synthesize(random_spectrum(1.0, k, 3, seed=6, order_map=order_map), lct)
        cases.append(lambda f=field, g=grid, m=mode:
                     reconstruct_spectrum(sample_field(f.spectrum_values, g), m, lct, 0, rho, phi))
    warm = [case() for case in cases]
    miller_calls.clear()
    for case, value in zip(cases, warm):
        assert np.array_equal(case(), value)
    assert len(miller_calls) <= 12
    assert miller_calls.count((0.0, 2.0)) >= 4


def test_grid_validation(rot):
    with pytest.raises(ValueError, match="unknown grid mode"):
        SampleGrid("bogus", rot, 1.0, 1, {0: np.array([1.0])})
    # the abscissae b z / omega assume b > 0: under b = -1 corollary1 gave
    # -0.120, -0.276, ... and theorem2 -2.405, ... with no error
    negative_b = KernelParams(0.0, -1.0, 1.0, 0.0)
    for grid in (lambda: SampleGrid.theorem1(negative_b, 1.0, 1, 2),
                 lambda: SampleGrid.theorem2(negative_b, 1.0, 0, 2),
                 lambda: SampleGrid.corollary1(negative_b, 20.0, 0, 1.0),
                 lambda: SampleGrid.corollary2(negative_b, 20.0, 0, 1.0)):
        with pytest.raises(ValueError, match=r"grid needs b > 0, got b = -1.0"):
            grid()


@pytest.mark.parametrize("factory, args, kwargs, message", [
    # resolution 0 held no zeros, and reconstruct_field returned all zeros
    ("theorem2", (1, 0), {}, "resolution must be a positive integer, got 0"),
    ("theorem1", (1, 0), {}, "resolution must be a positive integer, got 0"),
    # -2 was squared into 4 zeros per order
    ("theorem2", (1, -2), {}, "resolution must be a positive integer, got -2"),
])
def test_theorem_grids_reject_counts_with_no_zeros(rot, factory, args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        getattr(SampleGrid, factory)(rot, np.pi, *args, **kwargs)


def test_grid_rejects_an_order_with_no_zeros(rot):
    # a support radius of 0.5 leaves no zero below the band limit: the grid
    # stored 0 samples and reconstructed zeros
    for mode in ("corollary1", "corollary2"):
        with pytest.raises(ValueError, match=f"{mode} grid holds no zeros for order 0"):
            getattr(SampleGrid, mode)(rot, 0.5, 1, 1.0)
    with pytest.raises(ValueError, match="theorem1 grid holds no zeros for order 1"):
        SampleGrid("theorem1", rot, 1.0, 1, {0: np.array([1.0]), 1: np.array([])})


def test_corollary_grid_zeros_against_scipy_jn_zeros():
    # a corollary grid holds every zero z of each of its orders with
    # b z / R under 98 % of the band limit, and no other; scipy's jn_zeros,
    # filtered the same way, shares no code with the zero finder or with
    # the count bound that sizes the zero table
    jn_zeros = pytest.importorskip("scipy.special").jn_zeros
    band_limit, cases = 1.0, 0
    for b in (0.5, 2.0):
        params = OffsetParams(0.0, b, -1.0 / b, 0.0)
        for radius in (5.0, 20.0, 400.0):
            def below(v):
                z = jn_zeros(v, int(radius * band_limit / (b * np.pi)) + 10)
                return z[b * z / radius < 0.98 * band_limit]

            for mode, arg, orders in ([("corollary1", k, range(k + 1)) for k in (0, 1, 2, 3, 40)]
                                      + [("corollary2", v, (v,)) for v in (0, 1, 2, 3, 40)]):
                build = lambda: (SampleGrid.corollary1(params, radius, arg, band_limit)
                                 if mode == "corollary1" else
                                 SampleGrid.corollary2(params, radius, 0, band_limit, order=arg))
                want = {v: below(v) for v in orders}
                if any(z.size == 0 for z in want.values()):
                    with pytest.raises(ValueError, match="holds no zeros"):
                        build()
                    continue
                grid = build()
                assert sorted(grid.zeros) == sorted(want)
                for v, z in want.items():
                    assert grid.zeros[v].size == z.size, (mode, arg, b, radius, v)
                    assert np.max(np.abs(grid.zeros[v] - z)) <= 1e-12, (mode, arg, b, radius, v)
                cases += 1
    assert cases == 46


@pytest.mark.parametrize("mode, k_max, keys", [
    ("theorem1", 1, (0,)),
    ("theorem1", 1, (0, 2)),
    ("corollary1", 2, (0, 1, 2, 3)),
    ("theorem2", 1, (0, 1)),
    ("corollary2", 0, ()),
    ("theorem2", -1, (0,)),
])
def test_grid_rejects_zero_keys_off_its_order_map(rot, mode, k_max, keys):
    # a per-order grid takes orders 0..K, a fixed-order grid one order
    with pytest.raises(ValueError, match="needs zeros for|k_max must be"):
        SampleGrid(mode, rot, 1.0, k_max, {w: np.array([1.0, 2.0]) for w in keys})


def test_grid_radial_order_follows_the_spectrum_map(rot):
    for grid, order_map, fixed in ((SampleGrid.theorem1(rot, np.pi, 2, 2), "per_order", 0),
                                   (SampleGrid.theorem2(rot, np.pi, 2, 2, order=3), "fixed", 3),
                                   (SampleGrid.corollary2(rot, 50.0, 2, 1.0, order=1), "fixed", 1)):
        spec = random_spectrum(np.pi, 2, 2, seed=1, order_map=order_map, fixed_order=fixed)
        for n in range(-2, 3):
            w = spec.radial_order(n)
            assert grid.radial_order(n) == w
            assert np.array_equal(grid.alphas(n), rot.b * grid.zeros[w] / grid.omega)


# omega is the band limit of the theorem grids and the support radius of the
# corollary grids, whose band limit sizes the zero count
BAD_OMEGA_GRIDS = {
    "theorem1": lambda p, w: SampleGrid.theorem1(p, w, 1, 2),
    "theorem2": lambda p, w: SampleGrid.theorem2(p, w, 1, 2),
    "corollary1": lambda p, w: SampleGrid.corollary1(p, w, 1, 1.0),
    "corollary2": lambda p, w: SampleGrid.corollary2(p, w, 1, 1.0),
    "corollary1_band_limit": lambda p, w: SampleGrid.corollary1(p, 1.0, 1, w),
    "corollary2_band_limit": lambda p, w: SampleGrid.corollary2(p, 1.0, 1, w),
}


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
@pytest.mark.parametrize("factory", sorted(BAD_OMEGA_GRIDS))
def test_grid_rejects_bad_omega(rot, factory, bad):
    with pytest.raises(ValueError, match="finite and positive"):
        BAD_OMEGA_GRIDS[factory](rot, bad)


# --------------------------------------------------------------------------
# reconstruction: isotropic and coefficients
# --------------------------------------------------------------------------

def _fixed_order_profile(params, omega, order, seed):
    spec = random_spectrum(omega, 0, 3, seed=seed, order_map="fixed", fixed_order=order)
    return synthesize(spec, params).coefficients[0]


def _reconstruct_order(samples, order, params, omega, r, sample_map=lambda s: s):
    # one OLCHT order from its values at that order's normalized zeros: a
    # K = 0 theorem-2 grid holding the samples as its one-column slab
    samples = np.asarray(samples, dtype=complex)
    grid = SampleGrid("theorem2", params, omega, 0,
                      {order: ZeroTable.for_order(order, samples.size).zeros[:samples.size]})
    return reconstruct_field(sample_map(SampleSet(grid, {order: samples[:, None]})), "theorem2",
                             params, 0, r, 0.0)


def test_reconstruct_isotropic_classical_reduction(rot):
    omega = np.pi
    prof = _fixed_order_profile(rot, omega, 0, seed=41)
    zeros = ZeroTable.for_order(0, 40).zeros[:40]
    alphas = rot.b * zeros / omega
    samples = prof(alphas)
    r = np.linspace(0.05, 0.9 * alphas[-1], 150)
    rec = _reconstruct_order(samples, 0, rot, omega, r)
    assert rel_err(rec, prof(r)) <= 1e-6


def test_reconstruct_isotropic_kronecker_at_samples(rot, lct):
    omega = np.pi
    for params in (rot, lct):
        for order in (0, 1):
            prof = _fixed_order_profile(params, omega, order, seed=42 + order)
            zeros = ZeroTable.for_order(order, 25).zeros[:25]
            alphas = params.b * zeros / omega
            samples = prof(alphas)
            rec = _reconstruct_order(samples, order, params, omega, alphas[4])
            assert abs(rec - samples[4]) <= 1e-9 * max(np.max(np.abs(samples)), 1e-30)


def test_reconstruct_isotropic_zero_samples(rot):
    rec = _reconstruct_order(np.zeros(10), 0, rot, 1.0, np.linspace(0.1, 2.0, 5))
    assert np.max(np.abs(rec)) == 0.0


def test_alternating_prefactor_flips_odd_orders(lct):
    omega = np.pi
    prof = _fixed_order_profile(lct, omega, 1, seed=43)
    zeros = ZeroTable.for_order(1, 25).zeros[:25]
    alphas = lct.b * zeros / omega
    samples = prof(alphas)
    r = np.linspace(0.05, 0.9 * alphas[-1], 120)
    unit = _reconstruct_order(samples, 1, lct, omega, r)
    alt = _reconstruct_order(samples, 1, lct, omega, r, _alternating_prefactor)
    assert rel_err(unit, prof(r)) <= 1e-6
    assert np.max(np.abs(alt + unit)) < 1e-12 * max(np.max(np.abs(unit)), 1e-30)


def test_reconstruct_isotropic_order_one(rot):
    omega = np.pi
    spec = random_spectrum(omega, 1, 3, seed=44)
    field = synthesize(spec, rot)
    zeros = ZeroTable.for_order(1, 40).zeros[:40]
    alphas = rot.b * zeros / omega
    samples = field.coefficients[1](alphas)
    r = np.linspace(0.05, 0.9 * alphas[-1], 150)
    rec = _reconstruct_order(samples, 1, rot, omega, r)
    assert rel_err(rec, field.coefficients[1](r)) <= 1e-6
    rec_at = _reconstruct_order(samples, 1, rot, omega, alphas[7])
    assert abs(rec_at - samples[7]) <= 1e-9 * max(np.max(np.abs(samples)), 1e-30)


# --------------------------------------------------------------------------
# reconstruction: full fields
# --------------------------------------------------------------------------

def test_reconstruct_field_zero_samples(rot):
    grid = SampleGrid.theorem1(rot, np.pi, 1, 4)
    zero = lambda r, t: np.zeros(np.broadcast(r, t).shape, complex)
    samples = sample_field(zero, grid)
    out = reconstruct_field(samples, "theorem1", rot, 0, np.array([0.4]), np.array([0.2]))
    assert np.max(np.abs(out)) == 0.0


def test_reconstruct_field_mode_mismatch(rot, lct):
    grid = SampleGrid.theorem1(rot, np.pi, 1, 4)
    zero = lambda r, t: np.zeros(np.broadcast(r, t).shape, complex)
    samples = sample_field(zero, grid)
    with pytest.raises(ValueError):
        reconstruct_field(samples, "theorem2", rot, 0, np.array([0.4]), np.array([0.2]))
    with pytest.raises(ValueError):
        reconstruct_spectrum(samples, "corollary1", rot, 0, np.array([0.4]), np.array([0.2]))
    # a bundle other than the grid's: the abscissae b z / omega and the
    # chirps of the samples are the grid bundle's, so the series would
    # reconstruct another field
    spectrum_samples = sample_field(zero, SampleGrid.corollary1(rot, 20.0, 1, 1.0))
    for entry, s, mode in ((reconstruct_field, samples, "theorem1"),
                           (reconstruct_spectrum, spectrum_samples, "corollary1")):
        with pytest.raises(ValueError, match=re.escape(f"grid was built for {rot!r}, not {lct!r}")):
            entry(s, mode, lct, 0, np.array([0.4]), np.array([0.2]))


@pytest.mark.parametrize("entry", ["olct_inverse", "reconstruct_field", "reconstruct_spectrum"])
@pytest.mark.parametrize("r, theta", [([np.nan], [0.2]), ([np.inf], [0.2]), ([0.4], [np.nan]),
                                      ([0.4], [np.inf]), ([0.4, 0.5], [0.2, -np.inf])])
def test_non_finite_probe_points_rejected(lct, entry, r, theta):
    ones = lambda r, t: np.ones(np.broadcast(r, t).shape, complex)
    if entry == "olct_inverse":
        sg = spectral_grid(lct, 1.0, n_radial=16, n_phi=4)
        spectrum = SpectrumField(np.ones((sg.rho.size, 4)), sg, lct)
        call = lambda: olct_inverse(spectrum, np.array(r), np.array(theta))
    elif entry == "reconstruct_field":
        samples = sample_field(ones, SampleGrid.theorem1(lct, 1.0, 1, 2))
        call = lambda: reconstruct_field(samples, "theorem1", lct, 0, r, theta)
    else:
        samples = sample_field(ones, SampleGrid.corollary1(lct, 20.0, 1, 1.0))
        call = lambda: reconstruct_spectrum(samples, "corollary1", lct, 0, r, theta)
    with pytest.raises(ValueError, match="finite"):
        call()


def test_reconstruct_field_both_modes_reduction(rot, probe_mesh):
    omega = np.pi
    spec1 = random_spectrum(omega, 2, 3, seed=45)
    f1 = synthesize(spec1, rot)
    g1 = SampleGrid.theorem1(rot, omega, 2, 6)
    s1 = sample_field(f1, g1)
    r_hi = 0.9 * float(g1.alphas(0)[-1])
    R, TH = probe_mesh(0.05, r_hi, 20)
    rec1 = reconstruct_field(s1, "theorem1", rot, 0, R, TH)
    assert rel_err(rec1, f1.evaluate(R, TH)) <= 1e-5

    spec2 = random_spectrum(omega, 2, 3, seed=46, order_map="fixed", fixed_order=0)
    f2 = synthesize(spec2, rot)
    g2 = SampleGrid.theorem2(rot, omega, 2, 6)
    s2 = sample_field(f2, g2)
    rec2 = reconstruct_field(s2, "theorem2", rot, 0, R, TH)
    assert rel_err(rec2, f2.evaluate(R, TH)) <= 1e-5


def test_theorem_modes_agree_for_isotropic_fields(rot):
    omega = np.pi
    spec = random_spectrum(omega, 0, 3, seed=47)
    f = synthesize(spec, rot)
    g1 = SampleGrid.theorem1(rot, omega, 0, 5)
    g2 = SampleGrid.theorem2(rot, omega, 0, 5)
    s1 = sample_field(f, g1)
    s2 = sample_field(f, g2)
    r = np.linspace(0.05, 0.9 * float(g1.alphas(0)[-1]), 60)
    th = np.full_like(r, 0.3)
    rec1 = reconstruct_field(s1, "theorem1", rot, 0, r, th)
    rec2 = reconstruct_field(s2, "theorem2", rot, 0, r, th)
    assert np.max(np.abs(rec1 - rec2)) <= 1e-9 * max(np.max(np.abs(rec1)), 1e-30)


def test_node_consistency_at_grid_points(rot):
    omega = np.pi
    spec = random_spectrum(omega, 2, 3, seed=48)
    f = synthesize(spec, rot)
    grid = SampleGrid.theorem1(rot, omega, 2, 5)
    samples = sample_field(f, grid)
    al = grid.alphas(2)
    th = grid.thetas
    probe_r = np.array([al[3], al[7]])
    probe_t = np.array([th[1], th[4]])
    rec = reconstruct_field(samples, "theorem1", rot, 0, probe_r, probe_t)
    truth = f.evaluate(probe_r, probe_t)
    assert np.max(np.abs(rec - truth)) <= 1e-9 * max(np.max(np.abs(truth)), 1e-30)


def test_truncation_error_decreases_with_resolution(rot, probe_mesh):
    # non-terminating spectra make the truncation honest
    omega = np.pi
    weights = {n: (0.5 + 0.4j if n else 1.0) for n in (-1, 0, 1)}
    f = synthesize_sonine(weights, rot, omega, order_map="fixed", fixed_order=0)
    zeros_min = ZeroTable.for_order(0, 9).zeros
    r_hi = 0.9 * rot.b * zeros_min[-1] / omega
    R, TH = probe_mesh(0.05, r_hi, 12)
    truth = f.evaluate(R, TH)
    errs = []
    for n_res in (3, 6, 12):
        grid = SampleGrid.theorem2(rot, omega, 1, n_res)
        samples = sample_field(f, grid)
        rec = reconstruct_field(samples, "theorem2", rot, 0, R, TH)
        errs.append(rel_err(rec, truth))
    assert errs[0] > 1e-5  # under-resolved case is visibly wrong
    assert errs[1] < 0.2 * errs[0]
    assert errs[2] < 0.2 * errs[1]


# --------------------------------------------------------------------------
# reconstruction: spectra
# --------------------------------------------------------------------------

def test_reconstruct_spectrum_reduction(lct, probe_mesh):
    omega = 1.0
    spec = random_spectrum(omega, 2, 3, seed=49)
    f = synthesize(spec, lct)
    grid = SampleGrid.corollary1(lct, 400.0, 2, omega)
    samples = sample_field(f.spectrum_values, grid)
    rho = np.linspace(0.02, 0.9 * omega, 20)
    phi = np.linspace(-np.pi, np.pi, 20, endpoint=False)
    PH, RH = np.meshgrid(phi, rho)
    rec = reconstruct_spectrum(samples, "corollary1", lct, 0, RH, PH)
    truth = f.spectrum_values(RH, PH)
    assert rel_err(rec, truth) <= 1e-5
    # the alternate inner chirp is inconsistent once a != d
    bad = reconstruct_spectrum(_spatial_chirp(samples), "corollary1", lct, 0, RH, PH)
    assert rel_err(bad, truth) > 1e-3


def test_reconstruct_spectrum_fixed_order(lct):
    omega = 1.0
    spec = random_spectrum(omega, 2, 3, seed=50, order_map="fixed", fixed_order=0)
    f = synthesize(spec, lct)
    grid = SampleGrid.corollary2(lct, 400.0, 2, omega)
    samples = sample_field(f.spectrum_values, grid)
    rho = np.linspace(0.02, 0.9 * omega, 15)
    phi = np.linspace(-np.pi, np.pi, 15, endpoint=False)
    PH, RH = np.meshgrid(phi, rho)
    rec = reconstruct_spectrum(samples, "corollary2", lct, 0, RH, PH)
    truth = f.spectrum_values(RH, PH)
    assert rel_err(rec, truth) <= 1e-5


def test_reconstruct_spectrum_grid_point_interpolation(lct):
    omega = 1.0
    spec = random_spectrum(omega, 1, 3, seed=51, order_map="fixed", fixed_order=0)
    f = synthesize(spec, lct)
    grid = SampleGrid.corollary2(lct, 400.0, 1, omega)
    samples = sample_field(f.spectrum_values, grid)
    al = grid.alphas(0)
    th = grid.thetas
    rec = reconstruct_spectrum(samples, "corollary2", lct, 0,
                               np.array([al[5]]), np.array([th[1]]))
    sample_val = samples.slab(0)[5, 1]
    assert abs(rec[0] - sample_val) <= 1e-8 * max(abs(sample_val), 1e-30)


def test_reconstruct_spectrum_zero_input(lct):
    grid = SampleGrid.corollary1(lct, 100.0, 1, 1.0)
    zero = lambda r, p: np.zeros(np.broadcast(r, p).shape, complex)
    samples = sample_field(zero, grid)
    out = reconstruct_spectrum(samples, "corollary1", lct, 0,
                               np.array([0.4]), np.array([0.1]))
    assert np.max(np.abs(out)) == 0.0


# --------------------------------------------------------------------------
# reconstruction: the side-order (m_sum > 0) series
# --------------------------------------------------------------------------

def _printed_series(sample_set, params, m_sum, r, theta, prefactor, inner_rate,
                    outer_rate, mu_r, mu_om, jv):
    """The printed reconstruction series summed term by term.

    Field modes pass (inner, outer) = (a, -a) and (mu_r, mu_om) = (mu1, mu2);
    spectrum modes (-d or -a, d) and (mu2, mu1).  The radial kernel carries
    mu2 in both domains.  Every Bessel value comes from `jv`.
    """
    grid = sample_set.grid
    k, b, omega, mu2 = grid.k_max, params.b, grid.omega, params.mu2
    az = 2 * k + 1
    nodes = grid.thetas
    out = np.zeros(r.size, dtype=complex)
    for p in range(r.size):
        rp, tp = r[p], theta[p]
        for n in range(-k, k + 1):
            v = grid.radial_order(n)
            alphas, zeros = grid.alphas(n), grid.zeros[v]
            slab = sample_set.slab(n)
            pre = 1.0 if prefactor == "unit" else (-1.0) ** v * params.sigma
            if grid.per_order:
                # the DFT coefficient of order n times e^{in theta}
                ang = [np.sum(slab[j] * np.exp(-1j * n * nodes)) / az * np.exp(1j * n * tp)
                       for j in range(alphas.size)]
            elif n == 0:
                # fixed order: the periodic sinc interpolant, counted once
                u = tp - nodes
                sinc = np.sin(az * u / 2.0) / (az * np.sin(u / 2.0))
                ang = [np.sum(slab[j] * sinc) for j in range(alphas.size)]
            else:
                continue
            total = 0.0j
            for m in range(0, m_sum + 1, 2):
                c_m = (1.0 if m == 0 else 2.0) * jv(m, mu_om * omega / b) ** 2 * jv(m, mu_r * rp / b)
                for j in range(alphas.size):
                    al = alphas[j]
                    kern = 2.0 * b * (mu2 + al) * jv(v, omega * rp / b) / (
                        omega * jv(v + 1, zeros[j]) * (al * al - rp * rp + 2.0 * mu2 * (al - rp)))
                    total += (c_m * jv(m, mu_r * al / b) * np.exp(1j * inner_rate * al * al / (2.0 * b))
                              * ang[j] * kern)
            out[p] += pre * total
        out[p] *= np.exp(1j * outer_rate * rp * rp / (2.0 * b))
    return out


def test_offset_series_matches_direct_sum():
    jv = pytest.importorskip("scipy.special").jv
    k, m_sum = 2, 27
    rng = np.random.default_rng(52)
    r = np.array([0.3, 0.9, 1.7, 2.5])
    theta = np.array([0.1, -1.2, 2.0, 2.9])
    # the second bundle has a != d, so the two inner chirps differ
    for params in (OffsetParams(1, 1, 0, 1, (0.3, 0.4), (0.1, -0.2)),
                   OffsetParams(1, 2, -0.25, 0.5, (0.3, 0.4), (0.1, -0.2))):
        _check_offset_series(params, k, m_sum, r, theta, rng, jv)


def _check_offset_series(params, k, m_sum, r, theta, rng, jv):
    a, d = params.a, params.d
    six = {w: ZeroTable.for_order(w, 6).zeros[:6] for w in range(k + 1)}
    grids = {
        "theorem1": SampleGrid("theorem1", params, np.pi, k, six),
        "theorem2": SampleGrid("theorem2", params, np.pi, k, {0: six[0]}),
        "corollary1": SampleGrid.corollary1(params, 20.0, k, 1.0),
        "corollary2": SampleGrid.corollary2(params, 20.0, k, 1.0),
    }
    for mode, grid in grids.items():
        slabs = {w: rng.normal(size=(grid.alphas(w).size, 2 * k + 1))
                 + 1j * rng.normal(size=(grid.alphas(w).size, 2 * k + 1))
                 for w in grid.zeros}
        samples = SampleSet(grid, slabs)
        # the library runs the unit prefactor and the spectral chirp; the
        # harness maps give the printed alternatives from the same series
        for prefactor, pre_map in (("unit", lambda s: s),
                                   ("alternating", _alternating_prefactor)):
            if mode.startswith("theorem"):
                cases = [(reconstruct_field(pre_map(samples), mode, params, m_sum, r, theta),
                          (a, -a, params.mu1, params.mu2))]
            else:
                cases = [(reconstruct_spectrum(pre_map(chirp_map(samples)), mode, params, m_sum,
                                               r, theta),
                          (-(d if chirp == "spectral" else a), d, params.mu2, params.mu1))
                         for chirp, chirp_map in (("spectral", lambda s: s),
                                                  ("spatial", _spatial_chirp))]
            for rec, (inner, outer, mu_r, mu_om) in cases:
                ref = _printed_series(samples, params, m_sum, r, theta, prefactor,
                                      inner, outer, mu_r, mu_om, jv)
                assert rel_err(rec, ref) <= 1e-12, (mode, prefactor)
