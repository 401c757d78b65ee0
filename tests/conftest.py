import numpy as np
import pytest

from polar_olct import OffsetParams, bessel, synthesize, random_spectrum


@pytest.fixture(scope="session")
def rot():
    # the rotation matrix reduces every transform to its classical form
    return OffsetParams(0.0, 1.0, -1.0, 0.0)


@pytest.fixture(scope="session")
def lct():
    # unimodular chirp matrix with a != d so chirp-sign variants differ
    return OffsetParams(1.0, 2.0, -0.25, 0.5)


@pytest.fixture(scope="session")
def offset_params():
    return OffsetParams(1.0, 1.0, 0.0, 1.0, (0.3, 0.4), (0.1, -0.2))


@pytest.fixture(scope="session")
def make_field():
    def factory(params, omega=1.0, k_max=1, j_spec=3, seed=3,
                order_map="per_order", fixed_order=0):
        spec = random_spectrum(omega, k_max, j_spec, seed=seed, order_map=order_map,
                               fixed_order=fixed_order)
        return synthesize(spec, params)
    return factory


@pytest.fixture
def probe_mesh():
    def factory(r_lo, r_hi, n):
        r = np.linspace(r_lo, r_hi, n)
        t = np.linspace(-np.pi, np.pi, n, endpoint=False)
        return np.meshgrid(r, t, indexing="ij")
    return factory


@pytest.fixture(scope="session")
def scipy_hankel():
    """int_0^extent g(r) J_v(u r) r dr for an array of u, by scipy's adaptive
    quad_vec with scipy.special.jv: a radial oracle that runs none of the
    library's quadrature or Bessel code."""
    pytest.importorskip("scipy")
    from scipy.integrate import quad_vec
    from scipy.special import jv

    def transform(g, v, u, extent):
        u = np.asarray(u, dtype=float)
        value, _ = quad_vec(lambda r: complex(np.ravel(g(np.array([r])))[0]) * jv(v, u * r) * r,
                            0.0, extent)
        return value
    return transform


@pytest.fixture
def bessel_core_calls(monkeypatch):
    """The orders of each _bessel_j_core pass the test makes, as tuples, in
    call order."""
    calls = []
    core = bessel._bessel_j_core

    def counted(orders, x):
        calls.append(tuple(float(v) for v in orders))
        return core(orders, x)

    monkeypatch.setattr(bessel, "_bessel_j_core", counted)
    return calls


@pytest.fixture
def miller_calls(monkeypatch):
    """The lowest and highest order of each _miller recurrence pass the test
    makes, in call order."""
    calls = []
    miller = bessel._miller

    def counted(v0, x, lo, hi):
        calls.append((v0 + lo, v0 + hi))
        return miller(v0, x, lo, hi)

    monkeypatch.setattr(bessel, "_miller", counted)
    return calls


@pytest.fixture
def zero_taylor_calls(monkeypatch):
    """The orders of the _zero_taylor calls the test makes, in call order."""
    calls = []
    taylor = bessel._zero_taylor

    def counted(v, z, jnext):
        calls.append(v)
        return taylor(v, z, jnext)

    monkeypatch.setattr(bessel, "_zero_taylor", counted)
    return calls
