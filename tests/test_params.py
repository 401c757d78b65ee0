"""Parameter bundle validation and derived quantities."""

import cmath
import math

import numpy as np
import pytest

from polar_olct import KernelParams, OffsetParams


def test_determinant_enforced():
    with pytest.raises(ValueError):
        OffsetParams(1.0, 2.0, 0.0, 0.5)  # det = 0.5
    with pytest.raises(ValueError):
        KernelParams(1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("args, message", [
    # a NaN entry passed the determinant test, whose comparison is False
    ((math.nan, 1.0, 0.0, 1.0), "a must be finite, got nan"),
    ((1.0, math.inf, 0.0, 1.0), "b must be finite, got inf"),
    ((1.0, 1.0, math.nan, 1.0), "c must be finite, got nan"),
    ((1.0, 1.0, 0.0, -math.inf), "d must be finite, got -inf"),
    # the offsets took no part in any check
    ((1.0, 1.0, 0.0, 1.0, (math.nan, 0.4)), r"tau must be finite, got \(nan, 0.4\)"),
    ((1.0, 1.0, 0.0, 1.0, (0.3, 0.4), (0.1, math.inf)), r"eta must be finite, got \(0.1, inf\)"),
])
def test_non_finite_entries_refused(args, message):
    for bundle in (KernelParams, OffsetParams):
        with pytest.raises(ValueError, match=message):
            bundle(*args)


def test_b_sign():
    with pytest.raises(ValueError):
        OffsetParams(0.0, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        OffsetParams(1.0, 0.0, 0.0, 1.0)
    # the raw bundle accepts negative b (inverse machinery)
    kp = KernelParams(0.0, -1.0, 1.0, 0.0)
    assert kp.b == -1.0


def test_derived_scalars():
    p = OffsetParams(1.0, 1.0, 0.0, 1.0, (0.3, 0.4), (0.1, -0.2))
    assert math.isclose(p.mu1, 0.5)
    shift = (1.0 * 0.3 - 1.0 * 0.1, 1.0 * 0.4 - 1.0 * (-0.2))
    assert math.isclose(p.mu2, math.hypot(*shift))
    assert math.isclose(p.phi1, math.atan2(0.3, 0.4))
    assert math.isclose(p.phi2, math.atan2(shift[0], shift[1]))
    assert abs(p.ell1 - cmath.exp(1j * p.d * p.mu1 ** 2 / p.b)) < 1e-15
    assert abs(p.ell2 - cmath.exp(-1j * p.a * p.mu2 ** 2 / p.b)) < 1e-15
    assert abs(p.sigma - p.ell1 * p.ell2) < 1e-15
    for u in (p.ell1, p.ell2, p.sigma):
        assert abs(abs(u) - 1.0) < 1e-12


def test_degenerate_offset_angles_resolved_by_atan2():
    p = OffsetParams(0.0, 1.0, -1.0, 0.0, (1.0, 0.0), (0.0, 0.0))
    assert math.isclose(p.phi1, math.pi / 2.0)  # tau2 = 0 is fine
    q = OffsetParams(0.0, 1.0, -1.0, 0.0, (0.0, 0.0), (0.5, 0.0))
    assert math.isclose(q.phi2, -math.pi / 2.0)  # shift vector (-0.5, 0)


def test_inverse_bundle():
    p = OffsetParams(1.0, 1.0, 0.0, 1.0, (0.3, 0.4), (0.1, -0.2))
    bundle = p.inverse()
    assert type(bundle) is KernelParams  # b < 0 is outside OffsetParams
    assert (bundle.a, bundle.b, bundle.c, bundle.d) == (p.d, -p.b, -p.c, p.a)
    assert bundle.tau == (p.b * p.eta[0] - p.d * p.tau[0], p.b * p.eta[1] - p.d * p.tau[1])
    assert bundle.eta == (p.c * p.tau[0] - p.a * p.eta[0], p.c * p.tau[1] - p.a * p.eta[1])
    det = bundle.a * bundle.d - bundle.b * bundle.c
    assert abs(det - 1.0) < 1e-12
    # mu roles swap between the forward and inverse bundles
    assert math.isclose(bundle.mu1, p.mu2)
    assert math.isclose(bundle.mu2, p.mu1)


def test_inverse_applied_twice_recovers_forward():
    p = OffsetParams(0.7, 1.3, -0.1, (1.0 + 1.3 * -0.1) / 0.7, (0.2, -0.6), (0.15, 0.05))
    back = p.inverse().inverse()
    assert back.a == pytest.approx(p.a, abs=1e-15)
    assert back.b == pytest.approx(p.b, abs=1e-15)
    assert back.c == pytest.approx(p.c, abs=1e-15)
    assert back.d == pytest.approx(p.d, abs=1e-15)
    assert back.tau == pytest.approx(p.tau, abs=1e-15)
    assert back.eta == pytest.approx(p.eta, abs=1e-15)


# the bundles the phase helpers serve: a chirp without offsets, offsets, and
# an inverse bundle (b < 0)
_OFFSET = OffsetParams(0.7, 1.3, -0.1, (1.0 + 1.3 * -0.1) / 0.7, (0.2, -0.6), (0.15, 0.05))
_BUNDLES = {
    "lct": OffsetParams(1.0, 2.0, -0.25, 0.5),
    "offset_params": _OFFSET,
    "inverse": _OFFSET.inverse(),
}


def _phases_by_hand(p, r, theta):
    """Both kernel phases at one point, in Cartesian form: mu1 sin(theta +
    phi1) is tau . (cos theta, sin theta), and mu2 sin(phi + phi2) is
    (d tau - b eta) . (cos phi, sin phi)."""
    c, s = math.cos(theta), math.sin(theta)
    shift = (p.d * p.tau[0] - p.b * p.eta[0], p.d * p.tau[1] - p.b * p.eta[1])
    inp = cmath.exp(1j * p.a * r * r / (2.0 * p.b) + 1j * r * (p.tau[0] * c + p.tau[1] * s) / p.b)
    out = cmath.exp(1j * p.d * r * r / (2.0 * p.b) - 1j * r * (shift[0] * c + shift[1] * s) / p.b)
    return inp, out


@pytest.mark.parametrize("name", sorted(_BUNDLES))
def test_kernel_phases_against_scalar_transcription(name):
    p = _BUNDLES[name]
    r = np.linspace(0.0, 7.5, 16)[:, None]
    theta = np.linspace(-math.pi, math.pi, 9)[None, :]
    # without the offset the phase is the chirp of r alone, which broadcasts
    inp = np.broadcast_to(p.input_phase(r, theta), (16, 9))
    out = np.broadcast_to(p.output_phase(r, theta), (16, 9))
    for i in range(16):
        for j in range(9):
            want_in, want_out = _phases_by_hand(p, float(r[i, 0]), float(theta[0, j]))
            assert abs(inp[i, j] - want_in) <= 1e-14
            assert abs(out[i, j] - want_out) <= 1e-14


@pytest.mark.parametrize("name", sorted(_BUNDLES))
def test_kernel_phase_identities_are_exact(name):
    p = _BUNDLES[name]
    x = np.linspace(0.0, 9.0, 101)
    # without an angle each phase is its bare chirp
    assert np.array_equal(p.input_phase(x), np.exp(1j * (p.a / (2.0 * p.b)) * x ** 2))
    assert np.array_equal(p.output_phase(x), np.exp(1j * (p.d / (2.0 * p.b)) * x ** 2))
    if isinstance(p, OffsetParams):
        # the inverse bundle's chirps are the forward ones conjugated and
        # swapped: why the spectrum-domain modes dechirp with conj(output_phase)
        inv = p.inverse()
        assert np.array_equal(inv.input_phase(x), np.conj(p.output_phase(x)))
        assert np.array_equal(inv.output_phase(x), np.conj(p.input_phase(x)))
