"""Self-test of the benchmark's oracles, each against an independent route
at reduced size.

    python3 perfbench/selftest.py

- quad_chirped: the closed form against a brute-force Cartesian quadrature
  (numpy only) and against mpmath radial integrals.
- quad_smooth: `spectrum_values` against the same closed form evaluated
  with scipy.special.jv and jn_zeros.
- zero_grid_recon: the field profiles (Lommel and Sonine closed forms)
  against scipy.special.jv; the spectrum side is the quad_smooth check.
- verify: the exit-code check flags a failing run.

A check whose library is not installed is reported as skipped.  Exits 1
if any check fails.
"""

import os
import subprocess
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402  (puts src/ on sys.path)
import polar_olct as po  # noqa: E402

RESULTS = []


def report(name, err, tol):
    ok = err <= tol
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {err:.2e} (tol {tol:.0e})")


def skip(name, why):
    print(f"skip {name}: {why}")


def chirped_brute_force(params, s, c0, c1, rho, phi, half_width, n):
    """The transform integral on an n x n Cartesian trapezoid grid."""
    x = np.linspace(-half_width, half_width, n)
    h = x[1] - x[0]
    X, Y = np.meshgrid(x, x, indexing="ij")
    r = np.hypot(X, Y)
    f = np.exp(-r * r / (2 * s * s)) * (c0 + c1 * (X + 1j * Y) / s)
    base = f * np.exp(1j * params.a * r * r / (2 * params.b)) * h * h
    out = []
    for rr, pp in zip(rho, phi):
        kern = np.exp(-1j * (rr / params.b) * (X * np.cos(pp) + Y * np.sin(pp)))
        val = np.sum(base * kern) * params.ell1 / (2 * np.pi * params.b)
        out.append(val * np.exp(1j * params.d * rr * rr / (2 * params.b)))
    return np.array(out)


def check_chirped():
    s, c0, c1 = 1.5, 0.3 - 0.7j, -0.4 + 0.2j
    rho = np.array([0.1, 0.7, 1.3, 2.0])
    phi = np.array([-2.0, 0.0, 0.9, 2.8])
    closed = wl.chirped_transform(wl.LCT, s, c0, c1, rho, phi)
    brute = chirped_brute_force(wl.LCT, s, c0, c1, rho, phi, 8 * s, 1201)
    report("quad_chirped closed form vs Cartesian quadrature", wl.rel_err(closed, brute), 1e-8)

    f = wl.chirped_field(s, c0, c1)
    grid = po.PolarGrid(rho, 16)
    op = po.olct_forward(f, wl.LCT, grid, r_max=8 * s).values
    truth = wl.chirped_transform(wl.LCT, s, c0, c1, rho[:, None], grid.phi[None, :])
    report("quad_chirped op vs closed form (s = 1.5)", wl.rel_err(op, truth), 1e-6)

    try:
        import mpmath
    except ImportError:
        skip("quad_chirped closed form vs mpmath", "mpmath not installed")
        return
    mpmath.mp.dps = 30
    a, b = wl.LCT.a, wl.LCT.b
    p = mpmath.mpf(1) / (2 * s * s) - 1j * mpmath.mpf(a) / (2 * b)
    worst = 0.0
    for rr, pp in zip(rho, phi):
        k = rr / b
        i0 = mpmath.quad(lambda r: mpmath.exp(-p * r * r) * mpmath.besselj(0, k * r) * r,
                         mpmath.linspace(0, 12 * s, 25))
        i1 = mpmath.quad(lambda r: mpmath.exp(-p * r * r) * mpmath.besselj(1, k * r) * r * r,
                         mpmath.linspace(0, 12 * s, 25))
        body = c0 * complex(i0) - 1j * c1 * np.exp(1j * pp) * complex(i1) / s
        val = wl.LCT.ell1 / b * np.exp(1j * wl.LCT.d * rr * rr / (2 * b)) * body
        closed_pt = wl.chirped_transform(wl.LCT, s, c0, c1, rr, pp)
        worst = max(worst, abs(val - closed_pt) / abs(closed_pt))
    report("quad_chirped closed form vs mpmath radial integrals", worst, 1e-12)


def check_smooth_and_fields():
    try:
        from scipy.special import jn_zeros, jv
    except ImportError:
        skip("spectrum and field closed forms vs scipy", "scipy not installed")
        return
    p = wl.LCT
    omega = wl.SMOOTH_SCALE
    fld = po.synthesize(po.random_spectrum(omega, 2, 3, 5), p)
    rho = np.linspace(0.02, 0.9, 6)[:, None] * omega
    phi = np.linspace(-np.pi, np.pi, 8, endpoint=False)[None, :]
    ref = np.zeros(np.broadcast(rho, phi).shape, dtype=complex)
    for n, eps in fld.spectrum.coefficients.items():
        w = abs(n)
        z = jn_zeros(w, eps.size)
        radial = sum(e * jv(w, zj * rho / omega) for e, zj in zip(eps, z))
        pref = (1j ** w) * p.ell1 / p.b * np.exp(1j * p.d * rho ** 2 / (2 * p.b))
        ref = ref + ((-1.0) ** w) * pref * radial * np.exp(1j * n * phi)
    report("quad_smooth spectrum_values vs scipy closed form",
           wl.rel_err(fld.spectrum_values(rho, phi), ref), 1e-12)

    rot, omega = wl.ROT, np.pi
    r = np.linspace(0.05, 25.0, 40)[:, None]
    th = np.linspace(-np.pi, np.pi, 9, endpoint=False)[None, :]
    fb = po.synthesize(po.random_spectrum(omega, 2, 3, 6), rot)
    c = omega / rot.b
    ref = np.zeros(np.broadcast(r, th).shape, dtype=complex)
    for n, eps in fb.spectrum.coefficients.items():
        w = abs(n)
        alphas = rot.b * jn_zeros(w, eps.size) / omega
        prof = sum(e * c * al * jv(w + 1, al * c) * jv(w, r * c) / (al * al - r * r)
                   for e, al in zip(eps, alphas))
        ref = ref + np.exp(-1j * rot.a * r ** 2 / (2 * rot.b)) * prof * np.exp(1j * n * th)
    report("zero_grid_recon FB field vs scipy Lommel form", wl.rel_err(fb.evaluate(r, th), ref), 1e-10)

    weights = {n: (0.5 + 0.4j if n else 1.0) for n in range(-2, 3)}
    son = po.synthesize_sonine(weights, rot, omega)
    ref = sum(wt * 2.0 * c * c * jv(abs(n) + 2, r * c) / (r * c) ** 2 * np.exp(1j * n * th)
              for n, wt in weights.items())
    report("zero_grid_recon Sonine field vs scipy closed form", wl.rel_err(son.evaluate(r, th), ref), 1e-10)


def check_verify():
    ok = subprocess.CompletedProcess([], 0, stdout="verify: 0 failing checks\n", stderr="")
    bad = subprocess.CompletedProcess([], 1, stdout="verify: 2 failing checks\n", stderr="")
    flagged = wl.WORKLOADS["verify"].check(None, ok) == 0.0 and wl.WORKLOADS["verify"].check(None, bad) > 0
    report("verify exit-code check flags a failing run", 0.0 if flagged else 1.0, 0.0)


if __name__ == "__main__":
    check_chirped()
    check_smooth_and_fields()
    check_verify()
    sys.exit(0 if all(RESULTS) else 1)
