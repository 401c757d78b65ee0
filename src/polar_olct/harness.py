"""Verification sweeps: oracle equivalences, sampling convergence, budgets.

Every suite accumulates pass/fail rows instead of aborting, since the same
machinery doubles as the investigation tool for the conventions the series
formulas leave open.  Outputs are deterministic under a fixed seed; wall
times are kept out of the hashed artifacts and written to a sidecar.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .bessel import ZeroTable, bessel_j, lambda_sum
from .params import OffsetParams, _check_positive
from . import sampling as sp
from . import synthesis as sy
from . import transforms as tr
from .files import parse_keyvalue

__all__ = [
    "ExperimentConfig",
    "SweepResult",
    "run_reduction_suite",
    "run_complexity_sweep",
    "run_offset_investigation",
    "emit_report",
]

_TOLERANCES = {
    "bessel_zero_residual": 1e-12,
    "lambda_identity": 1e-10,
    "stark_nodes": 1e-12,
    "stark_integral": 1e-10,
    "oracle_agreement": 1e-6,
    "chirp_factorization": 1e-8,
    "roundtrip": 1e-5,
    "series_match": 1e-6,
    "parseval": 1e-8,
    "reconstruction": 1e-5,
    "spectrum_reconstruction": 1e-5,
}
# the bundle of the chirped rows and of the corollary grids
_LCT = OffsetParams(1.0, 2.0, -0.25, 0.5)


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep configuration; flat key=value text maps 1:1 onto the fields."""

    seed: int = 20240801
    omega: float = math.pi
    k_max: int = 2
    j_spec: int = 3
    n_values: tuple = (10, 20, 40)
    theorem2_order: int = 0
    probe_grid: int = 20
    tau: tuple = (0.3, 0.4)
    eta: tuple = (0.1, -0.2)
    r_max: float = 60.0
    support_radius: float = 400.0
    draws: int = 5

    def __post_init__(self):
        if self.probe_grid * self.probe_grid < 100:
            raise ValueError("probe grid too small for error statistics")
        # an empty n_values would run no row and report 0 failing checks
        if not self.n_values or min(self.n_values) < 1:
            raise ValueError(f"n_values must hold one or more entries >= 1, "
                             f"got {self.n_values!r}")
        if self.draws < 1:
            raise ValueError(f"draws must be >= 1, got {self.draws!r}")
        # j_spec = 0 synthesizes zero fields, whose rows would pass vacuously
        if self.j_spec < 1:
            raise ValueError(f"j_spec must be >= 1, got {self.j_spec!r}")
        if self.k_max < 0:
            raise ValueError(f"k_max must be >= 0, got {self.k_max!r}")
        if self.theorem2_order < 0:
            raise ValueError(f"theorem2_order must be >= 0, got {self.theorem2_order!r}")
        for key in ("omega", "r_max", "support_radius"):
            _check_positive(key, getattr(self, key))
        # a non-finite offset would fail only in the offset rows, after the
        # suites before them
        for pair in ("tau", "eta"):
            for i, value in enumerate(getattr(self, pair)):
                if not math.isfinite(value):
                    raise ValueError(f"{pair}{i + 1} must be finite, got {value!r}")
        # a support radius that leaves a corollary grid without zeros would
        # fail only mid-run, after the suites before it
        for mode in ("corollary1", "corollary2"):
            try:
                _corollary_grid(self, mode)
            except ValueError as exc:
                raise ValueError(f"support_radius = {self.support_radius!r} is too small: "
                                 f"{exc}") from None

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        kv = parse_keyvalue(text)
        kwargs = {}

        def num(key, kind, text):
            try:
                return kind(text)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None

        for key, val in kv.items():
            if key in ("seed", "k_max", "j_spec", "theorem2_order", "probe_grid", "draws"):
                kwargs[key] = num(key, int, val)
            elif key in ("omega", "r_max", "support_radius"):
                kwargs[key] = num(key, float, val)
            elif key == "n_values":
                kwargs[key] = tuple(num(key, int, x) for x in val.split(",") if x.strip())
            elif key not in ("tau1", "tau2", "eta1", "eta2"):  # those are read below
                raise ValueError(f"unknown config key {key!r}")
        for pair in ("tau", "eta"):
            keys = (pair + "1", pair + "2")
            if any(k in kv for k in keys):  # the unnamed half of a named pair is 0
                kwargs[pair] = tuple(num(k, float, kv.get(k, 0.0)) for k in keys)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


@dataclass
class SweepResult:
    """Accumulated check rows plus a timing sidecar."""

    seed: int
    rows: list = dc_field(default_factory=list)
    timings: list = dc_field(default_factory=list)

    def add(self, name: str, value: float, tolerance: float | None,
            passed: bool | None = None, note: str = "") -> None:
        if passed is None:
            passed = tolerance is not None and value <= tolerance
        self.rows.append({
            "check": name,
            "value": float(value),
            "tolerance": float(tolerance) if tolerance is not None else float("nan"),
            "passed": bool(passed),
            "note": note,
        })

    def time(self, name: str, seconds: float) -> None:
        self.timings.append((name, float(seconds)))

    def failures(self) -> list:
        return [r for r in self.rows if not r["passed"]]


def _probe_mesh(r_lo, r_hi, n):
    r = np.linspace(r_lo, r_hi, n)
    t = np.linspace(-np.pi, np.pi, n, endpoint=False)
    return np.meshgrid(r, t, indexing="ij")


def _rel_err(x, truth):
    # a zero or non-finite reference would make any x pass or fail alike
    scale = float(np.max(np.abs(truth)))
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"relative error against a reference of magnitude {scale!r}")
    return float(np.max(np.abs(x - truth))) / scale


def _timed(fn, *args, **kwargs):
    """fn(*args, **kwargs) and its wall time in seconds."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _gaussian_olct(p, s, c0, c1, rho, phi):
    """Closed-form offset transform of e^{-r^2/2s^2} (c0 + c1 (r/s) e^{i theta}).

    With u = rho (cos phi, sin phi), w = (tau - u)/b and q = 1/2s^2 - i a/2b,
    the Gaussian moments of e^{-q |x|^2 + i w.x} times ell1/b, the output
    chirp and e^{-i (d tau - b eta).u/b}.  Every phase is written out from
    a, b, d, tau and eta: nothing is shared with the kernel quadrature.
    """
    a, b, d = p.a, p.b, p.d
    (t1, t2), (e1, e2) = p.tau, p.eta
    ux, uy = rho * np.cos(phi), rho * np.sin(phi)
    wx, wy = (t1 - ux) / b, (t2 - uy) / b
    q = 1.0 / (2.0 * s * s) - 1j * a / (2.0 * b)
    phase = np.exp(1j * d * (t1 * t1 + t2 * t2) / b + 1j * d * rho * rho / (2.0 * b)
                   - 1j * ((d * t1 - b * e1) * ux + (d * t2 - b * e2) * uy) / b)
    return phase / b * np.exp(-(wx * wx + wy * wy) / (4.0 * q)) \
        * (c0 / (2.0 * q) + 1j * c1 * (wx + 1j * wy) / (4.0 * q * q * s))


def _gaussian_olcht(p, s, v, rho):
    """Closed-form olcht_forward of r^v e^{-r^2/2s^2}: Weber's integral
    int r^{v+1} e^{-q r^2} J_v(k r) dr = k^v e^{-k^2/4q} / (2q)^{v+1} at
    k = rho/b, q = 1/2s^2 - i a/2b, times i^v ell1/b e^{i d rho^2/2b}, with
    ell1 = e^{i d |tau|^2/b} written out like the chirp."""
    b, d = p.b, p.d
    k = rho / b
    q = 1.0 / (2.0 * s * s) - 1j * p.a / (2.0 * b)
    ell1 = np.exp(1j * d * (p.tau[0] ** 2 + p.tau[1] ** 2) / b)
    return (1j ** v) * ell1 / b * np.exp(1j * d * rho * rho / (2.0 * b)) \
        * k ** v * np.exp(-k * k / (4.0 * q)) / (2.0 * q) ** (v + 1)


def _per_order_series(coefficients, params, grid, order_step, r_max):
    """sum_n (-1)^w olcht_forward(f_n, |w|) e^{i n phi} with w = order_step * n.

    The printed series with one radial transform per angular order and the
    offset phases dropped: the rejected order-doubling variant for
    order_step = 2, and with offsets the reduced series for order_step = 1.
    """
    values = np.zeros((grid.rho.size, grid.n_phi), dtype=complex)
    phi = grid.phi
    for n in sorted(coefficients):
        w = order_step * n
        H = tr.olcht_forward(coefficients[n], abs(w), params, grid.rho, r_max=r_max)
        values += ((-1.0) ** w) * H[:, None] * np.exp(1j * n * phi[None, :])
    return values


def _spatial_chirp(samples):
    """The rejected inner chirp e^{-i a alpha^2/2b} as a sample map: rows
    times output_phase(alpha) conj(input_phase(alpha)), so the library's
    spectral dechirp of the mapped samples is the spatial one of these."""
    grid, p = samples.grid, samples.grid.params
    rows = lambda a: (p.output_phase(a) * np.conj(p.input_phase(a)))[:, None]
    return sp.SampleSet(grid, {w: samples.slab(w) * rows(grid.alphas(w)) for w in grid.zeros})


def _alternating_prefactor(samples):
    """The rejected prefactor (-1)^v sigma of the printed series as a sample
    map: the slab of radial order w times (-1)^w sigma."""
    grid = samples.grid
    return sp.SampleSet(grid, {w: (-1.0) ** w * grid.params.sigma * samples.slab(w)
                               for w in grid.zeros})


def run_reduction_suite(config: ExperimentConfig) -> SweepResult:
    """Offset-free oracle equivalences plus the sampling-series sweeps."""
    sweep = SweepResult(config.seed)
    rng = np.random.default_rng(config.seed)
    rot = OffsetParams(0.0, 1.0, -1.0, 0.0)

    # 1. special-function substrate
    t0 = time.perf_counter()
    residual = 0.0
    for v in range(9):
        z = ZeroTable.for_order(v, 50).zeros[:50]
        residual = max(residual, float(np.max(np.abs(bessel_j(v, z)))))
    sweep.add("bessel_zero_residual", residual, _TOLERANCES["bessel_zero_residual"])
    sweep.time("bessel_zero_residual", time.perf_counter() - t0)

    t0 = time.perf_counter()
    xs = rng.uniform(0.0, 30.0, 50)
    dev = float(np.max(np.abs(lambda_sum(xs) - 1.0)))
    sweep.add("lambda_identity", dev, _TOLERANCES["lambda_identity"])
    sweep.time("lambda_identity", time.perf_counter() - t0)

    # 2. azimuthal interpolation
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(0, 6):
        nodes = 2.0 * np.pi * np.arange(2 * k + 1) / (2 * k + 1)
        for l in range(2 * k + 1):
            vals = sp.stark_kernel(nodes, l, k)
            target = np.zeros(2 * k + 1)
            target[l] = 1.0
            worst = max(worst, float(np.max(np.abs(vals - target))))
        probes = rng.uniform(-np.pi, np.pi, 200)
        pu = sum(sp.stark_kernel(probes, l, k) for l in range(2 * k + 1))
        worst = max(worst, float(np.max(np.abs(pu - 1.0))))
        deg = rng.integers(-k, k + 1) if k else 0
        node_vals = np.exp(1j * deg * nodes)
        worst = max(worst, float(np.max(np.abs(
            sp.stark_interpolate(node_vals, probes, k) - np.exp(1j * deg * probes)))))
    sweep.add("stark_nodes", worst, _TOLERANCES["stark_nodes"])
    k, l, n = 2, 1, -1
    th = -np.pi + 2.0 * np.pi * np.arange(8192) / 8192
    quad = np.sum(sp.stark_kernel(th, l, k) * np.exp(-1j * n * th)) * (2.0 * np.pi / 8192)
    target = 2.0 * np.pi / (2 * k + 1) * np.exp(-1j * n * 2.0 * np.pi * l / (2 * k + 1))
    sweep.add("stark_integral", abs(quad - target), _TOLERANCES["stark_integral"])
    sweep.time("stark", time.perf_counter() - t0)

    # 3. transform oracles on random draws, against closed forms
    t0 = time.perf_counter()
    c0, c1, s = 0.6 - 0.3j, -0.4 + 0.5j, 2.0
    gauss = lambda r, th: np.exp(-r * r / (2.0 * s * s)) * (c0 + c1 * (r / s) * np.exp(1j * th))
    grid = tr.PolarGrid(np.linspace(0.05, 1.0, 16), 16)
    worst = 0.0
    for _ in range(config.draws):
        a = rng.uniform(-1.0, 1.0)
        b = rng.uniform(0.5, 2.0)
        d = rng.uniform(-1.0, 1.0)
        p = OffsetParams(a, b, (a * d - 1.0) / b, d,
                         (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                         (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
        fw = tr.olct_forward(gauss, p, grid, r_max=30.0)
        truth = _gaussian_olct(p, s, c0, c1, grid.rho[:, None], grid.phi[None, :])
        worst = max(worst, _rel_err(fw.values, truth))
    sweep.add("oracle_agreement", worst, _TOLERANCES["oracle_agreement"])
    sweep.time("oracle_agreement", time.perf_counter() - t0)

    t0 = time.perf_counter()
    rho = np.linspace(0.05, 0.95, 12)
    s_r = 6.0
    lhs = tr.olcht_forward(lambda r: r * np.exp(-r * r / (2.0 * s_r * s_r)), 1, _LCT, rho,
                           r_max=10.0 * s_r)
    sweep.add("chirp_factorization", _rel_err(lhs, _gaussian_olcht(_LCT, s_r, 1, rho)),
              _TOLERANCES["chirp_factorization"])
    sweep.time("chirp_factorization", time.perf_counter() - t0)

    # 4. round trips (r_max matched to the tolerance, not the sweep default)
    t0 = time.perf_counter()
    rt_r_max = max(60.0, config.r_max)
    fld = sy.synthesize(sy.random_spectrum(1.0, 1, 3, seed=config.seed + 3), rot)
    sg = tr.spectral_grid(rot, 1.0, n_radial=96, n_phi=64)
    spec_f = tr.olct_forward(fld, rot, sg, r_max=rt_r_max)
    rr = np.linspace(0.2, 4.0, 7)
    tt = np.linspace(-2.5, 2.5, 7)
    rec = tr.olct_inverse(spec_f, rr, tt)
    sweep.add("roundtrip_olct", _rel_err(rec, fld.evaluate(rr, tt)),
              _TOLERANCES["roundtrip"])
    prof2 = sy.synthesize(sy.random_spectrum(1.0, 0, 3, seed=config.seed + 4,
                                             order_map="fixed", fixed_order=1),
                          _LCT).coefficients[0]
    fwd = lambda q: tr.olcht_forward(prof2, 1, _LCT, q, r_max=2.0 * rt_r_max)
    probes_r = np.linspace(0.2, 4.0, 9)
    rec2 = tr.olcht_inverse(fwd, 1, _LCT, probes_r, rho_max=1.0)
    sweep.add("roundtrip_olcht", _rel_err(rec2, prof2(probes_r)),
              _TOLERANCES["roundtrip"])
    sweep.time("roundtrips", time.perf_counter() - t0)

    # 5. series-order adjudication
    t0 = time.perf_counter()
    fldK = sy.synthesize(sy.random_spectrum(1.0, 2, 2, seed=config.seed + 5), rot)
    gridK = tr.PolarGrid(np.linspace(0.05, 0.95, 8), 16)
    fw = tr.olct_forward(fldK, rot, gridK, r_max=config.r_max)
    coeffs = {n: fldK.coefficients[n] for n in range(-2, 3)}
    err_n = _rel_err(tr.olct_series(coeffs, rot, gridK, r_max=config.r_max).values, fw.values)
    err_2n = _rel_err(_per_order_series(coeffs, rot, gridK, 2, config.r_max), fw.values)
    tol = _TOLERANCES["series_match"]
    matches = [m for m, e in (("order_n", err_n), ("order_2n", err_2n)) if e <= tol]
    sweep.add("series_order_n", err_n, tol, note="angular series, order-preserving")
    sweep.add("series_order_2n", err_2n, None, passed=err_2n > tol,
              note="order-doubling variant must not also match")
    sweep.add("series_adjudication", float(len(matches)), None,
              passed=len(matches) == 1, note=f"matching mode: {','.join(matches) or 'none'}")
    # parseval at a mid ring; both sides from the closed-form spectrum so the
    # residual probes the identity rather than radial truncation
    phi64 = -np.pi + 2.0 * np.pi * np.arange(64) / 64
    ring = fldK.spectrum_values(0.5, phi64)
    terms = np.array([((-1.0) ** abs(n)) * fldK.spectral_coefficient(n, np.array([0.5]))[0]
                      for n in range(-2, 3)])
    sweep.add("parseval_residual",
              tr.parseval_residual(ring, terms) / max(float(np.max(np.abs(ring))) ** 2, 1e-30),
              _TOLERANCES["parseval"])
    sweep.time("series_adjudication", time.perf_counter() - t0)

    # 6. sampling theorems: terminating and non-terminating spectra
    t0 = time.perf_counter()
    _sampling_rows(sweep, config, rot)
    sweep.time("sampling", time.perf_counter() - t0)

    # 7. spectrum-domain reconstruction and the inner-chirp adjudication
    t0 = time.perf_counter()
    _corollary_rows(sweep, config)
    sweep.time("corollaries", time.perf_counter() - t0)
    return sweep


def _sampling_rows(sweep, config, params):
    omega = config.omega
    n_values = sorted(config.n_values)
    n_min, n_max = n_values[0], n_values[-1]
    tol = _TOLERANCES["reconstruction"]
    probe_n = config.probe_grid

    for mode in ("theorem1", "theorem2"):
        order_map = "per_order" if mode == "theorem1" else "fixed"
        spec = sy.random_spectrum(omega, config.k_max, config.j_spec, seed=config.seed + 6,
                                  order_map=order_map, fixed_order=config.theorem2_order)
        fb_field = sy.synthesize(spec, params)
        weights = {n: 0.5 + 0.4j if n else 1.0 for n in range(-config.k_max, config.k_max + 1)}
        sonine = sy.synthesize_sonine(weights, params, omega, order_map=order_map,
                                      fixed_order=config.theorem2_order)
        # the grid's smallest last zero is that of angular order 0's radial order
        zmin = ZeroTable.for_order(spec.radial_order(0), n_min * n_min).zeros[n_min * n_min - 1]
        r_hi = 0.9 * params.b * zmin / omega
        R, TH = _probe_mesh(0.05, r_hi, probe_n)
        for label, fld in (("fb", fb_field), ("sonine", sonine)):
            truth = fld.evaluate(R, TH)
            prev = None
            for n_res in n_values:
                grid = (sp.SampleGrid.theorem1(params, omega, config.k_max, n_res)
                        if mode == "theorem1" else
                        sp.SampleGrid.theorem2(params, omega, config.k_max, n_res,
                                               order=config.theorem2_order))
                samples = sp.sample_field(fld, grid)
                rec, dt = _timed(sp.reconstruct_field, samples, mode, params, 0, R, TH)
                err = _rel_err(rec, truth)
                name = f"{mode}_{label}_N{n_res}"
                if n_res == n_max:
                    sweep.add(name, err, tol)
                else:
                    sweep.add(name, err, None, passed=True, note="reported")
                sweep.time(name, dt)
                if prev is not None:
                    ok = err <= 1.1 * prev + 1e-12
                    sweep.add(f"{mode}_{label}_monotone_N{n_res}", err, None, passed=ok,
                              note=f"previous {prev:.3e}")
                prev = err


def _corollary_grid(config, mode):
    # the spectrum-domain grid of a corollary row: band limit 1 under _LCT
    if mode == "corollary1":
        return sp.SampleGrid.corollary1(_LCT, config.support_radius, config.k_max, 1.0)
    return sp.SampleGrid.corollary2(_LCT, config.support_radius, config.k_max, 1.0,
                                    order=config.theorem2_order)


def _corollary_rows(sweep, config):
    omega = 1.0
    tol = _TOLERANCES["spectrum_reconstruction"]
    probe_n = config.probe_grid
    rho = np.linspace(0.02, 0.9, probe_n)
    phi = np.linspace(-np.pi, np.pi, probe_n, endpoint=False)
    PH, RH = np.meshgrid(phi, rho)
    for mode in ("corollary1", "corollary2"):
        order_map = "per_order" if mode == "corollary1" else "fixed"
        spec = sy.random_spectrum(omega, config.k_max, config.j_spec, seed=config.seed + 7,
                                  order_map=order_map, fixed_order=config.theorem2_order)
        fld = sy.synthesize(spec, _LCT)
        truth = fld.spectrum_values(RH, PH)
        samples = sp.sample_field(fld.spectrum_values, _corollary_grid(config, mode))
        errs = {}
        for variant, mapped in (("spectral", samples), ("spatial", _spatial_chirp(samples))):
            rec, dt = _timed(sp.reconstruct_spectrum, mapped, mode, _LCT, 0, RH, PH)
            errs[variant] = _rel_err(rec, truth)
            sweep.time(f"{mode}_{variant}", dt)
        sweep.add(f"{mode}_spectral_chirp", errs["spectral"], tol)
        sweep.add(f"{mode}_spatial_chirp", errs["spatial"], None,
                  passed=errs["spatial"] > tol,
                  note="alternate sign convention must not also match")
        winner = min(errs, key=errs.get)
        sweep.add(f"{mode}_chirp_adjudication", errs[winner], None,
                  passed=winner == "spectral", note=f"self-consistent variant: {winner}")


def run_complexity_sweep(config: ExperimentConfig) -> SweepResult:
    """Sample budgets and timings of the two field-domain grids."""
    sweep = SweepResult(config.seed)
    params = OffsetParams(0.0, 1.0, -1.0, 0.0)
    for k in (0, 1, 2, 3):
        for n in config.n_values:
            c1 = sp.sample_count(k, n, "theorem1")
            c2 = sp.sample_count(k, n, "theorem2")
            ratio = c1 / c2
            sweep.add(f"count_ratio_K{k}_N{n}", ratio, None,
                      passed=ratio == 2 * k + 1,
                      note=f"counts {c1}/{c2}")
            g1 = sp.SampleGrid.theorem1(params, config.omega, k, n)
            g2 = sp.SampleGrid.theorem2(params, config.omega, k, n)
            zero_field = lambda r, theta: np.zeros(np.broadcast(r, theta).shape, complex)
            s1, dt1 = _timed(sp.sample_field, zero_field, g1)
            s2, dt2 = _timed(sp.sample_field, zero_field, g2)
            sweep.add(f"count_actual_K{k}_N{n}", float(s1.total_count), None,
                      passed=(s1.total_count == c1 and s2.total_count == c2),
                      note=f"stored {s1.total_count}/{s2.total_count}")
            sweep.time(f"sample_K{k}_N{n}_theorem1", dt1)
            sweep.time(f"sample_K{k}_N{n}_theorem2", dt2)
    return sweep


def run_offset_investigation(config: ExperimentConfig) -> SweepResult:
    """Non-asserting report of the offset-parameter behavior of the reduced
    per-order series against olct_series, and of both reconstruction
    prefactors."""
    sweep = SweepResult(config.seed)
    params = OffsetParams(1.0, 1.0, 0.0, 1.0, config.tau, config.eta)
    omega = 1.0
    spec = sy.random_spectrum(omega, config.k_max, config.j_spec, seed=config.seed + 8)
    fld = sy.synthesize(spec, params)
    grid = tr.PolarGrid(np.linspace(0.05, 0.95, 8), 16)
    fw = tr.olct_forward(fld, params, grid, r_max=30.0)
    coeffs = {n: fld.coefficients[n] for n in spec.coefficients}
    for kernel, series in (("reduced", _per_order_series(coeffs, params, grid, 1, 30.0)),
                           ("strict", tr.olct_series(coeffs, params, grid, r_max=30.0).values)):
        sweep.add(f"offset_series_{kernel}", _rel_err(series, fw.values), None,
                  passed=True, note="reported")
    m_sum = sp.default_m_sum(params, omega, 10.0)
    grid_t2 = sp.SampleGrid.theorem2(params, omega, config.k_max, config.n_values[0],
                                     order=config.theorem2_order)
    spec2 = sy.random_spectrum(omega, config.k_max, config.j_spec, seed=config.seed + 9,
                               order_map="fixed", fixed_order=config.theorem2_order)
    fld2 = sy.synthesize(spec2, params)
    samples = sp.sample_field(fld2, grid_t2)
    r_hi = 0.9 * float(grid_t2.alphas(0)[-1])
    R, TH = _probe_mesh(0.05, r_hi, config.probe_grid)
    truth = fld2.evaluate(R, TH)
    for pref, mapped in (("unit", samples), ("alternating", _alternating_prefactor(samples))):
        rec, dt = _timed(sp.reconstruct_field, mapped, "theorem2", params, m_sum, R, TH)
        sweep.add(f"offset_reconstruction_{pref}", _rel_err(rec, truth), None,
                  passed=True, note=f"m_sum={m_sum}, reported")
        sweep.time(f"offset_reconstruction_{pref}", dt)
    return sweep


def emit_report(result: SweepResult, path) -> None:
    """The rows as CSV at `path`; deterministic bytes for a fixed seed.

    Wall-clock timings are volatile, so they go to a separate .timings.csv
    that is excluded from the determinism contract.
    """
    path = str(path)
    lines = ["check,value,tolerance,passed,note"]
    for row in result.rows:
        tol = "" if math.isnan(row["tolerance"]) else f"{row['tolerance']:.6e}"
        lines.append(",".join([
            row["check"], f"{row['value']:.12e}", tol,
            "1" if row["passed"] else "0",
            row["note"].replace(",", ";"),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    if result.timings:
        with open(path + ".timings.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("step,seconds\n")
            for name, sec in result.timings:
                fh.write(f"{name},{sec:.6f}\n")
