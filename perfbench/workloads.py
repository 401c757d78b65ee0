"""The four benchmark workloads: seeded inputs, the timed op, and its oracle.

Each workload is a `setup(seed, work_dir) -> state` that builds every input
and warms every first-touch cache, an `op(state) -> result` that is the
timed call into the library, and a `check(state, result) -> error` that
compares the result with an oracle computed outside the timed path.  An op
fails when it raises or when its error exceeds `tol`, the acceptance
suite's pinned tolerance for that kind of figure.

Sizes are chosen so that one op takes one to three seconds on a 2-core
machine and a run of 20 s collects 6 to 20 of them; `verify` takes about
10 s, because a CLI user pays its cold start on every invocation.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import polar_olct as po  # noqa: E402

ROT = po.OffsetParams(0.0, 1.0, -1.0, 0.0)
LCT = po.OffsetParams(1.0, 2.0, -0.25, 0.5)


def rel_err(x, truth) -> float:
    return float(np.max(np.abs(x - truth))) / (float(np.max(np.abs(truth))) or 1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    op: Callable
    check: Callable
    tol: float
    # error figure reported for the op: relative error, or failing checks
    error_kind: str = "rel_err"
    # the op runs the library in a child process, given by state["command"]
    child_process: bool = False


# --------------------------------------------------------------------------
# quad_smooth: the criterion-8 forward-quadrature oracle, scaled
# --------------------------------------------------------------------------

# Criterion 8 transforms an omega = 1 field at r_max = 240 on rho in
# [0.02, 0.9].  The transform is exactly covariant under omega -> s*omega,
# r -> r/s, rho -> s*rho, except for the input chirp, whose node count falls
# as r_max^2.  At s = 4 the integrand, the output grid in units of omega,
# the azimuth node count (520) and the oracle error (2.0e-6 at seed 109)
# are those of criterion 8, with 2,292 instead of 36,670 radial nodes.
SMOOTH_SCALE = 4.0
SMOOTH_R_MAX = 240.0 / SMOOTH_SCALE


def _smooth_setup(seed, work_dir):
    omega = SMOOTH_SCALE
    field = po.synthesize(po.random_spectrum(omega, 2, 3, seed), LCT)
    grid = po.PolarGrid(omega * np.linspace(0.02, 0.9, 20), 20)
    truth = field.spectrum_values(grid.rho[:, None], grid.phi[None, :])
    return {"field": field, "grid": grid, "truth": truth}


def _smooth_op(state):
    return po.olct_forward(state["field"], LCT, state["grid"], r_max=SMOOTH_R_MAX).values


def _truth_check(state, result):
    return rel_err(result, state["truth"])


# --------------------------------------------------------------------------
# quad_chirped: a field that really oscillates, with a closed-form transform
# --------------------------------------------------------------------------

CHIRP_S = 10.0
CHIRP_R_MAX = 8.0 * CHIRP_S  # the Gaussian is below e^-32 there


def chirped_field(s, c0, c1):
    """f = exp(-r^2/2s^2) (c0 + c1 (r/s) e^{i theta}): a plain callable, so
    the transform goes through no synthesis or Bessel code."""

    def f(r, theta):
        return np.exp(-r * r / (2.0 * s * s)) * (c0 + c1 * (r / s) * np.exp(1j * theta))

    return f


def chirped_transform(params, s, c0, c1, rho, phi):
    """Closed-form offset-free transform of `chirped_field`.

    With k = rho/b and p = 1/(2s^2) - i a/(2b), the angular integrals give
    2 pi J_0(k r) and -2 pi i e^{i phi} J_1(k r), and the radial Gaussian
    moments give e^{-k^2/4p}/(2p) and k e^{-k^2/4p}/(4p^2).
    """
    a, b, d = params.a, params.b, params.d
    k = rho / b
    p = 1.0 / (2.0 * s * s) - 1j * a / (2.0 * b)
    g = np.exp(-k * k / (4.0 * p))
    body = c0 * g / (2.0 * p) - 1j * c1 * np.exp(1j * phi) * k * g / (4.0 * p * p * s)
    return (params.ell1 / b) * np.exp(1j * d * rho * rho / (2.0 * b)) * body


def _chirped_setup(seed, work_dir):
    rng = np.random.default_rng(seed)
    c0, c1 = (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / np.sqrt(2.0)
    grid = po.PolarGrid(np.linspace(0.1, 2.0, 10), 16)
    truth = chirped_transform(LCT, CHIRP_S, c0, c1, grid.rho[:, None], grid.phi[None, :])
    return {"field": chirped_field(CHIRP_S, c0, c1), "grid": grid, "truth": truth}


def _chirped_op(state):
    return po.olct_forward(state["field"], LCT, state["grid"], r_max=CHIRP_R_MAX).values


# --------------------------------------------------------------------------
# zero_grid_recon: one pass over the four reconstruction modes
# --------------------------------------------------------------------------

RECON_N = 40
RECON_K = 2
SUPPORT = 400.0


def _recon_grids():
    omega = np.pi
    return {
        "theorem1": po.SampleGrid.theorem1(ROT, omega, RECON_K, RECON_N),
        "theorem2": po.SampleGrid.theorem2(ROT, omega, RECON_K, RECON_N),
        "corollary1": po.SampleGrid.corollary1(LCT, SUPPORT, RECON_K, 1.0),
        "corollary2": po.SampleGrid.corollary2(LCT, SUPPORT, RECON_K, 1.0),
    }


def _recon_setup(seed, work_dir):
    omega = np.pi
    # probes as in criterion 7 and the corollary rows of the harness
    z100 = po.ZeroTable.for_order(0, 100).zeros[99]
    R, TH = np.meshgrid(np.linspace(0.05, 0.9 * ROT.b * z100 / omega, 20),
                        np.linspace(-np.pi, np.pi, 20, endpoint=False), indexing="ij")
    PH, RH = np.meshgrid(np.linspace(-np.pi, np.pi, 20, endpoint=False),
                         np.linspace(0.02, 0.9, 20))
    weights = {n: (0.5 + 0.4j if n else 1.0) for n in range(-RECON_K, RECON_K + 1)}
    cases = []
    for i, mode in enumerate(("theorem1", "theorem2")):
        order_map = "per_order" if mode == "theorem1" else "fixed"
        fb = po.synthesize(po.random_spectrum(omega, RECON_K, 3, seed + i, order_map=order_map), ROT)
        sonine = po.synthesize_sonine(weights, ROT, omega, order_map=order_map)
        for fld in (fb, sonine):
            cases.append((mode, fld, fld.evaluate(R, TH)))
    for i, mode in enumerate(("corollary1", "corollary2")):
        order_map = "per_order" if mode == "corollary1" else "fixed"
        fld = po.synthesize(po.random_spectrum(1.0, RECON_K, 3, seed + 2 + i, order_map=order_map), LCT)
        cases.append((mode, fld, fld.spectrum_values(RH, PH)))
    _recon_grids()  # pays for the zero tables here, not in the first op
    return {"cases": cases, "field_probes": (R, TH), "spectrum_probes": (RH, PH)}


def _recon_op(state):
    grids = _recon_grids()
    out = []
    for mode, fld, _ in state["cases"]:
        if mode.startswith("theorem"):
            samples = po.sample_field(fld, grids[mode])
            out.append(po.reconstruct_field(samples, mode, ROT, 0, *state["field_probes"]))
        else:
            samples = po.sample_field(fld.spectrum_values, grids[mode])
            out.append(po.reconstruct_spectrum(samples, mode, LCT, 0, *state["spectrum_probes"]))
    return out


def _recon_check(state, result):
    return max(rel_err(rec, truth) for rec, (_, _, truth) in zip(result, state["cases"]))


# --------------------------------------------------------------------------
# verify: the CLI command, one cold process per op
# --------------------------------------------------------------------------

# The default config runs n_values = 10, 20, 40 and 5 oracle draws
# (~20 s); this one keeps every suite and every asserted check but runs
# the sampling sweep at N = 20 only and one oracle draw (~9 s).
VERIFY_CONFIG = "n_values = 20\ndraws = 1\n"


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _verify_setup(seed, work_dir):
    config = os.path.join(work_dir, "verify_config.txt")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(VERIFY_CONFIG)
    return {"argv": ["verify", "--seed", str(seed), "--config", config],
            "command": [sys.executable, "-m", "polar_olct.cli"], "env": _cli_env()}


def _verify_op(state):
    proc = subprocess.run(state["command"] + state["argv"], env=state["env"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          check=False)
    return proc


def _verify_check(state, proc):
    # the failing-check count from the last line; exit code decides pass
    tail = proc.stdout.strip().splitlines()[-1:] or [""]
    words = tail[0].split()
    failing = int(words[1]) if len(words) > 1 and tail[0].startswith("verify:") else -1
    if proc.returncode != 0 or failing != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return float(failing if failing > 0 else 1)
    return 0.0


WORKLOADS = {
    w.name: w for w in (
        Workload("quad_smooth", _smooth_setup, _smooth_op, _truth_check, 1e-5),
        Workload("quad_chirped", _chirped_setup, _chirped_op, _truth_check, 1e-6),
        Workload("zero_grid_recon", _recon_setup, _recon_op, _recon_check, 1e-5),
        Workload("verify", _verify_setup, _verify_op, _verify_check, 0.0,
                 error_kind="failing_checks", child_process=True),
    )
}
