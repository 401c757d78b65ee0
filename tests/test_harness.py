"""Sweep harness: determinism, failure accumulation, budgets."""

import math
from dataclasses import replace

import numpy as np
import pytest

from polar_olct import ExperimentConfig, SweepResult, emit_report
from polar_olct.harness import (
    _rel_err,
    run_complexity_sweep,
    run_offset_investigation,
    run_reduction_suite,
)

# small but complete configuration, a few seconds end to end
FAST = ExperimentConfig(k_max=1, j_spec=2, n_values=(2, 6), probe_grid=10,
                        draws=1, r_max=40.0, support_radius=150.0)


def test_config_from_text_and_overrides():
    cfg = ExperimentConfig.from_text(
        "seed = 7\nk_max = 1\nn_values = 4, 8\ntau1 = 0.1\ntau2 = 0.2\n")
    assert cfg.seed == 7
    assert cfg.n_values == (4, 8)
    assert cfg.tau == (0.1, 0.2)
    # the defaults are the offsets the offset rows run, a config may ask
    # for zero offsets, and the unnamed half of a named pair is 0
    assert (ExperimentConfig().tau, ExperimentConfig().eta) == ((0.3, 0.4), (0.1, -0.2))
    zero = ExperimentConfig.from_text("tau1 = 0\ntau2 = 0\neta1 = 0\neta2 = 0\n")
    assert (zero.tau, zero.eta) == ((0.0, 0.0), (0.0, 0.0))
    assert ExperimentConfig.from_text("eta1 = 0.5\n").eta == (0.5, 0.0)
    # a, b, c, d set no bundle that any row reads, and every row's
    # tolerance is fixed
    for text in ("bogus_key = 1\n", "a = 1\n", "tol_reconstruction = 1e-4\n"):
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig.from_text(text)


def test_config_rejects_what_it_cannot_run():
    # each would run without meaning: an unknown tolerance is never read,
    # n_values < 1 gives no zero grid, an empty n_values runs no row and
    # reports 0 failing checks, and draws = 0 passes oracle_agreement
    # without comparing anything
    for text, key in (("tol_reconstuction = 1e-30\n", "tol_reconstuction"),
                      ("n_values =\n", "n_values"),
                      ("n_values = 0\n", "n_values"),
                      ("n_values = 10, -2\n", "n_values"),
                      ("draws = 0\n", "draws"),
                      # the band limit and theorem 2's order are fixed, not keys
                      ("omega = 1.0\n", "omega"),
                      ("theorem2_order = 1\n", "theorem2_order")):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_text(text)
    with pytest.raises(TypeError, match="tolerances"):
        ExperimentConfig(tolerances={"reconstruction": 1.0})
    with pytest.raises(ValueError, match="draws"):
        ExperimentConfig(draws=-1)
    with pytest.raises(ValueError, match="n_values"):
        ExperimentConfig(n_values=())
    # j_spec = 0 synthesizes zero fields, whose rows would pass vacuously,
    # k_max < 0 would fail only mid-run, a seed < 0 got numpy's message,
    # and a value that does not parse names its key
    for text, key in (("j_spec = 0\n", "j_spec"), ("k_max = -1\n", "k_max"),
                      ("seed = -1\n", "seed must be >= 0"), ("seed = 7.5\n", "seed")):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_text(text)
    # a non-finite or non-positive scale is refused when the config is
    # built, and so is a support radius that leaves a corollary grid without
    # zeros: support_radius = 0.5 ran the suites before the corollary rows
    # and then exited on "corollary1 grid holds no zeros for order 0"
    for key in ("r_max", "support_radius"):
        for bad in ("0", "-1", "nan", "inf"):
            with pytest.raises(ValueError, match=f"{key} must be finite and positive"):
                ExperimentConfig.from_text(f"{key} = {bad}\n")
    # a non-finite offset ran two suites before it failed, naming no key
    for key in ("tau1", "tau2", "eta1", "eta2"):
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError, match=f"{key} must be finite, got"):
                ExperimentConfig.from_text(f"{key} = {bad}\n")
    with pytest.raises(ValueError, match="eta2 must be finite, got nan"):
        ExperimentConfig(eta=(0.1, math.nan))
    with pytest.raises(ValueError, match="support_radius = 0.5 is too small: corollary1 grid"):
        ExperimentConfig.from_text("support_radius = 0.5\n")
    # the highest order's first zero decides: 8 leaves zeros for order 0
    # but none for order 2
    with pytest.raises(ValueError, match="support_radius = 8.0 is too small: .* order 2"):
        ExperimentConfig(support_radius=8.0)


@pytest.mark.parametrize("truth", [np.zeros(3), np.array([1.0, np.nan, 2.0]),
                                   np.array([np.inf, 1.0])])
def test_rel_err_refuses_a_reference_it_cannot_scale(truth):
    with pytest.raises(ValueError, match="reference of magnitude"):
        _rel_err(np.ones(truth.shape), truth)


def test_complexity_sweep_counts():
    cfg = ExperimentConfig(n_values=(10,))
    sweep = run_complexity_sweep(cfg)
    assert not sweep.failures()
    by_name = {r["check"]: r for r in sweep.rows}
    assert by_name["count_ratio_K2_N10"]["value"] == 5.0
    assert "2500/500" in by_name["count_ratio_K2_N10"]["note"]
    assert by_name["count_ratio_K1_N10"]["note"].startswith("counts 900/300")
    assert by_name["count_ratio_K0_N10"]["value"] == 1.0


def test_reduction_suite_default_passes():
    sweep = run_reduction_suite(FAST)
    failing = [r["check"] for r in sweep.failures()]
    assert failing == []
    names = [r["check"] for r in sweep.rows]
    assert "series_adjudication" in names
    adjudication = next(r for r in sweep.rows if r["check"] == "series_adjudication")
    assert "order_n" in adjudication["note"]
    chirp = next(r for r in sweep.rows if r["check"] == "corollary1_chirp_adjudication")
    assert "spectral" in chirp["note"]


def test_under_resolved_config_is_flagged_not_fatal():
    cfg = ExperimentConfig(k_max=1, j_spec=2, n_values=(3,), probe_grid=10,
                           draws=1, r_max=40.0, support_radius=150.0)
    sweep = run_reduction_suite(cfg)
    flagged = [r["check"] for r in sweep.failures()]
    # the non-terminating-spectrum rows blow their tolerance at N=3
    assert any(name.startswith("theorem") and "sonine" in name for name in flagged)
    # but the suite still ran to completion and reported everything else
    assert len(sweep.rows) > len(flagged) > 0


def test_offset_investigation_reports_without_asserting():
    sweep = run_offset_investigation(FAST)
    assert not sweep.failures()  # informational rows never fail
    names = {r["check"] for r in sweep.rows}
    assert {"offset_series_reduced", "offset_series_strict",
            "offset_reconstruction_unit", "offset_reconstruction_alternating"} <= names
    strict = next(r for r in sweep.rows if r["check"] == "offset_series_strict")
    reduced = next(r for r in sweep.rows if r["check"] == "offset_series_reduced")
    assert strict["value"] < 1e-6 < reduced["value"]


def test_offset_investigation_runs_the_offsets_it_is_given():
    # without offsets the reduced series is exact and theorem 2 reconstructs
    # the field, so both rows read rounding level only if the zero pair runs
    # as given rather than as the default offsets
    sweep = run_offset_investigation(replace(FAST, tau=(0.0, 0.0), eta=(0.0, 0.0)))
    values = {r["check"]: r["value"] for r in sweep.rows}
    assert values["offset_series_reduced"] < 1e-12
    assert values["offset_reconstruction_unit"] < 1e-12


def test_emit_report_deterministic(tmp_path):
    sweep1 = run_offset_investigation(FAST)
    sweep2 = run_offset_investigation(FAST)
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    emit_report(sweep1, p1)
    emit_report(sweep2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "r1.csv.timings.csv").exists()


def test_emit_report_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_report(SweepResult(seed=1), path)
    assert path.read_text() == "check,value,tolerance,passed,note\n"
    rows = SweepResult(seed=1)
    for i in range(9):
        rows.add(f"row{i}", float(i), 10.0)
    out = tmp_path / "nine.csv"
    emit_report(rows, out)
    assert len(out.read_text().strip().splitlines()) == 10
