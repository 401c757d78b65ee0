"""Mutation table: each rejected convention, run inside the library, fails
the asserted `verify` rows that reject it.

An entry monkeypatches one library function so that it computes a
convention the library has rejected, and names the asserted rows of
`run_reduction_suite` that must then fail.  The unmutated run passes the
same rows, so each failure is the mutation's doing.
"""

import types

import pytest

from polar_olct import ExperimentConfig, harness
from polar_olct import sampling as sp
from polar_olct import transforms as tr

# small but complete configuration, as in test_harness.py; K = 1 gives
# theorem 1 an odd angular order
FAST = ExperimentConfig(k_max=1, j_spec=2, n_values=(2, 6), probe_grid=10,
                        draws=1, r_max=40.0, support_radius=150.0)


def _spatial_inner_chirp(monkeypatch):
    # reconstruct_spectrum dechirps by e^{-i a alpha^2/2b}
    library = sp.reconstruct_spectrum
    monkeypatch.setattr(sp, "reconstruct_spectrum",
                        lambda samples, *args: library(harness._spatial_chirp(samples), *args))


def _alternating_prefactor(monkeypatch):
    # reconstruct_field carries (-1)^v sigma; sigma = 1 under ROT, so the
    # odd orders of theorem 1 flip
    library = sp.reconstruct_field
    monkeypatch.setattr(sp, "reconstruct_field",
                        lambda samples, *args: library(harness._alternating_prefactor(samples),
                                                       *args))


def _order_2n_series(monkeypatch):
    # olct_series pairs angular order n with radial order 2n
    def order_2n(coeffs, params, grid, r_max):
        return types.SimpleNamespace(
            values=harness._per_order_series(coeffs, params, grid, 2, r_max))

    monkeypatch.setattr(tr, "olct_series", order_2n)


MUTATIONS = {
    "spatial_inner_chirp": (_spatial_inner_chirp,
                            ("corollary1_spectral_chirp", "corollary2_spectral_chirp")),
    "alternating_prefactor": (_alternating_prefactor, ("theorem1_fb_N6", "theorem1_sonine_N6")),
    "order_2n_series": (_order_2n_series, ("series_order_n", "series_adjudication")),
}


def _passed(config):
    return {row["check"]: row["passed"] for row in harness.run_reduction_suite(config).rows}


@pytest.fixture(scope="module")
def unmutated():
    return _passed(FAST)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_rejected_convention_fails_its_rows(monkeypatch, unmutated, name):
    mutate, rows = MUTATIONS[name]
    assert all(unmutated[row] for row in rows), rows
    mutate(monkeypatch)
    passed = _passed(FAST)
    assert [row for row in rows if passed[row]] == [], f"{name} left rows passing"
