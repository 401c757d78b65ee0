"""Flat-file round trips and parsing."""

import numpy as np
import pytest

from polar_olct import FourierBesselSpectrum, random_spectrum
from polar_olct.files import (
    parse_keyvalue,
    read_params_file,
    read_spectrum_csv,
    write_field_csv,
    write_spectrum_csv,
    write_transform_csv,
)


def test_parse_keyvalue():
    kv = parse_keyvalue("a = 1.5 # chirp\n\n# full-line comment\nb=2\n")
    assert kv == {"a": "1.5", "b": "2"}
    with pytest.raises(ValueError):
        parse_keyvalue("just a line without equals")


def test_params_file(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text(
        "a = 1.0\nb = 1.0\nc = 0.0\nd = 1.0\n"
        "tau1 = 0.3\ntau2 = 0.4\neta1 = 0.1\neta2 = -0.2\n")
    params = read_params_file(path)
    assert params.a == 1.0 and params.tau == (0.3, 0.4) and params.eta == (0.1, -0.2)


@pytest.mark.parametrize("line", ["tau = 0.3", "Omega = 1.0", "K = 2", "mode = theorem2"])
def test_params_file_rejects_unknown_keys(tmp_path, line):
    # a misspelt or unused key raises instead of being ignored
    path = tmp_path / "p.txt"
    path.write_text(f"a = 0\nb = 1\nc = -1\nd = 0\n{line}\n")
    with pytest.raises(ValueError, match=repr(line.split(" ")[0])):
        read_params_file(path)


def test_params_file_bad_value_names_file_and_key(tmp_path):
    # "could not convert string to float: 'x'" named neither
    path = tmp_path / "p.txt"
    path.write_text("a = x\nb = 1\nc = -1\nd = 0\n")
    with pytest.raises(ValueError, match=r"p.txt: params key 'a': could not convert string "
                                         r"to float: 'x'"):
        read_params_file(path)


def test_spectrum_csv_roundtrip(tmp_path):
    spec = random_spectrum(1.0, 2, 3, seed=5)
    path = tmp_path / "s.csv"
    write_spectrum_csv(path, spec)
    back = read_spectrum_csv(path)
    assert back.omega == spec.omega
    assert back.k_max == spec.k_max
    assert back.order_map == spec.order_map
    for n in spec.coefficients:
        assert np.max(np.abs(back.coefficients[n] - spec.coefficients[n])) < 1e-14


def test_spectrum_csv_bytes_stable(tmp_path):
    spec = FourierBesselSpectrum(1.0, 1, {0: np.array([0.25 + 0.5j]),
                                          1: np.array([0.1 - 0.2j, 0.0 + 0j])})
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_spectrum_csv(p1, spec)
    write_spectrum_csv(p2, spec)
    assert p1.read_bytes() == p2.read_bytes()


def test_grid_csvs(tmp_path):
    r = np.array([0.1, 0.2])
    t = np.array([0.0, 1.0])
    v = np.array([1 + 2j, 3 - 4j])
    fpath = tmp_path / "f.csv"
    write_field_csv(fpath, r, t, v)
    lines = fpath.read_text().strip().splitlines()
    assert lines[0] == "r,theta,Re(f),Im(f)"
    assert lines[1].startswith("0.1,0,1,2")
    tpath = tmp_path / "F.csv"
    write_transform_csv(tpath, r, t, v)
    assert tpath.read_text().startswith("rho,phi,Re(F),Im(F)")


@pytest.mark.parametrize("body, line, message", [
    ("1.0,1\n0,1,0.5,0\n0,0,5.0,0\n", 3, "j must be >= 1"),
    ("1.0,1\n0,1,0.5,0\n1,1,0.5,0\n0,1,5.0,0\n", 4, r"repeated \(n, j\) = \(0, 1\)"),
    ("# omega,K\n1.0,1\n# n,j,Re,Im\n0,1,0.5\n", 4, "need the 4 fields"),
    ("1.0,1\n0,1,0.5,0,7\n", 2, "need the 4 fields"),
    ("# omega,K\n1.0\n0,1,0.5,0\n", 2, "need the header"),
    ("x,1\n0,1,0.5,0\n", 1, "could not convert string to float: 'x', in 'x,1'"),
    ("1.0,1,fixed,z\n0,1,0.5,0\n", 1, "invalid literal for int"),
    ("1.0,1\nx,1,0.5,0\n", 2, "invalid literal for int.*, in 'x,1,0.5,0'"),
    ("1.0,1\n0,1,0.5,i\n", 2, "could not convert string to float: 'i'"),
])
def test_spectrum_csv_bad_row_names_its_line(tmp_path, body, line, message):
    # a j = 0 row or a repeated (n, j) would otherwise overwrite a coefficient
    path = tmp_path / "s.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=f"s.csv:{line}: {message}"):
        read_spectrum_csv(path)


@pytest.mark.parametrize("body", ["", "# only a comment\n\n"])
def test_spectrum_csv_empty_file_rejected(tmp_path, body):
    path = tmp_path / "s.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match="no header line"):
        read_spectrum_csv(path)
