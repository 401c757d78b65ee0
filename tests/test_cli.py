"""Command-line surface."""

import numpy as np
import pytest

from polar_olct import random_spectrum
from polar_olct.cli import main
from polar_olct.files import write_spectrum_csv

PARAMS_ROT = "a = 0\nb = 1\nc = -1\nd = 0\n"

FAST_CONFIG = ("k_max = 1\nj_spec = 2\nn_values = 2, 6\nprobe_grid = 10\n"
               "draws = 1\nr_max = 40.0\nsupport_radius = 150.0\n")


@pytest.fixture
def inputs(tmp_path):
    params = tmp_path / "params.txt"
    params.write_text(PARAMS_ROT)
    spectrum = tmp_path / "spectrum.csv"
    write_spectrum_csv(spectrum, random_spectrum(1.0, 1, 2, seed=2))
    # fixed-order spectrum for the fixed-order sampling modes
    fixed = tmp_path / "spectrum_fixed.csv"
    write_spectrum_csv(fixed, random_spectrum(1.0, 1, 2, seed=2,
                                              order_map="fixed", fixed_order=0))
    return params, spectrum, fixed


def test_zeros_csv(tmp_path, capsys):
    out = tmp_path / "z.csv"
    assert main(["zeros", "--order", "0", "--count", "3", "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "j,z"
    assert lines[1] == "1,2.40482555769577"
    assert len(lines) == 4


def test_zeros_high_order_against_scipy(tmp_path):
    jn_zeros = pytest.importorskip("scipy.special").jn_zeros
    out = tmp_path / "z40.csv"
    assert main(["zeros", "--order", "40", "--count", "200", "--format", "csv",
                 "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    z = np.array([float(row.split(",")[1]) for row in rows])
    assert z.shape == (200,)
    assert np.max(np.abs(z - jn_zeros(40, 200))) <= 1e-12


def test_zeros_negative_count_rejected(capsys):
    # a refused option is a usage error: one line on stderr, exit 2
    assert main(["zeros", "--order", "0", "--count", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "polar-olct: error: --count must be a positive integer, got -3\n"


@pytest.mark.parametrize("line, message", [("draws = 0", "draws must be >= 1, got 0"),
                                           ("k_max = -1", "k_max must be >= 0, got -1"),
                                           ("j_spec = 0", "j_spec must be >= 1, got 0"),
                                           ("n_values =",
                                            "n_values must hold one or more entries >= 1, got ()"),
                                           ("tau1 = nan", "tau1 must be finite, got nan"),
                                           ("eta2 = inf", "eta2 must be finite, got inf")])
def test_verify_rejects_config_in_one_line(tmp_path, capsys, line, message):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(FAST_CONFIG + line + "\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"polar-olct: error: {message}\n"


def test_zeros_stdout(capsys):
    assert main(["zeros", "--order", "1", "--count", "1"]) == 0
    captured = capsys.readouterr().out
    assert captured.splitlines()[1].startswith("1,3.83170597020751")


def test_transform_and_synth(tmp_path, inputs, capsys):
    params, spectrum, _ = inputs
    out = tmp_path / "F.csv"
    rc = main(["transform", "--params", str(params), "--spectrum", str(spectrum),
               "--n-rho", "4", "--n-phi", "8", "--r-max", "30", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("rho,phi,Re(F),Im(F)")
    assert len(out.read_text().strip().splitlines()) == 33

    out2 = tmp_path / "f.csv"
    rc = main(["synth", "--params", str(params), "--spectrum", str(spectrum),
               "--n-r", "5", "--n-theta", "4", "--out", str(out2)])
    assert rc == 0
    assert len(out2.read_text().strip().splitlines()) == 21


def test_transform_series_route(tmp_path, inputs):
    params, spectrum, _ = inputs
    out = tmp_path / "Fs.csv"
    rc = main(["transform", "--params", str(params), "--spectrum", str(spectrum),
               "--n-rho", "3", "--n-phi", "8", "--r-max", "30",
               "--route", "order_n", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().strip().splitlines()) == 25


def test_transform_series_route_with_offsets(tmp_path, inputs):
    _, spectrum, _ = inputs
    params = tmp_path / "offset_params.txt"
    params.write_text("a = 1\nb = 1\nc = 0\nd = 1\ntau1 = 0.3\ntau2 = 0.4\n"
                      "eta1 = 0.1\neta2 = -0.2\n")
    values = {}
    for route in ("quadrature", "order_n"):
        out = tmp_path / f"F_{route}.csv"
        assert main(["transform", "--params", str(params), "--spectrum", str(spectrum),
                     "--n-rho", "4", "--n-phi", "8", "--r-max", "30",
                     "--route", route, "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        values[route] = data[:, 2] + 1j * data[:, 3]
    truth = values["quadrature"]
    assert np.max(np.abs(values["order_n"] - truth)) <= 1e-6 * np.max(np.abs(truth))
    with pytest.raises(SystemExit):
        main(["transform", "--params", str(params), "--spectrum", str(spectrum),
              "--route", "order_2n"])


def test_reconstruct_field_mode(tmp_path, inputs, capsys):
    params, _, spectrum = inputs
    out = tmp_path / "report.csv"
    rc = main(["reconstruct", "--mode", "theorem2", "--params", str(params),
               "--spectrum", str(spectrum), "--zeros", "4", "--probes", "11x11",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,theta,Re(true),Im(true),Re(recon),Im(recon),abs_err"
    assert len(lines) == 122
    errs = np.array([float(ln.split(",")[-1]) for ln in lines[1:]])
    scale = max(abs(float(x)) for ln in lines[1:] for x in ln.split(",")[2:4])
    assert np.max(errs) < 1e-6 * max(scale, 1.0)


def test_reconstruct_order_follows_a_fixed_order_spectrum(tmp_path, inputs, capsys):
    # --order 3 on a fixed_order = 0 spectrum printed max_rel_err=3.104e+00
    # and exited 0.  The default is the spectrum's own order, here 1
    params, _, _ = inputs
    spectrum = tmp_path / "spectrum_order1.csv"
    write_spectrum_csv(spectrum, random_spectrum(1.0, 1, 2, seed=2, order_map="fixed",
                                                 fixed_order=1))
    argv = ["reconstruct", "--mode", "theorem2", "--params", str(params),
            "--spectrum", str(spectrum), "--zeros", "4", "--probes", "5x5",
            "--out", str(tmp_path / "report.csv")]
    for order in ([], ["--order", "1"]):
        assert main(argv + order) == 0
        err = float(capsys.readouterr().out.split("max_rel_err=")[1])
        assert err < 1e-6
    for mode in ("theorem2", "corollary2"):
        argv[2] = mode
        assert main(argv + ["--order", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("polar-olct: error: --order 3 differs from the spectrum's "
                                "fixed_order 1\n")


def test_reconstruct_spectrum_mode(tmp_path, inputs):
    params, _, spectrum = inputs
    out = tmp_path / "crep.csv"
    rc = main(["reconstruct", "--mode", "corollary2", "--params", str(params),
               "--spectrum", str(spectrum), "--probes", "11x11",
               "--support-radius", "150", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().strip().splitlines()) == 122


@pytest.mark.parametrize("probes", ["5", "0x5", "5x0", "5x", "ax5", "5x5x5", "-1x5", "2.5x5"])
def test_reconstruct_rejects_probes_in_one_line(inputs, capsys, probes):
    params, spectrum, _ = inputs
    assert main(["reconstruct", "--mode", "theorem1", "--params", str(params),
                 "--spectrum", str(spectrum), f"--probes={probes}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("polar-olct: error: --probes needs NRxNT, two positive integers, "
                            f"got {probes!r}\n")


@pytest.mark.parametrize("argv, message", [
    (["reconstruct", "--mode", "theorem2", "--zeros", "-2"],
     "--zeros must be a positive integer, got -2"),
    (["reconstruct", "--mode", "theorem1", "--zeros", "0"],
     "--zeros must be a positive integer, got 0"),
    (["reconstruct", "--mode", "corollary1", "--support-radius", "0.5"],
     "corollary1 grid holds no zeros for order 0"),
    (["transform", "--n-rho", "0"], "--n-rho must be a positive integer, got 0"),
    (["transform", "--n-phi", "0"], "--n-phi must be a positive integer, got 0"),
    (["reconstruct", "--mode", "theorem1", "--msum", "-5"],
     "--msum must be -1 (auto) or a non-negative integer, got -5"),
    (["reconstruct", "--mode", "theorem2", "--order", "-1"],
     "--order must be a non-negative integer, got -1"),
])
def test_empty_grids_rejected_in_one_line(inputs, capsys, argv, message):
    # each ran to exit 0 on a grid with no samples, or died with a traceback
    params, spectrum, _ = inputs
    assert main(argv + ["--params", str(params), "--spectrum", str(spectrum)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"polar-olct: error: {message}\n"


@pytest.mark.parametrize("command, option, value, message", [
    ("synth", "--n-r", "0", "a positive integer, got 0"),
    ("synth", "--n-theta", "0", "a positive integer, got 0"),
    ("synth", "--r-max", "-1", "finite and positive, got -1.0"),
    ("transform", "--rho-max", "0", "finite and positive, got 0.0"),
    ("transform", "--rho-max", "-1", "finite and positive, got -1.0"),
    ("transform", "--r-max", "inf", "finite and positive, got inf"),
    ("transform", "--n-rho", "-2", "a positive integer, got -2"),
    ("transform", "--n-phi", "-4", "a positive integer, got -4"),
    ("reconstruct", "--support-radius", "nan", "finite and positive, got nan"),
    ("zeros", "--count", "0", "a positive integer, got 0"),
])
def test_count_and_extent_options_rejected_in_one_line(tmp_path, inputs, capsys, command,
                                                       option, value, message):
    # synth wrote a CSV of only its header for a count of 0, and transform
    # named no option for a radius extent of 0 or below
    params, spectrum, _ = inputs
    out = tmp_path / "out.csv"
    argv = [command, option, value, "--out", str(out)]
    if command != "zeros":
        argv += ["--params", str(params), "--spectrum", str(spectrum)]
    if command == "reconstruct":
        argv += ["--mode", "corollary1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"polar-olct: error: {option} must be {message}\n"


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--mode", "theorem2", "--params", "{missing}", "--spectrum", "{spectrum}"],
    ["reconstruct", "--mode", "theorem2", "--params", "{params}", "--spectrum", "{missing}"],
    ["transform", "--params", "{missing}", "--spectrum", "{spectrum}"],
    ["synth", "--params", "{params}", "--spectrum", "{missing}"],
    ["verify", "--config", "{missing}"],
])
def test_missing_input_file_rejected_in_one_line(tmp_path, inputs, capsys, argv):
    # each died with a FileNotFoundError traceback and exit status 1
    params, spectrum, _ = inputs
    missing = tmp_path / "missing.txt"
    argv = [a.format(params=params, spectrum=spectrum, missing=missing) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("polar-olct: error: ") and captured.err.count("\n") == 1
    assert str(missing) in captured.err


@pytest.mark.parametrize("body, line", [("x,1\n0,1,0.5,0\n", 1), ("1.0,1\nx,1,0.5,0\n", 2)])
def test_synth_names_the_bad_spectrum_line(tmp_path, inputs, capsys, body, line):
    params, _, _ = inputs
    spectrum = tmp_path / "bad.csv"
    spectrum.write_text(body)
    assert main(["synth", "--params", str(params), "--spectrum", str(spectrum)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"polar-olct: error: {spectrum}:{line}: ") and err.count("\n") == 1


def test_sweep_and_verify_exit_codes(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(FAST_CONFIG)
    out = tmp_path / "report.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists() and out.read_text().startswith("check,")
    # --out writes the CSV and its timings, and no other file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt", "report.csv",
                                                          "report.csv.timings.csv"]
    # verify is the one command that runs the suites
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg)])
    assert exc.value.code == 2

    bad = tmp_path / "bad.txt"
    bad.write_text(FAST_CONFIG.replace("n_values = 2, 6", "n_values = 3"))
    assert main(["verify", "--config", str(bad)]) == 1
