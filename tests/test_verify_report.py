"""The `verify` report, pinned: its stdout and its CSV at two seeds against
committed files.

Each run starts a fresh process, so the zero tables start cold as they do
for a user.  The stdout must keep its row names, order, pass flags and
notes; every printed number >= 1e-13 must be identical at `.3e`, and every
number below 1e-13 must stay below it (those are rounding-level residuals
whose last digits follow the order of floating-point operations).  The
`--out` CSV of the same run, with 12 digits per value, must be identical
byte for byte.

A change that moves a row on purpose, or any CSV digit, regenerates the
files, from the repo root, with

    for seed in 7 20240801; do
        PYTHONPATH=src python -m polar_olct.cli verify --seed $seed \\
            --out tests/verify_seed$seed.csv > tests/verify_seed$seed.txt
        rm tests/verify_seed$seed.csv.*
    done

and lists the moved rows, old and new, in CHANGES.md.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import polar_olct

HERE = pathlib.Path(__file__).parent
FLOOR = 1e-13
# every number the report prints, in a value or a note, is formatted .3e
_NUMBER = re.compile(r"[-+]?\d\.\d{3}e[-+]\d+")


def _verify_run(seed, csv):
    """The stdout of `verify --seed seed --out csv`."""
    src = str(pathlib.Path(polar_olct.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-m", "polar_olct.cli", "verify", "--seed", str(seed),
                          "--out", str(csv)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout


def _diff(expected, actual):
    """The lines of `actual` that break the pinned report `expected`."""
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    if len(exp_lines) != len(act_lines):
        return [f"{len(act_lines)} lines, expected {len(exp_lines)}"]
    bad = []
    for exp, act in zip(exp_lines, act_lines):
        exp_nums, act_nums = _NUMBER.findall(exp), _NUMBER.findall(act)
        same = (_NUMBER.sub("#", exp) == _NUMBER.sub("#", act)
                and len(exp_nums) == len(act_nums)
                and all(a == e if float(e) >= FLOOR else float(a) < FLOOR
                        for e, a in zip(exp_nums, act_nums)))
        if not same:
            bad.append(f"expected {exp!r}, got {act!r}")
    return bad


@pytest.mark.parametrize("seed", [7, 20240801])
def test_verify_report_is_pinned(seed, tmp_path):
    csv = tmp_path / "report.csv"
    expected = (HERE / f"verify_seed{seed}.txt").read_text()
    assert _diff(expected, _verify_run(seed, csv)) == []
    assert csv.read_bytes() == (HERE / f"verify_seed{seed}.csv").read_bytes()
