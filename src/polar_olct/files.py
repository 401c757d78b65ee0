"""Flat-file formats: parameter files, spectrum CSVs, field/report CSVs.

Everything is plain text with '#' comments, written with fixed significant
digits so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import numpy as np

from .params import OffsetParams
from .synthesis import FourierBesselSpectrum

__all__ = [
    "parse_keyvalue",
    "read_params_file",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "write_field_csv",
    "write_transform_csv",
]

_FLOAT_FMT = "{:.15g}"
_PARAMS_KEYS = ("a", "b", "c", "d", "tau1", "tau2", "eta1", "eta2")


def parse_keyvalue(text: str) -> dict:
    """key = value lines; '#' starts a comment; later keys win."""
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def read_params_file(path) -> OffsetParams:
    """Parameter file with keys a, b, c, d, tau1, tau2, eta1, eta2; any other
    key raises ValueError, so a misspelt one is not silently ignored."""
    with open(path, "r", encoding="utf-8") as fh:
        kv = parse_keyvalue(fh.read())
    unknown = sorted(set(kv) - set(_PARAMS_KEYS))
    if unknown:
        raise ValueError(f"unknown params key(s) {unknown}; expected {', '.join(_PARAMS_KEYS)}")
    def f(key, default=0.0):
        return float(kv.get(key, default))
    return OffsetParams(f("a"), f("b", 1.0), f("c"), f("d"),
                        (f("tau1"), f("tau2")), (f("eta1"), f("eta2")))


def write_spectrum_csv(path, spectrum: FourierBesselSpectrum) -> None:
    """First data line holds omega,K (and the order map); the remaining rows
    are n,j,Re(eps),Im(eps) with j starting at 1."""
    lines = ["# omega,K,order_map,fixed_order"]
    lines.append(",".join([
        _FLOAT_FMT.format(spectrum.omega), str(spectrum.k_max),
        spectrum.order_map, str(spectrum.fixed_order)]))
    lines.append("# n,j,Re(eps),Im(eps)")
    for n in sorted(spectrum.coefficients):
        eps = spectrum.coefficients[n]
        for j, e in enumerate(eps, start=1):
            lines.append(",".join([str(n), str(j),
                                   _FLOAT_FMT.format(e.real),
                                   _FLOAT_FMT.format(e.imag)]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_spectrum_csv(path) -> FourierBesselSpectrum:
    """The write_spectrum_csv format.  An empty file, a header without
    omega,K, a field that does not parse, or a coefficient row without 4
    fields, with j < 1 or with a repeated (n, j), raises ValueError naming
    the line."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [(i, ln.split("#", 1)[0].strip()) for i, ln in enumerate(fh, start=1)]
    rows = [(i, r) for i, r in rows if r]
    if not rows:
        raise ValueError(f"{path}: no header line omega,K")
    head = rows[0][1].split(",")
    if not 2 <= len(head) <= 4:
        raise ValueError(f"{path}:{rows[0][0]}: need the header omega,K[,order_map,fixed_order], "
                         f"got {rows[0][1]!r}")
    omega, k_max, *rest = _parsed(path, *rows[0], (float, int, str, int))
    order_map = rest[0] if rest else "per_order"
    fixed_order = rest[1] if len(rest) > 1 else 0
    entries: dict[int, dict[int, complex]] = {}
    for i, row in rows[1:]:
        if len(row.split(",")) != 4:
            raise ValueError(f"{path}:{i}: need the 4 fields n,j,Re(eps),Im(eps), got {row!r}")
        n, j, re, im = _parsed(path, i, row, (int, int, float, float))
        by_j = entries.setdefault(n, {})
        if j < 1 or j in by_j:
            why = "j must be >= 1" if j < 1 else f"repeated (n, j) = ({n}, {j})"
            raise ValueError(f"{path}:{i}: {why}, got {row!r}")
        by_j[j] = re + 1j * im
    coeffs = {}
    for n, by_j in entries.items():
        j_top = max(by_j)
        arr = np.zeros(j_top, dtype=complex)
        for j, e in by_j.items():
            arr[j - 1] = e
        coeffs[n] = arr
    return FourierBesselSpectrum(omega, k_max, coeffs, order_map, fixed_order)


def _parsed(path, line: int, row: str, kinds) -> list:
    # the comma-separated fields of `row` converted by `kinds`, or a
    # ValueError naming the file and line
    try:
        return [kind(f) for kind, f in zip(kinds, row.split(","))]
    except ValueError as exc:
        raise ValueError(f"{path}:{line}: {exc}, in {row!r}") from None


def _grid_lines(header, cols):
    lines = [header]
    n = len(cols[0])
    for i in range(n):
        lines.append(",".join(_FLOAT_FMT.format(c[i]) for c in cols))
    return lines


def write_field_csv(path, r, theta, values) -> None:
    r = np.asarray(r, float).ravel()
    theta = np.asarray(theta, float).ravel()
    values = np.asarray(values, complex).ravel()
    lines = _grid_lines("r,theta,Re(f),Im(f)", [r, theta, values.real, values.imag])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_transform_csv(path, rho, phi, values) -> None:
    rho = np.asarray(rho, float).ravel()
    phi = np.asarray(phi, float).ravel()
    values = np.asarray(values, complex).ravel()
    lines = _grid_lines("rho,phi,Re(F),Im(F)", [rho, phi, values.real, values.imag])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
