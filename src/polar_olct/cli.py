"""Command-line entry points.

    polar-olct zeros       --order 0 --count 20 --format csv
    polar-olct transform   --params p.txt --spectrum s.csv --out F.csv
    polar-olct synth       --spectrum s.csv --params p.txt --out f.csv
    polar-olct reconstruct --mode theorem2 --params p.txt --spectrum s.csv
    polar-olct verify      [--config c.txt] [--seed S] [--out report.csv]

`verify` is the one command that runs the three suites: it prints one line
per check, and `--out` writes the rows as CSV with a `.timings.csv` sidecar.
Exit status 0 means every asserted check passed; input the library rejects,
a file that cannot be opened, and a count or extent option that is not
positive, give one error line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import files, harness
from . import sampling as sp
from . import synthesis as sy
from . import transforms as tr
from .bessel import ZeroTable
from .params import _check_count, _check_positive


class _RefusedOption(Exception):
    # not a ValueError: argparse reports those from a type= as "invalid
    # value" and drops their message, while this one reaches main
    pass


def _checked(option: str, convert, check, **bounds):
    """An argparse type= for `option`: convert(text), which `check(option,
    value, **bounds)` must accept (_check_count, _check_positive or
    _check_msum); text that does not convert is argparse's own error."""
    def parse(text):
        value = convert(text)
        try:
            check(option, value, **bounds)
        except ValueError as exc:
            raise _RefusedOption(exc) from None
        return value

    parse.__name__ = convert.__name__
    return parse


def _check_msum(option: str, value: int) -> None:
    if value < -1:
        raise ValueError(f"{option} must be -1 (auto) or a non-negative integer, got {value!r}")


def _add_common(p):
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_zeros(args) -> int:
    table = ZeroTable.for_order(args.order, args.count)
    lines = ["j,z"] if args.format == "csv" else []
    for j, z in enumerate(table.zeros[: args.count], start=1):
        if args.format == "csv":
            lines.append(f"{j},{z:.15g}")
        else:
            lines.append(f"{j} {z:.15g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _load(args):
    params = files.read_params_file(args.params)
    spectrum = files.read_spectrum_csv(args.spectrum)
    return params, spectrum, sy.synthesize(spectrum, params)


def _cmd_transform(args) -> int:
    params, spectrum, field = _load(args)
    rho = np.linspace(args.rho_max / args.n_rho, args.rho_max, args.n_rho)
    grid = tr.PolarGrid(rho, args.n_phi)
    if args.route == "quadrature":
        result = tr.olct_forward(field, params, grid, r_max=args.r_max)
        values = result.values
    else:
        coeffs = {n: field.coefficients[n] for n in spectrum.coefficients}
        values = tr.olct_series(coeffs, params, grid, r_max=args.r_max).values
    RH, PH = np.meshgrid(grid.rho, grid.phi, indexing="ij")
    out = args.out or "transform.csv"
    files.write_transform_csv(out, RH, PH, values)
    print(f"wrote {RH.size} transform values to {out}")
    return 0


def _cmd_synth(args) -> int:
    _, _, field = _load(args)
    r = np.linspace(0.0, args.r_max, args.n_r)
    theta = np.linspace(-np.pi, np.pi, args.n_theta, endpoint=False)
    R, TH = np.meshgrid(r, theta, indexing="ij")
    out = args.out or "field.csv"
    files.write_field_csv(out, R, TH, field.evaluate(R, TH))
    print(f"wrote {R.size} field values to {out}")
    return 0


def _probe_counts(text: str) -> tuple:
    # --probes NRxNT: two positive integers
    parts = text.split("x")
    if len(parts) != 2 or not all(p.isdecimal() and int(p) > 0 for p in parts):
        raise ValueError(f"--probes needs NRxNT, two positive integers, got {text!r}")
    return int(parts[0]), int(parts[1])


def _grid_order(args, spectrum) -> int:
    # --order, which a fixed-order spectrum sets by default and must match
    if spectrum.order_map != "fixed":
        return args.order or 0
    if args.order not in (None, spectrum.fixed_order):
        raise ValueError(f"--order {args.order} differs from the spectrum's fixed_order "
                         f"{spectrum.fixed_order}")
    return spectrum.fixed_order


def _cmd_reconstruct(args) -> int:
    nr, nt = _probe_counts(args.probes)
    params, spectrum, field = _load(args)
    omega = spectrum.omega
    k_max = spectrum.k_max
    order = _grid_order(args, spectrum)
    m_sum = args.msum if args.msum >= 0 else sp.default_m_sum(params, omega, 10.0)
    if args.mode in ("theorem1", "theorem2"):
        grid = (sp.SampleGrid.theorem1(params, omega, k_max, args.zeros)
                if args.mode == "theorem1" else
                sp.SampleGrid.theorem2(params, omega, k_max, args.zeros, order=order))
        samples = sp.sample_field(field, grid)
        r_hi = 0.9 * float(min(grid.alphas(w)[-1] for w in grid.zeros))
        r = np.linspace(0.05 * r_hi, r_hi, nr)
        theta = np.linspace(-np.pi, np.pi, nt, endpoint=False)
        R, TH = np.meshgrid(r, theta, indexing="ij")
        recon = sp.reconstruct_field(samples, args.mode, params, m_sum, R, TH)
        truth = field.evaluate(R, TH)
    else:
        grid = (sp.SampleGrid.corollary1(params, args.support_radius, k_max, omega)
                if args.mode == "corollary1" else
                sp.SampleGrid.corollary2(params, args.support_radius, k_max, omega,
                                         order=order))
        samples = sp.sample_field(field.spectrum_values, grid)
        rho = np.linspace(0.02 * omega, 0.9 * omega, nr)
        theta = np.linspace(-np.pi, np.pi, nt, endpoint=False)
        TH, R = np.meshgrid(theta, rho)
        recon = sp.reconstruct_spectrum(samples, args.mode, params, m_sum, R, TH)
        truth = field.spectrum_values(R, TH)
    err = np.abs(recon - truth)
    out = args.out or "report.csv"
    lines = ["r,theta,Re(true),Im(true),Re(recon),Im(recon),abs_err"]
    for rv, tv, tru, rec, ev in zip(R.ravel(), TH.ravel(), truth.ravel(),
                                    recon.ravel(), err.ravel()):
        lines.append(",".join([f"{rv:.15g}", f"{tv:.15g}",
                               f"{tru.real:.15g}", f"{tru.imag:.15g}",
                               f"{rec.real:.15g}", f"{rec.imag:.15g}",
                               f"{ev:.15g}"]))
    _emit("\n".join(lines) + "\n", out)
    scale = float(np.max(np.abs(truth))) or 1.0
    print(f"mode={args.mode} samples={samples.total_count} "
          f"max_abs_err={float(np.max(err)):.3e} max_rel_err={float(np.max(err)) / scale:.3e}")
    return 0


def _merged(config):
    # the three suites as one result whose check and timing names carry
    # their suite's name
    merged = harness.SweepResult(config.seed)
    for name, run in (("reduction", harness.run_reduction_suite),
                      ("complexity", harness.run_complexity_sweep),
                      ("offsets", harness.run_offset_investigation)):
        res = run(config)
        for row in res.rows:
            merged.rows.append({**row, "check": f"{name}.{row['check']}"})
        merged.timings.extend((f"{name}.{n}", s) for n, s in res.timings)
    return merged


def _cmd_verify(args) -> int:
    config = _config_from_args(args)
    merged = _merged(config)
    for row in merged.rows:
        status = "pass" if row["passed"] else "FAIL"
        print(f"[{status}] {row['check']}: {row['value']:.3e} {row['note']}")
    if args.out:
        harness.emit_report(merged, args.out)
    failures = len(merged.failures())
    print(f"verify: {failures} failing checks")
    return 0 if failures == 0 else 1


def _config_from_args(args):
    if args.config:
        config = harness.ExperimentConfig.from_file(args.config)
    else:
        config = harness.ExperimentConfig()
    if args.seed is not None:
        config = harness.ExperimentConfig(**{**config.__dict__, "seed": args.seed})
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="polar-olct", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeros", help="positive zeros of the order-v Bessel function")
    p.add_argument("--order", type=float, default=0.0)
    p.add_argument("--count", type=_checked("--count", int, _check_count), default=10)
    p.add_argument("--format", choices=("csv", "plain"), default="csv")
    _add_common(p)
    p.set_defaults(fn=_cmd_zeros)

    p = sub.add_parser("transform", help="forward transform of a synthesized field")
    p.add_argument("--params", required=True)
    p.add_argument("--spectrum", required=True)
    p.add_argument("--rho-max", type=_checked("--rho-max", float, _check_positive), default=1.05)
    p.add_argument("--n-rho", type=_checked("--n-rho", int, _check_count), default=16)
    p.add_argument("--n-phi", type=_checked("--n-phi", int, _check_count), default=16)
    p.add_argument("--r-max", type=_checked("--r-max", float, _check_positive), default=40.0)
    p.add_argument("--route", choices=("quadrature", "order_n"), default="quadrature")
    _add_common(p)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("synth", help="materialize a synthesized field to CSV")
    p.add_argument("--params", required=True)
    p.add_argument("--spectrum", required=True)
    p.add_argument("--r-max", type=_checked("--r-max", float, _check_positive), default=10.0)
    p.add_argument("--n-r", type=_checked("--n-r", int, _check_count), default=64)
    p.add_argument("--n-theta", type=_checked("--n-theta", int, _check_count), default=32)
    _add_common(p)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("reconstruct", help="sample a synthesized field and reconstruct")
    p.add_argument("--mode", required=True,
                   choices=("theorem1", "theorem2", "corollary1", "corollary2"))
    p.add_argument("--params", required=True)
    p.add_argument("--spectrum", required=True)
    p.add_argument("--zeros", type=_checked("--zeros", int, _check_count), default=10, metavar="N",
                   help="grid resolution (N^2 zeros per order)")
    p.add_argument("--msum", type=_checked("--msum", int, _check_msum), default=-1,
                   help="side-order truncation; -1 = auto")
    p.add_argument("--order", type=_checked("--order", int, _check_count, least=0), default=None,
                   help="fixed order for theorem2/corollary2 (default: a fixed-order "
                        "spectrum's own, else 0)")
    p.add_argument("--probes", default="20x20")
    p.add_argument("--support-radius", type=_checked("--support-radius", float, _check_positive),
                   default=400.0)
    _add_common(p)
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("verify", help="run all suites; exit 0 iff all pass")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV report path (default: none)")
    p.set_defaults(fn=_cmd_verify)

    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ValueError, OSError, _RefusedOption) as exc:
        # rejected input or an unopenable file is a usage error, as argparse has it
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
