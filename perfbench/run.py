"""polarolct benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload quad_smooth --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run starts `SETUP_REPEATS` fresh worker
processes, one at a time.  All but the last only set up (import, build the
seeded inputs, warm first-touch caches) and exit; the last sets up and then
runs the workload's op in a closed loop for `--seconds`, checking every
result against its oracle.  `setup_s` is the median of all set-ups, each
timed from process start to the worker's ready line.

With `--trace 0` the last line is the end-to-end result (op_s, setup_s,
peak_rss_mb).  With `--trace 1` the worker alternates untraced and traced
ops and the last line holds the per-layer metrics of the traced ones plus
`trace.overhead_ratio`.  Lines before it are a machine record and a
human-readable summary with every op's time and error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("quad_smooth", "quad_chirped", "zero_grid_recon", "verify")
SETUP_REPEATS = 5
DEADLINE_S = 170.0
READY = "READY"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("client", "setup", "measure"), default="client",
                   help=argparse.SUPPRESS)
    p.add_argument("--work-dir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# worker side
# --------------------------------------------------------------------------

def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _peak_rss_mb():
    import resource
    # ru_maxrss is in KiB on Linux; a verify op's memory is its child's
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _machine():
    import numpy as np
    blas = (np.__config__.CONFIG.get("Build Dependencies", {}).get("blas") or {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(np),
    }


def _blas_threads(np):
    # numpy wheels bundle OpenBLAS under a prefixed symbol name
    import ctypes
    import glob
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "default")


def worker(args) -> int:
    import traceback

    import workloads  # puts src/ on sys.path
    import tracer as tracing

    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed, args.work_dir)
    print(READY, flush=True)
    if args.role == "setup":
        return 0

    untraced, traced, errors = [], [], []
    span_sets = []  # one list of spans per traced op
    failed = 0
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        err = None
        try:
            if args.trace == 0 or i % 2 == 0:
                t0 = time.perf_counter()
                result = wl.op(state)
                untraced.append(time.perf_counter() - t0)
            elif wl.child_process:
                spans_path = os.path.join(args.work_dir, "spans-cli.json")
                command = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path]
                t0 = time.perf_counter()
                result = wl.op({**state, "command": command})
                traced.append(time.perf_counter() - t0)
                with open(spans_path, encoding="utf-8") as fh:
                    span_sets.append(json.load(fh))
            else:
                t = tracing.Tracer().install()
                try:
                    with t.root() as root:
                        result = wl.op(state)
                finally:
                    t.uninstall()
                traced.append(root[4] - root[3])
                span_sets.append(t.spans)
            err = wl.check(state, result)
        except Exception:  # an op that raises counts as failed; keep measuring
            traceback.print_exc()
        errors.append(err)
        if err is None or not err <= wl.tol:
            failed += 1
        i += 1
        # a traced run needs at least one op of each kind
        if time.perf_counter() >= deadline and (args.trace == 0 or i >= 2):
            break

    out = {
        "attempted": len(errors), "failed": failed, "errors": errors,
        "op_s_samples": untraced, "traced_op_s_samples": traced,
        "peak_rss_mb": _peak_rss_mb(), "machine": _machine(),
        "tol": wl.tol, "error_kind": wl.error_kind,
    }
    if args.trace == 1:
        layers = tracing.layer_metrics(span_sets, traced)
        layers["trace.overhead_ratio"] = (_median(traced) - _median(untraced)) / _median(untraced)
        out["layers"] = layers
        tracing.write_spans(span_sets, os.path.join(args.work_dir, "spans.json"))
    print(json.dumps(out), flush=True)
    return 0


# --------------------------------------------------------------------------
# client side
# --------------------------------------------------------------------------

def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _spawn(args, role, deadline):
    """Start a worker; return (seconds to its ready line, process)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--work-dir", args.work_dir]
    t0 = time.perf_counter()
    # own session, so that _stop also ends a verify op's CLI child
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    line = proc.stdout.readline().strip()
    setup = time.perf_counter() - t0
    if line != READY:
        _stop(proc)
        raise RuntimeError(f"{role} worker failed during set-up (exit {proc.returncode})")
    if time.perf_counter() > deadline:
        _stop(proc)
        raise RuntimeError("set-up overran the run deadline")
    return setup, proc


def _stop(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def client(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "polar_olct", "__init__.py")):
        print(f"perfbench: no polar_olct sources under {ROOT}/src", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
        "git_commit": _git_commit(), "clients": 1,
    }
    args.work_dir = os.path.join(ROOT, ".bench_build", "perfbench", f"{args.workload}-{args.seed}")
    os.makedirs(args.work_dir, exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S

    setups = []
    for _ in range(SETUP_REPEATS - 1):
        setup, proc = _spawn(args, "setup", deadline)
        proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError("setup worker failed")
        setups.append(setup)
    setup, proc = _spawn(args, "measure", deadline)
    setups.append(setup)
    try:
        remaining = deadline - time.perf_counter()
        out, _ = proc.communicate(timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise RuntimeError(f"worker still running after {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"measure worker exited with {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])

    record.update(res.pop("machine"))
    record["setup_s_samples"] = setups
    record["op_samples"] = len(res["op_s_samples"])
    record["traced_op_samples"] = len(res["traced_op_s_samples"])
    print("machine " + json.dumps(record))
    print("ops " + json.dumps({"op_s": res["op_s_samples"], "traced_op_s": res["traced_op_s_samples"],
                               res["error_kind"]: res["errors"], "tol": res["tol"]}))

    attempted, failed = res["attempted"], res["failed"]
    op_s = _median(res["op_s_samples"])
    setup_s = statistics.median(setups)
    finite = [e for e in res["errors"] if e is not None]
    print(f"{args.workload}: op_s {op_s:.4f} s (n={len(res['op_s_samples'])}), "
          f"setup_s {setup_s:.4f} s (n={len(setups)}), peak_rss_mb {res['peak_rss_mb']:.1f} MB, "
          f"fail_ratio {failed / attempted:.3f} ({failed}/{attempted}), "
          f"max {res['error_kind']} {max(finite) if finite else float('nan'):.3e} "
          f"(tol {res['tol']:.0e})")
    if args.trace == 0:
        metrics = {"op_s": (op_s, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (res["peak_rss_mb"], "MB")}
    else:
        metrics = {name: (value, _layer_unit(name)) for name, value in res["layers"].items()}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "client":
        return client(args)
    sys.path.insert(0, HERE)
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
