"""The library surface the benchmark calls, run through its own files.

perfbench/workloads.py and perfbench/tracer.py are imported as they are.
Each in-process workload runs its setup, one op and its oracle check, once
plain and once with the tracer's wrappers installed; the `verify` workload
runs one op, a cold CLI process, and then its argv once in process under
the tracer.  So a change that breaks a name, a signature, an input form or
a CLI option the benchmark relies on fails here rather than in a benchmark
run.
"""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    module_name = f"perfbench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[module_name]


@pytest.mark.parametrize("name", ["quad_smooth", "quad_chirped", "zero_grid_recon"])
def test_workload_runs_plain_and_traced(name, tmp_path):
    workload = _load("workloads").WORKLOADS[name]
    state = workload.setup(1, str(tmp_path))
    assert workload.check(state, workload.op(state)) <= workload.tol
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        with tracer.root():
            result = workload.op(state)
    finally:
        tracer.uninstall()
    assert workload.check(state, result) <= workload.tol
    assert len(tracer.spans) > 1


def test_verify_workload_runs_plain_and_traced(tmp_path):
    # one cold `polar-olct verify` process, then the same argv in process
    # under the tracer, as perfbench/traced_cli.py runs it
    from polar_olct import cli

    workload = _load("workloads").WORKLOADS["verify"]
    state = workload.setup(1, str(tmp_path))
    assert workload.check(state, workload.op(state)) == 0
    tracer = _load("tracer").Tracer().install()
    try:
        code = cli.main(state["argv"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert len(tracer.spans) > 1
