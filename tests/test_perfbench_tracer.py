"""Smoke test for the benchmark's outside-in tracer (perfbench/tracer.py).

The tracer patches the package's functions by name, so a renamed or
merged function can break the traced benchmark run without touching any
other test. Here it is installed in process, traces three short CLI runs,
must report every per-layer metric that BENCHMARK.json declares, and
must restore everything it patched. A traced order-8 run must count as
many rewrite steps as the kernel makes bracket lookups.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import bialgebra_forge as bf
from bialgebra_forge.cli import main

from conftest import rewrite_steps

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reports_every_declared_layer_metric():
    tracer = _load_tracer_module().Tracer(bf)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["hopf", "all", "@corrected", "--order", "3"]) == 0
            assert main(["check", "four-pairs", "@corrected", "--order", "3"]) == 0
            # family's pencils make the only ParamPoly products left at run time
            assert main(["family", "@corrected", "--order", "3"]) == 0
    finally:
        tracer.uninstall()

    for owner, attr, original, _ in tracer._patches:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} left patched"

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in declared["per_layer"]} - {"trace.overhead_s"}
    metrics = tracer.metrics(1)
    assert names <= set(metrics), sorted(names - set(metrics))
    for name in ("rewrite.nf_calls", "hopf.cop_calls", "params.mul_calls"):
        assert metrics[name][0] > 0, name
    # the tracer reads a third positional argument of normal_form_word as
    # a strategy and counts no cache lookup for such a call
    assert metrics["rewrite.nf_hit_ratio"][0] > 0


def test_traced_rewrite_steps_are_the_kernel_lookups():
    # rewrite.steps counts the bracket lookups that normal_form_word makes;
    # a kernel that stopped making one per step would leave it stale
    argv = ["hopf", "all", "@corrected", "--order", "8", "--cap", "16"]
    tracer = _load_tracer_module().Tracer(bf)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 1
    finally:
        tracer.uninstall()
    steps = tracer.metrics(1)["rewrite.steps"][0]
    assert steps > 0
    assert steps == rewrite_steps(argv)[1]
