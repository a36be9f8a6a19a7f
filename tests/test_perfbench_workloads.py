"""Smoke test for the benchmark's workloads (perfbench/workloads.py).

The workloads drive the CLI and read parts of the library API
(`Document.make_context(slack=...)`, the `slack` key of a document's
settings, boundary fixtures); a change there can break the benchmark
without failing any other test. Here the `session` workload's jobs run
once each and must match their known answers, and the set-up of `deep`
and `wide` must run. The benchmark's own set-up timing loop is skipped.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import bialgebra_forge as bf
from bialgebra_forge.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads_module(monkeypatch):
    # workloads.py imports its sibling widegen.py by plain name
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_workloads_score_their_known_answers(monkeypatch, tmp_path):
    workloads = _load_workloads_module(monkeypatch).WORKLOADS
    session = workloads["session"](bf, 0, tmp_path)
    jobs = session.jobs(0)
    assert jobs
    for job in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(job.argv))
        ok, _ = job.score(code, out.getvalue())
        assert ok, (job.name, code)
    for name in ("deep", "wide"):
        workloads[name](bf, 0, tmp_path).setup_once()
