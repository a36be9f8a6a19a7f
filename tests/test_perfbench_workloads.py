"""Smoke test for the benchmark's workloads (perfbench/workloads.py).

The workloads drive the CLI and read parts of the library API
(`Document.make_context(slack=...)`, the `slack` key of a document's
settings, boundary fixtures); a change there can break the benchmark
without failing any other test. Here the `session` workload's jobs run
once each, as do the order-8 job of `deep` and one job of `wide`, and
each must match its known answer; the set-up of `deep` and `wide` must
run too. The benchmark's own set-up timing loop is skipped.
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


def _score(job):
    """Whether job's exit code and report match its known answer, and the
    exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(job.argv))
    ok, _ = job.score(code, out.getvalue())
    return ok, code


def test_workloads_score_their_known_answers(monkeypatch, tmp_path):
    workloads = _load_workloads_module(monkeypatch).WORKLOADS
    session = workloads["session"](bf, 0, tmp_path)
    jobs = session.jobs(0)
    assert jobs
    for job in jobs:
        ok, code = _score(job)
        assert ok, (job.name, code)
    for name in ("deep", "wide"):
        workloads[name](bf, 0, tmp_path).setup_once()


def test_a_deep_and_a_wide_job_score_their_known_answers(monkeypatch, tmp_path):
    # deep's order-8 job FAILs presentation-Jacobi (exit 1); the wide
    # document passes every check (exit 0)
    workloads = _load_workloads_module(monkeypatch).WORKLOADS
    [deep] = [job for job in workloads["deep"](bf, 0, tmp_path).jobs(0)
              if job.name == "hopf-all-order8"]
    [wide] = workloads["wide"](bf, 0, tmp_path).jobs(0)
    assert _score(deep) == (True, 1)
    assert _score(wide) == (True, 0)
