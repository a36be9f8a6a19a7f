"""Known-answer verdict benchmark for bialgebra-forge.

    python3 perfbench/run.py --workload deep|wide|session --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, so nothing needs installing. A single process runs CLI jobs
in-process through `bialgebra_forge.cli.main`, one at a time (closed
loop, one client), in whole passes until S seconds have been measured.
Every job's exit code and report are scored against a known answer
(see workloads.py).

--trace 0 prints the end-to-end metrics. Their times are in reference
seconds: wall time corrected for the host's momentary speed, which a
probe samples every 10 ms while each job runs (see speedclock.py). --trace 1 alternates untraced
and traced passes and prints the per-layer metrics (per traced pass)
from the outside-in tracer in tracer.py, plus the tracing overhead. The
spans of the traced passes are written to
.perfbench_out/<workload>-seed<N>.spans.jsonl.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up is repeated until both minimums are met; its median is reported
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0


def _import_package():
    src = ROOT / "src"
    if not (src / "bialgebra_forge" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import bialgebra_forge
    import bialgebra_forge.cli
    if Path(bialgebra_forge.__file__).resolve().parent != (src / "bialgebra_forge").resolve():
        raise SystemExit(f"error: imported {bialgebra_forge.__file__}, not the checkout's copy")
    return bialgebra_forge


class Runner:
    def __init__(self, bf, workload, tracer=None, clock=None):
        self.bf = bf
        self.workload = workload
        self.tracer = tracer
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.correct = 0
        self.job_seconds = []           # untraced jobs, reference seconds
        self.job_wall_seconds = []      # the same jobs, wall seconds
        self.completed = 0              # untraced jobs that exited 0 or 1
        self.pass_seconds = {False: [], True: []}
        self.recorded = {}              # job name -> extras seen
        self._scored = {}

    def run_job(self, job, traced):
        """(exit code, stdout, stderr, wall seconds, reference seconds);
        reference seconds equal wall seconds unless the speed clock is on."""
        out, err = io.StringIO(), io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return self.bf.cli.main(job.argv)
            except Exception:  # a job that raises is counted as failed
                print(f"job {job.name} raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                return None

        gc.collect()
        if traced:
            self.tracer.begin_job(f"{job.name}#{self.attempted}")
        if self.clock is not None and not traced:
            code, wall, ref = self.clock.time(call)
        else:
            start = time.perf_counter()
            code = call()
            wall = ref = time.perf_counter() - start
        if traced:
            self.tracer.end_job()
        return code, out.getvalue(), err.getvalue(), wall, ref

    def score(self, job, code, out, err):
        self.attempted += 1
        if code not in (0, 1):
            self.failed += 1
            print(f"job {job.name} exited {code}: {err.strip()[:500]}", file=sys.stderr)
            return
        # reports are deterministic, so an output scored once keeps its score
        key = (job.name, code, out)
        if key not in self._scored:
            try:
                self._scored[key] = job.score(code, out)
            except (ValueError, KeyError, TypeError) as exc:
                print(f"job {job.name}: unreadable output ({exc})", file=sys.stderr)
                self._scored[key] = (False, {})
        ok, extras = self._scored[key]
        if ok:
            self.correct += 1
        else:
            print(f"job {job.name}: verdict differs from the known answer", file=sys.stderr)
        if extras:
            self.recorded.setdefault(job.name, extras)

    def run_pass(self, index, traced):
        jobs = self.workload.jobs(index)
        if traced:
            self.tracer.install()
        try:
            results = [self.run_job(job, traced) for job in jobs]
        finally:
            if traced:
                self.tracer.uninstall()
        self.pass_seconds[traced].append(sum(r[3] for r in results))
        for job, (code, out, err, wall, ref) in zip(jobs, results):
            self.score(job, code, out, err)
            if not traced:
                self.job_seconds.append(ref)
                self.job_wall_seconds.append(wall)
                self.completed += code in (0, 1)

    def measure(self, seconds, trace):
        """Whole passes until `seconds` have gone by; with tracing, passes
        alternate untraced/traced and the run ends on a traced one."""
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            traced = trace and index % 2 == 1
            self.run_pass(index, traced)
            index += 1
            if time.perf_counter() >= deadline and (traced or not trace):
                break


def _setup_seconds(workload, clock):
    """Median set-up time, in reference seconds when a clock is given."""
    walls, times = [], []
    while len(walls) < SETUP_REPEATS or sum(walls) < SETUP_SECONDS:
        gc.collect()
        if clock is not None:
            _, wall, ref = clock.time(workload.setup_once)
        else:
            start = time.perf_counter()
            workload.setup_once()
            wall = ref = time.perf_counter() - start
        walls.append(wall)
        times.append(ref)
    return statistics.median(times)


def _tail(samples):
    """Highest percentile with at least ten samples beyond it (never
    below the median): (value, percentile, sample count)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n - 10 <= n / 2:
        return statistics.median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(runner, setup_s):
    from speedclock import REFERENCE_PROBE_S
    value, pct, n = _tail(runner.job_seconds)
    print(f"verdict_s_tail is p{pct:.1f} of {n} untraced jobs")
    print(f"uncorrected wall time: verdict_s {statistics.median(runner.job_wall_seconds):.6f} s;"
          f" median probe {runner.clock.median_probe_s() * 1e3:.4f} ms"
          f" (reference {REFERENCE_PROBE_S * 1e3:g} ms)")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "verdict_s": (statistics.median(runner.job_seconds), "s"),
        "verdict_s_tail": (value, "s"),
        "verdicts_per_s": (runner.completed / sum(runner.job_seconds), "1/s"),
        "setup_s": (setup_s, "s"),
        "verdict_correct_ratio": (runner.correct / runner.attempted, "ratio"),
        "completed_ratio": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bf = _import_package()
    from speedclock import SpeedClock
    from tracer import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](bf, args.seed, work)
        # the traced run reports raw wall times: probes inside its spans
        # would be charged to the layers
        clock = None if args.trace else SpeedClock()
        setup_s = _setup_seconds(workload, clock)
        tracer = Tracer(bf) if args.trace else None
        runner = Runner(bf, workload, tracer, clock)
        runner.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, extras in sorted(runner.recorded.items()):
        print(f"recorded (not scored) {name}: {json.dumps(extras, sort_keys=True)}")
    if args.trace:
        metrics = tracer.metrics(len(runner.pass_seconds[True]))
        overhead = (statistics.median(runner.pass_seconds[True])
                    - statistics.median(runner.pass_seconds[False]))
        metrics["trace.overhead_s"] = (overhead, "s")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        metrics = end_to_end(runner, setup_s)
    result = {
        "correct": runner.failed == 0 and runner.correct == runner.attempted,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
