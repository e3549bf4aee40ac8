"""mcmrep benchmark: the ideals, census and decide workloads.

    python3 perfbench/run.py --workload {ideals,census,decide} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src``.
One workload runs per process, single-threaded.  Set-up (import, algebra
construction, input generation) runs several times and its median is
``setup_s``.  The workload's job list then runs once, and its jobs repeat
while each is expected to end within ``--seconds`` of the start.  Every
answer is checked against an oracle; a job that raises counts as failed, a
job whose answer disagrees counts as wrong, and neither stops the run.

End-to-end times are calibrated: a fixed reference loop is timed around
and during each job, and the job's time is scaled to a machine that runs
that loop in REFERENCE_S (see ``Clock``).  A job's time is its median over
its runs; wall_s is the sum of those times, and the percentiles are taken
over them.  Per-layer times are not calibrated.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the untraced runs take half of ``--seconds`` and are followed
by one traced pass over every job; the last line reports the per-layer
metrics, and the spans are written to ``perfbench/out/``.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import statistics
import sys
import traceback
from time import perf_counter

import census
import decide
import ideals
import loader
import tracer

WORKLOADS = {"ideals": ideals, "census": census, "decide": decide}
SETUP_REPS = 5
# Nominal time of one reference_loop(): calibrated times are seconds on a
# machine that runs the loop in this long.
REFERENCE_S = 0.0005
# How often the reference loop is sampled while a job runs.
SAMPLE_INTERVAL_S = 0.02

END_TO_END_UNITS = {
    "wall_s": "s",
    "max_job_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def reference_loop():
    """Fixed pure-Python work of the program's kind: tuple keys, dict
    stores and integer arithmetic."""
    table = {}
    acc = 0
    for i in range(2000):
        key = (i % 17, i % 5, i)
        table[key] = (i * 7919) % 32003
        acc += table[key]
    return acc


def time_reference():
    """Seconds one reference_loop() takes.  The cyclic collector is held
    off, so that a collection the program's heap owes does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Calibrated timing.

    Other tenants of a shared machine slow all Python code down by up to
    half, and the slowdown changes within a second.  The reference loop is
    timed before and after every measured call and, while ``sampling``, from
    a SIGALRM handler every SAMPLE_INTERVAL_S during it.  A call's time,
    less the time spent in the handler, is scaled to a machine that runs the
    loop in REFERENCE_S, using the mean loop time sampled across the call:
    the mean, because the call's time is the integral of the slowdown.
    """

    def __init__(self):
        self.refs = []
        self.stolen = 0.0
        self._in_handler = False

    def reference(self):
        stolen = self.stolen
        elapsed = time_reference()
        self.refs.append(elapsed - (self.stolen - stolen))

    def _on_alarm(self, signum, frame):
        if self._in_handler:
            return
        self._in_handler = True
        t0 = perf_counter()
        self.refs.append(time_reference())
        self.stolen += perf_counter() - t0
        self._in_handler = False

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def call(self, fn):
        """Run ``fn()`` between two reference samples; returns (result,
        exception, seconds, calibrated seconds)."""
        if not self.refs:
            self.reference()
        first = len(self.refs) - 1
        result = error = None
        stolen = self.stolen
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as exc:
            error = exc
        elapsed = perf_counter() - t0 - (self.stolen - stolen)
        self.reference()
        ref = statistics.fmean(self.refs[first:])
        return result, error, elapsed, elapsed * REFERENCE_S / ref


class Outcome:
    """Per-job calibrated times and answer tallies over the runs of one workload."""

    def __init__(self, jobs, clock):
        self.jobs = jobs
        self.clock = clock
        self.times = [[] for _ in jobs]
        self.seconds = [[] for _ in jobs]
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.known_defect_wrong = 0
        self.reported = set()

    def run_pass(self, trace=None, deadline=None):
        """Run every job once, except, given a ``deadline``, the jobs not
        expected to end by then.  Returns (jobs run, sum of their
        uncalibrated times)."""
        ran = 0
        wall = 0.0
        for i, job in enumerate(self.jobs):
            if deadline is not None and (
                    perf_counter() + statistics.median(self.seconds[i]) > deadline):
                continue
            if trace is not None:
                trace.job = i
            start = perf_counter()
            answer, error, elapsed, calibrated = self.clock.call(job.run)
            self.seconds[i].append(perf_counter() - start)
            if error is not None:
                self.failed += 1
                if job.name not in self.reported:
                    self.reported.add(job.name)
                    print(f"job failed: {job.name}", file=sys.stderr)
                    traceback.print_exception(error)
            elif not job.check(answer):
                self.wrong += 1
                if getattr(job, "known_defect", False):
                    self.known_defect_wrong += 1
                elif job.name not in self.reported:
                    self.reported.add(job.name)
                    print(f"wrong answer: {job.name}: {answer!r}", file=sys.stderr)
            self.attempted += 1
            self.times[i].append(calibrated)
            ran += 1
            wall += elapsed
        if trace is not None:
            trace.job = -1
        return ran, wall

    @property
    def correct(self):
        """No job failed, and every wrong answer is a known defect."""
        return self.failed == 0 and self.wrong == self.known_defect_wrong

    def job_times(self):
        """Each job's median calibrated time."""
        return [statistics.median(t) for t in self.times]


def run_for(outcome, seconds):
    """One pass over every job, then passes over the jobs expected to end
    within ``seconds`` of the start, until a pass runs none of them.  A
    job too long to repeat does not keep the rest from repeating."""
    deadline = perf_counter() + seconds
    with outcome.clock.sampling():
        outcome.run_pass()
        while outcome.run_pass(deadline=deadline)[0]:
            pass


def end_to_end(outcome, setup_times):
    per_job = outcome.job_times()
    deciles = statistics.quantiles(per_job, n=10, method="inclusive")
    values = {
        "wall_s": sum(per_job),
        "max_job_s": max(per_job),
        "job_p50_ms": 1000 * statistics.median(per_job),
        "job_p90_ms": 1000 * deciles[8],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(outcome, mc, workload, seed, seconds):
    """Untraced runs for half the time, then one traced pass; returns
    (metrics, spans_ok).  The traced pass runs without the clock's handler,
    which would land inside spans.  The overhead is the traced pass's
    calibrated time minus the untraced calibrated wall_s."""
    run_for(outcome, seconds / 2)
    untraced = sum(outcome.job_times())
    trace = tracer.Tracer()
    trace.install(mc)
    try:
        _, traced = outcome.run_pass(trace)
    finally:
        trace.uninstall()
    overhead = sum(t[-1] for t in outcome.times) - untraced
    values, self_sum = trace.metrics(traced, overhead)
    spans_ok = self_sum <= traced
    if not spans_ok:
        print(f"self times sum to {self_sum:.6f} s, more than the traced wall {traced:.6f} s",
              file=sys.stderr)
    trace.write_spans(
        os.path.join(loader.OUT, f"spans-{workload}-{seed}.tsv.gz"),
        [job.name for job in outcome.jobs],
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracer.metric_specs()}
    return metrics, spans_ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    def set_up():
        mc = loader.load()
        return mc, workload.setup(mc, args.seed)

    clock = Clock()
    setup_times = []
    with clock.sampling():
        for _ in range(SETUP_REPS):
            result, error, _, calibrated = clock.call(set_up)
            if isinstance(error, loader.MissingProgramError):
                print(f"error: {error}", file=sys.stderr)
                return 2
            if error is not None:
                raise error
            setup_times.append(calibrated)
    mc, jobs = result

    outcome = Outcome(jobs, clock)
    spans_ok = True
    if args.trace:
        metrics, spans_ok = per_layer(outcome, mc, args.workload, args.seed, args.seconds)
    else:
        run_for(outcome, args.seconds)
        metrics = end_to_end(outcome, setup_times)

    n = outcome.attempted
    counts = [len(t) for t in outcome.times]
    print(
        f"{args.workload} seed {args.seed}: {len(jobs)} jobs, each run "
        f"{min(counts)} to {max(counts)} times (percentiles over {len(jobs)} per-job times); "
        f"fail_ratio {outcome.failed / n:.6f} ({outcome.failed}/{n}), "
        f"wrong_ratio {outcome.wrong / n:.6f} ({outcome.wrong}/{n}), "
        f"of which known defects {outcome.known_defect_wrong}/{n}"
    )
    print(json.dumps({
        "correct": outcome.correct and spans_ok,
        "attempted": n,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
