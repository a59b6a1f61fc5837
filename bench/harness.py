"""Closed-loop job runner and the statistics the benchmark reports.

One client in one process and one thread runs one job at a time, so no
layer ever queues work. A job's latency is the time of its calls into the
kernel; its output is checked against the known answer after the round,
outside any timing. A round is one pass over a workload's jobs; the run
repeats rounds, each with fresh inputs, until the next round would end
past the time budget.

A shared machine's speed drifts by tens of percent over seconds to
minutes, which no averaging inside one run removes. So the run also times
a fixed pure-Python reference loop that never calls the kernel, between
jobs every PROBE_EVERY seconds, and scales each time it measured by
REFERENCE_SECONDS over the median loop time within PROBE_WINDOW seconds of
it: the figures are seconds on a machine where the loop takes
REFERENCE_SECONDS.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

REFERENCE_SECONDS = 0.009
PROBE_EVERY = 0.25
PROBE_WINDOW = 2.0


@dataclass(frozen=True)
class _Pair:
    a: object
    b: object


def reference_loop() -> float:
    """Seconds one pass of the reference loop takes: small frozen objects
    built recursively, hashed and stored, as the kernel's own work does.
    The collector is off meanwhile, so the kernel's heap cannot slow it."""
    def chain(d):
        return d if d == 0 else _Pair(chain(d - 1), d)

    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        seen: dict = {}
        for i in range(300):
            seen[chain(20)] = i
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Times the reference loop at most every PROBE_EVERY seconds."""

    def __init__(self):
        self.times: list[float] = []  # when each sample ended
        self.samples: list[float] = []

    def sample(self):
        self.samples.append(reference_loop())
        self.times.append(time.perf_counter())

    def maybe(self):
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY:
            self.sample()

    def scale(self, start: float, stop: float | None = None) -> float:
        """Multiplier from seconds measured between `start` and `stop` to
        reference seconds, from the samples within PROBE_WINDOW of that
        span, or the three nearest when fewer are."""
        stop = start if stop is None else stop
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW)
        hi = bisect.bisect_right(self.times, stop + PROBE_WINDOW)
        near = self.samples[lo:hi]
        if len(near) < 3:
            order = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - start))
            near = [self.samples[i] for i in order[:3]]
        return REFERENCE_SECONDS / statistics.median(near)


@dataclass
class Job:
    id: str  # unique within its round
    input: str  # printable input, for listings and the determinism test
    run: Callable[[], object]
    # None when the output is the known answer, else what differs; gets the
    # round's outputs by job id for checks that compare two jobs
    check: Callable[[object, dict], str | None]


@dataclass
class RoundResult:
    latencies: list[float]
    ends: list[float]  # perf_counter when each job ended
    wrong: list[tuple[str, str, str]]  # (job id, input, what differs)
    failed: list[tuple[str, str, str]]  # (job id, input, exception)
    layer: dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    def scaled(self, probe: SpeedProbe) -> list[float]:
        """Job latencies in reference seconds."""
        return [lat * probe.scale(end - lat, end) for lat, end in zip(self.latencies, self.ends)]


def run_round(jobs: list[Job], tracer=None, probe: SpeedProbe | None = None) -> RoundResult:
    outputs: dict[str, object] = {}
    latencies: list[float] = []
    ends: list[float] = []
    failed = []
    for job in jobs:
        span = tracer.begin_job(job.id) if tracer is not None else None
        started = time.perf_counter()
        try:
            outputs[job.id] = job.run()
        except Exception as e:  # a raised job is counted, never fatal
            failed.append((job.id, job.input, f"{type(e).__name__}: {e}"))
        ends.append(time.perf_counter())
        latencies.append(ends[-1] - started)
        if span is not None:
            tracer.end_job(span)
        if probe is not None:
            probe.maybe()
    wrong = []
    for job in jobs:
        if job.id not in outputs:
            continue
        try:
            why = job.check(outputs[job.id], outputs)
        except Exception as e:  # an output of the wrong shape is a wrong verdict
            why = f"check raised {type(e).__name__}: {e}"
        if why:
            wrong.append((job.id, job.input, why))
    return RoundResult(latencies, ends, wrong, failed)


@dataclass
class Run:
    plain: list[RoundResult]
    traced: list[RoundResult]
    elapsed: float
    probe: SpeedProbe


def measure(make_round: Callable[[int], list[Job]], seconds: float, probe: SpeedProbe,
            tracer=None) -> Run:
    """Run rounds 0, 1, ... until the next one is projected to end past
    `seconds`. With a tracer, odd rounds are traced and at least one round
    of each kind runs; the first traced round keeps its spans."""
    started = time.perf_counter()
    plain: list[RoundResult] = []
    traced: list[RoundResult] = []
    took: dict[bool, list[float]] = {False: [], True: []}
    r = 0
    while True:
        round_started = time.perf_counter()
        jobs = make_round(r)
        is_traced = tracer is not None and r % 2 == 1
        if is_traced:
            tracer.reset()
            tracer.keep_spans = not traced
            tracer.install()
            try:
                res = run_round(jobs, tracer, probe)
            finally:
                tracer.uninstall()
            res.layer = tracer.round_metrics()
            traced.append(res)
        else:
            plain.append(res := run_round(jobs, probe=probe))
        took[is_traced].append(time.perf_counter() - round_started)
        r += 1
        next_traced = tracer is not None and r % 2 == 1
        if tracer is not None and not traced:
            continue
        projected = statistics.median(took[next_traced] or took[not next_traced])
        if time.perf_counter() - started + projected > seconds:
            return Run(plain, traced, time.perf_counter() - started, probe)


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    rank = p / 100 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail(values: list[float], p: float) -> tuple[float, int]:
    """(value at percentile p, samples beyond it). Each workload fixes its p
    so that a run has at least ten samples beyond it; the count is reported
    rather than the percentile changed, so every run reports the same one."""
    value = percentile(values, p)
    return value, sum(1 for v in values if v > value)
