#!/usr/bin/env python3
"""Benchmark of the bindlog kernel.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Workloads (see workloads.py): rewrite-deep, kernel-mixed, model-sweep.
`all` runs each in its own process, one after the other.

One client in one thread runs one job at a time (a closed loop). The run
repeats rounds of jobs generated from the seed until the next round would
end past S seconds, and checks every output against its known answer.

Times are scaled to reference speed (see harness.py): every run also
times a fixed pure-Python loop that never calls the kernel, and reports
seconds on a machine where that loop takes REFERENCE_SECONDS, so drift in
the speed of a shared machine cancels. Raw times are printed beside them.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones, measured untraced; with `--trace 1` they
are the per-layer ones, per round, from a run whose odd rounds are traced
(counts from the first traced round, times as medians over traced rounds).
The lines before it give the same figures for a reader, with percentiles
and bases, every wrong verdict and failure with its input, and machine
info. A traced run writes the spans of its first traced round to
`.bench_out/spans-<workload>-<seed>.jsonl`.

Exits 2 without a result when the kernel sources are not beside bench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7

END_TO_END = {"setup_s": "s", "wall_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
              "job_tail_ms": "ms", "peak_rss_mb": "MB"}


def setup_seconds(runs: int, probe) -> list[tuple[float, float]]:
    """(seconds, end time) of fresh-interpreter set-ups, after one unmeasured
    run that leaves compiled bytecode behind as any later use would find it."""
    cmd = [sys.executable, str(HERE / "setup_time.py")]
    times = []
    for i in range(runs + 1):
        out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True,
                             timeout=120)
        if i:
            times.append((float(out.stdout.split()[-1]), time.perf_counter()))
        probe.sample()
    return times


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def _listing(label: str, items: list[tuple[str, str, str]], limit: int = 10) -> list[str]:
    lines = [f"{label}: {job}: {why}\n    input: {inp[:300]!r}" for job, inp, why in items[:limit]]
    if len(items) > limit:
        lines.append(f"{label}: ... and {len(items) - limit} more")
    return lines


def end_to_end(run, setup, tail_p: float, probe=None):
    """The end-to-end figures, in reference seconds when given the run's
    speed probe and as measured otherwise; with notes on their bases."""
    from harness import percentile, tail

    rounds = [r.scaled(probe) if probe else r.latencies for r in run.plain]
    latencies = [x for lats in rounds for x in lats]
    setups = [t * probe.scale(end) if probe else t for t, end in setup]
    tail_value, beyond = tail(latencies, tail_p)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(lats) for lats in rounds),
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": percentile(latencies, 50) * 1e3,
        "job_tail_ms": tail_value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh-interpreter set-ups",
        "wall_s": f"median over {len(rounds)} rounds of {len(rounds[0])} jobs",
        "jobs_per_s": f"{len(latencies)} jobs in {sum(latencies):.3f} s of kernel time",
        "job_p50_ms": f"over {len(latencies)} jobs",
        "job_tail_ms": f"p{tail_p:g}, {beyond} of {len(latencies)} samples beyond it",
        "peak_rss_mb": "this workload's process",
    }
    return values, notes


def per_layer(run):
    """Per-layer figures in reference seconds: counts from the first traced
    round, times and rates as medians over the traced rounds."""
    from spans import COUNTS, METRICS

    def round_factor(r):
        return run.probe.scale(r.ends[0] - r.latencies[0], r.ends[-1])

    values = {}
    for name, unit in METRICS.items():
        if name == "trace.overhead_ratio":
            values[name] = (statistics.median(sum(r.scaled(run.probe)) for r in run.traced)
                            / statistics.median(sum(r.scaled(run.probe)) for r in run.plain))
        elif name in COUNTS:
            values[name] = int(run.traced[0].layer[name])
        elif unit == "s":
            values[name] = statistics.median(r.layer[name] * round_factor(r) for r in run.traced)
        elif unit.endswith("/s"):
            values[name] = statistics.median(r.layer[name] / round_factor(r) for r in run.traced)
        else:
            values[name] = statistics.median(r.layer[name] for r in run.traced)
    return values


def run_one(args) -> int:
    from harness import REFERENCE_SECONDS, SpeedProbe, measure
    from setup_time import build
    from spans import METRICS, UNWRAPPED, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    builder, tail_p = WORKLOADS[args.workload]
    probe = SpeedProbe()
    setup = [] if args.trace else setup_seconds(SETUP_RUNS, probe)
    kernel = build(ROOT)
    kernel.out_dir.mkdir(exist_ok=True)
    tracer = Tracer(kernel) if args.trace else None
    run = measure(lambda r: builder(kernel, args.seed, r), args.seconds, probe, tracer)

    rounds = run.plain + run.traced
    attempted = sum(len(r.latencies) for r in rounds)
    wrong = [w for r in rounds for w in r.wrong]
    failed = [f for r in rounds for f in r.failed]
    print(f"bench {args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds "
          f"({len(run.traced)} traced), {attempted} jobs in {run.elapsed:.1f} s")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"src_loc={src_lines()}")
    print(f"speed: reference loop median {statistics.median(probe.samples) * 1e3:.3f} ms over "
          f"{len(probe.samples)} probes; times below are at {REFERENCE_SECONDS * 1e3:g} ms")
    if args.trace:
        values, notes = per_layer(run), {}
        units = METRICS
        path = kernel.out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        with path.open("w") as fh:
            for rec in tracer.span_records():
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
        print(f"spans: {len(tracer.spans)} of the first traced round in {path.relative_to(ROOT)}")
        print("not traced (bound inside the kernel): " + "; ".join(UNWRAPPED))
    else:
        units = END_TO_END
        values, notes = end_to_end(run, setup, tail_p, probe)
        raw, _ = end_to_end(run, setup, tail_p)
        for name in values:
            notes[name] += f"; {raw[name]:.6g} as measured"
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6g} {units[name]:8s} {notes.get(name, '')}")
    print(f"  {'wrong_verdicts':28s} {len(wrong):14d} {'count':8s} of {attempted - len(failed)} "
          f"outputs checked")
    print(f"  {'failed_ratio':28s} {len(failed) / attempted:14.6g} {'ratio':8s} "
          f"{len(failed)} of {attempted} jobs raised")
    for line in _listing("wrong", wrong) + _listing("failed", failed):
        print(line)
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }, ensure_ascii=False))
    return 0


def run_all(args) -> int:
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=max(600, 10 * args.seconds))
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            return out.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined, ensure_ascii=False))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="time budget of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "bindlog" / "__init__.py").is_file():
        print(f"bench: no kernel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
