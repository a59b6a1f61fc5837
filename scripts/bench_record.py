#!/usr/bin/env python3
"""Write the perf record BENCH_<N>.json at the root of the repository.

    python3 scripts/bench_record.py N

The record holds:
- the end-to-end metrics of `bench/run.py --workload all --seed 1` at
  BENCHMARK.json's run_seconds, with `correct`, `attempted` and `failed`;
- the tier-1 run (the command ROADMAP.md names, with --durations=20): wall
  seconds, pass/fail counts, and the 20 slowest tests;
- the line counts of src/ and of the trusted base: the modules
  bindlog/__init__ imports, with errors;
- machine info: nproc, Python version, platform, and the speed of the
  benchmark's reference loop (the median of REFERENCE_SAMPLES runs of
  bench/harness.py's reference_loop), to which bench/run.py scales its
  times.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bindlog"
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=20"]
REFERENCE_SAMPLES = 21


def _lines(path: Path) -> int:
    return len(path.read_text().splitlines())


def trusted_modules() -> list[str]:
    """The modules bindlog/__init__ imports from the package, with errors."""
    names = {"errors"}
    for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else [a.name for a in node.names])
    return sorted(names)


def loc() -> dict:
    """The line counts of src/ and of the trusted base."""
    trusted = trusted_modules()
    return {"src": sum(map(_lines, sorted(PACKAGE.glob("*.py")))),
            "trusted_base": sum(_lines(PACKAGE / f"{m}.py") for m in trusted),
            "trusted_modules": trusted}


def bench() -> dict:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "all", "--seed", "1",
                          "--seconds", str(seconds)],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    return {"command": f"bench/run.py --workload all --seed 1 --seconds {seconds}", **result}


def tier1() -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    started = time.perf_counter()
    out = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    wall = time.perf_counter() - started
    lines = out.stdout.splitlines()
    summary = next((ln for ln in reversed(lines) if re.search(r"\d+ (passed|failed)", ln)), "")
    counts = {kind: int(n) for n, kind in
              re.findall(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)", summary)}
    slowest = [{"seconds": float(s), "phase": phase, "test": test} for s, phase, test in
               re.findall(r"^(\d+\.\d+)s (call|setup|teardown)\s+(\S+)$", out.stdout, re.M)]
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1), "exit_code": out.returncode,
            "wall_s": round(wall, 2), "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0),
            "summary": summary.strip("= "), "slowest": slowest}


def reference_loop_s() -> float:
    """The median seconds of the benchmark's reference loop on this machine."""
    sys.path.insert(0, str(ROOT / "bench"))
    import harness

    return statistics.median(harness.reference_loop() for _ in range(REFERENCE_SAMPLES))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("number", type=int, help="N of BENCH_<N>.json")
    args = ap.parse_args(argv)
    record = {
        "bench": bench(),
        "tier1": tier1(),
        "loc": loc(),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), "reference_loop_s": reference_loop_s()},
    }
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
