"""Tests of the benchmark itself:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import functools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import proofgen  # noqa: E402
import workloads  # noqa: E402
from harness import run_round  # noqa: E402
from setup_time import build  # noqa: E402
from spans import COUNTS, Tracer  # noqa: E402

BIG_SWEEPS = {"ext-ifs-332", "fullfn-ifs-221"}


@pytest.fixture(scope="module")
def kernel():
    k = build(ROOT)
    k.out_dir.mkdir(exist_ok=True)
    return k


def _inputs(k, name, seed, r) -> bytes:
    builder, _ = workloads.WORKLOADS[name]
    return json.dumps([(j.id, j.input) for j in builder(k, seed, r)],
                      ensure_ascii=False).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(kernel, name):
    for r in (0, 1):
        assert _inputs(kernel, name, 7, r) == _inputs(kernel, name, 7, r)
    assert _inputs(kernel, name, 7, 0) != _inputs(kernel, name, 8, 0)
    assert _inputs(kernel, name, 7, 0) != _inputs(kernel, name, 7, 1)


def test_generated_proofs_are_accepted_and_mutants_are_not(kernel):
    for seed in range(3):
        jobs = [j for j in workloads.kernel_mixed(kernel, seed, 0)
                if j.id.startswith(("identity", "instantiation", "mutant", "arith"))]
        res = run_round(jobs)
        assert res.wrong == []
        # an out-of-range principal index crashes the checker instead of
        # being rejected; those mutants count as failed, never as accepted
        assert all(job.startswith("mutant-at") for job, _, _ in res.failed)


def test_identity_expansions_check_plain_and_modulo(kernel):
    rng = random.Random(11)
    sig, pr = kernel.kernel_sig, kernel.proofs
    for _ in range(40):
        text = proofgen.to_text(proofgen.identity(kernel.gen.random_prop(rng, sig, 12)))
        p = pr.parse_proof_file(text, sig)
        assert pr.check_binding_proof(sig, p).ok, text
        translated = kernel.precook.translate_proof(sig, p)
        assert pr.check_modulo_proof(sig, pr.Congruence(kernel.kernel_rs), translated).ok, text


def test_planted_wrong_reference_counts_once_and_does_not_abort(kernel):
    jobs = workloads.kernel_mixed(kernel, 3, 0)
    planted = next(j for j in jobs if j.id.startswith("commutation"))
    planted.check = functools.partial(workloads._expect, False)
    res = run_round(jobs)
    assert [job for job, _, _ in res.wrong] == [planted.id]
    assert len(res.latencies) == len(jobs)


def _traced_counts(k, jobs):
    tracer = Tracer(k)
    tracer.install()
    try:
        res = run_round(jobs, tracer)
    finally:
        tracer.uninstall()
    assert res.wrong == []
    counts = tracer.round_metrics()
    return {name: counts[name] for name in COUNTS}


def test_count_metrics_repeat_exactly(kernel):
    mixed = _traced_counts(kernel, workloads.kernel_mixed(kernel, 5, 1))
    assert mixed == _traced_counts(kernel, workloads.kernel_mixed(kernel, 5, 1))
    assert mixed["sigma.steps"] > 0 and mixed["proofs.nodes_checked"] > 0
    sweep = [j for j in workloads.model_sweep(kernel, 5, 1) if j.id not in BIG_SWEEPS]
    counts = _traced_counts(kernel, sweep)
    assert counts == _traced_counts(kernel, sweep)
    assert counts["models.instances_checked"] > 0


def test_tracer_restores_the_kernel(kernel):
    before = {name: getattr(kernel.sigma, name) for name in ("normalize", "_Budget", "sort_of")}
    tracer = Tracer(kernel)
    tracer.install()
    tracer.uninstall()
    assert before == {name: getattr(kernel.sigma, name) for name in before}


def test_depth_family_is_the_translated_nest(kernel):
    sigma = kernel.sigma
    rng = random.Random(2)
    for d in (1, 2, 8):
        spine = tuple((rng.choice("Λμνκ"), rng.choice("gh")) for _ in range(d))
        translated = kernel.precook.precook(kernel.depth_sig, workloads.depth_nest(spine), ("x",))
        closing = sigma.Cons(sigma.FApp("f", 0, (sigma.FApp("a", 0, ()),)), sigma.Id(0))
        assert workloads.depth_closure(spine) == sigma.Closure(translated, closing)


def test_sweep_size_formulas():
    ext = lambda n: 2 * n + 2  # noqa: E731
    assert oracles.ifs_sweep_size(ext, 3, 3, 3) == 3_863_192
    assert oracles.ifs_sweep_size(ext, 2, 2, 2) == 15_158


def test_without_kernel_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "kernel-mixed",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_every_declared_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "kernel-mixed",
                          "--seed", "1", "--seconds", "2", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: v["unit"] for name, v in result["metrics"].items()}
    assert result["correct"] and result["attempted"] > 0
