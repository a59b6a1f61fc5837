"""The kernel set-up every workload shares, and its timing probe.

`build` imports the kernel and builds the signatures, rewrite systems, rule
files and models the workloads use. Run as a script, it does that in a
fresh interpreter and prints the seconds taken, so import cost is part of
the figure:

    python3 bench/setup_time.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent

# Binder symbols of the depth family: every seed draws its spine from
# these, and they share one shape so the seed changes names, not cost.
DEPTH_BINDERS = ("Λ", "μ", "ν", "κ")
DEPTH_PAIRS = ("g", "h")


def build(root: Path = ROOT) -> SimpleNamespace:
    from bindlog import cli, gen, models, precook, proofs, sigma, syntax

    samples = root / "samples"
    depth_sig = syntax.Signature(
        {**{b: (1,) for b in DEPTH_BINDERS}, **{g: (0, 0) for g in DEPTH_PAIRS},
         "f": (0,), "a": ()},
        {"=": (0, 0)})
    kernel_sig = syntax.Signature(
        {"f": (0,), "g": (0, 0), "Λ": (1,), "δ": (0, 1, 1), "c": ()},
        {"=": (0, 0), "P": (0,), "Q": (), "R2": (0, 0)})
    arith_sig = syntax.parse_signature((samples / "arith.sig").read_text())
    ext = models.ext_counter_model()
    return SimpleNamespace(
        root=root, samples=samples, out_dir=root / ".bench_out",
        syntax=syntax, sigma=sigma, precook=precook, proofs=proofs,
        models=models, gen=gen, cli=cli,
        depth_sig=depth_sig, depth_rs=sigma.sigma_system(depth_sig),
        kernel_sig=kernel_sig, kernel_rs=sigma.sigma_system(kernel_sig),
        arith_sig=arith_sig,
        arith_rs=sigma.load_rules((samples / "arith.rw").read_text(), sig=arith_sig,
                                  name="arith"),
        ext=ext, ext_sigma=models.sigma_model_from_binding(ext),
        delta=models.delta_model(), fullfn=models.full_function_ifs((0, 1)),
    )


def main() -> int:
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    build()
    print(repr(time.perf_counter() - started))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
