"""The trusted base: the modules bindlog/__init__ imports, with errors
through them. The commands that read, translate, normalize and check
proofs run in an interpreter where gen and models cannot be imported, and
give there what they give in an unrestricted one. A module-level import of
either anywhere on those paths fails the restricted run."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Run in a fresh interpreter with the working directory holding samples/:
# argv[1] is "restricted" or "unrestricted". Prints one JSON list with an
# entry per command or call.
SCRIPT = r'''
import contextlib, io, json, sys
if sys.argv[1] == "restricted":
    sys.modules["bindlog.gen"] = sys.modules["bindlog.models"] = None
else:
    import bindlog.gen, bindlog.models
import bindlog
from bindlog import cli, sigma
from bindlog.errors import BindLogError

LAM = ["--sig", "samples/lambda.sig"]
ARITH = ["--sig", "samples/arith.sig"]
COMMANDS = [
    LAM + ["parse", "--term", "Λ(x. f(x))"],
    LAM + ["parse", "--prop", "forall y. =(Λ(x. y), f(h(y)))"],
    LAM + ["precook", "--prop", "forall y. =(Λ(x. f(y)), Λ(x. x))"],
    LAM + ["check-proof", "samples/equality_compat.prf"],
    LAM + ["translate-proof", "samples/equality_compat.prf", "-o", "t.prf"],
    LAM + ["translate-proof", "samples/equality_compat.prf"],
    LAM + ["check-proof", "--modulo", "sigma", "t.prf"],
    LAM + ["--json", "check-proof", "--modulo", "sigma", "t.prf"],
    LAM + ["check-proof", "--modulo", "sigma", "zzz.prf"],
    LAM + ["check-proof", "--modulo", "sigma", "fpush.prf"],
    ARITH + ["check-proof", "--modulo", "samples/arith.rw", "samples/four_is_even.prf"],
    ARITH + ["check-proof", "--modulo", "samples/arith.rw", "mul0.prf"],
    ["normalize", "--system", "sigma", "3_3[x . (y . (z . id_0))]"],
    LAM + ["--json", "normalize", "--system", "sigma", "f_1(1_1)[Λ_0(1_1) . id_0]"],
    ARITH + ["normalize", "--system", "samples/arith.rw", "*(S(S(0())), S(0()))"],
    ["normalize", "--system", "vc.rw", "1_1[x . id_0]"],
]
out = []
for argv in COMMANDS:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    out.append([argv, code, stdout.getvalue(), stderr.getvalue()])
out.append(["t.prf", open("t.prf").read()])
for text in ("syntax lterm\nvc: 1_?n[?t . ?s] -> ?t\nClos: ?t[?s][?u] -> ?t[?s o ?u]\n",
             "syntax lterm\nbad: ?t[id_?n] -> 1_?n\n"):
    try:
        rs = sigma.load_rules(text, sig=bindlog.parse_signature(open("samples/lambda.sig").read()))
        out.append([text, rs.rule_names()])
    except BindLogError as e:
        out.append([text, type(e).__name__, str(e)])
out.append(["gen, models", [sys.modules.get(m) is None for m in ("bindlog.gen", "bindlog.models")]])
print(json.dumps(out, ensure_ascii=False))
'''

FILES = {
    "zzz.prf": "syntax lprop\nrule axiom |- Zzz(x, y) |- Zzz(x, y)\n",
    "fpush.prf": "syntax lprop\nrule axiom |- P(Zzz_1(1_1)[x . id_0]) |- P(x)\n",
    "mul0.prf": "rule axiom |- =(*(0(), Zzz(0())), 0()) |- =(0(), 0())\n",
    "vc.rw": "syntax lterm\nvc: 1_?n[?t . ?s] -> ?t\n",
}


def _run(tmp_path, mode):
    cwd = tmp_path / mode
    shutil.copytree(ROOT / "samples", cwd / "samples")
    for name, text in FILES.items():
        (cwd / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONIOENCODING": "utf-8"}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, mode], cwd=cwd, env=env,
                          capture_output=True, text=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_verdicts_run_without_gen_and_models(tmp_path):
    restricted = _run(tmp_path, "restricted")
    unrestricted = _run(tmp_path, "unrestricted")
    assert restricted[:-1] == unrestricted[:-1]
    assert restricted[-1] == ["gen, models", [True, True]]
    assert unrestricted[-1] == ["gen, models", [False, False]]
    codes = [entry[1] for entry in restricted[:16]]
    assert codes == [0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0]
    assert restricted[-3][1] == ["vc", "Clos"]
    assert restricted[-2][1] == "ParseError"
