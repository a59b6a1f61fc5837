"""The command-line frontend: every subcommand, exit codes, and output
determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bindlog import cli, proofs, sigma, syntax

from proof_corpus import CORPUS_SIG, corpus, equality_compat_derivation

ARITH_SIG_TEXT = """\
fun 0 : <>
fun S : <0>
fun + : <0,0>
fun * : <0,0>
pred = : <0,0>
"""

ARITH_RULES_TEXT = """\
plus0: +(0(), ?y) -> ?y
plusS: +(S(?x), ?y) -> S(+(?x, ?y))
mul0:  *(0(), ?y) -> 0()
mulS:  *(S(?x), ?y) -> +(*(?x, ?y), ?y)
"""

FOUR_IS_EVEN = """\
rule ex-right [x=x A==(*(S(S(0())), x), S(S(S(S(0()))))) t=S(S(0())) at=0] |- forall x. =(x, x) |- exists x. =(*(S(S(0())), x), S(S(S(S(0())))))
  rule all-left [x=x A==(x, x) t=S(S(S(S(0())))) at=0] |- forall x. =(x, x) |- =(*(S(S(0())), S(S(0()))), S(S(S(S(0())))))
    rule axiom |- =(S(S(S(S(0())))), S(S(S(S(0()))))) |- =(*(S(S(0())), S(S(0()))), S(S(S(S(0())))))
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def corpus_sig_file(tmp_path):
    p = tmp_path / "corpus.sig"
    p.write_text(syntax.print_signature(CORPUS_SIG))
    return str(p)


def test_parse_term(capsys, corpus_sig_file):
    code, out, _ = run(capsys, "--sig", corpus_sig_file, "parse", "--term", "Λ(x. f(x))")
    assert code == 0 and out.strip() == "Λ(x. f(x))"


def test_parse_rejects_unknown_symbol(capsys, corpus_sig_file):
    code, out, _ = run(capsys, "--sig", corpus_sig_file, "parse", "--term", "h(x)")
    assert code == 1 and "UnknownSymbol" in out


def test_parse_malformed_input(capsys, corpus_sig_file):
    code, _, err = run(capsys, "--sig", corpus_sig_file, "parse", "--term", "f(x")
    assert code == 2 and "input error" in err


def test_check_proof_corpus(capsys, tmp_path, corpus_sig_file):
    for name, proof in corpus():
        path = tmp_path / f"{name}.prf"
        path.write_text(proofs.print_proof_file(proof))
        code, out, _ = run(capsys, "--sig", corpus_sig_file, "check-proof", str(path))
        assert code == 0, (name, out)


def test_check_proof_invalid_exits_1(capsys, tmp_path, corpus_sig_file):
    path = tmp_path / "bad.prf"
    path.write_text("rule axiom |- Q |- P(x)\n")
    code, out, _ = run(capsys, "--sig", corpus_sig_file, "check-proof", str(path))
    assert code == 1 and "RuleMismatch" in out


def test_check_proof_principal_out_of_range_exits_1(capsys, tmp_path, corpus_sig_file):
    path = tmp_path / "bad.prf"
    path.write_text("rule weak-left [at=5] |- Q |- Q\n  rule axiom |- Q |- Q\n")
    code, out, err = run(capsys, "--sig", corpus_sig_file, "check-proof", str(path))
    assert code == 1 and "PrincipalFormulaMissing" in out
    assert "Traceback" not in out + err


def test_parse_deeply_nested_input_reads(capsys, corpus_sig_file):
    term = "f(" * 3000 + "x" + ")" * 3000
    code, out, err = run(capsys, "--sig", corpus_sig_file, "parse", "--term", term)
    assert code == 0 and out == term + "\n" and err == ""


def test_translating_deeply_nested_input_is_an_input_error(capsys, tmp_path, corpus_sig_file):
    # the proof reads and checks; its translation still recurses
    nest = "f(" * 3000 + "x" + ")" * 3000
    path = tmp_path / "deep.prf"
    path.write_text(f"rule axiom |- P({nest}) |- P({nest})\n")
    code, out, err = run(capsys, "--sig", corpus_sig_file, "check-proof", str(path))
    assert code == 0 and out == "proof check (binding): ok\n"
    code, out, err = run(capsys, "--sig", corpus_sig_file, "translate-proof", str(path),
                         "-o", str(tmp_path / "t.prf"))
    assert code == 2 and out == ""
    assert err.startswith("input error") and len(err.splitlines()) == 1


def test_check_proof_malformed_exits_2(capsys, tmp_path, corpus_sig_file):
    path = tmp_path / "bad.prf"
    path.write_text("rule nonsense |- Q |- Q\n")
    code, _, err = run(capsys, "--sig", corpus_sig_file, "check-proof", str(path))
    assert code == 2


@pytest.mark.parametrize("text", [
    "rule weak-left [at=x] |- Q |- Q\n  rule axiom |- Q |- Q\n",
    "syntax\nrule axiom |- Q |- Q\n",
    "rule weak-left [x=y junk=3] |- Q, P(x) |- Q\n  rule axiom |- Q |- Q\n",
    "rule weak-left [at=1 at=1] |- Q, P(x) |- Q\n  rule axiom |- Q |- Q\n",
    "rule weak-left [at0] |- Q, P(x) |- Q\n  rule axiom |- Q |- Q\n",
    "rule weak-left [at 1] |- Q, P(x) |- Q\n  rule axiom |- Q |- Q\n",
    "rule weak-left [x=f(y)] |- Q, P(x) |- Q\n  rule axiom |- Q |- Q\n",
    "rule weak-left [at=-1] |- Q, P(x) |- Q\n  rule axiom |- Q |- Q\n",
    "rule weak-left [at=1.5] |- Q, P(x) |- Q\n  rule axiom |- Q |- Q\n",
], ids=["at-not-an-integer", "bare-syntax-line", "unknown-key", "duplicate-key",
        "key-without-equals", "missing-equals", "x-not-a-name", "at-negative",
        "at-not-a-whole-number"])
def test_check_proof_bad_file_is_an_input_error(capsys, tmp_path, corpus_sig_file, text):
    path = tmp_path / "bad.prf"
    path.write_text(text)
    code, out, err = run(capsys, "--sig", corpus_sig_file, "check-proof", str(path))
    assert code == 2 and out == ""
    assert err.startswith("input error") and "(line 1)" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("command, text", [
    ("check-proof", "rule weak-left [at=1] |- Q, P(x) |- Q\n  rule axiom |- Q, P( |- Q\n"),
    ("check-proof", "rule weak-left [at=1] |- Q, P(x) |- Q\n  rule axiom [A=P(] |- Q |- Q\n"),
    ("check-proof", "rule weak-left [at=1] |- Q, P(x) |- Q\n  rule axiom [t=f(] |- Q |- Q\n"),
    ("normalize", "plus0: +(0(), ?y) -> ?y\nplusS: +(S(?x), ?y -> S(+(?x, ?y))\n"),
], ids=["proof-sequent", "A-value", "t-value", "rule-pattern"])
def test_parse_error_inside_a_file_names_its_line(capsys, tmp_path, command, text):
    sig = tmp_path / "file.sig"
    sig.write_text(syntax.print_signature(CORPUS_SIG) if command == "check-proof"
                   else ARITH_SIG_TEXT)
    path = tmp_path / "file.txt"
    path.write_text(text)
    argv = [str(path)] if command == "check-proof" else ["--system", str(path), "+(0(), 0())"]
    code, out, err = run(capsys, "--sig", str(sig), command, *argv)
    assert code == 2 and out == ""
    assert err.startswith("input error") and err.rstrip().endswith("(line 2)")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("layer, modulo", [
    ("lprop", None), ("lprop", "arith.rw"), ("term", "sigma"),
])
def test_check_proof_layer_mismatch_is_an_input_error(capsys, tmp_path, corpus_sig_file,
                                                      layer, modulo):
    path = tmp_path / "proof.prf"
    path.write_text(f"syntax {layer}\nrule axiom |- Q |- Q\n")
    argv = ["--sig", corpus_sig_file, "check-proof", str(path)]
    if modulo == "arith.rw":
        rules = tmp_path / "arith.rw"
        rules.write_text(ARITH_RULES_TEXT)
        argv += ["--modulo", str(rules)]
    elif modulo is not None:
        argv += ["--modulo", modulo]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("input error") and "syntax" in err and len(err.splitlines()) == 1
    # the same file under the checker of its own layer is read and checked
    path.write_text(f"syntax {'term' if layer == 'lprop' else 'lprop'}\nrule axiom |- Q |- Q\n")
    code, out, _ = run(capsys, *argv)
    assert code == 0, out


@pytest.mark.parametrize("text, modulo, message", [
    ("syntax lprop\nrule axiom |- P(x) |- P(x)\n", None,
     "is in lprop syntax; the plain checker needs term syntax"),
    ("rule axiom |- P(x) |- P(x)\n", "sigma",
     "is in term syntax; a congruence over the lterm layer needs lprop syntax"),
], ids=["plain-on-lprop", "sigma-on-term"])
def test_check_proof_names_the_syntax_its_checker_needs(capsys, tmp_path, corpus_sig_file,
                                                       text, modulo, message):
    path = tmp_path / "proof.prf"
    path.write_text(text)
    argv = ["--sig", corpus_sig_file, "check-proof", str(path)]
    code, out, err = run(capsys, *argv, *(["--modulo", modulo] if modulo else []))
    assert (code, out, err) == (2, "", f"input error: {path} {message}\n")


LAMBDA_SIG = Path(__file__).resolve().parent.parent / "samples" / "lambda.sig"


@pytest.mark.parametrize("text, kind", [
    ("rule axiom |- Zzz(x, y) |- Zzz(x, y)\n", "UnknownSymbol"),
    ("rule all-left [t=f(y, y) at=1] |- Q, forall x. P(x) |- Q\n"
     "  rule weak-left [at=1] |- Q, P(f(y, y)) |- Q\n"
     "    rule axiom |- Q |- Q\n", "ArityMismatch"),
    # the ill-formed formula is reported ahead of the rule fault at the root
    ("rule weak-left |- Q, Q |- Q\n  rule axiom |- Zzz |- Zzz\n",
     "UnknownSymbol at 0: Zzz is ill-formed: UnknownSymbol at root: predicate 'Zzz' not declared"),
], ids=["undeclared-predicate", "witness-arity", "ahead-of-a-rule-fault"])
def test_check_proof_ill_formed_over_the_signature_exits_1(capsys, tmp_path, text, kind):
    path = tmp_path / "proof.prf"
    path.write_text(text)
    code, out, _ = run(capsys, "--sig", str(LAMBDA_SIG), "check-proof", str(path))
    assert code == 1 and kind in out
    dst = tmp_path / "translated.prf"
    code, out, err = run(capsys, "--sig", str(LAMBDA_SIG), "translate-proof", str(path),
                         "-o", str(dst))
    assert code == 1 and kind in err and not dst.exists()


def test_check_proof_rejects_a_duplicate_binder_that_alpha_hides(capsys, tmp_path):
    # alpha_eq equates g(x x. x) with g(x y. y): every formula is judged
    sig, path = tmp_path / "dup.sig", tmp_path / "dup.prf"
    sig.write_text("fun g : <2>\npred P : <0>\n")
    path.write_text("rule contr-left |- P(g(x y. y)) |- P(g(x y. y))\n"
                    "  rule weak-left |- P(g(x x. x)), P(g(x y. y)) |- P(g(x y. y))\n"
                    "    rule axiom |- P(g(x x. x)) |- P(g(x y. y))\n")
    line = ("DuplicateBinder at 0: P(g(x x. x)) is ill-formed: DuplicateBinder at 0.0: "
            "binder list ('x', 'x') of 'g' has duplicates")
    assert run(capsys, "--sig", str(sig), "check-proof", str(path)) == (
        1, f"proof check (binding): {line}\n", "")
    dst = tmp_path / "translated.prf"
    assert run(capsys, "--sig", str(sig), "translate-proof", str(path), "-o", str(dst)) == (
        1, "", f"source proof invalid: {line}\n")
    assert not dst.exists()


SAMPLES = LAMBDA_SIG.parent


@pytest.mark.parametrize("sig, modulo, text, line", [
    ("lambda.sig", "sigma", "syntax lprop\nrule axiom |- Zzz(x, y) |- Zzz(x, y)\n",
     "UnknownSymbol at root: Zzz(x, y) is ill-formed: "
     "UnknownSymbol at root: predicate 'Zzz' not declared"),
    ("lambda.sig", "sigma", "syntax lprop\nrule axiom |- =(f_0(x, y), x) |- =(f_0(x, y), x)\n",
     "SortMismatch at root: =(f_0(x, y), x) is ill-formed: "
     "SortMismatch at 0: expected 1 arguments for 'f', found 2"),
    # VarCons erases f_0(x, x): the rule pass alone reads P(x) |- P(x)
    ("lambda.sig", "sigma", "syntax lprop\nrule axiom |- P(1_2[x . (f_0(x, x) . id_0)]) |- P(x)\n",
     "SortMismatch at root: P(1_2[x . f_0(x, x) . id_0]) is ill-formed: "
     "SortMismatch at 0.1.1.0: expected 1 arguments for 'f', found 2"),
    # FPush would raise on the undeclared symbol
    ("lambda.sig", "sigma", "syntax lprop\nrule axiom |- P(Zzz_1(1_1)[x . id_0]) |- P(x)\n",
     "SortMismatch at root: P(Zzz_1(1_1)[x . id_0]) is ill-formed: "
     "SortMismatch at 0.0: expected a declared function symbol, found 'Zzz'"),
    # a witness stands for a quantified variable, of sort 0
    ("lambda.sig", "sigma", "syntax lprop\nrule all-left [x=y A=Q t=1_1] |- forall y. Q |- Q\n"
     "  rule axiom |- Q |- Q\n",
     "SortMismatch at root: 1_1 is ill-formed: SortMismatch at root: expected 0, found 1"),
    # mul0 erases Zzz(0())
    ("arith.sig", "arith.rw", "rule axiom |- =(*(0(), Zzz(0())), 0()) |- =(0(), 0())\n",
     "UnknownSymbol at root: =(*(0(), Zzz(0())), 0()) is ill-formed: "
     "UnknownSymbol at 0.1: function 'Zzz' not declared"),
], ids=["undeclared-predicate", "arity", "erased-by-varcons", "under-fpush", "witness-sort",
        "erased-by-mul0"])
def test_check_proof_modulo_ill_formed_over_the_signature_exits_1(
        capsys, tmp_path, monkeypatch, sig, modulo, text, line):
    monkeypatch.chdir(SAMPLES)
    path = tmp_path / "proof.prf"
    path.write_text(text)
    code, out, err = run(capsys, "--sig", sig, "check-proof", "--modulo", modulo, str(path))
    assert (code, out, err) == (1, f"proof check (modulo {modulo}): {line}\n", "")


@pytest.mark.parametrize("rules, term", [
    ("r: +(?x, 0()) -> ?y\n", "+(0(), 0())"),
    ("syntax lterm\nr: ?t[?s] -> ?u\n", "x[id_0]"),
    ("syntax\nplus0: +(0(), ?y) -> ?y\n", "+(0(), 0())"),
], ids=["term-unbound-metavariable", "lterm-unbound-metavariable", "bare-syntax-line"])
def test_normalize_bad_rule_file_is_an_input_error(capsys, tmp_path, rules, term):
    sig = tmp_path / "arith.sig"
    sig.write_text(ARITH_SIG_TEXT)
    path = tmp_path / "bad.rw"
    path.write_text(rules)
    code, out, err = run(capsys, "--sig", str(sig), "normalize", "--system", str(path), term)
    assert code == 2 and out == ""
    assert err.startswith("input error") and len(err.splitlines()) == 1
    assert "'r'" in err or ("syntax" in err and "(line 1)" in err)


def test_check_proof_modulo_arithmetic(capsys, tmp_path):
    sig = tmp_path / "arith.sig"
    sig.write_text(ARITH_SIG_TEXT)
    rules = tmp_path / "arith.rw"
    rules.write_text(ARITH_RULES_TEXT)
    prf = tmp_path / "even.prf"
    prf.write_text(FOUR_IS_EVEN)
    code, out, _ = run(capsys, "--sig", str(sig), "check-proof",
                       "--modulo", str(rules), str(prf))
    assert code == 0, out
    # without the congruence the axiom leaf cannot close
    code, out, _ = run(capsys, "--sig", str(sig), "check-proof", str(prf))
    assert code == 1


def test_normalize_sigma(capsys, corpus_sig_file):
    code, out, _ = run(capsys, "--sig", corpus_sig_file, "normalize",
                       "--system", "sigma", "1_1[t . id_0]")
    assert code == 0 and out.strip() == "t"


def test_normalize_user_rules(capsys, tmp_path):
    sig = tmp_path / "arith.sig"
    sig.write_text(ARITH_SIG_TEXT)
    rules = tmp_path / "arith.rw"
    rules.write_text(ARITH_RULES_TEXT)
    code, out, _ = run(capsys, "--sig", str(sig), "normalize",
                       "--system", str(rules), "*(S(S(0())), S(S(0())))")
    assert code == 0 and out.strip() == "S(S(S(S(0()))))"


def test_precook_worked_example(capsys, tmp_path):
    sig = tmp_path / "lam.sig"
    sig.write_text("fun f : <0,0>\nfun Λ : <1>\npred = : <0,0>\n")
    code, out, _ = run(capsys, "--sig", str(sig), "precook",
                       "--prop", "forall x. forall y. =(f(x, y), Λ(z. f(x, z)))")
    assert code == 0
    assert out.strip() == "forall x. forall y. =(f_0(x, y), Λ_0(f_1(x[up_0], 1_1)))"


def test_translate_proof_pipeline(capsys, tmp_path, corpus_sig_file):
    src = tmp_path / "eq.prf"
    src.write_text(proofs.print_proof_file(equality_compat_derivation()))
    dst = tmp_path / "eq_modulo.prf"
    code, _, _ = run(capsys, "--sig", corpus_sig_file, "translate-proof",
                     str(src), "-o", str(dst))
    assert code == 0
    back = proofs.parse_proof_file(dst.read_text(), CORPUS_SIG)
    cong = proofs.Congruence(sigma.sigma_system(CORPUS_SIG))
    assert proofs.check_modulo_proof(CORPUS_SIG, cong, back).ok


def _tall_proof_text(height: int) -> str:
    """A narrow proof of the given (odd) height, each line indented one level
    deeper: contr-left and weak-left in turn over P(x) |- P(x), then an
    axiom."""
    lines = [f"rule {('contr-left', 'weak-left')[d % 2]} |- "
             f"{('P(x)', 'P(x), P(x)')[d % 2]} |- P(x)" for d in range(height - 1)]
    lines.append("rule axiom |- P(x) |- P(x)")
    return "".join(f"{'  ' * d}{line}\n" for d, line in enumerate(lines))


def test_a_proof_of_height_10001_checks_translates_and_checks_modulo_sigma(
        capsys, tmp_path, corpus_sig_file):
    height = 10_001
    text = _tall_proof_text(height)
    src, dst = tmp_path / "tall.prf", tmp_path / "tall_modulo.prf"
    src.write_text(text)
    assert run(capsys, "--sig", corpus_sig_file, "check-proof", str(src)) == (
        0, "proof check (binding): ok\n", "")
    assert run(capsys, "--sig", corpus_sig_file, "translate-proof", str(src), "-o", str(dst)) == (
        0, f"wrote {dst}\n", "")
    assert run(capsys, "--sig", corpus_sig_file, "check-proof", "--modulo", "sigma", str(dst)) == (
        0, "proof check (modulo sigma): ok\n", "")
    tree = proofs.parse_proof_file(text, CORPUS_SIG)
    assert tree.height() == height
    assert proofs.print_proof_file(tree) == text
    assert proofs.parse_proof_file(dst.read_text(), CORPUS_SIG).height() == height


def test_tall_proof_trees_compare_hash_and_print():
    for height in (2_001, 10_001):
        text = _tall_proof_text(height)
        a, b = (proofs.parse_proof_file(text, CORPUS_SIG) for _ in range(2))
        assert a is not b and a == b and hash(a) == hash(b)
        if height < 10_000:
            assert repr(a) == f"ProofTree({text!r})"
        del text  # the text of height 10,001 takes 100 MB
        assert repr(b).startswith("ProofTree('rule contr-left |- P(x) |- P(x)\\n  rule weak-left")
        # the same tree but for the deepest node's `at=0`
        *spine, leaf = (node for node, _, _ in a.walk())
        c = proofs.ProofTree(leaf.conclusion, proofs.RuleApp(proofs.Rule.AXIOM, principal=0))
        for node in reversed(spine):
            c = proofs.ProofTree(node.conclusion, node.rule, (c,))
        assert c.height() == height and a != c and not a == c


def test_eval_model(capsys):
    code, out, _ = run(capsys, "eval", "--model", "ext",
                       "--prop", "forall x. =(f(x), x)")
    assert code == 0 and "valid" in out
    code, out, _ = run(capsys, "eval", "--model", "ext",
                       "--prop", "=(Λ(x. f(x)), Λ(x. x))")
    assert code == 1 and "not valid" in out


def test_eval_sampled_verdict_labeled(capsys):
    code, out, _ = run(capsys, "eval", "--model", "delta",
                       "--prop", "forall x. =(x, x)")
    assert code == 0 and "(on samples)" in out


def test_verify_model(capsys):
    code, out, _ = run(capsys, "verify-model", "--model", "ext", "--bounds", "2,2,2")
    assert code == 0
    assert "structure laws" in out and "coherence of Λ" in out


def test_verify_fullfn(capsys):
    code, out, _ = run(capsys, "verify-model", "--model", "fullfn:2", "--bounds", "1,1,1")
    assert code == 0


# argparse keeps the last value given, so each case overrides one default
@pytest.mark.parametrize("bounds", ["--bounds=2,2", "--bounds=a,b,c", "--bounds=-1,2,2",
                                    "--model=fullfn:x", "--model=fullfn:0",
                                    "--model=fullfn:-1"])
def test_verify_model_bad_bounds_are_input_errors(capsys, bounds):
    code, out, err = run(capsys, "verify-model", "--model", "ext", bounds)
    assert code == 2 and out == ""
    assert err.startswith("input error") and len(err.splitlines()) == 1


def test_demo_extensionality(capsys):
    code, out, _ = run(capsys, "demo", "extensionality")
    assert code == 0
    assert "⟦Λx f(x)⟧ = l0" in out
    assert "⟦Λx x⟧ = k0" in out
    assert "scheme instance NOT valid" in out
    assert out.count("axiom valid") == 5


def test_demo_disjoint_sum(capsys):
    code, out, _ = run(capsys, "demo", "disjoint-sum")
    assert code == 0
    assert "⟦δ(a, x a, y a)⟧ = 0" in out
    assert "⟦a⟧ = 1" in out
    assert "equation not valid" in out


def test_demo_json(capsys):
    code, out, _ = run(capsys, "--json", "demo", "extensionality")
    assert code == 0
    payload = json.loads(out)
    assert payload["lam_fx"] == "l0" and payload["lam_x"] == "k0"
    assert payload["axioms_valid"] is True and payload["scheme_valid"] is False


def test_output_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--seed", "7", "--samples", "40", "--json",
                           "verify-model", "--model", "delta", "--bounds", "1,1,1",
                           "--mode", "sampled")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BINDLOG_SEED", "99")
    code, out1, _ = run(capsys, "--samples", "40", "--json", "verify-model",
                        "--model", "delta", "--bounds", "1,1,1", "--mode", "sampled")
    monkeypatch.setenv("BINDLOG_SEED", "99")
    code, out2, _ = run(capsys, "--seed", "3", "--samples", "40", "--json",
                        "verify-model", "--model", "delta", "--bounds", "1,1,1",
                        "--mode", "sampled")
    assert out1 == out2  # env wins over the flag


def test_demo_values_are_recomputed(capsys, monkeypatch):
    # break the binder family: the demo must notice, not print stored claims
    from bindlog import models

    good = models.ext_counter_model

    def broken():
        m = good()
        fhat = dict(m.fhat)
        fhat["Λ"] = lambda p, args: ("k", p)
        return models.BindingModel(m.name, m.sig, m.ifs, fhat, m.phat)

    monkeypatch.setattr(models, "ext_counter_model", broken)
    code, out, _ = run(capsys, "demo", "extensionality")
    assert code == 1


def test_eval_bare_structure_is_an_input_error(capsys):
    code, _, err = run(capsys, "eval", "--model", "fullfn:2", "--prop", "false")
    assert code == 2


def test_table_model_via_cli(capsys, tmp_path):
    from bindlog import models

    mdl = tmp_path / "ext.mdl"
    mdl.write_text(models.dump_model(models.ext_counter_model(), 2))
    sig = tmp_path / "ext.sig"
    sig.write_text(syntax.print_signature(models.ext_counter_model().sig))
    code, out, _ = run(capsys, "--sig", str(sig), "eval", "--model", str(mdl),
                       "--prop", "forall x. =(x, x)")
    assert code == 0 and "valid" in out


def test_check_proof_modulo_tells_shadowed_quantifiers_apart(capsys, tmp_path):
    # forall x. exists y. R2(x, y) is not forall x. exists x. R2(x, x), whose
    # inner quantifier shadows the outer one
    path = tmp_path / "shadow.prf"
    path.write_text("syntax lprop\n"
                    "rule axiom |- forall x. exists y. R2(x, y) |- forall x. exists x. R2(x, x)\n")
    code, out, _ = run(capsys, "--sig", str(LAMBDA_SIG), "check-proof", "--modulo", "sigma",
                       str(path))
    assert code == 1 and "RuleMismatch" in out


def test_main_calls_in_one_process_match_fresh_runs(capsys, monkeypatch):
    # the argument parser is built once per process; options of one call
    # must not leak into the next
    root = Path(__file__).resolve().parent.parent
    s = root / "samples"
    lam, ari = ["--sig", str(s / "lambda.sig")], ["--sig", str(s / "arith.sig")]
    nest = "3_3[x . (y . (z . id_0))]"
    calls = [
        ["--json", *lam, "check-proof", str(s / "equality_compat.prf")],
        [*lam, "check-proof", str(s / "equality_compat.prf")],
        [*lam, "parse", "--term", "Λ(x. c)"],
        ["parse", "--term", "Λ(x. c)"],
        ["--json", "normalize", "--system", "sigma", nest],
        ["normalize", "--system", "sigma", nest],
        ["--step-budget", "1", *ari, "check-proof", "--modulo", str(s / "arith.rw"),
         str(s / "four_is_even.prf")],
        [*ari, "check-proof", "--modulo", str(s / "arith.rw"), str(s / "four_is_even.prf")],
        ["--json", "parse", "--term", "f(x"],
        ["parse", "--term", "f(x"],
    ]
    monkeypatch.delenv("BINDLOG_SEED", raising=False)
    in_process = [run(capsys, *argv) for argv in calls]
    env = {k: v for k, v in os.environ.items() if k != "BINDLOG_SEED"}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
    fresh = [subprocess.run([sys.executable, "-m", "bindlog.cli", *argv], env=env, cwd=root,
                            capture_output=True, text=True, timeout=120) for argv in calls]
    assert in_process == [(r.returncode, r.stdout, r.stderr) for r in fresh]
    assert {code for code, _, _ in in_process} == {0, 1, 2}
    assert in_process[0][1] != in_process[1][1] and in_process[2][1] != in_process[3][1]
