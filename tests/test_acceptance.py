"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its runtime against the stated limit. Run with -s to see them:

    pytest tests/test_acceptance.py -v -s
"""

import random
import time

from bindlog import gen, models, precook, proofs, sigma, syntax
from bindlog.syntax import App, Atom, Slot, parse_prop, parse_term

from conftest import SIG
from proof_corpus import CORPUS_SIG, corpus
from test_proofs import ARITH_SIG, arith_congruence, four_is_even_proof


def _report(num, desc, started, limit, ok=True):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num} ({desc}): {status} in {elapsed:.2f}s (limit {limit:.0f}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_extensionality_independence():
    started = time.perf_counter()
    m = models.ext_counter_model()
    assert m.ifs.carrier(0) is not None and len(m.ifs.carrier(0)) == 2
    for text in models.EXT_AXIOMS:
        value, exact = models.eval_prop_report(m, parse_prop(text, m.sig))
        assert (value, exact) == (1, True), text
    assert models.eval_prop_report(m, parse_prop("forall x. =(f(x), x)", m.sig)) == (1, True)
    eq = parse_prop("=(Λ(x. f(x)), Λ(x. x))", m.sig)
    assert models.eval_prop_report(m, eq) == (0, True)
    assert models.eval_term(m, parse_term("Λ(x. f(x))", m.sig)) == ("l", 0)
    assert models.eval_term(m, parse_term("Λ(x. x)", m.sig)) == ("k", 0)
    _report(1, "extensionality independence", started, 1.0)


def _scheme_instance(sig, inj, binder, u, v, picked):
    # graft the instance terms into the scheme bodies: their free x/y become
    # bound, exactly as scheme instantiation prescribes
    case = App("δ", (
        Slot((), App(inj, (Slot((), syntax.Var(binder)),))),
        Slot(("x",), u),
        Slot(("y",), v),
    ))
    return Atom("=", (Slot((), case), Slot((), picked)))


def test_criterion_2_disjoint_sum():
    started = time.perf_counter()
    m = models.delta_model()
    case = parse_term("δ(a(), x. a(), y. a())", m.sig)
    assert models.eval_term(m, case) == 0
    assert models.eval_term(m, parse_term("a()", m.sig)) == 1
    eq = parse_prop("=(δ(a(), x. a(), y. a()), a())", m.sig)
    assert models.eval_prop_report(m, eq) == (0, True)
    rng = random.Random(0xD15C)
    failures = 0
    for trial in range(1000):
        u = gen.random_term(rng, m.sig, rng.randint(1, 5), free=("x", "y", "z"))
        v = gen.random_term(rng, m.sig, rng.randint(1, 5), free=("x", "y", "z"))
        phi = {n: rng.randrange(0, 200) for n in ("x", "y", "z")}
        inst_i = _scheme_instance(m.sig, "i", "x", u, v, u)
        inst_j = _scheme_instance(m.sig, "j", "y", u, v, v)
        if models.eval_prop_report(m, inst_i, phi) != (1, True):
            failures += 1
        if models.eval_prop_report(m, inst_j, phi) != (1, True):
            failures += 1
    assert failures == 0
    _report(2, "disjoint-sum non-provability", started, 5.0)


def test_criterion_3_structure_sweeps():
    started = time.perf_counter()
    m = models.ext_counter_model()
    rep = models.check_ifs(m.ifs, 3, 3, 3, mode="exhaustive")
    assert rep.ok and rep.checked > 1000
    for f in ("f", "Λ"):
        crep = models.check_coherence(m, f, 3, 3, mode="exhaustive")
        assert crep.ok, f
    assert models.check_unary_retraction(m, "Λ", 3).ok
    ffn = models.full_function_ifs((0, 1))
    rep2 = models.check_ifs(ffn, 2, 2, 2, mode="exhaustive")
    assert rep2.ok
    _report(3, "structure and coherence sweeps", started, 60.0)


def test_criterion_4_translation_fidelity():
    started = time.perf_counter()
    lam_sig = syntax.Signature({"f": (0, 0), "Λ": (1,)}, {"=": (0, 0)})
    got = precook.precook_prop(
        lam_sig, parse_prop("forall x. forall y. =(f(x, y), Λ(z. f(x, z)))", lam_sig))
    assert got == sigma.parse_lprop(
        "forall x. forall y. =(f_0(x, y), Λ_0(f_1(x[up_0], 1_1)))")
    rng = random.Random(0xF1DE)
    for _ in range(1000):
        t = gen.random_term(rng, SIG, rng.randint(1, 10))
        image = precook.precook(SIG, t)
        assert sigma.sort_of(SIG, image) == sigma.TermSort(0)
        assert syntax.alpha_eq(precook.uncook(SIG, image), t)
    _report(4, "translation fidelity", started, 10.0)


def test_criterion_5_substitution_commutation():
    started = time.perf_counter()
    rs = sigma.sigma_system(SIG)
    rng = random.Random(0x5C03)
    failures = 0
    for _ in range(10_000):
        t = gen.random_term(rng, SIG, rng.randint(1, 6))
        a = gen.random_prop(rng, SIG, rng.randint(1, 8))
        x = rng.choice(("x", "y", "z"))
        if not precook.subst_commutes(SIG, t, a, x, rs=rs):
            failures += 1
    assert failures == 0
    _report(5, "substitution commutation", started, 120.0)


def test_criterion_6_rewrite_engine_health():
    started = time.perf_counter()
    rs = sigma.sigma_system(SIG)
    term_rep = sigma.termination_probe(rs, size_bound=40, samples=10_000,
                                       seed=0x6EA1, check_sorts=True)
    assert term_rep.ok, term_rep.summary()
    assert term_rep.max_steps_innermost > 0
    confl_rep = sigma.local_confluence_probe(rs, size_bound=40, samples=10_000,
                                             seed=0x6EA2)
    assert confl_rep.ok, confl_rep.summary()
    assert confl_rep.with_multiple_redexes > 1000
    _report(6, "rewrite engine health", started, 300.0)


def test_criterion_7_proof_pipeline():
    started = time.perf_counter()
    cong = proofs.Congruence(sigma.sigma_system(CORPUS_SIG))
    count = 0
    rules_seen = set()
    for name, proof in corpus():
        assert proofs.check_binding_proof(CORPUS_SIG, proof).ok, name
        translated = precook.translate_proof(CORPUS_SIG, proof)
        assert proofs.check_modulo_proof(CORPUS_SIG, cong, translated).ok, name
        assert translated.height() == proof.height(), name
        count += 1
        stack = [proof]
        while stack:
            node = stack.pop()
            rules_seen.add(node.rule.rule)
            stack.extend(node.premises)
    assert count >= 10
    assert rules_seen == set(proofs.Rule)
    assert proofs.check_modulo_proof(ARITH_SIG, arith_congruence(),
                                     four_is_even_proof()).ok
    _report(7, "proof translation pipeline", started, 5.0)


def test_criterion_8_model_adapters():
    started = time.perf_counter()
    m = models.ext_counter_model()
    nm = models.sigma_model_from_binding(m)
    rule_rep = models.validate_sigma_rules(nm, instances_per_rule=84, seed=0xADA7)
    assert rule_rep.ok and rule_rep.checked >= 1000
    transport = models.denotation_transport_check(m, nm, samples=1000, seed=0xADA8)
    assert transport.ok
    m2 = models.binding_model_from_sigma(nm, "roundtrip")
    transport2 = models.denotation_transport_check(m2, nm, samples=1000, seed=0xADA9)
    assert transport2.ok
    for text in models.EXT_AXIOMS:
        assert models.eval_prop_report(m2, parse_prop(text, m.sig)) == (1, True)
    eq = parse_prop("=(Λ(x. f(x)), Λ(x. x))", m.sig)
    assert models.eval_prop_report(m2, eq) == (0, True)
    assert models.eval_term(m2, parse_term("Λ(x. f(x))", m.sig)) == ("l", 0)
    assert models.eval_term(m2, parse_term("Λ(x. x)", m.sig)) == ("k", 0)
    _report(8, "model adapters", started, 60.0)
