"""The translation between layers: term and proposition translation, the
inverse on its image, substitution commutation, theories, and proofs."""

import random

import pytest

from bindlog import gen, precook, proofs, sigma, syntax
from bindlog.errors import NotAnFTerm
from bindlog.precook import precook as F
from bindlog.precook import precook_prop, subst_commutes, uncook, uncook_prop
from bindlog.sigma import Closure, Comp, FApp, FreeVar, Id, Index, Shift, TermSort, sort_of
from bindlog.syntax import Signature, alpha_eq, parse_prop, parse_term

from conftest import SIG

LAM_SIG = Signature({"f": (0, 0), "Λ": (1,)}, {"=": (0, 0)})
RS = sigma.sigma_system(SIG)


def test_worked_example_translates_exactly():
    p = parse_prop("forall x. forall y. =(f(x, y), Λ(z. f(x, z)))", LAM_SIG)
    out = precook_prop(LAM_SIG, p)
    expected = sigma.parse_lprop("forall x. forall y. =(f_0(x, y), Λ_0(f_1(x[up_0], 1_1)))")
    assert out == expected


def test_bound_variable_is_first_index():
    assert F(SIG, syntax.Var("x"), ("x",)) == Index(1, 1)


def test_free_variable_is_shielded():
    assert F(SIG, syntax.Var("x"), ("y", "z")) == Closure(FreeVar("x"), Comp(Shift(0), Shift(1)))
    assert F(SIG, syntax.Var("x")) == FreeVar("x")


def test_duplicate_context_names_take_leftmost():
    assert F(SIG, syntax.Var("x"), ("x", "x")) == Index(1, 2)


def test_deep_index_is_spelled_normal():
    out = F(SIG, syntax.Var("x"), ("y", "x", "z"))
    assert out == Closure(Index(1, 2), Shift(2))
    assert sigma.is_F_term(SIG, out)


def test_translation_sort():
    rng = random.Random(3)
    for _ in range(300):
        t = gen.random_term(rng, SIG, rng.randint(1, 10))
        ctx = tuple(rng.choice("abc") for _ in range(rng.randint(0, 3)))
        assert sort_of(SIG, F(SIG, t, ctx)) == TermSort(len(ctx))


def test_beta_scheme_instances():
    # the argument-application axiom translates instance by instance
    sig = Signature({"α": (0, 0), "λ": (1,)}, {"=": (0, 0)})
    for t_text, expected in [
        ("x", "forall x. =(α_0(λ_0(1_1), x), x)"),
        ("g", "forall x. =(α_0(λ_0(g[up_0]), x), g)"),
    ]:
        inst = parse_prop(f"forall x. =(α(λ(x. {t_text}), x), {t_text})", sig)
        assert precook_prop(sig, inst) == sigma.parse_lprop(expected)


def test_bottom_translates_to_itself():
    assert precook_prop(SIG, syntax.Bottom()) == syntax.Bottom()


def test_translations_are_normal_forms():
    rng = random.Random(5)
    for _ in range(1000):
        p = gen.random_prop(rng, SIG, rng.randint(1, 10))
        assert sigma.is_F_prop(SIG, precook_prop(SIG, p))


def test_translation_injective_up_to_alpha():
    rng = random.Random(7)
    for _ in range(300):
        t = gen.random_term(rng, SIG, rng.randint(1, 8))
        u = gen.random_term(rng, SIG, rng.randint(1, 8))
        if F(SIG, t) == F(SIG, u):
            assert alpha_eq(t, u)
        if alpha_eq(t, u):
            assert F(SIG, t) == F(SIG, u)


# ---------------------------------------------------------------------------
# the inverse direction


def test_uncook_paper_term():
    t = sigma.parse_lterm("Λ_0(f_1(x[up_0], 1_1))")
    back = uncook(LAM_SIG, t)
    assert alpha_eq(back, parse_term("Λ(z. f(x, z))", LAM_SIG))


def test_uncook_variable():
    assert uncook(SIG, FreeVar("x")) == syntax.Var("x")


def test_uncook_rejects_non_image_terms():
    with pytest.raises(NotAnFTerm):
        uncook(SIG, Closure(Index(1, 1), sigma.Cons(FreeVar("x"), Id(0))))
    with pytest.raises(NotAnFTerm):
        uncook(SIG, Index(1, 1))  # bound index with no enclosing binder


def test_roundtrip_uncook_precook():
    rng = random.Random(11)
    for _ in range(1000):
        t = gen.random_term(rng, SIG, rng.randint(1, 9))
        assert alpha_eq(uncook(SIG, F(SIG, t)), t)


def test_uncook_binders_dodge_quantified_names():
    # the first generated binder name must not collide with a quantifier
    # variable whose shielded occurrence sits under the binder
    sig = Signature({"Λ": (1,)}, {"P": (0,)})
    p = parse_prop("forall z1. P(Λ(w. z1))", sig)
    image = precook_prop(sig, p)
    back = uncook_prop(sig, image)
    assert alpha_eq(back, p)
    assert precook_prop(sig, back) == image


def test_roundtrip_precook_uncook_exact():
    rng = random.Random(13)
    for _ in range(500):
        t = gen.random_term(rng, SIG, rng.randint(1, 9))
        image = F(SIG, t)
        assert F(SIG, uncook(SIG, image)) == image
        p = gen.random_prop(rng, SIG, rng.randint(1, 9))
        image_p = precook_prop(SIG, p)
        assert precook_prop(SIG, uncook_prop(SIG, image_p)) == image_p


# ---------------------------------------------------------------------------
# substitution commutation


def test_subst_commutes_base_case():
    # u = x: both sides are the translation of t
    rng = random.Random(17)
    for _ in range(50):
        t = gen.random_term(rng, SIG, rng.randint(1, 8))
        assert subst_commutes(SIG, t, syntax.Var("x"), "x", rs=RS)


def test_subst_commutes_binder_case_hand_checked():
    # u = Λ(z. x), t = g(z, z): the named side renames the binder away from
    # the free z in t, the sorted side pushes a closure through the family
    t = parse_term("g(z, z)", SIG)
    u = parse_term("Λ(z. x)", SIG)
    lhs = F(SIG, syntax.substitute({"x": t}, u))
    rhs = syntax.graft({"x": F(SIG, t)}, F(SIG, u))
    assert lhs != rhs  # grafting leaves a closure redex
    assert sigma.normalize(RS, lhs) == sigma.normalize(RS, rhs)
    expected = FApp("Λ", 0, (FApp("g", 1, (
        Closure(FreeVar("z"), Shift(0)), Closure(FreeVar("z"), Shift(0)))),))
    assert sigma.normalize(RS, rhs) == expected
    assert subst_commutes(SIG, t, u, "x", rs=RS)


def test_subst_commutes_props_and_terms_random():
    rng = random.Random(19)
    for _ in range(500):
        t = gen.random_term(rng, SIG, rng.randint(1, 6))
        x = rng.choice(("x", "y", "z"))
        if rng.random() < 0.5:
            u = gen.random_term(rng, SIG, rng.randint(1, 8))
        else:
            u = gen.random_prop(rng, SIG, rng.randint(1, 8))
        assert subst_commutes(SIG, t, u, x, rs=RS)


def test_prop_grafting_agrees_when_capture_free():
    rng = random.Random(23)
    checked = 0
    for _ in range(300):
        t = gen.random_term(rng, SIG, rng.randint(1, 5))
        a = gen.random_prop(rng, SIG, rng.randint(1, 8))
        x = rng.choice(("x", "y"))
        ap = precook_prop(SIG, a)
        tp = F(SIG, t)
        if syntax.free_vars(tp) & _quantified_names(ap):
            continue
        lhs = sigma.normalize(RS, syntax.graft({x: tp}, ap))
        rhs = sigma.normalize(RS, syntax.subst({x: tp}, ap))
        assert syntax.alpha_eq(lhs, rhs)
        checked += 1
    assert checked > 100


def _quantified_names(a) -> set:
    if isinstance(a, (syntax.Forall, syntax.Exists)):
        return {a.var} | _quantified_names(a.body)
    if isinstance(a, (syntax.Imp, syntax.And, syntax.Or)):
        return _quantified_names(a.a) | _quantified_names(a.b)
    return set()


# ---------------------------------------------------------------------------
# axioms and proofs


def test_precook_prop_lambda_equality_axioms():
    axioms = [
        parse_prop("forall x. =(x, x)", LAM_SIG),
        parse_prop("forall y. forall z. =(y, z) => =(Λ(x. y), Λ(x. z))", LAM_SIG),
    ]
    cooked = [precook_prop(LAM_SIG, a) for a in axioms]
    assert cooked[0] == sigma.parse_lprop("forall x. =(x, x)")
    assert cooked[1] == sigma.parse_lprop(
        "forall y. forall z. =(y, z) => =(Λ_0(y[up_0]), Λ_0(z[up_0]))")


def test_translate_beta_instance():
    sig = Signature({"α": (0, 0), "λ": (1,)}, {"=": (0, 0)})
    inst = parse_prop("forall x. =(α(λ(x. x), x), x)", sig)
    cooked = precook_prop(sig, inst)
    assert cooked == sigma.parse_lprop("forall x. =(α_0(λ_0(1_1), x), x)")
    assert sigma.well_sorted(sig, cooked).ok


def _axiom(p):
    return proofs.ProofTree(proofs.Sequent((p,), (p,)), proofs.RuleApp(proofs.Rule.AXIOM))


def test_translate_axiom_proof():
    p = parse_prop("=(Λ(x. y), Λ(x. y))", LAM_SIG)
    tr = precook.translate_proof(LAM_SIG, _axiom(p))
    assert tr.rule.rule is proofs.Rule.AXIOM
    lp = precook_prop(LAM_SIG, p)
    assert tr.conclusion == proofs.Sequent((lp,), (lp,))


def test_translate_ex_right_gets_parameters():
    a = parse_prop("=(x, x)", LAM_SIG)
    ex = parse_prop("exists x. =(x, x)", LAM_SIG)
    t = parse_term("Λ(z. z)", LAM_SIG)
    inner = _axiom(a)
    # |- =(t,t) would be needed for a genuine proof; here the shape is what
    # matters: premise |- (t/x)A, conclusion |- exists x. A
    inst = syntax.substitute({"x": t}, a)
    node = proofs.ProofTree(
        proofs.Sequent((inst,), (ex,)),
        proofs.RuleApp(proofs.Rule.EX_R, t=t),
        (proofs.ProofTree(proofs.Sequent((inst,), (inst,)), proofs.RuleApp(proofs.Rule.AXIOM)),),
    )
    assert proofs.check_binding_proof(LAM_SIG, node).ok
    tr = precook.translate_proof(LAM_SIG, node)
    assert tr.rule.x == "x"
    assert tr.rule.a == precook_prop(LAM_SIG, a)
    assert tr.rule.t == F(LAM_SIG, t)
    cong = proofs.Congruence(sigma.sigma_system(LAM_SIG))
    assert proofs.check_modulo_proof(LAM_SIG, cong, tr).ok


def test_translate_rejects_invalid_source():
    bad = _axiom(parse_prop("=(x, y)", LAM_SIG))
    bad = proofs.ProofTree(
        proofs.Sequent((parse_prop("=(x, y)", LAM_SIG),), (parse_prop("=(y, x)", LAM_SIG),)),
        proofs.RuleApp(proofs.Rule.AXIOM))
    with pytest.raises(precook.InvalidSourceProof):
        precook.translate_proof(LAM_SIG, bad)


def test_translate_preserves_height():
    from proof_corpus import CORPUS_SIG, corpus

    for name, proof in corpus():
        tr = precook.translate_proof(CORPUS_SIG, proof)
        assert tr.height() == proof.height(), name
