"""The two sequent-calculus checkers, the congruence decision procedure,
and the proof text format."""

import random
from collections import Counter

import pytest

from bindlog import precook, sigma, syntax
from bindlog.proofs import (
    Congruence,
    ProofTree,
    Rule,
    RuleApp,
    Sequent,
    check_binding_proof,
    check_modulo_proof,
    congruence_closure_check,
    parse_proof_file,
    print_proof_file,
)
from bindlog.syntax import Signature, parse_prop, parse_term, to_debruijn

from proof_corpus import CORPUS_SIG, axiom, corpus, equality_compat_derivation, node

ARITH_SIG = Signature({"0": (), "S": (0,), "+": (0, 0), "*": (0, 0)}, {"=": (0, 0)})
ARITH_RULES = """
plus0: +(0(), ?y) -> ?y
plusS: +(S(?x), ?y) -> S(+(?x, ?y))
mul0:  *(0(), ?y) -> 0()
mulS:  *(S(?x), ?y) -> +(*(?x, ?y), ?y)
"""


def arith_congruence():
    return Congruence(sigma.load_rules(ARITH_RULES, sig=ARITH_SIG, name="arith"))


def AP(s):
    return parse_prop(s, ARITH_SIG)


def AT(s):
    return parse_term(s, ARITH_SIG)


def num(n):
    return "S(" * n + "0()" + ")" * n


def four_is_even_proof():
    """The three-node derivation that the number four is even, in the
    calculus modulo the arithmetic rules."""
    goal_inst = AP(f"=(*({num(2)}, {num(2)}), {num(4)})")
    ax = axiom_at(AP(f"=({num(4)}, {num(4)})"), goal_inst)
    alll = node(Rule.ALL_L, [AP("forall x. =(x, x)")], [goal_inst], ax,
                principal=0, x="x", a=AP("=(x, x)"), t=AT(num(4)))
    return node(Rule.EX_R, [AP("forall x. =(x, x)")],
                [AP(f"exists x. =(*({num(2)}, x), {num(4)})")], alll,
                principal=0, x="x", a=AP(f"=(*({num(2)}, x), {num(4)})"), t=AT(num(2)))


def axiom_at(left, right):
    return ProofTree(Sequent((left,), (right,)), RuleApp(Rule.AXIOM))


# ---------------------------------------------------------------------------
# an independent multiset-style checker for cross-validation


def _multiset(props):
    return Counter(to_debruijn(p) for p in props)


def independent_check(sig, tree) -> bool:
    """Order-insensitive re-verification of the rules the corpus uses,
    written against multisets of canonical forms instead of positions."""
    L = _multiset(tree.conclusion.left)
    R = _multiset(tree.conclusion.right)
    rule = tree.rule.rule
    prems = [q.conclusion for q in tree.premises]
    ok_here = False
    if rule is Rule.AXIOM:
        ok_here = not prems and len(L) == len(R) == 1 and L == R
    elif rule is Rule.WEAK_L:
        (p,) = prems
        pl = _multiset(p.left)
        ok_here = _multiset(p.right) == R and (L - pl).total() == 1 and not (pl - L)
    elif rule is Rule.WEAK_R:
        (p,) = prems
        pr = _multiset(p.right)
        ok_here = _multiset(p.left) == L and (R - pr).total() == 1 and not (pr - R)
    elif rule is Rule.IMP_L:
        p1, p2 = prems
        for c in list(L):
            a_forms = _multiset(p1.right) - R
            b_forms = _multiset(p2.left) - (L - Counter({c: 1}))
            if a_forms.total() == 1 and b_forms.total() == 1:
                (a,) = a_forms
                (b,) = b_forms
                if c == ("imp", a, b) \
                        and _multiset(p1.left) == L - Counter({c: 1}) \
                        and _multiset(p2.right) == R:
                    ok_here = True
    elif rule is Rule.ALL_L:
        (p,) = prems
        t = tree.rule.t
        for prop in tree.conclusion.left:
            if isinstance(prop, syntax.Forall):
                c = to_debruijn(prop)
                inst = syntax.substitute({prop.var: t}, prop.body)
                want = (L - Counter({c: 1})) + Counter({to_debruijn(inst): 1})
                if _multiset(p.left) == want and _multiset(p.right) == R:
                    ok_here = True
    else:
        raise AssertionError(f"independent checker does not handle {rule}")
    return ok_here and all(independent_check(sig, q) for q in tree.premises)


# ---------------------------------------------------------------------------
# the plain calculus


def test_axiom_ok():
    assert check_binding_proof(CORPUS_SIG, axiom(parse_prop("Q", CORPUS_SIG))).ok


def test_axiom_up_to_alpha():
    a = parse_prop("forall x. P(x)", CORPUS_SIG)
    b = parse_prop("forall y. P(y)", CORPUS_SIG)
    assert check_binding_proof(CORPUS_SIG, axiom_at(a, b)).ok


def test_axiom_needs_singletons():
    q = parse_prop("Q", CORPUS_SIG)
    bad = ProofTree(Sequent((q, q), (q,)), RuleApp(Rule.AXIOM))
    r = check_binding_proof(CORPUS_SIG, bad)
    assert not r.ok and r.kind == "RuleMismatch"


def test_forall_right_freshness_violation():
    px = parse_prop("P(x)", CORPUS_SIG)
    allx = parse_prop("forall x. P(x)", CORPUS_SIG)
    bad = node(Rule.ALL_R, [px], [allx], axiom_at(px, px), principal=0)
    r = check_binding_proof(CORPUS_SIG, bad)
    assert not r.ok and r.kind == "SideConditionViolated"
    assert "free in the context" in r.message


def test_forall_left_needs_witness():
    allx = parse_prop("forall x. P(x)", CORPUS_SIG)
    px = parse_prop("P(c())", CORPUS_SIG)
    bad = node(Rule.ALL_L, [allx], [px], axiom(px), principal=0)
    r = check_binding_proof(CORPUS_SIG, bad)
    assert not r.ok and "witness" in r.message


def test_corpus_all_valid():
    seen_rules = set()
    count = 0
    for name, proof in corpus():
        r = check_binding_proof(CORPUS_SIG, proof)
        assert r.ok, f"{name}: {r}"
        count += 1
        stack = [proof]
        while stack:
            n = stack.pop()
            seen_rules.add(n.rule.rule)
            stack.extend(n.premises)
    assert count >= 10
    assert seen_rules == set(Rule)


def test_equality_derivation_against_independent_checker():
    proof = equality_compat_derivation()
    assert check_binding_proof(CORPUS_SIG, proof).ok
    assert independent_check(CORPUS_SIG, proof)


def test_independent_checker_rejects_breakage():
    proof = equality_compat_derivation()
    broken = ProofTree(proof.conclusion,
                       RuleApp(Rule.ALL_L, principal=0, t=parse_term("c()", CORPUS_SIG)),
                       proof.premises)
    assert not check_binding_proof(CORPUS_SIG, broken).ok
    assert not independent_check(CORPUS_SIG, broken)


def test_substitution_in_all_left_avoids_capture():
    # instantiating with a term that mentions the binder name must rename
    sig = CORPUS_SIG
    hyp = parse_prop("forall x. P(Λ(z. x))", sig)
    good = node(Rule.ALL_L, [hyp], [parse_prop("P(Λ(w. f(z)))", sig)],
                axiom(parse_prop("P(Λ(w. f(z)))", sig)),
                principal=0, t=parse_term("f(z)", sig))
    assert check_binding_proof(sig, good).ok
    captured = node(Rule.ALL_L, [hyp], [parse_prop("P(Λ(z. f(z)))", sig)],
                    axiom(parse_prop("P(Λ(z. f(z)))", sig)),
                    principal=0, t=parse_term("f(z)", sig))
    assert not check_binding_proof(sig, captured).ok


# ---------------------------------------------------------------------------
# the calculus modulo


def test_four_is_even():
    assert check_modulo_proof(ARITH_SIG, arith_congruence(), four_is_even_proof()).ok


def test_axiom_modulo_arithmetic():
    ax = axiom_at(AP(f"=({num(4)}, {num(4)})"), AP(f"=(*({num(2)}, {num(2)}), {num(4)})"))
    assert check_modulo_proof(ARITH_SIG, arith_congruence(), ax).ok


def test_axiom_fails_under_empty_congruence():
    ax = axiom_at(AP(f"=({num(4)}, {num(4)})"), AP(f"=(*({num(2)}, {num(2)}), {num(4)})"))
    r = check_modulo_proof(ARITH_SIG, Congruence.syntactic("term"), ax)
    assert not r.ok and r.kind == "RuleMismatch"


def test_congruence_closure_examples():
    cong = arith_congruence()
    assert congruence_closure_check(
        cong, AP(f"=({num(4)}, {num(4)})"), AP(f"=(*({num(2)}, {num(2)}), {num(4)})"))
    a = AP("=(x, x)")
    assert congruence_closure_check(Congruence.syntactic("term"), a, a)
    # one-step closure collapse under the substitution system
    lsig = Signature({}, {"=": (0, 0)})
    scong = Congruence(sigma.sigma_system(lsig))
    lhs = sigma.parse_lprop("=(1_1[t . id_0], u)")
    rhs = sigma.parse_lprop("=(t, u)")
    assert congruence_closure_check(scong, lhs, rhs)


def test_congruence_budget_exceeded_is_reported():
    cong = Congruence(sigma.load_rules(ARITH_RULES, sig=ARITH_SIG), budget=1)
    ax = axiom_at(AP(f"=({num(4)}, {num(4)})"), AP(f"=(*({num(2)}, {num(2)}), {num(4)})"))
    r = check_modulo_proof(ARITH_SIG, cong, ax)
    assert not r.ok and r.kind == "CongruenceBudgetExceeded"


def test_binding_valid_implies_modulo_valid_with_syntactic_congruence():
    for name, proof in corpus():
        r = check_modulo_proof(CORPUS_SIG, Congruence.syntactic("term"), proof)
        assert r.ok, f"{name}: {r}"


def _expand_numeral(rng, t):
    """A congruent variant: wrap random subterms as 0 + t."""
    if isinstance(t, syntax.App):
        args = tuple(syntax.Slot(s.binders, _expand_numeral(rng, s.body)) for s in t.args)
        t = syntax.App(t.symbol, args)
    if rng.random() < 0.4:
        zero = syntax.App("0", ())
        return syntax.App("+", (syntax.Slot((), zero), syntax.Slot((), t)))
    return t


def _congruent_prop_variant(rng, p, cache):
    if p in cache:
        return cache[p]
    if isinstance(p, syntax.Atom):
        out = syntax.Atom(p.pred, tuple(
            syntax.Slot(s.binders, _expand_numeral(rng, s.body)) for s in p.args))
    elif isinstance(p, (syntax.Imp, syntax.And, syntax.Or)):
        out = type(p)(_congruent_prop_variant(rng, p.a, cache),
                      _congruent_prop_variant(rng, p.b, cache))
    elif isinstance(p, syntax.Bottom):
        out = p
    else:
        out = type(p)(p.var, _congruent_prop_variant(rng, p.body, cache))
    cache[p] = out
    return out


def test_congruent_replacement_preserves_validity():
    rng = random.Random(99)
    cong = arith_congruence()
    proof = four_is_even_proof()
    for _ in range(20):
        cache = {}

        def tr(nd):
            app = nd.rule
            new_app = RuleApp(
                app.rule, app.principal, app.x,
                _congruent_prop_variant(rng, app.a, cache) if app.a is not None else None,
                _expand_numeral(rng, app.t) if app.t is not None else None)
            return ProofTree(
                Sequent(tuple(_congruent_prop_variant(rng, a, cache) for a in nd.conclusion.left),
                        tuple(_congruent_prop_variant(rng, b, cache) for b in nd.conclusion.right)),
                new_app, tuple(tr(q) for q in nd.premises))

        variant = tr(proof)
        assert variant.height() == proof.height()
        assert check_modulo_proof(ARITH_SIG, cong, variant).ok


def test_checker_deterministic_first_error():
    q = parse_prop("Q", CORPUS_SIG)
    px = parse_prop("P(x)", CORPUS_SIG)
    # both branches end in a wrongly-tagged leaf; the left one must win
    bad_leaf = ProofTree(Sequent((q,), (q,)), RuleApp(Rule.BOT_L, principal=0))
    two_bad = node(Rule.CUT, [q], [q],
                   node(Rule.WEAK_L, [q, px], [q], bad_leaf, principal=1),
                   node(Rule.WEAK_R, [q], [px, q], bad_leaf, principal=0))
    r1 = check_binding_proof(CORPUS_SIG, two_bad)
    r2 = check_binding_proof(CORPUS_SIG, two_bad)
    assert not r1.ok
    assert (r1.kind, r1.path, r1.message) == (r2.kind, r2.path, r2.message)
    assert r1.path == (0, 0)  # leftmost premise reported first


def test_partial_quantifier_annotation_rejected():
    allx = parse_prop("forall x. P(x)", CORPUS_SIG)
    pc = parse_prop("P(c())", CORPUS_SIG)
    partial = ProofTree(
        Sequent((allx,), (pc,)),
        RuleApp(Rule.ALL_L, principal=0, x="x", t=parse_term("c()", CORPUS_SIG)),
        (axiom(pc),))
    r = check_binding_proof(CORPUS_SIG, partial)
    assert not r.ok and "both x and A" in r.message


# ---------------------------------------------------------------------------
# mutation testing: break valid proofs in targeted ways, expect rejection


def _corrupt_first_leaf(tree, junk):
    """Swap the right side of the first axiom leaf for a junk formula; a
    falsity leaf has its principal `false` swapped for the junk instead."""
    app = tree.rule
    if app.rule is Rule.AXIOM:
        return ProofTree(Sequent(tree.conclusion.left, (junk,)), app, ())
    if app.rule is Rule.BOT_L:
        left = list(tree.conclusion.left)
        left[len(left) - 1 if app.principal is None else app.principal] = junk
        return ProofTree(Sequent(tuple(left), tree.conclusion.right), app, ())
    prems = list(tree.premises)
    for i, p in enumerate(prems):
        mutated = _corrupt_first_leaf(p, junk)
        if mutated is not None:
            prems[i] = mutated
            return ProofTree(tree.conclusion, tree.rule, tuple(prems))
    return None


def _retag_witness_rules(tree, frm, to):
    changed = False

    def go(node):
        nonlocal changed
        app = node.rule
        if app.rule is frm:
            changed = True
            app = RuleApp(to, app.principal, app.x, app.a, app.t)
        return ProofTree(node.conclusion, app, tuple(go(p) for p in node.premises))

    out = go(tree)
    return out if changed else None


def _corrupt_witness(tree):
    changed = False

    def go(node):
        nonlocal changed
        app = node.rule
        if app.rule in (Rule.ALL_L, Rule.EX_R) and app.t is not None and not changed:
            changed = True
            app = RuleApp(app.rule, app.principal, app.x, app.a,
                          parse_term("f(f(c()))", CORPUS_SIG))
        return ProofTree(node.conclusion, app, tuple(go(p) for p in node.premises))

    out = go(tree)
    return out if changed else None


def test_mutated_corpus_rejected():
    junk = parse_prop("P(f(f(f(x))))", CORPUS_SIG)
    for name, proof in corpus():
        broken = _corrupt_first_leaf(proof, junk)
        assert broken is not None, name
        assert not check_binding_proof(CORPUS_SIG, broken).ok, name

        retagged = _retag_witness_rules(proof, Rule.ALL_L, Rule.EX_L)
        if retagged is not None:
            assert not check_binding_proof(CORPUS_SIG, retagged).ok, name

        bad_witness = _corrupt_witness(proof)
        if bad_witness is not None:
            assert not check_binding_proof(CORPUS_SIG, bad_witness).ok, name


def test_dropped_premise_rejected():
    for name, proof in corpus():
        if proof.premises:
            broken = ProofTree(proof.conclusion, proof.rule, proof.premises[:-1])
            assert not check_binding_proof(CORPUS_SIG, broken).ok, name


# ---------------------------------------------------------------------------
# proof files


def test_proof_file_roundtrip_corpus():
    for name, proof in corpus():
        text = print_proof_file(proof)
        back = parse_proof_file(text, CORPUS_SIG)
        assert back == proof, name
        assert check_binding_proof(CORPUS_SIG, back).ok


def test_proof_file_lprop_roundtrip():
    proof = equality_compat_derivation()
    tr = precook.translate_proof(CORPUS_SIG, proof)
    text = print_proof_file(tr, layer="lprop")
    back = parse_proof_file(text, CORPUS_SIG)
    assert back == tr
    cong = Congruence(sigma.sigma_system(CORPUS_SIG))
    assert check_modulo_proof(CORPUS_SIG, cong, back).ok


def test_proof_file_errors():
    with pytest.raises(syntax.ParseError):
        parse_proof_file("rule bogus |- Q |- Q", CORPUS_SIG)
    with pytest.raises(syntax.ParseError):
        parse_proof_file("rule axiom |- Q |- Q\n   rule axiom |- Q |- Q", CORPUS_SIG)
    with pytest.raises(syntax.ParseError):
        parse_proof_file("", CORPUS_SIG)
