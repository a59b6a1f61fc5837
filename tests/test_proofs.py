"""The two sequent-calculus checkers, the congruence decision procedure,
and the proof text format."""

import random
import re
from collections import Counter
from pathlib import Path

import pytest

from bindlog import precook, sigma, syntax
from bindlog.errors import CheckResult, CongruenceBudgetExceeded
from bindlog.proofs import (
    RULES,
    Congruence,
    ProofTree,
    Rule,
    RuleApp,
    Sequent,
    _check,
    _check_signature,
    _first_rejection,
    _Rejected,
    check_binding_proof,
    check_modulo_proof,
    parse_proof_file,
    print_proof_file,
)
from bindlog.syntax import (
    And,
    Bottom,
    Exists,
    Forall,
    Imp,
    Or,
    Signature,
    parse_prop,
    parse_term,
)

from conftest import _ref_to_debruijn
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
    return Counter(_ref_to_debruijn(p) for p in props)


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
                c = _ref_to_debruijn(prop)
                inst = syntax.substitute({prop.var: t}, prop.body)
                want = (L - Counter({c: 1})) + Counter({_ref_to_debruijn(inst): 1})
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
    r = check_modulo_proof(ARITH_SIG, Congruence(), ax)
    assert not r.ok and r.kind == "RuleMismatch"


def test_congruence_closure_examples():
    cong = arith_congruence()
    assert cong.equal(AP(f"=({num(4)}, {num(4)})"), AP(f"=(*({num(2)}, {num(2)}), {num(4)})"))
    a = AP("=(x, x)")
    assert Congruence().equal(a, a)
    # one-step closure collapse under the substitution system
    lsig = Signature({}, {"=": (0, 0)})
    scong = Congruence(sigma.sigma_system(lsig))
    lhs = sigma.parse_lprop("=(1_1[t . id_0], u)")
    rhs = sigma.parse_lprop("=(t, u)")
    assert scong.equal(lhs, rhs)


def test_congruence_budget_exceeded_is_reported():
    cong = Congruence(sigma.load_rules(ARITH_RULES, sig=ARITH_SIG), budget=1)
    ax = axiom_at(AP(f"=({num(4)}, {num(4)})"), AP(f"=(*({num(2)}, {num(2)}), {num(4)})"))
    r = check_modulo_proof(ARITH_SIG, cong, ax)
    assert not r.ok and r.kind == "CongruenceBudgetExceeded"


def test_modulo_checker_reports_what_fpush_would_raise_on():
    tree = parse_proof_file("syntax lprop\nrule axiom |- P(Zzz_1(1_1)[x . id_0]) |- P(x)\n",
                            CORPUS_SIG)
    r = check_modulo_proof(CORPUS_SIG, Congruence(sigma.sigma_system(CORPUS_SIG)), tree)
    assert (r.ok, r.kind, r.path) == (False, "SortMismatch", ())
    assert r.message == ("P(Zzz_1(1_1)[x . id_0]) is ill-formed: SortMismatch at 0.0: "
                         "expected a declared function symbol, found 'Zzz'")


def test_checkers_judge_deep_formulas():
    t = AT("0()")
    for _ in range(10_000):
        t = syntax.App("S", (syntax.Slot((), t),))
    deep = syntax.Atom("=", (syntax.Slot((), t), syntax.Slot((), t)))
    assert check_modulo_proof(ARITH_SIG, arith_congruence(), axiom_at(deep, deep)).ok
    assert check_binding_proof(ARITH_SIG, axiom_at(deep, deep)).ok
    bad = syntax.Atom("=", (syntax.Slot((), syntax.App("S", (syntax.Slot((), t),) * 2)),
                            syntax.Slot((), t)))
    r = check_modulo_proof(ARITH_SIG, arith_congruence(), axiom_at(bad, bad))
    assert (r.ok, r.kind) == (False, "ArityMismatch")


def test_modulo_sigma_rejects_a_named_formula():
    tree = parse_proof_file("rule axiom |- P(f(x)) |- P(f(x))\n", CORPUS_SIG)
    r = check_modulo_proof(CORPUS_SIG, Congruence(sigma.sigma_system(CORPUS_SIG)), tree)
    assert (r.ok, r.kind, r.path) == (False, "SortMismatch", ())
    assert r.message == ("P(f(x)) is ill-formed: SortMismatch at 0: "
                         "f(x) is not a term of this layer")


def test_plain_checker_rejects_a_sorted_formula():
    tree = parse_proof_file("syntax lprop\nrule axiom |- P(Zzz_0(x, x)) |- P(Zzz_0(x, x))\n",
                            CORPUS_SIG)
    r = check_binding_proof(CORPUS_SIG, tree)
    assert (r.ok, r.kind, r.path) == (False, "SortMismatch", ())
    assert r.message == ("P(Zzz_0(x, x)) is ill-formed: SortMismatch at 0: "
                         "Zzz_0(x, x) is not a term of this layer")


def _peeling_proof(n: int) -> ProofTree:
    """Q |- P => (P => ... => Q), n implications deep, by n imp-right over
    n weak-left over the axiom Q |- Q: each imp-right peels one connective,
    so the proof holds n distinct right formulas of sizes 1 to n."""
    p, q = syntax.Atom("P", ()), syntax.Atom("Q", ())
    goals = [q]
    for _ in range(n):
        goals.append(Imp(p, goals[-1]))
    tree = axiom(q)
    for j in range(1, n + 1):
        tree = node(Rule.WEAK_L, [q] + [p] * j, [q], tree)
    for j in range(n - 1, -1, -1):
        tree = node(Rule.IMP_R, [q] + [p] * j, [goals[n - j]], tree)
    return tree


def test_signature_pass_judges_each_distinct_node_once(monkeypatch):
    """The walks look each connective up in NODE_TYPES, so the lookups
    count the connectives judged: linear in the distinct nodes, where
    judging each formula whole takes n^2 / 2 on the peeling proof."""
    sig = Signature({}, {"P": (), "Q": ()})
    assert check_binding_proof(sig, _peeling_proof(250)).ok

    class Counting(type(syntax.NODE_TYPES)):
        lookups = 0

        def __getitem__(self, cls):
            Counting.lookups += 1
            return super().__getitem__(cls)

    monkeypatch.setattr(syntax, "NODE_TYPES", Counting(syntax.NODE_TYPES))
    lookups = {}
    for n in (250, 1000):
        proof = _peeling_proof(n)
        Counting.lookups = 0
        assert _check_signature(sig, Congruence(), proof).ok
        lookups[n] = Counting.lookups
        assert n <= lookups[n] <= 2 * n, lookups
    assert lookups[1000] < 6 * lookups[250], lookups


def test_rule_pass_compares_equal_contexts_without_alpha_eq(monkeypatch):
    """Interned contexts compare with == first, an identity test per
    formula, so the peeling proof at n = 1,000 calls alpha_eq about once
    per node, where comparing its contexts formula by formula called it
    1,003,001 times."""
    sig = Signature({}, {"P": (), "Q": ()})
    proof, real, calls = _peeling_proof(1000), syntax.alpha_eq, Counter()

    def counting(x, y):
        calls["alpha_eq"] += 1
        return real(x, y)

    monkeypatch.setattr(syntax, "alpha_eq", counting)
    assert check_binding_proof(sig, proof).ok
    assert 0 < calls["alpha_eq"] <= 2000, calls


def test_binding_valid_implies_modulo_valid_with_syntactic_congruence():
    for name, proof in corpus():
        r = check_modulo_proof(CORPUS_SIG, Congruence(), proof)
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
# the rule table against the hand-written checker it replaced: the parent
# implementation is kept verbatim below as the reference

_PREMISE_COUNT = {
    Rule.AXIOM: 0, Rule.BOT_L: 0,
    Rule.CUT: 2, Rule.IMP_L: 2, Rule.AND_R: 2, Rule.OR_L: 2,
}


def _reference_check(sig, cong: Congruence, proof: ProofTree, modulo: bool) -> CheckResult:
    def fail(kind, path, msg):
        return CheckResult.failed(kind, path, msg)

    def alpha_list(xs, ys) -> bool:
        return len(xs) == len(ys) and all(syntax.alpha_eq(a, b) for a, b in zip(xs, ys))

    def ceq(a, b) -> bool:
        return cong.equal(a, b) if modulo else syntax.alpha_eq(a, b)

    def principal(node, path, side):
        lst = node.conclusion.left if side == "left" else node.conclusion.right
        i = node.rule.principal
        if i is None:
            i = len(lst) - 1 if side == "left" else 0
        if not (0 <= i < len(lst)):
            return None, fail("PrincipalFormulaMissing", path,
                              f"no formula at {side} index {i}")
        return i, None

    def quantifier_parts(node, path, cls):
        """(x, A) from the annotation, or read off the principal formula."""
        app = node.rule
        if (app.x is None) != (app.a is None):
            return None, None, fail("RuleMismatch", path,
                                    "quantifier annotation needs both x and A")
        if app.x is not None and app.a is not None:
            return app.x, app.a, None
        side = "left" if app.rule in (Rule.ALL_L, Rule.EX_L) else "right"
        i, err = principal(node, path, side)
        if err is not None:
            return None, None, err
        b = (node.conclusion.left if side == "left" else node.conclusion.right)[i]
        if modulo:
            b = cong.normal_form(b)
        if not isinstance(b, cls):
            return None, None, fail(
                "RuleMismatch", path,
                f"principal formula is not a {cls.__name__.lower()} and no (x,A) annotation given")
        return b.var, b.body, None

    def check_node(node: ProofTree, path) -> CheckResult | None:
        rule = node.rule.rule
        L, R = node.conclusion.left, node.conclusion.right
        want = _PREMISE_COUNT.get(rule, 1)
        if len(node.premises) != want:
            return fail("RuleMismatch", path,
                        f"{rule.value} takes {want} premises, got {len(node.premises)}")
        prems = [q.conclusion for q in node.premises]

        if rule is Rule.AXIOM:
            if len(L) != 1 or len(R) != 1:
                return fail("RuleMismatch", path, "axiom concludes a one-formula sequent")
            if not ceq(L[0], R[0]):
                return fail("RuleMismatch", path, "axiom formulas are not identified")
            return None

        if rule is Rule.CUT:
            p1, p2 = prems
            if len(p1.left) != len(L) + 1 or not alpha_list(p1.left[:-1], L) \
                    or not alpha_list(p1.right, R):
                return fail("RuleMismatch", path, "first cut premise does not extend the left side")
            if len(p2.right) != len(R) + 1 or not alpha_list(p2.right[1:], R) \
                    or not alpha_list(p2.left, L):
                return fail("RuleMismatch", path, "second cut premise does not extend the right side")
            if not ceq(p1.left[-1], p2.right[0]):
                return fail("RuleMismatch", path, "cut formulas are not identified")
            return None

        if rule in (Rule.CONTR_L, Rule.CONTR_R):
            side = "left" if rule is Rule.CONTR_L else "right"
            i, err = principal(node, path, side)
            if err is not None:
                return err
            (p,) = prems
            if rule is Rule.CONTR_L:
                gamma = L[:i] + L[i + 1:]
                okctx = (len(p.left) == len(gamma) + 2 and alpha_list(p.left[:-2], gamma)
                         and alpha_list(p.right, R))
                b1, b2 = (p.left[-2:] if okctx else (None, None))
                a = L[i]
            else:
                delta = R[:i] + R[i + 1:]
                okctx = (len(p.right) == len(delta) + 2 and alpha_list(p.right[2:], delta)
                         and alpha_list(p.left, L))
                b1, b2 = (p.right[:2] if okctx else (None, None))
                a = R[i]
            if not okctx:
                return fail("RuleMismatch", path, f"{rule.value} premise has the wrong shape")
            if not (ceq(a, b1) and ceq(a, b2)):
                return fail("RuleMismatch", path, "contracted formulas are not identified")
            return None

        if rule in (Rule.WEAK_L, Rule.WEAK_R):
            side = "left" if rule is Rule.WEAK_L else "right"
            i, err = principal(node, path, side)
            if err is not None:
                return err
            (p,) = prems
            if rule is Rule.WEAK_L:
                ok = alpha_list(p.left, L[:i] + L[i + 1:]) and alpha_list(p.right, R)
            else:
                ok = alpha_list(p.right, R[:i] + R[i + 1:]) and alpha_list(p.left, L)
            if not ok:
                return fail("RuleMismatch", path, f"{rule.value} premise has the wrong shape")
            return None

        if rule is Rule.IMP_L:
            i, err = principal(node, path, "left")
            if err is not None:
                return err
            gamma = L[:i] + L[i + 1:]
            p1, p2 = prems
            if len(p1.right) != len(R) + 1 or not alpha_list(p1.right[1:], R) \
                    or not alpha_list(p1.left, gamma):
                return fail("RuleMismatch", path, "first imp-left premise has the wrong shape")
            if len(p2.left) != len(gamma) + 1 or not alpha_list(p2.left[:-1], gamma) \
                    or not alpha_list(p2.right, R):
                return fail("RuleMismatch", path, "second imp-left premise has the wrong shape")
            if not ceq(L[i], Imp(p1.right[0], p2.left[-1])):
                return fail("RuleMismatch", path, "principal is not the implication of the premises")
            return None

        if rule is Rule.IMP_R:
            i, err = principal(node, path, "right")
            if err is not None:
                return err
            delta = R[:i] + R[i + 1:]
            (p,) = prems
            if len(p.left) != len(L) + 1 or not alpha_list(p.left[:-1], L) \
                    or len(p.right) != len(delta) + 1 or not alpha_list(p.right[1:], delta):
                return fail("RuleMismatch", path, "imp-right premise has the wrong shape")
            if not ceq(R[i], Imp(p.left[-1], p.right[0])):
                return fail("RuleMismatch", path, "principal is not the implication of the premise")
            return None

        if rule is Rule.AND_L:
            i, err = principal(node, path, "left")
            if err is not None:
                return err
            gamma = L[:i] + L[i + 1:]
            (p,) = prems
            if len(p.left) != len(gamma) + 2 or not alpha_list(p.left[:-2], gamma) \
                    or not alpha_list(p.right, R):
                return fail("RuleMismatch", path, "and-left premise has the wrong shape")
            if not ceq(L[i], And(p.left[-2], p.left[-1])):
                return fail("RuleMismatch", path, "principal is not the conjunction of the premise")
            return None

        if rule is Rule.AND_R:
            i, err = principal(node, path, "right")
            if err is not None:
                return err
            delta = R[:i] + R[i + 1:]
            p1, p2 = prems
            for p in (p1, p2):
                if len(p.right) != len(delta) + 1 or not alpha_list(p.right[1:], delta) \
                        or not alpha_list(p.left, L):
                    return fail("RuleMismatch", path, "and-right premise has the wrong shape")
            if not ceq(R[i], And(p1.right[0], p2.right[0])):
                return fail("RuleMismatch", path, "principal is not the conjunction of the premises")
            return None

        if rule is Rule.OR_L:
            i, err = principal(node, path, "left")
            if err is not None:
                return err
            gamma = L[:i] + L[i + 1:]
            p1, p2 = prems
            for p in (p1, p2):
                if len(p.left) != len(gamma) + 1 or not alpha_list(p.left[:-1], gamma) \
                        or not alpha_list(p.right, R):
                    return fail("RuleMismatch", path, "or-left premise has the wrong shape")
            if not ceq(L[i], Or(p1.left[-1], p2.left[-1])):
                return fail("RuleMismatch", path, "principal is not the disjunction of the premises")
            return None

        if rule is Rule.OR_R:
            i, err = principal(node, path, "right")
            if err is not None:
                return err
            delta = R[:i] + R[i + 1:]
            (p,) = prems
            if len(p.right) != len(delta) + 2 or not alpha_list(p.right[2:], delta) \
                    or not alpha_list(p.left, L):
                return fail("RuleMismatch", path, "or-right premise has the wrong shape")
            if not ceq(R[i], Or(p.right[0], p.right[1])):
                return fail("RuleMismatch", path, "principal is not the disjunction of the premise")
            return None

        if rule is Rule.BOT_L:
            i, err = principal(node, path, "left")
            if err is not None:
                return err
            if not ceq(L[i], Bottom()):
                return fail("RuleMismatch", path, "principal is not falsity")
            return None

        if rule is Rule.ALL_L or rule is Rule.EX_R:
            cls = Forall if rule is Rule.ALL_L else Exists
            x, a, err = quantifier_parts(node, path, cls)
            if err is not None:
                return err
            t = node.rule.t
            if t is None:
                return fail("RuleMismatch", path, f"{rule.value} needs a witness term")
            (p,) = prems
            if rule is Rule.ALL_L:
                i, err = principal(node, path, "left")
                if err is not None:
                    return err
                gamma = L[:i] + L[i + 1:]
                if len(p.left) != len(gamma) + 1 or not alpha_list(p.left[:-1], gamma) \
                        or not alpha_list(p.right, R):
                    return fail("RuleMismatch", path, "all-left premise has the wrong shape")
                instance, b = p.left[-1], L[i]
            else:
                i, err = principal(node, path, "right")
                if err is not None:
                    return err
                delta = R[:i] + R[i + 1:]
                if len(p.right) != len(delta) + 1 or not alpha_list(p.right[1:], delta) \
                        or not alpha_list(p.left, L):
                    return fail("RuleMismatch", path, "ex-right premise has the wrong shape")
                instance, b = p.right[0], R[i]
            if not ceq(b, cls(x, a)):
                return fail("RuleMismatch", path, "principal does not match the (x,A) annotation")
            if not ceq(instance, syntax.subst({x: t}, a)):
                return fail("RuleMismatch", path,
                            "premise formula is not the substitution instance of the annotation")
            return None

        if rule is Rule.ALL_R or rule is Rule.EX_L:
            cls = Forall if rule is Rule.ALL_R else Exists
            x, a, err = quantifier_parts(node, path, cls)
            if err is not None:
                return err
            (p,) = prems
            if rule is Rule.ALL_R:
                i, err = principal(node, path, "right")
                if err is not None:
                    return err
                delta = R[:i] + R[i + 1:]
                if len(p.right) != len(delta) + 1 or not alpha_list(p.right[1:], delta) \
                        or not alpha_list(p.left, L):
                    return fail("RuleMismatch", path, "all-right premise has the wrong shape")
                body, b, ctx = p.right[0], R[i], list(L) + list(delta)
            else:
                i, err = principal(node, path, "left")
                if err is not None:
                    return err
                gamma = L[:i] + L[i + 1:]
                if len(p.left) != len(gamma) + 1 or not alpha_list(p.left[:-1], gamma) \
                        or not alpha_list(p.right, R):
                    return fail("RuleMismatch", path, "ex-left premise has the wrong shape")
                body, b, ctx = p.left[-1], L[i], list(gamma) + list(R)
            if not ceq(b, cls(x, a)):
                return fail("RuleMismatch", path, "principal does not match the (x,A) annotation")
            if not syntax.alpha_eq(body, a):
                return fail("RuleMismatch", path, "premise formula differs from the annotation body")
            if any(x in syntax.free_vars(c) for c in ctx):
                return fail("SideConditionViolated", path, f"{x} occurs free in the context")
            return None

        raise AssertionError(rule)

    def walk(node: ProofTree, path) -> CheckResult:
        try:
            err = check_node(node, path)
        except CongruenceBudgetExceeded:
            return CheckResult.failed("CongruenceBudgetExceeded", path,
                                      "congruence decision ran out of budget")
        if err is not None:
            return err
        for i, q in enumerate(node.premises):
            r = walk(q, path + (i,))
            if not r.ok:
                return r
        return CheckResult.passed()

    return walk(proof, ())

def _outcome(check):
    try:
        r = check()
    except Exception as e:  # an exception must match too, not just verdicts
        return ("raised", type(e).__name__)
    return (r.ok, r.kind, r.path)


def _subtrees(tree, path=()):
    yield path, tree
    for i, q in enumerate(tree.premises):
        yield from _subtrees(q, path + (i,))


def _replace_at(tree, path, new):
    if not path:
        return new
    prems = list(tree.premises)
    prems[path[0]] = _replace_at(prems[path[0]], path[1:], new)
    return ProofTree(tree.conclusion, tree.rule, tuple(prems))


def _pools(tree, lterm: bool):
    """Formulas (with their immediate subformulas), terms and variable names
    found in a proof, for mutations that stay inside its layer."""
    props, terms, names = [], [], ["x", "y", "z"]
    for _, n in _subtrees(tree):
        app = n.rule
        props += [*n.conclusion.left, *n.conclusion.right] + ([app.a] if app.a else [])
        terms += [app.t] if app.t is not None else []
        names += [app.x] if app.x else []
    for a in list(props):
        props += [getattr(a, f) for f in ("a", "b", "body") if hasattr(a, f)]
    terms += [sigma.FreeVar("x")] if lterm else [syntax.Var("x"), syntax.Var("y")]
    return list(dict.fromkeys(props)), list(dict.fromkeys(terms)), list(dict.fromkeys(names))


def _fault(rng, tree, pools):
    """One seeded fault at a random node: retag, move the principal, drop,
    duplicate, swap or graft premises, edit a side, wrap a formula in a
    connective, add a context formula, or change the annotation or witness."""
    props, terms, names = pools
    path, n = rng.choice(list(_subtrees(tree)))
    app, left, right, prems = n.rule, list(n.conclusion.left), list(n.conclusion.right), list(n.premises)
    kind = rng.randrange(11)
    if kind == 0:
        app = RuleApp(rng.choice(list(Rule)), app.principal, app.x, app.a, app.t)
    elif kind == 1:
        app = RuleApp(app.rule, rng.choice([None, -1, 0, 1, 2, 3]), app.x, app.a, app.t)
    elif kind == 2 and prems:
        i = rng.randrange(len(prems))
        prems = rng.choice([prems[:i] + prems[i + 1:], prems[:i + 1] + prems[i:], prems[::-1]])
    elif kind == 3:
        prems.append(rng.choice(list(_subtrees(tree)))[1])
    elif kind in (4, 5):
        side = rng.choice([left, right])
        op = rng.randrange(3)
        if op == 0 or not side:
            side.insert(rng.randint(0, len(side)), rng.choice(props))
        elif op == 1:
            del side[rng.randrange(len(side))]
        else:
            side[rng.randrange(len(side))] = rng.choice(props)
    elif kind == 6:
        side = rng.choice([left, right])
        if side:
            i = rng.randrange(len(side))
            other = rng.choice(props)
            side[i] = rng.choice([Imp(side[i], other), Imp(other, side[i]), And(side[i], other),
                                  Or(other, side[i]), Bottom(), Forall(rng.choice(names), side[i]),
                                  Exists(rng.choice(names), side[i])])
    elif kind == 7:
        left, right = right, left
    elif kind == 8:
        # the same context formula added to a node and to its premises keeps
        # the node's shape; one that mentions an eigenvariable breaks freshness
        f = rng.choice(props)
        if rng.random() < 0.5:
            right.append(f)
            prems = [ProofTree(Sequent(q.conclusion.left, q.conclusion.right + (f,)), q.rule,
                               q.premises) for q in prems]
        else:
            left.insert(0, f)
            prems = [ProofTree(Sequent((f,) + q.conclusion.left, q.conclusion.right), q.rule,
                               q.premises) for q in prems]
    elif kind == 9:
        x = rng.choice([None, *names])
        a = rng.choice([None, *props])
        app = RuleApp(app.rule, app.principal, x, a, app.t)
    else:
        app = RuleApp(app.rule, app.principal, app.x, app.a, rng.choice([None, *terms]))
    return _replace_at(tree, path, ProofTree(Sequent(tuple(left), tuple(right)), app, tuple(prems)))


def _mutants(rng, tree, count, lterm=False):
    """The tree itself, then `count` mutants with one to three faults each."""
    pools = _pools(tree, lterm)
    yield tree
    for _ in range(count):
        m = tree
        for _ in range(rng.choice([1, 1, 2, 3])):
            m = _fault(rng, m, pools)
        yield m


def _same_verdicts(sig, make_cong, trees, modulo):
    """Count the trees; fail on the first whose outcome differs. Each checker
    gets its own congruence, so neither sees the other's normal-form cache."""
    new_cong, ref_cong = make_cong(), make_cong()
    n = 0
    for tree in trees:
        if modulo:
            new = _outcome(lambda: check_modulo_proof(sig, new_cong, tree))
        else:
            new = _outcome(lambda: check_binding_proof(sig, tree))
        ref = _outcome(lambda: _reference_check(sig, ref_cong, tree, modulo))
        assert new == ref, (new, ref, print_proof_file(tree))
        n += 1
    return n


def test_rule_table_matches_reference_checker():
    rng = random.Random(0x7AB1E)
    checked = 0
    for name, proof in corpus():
        checked += _same_verdicts(CORPUS_SIG, Congruence,
                                  list(_mutants(rng, proof, 120)), modulo=False)
        checked += _same_verdicts(CORPUS_SIG, Congruence,
                                  list(_mutants(rng, proof, 40)), modulo=True)
    rs = sigma.sigma_system(CORPUS_SIG)
    for name, proof in corpus():
        translated = precook.translate_proof(CORPUS_SIG, proof)
        checked += _same_verdicts(CORPUS_SIG, lambda: Congruence(rs),
                                  list(_mutants(rng, translated, 60, lterm=True)), modulo=True)
    arith = sigma.load_rules(ARITH_RULES, sig=ARITH_SIG)
    for budget in (1, 10, sigma.DEFAULT_BUDGET):
        checked += _same_verdicts(ARITH_SIG, lambda: Congruence(arith, budget=budget),
                                  list(_mutants(rng, four_is_even_proof(), 200)), modulo=True)
    assert checked >= 2000


# ---------------------------------------------------------------------------
# the modulo checker judges every formula against the signature: one fault
# planted in one formula, annotation or witness of an accepted proof


def _term_sites(x, path=()):
    """(path, subterm) for every term position in a proposition or term, in
    the term view of syntax.NODE_TYPES."""
    if not isinstance(x, syntax.Prop):
        yield path, x
    for i, c in enumerate(syntax.NODE_TYPES[type(x)].children(x)):
        yield from _term_sites(c, path + (i,))


def _replace_term(x, path, new):
    if not path:
        return new
    n = syntax.NODE_TYPES[type(x)]
    kids = list(n.children(x))
    kids[path[0]] = _replace_term(kids[path[0]], path[1:], new)
    return n.rebuild(x, tuple(kids))


def _named_fault(rng, u):
    """(what is wrong, erased or not, an ill-formed named term standing where
    u stands)."""
    zero = syntax.App("0", ())
    fault, bad = rng.choice([
        ("undeclared", syntax.App("Zzz", (syntax.Slot((), u),))),
        ("arity", syntax.App("S", (syntax.Slot((), u), syntax.Slot((), u)))),
        ("binders", syntax.App("S", (syntax.Slot(("z",), u),))),
    ])
    erased = rng.random() < 0.5
    if erased:  # mul0 erases it, plus0 then gives u back
        bad = syntax.App("+", (syntax.Slot((), syntax.App("*", (syntax.Slot((), zero),
                                                                 syntax.Slot((), bad)))),
                               syntax.Slot((), u)))
    return fault, erased, bad


def _sorted_fault(rng, u, n):
    """(what is wrong, erased or not, an ill-formed sorted term standing
    where u, of sort n, stands)."""
    fault, bad = rng.choice([
        ("undeclared", sigma.FApp("Zzz", n, ())),
        ("arity", sigma.FApp("f", n, (u, u))),
        ("sort", sigma.Index(1, n + 1)),
    ])
    erased = rng.random() < 0.5
    if erased:  # VarCons erases it: 1_{n+2}[u . (bad . id_n)] -> u
        bad = sigma.Closure(sigma.Index(1, n + 2),
                            sigma.Cons(u, sigma.Cons(bad, sigma.Id(n))))
    return fault, erased, bad


def _sites(sig, item, lterm):
    """The term positions of item where a fault can go: on the sorted layer,
    those of a term sort."""
    return [(p, u) for p, u in _term_sites(item)
            if not lterm or isinstance(sigma.sort_of(sig, u), sigma.TermSort)]


def _fault_spots(sig, tree, lterm):
    """(node path, node, "left"/"right"/"a"/"t", index, item) for every item
    with a site."""
    return [(path, nd, where, i, item) for path, nd in _subtrees(tree)
            for where, i, item in [("left", i, a) for i, a in enumerate(nd.conclusion.left)]
            + [("right", i, a) for i, a in enumerate(nd.conclusion.right)]
            + [(k, None, getattr(nd.rule, k)) for k in ("a", "t")]
            if item is not None and _sites(sig, item, lterm)]


def _plant_fault(rng, sig, tree, lterm):
    """tree with one fault in one formula, annotation or witness of one node:
    (the tree, the node's path, the faulty item, what is wrong, erased or
    not)."""
    path, nd, where, i, item = rng.choice(_fault_spots(sig, tree, lterm))
    site, u = rng.choice(_sites(sig, item, lterm))
    fault, erased, bad = (_sorted_fault(rng, u, sigma.sort_of(sig, u).n) if lterm
                          else _named_fault(rng, u))
    new_item = _replace_term(item, site, bad)
    seq, app = nd.conclusion, nd.rule
    if i is None:
        app = RuleApp(app.rule, app.principal, app.x,
                      new_item if where == "a" else app.a, new_item if where == "t" else app.t)
    else:
        side = list(getattr(seq, where))
        side[i] = new_item
        seq = Sequent(*((tuple(side), seq.right) if where == "left" else (seq.left, tuple(side))))
    return _replace_at(tree, path, ProofTree(seq, app, nd.premises)), path, new_item, \
        fault, erased


_FORMULA_FAULTS = {"UnknownSymbol", "ArityMismatch", "BinderCountMismatch", "SortMismatch",
                   "IndexOutOfRange"}


def test_modulo_checker_rejects_every_planted_signature_fault():
    rng = random.Random(0x516)
    rs = sigma.sigma_system(CORPUS_SIG)
    sources = [(CORPUS_SIG, lambda: Congruence(rs), precook.translate_proof(CORPUS_SIG, p), True)
               for _, p in corpus()]
    arith = [four_is_even_proof()] + [
        axiom_at(AP(f"=({num(a * b)}, {num(a * b)})"), AP(f"=(*({num(a)}, {num(b)}), {num(a * b)})"))
        for a in range(3) for b in range(3)]
    sources += [(ARITH_SIG, arith_congruence, p, False) for p in arith]
    for sig, cong, tree, _ in sources:
        assert check_modulo_proof(sig, cong(), tree).ok
    sources = [s for s in sources if _fault_spots(s[0], s[2], s[3])]
    assert len(sources) >= 20
    kinds, planted = Counter(), Counter()
    for _ in range(600):
        sig, cong, tree, lterm = rng.choice(sources)
        bad_tree, path, bad, fault, erased = _plant_fault(rng, sig, tree, lterm)
        r = check_modulo_proof(sig, cong(), bad_tree)
        assert isinstance(r, CheckResult) and not r.ok, bad
        assert r.kind in _FORMULA_FAULTS and r.path == path, (r, bad)
        assert r.message.startswith(f"{bad} is ill-formed: "), (r, bad)
        kinds[r.kind] += 1
        planted[lterm, fault, erased] += 1
    assert set(kinds) == _FORMULA_FAULTS - {"IndexOutOfRange"}, kinds
    assert min(planted.values()) >= 20 and len(planted) == 12, planted


def _ref_check_signature(sig: Signature, cong: Congruence, proof: ProofTree) -> CheckResult:
    """The signature pass judging each formula, annotation and witness
    whole, with no judged nodes shared between them."""
    judge = (sigma.well_sorted if cong.system is not None and cong.system.layer == "lterm"
             else syntax.well_formed)
    for nd, _, link in proof.walk():
        for x in nd.conclusion.left + nd.conclusion.right + (nd.rule.a, nd.rule.t):
            if x is not None and not (r := judge(sig, x)).ok:
                return CheckResult.failed(r.kind, syntax.path_of(link), f"{x} is ill-formed: {r}")
    return CheckResult.passed()


def test_signature_pass_matches_judging_each_formula_whole():
    rng = random.Random(0x517)
    rs = sigma.sigma_system(CORPUS_SIG)
    sources = [(CORPUS_SIG, Congruence(rs), precook.translate_proof(CORPUS_SIG, p), True)
               for _, p in corpus()]
    sources += [(CORPUS_SIG, Congruence(), p, False) for _, p in corpus()]
    sources += [(ARITH_SIG, arith_congruence(), four_is_even_proof(), False)]
    sources = [s for s in sources if _fault_spots(s[0], s[2], s[3])]
    kinds: Counter = Counter()
    for k in range(400):
        sig, cong, tree, lterm = rng.choice(sources)
        if k % 4:
            tree = _plant_fault(rng, sig, tree, lterm)[0]
        r = _check_signature(sig, cong, tree)
        assert r == _ref_check_signature(sig, cong, tree), tree
        kinds[r.kind] += 1
    assert kinds[None] >= 50 and len(kinds) >= 5, kinds


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


# ---------------------------------------------------------------------------
# fuzzing: mutated proof files end in a ParseError or a CheckResult, never
# in another exception

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
SAMPLE_SIGS = {"equality_compat": "lambda", "four_is_even": "arith"}
_RULE_NAMES = [r.value for r in Rule] + ["bogus"]
_FUZZ_CHARS = "()[],.=|-#_ \n\tx0St?Λ∀"


def _fuzz_bases():
    """(text, signature, term-layer congruence) for the samples and the
    corpus, plain and precooked. A mutant read as term syntax is checked
    plainly and modulo the congruence; one read as lprop modulo sigma."""
    assert {p.stem for p in SAMPLES.glob("*.prf")} == set(SAMPLE_SIGS)
    bases = []
    for stem, sig_stem in SAMPLE_SIGS.items():
        sig = syntax.parse_signature((SAMPLES / f"{sig_stem}.sig").read_text())
        cong = Congruence(sigma.load_rules((SAMPLES / "arith.rw").read_text(), sig=sig)) \
            if sig_stem == "arith" else Congruence()
        bases.append(((SAMPLES / f"{stem}.prf").read_text(), sig, cong))
    for _, proof in corpus():
        bases.append((print_proof_file(proof), CORPUS_SIG, Congruence()))
        translated = precook.translate_proof(CORPUS_SIG, proof)
        bases.append((print_proof_file(translated, layer="lprop"), CORPUS_SIG,
                      Congruence()))
    return bases


def _byte_mutant(rng, text):
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    op = rng.randrange(6)
    if op == 0:
        j = rng.randint(0, len(text))
        return text[:j] + rng.choice(_FUZZ_CHARS) + text[j:]
    if op == 1 and text:
        j = rng.randrange(len(text))
        return text[:j] + text[j + rng.randint(1, 3):]
    if op == 2 and text:
        j = rng.randrange(len(text))
        return text[:j] + rng.choice(_FUZZ_CHARS) + text[j + 1:]
    if op == 3:
        lines.insert(i, lines[rng.randrange(len(lines))])
    elif op == 4:
        del lines[i]
    else:
        lines[i] = rng.choice(["", " ", "  ", "   "]) + lines[i]
    return "\n".join(lines)


def _params(line):
    """The parameter block of a rule line as (before, {key: value}, after)."""
    m = re.match(r"(\s*rule\s+\S+\s*)\[(.*?)\](\s*\|-.*)$", line)
    if m is None:
        i = line.find("|-")
        return line[:i], {}, " " + line[i:]
    parts = re.split(r"\s+(?=(?:at|x|A|t)=)", m.group(2).strip())
    return m.group(1), dict(p.split("=", 1) for p in parts if "=" in p), m.group(3)


def _with_params(before, params, after):
    block = " ".join(f"{k}={v}" for k, v in params.items())
    return f"{before.rstrip()} [{block}]{after}" if params else f"{before.rstrip()}{after}"


def _structural_mutant(rng, text):
    lines = text.rstrip("\n").split("\n")
    rules = [i for i, ln in enumerate(lines) if ln.lstrip().startswith("rule ")]
    if not rules:
        return text
    i = rng.choice(rules)
    op = rng.randrange(4)
    if op == 0:
        lines[i] = re.sub(r"rule\s+\S+", "rule " + rng.choice(_RULE_NAMES), lines[i], count=1)
    elif op == 1:
        before, params, after = _params(lines[i])
        value = rng.choice(["x", "", "-1", "1.5", str(rng.randint(0, 4)), None])
        params.pop("at", None)
        if value is not None:
            params["at"] = value
        lines[i] = _with_params(before, params, after)
    elif op == 2 and i != rules[0]:
        depth = len(lines[i]) - len(lines[i].lstrip())
        end = i + 1
        while end < len(lines) and len(lines[end]) - len(lines[end].lstrip()) > depth:
            end += 1
        block = lines[i:end]
        lines[i:end] = rng.choice([[], block + block])
    else:
        j = rng.choice(rules)
        key = rng.choice(["A", "t", "x"])
        b1, p1, a1 = _params(lines[i])
        b2, p2, a2 = _params(lines[j])
        v1, v2 = p1.pop(key, None), p2.pop(key, None)
        if v2 is not None:
            p1[key] = v2
        if v1 is not None and i != j:
            p2[key] = v1
        lines[i] = _with_params(b1, p1, a1)
        if i != j:
            lines[j] = _with_params(b2, p2, a2)
    return "\n".join(lines) + "\n"


def _declares_lprop(text):
    """Read independently of the parser: the first line that is not blank or
    a comment is `syntax lprop`."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    return next((words for words in lines if words), None) == ["syntax", "lprop"]


def test_fuzzed_proof_files_parse_or_check():
    rng = random.Random(0xF0221)
    sigma_cong = Congruence(sigma.sigma_system(CORPUS_SIG))
    bases = _fuzz_bases()
    outcomes = Counter()
    for _ in range(1500):
        text, sig, cong = rng.choice(bases)
        for _ in range(rng.choice([1, 1, 2, 3])):
            mutate = _byte_mutant if rng.random() < 0.5 else _structural_mutant
            text = mutate(rng, text)
        try:
            proof = parse_proof_file(text, sig)
        except syntax.ParseError:
            outcomes["parse error"] += 1
            continue
        if _declares_lprop(text):
            results = [check_modulo_proof(CORPUS_SIG, sigma_cong, proof)]
        else:
            results = [check_binding_proof(sig, proof), check_modulo_proof(sig, cong, proof)]
        assert all(isinstance(r, CheckResult) for r in results), text
        outcomes["checked ok" if results[0].ok else "rejected"] += 1
    assert min(outcomes.values()) > 50, outcomes


# ---------------------------------------------------------------------------
# the plain checker is the checker modulo the syntactic congruence. The
# plain checker it replaced, a rule pass and then well_formed over the root,
# the cuts and the witnesses only, is kept verbatim below as the reference.
# alpha_eq equates g(x x. x) with g(x y. y), so that reference accepts a
# duplicate binder outside those.

DUP_SIG = syntax.parse_signature("fun g : <2>\npred P : <0>\n")
DUP_PROOF = """\
rule contr-left |- P(g(x y. y)) |- P(g(x y. y))
  rule weak-left |- P(g(x x. x)), P(g(x y. y)) |- P(g(x y. y))
    rule axiom |- P(g(x x. x)) |- P(g(x y. y))
"""


def _ref_check_binding_proof(sig: Signature, p: ProofTree) -> CheckResult:
    res = _check(Congruence(), p)
    return res if not res.ok else _ref_check_well_formed(sig, p)


def _ref_check_well_formed(sig: Signature, proof: ProofTree) -> CheckResult:
    """well_formed over the root sequent, the premises of every cut and every
    witness. In a proof the rules accept, every other formula is
    alpha-equivalent to a subformula of these or an instance of one at a
    witness, so it is well-formed too."""

    def check_node(node: ProofTree, link):
        sequents = ([node] if link is None else []) + \
            (list(node.premises) if node.rule.rule is Rule.CUT else [])
        items = [a for q in sequents for a in q.conclusion.left + q.conclusion.right]
        if RULES[node.rule.rule].witness:
            items.append(node.rule.t)
        for x in items:
            r = syntax.well_formed(sig, x)
            if not r.ok:
                raise _Rejected(r.kind, f"{x} is ill-formed: {r}")

    return _first_rejection(proof, check_node)


def _unjudged_faults(sig, proof) -> set[str]:
    """The well_formed kinds of the formulas and annotations the reference
    does not judge: those outside the root, the cuts and the witnesses."""
    judged, faults = set(), set()
    for node, _, link in proof.walk():
        for q in ([node] if link is None else []) + \
                (list(node.premises) if node.rule.rule is Rule.CUT else []):
            judged.update(map(id, q.conclusion.left + q.conclusion.right))
    for node, _, _ in proof.walk():
        for a in node.conclusion.left + node.conclusion.right + (node.rule.a,):
            if a is not None and id(a) not in judged and not (r := syntax.well_formed(sig, a)).ok:
                faults.add(r.kind)
    return faults


def test_plain_checker_differs_from_the_reference_only_on_hidden_duplicate_binders():
    dup = parse_proof_file(DUP_PROOF, DUP_SIG)
    assert _ref_check_binding_proof(DUP_SIG, dup).ok
    assert not check_binding_proof(DUP_SIG, dup).ok
    bases = [(text, sig) for text, sig, _ in _fuzz_bases() if not _declares_lprop(text)]
    bases.append((DUP_PROOF, DUP_SIG))
    trees = [(sig, parse_proof_file(text, sig)) for text, sig in bases]
    trees += [(CORPUS_SIG, proof) for _, proof in corpus()]
    rng = random.Random(0xD0B)
    for _ in range(1500):
        text, sig = rng.choice(bases)
        for _ in range(rng.choice([1, 1, 2, 3])):
            text = (_byte_mutant if rng.random() < 0.5 else _structural_mutant)(rng, text)
        try:
            trees.append((sig, parse_proof_file(text, sig)))
        except syntax.ParseError:
            pass
    verdicts = Counter()
    for sig, tree in trees:
        ref, new = _ref_check_binding_proof(sig, tree), check_binding_proof(sig, tree)
        if ref.ok != new.ok:
            assert ref.ok and new.kind == "DuplicateBinder", (ref, new, print_proof_file(tree))
            assert "DuplicateBinder" in _unjudged_faults(sig, tree), print_proof_file(tree)
        verdicts[ref.ok, new.ok] += 1
    assert verdicts[True, True] >= 100 and verdicts[False, False] >= 100, verdicts
    assert verdicts[True, False] >= 10 and not verdicts[False, True], verdicts


def _nested(tree):
    """The fields a frozen dataclass's == compares, premises unfolded."""
    return tree.conclusion, tree.rule, tuple(map(_nested, tree.premises))


def _rebuilt(tree):
    return ProofTree(tree.conclusion, tree.rule, tuple(map(_rebuilt, tree.premises)))


def test_proof_tree_equality_is_the_dataclass_equality():
    rng = random.Random(0xE0)
    trees = [m for _, proof in corpus() for m in _mutants(rng, proof, 6)]
    pairs = [(a, b) for a in trees for b in rng.sample(trees, 12)]
    pairs += [(a, _rebuilt(a)) for a in trees] + [(a, a) for a in trees]
    for a, b in pairs:
        assert (a == b) == (_nested(a) == _nested(b)), (a, b)
        assert (a != b) == (_nested(a) != _nested(b)), (a, b)
        if a == b:
            assert hash(a) == hash(b)
    assert sum(a == b for a, b in pairs) > 2 * len(trees)
    assert ProofTree.__eq__(trees[0], "rule axiom") is NotImplemented
