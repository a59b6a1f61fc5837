"""The sorted layer: sort checking, the substitution-propagation system,
normalization strategies, probe harnesses, rule files, and the grammar."""

import contextlib
import copy
import dataclasses
import dis
import gc
import pickle
import random
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

from bindlog import gen, precook, proofs, sigma, syntax
from bindlog.errors import (
    BindLogError,
    IndexOutOfRange,
    NotAnFTerm,
    ParseError,
    SortMismatch,
    StepBudgetExceeded,
)
from bindlog.precook import _uncook_term
from bindlog.sigma import (
    Closure,
    Comp,
    Cons,
    FApp,
    FreeVar,
    Id,
    Index,
    LTerm,
    MetaT,
    RewriteSystem,
    Shift,
    SubstSort,
    TermSort,
    all_one_step,
    has_redex,
    normalize,
    normalize_steps,
    parse_lterm,
    print_lterm,
    shift_chain,
    sigma_system,
    sort_of,
)
from bindlog.syntax import And, App, Atom, Bottom, Exists, Forall, Imp, Or, Signature, Slot, Var

from conftest import SIG, match_pattern

RS = sigma_system(SIG)


def L(text):
    return parse_lterm(text)


# ---------------------------------------------------------------------------
# sorts


def test_sort_of_paper_example():
    # Λ has binder arity <1>, f arity <0,0>; the whole term sits at sort 0
    sig = Signature({"f": (0, 0), "Λ": (1,)}, {})
    t = L("Λ_0(f_1(x[up_0], 1_1))")
    assert sort_of(sig, t) == TermSort(0)
    assert sort_of(sig, L("x[up_0]")) == TermSort(1)
    assert sort_of(sig, L("f_1(x[up_0], 1_1)")) == TermSort(1)


def test_sort_of_shift_chain():
    # up_0 : <1,0>, up_1 : <2,1>, composition <2,0>, closure lands at 2
    assert sort_of(SIG, L("up_0 o up_1")) == SubstSort(2, 0)
    assert sort_of(SIG, L("x[up_0 o up_1]")) == TermSort(2)


def test_sort_of_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        sort_of(SIG, Index(3, 2))


def test_sort_of_mismatch_paths():
    with pytest.raises(SortMismatch) as e:
        sort_of(SIG, Closure(FreeVar("x"), Id(2)))
    assert e.value.path == (1,)


def test_sort_of_cons_comp():
    assert sort_of(SIG, L("x . id_0")) == SubstSort(0, 1)
    assert sort_of(SIG, L("id_2 o (1_1 . id_1)")) == SubstSort(1, 2)


def test_well_sorted_reports_the_path_of_a_deep_failure():
    """A 10,000-deep `/\\` chain whose last atom holds a closure of the wrong
    sort fails at the path down the right spine, then into the closure:
    the walk carries links, so its cost does not grow with depth squared."""
    good = Atom("P", (Slot((), FreeVar("x")),))
    depth = 10_000
    for bad, kind, within in [(Atom("P", (Slot((), Closure(FreeVar("x"), Id(2))),)),
                               "SortMismatch", (0, 1)),
                              (Atom("P", (Slot((), Index(3, 2)),)), "IndexOutOfRange", (0,)),
                              (Atom("Zzz", ()), "UnknownSymbol", ())]:
        a = bad
        for _ in range(depth):
            a = And(good, a)
        r = sigma.well_sorted(SIG, a)
        assert (r.ok, r.kind, r.path) == (False, kind, (1,) * depth + within)
        assert sigma.well_sorted(SIG, And(a.b, good)).path == (0,) + (1,) * (depth - 1) + within


# ---------------------------------------------------------------------------
# the rule set


def test_var_cons_rule_present():
    rule = RS.rule("VarCons")
    t = L("1_1[x . id_0]")
    assert rule.apply(t, SIG) == FreeVar("x")


def test_index_expansion_rule():
    rule = RS.rule("IndexExpand")
    out = rule.apply(Index(3, 3), SIG)
    assert out == Closure(Index(1, 1), Comp(Shift(1), Shift(2)))
    assert rule.apply(Index(1, 3), SIG) is None


def test_index_five_of_seven_normal_form():
    # one expansion step; the result has no further redex
    nf, steps = normalize_steps(RS, Index(5, 7))
    assert steps == 1
    assert nf == Closure(Index(1, 3), shift_chain(3, 4))
    assert not sigma.has_redex(RS, nf)


def test_push_rule_unary_binder_shape():
    # for f of binder arity <1> at p=0 with s : <1,0>:
    # f_0(t)[s] -> f_1(t[1_2 . (s o up_1)])
    sig = Signature({"h": (1,)}, {})
    rs = sigma_system(sig)
    t = FreeVar("t")  # sort 0... argument of h_0 must have sort 1
    arg = Index(1, 1)
    s = Shift(0)  # <1,0>
    out = rs.rule("FPush").apply(Closure(FApp("h", 0, (arg,)), s), sig)
    assert out == FApp("h", 1, (Closure(arg, Cons(Index(1, 2), Comp(s, Shift(1)))),))
    assert sort_of(sig, out) == TermSort(1)


def test_push_rule_constant():
    sig = Signature({"c": ()}, {})
    rs = sigma_system(sig)
    out = rs.rule("FPush").apply(Closure(FApp("c", 0, ()), Shift(0)), sig)
    assert out == FApp("c", 1, ())


def test_sigma_rule_list_matches_presentation():
    assert RS.rule_names() == (
        "IndexExpand", "VarCons", "Id", "Clos", "IdL", "ShiftCons",
        "AssEnv", "MapEnv", "IdR", "VarShift", "SCons", "FPush")


# ---------------------------------------------------------------------------
# normalization


def test_normalize_one_step():
    assert normalize(RS, L("1_1[x . id_0]")) == FreeVar("x")


def test_normalize_scheme_identity():
    # F(t, x.eps)[x.id] normalizes to F(t, eps) for sampled t
    from bindlog import precook

    rng = random.Random(5)
    for _ in range(100):
        t = gen.random_term(rng, SIG, rng.randint(1, 7))
        shielded = precook.precook(SIG, t, ("x",))
        closed = Closure(shielded, Cons(FreeVar("x"), Id(0)))
        assert normalize(RS, closed) == precook.precook(SIG, t)


def test_normalize_random_first_step_confluence():
    rng = random.Random(9)
    checked = 0
    for _ in range(300):
        t = gen.random_lterm(rng, SIG, gen.random_sort(rng), 20)
        options = all_one_step(RS, t)
        if not options:
            continue
        _, _, stepped = rng.choice(options)
        assert normalize(RS, t) == normalize(RS, stepped)
        checked += 1
    assert checked > 150


def test_normalize_idempotent():
    rng = random.Random(13)
    for _ in range(200):
        t = gen.random_lterm(rng, SIG, gen.random_sort(rng), 20)
        nf = normalize(RS, t)
        assert normalize(RS, nf) == nf


def test_normalize_subject_reduction():
    rng = random.Random(17)
    for _ in range(200):
        t = gen.random_lterm(rng, SIG, gen.random_sort(rng), 25)
        before = sort_of(SIG, t)
        nf = normalize(RS, t, check_sorts=True)
        assert sort_of(SIG, nf) == before


def test_normalize_strategies_agree():
    rng = random.Random(19)
    for _ in range(200):
        t = gen.random_lterm(rng, SIG, gen.random_sort(rng), 20)
        assert normalize(RS, t, strategy="innermost") == \
            normalize(RS, t, strategy="outermost")


def test_rules_never_create_variables():
    rng = random.Random(29)
    for _ in range(300):
        t = gen.random_lterm(rng, SIG, gen.random_sort(rng), 15)
        for _, _, stepped in all_one_step(RS, t):
            assert syntax.free_vars(stepped) <= syntax.free_vars(t)


def test_step_budget():
    t = Closure(FApp("δ", 0, (FreeVar("x"), Index(1, 1), Index(1, 1))), Id(0))
    with pytest.raises(StepBudgetExceeded):
        normalize(RS, t, budget=0)


def test_normalize_props():
    from bindlog.syntax import Atom, Forall, Slot

    a = Forall("x", Atom("=", (Slot((), L("1_1[x . id_0]")), Slot((), FreeVar("x")))))
    out = normalize(RS, a)
    assert out == Forall("x", Atom("=", (Slot((), FreeVar("x")), Slot((), FreeVar("x")))))


# ---------------------------------------------------------------------------
# normal forms of the translation image


def test_is_F_term():
    assert sigma.is_F_term(SIG, L("x[up_0 o up_1]"))
    assert not sigma.is_F_term(SIG, L("1_1[x . id_0]"))
    sig = Signature({"f": (0, 0), "Λ": (1,)}, {})
    assert sigma.is_F_term(sig, parse_lterm("Λ_0(f_1(x[up_0], 1_1))"))


def test_is_F_prop():
    from bindlog import precook

    rng = random.Random(31)
    for _ in range(200):
        p = gen.random_prop(rng, SIG, rng.randint(1, 10))
        assert sigma.is_F_prop(SIG, precook.precook_prop(SIG, p))


# ---------------------------------------------------------------------------
# probe harnesses


def _joinable(rs, a, b, depth=10):
    """Exhaustive joinability search: breadth-first reduct sets intersect."""
    seen_a, seen_b = {a}, {b}
    frontier_a, frontier_b = {a}, {b}
    for _ in range(depth):
        if seen_a & seen_b:
            return True
        frontier_a = {r for t in frontier_a for (_, _, r) in all_one_step(rs, t)} - seen_a
        seen_a |= frontier_a
        frontier_b = {r for t in frontier_b for (_, _, r) in all_one_step(rs, t)} - seen_b
        seen_b |= frontier_b
        if not frontier_a and not frontier_b:
            break
    return bool(seen_a & seen_b)


def test_scons_overlap_peaks_join():
    # 1[s].(up o s) with s itself reducible: the root rule and the inner
    # step diverge syntactically and must rejoin
    for inner in (L("id_1 o (x . id_0)"), L("(x . id_0) o id_0"),
                  Comp(Comp(Id(1), Cons(FreeVar("x"), Id(0))), Id(0))):
        p = sort_of(SIG, inner).p
        peak = Cons(Closure(Index(1, p + 1), inner), Comp(Shift(p), inner))
        reducts = [r for (_, _, r) in all_one_step(RS, peak)]
        assert len(reducts) >= 2
        for r in reducts[1:]:
            assert _joinable(RS, reducts[0], r)
        assert len({normalize(RS, r) for r in reducts}) == 1


def test_no_redex_vacuous():
    rep = sigma.local_confluence_probe(RS, size_bound=1, samples=5, seed=0)
    assert rep.ok


def test_confluence_probe_smoke():
    rep = sigma.local_confluence_probe(RS, size_bound=25, samples=300, seed=1)
    assert rep.ok
    assert rep.with_multiple_redexes > 50


def test_termination_probe_smoke():
    rep = sigma.termination_probe(RS, size_bound=25, samples=300, seed=2)
    assert rep.ok
    assert rep.max_steps_innermost >= 1


def test_first_index_already_normal():
    nf, steps = normalize_steps(RS, Index(1, 1))
    assert steps == 0 and nf == Index(1, 1)


# ---------------------------------------------------------------------------
# grammar and rule files


def test_lterm_print_parse_roundtrip():
    rng = random.Random(37)
    for _ in range(300):
        t = gen.random_lterm(rng, SIG, gen.random_sort(rng), 15)
        assert parse_lterm(print_lterm(t)) == t


def test_lterm_parse_examples():
    assert L("3_5") == Index(3, 5)
    assert L("t[s]") == Closure(FreeVar("t"), FreeVar("s"))
    assert L("id_4") == Id(4)
    assert L("t . s o s2") == Cons(FreeVar("t"), Comp(FreeVar("s"), FreeVar("s2")))
    assert L("f_2(x, 1_3)") == FApp("f", 2, (FreeVar("x"), Index(1, 3)))
    assert L("up_2") == Shift(2)


def test_lprop_roundtrip():
    p = sigma.parse_lprop("forall x. =(Λ_0(x[up_0]), x) => false")
    assert sigma.parse_lprop(sigma.print_lprop(p)) == p


def test_substitute_l_avoids_inner_quantifier_capture():
    # renaming the outer w must not pick the name an inner quantifier binds
    a = sigma.parse_lprop("forall w. =(w, x) /\\ (forall w1. =(w, w1))")
    out = syntax.subst({"x": FreeVar("w")}, a)
    want = sigma.parse_lprop("forall v. =(v, w) /\\ (forall w1. =(v, w1))")
    assert syntax.alpha_eq(out, want)


def test_substitute_l_quantifier_shadowing():
    a = sigma.parse_lprop("forall x. =(x, x)")
    assert syntax.subst({"x": FreeVar("y")}, a) == a


def test_term_rule_file():
    sig = Signature({"0": (), "S": (0,), "+": (0, 0)}, {"=": (0, 0)})
    rs = sigma.load_rules(
        "plus0: +(0(), ?y) -> ?y\nplusS: +(S(?x), ?y) -> S(+(?x, ?y))\n", sig=sig)
    from bindlog.syntax import parse_term, print_term

    two = parse_term("S(S(0()))", sig)
    four = parse_term("S(S(S(S(0()))))", sig)
    t = parse_term("+(S(S(0())), S(S(0())))", sig)
    assert normalize(rs, t) == four
    assert print_term(normalize(rs, parse_term("+(0(), y)", sig))) == "y"
    assert rs.rule_names() == ("plus0", "plusS")
    assert two != four


def test_lterm_rule_file_with_sort_check():
    text = "syntax lterm\nmyvarcons: 1_?n[?t . ?s] -> ?t\n"
    rs = sigma.load_rules(text, sig=SIG)
    assert rs.layer == "lterm"
    assert normalize(rs, L("1_1[x . id_0]")) == FreeVar("x")


def test_rule_shapes_are_filled_with_a_smallest_term_of_each_sort():
    sorts = [TermSort(n) for n in range(4)] + [SubstSort(n, p) for n in range(4) for p in range(4)]
    rng = random.Random(3)
    for s in sorts:
        assert sort_of(SIG, sigma._leaf(s)) == s == sort_of(SIG, gen.leaf_of_sort(s, rng))
    shown = [sigma.print_lterm(sigma._leaf(s)) for s in
             (TermSort(0), TermSort(2), SubstSort(2, 2), SubstSort(3, 1), SubstSort(1, 3))]
    assert shown == ["x", "1_2", "id_2", "up_1 o up_2", "1_1 . 1_1 . id_1"]


def test_lterm_rule_file_rejects_sort_breakers():
    text = "syntax lterm\nbad: ?t[id_?n] -> 1_?n\n"
    with pytest.raises(ParseError):
        sigma.load_rules(text, sig=SIG)


def test_rule_file_rejects_lone_metavariable():
    with pytest.raises(ParseError):
        sigma.load_rules("bad: ?t -> ?t\n", sig=SIG)


def test_rule_file_rejects_binders_in_patterns():
    sig = Signature({"λ": (1,)}, {})
    with pytest.raises(ParseError):
        sigma.load_rules("bad: λ(x. ?t) -> ?t\n", sig=sig)


def _dict_stores(fn) -> int:
    return sum(i.opname == "STORE_SUBSCR" for i in dis.get_instructions(fn))


def test_rules_store_only_the_metavariables_they_read():
    # a rule keeps a metavariable only when its right side reads it or its
    # left side repeats it (the non-linear test)
    stores = {r.name: _dict_stores(r.apply) for r in RS.rules[1:-1]}
    assert stores == {"VarCons": 1, "Id": 1, "Clos": 3, "IdL": 1, "ShiftCons": 1,
                      "AssEnv": 3, "MapEnv": 3, "IdR": 1, "VarShift": 1, "SCons": 1}
    sig = Signature({"f'": (0, 0), "a": (), "b": ()}, {})
    rs = sigma.load_rules("r1: f'(?x, ?x) -> a()\nr2: f'(b(), ?y) -> b()\n", sig=sig)
    assert [_dict_stores(r.apply) for r in rs.rules] == [1, 0]
    from bindlog.syntax import parse_term
    assert normalize(rs, parse_term("f'(f'(a(), a()), f'(b(), b()))", sig)) == \
        parse_term("a()", sig)
    assert normalize(rs, parse_term("f'(a(), f'(a(), b()))", sig)) == \
        parse_term("f'(a(), f'(a(), b()))", sig)


# ---------------------------------------------------------------------------
# the engine against its naive reference
#
# The reference is the engine without normal marks or head indexing: every
# rule is tried at every node, and innermost normalizes the children of every
# reduct again. The real engine must reach the same normal forms in the same
# number of steps, running out of budget at the same point.


def _naive_head(rs, x):
    for rule in rs.rules:
        r = rule.apply(x, rs.sig)
        if r is not None:
            return r
    return None


def _naive_nf_innermost(rs, x, budget, check_sorts):
    while True:
        kids = sigma._children(x)
        if kids:
            x = sigma._rebuild(x, tuple(_naive_nf_innermost(rs, c, budget, check_sorts)
                                        for c in kids))
        r = _naive_head(rs, x)
        if r is None:
            return x
        budget.spend()
        if check_sorts:
            sigma._check_step_sorts(rs.sig, x, r)
        x = r


def _naive_step_outermost(rs, x):
    r = _naive_head(rs, x)
    if r is not None:
        return r, x, r
    kids = sigma._children(x)
    for i, c in enumerate(kids):
        sub = _naive_step_outermost(rs, c)
        if sub is not None:
            new_c, redex, repl = sub
            return sigma._rebuild(x, kids[:i] + (new_c,) + kids[i + 1:]), redex, repl
    return None


def _naive_normalize_steps(rs, x, strategy, check_sorts):
    budget = sigma._Budget(sigma.DEFAULT_BUDGET)
    if strategy == "innermost":
        return _naive_nf_innermost(rs, x, budget, check_sorts), budget.steps
    while (sub := _naive_step_outermost(rs, x)) is not None:
        x, redex, repl = sub
        budget.spend()
        if check_sorts:
            sigma._check_step_sorts(rs.sig, redex, repl)
    return x, budget.steps


def _naive_all_one_step(rs, x, path=()):
    found = [(path, rule.name, rule.apply(x, rs.sig)) for rule in rs.rules]
    found = [(p, n, r) for p, n, r in found if r is not None]
    kids = sigma._children(x)
    for i, c in enumerate(kids):
        for p, n, r in _naive_all_one_step(rs, c, path + (i,)):
            found.append((p, n, sigma._rebuild(x, kids[:i] + (r,) + kids[i + 1:])))
    return found


STRATEGIES = ("innermost", "outermost")
DEPTH_BINDERS, DEPTH_PAIRS = ("Λ", "μ", "ν", "κ"), ("g", "h")
DEPTH_SIG = Signature(
    {**{b: (1,) for b in DEPTH_BINDERS}, **{g: (0, 0) for g in DEPTH_PAIRS},
     "f": (0,), "a": ()},
    {"=": (0, 0)})
DEPTH_RS = sigma_system(DEPTH_SIG)
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _depth_term(d, seed=0):
    """A depth-d nest b1(z. p1(b2(z. ...), z)) over x, translated with x
    bound outermost and closed by f(a) . id_0."""
    rng = random.Random(seed)
    t = Var("x")
    for _ in range(d):
        pair = App(rng.choice(DEPTH_PAIRS), (Slot((), t), Slot((), Var("z"))))
        t = App(rng.choice(DEPTH_BINDERS), (Slot(("z",), pair),))
    closing = Cons(FApp("f", 0, (FApp("a", 0, ()),)), Id(0))
    return Closure(precook.precook(DEPTH_SIG, t, ("x",)), closing)


def _arith_products():
    sig = syntax.parse_signature((SAMPLES / "arith.sig").read_text())
    rs = sigma.load_rules((SAMPLES / "arith.rw").read_text(), sig=sig, name="arith")

    def num(n):
        t = App("0", ())
        for _ in range(n):
            t = App("S", (Slot((), t),))
        return t

    def plus(i, j):
        return App("+", (Slot((), num(i)), Slot((), num(j))))

    terms = [App("*", (Slot((), plus(i, a - i)), Slot((), plus(b // 2, b - b // 2))))
             for a, b in ((0, 3), (3, 0), (2, 5), (4, 4), (6, 3)) for i in (0, a // 2, a)]
    return rs, terms


def _assert_same_as_naive(rs, t, check_sorts):
    for strategy in STRATEGIES:
        want = _naive_normalize_steps(rs, t, strategy, check_sorts)
        got = normalize_steps(rs, t, strategy=strategy, check_sorts=check_sorts)
        assert got == want, (strategy, str(t))


def _assert_budget_edge(rs, t, check_sorts=False):
    for strategy in STRATEGIES:
        _, steps = normalize_steps(rs, t, strategy=strategy, check_sorts=check_sorts)
        normalize(rs, t, budget=steps, strategy=strategy, check_sorts=check_sorts)
        if steps:
            with pytest.raises(StepBudgetExceeded):
                normalize(rs, t, budget=steps - 1, strategy=strategy, check_sorts=check_sorts)


@pytest.mark.parametrize("d", (8, 16, 24))
def test_engine_matches_naive_on_depth_family(d):
    t = _depth_term(d, seed=d)
    _assert_same_as_naive(DEPTH_RS, t, check_sorts=False)
    _assert_budget_edge(DEPTH_RS, t)


def test_engine_matches_naive_on_random_terms():
    rng = random.Random(0x5EED)
    for k in range(500):
        t = gen.random_lterm(rng, SIG, gen.random_sort(rng), 40)
        _assert_same_as_naive(RS, t, check_sorts=True)
        if k % 10 == 0:
            _assert_budget_edge(RS, t, check_sorts=True)


def test_engine_matches_naive_on_shared_subterms():
    # one object in two places: marking it normal at the first visit would
    # leave the second occurrence unnormalized
    rng = random.Random(0x5A4E)
    for _ in range(100):
        n = rng.randrange(3)
        t = gen.random_lterm(rng, SIG, TermSort(n), 30)
        _assert_same_as_naive(RS, FApp("g", n, (t, t)), check_sorts=True)
        if n == 0:
            atom = Atom("P", (Slot((), t),))
            for strategy in STRATEGIES:
                nf_atom = Atom("P", (Slot((), normalize(RS, t, strategy=strategy)),))
                assert normalize(RS, And(atom, atom), strategy=strategy) == And(nf_atom, nf_atom)


def test_engine_matches_naive_on_arith_products():
    rs, terms = _arith_products()
    for t in terms:
        _assert_same_as_naive(rs, t, check_sorts=False)
        _assert_budget_edge(rs, t)


def test_one_step_redexes_match_naive():
    rng = random.Random(0xA11)
    for _ in range(300):
        t = gen.random_lterm(rng, SIG, gen.random_sort(rng), 20)
        want = _naive_all_one_step(RS, t)
        assert sorted(all_one_step(RS, t), key=repr) == sorted(want, key=repr)
        assert sigma.has_redex(RS, t) == bool(want)
    rs, terms = _arith_products()
    for t in terms:
        assert sorted(all_one_step(rs, t), key=repr) == sorted(_naive_all_one_step(rs, t), key=repr)


def test_rules_are_indexed_by_head():
    heads = {r.name: r.head for r in RS.rules}
    assert heads["IndexExpand"] is Index and heads["FPush"] is Closure
    assert heads["VarShift"] is Cons and heads["AssEnv"] is Comp
    assert [r.name for r in RS.rules_at(L("x[id_0]"))] == ["VarCons", "Id", "Clos", "FPush"]
    assert RS.rules_at(FreeVar("x")) == ()
    for x in (Slot((), FreeVar("x")), MetaT("t"), "x", 3):  # not a term or proposition
        assert RS.rules_at(x) == ()
    rs, _ = _arith_products()
    assert [r.head for r in rs.rules] == ["+", "+", "*", "*"]
    assert [r.name for r in rs.rules_at(App("*", ()))] == ["mul0", "mulS"]


def _counting(rs):
    """rs with every rule application counted in the returned list."""
    count = [0]

    def counted(rule):
        def apply(node, sig, inner=rule.apply):
            count[0] += 1
            return inner(node, sig)
        return dataclasses.replace(rule, apply=apply)

    return dataclasses.replace(rs, rules=tuple(counted(r) for r in rs.rules)), count


@pytest.mark.parametrize("strategy,d", (("innermost", 32), ("outermost", 64)))
def test_rule_applications_stay_bounded(strategy, d):
    # The naive engine makes 4,943,972 applications at innermost d=32 and
    # 820,276 at outermost d=64; normal marks and the head index bring each
    # under 50,000. The counts do not depend on the spine's binder names.
    rs, count = _counting(DEPTH_RS)
    normalize(rs, _depth_term(d), strategy=strategy)
    assert count[0] <= 100_000


@pytest.mark.parametrize("d", (64, 128))
def test_outermost_step_cost_does_not_grow_with_depth(d):
    # A search restarted from the root after every step made 93.6 rule
    # applications per step at d=64 and 185 at d=128; offering again only
    # the frames within reach of a step makes about 6 at every depth.
    rs, count = _counting(DEPTH_RS)
    _, steps = normalize_steps(rs, _depth_term(d), strategy="outermost")
    assert count[0] <= 8 * steps


# ---------------------------------------------------------------------------
# the outermost normalizer against the recursive one it replaced
#
# The references are the outermost normalizer as it was before it kept a
# stack of frames: one recursive search from the root per step, offering
# every ancestor of the last redex its rules again. They are kept verbatim
# but for module prefixes. The normalizer must give the same normal form and
# step count, or raise the same exception at the same point, on every input.


def _ref_step_outermost(rs, x, normal):
    """One leftmost-outermost step; returns (new_term, redex, replacement),
    or None after marking x normal."""
    if id(x) in normal:
        return None
    r = sigma._head_rewrite(rs, x)
    if r is not None:
        return r, x, r
    node = syntax.NODE_TYPES[type(x)]
    kids = node.children(x)
    for i, c in enumerate(kids):
        sub = _ref_step_outermost(rs, c, normal)
        if sub is not None:
            new_c, redex, repl = sub
            return node.rebuild(x, kids[:i] + (new_c,) + kids[i + 1:]), redex, repl
    normal[id(x)] = x
    return None


def _ref_nf_outermost(rs, x, budget, check_sorts):
    while True:
        sub = _ref_step_outermost(rs, x, budget.normal)
        if sub is None:
            return x
        x, redex, repl = sub
        budget.spend()
        if check_sorts:
            sigma._check_step_sorts(rs.sig, redex, repl)


def _outcome(nf, rs, t, budget, check_sorts):
    """(normal form, steps) under the normalizer nf, or the type and args of
    what it raised."""
    b = sigma._Budget(budget)
    try:
        return nf(rs, t, b, check_sorts), b.steps
    except Exception as e:
        return type(e), e.args


def _assert_outermost_as_reference(rs, t, check_sorts, seen):
    """Both normalizers agree on t, and again with one step less than it takes;
    counts the raising and budget cases in `seen`."""
    want = _outcome(_ref_nf_outermost, rs, t, sigma.DEFAULT_BUDGET, check_sorts)
    assert _outcome(sigma._nf_outermost, rs, t, sigma.DEFAULT_BUDGET, check_sorts) == want, \
        (str(t), check_sorts)
    if isinstance(want[0], type):
        seen["raising"] += 1
    elif want[1]:
        seen["budget"] += 1
        edge = _outcome(_ref_nf_outermost, rs, t, want[1] - 1, check_sorts)
        assert edge[0] is StepBudgetExceeded
        assert _outcome(sigma._nf_outermost, rs, t, want[1] - 1, check_sorts) == edge, \
            (str(t), check_sorts)


def _positions(t, path=()):
    yield path
    for i, c in enumerate(sigma._children(t)):
        yield from _positions(c, path + (i,))


def _replace_at(t, path, new):
    if not path:
        return new
    kids = list(sigma._children(t))
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], new)
    return sigma._rebuild(t, tuple(kids))


# n1 repeats a metavariable, so its reach is infinite; d3 reaches 3 levels
USER_LTERM_RULES = """\
syntax lterm
n1: (?s o ?s) o ?u -> ?s o (?s o ?u)
d3: ?t[(?u . ?s) o ?v] -> ?t[?u[?v] . (?s o ?v)]
"""


def test_outermost_matches_reference_normalizer():
    user = sigma.load_rules(USER_LTERM_RULES, sig=SIG)
    assert [r.reach for r in user.rules] == [float("inf"), 3]
    extended = RewriteSystem("sigma+user", user.rules + RS.rules, "lterm", SIG)
    rng = random.Random(0x0E7E)
    seen = {"raising": 0, "budget": 0}
    for k in range(3000):
        t = gen.random_lterm(rng, SIG, gen.random_sort(rng), rng.randint(3, 60))
        if k % 3 == 0:  # ill-sorted: sort_of, and with it FPush, raises
            leaf = gen.leaf_of_sort(gen.random_sort(rng), rng=rng)
            t = _replace_at(t, rng.choice(list(_positions(t))), leaf)
        # each system meets each setting of the sort check on every 4th term
        rs, check_sorts = (RS, extended)[k % 2], k % 4 >= 2
        _assert_outermost_as_reference(rs, t, check_sorts, seen)
    rs, terms = _arith_products()
    for t in terms:
        _assert_outermost_as_reference(rs, t, False, seen)
    assert seen["raising"] >= 250 and seen["budget"] >= 1500, seen


def test_outermost_and_has_redex_take_deep_input():
    # 10,000 levels are far past the interpreter's recursion limit
    deep = L("1_1[a_0() . id_0]")
    for _ in range(10_000):
        deep = FApp("f", 0, (deep,))
    nf, steps = normalize_steps(DEPTH_RS, deep, strategy="outermost")
    assert steps == 1
    t = nf
    for _ in range(10_000):  # compared by an iterative walk, as == recurses
        assert type(t) is FApp and (t.f, t.p, len(t.args)) == ("f", 0, 1)
        t = t.args[0]
    assert t == FApp("a", 0, ())
    assert not sigma.is_F_term(DEPTH_SIG, deep, DEPTH_RS)
    assert sigma.is_F_term(DEPTH_SIG, nf, DEPTH_RS)


def _assert_same_chain(a, b):
    """a and b are the same chain of unary FApps over the same leaf, walked
    iteratively."""
    while type(a) is FApp and a.args:
        assert type(b) is FApp and (a.f, a.p, len(a.args)) == (b.f, b.p, len(b.args))
        a, b = a.args[0], b.args[0]
    assert a is b


def test_innermost_and_all_one_step_take_deep_input():
    limit = sys.getrecursionlimit()
    deep = L("1_1[a_0() . id_0]")
    for _ in range(10_000):
        deep = FApp("f", 0, (deep,))
    want = normalize(DEPTH_RS, deep, strategy="outermost")
    nf, steps = normalize_steps(DEPTH_RS, deep)
    assert steps == 1
    _assert_same_chain(nf, want)
    ((path, rule, result),) = all_one_step(DEPTH_RS, deep)
    assert (path, rule, result) == ((0,) * 10_000, "VarCons", nf)
    # a list of 10,000 redexes x[id_0], each rewritten with its sorts checked
    items = Id(0)
    for _ in range(10_000):
        items = Cons(Closure(FreeVar("x"), Id(0)), items)
    nf, steps = normalize_steps(DEPTH_RS, items, check_sorts=True)
    assert steps == 10_000
    for _ in range(10_000):
        assert type(nf) is Cons and nf.t == FreeVar("x")
        nf = nf.s
    assert nf == Id(0)
    atom = Atom("=", (Slot((), deep), Slot((), FreeVar("y"))))
    got = proofs.Congruence(DEPTH_RS).normal_form(atom)
    assert got.pred == "=" and got.args[1] == Slot((), FreeVar("y"))
    _assert_same_chain(got.args[0].body, want)
    assert sys.getrecursionlimit() == limit


# ---------------------------------------------------------------------------
# the innermost memo and sort_of against the code they replaced
#
# The references are the innermost normalizer as it was before its budget
# kept normal forms, run under a budget whose table holds only its own
# marks of normal nodes, and the recursive sort_of, both kept verbatim but
# for module prefixes and the reference's own name in its recursive call.
# The memo must give the same normal form and step count, or raise the
# same exception, on every input; sort_of the same sort or exception, with
# its sorts cached or not.


def _ref_nf_innermost(rs, x, budget, check_sorts):
    normal = budget.normal
    while id(x) not in normal:
        node = syntax.NODE_TYPES[type(x)]
        kids = node.children(x)
        if kids:
            nfs = tuple(_ref_nf_innermost(rs, c, budget, check_sorts) for c in kids)
            # keep x itself when no child changed, so a mark on it still holds
            if any(n is not c for n, c in zip(nfs, kids)):
                x = node.rebuild(x, nfs)
        r = sigma._head_rewrite(rs, x)
        if r is None:
            normal[id(x)] = x
            break
        budget.spend()
        if check_sorts:
            sigma._check_step_sorts(rs.sig, x, r)
        x = r
    return x


def _ref_sort_of(sig: Signature, t, path: tuple[int, ...] = ()):
    """The unique sort of a term of this layer; raises on ill-sorted input."""
    if isinstance(t, Index):
        if not (1 <= t.i <= t.n):
            raise IndexOutOfRange(path, t.i, t.n)
        return TermSort(t.n)
    if isinstance(t, FreeVar):
        return TermSort(0)
    if isinstance(t, Id):
        return SubstSort(t.n, t.n)
    if isinstance(t, Shift):
        return SubstSort(t.n + 1, t.n)
    if isinstance(t, FApp):
        if t.f not in sig.functions:
            raise SortMismatch(path, "a declared function symbol", repr(t.f))
        arity = sig.functions[t.f]
        if len(arity) != len(t.args):
            raise SortMismatch(path, f"{len(arity)} arguments for {t.f!r}", str(len(t.args)))
        for i, (a, k) in enumerate(zip(t.args, arity)):
            sa = _ref_sort_of(sig, a, path + (i,))
            if sa != TermSort(k + t.p):
                raise SortMismatch(path + (i,), str(TermSort(k + t.p)), str(sa))
        return TermSort(t.p)
    if isinstance(t, Closure):
        st = _ref_sort_of(sig, t.t, path + (0,))
        ss = _ref_sort_of(sig, t.s, path + (1,))
        if not isinstance(st, TermSort):
            raise SortMismatch(path + (0,), "a term sort", str(st))
        if not isinstance(ss, SubstSort) or ss.p != st.n:
            raise SortMismatch(path + (1,), f"<n,{st.n}>", str(ss))
        return TermSort(ss.n)
    if isinstance(t, Cons):
        st = _ref_sort_of(sig, t.t, path + (0,))
        ss = _ref_sort_of(sig, t.s, path + (1,))
        if not isinstance(st, TermSort):
            raise SortMismatch(path + (0,), "a term sort", str(st))
        if not isinstance(ss, SubstSort) or ss.n != st.n:
            raise SortMismatch(path + (1,), f"<{st.n},p>", str(ss))
        return SubstSort(ss.n, ss.p + 1)
    if isinstance(t, Comp):
        s1 = _ref_sort_of(sig, t.s1, path + (0,))
        s2 = _ref_sort_of(sig, t.s2, path + (1,))
        if not isinstance(s1, SubstSort):
            raise SortMismatch(path + (0,), "a substitution sort", str(s1))
        if not isinstance(s2, SubstSort) or s2.p != s1.n:
            raise SortMismatch(path + (1,), f"<q,{s1.n}>", str(s2))
        return SubstSort(s2.n, s1.p)
    raise TypeError(f"not a sorted term: {t!r}")


class _CountingBudget(sigma._Budget):
    """A budget that counts the recorded normalizations of more than one
    step it replays, and those it has too few steps left for."""

    __slots__ = ("replays", "cut")

    def __init__(self, limit):
        super().__init__(limit)
        self.replays = self.cut = 0

    def spend(self, k=1):
        if k > 1:
            self.replays += 1
            self.cut += self.left < k
        super().spend(k)


def _memo_outcome(rs, t, budget, check_sorts, seen):
    b = _CountingBudget(budget)
    try:
        out = sigma._nf_innermost(rs, t, b, check_sorts), b.steps
    except Exception as e:
        out = type(e), e.args
    seen["replays"] += b.replays
    seen["cut"] += b.cut
    return out


def _assert_innermost_as_reference(rs, t, check_sorts, seen):
    """The memo and the reference agree on t, and again with one step less
    than it takes; the memo runs first, on sorts not yet cached."""
    got = _memo_outcome(rs, t, sigma.DEFAULT_BUDGET, check_sorts, seen)
    want = _outcome(_ref_nf_innermost, rs, t, sigma.DEFAULT_BUDGET, check_sorts)
    assert got == want, (str(t), check_sorts)
    if isinstance(want[0], type):
        seen["raising"] += 1
    elif want[1]:
        seen["budget"] += 1
        got = _memo_outcome(rs, t, want[1] - 1, check_sorts, seen)
        edge = _outcome(_ref_nf_innermost, rs, t, want[1] - 1, check_sorts)
        assert edge[0] is StepBudgetExceeded
        assert got == edge, (str(t), check_sorts)


def test_innermost_memo_matches_reference_normalizer():
    user = sigma.load_rules(USER_LTERM_RULES, sig=SIG)
    extended = RewriteSystem("sigma+user", user.rules + RS.rules, "lterm", SIG)
    rng = random.Random(0x3E30)
    seen: Counter = Counter()
    for k in range(3000):
        t = gen.random_lterm(rng, SIG, gen.random_sort(rng), rng.randint(3, 60))
        if k % 3 == 0:  # ill-sorted: sort_of, and with it FPush, raises
            leaf = gen.leaf_of_sort(gen.random_sort(rng), rng=rng)
            t = _replace_at(t, rng.choice(list(_positions(t))), leaf)
        for rs in (RS, extended):
            for check_sorts in (False, True):
                _assert_innermost_as_reference(rs, t, check_sorts, seen)
    rs, terms = _arith_products()
    for t in terms:
        _assert_innermost_as_reference(rs, t, False, seen)
    assert seen["raising"] >= 1000 and seen["budget"] >= 7000, seen
    assert seen["replays"] >= 5000 and seen["cut"] >= 300, seen


# ---------------------------------------------------------------------------
# the innermost loop and all_one_step against the recursive code they replaced
#
# The references are the memo innermost normalizer and all_one_step as they
# were before they kept explicit stacks, verbatim but for module prefixes
# and the references' own names in their recursive calls. The loop must give
# the same normal form and step count, or raise the same exception, and
# leave the same table entries, on every input and with a table shared
# across calls; all_one_step the same triples in the same order, or the
# same exception.


def _ref_memo_nf_innermost(rs, x, budget, check_sorts):
    table = budget.normal
    trail = []  # the nodes this call passes through, with the steps spent before each
    while (done := table.get(id(x))) is None:
        trail.append((x, budget.steps))
        node = syntax.NODE_TYPES[type(x)]
        kids = node.children(x)
        if kids:
            nfs = tuple(_ref_memo_nf_innermost(rs, c, budget, check_sorts) for c in kids)
            # keep x itself when no child changed, so its entry still holds
            if any(n is not c for n, c in zip(nfs, kids)):
                x = node.rebuild(x, nfs)
                if (done := table.get(id(x))) is not None:
                    break
                trail.append((x, budget.steps))
        r = sigma._head_rewrite(rs, x)
        if r is None:
            done = x, x, 0
            break
        budget.spend()
        if check_sorts:
            sigma._check_step_sorts(rs.sig, x, r)
        x = r
    _, nf, steps = done
    if steps:
        budget.spend(steps)
    for y, before in trail:
        table[id(y)] = y, nf, budget.steps - before
    return nf


def _ref_all_one_step(rs: RewriteSystem, x) -> list[tuple[tuple[int, ...], str, object]]:
    """Every (position, rule, result-of-one-step) triple for a term."""
    results: list[tuple[tuple[int, ...], str, object]] = []

    def walk(node, wrap, path):
        for rule in rs.rules_at(node):
            r = rule.apply(node, rs.sig)
            if r is not None:
                results.append((path, rule.name, wrap(r)))
        kids = sigma._children(node)
        for i, c in enumerate(kids):
            def wrap_i(rc, node=node, kids=kids, i=i, wrap=wrap):
                return wrap(sigma._rebuild(node, kids[:i] + (rc,) + kids[i + 1:]))
            walk(c, wrap_i, path + (i,))

    walk(x, lambda r: r, ())
    return results


def _table_outcome(nf, rs, t, budget, check_sorts, table, seen):
    """nf's outcome on t under a counting budget whose table is `table`."""
    b = _CountingBudget(budget)
    b.normal = table
    try:
        out = nf(rs, t, b, check_sorts), b.steps
    except Exception as e:
        out = type(e), e.args
    seen["replays"] += b.replays
    seen["cut"] += b.cut
    return out


def _assert_loop_as_memo(rs, group, budget, check_sorts, seen):
    """The loop and the recursive memo normalize the terms of the group one
    after another, each on its own table shared by the group, with the same
    outcomes and the same entries after each call; the loop runs first, on
    sorts not yet cached. Returns the outcomes."""
    mine: dict = {}
    ref: dict = {}
    outcomes = []
    for t in group:
        got = _table_outcome(sigma._nf_innermost, rs, t, budget, check_sorts, mine, seen)
        want = _table_outcome(_ref_memo_nf_innermost, rs, t, budget, check_sorts, ref, Counter())
        assert got == want, (str(t), budget, check_sorts)
        # the entries in the order made; equal lterms are identical, so have
        # the same keys, but two runs build distinct App nodes
        assert list(mine.values()) == list(ref.values()), (str(t), budget, check_sorts)
        assert all(k == id(y) for k, (y, _, _) in mine.items())
        seen["raising" if isinstance(want[0], type) else "normal"] += 1
        outcomes.append(want)
    return outcomes


def test_innermost_loop_matches_recursive_memo():
    user = sigma.load_rules(USER_LTERM_RULES, sig=SIG)
    extended = RewriteSystem("sigma+user", user.rules + RS.rules, "lterm", SIG)
    rng = random.Random(0x1009)
    seen: Counter = Counter()
    terms = []
    for k in range(3000):
        t = gen.random_lterm(rng, SIG, gen.random_sort(rng), rng.randint(3, 60))
        if k % 3 == 0:  # ill-sorted: sort_of, and with it FPush, raises
            leaf = gen.leaf_of_sort(gen.random_sort(rng), rng=rng)
            t = _replace_at(t, rng.choice(list(_positions(t))), leaf)
        terms.append(t)
        for rs in (RS, extended):
            for check_sorts in (False, True):
                (want,) = _assert_loop_as_memo(rs, [t], sigma.DEFAULT_BUDGET, check_sorts, seen)
                if not isinstance(want[0], type) and want[1]:
                    seen["budget"] += 1
                    (edge,) = _assert_loop_as_memo(rs, [t], want[1] - 1, check_sorts, seen)
                    assert edge[0] is StepBudgetExceeded
    # groups of four share a table, each term with its own budget; each
    # group meets each system and setting of the sort check on every 4th
    for k in range(0, len(terms), 4):
        rs, check_sorts = (RS, extended)[k // 4 % 2], k // 4 % 4 >= 2
        for budget in (sigma.DEFAULT_BUDGET, 5):
            _assert_loop_as_memo(rs, terms[k:k + 4], budget, check_sorts, seen)
    rs, terms = _arith_products()
    for t in terms:
        _assert_loop_as_memo(rs, [t], sigma.DEFAULT_BUDGET, False, seen)
    _assert_loop_as_memo(rs, terms, sigma.DEFAULT_BUDGET, False, seen)
    assert seen["raising"] >= 5000 and seen["budget"] >= 7000, seen
    assert seen["replays"] >= 5000 and seen["cut"] >= 300, seen


def _shared_outcome(rs, t, budget, check_sorts):
    """normalize_steps' outcome on t, on the system's memo."""
    try:
        return normalize_steps(rs, t, budget=budget, check_sorts=check_sorts)
    except Exception as e:
        return type(e), e.args


def test_calls_sharing_substitution_normal_forms_match_a_fresh_table_per_call():
    # the inputs of test_innermost_memo_matches_reference_normalizer, in
    # sequence under each system and sort check: the system's memo fills,
    # is read and emptied across calls, and each call's normal form, steps
    # or exception must be those of the recursive memo on a fresh table
    user = sigma.load_rules(USER_LTERM_RULES, sig=SIG)
    extended = RewriteSystem("sigma+user", user.rules + RS.rules, "lterm", SIG)
    rng = random.Random(0x3E30)
    terms = []
    for k in range(3000):
        t = gen.random_lterm(rng, SIG, gen.random_sort(rng), rng.randint(3, 60))
        if k % 3 == 0:  # ill-sorted: sort_of, and with it FPush, raises
            leaf = gen.leaf_of_sort(gen.random_sort(rng), rng=rng)
            t = _replace_at(t, rng.choice(list(_positions(t))), leaf)
        terms.append(t)
    seen: Counter = Counter()
    for system in (RS, extended):
        for check_sorts in (False, True):
            rs, count = _counting(system)
            applied = Counter()

            def outcomes(t, budget):
                start = count[0]
                got = _shared_outcome(rs, t, budget, check_sorts)
                middle = count[0]
                assert len(rs._memos[check_sorts]) <= sigma.SHARED_CAP
                want = _table_outcome(_ref_memo_nf_innermost, rs, t, budget, check_sorts, {},
                                      Counter())
                applied["shared"] += middle - start
                applied["fresh"] += count[0] - middle
                assert got == want, (str(t), budget, check_sorts)
                return want

            for t in terms:
                want = outcomes(t, sigma.DEFAULT_BUDGET)
                if isinstance(want[0], type):
                    seen["raising"] += 1
                elif want[1]:
                    seen["budget"] += 1
                    assert outcomes(t, want[1] - 1)[0] is StepBudgetExceeded
            assert 0 < len(rs._memos[check_sorts]) <= sigma.SHARED_CAP
            assert applied["shared"] < applied["fresh"] // 2, applied
    rs, terms = _arith_products()  # a system over named terms shares nothing
    for t in terms:
        assert _shared_outcome(rs, t, sigma.DEFAULT_BUDGET, False) == \
            _outcome(_ref_memo_nf_innermost, rs, t, sigma.DEFAULT_BUDGET, False)
    assert rs._memos == ({}, {})
    assert seen["raising"] >= 1000 and seen["budget"] >= 7000, seen


def _one_step_outcome(one_step, rs, t):
    try:
        return one_step(rs, t)
    except Exception as e:
        return type(e), e.args


def test_all_one_step_matches_recursive_reference():
    user = sigma.load_rules(USER_LTERM_RULES, sig=SIG)
    extended = RewriteSystem("sigma+user", user.rules + RS.rules, "lterm", SIG)
    rng = random.Random(0x0A5)
    seen: Counter = Counter()
    for k in range(2000):
        t = gen.random_lterm(rng, SIG, gen.random_sort(rng), rng.randint(3, 60))
        if k % 3 == 0:  # ill-sorted: FPush raises where it meets the bad substitution
            leaf = gen.leaf_of_sort(gen.random_sort(rng), rng=rng)
            t = _replace_at(t, rng.choice(list(_positions(t))), leaf)
        rs = (RS, extended)[k % 2]
        want = _one_step_outcome(_ref_all_one_step, rs, t)
        assert _one_step_outcome(all_one_step, rs, t) == want, str(t)
        seen["raising" if isinstance(want, tuple) else "peaks" if len(want) > 1 else "fewer"] += 1
    rs, terms = _arith_products()
    for t in terms:
        assert all_one_step(rs, t) == _ref_all_one_step(rs, t)
    assert seen["raising"] >= 30 and seen["peaks"] >= 600, seen


def _sort_outcome(sort_fn, sig, t, path):
    try:
        return sort_fn(sig, t, path)
    except Exception as e:
        return type(e), e.args


def test_sort_of_matches_recursive_reference():
    # the same symbols with other arities, and c undeclared
    other = Signature({"f": (1,), "g": (0,), "Λ": (0,), "δ": (0, 1, 1)}, {})
    rng = random.Random(0x5027)
    kinds: Counter = Counter()
    for k in range(3000):
        if k % 2:
            t = _any_lterm(rng, rng.randint(0, 5))
        else:
            t = gen.random_lterm(rng, SIG, gen.random_sort(rng), rng.randint(3, 60))
            if k % 3 == 0:
                leaf = gen.leaf_of_sort(gen.random_sort(rng), rng=rng)
                t = _replace_at(t, rng.choice(list(_positions(t))), leaf)
        pos = rng.choice(list(_positions(t)))
        if k % 10 == 5:  # not a term of this layer: a TypeError
            t = _replace_at(t, pos, MetaT("m"))
        sub = t
        for p in pos:
            sub = sigma._children(sub)[p]
        # under SIG cold, then cached, then after other's sorts were cached
        for sig in (SIG, SIG, other, SIG):
            for x, path in ((t, ()), (sub, pos)):
                want = _sort_outcome(_ref_sort_of, sig, x, path)
                assert _sort_outcome(sort_of, sig, x, path) == want, (str(x), path)
                kinds[want[0].__name__ if type(want) is tuple else "sort"] += 1
    assert min(kinds.values()) >= 200 and len(kinds) == 4, kinds


# ---------------------------------------------------------------------------
# interning and the sort cache

LTERM_CLASSES = (Index, FreeVar, FApp, Closure, Id, Cons, Shift, Comp)


def _live_nodes():
    return sum(r() is not None for cls in LTERM_CLASSES for r in cls._table.values())


def _rebuilt(t):
    """t built again node by node, bottom-up."""
    n = syntax.NODE_TYPES[type(t)]
    return n.make(n.data(t), tuple(map(_rebuilt, n.kids(t))))


def test_one_live_node_per_structure():
    rng = random.Random(0x1D)
    for _ in range(2000):
        t = gen.random_lterm(rng, SIG, gen.random_sort(rng), rng.randint(1, 60))
        n = syntax.NODE_TYPES[type(t)]
        assert parse_lterm(print_lterm(t)) is t
        assert n.make(n.data(t), n.kids(t)) is t
        assert _rebuilt(t) is t
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t
    assert TermSort(2) is TermSort(2) and SubstSort(1, 2) is copy.deepcopy(SubstSort(1, 2))


def test_interning_keeps_no_dead_terms():
    # a system's memo keeps its entries' nodes, so each call has a system
    # of its own, dropped before the count
    t = _depth_term(64)
    gc.collect()
    before = _live_nodes()
    for check_sorts in (False, True):
        rs = sigma_system(DEPTH_SIG)
        nf = normalize(rs, t, strategy="innermost", check_sorts=check_sorts)
        assert _live_nodes() > before
        del nf, rs
        gc.collect()
        assert _live_nodes() == before


def test_a_held_result_shares_substitution_normal_forms_with_the_next_call():
    # The substitution normal forms of a depth nest depend on binder levels
    # and the closing substitution, not on the spine's symbols, so a second
    # nest replays most of them from the system's memo.
    rs, count = _counting(DEPTH_RS)
    first, steps = normalize_steps(rs, _depth_term(32))
    assert (count[0], steps) == (11_386, 6_179)
    count[0] = 0
    other = _depth_term(32, seed=1)
    second = normalize_steps(rs, other)
    assert count[0] <= 1_000
    assert second == normalize_steps(_counting(DEPTH_RS)[0], other)
    # the sort check has its own memo, cold
    count[0] = 0
    assert normalize_steps(rs, other, check_sorts=True) == second
    assert count[0] == 11_386
    # warm while the system lives, with the results dropped; a fresh system is cold
    del first, second
    gc.collect()
    count[0] = 0
    normalize(rs, _depth_term(32, seed=2))
    assert count[0] <= 1_000
    rs, count = _counting(DEPTH_RS)
    normalize(rs, _depth_term(32, seed=2))
    assert count[0] == 11_386


def test_the_shared_table_lives_as_long_as_the_results_and_within_its_cap():
    rs = sigma_system(DEPTH_SIG)
    system = weakref.ref(rs)
    # (a . id_0) o up_0 -> a_1() . up_0: the memo holds the input and the result
    sub = Comp(Cons(FApp("a", 0, ()), Id(0)), Shift(0))
    nf = normalize(rs, sub)
    assert nf is Cons(FApp("a", 1, ()), Shift(0))
    memo = rs._memos[False]
    assert memo[id(nf)] == (nf, nf, 0) and memo[id(sub)][:2] == (sub, nf)
    node = weakref.ref(sub)
    del sub, nf, memo
    gc.collect()
    assert node() is not None  # kept while the system lives
    del rs
    gc.collect()
    assert system() is None and node() is None
    # a call that finds the memo full empties it; it never passes the cap.
    # A name of its own makes each input a new node, whose entries the call makes.
    rng = random.Random(0xCA9)
    rs = sigma_system(SIG)
    memo = rs._memos[False]
    calls = emptied = size = 0
    while emptied < 3:
        s = gen.random_lterm(rng, SIG, SubstSort(0, rng.randrange(3)), 60)
        calls += 1
        normalize(rs, Cons(FreeVar(f"v{calls}"), s))
        assert rs._memos[False] is memo and 0 < len(memo) <= sigma.SHARED_CAP
        if len(memo) < size:
            assert size == sigma.SHARED_CAP
            emptied += 1
        size = len(memo)


def test_alternating_sort_checks_keep_both_memos_warm():
    # The two settings of the sort check take turns call by call on one
    # family, with every result held: each setting reads its own memo, so
    # after the first nest each call is warm, and each outcome is that of
    # the recursive memo on a fresh table.
    rs, count = _counting(DEPTH_RS)
    held = []
    for seed in range(4):
        t = _depth_term(32, seed=seed)
        for check_sorts in (False, True):
            count[0] = 0
            held.append(_shared_outcome(rs, t, sigma.DEFAULT_BUDGET, check_sorts))
            assert count[0] == 11_386 if seed == 0 else count[0] <= 1_000
            assert held[-1] == _outcome(_ref_memo_nf_innermost, rs, t, sigma.DEFAULT_BUDGET,
                                        check_sorts)
    # ill-sorted members and rules that break sorts make the settings differ
    user = sigma.load_rules(USER_LTERM_RULES, sig=SIG)
    extended = RewriteSystem("sigma+user", user.rules + RS.rules, "lterm", SIG)
    rng = random.Random(0xA17)
    differ = 0
    for k in range(400):
        t = gen.random_lterm(rng, SIG, gen.random_sort(rng), rng.randint(3, 60))
        if k % 3 == 0:
            leaf = gen.leaf_of_sort(gen.random_sort(rng), rng=rng)
            t = _replace_at(t, rng.choice(list(_positions(t))), leaf)
        got = [_shared_outcome(extended, t, sigma.DEFAULT_BUDGET, check_sorts)
               for check_sorts in (False, True)]
        for check_sorts in (False, True):
            assert got[check_sorts] == _outcome(_ref_memo_nf_innermost, extended, t,
                                                sigma.DEFAULT_BUDGET, check_sorts), str(t)
        differ += got[0] != got[1]
    assert all(rs._memos) and all(extended._memos) and differ >= 20, differ


def test_a_held_leaf_result_keeps_nothing_alive_past_its_system():
    # _leaf keeps its nodes for the process; a normal form that is one of
    # them holds no memo, so the memo and its nodes die with the system.
    # A name of its own makes `sub` a node that no other memo holds.
    leaf = sigma._leaf(SubstSort(1, 2))
    assert leaf is Cons(Index(1, 1), Id(1))
    t = _depth_term(8)
    gc.collect()
    before = _live_nodes()
    rs = sigma_system(DEPTH_SIG)
    system = weakref.ref(rs)
    assert normalize(rs, Comp(Cons(Index(1, 1), Id(1)), Id(1))) is leaf
    sub = Comp(Cons(FreeVar("held_leaf"), Id(0)), Shift(0))
    normalize(rs, sub)
    normalize(rs, t)
    node = weakref.ref(sub)
    del sub
    gc.collect()
    assert node() is not None  # in the memo
    del rs
    gc.collect()
    assert system() is None and node() is None and _live_nodes() == before


def test_sort_cache_is_per_signature():
    t = Closure(FApp("f", 0, (FreeVar("x"),)), Id(0))
    one, two, none = (Signature(f, {}) for f in ({"f": (0,)}, {"f": (1,)}, {}))
    for _ in range(3):
        for sig in (one, two, one, none, Signature({"f": (0,)}, {})):
            assert _sort_outcome(sort_of, sig, t, ()) == _sort_outcome(_ref_sort_of, sig, t, ())
    assert sort_of(one, t) is TermSort(0)
    with pytest.raises(SortMismatch) as e:
        sort_of(two, t)
    assert e.value.path == (0, 0)
    with pytest.raises(SortMismatch) as e:
        sort_of(none, t)
    assert e.value.path == (0,)


def test_sort_errors_are_not_cached():
    # the well-sorted parts are cached on the first call; the errors are not
    for bad, path in ((Closure(Closure(FreeVar("x"), Shift(0)), Id(2)), (1,)),
                      (Cons(FApp("f", 0, (Index(3, 2),)), Id(0)), (0, 0)),
                      (Comp(Cons(FreeVar("x"), Id(0)), Closure(FreeVar("y"), Id(0))), (1,))):
        for caller in ((), (), (4, 1), ()):
            want = _sort_outcome(_ref_sort_of, SIG, bad, caller)
            assert _sort_outcome(sort_of, SIG, bad, caller) == want
            with pytest.raises(BindLogError) as e:
                sort_of(SIG, bad, caller)
            assert e.value.path == caller + path


def _node_count(t):
    return 1 + sum(map(_node_count, sigma._children(t)))


@contextlib.contextmanager
def _counting_builds():
    """Counts the nodes the hash-consing constructors build anew, through
    the allocator their generated code calls."""
    built = [0]

    def new(cls):
        built[0] += 1
        return object.__new__(cls)

    envs = [cls.__new__.__globals__ for cls in LTERM_CLASSES]
    for env in envs:
        env["new"] = new
    try:
        yield built
    finally:
        for env in envs:
            env["new"] = object.__new__


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sort_checks_cost_the_nodes_built(strategy, monkeypatch):
    # Before sorts were cached, checking a step walked the whole redex and
    # its replacement: O(|term|) sort computations per step.
    computed = [0]

    def counted(*args, inner=sigma._node_sort):
        computed[0] += 1
        return inner(*args)

    t = _depth_term(64)
    monkeypatch.setattr(sigma, "_node_sort", counted)
    with _counting_builds() as built:
        normalize(DEPTH_RS, t, strategy=strategy, check_sorts=True)
    assert 0 < computed[0] <= 4 * (_node_count(t) + built[0]), (computed, built)


def test_sort_of_takes_deep_input():
    # 10,000 levels are far past the interpreter's recursion limit
    sig = Signature({"f": (0,), "a": ()}, {})
    chain, cons, bad = FApp("a", 0, ()), Id(0), Index(2, 1)
    for _ in range(10_000):
        chain, cons, bad = FApp("f", 0, (chain,)), Cons(FreeVar("x"), cons), FApp("f", 0, (bad,))
    assert sort_of(sig, chain) is TermSort(0)
    assert sort_of(sig, cons) is SubstSort(0, 10_000)
    with pytest.raises(IndexOutOfRange) as e:
        sort_of(sig, bad)
    assert e.value.path == (0,) * 10_000


def test_equality_and_hashing_take_deep_input():
    # Structural equality and hashing recursed and raised RecursionError here.
    a, b = FreeVar("a"), FreeVar("b")
    for _ in range(10_000):
        a, b = FApp("f", 0, (a,)), FApp("f", 0, (b,))
    assert hash(a) == hash(FApp("f", 0, a.args)) and hash(b) == hash(b)
    assert a != b and not a == b and a == FApp("f", 0, a.args)
    assert a in {a, b} and b not in {a} and len({a, b, a}) == 2


def test_repr_takes_deep_input():
    # The dataclass-generated repr recursed and raised RecursionError here.
    chain = FApp("a", 0, ())
    for _ in range(10_000):
        chain = FApp("f", 0, (chain,))
    assert repr(chain) == f"<FApp {chain}>"
    assert repr(chain).count("f_0(") == 10_000
    assert repr(L("1_1[x . up_0] o id_1")) == "<Comp 1_1[x . up_0] o id_1>"


def test_equality_is_identity():
    for cls in (Index, FreeVar, FApp, Closure, Id, Cons, Shift, Comp, MetaT, TermSort, SubstSort):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls
    for text in ("(?t . ?s) o ?u", "1_?n+1 . up_?n", "1_?m[?s] . (up_?k o ?s)"):
        assert parse_lterm(text) is parse_lterm(text)
    # so reading the rule text again gives the same left sides and matchers
    for _, rule, lhs, _ in sigma._read_rules(sigma.SIGMA_RULES)[1]:
        assert (rule.apply, lhs) == (RS.rule(rule.name).apply, sigma._SIGMA_PATTERNS[rule.name][1])
        assert lhs is sigma._SIGMA_PATTERNS[rule.name][1]


# ---------------------------------------------------------------------------
# the protocol walks against the ladders they replaced
#
# The references below are the walks of this layer and of the translation as
# they were before every node class got a NodeType, one case per
# constructor, kept verbatim (the one edit: the reference uncook_prop
# collects names with the reference all_names_l). Inputs are seeded: sorted
# terms drawn well-sorted and drawn ignoring sorts, propositions whose
# quantifiers shadow one another over counter-suffixed names, translation
# images, and rule patterns of both layers.

def _ref_lprop_sorts_ok(sig: Signature, a) -> bool:
    """True iff every atom applies a declared predicate to binder-free slots
    whose bodies have the sorts the predicate's rank prescribes."""
    if isinstance(a, Atom):
        if a.pred not in sig.predicates:
            return False
        arity = sig.predicates[a.pred]
        if len(arity) != len(a.args):
            return False
        for s, k in zip(a.args, arity):
            if s.binders:
                return False
            try:
                if sort_of(sig, s.body) != TermSort(k):
                    return False
            except BindLogError:
                return False
        return True
    if isinstance(a, (Imp, And, Or)):
        return _ref_lprop_sorts_ok(sig, a.a) and _ref_lprop_sorts_ok(sig, a.b)
    if isinstance(a, Bottom):
        return True
    if isinstance(a, (Forall, Exists)):
        return _ref_lprop_sorts_ok(sig, a.body)
    raise TypeError(f"not a proposition: {a!r}")


def _ref_free_vars_l(x) -> frozenset[str]:
    if isinstance(x, FreeVar):
        return frozenset((x.name,))
    if isinstance(x, (Index, Id, Shift)):
        return frozenset()
    if isinstance(x, FApp):
        acc: set[str] = set()
        for a in x.args:
            acc |= _ref_free_vars_l(a)
        return frozenset(acc)
    if isinstance(x, (Closure, Cons)):
        return _ref_free_vars_l(x.t) | _ref_free_vars_l(x.s)
    if isinstance(x, Comp):
        return _ref_free_vars_l(x.s1) | _ref_free_vars_l(x.s2)
    if isinstance(x, Atom):
        acc = set()
        for s in x.args:
            acc |= _ref_free_vars_l(s.body) - set(s.binders)
        return frozenset(acc)
    if isinstance(x, (Imp, And, Or)):
        return _ref_free_vars_l(x.a) | _ref_free_vars_l(x.b)
    if isinstance(x, Bottom):
        return frozenset()
    if isinstance(x, (Forall, Exists)):
        return _ref_free_vars_l(x.body) - {x.var}
    raise TypeError(f"not a sorted term or proposition: {x!r}")


def _ref_all_names_l(x) -> frozenset[str]:
    """Every variable name occurring in x, quantifier-bound ones included."""
    if isinstance(x, (Forall, Exists)):
        return _ref_all_names_l(x.body) | {x.var}
    if isinstance(x, (Imp, And, Or)):
        return _ref_all_names_l(x.a) | _ref_all_names_l(x.b)
    if isinstance(x, Atom):
        acc: set[str] = set()
        for s in x.args:
            acc |= set(s.binders) | _ref_all_names_l(s.body)
        return frozenset(acc)
    if isinstance(x, Bottom):
        return frozenset()
    acc = set()
    if isinstance(x, FreeVar):
        acc.add(x.name)
    for c in _ref_children(x):
        acc |= _ref_all_names_l(c)
    return frozenset(acc)


def _ref_graft_l(theta, x):
    """Replace variables by terms. Terms of this layer have no binders, so
    on terms this is plain replacement; quantifiers restrict the map."""
    if not theta:
        return x
    if isinstance(x, FreeVar):
        return theta.get(x.name, x)
    if isinstance(x, (Index, Id, Shift)):
        return x
    if isinstance(x, FApp):
        return FApp(x.f, x.p, tuple(_ref_graft_l(theta, a) for a in x.args))
    if isinstance(x, Closure):
        return Closure(_ref_graft_l(theta, x.t), _ref_graft_l(theta, x.s))
    if isinstance(x, Cons):
        return Cons(_ref_graft_l(theta, x.t), _ref_graft_l(theta, x.s))
    if isinstance(x, Comp):
        return Comp(_ref_graft_l(theta, x.s1), _ref_graft_l(theta, x.s2))
    if isinstance(x, Atom):
        return Atom(x.pred, tuple(Slot(s.binders, _ref_graft_l(theta, s.body)) for s in x.args))
    if isinstance(x, (Imp, And, Or)):
        return type(x)(_ref_graft_l(theta, x.a), _ref_graft_l(theta, x.b))
    if isinstance(x, Bottom):
        return x
    if isinstance(x, (Forall, Exists)):
        inner = {v: t for v, t in theta.items() if v != x.var}
        return type(x)(x.var, _ref_graft_l(inner, x.body))
    raise TypeError(f"not a sorted term or proposition: {x!r}")


def _ref_substitute_l(theta, x):
    """Capture-avoiding substitution: quantified variables are renamed away
    from the free variables of the substituted terms."""
    if not theta:
        return x
    if isinstance(x, (Forall, Exists)):
        inner = {v: t for v, t in theta.items() if v != x.var}
        if not inner:
            return x
        range_free: set[str] = set()
        for t in inner.values():
            range_free |= _ref_free_vars_l(t)
        var, body = x.var, x.body
        if var in range_free:
            # the fresh name must avoid every name in the body, bound ones
            # included, or an inner quantifier could capture it
            avoid = range_free | _ref_all_names_l(body) | set(inner)
            k = 1
            while f"{var}{k}" in avoid:
                k += 1
            fresh = f"{var}{k}"
            body = _ref_graft_l({var: FreeVar(fresh)}, body)
            var = fresh
        return type(x)(var, _ref_substitute_l(inner, body))
    if isinstance(x, (Imp, And, Or)):
        return type(x)(_ref_substitute_l(theta, x.a), _ref_substitute_l(theta, x.b))
    if isinstance(x, (Bottom, Atom)) or isinstance(x, LTerm):
        return _ref_graft_l(theta, x)
    raise TypeError(f"not a sorted term or proposition: {x!r}")


def _ref_alpha_eq_l(a, b) -> bool:
    """Equality up to renaming of quantified variables. Terms of this layer
    have no binders of their own, so on terms this is plain equality."""

    def go(a, b, ab: dict, ba: dict) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, FreeVar):
            if a.name in ab:
                return ab[a.name] == b.name
            return b.name not in ba and a.name == b.name
        if isinstance(a, (Index, Id, Shift)):
            return a == b
        if isinstance(a, FApp):
            return (a.f == b.f and a.p == b.p and len(a.args) == len(b.args)
                    and all(go(x, y, ab, ba) for x, y in zip(a.args, b.args)))
        if isinstance(a, (Closure, Cons)):
            return go(a.t, b.t, ab, ba) and go(a.s, b.s, ab, ba)
        if isinstance(a, Comp):
            return go(a.s1, b.s1, ab, ba) and go(a.s2, b.s2, ab, ba)
        if isinstance(a, Atom):
            return (a.pred == b.pred and len(a.args) == len(b.args)
                    and all(s.binders == u.binders and go(s.body, u.body, ab, ba)
                            for s, u in zip(a.args, b.args)))
        if isinstance(a, (Imp, And, Or)):
            return go(a.a, b.a, ab, ba) and go(a.b, b.b, ab, ba)
        if isinstance(a, Bottom):
            return True
        if isinstance(a, (Forall, Exists)):
            ab2 = {**ab, a.var: b.var}
            ba2 = {**ba, b.var: a.var}
            return go(a.body, b.body, ab2, ba2)
        raise TypeError(f"not a sorted term or proposition: {a!r}")

    return go(a, b, {}, {})


def _ref_children(x) -> tuple:
    if isinstance(x, FApp):
        return x.args
    if isinstance(x, (Closure, Cons)):
        return (x.t, x.s)
    if isinstance(x, Comp):
        return (x.s1, x.s2)
    if isinstance(x, syntax.App):
        return tuple(s.body for s in x.args)
    return ()


def _ref_rebuild(x, kids: tuple):
    if isinstance(x, FApp):
        return FApp(x.f, x.p, kids)
    if isinstance(x, Closure):
        return Closure(kids[0], kids[1])
    if isinstance(x, Cons):
        return Cons(kids[0], kids[1])
    if isinstance(x, Comp):
        return Comp(kids[0], kids[1])
    if isinstance(x, syntax.App):
        return syntax.App(x.symbol, tuple(Slot(s.binders, k) for s, k in zip(x.args, kids)))
    return x


def _ref_is_F_prop(sig: Signature, a, rs: RewriteSystem | None = None) -> bool:
    if rs is None:
        rs = sigma_system(sig)
    if isinstance(a, Atom):
        return all(not s.binders and not has_redex(rs, s.body) for s in a.args)
    if isinstance(a, (Imp, And, Or)):
        return _ref_is_F_prop(sig, a.a, rs) and _ref_is_F_prop(sig, a.b, rs)
    if isinstance(a, Bottom):
        return True
    if isinstance(a, (Forall, Exists)):
        return _ref_is_F_prop(sig, a.body, rs)
    raise TypeError(f"not a proposition: {a!r}")


def _ref_match_num(pat, val, binds) -> bool:
    if isinstance(pat, int):
        return pat == val
    want = val - pat.offset
    if want < 0:
        return False
    key = "#" + pat.name
    if key in binds:
        return binds[key] == want
    binds[key] = want
    return True


def _ref_build_num(pat, binds) -> int:
    if isinstance(pat, int):
        return pat
    return binds["#" + pat.name] + pat.offset


def _ref_match_pattern(pat, node, binds: dict) -> bool:
    if isinstance(pat, MetaT):
        if pat.name in binds:
            return binds[pat.name] == node
        binds[pat.name] = node
        return True
    if isinstance(pat, Index):
        return isinstance(node, Index) and _ref_match_num(pat.i, node.i, binds) \
            and _ref_match_num(pat.n, node.n, binds)
    if isinstance(pat, Id):
        return isinstance(node, Id) and _ref_match_num(pat.n, node.n, binds)
    if isinstance(pat, Shift):
        return isinstance(node, Shift) and _ref_match_num(pat.n, node.n, binds)
    if isinstance(pat, FreeVar):
        return isinstance(node, FreeVar) and pat.name == node.name
    if isinstance(pat, FApp):
        return (isinstance(node, FApp) and pat.f == node.f
                and _ref_match_num(pat.p, node.p, binds)
                and len(pat.args) == len(node.args)
                and all(_ref_match_pattern(a, b, binds) for a, b in zip(pat.args, node.args)))
    if isinstance(pat, Closure):
        return isinstance(node, Closure) and _ref_match_pattern(pat.t, node.t, binds) \
            and _ref_match_pattern(pat.s, node.s, binds)
    if isinstance(pat, Cons):
        return isinstance(node, Cons) and _ref_match_pattern(pat.t, node.t, binds) \
            and _ref_match_pattern(pat.s, node.s, binds)
    if isinstance(pat, Comp):
        return isinstance(node, Comp) and _ref_match_pattern(pat.s1, node.s1, binds) \
            and _ref_match_pattern(pat.s2, node.s2, binds)
    if isinstance(pat, syntax.Var):
        return pat == node
    if isinstance(pat, syntax.App):
        return (isinstance(node, syntax.App) and pat.symbol == node.symbol
                and len(pat.args) == len(node.args)
                and all(s.binders == u.binders and _ref_match_pattern(s.body, u.body, binds)
                        for s, u in zip(pat.args, node.args)))
    raise TypeError(f"bad pattern node: {pat!r}")


def _ref_build_pattern(pat, binds: dict):
    if isinstance(pat, MetaT):
        return binds[pat.name]
    if isinstance(pat, Index):
        return Index(_ref_build_num(pat.i, binds), _ref_build_num(pat.n, binds))
    if isinstance(pat, Id):
        return Id(_ref_build_num(pat.n, binds))
    if isinstance(pat, Shift):
        return Shift(_ref_build_num(pat.n, binds))
    if isinstance(pat, FreeVar):
        return pat
    if isinstance(pat, FApp):
        return FApp(pat.f, _ref_build_num(pat.p, binds),
                    tuple(_ref_build_pattern(a, binds) for a in pat.args))
    if isinstance(pat, Closure):
        return Closure(_ref_build_pattern(pat.t, binds), _ref_build_pattern(pat.s, binds))
    if isinstance(pat, Cons):
        return Cons(_ref_build_pattern(pat.t, binds), _ref_build_pattern(pat.s, binds))
    if isinstance(pat, Comp):
        return Comp(_ref_build_pattern(pat.s1, binds), _ref_build_pattern(pat.s2, binds))
    if isinstance(pat, syntax.Var):
        return pat
    if isinstance(pat, syntax.App):
        return syntax.App(pat.symbol,
                          tuple(Slot(s.binders, _ref_build_pattern(s.body, binds)) for s in pat.args))
    raise TypeError(f"bad pattern node: {pat!r}")


def _ref_precook_prop(sig: Signature, a):
    """Translate a proposition; atoms translate their arguments under the
    reversed binder lists, connectives and quantifiers are untouched."""
    if isinstance(a, Atom):
        return Atom(a.pred, tuple(
            Slot((), precook.precook(sig, s.body, tuple(reversed(s.binders)))) for s in a.args
        ))
    if isinstance(a, (Imp, And, Or)):
        return type(a)(_ref_precook_prop(sig, a.a), _ref_precook_prop(sig, a.b))
    if isinstance(a, Bottom):
        return a
    if isinstance(a, (Forall, Exists)):
        return type(a)(a.var, _ref_precook_prop(sig, a.body))
    raise TypeError(f"not a proposition: {a!r}")


def _ref_uncook_prop(sig: Signature, a):
    # generated binders must dodge quantifier-bound names too, or a shielded
    # occurrence of a quantified variable could be captured
    fresh = syntax.numbered_names("z", _ref_all_names_l(a))

    def go(a):
        if isinstance(a, Atom):
            if a.pred not in sig.predicates or len(sig.predicates[a.pred]) != len(a.args):
                raise NotAnFTerm(f"bad atom {a.pred!r}")
            slots = []
            for s, k in zip(a.args, sig.predicates[a.pred]):
                binders = tuple(fresh() for _ in range(k))
                body = _uncook_term(sig, s.body, tuple(reversed(binders)), fresh)
                slots.append(Slot(binders, body))
            return Atom(a.pred, tuple(slots))
        if isinstance(a, (Imp, And, Or)):
            return type(a)(go(a.a), go(a.b))
        if isinstance(a, Bottom):
            return a
        if isinstance(a, (Forall, Exists)):
            return type(a)(a.var, go(a.body))
        raise TypeError(f"not a proposition: {a!r}")

    return go(a)


_L_NAMES = ("x", "y", "z", "x1", "x2", "w", "w1")


def _any_lterm(rng, depth):
    """A term of this layer drawn without regard to sorts."""
    pick = rng.randrange(8 if depth > 0 else 4)
    if pick == 0:
        return FreeVar(rng.choice(_L_NAMES))
    if pick == 1:
        return Index(rng.randint(0, 3), rng.randint(0, 3))
    if pick == 2:
        return Id(rng.randint(0, 2))
    if pick == 3:
        return Shift(rng.randint(0, 2))
    if pick == 4:
        return FApp(rng.choice(("f", "g", "Λ", "c", "h")), rng.randint(0, 2),
                    tuple(_any_lterm(rng, depth - 1) for _ in range(rng.randint(0, 2))))
    cls = (Closure, Cons, Comp)[pick - 5]
    return cls(_any_lterm(rng, depth - 1), _any_lterm(rng, depth - 1))


def _lterm(rng, sort=None):
    if sort is None and rng.random() < 0.5:
        return _any_lterm(rng, rng.randint(0, 4))
    return gen.random_lterm(rng, SIG, sort or gen.random_sort(rng), rng.randint(1, 10),
                            free=_L_NAMES)


def _lprop(rng, depth):
    pick = rng.random()
    if depth <= 0 or pick < 0.3:
        pred = rng.choice(("=", "P", "Q", "R"))  # R is not declared
        sort = TermSort(0) if rng.random() < 0.7 else None
        return Atom(pred, tuple(Slot((), _lterm(rng, sort))
                                for _ in SIG.predicates.get(pred, (0,))))
    if pick < 0.4:
        return Bottom()
    if pick < 0.7:
        return rng.choice((Forall, Exists))(rng.choice(_L_NAMES), _lprop(rng, depth - 1))
    return rng.choice((Imp, And, Or))(_lprop(rng, depth - 1), _lprop(rng, depth - 1))


def _named_prop(rng):
    """A proposition of the named layer whose quantifiers shadow."""
    p = gen.random_prop(rng, SIG, rng.randint(1, 10))
    for _ in range(rng.randint(0, 2)):
        p = rng.choice((Forall, Exists))(rng.choice(_L_NAMES), p)
    return p


def _l_inputs(seed, count=1000):
    """count propositions of this layer, a quarter of them translation
    images, and count // 2 terms."""
    rng = random.Random(seed)
    props = [_lprop(rng, rng.randint(0, 4)) for _ in range(count - count // 4)]
    props += [precook.precook_prop(SIG, _named_prop(rng)) for _ in range(count // 4)]
    return props + [_lterm(rng) for _ in range(count // 2)]


def _l_map(rng):
    return {rng.choice(_L_NAMES): _lterm(rng, TermSort(0)) for _ in range(rng.randint(0, 3))}


def test_layer_walks_match_reference():
    rng = random.Random(0xB1)
    for x in _l_inputs(0xB2):
        theta = _l_map(rng)
        assert syntax.free_vars(x) == _ref_free_vars_l(x), x
        assert syntax.all_names(x) == _ref_all_names_l(x), x
        assert syntax.graft(theta, x) == _ref_graft_l(theta, x), x
        assert syntax.subst(theta, x) == _ref_substitute_l(theta, x), x


def test_prop_walks_match_reference():
    rs = sigma_system(SIG)
    verdicts = set()
    for a in _l_inputs(0xB3)[:1000]:
        sorts_ok, normal = sigma.well_sorted(SIG, a).ok, sigma.is_F_prop(SIG, a, rs)
        assert sorts_ok == _ref_lprop_sorts_ok(SIG, a), a
        assert normal == _ref_is_F_prop(SIG, a, rs), a
        verdicts.add((sorts_ok, normal))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def _uncooked(f, a):
    try:
        return f(SIG, a)
    except NotAnFTerm as e:
        return ("NotAnFTerm", str(e))


def test_translation_walks_match_reference():
    rng = random.Random(0xB4)
    for _ in range(600):
        p = _named_prop(rng)
        image = precook.precook_prop(SIG, p)
        assert image == _ref_precook_prop(SIG, p), p
        assert precook.uncook_prop(SIG, image) == _ref_uncook_prop(SIG, image), p
    for a in _l_inputs(0xB5, 400)[:400]:
        assert _uncooked(precook.uncook_prop, a) == _uncooked(_ref_uncook_prop, a), a


def _canon_l(a, k=0):
    """a with its k-th nested quantifier variable named _k: alpha-equivalent
    propositions of this layer, and only those, come out equal."""
    if isinstance(a, (Forall, Exists)):
        v = f"_{k}"
        return type(a)(v, _canon_l(_ref_graft_l({a.var: FreeVar(v)}, a.body), k + 1))
    if isinstance(a, (Imp, And, Or)):
        return type(a)(_canon_l(a.a, k), _canon_l(a.b, k))
    return a


def _renamed(rng, a):
    """a with some quantifier variables renamed, captures not avoided."""
    if isinstance(a, (Forall, Exists)):
        v = rng.choice((a.var,) + _L_NAMES)
        return type(a)(v, _renamed(rng, _ref_graft_l({a.var: FreeVar(v)}, a.body)))
    if isinstance(a, (Imp, And, Or)):
        return type(a)(_renamed(rng, a.a), _renamed(rng, a.b))
    return a


def test_alpha_eq_l_matches_reference_but_for_shadowing():
    rng = random.Random(0xB6)
    inputs = _l_inputs(0xB7)
    misread = agree = 0
    for a in inputs:
        for b in (_renamed(rng, a), _renamed(rng, a), rng.choice(inputs)):
            want = _canon_l(a) == _canon_l(b)
            assert syntax.alpha_eq(a, b) == want, (a, b)
            if _ref_alpha_eq_l(a, b) == want:
                agree += 1
            else:
                # the reference reads a bound name of b through the map from
                # a's names only, so it can equate quantifiers that shadow
                # differently; it never denies an alpha-equivalent pair
                assert not want
                misread += 1
    assert misread and agree > 100 * misread


def test_alpha_eq_l_tells_shadowing_apart():
    a = sigma.parse_lprop("forall x. exists y. R2(x, y)")
    b = sigma.parse_lprop("forall x. exists x. R2(x, x)")
    assert not syntax.alpha_eq(a, b) and not syntax.alpha_eq(b, a)
    assert syntax.alpha_eq(a, sigma.parse_lprop("forall y. exists x. R2(y, x)"))
    assert not syntax.alpha_eq(Var("x"), FreeVar("x"))


_LTERM_PATTERNS = (
    "1_?n[?t . ?s]", "?t[id_?n]", "(?s1 o ?s2) o ?s3", "?t[?s][?u]", "f_?p(?t)",
    "?t . (?s o ?u)", "up_?n o (?t . ?s)", "1_?n+1 . up_?n", "?t[?s] . (up_?n o ?s)",
    "?t[?s]", "?t . ?t", "x[up_0]", "g_?p(?t, ?t)", "id_?n o ?s", "2_?n", "?s o id_?n",
)
_TERM_PATTERNS = ("+(S(?x), ?y)", "S(+(?x, ?y))", "*(0(), ?y)", "+(?x, ?x)", "g(?x, y)",
                  "Λ(x. ?t)", "Λ(y. f(?t))", "δ(?t, x. ?u, y. ?u)")


def _term_pattern(text):
    p = sigma._TermPatternParser(text)
    t = p.term()
    p.done()
    return t


def _built(build, pat, binds):
    try:
        return build(pat, dict(binds))
    except KeyError as e:
        return ("KeyError", e.args)


def test_patterns_match_and_build_as_reference():
    rng = random.Random(0xB8)
    lpats = [sigma.parse_lterm(t) for t in _LTERM_PATTERNS]
    named = [_term_pattern(t) for t in _TERM_PATTERNS]
    arith = Signature({"0": (), "S": (0,), "+": (0, 0), "*": (0, 0)}, {})
    matched = 0
    for pats, draw in ((lpats, lambda: _lterm(rng)),
                       (named, lambda: gen.random_term(rng, rng.choice((arith, SIG)), 8))):
        for lhs in pats:
            nodes = [draw() for _ in range(40)]
            for _ in range(20):  # instances of lhs, so that some nodes match
                binds = {m: draw() for m in ("t", "s", "u", "s1", "s2", "s3", "x", "y")}
                binds.update({f"#{m}": rng.randint(0, 3) for m in ("n", "p")})
                nodes.append(_ref_build_pattern(lhs, binds))
            for node in nodes:
                got, want = {}, {}
                ok = _ref_match_pattern(lhs, node, want)
                assert match_pattern(lhs, node, got) == ok, (lhs, node)
                assert got == want, (lhs, node)
                if ok:
                    matched += 1
                    rhs = rng.choice(pats)
                    assert _built(sigma.build_pattern, rhs, want) == \
                        _built(_ref_build_pattern, rhs, want), (rhs, want)
    assert matched > 400


def test_engine_view_matches_reference():
    """The rewrite engine sees a term's children as before: slot bodies, and
    a rebuilt App keeps its binders."""
    rng = random.Random(0xB9)
    terms = [gen.random_term(rng, SIG, rng.randint(1, 10)) for _ in range(500)]
    terms += [_lterm(rng) for _ in range(500)]
    for x in terms:
        kids = sigma._children(x)
        assert kids == _ref_children(x), x
        new = tuple(rng.choice(terms) if rng.random() < 0.5 else c for c in kids)
        assert sigma._rebuild(x, new) == _ref_rebuild(x, new), x


# ---------------------------------------------------------------------------
# One normal-form table per confluence-probe sample: each peak keeps its own
# budget and spends a replayed entry's recorded steps from it, so the report
# and the budget errors are those of a fresh table per peak.


def _ref_local_confluence_probe(rs, size_bound, samples, *, seed, budget):
    rng = random.Random(seed)
    report = sigma.ConfluenceReport()
    for _ in range(samples):
        t = gen.random_lterm(rng, rs.sig, gen.random_sort(rng), size_bound)
        report.samples += 1
        steps = all_one_step(rs, t)
        if len(steps) < 2:
            continue
        report.with_multiple_redexes += 1
        report.peaks_checked += len(steps)
        nfs = {normalize(rs, res, budget=budget) for (_, _, res) in steps}
        if len(nfs) > 1:
            report.divergent.append(print_lterm(t))
    return report


def _probe_outcome(probe, rs, size, budget, seed):
    try:
        return dataclasses.asdict(probe(rs, size, 150, seed=seed, budget=budget))
    except StepBudgetExceeded as e:
        return ("StepBudgetExceeded", e.budget)


DIVERGENT_RS = sigma.load_rules(
    "syntax lterm\nkeep: f_?n(?t) -> ?t\ndrop: f_?n(?t) -> c_?n()\n", sig=SIG)


@pytest.mark.parametrize("seed", (0, 1, 7, 0x6EA2))
def test_confluence_probe_matches_fresh_tables_per_peak(seed):
    seen = Counter()
    # at budget 300 every peak fits, but no sample's peaks fit one budget
    # together; at 160 some size-60 peaks need more
    for rs, size, budget in ((RS, 20, sigma.DEFAULT_BUDGET), (RS, 40, sigma.DEFAULT_BUDGET),
                             (RS, 40, 300), (RS, 40, 6), (RS, 60, 160),
                             (DIVERGENT_RS, 30, sigma.DEFAULT_BUDGET)):
        got = _probe_outcome(sigma.local_confluence_probe, rs, size, budget, seed)
        assert got == _probe_outcome(_ref_local_confluence_probe, rs, size, budget, seed)
        seen["raised" if isinstance(got, tuple) else
             "divergent" if got["divergent"] else "ok"] += 1
    assert seen["ok"] >= 3 and seen["raised"] >= 1 and seen["divergent"] == 1


def test_replayed_steps_past_a_peaks_budget_raise_as_fresh():
    rng = random.Random(0xB0D6E7)

    def outcome(run):
        try:
            return run()
        except StepBudgetExceeded as e:
            return ("raised", e.budget)

    def shared(peak, budget, table):
        b = sigma._Budget(budget, table)
        return sigma._nf_innermost(RS, peak, b, False), b.steps

    replays = raised = 0
    for _ in range(150):
        t = gen.random_lterm(rng, SIG, gen.random_sort(rng), 30)
        first, *rest = [res for _, _, res in all_one_step(RS, t)] or [None]
        for peak in rest:
            need = normalize_steps(RS, peak)[1]
            for budget in sorted({0, need // 2, max(need - 1, 0), need}):
                table: dict = {}
                shared(first, sigma.DEFAULT_BUDGET, table)
                replays += any(id(s) in table for s in _subterms(peak))
                got = outcome(lambda: shared(peak, budget, table))
                assert got == outcome(lambda: normalize_steps(RS, peak, budget=budget))
                raised += got[0] == "raised"
    assert replays > 1000 and raised > 800, (replays, raised)


def _subterms(t):
    yield t
    for c in sigma._children(t):
        yield from _subterms(c)


def test_the_probes_build_budgets_as_a_one_argument_subclass_can(monkeypatch):
    # a _Budget subclass that takes the limit alone, as a tracer's may:
    # each probe builds its budgets with it and reports as without it
    want = [sigma.local_confluence_probe(RS, 25, 100, seed=1),
            sigma.termination_probe(RS, 25, 100, seed=2)]
    made = []

    class OneArgBudget(sigma._Budget):
        __slots__ = ()

        def __init__(self, limit):
            super().__init__(limit)
            made.append(self)

    monkeypatch.setattr(sigma, "_Budget", OneArgBudget)
    assert sigma.local_confluence_probe(RS, 25, 100, seed=1) == want[0]
    assert made and want[0].peaks_checked >= 100
    made.clear()
    assert sigma.termination_probe(RS, 25, 100, seed=2) == want[1]
    assert len(made) == 200


def test_the_termination_probe_normalizes_through_normalize_steps(monkeypatch):
    # the public entry point, so a wrapper of it sees the probe's calls; on
    # a copy of the system, so the samples leave its memos empty
    calls = []
    inner = sigma.normalize_steps

    def counted(rs, t, budget, strategy, check_sorts):
        calls.append((rs, strategy))
        return inner(rs, t, budget, strategy, check_sorts)

    monkeypatch.setattr(sigma, "normalize_steps", counted)
    rs = sigma_system(SIG)
    report = sigma.termination_probe(rs, 25, 150, seed=3)
    assert report.ok and report.samples == 150
    assert [strategy for _, strategy in calls] == ["innermost", "outermost"] * 150
    assert all(used is not rs and used.rules is rs.rules for used, _ in calls)
    assert rs._memos == ({}, {})
