"""The sorted layer: sort checking, the substitution-propagation system,
normalization strategies, probe harnesses, rule files, and the grammar."""

import dataclasses
import random
from pathlib import Path

import pytest

from bindlog import gen, precook, sigma, syntax
from bindlog.errors import IndexOutOfRange, ParseError, SortMismatch, StepBudgetExceeded
from bindlog.sigma import (
    Closure,
    Comp,
    Cons,
    FApp,
    FreeVar,
    Id,
    Index,
    Shift,
    SubstSort,
    TermSort,
    all_one_step,
    normalize,
    normalize_steps,
    parse_lterm,
    print_lterm,
    shift_chain,
    sigma_system,
    sort_of,
)
from bindlog.syntax import And, App, Atom, Signature, Slot, Var

from conftest import SIG

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
            assert sigma.free_vars_l(stepped) <= sigma.free_vars_l(t)


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
    out = sigma.substitute_l({"x": FreeVar("w")}, a)
    want = sigma.parse_lprop("forall v. =(v, w) /\\ (forall w1. =(v, w1))")
    assert sigma.alpha_eq_l(out, want)


def test_substitute_l_quantifier_shadowing():
    a = sigma.parse_lprop("forall x. =(x, x)")
    assert sigma.substitute_l({"x": FreeVar("y")}, a) == a


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
