"""Structures, denotations, the built-in counter-models, the adapters to
and from the sorted layer, and model table files."""

import dataclasses
import gc
import itertools
import random
import weakref
from pathlib import Path

import pytest

from bindlog import gen, models, precook, sigma, syntax
from bindlog.errors import InfiniteDomainExhaustionRequested, ParseError, UnboundVariable
from bindlog.models import (
    EXT_AXIOMS,
    Computable,
    binding_model_from_sigma,
    check_coherence,
    check_ifs,
    check_unary_retraction,
    delta_model,
    denotation_transport_check,
    dump_model,
    eval_lterm,
    eval_prop,
    eval_prop_report,
    eval_term,
    ext_counter_model,
    full_function_ifs,
    load_model,
    sigma_model_from_binding,
    validate_sigma_rules,
)
from bindlog.syntax import (
    And,
    App,
    Atom,
    Bottom,
    Exists,
    Forall,
    Imp,
    Or,
    Slot,
    Var,
    parse_prop,
    parse_term,
)

EXT = ext_counter_model()
DELTA = delta_model()


def EP(s):
    return parse_prop(s, EXT.sig)


def ET(s):
    return parse_term(s, EXT.sig)


def DP(s):
    return parse_prop(s, DELTA.sig)


def DT(s):
    return parse_term(s, DELTA.sig)


# ---------------------------------------------------------------------------
# denotations


def test_eval_var_in_context_is_projection():
    assert eval_term(EXT, syntax.Var("x"), ("x",)) == EXT.ifs.proj(1, 1)


def test_eval_leftmost_context_occurrence():
    assert eval_term(EXT, syntax.Var("x"), ("x", "x")) == EXT.ifs.proj(1, 2)


def test_eval_unbound_raises():
    with pytest.raises(UnboundVariable):
        eval_term(EXT, syntax.Var("x"))


def test_ext_model_lambda_values():
    assert models.fmt_element(eval_term(EXT, ET("Λ(x. f(x))"))) == "l0"
    assert models.fmt_element(eval_term(EXT, ET("Λ(x. x)"))) == "k0"


def test_ext_model_pointwise_equation_valid():
    assert eval_prop(EXT, EP("forall x. =(f(x), x)")) == 1


def test_ext_model_binder_equation_invalid():
    assert eval_prop(EXT, EP("=(Λ(x. f(x)), Λ(x. x))")) == 0


def test_ext_model_scheme_instance_invalid():
    scheme = EP("(forall x. =(f(x), x)) => =(Λ(x. f(x)), Λ(x. x))")
    value, exact = eval_prop_report(EXT, scheme)
    assert (value, exact) == (0, True)


def test_ext_model_equality_axioms_valid():
    for text in EXT_AXIOMS:
        assert eval_prop(EXT, EP(text)) == 1, text


def test_closed_prop_ignores_assignment():
    p = EP("=(Λ(x. x), Λ(y. y))")
    assert eval_prop(EXT, p) == eval_prop(EXT, p, {"q": ("k", 0)}) == 1


def test_delta_model_values():
    assert eval_term(DELTA, DT("δ(a(), x. a(), y. a())")) == 0
    assert eval_term(DELTA, DT("a()")) == 1
    value, exact = eval_prop_report(DELTA, DP("=(δ(a(), x. a(), y. a()), a())"))
    assert (value, exact) == (0, True)


def test_delta_base_cases_sampled():
    rng = random.Random(3)
    f = Computable(1, lambda y: 3 * y + 1)
    g = Computable(1, lambda y: 5 * y)
    delta0 = DELTA.fhat["δ"]
    inj_i = DELTA.fhat["i"]
    inj_j = DELTA.fhat["j"]
    assert delta0(0, (0, f, g)) == 0 and delta0(0, (1, f, g)) == 0
    for _ in range(200):
        m = rng.randrange(0, 50)
        assert delta0(0, (inj_i(0, (m,)), f, g)) == f.fn(m)
        assert delta0(0, (inj_j(0, (m,)), f, g)) == g.fn(m)
    # the injections miss the two orphan values
    assert inj_i(0, (0,)) == 2 and inj_j(0, (0,)) == 3


def test_delta_injection_schemes_sampled():
    rng = random.Random(5)
    scheme_i = DP("=(δ(i(x), x. u, y. v), u)")
    scheme_j = DP("=(δ(j(y), x. u, y. v), v)")
    for _ in range(200):
        phi = {n: rng.randrange(0, 100) for n in ("x", "y", "u", "v")}
        assert eval_prop_report(DELTA, scheme_i, phi) == (1, True)
        assert eval_prop_report(DELTA, scheme_j, phi) == (1, True)


def test_delta_quantifier_verdicts_are_labeled():
    value, exact = eval_prop_report(DELTA, DP("forall x. =(x, x)"))
    assert value == 1 and not exact
    with pytest.raises(InfiniteDomainExhaustionRequested):
        eval_prop(DELTA, DP("forall x. =(x, x)"), require_exact=True)
    # a sampled counterexample still refutes exactly
    value, exact = eval_prop_report(DELTA, DP("forall x. =(x, a())"))
    assert (value, exact) == (0, True)


def test_delta_quantifier_domain_includes_closed_subterms():
    # 514 = j(i(i(2^6))) is far outside the default sample range but its
    # subterm denotations are added to the quantifier domain
    big = "j(i(i(i(i(i(i(i(a()))))))))"
    value, _ = eval_prop_report(DELTA, DP(f"exists x. =(x, {big})"))
    assert value == 1


# ---------------------------------------------------------------------------
# structure and coherence sweeps


def test_ext_carrier_sizes():
    for n in range(0, 5):
        assert len(EXT.ifs.carrier(n)) == 2 * n + 2


def test_ext_box_cases():
    # the barred element composes through the involution
    bs = (("p", 1, 2), ("k", 2))  # two level-2 arguments
    assert EXT.ifs.box(("b", 1, 2), bs, 2) == ("b", 1, 2)
    assert EXT.ifs.box(("b", 2, 2), bs, 2) == ("k", 2)
    assert EXT.ifs.box(("p", 1, 2), bs, 2) == ("p", 1, 2)
    assert EXT.ifs.box(("k", 2), bs, 2) == ("k", 2)
    assert EXT.ifs.box(("l", 2), bs, 2) == ("l", 2)


def test_ext_ifs_exhaustive():
    rep = check_ifs(EXT.ifs, 3, 3, 3)
    assert rep.ok and rep.checked > 100000


def test_ext_involution_commutes_with_composition():
    def neg(a):
        return EXT.fhat["f"](a[-1], (a,))

    for n in range(0, 3):
        for p in range(0, 3):
            for a in EXT.ifs.carrier(n):
                for bs in itertools.product(EXT.ifs.carrier(p), repeat=n):
                    assert EXT.ifs.box(neg(a), bs, p) == neg(EXT.ifs.box(a, bs, p))


def test_ifs_axiom_overlap_projection_case():
    # identity law applied to a projection is a projection-law instance
    for n in range(1, 4):
        projs = tuple(EXT.ifs.proj(i, n) for i in range(1, n + 1))
        for i in range(1, n + 1):
            assert EXT.ifs.box(EXT.ifs.proj(i, n), projs, n) == projs[i - 1]


def test_ext_coherence_families():
    assert check_coherence(EXT, "f", 3, 3).ok
    assert check_coherence(EXT, "Λ", 3, 3).ok
    assert check_unary_retraction(EXT, "Λ", 3).ok


def test_constant_family_is_coherent():
    m = models.BindingModel(
        name="const", sig=syntax.Signature({"k": (0,)}, {}), ifs=EXT.ifs,
        fhat={"k": lambda p, args: ("k", p)}, phat={})
    assert check_coherence(m, "k", 3, 3).ok


def _incoherent_model():
    # swapping the two constants under composition breaks coherence
    def bad(p, args):
        a = args[0]
        return ("l", p) if a[0] == "k" else (("k", p) if a[0] == "l" else a)

    return models.BindingModel(
        name="bad", sig=syntax.Signature({"w": (0,)}, {}), ifs=EXT.ifs,
        fhat={"w": bad}, phat={})


def test_incoherent_family_detected():
    rep = check_coherence(_incoherent_model(), "w", 2, 2)
    assert not rep.ok


def test_full_function_sizes():
    ifs = full_function_ifs((0, 1))
    assert len(ifs.carrier(2)) == 16
    assert len(ifs.carrier(0)) == 2


def test_full_function_ifs_exhaustive():
    rep = check_ifs(full_function_ifs((0, 1)), 2, 2, 2)
    assert rep.ok


def test_exhaustive_sweep_needs_enumerable_carriers():
    with pytest.raises(InfiniteDomainExhaustionRequested):
        check_ifs(DELTA.ifs, 1, 1, 1, mode="exhaustive")


def test_delta_ifs_sampled():
    rep = check_ifs(DELTA.ifs, 2, 2, 2, mode="sampled", samples=4, seed=7)
    assert rep.ok
    rep2 = check_coherence(DELTA, "δ", 1, 1, mode="sampled", samples=3, seed=8)
    assert rep2.ok


# ---------------------------------------------------------------------------
# the sweeps against their naive references
#
# The references are the sweeps before elements were interned and upstep
# memoized: every associativity instance looks its inner results up in a
# tuple-keyed dict and calls elem_eq, and upstep is recomputed per argument
# tuple. The real sweeps must count the same instances and report the same
# violations in the same order, drawing the same samples from a seed.


def _naive_check_ifs(ifs, n_max, p_max, q_max, mode="exhaustive", samples=50, seed=0):
    rng = random.Random(seed)
    rep = models.SweepReport()
    boxc: dict = {}

    def box(a, bs, p):
        key = (a, bs, p)
        v = boxc.get(key)
        if v is None:
            v = ifs.box(a, bs, p)
            boxc[key] = v
        return v

    # projections
    for n in range(1, n_max + 1):
        for p in range(0, p_max + 1):
            elems_p = models._level_elements(ifs, p, mode, samples, rng)
            for bs in models._tuples_over(elems_p, n, mode, samples, rng):
                for i in range(1, n + 1):
                    rep.checked += 1
                    if not ifs.elem_eq(box(ifs.proj(i, n), bs, p), bs[i - 1], p):
                        rep.violations.append(
                            f"proj law: {i}_{n} with {models._fmt_tuple(bs)} at level {p}")
    # identity
    for n in range(0, n_max + 1):
        projs = tuple(ifs.proj(i + 1, n) for i in range(n))
        for a in models._level_elements(ifs, n, mode, samples, rng):
            rep.checked += 1
            if not ifs.elem_eq(box(a, projs, n), a, n):
                rep.violations.append(f"identity law: {models.fmt_element(a)} at level {n}")
    # associativity
    for n in range(0, n_max + 1):
        for p in range(0, p_max + 1):
            for q in range(0, q_max + 1):
                elems_n = models._level_elements(ifs, n, mode, samples, rng)
                elems_p = models._level_elements(ifs, p, mode, samples, rng)
                elems_q = models._level_elements(ifs, q, mode, samples, rng)
                cs_list = list(models._tuples_over(elems_q, p, mode, samples, rng))
                # inner composition precomputed per (b, cs)
                inner: dict = {}
                for b in elems_p:
                    for cs in cs_list:
                        inner[(b, cs)] = box(b, cs, q)
                for a in elems_n:
                    for bs in models._tuples_over(elems_p, n, mode, samples, rng):
                        ab = box(a, bs, p)
                        for cs in cs_list:
                            rep.checked += 1
                            lhs = box(ab, cs, q)
                            rhs = box(a, tuple(inner[(b, cs)] for b in bs), q)
                            if not ifs.elem_eq(lhs, rhs, q):
                                rep.violations.append(
                                    f"associativity: {models.fmt_element(a)} "
                                    f"{models._fmt_tuple(bs)} {models._fmt_tuple(cs)} "
                                    f"(n={n},p={p},q={q})")
    return rep


def _naive_check_coherence(m, f, p_max, q_max, mode="exhaustive", samples=30, seed=0):
    rng = random.Random(seed)
    rep = models.SweepReport()
    ifs = m.ifs
    arity = m.sig.functions[f]
    fh = m.fhat[f]
    for p in range(0, p_max + 1):
        for q in range(0, q_max + 1):
            arg_levels = [p + k for k in arity]
            arg_spaces = [models._level_elements(ifs, lv, mode, samples, rng)
                          for lv in arg_levels]
            elems_q = models._level_elements(ifs, q, mode, samples, rng)
            for args in (itertools.product(*arg_spaces) if mode == "exhaustive"
                         else (tuple(rng.choice(sp) for sp in arg_spaces)
                               for _ in range(samples))):
                for bs in models._tuples_over(elems_q, p, mode, samples, rng):
                    rep.checked += 1
                    lhs = ifs.box(fh(p, args), bs, q)
                    lifted = tuple(
                        ifs.box(a, models.upstep(ifs, bs, q, k), q + k)
                        for a, k in zip(args, arity)
                    )
                    rhs = fh(q, lifted)
                    if not ifs.elem_eq(lhs, rhs, q):
                        rep.violations.append(
                            f"coherence of {f}: p={p} q={q} args={models._fmt_tuple(args)} "
                            f"bs={models._fmt_tuple(bs)}")
    if arity == (1,):
        for p in range(1, p_max + 1):
            for a in models._level_elements(ifs, p + 1, mode, samples, rng):
                rep.checked += 1
                i_args = (ifs.proj(1, p + 2),) + tuple(ifs.proj(j, p + 2) for j in range(3, p + 3))
                lifted = ifs.box(a, i_args, p + 2)
                d_args = (ifs.proj(1, p),) + tuple(ifs.proj(j, p) for j in range(1, p + 1))
                rhs = ifs.box(fh(p + 1, (lifted,)), d_args, p)
                if not ifs.elem_eq(fh(p, (a,)), rhs, p):
                    rep.violations.append(
                        f"level-shift identity of {f}: p={p} a={models.fmt_element(a)}")
    return rep


def _assert_same_sweep(got, want):
    assert got.checked == want.checked
    assert got.violations == want.violations


def _broken_ext_ifs():
    """ext whose barred twin of projection 2 composes to k at level 1."""
    def box(a, bs, p):
        if a[0] == "b" and a[1] == 2 and p == 1:
            return ("k", p)
        return EXT.ifs.box(a, bs, p)
    return dataclasses.replace(EXT.ifs, box=box)


def _tagged_ext_ifs(elem_eq=None):
    """ext whose compositions with an odd number of arguments come back
    wrapped in a tag: outside the carrier, equal to carrier elements only
    under an elem_eq that drops the tag."""
    def untag(e):
        return e[1] if e[0] == "tag" else e

    def box(a, bs, p):
        r = EXT.ifs.box(untag(a), tuple(map(untag, bs)), p)
        return ("tag", r) if len(bs) % 2 else r
    return dataclasses.replace(
        EXT.ifs, box=box, elem_eq=elem_eq or (lambda a, b, n: untag(a) == untag(b)))


@pytest.mark.parametrize("bounds", [(2, 2, 2), (3, 3, 2)])
def test_check_ifs_matches_naive_on_ext(bounds):
    _assert_same_sweep(check_ifs(EXT.ifs, *bounds), _naive_check_ifs(EXT.ifs, *bounds))


def test_check_ifs_matches_naive_on_full_functions():
    ifs = full_function_ifs((0, 1))
    _assert_same_sweep(check_ifs(ifs, 2, 2, 1), _naive_check_ifs(ifs, 2, 2, 1))


def test_check_ifs_matches_naive_on_violations():
    ifs = _broken_ext_ifs()
    rep = check_ifs(ifs, 2, 2, 2)
    assert len(rep.violations) > 100
    _assert_same_sweep(rep, _naive_check_ifs(ifs, 2, 2, 2))


def test_check_ifs_matches_naive_on_table_model():
    ifs = load_model(dump_model(EXT, 2), EXT.sig).ifs
    _assert_same_sweep(check_ifs(ifs, 2, 2, 2), _naive_check_ifs(ifs, 2, 2, 2))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_check_ifs_matches_naive_on_delta_samples(seed):
    got = check_ifs(DELTA.ifs, 2, 2, 2, mode="sampled", samples=3, seed=seed)
    _assert_same_sweep(got, _naive_check_ifs(DELTA.ifs, 2, 2, 2, mode="sampled",
                                             samples=3, seed=seed))


@pytest.mark.parametrize("seed", [1, 2, 4])
def test_check_ifs_matches_naive_on_sampled_violations(seed):
    # violations show the order in which each a's argument tuples are drawn
    # (seed 3 draws none of the broken instances)
    ifs = _broken_ext_ifs()
    got = check_ifs(ifs, 2, 2, 2, mode="sampled", samples=5, seed=seed)
    assert got.violations
    _assert_same_sweep(got, _naive_check_ifs(ifs, 2, 2, 2, mode="sampled", samples=5, seed=seed))


def test_check_ifs_consults_elem_eq_where_results_differ():
    ifs = _tagged_ext_ifs()
    rep = check_ifs(ifs, 2, 2, 2)
    assert rep.ok
    _assert_same_sweep(rep, _naive_check_ifs(ifs, 2, 2, 2))
    # under == the tagged results are violations: elem_eq decided every one
    strict = _tagged_ext_ifs(elem_eq=lambda a, b, n: a == b)
    rep = check_ifs(strict, 2, 2, 2)
    assert any(v.startswith("associativity") for v in rep.violations)
    _assert_same_sweep(rep, _naive_check_ifs(strict, 2, 2, 2))


def test_check_ifs_matches_naive_past_a_byte_of_columns():
    # at n = 3, q = 3 the columns are triples over level 3's 8 elements:
    # 512 column numbers, more than a byte holds, so those blocks compare
    # as lists, and the broken instances sit in them too
    assert len(EXT.ifs.carrier(3)) ** 3 > 256
    ifs = _broken_ext_ifs()
    rep = check_ifs(ifs, 3, 1, 3)
    assert any(v.endswith("(n=3,p=1,q=3)") for v in rep.violations)
    _assert_same_sweep(rep, _naive_check_ifs(ifs, 3, 1, 3))


def test_check_coherence_matches_naive():
    for f in ("f", "Λ"):
        _assert_same_sweep(check_coherence(EXT, f, 3, 3), _naive_check_coherence(EXT, f, 3, 3))
    bad = _incoherent_model()
    _assert_same_sweep(check_coherence(bad, "w", 2, 2), _naive_check_coherence(bad, "w", 2, 2))
    for seed in (1, 2, 3):
        _assert_same_sweep(
            check_coherence(DELTA, "δ", 1, 1, mode="sampled", samples=3, seed=seed),
            _naive_check_coherence(DELTA, "δ", 1, 1, mode="sampled", samples=3, seed=seed))


def _extensional_model(universe=(0, 1)):
    """A binding model over full function spaces: the pointwise-lifted unary
    map and a binder that applies its argument to a fixed point."""
    ifs = full_function_ifs(universe)
    A = tuple(universe)
    base = len(A)

    def rank(args):
        r = 0
        for v in args:
            r = r * base + A.index(v)
        return r

    def f_hat(p, args):
        (a,) = args
        return ("fn", p, tuple(1 - v for v in a[2]))

    def lam_hat(p, args):
        (a,) = args
        table = tuple(a[2][rank((A[0],) + xs)] for xs in itertools.product(A, repeat=p))
        return ("fn", p, table)

    sig = syntax.Signature({"f": (0,), "Λ": (1,)}, {"=": (0, 0)})
    return models.BindingModel(name="fullfn", sig=sig, ifs=ifs,
                               fhat={"f": f_hat, "Λ": lam_hat},
                               phat={"=": lambda args: int(args[0] == args[1])})


def test_extensionality_holds_in_function_space_models():
    m = _extensional_model()
    assert check_coherence(m, "f", 2, 2).ok
    assert check_coherence(m, "Λ", 2, 2).ok
    rng = random.Random(11)
    for _ in range(100):
        t = gen.random_term(rng, m.sig, rng.randint(1, 6), free=("x", "y"))
        u = gen.random_term(rng, m.sig, rng.randint(1, 6), free=("x", "y"))
        scheme = syntax.Imp(
            syntax.Forall("x", syntax.Atom("=", (syntax.Slot((), t), syntax.Slot((), u)))),
            syntax.Atom("=", (
                syntax.Slot((), syntax.App("Λ", (syntax.Slot(("x",), t),))),
                syntax.Slot((), syntax.App("Λ", (syntax.Slot(("x",), u),))))))
        phi = {v: rng.choice(m.ifs.carrier(0))
               for v in syntax.free_vars(scheme)}
        assert eval_prop(m, scheme, phi) == 1
        # oracle: pointwise comparison of the two context denotations
        va = eval_term(m, t, ("x",), phi)
        vb = eval_term(m, u, ("x",), phi)
        pointwise_equal = va == vb
        antecedent = eval_prop(m, syntax.Forall("x", syntax.Atom(
            "=", (syntax.Slot((), t), syntax.Slot((), u)))), phi)
        assert antecedent == int(pointwise_equal)


# ---------------------------------------------------------------------------
# adapters


def test_sigma_model_identity_is_projection_tuple():
    nm = sigma_model_from_binding(EXT)
    assert nm.id_(2) == (EXT.ifs.proj(1, 2), EXT.ifs.proj(2, 2))
    assert nm.shift(1) == (EXT.ifs.proj(2, 2),)


def test_sigma_model_closure_identity_is_second_law():
    # the t[id] rule holds because composing with the projection tuple is
    # the structure's identity law
    nm = sigma_model_from_binding(EXT)
    for n in range(0, 3):
        for a in EXT.ifs.carrier(n):
            assert nm.elem_eq(nm.closure(a, nm.id_(n), n), a, n)


def test_sigma_rules_valid_in_ext_model():
    nm = sigma_model_from_binding(EXT)
    rep = validate_sigma_rules(nm, instances_per_rule=25, seed=13)
    assert rep.ok and rep.checked == 25 * 12


def test_denotation_transport():
    nm = sigma_model_from_binding(EXT)
    rep = denotation_transport_check(EXT, nm, samples=300, seed=17)
    assert rep.ok


def test_sigma_rules_valid_in_delta_model():
    # probe-based equality over the computable carriers
    nm = sigma_model_from_binding(DELTA)
    rep = validate_sigma_rules(nm, instances_per_rule=5, seed=23, size=4)
    assert rep.ok
    rep2 = denotation_transport_check(DELTA, nm, samples=60, seed=29, size=6)
    assert rep2.ok


def test_quantifier_witness():
    w = models.quantifier_witness(EXT, EP("forall x. forall y. =(x, y)"))
    assert w is not None and set(w) == {"x", "y"} and w["x"] != w["y"]
    assert models.quantifier_witness(EXT, EP("forall x. =(x, x)")) is None
    w2 = models.quantifier_witness(EXT, EP("exists x. =(x, Λ(z. z))"))
    assert w2 == {"x": ("k", 0)}


def test_transport_both_adapter_directions():
    nm = sigma_model_from_binding(EXT)
    m2 = binding_model_from_sigma(nm, "roundtrip")
    rep = denotation_transport_check(m2, nm, samples=200, seed=19)
    assert rep.ok


def test_roundtrip_preserves_independence_verdicts():
    nm = sigma_model_from_binding(EXT)
    m2 = binding_model_from_sigma(nm, "roundtrip")
    for text in EXT_AXIOMS:
        assert eval_prop(m2, EP(text)) == 1
    assert eval_prop(m2, EP("(forall x. =(f(x), x)) => =(Λ(x. f(x)), Λ(x. x))")) == 0
    assert models.fmt_element(eval_term(m2, ET("Λ(x. f(x))"))) == "l0"
    assert models.fmt_element(eval_term(m2, ET("Λ(x. x)"))) == "k0"


def test_roundtrip_variable_clause():
    nm = sigma_model_from_binding(EXT)
    m2 = binding_model_from_sigma(nm, "roundtrip")
    for a in EXT.ifs.carrier(0):
        for p in range(0, 3):
            assert m2.ifs.box(a, (), p) == EXT.ifs.box(a, (), p)


def test_roundtrip_ifs_laws_on_samples():
    nm = sigma_model_from_binding(EXT)
    m2 = binding_model_from_sigma(nm, "roundtrip")
    assert check_ifs(m2.ifs, 2, 2, 2).ok


def test_eval_lterm_matches_paper_example():
    sig = syntax.Signature({"f": (0, 0), "Λ": (1,)}, {"=": (0, 0)})
    m = models.BindingModel(
        name="ext2", sig=sig, ifs=EXT.ifs,
        fhat={"f": lambda p, args: args[0], "Λ": EXT.fhat["Λ"]},
        phat={"=": lambda args: int(args[0] == args[1])})
    nm = sigma_model_from_binding(m)
    t = parse_term("Λ(z. f(x, z))", sig)
    phi = {"x": ("k", 0)}
    assert m.ifs.elem_eq(
        eval_term(m, t, (), phi),
        eval_lterm(nm, precook.precook(sig, t), phi), 0)


# ---------------------------------------------------------------------------
# table files


def test_model_dump_load_roundtrip():
    text = dump_model(EXT, 2)
    m2 = load_model(text, EXT.sig, name="ext-table")
    for prop_text in EXT_AXIOMS[:3]:
        assert eval_prop(m2, EP(prop_text)) == 1
    assert eval_prop(m2, EP("=(Λ(x. f(x)), Λ(x. x))")) == 0
    # loaded elements are their printed tags
    assert eval_term(m2, ET("Λ(x. x)")) == "k0"
    assert eval_term(m2, ET("Λ(x. f(x))")) == "l0"


@pytest.mark.parametrize("bad", ["modelling nonsense here", "levelsxx = 3", "levels x",
                                 "levels -1", "model"])
def test_model_table_rejects_malformed_header_lines(bad):
    text = dump_model(EXT, 1)
    assert load_model(text, EXT.sig).ifs.carrier(1)
    with pytest.raises(ParseError) as e:
        load_model(f"{bad}\n{text}", EXT.sig)
    assert e.value.line == 1


def test_model_table_reports_missing_entries():
    text = dump_model(EXT, 1)
    m2 = load_model(text, EXT.sig)
    with pytest.raises(models.BindLogError):
        # needs level-2 boxes that a level-1 dump does not contain
        eval_term(m2, ET("Λ(x. Λ(y. x))"))


# ---------------------------------------------------------------------------
# The compiled evaluator against the recursive interpreters it replaced,
# kept here verbatim as the reference.


def _ref_eval_term(m, t, ctx=(), phi=None):
    phi = phi or {}
    if isinstance(t, Var):
        if t.name in ctx:
            return m.ifs.proj(ctx.index(t.name) + 1, len(ctx))
        if t.name not in phi:
            raise UnboundVariable(t.name)
        return m.ifs.box(phi[t.name], (), len(ctx))
    if isinstance(t, App):
        args = tuple(
            _ref_eval_term(m, s.body, tuple(reversed(s.binders)) + tuple(ctx), phi)
            for s in t.args
        )
        return m.fhat[t.symbol](len(ctx), args)
    raise TypeError(f"not a named term: {t!r}")


def _ref_closed_term_values(m, a):
    vals = []

    def visit_term(t):
        if not syntax.free_vars(t):
            v = _ref_eval_term(m, t, (), {})
            if v not in vals:
                vals.append(v)
        for c in syntax.NODE_TYPES[type(t)].children(t):
            visit_term(c)

    for atom in syntax.atoms(a):
        for s in atom.args:
            visit_term(s.body)
    return vals


def _ref_quantifier_domain(m, prop):
    dom = m.ifs.carrier(0)
    if dom is not None:
        return tuple(dom), True
    extra = [v for v in _ref_closed_term_values(m, prop) if v not in m.ifs.m0_samples]
    return tuple(m.ifs.m0_samples) + tuple(extra), False


def _ref_eval_prop_report(m, a, phi=None):
    phi = dict(phi or {})
    domain, exhaustive = _ref_quantifier_domain(m, a)

    def go(a, phi):
        if isinstance(a, Atom):
            vals = tuple(
                _ref_eval_term(m, s.body, tuple(reversed(s.binders)), phi) for s in a.args
            )
            return m.phat[a.pred](vals), True
        if isinstance(a, Bottom):
            return 0, True
        if isinstance(a, Imp):
            va, ea = go(a.a, phi)
            vb, eb = go(a.b, phi)
            if va == 1 and vb == 0:
                return 0, ea and eb
            return 1, (va == 0 and ea) or (vb == 1 and eb)
        if isinstance(a, And):
            va, ea = go(a.a, phi)
            vb, eb = go(a.b, phi)
            if va == 1 and vb == 1:
                return 1, ea and eb
            return 0, (va == 0 and ea) or (vb == 0 and eb)
        if isinstance(a, Or):
            va, ea = go(a.a, phi)
            vb, eb = go(a.b, phi)
            if va == 0 and vb == 0:
                return 0, ea and eb
            return 1, (va == 1 and ea) or (vb == 1 and eb)
        if isinstance(a, (Forall, Exists)):
            want_all = isinstance(a, Forall)
            all_exact = True
            for elem in domain:
                v, e = go(a.body, {**phi, a.var: elem})
                all_exact = all_exact and e
                if want_all and v == 0:
                    return 0, e
                if not want_all and v == 1:
                    return 1, e
            return (1 if want_all else 0), exhaustive and all_exact
        raise TypeError(f"not a proposition: {a!r}")

    return go(a, phi)


def _ref_quantifier_witness(m, a, phi=None):
    phi = dict(phi or {})
    domain, _ = _ref_quantifier_domain(m, a)
    witness = {}
    node = a
    while isinstance(node, (Forall, Exists)):
        want = 0 if isinstance(node, Forall) else 1
        found = None
        for elem in domain:
            v, _ = _ref_eval_prop_report(m, node.body, {**phi, node.var: elem})
            if v == want:
                found = elem
                break
        if found is None:
            return witness or None
        witness[node.var] = found
        phi[node.var] = found
        node = node.body
    return witness or None


def _outcome(fn, *args):
    """The result of fn(*args), or the type and arguments of what it raised."""
    try:
        return "value", fn(*args)
    except Exception as e:  # noqa: BLE001 - the exception is what is compared
        return "raised", type(e), e.args


def _small_delta(domain_size: int, probe_budget: int = 6, **fhat):
    """The delta model with a short sampled quantifier domain (and a short
    probe list), so nested quantifiers stay cheap; fhat entries override."""
    m = delta_model(probe_budget=probe_budget)
    ifs = dataclasses.replace(m.ifs, m0_samples=tuple(range(domain_size)))
    return dataclasses.replace(m, ifs=ifs, fhat={**m.fhat, **fhat})


# free variables: quantified names (x, y, z, w1), names phi may give (u, v)
# and one no assignment or quantifier ever binds (t)
_EQ_FREE = ("x", "y", "z", "w1", "u", "v", "t")
_EQ_MODELS = {
    "ext": (EXT, lambda rng: rng.choice(EXT.ifs.carrier(0))),
    "delta": (_small_delta(7), lambda rng: rng.randrange(0, 12)),
    "table": (load_model(dump_model(EXT, 2), EXT.sig),
              lambda rng: rng.choice(("k0", "l0"))),
}


def _binders(t) -> set:
    return set().union(*(set(s.binders) | _binders(s.body) for s in t.args)) \
        if isinstance(t, App) else set()


def _shadowing(a, names=frozenset()) -> bool:
    """Whether a quantifier of a rebinds a quantified name, or a slot binder
    shadows one."""
    if isinstance(a, (Forall, Exists)):
        return a.var in names or _shadowing(a.body, names | {a.var})
    if isinstance(a, Atom):
        return any(names & (set(s.binders) | _binders(s.body)) for s in a.args)
    return isinstance(a, (Imp, And, Or)) and (_shadowing(a.a, names) or _shadowing(a.b, names))


@pytest.mark.parametrize("model", sorted(_EQ_MODELS))
def test_compiled_evaluation_matches_reference(model):
    m, draw = _EQ_MODELS[model]
    rng = random.Random(f"compiled-eval:{model}")
    seen = {"raised": 0, "inexact": 0, "witness": 0, "shadowing": 0, "phi": 0}
    for i in range(1500):
        free = _EQ_FREE if i % 10 == 0 else _EQ_FREE[:-1]
        a = gen.random_prop(rng, m.sig, rng.randint(1, 9), free=free)
        if i % 5 == 0:
            v = rng.choice(_EQ_FREE[:4])
            a = rng.choice((Forall, Exists))(v, rng.choice((Forall, Exists))(v, a))
        phi = {x: draw(rng) for x in _EQ_FREE[:6] if rng.random() < 0.8}
        got = _outcome(eval_prop_report, m, a, phi)
        assert got == _outcome(_ref_eval_prop_report, m, a, phi), (syntax.print_prop(a), phi)
        w = _outcome(models.quantifier_witness, m, a, phi)
        assert w == _outcome(_ref_quantifier_witness, m, a, phi), (syntax.print_prop(a), phi)
        seen["raised"] += got[0] == "raised"
        seen["inexact"] += got[0] == "value" and not got[1][1]
        seen["witness"] += w[0] == "value" and w[1] is not None
        seen["shadowing"] += _shadowing(a)
        seen["phi"] += got[0] == "value" and bool(phi.keys() & syntax.free_vars(a))
    assert seen["raised"] and seen["witness"] and seen["shadowing"] and seen["phi"], seen
    assert bool(seen["inexact"]) == (model == "delta"), seen


@pytest.mark.parametrize("model", sorted(_EQ_MODELS))
def test_compiled_terms_match_reference(model):
    m, draw = _EQ_MODELS[model]
    rng = random.Random(f"compiled-term:{model}")
    for _ in range(1000):
        ctx = tuple(rng.sample(("x", "y", "z"), rng.randint(0, 2)))
        t = gen.random_term(rng, m.sig, rng.randint(1, 10), free=_EQ_FREE, scope=ctx)
        phi = {x: draw(rng) for x in rng.sample(_EQ_FREE[:6], rng.randint(0, 6))}
        got = _outcome(eval_term, m, t, ctx, phi)
        want = _outcome(_ref_eval_term, m, t, ctx, phi)
        if got[0] == want[0] == "value":
            assert m.ifs.elem_eq(got[1], want[1], len(ctx)), syntax.print_term(t)
        else:
            assert got == want, (syntax.print_term(t), ctx, phi)


def test_compiled_evaluation_raises_where_the_reference_does():
    bad = Atom("=", (Slot((), Var("t")), Slot((), Var("t"))))
    for m in (EXT, _EQ_MODELS["delta"][0]):
        for a in (Imp(bad, 42), Imp(Bottom(), 42), And(42, bad),
                  Forall("x", Or(EP("=(x, x)"), "junk")),
                  Atom("=", (Slot((), Var("t")), Slot((), App("g", ())))),
                  Atom("=", (Slot((), App("g", ())), Slot((), Var("t"))))):
            got = _outcome(eval_prop_report, m, a)
            assert got[0] == "raised" and got == _outcome(_ref_eval_prop_report, m, a)
        assert _outcome(eval_term, m, 7) == _outcome(_ref_eval_term, m, 7)


# delta propositions of this file with closed subterms; their values fix
# the order of the quantifier domain past the samples
_DELTA_CLOSED = (
    "=(δ(a(), x. a(), y. a()), a())",
    "forall x. =(x, a())",
    "exists x. =(x, j(i(i(i(i(i(i(i(a())))))))))",
    "exists q. =(a(), i(δ(i(a()), x. δ(i(q), y. i(a()), z. j(j(a()))), w. j(w))))",
    "forall q. =(δ(j(i(a())), x. i(a()), y. j(j(a()))), δ(a(), x. q, y. i(i(a()))))",
)


def test_closed_term_values_match_the_recursive_walk():
    rng = random.Random("closed-term-values")
    props = [DP(text) for text in _DELTA_CLOSED]
    props += [gen.random_prop(rng, DELTA.sig, rng.randint(1, 9), free=_EQ_FREE) for _ in range(300)]
    several = 0
    for a in props:
        got = models._closed_term_values(DELTA, a)
        assert got == _ref_closed_term_values(DELTA, a), syntax.print_prop(a)
        several += len(got) > 1
    assert several > 5, several


def test_delta_evaluation_leaves_no_reference_cycle():
    enabled = gc.isenabled()
    gc.disable()
    try:
        for text in _DELTA_CLOSED:
            a = DP(text)
            gc.collect()
            eval_prop_report(DELTA, a)
            assert gc.collect() == 0, text
    finally:
        if enabled:
            gc.enable()


def test_closed_subterms_are_evaluated_once():
    calls = []

    def counted_j(p, args):
        calls.append(p)
        return DELTA.fhat["j"](p, args)

    # no sampled q satisfies the body, so the sweep visits every element
    prop = "exists q. =(δ(i(q), x. j(x), y. i(y)), i(q))"
    counts = []
    for size in (5, 50):
        m = _small_delta(size, j=counted_j)
        calls.clear()
        assert eval_prop_report(m, parse_prop(prop, m.sig)) == (0, False)
        counts.append(len(calls))
        calls.clear()
        assert _ref_eval_prop_report(m, parse_prop(prop, m.sig)) == (0, False)
        assert len(calls) == size  # the interpreter evaluates the slot per element
    assert counts == [1, 1]


def test_invariant_subterms_are_evaluated_once_per_binding():
    calls = []

    def counted(sym):
        def fh(p, args):
            calls.append((sym, p))
            return DELTA.fhat[sym](p, args)
        return fh

    # valid, so both sweeps visit every (q, r) pair; i(q) and j(q) read only
    # q and are evaluated at level 0, i(r) and j(x) under a slot binder
    prop = "forall q. forall r. =(δ(i(q), x. j(x), y. i(r)), j(q))"
    for size in (5, 20):
        m = _small_delta(size, i=counted("i"), j=counted("j"))
        calls.clear()
        assert eval_prop_report(m, parse_prop(prop, m.sig)) == (1, False)
        assert calls.count(("i", 0)) == calls.count(("j", 0)) == size
        assert calls.count(("i", 1)) == size and calls.count(("j", 1)) == 1
        calls.clear()
        assert _ref_eval_prop_report(m, parse_prop(prop, m.sig)) == (1, False)
        assert calls.count(("i", 0)) == calls.count(("j", 0)) == size * size
    # under three quantifiers the slot x. δ(...), which reads q and s but not
    # r, runs once per (q, s): no q, r, s satisfy the body (a() is 1, i(...)
    # is at least 2), so both sweeps visit every triple
    prop = "exists q. exists r. exists s. =(a(), i(δ(i(r), x. δ(i(q), y. i(s), z. j(s)), w. j(w))))"
    for size in (3, 6):
        m = _small_delta(size, δ=counted("δ"))
        calls.clear()
        assert eval_prop_report(m, parse_prop(prop, m.sig)) == (0, False)
        assert calls.count(("δ", 0)) == size ** 3 and calls.count(("δ", 1)) == size ** 2
        calls.clear()
        assert _ref_eval_prop_report(m, parse_prop(prop, m.sig)) == (0, False)
        assert calls.count(("δ", 1)) == size ** 3


class _CountingEnv(dict):
    """An env that counts the reads of each slot."""

    def __init__(self):
        super().__init__()
        self.reads: dict = {}

    def __getitem__(self, key):
        self.reads[key] = self.reads.get(key, 0) + 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads[key] = self.reads.get(key, 0) + 1
        return super().get(key, default)


def test_hoisted_subterms_read_no_slot_per_inner_element():
    # i(q) and j(q) read q only; they are evaluated once per element for q,
    # and nothing reads q's slot for each element for r in between
    for size in (5, 20):
        m = _small_delta(size)
        a = parse_prop("forall q. forall r. =(δ(i(q), x. j(x), y. i(r)), j(q))", m.sig)
        env = _CountingEnv()
        assert models._compiled(m, a, (), True, *models._quantifier_domain(m, a))(env) \
            == (1, False)
        assert env.reads[id(a)] == 2 * size
        assert env.reads.keys() == {id(a), id(a.body)}


def _raising_delta(size: int):
    """The small delta model whose i raises on 3 at level 0, so some
    subterms raise for one binding of the quantifiers they read only."""
    def i(p, args):
        if p == 0 and args[0] == 3:
            raise ValueError("i(3)")
        return DELTA.fhat["i"](p, args)
    return _small_delta(size, i=i)


def test_tabled_subterms_raise_each_time_they_are_reached():
    # i(r) is tabled per element for r; i(3) raises, and a failed run is not
    # stored: it raises again when reached again (here, by a second run of
    # the same compiled proposition, whose tables hold i(0) to i(2))
    calls = []
    m = _raising_delta(6)
    i = m.fhat["i"]

    def counted_i(p, args):
        calls.append((p, args[0]))
        return i(p, args)
    m = dataclasses.replace(m, fhat={**m.fhat, "i": counted_i})
    a = parse_prop("forall q. forall r. =(δ(j(q), x. i(x), y. i(r)), i(r))", m.sig)
    want = _outcome(_ref_eval_prop_report, m, a)
    assert want == ("raised", ValueError, ("i(3)",))
    assert _outcome(eval_prop_report, m, a) == want
    run = models._compiled(m, a, (), True, *models._quantifier_domain(m, a))
    for k in (1, 2):
        calls.clear()
        assert _outcome(run, {}) == want
        assert [c for c in calls if c[0] == 0] == ([(0, 0), (0, 1), (0, 2)] if k == 1 else []) \
            + [(0, 3)]


# two or three nested quantifiers over short domains
_NESTED_MODELS = {
    "ext": _EQ_MODELS["ext"],
    "delta": (_small_delta(4), lambda rng: rng.randrange(0, 6)),
    "raising": (_raising_delta(4), lambda rng: rng.randrange(0, 6)),
}


@pytest.mark.parametrize("model", sorted(_NESTED_MODELS))
def test_nested_quantifiers_match_reference(model):
    m, draw = _NESTED_MODELS[model]
    rng = random.Random(f"nested-quantifiers:{model}")
    seen = {"raised": 0, "witness": 0, "shadowing": 0, "phi": 0, "three": 0, "i(3)": 0}
    for i in range(400):
        a = gen.random_prop(rng, m.sig, rng.randint(1, 7), free=_EQ_FREE[:-1] if i % 7 else _EQ_FREE)
        names = [rng.choice(_EQ_FREE[:4]) for _ in range(rng.choice((2, 3)))]
        for v in reversed(names):
            a = rng.choice((Forall, Exists))(v, a)
        phi = {x: draw(rng) for x in _EQ_FREE[:6] if rng.random() < 0.7}
        where = (syntax.print_prop(a), phi)
        witness: dict = {}
        got = _outcome(eval_prop_report, m, a, phi, witness)
        assert got == _outcome(_ref_eval_prop_report, m, a, phi), where
        w = _outcome(models.quantifier_witness, m, a, phi)
        assert w == _outcome(_ref_quantifier_witness, m, a, phi), where
        if got[0] == "value":
            assert w == ("value", witness or None), where
        seen["raised"] += got[0] == "raised"
        seen["witness"] += w[0] == "value" and w[1] is not None
        seen["shadowing"] += _shadowing(a)
        seen["phi"] += got[0] == "value" and bool(phi.keys() & syntax.free_vars(a))
        seen["three"] += len(set(names)) == 3
        seen["i(3)"] += got[:2] == ("raised", ValueError)
    assert all(v for k, v in seen.items() if k != "i(3)"), seen
    assert bool(seen["i(3)"]) == (model == "raising"), seen


def _chain(leaf: str, depth: int):
    """f and Λ(z. ...) alternating around a variable, f innermost; the
    spine of symbols, innermost first."""
    t, spine = Var(leaf), []
    for k in range(depth):
        sym = "Λ" if k % 2 else "f"
        t = App(sym, (Slot(("z",) if sym == "Λ" else (), t),))
        spine.append(sym)
    return t, spine


def test_deep_chains_evaluate():
    # the value by a loop up the spine, each node at the level of the
    # binders above it; the free x, or z bound by the innermost Λ
    phi = {"x": ("l", 0)}
    for leaf in ("x", "z"):
        t, spine = _chain(leaf, 10_000)
        level = spine.count("Λ")
        want = EXT.ifs.proj(1, level) if leaf == "z" else EXT.ifs.box(phi["x"], (), level)
        for sym in spine:
            level -= sym == "Λ"
            want = EXT.fhat[sym](level, (want,))
        assert eval_term(EXT, t, (), phi) == want
        for w in EXT.ifs.carrier(0):
            a = Atom("=", (Slot((), t), Slot((), Var("w"))))
            assert eval_prop_report(EXT, a, {**phi, "w": w}) == (int(w == want), True)


def test_quantifier_nests_past_the_block_limit():
    # 60 nested quantifiers, each decided by its first element
    a = EP("=(v0, v59)")
    for k in reversed(range(60)):
        a = Exists(f"v{k}", a)
    want = _outcome(_ref_eval_prop_report, EXT, a)
    assert want == ("value", (1, True))
    assert _outcome(eval_prop_report, EXT, a) == want
    assert models.quantifier_witness(EXT, a) == _ref_quantifier_witness(EXT, a) \
        == {f"v{k}": ("k", 0) for k in range(60)}


def test_deep_conjunction_under_a_quantifier():
    # forall x. A /\ (A /\ ... /\ B), 10,000 deep, built directly since the
    # parser recurses: its atoms, its translation and its value under both
    # models, which are those of forall x. A /\ B
    for m, w in ((EXT, EXT.ifs.carrier(0)[0]), (DELTA, 1)):
        a, b = parse_prop("=(x, x)", m.sig), parse_prop("=(x, w)", m.sig)
        p = b
        for _ in range(10_000):
            p = And(a, p)
        p = Forall("x", p)
        assert syntax.atoms(p) == [a] * 10_000 + [b]
        assert precook.uncook_prop(m.sig, precook.precook_prop(m.sig, p)) is p
        assert eval_prop_report(m, p, {"w": w}) == eval_prop_report(m, Forall("x", And(a, b)),
                                                                  {"w": w})


def test_identical_sibling_quantifiers_share_a_slot():
    # equal subformulas are one node, so identical sibling quantifiers key
    # one env slot; each gives what its alpha-variant with a z does
    cases = ["forall y. (forall x. =(x, y)) /\\ (forall {z}. =({z}, y))",
             "(exists x. =(x, {c})) /\\ (exists {z}. =({z}, {c}))",
             "forall y. (exists x. =(x, y)) => (exists {z}. =({z}, y))"]
    for m, c in ((EXT, "Λ(v. v)"), (DELTA, "a()")):
        for case in cases:
            shared, variant = (parse_prop(case.format(z=z, c=c), m.sig) for z in ("x", "z"))
            sides = shared.body if isinstance(shared, Forall) else shared
            assert sides.a is sides.b and variant != shared
            witness, want = {}, {}
            got = eval_prop_report(m, shared, None, witness)
            assert got == eval_prop_report(m, variant, None, want), (case, m.name)
            assert witness == want
            assert models.quantifier_witness(m, shared) == models.quantifier_witness(m, variant)


def test_one_shape_compiles_once():
    # one shape: symbols, predicates, names and models differ
    ext_twin = load_model(dump_model(EXT, 1), EXT.sig)
    cases = [(EXT, "forall x. exists y. =(f(x), f(y)) => =(y, w)"),
             (ext_twin, "forall u. exists v. =(f(u), f(v)) => =(v, x)"),
             (DELTA, "forall q. exists r. =(i(q), j(r)) => =(r, u)"),
             (_small_delta(9), "forall r. exists q. =(j(r), i(q)) => =(q, w)")]
    models._make.cache_clear()
    for m, text in cases:
        a = parse_prop(text, m.sig)
        phi = {x: m.ifs.carrier(0)[0] if m.ifs.carrier(0) else 1 for x in ("u", "w", "x")}
        want = _outcome(_ref_eval_prop_report, m, a, phi)
        assert _outcome(eval_prop_report, m, a, phi) == want, text
    assert models._make.cache_info().misses == 1


def _shape(x, ctx=(), quants=()):
    """What compiled code may depend on: node kinds and arities, and where
    each variable is bound; not symbols, predicates, names or levels."""
    if isinstance(x, Var):
        if x.name in ctx:
            return ("bound",)
        if x.name in quants:
            return "quantified", quants[::-1].index(x.name)
        return ("free",)
    if isinstance(x, (App, Atom)):
        ctxs = [tuple(reversed(s.binders)) + (ctx if isinstance(x, App) else ()) for s in x.args]
        return type(x).__name__, tuple(_shape(s.body, c, quants) for s, c in zip(x.args, ctxs))
    if isinstance(x, (Forall, Exists)):
        return type(x).__name__, _shape(x.body, ctx, quants + (x.var,))
    if isinstance(x, (Imp, And, Or)):
        return type(x).__name__, _shape(x.a, ctx, quants), _shape(x.b, ctx, quants)
    return (type(x).__name__,)


def _sweep_round(rng):
    """The propositions (model, text, verdict) and ext terms of one round
    built as model-sweep builds its own."""
    names = ("x", "y", "z", "v", "w", "x1", "y2")

    def wrap(t, ctx_syms, b):
        for sym in ctx_syms:
            t = f"f({t})" if sym == "f" else f"Λ({b}. {t})"
        return t

    props = []
    for _ in range(25):
        x, y, b = rng.sample(names, 3)
        ctx_syms = [rng.choice("fΛ") for _ in range(rng.randint(1, 5))]
        props.append((EXT, f"forall {x}. forall {y}. =({x}, {y}) => "
                           f"=({wrap(x, ctx_syms, b)}, {wrap(y, ctx_syms, b)})", (1, True)))
    props += [(EXT, text, (1, True)) for text in EXT_AXIOMS]
    props += [(EXT, "(forall x. =(f(x), x)) => =(Λ(y. f(y)), Λ(z. z))", (0, True)),
              (DELTA, "=(δ(a(), x. a(), y. a()), a())", (0, True)),
              (DELTA, "forall q. =(δ(a(), x. q, y. q), q)", (0, True))]
    for k in range(12):
        inj, u, v = "ij"[k % 2], rng.choice("ij") + "(" + rng.choice("ij") + "(x))", \
            rng.choice("ij") + "(" + rng.choice("ij") + "(y))"
        picked = (u if inj == "i" else v).replace("(x)", "(q)").replace("(y)", "(q)")
        props.append((DELTA, f"forall q. =(δ({inj}(q), x. {u}, y. {v}), {picked})", (1, False)))
    terms = [gen.random_term(rng, EXT.sig, rng.randint(1, 8)) for _ in range(200)]
    return [(m, parse_prop(text, m.sig), want) for m, text, want in props], terms


def test_sweep_rounds_compile_at_most_their_shapes():
    models._make.cache_clear()
    shapes, evaluated = set(), 0
    for r in range(3):
        props, terms = _sweep_round(random.Random(f"sweep-round:{r}"))
        for m, a, want in props:
            assert eval_prop_report(m, a) == want, syntax.print_prop(a)
            shapes.add(_shape(a))
            if m is DELTA:  # its closed subterms are evaluated for the domain
                shapes.update(_shape(t) for t in _closed_subterms(a))
        for t in terms:
            phi = {x: ("k", 0) for x in syntax.free_vars(t)}
            assert EXT.ifs.elem_eq(eval_term(EXT, t, (), phi), _ref_eval_term(EXT, t, (), phi), 0)
            shapes.add(_shape(t))
        evaluated += len(props) + len(terms)
    info = models._make.cache_info()
    assert info.misses <= len(shapes) < evaluated / 4, (info, len(shapes))


def _closed_subterms(a) -> list:
    found = []
    stack = [s.body for atom in syntax.atoms(a) for s in atom.args]
    while stack:
        t = stack.pop()
        if not syntax.free_vars(t):
            found.append(t)
        stack += syntax.NODE_TYPES[type(t)].children(t)
    return found


class _Elem:
    """A carrier element that a weak reference can watch."""

    def __init__(self, tag):
        self.tag = tag


def _weakly_evaluated() -> list:
    """Weak references to a model, a proposition compiled over it with
    memos and tables, and the elements the evaluation saw or made."""
    elems, made = (_Elem("a"), _Elem("b")), []

    def lam(p, args):
        made.append(_Elem("Λ"))
        return made[-1]
    ifs = models.IFS(carrier=lambda n: elems if n == 0 else None, proj=lambda i, n: _Elem((i, n)),
                     box=lambda a, bs, p: a, elem_eq=lambda a, b, n: a is b)
    m = models.BindingModel("weak", EXT.sig, ifs, {"f": lambda p, args: args[0], "Λ": lam},
                            {"=": lambda args: int(args[0] is args[1])})
    # f(x) is memoized per element for x, f(y) and the second atom tabled
    # per element for y, Λ(z. z) memoized once
    a = parse_prop("forall x. forall y. =(f(x), f(y)) => =(Λ(z. z), f(y))", m.sig)
    run = models._compiled(m, a, (), True, *models._quantifier_domain(m, a))
    assert run({}) == (0, True) and made
    return [weakref.ref(x) for x in (m, run, *elems, *made)]


def test_code_cache_keeps_no_model_table_or_element_alive():
    refs = _weakly_evaluated()
    gc.collect()
    assert models._make.cache_info().currsize
    assert [r() for r in refs] == [None] * len(refs)


# The delta model's sampler and composition as they were before their
# elements read their functions once.

def _ref_sample(n, rng):
    if n == 0:
        return rng.randrange(0, 512)
    coeffs = [rng.randrange(0, 4) for _ in range(n)]
    c0 = rng.randrange(0, 8)
    return Computable(n, lambda *xs, cs=tuple(coeffs), c0=c0:
                      c0 + sum(c * x for c, x in zip(cs, xs)))


def _ref_box(a, bs, p):
    if not bs:
        if p == 0:
            return a
        return Computable(p, lambda *xs, a=a: a)
    if p == 0:
        return a.fn(*bs)
    return Computable(p, lambda *xs, a=a, bs=bs: a.fn(*[b.fn(*xs) for b in bs]))


def _probe_points(n):
    rng = random.Random(n)
    return list(itertools.product(range(17), repeat=n)) if n <= 2 else \
        [tuple(rng.randrange(17) for _ in range(n)) for _ in range(300)]


def _same_values(x, y, n) -> bool:
    if n == 0:
        return x == y
    return all(x.fn(*pt) == y.fn(*pt) for pt in _probe_points(n))


# The injections and the constant as they were before elements carried
# their coefficients.

def _ref_lift0(base):
    def fh(p, args):
        (d,) = args
        if p == 0:
            return base(d)
        fd = d.fn
        return Computable(p, lambda *xs: base(fd(*xs)))
    return fh


_REF_FHAT = {
    "i": _ref_lift0(lambda d: 2 * d + 2),
    "j": _ref_lift0(lambda d: 2 * d + 3),
    "a": lambda p, args: 1 if p == 0 else Computable(p, lambda *xs: 1),
}


def test_delta_sampler_and_box_match_reference():
    ifs, fhat = DELTA.ifs, DELTA.fhat
    for seed in range(20):
        new_rng, ref_rng = random.Random(seed), random.Random(seed)
        branch_rng = random.Random(f"delta-branches:{seed}")
        for n in range(4):
            for _ in range(3):
                x_new, x_ref = ifs.sample(n, new_rng), _ref_sample(n, ref_rng)
                assert _same_values(x_new, x_ref, n)
                # the injections of an element with coefficients and of one without
                for f in ("i", "j"):
                    want = _REF_FHAT[f](n, (x_ref,))
                    assert _same_values(fhat[f](n, (x_new,)), want, n)
                    assert _same_values(fhat[f](n, (x_ref,)), want, n)
                    assert n == 0 or fhat[f](n, (x_new,)).coeffs is not None
            assert _same_values(fhat["a"](n, ()), _REF_FHAT["a"](n, ()), n)
        assert new_rng.getstate() == ref_rng.getstate()
        for k, p in itertools.product(range(4), repeat=2):
            a_new, a_ref = ifs.sample(k, new_rng), _ref_sample(k, ref_rng)
            bs_new = tuple(ifs.sample(p, new_rng) for _ in range(k))
            bs_ref = tuple(_ref_sample(p, ref_rng) for _ in range(k))
            want = _ref_box(a_ref, bs_ref, p)
            assert _same_values(ifs.box(a_new, bs_new, p), want, p)
            assert p == 0 or ifs.box(a_new, bs_new, p).coeffs is not None
            # composing with the other side's elements gives the same values
            # too, and so does each mix of affine and opaque parts
            assert _same_values(ifs.box(a_ref, bs_ref, p), _ref_box(a_new, bs_new, p), p)
            assert _same_values(ifs.box(a_new, bs_ref, p), want, p)
            assert _same_values(ifs.box(a_ref, bs_new, p), want, p)
            # δ's results, opaque above level 0, as arguments
            fg = (ifs.sample(p + 1, branch_rng), ifs.sample(p + 1, branch_rng))
            ds_new = tuple(fhat["δ"](p, (b, *fg)) for b in bs_new)
            ds_ref = tuple(fhat["δ"](p, (b, *fg)) for b in bs_ref)
            assert _same_values(ifs.box(a_new, ds_new, p), _ref_box(a_ref, ds_ref, p), p)
        assert new_rng.getstate() == ref_rng.getstate()


# Delta elements keep their values on the probe points in a table; the
# references above probe the functions point by point.

def _composites(rng, n: int, depth: int):
    """A level-n element composed depth times from sampled elements, by
    the model's box, and the same composition by the reference box."""
    ifs = DELTA.ifs
    k = rng.randint(1, 2)
    new = ref = ifs.sample(k, rng)
    for level in [rng.randint(1, 2) for _ in range(depth - 1)] + [n]:
        bs = tuple(ifs.sample(level, rng) for _ in range(k))
        new, ref = ifs.box(new, bs, level), _ref_box(ref, bs, level)
        k = level
    return new, ref


def test_delta_elem_eq_on_compositions_matches_probes():
    ifs = DELTA.ifs
    rng = random.Random("delta-tables")
    outcomes, equal = set(), set()
    for _ in range(60):
        n = rng.randint(1, 2)
        (a, a_ref), (b, b_ref) = (_composites(rng, n, rng.randint(3, 5)) for _ in range(2))
        assert ifs.elem_eq(a, a_ref, n) and ifs.elem_eq(a_ref, a, n)
        # associativity and identity: equal sides built through other tables
        cs = tuple(ifs.sample(n, rng) for _ in range(n))
        lhs = ifs.box(ifs.box(a, (ifs.proj(1, n),) * n, n), cs, n)
        rhs = ifs.box(a, tuple(ifs.box(ifs.proj(1, n), cs, n) for _ in range(n)), n)
        same = ifs.box(b, tuple(ifs.proj(i, n) for i in range(1, n + 1)), n)
        for x, y in ((a, b), (a_ref, b), (b_ref, a), (lhs, rhs), (same, b), (same, a), (a, a_ref)):
            assert ifs.elem_eq(x, y, n) == _same_values(x, y, n)
            outcomes.add(ifs.elem_eq(x, y, n))
            # affine elements (not the references) are == exactly when their
            # values are equal, and then share a hash and a probe table
            affine = x.coeffs is not None and y.coeffs is not None
            assert (x == y) == (affine and _same_values(x, y, n))
            assert x != y or (hash(x) == hash(y) and x.table is not None and x.table == y.table)
            equal.add(x == y)
        # the same values one level up are another element
        assert ifs.box(a, tuple(ifs.proj(i, n + 1) for i in range(1, n + 1)), n + 1) != a
    assert outcomes == equal == {True, False}


def test_delta_elem_eq_sees_the_last_probe_point():
    ifs = DELTA.ifs
    rng = random.Random("delta-last-point")
    for n, last in ((1, (16,)), (2, (16, 16))):
        a, _ = _composites(rng, n, 3)
        off = Computable(n, lambda *xs, fn=a.fn: fn(*xs) + (xs == last))
        projs = tuple(ifs.proj(i, n) for i in range(1, n + 1))
        # composites whose only difference is an argument's last value
        left, right = ifs.box(ifs.proj(1, 1), (a,), n), ifs.box(ifs.proj(1, 1), (off,), n)
        assert not ifs.elem_eq(left, right, n) and not _same_values(left, right, n)
        assert not ifs.elem_eq(ifs.box(off, projs, n), a, n)
        assert ifs.elem_eq(ifs.box(a, projs, n), a, n)


def test_delta_elements_are_probed_once():
    ifs = DELTA.ifs
    calls = []

    def element(n, fn):
        return Computable(n, lambda *xs: calls.append(n) or fn(*xs))

    f = element(1, lambda y: 2 * y + 1)
    b = element(2, lambda x, y: x * y)
    c = ifs.box(f, (b,), 2)
    assert c.parts is not None
    for _ in range(3):
        assert ifs.elem_eq(c, c, 2) and not ifs.elem_eq(c, b, 2)
    # one call of f per level-2 probe point, on b's table; b probed once
    assert calls.count(2) == 289 and calls.count(1) == 289
    assert c.parts is None and c == c and hash(c) == hash(Computable(2, c.fn))
    # an affine element's table, from its coefficients, agrees at every
    # probe point with its opaque twin's, which is not == to it
    for n in (1, 2, 3):
        x = ifs.sample(n, random.Random(n))
        twin = element(n, x.fn)
        calls.clear()
        assert ifs.elem_eq(x, twin, n) and x != twin and twin != x
        assert calls == [n] * len(twin.table) == [n] * (17 if n == 1 else 289)


def _planted_delta(m=DELTA):
    """delta whose level-2 compositions of a level-1 element, and whose
    level-1 i, are off by one at their last probe point."""
    def box(a, bs, p):
        r = m.ifs.box(a, bs, p)
        if p == 2 and len(bs) == 1:
            return Computable(2, lambda x, y, fn=r.fn: fn(x, y) + (x == y == 16))
        return r

    def i(p, args):
        r = m.fhat["i"](p, args)
        return Computable(1, lambda x, fn=r.fn: fn(x) + (x == 16)) if p == 1 else r
    return dataclasses.replace(m, ifs=dataclasses.replace(m.ifs, box=box), fhat={**m.fhat, "i": i})


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_delta_sweeps_match_probe_by_probe_reference(seed):
    for m in (DELTA, _planted_delta()):
        probed = dataclasses.replace(m.ifs, elem_eq=_same_values)
        _assert_same_sweep(
            check_ifs(m.ifs, 2, 2, 2, mode="sampled", samples=4, seed=seed),
            _naive_check_ifs(probed, 2, 2, 2, mode="sampled", samples=4, seed=seed))
        for f in ("i", "δ"):
            _assert_same_sweep(
                check_coherence(m, f, 1, 1, mode="sampled", samples=4, seed=seed),
                _naive_check_coherence(dataclasses.replace(m, ifs=probed), f, 1, 1,
                                       mode="sampled", samples=4, seed=seed))
    assert not check_ifs(_planted_delta().ifs, 2, 2, 2, mode="sampled", samples=4, seed=1).ok
    assert not check_coherence(_planted_delta(), "i", 1, 1, mode="sampled", samples=4, seed=1).ok


def test_delta_sweep_matches_reference_past_a_byte_of_elements():
    # six samples grow level 0 past 256 interned elements while a block
    # runs: at n = 1, p = 2, q = 0 its column numbers fit in a byte but the
    # outer composites take indices past 255, so the block compares as lists
    for m in (DELTA, _planted_delta()):
        probed = dataclasses.replace(m.ifs, elem_eq=_same_values)
        _assert_same_sweep(
            check_ifs(m.ifs, 2, 2, 2, mode="sampled", samples=6, seed=1),
            _naive_check_ifs(probed, 2, 2, 2, mode="sampled", samples=6, seed=1))


# ---------------------------------------------------------------------------
# The term model: the σ engine judged by the structure laws
#
# A level-n element is a σ-normal form of sort n, a projection is the normal
# form of an index, and box(a, bs, p) is the normal form of
# a[b1 . ... . bk . base], where the base is id_0 at p = 0 and the chain of
# shifts up_0 o ... o up_(p-1) above it. The laws then hold exactly when the
# engine computes substitution, so an engine missing a rule breaks them.

def _term_model(rs) -> models.BindingModel:
    def nf(t):
        return sigma.normalize(rs, t)

    def box(a, bs, p):
        sub = sigma.Id(0) if p == 0 else sigma.shift_chain(0, p)
        for b in reversed(bs):
            sub = sigma.Cons(b, sub)
        return nf(sigma.Closure(a, sub))

    ifs = models.IFS(carrier=lambda n: None, proj=lambda i, n: nf(sigma.Index(i, n)), box=box,
                     elem_eq=lambda a, b, n: a == b,
                     sample=lambda n, rng: nf(gen.random_lterm(rng, rs.sig, sigma.TermSort(n), 4)))
    fhat = {f: (lambda p, args, f=f: nf(sigma.FApp(f, p, args))) for f in rs.sig.functions}
    return models.BindingModel("term", rs.sig, ifs, fhat, {})


def _term_model_violations(rs, samples: int) -> int:
    m = _term_model(rs)
    reps = [check_ifs(m.ifs, 2, 2, 2, mode="sampled", samples=samples, seed=1)]
    reps += [check_coherence(m, f, 2, 2, mode="sampled", samples=samples, seed=1)
             for f in rs.sig.functions]
    return sum(len(r.violations) for r in reps)


def test_term_model_judges_the_sigma_engine():
    sig = syntax.parse_signature(
        (Path(__file__).resolve().parent.parent / "samples" / "lambda.sig").read_text())
    full = sigma.sigma_system(sig)
    assert _term_model_violations(full, 10) == 0
    caught = {r.name for r in full.rules if _term_model_violations(sigma.RewriteSystem(
        "sigma", tuple(q for q in full.rules if q is not r), "lterm", sig), 3)}
    # VarShift and SCons, the eta rules of substitutions, contract a cons
    # back into the substitution it spells; each law's two sides reach the
    # same normal form without them
    assert caught == {"IndexExpand", "VarCons", "Id", "Clos", "IdL", "ShiftCons", "AssEnv",
                      "MapEnv", "IdR", "FPush"}
