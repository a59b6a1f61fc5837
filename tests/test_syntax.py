"""The named binding layer: free variables, grafting, alpha, substitution,
well-formedness, and the text grammar."""

import itertools
import random
from typing import Callable

import pytest
from hypothesis import given
import hypothesis.strategies as st

from bindlog import gen, sigma, syntax
from bindlog.errors import CheckResult
from bindlog.syntax import (
    And,
    App,
    Atom,
    Bottom,
    Exists,
    Forall,
    Imp,
    Or,
    Signature,
    Slot,
    SubstMap,
    Var,
    alpha_eq,
    free_vars,
    graft,
    parse_prop,
    parse_term,
    print_prop,
    print_term,
    substitute,
    well_formed,
)

from conftest import (
    SIG,
    _ref_to_debruijn,
    alpha_oracle,
    free_vars_oracle,
    prop_st,
    subst_map_st,
    subst_oracle,
    term_st,
)


def T(s):
    return parse_term(s, SIG)


def P(s):
    return parse_prop(s, SIG)


# ---------------------------------------------------------------------------
# free_vars


def test_free_vars_variable():
    assert free_vars(Var("x")) == {"x"}


def test_free_vars_fully_bound():
    assert free_vars(T("Λ(x. x)")) == frozenset()


def test_free_vars_mixed():
    assert free_vars(T("f(x. g(x, y))".replace("f(x.", "Λ(x."))) == {"y"}
    assert free_vars(T("Λ(x. g(x, y))")) == {"y"}


@given(term_st())
def test_free_vars_matches_debruijn_oracle(t):
    assert free_vars(t) == free_vars_oracle(t)


def test_free_vars_takes_any_depth_in_linear_time(monkeypatch):
    """One walk with its own stack: a 10,000-binder nest at the default
    recursion limit, with one NODE_TYPES lookup per node (and one to see
    whether the root is a variable)."""
    t = Var("y")
    for i in range(10_000):
        t = App("Λ", (Slot((f"v{i % 3}",), App("g", (Slot((), Var(f"v{i % 3}")), Slot((), t)))),))

    class Counting(type(syntax.NODE_TYPES)):
        lookups = 0

        def __getitem__(self, cls):
            Counting.lookups += 1
            return super().__getitem__(cls)

    monkeypatch.setattr(syntax, "NODE_TYPES", Counting(syntax.NODE_TYPES))
    assert free_vars(t) == {"y"}
    assert Counting.lookups == 3 * 10_000 + 2  # Λ, g and v per level, y, and the root again
    assert free_vars(App("Λ", (Slot(("y",), t),))) == frozenset()


def test_free_vars_oracle_bulk():
    rng = random.Random(11)
    for _ in range(1000):
        t = gen.random_term(rng, SIG, rng.randint(1, 10))
        assert free_vars(t) == free_vars_oracle(t)


# ---------------------------------------------------------------------------
# grafting


def test_graft_captures():
    assert graft({"y": Var("x")}, T("Λ(x. y)")) == T("Λ(x. x)")


def test_graft_base_case():
    t = T("g(y, c())")
    assert graft({"x": t}, Var("x")) == t


def test_graft_restricted_under_binder():
    t = T("Λ(x. g(x, x))")
    assert graft({"x": T("c()")}, t) == t


def test_graft_quantifier_restriction():
    p = P("forall x. P(x)")
    assert graft({"x": T("c()")}, p) == p


@given(term_st(), subst_map_st())
def test_graft_identity_on_disjoint_domain(t, theta):
    theta = {v: u for v, u in theta.items() if v not in free_vars(t)}
    assert graft(theta, t) == t


# ---------------------------------------------------------------------------
# alpha-equivalence


def test_alpha_renaming():
    assert alpha_eq(T("Λ(x. x)"), T("Λ(y. y)"))


def test_alpha_free_vs_bound():
    assert alpha_eq(T("Λ(x. y)"), T("Λ(z. y)"))
    assert not alpha_eq(T("Λ(x. y)"), T("Λ(x. x)"))


def test_alpha_quantifier():
    assert alpha_eq(P("forall x. =(x, y)"), P("forall z. =(z, y)"))


def test_alpha_shadowing():
    # a quantifier may rebind a name bound by an enclosing symbol binder
    assert alpha_eq(P("forall x. P(Λ(x. x))"), P("forall y. P(Λ(z. z))"))
    a = T("Λ(x. Λ(x. x))")
    b = T("Λ(y. Λ(z. z))")
    c = T("Λ(y. Λ(z. y))")
    assert alpha_eq(a, b)
    assert not alpha_eq(a, c)


def test_alpha_quantifier_renaming_against_oracle():
    a = P("forall x. =(x, y)")
    b = P("forall z. =(z, y)")
    assert alpha_eq(a, b) and alpha_oracle(a, b)
    c = P("forall z. =(z, z)")
    assert not alpha_eq(a, c) and not alpha_oracle(a, c)


@given(st.data())
def test_alpha_matches_recursive_oracle(data):
    a = data.draw(term_st())
    b = data.draw(term_st())
    assert alpha_eq(a, b) == alpha_oracle(a, b)
    assert alpha_eq(a, a)


@given(prop_st(), prop_st())
def test_alpha_props_match_recursive_oracle(p, q):
    assert alpha_eq(p, q) == alpha_oracle(p, q)


def test_alpha_oracle_bulk_pairs():
    rng = random.Random(7)
    agree = 0
    for _ in range(1000):
        a = gen.random_term(rng, SIG, rng.randint(1, 8))
        if rng.random() < 0.5:
            b = subst_oracle({}, a)  # fresh renaming of every binder
        else:
            b = gen.random_term(rng, SIG, rng.randint(1, 8))
        assert alpha_eq(a, b) == alpha_oracle(a, b)
        agree += alpha_eq(a, b)
    assert agree > 100  # the corpus contains plenty of equivalent pairs


@given(term_st(), term_st(), term_st())
def test_alpha_equivalence_relation(a, b, c):
    assert alpha_eq(a, a)
    assert alpha_eq(a, b) == alpha_eq(b, a)
    if alpha_eq(a, b) and alpha_eq(b, c):
        assert alpha_eq(a, c)


# ---------------------------------------------------------------------------
# substitution


def test_substitute_avoids_capture():
    out = substitute({"y": Var("x")}, T("Λ(x. y)"))
    assert alpha_eq(out, T("Λ(z. x)"))
    assert not alpha_eq(out, T("Λ(x. x)"))


def test_substitute_quantifier_renames():
    out = substitute({"x": T("c()")}, P("forall x. P(x)"))
    assert alpha_eq(out, P("forall x. P(x)"))


def test_substitute_matches_graft_after_freshening():
    rng = random.Random(23)
    for _ in range(1000):
        t = gen.random_term(rng, SIG, rng.randint(1, 8))
        chosen = rng.sample(gen.DEFAULT_FREE, rng.randint(1, 3))
        theta = {v: gen.random_term(rng, SIG, rng.randint(1, 4)) for v in chosen}
        assert alpha_eq(substitute(theta, t), subst_oracle(theta, t))


@given(prop_st(), subst_map_st())
def test_substitute_prop_matches_oracle(p, theta):
    assert alpha_eq(substitute(theta, p), subst_oracle(theta, p))


@given(term_st(), subst_map_st())
def test_substitute_removes_substituted_variable(t, theta):
    # x must not reappear through any range term, not just its own image:
    # substitute({y: x, x: y}, x) = y shows the weaker premise is unsound.
    out = substitute(theta, t)
    range_free = frozenset().union(*(free_vars(u) for u in theta.values()))
    for x in theta:
        if x not in range_free:
            assert x not in free_vars(out)


@given(st.data())
def test_substitute_respects_alpha(data):
    t = data.draw(term_st())
    theta = data.draw(subst_map_st())
    u = subst_oracle({}, t)  # alpha-variant
    assert alpha_eq(substitute(theta, t), substitute(theta, u))


@given(st.data())
def test_substitute_depends_only_on_alpha_classes(data):
    # the output is canonical: alpha-variants of the argument and of the
    # map's terms give the same output, not just alpha-equivalent ones
    t = data.draw(st.one_of(term_st(), prop_st()))
    theta = data.draw(subst_map_st())
    variant = {v: subst_oracle({}, u) for v, u in theta.items()}
    assert substitute(theta, t) == substitute(variant, subst_oracle({}, t))


@given(st.one_of(term_st(), prop_st()), subst_map_st())
def test_subst_matches_oracle(t, theta):
    out = syntax.subst(theta, t)
    assert alpha_eq(out, subst_oracle(theta, t))
    range_free = frozenset().union(*map(free_vars, theta.values()))
    if not syntax.all_names(t) & range_free:
        assert out == graft(theta, t)  # nothing to rename: no binder is touched


# ---------------------------------------------------------------------------
# well-formedness


def test_well_formed_ok():
    sig = Signature({"f": (1,)}, {})
    assert well_formed(sig, App("f", (Slot(("x",), Var("x")),))).ok


def test_well_formed_binder_count():
    sig = Signature({"f": (1,)}, {})
    r = well_formed(sig, App("f", (Slot(("x", "y"), Var("x")),)))
    assert not r.ok and r.kind == "BinderCountMismatch"


def test_well_formed_delta_example():
    sig = Signature({"δ": (0, 1, 1), "i": (0,)}, {})
    t = parse_term("δ(i(x), x. u, y. v)")
    assert well_formed(sig, t).ok


def test_well_formed_errors_name_path():
    sig = Signature({"f": (1,), "g": (0, 0)}, {"P": (0,)})
    r = well_formed(sig, parse_term("g(x, h(y))"))
    assert not r.ok and r.kind == "UnknownSymbol" and r.path == (1,)
    r = well_formed(sig, parse_term("g(x)"))
    assert r.kind == "ArityMismatch"
    r = well_formed(sig, App("f", (Slot(("x", "x"), Var("x")),)))
    assert r.kind == "BinderCountMismatch"  # count checked before distinctness
    sig2 = Signature({"f": (2,)}, {})
    r = well_formed(sig2, App("f", (Slot(("x", "x"), Var("x")),)))
    assert r.kind == "DuplicateBinder"


# ---------------------------------------------------------------------------
# grammar


@given(term_st())
def test_term_print_parse_roundtrip(t):
    assert parse_term(print_term(t)) == t


@given(prop_st())
def test_prop_print_parse_roundtrip(p):
    parsed = parse_prop(print_prop(p))
    assert parsed == p
    assert alpha_eq(parsed, p)


@pytest.mark.parametrize("text,expected", [
    ("A => B \\/ C", "Imp"),
    ("A \\/ B /\\ C", "Or"),
    ("forall x. A => B", "Forall"),
    ("(A => B) \\/ C", "Or"),
])
def test_precedence(text, expected):
    p = parse_prop(text.replace("A", "Q").replace("B", "Q").replace("C", "Q"))
    assert type(p).__name__ == expected


def test_quantifier_body_extends_right():
    p = parse_prop("forall x. P(x) => Q")
    assert isinstance(p, Forall) and isinstance(p.body, syntax.Imp)


def test_each_layer_rejects_a_term_of_the_other():
    sig = Signature({"f": (0,)}, {"P": (0,)})
    named = App("f", (Slot((), Var("x")),))
    lterm = sigma.FApp("f", 0, (sigma.FreeVar("x"),))
    for judge, alien in ((well_formed, lterm), (sigma.well_sorted, named)):
        for x, path in ((alien, ()), (syntax.Atom("P", (Slot((), alien),)), (0,))):
            r = judge(sig, x)
            assert (r.ok, r.kind, r.path, r.message) == (
                False, "SortMismatch", path, f"{alien} is not a term of this layer")


def test_well_formed_takes_deep_input():
    sig = Signature({"f": (0,)}, {"P": (1,)})
    for bottom, want in ((Var("x"), None), (App("h", ()), "UnknownSymbol")):
        chain = bottom
        for _ in range(10_000):
            chain = App("f", (Slot((), chain),))
        r = well_formed(sig, Forall("y", Atom("P", (Slot(("z",), chain),))))
        assert (r.kind, r.path) == (want, None if want is None else (0,) * 10_002)


def test_repr_takes_deep_input():
    # The dataclass-generated repr recursed and raised RecursionError here.
    chain = Var("x")
    for _ in range(10_000):
        chain = App("f", (Slot((), chain),))
    assert repr(chain) == f"<App {print_term(chain)}>"
    assert repr(chain).count("f(") == 10_000
    deep = Forall("y", Atom("P", (Slot(("z",), chain),)))
    assert repr(deep) == f"<Forall {print_prop(deep)}>"
    assert repr(P("forall x. Q => false")) == "<Forall forall x. Q => false>"
    assert repr(Slot(("x", "y"), T("f(x)"))) == "<Slot x y. f(x)>"
    # a part that is not a node: the fields as given
    assert repr(Imp(Bottom(), 42)) == "Imp(a=<Bottom false>, b=42)"


def test_constants_roundtrip_without_signature():
    t = T("g(c(), x)")
    assert parse_term(print_term(t)) == t


def test_signature_file_roundtrip():
    text = "fun f : <1>\nfun c : <>\npred P : <0,0>\n"
    sig = syntax.parse_signature(text)
    assert sig.functions == {"f": (1,), "c": ()}
    assert sig.predicates == {"P": (0, 0)}
    again = syntax.parse_signature(syntax.print_signature(sig))
    assert again == sig


def test_signature_name_spaces_disjoint():
    with pytest.raises(ValueError):
        Signature({"p": (0,)}, {"p": (0,)})


def test_parse_errors():
    with pytest.raises(syntax.ParseError):
        parse_term("f(x.")
    with pytest.raises(syntax.ParseError):
        parse_prop("forall . P")


# ---------------------------------------------------------------------------
# the protocol walks against the ladders they replaced
#
# The references below are this module's walks as they were before every
# node class got a NodeType, one case per constructor, kept verbatim. The
# inputs are seeded and draw binder lists with duplicates, quantifiers that
# shadow, counter-suffixed names that collide with both fresh-name schemes,
# undeclared symbols and wrong arities.

# Free variables and name collection

def _ref_free_vars(x) -> frozenset[str]:
    """Variables with at least one occurrence not under a binder of that name."""
    if isinstance(x, Var):
        return frozenset((x.name,))
    if isinstance(x, (App, Atom)):
        acc: set[str] = set()
        for s in x.args:
            acc |= _ref_free_vars(s.body) - set(s.binders)
        return frozenset(acc)
    if isinstance(x, (Imp, And, Or)):
        return _ref_free_vars(x.a) | _ref_free_vars(x.b)
    if isinstance(x, Bottom):
        return frozenset()
    if isinstance(x, (Forall, Exists)):
        return _ref_free_vars(x.body) - {x.var}
    raise TypeError(f"not a binding-layer term or proposition: {x!r}")


def _ref_all_names(x) -> frozenset[str]:
    """Every variable name occurring in x, free or bound, binders included."""
    if isinstance(x, Var):
        return frozenset((x.name,))
    if isinstance(x, (App, Atom)):
        acc: set[str] = set()
        for s in x.args:
            acc |= set(s.binders) | _ref_all_names(s.body)
        return frozenset(acc)
    if isinstance(x, (Imp, And, Or)):
        return _ref_all_names(x.a) | _ref_all_names(x.b)
    if isinstance(x, Bottom):
        return frozenset()
    if isinstance(x, (Forall, Exists)):
        return _ref_all_names(x.body) | {x.var}
    raise TypeError(f"not a binding-layer term or proposition: {x!r}")


def _ref_graft(theta: SubstMap, x):
    """Replace free occurrences of the mapped variables, without renaming.

    The map is restricted under every binder to the variables it does not
    bind, so bound occurrences are never replaced; captures are allowed.
    """
    if not theta:
        return x
    if isinstance(x, Var):
        return theta.get(x.name, x)
    if isinstance(x, (App, Atom)):
        args = []
        for s in x.args:
            inner = {v: t for v, t in theta.items() if v not in s.binders}
            args.append(Slot(s.binders, _ref_graft(inner, s.body)))
        return type(x)(x.symbol if isinstance(x, App) else x.pred, tuple(args))
    if isinstance(x, (Imp, And, Or)):
        return type(x)(_ref_graft(theta, x.a), _ref_graft(theta, x.b))
    if isinstance(x, Bottom):
        return x
    if isinstance(x, (Forall, Exists)):
        inner = {v: t for v, t in theta.items() if v != x.var}
        return type(x)(x.var, _ref_graft(inner, x.body))
    raise TypeError(f"not a binding-layer term or proposition: {x!r}")


def _ref_fresh_namer(taken: set[str]) -> Callable[[str], str]:
    def fresh(base: str) -> str:
        for k in itertools.count(1):
            cand = f"{base}{k}"
            if cand not in taken:
                taken.add(cand)
                return cand
        raise AssertionError

    return fresh


def _ref_substitute(theta: SubstMap, x, fresh: Callable[[str], str] | None = None):
    """Capture-avoiding substitution.

    Every binder is renamed to a name occurring neither free nor bound in the
    argument nor in the map before the map is pushed under it. The result is
    then put into a canonical bound-name form, so the choice of fresh-name
    generator is unobservable.
    """
    if fresh is None:
        taken = set(_ref_all_names(x)) | set(theta)
        for t in theta.values():
            taken |= _ref_all_names(t)
        fresh = _ref_fresh_namer(taken)

    def go(x):
        if isinstance(x, Var):
            return theta.get(x.name, x)
        if isinstance(x, (App, Atom)):
            args = []
            for s in x.args:
                ys = tuple(fresh(b) for b in s.binders)
                renamed = _ref_graft({b: Var(y) for b, y in zip(s.binders, ys)}, s.body)
                args.append(Slot(ys, go(renamed)))
            head = x.symbol if isinstance(x, App) else x.pred
            return type(x)(head, tuple(args))
        if isinstance(x, (Imp, And, Or)):
            return type(x)(go(x.a), go(x.b))
        if isinstance(x, Bottom):
            return x
        if isinstance(x, (Forall, Exists)):
            y = fresh(x.var)
            return type(x)(y, go(_ref_graft({x.var: Var(y)}, x.body)))
        raise TypeError(f"not a binding-layer term or proposition: {x!r}")

    return _ref_canonical_binders(go(x))


def _ref_canonical_binders(x):
    """Rename every bound variable deterministically (x1, x2, ... in preorder,
    skipping the free names of x). Output depends only on the alpha-class."""
    free = _ref_free_vars(x)
    counter = itertools.count(1)

    def next_name() -> str:
        while True:
            cand = f"x{next(counter)}"
            if cand not in free:
                return cand

    def go(x, env: dict[str, str]):
        if isinstance(x, Var):
            return Var(env.get(x.name, x.name))
        if isinstance(x, (App, Atom)):
            args = []
            for s in x.args:
                ys = tuple(next_name() for _ in s.binders)
                inner = {**env, **dict(zip(s.binders, ys))}
                args.append(Slot(ys, go(s.body, inner)))
            head = x.symbol if isinstance(x, App) else x.pred
            return type(x)(head, tuple(args))
        if isinstance(x, (Imp, And, Or)):
            return type(x)(go(x.a, env), go(x.b, env))
        if isinstance(x, Bottom):
            return x
        if isinstance(x, (Forall, Exists)):
            y = next_name()
            return type(x)(y, go(x.body, {**env, x.var: y}))
        raise TypeError(f"not a binding-layer term or proposition: {x!r}")

    return go(x, {})


# The protocol's subst, _rename, _fresh_namer and _unbind as they were
# before the three renaming walks became one, kept verbatim but for the
# names; free and all names come from the references above.

def _ref_unbind(theta: SubstMap, names) -> SubstMap:
    return {v: t for v, t in theta.items() if v not in names} if names else theta


def _ref_subst_fresh_namer(taken: set[str]) -> Callable[[str], str]:
    def fresh(base: str) -> str:
        for k in itertools.count(1):
            cand = f"{base}{k}"
            if cand not in taken:
                taken.add(cand)
                return cand
        raise AssertionError

    return fresh


def _ref_rename(x, env: dict[str, str], new_name: Callable[[str], str]):
    """x with every binder b renamed to new_name(b), in preorder, and every
    variable env maps (on entry any name, then the binders in scope)
    renamed as env says, each through its own class."""
    n = syntax.NODE_TYPES[type(x)]
    if n.variable:
        return n.make((env[x.name],), ()) if x.name in env else x
    kids = n.kids(x)
    if n.slotted:
        new = []
        for s in kids:
            ys = tuple([new_name(b) for b in s.binders])
            new.append(Slot(ys, _ref_rename(s.body, {**env, **dict(zip(s.binders, ys))},
                                             new_name)))
        return n.make(n.data(x), tuple(new))
    return n.rebuild(x, tuple([_ref_rename(c, env, new_name) for c in kids]))


def _ref_subst(theta: SubstMap, x):
    """Capture-avoiding substitution on either layer. A binder is renamed
    only where a term pushed under it has it free; its new name b1, b2, ...
    occurs neither in the slot nor in the map, so no inner binder can
    capture it."""
    if not theta:
        return x
    n = syntax.NODE_TYPES[type(x)]
    if n.variable:
        return theta.get(x.name, x)
    kids = n.kids(x)
    if not n.slotted:
        return n.rebuild(x, tuple([_ref_subst(theta, c) for c in kids])) if kids else x
    new = []
    for s in kids:
        inner = _ref_unbind(theta, s.binders)
        binders, body = s.binders, s.body
        range_free = set().union(*map(_ref_free_vars, inner.values())) if binders else ()
        if range_free and range_free.intersection(binders):
            fresh = _ref_subst_fresh_namer(range_free | _ref_all_names(body) | set(inner)
                                           | set(binders))
            binders = tuple([fresh(b) if b in range_free else b for b in s.binders])
            body = _ref_rename(body, dict(zip(s.binders, binders)), str)  # str: same names inside
        new.append(Slot(binders, _ref_subst(inner, body)))
    return n.make(n.data(x), tuple(new))


def _ref_well_formed(sig: Signature, x) -> CheckResult:
    """Check symbol declarations, arities, binder counts, and binder
    distinctness. Error kinds: UnknownSymbol, ArityMismatch,
    BinderCountMismatch, DuplicateBinder."""

    def check_app(symbol, table, arity_kind, x, path):
        if symbol not in table:
            return CheckResult.failed("UnknownSymbol", path, f"{arity_kind} {symbol!r} not declared")
        arity = table[symbol]
        if len(x.args) != len(arity):
            return CheckResult.failed(
                "ArityMismatch", path,
                f"{symbol!r} expects {len(arity)} arguments, got {len(x.args)}")
        for i, (s, k) in enumerate(zip(x.args, arity)):
            if len(s.binders) != k:
                return CheckResult.failed(
                    "BinderCountMismatch", path + (i,),
                    f"argument {i} of {symbol!r} binds {k} variables, got {len(s.binders)}")
            if len(set(s.binders)) != len(s.binders):
                return CheckResult.failed(
                    "DuplicateBinder", path + (i,),
                    f"binder list {s.binders} of {symbol!r} has duplicates")
            r = go(s.body, path + (i,))
            if not r.ok:
                return r
        return CheckResult.passed()

    def go(x, path) -> CheckResult:
        if isinstance(x, Var):
            return CheckResult.passed()
        if isinstance(x, App):
            return check_app(x.symbol, sig.functions, "function", x, path)
        if isinstance(x, Atom):
            return check_app(x.pred, sig.predicates, "predicate", x, path)
        if isinstance(x, (Imp, And, Or)):
            r = go(x.a, path + (0,))
            return r if not r.ok else go(x.b, path + (1,))
        if isinstance(x, Bottom):
            return CheckResult.passed()
        if isinstance(x, (Forall, Exists)):
            return go(x.body, path + (0,))
        raise TypeError(f"not a binding-layer term or proposition: {x!r}")

    return go(x, ())


_EQ_NAMES = ("x", "y", "z", "x1", "x2", "y1", "z1")
EQ_SIG = Signature({**SIG.functions, "μ": (2,)}, SIG.predicates)
_EQ_FUNCTIONS = ("f", "g", "Λ", "δ", "c", "μ", "h")  # h is not declared
_EQ_PREDICATES = ("=", "P", "Q", "R")  # R is not declared


def _eq_slots(rng, arity, depth):
    n = len(arity) if arity is not None and rng.random() < 0.8 else rng.randint(0, 3)
    slots = []
    for i in range(n):
        k = arity[i] if arity is not None and i < len(arity) and rng.random() < 0.7 \
            else rng.randint(0, 2)
        binders = tuple(rng.choice(_EQ_NAMES) for _ in range(k))  # duplicates allowed
        slots.append(Slot(binders, _eq_term(rng, depth - 1)))
    return tuple(slots)


def _eq_term(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        return Var(rng.choice(_EQ_NAMES))
    sym = rng.choice(_EQ_FUNCTIONS)
    return App(sym, _eq_slots(rng, EQ_SIG.functions.get(sym), depth))


def _eq_prop(rng, depth):
    pick = rng.random()
    if depth <= 0 or pick < 0.3:
        pred = rng.choice(_EQ_PREDICATES)
        return syntax.Atom(pred, _eq_slots(rng, EQ_SIG.predicates.get(pred), 3))
    if pick < 0.4:
        return syntax.Bottom()
    if pick < 0.7:
        return rng.choice((Forall, syntax.Exists))(rng.choice(_EQ_NAMES), _eq_prop(rng, depth - 1))
    cls = rng.choice((syntax.Imp, syntax.And, syntax.Or))
    return cls(_eq_prop(rng, depth - 1), _eq_prop(rng, depth - 1))


def _eq_inputs(seed, count=1000):
    """count propositions and count // 2 terms."""
    rng = random.Random(seed)
    return [_eq_prop(rng, rng.randint(0, 4)) for _ in range(count)] + \
        [_eq_term(rng, rng.randint(0, 4)) for _ in range(count // 2)]


def _eq_map(rng):
    return {rng.choice(_EQ_NAMES): _eq_term(rng, rng.randint(0, 2))
            for _ in range(rng.randint(0, 3))}


def test_free_vars_and_all_names_match_reference():
    for x in _eq_inputs(0xA1):
        assert free_vars(x) == _ref_free_vars(x), x
        assert syntax.all_names(x) == _ref_all_names(x), x


def test_graft_substitute_canonical_match_reference():
    rng = random.Random(0xA2)
    for x in _eq_inputs(0xA3):
        theta = _eq_map(rng)
        assert graft(theta, x) == _ref_graft(theta, x), x
        assert substitute(theta, x) == _ref_substitute(theta, x), x
        assert syntax.canonical_binders(x) == _ref_canonical_binders(x), x
        # nodes are interned, so == also pins the fresh names subst chose
        assert syntax.subst(theta, x) == _ref_subst(theta, x), x


def test_replacing_walks_recurse_once_per_binder():
    # a 600-binder nest at the default recursion limit: graft took two
    # frames a binder and failed near 500, subst and canonical_binders one
    t = Var("y")
    for i in range(600):
        t = App("Λ", (Slot((f"v{i}",), t),))
    assert free_vars(graft({"y": Var("v0")}, t)) == frozenset()
    assert free_vars(syntax.subst({"y": Var("v0")}, t)) == {"v0"}
    assert syntax.canonical_binders(t).args[0].binders == ("x1",)


@given(st.one_of(term_st(), prop_st()), subst_map_st())
def test_subst_matches_frozen_reference(t, theta):
    assert syntax.subst(theta, t) == _ref_subst(theta, t)


def test_subst_fresh_names_see_renames_pushed_from_outside():
    # x1 is renamed to x11 outside, so x1 is free again for the inner x
    out = syntax.subst({"x": Var("x1"), "y": Var("x")}, T("Λ(x1. Λ(x. g(x1, y)))"))
    assert out == T("Λ(x11. Λ(x1. g(x11, x)))") == _ref_subst({"x": Var("x1"), "y": Var("x")},
                                                                T("Λ(x1. Λ(x. g(x1, y)))"))


def test_nameless_forms_and_alpha_match_reference():
    rng = random.Random(0xA4)
    inputs = _eq_inputs(0xA5)
    for x in inputs:
        # a renamed copy, and an unrelated input of the same kind
        for y in (_ref_substitute({}, x), rng.choice(inputs), _eq_prop(rng, 1)):
            want = _ref_to_debruijn(x) == _ref_to_debruijn(y)
            assert alpha_eq(x, y) == want, (x, y)


def test_well_formed_matches_reference():
    verdicts = set()
    for x in _eq_inputs(0xA6):
        got = well_formed(EQ_SIG, x)
        assert got == _ref_well_formed(EQ_SIG, x), x
        verdicts.add(got.kind)
    assert verdicts >= {None, "UnknownSymbol", "ArityMismatch", "BinderCountMismatch",
                        "DuplicateBinder"}


def test_walks_reject_what_is_not_a_node():
    for walk in (free_vars, syntax.all_names, syntax.canonical_binders):
        with pytest.raises(TypeError):
            walk(App("f", (Slot((), 42),)))
    with pytest.raises(TypeError):
        syntax.map_atoms(lambda a: a, Var("x"))
