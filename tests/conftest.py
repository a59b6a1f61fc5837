"""Shared signatures, hypothesis strategies, and independent oracles.

The oracles deliberately avoid the code paths they check: alpha-equivalence
by the renaming recursion instead of nameless forms, substitution by
grafting after a global freshening pass, and free variables read off the
nameless form.
"""

from __future__ import annotations

import itertools

import hypothesis.strategies as st
import pytest

from bindlog import sigma, syntax
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
    Var,
    graft,
)

SIG = Signature(
    functions={"f": (0,), "g": (0, 0), "Λ": (1,), "δ": (0, 1, 1), "c": ()},
    predicates={"=": (0, 0), "P": (0,), "Q": ()},
)

# counter-suffixed names included on purpose: they collide with the
# fresh-name schemes and keep capture avoidance honest
FREE_NAMES = ("x", "y", "z", "w", "x1", "z1")
BINDER_POOL = ("x", "y", "z", "a", "b", "x1", "w1")


@pytest.fixture
def sig():
    return SIG


def match_pattern(pat, node, binds: dict) -> bool:
    """Does node match the rule pattern pat? Its metavariables are bound in
    binds, through the matcher compiled from pat."""
    return sigma._generated(pat, None)(node, binds) is not None


# ---------------------------------------------------------------------------
# Hypothesis strategies


@st.composite
def term_st(draw, depth=3, scope=()):
    pool = FREE_NAMES + tuple(scope)
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return Var(draw(st.sampled_from(pool)))
    sym, arity = draw(st.sampled_from(sorted(SIG.functions.items())))
    args = []
    for k in arity:
        binders = tuple(draw(st.permutations(BINDER_POOL)))[:k]
        body = draw(term_st(depth=depth - 1, scope=tuple(binders) + tuple(scope)))
        args.append(Slot(binders, body))
    return App(sym, tuple(args))


@st.composite
def prop_st(draw, depth=3):
    pick = draw(st.integers(0, 5)) if depth > 0 else 0
    if pick <= 1:
        pred, arity = draw(st.sampled_from(sorted(SIG.predicates.items())))
        args = []
        for k in arity:
            binders = tuple(draw(st.permutations(BINDER_POOL)))[:k]
            body = draw(term_st(depth=2, scope=binders))
            args.append(Slot(binders, body))
        return Atom(pred, tuple(args))
    if pick == 2:
        return Bottom()
    if pick == 3:
        cls = draw(st.sampled_from((Forall, Exists)))
        return cls(draw(st.sampled_from(FREE_NAMES)), draw(prop_st(depth=depth - 1)))
    cls = draw(st.sampled_from((Imp, And, Or)))
    return cls(draw(prop_st(depth=depth - 1)), draw(prop_st(depth=depth - 1)))


@st.composite
def subst_map_st(draw):
    n = draw(st.integers(1, 3))
    names = draw(st.permutations(FREE_NAMES))[:n]
    return {v: draw(term_st(depth=2)) for v in names}


# ---------------------------------------------------------------------------
# Independent oracles


def alpha_oracle(a, b, counter=None) -> bool:
    """Alpha-equivalence by the renaming recursion: binder lists are grafted
    to shared fresh variables and the bodies compared."""
    if counter is None:
        counter = itertools.count(1)

    def fresh_names(k, *terms):
        used = set()
        for t in terms:
            used |= syntax.all_names(t)
        out = []
        while len(out) < k:
            cand = f"fresh{next(counter)}"
            if cand not in used:
                out.append(cand)
        return out

    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        return a.name == b.name
    if isinstance(a, (App, Atom)):
        head_a = a.symbol if isinstance(a, App) else a.pred
        head_b = b.symbol if isinstance(b, App) else b.pred
        if head_a != head_b or len(a.args) != len(b.args):
            return False
        for sa, sb in zip(a.args, b.args):
            if len(sa.binders) != len(sb.binders):
                return False
            ys = fresh_names(len(sa.binders), sa.body, sb.body)
            ga = graft({x: Var(y) for x, y in zip(sa.binders, ys)}, sa.body)
            gb = graft({x: Var(y) for x, y in zip(sb.binders, ys)}, sb.body)
            if not alpha_oracle(ga, gb, counter):
                return False
        return True
    if isinstance(a, (Imp, And, Or)):
        return alpha_oracle(a.a, b.a, counter) and alpha_oracle(a.b, b.b, counter)
    if isinstance(a, Bottom):
        return True
    if isinstance(a, (Forall, Exists)):
        (y,) = fresh_names(1, a.body, b.body)
        return alpha_oracle(graft({a.var: Var(y)}, a.body),
                            graft({b.var: Var(y)}, b.body), counter)
    raise TypeError(repr(a))


def rename_apart(t, avoid: set[str]):
    """Freshen every binder in t away from `avoid` and from each other, so a
    later graft cannot capture."""
    counter = itertools.count(1)
    taken = set(avoid) | syntax.all_names(t)

    def fresh(base):
        while True:
            cand = f"{base}r{next(counter)}"
            if cand not in taken:
                taken.add(cand)
                return cand

    def go(t):
        if isinstance(t, Var):
            return t
        if isinstance(t, (App, Atom)):
            head = t.symbol if isinstance(t, App) else t.pred
            args = []
            for s in t.args:
                ys = tuple(fresh(b) for b in s.binders)
                body = graft({b: Var(y) for b, y in zip(s.binders, ys)}, s.body)
                args.append(Slot(ys, go(body)))
            return type(t)(head, tuple(args))
        if isinstance(t, (Imp, And, Or)):
            return type(t)(go(t.a), go(t.b))
        if isinstance(t, Bottom):
            return t
        if isinstance(t, (Forall, Exists)):
            y = fresh(t.var)
            return type(t)(y, go(graft({t.var: Var(y)}, t.body)))
        raise TypeError(repr(t))

    return go(t)


def subst_oracle(theta, t):
    """Capture-avoiding substitution via graft-after-global-freshening."""
    avoid = set(theta)
    for u in theta.values():
        avoid |= syntax.all_names(u)
    return graft(theta, rename_apart(t, avoid))


# The nameless form of the named layer, one case per constructor and frozen:
# the free-variable oracle below, alpha_eq's reference comparison and the
# multiset checker of test_proofs read it.

def _ref_to_debruijn(x):
    """Canonical nameless form: bound occurrences become indices counting
    binders outward (the rightmost binder of a slot is index 1), free
    variables keep their names. Injective up to alpha-equivalence."""

    def go(x, ctx: tuple[str, ...]):
        if isinstance(x, Var):
            if x.name in ctx:
                return ("b", ctx.index(x.name) + 1)
            return ("f", x.name)
        if isinstance(x, App):
            return ("app", x.symbol, _go_slots(x.args, ctx))
        if isinstance(x, Atom):
            return ("atom", x.pred, _go_slots(x.args, ctx))
        if isinstance(x, Imp):
            return ("imp", go(x.a, ctx), go(x.b, ctx))
        if isinstance(x, And):
            return ("and", go(x.a, ctx), go(x.b, ctx))
        if isinstance(x, Or):
            return ("or", go(x.a, ctx), go(x.b, ctx))
        if isinstance(x, Bottom):
            return ("bot",)
        if isinstance(x, Forall):
            return ("all", go(x.body, (x.var,) + ctx))
        if isinstance(x, Exists):
            return ("ex", go(x.body, (x.var,) + ctx))
        raise TypeError(f"not a binding-layer term or proposition: {x!r}")

    def _go_slots(slots, ctx):
        return tuple(
            (len(s.binders), go(s.body, tuple(reversed(s.binders)) + ctx)) for s in slots
        )

    return go(x, ())


def free_vars_oracle(t) -> frozenset[str]:
    """Free variables read off the nameless canonical form."""
    names = set()

    def walk(node):
        if isinstance(node, tuple):
            if node and node[0] == "f":
                names.add(node[1])
            for sub in node:
                walk(sub)

    walk(_ref_to_debruijn(t))
    return frozenset(names)
