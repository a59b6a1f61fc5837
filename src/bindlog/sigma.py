"""Sorted explicit-substitution layer.

Terms here use de Bruijn indices for symbol-bound variables, explicit
substitutions (cons, shift, composition, closures), and an indexed family
f_p for every declared function symbol: f_p takes arguments in a context
with p extra bound variables and yields a term of sort p. Sorts are either
a natural n (terms under n binders) or <n,p> (substitutions mapping p
variables to terms of sort n). Free variables always have sort 0.

Propositions over this layer reuse the connective and quantifier nodes of
bindlog.syntax, with binder-free argument slots holding sorted terms.

The module also houses the rewrite engine: the substitution-propagation
system built from a signature, leftmost-innermost and leftmost-outermost
normalization with a step budget, pattern rules loadable from text, and the
confluence/termination probe harnesses.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass, field
from typing import Callable

from . import syntax
from .errors import (
    BindLogError,
    IndexOutOfRange,
    ParseError,
    SortMismatch,
    StepBudgetExceeded,
)
from .syntax import And, Atom, Bottom, Exists, Forall, Imp, Or, Signature, Slot

DEFAULT_BUDGET = 10**6

# ---------------------------------------------------------------------------
# Sorts and terms


@dataclass(frozen=True)
class TermSort:
    n: int

    def __str__(self):
        return str(self.n)


@dataclass(frozen=True)
class SubstSort:
    """<n,p>: maps p variables to terms of sort n."""

    n: int
    p: int

    def __str__(self):
        return f"<{self.n},{self.p}>"


Sort = TermSort | SubstSort


@dataclass(frozen=True)
class Index:
    """The constant i_n of sort n, 1 <= i <= n."""

    i: int
    n: int


@dataclass(frozen=True)
class FreeVar:
    """A named variable; always of sort 0."""

    name: str


@dataclass(frozen=True)
class FApp:
    """f_p(args): member p of the family of the binding symbol f."""

    f: str
    p: int
    args: tuple


@dataclass(frozen=True)
class Closure:
    """t[s]."""

    t: object
    s: object


@dataclass(frozen=True)
class Id:
    n: int


@dataclass(frozen=True)
class Cons:
    """t . s"""

    t: object
    s: object


@dataclass(frozen=True)
class Shift:
    """up_n, of sort <n+1,n>."""

    n: int


@dataclass(frozen=True)
class Comp:
    """s1 o s2"""

    s1: object
    s2: object


LTerm = Index | FreeVar | FApp | Closure | Id | Cons | Shift | Comp


def shift_chain(base: int, count: int):
    """up_base o (up_base+1 o ...), right-associated; count >= 1."""
    if count < 1:
        raise ValueError("shift_chain needs count >= 1")
    if count == 1:
        return Shift(base)
    return Comp(Shift(base), shift_chain(base + 1, count - 1))


def index_normal_form(i: int, n: int):
    """The spelled-out normal form of the index i_n: 1 for i = 1, else
    1[up ... chains], matching the orientation of the index rule."""
    if i == 1:
        return Index(1, n)
    return Closure(Index(1, n - i + 1), shift_chain(n - i + 1, i - 1))


# ---------------------------------------------------------------------------
# Sort checking


def sort_of(sig: Signature, t, path: tuple[int, ...] = ()) -> Sort:
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
            sa = sort_of(sig, a, path + (i,))
            if sa != TermSort(k + t.p):
                raise SortMismatch(path + (i,), str(TermSort(k + t.p)), str(sa))
        return TermSort(t.p)
    if isinstance(t, Closure):
        st = sort_of(sig, t.t, path + (0,))
        ss = sort_of(sig, t.s, path + (1,))
        if not isinstance(st, TermSort):
            raise SortMismatch(path + (0,), "a term sort", str(st))
        if not isinstance(ss, SubstSort) or ss.p != st.n:
            raise SortMismatch(path + (1,), f"<n,{st.n}>", str(ss))
        return TermSort(ss.n)
    if isinstance(t, Cons):
        st = sort_of(sig, t.t, path + (0,))
        ss = sort_of(sig, t.s, path + (1,))
        if not isinstance(st, TermSort):
            raise SortMismatch(path + (0,), "a term sort", str(st))
        if not isinstance(ss, SubstSort) or ss.n != st.n:
            raise SortMismatch(path + (1,), f"<{st.n},p>", str(ss))
        return SubstSort(ss.n, ss.p + 1)
    if isinstance(t, Comp):
        s1 = sort_of(sig, t.s1, path + (0,))
        s2 = sort_of(sig, t.s2, path + (1,))
        if not isinstance(s1, SubstSort):
            raise SortMismatch(path + (0,), "a substitution sort", str(s1))
        if not isinstance(s2, SubstSort) or s2.p != s1.n:
            raise SortMismatch(path + (1,), f"<q,{s1.n}>", str(s2))
        return SubstSort(s2.n, s1.p)
    raise TypeError(f"not a sorted term: {t!r}")


def lprop_sorts_ok(sig: Signature, a) -> bool:
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
        return lprop_sorts_ok(sig, a.a) and lprop_sorts_ok(sig, a.b)
    if isinstance(a, Bottom):
        return True
    if isinstance(a, (Forall, Exists)):
        return lprop_sorts_ok(sig, a.body)
    raise TypeError(f"not a proposition: {a!r}")


# ---------------------------------------------------------------------------
# Variables, grafting, substitution, alpha on this layer


def free_vars_l(x) -> frozenset[str]:
    if isinstance(x, FreeVar):
        return frozenset((x.name,))
    if isinstance(x, (Index, Id, Shift)):
        return frozenset()
    if isinstance(x, FApp):
        acc: set[str] = set()
        for a in x.args:
            acc |= free_vars_l(a)
        return frozenset(acc)
    if isinstance(x, (Closure, Cons)):
        return free_vars_l(x.t) | free_vars_l(x.s)
    if isinstance(x, Comp):
        return free_vars_l(x.s1) | free_vars_l(x.s2)
    if isinstance(x, Atom):
        acc = set()
        for s in x.args:
            acc |= free_vars_l(s.body) - set(s.binders)
        return frozenset(acc)
    if isinstance(x, (Imp, And, Or)):
        return free_vars_l(x.a) | free_vars_l(x.b)
    if isinstance(x, Bottom):
        return frozenset()
    if isinstance(x, (Forall, Exists)):
        return free_vars_l(x.body) - {x.var}
    raise TypeError(f"not a sorted term or proposition: {x!r}")


def all_names_l(x) -> frozenset[str]:
    """Every variable name occurring in x, quantifier-bound ones included."""
    if isinstance(x, (Forall, Exists)):
        return all_names_l(x.body) | {x.var}
    if isinstance(x, (Imp, And, Or)):
        return all_names_l(x.a) | all_names_l(x.b)
    if isinstance(x, Atom):
        acc: set[str] = set()
        for s in x.args:
            acc |= set(s.binders) | all_names_l(s.body)
        return frozenset(acc)
    if isinstance(x, Bottom):
        return frozenset()
    acc = set()
    if isinstance(x, FreeVar):
        acc.add(x.name)
    for c in _children(x):
        acc |= all_names_l(c)
    return frozenset(acc)


def graft_l(theta, x):
    """Replace variables by terms. Terms of this layer have no binders, so
    on terms this is plain replacement; quantifiers restrict the map."""
    if not theta:
        return x
    if isinstance(x, FreeVar):
        return theta.get(x.name, x)
    if isinstance(x, (Index, Id, Shift)):
        return x
    if isinstance(x, FApp):
        return FApp(x.f, x.p, tuple(graft_l(theta, a) for a in x.args))
    if isinstance(x, Closure):
        return Closure(graft_l(theta, x.t), graft_l(theta, x.s))
    if isinstance(x, Cons):
        return Cons(graft_l(theta, x.t), graft_l(theta, x.s))
    if isinstance(x, Comp):
        return Comp(graft_l(theta, x.s1), graft_l(theta, x.s2))
    if isinstance(x, Atom):
        return Atom(x.pred, tuple(Slot(s.binders, graft_l(theta, s.body)) for s in x.args))
    if isinstance(x, (Imp, And, Or)):
        return type(x)(graft_l(theta, x.a), graft_l(theta, x.b))
    if isinstance(x, Bottom):
        return x
    if isinstance(x, (Forall, Exists)):
        inner = {v: t for v, t in theta.items() if v != x.var}
        return type(x)(x.var, graft_l(inner, x.body))
    raise TypeError(f"not a sorted term or proposition: {x!r}")


def substitute_l(theta, x):
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
            range_free |= free_vars_l(t)
        var, body = x.var, x.body
        if var in range_free:
            # the fresh name must avoid every name in the body, bound ones
            # included, or an inner quantifier could capture it
            avoid = range_free | all_names_l(body) | set(inner)
            k = 1
            while f"{var}{k}" in avoid:
                k += 1
            fresh = f"{var}{k}"
            body = graft_l({var: FreeVar(fresh)}, body)
            var = fresh
        return type(x)(var, substitute_l(inner, body))
    if isinstance(x, (Imp, And, Or)):
        return type(x)(substitute_l(theta, x.a), substitute_l(theta, x.b))
    if isinstance(x, (Bottom, Atom)) or isinstance(x, LTerm):
        return graft_l(theta, x)
    raise TypeError(f"not a sorted term or proposition: {x!r}")


def alpha_eq_l(a, b) -> bool:
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


# ---------------------------------------------------------------------------
# Rewrite systems


@dataclass(frozen=True)
class Rule:
    name: str
    apply: Callable  # (node, sig) -> replacement | None
    # What the left side's head must be (see _head_key): a node class on
    # this layer, a head symbol on named terms. Nodes with another head are
    # never offered to the rule.
    head: object
    display: str = ""


def _head_key(x):
    return x.symbol if type(x) is syntax.App else type(x)


@dataclass(frozen=True)
class RewriteSystem:
    name: str
    rules: tuple[Rule, ...]
    layer: str  # "term" (named binding terms) or "lterm" (this layer)
    sig: Signature | None = None

    @functools.cached_property
    def _by_head(self) -> dict[object, tuple[Rule, ...]]:
        index: dict[object, tuple[Rule, ...]] = {}
        for r in self.rules:
            index[r.head] = index.get(r.head, ()) + (r,)
        return index

    def rules_at(self, x) -> tuple[Rule, ...]:
        """The rules that can fire at x's head, in declaration order."""
        return self._by_head.get(_head_key(x), ())

    def rule(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(name)

    def rule_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rules)


def _children(x) -> tuple:
    if isinstance(x, FApp):
        return x.args
    if isinstance(x, (Closure, Cons)):
        return (x.t, x.s)
    if isinstance(x, Comp):
        return (x.s1, x.s2)
    if isinstance(x, syntax.App):
        return tuple(s.body for s in x.args)
    return ()


def _rebuild(x, kids: tuple):
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


def _head_rewrite(rs: RewriteSystem, x):
    for rule in rs.rules_at(x):
        r = rule.apply(x, rs.sig)
        if r is not None:
            return r
    return None


class _Budget:
    """Step budget of one normalize call, and the nodes it found normal.

    Marks are keyed by object identity; the table keeps each marked node
    alive so its id cannot be reused. A normal node rewrites to itself in
    zero steps under either strategy, so skipping it changes no result."""

    __slots__ = ("left", "limit", "steps", "normal")

    def __init__(self, limit: int):
        self.left = limit
        self.limit = limit
        self.steps = 0
        self.normal: dict[int, object] = {}

    def spend(self):
        if self.left <= 0:
            raise StepBudgetExceeded(self.limit)
        self.left -= 1
        self.steps += 1


def _check_step_sorts(sig, before, after):
    # Sorts are compositional, so comparing the redex with its replacement
    # suffices to establish preservation for the whole term.
    sb = sort_of(sig, before)
    sa = sort_of(sig, after)
    if sb != sa:
        raise SortMismatch((), str(sb), str(sa))


def _nf_innermost(rs, x, budget, check_sorts):
    normal = budget.normal
    while id(x) not in normal:
        kids = _children(x)
        if kids:
            nfs = tuple(_nf_innermost(rs, c, budget, check_sorts) for c in kids)
            # keep x itself when no child changed, so a mark on it still holds
            if any(n is not c for n, c in zip(nfs, kids)):
                x = _rebuild(x, nfs)
        r = _head_rewrite(rs, x)
        if r is None:
            normal[id(x)] = x
            break
        budget.spend()
        if check_sorts:
            _check_step_sorts(rs.sig, x, r)
        x = r
    return x


def _step_outermost(rs, x, normal):
    """One leftmost-outermost step; returns (new_term, redex, replacement),
    or None after marking x normal."""
    if id(x) in normal:
        return None
    r = _head_rewrite(rs, x)
    if r is not None:
        return r, x, r
    kids = _children(x)
    for i, c in enumerate(kids):
        sub = _step_outermost(rs, c, normal)
        if sub is not None:
            new_c, redex, repl = sub
            return _rebuild(x, kids[:i] + (new_c,) + kids[i + 1:]), redex, repl
    normal[id(x)] = x
    return None


def _nf_outermost(rs, x, budget, check_sorts):
    while True:
        sub = _step_outermost(rs, x, budget.normal)
        if sub is None:
            return x
        x, redex, repl = sub
        budget.spend()
        if check_sorts:
            _check_step_sorts(rs.sig, redex, repl)


def _norm_value(rs, x, budget, strategy, check_sorts):
    if strategy == "innermost":
        return _nf_innermost(rs, x, budget, check_sorts)
    if strategy == "outermost":
        return _nf_outermost(rs, x, budget, check_sorts)
    raise ValueError(f"unknown strategy {strategy!r}")


def _norm_any(rs, x, budget, strategy, check_sorts):
    if isinstance(x, Atom):
        return Atom(x.pred, tuple(
            Slot(s.binders, _norm_value(rs, s.body, budget, strategy, check_sorts))
            for s in x.args))
    if isinstance(x, (Imp, And, Or)):
        return type(x)(_norm_any(rs, x.a, budget, strategy, check_sorts),
                       _norm_any(rs, x.b, budget, strategy, check_sorts))
    if isinstance(x, Bottom):
        return x
    if isinstance(x, (Forall, Exists)):
        return type(x)(x.var, _norm_any(rs, x.body, budget, strategy, check_sorts))
    return _norm_value(rs, x, budget, strategy, check_sorts)


def normalize(rs: RewriteSystem, x, budget: int = DEFAULT_BUDGET,
              strategy: str = "innermost", check_sorts: bool = False):
    """Normal form of a term or proposition (rules apply to the terms inside
    atoms). Raises StepBudgetExceeded past the step budget."""
    return _norm_any(rs, x, _Budget(budget), strategy, check_sorts)


def normalize_steps(rs: RewriteSystem, x, budget: int = DEFAULT_BUDGET,
                    strategy: str = "innermost", check_sorts: bool = False):
    b = _Budget(budget)
    out = _norm_any(rs, x, b, strategy, check_sorts)
    return out, b.steps


def all_one_step(rs: RewriteSystem, x) -> list[tuple[tuple[int, ...], str, object]]:
    """Every (position, rule, result-of-one-step) triple for a term."""
    results: list[tuple[tuple[int, ...], str, object]] = []

    def walk(node, wrap, path):
        for rule in rs.rules_at(node):
            r = rule.apply(node, rs.sig)
            if r is not None:
                results.append((path, rule.name, wrap(r)))
        kids = _children(node)
        for i, c in enumerate(kids):
            def wrap_i(rc, node=node, kids=kids, i=i, wrap=wrap):
                return wrap(_rebuild(node, kids[:i] + (rc,) + kids[i + 1:]))
            walk(c, wrap_i, path + (i,))

    walk(x, lambda r: r, ())
    return results


def has_redex(rs: RewriteSystem, x) -> bool:
    return _head_rewrite(rs, x) is not None or any(has_redex(rs, c) for c in _children(x))


# ---------------------------------------------------------------------------
# The substitution-propagation system


def sigma_system(sig: Signature) -> RewriteSystem:
    """The rewrite system that pushes closures through indices, cons, shift,
    composition, and the indexed symbol families of the signature. Sort
    subscripts left implicit in the usual presentation are resolved from the
    sorts of the matched subterms."""

    def index_expand(t, _sig):
        if isinstance(t, Index) and t.i >= 2:
            return index_normal_form(t.i, t.n)
        return None

    def var_cons(t, _sig):
        if isinstance(t, Closure) and isinstance(t.t, Index) and t.t.i == 1 \
                and isinstance(t.s, Cons):
            return t.s.t
        return None

    def clos_id(t, _sig):
        if isinstance(t, Closure) and isinstance(t.s, Id):
            return t.t
        return None

    def clos_clos(t, _sig):
        if isinstance(t, Closure) and isinstance(t.t, Closure):
            return Closure(t.t.t, Comp(t.t.s, t.s))
        return None

    def id_left(t, _sig):
        if isinstance(t, Comp) and isinstance(t.s1, Id):
            return t.s2
        return None

    def shift_cons(t, _sig):
        if isinstance(t, Comp) and isinstance(t.s1, Shift) and isinstance(t.s2, Cons):
            return t.s2.s
        return None

    def assoc(t, _sig):
        if isinstance(t, Comp) and isinstance(t.s1, Comp):
            return Comp(t.s1.s1, Comp(t.s1.s2, t.s2))
        return None

    def map_env(t, _sig):
        if isinstance(t, Comp) and isinstance(t.s1, Cons):
            return Cons(Closure(t.s1.t, t.s2), Comp(t.s1.s, t.s2))
        return None

    def id_right(t, _sig):
        if isinstance(t, Comp) and isinstance(t.s2, Id):
            return t.s1
        return None

    def var_shift(t, _sig):
        if isinstance(t, Cons) and isinstance(t.t, Index) and t.t.i == 1 \
                and isinstance(t.s, Shift) and t.t.n == t.s.n + 1:
            return Id(t.s.n + 1)
        return None

    def s_cons(t, _sig):
        if isinstance(t, Cons) and isinstance(t.t, Closure) \
                and isinstance(t.t.t, Index) and t.t.t.i == 1 \
                and isinstance(t.s, Comp) and isinstance(t.s.s1, Shift) \
                and t.s.s2 == t.t.s:
            return t.t.s
        return None

    def f_push(t, sig):
        if not (isinstance(t, Closure) and isinstance(t.t, FApp)):
            return None
        fa = t.t
        if fa.f not in sig.functions:
            raise SortMismatch((), "a declared function symbol", repr(fa.f))
        arity = sig.functions[fa.f]
        ss = sort_of(sig, t.s)
        if not isinstance(ss, SubstSort) or ss.p != fa.p:
            return None
        q = ss.n
        new_args = []
        for a, k in zip(fa.args, arity):
            if k == 0:
                sub = t.s
            else:
                sub = Comp(t.s, shift_chain(q, k))
                for j in range(k, 0, -1):
                    sub = Cons(index_normal_form(j, k + q), sub)
            new_args.append(Closure(a, sub))
        return FApp(fa.f, q, tuple(new_args))

    rules = (
        Rule("IndexExpand", index_expand, Index, "n+1 -> 1[up^n]"),
        Rule("VarCons", var_cons, Closure, "1[t . s] -> t"),
        Rule("Id", clos_id, Closure, "t[id] -> t"),
        Rule("Clos", clos_clos, Closure, "(t[s])[s'] -> t[s o s']"),
        Rule("IdL", id_left, Comp, "id o s -> s"),
        Rule("ShiftCons", shift_cons, Comp, "up o (t . s) -> s"),
        Rule("AssEnv", assoc, Comp, "(s1 o s2) o s3 -> s1 o (s2 o s3)"),
        Rule("MapEnv", map_env, Comp, "(t . s) o s' -> t[s'] . (s o s')"),
        Rule("IdR", id_right, Comp, "s o id -> s"),
        Rule("VarShift", var_shift, Cons, "1 . up -> id"),
        Rule("SCons", s_cons, Cons, "1[s] . (up o s) -> s"),
        Rule("FPush", f_push, Closure, "f_p(t1,...,tn)[s] -> f_q(t1[...], ...)"),
    )
    return RewriteSystem("sigma", rules, "lterm", sig)


def is_F_term(sig: Signature, t, rs: RewriteSystem | None = None) -> bool:
    """True iff t is normal for the substitution system. Named variables of
    this layer are all of sort 0, so normality is the whole condition."""
    if rs is None:
        rs = sigma_system(sig)
    return not has_redex(rs, t)


def is_F_prop(sig: Signature, a, rs: RewriteSystem | None = None) -> bool:
    if rs is None:
        rs = sigma_system(sig)
    if isinstance(a, Atom):
        return all(not s.binders and not has_redex(rs, s.body) for s in a.args)
    if isinstance(a, (Imp, And, Or)):
        return is_F_prop(sig, a.a, rs) and is_F_prop(sig, a.b, rs)
    if isinstance(a, Bottom):
        return True
    if isinstance(a, (Forall, Exists)):
        return is_F_prop(sig, a.body, rs)
    raise TypeError(f"not a proposition: {a!r}")


# ---------------------------------------------------------------------------
# Probe harnesses


@dataclass
class ConfluenceReport:
    samples: int = 0
    with_multiple_redexes: int = 0
    peaks_checked: int = 0
    divergent: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergent

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.divergent)} divergent peaks"
        return (f"confluence probe: {self.samples} samples, "
                f"{self.with_multiple_redexes} with >=2 redexes, "
                f"{self.peaks_checked} peaks checked, {verdict}")


@dataclass
class TerminationReport:
    samples: int = 0
    max_steps_innermost: int = 0
    max_steps_outermost: int = 0
    nf_mismatches: list[str] = field(default_factory=list)
    budget_failures: list[str] = field(default_factory=list)
    sort_violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.nf_mismatches or self.budget_failures or self.sort_violations)

    def summary(self) -> str:
        verdict = "ok" if self.ok else (
            f"{len(self.nf_mismatches)} nf mismatches, "
            f"{len(self.budget_failures)} budget failures, "
            f"{len(self.sort_violations)} sort violations")
        return (f"termination probe: {self.samples} samples, "
                f"max steps innermost {self.max_steps_innermost}, "
                f"outermost {self.max_steps_outermost}, {verdict}")


def local_confluence_probe(rs: RewriteSystem, size_bound: int = 40, samples: int = 1000,
                           *, seed: int = 0, budget: int = DEFAULT_BUDGET) -> ConfluenceReport:
    """Rewrite every redex of sampled sort-correct terms one step and check
    all results reach one common normal form."""
    from . import gen

    rng = random.Random(seed)
    report = ConfluenceReport()
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


def termination_probe(rs: RewriteSystem, size_bound: int = 40, samples: int = 1000,
                      *, seed: int = 0, budget: int = DEFAULT_BUDGET,
                      check_sorts: bool = True) -> TerminationReport:
    """Normalize sampled terms under both strategies within the budget,
    recording step counts, normal-form agreement, and sort preservation."""
    from . import gen

    rng = random.Random(seed)
    report = TerminationReport()
    for _ in range(samples):
        t = gen.random_lterm(rng, rs.sig, gen.random_sort(rng), size_bound)
        report.samples += 1
        try:
            nf_in, st_in = normalize_steps(rs, t, budget=budget, strategy="innermost",
                                           check_sorts=check_sorts)
            nf_out, st_out = normalize_steps(rs, t, budget=budget, strategy="outermost",
                                             check_sorts=check_sorts)
        except StepBudgetExceeded:
            report.budget_failures.append(print_lterm(t))
            continue
        except SortMismatch:
            report.sort_violations.append(print_lterm(t))
            continue
        report.max_steps_innermost = max(report.max_steps_innermost, st_in)
        report.max_steps_outermost = max(report.max_steps_outermost, st_out)
        if nf_in != nf_out:
            report.nf_mismatches.append(print_lterm(t))
    return report


# ---------------------------------------------------------------------------
# Pattern rules and rule files


@dataclass(frozen=True)
class MetaT:
    """Metavariable over subterms (?t)."""

    name: str


@dataclass(frozen=True)
class MetaN:
    """Numeric metavariable over sort indices (?n, ?n+1)."""

    name: str
    offset: int = 0


def _match_num(pat, val, binds) -> bool:
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


def _build_num(pat, binds) -> int:
    if isinstance(pat, int):
        return pat
    return binds["#" + pat.name] + pat.offset


def match_pattern(pat, node, binds: dict) -> bool:
    if isinstance(pat, MetaT):
        if pat.name in binds:
            return binds[pat.name] == node
        binds[pat.name] = node
        return True
    if isinstance(pat, Index):
        return isinstance(node, Index) and _match_num(pat.i, node.i, binds) \
            and _match_num(pat.n, node.n, binds)
    if isinstance(pat, Id):
        return isinstance(node, Id) and _match_num(pat.n, node.n, binds)
    if isinstance(pat, Shift):
        return isinstance(node, Shift) and _match_num(pat.n, node.n, binds)
    if isinstance(pat, FreeVar):
        return isinstance(node, FreeVar) and pat.name == node.name
    if isinstance(pat, FApp):
        return (isinstance(node, FApp) and pat.f == node.f
                and _match_num(pat.p, node.p, binds)
                and len(pat.args) == len(node.args)
                and all(match_pattern(a, b, binds) for a, b in zip(pat.args, node.args)))
    if isinstance(pat, Closure):
        return isinstance(node, Closure) and match_pattern(pat.t, node.t, binds) \
            and match_pattern(pat.s, node.s, binds)
    if isinstance(pat, Cons):
        return isinstance(node, Cons) and match_pattern(pat.t, node.t, binds) \
            and match_pattern(pat.s, node.s, binds)
    if isinstance(pat, Comp):
        return isinstance(node, Comp) and match_pattern(pat.s1, node.s1, binds) \
            and match_pattern(pat.s2, node.s2, binds)
    if isinstance(pat, syntax.Var):
        return pat == node
    if isinstance(pat, syntax.App):
        return (isinstance(node, syntax.App) and pat.symbol == node.symbol
                and len(pat.args) == len(node.args)
                and all(s.binders == u.binders and match_pattern(s.body, u.body, binds)
                        for s, u in zip(pat.args, node.args)))
    raise TypeError(f"bad pattern node: {pat!r}")


def build_pattern(pat, binds: dict):
    if isinstance(pat, MetaT):
        return binds[pat.name]
    if isinstance(pat, Index):
        return Index(_build_num(pat.i, binds), _build_num(pat.n, binds))
    if isinstance(pat, Id):
        return Id(_build_num(pat.n, binds))
    if isinstance(pat, Shift):
        return Shift(_build_num(pat.n, binds))
    if isinstance(pat, FreeVar):
        return pat
    if isinstance(pat, FApp):
        return FApp(pat.f, _build_num(pat.p, binds),
                    tuple(build_pattern(a, binds) for a in pat.args))
    if isinstance(pat, Closure):
        return Closure(build_pattern(pat.t, binds), build_pattern(pat.s, binds))
    if isinstance(pat, Cons):
        return Cons(build_pattern(pat.t, binds), build_pattern(pat.s, binds))
    if isinstance(pat, Comp):
        return Comp(build_pattern(pat.s1, binds), build_pattern(pat.s2, binds))
    if isinstance(pat, syntax.Var):
        return pat
    if isinstance(pat, syntax.App):
        return syntax.App(pat.symbol,
                          tuple(Slot(s.binders, build_pattern(s.body, binds)) for s in pat.args))
    raise TypeError(f"bad pattern node: {pat!r}")


def _num_fields(pat) -> tuple:
    if isinstance(pat, Index):
        return (pat.i, pat.n)
    if isinstance(pat, (Id, Shift)):
        return (pat.n,)
    if isinstance(pat, FApp):
        return (pat.p,)
    return ()


def _meta_names(pat, terms: set[str], nums: set[str]):
    if isinstance(pat, MetaT):
        terms.add(pat.name)
        return
    for v in _num_fields(pat):
        if isinstance(v, MetaN):
            nums.add(v.name)
    for c in _children(pat):
        _meta_names(c, terms, nums)


def compile_rule(name: str, lhs, rhs, display: str = "") -> Rule:
    if isinstance(lhs, MetaT):
        raise ParseError(f"rule {name}: left side is a lone metavariable")

    def apply(node, _sig, lhs=lhs, rhs=rhs):
        binds: dict = {}
        if match_pattern(lhs, node, binds):
            return build_pattern(rhs, binds)
        return None

    return Rule(name, apply, _head_key(lhs), display)


class _TermPatternParser(syntax.Parser):
    def term(self):
        if self.peek()[0] == "meta":
            return MetaT(self.next()[1][1:])
        return super().term()


def _check_rule_sorts(sig: Signature | None, name: str, lhs, rhs,
                      tries: int = 400, need: int = 3):
    """Sampled load-time check that a sorted-layer rule preserves sorts:
    random instantiations of the metavariables that sort-check on the left
    must give the same sort on the right."""
    from . import gen

    if sig is None:
        sig = Signature({}, {})
    terms: set[str] = set()
    nums: set[str] = set()
    _meta_names(lhs, terms, nums)
    rng = random.Random(0xBD10)
    successes = 0
    for _ in range(tries):
        binds: dict = {}
        for nm in nums:
            binds["#" + nm] = rng.randrange(0, 3)
        for nm in terms:
            binds[nm] = gen.random_lterm(rng, sig, gen.random_sort(rng, hi=2), 3)
        try:
            inst_l = build_pattern(lhs, binds)
            sl = sort_of(sig, inst_l)
        except BindLogError:
            continue
        try:
            inst_r = build_pattern(rhs, binds)
            sr = sort_of(sig, inst_r)
        except BindLogError as e:
            raise ParseError(f"rule {name!r} breaks sorting on the right: {e}") from None
        if sl != sr:
            raise ParseError(f"rule {name!r} does not preserve sorts: {sl} -> {sr}")
        successes += 1
    if successes < need:
        raise ParseError(f"rule {name!r}: found no sort-consistent instantiation to check")


def load_rules(text: str, sig: Signature | None = None, name: str = "user") -> RewriteSystem:
    """Parse a rewrite-rule file: optional `syntax term|lterm` header, then
    lines `name: lhs -> rhs` with metavariables ?t, ?s and numeric ?n."""
    layer = "term"
    rules: list[Rule] = []
    lines = [l for l in text.splitlines()]
    body_start = 0
    for i, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("syntax"):
            layer = line.split()[1]
            if layer not in ("term", "lterm"):
                raise ParseError(f"unknown rule syntax {layer!r}", line=i + 1)
            body_start = i + 1
        break
    for lineno, raw in enumerate(lines[body_start:], start=body_start + 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"bad rule line: {raw!r}", line=lineno)
        rname, rest = line.split(":", 1)
        rname = rname.strip()
        if layer == "term":
            p = _TermPatternParser(rest)
            lhs = p.term()
            p.expect("arrow")
            rhs = p.term()
            p.done()
            _check_term_pattern(rname, lhs)
            _check_term_pattern(rname, rhs)
        else:
            p = LParser(rest)
            lhs = p.term()
            p.expect("arrow")
            rhs = p.term()
            p.done()
            _check_rule_sorts(sig, rname, lhs, rhs)
        rules.append(compile_rule(rname, lhs, rhs, display=rest.strip()))
    if not rules:
        raise ParseError("rule file declares no rules")
    return RewriteSystem(name, tuple(rules), layer, sig)


def _check_term_pattern(name, pat):
    if isinstance(pat, syntax.App):
        for s in pat.args:
            if s.binders:
                raise ParseError(f"rule {name!r}: binders are not allowed in rewrite patterns")
            _check_term_pattern(name, s.body)


# ---------------------------------------------------------------------------
# Text syntax for this layer
#
# indices `3_5`, closures `t[s]`, `id_4`, cons `t . s`, `up_2`,
# composition `s o s'`, symbol families `f_2(...)`; `o` is reserved.

_LTOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<imp>=>)
      | (?P<and>/\\)
      | (?P<or>\\/)
      | (?P<turnstile>\|-)
      | (?P<arrow>->)
      | (?P<index>(\d+|\?\w+(\+\d+)?)_(\d+|\?\w+(\+\d+)?)(?!\w))
      | (?P<id>id_(\d+|\?\w+(\+\d+)?)(?!\w))
      | (?P<up>up_(\d+|\?\w+(\+\d+)?)(?!\w))
      | (?P<fam>[^\W\d]\w*'*_(\d+|\?\w+(\+\d+)?)(?=\())
      | (?P<meta>\?\w+)
      | (?P<comp>o(?!\w))
      | (?P<ident>[^\W\d]\w*'*)
      | (?P<lbrack>\[) | (?P<rbrack>\]) | (?P<lpar>\() | (?P<rpar>\))
      | (?P<comma>,) | (?P<dot>\.)
      | (?P<sym>[=+*×<>])
    """,
    re.VERBOSE | re.UNICODE,
)


def _parse_sub(txt: str):
    if txt.startswith("?"):
        if "+" in txt:
            nm, off = txt[1:].split("+")
            return MetaN(nm, int(off))
        return MetaN(txt[1:])
    return int(txt)


class LParser(syntax.Parser):
    """Parser for sorted terms and for propositions over them."""

    token_re = _LTOKEN_RE

    def term(self):
        return self._cons()

    def term_slot(self) -> Slot:
        return Slot((), self._cons())

    def _cons(self):
        left = self._comp()
        if self.peek()[0] == "dot":
            self.next()
            return Cons(left, self._cons())
        return left

    def _comp(self):
        left = self._postfix()
        if self.peek()[0] == "comp":
            self.next()
            return Comp(left, self._comp())
        return left

    def _postfix(self):
        t = self._atom()
        while self.peek()[0] == "lbrack":
            self.next()
            s = self._cons()
            self.expect("rbrack")
            t = Closure(t, s)
        return t

    def _atom(self):
        kind, val, pos = self.next()
        if kind == "index":
            i_txt, n_txt = val.rsplit("_", 1)
            return Index(_parse_sub(i_txt), _parse_sub(n_txt))
        if kind == "id":
            return Id(_parse_sub(val[3:]))
        if kind == "up":
            return Shift(_parse_sub(val[3:]))
        if kind == "fam":
            fname, p_txt = val.rsplit("_", 1)
            self.expect("lpar")
            args = []
            if self.peek()[0] != "rpar":
                args.append(self._cons())
                while self.peek()[0] == "comma":
                    self.next()
                    args.append(self._cons())
            self.expect("rpar")
            return FApp(fname, _parse_sub(p_txt), tuple(args))
        if kind == "meta":
            return MetaT(val[1:])
        if kind == "name":
            return FreeVar(val)
        if kind == "lpar":
            t = self._cons()
            self.expect("rpar")
            return t
        raise ParseError(f"expected a sorted term, found {val!r}", pos=pos)


def parse_lterm(text: str):
    p = LParser(text)
    t = p.term()
    p.done()
    return t


def parse_lprop(text: str):
    p = LParser(text)
    a = p.prop()
    p.done()
    return a


# precedence: postfix/atoms 3, composition 2, cons 1
def _pl(t, level: int) -> str:
    if isinstance(t, Index):
        return f"{t.i}_{t.n}"
    if isinstance(t, FreeVar):
        return t.name
    if isinstance(t, Id):
        return f"id_{t.n}"
    if isinstance(t, Shift):
        return f"up_{t.n}"
    if isinstance(t, FApp):
        return f"{t.f}_{t.p}({', '.join(_pl(a, 0) for a in t.args)})"
    if isinstance(t, Closure):
        return f"{_pl(t.t, 3)}[{_pl(t.s, 0)}]"
    if isinstance(t, Comp):
        s = f"{_pl(t.s1, 3)} o {_pl(t.s2, 2)}"
        return f"({s})" if level > 2 else s
    if isinstance(t, Cons):
        s = f"{_pl(t.t, 2)} . {_pl(t.s, 1)}"
        return f"({s})" if level > 1 else s
    if isinstance(t, MetaT):
        return f"?{t.name}"
    raise TypeError(f"not a sorted term: {t!r}")


def print_lterm(t) -> str:
    return _pl(t, 0)


def print_lprop(a) -> str:
    return syntax.print_prop(a)


for _cls in (Index, FreeVar, FApp, Closure, Id, Cons, Shift, Comp):
    _cls.__str__ = lambda self: print_lterm(self)  # type: ignore[assignment]

# Lets the shared proposition printer render atoms over this layer.
syntax._ext_term_printer = print_lterm
