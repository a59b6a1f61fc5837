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
import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from . import syntax
from .errors import (
    BindLogError,
    CheckResult,
    IndexOutOfRange,
    ParseError,
    SortMismatch,
    StepBudgetExceeded,
)
from .syntax import NODE_TYPES, Signature, Slot, node_class

DEFAULT_BUDGET = 10**6

# ---------------------------------------------------------------------------
# Sorts and terms


class _Interned(syntax.Node):
    __slots__ = ("_sort",)  # _sort: (signature, sort), see sort_of


@node_class(("n",), walked=False)
class TermSort(_Interned):
    n: int


@node_class(("n", "p"), walked=False)
class SubstSort(_Interned):
    """<n,p>: maps p variables to terms of sort n."""

    n: int
    p: int


Sort = TermSort | SubstSort


@node_class(("i", "n"))
class Index(_Interned):
    """The constant i_n of sort n, 1 <= i <= n."""

    i: int
    n: int


@node_class(("name",), variable=True)
class FreeVar(_Interned):
    """A named variable; always of sort 0."""

    name: str


@node_class(("f", "p"), ("args",), seq=True)
class FApp(_Interned):
    """f_p(args): member p of the family of the binding symbol f."""

    f: str
    p: int
    args: tuple


@node_class(kids=("t", "s"))
class Closure(_Interned):
    """t[s]."""

    t: object
    s: object


@node_class(("n",))
class Id(_Interned):
    n: int


@node_class(kids=("t", "s"))
class Cons(_Interned):
    """t . s"""

    t: object
    s: object


@node_class(("n",))
class Shift(_Interned):
    """up_n, of sort <n+1,n>."""

    n: int


@node_class(kids=("s1", "s2"))
class Comp(_Interned):
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
    """The unique sort of a term of this layer; raises on ill-sorted input.

    A post-order walk with an explicit stack that stops at nodes whose sort
    under sig is cached, and caches the sort of every node it finishes.
    Errors are not cached, so each call raises its own, with the caller's
    path. The checks run in the order of the recursive definition, so the
    first error found is the one it gives."""
    cached = getattr(t, "_sort", None)
    if cached is not None and cached[0] is sig:
        return cached[1]
    stack: list = []  # frames (node, its children, the sorts of those so far)

    def where():  # the path of the node at hand, built only for an error
        return path + tuple(len(sorts) for _, _, sorts in stack)

    while True:
        cached = getattr(t, "_sort", None)
        if cached is not None and cached[0] is sig:
            s = cached[1]
        else:
            if type(t) is FApp:
                if t.f not in sig.functions:
                    raise SortMismatch(where(), "a declared function symbol", repr(t.f))
                if len(arity := sig.functions[t.f]) != len(t.args):
                    raise SortMismatch(where(), f"{len(arity)} arguments for {t.f!r}",
                                       str(len(t.args)))
            if type(t) in (FApp, Closure, Cons, Comp) and (kids := _children(t)):
                stack.append((t, kids, []))
                t = kids[0]
                continue
            s = _node_sort(t, (), where)
            _set_sort(t, (sig, s))
        while stack:  # hand s to the frame above
            x, kids, sorts = stack[-1]
            if type(x) is FApp and s != (want := TermSort(sig.functions[x.f][len(sorts)] + x.p)):
                raise SortMismatch(where(), str(want), str(s))
            sorts.append(s)
            if len(sorts) < len(kids):
                t = kids[len(sorts)]
                break
            stack.pop()
            s = _node_sort(x, sorts, where)
            _set_sort(x, (sig, s))
        else:
            return s


_set_sort = _Interned._sort.__set__  # past the frozen dataclasses' __setattr__


def _node_sort(x, sorts, where) -> Sort:
    """The sort of x from the sorts of its children; an FApp's arguments
    are checked already. where() is the path of x."""
    if type(x) is Comp:
        a, b = sorts
        if type(a) is not SubstSort:
            raise SortMismatch(where() + (0,), "a substitution sort", str(a))
        if type(b) is not SubstSort or b.p != a.n:
            raise SortMismatch(where() + (1,), f"<q,{a.n}>", str(b))
        return SubstSort(b.n, a.p)
    if type(x) is Closure or type(x) is Cons:
        a, b = sorts
        if type(a) is not TermSort:
            raise SortMismatch(where() + (0,), "a term sort", str(a))
        if type(x) is Closure:
            if type(b) is not SubstSort or b.p != a.n:
                raise SortMismatch(where() + (1,), f"<n,{a.n}>", str(b))
            return TermSort(b.n)
        if type(b) is not SubstSort or b.n != a.n:
            raise SortMismatch(where() + (1,), f"<{a.n},p>", str(b))
        return SubstSort(b.n, b.p + 1)
    if type(x) is Index:
        if not (1 <= x.i <= x.n):
            raise IndexOutOfRange(where(), x.i, x.n)
        return TermSort(x.n)
    if type(x) is FreeVar:
        return TermSort(0)
    if type(x) is Id:
        return SubstSort(x.n, x.n)
    if type(x) is Shift:
        return SubstSort(x.n + 1, x.n)
    if type(x) is FApp:
        return TermSort(x.p)
    raise TypeError(f"not a sorted term: {x!r}")


def well_sorted(sig: Signature, x) -> CheckResult:
    """The signature judge (see syntax._judge) on this layer: atoms apply
    declared predicates to binder-free slots with bodies of the sorts the
    predicate's ranks prescribe; a term has sort 0, the sort quantified
    variables range over. Error kinds: UnknownSymbol, ArityMismatch,
    BinderCountMismatch, SortMismatch and IndexOutOfRange."""
    return syntax._judge(sig, x, True)


# The walks of bindlog.syntax cover this layer; grafting keeps a name here
# for the callers that graft sorted terms.
graft_l = syntax.graft


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
    # How many levels of a node the rule can tell apart: a rewrite this many
    # levels below a node, or deeper, cannot change the rule's verdict there.
    reach: float = math.inf


def _head_key(x):
    return x.symbol if type(x) is syntax.App else type(x)


@dataclass(frozen=True)
class RewriteSystem:
    name: str
    rules: tuple[Rule, ...]
    layer: str  # "term" (named binding terms) or "lterm" (this layer)
    sig: Signature | None = None

    @functools.cached_property
    def _dispatch(self) -> _Dispatch:
        return _Dispatch(self.rules)

    @functools.cached_property
    def _near(self) -> float:
        """The largest finite reach of the rules."""
        return max((r.reach for r in self.rules if r.reach < math.inf), default=0)

    def rules_at(self, x) -> tuple[Rule, ...]:
        """The rules that can fire at x's head, in declaration order; none
        at a value that is not a term or proposition."""
        h = _head_key(x)
        return self._dispatch[h][2] if type(h) is str or h in NODE_TYPES else ()

    def rule(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(name)

    def rule_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rules)


class _Dispatch(dict):
    """The engine's one lookup per node it visits, for the rules of one
    system: head (see _head_key) -> (children and rebuild of the term view,
    the rules at the head in order, their largest reach), filled lazily."""

    def __init__(self, rules: tuple[Rule, ...]):
        super().__init__()
        self.rules = rules

    def __missing__(self, head):
        n = NODE_TYPES[syntax.App if type(head) is str else head]
        rules = tuple([r for r in self.rules if r.head == head])
        self[head] = entry = n.children, n.rebuild, rules, max([r.reach for r in rules], default=0)
        return entry


def _children(x) -> tuple:
    return NODE_TYPES[type(x)].children(x)


def _rebuild(x, kids: tuple):
    return NODE_TYPES[type(x)].rebuild(x, kids)


def _head_rewrite(rs: RewriteSystem, x, rules: tuple[Rule, ...] | None = None):
    """What the first of `rules`, else of the rules at x's head, to fire gives."""
    for rule in rs.rules_at(x) if rules is None else rules:
        if (r := rule.apply(x, rs.sig)) is not None:
            return r
    return None


class _Budget:
    """Step budget of one normalize call, and its table of normalized nodes:
    id -> (node, normal form, steps to it), which keeps each node alive so
    its id cannot be reused. A normal node maps to itself in zero steps.
    Outermost enters each subtree its search leaves without a step;
    innermost, each node it normalizes without error. Innermost
    normalization of a node is deterministic for the call's rules and sort
    check, so meeting the node again it spends the recorded steps and takes
    the recorded form: the steps and errors of normalizing it again. So
    innermost calls under one rule system and sort check may share a table,
    each with its own budget."""

    __slots__ = ("left", "limit", "steps", "normal")

    def __init__(self, limit: int, normal: dict[int, tuple] | None = None):
        self.left = limit
        self.limit = limit
        self.steps = 0
        self.normal = {} if normal is None else normal

    def spend(self, k: int = 1):
        if self.left < k:
            raise StepBudgetExceeded(self.limit)
        self.left -= k
        self.steps += k


def _check_step_sorts(sig, before, after):
    # Sorts are compositional, so comparing the redex with its replacement
    # suffices to establish preservation for the whole term.
    sb = sort_of(sig, before)
    sa = sort_of(sig, after)
    if sb != sa:
        raise SortMismatch((), str(sb), str(sa))


def _nf_innermost(rs, x, budget, check_sorts):
    """Leftmost-innermost normal form, by a loop over a stack of frames
    (node, kids, their normal forms so far, trail, rebuild, rules at its
    head) of the nodes whose kids are being normalized. The frame at hand
    is x with its trail: the nodes it passes through, with the steps spent
    before each, entered in the table when it finishes. A kid found in the
    table is not descended into: its recorded steps are spent and its
    normal form taken in place. So the steps, errors and entries are those
    of a recursive call per kid."""
    table, dispatch, sig, App = budget.normal, rs._dispatch, rs.sig, syntax.App
    stack: list = []
    trail: list = []
    look = descend = True  # look x up and enter it in the trail; descend into its kids
    while True:
        if not (done := look and table.get(id(x))):
            if look:
                trail.append((x, budget.steps))
            if descend:  # else x is a frame's node, rebuilt: its rules are the frame's
                children, rebuild, rules, _ = dispatch[x.symbol if type(x) is App else type(x)]
                kids = children(x)
            if descend and kids:
                stack.append((x, kids, [], trail, rebuild, rules))
            else:
                r = None
                for rule in rules:
                    if (r := rule.apply(x, sig)) is not None:
                        break
                if r is not None:
                    budget.spend()
                    if check_sorts:
                        _check_step_sorts(sig, x, r)
                    x, look, descend = r, True, True
                    continue
                done = x, x, 0
        if done:
            _, nf, steps = done
            if steps:
                budget.spend(steps)
            for y, before in trail:
                table[id(y)] = y, nf, budget.steps - before
            if not stack:
                return nf
            stack[-1][2].append(nf)
        x, kids, nfs, trail, rebuild, rules = stack[-1]
        i = len(nfs)
        while i < len(kids) and (done := table.get(id(kids[i]))):
            if done[2]:
                budget.spend(done[2])
            nfs.append(done[1])
            i += 1
        if i < len(kids):
            x = kids[i]
            trail, look, descend = [(x, budget.steps)], False, True
        else:  # x goes on to its head, rebuilt (and looked up) if a kid changed
            stack.pop()
            look, descend = any(map(operator.is_not, nfs, kids)), False
            if look:
                x = rebuild(x, tuple(nfs))


def _nf_outermost(rs, x, budget, check_sorts):
    """Leftmost-outermost normal form, by a pre-order search with a stack of
    frames from the root down to the focus x: [node, kids, index of the kid
    searched, reach, depth of the topmost frame of infinite reach at or
    above it, else its own depth + 1, rebuild, rules at its head, the
    node's children]. A frame's rules found no redex when last offered and
    cannot see a rewrite their reach or more levels below, so after a step
    only frames within reach are offered again, top down: the steps and
    errors are those of a search restarted from the root."""
    normal, near, sig = budget.normal, rs._near, rs.sig
    dispatch, App = rs._dispatch, syntax.App
    stack: list = []
    r = None
    while True:
        if r is None and id(x) not in normal:
            children, rebuild, rules, k = dispatch[x.symbol if type(x) is App else type(x)]
            r = _head_rewrite(rs, x, rules)
            if r is None:
                kids = children(x)
                if kids:
                    d = len(stack)
                    up = stack[-1][4] if stack else 0
                    stack.append([x, list(kids), 0, k, up if up < d else d + (k < math.inf),
                                  rebuild, rules, kids])
                    x = kids[0]
                    continue
                normal[id(x)] = x, x, 0
        if r is not None:
            budget.spend()
            if check_sorts:
                _check_step_sorts(sig, x, r)
            x, r, d = r, None, len(stack)
            top = stack[-1][4] if stack else 0  # the topmost frame within reach
            top = next((j for j in range(max(0, d - near), top) if stack[j][3] > d - j), top)
            y = x
            for f in reversed(stack[top:]):
                f[1][f[2]] = y
                y = f[0] = f[5](f[0], (kids := tuple(f[1])))
                f[7] = kids
            for j in range(top, d):
                f = stack[j]
                if f[3] > d - j and (r := _head_rewrite(rs, f[0], f[6])) is not None:
                    x = f[0]
                    del stack[j:]
                    break
            continue
        while stack:  # x is finished: go on at the next kid of a frame
            f = stack[-1]
            f[1][f[2]] = x
            f[2] += 1
            if f[2] < len(f[1]):
                x = f[1][f[2]]
                break
            stack.pop()
            kids = tuple(f[1])
            x = f[5](f[0], kids) if any(map(operator.is_not, kids, f[7])) else f[0]
            normal[id(x)] = x, x, 0
        else:
            return x


def _norm_any(rs, x, budget, strategy, check_sorts):
    nf = {"innermost": _nf_innermost, "outermost": _nf_outermost}.get(strategy)
    if nf is None:
        raise ValueError(f"unknown strategy {strategy!r}")

    def norm(t):
        return nf(rs, t, budget, check_sorts)

    if isinstance(x, syntax.Prop):
        return syntax.map_atoms(lambda a: _rebuild(a, tuple(map(norm, _children(a)))), x)
    return norm(x)


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
    """Every (position, rule, result-of-one-step) triple for a term, in
    pre-order, by a walk with a stack of frames [node, kids, index of the
    kid at hand, rebuild] from the root down to the focus x. A result is
    rebuilt up the frames, whose indices spell its position."""
    results: list[tuple[tuple[int, ...], str, object]] = []
    stack: list = []
    while True:
        children, rebuild, rules, _ = rs._dispatch[_head_key(x)]
        for rule in rules:
            if (r := rule.apply(x, rs.sig)) is not None:
                for node, kids, i, up in reversed(stack):
                    r = up(node, kids[:i] + (r,) + kids[i + 1:])
                results.append((tuple([f[2] for f in stack]), rule.name, r))
        if kids := children(x):
            stack.append([x, kids, 0, rebuild])
            x = kids[0]
            continue
        while stack and (f := stack[-1])[2] + 1 == len(f[1]):
            stack.pop()
        if not stack:
            return results
        f[2] += 1
        x = f[1][f[2]]


def has_redex(rs: RewriteSystem, x) -> bool:
    todo = [x]  # pre-order, leftmost first
    while todo:
        if _head_rewrite(rs, x := todo.pop()) is not None:
            return True
        todo += reversed(_children(x))
    return False


# ---------------------------------------------------------------------------
# The substitution-propagation system


# The rules of Abadi, Cardelli, Curien & Lévy ("Explicit substitutions",
# 1991) that are plain patterns, in the syntax of rule files. sigma_system
# puts them between IndexExpand and FPush, which stay code: their right
# sides are computed from the index, and from the arity and the sort of the
# substitution.
SIGMA_RULES = """\
syntax lterm
VarCons:   1_?n[?t . ?s] -> ?t
Id:        ?t[id_?n] -> ?t
Clos:      ?t[?s][?u] -> ?t[?s o ?u]
IdL:       id_?n o ?s -> ?s
ShiftCons: up_?n o (?t . ?s) -> ?s
AssEnv:    (?s1 o ?s2) o ?s3 -> ?s1 o (?s2 o ?s3)
MapEnv:    (?t . ?s) o ?u -> ?t[?u] . (?s o ?u)
IdR:       ?s o id_?n -> ?s
VarShift:  1_?n+1 . up_?n -> id_?n+1
SCons:     1_?m[?s] . (up_?k o ?s) -> ?s
"""


def sigma_system(sig: Signature) -> RewriteSystem:
    """The rewrite system that pushes closures through indices, cons, shift,
    composition, and the indexed symbol families of the signature. Sort
    subscripts left implicit in the usual presentation are resolved from the
    sorts of the matched subterms."""

    def index_expand(t, _sig):
        if isinstance(t, Index) and t.i >= 2:
            return index_normal_form(t.i, t.n)
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

    # FPush reads the closure, the FApp under it and the sort of the
    # substitution s. A step inside a well-sorted s keeps its sort, and an
    # ill-sorted s raises at the first offer: FPush reaches only 2 levels.
    rules = (Rule("IndexExpand", index_expand, Index), *_SIGMA_PATTERN_RULES,
             Rule("FPush", f_push, Closure, reach=2))
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
    return all(not s.binders and not has_redex(rs, s.body)
               for atom in syntax.atoms(a) for s in atom.args)


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
        normal: dict[int, tuple] = {}  # the sample's peaks share their subterms
        nfs = {_nf_innermost(rs, res, _Budget(budget, normal), False) for _, _, res in steps}
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


@node_class(("name",), walked=False)
class MetaT(_Interned):
    """Metavariable over subterms (?t); interned, so that equal patterns are
    identical and share their compiled functions."""

    name: str


@dataclass(frozen=True)
class MetaN:
    """Numeric metavariable over sort indices (?n, ?n+1)."""

    name: str
    offset: int = 0


# Patterns are terms of either layer with MetaT leaves and MetaN in place of
# numeric data; slot binders must match exactly.


@functools.cache
def _generated(lhs, rhs, rule: bool = False) -> Callable:
    """The function compiled from a left and a right side, either may be None
    (a compiled matcher, as in Sekar, Ramakrishnan & Voronkov, "Term
    indexing", 2001).

    It tests its node against lhs through the field names syntax.node_class
    records, binding metavariables left to right into `binds` (a numeric ?n
    under "#n"), and returns None at the first failed test, else the
    instance of rhs (True when there is none). A rule's function is its
    `apply`, of (node, sig), and binds into a fresh dict only what rhs reads
    or lhs repeats; otherwise it takes (node, binds) and binds everything
    into the caller's dict. Classes and values taken
    from the patterns reach the source only as its globals, so no rule file
    text is ever spliced into it."""
    env: dict = {}
    lines = ["def _f(x, _sig):", " binds = {}"] if rule else ["def _f(x, binds):"]
    kept = rule and {k for k, c in _meta_names(lhs).items() if c > 1} | _meta_names(rhs).keys()
    bound: set = set()
    names = (f"x{i}" for i in itertools.count(1))

    def const(v) -> str:
        name = f"_k{len(env)}"
        env[name] = v
        return name

    def offset(op: str, v: MetaN) -> str:
        return f"{op} {const(v.offset)}" if v.offset else ""

    def fail_if(cond: str):
        lines.append(f" if {cond}: return None")

    def bind(key: str, val: str):
        k = const(key)
        if key in bound:
            fail_if(f"binds[{k}] != {val}")
        elif not rule:
            fail_if(f"binds.setdefault({k}, {val}) != {val}")
        elif key in kept:
            lines.append(f" binds[{k}] = {val}")
        bound.add(key)

    def match(pat, x: str):
        if type(pat) is MetaT:
            return bind(pat.name, x)
        n = NODE_TYPES[type(pat)]
        fail_if(f"type({x}) is not {const(type(pat))}")
        for field_name, v in zip(n.data_fields, n.data(pat)):
            if type(v) is not MetaN:
                fail_if(f"{x}.{field_name} != {const(v)}")
                continue
            y = next(names)
            lines.append(f" {y} = {x}.{field_name}" + offset(" -", v))
            fail_if(f"{y} < 0")
            bind("#" + v.name, y)
        kids = n.kids(pat)
        if n.seq:
            y = next(names)
            lines.append(f" {y} = {x}.{n.kid_fields[0]}")
            fail_if(f"len({y}) != {len(kids)}")
            at = [f"{y}[{i}]" for i in range(len(kids))]
        else:
            at = [f"{x}.{field_name}" for field_name in n.kid_fields]
        for c, y in zip(kids, at, strict=True):  # quantifiers have no kid fields
            if n.slotted:
                fail_if(f"{y}.binders != {const(c.binders)}")
                c, y = c.body, f"{y}.body"
            if type(c) is not MetaT:
                z = next(names)
                lines.append(f" {z} = {y}")
                y = z
            match(c, y)

    def build(pat) -> str:
        if type(pat) is MetaT:
            return f"binds[{const(pat.name)}]"
        n = NODE_TYPES[type(pat)]
        args = [f"binds[{const('#' + v.name)}]" + offset(" +", v) if type(v) is MetaN
                else const(v) for v in n.data(pat)]
        kids = [new(Slot, [const(c.binders), build(c.body)]) if n.slotted
                else build(c) for c in n.kids(pat)]
        args += [f"({''.join(k + ', ' for k in kids)})"] if n.seq else kids
        return new(type(pat), args)

    def new(cls, args: list) -> str:  # its constructor, called past type.__call__
        return f"{const(cls.__new__)}({', '.join([const(cls), *args])})"

    if lhs is not None:
        match(lhs, "x")
    lines.append(f" return {'True' if rhs is None else build(rhs)}")
    exec("\n".join(lines), env)
    return env["_f"]


def build_pattern(pat, binds: dict):
    return _generated(None, pat)(None, binds)


def _meta_names(pat) -> Counter:
    """The metavariables of a pattern, named as its binds name them (?t as
    "t", the numeric ?n as "#n"), with their numbers of occurrences."""
    if isinstance(pat, MetaT):
        return Counter([pat.name])
    n = NODE_TYPES[type(pat)]
    names = Counter("#" + v.name for v in n.data(pat) if isinstance(v, MetaN))
    for c in n.children(pat):
        names += _meta_names(c)
    return names


def compile_rule(name: str, lhs, rhs) -> Rule:
    if isinstance(lhs, MetaT):
        raise ParseError(f"rule {name}: left side is a lone metavariable")
    unbound = sorted(_meta_names(rhs).keys() - _meta_names(lhs).keys())
    if unbound:
        raise ParseError(f"rule {name!r}: the left side does not bind "
                         f"{', '.join('?' + m.lstrip('#') for m in unbound)}")
    # reach: the levels of the left side above its metavariables, unless a
    # repeated term metavariable compares whole subterms, at any depth
    linear = all(c == 1 for m, c in _meta_names(lhs).items() if m[0] != "#")
    return Rule(name, _generated(lhs, rhs, rule=True), _head_key(lhs),
                _depth(lhs) if linear else math.inf)


def _depth(pat) -> int:
    return 0 if type(pat) is MetaT else 1 + max(map(_depth, _children(pat)), default=0)


class _TermPatternParser(syntax.Parser):
    operands = {**syntax.Parser.operands, "meta": lambda p, text, following: MetaT(text[1:])}


# The sorts a term metavariable takes in a rule's small instantiations.
_SMALL_SORTS = (*map(TermSort, range(3)), *(SubstSort(n, p) for n in range(3) for p in range(3)))


@functools.cache
def _leaf(sort):
    """A smallest term of the sort: x, 1_n, id_n, a shift chain, or a cons
    of these. Kept, so its sort stays cached."""
    if type(sort) is TermSort:
        return FreeVar("x") if sort.n == 0 else Index(1, sort.n)
    n, p = sort.n, sort.p
    if n >= p:
        return Id(n) if n == p else shift_chain(p, n - p)
    return Cons(_leaf(TermSort(n)), _leaf(SubstSort(n, p - 1)))


def _fill(shape: dict, term_of: Callable) -> dict:
    """The binds that give each term metavariable of a shape term_of(its sort)."""
    return {m: v if m[0] == "#" else term_of(v) for m, v in shape.items()}


def _shapes(sig: Signature, lhs) -> list[dict]:
    """The shapes of a left side under which it sort-checks when each term
    metavariable is a smallest term of its sort: every map of its term
    metavariables to sorts with n, p <= 2 and its numeric ones to 0 to 2."""
    metas = sorted(_meta_names(lhs))
    shapes = []
    for values in itertools.product(*[range(3) if m[0] == "#" else _SMALL_SORTS
                                      for m in metas]):
        shape = dict(zip(metas, values))
        try:
            sort_of(sig, build_pattern(lhs, _fill(shape, _leaf)))
        except BindLogError:
            continue
        shapes.append(shape)
    return shapes


def _check_rule_sorts(sig: Signature | None, name: str, lhs, rhs):
    """Load-time check that a sorted-layer rule preserves sorts: in each
    shape of its left side, filled with smallest terms, the right side must
    have the left side's sort, and there must be a shape."""
    if sig is None:
        sig = Signature({}, {})
    shapes = _shapes(sig, lhs)
    if not shapes:
        raise ParseError(f"rule {name!r}: found no sort-consistent instantiation to check")
    for shape in shapes:
        binds = _fill(shape, _leaf)
        sl = sort_of(sig, build_pattern(lhs, binds))
        try:
            sr = sort_of(sig, build_pattern(rhs, binds))
        except BindLogError as e:
            raise ParseError(f"rule {name!r} breaks sorting on the right: {e}") from None
        if sl != sr:
            raise ParseError(f"rule {name!r} does not preserve sorts: {sl} -> {sr}")


def _read_rules(text: str) -> tuple[str, list]:
    """The layer of a rule file and its rules, as (line number, rule, left
    side, right side)."""
    layer, lines = syntax.file_lines(text, ("term", "lterm"))
    rules = []
    for lineno, line in lines:
        if ":" not in line:
            raise ParseError(f"bad rule line: {line.strip()!r}", line=lineno)
        rname, rest = line.split(":", 1)
        with syntax.at_line(lineno):
            p = _TermPatternParser(rest) if layer == "term" else LParser(rest)
            lhs = p.term()
            p.expect("arrow")
            rhs = p.term()
            p.done()
            rule = compile_rule(rname.strip(), lhs, rhs)
            if layer == "term":
                _check_term_pattern(rule.name, lhs)
                _check_term_pattern(rule.name, rhs)
        rules.append((lineno, rule, lhs, rhs))
    if not rules:
        raise ParseError("rule file declares no rules")
    return layer, rules


def load_rules(text: str, sig: Signature | None = None, name: str = "user") -> RewriteSystem:
    """Parse a rewrite-rule file: optional `syntax term|lterm` header, then
    lines `name: lhs -> rhs` with metavariables ?t, ?s and numeric ?n."""
    layer, rules = _read_rules(text)
    for lineno, rule, lhs, rhs in rules if layer == "lterm" else ():
        with syntax.at_line(lineno):
            _check_rule_sorts(sig, rule.name, lhs, rhs)
    return RewriteSystem(name, tuple(r[1] for r in rules), layer, sig)


def _check_term_pattern(name, pat):
    if isinstance(pat, MetaT):
        return
    n = NODE_TYPES[type(pat)]
    for c in n.kids(pat):
        if n.slotted:
            if c.binders:
                raise ParseError(f"rule {name!r}: binders are not allowed in rewrite patterns")
            c = c.body
        _check_term_pattern(name, c)


# ---------------------------------------------------------------------------
# Text syntax for this layer
#
# indices `3_5`, closures `t[s]`, `id_4`, cons `t . s`, `up_2`,
# composition `s o s'`, symbol families `f_2(...)`; `o` is reserved.
# Propositions and sequents use the grammar of bindlog.syntax.

_SUB = r"(?:\d+|\?\w+(?:\+\d+)?)"  # a number or a numeric metavariable ?n, ?n+1

_LTOKEN_RE, _LTOKEN_KIND = syntax.lexicon(
    ("index", rf"{_SUB}_{_SUB}(?!\w)"),
    ("id", rf"id_{_SUB}(?!\w)"),
    ("up", rf"up_{_SUB}(?!\w)"),
    ("fam", rf"[^\W\d]\w*'*_{_SUB}(?=\()"),
    ("comp", r"o(?!\w)"),
    ("ident", r"[^\W\d]\w*'*"),
    ("num", r"\d+"),
)

# precedence: cons 1, composition 2, closures and atoms tightest
syntax.OPERATORS.update({
    Cons: syntax.Operator("dot", ".", 1, 1),
    Comp: syntax.Operator("comp", "o", 2, 2),
})


def _parse_sub(txt: str):
    if not txt.startswith("?"):
        return int(txt)
    name, _, offset = txt[1:].partition("+")
    return MetaN(name, int(offset or 0))


def _family(p, text: str, following: str):
    fname, p_txt = text.rsplit("_", 1)
    return FApp, (fname, _parse_sub(p_txt)), syntax.TERMS


class LParser(syntax.Parser):
    """Reader of sorted terms and of propositions over them: the named
    layer's reader with this layer's tokens, operand table and operators."""

    token_re, kind_of = _LTOKEN_RE, staticmethod(_LTOKEN_KIND)
    operands = {
        "index": lambda p, text, following: Index(*map(_parse_sub, text.rsplit("_", 1))),
        "id": lambda p, text, following: Id(_parse_sub(text[3:])),
        "up": lambda p, text, following: Shift(_parse_sub(text[3:])),
        "fam": _family,
        "meta": lambda p, text, following: MetaT(text[1:]),
        "name": lambda p, text, following: FreeVar(text),
    }
    grouped = True
    term_ops = {syntax.OPERATORS[c].kind: c for c in (Cons, Comp)}
    slots = syntax.SLOTS
    closure = Closure
    a_term = "a sorted term"

    def __init__(self, text: str, sig: Signature | None = None):
        super().__init__(text, sig)
        if "fam" in self.kinds:  # a family only where "(" follows at once, else a name
            starts = self.starts()
            for i, kind in enumerate(self.kinds):
                if kind == "fam" and not text.startswith("(", starts[i] + len(self.tokens[i])):
                    self.kinds[i] = "name"


def parse_lterm(text: str):
    return LParser(text).whole(False)


def parse_lprop(text: str):
    return LParser(text).whole(True)


syntax.SHOW.update({
    Index: lambda x: f"{x.i}_{x.n}",
    FreeVar: lambda x: x.name,
    Id: lambda x: f"id_{x.n}",
    Shift: lambda x: f"up_{x.n}",
    FApp: lambda x: syntax._args(f"{x.f}_{x.p}(", x.args),
    Closure: lambda x: ((x.t, syntax.TIGHTEST), "[", x.s, "]"),
    MetaT: lambda x: f"?{x.name}",
    TermSort: lambda x: str(x.n),
    SubstSort: lambda x: f"<{x.n},{x.p}>",
})
print_lterm = print_lprop = syntax.show


# read once, without load_rules' sort check, which tests run on this text
# instead: the rules and their left sides by name
_SIGMA_PATTERNS = {rule.name: (rule, lhs) for _, rule, lhs, _ in _read_rules(SIGMA_RULES)[1]}
_SIGMA_PATTERN_RULES = tuple(rule for rule, _ in _SIGMA_PATTERNS.values())
