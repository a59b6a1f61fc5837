"""Seeded random generators for terms, propositions, and sorted terms.

Used by the probe harnesses, the model validators, and the test suite; all
functions are deterministic given the Random instance they are handed.
"""

from __future__ import annotations

import functools
import random

from . import sigma
from .syntax import (
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
)

# the pools deliberately include counter-suffixed names so that clashes with
# fresh-name schemes are exercised, not dodged
DEFAULT_FREE = ("x", "y", "z", "u", "v", "x1", "z1")
_BINDER_POOL = ("x", "y", "z", "w", "b", "x1", "z2")
_QUANT_POOL = ("x", "y", "z", "w1", "x2")


def random_term(rng: random.Random, sig: Signature, size: int,
                free=DEFAULT_FREE, scope: tuple[str, ...] = ()):
    """Well-formed term over sig with free variables drawn from `free`;
    binder names are reused on purpose to exercise shadowing."""
    pool = tuple(scope) + tuple(free)
    funs = list(sig.functions.items())
    if size <= 1 or not funs or rng.random() < 0.25:
        return Var(rng.choice(pool))
    name, arity = rng.choice(funs)
    if not arity:
        return App(name, ())
    per_arg = max(1, (size - 1) // len(arity))
    args = []
    for k in arity:
        binders = []
        for _ in range(k):
            cand = rng.choice(_BINDER_POOL)
            while cand in binders:
                cand = cand + "'"
            binders.append(cand)
        body = random_term(rng, sig, rng.randint(1, per_arg), free,
                           scope=tuple(binders) + tuple(scope))
        args.append(Slot(tuple(binders), body))
    return App(name, tuple(args))


def random_prop(rng: random.Random, sig: Signature, size: int, free=DEFAULT_FREE,
                scope: tuple[str, ...] = ()):
    preds = list(sig.predicates.items())
    if size <= 2 or rng.random() < 0.3:
        if not preds:
            return Bottom()
        name, arity = rng.choice(preds)
        args = []
        for k in arity:
            binders = tuple(f"b{j}" for j in range(k))
            body = random_term(rng, sig, max(1, size // max(1, len(arity))), free,
                               scope=binders + tuple(scope))
            args.append(Slot(binders, body))
        return Atom(name, tuple(args))
    pick = rng.random()
    if pick < 0.15:
        return Bottom()
    if pick < 0.45:
        var = rng.choice(_QUANT_POOL)
        cls = Forall if rng.random() < 0.5 else Exists
        return cls(var, random_prop(rng, sig, size - 1, free, scope))
    cls = rng.choice((Imp, And, Or))
    half = max(1, size // 2)
    return cls(random_prop(rng, sig, half, free, scope),
               random_prop(rng, sig, half, free, scope))


# ---------------------------------------------------------------------------
# Sorted layer


def random_sort(rng: random.Random, hi: int = 3):
    if rng.random() < 0.6:
        return sigma.TermSort(rng.randrange(0, hi + 1))
    return sigma.SubstSort(rng.randrange(0, hi + 1), rng.randrange(0, hi + 1))


def leaf_of_sort(sort, rng: random.Random, free=DEFAULT_FREE):
    """A smallest sort-correct term of the sort, its variable or indices
    drawn at random: sigma._leaf's term, up to those."""
    if isinstance(sort, sigma.TermSort):
        if sort.n == 0:
            return sigma.FreeVar(rng.choice(free))
        return sigma.Index(rng.randint(1, sort.n), sort.n)
    n, p = sort.n, sort.p
    if n >= p:
        return sigma._leaf(sort)
    return sigma.Cons(leaf_of_sort(sigma.TermSort(n), rng, free),
                      leaf_of_sort(sigma.SubstSort(n, p - 1), rng, free))


def random_lterm(rng: random.Random, sig: Signature | None, sort, size: int,
                 free=DEFAULT_FREE):
    """Sort-correct random term of the sorted layer, of the given sort."""
    if sig is None:
        sig = Signature({}, {})
    if size <= 1:
        return leaf_of_sort(sort, rng, free)
    if isinstance(sort, sigma.TermSort):
        n = sort.n
        choices = ["closure", "closure", "leaf"]
        funs = list(sig.functions.items())
        if funs:
            choices += ["fapp", "fapp"]
        pick = rng.choice(choices)
        if pick == "leaf":
            return leaf_of_sort(sort, rng, free)
        if pick == "fapp":
            f, arity = rng.choice(funs)
            per = max(1, (size - 1) // max(1, len(arity)))
            args = tuple(random_lterm(rng, sig, sigma.TermSort(k + n), rng.randint(1, per), free)
                         for k in arity)
            return sigma.FApp(f, n, args)
        p = rng.randrange(0, 4)
        t = random_lterm(rng, sig, sigma.TermSort(p), (size - 1) // 2 or 1, free)
        s = random_lterm(rng, sig, sigma.SubstSort(n, p), (size - 1) // 2 or 1, free)
        return sigma.Closure(t, s)
    n, p = sort.n, sort.p
    options = ["cons"] if p >= 1 else []
    options.append("comp")
    if n == p:
        options.append("id")
    if n == p + 1:
        options.append("shift")
    pick = rng.choice(options)
    if pick == "id":
        return sigma.Id(n)
    if pick == "shift":
        return sigma.Shift(p)
    if pick == "cons":
        t = random_lterm(rng, sig, sigma.TermSort(n), (size - 1) // 2 or 1, free)
        s = random_lterm(rng, sig, sigma.SubstSort(n, p - 1), (size - 1) // 2 or 1, free)
        return sigma.Cons(t, s)
    m = rng.randrange(0, max(n, p) + 2)
    s1 = random_lterm(rng, sig, sigma.SubstSort(m, p), (size - 1) // 2 or 1, free)
    s2 = random_lterm(rng, sig, sigma.SubstSort(n, m), (size - 1) // 2 or 1, free)
    return sigma.Comp(s1, s2)


def sigma_rule_instances(rng: random.Random, sig: Signature, rule_name: str,
                         count: int, size: int = 5):
    """Concrete (lhs, rhs) instances of one substitution rule; both sides are
    sort-correct and rhs is the one-step reduct of lhs under that rule. The
    left side of a rule written as a pattern is one of its shapes (see
    sigma._shapes), each term metavariable filled by a random term of its
    sort; the two rules that are code have generators of their own."""
    rule = sigma.sigma_system(sig).rule(rule_name)
    out = []
    for _ in range(count):
        lhs = _rule_lhs(rng, sig, rule_name, size)
        if lhs is None:
            raise ValueError(f"could not build {count} instances of {rule_name}")
        out.append((lhs, rule.apply(lhs, sig)))
    return out


@functools.cache
def _shapes(rule_name: str) -> list[dict]:
    # The sigma patterns name no function symbol, so their shapes are those
    # under every signature.
    return sigma._shapes(Signature({}, {}), sigma._SIGMA_PATTERNS[rule_name][1])


def _rule_lhs(rng, sig, rule_name, size):
    if rule_name == "IndexExpand":
        hi = rng.randrange(2, 6)
        return sigma.Index(rng.randint(2, hi), hi)
    t = lambda sort: random_lterm(rng, sig, sort, rng.randint(1, size))
    if rule_name == "FPush":
        funs = list(sig.functions.items())
        if not funs:
            return None
        n, p = rng.randrange(0, 3), rng.randrange(0, 3)
        f, arity = rng.choice(funs)
        args = tuple(t(sigma.TermSort(k + p)) for k in arity)
        return sigma.Closure(sigma.FApp(f, p, args), t(sigma.SubstSort(n, p)))
    shape = rng.choice(_shapes(rule_name))
    return sigma.build_pattern(sigma._SIGMA_PATTERNS[rule_name][1], sigma._fill(shape, t))
