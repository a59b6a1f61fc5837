"""Seeded proofs with known verdicts, written as `.prf` text.

Valid proofs are valid by construction:

- identity expansions of `A |- A`, which use every connective and
  quantifier rule on the way down to axioms;
- instantiations `forall x. A |- A[t/x]` whose witness `t` nests several
  binders, closed by the identity expansion of the instance, so the check
  modulo the substitution system has real normalization to do.

Mutants are invalid by construction: a leaf whose sides no longer agree, a
rule renamed to one with another premise count, a witness grown by one
symbol while `x` occurs in `A`, or a principal index past the end of its
side. The instances `A[t/x]` are computed by plain replacement, which is
substitution here because the witness's free names come from a pool no
generated binder uses.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from bindlog.syntax import (
    And, App, Atom, Bottom, Exists, Forall, Imp, Or, Slot, Var, print_prop, print_term,
)

import oracles

WITNESS_FREE = ("u", "v")
WITNESS_BINDERS = ("w1", "w2", "w3")
PREMISES = {"axiom": 0, "bot-left": 0, "cut": 2, "imp-left": 2, "and-right": 2, "or-left": 2}
LEFT_RULES = {"contr-left", "weak-left", "imp-left", "and-left", "or-left", "bot-left",
              "all-left", "ex-left"}


@dataclass(frozen=True)
class Node:
    rule: str
    left: tuple
    right: tuple
    premises: tuple = ()
    at: int | None = None
    t: object = None


def identity(a) -> Node:
    """A derivation of `a |- a` by expansion down to atoms."""
    if isinstance(a, Atom):
        return Node("axiom", (a,), (a,))
    if isinstance(a, Bottom):
        return Node("bot-left", (a,), (a,), at=0)
    if isinstance(a, And):
        return Node("and-right", (a,), (a,), (
            Node("and-left", (a,), (a.a,), (
                Node("weak-left", (a.a, a.b), (a.a,), (identity(a.a),), at=1),), at=0),
            Node("and-left", (a,), (a.b,), (
                Node("weak-left", (a.a, a.b), (a.b,), (identity(a.b),), at=0),), at=0),
        ), at=0)
    if isinstance(a, Or):
        return Node("or-left", (a,), (a,), (
            Node("or-right", (a.a,), (a,), (
                Node("weak-right", (a.a,), (a.a, a.b), (identity(a.a),), at=1),), at=0),
            Node("or-right", (a.b,), (a,), (
                Node("weak-right", (a.b,), (a.a, a.b), (identity(a.b),), at=0),), at=0),
        ), at=0)
    if isinstance(a, Imp):
        return Node("imp-right", (a,), (a,), (
            Node("imp-left", (a, a.a), (a.b,), (
                Node("weak-right", (a.a,), (a.a, a.b), (identity(a.a),), at=1),
                Node("weak-left", (a.a, a.b), (a.b,), (identity(a.b),), at=0),
            ), at=0),), at=0)
    if isinstance(a, Forall):
        return Node("all-right", (a,), (a,), (
            Node("all-left", (a,), (a.body,), (identity(a.body),), at=0, t=Var(a.var)),), at=0)
    if isinstance(a, Exists):
        return Node("ex-left", (a,), (a,), (
            Node("ex-right", (a.body,), (a,), (identity(a.body),), at=0, t=Var(a.var)),), at=0)
    raise TypeError(f"not a proposition: {a!r}")


def instantiation(x: str, a, t) -> Node:
    """A derivation of `forall x. a |- a[t/x]`."""
    inst = oracles.replace_free(a, x, t)
    return Node("all-left", (Forall(x, a),), (inst,), (identity(inst),), at=0, t=t)


def binder_heavy_witness(rng: random.Random, gen, sig, depth: int):
    """A term with `depth` nested binders around a random core."""
    t = gen.random_term(rng, sig, rng.randint(2, 6), free=WITNESS_FREE)
    for k in range(depth):
        z = WITNESS_BINDERS[k % len(WITNESS_BINDERS)]
        t = App("Λ", (Slot((z,), App("g", (Slot((), t), Slot((), Var(z))))),))
    return t


def instantiation_body(rng: random.Random, gen, sig):
    """A proposition with `x` free under a binder, so every change of the
    witness changes the instance."""
    under_binder = App("Λ", (Slot(("z",), App("g", (Slot((), Var("x")), Slot((), Var("z"))))),))
    anchor = Atom("R2", (Slot((), under_binder),
                         Slot((), gen.random_term(rng, sig, rng.randint(1, 4)))))
    return And(anchor, gen.random_prop(rng, sig, rng.randint(3, 7)))


# ---------------------------------------------------------------------------
# Mutants


def _nodes(p: Node, path=()):
    yield path, p
    for i, q in enumerate(p.premises):
        yield from _nodes(q, path + (i,))


def _replace(p: Node, path, new: Node) -> Node:
    if not path:
        return new
    i = path[0]
    prems = p.premises[:i] + (_replace(p.premises[i], path[1:], new),) + p.premises[i + 1:]
    return dataclasses.replace(p, premises=prems)


def mutate(rng: random.Random, p: Node, kind: str) -> Node:
    """An invalid variant of the valid proof `p`."""
    nodes = list(_nodes(p))
    if kind == "leaf":
        path, n = rng.choice([(q, n) for q, n in nodes if not n.premises])
        if n.rule == "axiom":
            new = dataclasses.replace(n, right=(And(n.right[0], n.right[0]),))
        else:
            new = dataclasses.replace(n, left=(And(n.left[0], n.left[0]),))
        return _replace(p, path, new)
    if kind == "rule":
        path, n = rng.choice(nodes)
        other = "weak-left" if PREMISES.get(n.rule, 1) != 1 else "and-right"
        return _replace(p, path, dataclasses.replace(n, rule=other))
    if kind == "witness":
        return dataclasses.replace(p, t=App("f", (Slot((), p.t),)))
    if kind == "at":
        path, n = rng.choice([(q, n) for q, n in nodes if n.rule not in ("axiom", "cut")])
        side = n.left if n.rule in LEFT_RULES else n.right
        return _replace(p, path, dataclasses.replace(n, at=len(side) + rng.randint(0, 3)))
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# Text


def to_text(p: Node) -> str:
    lines: list[str] = []

    def go(n: Node, depth: int):
        params = []
        if n.t is not None:
            params.append(f"t={print_term(n.t)}")
        if n.at is not None:
            params.append(f"at={n.at}")
        block = f" [{' '.join(params)}]" if params else ""
        left = ", ".join(print_prop(a) for a in n.left)
        right = ", ".join(print_prop(b) for b in n.right)
        lines.append(f"{'  ' * depth}rule {n.rule}{block} |- {left} |- {right}")
        for q in n.premises:
            go(q, depth + 1)

    go(p, 0)
    return "\n".join(lines) + "\n"


def size(p: Node) -> int:
    return sum(1 for _ in _nodes(p))


def arith_text(a: int, b: int, product: int) -> str:
    """The ex-right / all-left / axiom proof that `a * x = product` has the
    witness `b`, checked modulo the unary arithmetic rules."""
    na, nb, nab = (print_term(oracles.numeral(n)) for n in (a, b, product))
    goal = f"=(*({na}, x), {nab})"
    inst = f"=(*({na}, {nb}), {nab})"
    return (f"rule ex-right [x=x A={goal} t={nb} at=0] |- forall x. =(x, x) |- exists x. {goal}\n"
            f"  rule all-left [x=x A==(x, x) t={nab} at=0] |- forall x. =(x, x) |- {inst}\n"
            f"    rule axiom |- =({nab}, {nab}) |- {inst}\n")
