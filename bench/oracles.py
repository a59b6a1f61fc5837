"""Reference answers computed without the kernel code under test.

Each function here re-derives a result from first principles: a nameless
form by its own walk, substitution by plain replacement on inputs built to
be capture-free, numerals and sweep sizes by arithmetic. The benchmark
compares the kernel's outputs against these; none of them calls into
`bindlog` functions.
"""

from __future__ import annotations

import dataclasses

from bindlog.syntax import And, App, Atom, Bottom, Exists, Forall, Imp, Or, Slot, Var


def nameless(x, ctx: tuple[str, ...] = ()):
    """Nameless form of a named term or proposition: a bound occurrence
    becomes its binder's distance, free names stay. Equal for exactly the
    alpha-equivalent inputs."""
    if isinstance(x, Var):
        return ("b", ctx.index(x.name)) if x.name in ctx else ("f", x.name)
    if isinstance(x, (App, Atom)):
        head = x.symbol if isinstance(x, App) else x.pred
        return (type(x).__name__, head, tuple(
            (len(s.binders), nameless(s.body, tuple(reversed(s.binders)) + ctx))
            for s in x.args))
    if isinstance(x, (Imp, And, Or)):
        return (type(x).__name__, nameless(x.a, ctx), nameless(x.b, ctx))
    if isinstance(x, Bottom):
        return ("Bottom",)
    if isinstance(x, (Forall, Exists)):
        return (type(x).__name__, nameless(x.body, (x.var,) + ctx))
    raise TypeError(f"not a named term or proposition: {x!r}")


def replace_free(x, name: str, t):
    """Replace the free occurrences of `name` by `t`. This is substitution
    only when no binder of `x` binds a free variable of `t` above an
    occurrence; the generators guarantee that by drawing the free names of
    `t` from a pool no binder uses."""
    if isinstance(x, Var):
        return t if x.name == name else x
    if isinstance(x, (App, Atom)):
        head = x.symbol if isinstance(x, App) else x.pred
        return type(x)(head, tuple(
            s if name in s.binders else Slot(s.binders, replace_free(s.body, name, t))
            for s in x.args))
    if isinstance(x, (Imp, And, Or)):
        return type(x)(replace_free(x.a, name, t), replace_free(x.b, name, t))
    if isinstance(x, Bottom):
        return x
    if isinstance(x, (Forall, Exists)):
        return x if x.var == name else type(x)(x.var, replace_free(x.body, name, t))
    raise TypeError(f"not a named term or proposition: {x!r}")


def numeral(n: int):
    """S^n(0()) as a named term."""
    t = App("0", ())
    for _ in range(n):
        t = App("S", (Slot((), t),))
    return t


def node_count(x) -> int:
    """Number of tree nodes of any kernel value: dataclass instances count
    one each and are entered through their fields, tuples are entered."""
    count = 0
    stack = [x]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif dataclasses.is_dataclass(node) and not isinstance(node, type):
            count += 1
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
    return count


# ---------------------------------------------------------------------------
# Exact sizes of the structure sweeps, from the documented instance sets


def ifs_sweep_size(size, n_max: int, p_max: int, q_max: int) -> int:
    """Instances of the projection, identity and associativity laws over
    carriers with `size(n)` elements at level n, all levels enumerated."""
    proj = sum(n * size(p) ** n for n in range(1, n_max + 1) for p in range(p_max + 1))
    ident = sum(size(n) for n in range(n_max + 1))
    assoc = sum(size(n) * size(p) ** n * size(q) ** p
                for n in range(n_max + 1) for p in range(p_max + 1) for q in range(q_max + 1))
    return proj + ident + assoc


def coherence_sweep_size(size, arity: tuple[int, ...], p_max: int, q_max: int) -> int:
    """Instances of the coherence sweep of one symbol, plus the level-shift
    identity for unary binders."""
    total = 0
    for p in range(p_max + 1):
        spaces = 1
        for k in arity:
            spaces *= size(p + k)
        for q in range(q_max + 1):
            total += spaces * size(q) ** p
    if arity == (1,):
        total += sum(size(p + 1) for p in range(1, p_max + 1))
    return total


def sampled_ifs_sweep_size(samples: int, n_max: int, p_max: int, q_max: int) -> int:
    """The same laws on a carrier with no enumeration: each level draws
    `samples` elements and each tuple position draws `samples` tuples
    (one empty tuple at arity 0)."""
    tuples = lambda k: samples if k else 1  # noqa: E731
    proj = sum(n * samples for n in range(1, n_max + 1) for _ in range(p_max + 1))
    ident = samples * (n_max + 1)
    assoc = sum(samples * tuples(n) * tuples(p)
                for n in range(n_max + 1) for p in range(p_max + 1) for _ in range(q_max + 1))
    return proj + ident + assoc


def sampled_coherence_size(samples: int, p_max: int, q_max: int) -> int:
    """Sampled coherence sweep of a symbol without unary-binder shape."""
    return sum(samples * (samples if p else 1)
               for p in range(p_max + 1) for _ in range(q_max + 1))
