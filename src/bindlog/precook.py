"""Translation between the named binding layer and the sorted
explicit-substitution layer.

A term is translated against a context list of binder names, innermost
first: variables bound by enclosing symbols become de Bruijn indices,
remaining free variables are shielded by a shift chain so nothing can
capture them, and each symbol occurrence is tagged with the number of
binders it sits under. Propositions translate homomorphically; quantified
variables stay named. The inverse direction rebuilds named binders for
exactly the terms in the image of the translation.
"""

from __future__ import annotations

from . import proofs, sigma, syntax
from .errors import InvalidSourceProof, NotAnFTerm
from .sigma import (
    Closure,
    FApp,
    FreeVar,
    Index,
    RewriteSystem,
    shift_chain,
)
from .syntax import Atom, Signature, Slot, Var


def precook(sig: Signature, t, ctx: tuple[str, ...] = ()):
    """Translate a term in a binder context (innermost name first). The
    result has sort len(ctx); lookup takes the leftmost occurrence.

    Indices past the first are emitted in their spelled-out normal form
    1[up ...]: the index-expansion rule makes the plain constants reducible,
    and the image of this translation must be normal.
    """
    if isinstance(t, Var):
        if t.name in ctx:
            return sigma.index_normal_form(ctx.index(t.name) + 1, len(ctx))
        if not ctx:
            return FreeVar(t.name)
        return Closure(FreeVar(t.name), shift_chain(0, len(ctx)))
    if isinstance(t, syntax.App):
        args = tuple(
            precook(sig, s.body, tuple(reversed(s.binders)) + ctx) for s in t.args
        )
        return FApp(t.symbol, len(ctx), args)
    raise TypeError(f"not a named term: {t!r}")


def precook_prop(sig: Signature, a):
    """Translate a proposition; atoms translate their arguments under the
    reversed binder lists, connectives and quantifiers are untouched."""
    return syntax.map_atoms(lambda atom: Atom(atom.pred, tuple(
        Slot((), precook(sig, s.body, s.binders[::-1])) for s in atom.args)), a)


def uncook(sig: Signature, t):
    """Inverse of the term translation on its image: rebuilds named binders
    (freshly chosen) such that re-translating reproduces t exactly."""
    fresh = syntax.numbered_names("z", syntax.all_names(t))
    return _uncook_term(sig, t, (), fresh)


def _uncook_term(sig, t, ctx: tuple[str, ...], fresh):
    if isinstance(t, Index):
        if t.n != len(ctx) or not (1 <= t.i <= t.n):
            raise NotAnFTerm(f"index {t.i}_{t.n} in a context of length {len(ctx)}")
        return Var(ctx[t.i - 1])
    if isinstance(t, FreeVar):
        if ctx:
            raise NotAnFTerm(f"unshielded variable {t.name!r} under {len(ctx)} binders")
        return Var(t.name)
    if isinstance(t, Closure):
        if isinstance(t.t, FreeVar) and ctx and t.s == shift_chain(0, len(ctx)):
            return Var(t.t.name)
        if isinstance(t.t, Index) and t.t.i == 1 and t.t.n < len(ctx) \
                and t.s == shift_chain(t.t.n, len(ctx) - t.t.n):
            # the spelled-out form of index len(ctx) - n + 1
            return Var(ctx[len(ctx) - t.t.n])
        raise NotAnFTerm(f"closure {sigma.print_lterm(t)} is not a variable reference here")
    if isinstance(t, FApp):
        if t.p != len(ctx):
            raise NotAnFTerm(f"{t.f}_{t.p} under {len(ctx)} binders")
        if t.f not in sig.functions or len(sig.functions[t.f]) != len(t.args):
            raise NotAnFTerm(f"bad application of {t.f!r}")
        return syntax.App(t.f, _uncook_args(sig, t.args, sig.functions[t.f], ctx, fresh))
    raise NotAnFTerm(f"{sigma.print_lterm(t)} is not in the image of the translation")


def _uncook_args(sig, args, arity, ctx: tuple[str, ...], fresh) -> tuple:
    """Slots over the uncooked args, binding fresh names as arity says."""
    slots = []
    for a, k in zip(args, arity):
        binders = tuple(fresh() for _ in range(k))
        slots.append(Slot(binders, _uncook_term(sig, a, tuple(reversed(binders)) + ctx, fresh)))
    return tuple(slots)


def uncook_prop(sig: Signature, a):
    # generated binders must dodge quantifier-bound names too, or a shielded
    # occurrence of a quantified variable could be captured
    fresh = syntax.numbered_names("z", syntax.all_names(a))

    def uncook_atom(a):
        if a.pred not in sig.predicates or len(sig.predicates[a.pred]) != len(a.args):
            raise NotAnFTerm(f"bad atom {a.pred!r}")
        bodies = [s.body for s in a.args]
        return Atom(a.pred, _uncook_args(sig, bodies, sig.predicates[a.pred], (), fresh))

    return syntax.map_atoms(uncook_atom, a)


# ---------------------------------------------------------------------------
# Substitution commutation (test utility)


def subst_commutes(sig: Signature, t, u, x: str,
                   rs: RewriteSystem | None = None,
                   budget: int = sigma.DEFAULT_BUDGET) -> bool:
    """Does substituting then translating agree with translating then
    substituting, up to normalization and alpha-equivalence? Terms of the
    sorted layer bind nothing, so on a term syntax.subst grafts and
    alpha-equivalence is equality.
    """
    if rs is None:
        rs = sigma.sigma_system(sig)
    translate = precook_prop if isinstance(u, syntax.Prop) else precook
    lhs = translate(sig, syntax.substitute({x: t}, u))
    rhs = syntax.subst({x: precook(sig, t)}, translate(sig, u))
    return syntax.alpha_eq(sigma.normalize(rs, lhs, budget=budget),
                           sigma.normalize(rs, rhs, budget=budget))


# ---------------------------------------------------------------------------
# Proofs


def translate_proof(sig: Signature, p: "proofs.ProofTree") -> "proofs.ProofTree":
    """Map a checked proof of the binding calculus to one of the calculus
    modulo the substitution congruence: same tree shape, pre-cooked
    sequents, quantifier nodes annotated with translated parameters. The
    nodes are translated in preorder, which fixes the error raised first,
    then built premises first, so a proof of any height translates."""
    res = proofs.check_binding_proof(sig, p)
    if not res.ok:
        raise InvalidSourceProof(str(res))
    cooked: dict[int, object] = {}  # id -> translation; p keeps the formulas alive

    def cook(a):
        if (r := cooked.get(id(a))) is None:
            r = cooked[id(a)] = precook_prop(sig, a)
        return r

    nodes = []  # (sequent, rule, premise count) of each node in preorder
    for node, _, _ in p.walk():
        concl = proofs.Sequent(tuple(map(cook, node.conclusion.left)),
                               tuple(map(cook, node.conclusion.right)))
        app = node.rule
        x = a = t = None
        if app.rule in proofs.QUANTIFIER_RULES:
            x, qa = proofs.principal_quantifier_parts(node)
            a = cook(qa)
            if proofs.RULES[app.rule].witness:
                t = precook(sig, app.t)
        new_app = proofs.RuleApp(app.rule, principal=app.principal, x=x, a=a, t=t)
        nodes.append((concl, new_app, len(node.premises)))
    built: list = []  # the trees of the nodes after this one, their first premise last
    for concl, app, k in reversed(nodes):
        premises = tuple(reversed(built[len(built) - k:]))
        del built[len(built) - k:]
        built.append(proofs.ProofTree(concl, app, premises))
    return built[0]
