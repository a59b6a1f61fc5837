"""Sequents, rule-tagged proof trees, and the two checkers: the plain
binding-logic calculus, and the calculus modulo a congruence generated by a
normalizing rewrite system.

Sequent sides are stored as ordered tuples. A rule application names the
index of its principal formula in the conclusion; when omitted it defaults
to the position the rule figures display (last on the left, first on the
right). Premises must place the formulas a rule introduces at those same
conventional positions: at the end of the left side, at the front of the
right side. Passive context formulas are matched pairwise up to
alpha-equivalence; the side conditions written as congruences are decided
by normalize-then-compare.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable

from . import sigma, syntax
from .errors import (
    CheckResult,
    CongruenceBudgetExceeded,
    ParseError,
    StepBudgetExceeded,
)
from .syntax import And, Bottom, Exists, Forall, Imp, Or, Signature


class Rule(enum.Enum):
    AXIOM = "axiom"
    CUT = "cut"
    CONTR_L = "contr-left"
    CONTR_R = "contr-right"
    WEAK_L = "weak-left"
    WEAK_R = "weak-right"
    IMP_L = "imp-left"
    IMP_R = "imp-right"
    AND_L = "and-left"
    AND_R = "and-right"
    OR_L = "or-left"
    OR_R = "or-right"
    BOT_L = "bot-left"
    ALL_L = "all-left"
    ALL_R = "all-right"
    EX_L = "ex-left"
    EX_R = "ex-right"


QUANTIFIER_RULES = {Rule.ALL_L, Rule.ALL_R, Rule.EX_L, Rule.EX_R}
WITNESS_RULES = {Rule.ALL_L, Rule.EX_R}

_PREMISE_COUNT = {
    Rule.AXIOM: 0, Rule.BOT_L: 0,
    Rule.CUT: 2, Rule.IMP_L: 2, Rule.AND_R: 2, Rule.OR_L: 2,
}
_LEFT_RULES = {Rule.CONTR_L, Rule.WEAK_L, Rule.IMP_L, Rule.AND_L, Rule.OR_L,
               Rule.BOT_L, Rule.ALL_L, Rule.EX_L}
_RIGHT_RULES = {Rule.CONTR_R, Rule.WEAK_R, Rule.IMP_R, Rule.AND_R, Rule.OR_R,
                Rule.ALL_R, Rule.EX_R}


@dataclass(frozen=True)
class RuleApp:
    rule: Rule
    principal: int | None = None
    x: str | None = None
    a: object | None = None  # annotation proposition
    t: object | None = None  # witness term


@dataclass(frozen=True)
class Sequent:
    left: tuple
    right: tuple

    def __str__(self):
        return syntax.print_sequent(self.left, self.right)


@dataclass(frozen=True)
class ProofTree:
    conclusion: Sequent
    rule: RuleApp
    premises: tuple = ()

    def height(self) -> int:
        return 1 + max((p.height() for p in self.premises), default=0)


# ---------------------------------------------------------------------------
# Layer-specific operation bundles


@dataclass(frozen=True)
class SyntaxOps:
    alpha_eq: Callable
    substitute1: Callable  # (t, x, A) -> (t/x)A
    free_vars: Callable


BINDING_OPS = SyntaxOps(
    alpha_eq=syntax.alpha_eq,
    substitute1=lambda t, x, a: syntax.substitute({x: t}, a),
    free_vars=syntax.free_vars,
)

LTERM_OPS = SyntaxOps(
    alpha_eq=sigma.alpha_eq_l,
    substitute1=lambda t, x, a: sigma.substitute_l({x: t}, a),
    free_vars=sigma.free_vars_l,
)


class Congruence:
    """Decides the identification of propositions: normalize the terms inside
    them with a rewrite system, then compare up to alpha. With no system the
    congruence is syntactic (alpha only)."""

    def __init__(self, system: sigma.RewriteSystem | None = None,
                 layer: str | None = None, budget: int = sigma.DEFAULT_BUDGET):
        self.system = system
        self.layer = system.layer if system is not None else (layer or "term")
        self.budget = budget
        self.ops = LTERM_OPS if self.layer == "lterm" else BINDING_OPS
        self._nf_cache: dict = {}

    @staticmethod
    def syntactic(layer: str = "term") -> "Congruence":
        return Congruence(None, layer=layer)

    def normal_form(self, a):
        if self.system is None:
            return a
        if a in self._nf_cache:
            return self._nf_cache[a]
        try:
            nf = sigma.normalize(self.system, a, budget=self.budget)
        except StepBudgetExceeded as e:
            raise CongruenceBudgetExceeded(e.budget) from None
        self._nf_cache[a] = nf
        return nf

    def equal(self, a, b) -> bool:
        if self.ops.alpha_eq(a, b):
            return True
        if self.system is None:
            return False
        return self.ops.alpha_eq(self.normal_form(a), self.normal_form(b))


def congruence_closure_check(cong: Congruence, a, b) -> bool:
    """True iff the normal forms of a and b are alpha-equal."""
    return cong.equal(a, b)


# ---------------------------------------------------------------------------
# The checker engine


def check_binding_proof(sig: Signature, p: ProofTree) -> CheckResult:
    """Check a proof tree against the plain binding-logic rules: matching is
    up to alpha-equivalence, quantifier witnesses substitute capture-avoidingly
    (with respect to symbol binders too), and the right-forall / left-exists
    rules enforce the freshness side condition."""
    return _check(sig, Congruence.syntactic("term"), p, modulo=False)


def check_modulo_proof(sig: Signature, cong: Congruence, p: ProofTree) -> CheckResult:
    """Check a proof tree against the calculus modulo: every side condition
    written as a congruence is decided by the supplied normalizing system."""
    return _check(sig, cong, p, modulo=True)


def _check(sig, cong: Congruence, proof: ProofTree, modulo: bool) -> CheckResult:
    ops = cong.ops

    def fail(kind, path, msg):
        return CheckResult.failed(kind, path, msg)

    def alpha_list(xs, ys) -> bool:
        return len(xs) == len(ys) and all(ops.alpha_eq(a, b) for a, b in zip(xs, ys))

    def ceq(a, b) -> bool:
        return cong.equal(a, b) if modulo else ops.alpha_eq(a, b)

    def principal(node, path, side):
        lst = node.conclusion.left if side == "left" else node.conclusion.right
        i = node.rule.principal
        if i is None:
            i = len(lst) - 1 if side == "left" else 0
        if not (0 <= i < len(lst)):
            return None, fail("PrincipalFormulaMissing", path,
                              f"no formula at {side} index {i}")
        return i, None

    def quantifier_parts(node, path, cls):
        """(x, A) from the annotation, or read off the principal formula."""
        app = node.rule
        if (app.x is None) != (app.a is None):
            return None, None, fail("RuleMismatch", path,
                                    "quantifier annotation needs both x and A")
        if app.x is not None and app.a is not None:
            return app.x, app.a, None
        side = "left" if app.rule in (Rule.ALL_L, Rule.EX_L) else "right"
        i, err = principal(node, path, side)
        if err is not None:
            return None, None, err
        b = (node.conclusion.left if side == "left" else node.conclusion.right)[i]
        if modulo:
            b = cong.normal_form(b)
        if not isinstance(b, cls):
            return None, None, fail(
                "RuleMismatch", path,
                f"principal formula is not a {cls.__name__.lower()} and no (x,A) annotation given")
        return b.var, b.body, None

    def check_node(node: ProofTree, path) -> CheckResult | None:
        rule = node.rule.rule
        L, R = node.conclusion.left, node.conclusion.right
        want = _PREMISE_COUNT.get(rule, 1)
        if len(node.premises) != want:
            return fail("RuleMismatch", path,
                        f"{rule.value} takes {want} premises, got {len(node.premises)}")
        prems = [q.conclusion for q in node.premises]

        if rule is Rule.AXIOM:
            if len(L) != 1 or len(R) != 1:
                return fail("RuleMismatch", path, "axiom concludes a one-formula sequent")
            if not ceq(L[0], R[0]):
                return fail("RuleMismatch", path, "axiom formulas are not identified")
            return None

        if rule is Rule.CUT:
            p1, p2 = prems
            if len(p1.left) != len(L) + 1 or not alpha_list(p1.left[:-1], L) \
                    or not alpha_list(p1.right, R):
                return fail("RuleMismatch", path, "first cut premise does not extend the left side")
            if len(p2.right) != len(R) + 1 or not alpha_list(p2.right[1:], R) \
                    or not alpha_list(p2.left, L):
                return fail("RuleMismatch", path, "second cut premise does not extend the right side")
            if not ceq(p1.left[-1], p2.right[0]):
                return fail("RuleMismatch", path, "cut formulas are not identified")
            return None

        if rule in (Rule.CONTR_L, Rule.CONTR_R):
            side = "left" if rule is Rule.CONTR_L else "right"
            i, err = principal(node, path, side)
            if err is not None:
                return err
            (p,) = prems
            if rule is Rule.CONTR_L:
                gamma = L[:i] + L[i + 1:]
                okctx = (len(p.left) == len(gamma) + 2 and alpha_list(p.left[:-2], gamma)
                         and alpha_list(p.right, R))
                b1, b2 = (p.left[-2:] if okctx else (None, None))
                a = L[i]
            else:
                delta = R[:i] + R[i + 1:]
                okctx = (len(p.right) == len(delta) + 2 and alpha_list(p.right[2:], delta)
                         and alpha_list(p.left, L))
                b1, b2 = (p.right[:2] if okctx else (None, None))
                a = R[i]
            if not okctx:
                return fail("RuleMismatch", path, f"{rule.value} premise has the wrong shape")
            if not (ceq(a, b1) and ceq(a, b2)):
                return fail("RuleMismatch", path, "contracted formulas are not identified")
            return None

        if rule in (Rule.WEAK_L, Rule.WEAK_R):
            side = "left" if rule is Rule.WEAK_L else "right"
            i, err = principal(node, path, side)
            if err is not None:
                return err
            (p,) = prems
            if rule is Rule.WEAK_L:
                ok = alpha_list(p.left, L[:i] + L[i + 1:]) and alpha_list(p.right, R)
            else:
                ok = alpha_list(p.right, R[:i] + R[i + 1:]) and alpha_list(p.left, L)
            if not ok:
                return fail("RuleMismatch", path, f"{rule.value} premise has the wrong shape")
            return None

        if rule is Rule.IMP_L:
            i, err = principal(node, path, "left")
            if err is not None:
                return err
            gamma = L[:i] + L[i + 1:]
            p1, p2 = prems
            if len(p1.right) != len(R) + 1 or not alpha_list(p1.right[1:], R) \
                    or not alpha_list(p1.left, gamma):
                return fail("RuleMismatch", path, "first imp-left premise has the wrong shape")
            if len(p2.left) != len(gamma) + 1 or not alpha_list(p2.left[:-1], gamma) \
                    or not alpha_list(p2.right, R):
                return fail("RuleMismatch", path, "second imp-left premise has the wrong shape")
            if not ceq(L[i], Imp(p1.right[0], p2.left[-1])):
                return fail("RuleMismatch", path, "principal is not the implication of the premises")
            return None

        if rule is Rule.IMP_R:
            i, err = principal(node, path, "right")
            if err is not None:
                return err
            delta = R[:i] + R[i + 1:]
            (p,) = prems
            if len(p.left) != len(L) + 1 or not alpha_list(p.left[:-1], L) \
                    or len(p.right) != len(delta) + 1 or not alpha_list(p.right[1:], delta):
                return fail("RuleMismatch", path, "imp-right premise has the wrong shape")
            if not ceq(R[i], Imp(p.left[-1], p.right[0])):
                return fail("RuleMismatch", path, "principal is not the implication of the premise")
            return None

        if rule is Rule.AND_L:
            i, err = principal(node, path, "left")
            if err is not None:
                return err
            gamma = L[:i] + L[i + 1:]
            (p,) = prems
            if len(p.left) != len(gamma) + 2 or not alpha_list(p.left[:-2], gamma) \
                    or not alpha_list(p.right, R):
                return fail("RuleMismatch", path, "and-left premise has the wrong shape")
            if not ceq(L[i], And(p.left[-2], p.left[-1])):
                return fail("RuleMismatch", path, "principal is not the conjunction of the premise")
            return None

        if rule is Rule.AND_R:
            i, err = principal(node, path, "right")
            if err is not None:
                return err
            delta = R[:i] + R[i + 1:]
            p1, p2 = prems
            for p in (p1, p2):
                if len(p.right) != len(delta) + 1 or not alpha_list(p.right[1:], delta) \
                        or not alpha_list(p.left, L):
                    return fail("RuleMismatch", path, "and-right premise has the wrong shape")
            if not ceq(R[i], And(p1.right[0], p2.right[0])):
                return fail("RuleMismatch", path, "principal is not the conjunction of the premises")
            return None

        if rule is Rule.OR_L:
            i, err = principal(node, path, "left")
            if err is not None:
                return err
            gamma = L[:i] + L[i + 1:]
            p1, p2 = prems
            for p in (p1, p2):
                if len(p.left) != len(gamma) + 1 or not alpha_list(p.left[:-1], gamma) \
                        or not alpha_list(p.right, R):
                    return fail("RuleMismatch", path, "or-left premise has the wrong shape")
            if not ceq(L[i], Or(p1.left[-1], p2.left[-1])):
                return fail("RuleMismatch", path, "principal is not the disjunction of the premises")
            return None

        if rule is Rule.OR_R:
            i, err = principal(node, path, "right")
            if err is not None:
                return err
            delta = R[:i] + R[i + 1:]
            (p,) = prems
            if len(p.right) != len(delta) + 2 or not alpha_list(p.right[2:], delta) \
                    or not alpha_list(p.left, L):
                return fail("RuleMismatch", path, "or-right premise has the wrong shape")
            if not ceq(R[i], Or(p.right[0], p.right[1])):
                return fail("RuleMismatch", path, "principal is not the disjunction of the premise")
            return None

        if rule is Rule.BOT_L:
            i, err = principal(node, path, "left")
            if err is not None:
                return err
            if not ceq(L[i], Bottom()):
                return fail("RuleMismatch", path, "principal is not falsity")
            return None

        if rule is Rule.ALL_L or rule is Rule.EX_R:
            cls = Forall if rule is Rule.ALL_L else Exists
            x, a, err = quantifier_parts(node, path, cls)
            if err is not None:
                return err
            t = node.rule.t
            if t is None:
                return fail("RuleMismatch", path, f"{rule.value} needs a witness term")
            (p,) = prems
            if rule is Rule.ALL_L:
                i, err = principal(node, path, "left")
                if err is not None:
                    return err
                gamma = L[:i] + L[i + 1:]
                if len(p.left) != len(gamma) + 1 or not alpha_list(p.left[:-1], gamma) \
                        or not alpha_list(p.right, R):
                    return fail("RuleMismatch", path, "all-left premise has the wrong shape")
                instance, b = p.left[-1], L[i]
            else:
                i, err = principal(node, path, "right")
                if err is not None:
                    return err
                delta = R[:i] + R[i + 1:]
                if len(p.right) != len(delta) + 1 or not alpha_list(p.right[1:], delta) \
                        or not alpha_list(p.left, L):
                    return fail("RuleMismatch", path, "ex-right premise has the wrong shape")
                instance, b = p.right[0], R[i]
            if not ceq(b, cls(x, a)):
                return fail("RuleMismatch", path, "principal does not match the (x,A) annotation")
            if not ceq(instance, ops.substitute1(t, x, a)):
                return fail("RuleMismatch", path,
                            "premise formula is not the substitution instance of the annotation")
            return None

        if rule is Rule.ALL_R or rule is Rule.EX_L:
            cls = Forall if rule is Rule.ALL_R else Exists
            x, a, err = quantifier_parts(node, path, cls)
            if err is not None:
                return err
            (p,) = prems
            if rule is Rule.ALL_R:
                i, err = principal(node, path, "right")
                if err is not None:
                    return err
                delta = R[:i] + R[i + 1:]
                if len(p.right) != len(delta) + 1 or not alpha_list(p.right[1:], delta) \
                        or not alpha_list(p.left, L):
                    return fail("RuleMismatch", path, "all-right premise has the wrong shape")
                body, b, ctx = p.right[0], R[i], list(L) + list(delta)
            else:
                i, err = principal(node, path, "left")
                if err is not None:
                    return err
                gamma = L[:i] + L[i + 1:]
                if len(p.left) != len(gamma) + 1 or not alpha_list(p.left[:-1], gamma) \
                        or not alpha_list(p.right, R):
                    return fail("RuleMismatch", path, "ex-left premise has the wrong shape")
                body, b, ctx = p.left[-1], L[i], list(gamma) + list(R)
            if not ceq(b, cls(x, a)):
                return fail("RuleMismatch", path, "principal does not match the (x,A) annotation")
            if not ops.alpha_eq(body, a):
                return fail("RuleMismatch", path, "premise formula differs from the annotation body")
            if any(x in ops.free_vars(c) for c in ctx):
                return fail("SideConditionViolated", path, f"{x} occurs free in the context")
            return None

        raise AssertionError(rule)

    def walk(node: ProofTree, path) -> CheckResult:
        try:
            err = check_node(node, path)
        except CongruenceBudgetExceeded:
            return CheckResult.failed("CongruenceBudgetExceeded", path,
                                      "congruence decision ran out of budget")
        if err is not None:
            return err
        for i, q in enumerate(node.premises):
            r = walk(q, path + (i,))
            if not r.ok:
                return r
        return CheckResult.passed()

    return walk(proof, ())


def principal_quantifier_parts(node: ProofTree):
    """The (x, A) of a quantifier node: explicit annotation if present, else
    read syntactically off the principal formula."""
    app = node.rule
    if app.x is not None and app.a is not None:
        return app.x, app.a
    side_left = app.rule in (Rule.ALL_L, Rule.EX_L)
    lst = node.conclusion.left if side_left else node.conclusion.right
    i = app.principal
    if i is None:
        i = len(lst) - 1 if side_left else 0
    b = lst[i]
    if not isinstance(b, (Forall, Exists)):
        raise ValueError(f"principal formula {b} is not quantified")
    return b.var, b.body


# ---------------------------------------------------------------------------
# Proof files
#
#   rule <name> [x=<var> A=<prop> t=<term> at=<index>] |- <left> |- <right>
# with child proofs indented two spaces. An optional first line
# `syntax lprop` switches the proposition syntax to the sorted layer.

_RULE_BY_NAME = {r.value: r for r in Rule}
_KEY_RE = re.compile(r"(at|x|A|t)=")


def _parse_params(s: str, lineno: int) -> dict[str, str]:
    spans = []
    depth = 0
    key = None
    val_start = 0
    i = 0
    while i < len(s):
        c = s[i]
        if depth == 0 and (i == 0 or s[i - 1].isspace()):
            m = _KEY_RE.match(s, i)
            if m:
                if key is not None:
                    spans.append((key, val_start, i))
                key = m.group(1)
                val_start = m.end()
                i = m.end()
                continue
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        i += 1
    if key is not None:
        spans.append((key, val_start, len(s)))
    out = {}
    for k, a, b in spans:
        if k in out:
            raise ParseError(f"duplicate parameter {k!r}", line=lineno)
        out[k] = s[a:b].strip()
    return out


def parse_proof_file(text: str, sig: Signature | None = None) -> ProofTree:
    layer = "term"
    lines = text.splitlines()
    entries: list[tuple[int, str, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        if not entries and stripped.strip().startswith("syntax"):
            layer = stripped.split()[1]
            if layer not in ("term", "lprop"):
                raise ParseError(f"unknown proof syntax {layer!r}", line=lineno)
            continue
        indent = len(stripped) - len(stripped.lstrip())
        if indent % 2 != 0:
            raise ParseError("indentation must be two spaces per level", line=lineno)
        entries.append((indent // 2, stripped.strip(), lineno))
    if not entries:
        raise ParseError("empty proof file")

    def make_parser(txt: str):
        if layer == "lprop":
            return sigma.LParser(txt)
        return syntax.Parser(txt, sig)

    def parse_line(content: str, lineno: int) -> tuple[Sequent, RuleApp]:
        m = re.match(r"rule\s+(\S+)\s*(.*)$", content)
        if not m:
            raise ParseError(f"expected `rule <name> ...`: {content!r}", line=lineno)
        rname, rest = m.group(1), m.group(2).strip()
        if rname not in _RULE_BY_NAME:
            raise ParseError(f"unknown rule {rname!r}", line=lineno)
        params: dict[str, str] = {}
        if rest.startswith("["):
            depth = 0
            for j, c in enumerate(rest):
                if c == "[":
                    depth += 1
                elif c == "]":
                    depth -= 1
                    if depth == 0:
                        break
            else:
                raise ParseError("unterminated parameter block", line=lineno)
            params = _parse_params(rest[1:j], lineno)
            rest = rest[j + 1:].strip()
        if not rest.startswith("|-"):
            raise ParseError("expected `|-` before the sequent", line=lineno)
        seq_parser = make_parser(rest[2:])
        left, right = seq_parser.sequent()
        seq_parser.done()
        principal = int(params["at"]) if "at" in params else None
        x = params.get("x")
        a = t = None
        if "A" in params:
            pp = make_parser(params["A"])
            a = pp.prop()
            pp.done()
        if "t" in params:
            tp = make_parser(params["t"])
            t = tp.term()
            tp.done()
        return Sequent(left, right), RuleApp(_RULE_BY_NAME[rname], principal, x, a, t)

    def build(idx: int, depth: int) -> tuple[ProofTree, int]:
        d, content, lineno = entries[idx]
        if d != depth:
            raise ParseError(f"unexpected indentation level {d}", line=lineno)
        seq, app = parse_line(content, lineno)
        idx += 1
        prems = []
        while idx < len(entries) and entries[idx][0] == depth + 1:
            child, idx = build(idx, depth + 1)
            prems.append(child)
        if idx < len(entries) and entries[idx][0] > depth + 1:
            raise ParseError("indentation jumps by more than one level", line=entries[idx][2])
        return ProofTree(seq, app, tuple(prems)), idx

    root, idx = build(0, 0)
    if idx != len(entries):
        raise ParseError("trailing proof lines outside the root tree", line=entries[idx][2])
    return root


def print_proof_file(p: ProofTree, layer: str = "term") -> str:
    lines = []
    if layer == "lprop":
        lines.append("syntax lprop")
    pprop = sigma.print_lprop if layer == "lprop" else syntax.print_prop
    pterm = sigma.print_lterm if layer == "lprop" else syntax.print_term

    def seq_str(s: Sequent) -> str:
        return (", ".join(pprop(a) for a in s.left) + " |- "
                + ", ".join(pprop(b) for b in s.right)).strip()

    def go(node: ProofTree, depth: int):
        app = node.rule
        params = []
        if app.x is not None:
            params.append(f"x={app.x}")
        if app.a is not None:
            params.append(f"A={pprop(app.a)}")
        if app.t is not None:
            params.append(f"t={pterm(app.t)}")
        if app.principal is not None:
            params.append(f"at={app.principal}")
        block = f" [{' '.join(params)}]" if params else ""
        lines.append("  " * depth + f"rule {app.rule.value}{block} |- {seq_str(node.conclusion)}")
        for q in node.premises:
            go(q, depth + 1)

    go(p, 0)
    return "\n".join(lines) + "\n"
