"""Sequents, rule-tagged proof trees, and the one checker: the calculus
modulo a congruence generated by a normalizing rewrite system, of which the
plain binding-logic calculus is the case of the syntactic congruence.

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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class RuleSpec:
    """The shape of one rule figure, the checker's only per-rule knowledge
    besides the axiom's one-formula conclusion.

    side: where the principal formula sits in the conclusion, "left" or
        "right"; None for the axiom and cut, which have none.
    premises: one (n, m) per premise: its left side is the conclusion's left
        context followed by n new formulas, its right side m new formulas
        followed by the conclusion's right context. A context is its side of
        the conclusion without the principal formula.
    connective: how the new formulas, in premise order and left ones first,
        give the principal: a class (Imp, And, Or, Bottom) that rebuilds it;
        SAME, each is a copy of it (of the first one when there is no
        principal; the axiom's two formulas count as new); or None.
    quantifier: Forall or Exists. The principal must be identified with
        quantifier(x, A), (x, A) taken from the annotation or else read off
        the principal.
    witness: the new formula is A's instance at the witness term t; else it is
        A itself and x must not be free in the context.
    """

    side: str | None
    premises: tuple[tuple[int, int], ...]
    connective: object = None
    quantifier: type | None = None
    witness: bool = False


SAME = "same"

RULES = {
    Rule.AXIOM: RuleSpec(None, (), SAME),
    Rule.CUT: RuleSpec(None, ((1, 0), (0, 1)), SAME),
    Rule.CONTR_L: RuleSpec("left", ((2, 0),), SAME),
    Rule.CONTR_R: RuleSpec("right", ((0, 2),), SAME),
    Rule.WEAK_L: RuleSpec("left", ((0, 0),)),
    Rule.WEAK_R: RuleSpec("right", ((0, 0),)),
    Rule.IMP_L: RuleSpec("left", ((0, 1), (1, 0)), Imp),
    Rule.IMP_R: RuleSpec("right", ((1, 1),), Imp),
    Rule.AND_L: RuleSpec("left", ((2, 0),), And),
    Rule.AND_R: RuleSpec("right", ((0, 1), (0, 1)), And),
    Rule.OR_L: RuleSpec("left", ((1, 0), (1, 0)), Or),
    Rule.OR_R: RuleSpec("right", ((0, 2),), Or),
    Rule.BOT_L: RuleSpec("left", (), Bottom),
    Rule.ALL_L: RuleSpec("left", ((1, 0),), quantifier=Forall, witness=True),
    Rule.ALL_R: RuleSpec("right", ((0, 1),), quantifier=Forall),
    Rule.EX_L: RuleSpec("left", ((1, 0),), quantifier=Exists),
    Rule.EX_R: RuleSpec("right", ((0, 1),), quantifier=Exists, witness=True),
}

QUANTIFIER_RULES = frozenset(r for r, spec in RULES.items() if spec.quantifier is not None)


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
        return 1 + max(depth for _, depth, _ in self.walk())

    def walk(self):
        """(node, depth, link) for each node of the tree in preorder, the
        root at depth 0; a link is (index, parent's link), the root's None
        (see syntax.path_of). The walk keeps its own stack, so a tree of
        any height walks."""
        stack = [(self, 0, None)]
        while stack:
            node, depth, link = stack.pop()
            yield node, depth, link
            stack += [(q, depth + 1, (i, link))
                      for i, q in reversed(tuple(enumerate(node.premises)))]

    # A frozen dataclass's ==, hash and repr recurse through the premises.
    # These read the preorder of (conclusion, rule, premise count): it fixes
    # the tree, and no tree's is a proper prefix of another's, so zip is exact.
    def _preorder(self):
        return ((n.conclusion, n.rule, len(n.premises)) for n, _, _ in self.walk())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(a == b for a, b in zip(self._preorder(), other._preorder()))

    def __hash__(self):
        return hash(tuple(self._preorder()))

    def __repr__(self):
        return f"ProofTree({print_proof_file(self)!r})"


# ---------------------------------------------------------------------------
# Congruences


class Congruence:
    """Decides the identification of propositions: normalize the terms inside
    them with a rewrite system, then compare up to alpha. With no system the
    congruence is syntactic (alpha only)."""

    def __init__(self, system: sigma.RewriteSystem | None = None,
                 budget: int = sigma.DEFAULT_BUDGET):
        self.system = system
        self.budget = budget
        self._nf_cache: dict = {}

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
        if syntax.alpha_eq(a, b):
            return True
        if self.system is None:
            return False
        return syntax.alpha_eq(self.normal_form(a), self.normal_form(b))


# ---------------------------------------------------------------------------
# The checker engine


def check_binding_proof(sig: Signature, p: ProofTree) -> CheckResult:
    """Check a proof tree against the plain binding-logic rules: the calculus
    modulo the syntactic congruence (see check_modulo_proof). Matching is up
    to alpha-equivalence, quantifier witnesses substitute capture-avoidingly
    (with respect to symbol binders too), and the right-forall / left-exists
    rules enforce the freshness side condition."""
    return check_modulo_proof(sig, Congruence(), p)


def check_modulo_proof(sig: Signature, cong: Congruence, p: ProofTree) -> CheckResult:
    """Check a proof tree against the calculus modulo: every side condition
    written as a congruence is decided by the supplied normalizing system.
    First every formula, annotation and witness must be well-formed over sig:
    the rules of the system can erase an ill-formed subterm, and alpha
    equates g(x x. x), whose binders repeat, with g(x y. y)."""
    res = _check_signature(sig, cong, p)
    return res if not res.ok else _check(cong, p)


def _check_signature(sig: Signature, cong: Congruence, proof: ProofTree) -> CheckResult:
    """The signature judge (see syntax._judge), on the congruence's layer,
    over each formula, annotation and witness of the proof, with one set of
    judged nodes: each distinct node is judged once."""
    sorted_layer = cong.system is not None and cong.system.layer == "lterm"
    judged: set[int] = set()  # ids: the proof keeps its nodes alive

    def check_node(node: ProofTree, link):
        for x in node.conclusion.left + node.conclusion.right + (node.rule.a, node.rule.t):
            if x is not None and id(x) not in judged and \
                    not (r := syntax._judge(sig, x, sorted_layer, judged)).ok:
                raise _Rejected(r.kind, f"{x} is ill-formed: {r}")

    return _first_rejection(proof, check_node)


class _Rejected(Exception):
    """A node fails a check: the CheckResult kind and message."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        self.message = message


def _principal_index(node: ProofTree, side: str) -> int:
    """The principal's index on its side: the rule's `at=`, else the position
    the rule figures display. Raises _Rejected when no formula is there."""
    formulas = node.conclusion.left if side == "left" else node.conclusion.right
    i = node.rule.principal
    if i is None:
        i = len(formulas) - 1 if side == "left" else 0
    if not 0 <= i < len(formulas):
        raise _Rejected("PrincipalFormulaMissing", f"no formula at {side} index {i}")
    return i


def _quantifier_parts(node: ProofTree, normal_form):
    """(x, A) of a quantifier node: the annotation if given, else read off the
    principal formula after normal_form. Raises _Rejected."""
    app = node.rule
    if (app.x is None) != (app.a is None):
        raise _Rejected("RuleMismatch", "quantifier annotation needs both x and A")
    if app.x is not None:
        return app.x, app.a
    spec = RULES[app.rule]
    formulas = node.conclusion.left if spec.side == "left" else node.conclusion.right
    b = normal_form(formulas[_principal_index(node, spec.side)])
    if not isinstance(b, spec.quantifier):
        raise _Rejected("RuleMismatch", f"principal formula is not a "
                        f"{spec.quantifier.__name__.lower()} and no (x,A) annotation given")
    return b.var, b.body


def principal_quantifier_parts(node: ProofTree):
    """The (x, A) of a quantifier node: explicit annotation if present, else
    read syntactically off the principal formula."""
    try:
        return _quantifier_parts(node, lambda b: b)
    except _Rejected as e:
        raise ValueError(e.message) from None


def _check(cong: Congruence, proof: ProofTree) -> CheckResult:
    ceq = cong.equal

    def alpha_list(xs, ys) -> bool:  # interned: == is an identity test per formula
        return xs == ys or len(xs) == len(ys) and all(map(syntax.alpha_eq, xs, ys))

    def check_node(node: ProofTree):
        app = node.rule
        name, spec = app.rule.value, RULES[app.rule]
        L, R = node.conclusion.left, node.conclusion.right
        if len(node.premises) != len(spec.premises):
            raise _Rejected("RuleMismatch", f"{name} takes {len(spec.premises)} premises, "
                                            f"got {len(node.premises)}")
        if spec.quantifier is not None:
            x, a = _quantifier_parts(node, cong.normal_form)
            if spec.witness and app.t is None:
                raise _Rejected("RuleMismatch", f"{name} needs a witness term")

        principal, gamma, delta, new = None, L, R, []
        if spec.side == "left":
            i = _principal_index(node, "left")
            principal, gamma = L[i], L[:i] + L[i + 1:]
        elif spec.side == "right":
            i = _principal_index(node, "right")
            principal, delta = R[i], R[:i] + R[i + 1:]
        elif app.rule is Rule.AXIOM:
            if len(L) != 1 or len(R) != 1:
                raise _Rejected("RuleMismatch", "axiom concludes a one-formula sequent")
            new = [L[0], R[0]]

        for k, (p, (n, m)) in enumerate(zip(node.premises, spec.premises)):
            pl, pr = p.conclusion.left, p.conclusion.right
            if not (len(pl) == len(gamma) + n and alpha_list(pl[:len(gamma)], gamma)
                    and len(pr) == len(delta) + m and alpha_list(pr[m:], delta)):
                raise _Rejected("RuleMismatch", f"{name} premise {k} has the wrong shape")
            new += pl[len(gamma):] + pr[:m]

        if spec.connective is SAME:
            first, copies = (new[0], new[1:]) if principal is None else (principal, new)
            if not all(ceq(first, b) for b in copies):
                raise _Rejected("RuleMismatch", f"{name} formulas are not identified")
        elif spec.connective is not None and not ceq(principal, spec.connective(*new)):
            raise _Rejected("RuleMismatch", f"principal is not the "
                            f"{spec.connective.__name__.lower()} of the premise formulas")

        if spec.quantifier is not None:
            (body,) = new
            if not ceq(principal, spec.quantifier(x, a)):
                raise _Rejected("RuleMismatch", "principal does not match the (x,A) annotation")
            if spec.witness:
                if not ceq(body, syntax.subst({x: app.t}, a)):
                    raise _Rejected("RuleMismatch", "premise formula is not the "
                                    "substitution instance of the annotation")
            elif not syntax.alpha_eq(body, a):
                raise _Rejected("RuleMismatch", "premise formula differs from the annotation body")
            elif any(x in syntax.free_vars(c) for c in gamma + delta):
                raise _Rejected("SideConditionViolated", f"{x} occurs free in the context")

    return _first_rejection(proof, lambda node, link: check_node(node))


def _first_rejection(proof: ProofTree, check_node) -> CheckResult:
    """check_node(node, link) at every node in preorder (see ProofTree.walk);
    the first node it rejects, as a failed CheckResult."""
    for node, _, link in proof.walk():
        try:
            check_node(node, link)
        except _Rejected as e:
            return CheckResult.failed(e.kind, syntax.path_of(link), e.message)
        except CongruenceBudgetExceeded:
            return CheckResult.failed("CongruenceBudgetExceeded", syntax.path_of(link),
                                      "congruence decision ran out of budget")
    return CheckResult.passed()


# ---------------------------------------------------------------------------
# Proof files
#
#   rule <name> [x=<var> A=<prop> t=<term> at=<index>] |- <left> |- <right>
# with child proofs indented two spaces. An optional first line
# `syntax lprop` switches the proposition syntax to the sorted layer, whose
# parser then reads the text after the rule name (see _read_line).

_RULE_BY_NAME = {r.value: r for r in Rule}
_LAYERS = ("term", "lprop")


def proof_file_layer(text: str) -> str:
    """"lprop" for a proof file written over the sorted layer, else "term"."""
    return syntax.file_lines(text, _LAYERS)[0]


def parse_proof_file(text: str, sig: Signature | None = None) -> ProofTree:
    """The proof tree of a proof file, built from a stack of the nodes whose
    premises are still being read, one per level, so that a proof of any
    height reads."""
    layer, lines = syntax.file_lines(text, _LAYERS)
    entries: list[tuple[int, str, int]] = []
    for lineno, line in lines:
        indent = len(line) - len(line.lstrip())
        if indent % 2 != 0:
            raise ParseError("indentation must be two spaces per level", line=lineno)
        entries.append((indent // 2, line.strip(), lineno))
    if not entries:
        raise ParseError("empty proof file")
    parser = sigma.LParser if layer == "lprop" else syntax.Parser
    formulas: dict = {}  # one node per distinct formula text of this file
    stack: list = []  # (sequent, rule, premises read so far) per open level

    def close() -> ProofTree:
        seq, app, prems = stack.pop()
        node = ProofTree(seq, app, tuple(prems))
        if stack:
            stack[-1][2].append(node)
        return node

    for depth, content, lineno in entries:
        if depth > len(stack):
            raise ParseError("indentation jumps by more than one level" if stack
                             else f"unexpected indentation level {depth}", line=lineno)
        if depth == 0 and stack:
            raise ParseError("trailing proof lines outside the root tree", line=lineno)
        while len(stack) > depth:
            close()
        word, rname, rest = (content.split(None, 2) + ["", ""])[:3]
        if word != "rule" or not rname:
            raise ParseError(f"expected `rule <name> ...`: {content!r}", line=lineno)
        if rname not in _RULE_BY_NAME:
            raise ParseError(f"unknown rule {rname!r}", line=lineno)
        try:
            params, left, right = _read_line(parser, rest, sig, formulas)
        except ParseError as e:
            raise ParseError(e.message, line=lineno) from None
        stack.append((Sequent(left, right), RuleApp(_RULE_BY_NAME[rname], params.get("at"),
                      params.get("x"), params.get("A"), params.get("t")), []))
    while len(stack) > 1:
        close()
    return close()


def _read_line(parser: type, text: str, sig: Signature | None, formulas: dict):
    """(parameters, left side, right side) of the text `[params] |- left |-
    right` of a proof line after its rule name.

    The text is cut at its first two `|-`, and each side at its commas
    outside parentheses into formula texts. A formula text that `formulas`
    holds is the node read then; a new one is read by a parser of its own
    and entered once that parse ends at the text's end. No token spans a
    cut, and a formula holds no comma or turnstile outside parentheses, so
    where every piece reads, the line reads the same in one piece. On any
    error the line is read again in one piece, which raises the error and
    offset a one-piece read gives, stray characters first."""
    head, *sides = text.split("|-", 2)
    if len(sides) == 2:
        try:
            p = parser(head, sig)
            params = p.params()
            p.done()
            return params, *(tuple(_formula(parser, piece, sig, formulas)
                                   for piece in _formula_texts(side)) for side in sides)
        except ParseError:
            pass
    p = parser(text, sig)
    params = p.params()
    p.expect("turnstile")
    left, right = p.sequent()
    p.done()
    return params, left, right


def _formula_texts(side: str) -> list[str]:
    """side cut at its commas outside parentheses, each piece stripped; none
    for a blank side."""
    if not side.strip():
        return []
    pieces: list[str] = []
    depth = 0
    for piece in side.split(","):
        if depth > 0:
            pieces[-1] += "," + piece
        else:
            pieces.append(piece)
        depth += piece.count("(") - piece.count(")")
    return [piece.strip() for piece in pieces]


def _formula(parser: type, text: str, sig: Signature | None, formulas: dict):
    a = formulas.get(text)
    if a is None:
        a = formulas[text] = parser(text, sig).whole(True)
    return a


def print_proof_file(p: ProofTree, layer: str = "term") -> str:
    lines = ["syntax lprop"] if layer == "lprop" else []
    for node, depth, _ in p.walk():
        app = node.rule
        params = [f"{key}={value}" for key, value in  # nodes print by show
                  (("x", app.x), ("A", app.a), ("t", app.t), ("at", app.principal))
                  if value is not None]
        block = f" [{' '.join(params)}]" if params else ""
        lines.append("  " * depth + f"rule {app.rule.value}{block} |- {node.conclusion}")
    return "\n".join(lines) + "\n"
