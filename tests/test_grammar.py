"""One grammar for both layers: the operator table, the shared parser and
printer, and the proof-line reader, checked against the grammar they
replaced.

The `_ref_*` code below is the earlier grammar kept verbatim: its three
printers joined by a plug-in hook, its per-level precedence methods, its
two token regexes, and its proof-file reader with the character scanner for
parameter blocks. The tests assert byte-identical printing, identical parse
trees, and identical proof trees on seeded inputs; where the proof readers
disagree, the disagreement must be one the stricter parameter grammar
explains.
"""

import random
import re
import sys
from collections import Counter

import pytest

from bindlog import sigma, syntax
from bindlog.errors import ParseError
from bindlog.proofs import ProofTree, Rule, RuleApp, Sequent, parse_proof_file, print_proof_file
from bindlog.sigma import (
    Closure,
    Comp,
    Cons,
    FApp,
    FreeVar,
    Id,
    Index,
    LParser,
    MetaN,
    MetaT,
    Shift,
    _parse_sub,
    parse_lprop,
    parse_lterm,
    print_lprop,
    print_lterm,
)
from bindlog.syntax import (
    And,
    App,
    Atom,
    Bottom,
    Exists,
    Forall,
    Imp,
    Or,
    Parser,
    Slot,
    Var,
    parse_prop,
    parse_term,
    print_prop,
    print_term,
)

from test_proofs import _byte_mutant, _fuzz_bases, _structural_mutant

# ---------------------------------------------------------------------------
# The earlier printers, verbatim but for the `_ref` names

_ref_ext_term_printer = None  # installed below, as sigma did at import


def _ref_print_body(t) -> str:
    if isinstance(t, (Var, App)):
        return _ref_print_term(t)
    if _ref_ext_term_printer is not None:
        return _ref_ext_term_printer(t)
    return str(t)


def _ref_print_slot(s: Slot) -> str:
    if s.binders:
        return f"{' '.join(s.binders)}. {_ref_print_body(s.body)}"
    return _ref_print_body(s.body)


def _ref_print_term(t) -> str:
    if isinstance(t, Var):
        return t.name
    return f"{t.symbol}({', '.join(_ref_print_slot(s) for s in t.args)})"


# precedence levels: prop body 0, => 1, \/ 2, /\ 3, primary 4
def _ref_print_prop(p, level: int) -> str:
    if isinstance(p, (Forall, Exists)):
        kw = "forall" if isinstance(p, Forall) else "exists"
        s = f"{kw} {p.var}. {_ref_print_prop(p.body, 0)}"
        return f"({s})" if level > 0 else s
    if isinstance(p, Imp):
        s = f"{_ref_print_prop(p.a, 2)} => {_ref_print_prop(p.b, 0)}"
        return f"({s})" if level > 1 else s
    if isinstance(p, Or):
        s = f"{_ref_print_prop(p.a, 3)} \\/ {_ref_print_prop(p.b, 2)}"
        return f"({s})" if level > 2 else s
    if isinstance(p, And):
        s = f"{_ref_print_prop(p.a, 4)} /\\ {_ref_print_prop(p.b, 3)}"
        return f"({s})" if level > 3 else s
    if isinstance(p, Bottom):
        return "false"
    if isinstance(p, Atom):
        if p.args:
            return f"{p.pred}({', '.join(_ref_print_slot(s) for s in p.args)})"
        return p.pred
    raise TypeError(f"not a proposition: {p!r}")


# precedence: postfix/atoms 3, composition 2, cons 1
def _ref_pl(t, level: int) -> str:
    if isinstance(t, Index):
        return f"{t.i}_{t.n}"
    if isinstance(t, FreeVar):
        return t.name
    if isinstance(t, Id):
        return f"id_{t.n}"
    if isinstance(t, Shift):
        return f"up_{t.n}"
    if isinstance(t, FApp):
        return f"{t.f}_{t.p}({', '.join(_ref_pl(a, 0) for a in t.args)})"
    if isinstance(t, Closure):
        return f"{_ref_pl(t.t, 3)}[{_ref_pl(t.s, 0)}]"
    if isinstance(t, Comp):
        s = f"{_ref_pl(t.s1, 3)} o {_ref_pl(t.s2, 2)}"
        return f"({s})" if level > 2 else s
    if isinstance(t, Cons):
        s = f"{_ref_pl(t.t, 2)} . {_ref_pl(t.s, 1)}"
        return f"({s})" if level > 1 else s
    if isinstance(t, MetaT):
        return f"?{t.name}"
    raise TypeError(f"not a sorted term: {t!r}")


def _ref_print_lterm(t) -> str:
    return _ref_pl(t, 0)


_ref_ext_term_printer = _ref_print_lterm


def _ref_str(x) -> str:
    """What the earlier `__str__` patches printed for a node."""
    if isinstance(x, (Var, App)):
        return _ref_print_term(x)
    if isinstance(x, (Atom, Imp, And, Or, Bottom, Forall, Exists)):
        return _ref_print_prop(x, 0)
    return _ref_print_lterm(x)


# ---------------------------------------------------------------------------
# The earlier token regexes and precedence methods, verbatim

_REF_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<imp>=>)
      | (?P<and>/\\)
      | (?P<or>\\/)
      | (?P<turnstile>\|-)
      | (?P<arrow>->)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<comma>,)
      | (?P<dot>\.)
      | (?P<meta>\?\w+)
      | (?P<ident>[^\W\d]\w*'*|\d+)
      | (?P<sym>[=+*×<>])
    """,
    re.VERBOSE | re.UNICODE,
)

_REF_LTOKEN_RE = re.compile(
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


class _RefParser(Parser):
    """The term and proposition grammar: the shared methods, which are
    unchanged, and the earlier precedence methods."""

    token_re = _REF_TOKEN_RE

    def prop(self):
        kind, val, pos = self.peek()
        if kind == "kw" and val in ("forall", "exists"):
            self.next()
            var = self.expect("name")[1]
            self.expect("dot")
            body = self.prop()
            return (Forall if val == "forall" else Exists)(var, body)
        return self.imp()

    def imp(self):
        left = self.disj()
        if self.peek()[0] == "imp":
            self.next()
            return Imp(left, self.prop())
        return left

    def disj(self):
        left = self.conj()
        if self.peek()[0] == "or":
            self.next()
            return Or(left, self.disj())
        return left

    def conj(self):
        left = self.prim()
        if self.peek()[0] == "and":
            self.next()
            return And(left, self.conj())
        return left


class _RefLParser(_RefParser):
    token_re = _REF_LTOKEN_RE

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


def _ref_parse(parser_cls, method, text):
    p = parser_cls(text)
    x = getattr(p, method)()
    p.done()
    return x


# ---------------------------------------------------------------------------
# The earlier proof-file reader, verbatim but for the `_ref` names

_RULE_BY_NAME = {r.value: r for r in Rule}
_REF_KEY_RE = re.compile(r"(at|x|A|t)=")


def _ref_parse_params(s: str, lineno: int) -> dict[str, str]:
    spans = []
    depth = 0
    key = None
    val_start = 0
    i = 0
    while i < len(s):
        c = s[i]
        if depth == 0 and (i == 0 or s[i - 1].isspace()):
            m = _REF_KEY_RE.match(s, i)
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


def _ref_proof_lines(text: str):
    lines = [(lineno, raw.split("#", 1)[0].rstrip())
             for lineno, raw in enumerate(text.splitlines(), start=1)]
    lines = [(lineno, line) for lineno, line in lines if line.strip()]
    if lines and lines[0][1].strip().startswith("syntax"):
        lineno, header = lines.pop(0)
        words = header.split()
        if len(words) != 2 or words[0] != "syntax" or words[1] not in ("term", "lprop"):
            raise ParseError(f"expected `syntax term` or `syntax lprop`: {header.strip()!r}",
                             line=lineno)
        return words[1], lines
    return "term", lines


def _ref_parse_proof_file(text: str, sig=None) -> ProofTree:
    layer, lines = _ref_proof_lines(text)
    entries: list[tuple[int, str, int]] = []
    for lineno, stripped in lines:
        indent = len(stripped) - len(stripped.lstrip())
        if indent % 2 != 0:
            raise ParseError("indentation must be two spaces per level", line=lineno)
        entries.append((indent // 2, stripped.strip(), lineno))
    if not entries:
        raise ParseError("empty proof file")

    def make_parser(txt: str):
        if layer == "lprop":
            return _RefLParser(txt)
        return _RefParser(txt, sig)

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
            params = _ref_parse_params(rest[1:j], lineno)
            rest = rest[j + 1:].strip()
        if not rest.startswith("|-"):
            raise ParseError("expected `|-` before the sequent", line=lineno)
        seq_parser = make_parser(rest[2:])
        left, right = seq_parser.sequent()
        seq_parser.done()
        principal = None
        if "at" in params:
            try:
                principal = int(params["at"])
            except ValueError:
                raise ParseError(f"at= takes an integer, not {params['at']!r}",
                                 line=lineno) from None
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


# ---------------------------------------------------------------------------
# Seeded trees of both layers, drawn by shape only (printing and parsing
# ignore signatures and sorts)

_NAMES = ("x", "y", "z1", "x'", "Λ", "=", "+", "0", "c")
_PREDS = ("P", "Q", "=", "R2", "<")


def _rand_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return MetaT(rng.choice("ts")) if rng.random() < 0.1 else Var(rng.choice(_NAMES))
    slots = []
    for _ in range(rng.randint(0, 3)):
        binders = tuple(rng.sample(("x", "y", "w"), rng.randint(0, 2))) \
            if rng.random() < 0.4 else ()
        slots.append(Slot(binders, _rand_term(rng, depth - 1)))
    return App(rng.choice(_NAMES), tuple(slots))


def _num(rng, metas):
    if metas and rng.random() < 0.2:
        return MetaN(rng.choice("np"), rng.choice((0, 0, 1, 2)))
    return rng.randint(0, 12)


def _rand_lterm(rng, depth, metas=False):
    if depth == 0 or rng.random() < 0.25:
        leaf = rng.randrange(5)
        if leaf == 0:
            return Index(_num(rng, metas), _num(rng, metas))
        if leaf == 1:
            return Id(_num(rng, metas))
        if leaf == 2:
            return Shift(_num(rng, metas))
        if leaf == 3 and metas:
            return MetaT(rng.choice("ts"))
        return FreeVar(rng.choice(("x", "y", "z1", "up", "id")))
    kind = rng.randrange(4)
    if kind == 0:
        return FApp(rng.choice(("f", "Λ", "g'")), _num(rng, metas),
                    tuple(_rand_lterm(rng, depth - 1, metas) for _ in range(rng.randint(0, 3))))
    cls = (Closure, Cons, Comp)[kind - 1]
    return cls(_rand_lterm(rng, depth - 1, metas), _rand_lterm(rng, depth - 1, metas))


def _rand_prop(rng, depth, sorted_layer=False, metas=False):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.1:
            return Bottom()
        arity = rng.choice((0, 0, 1, 2))
        body = (lambda: _rand_lterm(rng, 3, metas)) if sorted_layer \
            else (lambda: _rand_term(rng, 3))
        return Atom(rng.choice(_PREDS), tuple(Slot((), body()) for _ in range(arity)))
    kind = rng.randrange(5)
    if kind < 3:
        return (Imp, Or, And)[kind](_rand_prop(rng, depth - 1, sorted_layer, metas),
                                    _rand_prop(rng, depth - 1, sorted_layer, metas))
    return (Forall, Exists)[kind - 3](rng.choice(("x", "y", "q")),
                                      _rand_prop(rng, depth - 1, sorted_layer, metas))


def _seeded_nodes(seed, count):
    """(layer, node): terms and propositions of both layers, the sorted ones
    also as patterns with ?t and numeric metavariables."""
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 5
        if kind == 0:
            yield "term", _rand_term(rng, 4)
        elif kind == 1:
            yield "term", _rand_prop(rng, 5)
        elif kind == 2:
            yield "lterm", _rand_lterm(rng, 5)
        elif kind == 3:
            yield "lterm", _rand_prop(rng, 4, sorted_layer=True)
        else:
            yield "lterm", rng.choice((_rand_lterm(rng, 5, metas=True),
                                       _rand_prop(rng, 4, sorted_layer=True, metas=True)))


def _text(printed: str) -> str:
    """Printed text with numeric metavariables written as the parsers read
    them (the printers show them as their repr)."""
    return re.sub(r"MetaN\(name='(\w+)', offset=(\d+)\)",
                  lambda m: f"?{m[1]}" + (f"+{m[2]}" if m[2] != "0" else ""), printed)


def _P(*args):
    return Atom("P", tuple(Slot((), a) for a in args))


A, B, C = Atom("A", ()), Atom("B", ()), Atom("C", ())
s, t, u = FreeVar("s"), FreeVar("t"), FreeVar("u")

_NAMED_CASES = [
    Imp(Imp(A, B), C),  # (A => B) => C
    Imp(A, Forall("x", B)),  # A => forall x. B
    And(Forall("x", A), B),
    Or(Imp(A, B), And(A, Or(B, C))),
    Forall("x", Exists("y", Imp(A, Bottom()))),
    Atom("Q", ()),  # a zero-argument atom
    App("c", ()),  # a zero-argument symbol
    App("Λ", (Slot(("x", "y"), App("f", (Slot((), Var("x")),))),)),
    App("+", (Slot((), MetaT("t")), Slot((), App("0", ())))),  # a pattern with ?t
]
_SORTED_CASES = [
    Comp(Comp(s, t), u),  # (s o t) o u
    Comp(Cons(t, s), u),  # (t . s) o u
    Closure(Cons(t, s), u),  # a closure of cons
    Closure(t, Cons(t, Comp(s, u))),
    Cons(Cons(t, s), u),
    Index(MetaN("n", 1), MetaN("n", 1)),  # ?n+1, as the earlier printer showed it
    Closure(MetaT("t"), Comp(Shift(MetaN("n")), MetaT("s"))),
    FApp("f", 0, ()),
    FApp("Λ", 2, (Closure(Index(1, 3), Shift(2)), Id(0))),
    _P(Cons(t, Comp(s, u)), Closure(t, Id(0))),
    Imp(Forall("x", _P(Closure(t, s))), Atom("Q", ())),
]


# ---------------------------------------------------------------------------
# Printers


@pytest.mark.parametrize("x", _NAMED_CASES + _SORTED_CASES, ids=str)
def test_printer_matches_reference_on_listed_cases(x):
    assert str(x) == _ref_str(x)


def test_printers_match_reference():
    checked = Counter()
    for _, x in _seeded_nodes(0x9A1, 4000):
        want = _ref_str(x)
        if isinstance(x, (Var, App)):
            assert print_term(x) == want
        elif isinstance(x, (Atom, Imp, And, Or, Bottom, Forall, Exists)):
            assert print_prop(x) == print_lprop(x) == want
        else:
            assert print_lterm(x) == want
        if not isinstance(x, MetaT):  # a pattern leaf, not a node: str is its repr
            assert str(x) == want
        checked[type(x).__name__] += 1
    assert len(checked) >= 8, checked


# The recursive `show` that the iterative one replaced, verbatim but for the
# `_ref` names, with bindlog.sigma's printers merged into its table


def _ref_args(slots) -> str:
    return ", ".join([f"{' '.join(s.binders)}. {_ref_show(s.body)}" if s.binders
                      else _ref_show(s.body) for s in slots])


_REF_SHOW = {
    Var: lambda x: x.name,
    App: lambda x: f"{x.symbol}({_ref_args(x.args)})",
    Atom: lambda x: f"{x.pred}({_ref_args(x.args)})" if x.args else x.pred,
    Bottom: lambda x: "false",
    Index: lambda x: f"{x.i}_{x.n}",
    FreeVar: lambda x: x.name,
    Id: lambda x: f"id_{x.n}",
    Shift: lambda x: f"up_{x.n}",
    FApp: lambda x: f"{x.f}_{x.p}({', '.join(map(_ref_show, x.args))})",
    Closure: lambda x: f"{_ref_show(x.t, syntax.TIGHTEST)}[{_ref_show(x.s)}]",
    MetaT: lambda x: f"?{x.name}",
}


def _ref_show(x, level: int = 0) -> str:
    cls = type(x)
    printer = _REF_SHOW.get(cls)
    if printer is not None:
        return printer(x)
    op = syntax.OPERATORS.get(cls)
    if op is not None:
        a, b = syntax.NODE_TYPES[cls].kids(x)
        s = f"{_ref_show(a, op.level + 1)} {op.text} {_ref_show(b, op.right)}"
        return f"({s})" if level > op.level else s
    if cls is Forall or cls is Exists:
        s = f"{syntax.NODE_TYPES[cls].name} {x.var}. {_ref_show(x.body)}"
        return f"({s})" if level > 0 else s
    raise TypeError(f"cannot print {x!r}")


def test_show_matches_recursive_reference_at_every_level():
    """Seeded nodes of both layers, printed at every level from a
    quantifier's to the tightest, as the recursive printer printed them;
    each operator and quantifier is met both bare and parenthesized."""
    seen = Counter()
    nodes = [x for _, x in _seeded_nodes(0x5E0, 3000)] + _NAMED_CASES + _SORTED_CASES
    for x in nodes:
        bare = _ref_show(x)
        for level in range(syntax.TIGHTEST + 1):
            want = _ref_show(x, level)
            assert syntax.show(x, level) == want, (x, level)
            seen[type(x), want != bare] += 1
    for cls in (*syntax.OPERATORS, Forall, Exists):
        assert seen[cls, False] and seen[cls, True], cls
    assert seen[Closure, False] and seen[FApp, False] and seen[App, False]


def test_show_takes_deep_input():
    limit = sys.getrecursionlimit()
    n = 10_000
    sorted_chain, named_chain = FreeVar("x"), Var("x")
    imp, comp, cons, closure, quantified = A, Id(0), Id(0), FreeVar("x"), A
    for _ in range(n):
        sorted_chain = FApp("f", 0, (sorted_chain,))
        named_chain = App("f", (Slot((), named_chain),))
        imp = Imp(imp, A)
        comp = Comp(comp, Id(0))
        cons = Cons(FreeVar("x"), cons)
        closure = Closure(closure, Id(0))
        quantified = Forall("x", quantified)
    cases = [
        (sorted_chain, "f_0(" * n + "x" + ")" * n),
        (named_chain, "f(" * n + "x" + ")" * n),
        (Atom("P", (Slot((), sorted_chain),)), "P(" + "f_0(" * n + "x" + ")" * (n + 1)),
        (imp, "(" * (n - 1) + "A => A" + ") => A" * (n - 1)),
        (comp, "(" * (n - 1) + "id_0 o id_0" + ") o id_0" * (n - 1)),
        (cons, "x . " * n + "id_0"),
        (closure, "x" + "[id_0]" * n),
        (quantified, "forall x. " * n + "A"),
    ]
    for x, want in cases:
        assert syntax.show(x) == str(x) == want
    assert syntax.show(imp, syntax.TIGHTEST) == f"({str(imp)})"
    assert sys.getrecursionlimit() == limit


def test_proof_file_printer_matches_reference():
    """print_proof_file prints sequents and annotations as the earlier
    printers did."""
    for text, sig, _ in _fuzz_bases():
        proof = parse_proof_file(text, sig)
        layer = syntax.file_lines(text, ("term", "lprop"))[0]
        printed = print_proof_file(proof, layer)
        assert printed.splitlines() == [ln.rstrip() for ln in text.splitlines()
                                        if ln.strip()], text

        def ref_line(node, depth):
            app = node.rule
            params = [f"x={app.x}"] if app.x is not None else []
            params += [f"A={_ref_print_prop(app.a, 0)}"] if app.a is not None else []
            params += [f"t={_ref_str(app.t)}"] if app.t is not None else []
            params += [f"at={app.principal}"] if app.principal is not None else []
            seq = (", ".join(_ref_print_prop(a, 0) for a in node.conclusion.left) + " |- "
                   + ", ".join(_ref_print_prop(b, 0) for b in node.conclusion.right)).strip()
            block = f" [{' '.join(params)}]" if params else ""
            return ["  " * depth + f"rule {app.rule.value}{block} |- {seq}"] + [
                ln for q in node.premises for ln in ref_line(q, depth + 1)]

        want = (["syntax lprop"] if layer == "lprop" else []) + ref_line(proof, 0)
        assert printed == "\n".join(want) + "\n"


# ---------------------------------------------------------------------------
# Parsers

_PARSERS = [  # (new parse, reference parser class and method)
    (parse_term, _RefParser, "term"),
    (parse_prop, _RefParser, "prop"),
    (parse_lterm, _RefLParser, "term"),
    (parse_lprop, _RefLParser, "prop"),
]


def _both(parse, ref_cls, method, text):
    """(new outcome, reference outcome): a tree, or "error"."""
    out = []
    for f in (lambda: parse(text), lambda: _ref_parse(ref_cls, method, text)):
        try:
            out.append(f())
        except ParseError:
            out.append("error")
    return tuple(out)


def _token_mutant(rng, text, layer):
    """text with one to three tokens deleted, duplicated, inserted or
    parenthesized; tokens as a layer lexes them, or runs of non-space."""
    token_re = _REF_TOKEN_RE if layer == "term" else _REF_LTOKEN_RE
    toks = [tok[1] for tok in syntax.tokenize(text, token_re)[:-1]] \
        if rng.random() < 0.5 else re.findall(r"\S+", text)
    extra = ("(", ")", "[", "]", ".", ",", "o", "=>", "\\/", "/\\", "forall x.", "false",
             "?n+1_2", "id_?n", "up_0", "f_?p(", "0", "x", "|-", "P")
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(toks))
        op = rng.randrange(4)
        if op == 0 and toks:
            del toks[min(i, len(toks) - 1)]
        elif op == 1 and toks:
            toks.insert(i, toks[rng.randrange(len(toks))])
        elif op == 2:
            toks.insert(i, rng.choice(extra))
        elif toks:
            j = rng.randrange(len(toks))
            toks.insert(min(i, j), "(")
            toks.insert(max(i, j) + 1, ")")
    return " ".join(toks)


def test_parsers_match_reference():
    """Printed seeded trees of both layers and token-level mutants of them
    parse to identical trees, or fail, under both grammars, whichever parser
    reads them."""
    rng = random.Random(0x9A2)
    outcomes = Counter()
    for layer, x in _seeded_nodes(0x9A3, 1200):
        text = _text(_ref_str(x))
        for candidate in (text, _token_mutant(rng, text, layer),
                          _token_mutant(rng, text, layer)):
            for parse, ref_cls, method in _PARSERS:
                new, ref = _both(parse, ref_cls, method, candidate)
                assert new == ref, (candidate, parse.__name__)
                outcomes[parse.__name__, new != "error"] += 1
    # each parser accepted and rejected many inputs
    assert min(outcomes.values()) > 300, outcomes


def _unexpected_character(make):
    try:
        make()
    except ParseError as e:
        return e.message, e.pos
    return None


def test_parser_raises_the_first_unexpected_character_as_tokenize_does():
    """A parser made on a text raises, before it reads anything, the error
    of the first character that tokenizing the whole text stops at, and
    nothing on a text that tokenizes; on random strings over every
    character the token lists treat specially."""
    rng = random.Random(0x70E)
    alphabet = ("x", "y1", "_", "0", "12", "Λ", "é", " ", "\t", "\n", "(", ")", "[", "]", ",",
                ".", "=", ">", "<", "+", "*", "×", "|", "-", "/", "\\", "?", "'", "#", "!",
                "@", "o", "id_", "up_", "f_", "1_2", "?n+", "|-", "->", "=>", "/\\", "\\/")
    outcomes = Counter()
    for _ in range(6000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
        for cls in (Parser, LParser, sigma._TermPatternParser):
            want = _unexpected_character(lambda: syntax.tokenize(text, cls.token_re))
            assert _unexpected_character(lambda: cls(text)) == want, (cls, text)
            outcomes[want is None] += 1
    assert min(outcomes.values()) > 3000, outcomes


def test_printed_trees_parse_back():
    """The printer writes what the parser of the node's layer reads back;
    named-layer patterns are read by the rule-file pattern parser."""
    for layer, x in _seeded_nodes(0x9A4, 2000):
        text = _text(syntax.show(x))
        p = sigma._TermPatternParser(text) if layer == "term" else LParser(text)
        is_prop = isinstance(x, (Atom, Imp, And, Or, Bottom, Forall, Exists))
        back = p.prop() if is_prop else p.term()
        p.done()
        assert back == x, text


# ---------------------------------------------------------------------------
# Proof files


def _outcome(read, text, sig):
    try:
        return read(text, sig)
    except ParseError as e:
        return e


def _parameter_fault(text: str) -> str | None:
    """The first thing in text's parameter blocks that the two readers take
    differently, as the earlier scanner saw each block: a key written
    without a space in front, text before the first key (which that scanner
    dropped, like an `at` missing its `=`), an at= that is not a
    non-negative integer, or an x= that is not one name."""
    for block in re.findall(r"^\s*rule\s+\S+\s*\[(.*?)\]\s*\|-", text, re.M):
        body = block.strip()
        if body and not _REF_KEY_RE.match(body):
            return "text before the first key"
        if re.search(r"[^\w\s\[](?:at|x|A|t)=", block):
            return "a key without a space in front"
        params = _ref_parse_params(body, 0)
        if "at" in params and not re.fullmatch(r"[0-9]+", params["at"]):
            return "at= is not a non-negative integer"
        if "x" in params and not re.fullmatch(r"[^\W\d]\w*'*|\d+", params["x"]):
            return "x= is not one name"
    return None


def test_proof_files_read_as_reference():
    """Over the samples, the corpus and 6,000 seeded mutants, both readers
    give identical ProofTrees or both reject. Where they differ, a parameter
    block holds something the stricter parameter grammar rejects (the new
    error names its line), or a key without a space in front, which the
    earlier scanner did not take for a key."""
    rng = random.Random(0x9A5)
    bases = _fuzz_bases()
    texts = [(text, sig) for text, sig, _ in bases]
    for _ in range(6000):
        text, sig, _ = rng.choice(bases)
        for _ in range(rng.choice([1, 1, 2, 3])):
            text = (_byte_mutant if rng.random() < 0.5 else _structural_mutant)(rng, text)
        texts.append((text, sig))
    outcomes = Counter()
    for text, sig in texts:
        new = _outcome(parse_proof_file, text, sig)
        old = _outcome(_ref_parse_proof_file, text, sig)
        new_ok, old_ok = isinstance(new, ProofTree), isinstance(old, ProofTree)
        if new_ok and old_ok and new == old:
            outcomes["same tree"] += 1
        elif not new_ok and not old_ok:
            outcomes["both reject"] += 1
        else:
            why = _parameter_fault(text)
            assert why is not None, (text, new, old)
            assert new_ok or new.line is not None, (text, new)
            side = "both read, differently" if new_ok and old_ok else \
                "only the new reader accepts" if new_ok else "only the earlier reader accepts"
            outcomes[f"{side}: {why}"] += 1
    assert outcomes["same tree"] > 2000 and outcomes["both reject"] > 1000, outcomes
    differ = {k: n for k, n in outcomes.items() if ":" in k}
    assert 50 < sum(differ.values()) < 500, outcomes
