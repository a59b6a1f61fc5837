"""Named-binder syntax: signatures, terms, propositions, and the operations
the rest of the kernel builds on.

Function and predicate symbols carry a binding arity <k1,...,kn>: argument i
simultaneously binds ki variables in that argument. A symbol application is
therefore a list of slots, each pairing a (possibly empty) tuple of binder
names with a body.

The connective and quantifier nodes defined here are shared with the sorted
explicit-substitution layer (bindlog.sigma): a proposition over that layer
simply holds sorted terms in binder-free slots. The walks here cover both
layers through one node protocol (see NodeType), except `substitute` and
`canonical_binders`: bindlog.sigma has its own substitution.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Mapping

from .errors import CheckResult, ParseError

# ---------------------------------------------------------------------------
# Types

BindingArity = tuple[int, ...]


@dataclass(frozen=True)
class Signature:
    """Symbol table mapping function and predicate names to binding arities."""

    functions: Mapping[str, BindingArity]
    predicates: Mapping[str, BindingArity]

    def __post_init__(self):
        object.__setattr__(self, "functions", dict(self.functions))
        object.__setattr__(self, "predicates", dict(self.predicates))
        for name, arity in [*self.functions.items(), *self.predicates.items()]:
            if not name:
                raise ValueError("empty symbol name")
            if any(k < 0 for k in arity):
                raise ValueError(f"negative binder count in arity of {name!r}")
        overlap = self.functions.keys() & self.predicates.keys()
        if overlap:
            raise ValueError(f"function/predicate name spaces overlap: {sorted(overlap)}")


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Slot:
    """One argument position: the variables bound there and the body."""

    binders: tuple[str, ...]
    body: object  # Term of this layer, or an LTerm when the slot belongs to the sorted layer


@dataclass(frozen=True)
class App:
    symbol: str
    args: tuple[Slot, ...]


Term = Var | App


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Slot, ...]


@dataclass(frozen=True)
class Imp:
    a: object
    b: object


@dataclass(frozen=True)
class And:
    a: object
    b: object


@dataclass(frozen=True)
class Or:
    a: object
    b: object


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Forall:
    var: str
    body: object


@dataclass(frozen=True)
class Exists:
    var: str
    body: object


Prop = Atom | Imp | And | Or | Bottom | Forall | Exists

SubstMap = Mapping[str, Term]


# ---------------------------------------------------------------------------
# The node protocol
#
# Every node class of both layers, this module's and bindlog.sigma's, is
# described once by a NodeType, and the walks over terms and propositions
# are written once against it. A node has non-child data and a tuple of
# children. Binding lives in slots: the children of a slotted class (App,
# Atom, and the quantifiers, whose one slot binds their variable) are Slots,
# and a Slot's binders are the names bound in its body; no other class binds
# anything. Variables (Var, FreeVar) are the leaves that walks replace,
# rename and look up. Walks that ignore binding use the term view (the
# fields children and rebuild), in which a slot's body stands for the slot.


@dataclass(frozen=True, slots=True)
class NodeType:
    name: str  # the class name in lower case; tags nameless forms
    data: Callable  # node -> its non-child fields, in constructor order
    kids: Callable  # node -> its children: Slots for a slotted class
    make: Callable  # (data, kids) -> a node of the class
    children: Callable  # node -> its children in the term view
    rebuild: Callable  # (node, children in the term view) -> node with the same data
    slotted: bool = False
    variable: bool = False


class _NodeTypes(dict):
    def __missing__(self, cls):
        raise TypeError(f"not a term or proposition: a {cls.__name__}")


# Indexed by type(x): the walks' one dispatch, a TypeError for a non-node.
NODE_TYPES: dict[type, NodeType] = _NodeTypes()


def _getter(names: tuple[str, ...]) -> Callable:
    if not names:
        return lambda x: ()
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda x: (get(x),)
    return attrgetter(*names)


def register(cls, data: tuple[str, ...] = (), kids: tuple[str, ...] = (), *,
             seq: bool = False, slotted: bool = False, variable: bool = False):
    """Describe cls to the walks. `data` and `kids` name its fields; with
    `seq` the one field in `kids` holds a tuple of children."""
    get_data = _getter(data)
    get_kids = attrgetter(*kids) if seq else _getter(kids)
    make = (lambda d, k: cls(*d, k)) if seq else (lambda d, k: cls(*d, *k))
    if slotted:
        children = lambda x: tuple([s.body for s in get_kids(x)])
        rebuild = lambda x, k: make(get_data(x), tuple(
            map(Slot, [s.binders for s in get_kids(x)], k)))
    elif len(kids) == 2 and not data:  # spelled out: cls(*k) builds markedly slower
        children, rebuild = get_kids, lambda x, k: cls(k[0], k[1])
    elif seq:
        children, rebuild = get_kids, lambda x, k: cls(*get_data(x), k)
    else:
        children, rebuild = get_kids, lambda x, k: cls(*get_data(x), *k)
    NODE_TYPES[cls] = NodeType(cls.__name__.lower(), get_data, get_kids, make, children,
                               rebuild, slotted, variable)


def _register_quantifier(cls):
    """cls(var, body): one slot, binding var in body."""
    NODE_TYPES[cls] = NodeType(
        cls.__name__.lower(), _getter(()), lambda x: (Slot((x.var,), x.body),),
        lambda d, k: cls(k[0].binders[0], k[0].body), lambda x: (x.body,),
        lambda x, k: cls(x.var, k[0]), slotted=True)


register(Var, ("name",), variable=True)
register(App, ("symbol",), ("args",), seq=True, slotted=True)
register(Atom, ("pred",), ("args",), seq=True, slotted=True)
for _cls in (Imp, And, Or):
    register(_cls, kids=("a", "b"))
register(Bottom)
_register_quantifier(Forall)
_register_quantifier(Exists)

_CONNECTIVES = frozenset((Imp, And, Or, Bottom, Forall, Exists))


def map_atoms(f, a):
    """Proposition a with every atom A replaced by f(A), left to right."""
    if type(a) is Atom:
        return f(a)
    if type(a) not in _CONNECTIVES:
        raise TypeError(f"not a proposition: {a!r}")
    n = NODE_TYPES[type(a)]
    return n.rebuild(a, tuple([map_atoms(f, c) for c in n.children(a)]))


def atoms(a) -> list:
    """The atoms of proposition a, left to right."""
    found: list = []
    map_atoms(lambda atom: found.append(atom) or atom, a)
    return found


# ---------------------------------------------------------------------------
# Free variables and name collection

def free_vars(x) -> frozenset[str]:
    """Variables with at least one occurrence not under a binder of that name."""
    n = NODE_TYPES[type(x)]
    if n.variable:
        return frozenset((x.name,))
    acc: set[str] = set()
    for c in n.kids(x):
        if n.slotted:
            acc |= free_vars(c.body).difference(c.binders)
        else:
            acc |= free_vars(c)
    return frozenset(acc)


def all_names(x) -> frozenset[str]:
    """Every variable name occurring in x, free or bound, binders included."""
    n = NODE_TYPES[type(x)]
    if n.variable:
        return frozenset((x.name,))
    acc: set[str] = set()
    for c in n.kids(x):
        if n.slotted:
            acc.update(c.binders)
            c = c.body
        acc |= all_names(c)
    return frozenset(acc)


# ---------------------------------------------------------------------------
# Grafting: textual replacement, captures permitted

def _unbind(theta: SubstMap, names) -> SubstMap:
    return {v: t for v, t in theta.items() if v not in names} if names else theta


def graft(theta: SubstMap, x):
    """Replace free occurrences of the mapped variables, without renaming.

    The map is restricted under every binder to the variables it does not
    bind, so bound occurrences are never replaced; captures are allowed.
    """
    if not theta:
        return x
    n = NODE_TYPES[type(x)]
    if n.variable:
        return theta.get(x.name, x)
    kids = n.kids(x)
    if not kids:
        return x
    if n.slotted:
        return n.rebuild(x, tuple([graft(_unbind(theta, s.binders), s.body) for s in kids]))
    return n.rebuild(x, tuple([graft(theta, c) for c in kids]))


# ---------------------------------------------------------------------------
# Nameless canonical form and alpha-equivalence

def to_debruijn(x):
    """Canonical nameless form: bound occurrences become indices counting
    binders outward (the rightmost binder of a slot is index 1), free
    variables keep their names. Injective up to alpha-equivalence."""

    def go(x, ctx: tuple[str, ...]):
        n = NODE_TYPES[type(x)]
        if n.variable:
            if x.name in ctx:
                return ("b", ctx.index(x.name) + 1)
            return ("f", x.name)
        if n.slotted:
            return (n.name, *n.data(x), tuple([(len(s.binders), go(s.body, s.binders[::-1] + ctx))
                                               for s in n.kids(x)]))
        return (n.name, *n.data(x), *[go(c, ctx) for c in n.kids(x)])

    return go(x, ())


def _at_levels(env: dict, names, depth: int) -> dict:
    return {**env, **dict(zip(names, itertools.count(depth)))} if names else env


def alpha_eq(x, y) -> bool:
    """Equality up to the names of bound variables. Nodes of different
    classes are never equal, so neither are the two layers' variables."""

    def go(a, b, env_a: dict, env_b: dict, depth: int) -> bool:
        if type(a) is not type(b):
            return False
        n = NODE_TYPES[type(a)]
        if n.variable:
            # a bound variable is known by the depth of its binder
            la, lb = env_a.get(a.name), env_b.get(b.name)
            return la == lb and (la is not None or a.name == b.name)
        ka, kb = n.kids(a), n.kids(b)
        if len(ka) != len(kb) or n.data(a) != n.data(b):
            return False
        for c, d in zip(ka, kb):
            if not n.slotted:
                if not go(c, d, env_a, env_b, depth):
                    return False
            elif len(c.binders) != len(d.binders) or not go(
                    c.body, d.body, _at_levels(env_a, c.binders, depth),
                    _at_levels(env_b, d.binders, depth), depth + len(c.binders)):
                return False
        return True

    return go(x, y, {}, {}, 0)


# ---------------------------------------------------------------------------
# Capture-avoiding substitution

def _fresh_namer(taken: set[str]) -> Callable[[str], str]:
    def fresh(base: str) -> str:
        for k in itertools.count(1):
            cand = f"{base}{k}"
            if cand not in taken:
                taken.add(cand)
                return cand
        raise AssertionError

    return fresh


def _rename(x, theta: SubstMap, env: dict[str, str], new_name: Callable[[str], str]):
    """Replace the free variables of x mapped by theta and give every binder
    b the name new_name(b), in preorder; env maps the binders in scope."""
    n = NODE_TYPES[type(x)]
    if n.variable:
        if x.name in env:
            return n.make((env[x.name],), ())
        return theta.get(x.name, x)
    kids = n.kids(x)
    if n.slotted:
        new = []
        for s in kids:
            ys = tuple([new_name(b) for b in s.binders])
            new.append(Slot(ys, _rename(s.body, theta, {**env, **dict(zip(s.binders, ys))},
                                        new_name)))
        return n.make(n.data(x), tuple(new))
    return n.rebuild(x, tuple([_rename(c, theta, env, new_name) for c in kids]))


def substitute(theta: SubstMap, x, fresh: Callable[[str], str] | None = None):
    """Capture-avoiding substitution.

    Every binder is renamed to a name occurring neither free nor bound in the
    argument nor in the map before the map is pushed under it. The result is
    then put into a canonical bound-name form, so the choice of fresh-name
    generator is unobservable.
    """
    if fresh is None:
        taken = set(all_names(x)) | set(theta)
        for t in theta.values():
            taken |= all_names(t)
        fresh = _fresh_namer(taken)
    return canonical_binders(_rename(x, theta, {}, fresh))


def canonical_binders(x):
    """Rename every bound variable deterministically (x1, x2, ... in preorder,
    skipping the free names of x). Output depends only on the alpha-class."""
    free = free_vars(x)
    counter = itertools.count(1)

    def next_name(_old: str) -> str:
        while True:
            cand = f"x{next(counter)}"
            if cand not in free:
                return cand

    return _rename(x, {}, {}, next_name)


# ---------------------------------------------------------------------------
# Well-formedness over a signature

def well_formed(sig: Signature, x) -> CheckResult:
    """Check symbol declarations, arities, binder counts, and binder
    distinctness. Error kinds: UnknownSymbol, ArityMismatch,
    BinderCountMismatch, DuplicateBinder."""

    def check_app(symbol, table, arity_kind, x, path):
        if symbol not in table:
            return CheckResult.failed("UnknownSymbol", path, f"{arity_kind} {symbol!r} not declared")
        arity = table[symbol]
        if len(x.args) != len(arity):
            return CheckResult.failed(
                "ArityMismatch", path,
                f"{symbol!r} expects {len(arity)} arguments, got {len(x.args)}")
        for i, (s, k) in enumerate(zip(x.args, arity)):
            if len(s.binders) != k:
                return CheckResult.failed(
                    "BinderCountMismatch", path + (i,),
                    f"argument {i} of {symbol!r} binds {k} variables, got {len(s.binders)}")
            if len(set(s.binders)) != len(s.binders):
                return CheckResult.failed(
                    "DuplicateBinder", path + (i,),
                    f"binder list {s.binders} of {symbol!r} has duplicates")
            r = go(s.body, path + (i,))
            if not r.ok:
                return r
        return CheckResult.passed()

    def go(x, path) -> CheckResult:
        if type(x) is App:
            return check_app(x.symbol, sig.functions, "function", x, path)
        if type(x) is Atom:
            return check_app(x.pred, sig.predicates, "predicate", x, path)
        for i, c in enumerate(NODE_TYPES[type(x)].children(x)):
            r = go(c, path + (i,))
            if not r.ok:
                return r
        return CheckResult.passed()

    return go(x, ())


# ---------------------------------------------------------------------------
# Text grammar
#
# terms:         x | f(x y. t, u)        binder list before '.', none omits it
# propositions:  P(...) | A => B | A /\ B | A \/ B | false
#                | forall x. A | exists x. A
# precedence, weakest first: quantifiers, =>, \/, /\ ; parentheses override.
# Zero-argument function symbols print as c() so parsing needs no signature.

_TOKEN_RE = re.compile(
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

_KEYWORDS = {"forall", "exists", "false"}


def tokenize(text: str, token_re: re.Pattern = _TOKEN_RE) -> list[tuple[str, str, int]]:
    """(kind, text, offset) tokens by the named groups of token_re; `ident`
    and `sym` matches become keywords or names, `ws` is dropped."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = token_re.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos=pos)
        kind = m.lastgroup
        if kind != "ws":
            val = m.group()
            if kind in ("ident", "sym"):
                kind = "kw" if val in _KEYWORDS else "name"
            tokens.append((kind, val, pos))
        pos = m.end()
    tokens.append(("eof", "", pos))
    return tokens


class Parser:
    """Recursive-descent parser for terms, propositions, and sequents.

    When a signature is supplied, a bare identifier declared as a function
    symbol parses as a zero-argument application instead of a variable.
    """

    token_re = _TOKEN_RE

    def __init__(self, text: str, sig: Signature | None = None):
        self.tokens = tokenize(text, self.token_re)
        self.pos = 0
        self.sig = sig

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind}, found {t[1]!r}", pos=t[2])
        return t

    def at_end(self) -> bool:
        return self.peek()[0] == "eof"

    def done(self):
        t = self.peek()
        if t[0] != "eof":
            raise ParseError(f"trailing input starting at {t[1]!r}", pos=t[2])

    # terms -----------------------------------------------------------------

    def term(self):
        kind, val, pos = self.next()
        if kind != "name":
            raise ParseError(f"expected a term, found {val!r}", pos=pos)
        if self.peek()[0] == "lpar":
            self.next()
            args = self.slot_list()
            self.expect("rpar")
            return App(val, tuple(args))
        if self.sig is not None and val in self.sig.functions:
            return App(val, ())
        return Var(val)

    def slot_list(self):
        if self.peek()[0] == "rpar":
            return []
        slots = [self.term_slot()]
        while self.peek()[0] == "comma":
            self.next()
            slots.append(self.term_slot())
        return slots

    def term_slot(self) -> Slot:
        save = self.pos
        binders = []
        while self.peek()[0] == "name":
            binders.append(self.next()[1])
        if binders and self.peek()[0] == "dot":
            self.next()
            return Slot(tuple(binders), self.term())
        self.pos = save
        return Slot((), self.term())

    # propositions ------------------------------------------------------------

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

    def prim(self):
        kind, val, pos = self.peek()
        if kind == "kw" and val == "false":
            self.next()
            return Bottom()
        if kind == "lpar":
            self.next()
            p = self.prop()
            self.expect("rpar")
            return p
        if kind == "name":
            self.next()
            if self.peek()[0] == "lpar":
                self.next()
                args = self.slot_list()
                self.expect("rpar")
                return Atom(val, tuple(args))
            return Atom(val, ())
        raise ParseError(f"expected a proposition, found {val!r}", pos=pos)

    # sequents ----------------------------------------------------------------

    def sequent(self):
        left = self.prop_list(stop="turnstile")
        self.expect("turnstile")
        right = self.prop_list(stop="eof")
        return left, right

    def prop_list(self, stop: str):
        if self.peek()[0] == stop:
            return ()
        props = [self.prop()]
        while self.peek()[0] == "comma":
            self.next()
            props.append(self.prop())
        return tuple(props)


def parse_term(text: str, sig: Signature | None = None) -> Term:
    p = Parser(text, sig)
    t = p.term()
    p.done()
    return t


def parse_prop(text: str, sig: Signature | None = None) -> Prop:
    p = Parser(text, sig)
    a = p.prop()
    p.done()
    return a


# ---------------------------------------------------------------------------
# Printing

_ext_term_printer: Callable[[object], str] | None = None  # installed by bindlog.sigma


def _print_body(t) -> str:
    if isinstance(t, (Var, App)):
        return print_term(t)
    if _ext_term_printer is not None:
        return _ext_term_printer(t)
    return str(t)


def _print_slot(s: Slot) -> str:
    if s.binders:
        return f"{' '.join(s.binders)}. {_print_body(s.body)}"
    return _print_body(s.body)


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    return f"{t.symbol}({', '.join(_print_slot(s) for s in t.args)})"


# precedence levels: prop body 0, => 1, \/ 2, /\ 3, primary 4
def _print_prop(p, level: int) -> str:
    if isinstance(p, (Forall, Exists)):
        kw = "forall" if isinstance(p, Forall) else "exists"
        s = f"{kw} {p.var}. {_print_prop(p.body, 0)}"
        return f"({s})" if level > 0 else s
    if isinstance(p, Imp):
        s = f"{_print_prop(p.a, 2)} => {_print_prop(p.b, 0)}"
        return f"({s})" if level > 1 else s
    if isinstance(p, Or):
        s = f"{_print_prop(p.a, 3)} \\/ {_print_prop(p.b, 2)}"
        return f"({s})" if level > 2 else s
    if isinstance(p, And):
        s = f"{_print_prop(p.a, 4)} /\\ {_print_prop(p.b, 3)}"
        return f"({s})" if level > 3 else s
    if isinstance(p, Bottom):
        return "false"
    if isinstance(p, Atom):
        if p.args:
            return f"{p.pred}({', '.join(_print_slot(s) for s in p.args)})"
        return p.pred
    raise TypeError(f"not a proposition: {p!r}")


def print_prop(p: Prop) -> str:
    return _print_prop(p, 0)


def print_sequent(left, right) -> str:
    return f"{', '.join(print_prop(a) for a in left)} |- {', '.join(print_prop(b) for b in right)}".strip()


# ---------------------------------------------------------------------------
# Signature files: lines `fun f : <k1,...,kn>` / `pred P : <k1,...,kn>`

_SIG_LINE_RE = re.compile(r"^(fun|pred)\s+(\S+)\s*:\s*<([\d,\s]*)>\s*$")


def parse_signature(text: str) -> Signature:
    functions: dict[str, BindingArity] = {}
    predicates: dict[str, BindingArity] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SIG_LINE_RE.match(line)
        if m is None:
            raise ParseError(f"bad signature line: {raw!r}", line=lineno)
        kind, name, arity_txt = m.groups()
        arity = tuple(int(k) for k in arity_txt.replace(" ", "").split(",") if k != "")
        table = functions if kind == "fun" else predicates
        if name in table:
            raise ParseError(f"duplicate declaration of {name!r}", line=lineno)
        table[name] = arity
    return Signature(functions, predicates)


def print_signature(sig: Signature) -> str:
    lines = [f"fun {n} : <{','.join(map(str, a))}>" for n, a in sig.functions.items()]
    lines += [f"pred {n} : <{','.join(map(str, a))}>" for n, a in sig.predicates.items()]
    return "\n".join(lines) + "\n"


Var.__str__ = lambda self: print_term(self)  # type: ignore[assignment]
App.__str__ = lambda self: print_term(self)  # type: ignore[assignment]
for _cls in (Atom, Imp, And, Or, Bottom, Forall, Exists):
    _cls.__str__ = lambda self: _print_prop(self, 0)  # type: ignore[assignment]
