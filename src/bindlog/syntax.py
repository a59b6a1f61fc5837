"""Named-binder syntax: signatures, terms, propositions, and the operations
the rest of the kernel builds on.

Function and predicate symbols carry a binding arity <k1,...,kn>: argument i
simultaneously binds ki variables in that argument. A symbol application is
therefore a list of slots, each pairing a (possibly empty) tuple of binder
names with a body.

The connective and quantifier nodes defined here are shared with the sorted
explicit-substitution layer (bindlog.sigma): a proposition over that layer
simply holds sorted terms in binder-free slots. The walks here cover both
layers through one node protocol (see NodeType), the one capture-avoiding
substitution `subst` among them. So do the text grammar (one token list,
one operator table, one printer `show`) and the reader of line-oriented
files (`file_lines`).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import re
import weakref
from dataclasses import FrozenInstanceError, dataclass
from operator import attrgetter
from typing import Callable, Mapping

from .errors import CheckResult, IndexOutOfRange, ParseError, SortMismatch

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
    name: str  # the class name in lower case; a quantifier prints it
    data: Callable  # node -> its non-child fields, in constructor order
    kids: Callable  # node -> its children: Slots for a slotted class
    make: Callable  # (data, kids) -> a node of the class
    children: Callable  # node -> its children in the term view
    rebuild: Callable  # (node, children in the term view) -> node with the same data
    slotted: bool = False
    variable: bool = False
    # the field names node_class was given, which generated code reads
    data_fields: tuple[str, ...] = ()
    kid_fields: tuple[str, ...] = ()
    seq: bool = False


class _NodeTypes(dict):
    def __missing__(self, cls):
        raise TypeError(f"not a term or proposition: a {cls.__name__}")


# Indexed by type(x): the walks' one dispatch, a TypeError for a non-node.
NODE_TYPES: dict[type, NodeType] = _NodeTypes()


class Node:
    """The classes node_class makes: frozen, copied and pickled by their
    fields, printed by show."""

    __slots__ = ("__weakref__",)  # the intern tables hold weak references

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _ByValue(Node):
    """A node of the named layer: equal only to itself, as every node is,
    but hashed as a frozen dataclass, by its field tuple, which the
    constructor hashes once, so sets and dicts of named nodes keep one
    order from run to run."""

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash


def node_class(data: tuple[str, ...] = (), kids: tuple[str, ...] = (), *, seq: bool = False,
               slotted: bool = False, binder: bool = False, variable: bool = False,
               walked: bool = True):
    """Make the class a slotted dataclass, frozen by Node, built by a
    constructor generated from its fields, whose roles `data` and `kids`
    name: with `seq` the one kid field holds a tuple of children; those of
    a `slotted` class are Slots; a `binder` (a quantifier) binds its one
    data field in its one kid, which the walks see as one slot. A `walked`
    class gets a NodeType with a generated term view. The code runs per
    node, so it is generated per class, as rule matchers are; constructors
    allocate through `new`.

    The constructor returns the one live instance with the same data,
    compared by value, and the same children, compared by identity
    (Filliâtre & Conchon, "Type-safe modular hash-consing", 2006), so
    equality is identity, O(1) at any depth, on both layers. The table
    holds weak references without callbacks: a live instance keeps alive
    the children whose ids make its key, so a dead entry is harmless until
    the purge when the table has doubled."""
    ids = [f"*map(id, {k})" if seq else f"id({k})" for k in kids]
    key = (f"{ids[0]} << 64 | {ids[1]}" if len(ids) == 2 and not data
           else data[0] if len(data) == 1 and not kids
           else f"({''.join(f'{e}, ' for e in [*data, *ids])})")

    def wrap(cls):
        # not frozen=True, whose __setattr__ names the class slots=True replaces:
        # Node's is frozen
        cls = dataclass(slots=True, init=False, repr=False, eq=False)(cls)
        names = cls.__match_args__
        mine, fields = "".join(f"self.{f}, " for f in names), "".join(f"x.{f}, " for f in data)
        env = {"cls": cls, "new": object.__new__, "table": {}, "ref": weakref.ref, "at": [1024],
               "Slot": globals().get("Slot"), "set_hash": _ByValue._hash.__set__,
               **{f"set_{f}": getattr(cls, f).__set__ for f in names}}
        sets = "".join(f" set_{f}(x, {f})\n" for f in names)
        if issubclass(cls, _ByValue):
            sets += f" set_hash(x, hash(({''.join(f'{f}, ' for f in names)})))\n"
        body = (f" key = {key}\n r = table.get(key)\n"
                " if r is not None and (x := r()) is not None: return x\n x = new(cls)\n"
                f"{sets} table[key] = ref(x)\n if len(table) >= at[0]:\n"
                "  live = {k: r for k, r in table.items() if r() is not None}\n"
                "  table.clear()\n  table.update(live)\n  at[0] = max(2 * len(live), 1024)\n")
        kid_tuple = f"x.{kids[0]}" if seq else f"({''.join(f'x.{k}, ' for k in kids)})"
        spread = "k" if seq else "".join(f"k[{i}], " for i in range(len(kids)))
        view = {"data": f"({fields})", "kids": kid_tuple,  # in the order of NodeType's fields
                "make": f"__new__(cls, *d, {'k' if seq else '*k'})", "children": kid_tuple,
                "rebuild": f"__new__(cls, {fields}{spread})"}
        if slotted:
            view.update(children=f"tuple([s.body for s in x.{kids[0]}])", rebuild=(
                f"__new__(cls, {fields}tuple([Slot.__new__(Slot, s.binders, c) "
                f"for s, c in zip(x.{kids[0]}, k)]))"))
        if binder:  # the walks see no data and one slot
            view.update(data="()", kids=f"(Slot.__new__(Slot, ({fields}), x.{kids[0]}),)",
                        make="__new__(cls, k[0].binders[0], k[0].body)",
                        rebuild=f"__new__(cls, {fields}k[0])")
        src = [f"def __new__(cls, {', '.join(names)}):\n{body} return x",
               f"_fields = lambda self: ({mine})",
               *(f"{f} = lambda {'d, k' if f == 'make' else 'x, k' if f == 'rebuild' else 'x'}: {e}"
                 for f, e in (view.items() if walked else ()))]
        exec("\n".join(src), env)
        cls.__new__, cls._fields = staticmethod(env["__new__"]), env["_fields"]
        cls._table = env["table"]
        if walked:
            NODE_TYPES[cls] = NodeType(cls.__name__.lower(), *[env[f] for f in view],
                                       slotted or binder, variable, () if binder else data,
                                       () if binder else kids, seq)
        return cls

    return wrap


@node_class(("name",), variable=True)
class Var(_ByValue):
    name: str


@node_class(("binders",), ("body",), walked=False)
class Slot(_ByValue):
    """One argument position: the variables bound there and the body."""

    binders: tuple[str, ...]
    body: object  # Term of this layer, or an LTerm when the slot belongs to the sorted layer


@node_class(("symbol",), ("args",), seq=True, slotted=True)
class App(_ByValue):
    symbol: str
    args: tuple[Slot, ...]


Term = Var | App


@node_class(("pred",), ("args",), seq=True, slotted=True)
class Atom(_ByValue):
    pred: str
    args: tuple[Slot, ...]


@node_class(kids=("a", "b"))
class Imp(_ByValue):
    a: object
    b: object


@node_class(kids=("a", "b"))
class And(_ByValue):
    a: object
    b: object


@node_class(kids=("a", "b"))
class Or(_ByValue):
    a: object
    b: object


@node_class()
class Bottom(_ByValue):
    pass


@node_class(("var",), ("body",), binder=True)
class Forall(_ByValue):
    var: str
    body: object


@node_class(("var",), ("body",), binder=True)
class Exists(_ByValue):
    var: str
    body: object


Prop = Atom | Imp | And | Or | Bottom | Forall | Exists

SubstMap = Mapping[str, Term]


_CONNECTIVES = frozenset((Imp, And, Or, Bottom, Forall, Exists))


def map_atoms(f, a):
    """Proposition a with every atom A replaced by f(A), called on the atoms
    left to right. The walk keeps its own stack, so a may be of any depth."""
    todo, done = [a], []  # nodes to enter or (node, NodeType, arity) to rebuild; results
    while todo:
        x = todo.pop()
        if type(x) is tuple:
            x, n, k = x
            done[-k:] = [n.rebuild(x, tuple(done[-k:]))]
        elif type(x) is Atom:
            done.append(f(x))
        elif type(x) not in _CONNECTIVES:
            raise TypeError(f"not a proposition: {x!r}")
        elif cs := (n := NODE_TYPES[type(x)]).children(x):
            todo.append((x, n, len(cs)))
            todo += reversed(cs)
        else:
            done.append(x)
    return done[0]


def atoms(a) -> list:
    """The atoms of proposition a, left to right."""
    found: list = []
    map_atoms(lambda atom: found.append(atom) or atom, a)
    return found


# ---------------------------------------------------------------------------
# Free variables and name collection

def _scope(x) -> tuple[set[str], set[str]]:
    """The free names and the binders of x, in one walk with its own stack
    that counts the binders of each name in scope, so x may be of any depth."""
    free, binders, bound, todo = set(), set(), {}, [x]
    while todo:  # nodes, slots whose binders enter scope and binders leaving it
        if type(x := todo.pop()) is tuple:
            for b in x:
                bound[b] -= 1
        elif type(x) is Slot:
            binders.update(x.binders)
            for b in x.binders:
                bound[b] = bound.get(b, 0) + 1
            todo += (x.binders, x.body)
        elif (n := NODE_TYPES[type(x)]).variable:
            if not bound.get(x.name):
                free.add(x.name)
        else:  # a binder-less slot's body is entered directly
            todo += [s if s.binders else s.body for s in n.kids(x)] if n.slotted else n.kids(x)
    return free, binders


def free_vars(x) -> frozenset[str]:
    """Variables with at least one occurrence not under a binder of that name."""
    return frozenset((x.name,)) if NODE_TYPES[type(x)].variable else frozenset(_scope(x)[0])


def all_names(x) -> frozenset[str]:
    """Every variable name occurring in x, free or bound, binders included
    (a bound occurrence bears a binder's name)."""
    return frozenset(set().union(*_scope(x)))


# ---------------------------------------------------------------------------
# Replacement and renaming: graft, subst and canonical_binders

def _replacer(rename=None, every=False):
    """The one walk of graft, subst and canonical_binders, for one renaming
    policy: walk(theta, x) is x with each free variable that theta maps
    replaced, by the node theta gives or, for a name, by a variable of that
    name and of its own class. Under a slot theta loses the slot's binders,
    or, if rename(binders, theta, body) names them anew, maps each to its
    new name. A subtree where theta is empty is returned untouched, unless
    `every` binder is renamed."""

    def walk(theta: SubstMap, x):
        if not theta and not every:
            return x
        n = NODE_TYPES[type(x)]
        if n.variable:
            t = theta.get(x.name, x)
            return n.make((t,), ()) if type(t) is str else t
        kids = n.kids(x)
        if not n.slotted:
            return n.rebuild(x, tuple([walk(theta, c) for c in kids])) if kids else x
        new = []
        for s in kids:  # a loop: a comprehension would take a second frame per slot
            binders = rename(s.binders, theta, s.body) if rename and s.binders else s.binders
            inner = ({**theta, **dict(zip(s.binders, binders))} if binders != s.binders else
                     {v: t for v, t in theta.items() if v not in s.binders} if s.binders else theta)
            new.append(Slot(binders, walk(inner, s.body)))
        return n.make(n.data(x), tuple(new))

    return walk


def _walks(rename=None):
    """Make the decorated function, keeping its name and docstring, the walk
    with this renaming policy, so that its calls recurse one frame per slot
    from the first."""
    return lambda spec: functools.update_wrapper(_replacer(rename), spec)


@_walks()
def graft(theta: SubstMap, x):
    """Replace free occurrences of the mapped variables, without renaming.

    The map is restricted under every binder to the variables it does not
    bind, so bound occurrences are never replaced; captures are allowed.
    """


def _capture_free(binders, theta, body) -> tuple[str, ...]:
    """subst's names for a slot's binders, under theta above the slot: a
    binder that a term theta maps another name to has free takes the first
    of b1, b2, ... that is none of those terms' free names or keys, a
    binder, or a name of the body as theta's pending renames leave it."""
    terms = {v: t for v, t in theta.items() if type(t) is not str and v not in binders}
    free = set().union(*map(free_vars, terms.values()))
    if free.isdisjoint(binders):
        return binders
    body_free, body_binders = _scope(body)  # the body's names, as theta renames them:
    taken = free | set(terms) | set(binders) | body_binders | {
        t if v not in binders and type(t := theta.get(v)) is str else v for v in body_free}
    new = []
    for b in binders:
        if b in free:
            taken.add(b := next(c for k in itertools.count(1) if (c := f"{b}{k}") not in taken))
        new.append(b)
    return tuple(new)


@_walks(_capture_free)
def subst(theta: SubstMap, x):
    """Capture-avoiding substitution on either layer. A binder is renamed
    only where a term pushed under it has it free; its new name b1, b2, ...
    occurs neither in the slot nor in the map, so no inner binder can
    capture it."""


def substitute(theta: SubstMap, x):
    """Capture-avoiding substitution with its result in the canonical
    bound-name form, so it depends only on the alpha-classes of x and of
    the map's terms."""
    return canonical_binders(subst(theta, x))


def canonical_binders(x):
    """Rename every bound variable deterministically (x1, x2, ... in preorder,
    skipping the free names of x). Output depends only on the alpha-class."""
    new = numbered_names("x", free_vars(x))
    return _replacer(lambda binders, theta, body: tuple(map(new, binders)), True)({}, x)


def numbered_names(prefix: str, skip) -> Callable[..., str]:
    """A source of new names, prefix1, prefix2, ... in turn, skipping the
    names in skip; each call takes the next, whatever its argument."""
    names = (name for k in itertools.count(1) if (name := f"{prefix}{k}") not in skip)
    return lambda _old=None: next(names)


# ---------------------------------------------------------------------------
# Alpha-equivalence

def _at_levels(env: dict, names, depth: int) -> dict:
    return {**env, **dict(zip(names, itertools.count(depth)))} if names else env


def alpha_eq(x, y) -> bool:
    """Equality up to the names of bound variables. Nodes of different
    classes are never equal, so neither are the two layers' variables."""

    # env_a is env_b while both walks have bound the same names at the same
    # levels; then one object is equal to itself
    def go(a, b, env_a: dict, env_b: dict, depth: int) -> bool:
        if a is b and env_a is env_b:
            return True
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
                    c.body, d.body, (ea := _at_levels(env_a, c.binders, depth)),
                    ea if env_a is env_b and c.binders == d.binders else
                    _at_levels(env_b, d.binders, depth), depth + len(c.binders)):
                return False
        return True

    env: dict = {}
    return go(x, y, env, env, 0)


# ---------------------------------------------------------------------------
# Well-formedness over a signature

def path_of(link) -> tuple[int, ...]:
    """The path of child indices from the root that a link spells: a link
    is (index, parent's link), and the root's is None. Walks carry links,
    which cost O(1) per node, and spell out a path only for an error."""
    path = []
    while link:
        i, link = link
        path.append(i)
    return tuple(reversed(path))


def well_formed(sig: Signature, x) -> CheckResult:
    """The signature judge, _judge, on the named layer. Error kinds:
    UnknownSymbol, ArityMismatch, BinderCountMismatch, DuplicateBinder and
    SortMismatch."""
    return _judge(sig, x, False)


_PROPS = frozenset((Atom, *_CONNECTIVES))


@functools.cache
def _sorts():
    from .sigma import TermSort, sort_of  # bindlog.sigma imports this module
    return TermSort, sort_of


def _judge(sig: Signature, x, sorted_layer: bool, judged: set[int] | None = None) -> CheckResult:
    """The signature judge of both layers. Each symbol is declared and has
    as many arguments as its arity has ranks. An argument of rank k binds k
    distinct names and its body is walked on the named layer; it binds none
    and its body has sort k (bindlog.sigma.sort_of) on the sorted one. A
    node that is not a proposition is a term of rank 0; one of the other
    layer is a SortMismatch. The walk checks in the order of the recursive
    definition, the binders of an argument after the body of the one
    before, with an explicit stack of links (see path_of). A proposition or
    named term whose id is in `judged` has passed: the walk adds each one
    it enters, and the first failure ends the judging."""
    if sorted_layer:
        TermSort, sort_of = _sorts()

    def failed(kind, link, message, within=()):
        return CheckResult.failed(kind, path_of(link) + within, message)

    stack: list = [(x, None, None)]  # (node, link, rank or None) or (slot, link, (symbol, i, k))
    while stack:
        x, link, want = stack.pop()
        if type(x) is Slot:
            symbol, i, k = want
            if len(x.binders) != (0 if sorted_layer else k):
                return failed("BinderCountMismatch", link, f"argument {i} of {symbol!r} binds " + (
                    "variables" if sorted_layer else f"{k} variables, got {len(x.binders)}"))
            if len(set(x.binders)) != len(x.binders):
                return failed("DuplicateBinder", link,
                              f"binder list {x.binders} of {symbol!r} has duplicates")
            stack.append((x.body, link, k))
            continue
        if want is None and type(x) not in _PROPS:
            want = 0
        if want is not None and sorted_layer:
            try:
                if type(found := sort_of(sig, x)) is not TermSort or found.n != want:
                    return failed("SortMismatch", link, f"expected {want}, found {found}")
            except SortMismatch as e:
                return failed("SortMismatch", link, f"expected {e.expected}, found {e.found}", e.path)
            except IndexOutOfRange as e:
                return failed("IndexOutOfRange", link, f"index {e.i}_{e.n} out of range", e.path)
            except TypeError:
                return failed("SortMismatch", link, f"{x} is not a term of this layer")
            continue
        if want is not None and type(x) is not App and type(x) is not Var:
            return failed("SortMismatch", link, f"{x} is not a term of this layer")
        if judged is not None and (id(x) in judged or judged.add(id(x))):
            continue
        if type(x) is App or type(x) is Atom:
            symbol, table, kind = ((x.symbol, sig.functions, "function") if type(x) is App
                                   else (x.pred, sig.predicates, "predicate"))
            if symbol not in table:
                return failed("UnknownSymbol", link, f"{kind} {symbol!r} not declared")
            arity = table[symbol]
            if len(x.args) != len(arity):
                return failed("ArityMismatch", link,
                              f"{symbol!r} expects {len(arity)} arguments, got {len(x.args)}")
            stack += [(s, (i, link), (symbol, i, k))
                      for i, (s, k) in reversed(tuple(enumerate(zip(x.args, arity))))]
        elif type(x) is not Var:
            stack += [(c, (i, link), None)
                      for i, c in reversed(tuple(enumerate(NODE_TYPES[type(x)].children(x))))]
    return CheckResult.passed()


# ---------------------------------------------------------------------------
# Text grammar
#
# terms:         x | f(x y. t, u)        binder list before '.', none omits it
# propositions:  P(...) | A => B | A /\ B | A \/ B | false
#                | forall x. A | exists x. A
# Zero-argument function symbols print as c() so parsing needs no signature.
#
# Both layers share this grammar: the tokens below, the operator table and
# the reader of propositions and sequents. bindlog.sigma adds its own tokens,
# its operators and its operand table for sorted terms.

_HEAD_TOKENS = (("ws", r"\s+|#[^\n]*"), ("imp", "=>"), ("and", r"/\\"), ("or", r"\\/"),
                ("turnstile", r"\|-"), ("arrow", "->"), ("lpar", r"\("), ("rpar", r"\)"),
                ("comma", ","), ("dot", r"\."), ("lbrack", r"\["), ("rbrack", r"\]"))
_TAIL_TOKENS = (("meta", r"\?\w+"), ("sym", "[=+*×<>]"))  # after the layer's ?n_k indices

QUANTIFIERS = {"forall": Forall, "exists": Exists}
_KEYWORDS = {*QUANTIFIERS, "false"}


def lexicon(*layer_tokens: tuple[str, str]) -> tuple[re.Pattern, Callable[[str], str]]:
    """A layer's token regex: the shared (kind, pattern) alternatives with
    the layer's own in between, in order, with no groups; and the kind of a
    token text: the first alternative that reads it all when "(" follows
    (sigma's `fam` needs one), `ident` and `sym` as `kw` or `name`."""
    alternatives = (*_HEAD_TOKENS, *layer_tokens, *_TAIL_TOKENS)
    named = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in alternatives))

    @functools.lru_cache(4096)
    def kind_of(text: str) -> str:
        kind = named.match(text + "(").lastgroup if text else "eof"
        return ("kw" if text in _KEYWORDS else "name") if kind in ("ident", "sym") else kind

    return re.compile("|".join(f"(?:{pattern})" for _, pattern in alternatives)), kind_of


_TOKEN_RE, _TOKEN_KIND = lexicon(("ident", r"[^\W\d]\w*'*|\d+"))


@dataclass(frozen=True, slots=True)
class Operator:
    """A right-associative infix operator. Its left operand sits at
    level + 1, its right one at `right`; a higher level binds tighter."""

    kind: str  # its token
    text: str
    level: int
    right: int


# Levels, weakest first: quantifiers 0, => 1, \/ 2, /\ 3; leaves and
# applications bind tightest. bindlog.sigma adds cons and composition.
OPERATORS: dict[type, Operator] = {
    Imp: Operator("imp", "=>", 1, 0),  # a quantifier may stand on its right
    Or: Operator("or", "\\/", 2, 2),
    And: Operator("and", "/\\", 3, 3),
}
TIGHTEST = 4  # above every operator: show parenthesizes all but leaves and applications


def tokenize(text: str, token_re: re.Pattern = _TOKEN_RE) -> list[str]:
    """The texts of the tokens of text by token_re, whitespace and comments
    dropped, then "" for the end: one findall, with no Python step per
    token. A text that a character starting no token stops is scanned again
    for that character's offset."""
    tokens = token_re.findall(text)
    if sum(map(len, tokens)) != len(text):  # findall skipped a character
        pos = 0
        while (m := token_re.match(text, pos)) is not None:
            pos = m.end()
        raise ParseError(f"unexpected character {text[pos]!r}", pos=pos)
    tokens = list(itertools.filterfalse(str.isspace, tokens))
    if "#" in text:  # only a comment holds one
        tokens = [t for t in tokens if t[0] != "#"]
    tokens.append("")
    return tokens


# What an argument of an application is: a term, a slot binding no names
# (the sorted layer's), or a slot binding the names before its dot.
TERMS, SLOTS, BINDING_SLOTS = 0, 1, 2
_OP, _GROUP, _ARGUMENTS = range(3)  # the frames of Parser.read


def _name_term(p: Parser, text: str, following: str):
    if following == "(":
        return App, (text,), BINDING_SLOTS
    return App(text, ()) if p.sig is not None and text in p.sig.functions else Var(text)


class Parser:
    """Reader of the named layer's terms, propositions, sequents and
    parameter blocks; bindlog.sigma's readers change only its tables. With
    a signature, a bare identifier declared as a function symbol reads as a
    zero-argument application. The text is tokenized up front, so a
    character that starts no token is the error raised before any other."""

    token_re, kind_of = _TOKEN_RE, staticmethod(_TOKEN_KIND)
    # token kind -> operand reader (parser, text, following text): a node,
    # or (class, data, argument kind) of an application whose "(" follows
    operands: dict[str, Callable] = {"name": _name_term}
    grouped = False  # whether "(" opens a parenthesized term
    term_ops: dict[str, type] = {}  # token kind -> class, of the infix operators of terms
    prop_ops = {OPERATORS[c].kind: c for c in (Imp, Or, And)}
    slots = BINDING_SLOTS  # the arguments of an atom
    closure: type | None = None  # the class of the postfix t[s] of terms
    a_term = "a term"

    def __init__(self, text: str, sig: Signature | None = None):
        self.text, self.sig, self.pos = text, sig, 0
        self.tokens = tokenize(text, self.token_re)
        self.kinds = list(map(self.kind_of, self.tokens))

    def starts(self) -> list[int]:
        """The offset of each token, the end's included, by a re-scan."""
        return [m.start() for m in self.token_re.finditer(self.text)
                if not m.group().isspace() and m.group()[0] != "#"] + [len(self.text)]

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, pos=self.starts()[i])

    def expect(self, kind: str):
        if self.kinds[self.pos] != kind:
            raise self.error(f"expected {kind}, found {self.tokens[self.pos]!r}", self.pos)
        self.pos += 1

    def done(self):
        if self.kinds[self.pos] != "eof":
            raise self.error(f"trailing input starting at {self.tokens[self.pos]!r}", self.pos)

    def whole(self, prop: bool):
        """What read gives, which must end the text."""
        x = self.read(prop)
        self.done()
        return x

    def read(self, prop: bool):
        """The longest proposition (prop) or term from the current token on, by
        one loop (Pratt, "Top down operator precedence", 1973). A token that
        starts an operand gives a leaf or opens a frame on an explicit stack:
        a quantifier, parentheses, an application or an operator waiting for
        its right operand. An operand closes the frames it completes."""
        tokens, kinds, i = self.tokens, self.kinds, self.pos
        operands, ops, grouped = self.operands, (self.term_ops, self.prop_ops), self.grouped
        stack: list = []
        level = 0  # the least operator level that the expression at hand takes
        arguments = None  # the frame of an application whose next argument starts
        while True:
            if arguments is not None and arguments[3] == BINDING_SLOTS:  # x y. before a body
                j = i
                while kinds[j] == "name":
                    j += 1
                arguments[5] = tuple(tokens[i:j]) if kinds[j] == "dot" else ()
                if arguments[5]:
                    i = j + 1
            arguments = None
            kind, text = kinds[i], tokens[i]
            if kind == "lpar" and (prop or grouped):
                stack.append((_GROUP, "rpar", None, level))
                i, level = i + 1, 0
                continue
            if not prop:
                reader = operands.get(kind)
                if reader is None:
                    raise self.error(f"expected {self.a_term}, found {text!r}", i)
                x = reader(self, text, tokens[i + 1])
            elif kind == "name":
                x = (Atom, (text,), self.slots) if tokens[i + 1] == "(" else Atom(text, ())
            elif text == "false":
                x = Bottom()
            elif kind == "kw" and level == 0:  # forall or exists
                self.pos = i + 1
                self.expect("name")
                self.expect("dot")
                stack.append((_OP, QUANTIFIERS[text], tokens[i + 1], level))
                i += 3
                continue
            else:
                raise self.error(f"expected a proposition, found {text!r}", i)
            i += 1
            if type(x) is tuple and tokens[i + 1] == ")":  # an application of no arguments
                i, x = i + 2, x[0](*x[1], ())
            elif type(x) is tuple:  # an application, at its "("
                stack.append(arguments := [_ARGUMENTS, *x, [], (), prop, level])
                i, prop, level = i + 1, False, 0
                continue
            while True:  # close what x completes
                if tokens[i] == "[" and self.closure and not prop:
                    stack.append((_GROUP, "rbrack", x, level))
                    i, level = i + 1, 0
                    break
                cls = ops[prop].get(kinds[i])
                if cls is not None and OPERATORS[cls].level >= level:
                    stack.append((_OP, cls, x, level))
                    i, level = i + 1, OPERATORS[cls].right
                    break
                if not stack:
                    self.pos = i
                    return x
                frame = stack.pop()
                if frame[0] == _ARGUMENTS:
                    frame[4].append(Slot(frame[5], x) if frame[3] else x)
                    if tokens[i] == ",":
                        stack.append(frame)
                        arguments, i, level = frame, i + 1, 0
                        break
                    if kinds[i] != "rpar":
                        raise self.error(f"expected rpar, found {tokens[i]!r}", i)
                    i += 1
                    x, prop, level = frame[1](*frame[2], tuple(frame[4])), frame[6], frame[7]
                elif frame[0] == _OP:  # or a quantifier, frame[2] its variable
                    x, level = frame[1](frame[2], x), frame[3]
                else:  # parentheses, or the [s] of a closure on frame[2]
                    if kinds[i] != frame[1]:
                        raise self.error(f"expected {frame[1]}, found {tokens[i]!r}", i)
                    i, level = i + 1, frame[3]
                    if frame[2] is not None:
                        x = self.closure(frame[2], x)

    term = functools.partialmethod(read, False)
    prop = functools.partialmethod(read, True)

    # sequents and proof lines --------------------------------------------------

    def sequent(self):
        """Both sides of `left |- right`, propositions separated by commas."""
        sides = []
        for stop in ("turnstile", "eof"):
            sides.append([] if self.kinds[self.pos] == stop else [self.prop()])
            while sides[-1] and self.tokens[self.pos] == ",":
                self.pos += 1
                sides[-1].append(self.prop())
            if stop == "turnstile":
                self.expect(stop)
        return tuple(sides[0]), tuple(sides[1])

    def params(self) -> dict:
        """An optional parameter block `[key=value ...]`: x= a name, A= a
        proposition, t= a term, at= a non-negative integer; each key once."""
        params, tokens, kinds = {}, self.tokens, self.kinds
        if tokens[self.pos] != "[":
            return params
        self.pos += 1
        while tokens[i := self.pos] != "]":
            key = tokens[i]
            if kinds[i] != "name" or key not in ("x", "A", "t", "at"):
                raise self.error(f"expected x=, A=, t=, at= or ']', found {key!r}", i)
            if key in params:
                raise self.error(f"duplicate parameter {key!r}", i)
            if tokens[i + 1] != "=":
                raise self.error(f"expected '=' after {key}, found {tokens[i + 1]!r}", i + 1)
            self.pos = i + 2
            if key in ("A", "t"):
                params[key] = self.read(key == "A")
                continue
            val = tokens[i + 2]
            if key == "x" and kinds[i + 2] != "name":
                raise self.error(f"x= takes a name, not {val!r}", i + 2)
            if key == "at" and not (val.isascii() and val.isdigit()):
                raise self.error(f"at= takes a non-negative integer, not {val!r}", i + 2)
            params[key] = val if key == "x" else int(val)
            self.pos += 1
        self.pos += 1
        return params


def parse_term(text: str, sig: Signature | None = None) -> Term:
    return Parser(text, sig).whole(False)


def parse_prop(text: str, sig: Signature | None = None) -> Prop:
    return Parser(text, sig).whole(True)


# ---------------------------------------------------------------------------
# Printing: one printer for the nodes of both layers


def _args(head: str, parts) -> list:
    """The parts (see SHOW) of an application: head, the given parts with
    commas between them, and the closing parenthesis."""
    out = [head]
    for part in parts:
        if len(out) > 1:
            out.append(", ")
        out.append(part)
    out.append(")")
    return out


# How show prints each leaf, application class and slot: as its text, or as
# parts that are text, a node printed at level 0 or a (node, level) pair.
# bindlog.sigma adds its own.
SHOW: dict[type, Callable[[object], str | tuple | list]] = {
    Var: attrgetter("name"),
    App: lambda x: _args(f"{x.symbol}(", x.args),
    Atom: lambda x: _args(f"{x.pred}(", x.args) if x.args else x.pred,
    Bottom: lambda x: "false",
    Slot: lambda x: (f"{' '.join(x.binders)}. ", x.body) if x.binders else (x.body,),
}


def show(x, level: int = 0) -> str:
    """The text of a node of either layer, as the parser of its layer reads
    it; parenthesized when its operator's level (a quantifier's is 0) is
    below `level`. Iterative: the parts of each node being printed wait on
    a stack."""
    out: list[str] = []
    waiting: list = []
    parts = iter(((x, level),))
    while True:
        for part in parts:
            if type(part) is str:
                out.append(part)
                continue
            if type(part) is tuple:
                x, level = part
            else:
                x, level = part, 0
            cls = type(x)
            printer = SHOW.get(cls)
            if printer is not None:
                inner = printer(x)
                if type(inner) is str:
                    out.append(inner)
                    continue
            elif (op := OPERATORS.get(cls)) is not None:
                a, b = NODE_TYPES[cls].kids(x)
                inner = ((a, op.level + 1), f" {op.text} ", (b, op.right))
                if level > op.level:
                    inner = ("(", *inner, ")")
            elif cls is Forall or cls is Exists:
                inner = (f"{NODE_TYPES[cls].name} {x.var}. ", x.body)
                if level > 0:
                    inner = ("(", *inner, ")")
            else:
                raise TypeError(f"cannot print a {type(x).__name__}")
            waiting.append(parts)
            parts = iter(inner)
            break
        else:
            if not waiting:
                return "".join(out)
            parts = waiting.pop()


print_term = print_prop = show


def show_repr(x) -> str:
    """<class text>, printed by the iterative show, so that any depth
    prints; a node holding a part that is not a node prints as the fields
    it was built with."""
    try:
        return f"<{type(x).__name__} {show(x)}>"
    except TypeError:
        fields = ", ".join(f"{f}={getattr(x, f)!r}" for f in x.__match_args__)
        return f"{type(x).__qualname__}({fields})"


Node.__str__, Node.__repr__ = show, show_repr


def print_sequent(left, right) -> str:
    return f"{', '.join(map(show, left))} |- {', '.join(map(show, right))}".strip()


# ---------------------------------------------------------------------------
# Line-oriented files: signatures, rule files, proof files and model tables


def file_lines(text: str, layers: tuple[str, ...] = ()) -> tuple[str | None, list]:
    """The lines of a file that hold something once their `#` comments are
    cut, as (line number, line) pairs, right-stripped with indentation kept.
    With `layers`, the file's layer comes first: the one a first line
    `syntax <layer>` names, which must be one of `layers` and is not among
    the lines, else layers[0]. Without, the layer is None."""
    lines = [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.split("#", 1)[0].rstrip())]
    words = lines[0][1].split() if layers and lines else ()
    if not words or words[0] != "syntax":
        return (layers[0] if layers else None), lines
    if len(words) != 2 or words[1] not in layers:
        wanted = " or ".join(f"`syntax {layer}`" for layer in layers)
        raise ParseError(f"expected {wanted}: {lines[0][1].strip()!r}", line=lines[0][0])
    return words[1], lines[1:]


@contextlib.contextmanager
def at_line(lineno: int):
    """Re-raise a ParseError that names no line as one naming line lineno."""
    try:
        yield
    except ParseError as e:
        if e.line is not None:
            raise
        raise ParseError(e.message, line=lineno) from None


# Signature files: lines `fun f : <k1,...,kn>` / `pred P : <k1,...,kn>`

_SIG_LINE_RE = re.compile(r"^(fun|pred)\s+(\S+)\s*:\s*<([\d,\s]*)>\s*$")


def parse_signature(text: str) -> Signature:
    functions: dict[str, BindingArity] = {}
    predicates: dict[str, BindingArity] = {}
    for lineno, line in file_lines(text)[1]:
        m = _SIG_LINE_RE.match(line.strip())
        if m is None:
            raise ParseError(f"bad signature line: {line.strip()!r}", line=lineno)
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

