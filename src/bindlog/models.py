"""Intensional functional structures, binding models, denotations, validity
sweeps, the built-in counter-models, and the adapters between binding models
and models of the sorted explicit-substitution layer.

Elements of the carrier at level n behave like n-argument intensional
functions; argument positions follow the evaluation context, innermost bound
variable first. Carriers may be finite and enumerated (the extensionality
counter-model, full function spaces over a finite set) or computable with
probe-based equality (the disjoint-sum counter-model over the naturals).
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import gen, precook, sigma, syntax
from .errors import (
    BindLogError,
    InfiniteDomainExhaustionRequested,
    ParseError,
    UnboundVariable,
)
from .syntax import And, App, Atom, Bottom, Exists, Forall, Imp, Or, Signature, Var


@dataclass(eq=False, slots=True)
class Computable:
    """Carrier element given by a total function on tuples of naturals.
    An affine element, c0 + cs·xs, carries its coefficients (c0, cs) in
    coeffs: == and hash read (arity, coeffs) for it, so two equal affine
    maps are ==, and (arity, fn) for any other element, which is == only to
    elements sharing its function. An affine element is never == to one
    without coefficients. A model compares values on a declared probe set,
    so that equality is approximate; it may keep the values on the probe
    points in table, and what the element was composed of in parts until
    then."""

    arity: int
    fn: Callable
    parts: tuple | None = field(default=None, repr=False)
    coeffs: tuple | None = None
    table: tuple | None = field(default=None, init=False, repr=False)

    def __eq__(self, other):
        if other.__class__ is not Computable:
            return NotImplemented
        return self.arity == other.arity and (self.coeffs or self.fn) == (other.coeffs or other.fn)

    def __hash__(self):
        return hash((self.arity, self.coeffs or self.fn))


@dataclass(frozen=True)
class IFS:
    """Carriers M0, M1, ... with projections and composition.

    carrier(n) returns the enumerated level or None when not enumerable;
    box(a, bs, p) composes a (at level len(bs)) with elements of level p;
    elem_eq compares two elements of one level; sample draws a random
    element for sampled sweeps over non-enumerable carriers.

    The sweeps memoize box and intern elements, so elements must be
    hashable, box must give equal results on equal (==) arguments, and
    elem_eq must be reflexive: a == b implies elem_eq(a, b, n). elem_eq
    may be coarser than ==; it is then consulted wherever two results
    differ under ==.
    """

    carrier: Callable[[int], tuple | None]
    proj: Callable[[int, int], object]
    box: Callable[[object, tuple, int], object]
    elem_eq: Callable[[object, object, int], bool]
    sample: Callable[[int, random.Random], object] | None = None
    m0_samples: tuple = ()


@dataclass(frozen=True)
class BindingModel:
    name: str
    sig: Signature
    ifs: IFS
    fhat: Mapping[str, Callable[[int, tuple], object]]
    phat: Mapping[str, Callable[[tuple], int]]

    def __post_init__(self):
        object.__setattr__(self, "fhat", dict(self.fhat))
        object.__setattr__(self, "phat", dict(self.phat))


# ---------------------------------------------------------------------------
# Denotation, compiled per proposition (or per term, for eval_term) into one
# generated function, one statement per node, as rule matchers are
# (sigma._generated). The env dict holds phi and one slot per quantifier,
# keyed by the quantifier node's id. A quantifier is a `for` loop that
# writes its slot, in a function of its own, so that nests of any depth
# stay within the compiler's limit on nested blocks. A subterm that does
# not read the innermost quantifier's slot is memoized: computed where it
# is first reached, and again only after the innermost quantifier whose
# slot it reads writes that slot (never, if it reads none). One that reads
# it but skips the slot of some enclosing quantifier is tabled per binding
# of the slots it reads, told apart by the identity of their values
# (domain elements, which the domain tuple keeps alive). Errors are never
# stored: a failing node raises when it is reached, as in a recursive
# interpreter.
#
# The source depends only on the input's shape: model functions, levels,
# projection indices, slots, free names and exceptions are the arguments
# of the generated `make`, so one compiled `make` serves every input of a
# shape, and each call of it builds fresh memos and tables.

_UNSET = object()
_EXIT = object()  # marks a node's exit on the generator's stack

# Imp, And, Or: (a, b, v) where the value is v when the sides are a and b,
# exact when both are; otherwise 1 - v, exact when a side that fixes it is.
_JUNCTIONS = {Imp: (1, 0, 0), And: (1, 1, 1), Or: (0, 0, 0)}


def _source(m: BindingModel, root, ctx: tuple, prop: bool) -> tuple[str, list]:
    """The source of `make` for root, a proposition if prop, else a term at
    level len(ctx), and its constants after (dom, ex, box, proj). Node i,
    numbered in pre-order, computes v{i}, a (truth value, exact) pair for a
    proposition, from its constants: c{i}, its symbol's function, its
    quantifier's slot, its free name, its projection's index or what it
    raises, and n{i}, its level. So the source depends only on the shape:
    node kinds and arities and where each variable is bound."""
    bound: dict = {}  # name -> positions of its slot binders, outermost first
    for pos, x in enumerate(reversed(ctx)):
        bound.setdefault(x, []).append(pos)
    named: dict = {}  # name -> (its quantifier node, that node's depth)
    qnodes: list = []  # the enclosing quantifiers, outermost first
    nodes, kids, consts, levels, post, lines = [], [], [], [], [], []
    reads: list = []  # per node: bit d set if it reads the slot of depth d
    hoisted: dict = {}  # node -> the key of its table, None for a memo
    loops: dict = {}  # quantifier node -> the value that stops its sweep
    resets: dict = {}  # quantifier node -> the memos it resets

    def hoist(i: int, around: int):
        """Memoize or table node i, computed where nodes reading around are."""
        d, r = len(qnodes) - 1, reads[i]
        if not r >> d & 1:
            hoisted[i] = None
            if r:
                resets.setdefault(qnodes[r.bit_length() - 1], []).append(f"m{i}")
        elif around & ~r:
            ids = [f"id(env[c{q}])" for b, q in enumerate(qnodes) if r >> b & 1]
            hoisted[i] = ids[0] if len(ids) == 1 else f"({', '.join(ids)})"

    todo = [(root, len(ctx), prop, (), -1)]
    while todo:
        x, n, is_prop, binders, i = todo.pop()
        if x is _EXIT:
            x = nodes[i]
        else:  # enter: number the node, bind its slot, queue its children if any
            if i >= 0:
                kids[i].append(len(nodes))
            i = len(nodes)
            nodes.append(x)
            kids.append([])
            reads.append(0)
            consts.append(None)
            levels.append(n)
            for k, b in enumerate(binders, n - len(binders)):
                bound.setdefault(b, []).append(k)
            if isinstance(x, Atom if is_prop else App) and x.args:
                todo.append((_EXIT, n, is_prop, binders, i))
                for s in reversed(x.args):
                    level = len(s.binders) + (0 if is_prop else n)
                    todo.append((s.body, level, False, s.binders, i))
                continue
            if is_prop and type(x) in _JUNCTIONS:
                todo += (_EXIT, n, True, binders, i), (x.b, 0, True, (), i), (x.a, 0, True, (), i)
                continue
            if is_prop and isinstance(x, (Forall, Exists)):
                consts[i] = id(x)  # quantifier_witness reads the slot back by this key
                named.setdefault(x.var, []).append((i, len(qnodes)))
                qnodes.append(i)
                todo += (_EXIT, n, True, binders, i), (x.body, 0, True, (), i)
                continue
        ks, r = kids[i], 0
        for k in ks:
            r |= reads[k]
        if isinstance(x, Atom if is_prop else App):
            reads[i] = r
            if qnodes and r >> len(qnodes) - 1 & 1:
                for k in ks:
                    hoist(k, r)
            args = "(" + "".join(map("v{}, ".format, ks)) + ")"
            consts[i] = (m.phat.get(x.pred) or KeyError(x.pred)) if is_prop else \
                (m.fhat.get(x.symbol) or KeyError(x.symbol))
            line = f"raise c{i}" if isinstance(consts[i], KeyError) else \
                f"v{i} = c{i}({args}), True" if is_prop else f"v{i} = c{i}(n{i}, {args})"
            if is_prop and qnodes:
                hoist(i, (1 << len(qnodes)) - 1)
        elif is_prop and isinstance(x, (Forall, Exists)):
            line, loops[i] = f"v{i} = q{i}(env)", int(isinstance(x, Exists))
            named[x.var].pop()
            qnodes.pop()
        elif is_prop and isinstance(x, Bottom):
            line = f"v{i} = 0, True"
        elif is_prop and type(x) in _JUNCTIONS:
            a, b, v = _JUNCTIONS[type(x)]
            line = (f"(va, ea), (vb, eb) = v{ks[0]}, v{ks[1]}\n"
                    f"v{i} = ({v}, ea and eb) if va == {a} and vb == {b} else "
                    f"({1 - v}, (va == {1 - a} and ea) or (vb == {1 - b} and eb))")
        elif is_prop or not isinstance(x, Var):
            consts[i] = TypeError(f"not a {'proposition' if is_prop else 'named term'}: {x!r}")
            line = f"raise c{i}"
        elif bound.get(x.name):
            consts[i] = n - bound[x.name][-1]
            line = f"v{i} = proj(c{i}, n{i})"
        elif named.get(x.name):  # a slot its quantifier has set
            q, d = named[x.name][-1]
            line, reads[i] = f"v{i} = box(env[c{q}], (), n{i})", 1 << d
        else:
            consts[i] = x.name
            line = f"if c{i} not in env: raise Unbound(c{i})\nv{i} = box(env[c{i}], (), n{i})"
        for b in binders:
            bound[b].pop()
        post.append(i)
        lines.append(line)

    # A hoisted node's or quantifier's statements form a function of their
    # own, called where the node is read; the rest are run's (-1).
    body: dict = {-1: lines}
    if hoisted or loops:
        where = [-1] * len(nodes)
        body = {-1: [], **{i: [] for i in (*hoisted, *loops)}}
        for i in reversed(post):
            for k in kids[i]:
                where[k] = i if i in hoisted or i in loops else where[i]
        for i, line in zip(post, lines):
            body[i if i in hoisted else where[i]].append(line)
            if i in hoisted:
                read = _MEMO_READ if hoisted[i] is None else _TABLE_READ
                body[where[i]].append(read.format(i=i, key=hoisted[i]))
    params = "".join(map(", c{}".format, range(len(nodes)))) + \
        "".join(map(", n{}".format, range(len(nodes))))
    out = [f"def make(dom, ex, box, proj{params}):"]
    for i, key in hoisted.items():
        out.append((_MEMO if key is None else _TABLE).format(i=i, body=_block(body[i], " ")))
    for i, stop in loops.items():
        own = resets.get(i, ())
        code = [f"{' = '.join(own)} = U", *body[i]] if own else body[i]
        out.append(_LOOP.format(i=i, body=_block(code, "  "), last=kids[i][0], stop=stop,
                                rest=1 - stop, own=f"\n nonlocal {', '.join(own)}" if own else ""))
    out.append(f"def run(env):\n{_block(body[-1], ' ')}\n return v0")
    return _block(out, " ")[1:] + "\n return run", consts + levels


def _block(lines: list, pad: str) -> str:
    return pad + "\n".join(lines).replace("\n", "\n" + pad)


# The functions of a memo, a table and a quantifier, and a hoisted node's
# read; a quantifier's body starts by resetting the memos it owns.
_MEMO = "m{i} = U\ndef s{i}(env):\n nonlocal m{i}\n{body}\n m{i} = v{i}\n return v{i}"
_TABLE = "t{i} = {{}}\ndef s{i}(env, key):\n{body}\n t{i}[key] = v{i}\n return v{i}"
_MEMO_READ = "v{i} = m{i}\nif v{i} is U: v{i} = s{i}(env)"
_TABLE_READ = "k{i} = {key}\nv{i} = t{i}.get(k{i}, U)\nif v{i} is U: v{i} = s{i}(env, k{i})"
_LOOP = """def q{i}(env):{own}
 exact = True
 for e in dom:
  env[c{i}] = e
{body}
  va, ea = v{last}
  exact = exact and ea
  if va == {stop}: return {stop}, ea
 env.pop(c{i}, None)
 return {rest}, ex and exact"""


@functools.lru_cache(maxsize=512)
def _make(source: str) -> Callable:
    """The function `make` that source defines, compiled once per shape."""
    env = {"U": _UNSET, "Unbound": UnboundVariable}
    exec(source, env)
    return env.pop("make")  # its globals do not hold it: no cycle outlives the cache entry


def _compiled(m: BindingModel, root, ctx: tuple, prop: bool, domain: tuple = (),
              exhaustive: bool = True) -> Callable:
    """env -> the value of root (see _source), its quantifiers ranging over domain."""
    source, consts = _source(m, root, ctx, prop)
    return _make(source)(domain, exhaustive, m.ifs.box, m.ifs.proj, *consts)


def eval_term(m: BindingModel, t, ctx: tuple[str, ...] = (), phi: Mapping | None = None):
    """Denotation of a term in a context of bound variables (innermost
    first); an element of the carrier at level len(ctx)."""
    return _compiled(m, t, tuple(ctx), False)(dict(phi or {}))


def _closed_term_values(m: BindingModel, a) -> list:
    """The distinct values of a's closed subterms, in the pre-order of their
    first occurrence, atoms left to right; the order fixes the quantifier
    domain's, and so the witness a sweep reports. The free names of each
    subterm are found once, children before parents."""
    vals: list = []
    for arg in [s.body for atom in syntax.atoms(a) for s in atom.args]:
        order, stack = [], [arg]
        while stack:
            order.append(t := stack.pop())
            stack += reversed(syntax.NODE_TYPES[type(t)].children(t))
        free: dict = {}  # id of a subterm -> its free names
        for t in reversed(order):
            n = syntax.NODE_TYPES[type(t)]
            free[id(t)] = {t.name} if n.variable else set().union(
                *[free[id(s.body)].difference(s.binders) for s in n.kids(t)])
        for t in order:
            if not free[id(t)] and (v := eval_term(m, t, (), {})) not in vals:
                vals.append(v)
    return vals


def _quantifier_domain(m: BindingModel, prop) -> tuple[tuple, bool]:
    dom = m.ifs.carrier(0)
    if dom is not None:
        return tuple(dom), True
    extra = [v for v in _closed_term_values(m, prop) if v not in m.ifs.m0_samples]
    return tuple(m.ifs.m0_samples) + tuple(extra), False


def eval_prop_report(m: BindingModel, a, phi: Mapping | None = None,
                     witness: dict | None = None) -> tuple[int, bool]:
    """(truth value, exact). The value is exact unless it rests on a sampled
    quantifier sweep over a non-enumerable domain; a counterexample found in
    the samples still refutes exactly. A witness dict receives what
    quantifier_witness returns, read off the same sweep: a quantifier that
    stops at a deciding element leaves it in its env slot."""
    env = dict(phi or {})
    report = _compiled(m, a, (), True, *_quantifier_domain(m, a))(env)
    while witness is not None and isinstance(a, (Forall, Exists)) and id(a) in env:
        witness[a.var] = env[id(a)]
        a = a.body
    return report


def eval_prop(m: BindingModel, a, phi: Mapping | None = None,
              require_exact: bool = False) -> int:
    v, exact = eval_prop_report(m, a, phi)
    if require_exact and not exact:
        raise InfiniteDomainExhaustionRequested(
            "verdict rests on a sampled quantifier domain")
    return v


def quantifier_witness(m: BindingModel, a, phi: Mapping | None = None) -> dict | None:
    """Best-effort witness assignment for the outermost quantifier prefix:
    the values refuting a universal chain, or satisfying an existential one.
    None when the prefix verdict needs no witness (or none was found)."""
    witness: dict = {}
    if isinstance(a, (Forall, Exists)):
        eval_prop_report(m, a, phi, witness)
    else:
        _quantifier_domain(m, a)  # raises where the sweep's domain would
    return witness or None


# ---------------------------------------------------------------------------
# Structure sweeps


@dataclass
class SweepReport:
    checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"{self.checked} instances checked, {verdict}"


def _level_elements(ifs: IFS, n: int, mode: str, samples: int, rng) -> tuple:
    dom = ifs.carrier(n)
    if mode == "exhaustive":
        if dom is None:
            raise InfiniteDomainExhaustionRequested(f"carrier {n} is not enumerable")
        return tuple(dom)
    if dom is not None:
        if len(dom) <= samples:
            return tuple(dom)
        return tuple(rng.choice(dom) for _ in range(samples))
    if ifs.sample is None:
        raise InfiniteDomainExhaustionRequested(f"carrier {n} has no sampler")
    return tuple(ifs.sample(n, rng) for _ in range(samples))


def _tuples_over(elems: tuple, k: int, mode: str, samples: int, rng):
    if mode == "exhaustive":
        return itertools.product(elems, repeat=k)
    return (tuple(rng.choice(elems) for _ in range(k)) for _ in range(samples)) \
        if k else iter([()])


def _column_numbers(choices: list, radix: int, width: int) -> list[list[int]]:
    """For each tuple of rows in itertools.product(*choices) order, the
    numbers of its columns: column j of rows (r1, ..., rn), digits below
    radix, is numbered r1[j] * radix**(n-1) + ... + rn[j]. Tuples with a
    common prefix share its numbering."""
    numbers = [[0] * width]
    for rows in choices:
        grown = []
        for c in numbers:
            scaled = list(map(operator.mul, c, itertools.repeat(radix, width)))
            grown += [list(map(operator.add, scaled, r)) for r in rows]
        numbers = grown
    return numbers


def _digits(number: int, radix: int, n: int) -> list[int]:
    """The n digits of number in base radix, most significant first."""
    out = [0] * n
    for k in range(n - 1, -1, -1):
        number, out[k] = divmod(number, radix)
    return out


def check_ifs(ifs: IFS, n_max: int, p_max: int, q_max: int,
              mode: str = "exhaustive", samples: int = 50, seed: int = 0) -> SweepReport:
    """Check the projection, identity, and associativity laws on every
    instance within the level bounds (or on samples)."""
    rng = random.Random(seed)
    rep = SweepReport()
    boxc: dict = {}

    def box(a, bs, p):
        key = (a, bs, p)
        v = boxc.get(key)
        if v is None:
            v = ifs.box(a, bs, p)
            boxc[key] = v
        return v

    # projections
    for n in range(1, n_max + 1):
        for p in range(0, p_max + 1):
            elems_p = _level_elements(ifs, p, mode, samples, rng)
            for bs in _tuples_over(elems_p, n, mode, samples, rng):
                for i in range(1, n + 1):
                    rep.checked += 1
                    if not ifs.elem_eq(box(ifs.proj(i, n), bs, p), bs[i - 1], p):
                        rep.violations.append(
                            f"proj law: {i}_{n} with {_fmt_tuple(bs)} at level {p}")
    # identity
    for n in range(0, n_max + 1):
        projs = tuple(ifs.proj(i + 1, n) for i in range(n))
        for a in _level_elements(ifs, n, mode, samples, rng):
            rep.checked += 1
            if not ifs.elem_eq(box(a, projs, n), a, n):
                rep.violations.append(f"identity law: {fmt_element(a)} at level {n}")
    # associativity, over elements interned per level to small integers the
    # first time they are seen: equal indices mean equal elements, so all the
    # instances of one a compare at once, as bytes where every index and
    # column number fits in one and as lists of ints where not, and elem_eq
    # runs only where they differ
    index: dict[int, dict] = {}
    table: dict[int, list] = {}

    def intern(e, level: int) -> int:
        ix = index.setdefault(level, {})
        i = ix.get(e)
        if i is None:
            i = ix[e] = len(ix)
            table.setdefault(level, []).append(e)
        return i

    exhaustive = mode == "exhaustive"
    # an exhaustive sweep meets the same elements and cs tuples for every n:
    # (p, q) -> level-p element index -> indices of box(b, cs, q) per cs
    rows_pq: dict[tuple, dict] = {}
    for n in range(0, n_max + 1):
        for p in range(0, p_max + 1):
            # a -> indices of box(a, bs, p) per bs: for every q of an exhaustive
            # sweep, for the one a at hand of a sampled one
            inner: dict = {}
            for q in range(0, q_max + 1):
                elems_n = _level_elements(ifs, n, mode, samples, rng)
                elems_p = _level_elements(ifs, p, mode, samples, rng)
                elems_q = _level_elements(ifs, q, mode, samples, rng)
                cs_list = list(_tuples_over(elems_q, p, mode, samples, rng))
                width = len(cs_list)
                elems_at_q = table.setdefault(q, [])
                rows = rows_pq.setdefault((p, q), {}) if exhaustive else {}

                def row(i: int) -> bytes | list[int]:  # bytes while level q fits in them
                    r = rows.get(i)
                    if r is None:
                        r = [intern(box(table[p][i], cs, q), q) for cs in cs_list]
                        r = rows[i] = bytes(r) if len(elems_at_q) <= 256 else r
                    return r

                prows = [row(intern(b, p)) for b in elems_p]
                # every index in these rows is below radix: the column of
                # inner results (row(b)[j] for b in bs) is numbered by its
                # indices as digits, once per bs and not once per a
                radix = len(elems_at_q)

                def numbered(tuples: list, numbers: list) -> tuple[bytes | list[int], dict]:
                    """The column numbers of tuples, one tuple after another
                    (bytes where each fits in one), and the columns they
                    reach: number -> the column's elements."""
                    flat = itertools.chain.from_iterable(numbers)
                    flat = bytes(flat) if radix ** n <= 256 else list(flat)
                    return flat, {c: tuple([elems_at_q[d] for d in _digits(c, radix, n)])
                                  for c in set(flat)}

                if exhaustive:
                    tuples = list(itertools.product(elems_p, repeat=n))
                    numbers, columns = numbered(tuples, _column_numbers([prows] * n, radix, width))
                for a in elems_n:
                    if not exhaustive:  # a sampled sweep draws each a's argument tuples in turn
                        tuples = list(_tuples_over(elems_p, n, mode, samples, rng))
                        numbers, columns = numbered(tuples, [
                            _column_numbers([[row(intern(b, p))] for b in bs], radix, width)[0]
                            for bs in tuples])
                        inner = {}
                    ins = inner.get(a)
                    if ins is None:
                        ins = inner[a] = [intern(box(a, bs, p), p) for bs in tuples]
                    lhs = [row(i) for i in ins]
                    # column number -> index of box(a, column, q)
                    outer = dict(zip(columns, [intern(box(a, col, q), q)
                                               for col in columns.values()]))
                    # levels only grow, so every index met so far is below q's size now
                    if type(numbers) is bytes and len(elems_at_q) <= 256:
                        to = bytearray(256)
                        for c, i in outer.items():
                            to[c] = i
                        lhs, rhs = b"".join(lhs), numbers.translate(to)
                    else:
                        lhs = list(itertools.chain.from_iterable(lhs))
                        rhs = list(map(outer.__getitem__, numbers))
                    rep.checked += len(tuples) * width
                    if lhs == rhs:
                        continue
                    for (bs, cs), i, j in zip(itertools.product(tuples, cs_list), lhs, rhs):
                        if i != j and not ifs.elem_eq(elems_at_q[i], elems_at_q[j], q):
                            rep.violations.append(
                                f"associativity: {fmt_element(a)} "
                                f"{_fmt_tuple(bs)} {_fmt_tuple(cs)} (n={n},p={p},q={q})")
                # free this block's numbering and byte strings before the next is built
                tuples = numbers = columns = lhs = rhs = None
    return rep


def upstep(ifs: IFS, bs: tuple, q: int, k: int) -> tuple:
    """The lifted argument tuple: projections 1..k at level q+k, then each
    element shifted past them."""
    s = tuple(ifs.proj(k + j, q + k) for j in range(1, q + 1))
    return tuple(ifs.proj(j, q + k) for j in range(1, k + 1)) + \
        tuple(ifs.box(b, s, q + k) for b in bs)


def check_coherence(m: BindingModel, f: str, p_max: int, q_max: int,
                    mode: str = "exhaustive", samples: int = 30, seed: int = 0) -> SweepReport:
    """Check that the family interpreting f commutes with composition, and
    for unary-binder symbols the derived level-shift identity."""
    rng = random.Random(seed)
    rep = SweepReport()
    ifs = m.ifs
    arity = m.sig.functions[f]
    fh = m.fhat[f]
    for p in range(0, p_max + 1):
        for q in range(0, q_max + 1):
            # the lifted argument tuples depend on bs but not on args
            lift = functools.cache(lambda bs, k, q=q: upstep(ifs, bs, q, k))
            arg_levels = [p + k for k in arity]
            arg_spaces = [_level_elements(ifs, lv, mode, samples, rng) for lv in arg_levels]
            elems_q = _level_elements(ifs, q, mode, samples, rng)
            for args in (itertools.product(*arg_spaces) if mode == "exhaustive"
                         else (tuple(rng.choice(sp) for sp in arg_spaces) for _ in range(samples))):
                for bs in _tuples_over(elems_q, p, mode, samples, rng):
                    rep.checked += 1
                    lhs = ifs.box(fh(p, args), bs, q)
                    lifted = tuple(
                        ifs.box(a, lift(bs, k), q + k)
                        for a, k in zip(args, arity)
                    )
                    rhs = fh(q, lifted)
                    if not ifs.elem_eq(lhs, rhs, q):
                        rep.violations.append(
                            f"coherence of {f}: p={p} q={q} args={_fmt_tuple(args)} "
                            f"bs={_fmt_tuple(bs)}")
    if arity == (1,):
        # The derived level-shift identity; at p = 0 the lowering tuple has
        # no projections to draw from, so the check starts at 1.
        for p in range(1, p_max + 1):
            for a in _level_elements(ifs, p + 1, mode, samples, rng):
                rep.checked += 1
                i_args = (ifs.proj(1, p + 2),) + tuple(ifs.proj(j, p + 2) for j in range(3, p + 3))
                lifted = ifs.box(a, i_args, p + 2)
                d_args = (ifs.proj(1, p),) + tuple(ifs.proj(j, p) for j in range(1, p + 1))
                rhs = ifs.box(fh(p + 1, (lifted,)), d_args, p)
                if not ifs.elem_eq(fh(p, (a,)), rhs, p):
                    rep.violations.append(
                        f"level-shift identity of {f}: p={p} a={fmt_element(a)}")
    return rep


def check_unary_retraction(m: BindingModel, f: str, q_max: int) -> SweepReport:
    """In models where the unary-binder family absorbs the shift section:
    applying f at level q to (b composed past a fresh slot) gives back b."""
    rep = SweepReport()
    ifs = m.ifs
    fh = m.fhat[f]
    for q in range(0, q_max + 1):
        elems = _level_elements(ifs, q, "exhaustive", 0, None)
        s = tuple(ifs.proj(j, q + 1) for j in range(2, q + 2))
        for b in elems:
            rep.checked += 1
            if not ifs.elem_eq(fh(q, (ifs.box(b, s, q + 1),)), b, q):
                rep.violations.append(f"retraction of {f}: q={q} b={fmt_element(b)}")
    return rep


# ---------------------------------------------------------------------------
# Built-in models

# The five equality axioms over the extensionality model's signature; all
# hold in ext_counter_model.
EXT_AXIOMS = (
    "forall x. =(x, x)",
    "forall x. forall y. =(x, y) => =(y, x)",
    "forall x. forall y. forall z. =(x, y) => (=(y, z) => =(x, z))",
    "forall x. forall y. =(x, y) => =(f(x), f(y))",
    "forall x. forall y. =(x, y) => =(Λ(z. x), Λ(z. y))",
)


def ext_counter_model() -> BindingModel:
    """The finite model separating the equality axioms from the
    extensionality scheme. Level n holds k and l (constant-like elements),
    the n projections, and their barred twins which compose through an
    involution; the unary binder collapses projection 1 to k and its twin
    to l. Level n has 2n + 2 elements."""

    def carrier(n: int) -> tuple:
        return (("k", n), ("l", n)) + tuple(("p", i, n) for i in range(1, n + 1)) \
            + tuple(("b", i, n) for i in range(1, n + 1))

    def neg(a):
        tag = a[0]
        if tag == "p":
            return ("b", a[1], a[2])
        if tag == "b":
            return ("p", a[1], a[2])
        return a

    def box(a, bs, p):
        tag = a[0]
        if tag == "k":
            return ("k", p)
        if tag == "l":
            return ("l", p)
        if tag == "p":
            return bs[a[1] - 1]
        return neg(bs[a[1] - 1])

    def lam(a):
        tag = a[0]
        n = a[-1] - 1
        if tag == "k":
            return ("k", n)
        if tag == "l":
            return ("l", n)
        i = a[1]
        if tag == "p":
            return ("k", n) if i == 1 else ("p", i - 1, n)
        return ("l", n) if i == 1 else ("b", i - 1, n)

    sig = Signature({"f": (0,), "Λ": (1,)}, {"=": (0, 0)})
    ifs = IFS(
        carrier=carrier,
        proj=lambda i, n: ("p", i, n),
        box=box,
        elem_eq=lambda a, b, n: a == b,
    )
    return BindingModel(
        name="ext",
        sig=sig,
        ifs=ifs,
        fhat={"f": lambda p, args: neg(args[0]), "Λ": lambda p, args: lam(args[0])},
        phat={"=": lambda args: int(args[0] == args[1])},
    )


def _delta_base(d: int, f, g) -> int:
    if d == 0 or d == 1:
        return 0
    return f((d - 2) // 2) if d % 2 == 0 else g((d - 3) // 2)


def delta_model(probe_budget: int = 289) -> BindingModel:
    """The model over the naturals refuting the collapsed disjoint-sum
    equation: one injection lands on the even numbers from 2 up, the other
    on the odd numbers from 3 up, the case split returns 0 on the two
    orphan values neither injection reaches, and the constant denotes the
    orphan 1. Higher levels are genuine function spaces; element equality
    is probe-based.

    The injections must skip the orphans: if they covered all the naturals
    there would be no value left for the constant to make the case-split
    equation fail while the injection axioms stay valid.

    Projections, sampled elements, constants, the injections and the
    constant a of an affine argument, and compositions of affine elements
    are affine: they carry their coefficients and are built from them
    alone, so equal maps are ==. δ above level 0, and any composition with
    a part that is not affine, is an opaque function.
    """

    sig = Signature({"i": (0,), "j": (0,), "δ": (0, 1, 1), "a": ()}, {"=": (0, 0)})

    def carrier(n: int):
        return None

    def affine(c0: int, cs: tuple) -> Computable:
        if len(cs) == 1:  # δ's branches at level 0: called once per quantifier element
            (c,) = cs
            fn = lambda x: c0 + c * x  # noqa: E731
        else:
            fn = lambda *xs: sum(map(operator.mul, cs, xs), c0)  # noqa: E731
        return Computable(len(cs), fn, coeffs=(c0, cs))

    def proj(i: int, n: int):
        return affine(0, tuple([int(k == i) for k in range(1, n + 1)]))

    def box(a, bs, p):
        if not bs:
            if p == 0:
                return a
            return affine(a, (0,) * p)
        if p == 0:
            return a.fn(*bs)
        if a.coeffs is not None and all(b.coeffs is not None for b in bs):
            c0, cs = a.coeffs
            b0s, bcs = zip(*[b.coeffs for b in bs])
            return affine(c0 + sum(map(operator.mul, cs, b0s)),
                          tuple([sum(map(operator.mul, cs, col)) for col in zip(*bcs)]))
        fa, fbs = a.fn, tuple(b.fn for b in bs)
        if len(fbs) == 1:
            (fb,) = fbs
            return Computable(p, lambda *xs: fa(fb(*xs)), (fa, bs))
        return Computable(p, lambda *xs: fa(*[fb(*xs) for fb in fbs]), (fa, bs))

    # arity -> the probe points, and their coordinates one column per position
    probes: dict[int, tuple[list, list]] = {}

    def probe_points(arity: int) -> tuple[list, list]:
        found = probes.get(arity)
        if found is None:
            if arity <= 2:
                pts = list(itertools.product(range(17), repeat=arity))[:probe_budget]
            else:
                prng = random.Random(0xDE17A + arity)
                pts = [tuple(prng.randrange(17) for _ in range(arity))
                       for _ in range(probe_budget)]
            found = probes[arity] = pts, list(zip(*pts))
        return found

    def table(a: Computable) -> tuple:
        """a's values on its probe points: an affine element's by whole-row
        arithmetic on the points' columns, a composite's from one call of its
        outer function per point on its arguments' tables."""
        if a.table is None:
            if a.coeffs is not None:
                c0, cs = a.coeffs
                pts, columns = probe_points(a.arity)
                vals = itertools.repeat(c0, len(pts))
                for c, column in zip(cs, columns):
                    vals = map(operator.add, vals, map(operator.mul, column, itertools.repeat(c)))
            elif a.parts is None:
                vals = itertools.starmap(a.fn, probe_points(a.arity)[0])
            else:
                vals = map(a.parts[0], *map(table, a.parts[1]))
            a.table, a.parts = tuple(vals), None
        return a.table

    def elem_eq(a, b, n: int) -> bool:
        if n == 0:
            return a == b
        return table(a) == table(b)

    def sample(n: int, rng: random.Random):
        if n == 0:
            return rng.randrange(0, 512)
        cs = tuple([rng.randrange(0, 4) for _ in range(n)])
        return affine(rng.randrange(0, 8), cs)

    def injection(k: int):
        """The family of d -> 2d + k, pointwise."""
        def fh(p: int, args: tuple):
            (d,) = args
            if p == 0:
                return 2 * d + k
            if d.coeffs is not None:
                c0, cs = d.coeffs
                return affine(2 * c0 + k, tuple([2 * c for c in cs]))
            fd = d.fn
            return Computable(p, lambda *xs: 2 * fd(*xs) + k)
        return fh

    def delta_hat(p: int, args: tuple):
        d, f, g = args
        if p == 0:
            return _delta_base(d, f.fn, g.fn)
        fd, ff, fg = d.fn, f.fn, g.fn
        return Computable(p, lambda *xs: _delta_base(
            fd(*xs), lambda y: ff(y, *xs), lambda y: fg(y, *xs)))

    def const_one(p: int, args: tuple):
        if p == 0:
            return 1
        return affine(1, (0,) * p)

    ifs = IFS(carrier=carrier, proj=proj, box=box, elem_eq=elem_eq,
              sample=sample, m0_samples=tuple(range(257)))
    return BindingModel(
        name=f"delta(probe_budget={probe_budget})",
        sig=sig,
        ifs=ifs,
        fhat={"i": injection(2), "j": injection(3), "δ": delta_hat, "a": const_one},
        phat={"=": lambda args: int(args[0] == args[1])},
    )


def full_function_ifs(universe) -> IFS:
    """Levels are the full function spaces A^n -> A over a finite set,
    stored as value tables; composition is pointwise."""
    A = tuple(universe)
    if not A:
        raise ValueError("empty universe")
    base = len(A)
    vidx = {v: i for i, v in enumerate(A)}

    def rank(args: tuple) -> int:
        r = 0
        for v in args:
            r = r * base + vidx[v]
        return r

    def carrier(n: int) -> tuple:
        count = base ** n
        if base ** count > 1 << 20:
            raise InfiniteDomainExhaustionRequested(
                f"level {n} of the function-space structure is too large to enumerate")
        return tuple(("fn", n, table) for table in itertools.product(A, repeat=count))

    def proj(i: int, n: int):
        table = tuple(args[i - 1] for args in itertools.product(A, repeat=n))
        return ("fn", n, table)

    def box(a, bs, p: int):
        table = tuple(
            a[2][rank(tuple(b[2][ridx] for b in bs))]
            for ridx in range(base ** p)
        )
        return ("fn", p, table)

    return IFS(carrier=carrier, proj=proj, box=box, elem_eq=lambda a, b, n: a == b)


# ---------------------------------------------------------------------------
# Adapters to and from models of the sorted layer


@dataclass(frozen=True)
class SigmaModel:
    """A model of the sorted layer: denotations for indices, identity,
    shift, closure, cons, and composition, plus the symbol families and
    predicates. Substitution values are whatever the cons/comp denotations
    build (tuples, in the adapter below)."""

    sig: Signature
    term_carrier: Callable[[int], tuple | None]
    index: Callable[[int, int], object]
    id_: Callable[[int], object]
    shift: Callable[[int], object]
    closure: Callable[[object, object, int], object]
    cons: Callable[[object, object], object]
    comp: Callable[[object, object, int], object]
    fsym: Callable[[str, int, tuple], object]
    pred: Callable[[str, tuple], int]
    elem_eq: Callable[[object, object, int], bool]
    sample: Callable[[int, random.Random], object] | None = None


def sigma_model_from_binding(m: BindingModel) -> SigmaModel:
    """Interpret the sorted layer inside a binding model: substitution
    values are tuples of elements, closure is composition, identity is the
    projection tuple, shift drops the first slot."""
    ifs = m.ifs
    return SigmaModel(
        sig=m.sig,
        term_carrier=ifs.carrier,
        index=ifs.proj,
        id_=lambda n: tuple(ifs.proj(i, n) for i in range(1, n + 1)),
        shift=lambda n: tuple(ifs.proj(i, n + 1) for i in range(2, n + 2)),
        closure=lambda a, s, n: ifs.box(a, s, n),
        cons=lambda a, s: (a,) + tuple(s),
        comp=lambda s1, s2, q: tuple(ifs.box(a, tuple(s2), q) for a in s1),
        fsym=lambda f, p, args: m.fhat[f](p, args),
        pred=lambda P, args: m.phat[P](args),
        elem_eq=ifs.elem_eq,
        sample=ifs.sample,
    )


def eval_lterm(nm: SigmaModel, t, phi: Mapping | None = None):
    """Denotation of a sorted term; free variables read from phi."""
    phi = phi or {}
    if isinstance(t, sigma.Index):
        return nm.index(t.i, t.n)
    if isinstance(t, sigma.FreeVar):
        if t.name not in phi:
            raise UnboundVariable(t.name)
        return phi[t.name]
    if isinstance(t, sigma.Id):
        return nm.id_(t.n)
    if isinstance(t, sigma.Shift):
        return nm.shift(t.n)
    if isinstance(t, sigma.FApp):
        return nm.fsym(t.f, t.p, tuple(eval_lterm(nm, a, phi) for a in t.args))
    if isinstance(t, sigma.Closure):
        n = sigma.sort_of(nm.sig, t).n
        return nm.closure(eval_lterm(nm, t.t, phi), eval_lterm(nm, t.s, phi), n)
    if isinstance(t, sigma.Cons):
        return nm.cons(eval_lterm(nm, t.t, phi), eval_lterm(nm, t.s, phi))
    if isinstance(t, sigma.Comp):
        q = sigma.sort_of(nm.sig, t).n
        return nm.comp(eval_lterm(nm, t.s1, phi), eval_lterm(nm, t.s2, phi), q)
    raise TypeError(f"not a sorted term: {t!r}")


def binding_model_from_sigma(nm: SigmaModel, name: str = "") -> BindingModel:
    """Recover a binding model: composition closes an element over the cons
    of its arguments onto the denotation of the appropriate shift chain."""

    def shift_chain_value(p: int):
        if p == 0:
            return nm.id_(0)
        val = nm.shift(p - 1)
        for k in range(p - 2, -1, -1):
            val = nm.comp(nm.shift(k), val, p)
        return val

    def box(a, bs, p):
        sub = shift_chain_value(p)
        for b in reversed(bs):
            sub = nm.cons(b, sub)
        return nm.closure(a, sub, p)

    ifs = IFS(
        carrier=nm.term_carrier,
        proj=nm.index,
        box=box,
        elem_eq=nm.elem_eq,
    )
    return BindingModel(
        name=name or "from-sigma",
        sig=nm.sig,
        ifs=ifs,
        fhat={f: (lambda p, args, f=f: nm.fsym(f, p, args)) for f in nm.sig.functions},
        phat={P: (lambda args, P=P: nm.pred(P, args)) for P in nm.sig.predicates},
    )


def _random_phi(nm: SigmaModel, names, rng: random.Random) -> dict:
    dom = nm.term_carrier(0)
    if dom is not None:
        return {x: rng.choice(dom) for x in names}
    if nm.sample is None:
        raise InfiniteDomainExhaustionRequested("level 0 has neither enumeration nor sampler")
    return {x: nm.sample(0, rng) for x in names}


def validate_sigma_rules(nm: SigmaModel, instances_per_rule: int = 30,
                         seed: int = 0, size: int = 5) -> SweepReport:
    """Sample instances of every substitution rule and check both sides
    denote equal values (elementwise for substitution sorts)."""
    rng = random.Random(seed)
    rep = SweepReport()
    rs = sigma.sigma_system(nm.sig)

    def values_equal(lhs, rhs, sort) -> bool:
        vl = eval_lterm(nm, lhs, phi)
        vr = eval_lterm(nm, rhs, phi)
        if isinstance(sort, sigma.TermSort):
            return nm.elem_eq(vl, vr, sort.n)
        return len(vl) == len(vr) and all(
            nm.elem_eq(a, b, sort.n) for a, b in zip(vl, vr))

    for rule in rs.rules:
        pairs = gen.sigma_rule_instances(rng, nm.sig, rule.name, instances_per_rule, size)
        for lhs, rhs in pairs:
            names = syntax.free_vars(lhs) | syntax.free_vars(rhs)
            phi = _random_phi(nm, sorted(names), rng)
            rep.checked += 1
            if not values_equal(lhs, rhs, sigma.sort_of(nm.sig, lhs)):
                rep.violations.append(
                    f"{rule.name}: {sigma.print_lterm(lhs)} vs {sigma.print_lterm(rhs)}")
    return rep


def denotation_transport_check(m: BindingModel, nm: SigmaModel, samples: int = 200,
                               seed: int = 0, size: int = 8) -> SweepReport:
    """Sampled check that a term and its translation denote the same value."""
    rng = random.Random(seed)
    rep = SweepReport()
    for _ in range(samples):
        t = gen.random_term(rng, m.sig, rng.randint(1, size))
        phi = _random_phi(nm, sorted(syntax.free_vars(t)), rng)
        rep.checked += 1
        va = eval_term(m, t, (), phi)
        vb = eval_lterm(nm, precook.precook(m.sig, t), phi)
        if not m.ifs.elem_eq(va, vb, 0):
            rep.violations.append(syntax.print_term(t))
    return rep


# ---------------------------------------------------------------------------
# Element formatting and model table files


def fmt_element(e) -> str:
    if isinstance(e, tuple) and e:
        if e[0] == "k":
            return f"k{e[1]}"
        if e[0] == "l":
            return f"l{e[1]}"
        if e[0] == "p":
            return f"{e[1]}_{e[2]}"
        if e[0] == "b":
            return f"{e[1]}b_{e[2]}"
        if e[0] == "fn":
            return f"fn{e[1]}:{''.join(map(str, e[2]))}"
    if isinstance(e, Computable):
        return f"<fun/{e.arity}>"
    return str(e)


def dump_model(m: BindingModel, levels: int) -> str:
    """Write the finite levels of a model as a table file (carriers, the
    box table, symbol and predicate tables)."""
    lines = [f"model {m.name}", f"levels {levels}"]
    carriers = {}
    for n in range(levels + 1):
        dom = m.ifs.carrier(n)
        if dom is None:
            raise InfiniteDomainExhaustionRequested("cannot dump a non-enumerable carrier")
        carriers[n] = tuple(dom)
        lines.append(f"carrier {n}: " + " ".join(fmt_element(e) for e in dom))
    for n in range(1, levels + 1):
        for i in range(1, n + 1):
            lines.append(f"proj {i} {n} = {fmt_element(m.ifs.proj(i, n))}")
    for n in range(0, levels + 1):
        for p in range(0, levels + 1):
            for a in carriers[n]:
                for bs in itertools.product(carriers[p], repeat=n):
                    r = m.ifs.box(a, bs, p)
                    lines.append(
                        f"box {p} | {fmt_element(a)} | "
                        f"{' '.join(fmt_element(b) for b in bs)} = {fmt_element(r)}")
    for f, arity in m.sig.functions.items():
        for p in range(0, levels + 1):
            if any(p + k > levels for k in arity):
                continue
            spaces = [carriers[p + k] for k in arity]
            for args in itertools.product(*spaces):
                r = m.fhat[f](p, args)
                lines.append(
                    f"fun {f} {p} | {' '.join(fmt_element(x) for x in args)} "
                    f"= {fmt_element(r)}")
    for P, arity in m.sig.predicates.items():
        spaces = [carriers[k] for k in arity]
        for args in itertools.product(*spaces):
            r = m.phat[P](args)
            lines.append(
                f"pred {P} | {' '.join(fmt_element(x) for x in args)} = {r}")
    return "\n".join(lines) + "\n"


def load_model(text: str, sig: Signature, name: str = "table-model") -> BindingModel:
    """Load a finite model from a table file; elements are their tags."""
    carriers: dict[int, tuple] = {}
    projs: dict[tuple[int, int], str] = {}
    boxes: dict[tuple, str] = {}
    funs: dict[tuple, str] = {}
    preds: dict[tuple, int] = {}
    for lineno, line in syntax.file_lines(text)[1]:
        line = line.strip()
        try:
            head, _, tail = line.partition(" ")
            if head in ("model", "levels"):
                if not tail.strip() or head == "levels" and int(tail) < 0:
                    raise ValueError("expected `model <name>` or `levels <n>`, n >= 0")
            elif head == "carrier":
                n_txt, _, elems = tail.partition(":")
                carriers[int(n_txt)] = tuple(elems.split())
            elif head == "proj":
                # split on the rightmost ` = `: names like `=` are legal tags
                lhs, _, r = tail.rpartition(" = ")
                i_txt, n_txt = lhs.split()
                projs[(int(i_txt), int(n_txt))] = r.strip()
            elif head == "box":
                body, _, r = tail.rpartition(" = ")
                p_txt, a_txt, bs_txt = (s.strip() for s in body.split("|"))
                boxes[(a_txt, tuple(bs_txt.split()), int(p_txt))] = r.strip()
            elif head == "fun":
                body, _, r = tail.rpartition(" = ")
                fp, args_txt = (s.strip() for s in body.split("|"))
                fname, p_txt = fp.split()
                funs[(fname, int(p_txt), tuple(args_txt.split()))] = r.strip()
            elif head == "pred":
                body, _, r = tail.rpartition(" = ")
                pn, args_txt = (s.strip() for s in body.split("|"))
                preds[(pn.strip(), tuple(args_txt.split()))] = int(r.strip())
            else:
                raise ValueError(f"unknown entry {head!r}")
        except (ValueError, KeyError) as e:
            raise ParseError(f"bad model line: {line!r} ({e})", line=lineno) from None

    def box(a, bs, p):
        key = (a, tuple(bs), p)
        if key not in boxes:
            raise BindLogError(f"model table has no box entry for {key}")
        return boxes[key]

    def proj(i, n):
        if (i, n) not in projs:
            raise BindLogError(f"model table has no projection {i}_{n}")
        return projs[(i, n)]

    ifs = IFS(
        carrier=lambda n: carriers.get(n),
        proj=proj,
        box=box,
        elem_eq=lambda a, b, n: a == b,
    )

    def fhat_for(f):
        def fh(p, args):
            key = (f, p, tuple(args))
            if key not in funs:
                raise BindLogError(f"model table has no entry for {key}")
            return funs[key]
        return fh

    def phat_for(P):
        def ph(args):
            key = (P, tuple(args))
            if key not in preds:
                raise BindLogError(f"model table has no entry for {key}")
            return preds[key]
        return ph

    return BindingModel(
        name=name,
        sig=sig,
        ifs=ifs,
        fhat={f: fhat_for(f) for f in sig.functions},
        phat={P: phat_for(P) for P in sig.predicates},
    )


def _fmt_tuple(xs) -> str:
    return "(" + ", ".join(fmt_element(x) for x in xs) + ")"
