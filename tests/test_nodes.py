"""The node classes of both layers, as syntax.node_class makes them: the
dataclass contract, and equality and hashing of the named layer at any
depth, with the values a frozen dataclass gives."""

import copy
import dataclasses
import pickle
import random

import pytest

from bindlog import gen, syntax
from bindlog.sigma import (
    Closure,
    Comp,
    Cons,
    FApp,
    FreeVar,
    Id,
    Index,
    MetaT,
    Shift,
    SubstSort,
    TermSort,
)
from bindlog.syntax import And, App, Atom, Bottom, Exists, Forall, Imp, Or, Slot, Var

from conftest import SIG

_X = FreeVar("x")

# one instance of every class node_class makes, with its fields in order
INSTANCES = {
    Var: (Var("x"), ("name",)),
    Slot: (Slot(("x",), App("f", (Slot((), Var("x")),))), ("binders", "body")),
    App: (App("g", (Slot((), Var("x")), Slot((), App("c", ())))), ("symbol", "args")),
    Atom: (Atom("P", (Slot((), Var("y")),)), ("pred", "args")),
    Imp: (Imp(Atom("Q", ()), Bottom()), ("a", "b")),
    And: (And(Atom("Q", ()), Atom("Q", ())), ("a", "b")),
    Or: (Or(Bottom(), Atom("Q", ())), ("a", "b")),
    Bottom: (Bottom(), ()),
    Forall: (Forall("x", Atom("P", (Slot((), Var("x")),))), ("var", "body")),
    Exists: (Exists("y", Bottom()), ("var", "body")),
    TermSort: (TermSort(2), ("n",)),
    SubstSort: (SubstSort(1, 2), ("n", "p")),
    Index: (Index(1, 2), ("i", "n")),
    FreeVar: (_X, ("name",)),
    FApp: (FApp("f", 0, (_X,)), ("f", "p", "args")),
    Closure: (Closure(_X, Id(0)), ("t", "s")),
    Id: (Id(3), ("n",)),
    Cons: (Cons(_X, Id(0)), ("t", "s")),
    Shift: (Shift(1), ("n",)),
    Comp: (Comp(Shift(0), Id(1)), ("s1", "s2")),
    MetaT: (MetaT("t"), ("name",)),
}
INTERNED = {TermSort, SubstSort, Index, FreeVar, FApp, Closure, Id, Cons, Shift, Comp, MetaT}


def _made_classes() -> set:
    found, todo = set(), [syntax.Node]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if "__match_args__" in vars(sub) and "__slots__" in vars(sub):
                found.add(sub)  # not the class a slotted dataclass replaced
    return found


def test_every_made_class_is_listed():
    assert _made_classes() == set(INSTANCES)
    assert set(syntax.NODE_TYPES) < set(INSTANCES)


def _same(x, y) -> bool:
    """y stands for x: the same node where classes intern, else an equal one."""
    return y is x if type(x) in INTERNED else type(y) is type(x) and y == x


@pytest.mark.parametrize("cls", INSTANCES, ids=lambda c: c.__name__)
def test_node_class_contract(cls):
    x, fields = INSTANCES[cls]
    assert type(x) is cls and cls.__match_args__ == fields
    assert [f.name for f in dataclasses.fields(cls)] == list(fields)
    for f in (*fields, "_hash", "_sort", "other"):  # the caches' slots too, and no slot
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, f, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, f)
    assert all(_same(x, y) for y in (copy.copy(x), copy.deepcopy(x),
                                     pickle.loads(pickle.dumps(x)), dataclasses.replace(x)))
    for f in fields[:1]:  # a changed field is the one changed
        v = getattr(x, f)
        other = {str: "z", int: 1 if v != 1 else 2, tuple: ()}.get(type(v), Atom("R", ()))
        y = dataclasses.replace(x, **{f: other})
        assert type(y) is cls and getattr(y, f) == other and y != x
        assert all(getattr(y, g) is getattr(x, g) for g in fields[1:])
    assert repr(x) == syntax.show_repr(x)
    match len(fields), x:  # positional patterns read __match_args__
        case 0, cls():
            values = ()
        case 1, cls(a):
            values = (a,)
        case 2, cls(a, b):
            values = (a, b)
        case 3, cls(a, b, c):
            values = (a, b, c)
    assert values == tuple(getattr(x, f) for f in fields)


def test_reprs():
    assert repr(Var("x")) == "<Var x>" and repr(_X) == "<FreeVar x>"
    assert repr(Slot((), Var("x"))) == "<Slot x>"
    assert repr(TermSort(2)) == "<TermSort 2>" and str(SubstSort(1, 2)) == "<1,2>"
    assert repr(MetaT("t")) == "<MetaT ?t>"


def test_layers_and_classes_stay_apart():
    assert Var("x") != FreeVar("x") and FreeVar("x") != Var("x")
    assert hash(Var("x")) == hash(("x",))  # a dataclass's hash: its field tuple's
    assert Imp(Bottom(), Bottom()) != And(Bottom(), Bottom())
    assert Forall("x", Bottom()) != Exists("x", Bottom())
    assert Slot((), Var("x")) != Var("x") and Var("x") != "x"
    assert Var("x").__eq__("x") is NotImplemented
    assert Closure.__eq__ is object.__eq__ and Closure.__hash__ is object.__hash__


def _chain(depth: int, leaf):
    t = leaf
    for _ in range(depth):
        t = App("f", (Slot((), t),))
    return t


def test_named_eq_and_hash_take_deep_input():
    # the dataclass-generated __eq__ and __hash__ raised RecursionError from
    # depth 500 on
    a, b, c = _chain(10_000, Var("x")), _chain(10_000, Var("x")), _chain(10_000, Var("y"))
    assert a == b and not a != b
    assert a != c and not a == c
    assert hash(a) == hash(b) and hash(a) != hash(c)
    table = {a: 1, c: 2}
    assert table[b] == 1 and len({a, b, c}) == 2
    deep = Forall("y", Atom("P", (Slot(("z",), a),)))
    assert deep == Forall("y", Atom("P", (Slot(("z",), b),)))
    assert deep != Forall("y", Atom("P", (Slot(("w",), b),)))
    props = []
    for _ in range(2):
        p = Bottom()
        for i in range(10_000):
            p = (Imp, And, Or)[i % 3](p, Atom("Q", ())) if i % 2 else Exists("x", p)
        props.append(p)
    assert props[0] == props[1] and hash(props[0]) == hash(props[1])
    assert props[0] != Exists("y", props[1].a) and props[0] != Exists("x", props[1].a)


# ---------------------------------------------------------------------------
# The values a frozen dataclass gives


_MIRRORS: dict = {}


def _mirror(x):
    """x with each named node made a frozen dataclass of its class's name
    and fields: what the named layer's classes were."""
    if type(x) is tuple:
        return tuple(map(_mirror, x))
    if not isinstance(x, syntax._ByValue):
        return x
    cls = type(x)
    if cls not in _MIRRORS:
        _MIRRORS[cls] = dataclasses.make_dataclass(cls.__name__, cls.__match_args__, frozen=True)
    return _MIRRORS[cls](*[_mirror(getattr(x, f)) for f in cls.__match_args__])


def _draws(seed: int, n: int) -> list:
    rng = random.Random(seed)
    small = syntax.Signature({"f": (0,), "g": (0, 1), "c": ()}, {"P": (0,), "Q": ()})
    lsig = syntax.Signature({"f": (0,), "a": ()}, {"P": (0,)})
    out = []
    for _ in range(n):
        kind = rng.randrange(4)
        size = rng.randint(1, 8)
        if kind == 0:
            out.append(gen.random_term(rng, small, size, free=("x", "y")))
        elif kind == 1:
            out.append(gen.random_prop(rng, small, size, free=("x", "y")))
        elif kind == 2:
            out.append(gen.random_prop(rng, SIG, size))
        else:  # a proposition over the sorted layer, whose bodies are interned
            t = gen.random_lterm(rng, lsig, TermSort(0), size, free=("x", "y"))
            out.append(syntax.Atom("P", (Slot((), t),)))
    return out


def test_named_eq_and_hash_match_the_dataclass_values():
    for seed in range(40):
        xs, ys = _draws(seed, 25), _draws(seed, 25) + _draws(seed + 1000, 25)
        for x in xs:
            assert hash(x) == hash(_mirror(x))
        equal = 0
        for x in xs:
            for y in ys:
                want = _mirror(x) == _mirror(y)
                assert (x == y) is want and (x != y) is (not want), (x, y)
                equal += want
        assert equal >= len(xs)  # each x equals its twin drawn from the same seed
