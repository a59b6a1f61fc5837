"""The substitution rules written as rule text: each against the closure it
replaced, the text through the rule-file reader with its sort check, and
rule files whose symbols carry characters special to Python source."""

import random

import pytest

from bindlog import gen, sigma, syntax
from bindlog.errors import ParseError
from bindlog.sigma import Closure, Comp, Cons, Id, Index, Shift, normalize, sigma_system
from bindlog.syntax import Signature

from conftest import SIG, match_pattern

RS = sigma_system(SIG)


# The ten rules as the hand-written closures they were before the rule text.

def _ref_var_cons(t, _sig):
    if isinstance(t, Closure) and isinstance(t.t, Index) and t.t.i == 1 \
            and isinstance(t.s, Cons):
        return t.s.t
    return None


def _ref_clos_id(t, _sig):
    if isinstance(t, Closure) and isinstance(t.s, Id):
        return t.t
    return None


def _ref_clos_clos(t, _sig):
    if isinstance(t, Closure) and isinstance(t.t, Closure):
        return Closure(t.t.t, Comp(t.t.s, t.s))
    return None


def _ref_id_left(t, _sig):
    if isinstance(t, Comp) and isinstance(t.s1, Id):
        return t.s2
    return None


def _ref_shift_cons(t, _sig):
    if isinstance(t, Comp) and isinstance(t.s1, Shift) and isinstance(t.s2, Cons):
        return t.s2.s
    return None


def _ref_assoc(t, _sig):
    if isinstance(t, Comp) and isinstance(t.s1, Comp):
        return Comp(t.s1.s1, Comp(t.s1.s2, t.s2))
    return None


def _ref_map_env(t, _sig):
    if isinstance(t, Comp) and isinstance(t.s1, Cons):
        return Cons(Closure(t.s1.t, t.s2), Comp(t.s1.s, t.s2))
    return None


def _ref_id_right(t, _sig):
    if isinstance(t, Comp) and isinstance(t.s2, Id):
        return t.s1
    return None


def _ref_var_shift(t, _sig):
    if isinstance(t, Cons) and isinstance(t.t, Index) and t.t.i == 1 \
            and isinstance(t.s, Shift) and t.t.n == t.s.n + 1:
        return Id(t.s.n + 1)
    return None


def _ref_s_cons(t, _sig):
    if isinstance(t, Cons) and isinstance(t.t, Closure) \
            and isinstance(t.t.t, Index) and t.t.t.i == 1 \
            and isinstance(t.s, Comp) and isinstance(t.s.s1, Shift) \
            and t.s.s2 == t.t.s:
        return t.t.s
    return None


_REF_RULES = {
    "VarCons": _ref_var_cons, "Id": _ref_clos_id, "Clos": _ref_clos_clos,
    "IdL": _ref_id_left, "ShiftCons": _ref_shift_cons, "AssEnv": _ref_assoc,
    "MapEnv": _ref_map_env, "IdR": _ref_id_right, "VarShift": _ref_var_shift,
    "SCons": _ref_s_cons,
}


def _nodes(t):
    yield t
    for c in sigma._children(t):
        yield from _nodes(c)


def test_rule_text_fires_as_the_closures_did():
    rng = random.Random(0x51)
    nodes = [x for _ in range(3000)
             for x in _nodes(gen.random_lterm(rng, SIG, gen.random_sort(rng), 40))]
    fired = dict.fromkeys(_REF_RULES, 0)
    for name, ref in _REF_RULES.items():
        rule = RS.rule(name)
        instances = [x for pair in gen.sigma_rule_instances(rng, SIG, name, 200)
                     for x in _nodes(pair[0])]
        for x in nodes + instances:
            want = ref(x, SIG)
            assert rule.apply(x, SIG) == want, (name, x)
            fired[name] += want is not None
    assert min(fired.values()) >= 200, fired


def test_pattern_rule_instances_cover_every_shape():
    rng = random.Random(0x5A)
    for name, (rule, lhs) in sigma._SIGMA_PATTERNS.items():
        seen = set()
        for x, reduct in gen.sigma_rule_instances(rng, SIG, name, 2000):
            binds = {}
            assert match_pattern(lhs, x, binds), (name, x)
            assert rule.apply(x, SIG) is reduct is not None
            seen.add(frozenset((m, v if m[0] == "#" else sigma.sort_of(SIG, v))
                               for m, v in binds.items()))
        shapes = {frozenset(shape.items()) for shape in gen._shapes(name)}
        assert seen == shapes, name


def test_rule_text_loads_with_sort_check():
    for sig in (SIG, None):
        rs = sigma.load_rules(sigma.SIGMA_RULES, sig=sig, name="sigma")
        assert rs.layer == "lterm"
        assert rs.rules == RS.rules[1:-1]  # all but IndexExpand and FPush
    clos = sigma.load_rules("syntax lterm\nClos: ?t[?s][?u] -> ?t[?s o ?u]\n")
    assert clos.rules == (RS.rule("Clos"),)


@pytest.mark.parametrize("text", ["bad: ?t[id_?n] -> 1_?n", "bad: ?t[?s][?u] -> ?t[?u o ?s]",
                                  "bad: up_?n o (?t . ?s) -> ?t . ?s"])
def test_sort_check_rejects_sort_breakers(text):
    with pytest.raises(ParseError) as e:
        sigma.load_rules(f"syntax lterm\n\n{text}\n", sig=SIG)
    assert e.value.line == 3


def test_rule_text_is_not_spliced_into_generated_code():
    sig = Signature({"f'": (0,), "g'": (0,), "a": ()}, {})
    rs = sigma.load_rules("r1: f'(?x) -> g'(?x)\n", sig=sig)
    t = syntax.parse_term("f'(f'(a()))", sig)
    assert normalize(rs, t) == syntax.parse_term("g'(g'(a()))", sig)
    # the symbols reach the generated function as its globals, not as literals
    apply = rs.rules[0].apply
    assert {type(c) for c in apply.__code__.co_consts} <= {int, type(None)}
    assert {"f'", "g'", "x"} <= {v for v in apply.__globals__.values() if type(v) is str}
