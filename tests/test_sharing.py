"""One node per distinct formula of a proof file, and what identity may
short-cut: the per-file formula table of parse_proof_file, alpha_eq's answer
on one object reached under the same binders, and translate_proof's one
translation per formula node. Each is compared with a frozen copy of the
code it replaced, which keeps no table or memo (the `_ref_*` functions)."""

import contextlib
import gc
import itertools
import random
import re
import sys
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from bindlog import gen, precook, proofs, sigma, syntax
from bindlog.errors import InvalidSourceProof, ParseError
from bindlog.proofs import (
    Congruence,
    ProofTree,
    RuleApp,
    Sequent,
    check_binding_proof,
    check_modulo_proof,
    parse_proof_file,
    print_proof_file,
)
from bindlog.syntax import App, Atom, Forall, Imp, Slot, Var

from conftest import SIG
from proof_corpus import CORPUS_SIG, corpus
from test_proofs import (
    SAMPLE_SIGS,
    SAMPLES,
    _byte_mutant,
    _declares_lprop,
    _fuzz_bases,
    _mutants,
    _structural_mutant,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import proofgen  # noqa: E402

# the signature bench/setup_time.py gives proofgen's proofs
KERNEL_SIG = syntax.Signature(
    {"f": (0,), "g": (0, 0), "Λ": (1,), "δ": (0, 1, 1), "c": ()},
    {"=": (0, 0), "P": (0,), "Q": (), "R2": (0, 0)})


# ---------------------------------------------------------------------------
# frozen references: the code before formulas were shared


def _ref_alpha_eq(x, y) -> bool:
    def go(a, b, env_a: dict, env_b: dict, depth: int) -> bool:
        if type(a) is not type(b):
            return False
        n = syntax.NODE_TYPES[type(a)]
        if n.variable:
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
                    c.body, d.body, syntax._at_levels(env_a, c.binders, depth),
                    syntax._at_levels(env_b, d.binders, depth), depth + len(c.binders)):
                return False
        return True

    return go(x, y, {}, {}, 0)


def _ref_tokenize(text: str, token_re) -> list[tuple[str, str, int]]:
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
                kind = "kw" if val in syntax._KEYWORDS else "name"
            tokens.append((kind, val, pos))
        pos = m.end()
    tokens.append(("eof", "", pos))
    return tokens


class _RefParser(syntax.Parser):
    """The grammar over the whole line's tokens, made up front by the frozen
    tokenizer, with no formula table."""

    def __init__(self, text: str, sig=None):
        self.text, self.sig = text, sig
        self.tokens, self.pos = _ref_tokenize(text, self.token_re), 0


class _RefLParser(_RefParser, sigma.LParser):
    pass


def _ref_parse_proof_file(text: str, sig=None) -> ProofTree:
    layer, lines = syntax.file_lines(text, proofs._LAYERS)
    entries = []
    for lineno, line in lines:
        indent = len(line) - len(line.lstrip())
        if indent % 2 != 0:
            raise ParseError("indentation must be two spaces per level", line=lineno)
        entries.append((indent // 2, line.strip(), lineno))
    if not entries:
        raise ParseError("empty proof file")

    def parse_line(content: str, lineno: int):
        m = re.match(r"rule\s+(\S+)\s*(.*)$", content)
        if not m:
            raise ParseError(f"expected `rule <name> ...`: {content!r}", line=lineno)
        rname, rest = m.group(1), m.group(2)
        if rname not in proofs._RULE_BY_NAME:
            raise ParseError(f"unknown rule {rname!r}", line=lineno)
        with syntax.at_line(lineno):
            p = _RefLParser(rest) if layer == "lprop" else _RefParser(rest, sig)
            params = p.params()
            p.expect("turnstile")
            left = [] if p.peek()[0] == "turnstile" else [p.prop()]
            while left and p.peek()[0] == "comma":
                p.next()
                left.append(p.prop())
            p.expect("turnstile")
            right = [] if p.peek()[0] == "eof" else [p.prop()]
            while right and p.peek()[0] == "comma":
                p.next()
                right.append(p.prop())
            p.done()
        return Sequent(tuple(left), tuple(right)), RuleApp(
            proofs._RULE_BY_NAME[rname], params.get("at"), params.get("x"), params.get("A"),
            params.get("t"))

    def build(idx: int, depth: int):
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


def _ref_translate_proof(sig, p: ProofTree) -> ProofTree:
    res = proofs.check_binding_proof(sig, p)
    if not res.ok:
        raise InvalidSourceProof(str(res))

    def go(node):
        concl = Sequent(tuple(precook.precook_prop(sig, a) for a in node.conclusion.left),
                        tuple(precook.precook_prop(sig, b) for b in node.conclusion.right))
        app = node.rule
        x = a = t = None
        if app.rule in proofs.QUANTIFIER_RULES:
            x, qa = proofs.principal_quantifier_parts(node)
            a = precook.precook_prop(sig, qa)
            if proofs.RULES[app.rule].witness:
                t = precook.precook(sig, app.t)
        return ProofTree(concl, RuleApp(app.rule, principal=app.principal, x=x, a=a, t=t),
                         tuple(go(q) for q in node.premises))

    return go(p)


@contextlib.contextmanager
def _reference_alpha():
    """The checkers, comparing by the frozen alpha_eq meanwhile."""
    with mock.patch.object(syntax, "alpha_eq", _ref_alpha_eq):
        yield


def _outcome(run):
    try:
        r = run()
    except Exception as e:
        return ("raised", type(e).__name__, str(e))
    if isinstance(r, ProofTree):
        return r
    return (r.ok, r.kind, r.path, r.message)


# ---------------------------------------------------------------------------
# proof texts: samples, corpus (plain and translated), their fuzzed mutants,
# printed mutant trees and generated proofs


def _formulas(tree):
    for node in _nodes(tree):
        yield from node.conclusion.left
        yield from node.conclusion.right


def _nodes(tree):
    yield tree
    for q in tree.premises:
        yield from _nodes(q)


def _generated_texts(rng, count):
    """bench/proofgen's valid proofs and mutants over KERNEL_SIG."""
    texts = []
    for _ in range(count):
        valid = [proofgen.identity(gen.random_prop(rng, KERNEL_SIG, rng.randint(3, 9))),
                 proofgen.instantiation(
                     "x", proofgen.instantiation_body(rng, gen, KERNEL_SIG),
                     proofgen.binder_heavy_witness(rng, gen, KERNEL_SIG, rng.randint(1, 4)))]
        texts += [proofgen.to_text(p) for p in valid]
        texts.append(proofgen.to_text(proofgen.mutate(rng, valid[1], "witness")))
        kind = rng.choice(["leaf", "rule", "at"])
        source = valid[1] if kind == "at" else rng.choice(valid)  # an axiom has no `at`
        texts.append(proofgen.to_text(proofgen.mutate(rng, source, kind)))
    return texts


def _texts(seed: int):
    """(text, signature, term-layer congruence factory) triples."""
    rng = random.Random(seed)
    out = []
    for stem, sig_stem in SAMPLE_SIGS.items():
        sig = syntax.parse_signature((SAMPLES / f"{sig_stem}.sig").read_text())
        rules = (SAMPLES / "arith.rw").read_text()
        make = (lambda sig=sig: Congruence(sigma.load_rules(rules, sig=sig))) \
            if sig_stem == "arith" else Congruence
        out.append(((SAMPLES / f"{stem}.prf").read_text(), sig, make))
    for _, proof in corpus():
        for m in _mutants(rng, proof, 6):
            out.append((print_proof_file(m), CORPUS_SIG, Congruence))
        translated = precook.translate_proof(CORPUS_SIG, proof)
        for m in _mutants(rng, translated, 4, lterm=True):
            out.append((print_proof_file(m, layer="lprop"), CORPUS_SIG, Congruence))
    bases = _fuzz_bases()
    for _ in range(400):
        text, sig, _ = rng.choice(bases)
        for _ in range(rng.choice([1, 1, 2, 3])):
            text = (_byte_mutant if rng.random() < 0.5 else _structural_mutant)(rng, text)
        out.append((text, sig, Congruence))
    out += [(text, KERNEL_SIG, Congruence) for text in _generated_texts(rng, 30)]
    return out


# ---------------------------------------------------------------------------
# the formula table


def test_equal_formula_texts_in_one_file_are_one_node():
    texts = [(SAMPLES / "equality_compat.prf").read_text()]
    for _, proof in corpus():
        texts.append(print_proof_file(proof))
        texts.append(print_proof_file(precook.translate_proof(CORPUS_SIG, proof), layer="lprop"))
    shared = 0
    for text in texts:
        by_text: dict[str, set[int]] = {}
        tree = parse_proof_file(text, CORPUS_SIG)
        for a in _formulas(tree):
            by_text.setdefault(syntax.show(a), set()).add(id(a))
        assert all(len(ids) == 1 for ids in by_text.values()), text
        shared += sum(1 for _ in _formulas(tree)) - len(by_text)
    assert shared > 100


def test_formula_table_lives_for_one_call():
    text = (SAMPLES / "equality_compat.prf").read_text()
    sig = syntax.parse_signature((SAMPLES / "lambda.sig").read_text())
    first, second = parse_proof_file(text, sig), parse_proof_file(text, sig)
    assert first == second
    # nodes are interned: the second parse returns the first one's formulas,
    # and neither the formula table nor the intern tables keep them alive
    assert all(a is b for a, b in zip(_formulas(first), _formulas(second), strict=True))
    refs = [weakref.ref(a) for a in _formulas(first)]
    del first, second
    gc.collect()
    assert all(r() is None for r in refs)


def test_formula_table_skips_what_a_parse_does_not_end_at_its_extent():
    # the text `Q)` runs to the turnstile, its parse stops at `)`
    table: dict = {}
    for text in ("|- Q) |- Q", "|- R2(x, y |- Q"):
        with pytest.raises(ParseError):
            proofs._read_line(syntax.Parser, text, CORPUS_SIG, table)
        assert table == {}
    with pytest.raises(ParseError):
        proofs._read_line(syntax.Parser, "|- Q, Q) |- Q", CORPUS_SIG, table)
    assert table == {"Q": Atom("Q", ())}
    for text in ("rule axiom |- Q) |- Q", "rule axiom |- P(x |- P(x"):
        new = _outcome(lambda: parse_proof_file(text, CORPUS_SIG))
        assert new == _outcome(lambda: _ref_parse_proof_file(text, CORPUS_SIG))
        assert new[0] == "raised"
    table.clear()
    _, left, right = proofs._read_line(syntax.Parser, "|- Q, R2(x, y), (Q) |- Q", CORPUS_SIG,
                                       table)
    assert set(table) == {"Q", "R2(x, y)", "(Q)"} and right[0] is left[0]


def test_proof_files_parse_as_the_reference_line_parser():
    outcomes = {"tree": 0, "error": 0}
    for text, sig, _ in _texts(0x5A4E):
        new = _outcome(lambda: parse_proof_file(text, sig))
        ref = _outcome(lambda: _ref_parse_proof_file(text, sig))
        assert new == ref, text
        outcomes["tree" if isinstance(new, ProofTree) else "error"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_checkers_give_the_reference_results_on_shared_trees():
    sigma_cong = lambda: Congruence(sigma.sigma_system(CORPUS_SIG))  # noqa: E731
    counts = {"ok": 0, "rejected": 0, "translated": 0}
    for text, sig, make_cong in _texts(0xC4EC):
        try:
            tree = parse_proof_file(text, sig)
        except ParseError:
            continue
        ref_tree = _ref_parse_proof_file(text, sig)
        cong = sigma_cong if _declares_lprop(text) else make_cong

        def results(tree, translate):
            return [_outcome(lambda: check_binding_proof(sig, tree)),
                    _outcome(lambda: check_modulo_proof(sig, cong(), tree)),
                    _outcome(lambda: translate(sig, tree))]

        new = results(tree, precook.translate_proof)
        with _reference_alpha():
            ref = results(ref_tree, _ref_translate_proof)
        assert new == ref, text
        translated, ref_translated = new[2], ref[2]
        counts["ok" if new[0][0] is True else "rejected"] += 1
        if isinstance(translated, ProofTree):
            counts["translated"] += 1
            rs = sigma.sigma_system(sig)
            got = _outcome(lambda: check_modulo_proof(sig, Congruence(rs), translated))
            with _reference_alpha():
                want = _outcome(lambda: check_modulo_proof(sig, Congruence(rs), ref_translated))
            assert got == want, text
    assert min(counts.values()) > 30, counts


def test_translate_proof_translates_each_formula_node_once():
    sig = syntax.parse_signature((SAMPLES / "lambda.sig").read_text())
    tree = parse_proof_file((SAMPLES / "equality_compat.prf").read_text(), sig)
    calls = []
    real = precook.precook_prop
    with mock.patch.object(precook, "precook_prop",
                           lambda s, a: calls.append(id(a)) or real(s, a)):
        out = precook.translate_proof(sig, tree)
    assert len(calls) == len(set(calls))
    assert out == _ref_translate_proof(sig, tree)
    by_text: dict[str, set[int]] = {}
    for a in _formulas(out):
        by_text.setdefault(syntax.show(a), set()).add(id(a))
    assert all(len(ids) == 1 for ids in by_text.values())


# ---------------------------------------------------------------------------
# alpha_eq on shared nodes


def _wrap(rng, body, names):
    """body under a random stack of quantifiers and one- or two-binder slots
    over the names, each layer drawn afresh."""
    for _ in range(rng.randint(0, 3)):
        k = rng.randrange(4)
        if k == 0:
            body = Forall(rng.choice(names), body)
        elif k == 1:
            body = App("Λ", (Slot((rng.choice(names),), body),))
        elif k == 2:
            body = App("δ", (Slot((), Var(rng.choice(names))),
                             Slot(tuple(rng.sample(names, 2)), body)))
        else:
            body = Imp(Atom("Q", ()), body)
    return body


def _as_prop(t):
    return t if isinstance(t, syntax.Prop) else Atom("P", (Slot((), t),))


def test_alpha_eq_matches_reference_on_shared_pairs():
    rng = random.Random(0xA1FA)
    names = ["x", "y", "z"]
    verdicts = {True: 0, False: 0}
    for _ in range(3000):
        core = rng.choice([gen.random_term(rng, SIG, rng.randint(1, 5), free=tuple(names)),
                           gen.random_prop(rng, SIG, rng.randint(1, 5))])
        a, b = _wrap(rng, core, names), _wrap(rng, core, names)
        if rng.random() < 0.5:  # props on both sides, so either may be quantified
            a, b = _as_prop(a), _as_prop(b)
        pairs = [(a, b), (a, a), (core, core), (a, _wrap(rng, a, names))]
        pairs.append((syntax.substitute({}, a), a))  # an unshared copy, renamed
        for x, y in pairs:
            got = syntax.alpha_eq(x, y)
            assert got == _ref_alpha_eq(x, y) == _ref_alpha_eq(y, x) == syntax.alpha_eq(y, x)
            verdicts[got] += 1
    assert min(verdicts.values()) > 1000, verdicts


def test_shared_body_under_swapped_or_shadowing_binders_stays_unequal():
    body = syntax.parse_prop("R2(x, y)", CORPUS_SIG)
    term = syntax.parse_term("f(x)", CORPUS_SIG)
    inner = App("Λ", (Slot(("y",), term),))
    pairs = [
        (Forall("x", Forall("y", body)), Forall("y", Forall("x", body))),
        (Forall("x", Forall("x", body)), Forall("y", Forall("x", body))),
        (Forall("y", Forall("x", body)), Forall("x", Forall("x", body))),
        (App("δ", (Slot((), term), Slot(("x", "y"), term))),
         App("δ", (Slot((), term), Slot(("y", "x"), term)))),
        (App("Λ", (Slot(("x",), inner),)), App("Λ", (Slot(("y",), inner),))),
    ]
    for s, t in pairs:
        assert not syntax.alpha_eq(s, t) and not syntax.alpha_eq(t, s)
        assert not _ref_alpha_eq(s, t)
    # the same pairs with a body that ignores the binders are equal
    closed = syntax.parse_prop("Q", CORPUS_SIG)
    assert syntax.alpha_eq(Forall("x", Forall("y", closed)), Forall("y", Forall("x", closed)))


def test_alpha_eq_l_matches_reference_on_shared_translations():
    rng = random.Random(0x1A1F)
    checked = 0
    for _ in range(300):
        core = precook.precook_prop(SIG, gen.random_prop(rng, SIG, rng.randint(1, 6)))
        for a, b in itertools.product([core, Forall("x", core), Forall("y", core)], repeat=2):
            assert syntax.alpha_eq(a, b) == _ref_alpha_eq(a, b)
            checked += 1
    assert checked == 2700


# ---------------------------------------------------------------------------
# the table tested on the source text, before it is tokenized

_EDGE_CASES = [
    # one formula spelled with different whitespace
    "rule axiom |- P(x) |- P( x )",
    "rule weak-left [at=1] |- P(x), P( x ) |- P(x)\n  rule axiom |- P(x) |- P(x)",
    "rule axiom |-P(x)|-P(x)",
    "rule axiom |- \tP(x)\t |-  P(x)  ",
    # a known key followed by junk
    "rule axiom |- P(x) |- P(x)Q",
    "rule axiom |- P(x), P(x) ) |- P(x)",
    "rule axiom |- P(x) |- P(x) )",
    "rule axiom |- Q, Q2 |- Q",
    "rule axiom |- Q |- Q2",
    "rule axiom |- Q |- Q 2",
    "rule axiom |- Q |- Q => Q",
    "rule axiom |- Q |- Q, Q |- Q",
    # keys that contain commas
    "rule axiom |- R2(x, y), R2(x,y) |- R2(x, y)",
    "rule weak-left [at=0] |- R2(x, y), R2(x, y) => Q |- R2(x, y) => Q",
    "rule axiom |- R2(x, y) |- R2(x, y), R2(x, y",
    "rule axiom |- R2(x, y) |- R2(x, y)), Q",
    "rule axiom |- R2(x, g(y, z)) |- R2(x, g(y, z))",
    # empty sides
    "rule axiom |- |-",
    "rule axiom |-  |- P(x)",
    "rule axiom |- P(x) |-",
    "rule axiom |- P(x) |- \n  rule axiom |- P(x) |- P(x)",
    "rule axiom |- , |- P(x)",
    "rule axiom |- P(x) |- ,",
    # `syntax lprop` keys with brackets and cons
    "syntax lprop\nrule axiom |- P(1_1[t . id_0]), P(1_1[t . id_0]) |- P(1_1[t . id_0])",
    "syntax lprop\nrule axiom |- =(1_1[f_0(x, y) . id_0], x) |- =(1_1[f_0(x, y) . id_0], x)",
    "syntax lprop\nrule axiom |- P(1_1[t . id_0]) |- P(1_1[t . id_0])[id_0]",
    "syntax lprop\nrule axiom |- P(1_1[t . id_0]) |- P(1_1[t . id_0] . id_0)",
    "syntax lprop\nrule axiom |- P(x[up_0 o up_1]) |- P(x[up_0 o up_1]), P(x[up_0  o up_1])",
    "syntax lprop\nrule axiom |- P(1_1[t . id_0]) |- P(1_1[t . id_0]) #",
]


# an unexpected character after an earlier syntax error on the same line,
# and the character each line must report
_STRAY_CHARACTERS = {
    "rule axiom |- P(x)) |- P(x) !": "!",
    "rule axiom |- P(x) |- P(x), , Q ?": "?",
    "rule axiom |- P(x), ( |- P(x) @": "@",
    "rule axiom [at=x] |- Q |- Q $": "$",
    "rule axiom |- P(x |- P(x) '": "'",
    "rule axiom |- P(x) |- P(x)\n  rule axiom |- R2(x, y)) |- R2(x, y) ?x !": "!",
}


def test_formula_table_edge_cases_read_as_the_reference():
    for text, char in _STRAY_CHARACTERS.items():
        line = text.count("\n") + 1
        assert _outcome(lambda: parse_proof_file(text, CORPUS_SIG)) == (
            "raised", "ParseError", f"unexpected character {char!r} (line {line})"), text
    outcomes = Counter()
    for text in (*_EDGE_CASES, *_STRAY_CHARACTERS):
        new = _outcome(lambda: parse_proof_file(text, CORPUS_SIG))
        assert new == _outcome(lambda: _ref_parse_proof_file(text, CORPUS_SIG)), text
        outcomes[isinstance(new, ProofTree)] += 1
    assert min(outcomes.values()) > 8, outcomes


def test_a_formula_text_met_before_is_not_tokenized_again():
    """The texts tokenized while reading proofgen's identity and
    instantiation proofs are each distinct formula text of the file once, in
    the order met, and text before a line's first turnstile: the rule's
    parameter block. So no tokenized text covers a formula whose text came
    earlier in the file, and their characters come to no more than the
    file's distinct formula text, its rule heads and its parameter blocks."""
    rng = random.Random(0x70C)
    read = []  # each text handed to the tokenizer
    real = syntax.tokenize

    def reading(text, token_re=syntax._TOKEN_RE):
        read.append(text)
        return real(text, token_re)

    tokenized = skipped = 0
    for _ in range(40):
        proofs_ = [proofgen.identity(gen.random_prop(rng, KERNEL_SIG, rng.randint(4, 10))),
                   proofgen.instantiation(
                       "x", proofgen.instantiation_body(rng, gen, KERNEL_SIG),
                       proofgen.binder_heavy_witness(rng, gen, KERNEL_SIG, rng.randint(1, 4)))]
        for proof in proofs_:
            text = proofgen.to_text(proof)
            read.clear()
            with mock.patch.object(syntax, "tokenize", reading):
                tree = parse_proof_file(text, KERNEL_SIG)
            lines = [ln.strip() for ln in text.splitlines()]
            heads = [line[:line.find("|-")] for line in lines]
            met: list[str] = []  # distinct formula texts in the order met
            allowed = sum(map(len, heads))  # the rule heads and parameter blocks
            for node in _nodes(tree):
                for a in (*node.conclusion.left, *node.conclusion.right):
                    formula = syntax.show(a)
                    if formula in met:
                        skipped += 1
                    else:
                        met.append(formula)
                        allowed += len(formula)
            formulas_read = [t for t in read if t in met]
            assert formulas_read == met, text
            assert all(any(t in head for head in heads) for t in read if t not in met), text
            count = sum(map(len, read))
            assert count <= allowed, text
            tokenized += count
    assert skipped > 1000 and tokenized > 10_000, (skipped, tokenized)
