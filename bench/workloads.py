"""The benchmark's three workloads.

Each workload builds one round of jobs from (seed, round number) before the
round is timed; the kernel only receives the generated inputs. Sizes are
fixed per workload so rounds cost the same; the seed draws symbols, names,
terms, formulas and job order within those sizes. Every job carries the
known answer it is checked against (see oracles.py and proofgen.py).

- rewrite-deep: few large normalizations, where the substitution system
  does almost all the work. Per-step cost grows with term depth and the
  innermost strategy re-normalizes, so hash-consing, normal-form memos and
  rule indexing act here at full strength, on the sorted layer and on
  named-term user rules.
- kernel-mixed: thousands of small jobs through the whole pipeline. The
  bypass case for rewrite-deep: per-call overhead an optimization adds
  shows here, and so do parser, alpha and checker costs.
- model-sweep: the models layer does almost all the work, on finite tabled
  carriers (exhaustive) and on computable probe-compared ones (sampled), so
  a table encoding that helps one and slows the other shows.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random

import oracles
import proofgen
from harness import Job
from setup_time import DEPTH_BINDERS, DEPTH_PAIRS
from bindlog.syntax import App, Atom, Forall, Slot, Var, print_prop, print_term
from bindlog.sigma import Closure, Comp, Cons, FApp, Id, Index, Shift

# ---------------------------------------------------------------------------
# rewrite-deep

DEPTHS = {"innermost": (8, 16, 24, 32), "outermost": (8, 16, 32, 64)}
PRODUCTS = ((3, 10), (10, 3), (6, 7), (7, 6), (10, 10), (4, 9), (9, 5), (8, 8))
STRATEGIES = (("innermost", "outermost"), ("outermost", "innermost"))


def _late(module, name: str, *args, **kwargs):
    """A call of module.name looked up when the job runs, so a tracer
    installed after the round was built sees it."""
    return functools.partial(_invoke, module, name, *args, **kwargs)


def _invoke(module, name, *args, **kwargs):
    return getattr(module, name)(*args, **kwargs)


def depth_nest(spine):
    """The named nest b1(z. p1(b2(z. p2(... x ..., z)), z)) over a free x."""
    t = Var("x")
    for binder, pair in reversed(spine):
        t = App(binder, (Slot(("z",), App(pair, (Slot((), t), Slot((), Var("z"))))),))
    return t


def _shifts(base: int, count: int):
    return Shift(base) if count == 1 else Comp(Shift(base), _shifts(base + 1, count - 1))


def depth_closure(spine):
    """The nest translated with x bound outermost, closed with f(a) . id_0,
    built directly on the sorted layer."""
    n = len(spine) + 1  # binders above x: the spine and x itself
    t = Index(1, 1) if n == 1 else Closure(Index(1, 1), _shifts(1, n - 1))
    for level in range(len(spine), 0, -1):
        binder, pair = spine[level - 1]
        t = FApp(binder, level, (FApp(pair, level + 1, (t, Index(1, level + 1))),))
    return Closure(t, Cons(FApp("f", 0, (FApp("a", 0, ()),)), Id(0)))


def _depth_reference(k, spine):
    """Substitute-then-translate: the normal form every strategy must reach."""
    witness = App("f", (Slot((), App("a", ())),))
    return k.precook.precook(k.depth_sig, oracles.replace_free(depth_nest(spine), "x", witness))


def _sum_numeral(rng, n: int):
    i = rng.randint(0, n)
    return App("+", (Slot((), oracles.numeral(i)), Slot((), oracles.numeral(n - i))))


def rewrite_deep(k, seed: int, r: int) -> list[Job]:
    rng = random.Random(f"rewrite-deep:{seed}:{r}")
    jobs = []
    for d in sorted(set(DEPTHS["innermost"]) | set(DEPTHS["outermost"])):
        spine = tuple((rng.choice(DEPTH_BINDERS), rng.choice(DEPTH_PAIRS)) for _ in range(d))
        closed = depth_closure(spine)
        expected = functools.partial(_depth_reference, k, spine)
        text = " ".join(b + p for b, p in spine)
        for strategy, other in STRATEGIES:
            if d in DEPTHS[strategy]:
                jobs.append(Job(
                    f"{strategy}-d{d}", text,
                    _late(k.sigma, "normalize", k.depth_rs, closed, strategy=strategy),
                    functools.partial(_check_nf, expected, f"{other}-d{d}")))
    for a, b in PRODUCTS:
        term = App("*", (Slot((), _sum_numeral(rng, a)), Slot((), _sum_numeral(rng, b))))
        for strategy, other in STRATEGIES:
            jobs.append(Job(
                f"product-{a}x{b}-{strategy}", print_term(term),
                _late(k.sigma, "normalize", k.arith_rs, term, strategy=strategy),
                functools.partial(_check_nf, functools.partial(oracles.numeral, a * b),
                                  f"product-{a}x{b}-{other}")))
    rng.shuffle(jobs)
    return jobs


def _check_nf(expected, twin: str, out, outputs) -> str | None:
    want = expected()
    if out != want:
        return f"normal form differs from the reference ({oracles.node_count(out)} nodes " \
               f"vs {oracles.node_count(want)})"
    if twin in outputs and outputs[twin] != out:
        return "the two strategies disagree"
    return None


# ---------------------------------------------------------------------------
# kernel-mixed

ROUND_TRIPS = 40
COMMUTATIONS = 10
IDENTITY_PROOFS = 8
INSTANTIATION_PROOFS = 6
MUTANTS = ("leaf", "leaf", "rule", "rule", "witness", "witness", "at", "at")
ARITH_PROOFS = 3
PROBE_SAMPLES = 12


def _ext_size(n: int) -> int:
    """Elements at level n of the ext model: k, l, n projections, n twins."""
    return 2 * n + 2


def _fullfn_size(n: int) -> int:
    """Functions {0,1}^n -> {0,1}."""
    return 2 ** (2 ** n)


def _expect(value, out, outputs) -> str | None:
    return None if out == value else f"got {out!r}, expected {value!r}"


def _round_trip(k, t_text, u_text):
    sig, syn, pc = k.kernel_sig, k.syntax, k.precook
    t = syn.parse_term(t_text, sig)
    u = syn.parse_term(u_text, sig)
    wf = syn.well_formed(sig, t).ok and syn.well_formed(sig, u).ok
    s = syn.substitute({"x": u}, t)
    lhs = pc.precook(sig, s)
    rhs = k.sigma.graft_l({"x": pc.precook(sig, u)}, pc.precook(sig, t))
    nf = k.sigma.normalize(k.kernel_rs, rhs)
    back = pc.uncook(sig, nf)
    return wf, s, lhs, nf, back, syn.alpha_eq(back, s)


def _check_round_trip(t, u, out, outputs) -> str | None:
    wf, s, lhs, nf, back, same = out
    want = oracles.nameless(oracles.replace_free(t, "x", u))
    if not wf:
        return "generated term judged ill-formed"
    if oracles.nameless(s) != want:
        return "substitution differs from the reference"
    if nf != lhs:
        return "normal form of translate-then-substitute differs from substitute-then-translate"
    if oracles.nameless(back) != want:
        return "uncook does not return the substituted term"
    if not same:
        return "alpha_eq denies that uncook returned the substituted term"
    return None


def _commutes(k, u_text, a_text):
    u = k.syntax.parse_term(u_text, k.kernel_sig)
    a = k.syntax.parse_prop(a_text, k.kernel_sig)
    return k.precook.subst_commutes(k.kernel_sig, u, a, "x", rs=k.kernel_rs)


def _valid_proof(k, text):
    sig, pr = k.kernel_sig, k.proofs
    p = pr.parse_proof_file(text, sig)
    if not pr.check_binding_proof(sig, p).ok:
        return False, None
    translated = k.precook.translate_proof(sig, p)
    return True, pr.check_modulo_proof(sig, pr.Congruence(k.kernel_rs), translated).ok


def _plain_check(k, text):
    p = k.proofs.parse_proof_file(text, k.kernel_sig)
    return k.proofs.check_binding_proof(k.kernel_sig, p).ok


def _arith_check(k, text):
    p = k.proofs.parse_proof_file(text, k.arith_sig)
    return k.proofs.check_modulo_proof(k.arith_sig, k.proofs.Congruence(k.arith_rs), p).ok


def _probe(k, which, seed):
    fn = k.sigma.termination_probe if which == "termination" else k.sigma.local_confluence_probe
    rep = fn(k.kernel_rs, size_bound=24, samples=PROBE_SAMPLES, seed=seed)
    return rep.ok, rep.samples


def _cli(k, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = k.cli.main(argv)
        except SystemExit as e:  # argparse exits on a command line it rejects
            code = e.code
    return code, out.getvalue()


def _check_cli(needles, out, outputs) -> str | None:
    code, text = out
    if code != 0:
        return f"exit code {code}"
    missing = [n for n in needles if n not in text]
    return f"output lacks {missing!r}: {text[:200]!r}" if missing else None


def cli_commands(k) -> list[tuple[list[str], tuple[str, ...]]]:
    """The README's commands on samples/, each with lines of its known output."""
    s = k.samples
    lam, ari = ["--sig", str(s / "lambda.sig")], ["--sig", str(s / "arith.sig")]
    return [
        (lam + ["parse", "--term", "Λ(x. f(x))"], ("Λ(x. f(x))\n",)),
        (lam + ["check-proof", str(s / "equality_compat.prf")], ("(binding): ok\n",)),
        (ari + ["check-proof", "--modulo", str(s / "arith.rw"), str(s / "four_is_even.prf")],
         ("): ok\n",)),
        (lam + ["normalize", "--system", "sigma", "1_1[t . id_0]"], ("t\n",)),
        (lam + ["precook", "--prop", "forall x. =(x, Λ(z. x))"],
         ("forall x. =(x, Λ_0(x[up_0]))\n",)),
        (lam + ["translate-proof", str(s / "equality_compat.prf"),
                "-o", str(k.out_dir / "translated.prf")], ("wrote ",)),
        (["eval", "--model", "ext", "--prop", "forall x. =(f(x), x)"], (": valid\n",)),
        (["verify-model", "--model", "ext", "--bounds", "2,2,2"], (
            f"structure laws: {oracles.ifs_sweep_size(_ext_size, 2, 2, 2)} instances checked, ok",
            f"coherence of f: {oracles.coherence_sweep_size(_ext_size, (0,), 2, 2)} instances",
            f"coherence of Λ: {oracles.coherence_sweep_size(_ext_size, (1,), 2, 2)} instances")),
        (["demo", "extensionality"], ("scheme instance NOT valid",)),
        (["demo", "disjoint-sum"], ("equation not valid",)),
    ]


def kernel_mixed(k, seed: int, r: int) -> list[Job]:
    rng = random.Random(f"kernel-mixed:{seed}:{r}")
    sig, gen = k.kernel_sig, k.gen
    jobs = []
    for i in range(ROUND_TRIPS):
        t = gen.random_term(rng, sig, rng.randint(4, 12), free=("x", "y", "z"))
        u = gen.random_term(rng, sig, rng.randint(1, 6), free=proofgen.WITNESS_FREE)
        t_text, u_text = print_term(t), print_term(u)
        jobs.append(Job(f"round-trip-{i}", f"{t_text} / x := {u_text}",
                        functools.partial(_round_trip, k, t_text, u_text),
                        functools.partial(_check_round_trip, t, u)))
    for i in range(COMMUTATIONS):
        u = gen.random_term(rng, sig, rng.randint(1, 6), free=proofgen.WITNESS_FREE)
        a = gen.random_prop(rng, sig, rng.randint(3, 8))
        u_text, a_text = print_term(u), print_prop(a)
        jobs.append(Job(f"commutation-{i}", f"{a_text} / x := {u_text}",
                        functools.partial(_commutes, k, u_text, a_text),
                        functools.partial(_expect, True)))
    valid = []
    for i in range(IDENTITY_PROOFS):
        a = gen.random_prop(rng, sig, rng.randint(6, 14))
        valid.append((f"identity-{i}", proofgen.identity(a)))
    for i in range(INSTANTIATION_PROOFS):
        body = proofgen.instantiation_body(rng, gen, sig)
        witness = proofgen.binder_heavy_witness(rng, gen, sig, rng.randint(3, 6))
        valid.append((f"instantiation-{i}", proofgen.instantiation("x", body, witness)))
    for name, p in valid:
        text = proofgen.to_text(p)
        jobs.append(Job(name, text, functools.partial(_valid_proof, k, text),
                        functools.partial(_expect, (True, True))))
    instantiations = [p for name, p in valid if name.startswith("instantiation")]
    compound = [p for _, p in valid if proofgen.size(p) > 1]
    for i, kind in enumerate(MUTANTS):
        source = rng.choice({"witness": instantiations, "at": compound}.get(
            kind, [p for _, p in valid]))
        text = proofgen.to_text(proofgen.mutate(rng, source, kind))
        jobs.append(Job(f"mutant-{kind}-{i}", text, functools.partial(_plain_check, k, text),
                        functools.partial(_expect, False)))
    for i in range(ARITH_PROOFS):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        text = proofgen.arith_text(a, b, a * b)
        jobs.append(Job(f"arith-{i}", text, functools.partial(_arith_check, k, text),
                        functools.partial(_expect, True)))
        text = proofgen.arith_text(a, b, a * b + 1)
        jobs.append(Job(f"arith-mutant-{i}", text, functools.partial(_arith_check, k, text),
                        functools.partial(_expect, False)))
    for which in ("termination", "confluence"):
        probe_seed = rng.randrange(1 << 30)
        jobs.append(Job(f"probe-{which}", f"{which} seed {probe_seed}",
                        functools.partial(_probe, k, which, probe_seed),
                        functools.partial(_expect, (True, PROBE_SAMPLES))))
    for i, (argv, needles) in enumerate(cli_commands(k)):
        jobs.append(Job(f"cli-{i}", " ".join(argv), functools.partial(_cli, k, argv),
                        functools.partial(_check_cli, needles)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# model-sweep

DELTA_SAMPLES = 4
# Proposition counts put the median job and the 75th percentile at about
# 30% and 70% of the group of one-quantifier delta propositions (68 of
# them, plus two sweeps of like cost), between 35 cheaper jobs and the 7
# heavy sweeps, so neither percentile sits near the edge of a group.
CONGRUENCE_PROPS = 25
INJECTION_PROPS = 68
RULE_INSTANCES = 30
SIGMA_RULES = 12  # the substitution system's rules, each sampled RULE_INSTANCES times
TRANSPORT_SAMPLES = 200
BOUND_NAMES = ("x", "y", "z", "v", "w", "x1", "y2")


def _sweep(out_expected, out, outputs) -> str | None:
    if not out.ok:
        return f"violations: {out.violations[:3]}"
    if out.checked != out_expected:
        return f"checked {out.checked} instances, expected {out_expected}"
    return None


def _eval(k, model, text):
    m = getattr(k, model)
    return k.models.eval_prop_report(m, k.syntax.parse_prop(text, m.sig))


def _equality_axioms(rng) -> list[str]:
    """The five equality axioms of the ext signature, bound names drawn."""
    x, y, z = rng.sample(BOUND_NAMES, 3)
    b = rng.choice([n for n in BOUND_NAMES if n not in (x, y)])
    return [
        f"forall {x}. =({x}, {x})",
        f"forall {x}. forall {y}. =({x}, {y}) => =({y}, {x})",
        f"forall {x}. forall {y}. forall {z}. =({x}, {y}) => (=({y}, {z}) => =({x}, {z}))",
        f"forall {x}. forall {y}. =({x}, {y}) => =(f({x}), f({y}))",
        f"forall {x}. forall {y}. =({x}, {y}) => =(Λ({b}. {x}), Λ({b}. {y}))",
    ]


def _congruence_instance(rng) -> str:
    """=(x, y) => =(C[x], C[y]) for a drawn context C of f and Λ: derivable
    from the equality axioms, hence valid wherever they are."""
    x, y = rng.sample(BOUND_NAMES, 2)
    b = rng.choice([n for n in BOUND_NAMES if n not in (x, y)])
    ctx = [rng.choice(("f", "Λ")) for _ in range(rng.randint(1, 5))]

    def fill(v):
        t = v
        for sym in ctx:
            t = f"f({t})" if sym == "f" else f"Λ({b}. {t})"
        return t
    return f"forall {x}. forall {y}. =({x}, {y}) => =({fill(x)}, {fill(y)})"


def _extensionality_instance(rng) -> str:
    x, y, z = (rng.choice(BOUND_NAMES) for _ in range(3))
    return f"(forall {x}. =(f({x}), {x})) => =(Λ({y}. f({y})), Λ({z}. {z}))"


def _injections(rng, var: str, depth: int):
    """i/j applied `depth` times to a variable: one shape, so every
    proposition built from it costs the same to evaluate."""
    t = Var(var)
    for _ in range(depth):
        t = App(rng.choice("ij"), (Slot((), t),))
    return t


def _injection_instance(rng, inj: str, two: bool):
    """forall q. [forall r.] =(δ(inj(q), x. U, y. V), U[q/x] or V[q/y]),
    an injection axiom instance; with two quantifiers V uses r."""
    depth = 1 if two else 2
    u = _injections(rng, "x", depth)
    v = _injections(rng, "r" if two else "y", depth)
    picked = oracles.replace_free(u, "x", Var("q")) if inj == "i" else \
        oracles.replace_free(v, "y", Var("q"))
    case = App("δ", (Slot((), App(inj, (Slot((), Var("q")),))), Slot(("x",), u), Slot(("y",), v)))
    body = Atom("=", (Slot((), case), Slot((), picked)))
    if two:
        body = Forall("r", body)
    return print_prop(Forall("q", body))


def model_sweep(k, seed: int, r: int) -> list[Job]:
    rng = random.Random(f"model-sweep:{seed}:{r}")
    m = k.models
    sweeps = [
        ("ext-ifs-332", _late(m, "check_ifs", k.ext.ifs, 3, 3, 2),
         oracles.ifs_sweep_size(_ext_size, 3, 3, 2)),
        ("ext-coherence-f-33", _late(m, "check_coherence", k.ext, "f", 3, 3),
         oracles.coherence_sweep_size(_ext_size, (0,), 3, 3)),
        ("ext-coherence-Λ-33", _late(m, "check_coherence", k.ext, "Λ", 3, 3),
         oracles.coherence_sweep_size(_ext_size, (1,), 3, 3)),
        ("ext-retraction-3", _late(m, "check_unary_retraction", k.ext, "Λ", 3),
         sum(_ext_size(q) for q in range(4))),
        ("fullfn-ifs-221", _late(m, "check_ifs", k.fullfn, 2, 2, 1),
         oracles.ifs_sweep_size(_fullfn_size, 2, 2, 1)),
    ]
    for name, fn, size in [
        ("sigma-rules-ext",
         _late(m, "validate_sigma_rules", k.ext_sigma, instances_per_rule=RULE_INSTANCES),
         RULE_INSTANCES * SIGMA_RULES),
        ("transport-ext",
         _late(m, "denotation_transport_check", k.ext, k.ext_sigma, samples=TRANSPORT_SAMPLES),
         TRANSPORT_SAMPLES),
        ("delta-ifs-sampled",
         _late(m, "check_ifs", k.delta.ifs, 2, 2, 2, mode="sampled", samples=DELTA_SAMPLES),
         oracles.sampled_ifs_sweep_size(DELTA_SAMPLES, 2, 2, 2)),
        ("delta-coherence-sampled",
         _late(m, "check_coherence", k.delta, "δ", 1, 1, mode="sampled", samples=DELTA_SAMPLES),
         oracles.sampled_coherence_size(DELTA_SAMPLES, 1, 1)),
    ]:
        sweeps.append((name, functools.partial(fn, seed=rng.randrange(1 << 30)), size))
    jobs = [Job(name, name, fn, functools.partial(_sweep, size)) for name, fn, size in sweeps]

    props = [("ext", text, (1, True)) for text in _equality_axioms(rng)]
    props += [("ext", _congruence_instance(rng), (1, True)) for _ in range(CONGRUENCE_PROPS)]
    props += [("ext", _extensionality_instance(rng), (0, True)) for _ in range(2)]
    x, y = rng.sample(BOUND_NAMES, 2)
    props += [
        ("delta", f"=(δ(a(), {x}. a(), {y}. a()), a())", (0, True)),
        ("delta", f"forall q. =(δ(a(), {x}. q, {y}. q), q)", (0, True)),
    ]
    props += [("delta", _injection_instance(rng, "ij"[i % 2], False), (1, False))
              for i in range(INJECTION_PROPS)]
    props.append(("delta", _injection_instance(rng, rng.choice("ij"), True), (1, False)))
    for i, (model, text, verdict) in enumerate(props):
        jobs.append(Job(f"prop-{model}-{i}", text, functools.partial(_eval, k, model, text),
                        functools.partial(_expect, verdict)))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    # name: (round builder, tail percentile). Each percentile sits inside a
    # group of jobs of like cost at any number of rounds, so it does not
    # jump between groups from run to run: the depth-64 outermost job, the
    # slowest proof checks and probes, the one-quantifier delta propositions.
    "rewrite-deep": (rewrite_deep, 90.0),
    "kernel-mixed": (kernel_mixed, 99.0),
    "model-sweep": (model_sweep, 75.0),
}
