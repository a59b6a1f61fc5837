"""Command-line frontend: parsing, proof checking, normalization, the
translation pipeline, model evaluation, structure sweeps, and the two
independence demonstrations. Only the model commands (eval, verify-model,
demo) import models, which lies outside the trusted base.

Exit codes: 0 success, 1 semantic failure (invalid proof, invalid
property), 2 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import precook, proofs, sigma, syntax
from .errors import BindLogError, InvalidSourceProof, ParseError


def _read(path) -> str:
    """The text of an input file. One that is not UTF-8 is an input error
    that names it; an OSError's message names its file already."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: {e}") from None


def _load_signature(args) -> syntax.Signature:
    if args.sig is None:
        return syntax.Signature({}, {})
    return syntax.parse_signature(_read(args.sig))


def _emit(args, lines: list[str], payload: dict):
    if args.json:
        print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# Commands


def cmd_parse(args) -> int:
    sig = _load_signature(args)
    if args.term is not None:
        t = syntax.parse_term(args.term, sig)
        check = syntax.well_formed(sig, t)
        text = syntax.print_term(t)
    else:
        p = syntax.parse_prop(args.prop, sig)
        check = syntax.well_formed(sig, p)
        text = syntax.print_prop(p)
    lines = [text] if check.ok else [text, f"ill-formed: {check}"]
    _emit(args, lines, {"parsed": text, "well_formed": check.ok,
                        "error": None if check.ok else str(check)})
    return 0 if check.ok else 1


def _system_from_arg(name: str, sig) -> sigma.RewriteSystem:
    """`sigma`, the substitution system of sig, or a rule file's system."""
    if name == "sigma":
        return sigma.sigma_system(sig)
    return sigma.load_rules(_read(name), sig=sig, name=Path(name).stem)


def _load_proof(path: str, sig, cong: proofs.Congruence) -> proofs.ProofTree:
    """Parse a proof file whose `syntax` line suits the congruence it is
    checked modulo: the syntactic and term-layer congruences read term
    syntax, the substitution congruence reads lprop."""
    text = _read(path)
    want = "lprop" if cong.system is not None and cong.system.layer == "lterm" else "term"
    have = proofs.proof_file_layer(text)
    if have != want:
        checker = ("the plain checker" if cong.system is None
                   else f"a congruence over the {cong.system.layer} layer")
        raise ParseError(f"{path} is in {have} syntax; {checker} needs {want} syntax")
    return proofs.parse_proof_file(text, sig)


def cmd_check_proof(args) -> int:
    sig = _load_signature(args)
    system = None if args.modulo is None else _system_from_arg(args.modulo, sig)
    cong = proofs.Congruence(system, budget=args.step_budget)
    result = proofs.check_modulo_proof(sig, cong, _load_proof(args.proof, sig, cong))
    kind = "binding" if system is None else f"modulo {args.modulo}"
    lines = [f"proof check ({kind}): {result}"]
    _emit(args, lines, {"check": kind, "ok": result.ok,
                        "error": None if result.ok else str(result)})
    return 0 if result.ok else 1


def cmd_normalize(args) -> int:
    sig = _load_signature(args)
    rs = _system_from_arg(args.system, sig)
    t = sigma.parse_lterm(args.input) if rs.layer == "lterm" else syntax.parse_term(args.input, sig)
    nf, steps = sigma.normalize_steps(rs, t, budget=args.step_budget)
    out = syntax.show(nf)
    _emit(args, [out], {"normal_form": out, "steps": steps})
    return 0


def cmd_precook(args) -> int:
    sig = _load_signature(args)
    p = syntax.parse_prop(args.prop, sig)
    check = syntax.well_formed(sig, p)
    if not check.ok:
        print(f"ill-formed proposition: {check}", file=sys.stderr)
        return 2
    out = sigma.print_lprop(precook.precook_prop(sig, p))
    _emit(args, [out], {"translated": out})
    return 0


def cmd_translate_proof(args) -> int:
    sig = _load_signature(args)
    proof = _load_proof(args.proof, sig, proofs.Congruence())
    try:
        translated = precook.translate_proof(sig, proof)
    except InvalidSourceProof as e:
        print(f"source proof invalid: {e}", file=sys.stderr)
        return 1
    text = proofs.print_proof_file(translated, layer="lprop")
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as e:
            print(f"output error: {args.output}: {e.strerror or e}", file=sys.stderr)
            return 2
        _emit(args, [f"wrote {args.output}"], {"output": args.output})
    else:
        print(text, end="")
    return 0


def _model_from_name(name: str, probe_budget: int, sig=None):
    from . import models
    if name == "ext":
        return models.ext_counter_model()
    if name == "delta":
        return models.delta_model(probe_budget)
    if name.startswith("fullfn:"):
        text = name.split(":", 1)[1]
        size = int(text) if text.isascii() and text.isdigit() else 0
        if size < 1:
            raise ParseError(f"fullfn:<size> takes a positive integer, not {text!r}")
        return models.full_function_ifs(range(size))
    path = Path(name)
    if path.exists():
        if sig is None:
            raise ParseError("a table model needs --sig")
        return models.load_model(_read(path), sig, name=path.stem)
    raise ParseError(f"unknown model {name!r}")


def cmd_eval(args) -> int:
    from . import models
    sig = _load_signature(args) if args.sig else None
    m = _model_from_name(args.model, args.probe_budget, sig)
    if isinstance(m, models.IFS):
        print("a bare function-space structure has no symbol denotations; "
              "use verify-model, or eval with ext/delta/a table model", file=sys.stderr)
        return 2
    p = syntax.parse_prop(args.prop, m.sig)
    check = syntax.well_formed(m.sig, p)
    if not check.ok:
        print(f"ill-formed proposition: {check}", file=sys.stderr)
        return 2
    w: dict = {}
    value, exact = models.eval_prop_report(m, p, witness=w)
    status = "valid" if value == 1 else "not valid"
    if not exact:
        status += " (on samples)"
    witness = None
    if value == 0 and w:
        witness = {x: models.fmt_element(v) for x, v in w.items()}
        status += " (witness: " + ", ".join(f"{x} = {v}" for x, v in witness.items()) + ")"
    lines = [f"{syntax.print_prop(p)}: {status}"]
    _emit(args, lines, {"prop": syntax.print_prop(p), "value": value, "exact": exact,
                        "witness": witness})
    return 0 if value == 1 else 1


def _parse_bounds(text: str) -> tuple[int, int, int]:
    try:
        bounds = tuple(int(s) for s in text.split(","))
    except ValueError:
        bounds = ()
    if len(bounds) != 3 or min(bounds) < 0:
        raise ParseError(f"--bounds takes three non-negative integers n,p,q, not {text!r}")
    return bounds


def cmd_verify_model(args) -> int:
    from . import models
    n, p, q = _parse_bounds(args.bounds)
    sig = _load_signature(args) if args.sig else None
    m = _model_from_name(args.model, args.probe_budget, sig)
    ifs = m if isinstance(m, models.IFS) else m.ifs
    mode = args.mode
    rep = models.check_ifs(ifs, n, p, q, mode=mode, samples=args.samples // 10 or 10,
                           seed=args.seed)
    lines = [f"structure laws: {rep.summary()}"]
    payload = {"structure": {"checked": rep.checked, "violations": rep.violations}}
    ok = rep.ok
    if isinstance(m, models.BindingModel):
        for f in m.sig.functions:
            crep = models.check_coherence(m, f, p, q, mode=mode,
                                          samples=args.samples // 20 or 5, seed=args.seed)
            lines.append(f"coherence of {f}: {crep.summary()}")
            payload[f"coherence {f}"] = {"checked": crep.checked,
                                         "violations": crep.violations}
            ok = ok and crep.ok
    _emit(args, lines, payload)
    return 0 if ok else 1


def cmd_demo(args) -> int:
    if args.which == "extensionality":
        return _demo_extensionality(args)
    return _demo_disjoint_sum(args)


def _demo_extensionality(args) -> int:
    from . import models
    m = models.ext_counter_model()
    lines = []
    payload: dict = {"demo": "extensionality"}
    all_axioms_valid = True
    for text in models.EXT_AXIOMS:
        a = syntax.parse_prop(text, m.sig)
        v = models.eval_prop(m, a)
        all_axioms_valid = all_axioms_valid and v == 1
        lines.append(f"axiom {'valid' if v == 1 else 'NOT valid'}: {text}")
    lam_fx = syntax.parse_term("Λ(x. f(x))", m.sig)
    lam_x = syntax.parse_term("Λ(x. x)", m.sig)
    v_fx = models.eval_term(m, lam_fx)
    v_x = models.eval_term(m, lam_x)
    lines.append(f"⟦Λx f(x)⟧ = {models.fmt_element(v_fx)}")
    lines.append(f"⟦Λx x⟧ = {models.fmt_element(v_x)}")
    scheme = syntax.parse_prop("(forall x. =(f(x), x)) => =(Λ(x. f(x)), Λ(x. x))", m.sig)
    v_scheme = models.eval_prop(m, scheme)
    lines.append(
        f"scheme instance {'valid' if v_scheme == 1 else 'NOT valid'}: "
        f"{syntax.print_prop(scheme)}")
    payload.update({
        "axioms_valid": all_axioms_valid,
        "lam_fx": models.fmt_element(v_fx),
        "lam_x": models.fmt_element(v_x),
        "scheme_valid": v_scheme == 1,
    })
    _emit(args, lines, payload)
    demonstrated = all_axioms_valid and v_scheme == 0 and v_fx != v_x
    return 0 if demonstrated else 1


def _demo_disjoint_sum(args) -> int:
    from . import models
    m = models.delta_model(args.probe_budget)
    case_split = syntax.parse_term("δ(a(), x. a(), y. a())", m.sig)
    const = syntax.parse_term("a()", m.sig)
    v_case = models.eval_term(m, case_split)
    v_const = models.eval_term(m, const)
    equation = syntax.parse_prop("=(δ(a(), x. a(), y. a()), a())", m.sig)
    v_eq, exact = models.eval_prop_report(m, equation)
    lines = [
        f"⟦δ(a, x a, y a)⟧ = {models.fmt_element(v_case)}",
        f"⟦a⟧ = {models.fmt_element(v_const)}",
        f"equation {'valid' if v_eq == 1 else 'not valid'}: {syntax.print_prop(equation)}",
    ]
    payload = {
        "demo": "disjoint-sum",
        "case_split": v_case,
        "constant": v_const,
        "equation_valid": v_eq == 1,
        "exact": exact,
    }
    _emit(args, lines, payload)
    demonstrated = v_case == 0 and v_const == 1 and v_eq == 0 and exact
    return 0 if demonstrated else 1


# ---------------------------------------------------------------------------


@functools.cache  # one per process: each parse_args call makes a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bindlog",
        description="logic kernel for binder-aware predicate logic")
    ap.add_argument("--sig", help="signature file (.sig)")
    ap.add_argument("--step-budget", type=int, default=sigma.DEFAULT_BUDGET)
    ap.add_argument("--probe-budget", type=int, default=289)
    ap.add_argument("--samples", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", action="store_true", help="machine-readable summary")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and well-form a term or proposition")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--term")
    g.add_argument("--prop")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("check-proof", help="check a proof file")
    p.add_argument("proof")
    p.add_argument("--modulo", help="'sigma' or a rewrite-rule file (.rw)")
    p.set_defaults(fn=cmd_check_proof)

    p = sub.add_parser("normalize", help="normalize a term under a rewrite system")
    p.add_argument("--system", required=True, help="'sigma' or a rule file (.rw)")
    p.add_argument("input")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("precook", help="translate a proposition to the sorted layer")
    p.add_argument("--prop", required=True)
    p.set_defaults(fn=cmd_precook)

    p = sub.add_parser("translate-proof", help="translate a proof to the calculus modulo")
    p.add_argument("proof")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_translate_proof)

    p = sub.add_parser("eval", help="evaluate a proposition in a model")
    p.add_argument("--model", required=True, help="ext | delta | fullfn:<size> | table file")
    p.add_argument("--prop", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify-model", help="run the structure and coherence sweeps")
    p.add_argument("--model", required=True)
    p.add_argument("--bounds", default="2,2,2", help="n,p,q level bounds")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.set_defaults(fn=cmd_verify_model)

    p = sub.add_parser("demo", help="reproduce an independence demonstration")
    p.add_argument("which", choices=("extensionality", "disjoint-sum"))
    p.set_defaults(fn=cmd_demo)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.step_budget <= 0 or args.probe_budget <= 0 or args.samples <= 0:
        print("input error: budgets and sample counts must be positive", file=sys.stderr)
        return 2
    args.seed = int(os.environ.get("BINDLOG_SEED", args.seed))
    try:
        return args.fn(args)
    except (ParseError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("input error: input is nested too deeply", file=sys.stderr)
        return 2
    except BindLogError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
