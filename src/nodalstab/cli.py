"""Command-line front end.

    nodal-stab validate --curve FILE
    nodal-stab order    --curve FILE
    nodal-stab check    --curve FILE --bundle FILE --pol FILE
    nodal-stab balance  --curve FILE --bundle FILE --pol FILE
    nodal-stab gpb      (--flag FILE | --rank R --degree D --nodes G [--genus H]
                         | --build --field F --rank R --degree D --shift A)
    nodal-stab dvr      (--matrix FILE --field F --n N | --sl FILE | --torsor FILE)

Reports go to standard output (or --out) as deterministic JSON.  Exit
code 0 means pass/success, 1 a semantic failure, 2 a malformed input.
"""

import argparse
import sys

from . import gpb as gpb_mod
from . import serialize as ser
from .balance import balance as run_balance
from .curve import prune_ordering, validate_curve
from .errors import InvalidInput, NodalStabError
from .fields import parse_field
from .stability import lambda_check
from .truncated import det_trace_identity, sl_kernel_check, torsor_correct

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

# Two integers on the command line set the cost without adding input, so
# each has a ceiling, far above the ranks (2-6) and orders (1-3) that the
# tests and the benchmark inputs use.
# gpb --build eliminates r x r blocks of a flag it makes itself: O(r^3).
_MAX_BUILD_RANK = 64
# dvr --matrix --n sets the length of every coefficient vector: O(n) memory
# and output per entry, and up to O(n^2) per ring product.
_MAX_MATRIX_ORDER = 10_000
# gpb --nodes G builds one flag-dimension pair per node: O(G) time and memory
# for an O(1) report (the tests and the benchmark use G <= 4).
_MAX_NODES = 10_000


def _verdicts_to_obj(verdicts) -> list:
    return [{"i": v.i,
             "component": v.component,
             "G": list(v.g_components),
             "lower": ser.frac_to_str(v.lower),
             "upper": ser.frac_to_str(v.upper),
             "value": v.value,
             "passes": v.passes}
            for v in verdicts]


def cmd_validate(args):
    c = ser.parse_curve(ser.read_json(args.curve))
    report = validate_curve(c)
    obj = {"valid": report.valid,
           "n_components": report.n_components,
           "p_a": report.p_a,
           "genus_at_least_two": report.genus_at_least_two,
           "errors": [{"code": code, "detail": detail} for code, detail in report.errors]}
    return obj, (EXIT_OK if report.valid else EXIT_INPUT)


def cmd_order(args):
    c = ser.parse_curve(ser.read_json(args.curve))
    c.require_valid()
    return ser.ordering_to_obj(prune_ordering(c)), EXIT_OK


def _load_triple(args):
    c = ser.parse_curve(ser.read_json(args.curve))
    c.require_valid()
    bc = ser.parse_bundle(ser.read_json(args.bundle))
    pol = ser.parse_polarization(ser.read_json(args.pol))
    return c, bc, pol


def cmd_check(args):
    c, bc, pol = _load_triple(args)
    verdicts = lambda_check(c, prune_ordering(c), bc, pol)
    ok = all(v.passes for v in verdicts)
    obj = {"passes": ok,
           "rank": bc.rank,
           "total_degree": bc.total_degree,
           "indices": _verdicts_to_obj(verdicts)}
    return obj, (EXIT_OK if ok else EXIT_FAIL)


def cmd_balance(args):
    c, bc, pol = _load_triple(args)
    result = run_balance(c, bc, pol)
    verdicts = lambda_check(c, result.ordering, result.balanced, pol)
    obj = {
        "ordering": list(result.ordering.perm),
        "twist": {str(i): a for i, a in sorted(result.twist.coeffs.items())},
        "multidegree": {str(i): d for i, d in sorted(result.balanced.multidegree.items())},
        "rank": result.balanced.rank,
        "total_degree": result.balanced.total_degree,
        "steps": [{"i": s.i,
                   "component": s.component,
                   "value": s.value,
                   "lower": ser.frac_to_str(s.lower),
                   "upper": ser.frac_to_str(s.upper),
                   "candidates": list(s.candidates),
                   "chosen": s.chosen}
                  for s in result.steps],
        "passes": all(v.passes for v in verdicts),
        "indices": _verdicts_to_obj(verdicts),
    }
    return obj, EXIT_OK


def cmd_gpb(args):
    if args.flag:
        flag = ser.parse_flag(ser.read_json(args.flag))
        proj = gpb_mod.check_projections(flag)
        kern = gpb_mod.check_no_kernel_section(flag)
        obj = {"field": flag.field.name,
               "rank": flag.rank,
               "pr1_iso": proj.pr1_iso,
               "pr2_iso": proj.pr2_iso,
               "locally_free": proj.locally_free,
               "dim_meet_p_side": kern.dim_meet_p_side,
               "dim_meet_q_side": kern.dim_meet_q_side,
               "no_kernel_sections": kern.passes}
        return obj, (EXIT_OK if proj.locally_free and kern.passes else EXIT_FAIL)

    if args.build:
        for name in ("field", "rank", "degree"):
            if getattr(args, name) is None:
                raise InvalidInput(f"--build needs --{name}")
        if args.rank > _MAX_BUILD_RANK:
            raise InvalidInput(f"--rank must be at most {_MAX_BUILD_RANK}, got {args.rank}")
        field = parse_field(args.field)
        flag = gpb_mod.build_rational_flag(field, args.rank, args.degree, args.shift)
        proj = gpb_mod.check_projections(flag)
        kern = gpb_mod.check_no_kernel_section(flag)
        obj = dict(ser.flag_to_obj(flag))
        obj.update({"pr1_iso": proj.pr1_iso,
                    "pr2_iso": proj.pr2_iso,
                    "locally_free": proj.locally_free,
                    "no_kernel_sections": kern.passes})
        return obj, EXIT_OK

    for name in ("rank", "degree", "nodes"):
        if getattr(args, name) is None:
            raise InvalidInput("gpb needs --flag, --build, or --rank/--degree/--nodes")
    if args.nodes > _MAX_NODES:
        raise InvalidInput(f"--nodes must be at most {_MAX_NODES}, got {args.nodes}")
    g = gpb_mod.GpbClass(rank=args.rank, degree=args.degree, nodes=args.nodes)
    obj = {"rank": g.rank,
           "degree": g.degree,
           "nodes": g.nodes,
           "weight": g.weight,
           "parabolic_degree": g.parabolic_degree,
           "parabolic_slope": ser.frac_to_str(gpb_mod.parabolic_slope(g))}
    if args.genus is not None:
        phi = gpb_mod.phi_rank_degree(g, args.genus)
        obj.update({"phi_rank": phi.rank, "phi_degree": phi.degree, "phi_chi": phi.chi})
    return obj, EXIT_OK


def cmd_dvr(args):
    if args.matrix:
        if args.field is None or args.n is None:
            raise InvalidInput("--matrix needs --field and --n")
        if args.n > _MAX_MATRIX_ORDER:
            raise InvalidInput(f"--n must be at most {_MAX_MATRIX_ORDER}, got {args.n}")
        field = parse_field(args.field)
        if not hasattr(field, "p"):
            raise InvalidInput("truncated rings need a prime field")
        A = ser.parse_int_matrix(ser.read_json(args.matrix))
        verdict = det_trace_identity(field.p, A, args.n)
        obj = {"field": field.name, "n": args.n,
               "lhs": ser.truncated_scalar_to_obj(verdict.lhs),
               "rhs": ser.truncated_scalar_to_obj(verdict.rhs),
               "holds": verdict.holds}
        return obj, (EXIT_OK if verdict.holds else EXIT_FAIL)

    if args.sl:
        M = ser.parse_truncated_matrix(ser.read_json(args.sl))
        verdict = sl_kernel_check(M)
        obj = {"det_is_one": verdict.det_is_one,
               "reduces_to_identity": verdict.reduces_to_identity,
               "trace_residue": verdict.trace_residue,
               "in_kernel": verdict.in_kernel,
               "trace_condition": verdict.trace_condition,
               "biconditional_holds": verdict.biconditional_holds}
        return obj, (EXIT_OK if verdict.biconditional_holds else EXIT_FAIL)

    if args.torsor:
        cocycle, gammas = ser._parse_torsor(ser.read_json(args.torsor))
        corrected = torsor_correct(cocycle, gammas)
        holds = all((lift.det() == gamma * F.det())
                    for lift, gamma, F in zip(corrected, gammas, cocycle))
        obj = {"count": len(corrected),
               "corrected": [ser.truncated_matrix_to_obj(m) for m in corrected],
               "det_relation_holds": holds}
        return obj, (EXIT_OK if holds else EXIT_FAIL)

    raise InvalidInput("dvr needs --matrix, --sl, or --torsor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodal-stab",
        description="Numerical semistability tools for tree-like nodal curves")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **flags):
        p = sub.add_parser(name)
        for flag, kwargs in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), **kwargs)
        p.add_argument("--out", help="write the report to this file")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, curve={"required": True})
    add("order", cmd_order, curve={"required": True})
    add("check", cmd_check, curve={"required": True}, bundle={"required": True},
        pol={"required": True})
    add("balance", cmd_balance, curve={"required": True}, bundle={"required": True},
        pol={"required": True})
    add("gpb", cmd_gpb,
        flag={"help": "flag document to check"},
        build={"action": "store_true", "help": "build the standard rational flag"},
        field={"help": "field descriptor, e.g. F5 or Q"},
        rank={"type": int}, degree={"type": int}, nodes={"type": int},
        genus={"type": int, "help": "genus of the normalization"},
        shift={"type": int, "default": 0, "help": "summand degree for --build"})
    add("dvr", cmd_dvr,
        matrix={"help": "square integer matrix document"},
        field={"help": "field descriptor for --matrix, e.g. F5"},
        n={"type": int, "help": "truncation order for --matrix"},
        sl={"help": "truncated matrix document for the kernel test"},
        torsor={"help": "document with cocycle and gammas"})
    return parser


def _error(e: NodalStabError) -> dict:
    detail = {"code": type(e).__name__, "detail": str(e)}
    for key in ("field", "line"):
        if getattr(e, key, None) is not None:
            detail[key] = getattr(e, key)
    return {"error": detail}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        obj, code = args.func(args)
    except NodalStabError as e:
        obj, code = _error(e), (EXIT_INPUT if isinstance(e, InvalidInput) else EXIT_FAIL)
    text = ser.dumps_report(obj)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
        except OSError as e:
            text = ser.dumps_report(_error(InvalidInput(f"cannot write {args.out}: {e.strerror}")))
            code = EXIT_INPUT
    sys.stdout.write(text)
    return code


def main(argv=None) -> None:
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
