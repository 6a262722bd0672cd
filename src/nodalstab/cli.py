"""Command-line front end.

    nodal-stab validate --curve FILE
    nodal-stab order    --curve FILE
    nodal-stab check    --curve FILE --bundle FILE --pol FILE
    nodal-stab balance  --curve FILE --bundle FILE --pol FILE
    nodal-stab gpb      (--flag FILE | --rank R --degree D --nodes G [--genus H]
                         | --build --field F --rank R --degree D --shift A)
    nodal-stab dvr      (--matrix FILE --field F --n N | --sl FILE | --torsor FILE)

Reports go to standard output (or --out) as deterministic JSON.  Exit
code 0 means pass/success, 1 a semantic failure or a standard output
closed before the report was written, 2 a malformed input.
"""

import argparse
import os
import sys

from . import serialize as ser
from .errors import _DIGIT_BOUND, _MAX_DIGITS, InvalidInput, NodalStabError

# Each cmd_* imports the modules it runs, so a tree subcommand never loads the ring half
# (gpb, truncated, fields) and the other way round; no other module imports in a function.

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


def _obj(record, **extra) -> dict:
    """A verdict record's report: one key per field, then ``extra``."""
    return dict(zip(record._fields, record._key()), **extra)


def _window(w, **extra) -> dict:
    return {"i": w.i, "component": w.component, "value": w.value,
            "lower": str(w.lower), "upper": str(w.upper), **extra}


def cmd_validate(args):
    from .curve import parse_curve, validate_curve
    report = validate_curve(parse_curve(ser.read_json(args.curve)))
    obj = _obj(report, errors=[{"code": code, "detail": detail}
                               for code, detail in report.errors])
    return obj, (EXIT_OK if report.valid else EXIT_INPUT)


def cmd_order(args):
    from .curve import ordering_to_obj, parse_curve, prune_ordering
    c = parse_curve(ser.read_json(args.curve))
    return ordering_to_obj(prune_ordering(c)), EXIT_OK


def _load_triple(args):
    from .curve import parse_curve
    from .stability import parse_polarization
    from .twist import parse_bundle
    c = parse_curve(ser.read_json(args.curve))
    c.require_valid()
    bc = parse_bundle(ser.read_json(args.bundle))
    pol = parse_polarization(ser.read_json(args.pol))
    return c, bc, pol


def _check_report(ordering, bc, windows) -> dict:
    return {"passes": all(w.passes for w in windows),
            "rank": bc.rank,
            "total_degree": bc.total_degree,
            "indices": [_window(w, G=g, passes=w.passes)
                        for w, g in zip(windows, ordering.subtrees)]}


def cmd_check(args):
    from .curve import prune_ordering
    from .stability import lambda_check
    c, bc, pol = _load_triple(args)
    ordering = prune_ordering(c)
    obj = _check_report(ordering, bc, lambda_check(c, ordering, bc, pol))
    return obj, (EXIT_OK if obj["passes"] else EXIT_FAIL)


def cmd_balance(args):
    # the check report of the balanced class, with the twist that balanced it
    from .balance import balance
    from .twist import bundle_to_obj
    c, bc, pol = _load_triple(args)
    result = balance(c, bc, pol)
    obj = _check_report(result.ordering, result.balanced, result.windows)
    obj.update(bundle_to_obj(result.balanced),   # rank and multidegree
               ordering=result.ordering.perm,
               twist={str(i): a for i, a in sorted(result.twist.coeffs.items())},
               steps=[_window(s, candidates=s.candidates, chosen=s.chosen)
                      for s in result.steps])
    return obj, EXIT_OK


def cmd_gpb(args):
    from . import gpb as gpb_mod
    from .fields import parse_field
    if args.flag or args.build:
        if args.flag:
            flag = gpb_mod.parse_flag(ser.read_json(args.flag))
        else:
            for name in ("field", "rank", "degree"):
                if getattr(args, name) is None:
                    raise InvalidInput(f"--build needs --{name}")
            if args.rank > _MAX_BUILD_RANK:
                raise InvalidInput(f"--rank must be at most {_MAX_BUILD_RANK}, got {args.rank}")
            flag = gpb_mod.build_rational_flag(parse_field(args.field), args.rank,
                                               args.degree, args.shift)
        proj = gpb_mod.check_projections(flag)
        kern = gpb_mod.check_no_kernel_section(flag)
        obj = _obj(proj, locally_free=proj.locally_free, no_kernel_sections=kern.passes)
        if not args.flag:   # --build reports the flag it made, and always passes
            obj.update(gpb_mod.flag_to_obj(flag))
            return obj, EXIT_OK
        obj.update(_obj(kern, field=flag.field.name, rank=flag.rank))
        return obj, (EXIT_OK if proj.locally_free and kern.passes else EXIT_FAIL)

    for name in ("rank", "degree", "nodes"):
        if getattr(args, name) is None:
            raise InvalidInput("gpb needs --flag, --build, or --rank/--degree/--nodes")
    if args.nodes > _MAX_NODES:
        raise InvalidInput(f"--nodes must be at most {_MAX_NODES}, got {args.nodes}")
    # the documents' digit cap: with --nodes bounded too, every report
    # product stays far below the interpreter's limit on printing an int
    for name in ("rank", "degree", "genus"):
        value = getattr(args, name)
        if value is not None and not -_DIGIT_BOUND < value < _DIGIT_BOUND:
            raise InvalidInput(f"--{name} must have at most {_MAX_DIGITS} digits")
    g = gpb_mod.GpbClass(rank=args.rank, degree=args.degree, nodes=args.nodes)
    obj = {"rank": g.rank,
           "degree": g.degree,
           "nodes": g.nodes,
           "weight": g.weight,
           "parabolic_degree": g.parabolic_degree,
           "parabolic_slope": str(gpb_mod.parabolic_slope(g))}
    if args.genus is not None:
        phi = gpb_mod.phi_rank_degree(g, args.genus)
        obj.update({"phi_rank": phi.rank, "phi_degree": phi.degree, "phi_chi": phi.chi})
    return obj, EXIT_OK


def cmd_dvr(args):
    from .fields import parse_field
    from .truncated import (_parse_torsor, det_trace_identity, parse_int_matrix,
                            parse_truncated_matrix, sl_kernel_check, torsor_correct,
                            truncated_matrix_to_obj)
    if args.matrix:
        if args.field is None or args.n is None:
            raise InvalidInput("--matrix needs --field and --n")
        if args.n > _MAX_MATRIX_ORDER:
            raise InvalidInput(f"--n must be at most {_MAX_MATRIX_ORDER}, got {args.n}")
        field = parse_field(args.field)
        if not hasattr(field, "p"):
            raise InvalidInput("truncated rings need a prime field")
        A = parse_int_matrix(ser.read_json(args.matrix))
        verdict = det_trace_identity(field.p, A, args.n)
        obj = {"field": field.name, "n": args.n,
               "lhs": list(verdict.lhs.coeffs),
               "rhs": list(verdict.rhs.coeffs),
               "holds": verdict.holds}
        return obj, (EXIT_OK if verdict.holds else EXIT_FAIL)

    if args.sl:
        M = parse_truncated_matrix(ser.read_json(args.sl))
        verdict = sl_kernel_check(M)
        return _obj(verdict), (EXIT_OK if verdict.biconditional_holds else EXIT_FAIL)

    if args.torsor:
        cocycle, gammas = _parse_torsor(ser.read_json(args.torsor))
        corrected = torsor_correct(cocycle, gammas)
        holds = all((lift.det() == gamma * F.det())
                    for lift, gamma, F in zip(corrected, gammas, cocycle))
        obj = {"count": len(corrected),
               "corrected": [truncated_matrix_to_obj(m) for m in corrected],
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
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                ser.dumps_report(obj, fh)
            return code
        except OSError as e:
            obj = _error(InvalidInput(f"cannot write {args.out}: {e.strerror}"))
            code = EXIT_INPUT
    ser.dumps_report(obj, sys.stdout)
    return code


def main(argv=None) -> None:
    try:
        code = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`nodal-stab ... | head`): point stdout at
        # devnull so the flush at interpreter exit stays quiet, as the
        # `signal` module documentation recommends
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAIL
    raise SystemExit(code)


if __name__ == "__main__":
    main()
