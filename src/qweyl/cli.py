"""Command-line interface.

Subcommands: normalize, verify, suite, rep-check, expand.  Each accepts
only the flags it reads.  Exit codes: 0 all expected-pass checks passed,
1 at least one verification failed, 2 usage, parse or input error, 3
internal error.  Machine formats (json, tsv) are byte-stable for identical
invocations: timings are reported as 0 there (the text format shows real
times).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import identities as ident
from . import parser as par
from . import reps as rp
from .identities import Report, SuiteConfig
from .scalar import ScalarError
from .weyl import Relation, WordError, extended, hq


def _size(text: str) -> int:
    """A non-negative integer flag value; argparse turns the error into exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer, got %d" % value)
    return value


def _common_flags(p: argparse.ArgumentParser, *, relation: bool, params: bool, cases: bool, max_n: bool = False) -> None:
    """Register the shared flags a subcommand reads; argparse rejects the rest."""
    if relation:
        p.add_argument("--relation", choices=("hq", "extended"), default="hq")
        p.add_argument("--F", default=None, help="remainder polynomial in N for the extended relation")
        p.add_argument("--sigma", default=None, help="coefficient on b*a (scalar expression)")
    if params:
        p.add_argument("--params", default=None, help="comma-separated bindings, e.g. p=1,q=2/3")
    p.add_argument("--format", choices=("text", "json", "tsv"), default="text")
    if max_n:
        p.add_argument("--max-n", type=_size, default=4, dest="max_n")
    if cases:
        p.add_argument("--seed", type=int, default=0)


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The process-wide parser, built on the first call; callers must not modify it.

    Parsing keeps no state in it: each ``parse_args`` makes a fresh namespace,
    and usage errors and ``--help`` look up the output streams and terminal
    width when they print.
    """
    top = argparse.ArgumentParser(prog="qweyl", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="print the canonical normal form of an expression")
    p.add_argument("expr", nargs="+")
    _common_flags(p, relation=True, params=True, cases=False)

    p = sub.add_parser("verify", help="check LHS == RHS exactly")
    p.add_argument("expr", nargs="+")
    _common_flags(p, relation=True, params=True, cases=False)

    p = sub.add_parser("suite", help="run an identity catalog")
    p.add_argument("--catalog", default="all", choices=("all", "core", "errata", "extended", "none"))
    p.add_argument("--ids", default=None, help="comma-separated catalog tags to keep, e.g. THM5,LEM3")
    p.add_argument("--variants", default=None, help="comma-separated variant filter, e.g. as_stated")
    _common_flags(p, relation=False, params=True, cases=True, max_n=True)

    p = sub.add_parser("rep-check", help="verify identities inside concrete representations")
    p.add_argument("--rep", choices=("diff", "diff_ab", "diff_ba", "jackson", "delta", "fock"), default=None)
    p.add_argument("--eq", choices=("1a", "1b", "2a", "2b", "3", "4", "20", "22"), default=None)
    p.add_argument("--n", type=_size, default=3)
    p.add_argument("--degree", type=_size, default=None)
    _common_flags(p, relation=False, params=False, cases=True)

    p = sub.add_parser("expand", help="expand a grade-0 expression in powers of (a*b)")
    p.add_argument("expr", nargs="+")
    _common_flags(p, relation=True, params=True, cases=False)

    return top


def _relation_from(args) -> Relation:
    if args.relation == "extended":
        F = par.eval_npoly(par.parse(args.F)) if args.F else None
        sigma = par.eval_scalar(par.parse(args.sigma)) if args.sigma else None
        rel = extended(sigma=sigma, F=F)
    else:
        if args.F:
            raise par.EvalError("--F applies to the extended relation")
        rel = hq()
        if args.sigma:
            rel = Relation(par.eval_scalar(par.parse(args.sigma)), rel.rho)
    return rel


def _emit_result(args, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(dict(payload, version=1), separators=(", ", ": ")))
    elif args.format == "tsv":
        print("\t".join(str(v) for v in payload.values()))
    else:
        for k, v in payload.items():
            print("%s: %s" % (k, v))


def _run_statement(args, kind: str) -> dict:
    """Parse the subcommand's expression words as one statement and run it."""
    rel = _relation_from(args)
    bindings = par.parse_bindings(args.params or "")
    text = " ".join(args.expr).rstrip()
    # error columns count from the start of the expression
    stmt = par._parse_verify(text, 1, 1) if kind == "verify" else par.Statement(kind, (par.parse(text),))
    return par.run_statement(stmt, rel, bindings)


def _cmd_normalize(args) -> int:
    row = _run_statement(args, "normalize")
    if args.format == "text":
        print(row["result"])
    else:
        _emit_result(args, {"result": row["result"]})
    return 0


def _cmd_verify(args) -> int:
    row = _run_statement(args, "verify")
    _emit_result(args, {"status": row["status"], "residual": row["result"]})
    return 0 if row["status"] == "pass" else 1


def _cmd_expand(args) -> int:
    row = _run_statement(args, "expand")
    if row["status"] == "fail":
        _emit_result(args, {"status": "fail", "error": row["result"]})
        return 1
    _emit_result(args, {"status": "pass", "coefficients": json.dumps(row["result"])})
    return 0


def _cmd_suite(args) -> int:
    config = SuiteConfig(
        catalog=args.catalog,
        max_n=args.max_n,
        ids=tuple(s for s in (args.ids or "").split(",") if s),
        variants=tuple(s for s in (args.variants or "").split(",") if s),
        params=par.parse_bindings(args.params or ""),
        seed=args.seed,
    )
    report = ident.suite(config)
    _print_report(args, report)
    return 0 if report.ok() else 1


def _cmd_rep_check(args) -> int:
    cases = rp.standard_rep_cases(
        rep_filter=args.rep,
        eq_filter=args.eq,
        max_n=args.n,
        degree=args.degree,
        seed=args.seed,
    )
    report = ident.run_cases(cases, notes=[rp.JACKSON_NOTE])
    _print_report(args, report)
    return 0 if report.ok() else 1


def _print_report(args, report: Report) -> None:
    if args.format == "json":
        print(report.to_json())
    elif args.format == "tsv":
        print(report.to_tsv(), end="")
    else:
        print(report.to_text(), end="")


def main(argv=None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "normalize":
            return _cmd_normalize(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "suite":
            return _cmd_suite(args)
        if args.command == "rep-check":
            return _cmd_rep_check(args)
        if args.command == "expand":
            return _cmd_expand(args)
        return 2
    except (par.ParseError, par.EvalError, WordError, ScalarError, ident.UnsupportedCaseError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means an identity failed; a crash must not read as that
        print("internal error: %r" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
