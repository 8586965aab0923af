"""Command line front end.

Subcommands operate on problem files, small JSON documents naming a prime,
an integrand in the constructible DSL, and a list of cells (or "auto" to
derive cells from a univariate polynomial absolute value). All output is
JSON with rationals rendered as canonical "num/den" strings, never floats,
and with a fixed key order so repeated runs are byte identical.

Exit codes: 0 success, 1 malformed input (schema, syntax or usage), 2 precision
or enumeration exhaustion, 3 a verification check failed its bound, 4 an
internal fault (a broken invariant, never the input's fault).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import decompose, integrate, oracle, polys, sums
from .cells import (Cell, _dsl, _json_object, _typed, cell_from_json, cell_to_json,
                    parse_rational, zp_cell)
from .decompose import _rat
from .expr import (
    ConstructibleExpr,
    EvaluationPrecisionError,
    ParseError,
    dterm_to_const_poly,
    parse_constructible,
    print_constructible,
)
from .padic import Prime

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECISION = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4


class InputError(Exception):
    """Problem file or argument rejected before any computation."""


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are malformed input (exit 1), not argparse's exit 2."""

    def error(self, message: str):
        raise InputError(message)


# ---------------------------------------------------------------------------
# problem files

PROBLEM_VERSION = 1


class Problem:
    def __init__(self, prime: Prime, params: int, nvars: int,
                 integrand: ConstructibleExpr | None, cells,
                 mode: str, base_points: list[tuple[Fraction, ...]]):
        self.prime = prime
        self.params = params
        self.nvars = nvars
        self.integrand = integrand
        self.cells = cells  # list[Cell] or the string "auto"
        self.mode = mode
        self.base_points = base_points


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise InputError(
            f"{path} is not valid JSON: {e.msg} (line {e.lineno}, column {e.colno})"
        ) from None


def load_problem(path: str, prime_flag: int | None) -> Problem:
    data = _json_object(_load_json(path), "", ("version",), (
        "version", "p", "variables", "integrand", "cells", "mode", "base_points"))
    version = _typed(data["version"], int, "version")
    if version != PROBLEM_VERSION:
        raise InputError(f"version must be {PROBLEM_VERSION}, got {version}")

    p = _typed(data["p"], int, "p") if "p" in data else None
    if prime_flag is not None:
        prime = _prime(prime_flag, "--p")
    elif p is not None:
        prime = _prime(p, "p")
    else:
        raise InputError("a prime is required: field p or flag --p")

    keys = ("params", "integrate")
    variables = _json_object(data.get("variables", {"params": 0, "integrate": 1}),
                             "variables", keys, keys)
    params = _typed(variables["params"], int, "variables.params", least=0)
    nvars = _typed(variables["integrate"], int, "variables.integrate", least=1)

    integrand = None
    if "integrand" in data:
        integrand = _dsl(data["integrand"], "integrand", parse_constructible)

    cells_raw = data.get("cells", "auto")
    if cells_raw == "auto":
        cells = "auto"
        if params != 0 or nvars != 1:
            raise InputError("\"auto\" cells need exactly one variable")
    else:
        cells = [cell_from_json(c, prime, f"cells[{i}]")
                 for i, c in enumerate(_typed(cells_raw, list, "cells", least=1))]
        for i, c in enumerate(cells):
            if c.arity != params + nvars:
                raise InputError(f"cells[{i}] has {c.arity} conditions, "
                                 f"variables say {params + nvars}")

    mode = _typed(data.get("mode", "concrete"), str, "mode")
    if mode not in ("concrete", "symbolic"):
        raise InputError(f"mode must be \"concrete\" or \"symbolic\", got {mode!r}")

    if "base_points" in data:
        base_points = [_point(pt, params, f"base_points[{i}]") for i, pt in
                       enumerate(_typed(data["base_points"], list, "base_points", least=1))]
    else:
        # symbolic runs need no points; concrete runs demand them later
        base_points = [()] if params == 0 else None
    return Problem(prime, params, nvars, integrand, cells, mode, base_points)


def _prime(p: int, source: str) -> Prime:
    """Prime(p), refused with the field or flag p came from."""
    try:
        return Prime(p)
    except ValueError as e:
        raise InputError(f"{source}: {e}") from None


def _point(raw, params: int, path: str) -> tuple[Fraction, ...]:
    """A base point: a JSON array of params rationals."""
    if len(_typed(raw, list, path)) != params:
        raise InputError(f"{path} must hold {params} coordinates, got {len(raw)}")
    return tuple(parse_rational(x, f"{path}[{j}]") for j, x in enumerate(raw))


# ---------------------------------------------------------------------------
# "auto" cells: integrands of the shape c * abs(f(x0))^s

def _as_poly_abs(f: ConstructibleExpr):
    """Split into (scale, coefficient tuple of f, exponent s)."""
    wrong = InputError(
        "\"auto\" cells need an integrand of the shape c*abs(f(x0))^s "
        "with s a positive integer; list cells explicitly otherwise"
    )
    if len(f.terms) != 1:
        raise wrong
    term = f.terms[0]
    if term.val_factors or len(term.norm_factors) > 1:
        raise wrong
    if not term.norm_factors:
        return term.coeff, (Fraction(1),), 1
    nf = term.norm_factors[0]
    if nf.power.denominator != 1 or nf.power < 1:
        raise wrong
    coeffs = dterm_to_const_poly(nf.h)
    if coeffs is None:
        raise wrong
    if polys.is_zero(coeffs):
        raise InputError("f identically zero")
    return term.coeff, coeffs, int(nf.power)


def _auto_integrands(problem: Problem, precision: int):
    """Decompose the polynomial and return (scale, cell integrands)."""
    if problem.integrand is None:
        raise InputError("\"auto\" cells need an \"integrand\"")
    scale, coeffs, s = _as_poly_abs(problem.integrand)
    prepared = decompose.decompose_univariate(coeffs, problem.prime,
                                              precision_N=precision)
    powered = integrate.prepared_power(prepared, s)
    return scale, integrate.group_prepared(powered)


# ---------------------------------------------------------------------------
# output

def _emit(payload: dict, pretty: bool, out: str | None = None) -> None:
    if pretty:
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = json.dumps(payload, separators=(",", ":")) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fail(message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": message}, separators=(",", ":")) + "\n")
    return code


# ---------------------------------------------------------------------------
# verification shared by integrate/measure/verify

def _verify(problem: Problem, g: ConstructibleExpr, symbolic: Fraction,
            args) -> tuple[dict, int]:
    """Compare symbolic against the oracle's integral of g over the
    problem's cells (Z_p for "auto") at depth args.verify_N: the report and
    its exit code."""
    _require_verifiable(problem)
    domain = ([zp_cell(problem.prime)] if problem.cells == "auto"
              else problem.cells)
    got = bound = Fraction(0)
    for cell in domain:
        res = oracle.oracle_integrate(g, cell, problem.prime, args.verify_N,
                                      args.budget)
        got += res.value
        bound += res.boundary_mass
    passed = abs(symbolic - got) <= bound
    report = {
        "symbolic": _rat(symbolic),
        "oracle": _rat(got),
        "bound": _rat(bound),
        "pass": passed,
    }
    return report, EXIT_OK if passed else EXIT_VERIFY


def _require_verifiable(problem: Problem) -> None:
    if problem.params != 0:
        raise InputError("verification needs a problem without parameters")
    if problem.mode != "concrete":
        raise InputError("verification needs concrete mode")


# ---------------------------------------------------------------------------
# subcommands

def cmd_decompose(args) -> int:
    problem = load_problem(args.path, args.p)
    if problem.cells != "auto":
        raise InputError("decompose works on \"auto\" problems (one variable)")
    if problem.integrand is None:
        raise InputError("decompose needs an \"integrand\"")
    _, coeffs, _ = _as_poly_abs(problem.integrand)
    N, limit = args.verify_N, sys.get_int_max_str_digits()
    if N is not None and limit and N * math.log10(problem.prime.p) >= limit:
        # the report prints the class count p^N and lifts below it
        raise InputError(f"--verify-N {N}: p^N has more than {limit} digits")
    terms = decompose.decompose_univariate(coeffs, problem.prime,
                                           precision_N=args.precision)
    payload = decompose.prepared_to_json(terms)
    code = EXIT_OK
    if N is not None:
        report = decompose.verify_prepared(terms, coeffs, problem.prime, N,
                                           zp_cell(problem.prime))
        payload["verify"] = {
            "passed": report.passed,
            "classes": report.classes_checked,
            "checks": report.equality_checks,
            "counterexamples": list(report.counterexamples),
        }
        if not report.passed:
            code = EXIT_VERIFY
    _emit(payload, args.pretty, args.out)
    return code


def _concrete_values(f: ConstructibleExpr, problem: Problem):
    """(values per base point, integrable) from one elimination."""
    if problem.base_points is None:
        raise InputError("concrete evaluation needs \"base_points\" or --point")
    pieces = integrate.eliminate_stages(f, problem.cells, problem.nvars)
    if pieces is None:
        return [Fraction(0)] * len(problem.base_points), False
    return [integrate.evaluate_pieces(pieces, pt, problem.prime)
            for pt in problem.base_points], True


def _symbolic_value(f: ConstructibleExpr, cells: list[Cell]):
    """(expression, integrable) over the base; refuses cells over different
    base cells, whose results hold each over its own base only, and a cell
    whose result holds only where a pin or window guard holds."""
    for i, cell in enumerate(cells):
        if cell.conditions[:-1] != cells[0].conditions[:-1]:
            raise InputError(
                f"cells 0 and {i} lie over different base cells, and each "
                "symbolic result holds only over its own base; integrate them "
                "in concrete mode at base points"
            )
    results = [integrate.eliminate_stages(f, [cell], 1) for cell in cells]
    if any(pieces is None for pieces in results):
        return ConstructibleExpr.zero(), False
    for i, pieces in enumerate(results):
        if any(piece.guards for piece in pieces):
            raise InputError(
                f"cell {i}: its symbolic result holds only where its residue "
                "pins hold and its valuation window is not empty; integrate "
                "it in concrete mode at base points"
            )
    return ConstructibleExpr.sum_of(p.value for ps in results for p in ps), True


def _integrate_problem(problem: Problem, precision: int, command: str):
    """Returns (values per base point, expression or None, integrable).
    command names the subcommand in the error for a missing integrand."""
    if problem.cells == "auto":
        scale, cis = _auto_integrands(problem, precision)
        # arity-1 cells have constant bounds: the closed form is a number
        res = integrate.eliminate_last_variable(cis)
        if problem.mode == "symbolic":
            return None, res.value.scale(scale), res.integrable
        return [res.value.constant_value() * scale], None, res.integrable

    if problem.integrand is None:
        raise InputError(f"{command} needs an \"integrand\"")
    if problem.mode == "symbolic":
        if problem.nvars != 1:
            raise InputError("symbolic mode eliminates exactly one variable")
        expression, integrable = _symbolic_value(problem.integrand, problem.cells)
        return None, expression, integrable
    values, integrable = _concrete_values(problem.integrand, problem)
    return values, None, integrable


def cmd_integrate(args) -> int:
    problem = load_problem(args.path, args.p)
    if args.mode is not None:
        problem.mode = args.mode
    if args.point is not None:
        coords = [s for s in args.point.split(",") if s]
        problem.base_points = [_point(coords, problem.params, "--point")]
    if args.verify_N is not None:
        _require_verifiable(problem)  # refuse before integrating
    if args.point is not None and problem.mode == "symbolic":
        raise InputError("--point needs concrete mode: symbolic mode evaluates at no point")

    values, expression, integrable = _integrate_problem(problem, args.precision, "integrate")
    if expression is not None:
        payload = {
            "mode": "symbolic",
            "expression": print_constructible(expression),
            "nonintegrable": not integrable,
        }
    else:
        payload = {
            "mode": "concrete",
            "values": [_rat(v) for v in values],
            "nonintegrable": not integrable,
        }

    code = EXIT_OK
    if args.verify_N is not None:
        payload["verify"], code = _verify(problem, problem.integrand, values[0], args)
    _emit(payload, args.pretty)
    return code


def cmd_measure(args) -> int:
    problem = load_problem(args.path, args.p)
    if problem.cells == "auto":
        raise InputError("measure needs explicit cells")
    problem.mode = "concrete"  # measures are always computed concretely
    one = ConstructibleExpr.const(Fraction(1))
    measures, _ = _concrete_values(one, problem)
    payload = {"measures": [_rat(v) for v in measures]}

    code = EXIT_OK
    if args.verify_N is not None:
        payload["verify"], code = _verify(problem, one, measures[0], args)
    _emit(payload, args.pretty)
    return code


def cmd_verify(args) -> int:
    problem = load_problem(args.path, args.p)
    problem.mode = "concrete"
    _require_verifiable(problem)  # refuse parameters before integrating
    values, _, _ = _integrate_problem(problem, args.precision, "verify")
    report, code = _verify(problem, problem.integrand, values[0], args)
    _emit(report, args.pretty)
    return code


def _parse_poly_arg(text: str):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        raise InputError(
            "the polynomial is a JSON array of rationals, lowest degree first"
        ) from None
    coeffs = polys.normalize(tuple(
        parse_rational(c, f"f[{i}]") for i, c in enumerate(_typed(raw, list, "f", least=1))
    ))
    if polys.is_zero(coeffs):
        raise InputError("f identically zero")
    return coeffs


def cmd_zeta(args) -> int:
    if args.p is None:
        raise InputError("zeta needs --p")
    prime = _prime(args.p, "--p")
    coeffs = _parse_poly_arg(args.f)
    z = integrate.igusa_zeta(coeffs, prime, precision_N=args.precision)
    payload = {
        "numerator": [_rat(c) for c in z.numerator],
        "denominator_factors": [
            {"c": c, "d": d} for c, d in z.denominator_factors
        ],
    }
    code = EXIT_OK
    if args.check_poincare is not None:
        report = integrate.poincare_check(coeffs, prime, args.check_poincare, z)
        payload["poincare"] = {
            "passed": report.passed,
            "counts": list(report.counts),
            "expected": [_rat(m) for m in report.expected],
        }
        if not report.passed:
            code = EXIT_VERIFY
    _emit(payload, args.pretty)
    return code


def cmd_parse(args) -> int:
    problem = load_problem(args.path, args.p)
    payload = {
        "ok": True,
        "p": problem.prime.p,
        "params": problem.params,
        "integrate": problem.nvars,
        "mode": problem.mode,
        "integrand": (None if problem.integrand is None
                      else print_constructible(problem.integrand)),
        "cells": ("auto" if problem.cells == "auto"
                  else [cell_to_json(c) for c in problem.cells]),
    }
    _emit(payload, args.pretty)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring

def _positive_int(text: str) -> int:
    """The argparse type of every depth and budget flag."""
    if re.fullmatch("[0-9]+", text) and int(text) >= 1:
        return int(text)
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, default=None,
                        help="prime, overriding the problem file")
    common.add_argument("--precision", type=_positive_int, default=8, metavar="N",
                        help="working depth for decomposition (default 8)")
    common.add_argument("--budget", type=_positive_int, default=oracle.DEFAULT_BUDGET,
                        help="class budget for oracle enumeration")
    style = common.add_mutually_exclusive_group()
    style.add_argument("--json", dest="pretty", action="store_false",
                       help="compact JSON output (default)")
    style.add_argument("--pretty", dest="pretty", action="store_true",
                       help="indented JSON output")
    common.set_defaults(pretty=False)

    parser = _ArgumentParser(
        prog="padicells",
        description="exact integration over p-adic cells",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("decompose", parents=[common],
                        help="partition Z_p into cells preparing |f|")
    sp.add_argument("path", help="problem file")
    sp.add_argument("--out", default=None, help="write JSON here instead of stdout")
    sp.add_argument("--verify-N", dest="verify_N", type=_positive_int, default=None,
                    metavar="N", help="also check the printed terms on every class mod p^N")
    sp.set_defaults(handler=cmd_decompose)

    sp = sub.add_parser("integrate", parents=[common],
                        help="integrate a constructible function over cells")
    sp.add_argument("path", help="problem file")
    sp.add_argument("--mode", choices=("concrete", "symbolic"), default=None)
    sp.add_argument("--point", default=None,
                    help="comma separated parameter values, e.g. 1/3,2")
    sp.add_argument("--verify-N", dest="verify_N", type=_positive_int, default=None,
                    metavar="N", help="also compare against the oracle at depth N")
    sp.set_defaults(handler=cmd_integrate)

    sp = sub.add_parser("measure", parents=[common],
                        help="total measure of the listed cells")
    sp.add_argument("path", help="problem file")
    sp.add_argument("--verify-N", dest="verify_N", type=_positive_int, default=None,
                    metavar="N", help="also compare against the oracle at depth N")
    sp.set_defaults(handler=cmd_measure)

    sp = sub.add_parser("verify", parents=[common],
                        help="compare the exact integral against the oracle")
    sp.add_argument("path", help="problem file")
    sp.add_argument("--verify-N", dest="verify_N", type=_positive_int, default=6,
                    metavar="N", help="oracle depth (default 6)")
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("zeta", parents=[common],
                        help="rational form of the local zeta function of f")
    sp.add_argument("f", help="JSON array of coefficients, lowest degree first")
    sp.add_argument("--check-poincare", dest="check_poincare", type=_positive_int,
                    default=None, metavar="I",
                    help="check root counts against the series up to depth I")
    sp.set_defaults(handler=cmd_zeta)

    sp = sub.add_parser("parse", parents=[common],
                        help="syntax check a problem file and echo it back")
    sp.add_argument("path", help="problem file")
    sp.set_defaults(handler=cmd_parse)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except InputError as e:
        return _fail(str(e), EXIT_INPUT)
    except ParseError as e:
        sys.stderr.write(json.dumps(
            {"error": e.message, "span": {"start": e.span.start, "end": e.span.end}},
            separators=(",", ":"),
        ) + "\n")
        return EXIT_INPUT
    except oracle.BudgetExceeded:
        return _fail("oracle exceeded the class budget; raise --budget or lower --verify-N",
                     EXIT_PRECISION)
    except (decompose.PrecisionExhausted, EvaluationPrecisionError) as e:
        return _fail(str(e), EXIT_PRECISION)
    except sums.DivergentSumError as e:
        return _fail(str(e), EXIT_INPUT)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        return _fail(str(e), EXIT_INPUT)
    except RecursionError:
        # a RuntimeError subclass, but caused by the input's nesting depth
        return _fail("input nested too deeply", EXIT_INPUT)
    except (RuntimeError, AssertionError, TypeError, KeyError) as e:
        # broken invariants; the readers refuse every input that could
        # raise a TypeError or KeyError, so those are faults too
        return _fail(f"internal error ({type(e).__name__}): {e}", EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
