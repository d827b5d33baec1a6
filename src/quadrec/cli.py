"""Command-line front end for the quadratic-recurrence toolkit.

One command per invocation, deterministic output (identical configuration
gives byte-identical bytes on stdout; timing only ever goes to stderr), and
a stable exit-code contract for scripted pipelines:

    0  success
    1  any other quadrec error (an internal inconsistency)
    2  domain error (malformed or out-of-range request)
    3  exact-arithmetic cap exceeded
    4  module refused (cannot certify the requested accuracy)

Every numeric field in JSON/CSV output is a decimal string, never a binary
float.  Values quoted at a requested digit count are rounded half-even,
with one deliberate exception: convergence-rate constants follow the
published-table convention of truncation.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import io
import json
import sys
import time

from .critical import RESIDUAL_PRECISION, estimate_constant, residual_order_check
from .errors import DomainError, ExactCapError, QuadrecError, RefusalError, check_ranges
from .numerics import GUARD_DIGITS, PrecReal, _exact_text
from .rate_constants import MAX_DIGITS, rate_constant, rate_constant_table
from .recurrence import classify, iterate_exact, iterate_real
from .series_engine import solve_coefficients
from .sums import (
    DIVERGENCE_DECIMALS,
    bootstrap_check,
    harmonic_divergence_diagnostic,
    power_sum,
    regularized_s1,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use: each command is declared here once,
    with its handler."""
    parser = argparse.ArgumentParser(
        prog="quadrec",
        description="Constants and asymptotics of the recurrence a_k = (1-p) + p*a_{k-1}^2.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=_RENDERERS, default="json", help="output format")
    common.add_argument("--verbose", action="store_true", help="print elapsed time to stderr")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, handler, help_text):
        cmd = sub.add_parser(name, help=help_text, parents=[common])
        cmd.set_defaults(handler=handler)
        return cmd

    cmd = add_parser("iterate", _cmd_iterate, "orbit listing a_0..a_n")
    cmd.add_argument("--p", required=True, help="parameter as a rational string, e.g. 2/5")
    cmd.add_argument("--steps", type=int, required=True)
    cmd.add_argument("--exact", action="store_true", help="exact rationals (capped step count)")
    cmd.add_argument("--digits", type=int, default=15)

    cmd = add_parser("rate-constant", _cmd_rate_constant, "C(p) from a Koenigs walk")
    cmd.add_argument("--p", required=True)
    cmd.add_argument("--digits", type=int, default=15)

    cmd = add_parser("table1", _cmd_table1, "C(p) at the eight reference parameters")
    cmd.add_argument("--digits", type=int, default=15)

    cmd = add_parser("derive", _cmd_derive, "critical-series coefficients c[i][j]")
    cmd.add_argument("--order", type=int, default=4)

    cmd = add_parser("critical-c", _cmd_critical, "critical constant from the Abel coordinate")
    cmd.add_argument("--N", type=int, default=10**6, help="orbit depth")
    cmd.add_argument("--order", type=int, default=6, help="degree M of the Abel series H")
    cmd.add_argument("--precision", type=int, default=60)

    cmd = add_parser("residual-check", _cmd_residual_check, "|a_k - series(k)| at doubling k")
    cmd.add_argument("--order", type=int, default=4)
    cmd.add_argument("--N", type=int, default=10240, help="largest step index")

    cmd = add_parser("sums", _cmd_sums, "power sum s_m of the logistic orbit")
    cmd.add_argument("--m", type=int, default=2)
    cmd.add_argument("--digits", type=int, default=12)

    cmd = add_parser("s1", _cmd_s1, "regularized sum s_1")
    cmd.add_argument("--digits", type=int, default=8)

    cmd = add_parser("bootstrap", _cmd_bootstrap, "residual of c = 2 + gamma + sum of s_m")
    cmd.add_argument("--digits", type=int, default=6)

    cmd = add_parser("diverge-check", _cmd_diverge_check, "harmonic-style divergence diagnostic")
    cmd.add_argument("--N", type=int, default=10**4)
    return parser


# ---------------------------------------------------------------------------
# command handlers: each returns its JSON payload, one row (a dict) or a list
# ---------------------------------------------------------------------------


def _cmd_iterate(args):
    params = classify(args.p)
    if args.exact:
        samples = iterate_exact(params, args.steps)
        return [{"k": s.k, "a": _exact_text(*s.a.as_integer_ratio())} for s in samples]
    check_ranges(("depth", args.steps, 0, None), ("digits", args.digits, 1, MAX_DIGITS))
    samples = iterate_real(params, args.steps, args.digits + GUARD_DIGITS)
    return [{"k": s.k, "a": s.a.digit_string(args.digits)} for s in samples]


def _rate_row(result):
    return {
        "p": _exact_text(*result.p.as_integer_ratio()),
        "C": result.digit_string(),
        "factors_used": result.factors_used,
        "tail_bound": str(result.tail_bound),
    }


def _cmd_rate_constant(args):
    return _rate_row(rate_constant(args.p, args.digits))


def _cmd_table1(args):
    return [_rate_row(r) for r in rate_constant_table(args.digits)]


def _cmd_derive(args):
    # orders 1 and 2 are the seeds
    check_ranges(("order", args.order, 3, None))
    table = solve_coefficients(args.order)
    if args.format == "text":
        return table.format_text_lines()
    return [{"i": i, "j": j, "coeffs": poly.coeff_strings()} for i, j, poly in table.iter_entries()]


def _cmd_critical(args):
    est = estimate_constant(args.N, args.order, args.precision)
    return {
        "C": str(est.C),
        "N": est.depth,
        "order": est.order,
        "truncation_bound": str(est.truncation_bound),
    }


def _cmd_residual_check(args):
    check_ranges(("N", args.N, 10, None))  # indices start at 10
    ks = []
    k = 10
    while k <= args.N:
        ks.append(k)
        k *= 2
    return [
        {"k": k, "residual": str(res)}
        for k, res in residual_order_check(args.order, ks, RESIDUAL_PRECISION)
    ]


def _sum_row(result, digits):
    return {
        "m": result.m,
        "value": result.value.digit_string(digits),
        "terms_summed": result.terms_summed,
        "tail_correction": str(result.tail_correction),
        "error_estimate": str(result.error_estimate),
    }


def _cmd_sums(args):
    return _sum_row(power_sum(args.m, args.digits), args.digits)


def _cmd_s1(args):
    return _sum_row(regularized_s1(args.digits), args.digits)


def _cmd_bootstrap(args):
    report = bootstrap_check(args.digits)
    shown = args.digits + 6
    return {
        "c": report.c.digit_string(shown),
        "gamma": report.gamma.digit_string(shown),
        "s1": report.s1.digit_string(shown),
        "sum_m_ge_2": report.sum_m_ge_2.digit_string(shown),
        "formula_value": report.formula_value.digit_string(shown),
        "residual": str(report.residual),
    }


def _cmd_diverge_check(args):
    partial, reference = harmonic_divergence_diagnostic(args.N)
    difference = decimal.Context(prec=partial.precision).subtract(partial.value, reference.value)
    return {
        "N": args.N,
        "partial_sum": partial.digit_string(DIVERGENCE_DECIMALS),
        "reference": reference.digit_string(DIVERGENCE_DECIMALS),
        "difference": PrecReal(difference, partial.precision).digit_string(DIVERGENCE_DECIMALS),
    }


# ---------------------------------------------------------------------------
# rendering and the one exit path
# ---------------------------------------------------------------------------


def _table(payload):
    """The header and the string cells of a payload; a dict is one row."""
    rows = [payload] if isinstance(payload, dict) else payload
    keys = list(rows[0])
    return keys, [[_cell(row[k]) for k in keys] for row in rows]


def _cell(value):
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return str(value)


def _render_csv(payload):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    keys, cells = _table(payload)
    writer.writerow(keys)
    writer.writerows(cells)
    return buffer.getvalue().rstrip("\n")


def _render_text(payload):
    if isinstance(payload, list) and isinstance(payload[0], str):  # derive's text lines
        return "\n".join(payload)
    keys, cells = _table(payload)
    widths = [max(len(keys[i]), *(len(r[i]) for r in cells)) for i in range(len(keys))]
    out = ["  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip()]
    for r in cells:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(out)


_RENDERERS = {
    "json": functools.partial(json.dumps, indent=2),
    "csv": _render_csv,
    "text": _render_text,
}

#: Exit code and stderr label of each error class, most specific first.
_EXITS = (
    (DomainError, 2, "error"),
    (ExactCapError, 3, "error"),
    (RefusalError, 4, "refused"),
    (QuadrecError, 1, "error"),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        payload = args.handler(args)
    except QuadrecError as exc:
        code, label = next(outcome for cls, *outcome in _EXITS if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    print(_RENDERERS[args.format](payload))
    if args.verbose:
        print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
