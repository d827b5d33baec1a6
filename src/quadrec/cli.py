"""Command-line front end for the quadratic-recurrence toolkit.

One command per invocation, deterministic output (identical configuration
gives byte-identical bytes on stdout; timing only ever goes to stderr), and
a stable exit-code contract for scripted pipelines:

    0  success
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
import io
import json
import sys
import time
from decimal import Decimal
from fractions import Fraction

from .critical import estimate_constant, residual_order_check
from .errors import DomainError, ExactCapError, QuadrecError, RefusalError
from .numerics import GUARD_DIGITS, PrecReal, parse_rational
from .rate_constants import rate_constant, rate_constant_table
from .recurrence import classify, iterate_exact, iterate_real
from .series_engine import solve_coefficients
from .sums import (
    DIVERGENCE_DECIMALS,
    bootstrap_check,
    harmonic_divergence_diagnostic,
    power_sum,
    regularized_s1,
)

_FORMATS = ("json", "csv", "text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadrec",
        description="Constants and asymptotics of the recurrence a_k = (1-p) + p*a_{k-1}^2.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=_FORMATS, default="json", help="output format")
    common.add_argument("--verbose", action="store_true", help="print elapsed time to stderr")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[common])

    cmd = add_parser("iterate", "orbit listing a_0..a_n")
    cmd.add_argument("--p", required=True, help="parameter as a rational string, e.g. 2/5")
    cmd.add_argument("--steps", type=int, required=True)
    cmd.add_argument("--exact", action="store_true", help="exact rationals (capped step count)")
    cmd.add_argument("--digits", type=int, default=15)

    cmd = add_parser("rate-constant", "C(p) from the infinite product")
    cmd.add_argument("--p", required=True)
    cmd.add_argument("--digits", type=int, default=15)

    cmd = add_parser("table1", "C(p) at the eight reference parameters")
    cmd.add_argument("--digits", type=int, default=15)

    cmd = add_parser("derive", "critical-series coefficients c[i][j]")
    cmd.add_argument("--order", type=int, default=4)

    cmd = add_parser("critical-c", "critical constant from the Abel coordinate")
    cmd.add_argument("--N", type=int, default=10**6, help="orbit depth")
    cmd.add_argument("--order", type=int, default=6, help="degree M of the Abel series H")
    cmd.add_argument("--precision", type=int, default=60)

    cmd = add_parser("residual-check", "|a_k - series(k)| at doubling k")
    cmd.add_argument("--order", type=int, default=4)
    cmd.add_argument("--N", type=int, default=10240, help="largest step index")

    cmd = add_parser("sums", "power sum s_m of the logistic orbit")
    cmd.add_argument("--m", type=int, default=2)
    cmd.add_argument("--digits", type=int, default=12)

    cmd = add_parser("s1", "regularized sum s_1")
    cmd.add_argument("--digits", type=int, default=8)

    cmd = add_parser("bootstrap", "residual of c = 2 + gamma + sum of s_m")
    cmd.add_argument("--digits", type=int, default=6)

    cmd = add_parser("diverge-check", "harmonic-style divergence diagnostic")
    cmd.add_argument("--N", type=int, default=10**4)
    return parser


# ---------------------------------------------------------------------------
# command handlers: each returns (rows, single_object)
# ---------------------------------------------------------------------------


def _cmd_iterate(args):
    params = classify(parse_rational(args.p))
    if args.digits < 1:
        raise DomainError("digits must be at least 1")
    if args.exact:
        samples = iterate_exact(params, args.steps)
        rows = [{"k": s.k, "a": _exact_text(s.a)} for s in samples]
    else:
        samples = iterate_real(params, args.steps, args.digits + GUARD_DIGITS)
        rows = [{"k": s.k, "a": s.a.digit_string(args.digits)} for s in samples]
    return rows, False


def _exact_text(value: Fraction) -> str:
    """``str(value)`` with no limit on the digits of an integer (``str(int)``
    stops at 4300 digits, a length exact orbits pass within 13 steps)."""
    numerator = _int_text(value.numerator)
    if value.denominator == 1:
        return numerator
    return f"{numerator}/{_int_text(value.denominator)}"


#: Exact integer arithmetic: no rounding at any length.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=[decimal.Inexact]
)

#: Integers below 2**_SPLIT_BITS go through ``Decimal(int)`` directly.
_SPLIT_BITS = 2048


def _int_text(n: int) -> str:
    """The decimal digits of ``n``, in subquadratic time.

    ``Decimal(int)`` is quadratic in the length.  Split on the bits,
    n = high * 2**h + low, convert both halves recursively, and recombine
    in exact ``Decimal`` arithmetic, whose multiplication of long numbers
    is subquadratic.
    """
    powers: dict[int, Decimal] = {}

    def power(bits: int) -> Decimal:  # 2**bits, exactly
        if bits not in powers:
            if bits <= _SPLIT_BITS:
                powers[bits] = Decimal(1 << bits)
            else:
                powers[bits] = _EXACT.multiply(power(bits // 2), power(bits - bits // 2))
        return powers[bits]

    def digits(m: int, bits: int) -> Decimal:  # 0 <= m < 2**bits
        if bits <= _SPLIT_BITS:
            return Decimal(m)
        low_bits = bits // 2
        high, low = m >> low_bits, m & ((1 << low_bits) - 1)
        return _EXACT.fma(digits(high, bits - low_bits), power(low_bits), digits(low, low_bits))

    text = str(digits(abs(n), n.bit_length()))
    return f"-{text}" if n < 0 else text


def _rate_row(result):
    return {
        "p": str(result.p),
        "C": result.digit_string(),
        "factors_used": result.factors_used,
        "tail_bound": str(result.tail_bound),
    }


def _cmd_rate_constant(args):
    return [_rate_row(rate_constant(parse_rational(args.p), args.digits))], True


def _cmd_table1(args):
    return [_rate_row(r) for r in rate_constant_table(args.digits)], False


def _cmd_derive(args):
    if args.order < 3:
        raise DomainError("derive needs order >= 3 (orders 1 and 2 are the seeds)")
    table = solve_coefficients(args.order)
    if args.format == "text":
        return table.format_text_lines(), False
    rows = [{"i": i, "j": j, "coeffs": poly.coeff_strings()} for i, j, poly in table.iter_entries()]
    return rows, False


def _cmd_critical(args):
    est = estimate_constant(args.N, args.order, args.precision)
    row = {
        "C": str(est.C),
        "N": est.depth,
        "order": est.order,
        "truncation_bound": str(est.truncation_bound),
    }
    return [row], True


#: Working precision of residual-check, the least at which
#: ``residual_order_check`` estimates C.
_RESIDUAL_PRECISION = 40


def _cmd_residual_check(args):
    if args.N < 10:
        raise DomainError("residual-check needs N >= 10 (indices start at 10)")
    ks = []
    k = 10
    while k <= args.N:
        ks.append(k)
        k *= 2
    rows = [
        {"k": k, "residual": str(res)}
        for k, res in residual_order_check(args.order, ks, _RESIDUAL_PRECISION)
    ]
    return rows, False


def _sum_row(result, digits):
    return {
        "m": result.m,
        "value": result.value.digit_string(digits),
        "terms_summed": result.terms_summed,
        "tail_correction": str(result.tail_correction),
        "error_estimate": str(result.error_estimate),
    }


def _cmd_sums(args):
    return [_sum_row(power_sum(args.m, args.digits), args.digits)], True


def _cmd_s1(args):
    return [_sum_row(regularized_s1(args.digits), args.digits)], True


def _cmd_bootstrap(args):
    report = bootstrap_check(args.digits)
    shown = args.digits + 6
    row = {
        "c": report.c.digit_string(shown),
        "gamma": report.gamma.digit_string(shown),
        "s1": report.s1.digit_string(shown),
        "sum_m_ge_2": report.sum_m_ge_2.digit_string(shown),
        "formula_value": report.formula_value.digit_string(shown),
        "residual": str(report.residual),
    }
    return [row], True


def _cmd_diverge_check(args):
    partial, reference = harmonic_divergence_diagnostic(args.N)
    difference = decimal.Context(prec=partial.precision).subtract(partial.value, reference.value)
    row = {
        "N": args.N,
        "partial_sum": partial.digit_string(DIVERGENCE_DECIMALS),
        "reference": reference.digit_string(DIVERGENCE_DECIMALS),
        "difference": PrecReal(difference, partial.precision).digit_string(DIVERGENCE_DECIMALS),
    }
    return [row], True


_HANDLERS = {
    "iterate": _cmd_iterate,
    "rate-constant": _cmd_rate_constant,
    "table1": _cmd_table1,
    "derive": _cmd_derive,
    "critical-c": _cmd_critical,
    "residual-check": _cmd_residual_check,
    "sums": _cmd_sums,
    "s1": _cmd_s1,
    "bootstrap": _cmd_bootstrap,
    "diverge-check": _cmd_diverge_check,
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_json(rows, single):
    payload = rows[0] if single and len(rows) == 1 else rows
    return json.dumps(payload, indent=2)


def _render_csv(rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    keys = list(rows[0].keys())
    writer.writerow(keys)
    for row in rows:
        writer.writerow([_csv_cell(row[k]) for k in keys])
    return buffer.getvalue().rstrip("\n")


def _csv_cell(value):
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return value


def _render_text(rows, args):
    if args.command == "derive":  # its handler returns the text lines
        return "\n".join(rows)
    keys = list(rows[0].keys())
    cells = [[_text_cell(row[k]) for k in keys] for row in rows]
    widths = [max(len(keys[i]), *(len(r[i]) for r in cells)) for i in range(len(keys))]
    out = ["  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip()]
    for r in cells:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(out)


def _text_cell(value):
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return str(value)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    started = time.perf_counter()
    try:
        rows, single = handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExactCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 4
    except QuadrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(_render_json(rows, single))
    elif args.format == "csv":
        print(_render_csv(rows))
    else:
        print(_render_text(rows, args))
    if args.verbose:
        print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
