"""Geometric-rate constants C(p) for the noncritical regimes.

Away from p = 1/2 the residual b_k = r - a_k decays geometrically with
ratio q = 2*r*p, and the normalised residuals converge to a constant:

    b_{k+1} = p*(r + a_k)*b_k,   so   b_k / q**k = r * prod_{j<k} (r + a_j)/(2r)

is a strictly decreasing sequence of partial products whose limit

    C(p) = r * prod_{j>=0} (r + a_j) / (2r)

satisfies b_k ~ C(p) * q**k.  Each factor lies in (1/2, 1) and differs from
1 by b_j/(2r) <= q**j / 2, so the tail of the product after K factors is
bounded:  partial_K >= C >= partial_K * (1 - q**K/(1 - q)).  Choosing the
smallest K with q**K/(1 - q) <= 10**-(D+2) therefore pins the first D
digits.  The K-th partial product is evaluated as b_K / q**K, with b_K
drawn from the residual stream ``recurrence.residual_decimals``,

    b_0 = r,   b_{k+1} = b_k * (q - p*b_k)    (q - p*b_k = p*(r + a_k)),

and a single division by q**K at the end.  Both factors are positive, so
nothing cancels, and no logarithm is taken.  The product runs once: the
stream's derived relative bound, (3.02 K + 2.01) 10**(1 - P) at P working
digits, covers b_K and the division, so nothing is confirmed by a rerun.

Digits of these constants are conventionally reported *truncated* (round
toward zero), and ``RateConstantResult.digit_string`` follows that
convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_DOWN, Context, Decimal
from fractions import Fraction
from itertools import islice

from .errors import DomainError, RefusalError
from .numerics import GUARD_DIGITS, PrecReal
from .recurrence import Params, Regime, check_depth, classify, residual_decimals

# Not used here: the benchmark's tracer wraps this name in this module.
from .numerics import confirmed_value  # noqa: F401

#: The eight parameter points of the standard reference table.
TABLE_PS = (
    Fraction(1, 5),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(2, 5),
    Fraction(3, 5),
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(4, 5),
)

#: Contraction ratios above this are refused: the factor count K grows like
#: 1/(1 - q) and the constant itself degenerates as q -> 1.
Q_MAX = Fraction(999, 1000)

#: Digit requests above this are refused, by ``rate_constant`` and so by the
#: table: the factor count and the working precision both grow with the
#: digits (2000 digits took 3.6 s on a 2-core Intel Xeon).
MAX_DIGITS = 50


@dataclass(frozen=True)
class RateConstantResult:
    """C(p) together with the evidence that its digits are trustworthy."""

    p: Fraction
    q: Fraction
    C: PrecReal
    factors_used: int
    tail_bound: PrecReal
    digits: int

    def digit_string(self, digits: int | None = None) -> str:
        """Truncated fixed-point digits (the table convention)."""
        return self.C.digit_string(self.digits if digits is None else digits, ROUND_DOWN)


@dataclass(frozen=True)
class DiagnosticRow:
    """One convergence sample: k, residual b_k, and normalised b_k/q^k."""

    k: int
    b: PrecReal
    ratio: PrecReal


def _factor_count(params: Params, digits: int) -> tuple[int, Fraction]:
    """Smallest K with q**K / (1 - q) <= 10**-(digits + 2), and q**K exactly.

    With q = n/d in lowest terms, K >= ((digits + 2) ln 10 + ln d
    - ln(d - n)) / (ln d - ln n) gives the start.  ``math.log`` takes the
    integers themselves, so the start is finite even where q underflows a
    float.  Exact rational comparisons then step K by one factor of q to
    the smallest K that passes, so K does not depend on any rounding.
    """
    n, d = params.q.numerator, params.q.denominator
    needed = ((digits + 2) * math.log(10) + math.log(d) - math.log(d - n)) / (
        math.log(d) - math.log(n)
    )
    k = max(1, int(needed))
    q = params.q
    target = (1 - q) / 10 ** (digits + 2)
    q_power = q**k
    while q_power > target:
        q_power *= q
        k += 1
    while k > 1 and q_power / q <= target:
        q_power /= q
        k -= 1
    return k, q_power


def rate_constant(p, digits: int = 15) -> RateConstantResult:
    """C(p) certified to ``digits`` decimal places, in one pass.

    ``digits < 1`` is a domain error.  Refuses the critical point (no
    geometric rate exists there), ratios q > 999/1000 and more than
    ``MAX_DIGITS`` digits, each before any work.  The residual
    stream runs once at P = digits + 2*GUARD_DIGITS working digits, and
    ``C`` is the K-th partial product b_K / q**K to within the relative
    bound (3.02 K + 2.01) 10**(1 - P) derived in
    ``recurrence.residual_decimals`` (valid for u <= 10**-6 and
    8Ku <= 10**-3, u = 10**(1 - P)/2).  At P = digits + 40 that is below
    10**-(digits + 30) for K < 3*10**8 and below 10**-(digits + 29) for
    K < 10**9, far below the truncated last digit; the tail bound covers
    the distance from the partial product to C.
    """
    if digits < 1:
        raise DomainError("digits must be at least 1")
    params = classify(p)
    if params.regime is Regime.CRITICAL:
        raise RefusalError(
            "p = 1/2 is the critical point: the approach is algebraic, not geometric; "
            "use the critical-constant module instead"
        )
    if params.q > Q_MAX:
        raise RefusalError(
            f"contraction ratio q = {params.q} exceeds {Q_MAX}; "
            "the product converges too slowly to certify digits"
        )
    if digits > MAX_DIGITS:
        raise RefusalError(f"C(p) is limited to {MAX_DIGITS} digits, got {digits}")

    k_factors, q_power = _factor_count(params, digits)
    precision = digits + 2 * GUARD_DIGITS
    ctx = Context(prec=precision)
    b = next(islice(residual_decimals(params, precision), k_factors, None))
    q = PrecReal(params.q, precision).value
    return RateConstantResult(
        p=params.p,
        q=params.q,
        C=PrecReal(ctx.divide(b, ctx.power(q, k_factors)), precision),
        factors_used=k_factors,
        tail_bound=PrecReal(q_power / (1 - params.q), digits + GUARD_DIGITS),
        digits=digits,
    )


def rate_constant_table(digits: int = 15) -> list[RateConstantResult]:
    """The reference table: C(p) at the eight standard parameter points."""
    return [rate_constant(p, digits) for p in TABLE_PS]


def convergence_diagnostic(p, kmax: int, precision: int) -> list[DiagnosticRow]:
    """Samples (k, b_k, b_k/q^k) for k = 0..kmax.

    The normalised column is exactly the partial product
    r * prod_{j<k}(r + a_j)/(2r): strictly decreasing, bounded below by
    C(p), and equal to it in the limit.  b_k is read from
    ``recurrence.residual_decimals``, so it carries the stream's relative
    bound (3.02 k + 2.01) 10**(1 - P).  The ratio divides by q rounded
    once and multiplied k times, which adds at most (k + 1) 10**(1 - P)
    relative for those roundings and the division.
    """
    params = classify(p)
    if params.regime is Regime.CRITICAL:
        raise RefusalError("p = 1/2 has no geometric rate; use the critical-constant module")
    if kmax < 0:
        raise DomainError("step count must be nonnegative")
    check_depth(kmax)
    ctx = Context(prec=precision)
    q_dec = PrecReal(params.q, precision).value
    q_pow = Decimal(1)
    rows = []
    for k, b in enumerate(islice(residual_decimals(params, precision), kmax + 1)):
        ratio = PrecReal(ctx.divide(b, q_pow), precision)
        rows.append(DiagnosticRow(k=k, b=PrecReal(b, precision), ratio=ratio))
        q_pow = ctx.multiply(q_pow, q_dec)
    return rows
