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
digits.  The K-th partial product is evaluated as b_K / q**K, iterating the
residual itself (q - p*b_k = p*(r + a_k)),

    b_0 = r,   b_{k+1} = b_k * (q - p*b_k),

with one fused multiply-add and one multiplication per step and a single
division by q**K at the end.  Both factors are positive, so nothing cancels,
and no logarithm is taken.  The product runs once: its rounding error is
derived in ``rate_constant`` (relative, below (3.02 K + 2.01) 10**(1 - P) at
P working digits), not confirmed by a rerun.

Digits of these constants are conventionally reported *truncated* (round
toward zero), and ``RateConstantResult.digit_string`` follows that
convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_DOWN, Context, Decimal
from fractions import Fraction

from .errors import DomainError, RefusalError
from .numerics import GUARD_DIGITS, PrecReal
from .recurrence import Params, Regime, classify, iterate_real

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
    geometric rate exists there) and ratios q > 999/1000.  The residual
    product runs once at P = digits + 2*GUARD_DIGITS working digits, and
    ``C`` is the K-th partial product b_K / q**K to within a derived
    relative rounding error (a running-error analysis: Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 3).  Every rounding at P
    digits is off by a relative u = 10**(1 - P)/2 at most.

    * Inputs.  q, p and b_0 = r are rounded once each, to q(1 + t_q),
      p(1 + t_p) and r(1 + e_0), with |t_q|, |t_p|, |e_0| <= u.
    * One step.  Write the computed residual as b_k(1 + e_k), with b_k the
      exact one in (0, r].  Then q - p b_k >= q - p r = p r > 0, so
      A = q/(q - p b_k) lies in [1, 2] and B = p b_k/(q - p b_k) = A - 1
      in [0, 1].  With d_1, d_2 the roundings of the fma and the multiply,
      the step gives exactly

          1 + e_{k+1} = [1 + (1 - B) e_k - B e_k**2
                         + (1 + e_k)(A t_q - B t_p (1 + e_k))] (1 + d_1)(1 + d_2).

      The step's relative condition 1 - B = (q - 2 p b_k)/(q - p b_k)
      lies in [0, 1], and |(1 - B) e - B e**2| <= |e| for |e| <= 1: an
      error already in b_k is never amplified.  The step adds u for each
      rounding, 2u through q and u through p, so for u <= 10**-6 and
      |e_k| <= 10**-3, |e_{k+1}| <= (1 + 8u)|e_k| + 5.01u.  By induction
      |e_K| <= exp(8Ku)(5.01K + 1)u, which stays below 10**-3 while
      8Ku <= 10**-3.
    * The division.  ``ctx.power`` raises q(1 + t_q), which is off from
      q**K by the factor (1 + t_q)**K, by about K u.  It squares at
      P + len(str(K)) + 2 digits and rounds once, which stays within one
      unit 10**(1 - P) = 2u; the final division rounds once more, by u.

    For u <= 10**-6 and 8Ku <= 10**-3 the terms add up, second-order ones
    included, to (6.03 K + 4.02) u < (3.02 K + 2.01) 10**(1 - P).  At
    P = digits + 40 that is below 10**-(digits + 30) for K < 3*10**8 and
    below 10**-(digits + 29) for K < 10**9, far below the truncated last
    digit; the tail bound covers the distance from the partial product to C.
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

    k_factors, q_power = _factor_count(params, digits)
    precision = digits + 2 * GUARD_DIGITS
    ctx = Context(prec=precision)
    fma, multiply = ctx.fma, ctx.multiply
    q = PrecReal(params.q, precision).value
    minus_p = PrecReal(-params.p, precision).value
    b = PrecReal(params.r, precision).value
    for _ in range(k_factors):
        b = multiply(b, fma(minus_p, b, q))
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
    if digits > 50:
        raise RefusalError("the table is limited to 50 digits per entry")
    return [rate_constant(p, digits) for p in TABLE_PS]


def convergence_diagnostic(p, kmax: int, precision: int) -> list[DiagnosticRow]:
    """Samples (k, b_k, b_k/q^k) for k = 0..kmax.

    The normalised column is exactly the partial product
    r * prod_{j<k}(r + a_j)/(2r): strictly decreasing, bounded below by
    C(p), and equal to it in the limit.

    Forming b_k = r - a_k cancels roughly k*log10(1/q) leading digits, so
    deep diagnostics need ``precision`` comfortably above that loss.
    """
    params = classify(p)
    if params.regime is Regime.CRITICAL:
        raise RefusalError("p = 1/2 has no geometric rate; use the critical-constant module")
    ctx = Context(prec=precision)
    q_dec = PrecReal(params.q, precision).value
    q_pow = Decimal(1)
    rows = []
    for sample in iterate_real(params, kmax, precision, sample_ks=range(kmax + 1)):
        ratio = PrecReal(ctx.divide(sample.b.value, q_pow), precision)
        rows.append(DiagnosticRow(k=sample.k, b=sample.b, ratio=ratio))
        q_pow = ctx.multiply(q_pow, q_dec)
    return rows
