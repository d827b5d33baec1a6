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
digits, and the product is accumulated in log space to keep rounding flat.

Digits of these constants are conventionally reported *truncated* (round
toward zero), and ``RateConstantResult.digit_string`` follows that
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_DOWN, Context, Decimal
from fractions import Fraction
from itertools import islice

from .errors import DomainError, RefusalError
from .numerics import GUARD_DIGITS, PrecReal, confirmed_value
from .recurrence import Params, Regime, classify, iterate_real, orbit_decimals

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


def _factor_count(params: Params, digits: int) -> int:
    """Smallest K with q**K / (1 - q) <= 10**-(digits + 2).

    Computed from decimal logarithms at fixed precision (deterministic
    across platforms), then verified and nudged by direct comparison.
    """
    ctx = Context(prec=30)
    q = ctx.divide(Decimal(params.q.numerator), Decimal(params.q.denominator))
    one_minus_q = ctx.subtract(Decimal(1), q)
    # K >= ((digits+2)*ln 10 - ln(1 - q)) / (-ln q)
    needed = ctx.divide(
        ctx.subtract(ctx.multiply(Decimal(digits + 2), ctx.ln(Decimal(10))), ctx.ln(one_minus_q)),
        ctx.minus(ctx.ln(q)),
    )
    k = max(1, int(needed.to_integral_value(rounding=ROUND_DOWN)))
    target = ctx.multiply(Decimal(1).scaleb(-(digits + 2)), one_minus_q)

    def q_power(n: int) -> Decimal:
        return ctx.exp(ctx.multiply(Decimal(n), ctx.ln(q)))

    while q_power(k) > target:
        k += 1
    while k > 1 and q_power(k - 1) <= target:
        k -= 1
    return k


def rate_constant(p, digits: int = 15) -> RateConstantResult:
    """C(p) certified to ``digits`` decimal places.

    ``digits < 1`` is a domain error.  Refuses the critical point (no
    geometric rate exists there) and ratios q > 999/1000.  The product is
    evaluated at ``digits + 20`` working digits and confirmed by a rerun
    with 20 more; the returned ``PrecReal`` is the higher-precision run.
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

    k_factors = _factor_count(params, digits)

    def compute(precision: int) -> PrecReal:
        ctx = Context(prec=precision)
        r_dec = PrecReal(params.r, precision).value
        two_r = PrecReal(2 * params.r, precision).value
        log_sum = Decimal(0)
        for a in islice(orbit_decimals(params, precision), k_factors):
            factor = ctx.divide(ctx.add(r_dec, a), two_r)
            log_sum = ctx.add(log_sum, ctx.ln(factor))
        return PrecReal(ctx.multiply(r_dec, ctx.exp(log_sum)), precision)

    working = digits + GUARD_DIGITS
    value = confirmed_value(compute, digits, working)
    tail = PrecReal(params.q ** k_factors / (1 - params.q), working)
    return RateConstantResult(
        p=params.p,
        q=params.q,
        C=value,
        factors_used=k_factors,
        tail_bound=tail,
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
