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

Numerically every sum here is "direct part + accelerated tail".  The orbit
is streamed to depth N; the remainder sum_{k>N} f(k) is replaced by the
Euler--Maclaurin estimate  integral_a^inf f + f(a)/2 - f'(a)/12  at
a = N + 1, where f is the summand's asymptotic model: the first three
terms of the alpha expansion (coefficients from the solved series table at
the numeric critical constant), raised to the appropriate power.
Integrals of ln(x)**j / x**i reduce exactly by integration by parts, so
the tail is evaluated in closed form.  The first *omitted* corrections --
the next series level and the next Euler--Maclaurin term -- provide the
reported ``error_estimate`` (with a safety factor of 10), and N grows by
factors of 10 until that estimate drops below 10**-(D+2) of the running
total.  The fixed three-term tail caps the certifiable digits: D <= 15 for
the power sums and D <= 8 for the regularized sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from .critical import estimate_constant
from .errors import DomainError, PrecisionError, RefusalError
from .numerics import GUARD_DIGITS, PrecReal, euler_gamma, horner
from .recurrence import logistic_decimals, logistic_iterate
from .series_engine import AsymSeries, solve_coefficients

#: Depth schedule for adaptive direct summation.
_CHECKPOINTS = (10**3, 10**4, 10**5, 10**6, 10**7)

#: Digit caps imposed by the fixed three-term tail model.
MAX_DIGITS_POWER = 15
MAX_DIGITS_S1 = 8
MAX_DIGITS_BOOTSTRAP = 6

#: The summand model keeps three series levels; one more feeds the error
#: estimate.
_MODEL_LEVELS = 4


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
# summand models: series in ln(x)**j / x**i with Decimal coefficients
#
# The algebra (products, powers, derivatives, truncation) is AsymSeries from
# the series engine; only the numeric evaluators below are specific to the
# tails.  Series arithmetic rounds in the active decimal context, which
# _run_sum sets to the working precision.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _default_c(precision: int) -> PrecReal:
    """A fresh moderate-depth estimate of the critical constant.

    Depth 10**5 at order 6 carries a truncation bound near 10**-18, far
    beyond what any supported digit request needs.
    """
    return estimate_constant(10**5, 6, max(40, precision)).C


def _alpha_model(c_dec: Decimal, ctx: Context, levels: int = _MODEL_LEVELS) -> AsymSeries:
    """alpha_k ~ sum over 1 <= i <= levels of -c[i][j]/2 * ln(k)**j / k**i."""
    terms = {}
    for (i, j), poly in solve_coefficients(levels).entries.items():
        if poly.is_zero:
            continue
        coeffs = [ctx.divide(Decimal(c.numerator), Decimal(c.denominator)) for c in poly.coeffs]
        terms[(i, j)] = ctx.divide(horner(coeffs, c_dec, ctx).copy_negate(), Decimal(2))
    return AsymSeries(levels, terms)


def _split_levels(model: AsymSeries, keep_through: int) -> tuple[AsymSeries, AsymSeries]:
    """(terms with level <= keep_through, terms at level keep_through + 1)."""
    return model.truncated(keep_through), model.level(keep_through + 1)


def _model_eval(model: AsymSeries, x: Decimal, ctx: Context) -> Decimal:
    ln_x = ctx.ln(x)
    total = Decimal(0)
    for (i, j), coeff in model.terms.items():
        term = ctx.divide(coeff, ctx.power(x, Decimal(i)))
        if j:
            term = ctx.multiply(term, ctx.power(ln_x, Decimal(j)))
        total = ctx.add(total, term)
    return total


def _model_tail_integral(model: AsymSeries, a: Decimal, ctx: Context) -> Decimal:
    """integral_a^inf of the model, exactly by parts (needs every i >= 2)."""
    ln_a = ctx.ln(a)
    total = Decimal(0)
    for (i, j), coeff in model.terms.items():
        if i < 2:
            raise DomainError("tail integral requires decay faster than 1/x")
        base = ctx.divide(
            Decimal(1), ctx.multiply(Decimal(i - 1), ctx.power(a, Decimal(i - 1)))
        )
        # I_t = ln(a)^t * base + t/(i-1) * I_{t-1},  I_0 = base
        integral = base
        for t in range(1, j + 1):
            integral = ctx.add(
                ctx.multiply(ctx.power(ln_a, Decimal(t)), base),
                ctx.multiply(ctx.divide(Decimal(t), Decimal(i - 1)), integral),
            )
        total = ctx.add(total, ctx.multiply(coeff, integral))
    return total


def _em_tail(model: AsymSeries, a: Decimal, ctx: Context) -> Decimal:
    """sum_{k>=a} f(k) ~ integral_a^inf f + f(a)/2 - f'(a)/12."""
    integral = _model_tail_integral(model, a, ctx)
    half = ctx.divide(_model_eval(model, a, ctx), Decimal(2))
    twelfth = ctx.divide(_model_eval(model.derivative(), a, ctx), Decimal(12))
    return ctx.subtract(ctx.add(integral, half), twelfth)


def _error_estimate(
    value_model: AsymSeries, omitted_model: AsymSeries, a: Decimal, ctx: Context
) -> Decimal:
    """Safety-scaled size of the first omitted corrections.

    Two truncations happened: the summand model dropped its next series
    level, and Euler--Maclaurin dropped the f'''(a)/720 term.  Both are
    evaluated and inflated by 10.
    """
    omitted_integral = _model_tail_integral(omitted_model, a, ctx).copy_abs()
    third = value_model.derivative().derivative().derivative()
    em_term = ctx.divide(_model_eval(third, a, ctx).copy_abs(), Decimal(720))
    return ctx.multiply(Decimal(10), ctx.add(omitted_integral, em_term))


# ---------------------------------------------------------------------------
# the shared direct + tail runner
# ---------------------------------------------------------------------------


def _run_sum(term, models, digits: int, precision: int, depth: int | None):
    """Stream the orbit, add the tail model, stop when certifiably accurate.

    ``term(ctx, k, alpha) -> Decimal`` is the direct summand; ``models(ctx,
    c_dec) -> (value_model, omitted_model)`` builds the tail.  Returns
    ``(total, depth_used, tail, error)`` as raw decimals at ``precision``.
    The tail models are built and evaluated with ``ctx`` as the active
    decimal context, so their series arithmetic rounds at ``precision``.
    """
    ctx = Context(prec=precision)
    c_dec = PrecReal(_default_c(precision), precision).value
    with localcontext(ctx):
        value_model, omitted_model = models(ctx, c_dec)
        tolerance = Decimal(1).scaleb(-(digits + 2))
        stream = logistic_decimals(precision)
        partial = Decimal(0)
        k = 0
        # an explicit depth bypasses the adaptive schedule entirely
        schedule = list(_CHECKPOINTS) if depth is None else [depth]
        for n in schedule:
            while k <= n:
                partial = ctx.add(partial, term(ctx, k, next(stream)))
                k += 1
            a = Decimal(n + 1)
            tail = _em_tail(value_model, a, ctx)
            error = _error_estimate(value_model, omitted_model, a, ctx)
            total = ctx.add(partial, tail)
            if depth is not None and n == depth:
                return total, n, tail, error
            if error <= ctx.multiply(tolerance, total.copy_abs()):
                return total, n, tail, error
    raise RefusalError(
        f"no depth up to {_CHECKPOINTS[-1]} brings the tail error below "
        f"10^-{digits + 2} of the sum; request fewer digits"
    )


def _ladder_sum(term, models, m: int, digits: int, depth: int | None) -> SumResult:
    """Run ``_run_sum`` at D+20 digits, confirm at D+40, report the better run."""
    working = digits + GUARD_DIGITS
    lo_total, n_used, _lo_tail, _lo_err = _run_sum(term, models, digits, working, depth)
    hi_total, _n2, hi_tail, hi_err = _run_sum(term, models, digits, working + GUARD_DIGITS, n_used)
    if abs(lo_total - hi_total) > Decimal(1).scaleb(-digits):
        raise PrecisionError(
            f"reruns at precisions {working} and {working + GUARD_DIGITS} disagree "
            f"beyond 10^-{digits}"
        )
    hi = working + GUARD_DIGITS
    return SumResult(
        m=m,
        value=PrecReal(hi_total, hi),
        terms_summed=n_used + 1,
        tail_correction=PrecReal(hi_tail, hi),
        error_estimate=PrecReal(hi_err, hi),
    )


def _check_digits(digits: int, cap: int, quantity: str) -> None:
    """Reject a digit request below 1 (domain) or above the tail model's cap."""
    if digits < 1:
        raise DomainError("digits must be positive")
    if digits > cap:
        raise RefusalError(
            f"the three-term tail model certifies at most {cap} digits "
            f"for {quantity}, got {digits}"
        )


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


def power_sum(m: int, digits: int, *, depth: int | None = None) -> SumResult:
    """s_m = sum alpha_k^m for m >= 2, certified to ``digits`` places.

    ``depth`` overrides the adaptive direct-summation cutoff (diagnostics
    and self-consistency tests); the accuracy contract then degrades to
    whatever the reported error_estimate says.
    """
    if m < 2:
        raise DomainError("power sums need m >= 2; the m = 1 sum only exists regularized")
    _check_digits(digits, MAX_DIGITS_POWER, "power sums")

    def term(ctx, k, alpha):
        return _pow_int(ctx, alpha, m)

    def models(ctx, c_dec):
        full = _alpha_model(c_dec, ctx).truncated(m + 3) ** m
        return _split_levels(full, m + 2)

    return _ladder_sum(term, models, m, digits, depth)


def regularized_s1(digits: int, *, depth: int | None = None) -> SumResult:
    """s_1 = alpha_0 + sum_{k>=1} (alpha_k - 1/k), certified to ``digits``.

    The summand decays like -ln(k)/k^2, so the direct part needs deep
    cutoffs; the series model (whose 1/k level cancels exactly against the
    regularizer) accelerates it to the supported 8 digits.
    """
    _check_digits(digits, MAX_DIGITS_S1, "the regularized sum")

    one = Decimal(1)

    def term(ctx, k, alpha):
        if k == 0:
            return alpha
        return ctx.subtract(alpha, ctx.divide(one, Decimal(k)))

    def models(ctx, c_dec):
        base = _alpha_model(c_dec, ctx)
        base = base - base.level(1)  # cancelled exactly by the 1/k regularizer
        return _split_levels(base, 3)

    return _ladder_sum(term, models, 1, digits, depth)


def sum_of_power_sums(digits: int, *, depth: int | None = None) -> SumResult:
    """sum_{m>=2} s_m, resummed as the single sum over k of a_k^2/(1-a_k).

    Interchanging the two summations turns the m-family into a geometric
    column sum, so one orbit pass covers every power at once.  Reported
    with ``m = 0`` as the family marker.
    """
    _check_digits(digits, MAX_DIGITS_POWER, "the sum of power sums")

    one = Decimal(1)

    def term(ctx, k, alpha):
        return ctx.divide(ctx.multiply(alpha, alpha), ctx.subtract(one, alpha))

    def models(ctx, c_dec):
        base = _alpha_model(c_dec, ctx)
        # alpha^2/(1-alpha) = alpha^2 * (1 + alpha + alpha^2 + alpha^3 + ...);
        # alpha^2 starts at 1/k**2, so the geometric factor through 1/k**3
        # carries the product through 1/k**5
        geometric = power = AsymSeries(3, {(0, 0): Decimal(1)})
        for _ in range(3):
            power = power * base
            geometric = geometric + power
        square = base.truncated(5) ** 2
        full = square * geometric.truncated(5)
        return _split_levels(full, 4)

    return _ladder_sum(term, models, 0, digits, depth)


def bootstrap_check(digits: int) -> BootstrapReport:
    """Evaluate both sides of c = 2 + gamma + s_1 + sum_{m>=2} s_m.

    The left side is the critical-module constant c = C/2; the right side
    is assembled entirely from orbit sums.  The residual is limited by the
    8-digit cap on s_1, so requests beyond 6 digits are refused.
    """
    _check_digits(digits, MAX_DIGITS_BOOTSTRAP, "the bootstrap residual (s_1 caps it)")
    precision = digits + 2 * GUARD_DIGITS
    c_half = PrecReal(_default_c(precision), precision) / 2
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
