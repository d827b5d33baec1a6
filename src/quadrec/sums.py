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
G(x) - G(x - x**2) = g(x) through x**(M+1); g, G and R below are
``CPoly`` polynomials in x.  Then

    sum_{k>N} g(alpha_k) = G(alpha_{N+1}) - sum_{k>N} R(alpha_k),

where R = G(x) - G(x - x**2) - g(x) is exact and starts at x**(M+2).
Since alpha_k <= 1/(k+2), the tail error is at most the derived bound
sum_d |r_d| (N+2)**(1-d)/(d-1) (``series_engine.tail_bound``).  The depth
N = DEPTH = 125 and the order M = ORDER = 29 are fixed.  Each sum walks
N + 1 floored steps, while each order adds only a little to one exact
telescope per sum, so order buys digits more cheaply than depth.  At
(125, 29) every tail bound is below 2e-54, and the worst bound at the
digit caps is s_1's rounding at P = 48 digits; a deeper or higher pair no
longer lowers it.  The worst bound over s_2..s_11 and the family sum at
15 digits and s_1 at 8:

    (N, M)        worst bound
    (10**4, 8)    1.4e-36
    (1000, 8)     1.4e-27
    (1000, 12)    3.8e-39
    (1000, 16)    7.8e-48
    (500, 16)     3.3e-44
    (2000, 16)    7.5e-48
    (125, 16)     4.8e-34
    (125, 24)     6.5e-47
    (250, 24)     7.8e-48
    (125, 29)     6.5e-48
    (125, 34)     6.6e-48

The depth also fixes which digit counts serve m = MAX_POWER.  There G = 0
and ``_bits`` takes B from (N + 2) 10**P, so the served counts follow the
binary length of that product; N = 125 serves the counts that N = 1000
served (see ``power_sum``), where N = 200, for one, would not.

The direct part is one pass over the floored fixed-point orbit of
``recurrence.orbit_integers`` at q = 1: each summand is added as the
integer floor(2**B g(x_k)) to one Python int, G(x_{N+1}) is evaluated at
the same X_{N+1}/2**B in fixed point (``CPoly.at``, low by at most
E 2**-B with E <= 4 counted during the run), and the total is rounded
into a Decimal once.  The rounding of that pass is derived, not
confirmed by a rerun (``_rounding_coefficient`` and E), so the reported
``error_estimate`` is the tail bound plus the rounding bound.
"""

from __future__ import annotations

import math
from decimal import ROUND_CEILING, Context, Decimal
from fractions import Fraction
from itertools import islice
from typing import Callable, NamedTuple, NoReturn

from .critical import estimate_constant
from .errors import RefusalError, check_ranges
from .numerics import (
    _EXACT, GUARD_DIGITS, CPoly, PrecReal, _divide, _int_horner, euler_gamma, rounded_up
)
from .recurrence import MAX_DEPTH, logistic_iterate, orbit_integers
from .series_engine import tail_bound, telescope

# Not used here: the benchmark's tracer wraps or counts these names in this module.
from .recurrence import logistic_decimals  # noqa: F401
from .series_engine import solve_coefficients  # noqa: F401

#: Orbit terms summed directly (k = 0..DEPTH) and the order of the
#: telescoping polynomial G.
DEPTH = 125
ORDER = 29

#: Digit caps of the sums, kept as the documented contract.
MAX_DIGITS_POWER = 15
MAX_DIGITS_S1 = 8
MAX_DIGITS_BOOTSTRAP = 6

#: The largest m that ``power_sum`` runs.  Every larger m has
#: 2**m >= 2.01 * 10**(2*GUARD_DIGITS - 2), and its relative check must
#: refuse at every digit count (see ``power_sum``).
MAX_POWER = (201 * 10 ** (2 * GUARD_DIGITS - 4)).bit_length() - 1

#: Decimal places of the divergence diagnostic's sums.
DIVERGENCE_DECIMALS = 10


class SumResult(NamedTuple):
    """A computed sum with its direct/tail split and error evidence."""

    m: int
    value: PrecReal
    terms_summed: int
    tail_correction: PrecReal
    error_estimate: PrecReal


class S2Witness(NamedTuple):
    """Exact verification data for sum_{k<=n} alpha_k^2 = 1/2 - alpha_{n+1}."""

    n: int
    partial: Fraction
    complement: Fraction
    holds: bool


class BootstrapReport(NamedTuple):
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
#: through x**(ORDER + 1); the coefficients past the degree are at most 1.
_FAMILY = CPoly([0, 0] + [1] * ORDER)
_LOG_REST = CPoly([0, 0] + [Fraction(-1, n) for n in range(2, ORDER + 2)])


class _Summand(NamedTuple):
    """A summand g, telescoped, with what its one-pass sum needs.

    ``floor(X, B)`` is floor(2**B g(X / 2**B)).  G and R solve
    G(x) - G(x - x**2) = g(x) + R(x) through x**(ORDER + 1);
    ``omitted_from`` is as in ``tail_bound``.  ``step`` bounds
    |G'(xi) d + e| 2**B for one orbit step d and one floored summand e;
    ``harmonic`` marks s_1, whose telescoped tail is ln x + G and whose
    G' also holds 1/x (see ``_rounding_coefficient``).
    """

    m: int
    floor: Callable[[int, int], int]
    G: CPoly
    R: CPoly
    omitted_from: int | None
    step: Fraction
    harmonic: bool = False


def _slope(poly: CPoly) -> Fraction:
    """sum_n n |c_n| 2**(1-n): a bound on |P'| over [0, 1/2], summed as one
    integer over the denominator times 2**(deg - 1), by the integer Horner
    rule at 1/2 (``_int_horner``)."""
    total = _int_horner([n * abs(c) for n, c in enumerate(poly._numerators)], 1, 2)
    return Fraction(total, poly._denominator << (poly.degree - 1)) if total else Fraction(0)


def _power_summand(m: int) -> _Summand:
    G, R = telescope(CPoly.variable() ** m, ORDER)
    # for m = 2, floor(X**2 / 2**B) is the orbit's own decrement
    step = Fraction(0) if m == 2 else _slope(G) + 1
    return _Summand(m, lambda x, bits: x**m >> ((m - 1) * bits), G, R, None, step)


def _family_summand() -> _Summand:
    G, R = telescope(_FAMILY, ORDER)
    # 2**B x**2/(1 - x) = X**2/(2**B - X)
    return _Summand(
        0, lambda x, bits: x * x // ((1 << bits) - x), G, R, _FAMILY.degree + 1, _slope(G) + 1
    )


def _s1_summand() -> _Summand:
    H, R = telescope(_LOG_REST, ORDER)
    # floor(2**B x) = X exactly, so e_k = 0; the 1/x of G' is the harmonic term
    return _Summand(1, lambda x, bits: x, H, R, _LOG_REST.degree + 1, _slope(H), harmonic=True)


def _rounding_coefficient(s: _Summand, depth: int) -> Fraction:
    """K with |pass - exact pass| <= K 2**-B at every B, for depth N.

    The pass adds floor(2**B g(x_k)) = 2**B (g(x_k) + e_k), e_k in
    (-2**-B, 0], over the floored orbit x_{k+1} = x_k - x_k**2 + d_k,
    d_k in [0, 2**-B), and adds G(x_{N+1}).  The exact pass is
    sum_{k<=N} g(alpha_k) + G(alpha_{N+1}).  Since G(x_k) - G(x_{k+1}) =
    g(x_k) + R(x_k) - G'(xi_k) d_k, with xi_k between x_k - x_k**2 and
    x_{k+1}, and x_0 = alpha_0, their difference is

        sum_{k<=N} [R(alpha_k) - R(x_k)] + sum_{k<=N} [G'(xi_k) d_k + e_k].

    * 0 <= x_k - alpha_k < k 2**-B (``recurrence.orbit_integers``) and
      every point lies in [0, 1/2], where |R'| is at most ``_slope(R)``,
      plus (L + 1) 2**(2 - L) for terms omitted from x**L on with
      coefficients of size at most 1.  The first sum is below
      |R'| N (N + 1)/2 2**-B.
    * Each term of the second is below ``step`` 2**-B, which is
      ``_slope(G)`` + 1 in general and 0 for g = x**2: there the floored
      summand is the orbit's own decrement, so G' d_k + e_k = d_k + e_k = 0.
    * For s_1, G' = 1/x + H' and xi_k >= alpha_{k+1} (x - x**2 increases on
      [0, 1/2]), with 1/alpha_j <= j + 3 + bit_length(j).  That adds
      sum_{j<=N+1} 1/alpha_j <= (N+1)(N+2)/2 + (N+1)(3 + bit_length(N+1)).
    """
    slope = _slope(s.R)
    if s.omitted_from is not None:
        slope += Fraction(s.omitted_from + 1, 2 ** (s.omitted_from - 2))
    coefficient = slope * depth * (depth + 1) / 2 + s.step * (depth + 1)
    if s.harmonic:
        top = depth + 1
        coefficient += top * (top + 1) // 2 + top * (3 + top.bit_length())
    return coefficient


def _bits(coefficient: Fraction, precision: int) -> int:
    """B with coefficient 2**-B and (DEPTH + 1) 2**-B below 10**-precision.

    The second keeps x_{N+1}, the point behind the reported tail
    correction, within 10**-precision of alpha_{N+1}; for s_2, whose
    rounding coefficient is 0, it alone sets B.
    """
    return (max(math.ceil(coefficient), DEPTH + 1) * 10**precision).bit_length()


def _one_pass(s: _Summand, depth: int, bits: int) -> tuple[int, int, int, int]:
    """(direct part, tail, E, X_{N+1}) of the floored pass at B = ``bits``,
    the first two as integers over 2**B.

    The direct part sums k = 0..depth.  The tail is G(x_{N+1}) in fixed
    point (``CPoly.at``), low by at most E 2**-B, E <= 4.  For s_1 the
    direct part holds no -1/k terms and the tail no harmonic number H_N:
    the two cancel in the total, so the pass leaves both out, and the tail
    holds G(x), not yet ln x - gamma.
    """
    orbit = orbit_integers(Fraction(1), bits)
    direct = sum(s.floor(x, bits) for x in islice(orbit, depth + 1))
    x_last = next(orbit)
    return (direct, *s.G.at(x_last, bits), x_last)


def _telescoped_sum(s: _Summand, digits: int) -> SumResult:
    """sum_{k<=DEPTH} g(alpha_k) + G(alpha_{DEPTH+1}) in one floored pass.

    The working precision is P = digits + 2*GUARD_DIGITS, and ``_bits``
    keeps the rounding of the pass below 10**-P.  For s_1, ln x_{N+1} is
    rounded correctly to P digits and gamma to within one unit.  The total
    is rounded once, and its conversion error is measured exactly.  The
    bound is rounded up, and one above 10**-(digits+2) of the sum is refused.

    For s_m with m >= 5 the part of the bound known before the pass, the
    tail bound plus K/2**B, is tested first.  The pass returns a total
    within that part plus E 2**-B of s_m < 2**-m (1 + 2**(2-m)) (see
    ``power_sum``), and E 2**-B and the rounding of the total each add to
    the bound the most they can add to the sum.
    So once that part exceeds 10**-(digits+2) of s_m's bound plus itself,
    the check after the pass must refuse, and the pass is skipped.
    """
    precision = digits + 2 * GUARD_DIGITS
    coefficient = _rounding_coefficient(s, DEPTH)
    bits = _bits(coefficient, precision)
    bound = tail_bound(s.R, DEPTH + 1, s.omitted_from) + coefficient / (1 << bits)
    if s.m >= 5:
        largest = Fraction(2 ** (s.m - 2) + 1, 4 ** (s.m - 1)) + bound
        if bound * 10 ** (digits + 2) > largest:
            _refuse(bound, digits)
    direct, tail, error, x_last = _one_pass(s, DEPTH, bits)
    total, bound = Fraction(direct + tail, 1 << bits), bound + Fraction(error, 1 << bits)
    ctx = Context(prec=precision)
    # s_1's reported correction G_1(x) + H_N - gamma holds the harmonic
    # number, as sum_{k<=N} floor(2**B/k), which cancels from the total
    harmonic = sum((1 << bits) // k for k in range(1, DEPTH + 1)) if s.harmonic else 0
    correction = _divide(tail + harmonic, 1 << bits, ctx)
    if s.harmonic:
        # x/2**B = x 5**B/10**B, built exactly: str(int) stops at 4300 digits
        log = ctx.ln(_EXACT.scaleb(Decimal(x_last * 5**bits), -bits))
        gamma = euler_gamma(precision).value
        total += Fraction(log) - Fraction(gamma)
        bound += _unit(log, precision) / 2 + _unit(gamma, precision)
        # added from its P-digit parts, the correction keeps only the
        # decimals that the rounding of ln x leaves
        correction = ctx.subtract(ctx.add(correction, log), gamma)
    value = PrecReal(_divide(total.numerator, total.denominator, ctx), precision)
    bound += abs(Fraction(value.value) - total)
    error = rounded_up(bound.numerator, bound.denominator, precision)
    if error.value > _EXACT.scaleb(value.value.copy_abs(), -(digits + 2)):
        _refuse(bound, digits)
    return SumResult(
        m=s.m,
        value=value,
        terms_summed=DEPTH + 1,
        tail_correction=PrecReal(correction, precision),
        error_estimate=error,
    )


def _refuse(bound: Fraction, digits: int) -> NoReturn:
    """Refuse a sum whose ``bound`` exceeds 10**-(digits+2) of it; the
    message gives the bound rounded up to three digits, so never below it."""
    shown = _divide(bound.numerator, bound.denominator, Context(prec=3, rounding=ROUND_CEILING))
    raise RefusalError(
        f"the error bound {shown:E} exceeds 10^-{digits + 2} of the sum; "
        "request fewer digits"
    )


def _unit(value: Decimal, precision: int) -> Fraction:
    """One unit in the last of ``precision`` significant digits of ``value``."""
    return Fraction(10) ** (value.adjusted() + 1 - precision)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def s2_identity_check(n: int) -> S2Witness:
    """Exact witness that sum_{k<=n} alpha_k^2 equals 1/2 - alpha_{n+1}.

    Exact end to end; ``holds`` is exact equality, not a tolerance check.
    The exact-orbit cap applies to ``n``; alpha_{n+1} is one more logistic
    step taken here.

    Every alpha_k is m_k/2**(2**k) with m_k odd, so the squares are summed
    as integers over the common denominator 2**(2**(n+1)): each m_k**2 is
    shifted into place and only the k = n term is odd, so the sum is
    already reduced.  Adding ``Fraction`` squares instead would run gcds on
    numbers of up to 2**(n+1) bits.  The complement is built as
    (1 + (1 - 2*alpha_n)**2)/4, whose operations meet only small gcds, and
    the reduced pairs are compared; a mismatch falls back to comparing the
    two rationals.
    """
    orbit = logistic_iterate(n)
    top = 2 * (orbit[n].denominator.bit_length() - 1)
    numerator = sum(
        a.numerator**2 << (top - 2 * (a.denominator.bit_length() - 1)) for a in orbit
    )
    complement = (1 + (1 - 2 * orbit[n]) ** 2) / 4
    if numerator == complement.numerator and (1 << top) == complement.denominator:
        return S2Witness(n=n, partial=complement, complement=complement, holds=True)
    partial = Fraction(numerator, 1 << top)
    return S2Witness(n=n, partial=partial, complement=complement, holds=partial == complement)


def power_sum(m: int, digits: int) -> SumResult:
    """s_m = sum alpha_k^m for m >= 2, certified to ``digits`` places.

    The tail telescopes with g = x**m; for m = 2 that gives G = x and R = 0,
    the s_2 identity itself, and the pass returns 1/2 exactly.

    An m above ``MAX_POWER`` is refused before any work.  For m >= 3 the
    rounding coefficient K is at least ``step`` (DEPTH + 1) >= DEPTH + 1,
    so ``_bits`` gives 2**B <= 2 ceil(K) 10**P and the rounding term K/2**B
    alone is at least 10**-P/2.002, at P = digits + 2*GUARD_DIGITS.  And
    s_m < 2**-m (1 + 2**(2-m)) for m >= 5, since alpha_0 = 1/2,
    alpha_1 = 1/4 and alpha_k <= 1/(k+2).  The check refuses once the bound
    exceeds 10**-(digits+2) of the computed sum, which lies within the bound
    of s_m; so it refuses once 10**-P/2.002 (1 - 10**-3) >
    10**-(digits+2) s_m, which holds at every digit count whenever
    2**m >= 2.01 * 10**(2*GUARD_DIGITS - 2), that is for m >= 128.
    m = 127 is served at 1, 4, 7, 10 and 13 digits; at every other digit
    count ``_telescoped_sum`` refuses it before the pass.
    """
    # the m = 1 sum only exists regularized
    check_ranges(("m", m, 2, MAX_POWER), ("digits", digits, 1, MAX_DIGITS_POWER))
    return _telescoped_sum(_power_summand(m), digits)


def regularized_s1(digits: int) -> SumResult:
    """s_1 = alpha_0 + sum_{k>=1} (alpha_k - 1/k), certified to ``digits``.

    G_1 = ln x + H telescopes g = x, where H(x) - H(x - x**2) = x +
    ln(1 - x); with the harmonic numbers' limit H_n - ln n -> gamma and
    alpha_n ~ 1/n this gives s_1 = sum_{k<=N} alpha_k + G_1(alpha_{N+1}) -
    gamma.  The direct part keeps the -1/k terms, so the tail correction is
    G_1(alpha_{N+1}) + H_N - gamma.
    """
    check_ranges(("digits", digits, 1, MAX_DIGITS_S1))
    return _telescoped_sum(_s1_summand(), digits)


def sum_of_power_sums(digits: int) -> SumResult:
    """sum_{m>=2} s_m, resummed as the single sum over k of a_k^2/(1-a_k).

    Interchanging the two summations turns the m-family into a geometric
    column sum, so one orbit pass covers every power at once.  Reported
    with ``m = 0`` as the family marker.
    """
    check_ranges(("digits", digits, 1, MAX_DIGITS_POWER))
    return _telescoped_sum(_family_summand(), digits)


def bootstrap_check(digits: int) -> BootstrapReport:
    """Evaluate both sides of c = 2 + gamma + s_1 + sum_{m>=2} s_m.

    The left side is the critical-module constant c = C/2, from a depth
    10**5, order 6 estimate at precision digits + 2*GUARD_DIGITS (its bound,
    truncation plus rounding, is 4.5e-35 at 6 digits); the right side
    is assembled entirely from orbit sums.  Requests beyond 6 digits are
    refused.
    """
    check_ranges(("digits", digits, 1, MAX_DIGITS_BOOTSTRAP))
    precision = digits + 2 * GUARD_DIGITS
    ctx = Context(prec=precision)
    c_half = ctx.divide(estimate_constant(10**5, 6, precision).C.value, 2)
    gamma = euler_gamma(precision)
    s1 = regularized_s1(MAX_DIGITS_S1)
    tail_family = sum_of_power_sums(10)
    formula = ctx.add(ctx.add(2, gamma.value), ctx.plus(s1.value.value))
    formula = ctx.add(formula, ctx.plus(tail_family.value.value))
    return BootstrapReport(
        digits=digits,
        c=PrecReal(c_half, precision),
        gamma=gamma,
        s1=s1.value,
        sum_m_ge_2=tail_family.value,
        formula_value=PrecReal(formula, precision),
        residual=PrecReal(ctx.subtract(c_half, formula), precision),
    )


def harmonic_divergence_diagnostic(n: int) -> tuple[PrecReal, PrecReal]:
    """(sum_{k<=n} alpha_k, ln n + gamma + s_1): the divergence pattern.

    The partial sums of the logistic orbit drift like the harmonic series.
    By the definition of s_1 their gap to the reference is exactly

        reference - partial = (ln n + gamma - H_n) + sum_{k>n} (alpha_k - 1/k),

    with H_n the n-th harmonic number.  Both terms are negative
    (alpha_k <= 1/(k+2)) and tend to 0, so the exact partial sum lies
    above the reference.  The partial sum adds the floored orbit of
    ``orbit_integers`` at q = 1 as one exact integer and rounds it once;
    ``_divergence_precision`` derives its bits and the precision of both
    values.
    """
    check_ranges(("depth", n, 100, MAX_DEPTH))
    precision, bits = _divergence_precision(n)
    ctx = Context(prec=precision)
    walked = _divide(sum(islice(orbit_integers(Fraction(1), bits), n + 1)), 1 << bits, ctx)
    s1 = regularized_s1(MAX_DIGITS_S1)
    reference = ctx.add(ctx.ln(n), euler_gamma(precision).value)
    reference = ctx.add(reference, ctx.plus(s1.value.value))
    return PrecReal(walked, precision), PrecReal(reference, precision)


def _divergence_precision(n: int) -> tuple[int, int]:
    """(P, B) at which sum_{k<=n} alpha_k keeps DIVERGENCE_DECIMALS decimals.

    The sum runs over the floored orbit x_k = X_k / 2**B, and
    0 <= x_k - alpha_k < k 2**-B (``recurrence.orbit_integers``), so it is
    high by less than n (n + 1)/2 2**-B.  B = bit_length(n (n + 1) 10**P)
    keeps that below 10**-P / 2.  alpha_k < 1/(k + 2), so the sum stays
    below ln(n + 2) + 1 (under 100 for every n up to 10**40), and its one
    rounding to P digits is off by at most half a unit of 10**(2 - P).
    With P = DIVERGENCE_DECIMALS + L + 2 for n below 10**L, the working
    precision of the reference as well, both together stay below one unit
    in the (DIVERGENCE_DECIMALS + L)-th decimal place.
    """
    precision = DIVERGENCE_DECIMALS + len(str(n)) + 2
    return precision, (n * (n + 1) * 10**precision).bit_length()
