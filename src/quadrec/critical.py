"""Numeric determination of the critical constants.

The formal expansion at p = 1/2 (see ``series_engine``) leaves exactly one
constant undetermined: C = c[2][0].  It is pinned here by the Abel (Fatou)
coordinate of the parabolic fixed point.  In alpha = (1 - a)/2 the critical
map is x -> x - x**2 from alpha_0 = 1/2, and

    phi(x) = 1/x + ln x + H(x),    H(x) = sum_{n>=1} h_n x**n,

turns it into a translation, phi(x - x**2) = phi(x) + 1.  Because
1/(x - x**2) - 1/x = 1/(1 - x) and ln(x - x**2) - ln x = ln(1 - x), that
is the telescoping equation

    H(x) - H(x - x**2) = sum_{n>=2} (1 - 1/n) x**n,

which ``series_engine.telescope`` solves exactly (h_1 = 1/2, h_2 = 1/3,
h_3 = 13/36, ...).  Along the orbit phi(alpha_k) = k + c with c = C/2, so
with H_M the degree-M truncation and R its exact residual polynomial,

    c = phi_M(alpha_N) - N + sum_{k>=N} rho(alpha_k),
    rho(x) = phi_M(x - x**2) - phi_M(x) - 1
           = sum_{n>=M+2} (1 - 1/n) x**n - R(x).

The reported ``truncation_bound`` is in C units, rounded up to P digits,
and covers both errors:

* truncation: twice ``series_engine.tail_bound`` of R from k = N on, with
  the omitted terms of the series from x**(M+2) on;
* rounding: alpha_N is ``recurrence.logistic_point``, the orbit in binary
  fixed point x = X/2**B with floored squares, above alpha_N by less than
  a relative quarter unit of its P-th digit; 1/x and ln x take x rounded
  once to P digits, half a unit more.  The bound keeps the wider budget
  of a relative N * 10**(1-P).
  phi turns that into an absolute error of at most 1/alpha_N <= N + 3 +
  ln N times as much (1/alpha_n = 2 + n + sum_{k<n} alpha_k/(1 - alpha_k)).
  H_M is evaluated at X/2**B itself in fixed point (``CPoly.at``), within
  4 2**-B, far below one unit of 10**(1-P), and the Decimal steps of
  phi_M add a few rounding units of N.  In C units all of it stays below
  2 (N + 4)(N + 2 + bit_length(N)) 10**(1-P).

A request deeper than ``WALK_DEPTH`` keeps its own bound B, computed as
above at (N, M, P), and is answered by the shallower estimate
2 (phi_M'(alpha_W) - W), whose own bound at (W, M', P) is at most B
(``_plan``).  W is the depth of a fixed ladder, 10**2, 10**3 or 10**4,
with the least modelled cost, and M' the least order that meets B there.
That estimate lies within its own bound of C, so within B; only its
digits below B differ from those of a walk to N.  The Abel series is
Gevrey-1, |h_n| ~ n!/(2 pi)**n (Sauzin, arXiv:1405.0356), so a shorter
walk takes a higher order: at the caps M' is 129, 58 or 40 at W = 10**2,
10**3 or 10**4, and the plan takes 10**3.  At x <= 1/(W + 1) the series
part keeps sum |h_k| x**k <= x at each of these orders, and at those of
the CLI default's request (a test checks both), so the series adds less
than x to phi_M', and its fixed-point value is within 4 2**-B whatever
the size of its coefficients, as the rounding bullet allows.

alpha_N comes from the logistic map itself: forming (1 - a_N)/2 would
cancel about log10(N) digits.  The logistic tail constant is c = C/2, and
exp(c - 1) is the limit comparison constant for the product form of the
orbit.
"""

from __future__ import annotations

from decimal import Context
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DomainError, check_ranges
from .numerics import CPoly, PrecReal, _divide, rounded_up
from .recurrence import MAX_DEPTH, classify, iterate_real, logistic_point
from .series_engine import (
    MAX_ORDER,
    _half_sum,
    eval_series_coeffs,
    solve_coefficients,
    tail_bound,
    telescope,
)

# Not used here: the benchmark's tracer wraps this name in this module.
from .recurrence import final_value  # noqa: F401

_CRITICAL_P = Fraction(1, 2)

#: The deepest orbit point ``estimate_constant`` walks; a deeper request is
#: answered at a depth of ``_LADDER``, within its own bound.  Walking 10**4
#: steps takes 2-4 ms at precision 60 on a 2-core Intel Xeon with Python
#: 3.11, where the planned estimate at the CLI default takes about 1 ms.
WALK_DEPTH = 10**4

#: The walk depths ``_plan`` chooses from for a deeper request.  Within the
#: caps its cost model takes 10**2 or 10**3; at the caps the cost of 10**4
#: is 12% above that of 10**3, so 10**4 comes in only for smaller bounds.
_LADDER = (100, 1000, WALK_DEPTH)

#: The measured cost, in orbit bit-steps, of the order search and the
#: evaluation of phi at one walk depth, per cube of the depth's
#: omitted-terms order (``_omitted_order``).  On the host above it matches
#: that cost within about a factor of 2 from order 30 on, where it decides
#: between depths: a shallow depth takes a high order, and its search runs
#: further past the omitted-terms order.  Below, a fixed cost of under 1 ms
#: that no depth avoids dominates, and the walk term decides.
_ORDER_COST = 80

#: The highest precision ``estimate_constant`` accepts.  Past it no request
#: within ``MAX_ORDER`` and ``recurrence.MAX_DEPTH`` certifies another digit:
#: the least truncation bound, at order 20 and depth 10**7, is about
#: 8e-144, and the rounding term at precision 200 is below 1e-184.
MAX_PRECISION = 200

#: The working precision of ``residual-check``, and the least at which
#: ``residual_order_check`` estimates its own C.
RESIDUAL_PRECISION = 40


class CriticalEstimate(NamedTuple):
    """The constant C~ with the run parameters and error evidence.

    ``depth``, ``order`` and ``precision`` are the request's, also when a
    request deeper than ``WALK_DEPTH`` is answered at the depth and order
    that ``_plan`` chooses.
    ``newton_iterations`` is always 0; it stays only because the
    benchmark's tracer reads it.
    """

    C: PrecReal
    depth: int
    order: int
    precision: int
    truncation_bound: PrecReal
    newton_iterations: int = 0


def _abel_summand(order: int) -> CPoly:
    """sum_{n>=2} (1 - 1/n) x**n through x**(order + 1): the family summand
    x**2/(1 - x) of ``sums`` plus its s_1 summand x + ln(1 - x)."""
    return CPoly([0, 0] + [1 - Fraction(1, n) for n in range(2, order + 2)])


def _rounding(depth: int, precision: int) -> Fraction:
    """The rounding term of the bound at (depth, precision), in C units."""
    return Fraction(2 * (depth + 4) * (depth + 2 + depth.bit_length()), 10 ** (precision - 1))


def _cost(walk: int, order: int, precision: int) -> int:
    """The modelled cost of the plan at (walk, order, precision), in orbit
    bit-steps, with ``order`` the omitted-terms order at ``walk``: the walk
    is about walk * bits(precision), and the rest ``_ORDER_COST`` * order**3."""
    return walk * (10**precision).bit_length() + _ORDER_COST * order**3


def _omitted_order(walk: int, budget: Fraction) -> int:
    """The least order M >= 3 whose omitted terms alone, the term
    (b + 1)/(b**(M+2) (M + 1)) of ``tail_bound`` with b = walk + 1, keep the
    truncation bound at ``walk`` within ``budget``.  No lower order meets
    the budget there, and finding it builds no telescope."""
    base, order, power = walk + 1, 3, (walk + 1) ** 5
    while (base + 1) * budget.denominator > budget.numerator * power * (order + 1):
        order, power = order + 1, power * base
    return order


def _least_order(walk: int, budget: Fraction, order: int) -> tuple[int, CPoly]:
    """(M', H): the least order M' >= ``order`` whose own truncation bound
    at ``walk`` is at most ``budget``, and H = H_M'.

    ``telescope`` builds an order only if the first coefficient of its
    residual, [x**(M+2)] R = (half sum of G at M + 2), keeps that one term
    of ``tail_bound``'s sum within budget; an order whose first term fails
    fails the whole bound.  Between builds G is stepped on by the same half
    sum, G_{M+1} = (g_{M+2} - [x**(M+2)] R)/(M + 1) with
    g_{M+2} = (M + 1)/(M + 2), as ``telescope`` solves it, so the orders
    that fail cost one half sum each.
    """
    while True:
        H, R = telescope(_abel_summand(order), order)
        if tail_bound(R, walk, order + 2) <= budget:
            return order, H
        G = list(H._numerators) + [0] * (order + 1 - len(H._numerators))
        den, first = H._denominator, _half_sum(G, order + 2)
        while True:
            m = order + 1
            G = [m * (m + 1) * n for n in G] + [m * den - (m + 1) * first]
            den *= m * (m + 1)
            order, first = m, _half_sum(G, m + 2)
            if tail_bound(CPoly._over([0] * (m + 2) + [first], den), walk, m + 2) <= budget:
                break


def _plan(depth: int, order: int, precision: int) -> tuple[int, int, CPoly, Fraction]:
    """(W, M', H, B): the request's own bound B at (depth, order,
    precision), and the walk depth W and order M' that answer it, with
    H = H_M'.

    A request no deeper than ``WALK_DEPTH`` is walked as asked.  A deeper
    one takes the depth W of ``_LADDER`` whose ``_cost`` at its
    omitted-terms order is least, and there the least order M' whose own
    bound at (W, M', precision) is at most B.  No telescope is built at a
    depth that is not taken.
    """
    H, R = telescope(_abel_summand(order), order)
    bound = 2 * tail_bound(R, depth, order + 2) + _rounding(depth, precision)
    if depth <= WALK_DEPTH:
        return depth, order, H, bound
    budgets = {walk: (bound - _rounding(walk, precision)) / 2 for walk in _LADDER}
    lows = {walk: _omitted_order(walk, budget) for walk, budget in budgets.items()}
    walk = min(_LADDER, key=lambda w: _cost(w, lows[w], precision))
    return (walk, *_least_order(walk, budgets[walk], lows[walk]), bound)


def estimate_constant(depth: int = 10**6, order: int = 6, precision: int = 60) -> CriticalEstimate:
    """Estimate C = 2 (phi_M(alpha_depth) - depth), with M = ``order``.

    ``depth >= 100``, ``order >= 3`` and ``precision >= 20`` are required.
    Before any work, depths above ``recurrence.MAX_DEPTH`` are refused as
    every orbit walk refuses them, orders above ``series_engine.MAX_ORDER``
    as every series command refuses them, and precisions above
    ``MAX_PRECISION``.  The returned ``truncation_bound`` covers the
    truncation of H and the rounding at ``precision`` (see the module
    docstring), so a low precision widens the bound instead of being
    refused.  A depth above ``WALK_DEPTH`` is answered by a shallower
    estimate within that bound, as the module docstring describes.
    """
    check_ranges(
        ("depth", depth, 100, MAX_DEPTH),
        ("order", order, 3, MAX_ORDER),
        ("precision", precision, 20, MAX_PRECISION),
    )
    walk, _order, H, bound = _plan(depth, order, precision)
    ctx = Context(prec=precision)
    # phi = 1/x + ln x + H(x) at x = X/2**B, with H in fixed point
    x, bits = logistic_point(walk, precision)
    alpha, series = (_divide(n, 1 << bits, ctx) for n in (x, H.at(x, bits)[0]))
    phi = ctx.add(ctx.add(ctx.divide(1, alpha), ctx.ln(alpha)), series)
    return CriticalEstimate(
        C=PrecReal(ctx.multiply(2, ctx.subtract(phi, walk)), precision),
        depth=depth,
        order=order,
        precision=precision,
        truncation_bound=rounded_up(bound.numerator, bound.denominator, precision),
    )


def logistic_constant(estimate: CriticalEstimate) -> tuple[PrecReal, PrecReal]:
    """The logistic-form constants (c, exp(c - 1)) with c = C/2.

    Under alpha = (1 - a)/2 the critical orbit becomes the boundary
    logistic map and its tail expansion carries the constant c = C/2;
    exp(c - 1) is the associated limit of k * alpha_k * prod-form
    comparisons.  Both are computed at the precision of ``estimate.C``.
    """
    precision = estimate.C.precision
    ctx = Context(prec=precision)
    c = ctx.divide(estimate.C.value, 2)
    return PrecReal(c, precision), PrecReal(ctx.exp(ctx.subtract(c, 1)), precision)


def residual_order_check(
    order: int,
    ks: Sequence[int],
    precision: int,
    *,
    c_value: PrecReal | None = None,
) -> list[tuple[int, PrecReal]]:
    """Samples (k, |a_k - S(k)|) for the given steps, S the order-``order``
    truncation of the expansion with C = ``c_value``.

    The residual of an order-I truncation shrinks like ln(k)**I / k**(I+1),
    so on a log-log plot against k the points fall near slope -(I+1) (up to
    the slowly varying log factor).  ``c_value`` defaults to a fresh
    moderate-depth estimate so the check never needs externally supplied
    constants; that estimate works at order ``max(order, 4)`` and at least
    ``RESIDUAL_PRECISION`` digits.  C, rounded
    to ``precision`` digits, is substituted once, exactly, into every
    c[i][j] (``CoefficientTable.substitute``), and each sample evaluates
    the expansion at those values.  A sample deeper than
    ``recurrence.MAX_DEPTH`` is refused before anything is solved or
    estimated.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        raise DomainError("at least one step index is required")
    check_ranges(
        ("order", order, 1, None), ("step", ks[0], 10, None), ("depth", ks[-1], 10, MAX_DEPTH)
    )
    table = solve_coefficients(max(order, 2))
    if c_value is None:
        c_value = estimate_constant(10**5, max(order, 4), max(precision, RESIDUAL_PRECISION)).C
    ctx = Context(prec=precision)
    values = table.substitute(Fraction(ctx.plus(c_value.value)), order, precision)
    samples = iterate_real(classify(_CRITICAL_P), ks[-1], precision, sample_ks=ks)
    residuals = []
    for s in samples:
        series = eval_series_coeffs(values, s.k, precision)
        residuals.append((s.k, PrecReal(ctx.subtract(s.a.value, series).copy_abs(), precision)))
    return residuals
