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

The reported ``truncation_bound`` is in C units and covers both errors:

* truncation: twice ``series_engine.tail_bound`` of R from k = N on, with
  the omitted terms of the series from x**(M+2) on;
* rounding: ``orbit_point`` gives alpha_N off by less than a relative 3/4
  unit of its P-th digit.  Up to ``WALK_DEPTH`` steps it is
  ``recurrence.logistic_point``, the orbit in binary fixed point with
  floored squares and one final rounding.  Deeper, it walks
  ``WALK_DEPTH`` steps at P + 5 digits and transports the point the rest
  of the way by phi itself, at an order whose tail bound is at most
  N 10**(1-P)/32, and keeps it only inside a verified bracket (see
  there).  The bound keeps the wider budget of a relative N * 10**(1-P).
  phi turns that into an absolute error of at most 1/alpha_N <= N + 3 +
  ln N times as much (1/alpha_n = 2 + n + sum_{k<n} alpha_k/(1 - alpha_k)),
  and evaluating phi_M adds a few rounding units of N.  In C units all of
  it stays below 2 (N + 4)(N + 2 + bit_length(N)) 10**(1-P).

alpha_N comes from the logistic map itself: forming (1 - a_N)/2 would
cancel about log10(N) digits.  The logistic tail constant is c = C/2, and
exp(c - 1) is the limit comparison constant for the product form of the
orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, EngineError, RefusalError
from .numerics import CPoly, PrecReal, horner
from .recurrence import _logistic_fixed, check_depth, classify, iterate_real, logistic_point
from .series_engine import MAX_ORDER, eval_series, solve_coefficients, tail_bound, telescope

# Not used here: the benchmark's tracer wraps these names in this module.
from .recurrence import final_value  # noqa: F401
from .series_engine import eval_series_coeffs  # noqa: F401

_CRITICAL_P = Fraction(1, 2)

#: ``orbit_point`` walks at most this many steps and transports a deeper
#: point the rest of the way.  Walking 10**4 steps costs about one transport
#: (a few ms each at precision 60 on a 2-core Intel Xeon with Python 3.11).
WALK_DEPTH = 10**4

#: The transport works this many digits past the requested precision.
_GUARD_DIGITS = 5

#: The highest precision ``estimate_constant`` accepts.  Past it no request
#: within ``MAX_ORDER`` and ``recurrence.MAX_DEPTH`` certifies another digit:
#: the least truncation bound, at order 20 and depth 10**7, is about
#: 8e-144, and the rounding term at precision 200 is below 1e-184.
MAX_PRECISION = 200


@dataclass(frozen=True)
class CriticalEstimate:
    """The constant C~ with the run parameters and error evidence.

    ``newton_iterations`` counts the Newton steps of the transported orbit
    point (``orbit_point``); it is 0 when alpha_N is walked.
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


def _phi(h: Sequence[Decimal], x: Decimal, ctx: Context) -> Decimal:
    """phi(x) = 1/x + ln x + H(x) on ``ctx``, with ``h`` the coefficients of H."""
    return ctx.add(ctx.add(ctx.divide(1, x), ctx.ln(x)), horner(h, x, ctx))


def _abel_inverse(H: CPoly, target: Decimal, ctx: Context, precision: int) -> tuple[Decimal, int]:
    """(y, Newton steps) with phi(y) = ``target`` on ``ctx``, from y = 1/target.

    Newton stops once a step is below about 10**(-precision - 1) of y
    (after 30 steps at most); ``orbit_point`` verifies the result.
    """
    h, dh = H.decimals(ctx), H.derivative().decimals(ctx)
    y, steps = ctx.divide(1, target), 0
    while steps < 30:
        steps += 1
        inverse = ctx.divide(1, y)
        slope = ctx.add(ctx.subtract(inverse, ctx.multiply(inverse, inverse)), horner(dh, y, ctx))
        step = ctx.divide(ctx.subtract(_phi(h, y, ctx), target), slope)
        y = ctx.subtract(y, step)
        if not step or step.adjusted() < y.adjusted() - precision - 2:
            break
    return y, steps


def orbit_point(n: int, precision: int) -> tuple[Decimal, int]:
    """(alpha_n, Newton steps): alpha_n to ``precision`` digits, off by less
    than a relative 3/4 unit of its last digit, as ``logistic_point`` is.

    For n <= ``WALK_DEPTH`` this is ``logistic_point(n, precision)`` and 0
    steps.  A deeper point is walked W = ``WALK_DEPTH`` floored steps at
    P' = precision + 5 digits and carried the remaining n - W steps by the
    Abel coordinate phi = phi_M of the module docstring, at the least order
    M whose tail T = ``tail_bound(R, W, M + 2)`` is at most delta n / 4,
    delta = 10**(1 - precision)/8.  Along the orbit

        phi(alpha_n) = phi(alpha_W) + (n - W) + sum_{W<=k<n} rho(alpha_k),

    and |sum rho| <= T.  Newton at P' solves phi(y) = t, with t the
    computed phi(x_W) + (n - W), and y is kept only once the bracket is
    verified in exact rationals:

        phi~(y (1 + delta)) (1 + 4u) < t - S,   phi~(y (1 - delta)) (1 - 4u) > t + S,

    with phi~ the computed phi, u = 10**(1 - P')/2 and the slack S covering
    every difference between t and phi(alpha_n).  The rules below need
    x <= 1/(W + 1), where the series part is small: sum |h_k| x**k <= x and
    sum k |h_k| x**(k - 1) <= 1 for every order used (a test checks them at
    order 80).  So phi' = -1/x**2 + 1/x + H'(x) < 0 and |phi'| <= 1/x**2
    there: phi decreases, and the bracket holds alpha_n between
    y (1 -+ delta), up to one rounding u of each end.

    * Walk: x_W = X/2**B is above alpha_W by less than W 2**-B
      (``recurrence._logistic_fixed``) and 1/alpha_W <= m = W + 3 +
      bit_length(W), so phi(alpha_W) - phi(x_W) lies in [0, m**2 W 2**-B].
    * Rounding: 1/x, ln x, their sum, Horner's rule on H (coefficients
      rounded once) and the last sum each round by u, relative.  Since
      |ln x| <= 1/(1000 x) and |H(x)| <= x, phi~ is within 4u phi~ of phi
      at a Decimal x, and within 5u phi~ for phi(x_W), whose rounding into
      a Decimal moves phi by at most u/x more.  Forming t rounds by u t.

    So S = T + m**2 W 2**-B + 5u phi~(x_W) + u t.  The result rounds y
    once, by half a unit, which adds to delta and 2u: 5/8 unit and a
    fraction, below 3/4.  A failed bracket raises ``EngineError``.
    """
    if n <= WALK_DEPTH:
        return logistic_point(n, precision), 0
    check_depth(n)
    walk, work = WALK_DEPTH, precision + _GUARD_DIGITS
    delta = Fraction(1, 8 * 10 ** (precision - 1))
    budget = delta * n / 4
    order = 3
    while tail_bound(CPoly(), walk, order + 2) > budget:
        order += 1
    while True:
        g = _abel_summand(order)
        H, R = telescope(g, order)
        tail = tail_bound(R, walk, g.degree + 1)
        if tail <= budget:
            break
        order += 1

    ctx = Context(prec=work)
    h = H.decimals(ctx)
    X, bits = _logistic_fixed(walk, work)
    phi_walk = _phi(h, ctx.divide(Decimal(X), Decimal(1 << bits)), ctx)
    target = ctx.add(phi_walk, n - walk)
    y, steps = _abel_inverse(H, target, ctx, precision)

    u = Fraction(1, 2 * 10 ** (work - 1))
    m = walk + 3 + walk.bit_length()
    t = Fraction(target)
    slack = tail + Fraction(m * m * walk, 1 << bits) + u * (5 * Fraction(phi_walk) + t)
    spread = Decimal(125).scaleb(-precision - 2)
    above, below = ctx.fma(y, spread, y), ctx.fma(y, -spread, y)
    if not (
        Fraction(above) * (walk + 1) < 1
        and Fraction(_phi(h, above, ctx)) * (1 + 4 * u) < t - slack
        and Fraction(_phi(h, below, ctx)) * (1 - 4 * u) > t + slack
    ):
        raise EngineError(f"the Abel transport to depth {n} failed to bracket alpha_{n}")
    return Context(prec=precision).plus(y), steps


def estimate_constant(depth: int = 10**6, order: int = 6, precision: int = 60) -> CriticalEstimate:
    """Estimate C = 2 (phi_M(alpha_depth) - depth), with M = ``order``.

    ``depth >= 100``, ``order >= 3`` and ``precision >= 20`` are required.
    Before any work, depths above ``recurrence.MAX_DEPTH`` are refused as
    every orbit walk refuses them, orders above ``series_engine.MAX_ORDER``
    as every series command refuses them, and precisions above
    ``MAX_PRECISION``.  alpha_depth comes from ``orbit_point``.  The
    returned ``truncation_bound`` covers the truncation of H and the
    rounding at ``precision`` (see the module docstring), so a low
    precision widens the bound instead of being refused.
    """
    if depth < 100:
        raise DomainError(f"depth must be at least 100, got {depth}")
    if order < 3:
        raise DomainError(f"order must be at least 3, got {order}")
    if precision < 20:
        raise DomainError(f"precision must be at least 20, got {precision}")
    check_depth(depth)
    if order > MAX_ORDER:
        raise RefusalError(f"order {order} exceeds the limit of {MAX_ORDER}")
    if precision > MAX_PRECISION:
        raise RefusalError(f"precision {precision} exceeds the limit of {MAX_PRECISION}")
    g = _abel_summand(order)
    H, R = telescope(g, order)
    truncation = 2 * tail_bound(R, depth, g.degree + 1)
    rounding = Fraction(2 * (depth + 4) * (depth + 2 + depth.bit_length()), 10 ** (precision - 1))

    ctx = Context(prec=precision)
    x, newton_iterations = orbit_point(depth, precision)
    phi = _phi(H.decimals(ctx), x, ctx)
    return CriticalEstimate(
        C=PrecReal(ctx.multiply(2, ctx.subtract(phi, depth)), precision),
        depth=depth,
        order=order,
        precision=precision,
        truncation_bound=PrecReal(truncation + rounding, precision),
        newton_iterations=newton_iterations,
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
    """Samples (k, |a_k - eval_series(k)|) for the given steps.

    The residual of an order-I truncation shrinks like ln(k)**I / k**(I+1),
    so on a log-log plot against k the points fall near slope -(I+1) (up to
    the slowly varying log factor).  ``c_value`` defaults to a fresh
    moderate-depth estimate so the check never needs externally supplied
    constants; that estimate works at order ``max(order, 4)``.  A sample
    deeper than ``recurrence.MAX_DEPTH`` is refused before anything is
    solved or estimated.
    """
    if order < 1:
        raise DomainError("the residual check needs a truncation order >= 1")
    if not ks:
        raise DomainError("at least one step index is required")
    ks = sorted(set(int(k) for k in ks))
    if ks[0] < 10:
        raise DomainError("step indices must be >= 10")
    check_depth(ks[-1])
    table = solve_coefficients(max(order, 2))
    if c_value is None:
        c_value = estimate_constant(10**5, max(order, 4), max(precision, 40)).C
    c_value = PrecReal(c_value, precision)
    samples = iterate_real(classify(_CRITICAL_P), ks[-1], precision, sample_ks=ks)
    ctx = Context(prec=precision)
    residuals = []
    for s in samples:
        series = eval_series(table, s.k, c_value, order).value
        residuals.append((s.k, PrecReal(ctx.subtract(s.a.value, series).copy_abs(), precision)))
    return residuals
