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
* rounding: ``recurrence.logistic_point`` runs the orbit in binary fixed
  point with B bits, flooring each square.  x -> x - x**2 has slope in
  [0, 1] on [0, 1/2], so the floors add up to a one-sided error below
  N * 2**-B; B is chosen from P and N so that, with the one final rounding
  to P digits, alpha_N is off by less than a relative 10**(1-P), and the
  bound keeps the wider budget of a relative N * 10**(1-P).  phi
  turns that into an absolute error of at most 1/alpha_N <= N + 3 + ln N
  times as much (1/alpha_n = 2 + n + sum_{k<n} alpha_k/(1 - alpha_k)), and
  evaluating phi_M adds a few rounding units of N.  In C units all of it
  stays below 2 (N + 4)(N + 2 + bit_length(N)) 10**(1-P).

alpha_N comes from the logistic map itself: forming (1 - a_N)/2 would
cancel about log10(N) digits.  The logistic tail constant is c = C/2, and
exp(c - 1) is the limit comparison constant for the product form of the
orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, RefusalError
from .numerics import CPoly, PrecReal, horner
from .recurrence import check_depth, classify, iterate_real, logistic_point
from .series_engine import MAX_ORDER, eval_series, solve_coefficients, tail_bound, telescope

# Not used here: the benchmark's tracer wraps these names in this module.
from .recurrence import final_value  # noqa: F401
from .series_engine import eval_series_coeffs  # noqa: F401

_CRITICAL_P = Fraction(1, 2)


@dataclass(frozen=True)
class CriticalEstimate:
    """The constant C~ with the run parameters and error evidence."""

    C: PrecReal
    depth: int
    order: int
    precision: int
    truncation_bound: PrecReal

    @property
    def newton_iterations(self) -> int:
        """Always 0: the estimate iterates nothing.  The benchmark's tracer
        still reads this name (ROADMAP item 8)."""
        return 0


def _abel_summand(order: int) -> CPoly:
    """sum_{n>=2} (1 - 1/n) x**n through x**(order + 1): the family summand
    x**2/(1 - x) of ``sums`` plus its s_1 summand x + ln(1 - x)."""
    return CPoly([0, 0] + [1 - Fraction(1, n) for n in range(2, order + 2)])


def estimate_constant(depth: int = 10**6, order: int = 6, precision: int = 60) -> CriticalEstimate:
    """Estimate C = 2 (phi_M(alpha_depth) - depth), with M = ``order``.

    ``depth >= 100``, ``order >= 3`` and ``precision >= 20`` are required.
    Depths above ``recurrence.MAX_DEPTH`` are refused as every orbit walk
    refuses them (here by ``logistic_point``), and orders above
    ``series_engine.MAX_ORDER`` as every series command refuses them.  The
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
    if order > MAX_ORDER:
        raise RefusalError(f"order {order} exceeds the limit of {MAX_ORDER}")
    g = _abel_summand(order)
    H, R = telescope(g, order)
    truncation = 2 * tail_bound(R, depth, g.degree + 1)
    rounding = Fraction(2 * (depth + 4) * (depth + 2 + depth.bit_length()), 10 ** (precision - 1))

    ctx = Context(prec=precision)
    x = logistic_point(depth, precision)
    phi = ctx.add(ctx.add(ctx.divide(1, x), ctx.ln(x)), horner(H.decimals(ctx), x, ctx))
    return CriticalEstimate(
        C=PrecReal(ctx.multiply(2, ctx.subtract(phi, depth)), precision),
        depth=depth,
        order=order,
        precision=precision,
        truncation_bound=PrecReal(truncation + rounding, precision),
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
