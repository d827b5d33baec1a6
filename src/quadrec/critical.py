"""Numeric determination of the critical constants.

The formal expansion at p = 1/2 (see ``series_engine``) leaves exactly one
constant undetermined: C = c[2][0].  Its value for the actual orbit seeded
at a_0 = 0 is pinned numerically by running the orbit to a large depth N,
truncating the expansion at order I, and solving

    eval_series(table, N, C~) = a_N

for C~.  The truncated expansion is a *polynomial* in C~ with decimal
coefficients, so the solve is plain Newton iteration; the seed comes from
inverting the two leading terms,

    C~_0 = 2 * (2/(1 - a_N) - N - ln N),

which is already within O(ln(N)/N) of the root.  Two error sources remain
and both are reported or guarded:

* truncation: the first omitted term is O(ln(N)**I / N**(I+1)) in orbit
  units; the map from orbit units to C units multiplies by roughly N**2
  (the derivative of the series in C is 1/N**2 + smaller), giving the
  reported ``truncation_bound`` 10 * ln(N)**I / N**(I-1);
* rounding: the orbit carries at most 3*N*10**(2-P) absolute error, i.e.
  3*N**3*10**(2-P) in C units; the estimator refuses precisions where that
  is not comfortably below the truncation bound.

The same machinery serves the logistic change of variables
alpha = (1 - a)/2: its tail constant is c = C/2, and exp(c - 1) is the
limit comparison constant for the product form of the orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, EngineError, NewtonError, RefusalError
from .numerics import PrecReal, horner
from .recurrence import classify, final_value, iterate_real
from .series_engine import eval_series, eval_series_coeffs, solve_coefficients

_CRITICAL_P = Fraction(1, 2)

#: Sanity window for the estimated constant; leaving it signals a bug, not
#: a user error (every valid depth/order combination lands well inside).
_SANITY_LOW = Decimal("3.5")
_SANITY_HIGH = Decimal("3.6")

_MAX_NEWTON_ITERATIONS = 50

#: The deepest orbit an estimate runs: about 12 s at precision 60 on a
#: 2-core Intel Xeon with Python 3.11.
MAX_DEPTH = 10**7


@dataclass(frozen=True)
class CriticalEstimate:
    """The constant C~ with the run parameters and error evidence."""

    C: PrecReal
    depth: int
    order: int
    precision: int
    truncation_bound: PrecReal
    newton_residual: PrecReal
    newton_iterations: int


def _truncation_bound_c(depth: int, order: int, precision: int) -> Decimal:
    """10 * ln(depth)**order / depth**(order - 1), the C-unit truncation bound."""
    ctx = Context(prec=precision)
    ln_n = ctx.ln(Decimal(depth))
    return ctx.multiply(
        Decimal(10),
        ctx.divide(ctx.power(ln_n, Decimal(order)), ctx.power(Decimal(depth), Decimal(order - 1))),
    )


def estimate_constant(depth: int = 10**6, order: int = 6, precision: int = 60) -> CriticalEstimate:
    """Estimate C by matching the order-``order`` expansion to a_depth.

    ``depth >= 100`` and ``order >= 3`` are required; the precision must
    leave the orbit's rounding error well below the truncation bound, else
    the run is refused (a bigger ``precision`` always fixes that), and so
    are depths above ``MAX_DEPTH`` and orders above
    ``series_engine.MAX_ORDER``, as too costly.  The returned
    ``truncation_bound`` is the honest accuracy statement: depth/order
    sensitivity is visible through it, not hidden.
    """
    if depth < 100:
        raise DomainError(f"depth must be at least 100, got {depth}")
    if order < 3:
        raise DomainError(f"order must be at least 3, got {order}")
    if precision < 20:
        raise DomainError(f"precision must be at least 20, got {precision}")
    if depth > MAX_DEPTH:
        raise RefusalError(f"depth {depth} exceeds the limit of {MAX_DEPTH}")
    table = solve_coefficients(order)

    ctx = Context(prec=precision)
    truncation = _truncation_bound_c(depth, order, precision)
    rounding = ctx.multiply(
        Decimal(3) * Decimal(depth) ** 3, Decimal(1).scaleb(2 - precision)
    )
    if rounding * 10 > truncation:
        raise RefusalError(
            f"precision {precision} leaves rounding error {rounding:E} too close to "
            f"the truncation bound {truncation:E} at depth {depth}; raise the precision"
        )

    a_n = final_value(classify(_CRITICAL_P), depth, precision).value
    coeffs = eval_series_coeffs(table, depth, precision, order)
    coeffs = list(coeffs)
    coeffs[0] = ctx.subtract(coeffs[0], a_n)
    deriv = [ctx.multiply(Decimal(t), c) for t, c in enumerate(coeffs)][1:]

    one = Decimal(1)
    ln_n = ctx.ln(Decimal(depth))
    gap = ctx.subtract(one, a_n)
    x = ctx.multiply(
        Decimal(2),
        ctx.subtract(ctx.subtract(ctx.divide(Decimal(2), gap), Decimal(depth)), ln_n),
    )
    tolerance = Decimal(1).scaleb(-(precision - 5))
    iterations = 0
    step = Decimal(1)
    for iterations in range(1, _MAX_NEWTON_ITERATIONS + 1):
        f_val = horner(coeffs, x, ctx)
        f_prime = horner(deriv, x, ctx)
        if f_prime == 0:
            raise NewtonError(
                "derivative vanished during Newton iteration",
                iterations=iterations,
                last_step=str(step),
                residual=str(f_val),
            )
        step = ctx.divide(f_val, f_prime)
        x = ctx.subtract(x, step)
        if abs(step) <= tolerance * max(one, abs(x)):
            break
    else:
        raise NewtonError(
            "Newton iteration did not converge",
            iterations=_MAX_NEWTON_ITERATIONS,
            last_step=str(step),
            residual=str(horner(coeffs, x, ctx)),
        )

    residual = horner(coeffs, x, ctx).copy_abs()
    if not (_SANITY_LOW < x < _SANITY_HIGH):
        raise EngineError(
            f"estimated constant {x} fell outside the sanity window "
            f"({_SANITY_LOW}, {_SANITY_HIGH}); this indicates an internal error"
        )
    return CriticalEstimate(
        C=PrecReal(x, precision),
        depth=depth,
        order=order,
        precision=precision,
        truncation_bound=PrecReal(truncation, precision),
        newton_residual=PrecReal(residual, precision),
        newton_iterations=iterations,
    )


def logistic_constant(estimate: CriticalEstimate) -> tuple[PrecReal, PrecReal]:
    """The logistic-form constants (c, exp(c - 1)) with c = C/2.

    Under alpha = (1 - a)/2 the critical orbit becomes the boundary
    logistic map and its tail expansion carries the constant c = C/2;
    exp(c - 1) is the associated limit of k * alpha_k * prod-form
    comparisons.  Both inherit the estimate's precision.
    """
    c = estimate.C / 2
    return c, (c - 1).exp()


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
    constants; that estimate works at order ``max(order, 4)``.
    """
    if order < 1:
        raise DomainError("the residual check needs a truncation order >= 1")
    if not ks:
        raise DomainError("at least one step index is required")
    ks = sorted(set(int(k) for k in ks))
    if ks[0] < 10:
        raise DomainError("step indices must be >= 10")
    table = solve_coefficients(max(order, 2))
    if c_value is None:
        c_value = estimate_constant(10**5, max(order, 4), max(precision, 40)).C
    c_value = PrecReal(c_value, precision)
    samples = iterate_real(classify(_CRITICAL_P), ks[-1], precision, sample_ks=ks)
    return [(s.k, abs(s.a - eval_series(table, s.k, c_value, order))) for s in samples]
