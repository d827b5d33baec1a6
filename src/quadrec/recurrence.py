"""The quadratic recurrence a_k = (1-p) + p*a_{k-1}^2 and its orbits.

For a parameter ``p`` strictly between 0 and 1 the map
``f(a) = (1 - p) + p*a**2`` is iterated from the fixed seed ``a_0 = 0``.
The orbit increases monotonically towards the smaller positive fixed point

    r = 1            for p <= 1/2,
    r = (1 - p)/p    for p >  1/2,

and the multiplier at that fixed point, ``q = f'(r) = 2*r*p``, sorts the
parameter range into three regimes:

* subcritical  (p < 1/2):  q = 2*p < 1, geometric approach to 1;
* critical     (p = 1/2):  q = 1, the fixed point is parabolic and the
  approach is only algebraic (~ 2/k);
* supercritical (p > 1/2): q = 2*(1 - p) < 1, geometric approach to
  (1 - p)/p < 1.

The substitution ``alpha_k = (1 - a_k)/2`` at p = 1/2 turns the recurrence
into the boundary logistic map ``alpha_k = alpha_{k-1}*(1 - alpha_{k-1})``
with ``alpha_0 = 1/2``; the tail-sum module works in that coordinate.

``iterate_exact`` is the one exact orbit: ``logistic_iterate`` reads its
rationals off the p = 1/2 orbit.  Exact values double in bit length every
step (denominators are squared), so ``iterate_exact`` refuses any request
whose denominators could pass 2**EXACT_STEP_CAP bits instead of running for
hours.  Precision-tracked orbits use two rounded operations per step, so
after ``n`` steps the accumulated absolute error is below ``3*n*10**(2-P)``
at working precision ``P`` (the map is a contraction towards r on [0, r],
so per-step errors do not amplify).

Every Decimal orbit comes from one of two endless streams:
``orbit_decimals`` (a_k) and ``logistic_decimals`` (alpha_k).  Unlike the
exact logistic orbit, the second is not derived from the first: alpha_k ~
1/k, so forming (1 - a_k)/2 would cancel about log10(k) leading digits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence, Union

from .errors import DomainError, ExactCapError
from .numerics import PrecReal

#: Exact orbits are refused past this many steps, and wherever the bound on
#: their denominators' bit length reaches 2**EXACT_STEP_CAP.
EXACT_STEP_CAP = 20

Value = Union[Fraction, PrecReal]


class Regime(enum.Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class Params:
    """A validated parameter point: p, its regime, fixed point and multiplier."""

    p: Fraction
    regime: Regime
    r: Fraction
    q: Fraction


@dataclass(frozen=True)
class OrbitSample:
    """One orbit point: step index k, value a_k, and residual b_k = r - a_k."""

    k: int
    a: Value
    b: Value


def classify(p) -> Params:
    """Validate ``p`` and return the regime, fixed point r and multiplier q.

    ``p`` may be a ``Fraction``, an ``int``-free rational string such as
    ``"2/5"``, or anything else ``Fraction`` accepts exactly.
    """
    try:
        p = Fraction(p)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise DomainError(f"p must be rational, got {p!r}") from exc
    if not (0 < p < 1):
        raise DomainError(f"p must satisfy 0 < p < 1, got {p}")
    half = Fraction(1, 2)
    if p < half:
        regime, r = Regime.SUBCRITICAL, Fraction(1)
    elif p == half:
        regime, r = Regime.CRITICAL, Fraction(1)
    else:
        regime, r = Regime.SUPERCRITICAL, (1 - p) / p
    return Params(p=p, regime=regime, r=r, q=2 * r * p)


def iterate_exact(params: Params, n: int) -> list[OrbitSample]:
    """Exact orbit samples (k, a_k, r - a_k) for k = 0..n as rationals.

    For p = u/v the denominator of a_n divides v**(2**n - 1), so its bit
    length is at most (2**n - 1) * (v - 1).bit_length().  The request is
    refused when ``n`` exceeds ``EXACT_STEP_CAP`` or that bound reaches
    2**EXACT_STEP_CAP bits: such orbits are hopeless rather than merely slow.
    """
    if n < 0:
        raise DomainError("step count must be nonnegative")
    # the step test comes first, so a huge n never builds 2**n
    if n > EXACT_STEP_CAP or (
        (2**n - 1) * (params.p.denominator - 1).bit_length() >= 2**EXACT_STEP_CAP
    ):
        raise ExactCapError(
            f"exact orbit of length {n} at p = {params.p} exceeds the cap of "
            f"2**{EXACT_STEP_CAP} bits (denominators square every step); "
            "use a precision-tracked orbit"
        )
    one_minus_p, p, r = 1 - params.p, params.p, params.r
    a = Fraction(0)
    samples = [OrbitSample(0, a, r - a)]
    for k in range(1, n + 1):
        a = one_minus_p + p * a * a
        samples.append(OrbitSample(k, a, r - a))
    return samples


#: Above this step count, iterate_real defaults to logarithmically spaced
#: samples so that deep orbits use O(log n) memory.
DENSE_SAMPLE_LIMIT = 10_000


def _default_sample_ks(n: int) -> list[int]:
    if n <= DENSE_SAMPLE_LIMIT:
        return list(range(n + 1))
    ks = [0]
    k = 1
    while k < n:
        ks.append(k)
        k *= 2
    ks.append(n)
    return ks


def iterate_real(
    params: Params,
    n: int,
    precision: int,
    *,
    sample_ks: Sequence[int] | None = None,
) -> list[OrbitSample]:
    """Precision-tracked orbit samples (k, a_k, r - a_k).

    By default every step up to 10_000 is kept; deeper runs keep powers of
    two plus the endpoint, so memory stays O(log n).  Pass ``sample_ks``
    for explicit indices.  Two rounded operations per step (a fused
    multiply-add on top of one squaring), so sample k carries absolute
    error below ``3*k*10**(2-P)``.
    """
    if n < 0:
        raise DomainError("step count must be nonnegative")
    if sample_ks is None:
        wanted = _default_sample_ks(n)
    else:
        wanted = sorted(set(int(k) for k in sample_ks))
        if wanted and (wanted[0] < 0 or wanted[-1] > n):
            raise DomainError("sample indices must lie in [0, n]")
    wanted_set = frozenset(wanted)
    ctx = Context(prec=precision)
    r = PrecReal(params.r, precision).value
    return [
        OrbitSample(k, PrecReal(a, precision), PrecReal(ctx.subtract(r, a), precision))
        for k, a in enumerate(islice(orbit_decimals(params, precision), n + 1))
        if k in wanted_set
    ]


def final_value(params: Params, n: int, precision: int) -> PrecReal:
    """a_n alone, without storing the orbit (used for large n)."""
    if n < 0:
        raise DomainError("step count must be nonnegative")
    return PrecReal(next(islice(orbit_decimals(params, precision), n, None)), precision)


def orbit_decimals(params: Params, precision: int) -> Iterator[Decimal]:
    """Endless stream a_0, a_1, ... as raw ``Decimal`` values.

    The one Decimal orbit kernel: a squaring and a fused multiply-add per
    step at fixed working precision, seeded at a_0 = 0.
    """
    ctx = Context(prec=precision)
    fma, multiply = ctx.fma, ctx.multiply
    p = PrecReal(params.p, precision).value
    one_minus_p = PrecReal(1 - params.p, precision).value
    a = Decimal(0)
    while True:
        yield a
        a = fma(p, multiply(a, a), one_minus_p)


def logistic_iterate(n: int) -> list[Fraction]:
    """Exact orbit alpha_0..alpha_n of the boundary logistic map from alpha_0 = 1/2.

    Read off the critical orbit as alpha_k = (1 - a_k)/2, half its residual
    b_k (r = 1 at p = 1/2).  That is exact in rationals; only a rounded
    stream would cancel digits.  Refused wherever ``iterate_exact`` is.
    """
    return [s.b / 2 for s in iterate_exact(classify(Fraction(1, 2)), n)]


def logistic_decimals(precision: int) -> Iterator[Decimal]:
    """Endless stream alpha_0, alpha_1, ... as raw ``Decimal`` values.

    The low-level feeder for tail-sum accumulation: one subtraction and one
    multiplication per step at fixed working precision.
    """
    ctx = Context(prec=precision)
    multiply, subtract = ctx.multiply, ctx.subtract
    one = Decimal(1)
    a = Decimal("0.5")
    while True:
        yield a
        a = multiply(a, subtract(one, a))
