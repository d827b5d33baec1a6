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
hours.  The step is written ``one_minus_p + p * a**2``: an integer power of
a reduced ``Fraction`` raises numerator and denominator separately and skips
the gcd (powers of coprime integers stay coprime), while ``a * a`` runs gcds
on operands of up to 2**EXACT_STEP_CAP bits.  Every other operation of the
step has one small operand, so its gcds are cheap.

Precision-tracked orbits use two rounded operations per step, so after
``n`` steps the accumulated absolute error is below ``3*n*10**(2-P)`` at
working precision ``P`` (the map is a contraction towards r on [0, r], so
per-step errors do not amplify).

Every Decimal orbit comes from one of two endless streams:
``orbit_decimals`` (a_k) and ``logistic_decimals`` (alpha_k).  Unlike the
exact logistic orbit, the second is not derived from the first: alpha_k ~
1/k, so forming (1 - a_k)/2 would cancel about log10(k) leading digits.
The deep alpha_N of the critical constant comes from ``logistic_point``
instead: the same map on a binary fixed-point integer with floored squares,
rounded into a Decimal once at the end.  The logistic tail sums read that
floored orbit as a stream of integers (``logistic_integers``) and add their
floored summands as integers, so no term is ever converted to a Decimal.
``logistic_decimals`` remains for the divergence diagnostic, whose refusal
contract is stated in Decimal rounding.
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
        # a**2, not a * a: see the module docstring
        a = one_minus_p + p * a**2
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


def logistic_point(n: int, precision: int) -> Decimal:
    """alpha_n alone, with relative error below 10**(1 - precision).

    The orbit runs on an integer X = x * 2**B, rounding each square down:
    X <- X - ((X*X) >> B) from X = 2**(B - 1), and X / 2**B is rounded once
    into a ``precision``-digit Decimal.  The bound is derived as follows.

    * One-sided orbit error.  With x_k = X_k / 2**B the step is
      x_{k+1} = f(x_k) + d_k, f(x) = x - x**2, where the floored part d_k
      lies in [0, 2**-B).  f has slope 1 - 2x in [0, 1] on [0, 1/2], so
      e_k = x_k - alpha_k obeys 0 <= e_{k+1} <= e_k + d_k, and
      0 <= x_n - alpha_n < n * 2**-B (n >= 1; x_0 = alpha_0 = 1/2).
    * Relative error.  1/alpha_n = 2 + n + sum_{k<n} alpha_k/(1 - alpha_k)
      is at most m = n + 3 + bit_length(n) (the sum is below 1 + ln n).
      B = ceil((P - 1) log2 10) + 2 bit_length(2m) gives
      2**B > 4 m**2 10**(P-1), so (x_n - alpha_n)/alpha_n < n m 2**-B,
      which is below a quarter unit of the P-th digit, 10**(1-P)/4.
    * The final division rounds once, by at most half a unit, so the
      result is off by less than 3/4 unit plus a second-order term: inside
      the budget n 10**(1-P) that ``critical`` assumes, for every n >= 1.
    """
    x, bits = _logistic_fixed(n, precision)
    return Context(prec=precision).divide(Decimal(x), Decimal(1 << bits))


def logistic_integers(bits: int) -> Iterator[int]:
    """Endless stream X_0, X_1, ... of the floored orbit x_k = X_k / 2**bits.

    The orbit of ``logistic_point``: X <- X - ((X*X) >> bits) from
    X = 2**(bits - 1), so x_{k+1} = x_k - x_k**2 + d_k with d_k in
    [0, 2**-bits) and 0 <= x_k - alpha_k < k 2**-bits (see there).
    """
    if bits < 1:
        raise DomainError("bits must be at least 1")
    x = 1 << (bits - 1)
    while True:
        yield x
        x -= (x * x) >> bits


def _logistic_fixed(n: int, precision: int) -> tuple[int, int]:
    """(X_n, B) of ``logistic_point``: 0 <= X_n/2**B - alpha_n < n 2**-B."""
    if n < 0:
        raise DomainError("step count must be nonnegative")
    if precision < 1:
        raise DomainError("precision must be at least 1")
    # 2**B >= 10**(P-1) * 4**bit_length(2m), m = n + 3 + bit_length(n)
    bits = (10 ** (precision - 1) - 1).bit_length() + 2 * (
        2 * (n + 3 + n.bit_length())
    ).bit_length()
    return next(islice(logistic_integers(bits), n, None)), bits
