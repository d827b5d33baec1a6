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

Every precision-tracked orbit reads one Decimal stream, ``orbit_decimals``.
In y = p b/q = b/(2r), with b_k = r - a_k the residual, every p starts at
y_0 = 1/2 and follows

    y_{k+1} = q y_k (1 - y_k),

the critical logistic map contracted by q, so the stream depends on q
alone and p and 1 - p share it.  Its q = 1 case is the boundary logistic
orbit alpha_k itself (``logistic_decimals``).  Since 1 - y_k is at least
1/2, nothing cancels and the relative rounding error has a derived bound
(see there).  ``iterate_real`` forms b_k = r (y_k + y_k) and a_k = r - b_k,
and the rate constants' diagnostic reads b_k off it; ``rate_constants``
walks y_k until its Koenigs check passes and reads C(p) = 2 r tau_M(y_K)/q**K.

The alpha_N of the critical constant starts from ``logistic_point``: the
logistic map on a binary fixed-point integer with floored squares,
rounded into a Decimal once at the end.  ``critical.estimate_constant``
walks it at most 10**4 steps and answers a deeper request at that depth.
The logistic tail sums and the divergence diagnostic read that floored
orbit as a stream of integers (``logistic_integers``) and add their
floored summands as integers, so no term is ever converted to a Decimal.
``logistic_decimals`` serves no library path; it remains as the Decimal
oracle of that orbit.
"""

from __future__ import annotations

import enum
from decimal import Context, Decimal
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple, Sequence, Union

from .errors import DomainError, ExactCapError, check_ranges
from .numerics import PrecReal, _divide

#: Exact orbits are refused past this many steps, and wherever the bound on
#: their denominators' bit length reaches 2**EXACT_STEP_CAP.
EXACT_STEP_CAP = 20

#: The deepest orbit any walk runs; deeper requests are refused before the
#: first step.  At 10**7 steps the Decimal orbits of ``iterate`` and
#: ``residual-check`` take about 8 s, and the integer orbit of the whole
#: ``diverge-check --N 10**7`` about 3 s, on a 2-core Intel Xeon with
#: Python 3.11.  ``critical-c`` walks at most 10**4 steps of its orbit
#: (``critical.WALK_DEPTH``) and answers a deeper request there, within the
#: request's own bound, so at 10**7 it takes about 0.15 s with interpreter
#: start.
MAX_DEPTH = 10**7

Value = Union[Fraction, PrecReal]


class Regime(enum.Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


class Params(NamedTuple):
    """A validated parameter point: p, its regime, fixed point and multiplier."""

    p: Fraction
    regime: Regime
    r: Fraction
    q: Fraction


class OrbitSample(NamedTuple):
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
    check_ranges(("depth", n, 0, None))
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
    for explicit indices.  y_k comes from ``orbit_decimals``, b_k is
    r (y_k + y_k) and a_k is r - b_k, each operation rounded once, with r
    itself rounded to P = ``precision`` digits; at k = 0 that gives b_0 = r
    and a_0 = 0 exactly.  Since a_k and b_k lie in [0, r] and r <= 1, a_k
    carries an absolute error below (3.02 k + 3.01) 10**(1 - P): the
    stream's relative bound on y_k, which covers the three roundings of
    b_k, plus half a unit each for r and the subtraction.
    """
    check_ranges(("depth", n, 0, MAX_DEPTH))
    if sample_ks is None:
        wanted = _default_sample_ks(n)
    else:
        wanted = sorted(set(int(k) for k in sample_ks))
        if wanted and (wanted[0] < 0 or wanted[-1] > n):
            raise DomainError("sample indices must lie in [0, n]")
    wanted_set = frozenset(wanted)
    ctx = Context(prec=precision)
    r = PrecReal(params.r, precision).value
    samples = []
    for k, y in enumerate(islice(orbit_decimals(params.q, precision), n + 1)):
        if k in wanted_set:
            b = ctx.multiply(r, ctx.add(y, y))
            a = PrecReal(ctx.subtract(r, b), precision)
            samples.append(OrbitSample(k, a, PrecReal(b, precision)))
    return samples


def final_value(params: Params, n: int, precision: int) -> PrecReal:
    """a_n alone, without storing the orbit: the one sample k = n of ``iterate_real``."""
    return iterate_real(params, n, precision, sample_ks=[n])[0].a


def orbit_decimals(q: Fraction, precision: int) -> Iterator[Decimal]:
    """Endless stream y_0, y_1, ... of y_k = p b_k/q as raw ``Decimal``s.

    The one Decimal orbit kernel: y_0 = 1/2 and y_{k+1} = y_k (q - q y_k),
    one fused multiply-add and one multiplication per step at P =
    ``precision`` working digits.  It depends on the multiplier q alone,
    and q = 1 is the boundary logistic orbit.  The relative error of y_k
    is derived (a running-error analysis: Higham, *Accuracy and Stability
    of Numerical Algorithms*, ch. 3).  Every rounding at P digits is off
    by a relative u = 10**(1 - P)/2 at most.

    * Inputs.  q is rounded once, to q (1 + t) with |t| <= u, and -q is
      its exact negation (``Context.minus``: a unary minus would round on
      the thread's context).  y_0 = 1/2 is exact, so e_0 = 0.
    * One step.  Write the computed value as y_k (1 + e_k), with y_k the
      exact one in (0, 1/2], and let B = y_k/(1 - y_k), in (0, 1].  With
      d_1, d_2 the roundings of the fma and the multiply, and q (1 + t) a
      factor of both terms of the fma, the step gives exactly

          1 + e_{k+1} = [1 + (1 - B) e_k - B e_k**2] (1 + t)(1 + d_1)(1 + d_2).

      |(1 - B) e - B e**2| <= |e| for |e| <= 1: an error already in y_k is
      never amplified.  So for u <= 10**-6, |e_{k+1}| <= (1 + 3.01 u)|e_k|
      + 3.01 u, and by induction |e_k| <= (1 + 3.01 u)**k - 1, below
      3.02 k u while 3.01 k u <= 10**-3 (at every P >= 12 within
      ``MAX_DEPTH``).
    * The bound.  Callers take y_k within the relative
      (3.02 k + 2.01) 10**(1 - P) = (6.04 k + 4.02) u.  That leaves
      (3.02 k + 4.02) u for what they build on y_k: b_k = r (y_k + y_k)
      rounds three times, and ``rate_constant``'s 2 r tau(y_K)/q**K rounds
      2 r and its product once each, its division once, and its power
      within about (k + 2) u: ``ctx.power`` raises q (1 + t), off from
      q**k by about k u, and squares at P + len(str(k)) + 2 digits with one
      final rounding.  With the second-order terms, each stays inside the
      same bound for k >= 1.
    """
    ctx = Context(prec=precision)
    fma, multiply = ctx.fma, ctx.multiply
    q = PrecReal(q, precision).value
    minus_q = ctx.minus(q)
    y = Decimal("0.5")
    while True:
        yield y
        y = multiply(y, fma(minus_q, y, q))


def logistic_iterate(n: int) -> list[Fraction]:
    """Exact orbit alpha_0..alpha_n of the boundary logistic map from alpha_0 = 1/2.

    Read off the critical orbit as alpha_k = (1 - a_k)/2, half its residual
    b_k (r = 1 at p = 1/2).  That is exact in rationals; a rounded a_k
    would cancel digits.  Refused wherever ``iterate_exact`` is.
    """
    return [s.b / 2 for s in iterate_exact(classify(Fraction(1, 2)), n)]


def logistic_decimals(precision: int) -> Iterator[Decimal]:
    """Endless stream alpha_0, alpha_1, ... as raw ``Decimal`` values: the
    q = 1 case of ``orbit_decimals``.

    No library path draws it: it is the Decimal oracle of the floored
    ``logistic_integers``.
    """
    return orbit_decimals(Fraction(1), precision)


def logistic_point(n: int, precision: int) -> Decimal:
    """alpha_n alone, with relative error below 10**(1 - precision).

    ``critical.estimate_constant`` walks at most n = 10**4 steps
    (``critical.WALK_DEPTH``) and answers a deeper request at that depth.
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
    return _divide(x, 1 << bits, Context(prec=precision))


def logistic_integers(bits: int) -> Iterator[int]:
    """Endless stream X_0, X_1, ... of the floored orbit x_k = X_k / 2**bits.

    The orbit of ``logistic_point``: X <- X - ((X*X) >> bits) from
    X = 2**(bits - 1), so x_{k+1} = x_k - x_k**2 + d_k with d_k in
    [0, 2**-bits) and 0 <= x_k - alpha_k < k 2**-bits (see there).
    """
    check_ranges(("bits", bits, 1, None))
    x = 1 << (bits - 1)
    while True:
        yield x
        x -= (x * x) >> bits


def _logistic_fixed(n: int, precision: int) -> tuple[int, int]:
    """(X_n, B) of ``logistic_point``: 0 <= X_n/2**B - alpha_n < n 2**-B."""
    check_ranges(("depth", n, 0, MAX_DEPTH), ("precision", precision, 1, None))
    # 2**B >= 10**(P-1) * 4**bit_length(2m), m = n + 3 + bit_length(n)
    bits = (10 ** (precision - 1) - 1).bit_length() + 2 * (
        2 * (n + 3 + n.bit_length())
    ).bit_length()
    return next(islice(logistic_integers(bits), n, None)), bits
