"""Arithmetic substrate: exact rationals, rounded decimals, C-polynomials.

Three kinds of numbers appear throughout the package:

* exact rationals (``fractions.Fraction``), used whenever a quantity is a
  ratio of integers by construction -- recurrence parameters, orbit values
  for small step counts, series coefficients;
* ``PrecReal``, a ``Decimal`` rounded to P significant digits, with P kept
  beside it, and its digit renderer.  It has no arithmetic of its own:
  callers compute on ``value`` with the methods of a ``Context(prec=P)``
  that they name, so each result is rounded by that context and never by
  the thread's 28-digit default context;
* ``CPoly``, a dense polynomial in one formal symbol with exact rational
  coefficients, held as integer numerators over one shared denominator.
  The symbol is the constant ``C`` in the asymptotic-series engine, which
  keeps every derived coefficient as a ``CPoly`` so that nothing is rounded
  before a caller asks for digits, and the orbit point ``x`` in
  ``series_engine.telescope``, whose polynomials G, g and R are ``CPoly``
  too.

The module also owns the Euler--Mascheroni constant (110 verified digits)
and the one Decimal Horner rule (``horner``) that every Decimal polynomial
evaluation goes through, in C or in x (``CPoly.decimals`` rounds the
coefficients it takes).  ``confirmed_value`` repeats a computation with 20
extra guard digits and raises ``PrecisionError`` unless the two results
agree to the requested width.  No library computation calls it: the rate
constants, the tail sums and the critical constant each run once and derive
their rounding bound; it remains only for the benchmark's tracer.
"""

from __future__ import annotations

import decimal
import math
from decimal import Context, Decimal
from fractions import Fraction
from typing import Callable, Iterable, Sequence, TypeVar, Union

from .errors import DomainError, PrecisionError, check_ranges

#: Guard digits on top of the requested digit count.  The rate constants and
#: the tail sums run once at digits + 2*GUARD_DIGITS, where their derived
#: rounding bounds lie far below the last requested digit; ``confirmed_value``
#: reruns this many digits higher.
GUARD_DIGITS = 20

#: First 110 decimal digits of the Euler--Mascheroni constant.  The trailing
#: digits are truncated, not rounded, so every digit shown is exact.
_EULER_GAMMA_110 = (
    "0."
    "5772156649015328606065120900824024310421593359399235988057672348848677"
    "2677766467093694706329174674951463144724"
)

_GAMMA_MAX_PRECISION = 105

#: Exact arithmetic: no rounding at any length.
_EXACT = Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=[decimal.Inexact]
)

Scalar = Union[int, Fraction, Decimal]
T = TypeVar("T")


def parse_rational(text: str) -> Fraction:
    """Parse ``"2/5"``, ``"0.4"`` or ``"3"`` into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational number: {text!r}") from exc


def euler_gamma(precision: int) -> "PrecReal":
    """Euler--Mascheroni constant rounded to ``precision`` decimal digits.

    Only the embedded 110-digit value is available; requests beyond
    ``precision = 105`` are refused rather than served with unverified
    digits.
    """
    check_ranges(("precision", precision, 1, _GAMMA_MAX_PRECISION))
    return PrecReal(_EULER_GAMMA_110, precision)


def _divide(n: int, d: int, ctx: Context) -> Decimal:
    """``ctx.divide(Decimal(n), Decimal(d))`` for d > 0, by integer division.

    Converting n and d to ``Decimal`` first costs time quadratic in their
    length; here the quotient is taken to a few digits past ``ctx.prec``
    and rounded as ``ctx`` rounds: half-even, or toward +infinity
    (``ROUND_CEILING``, for upward bounds); another rounding raises
    ``ValueError``.  An exact quotient keeps the exponent closest to the
    ideal exponent 0, as ``Context.divide`` does ("0.25", "12" and not
    "12.00"), so the result is the same ``Decimal``, exponent included.
    Operands of at most 1024 bits together go to ``Context.divide`` itself,
    which is faster there: about 0.6 against 2.3 us at 20 digits each and
    2.0 against 3.2 us at 100, where at 300 digits each it takes 5.9 us
    and this route 3.8.
    """
    if n == 0:
        return Decimal(0)
    if n.bit_length() + d.bit_length() <= 1024:
        return ctx.divide(n, d)
    if ctx.rounding not in (decimal.ROUND_HALF_EVEN, decimal.ROUND_CEILING):
        raise ValueError(f"_divide rounds half-even or toward +infinity, not {ctx.rounding}")
    precision = ctx.prec
    # log10|n/d| lies within 0.61 above (bits(n) - bits(d) - 1)*log10(2), and
    # 0.30103 is a hair above log10(2), so 10**shift * |n|/d has at least
    # precision + 2 digits and rarely more than precision + 4
    shift = precision + 2 - (abs(n).bit_length() - d.bit_length() - 1) * 30103 // 100000
    if shift >= 0:
        coeff, rest = divmod(abs(n) * 10**shift, d)
    else:
        coeff, rest = divmod(abs(n), d * 10**-shift)
    drop, limit = 2, 10 ** (precision + 2)
    while coeff >= limit:
        drop, limit = drop + 1, limit * 10
    head, tail = divmod(coeff, 10**drop)
    half = 5 * 10 ** (drop - 1)
    exponent = drop - shift
    if ctx.rounding == decimal.ROUND_CEILING:
        up = n > 0 and bool(tail or rest)
    else:
        up = tail > half or (tail == half and (rest or head & 1))
    if up:
        head += 1
        if head == 10**precision:
            head, exponent = head // 10, exponent + 1
    elif not (tail or rest):
        # exact: drop trailing zeros towards the ideal exponent 0
        while exponent < 0 and head % 10 == 0:
            head, exponent = head // 10, exponent + 1
    dec = ctx.scaleb(Decimal(head), exponent)
    return dec.copy_negate() if n < 0 else dec


def rounded_up(bound: Fraction, precision: int) -> "PrecReal":
    """``bound`` rounded toward +infinity to ``precision`` digits, so that a
    reported bound never lies below the bound derived for it."""
    up = Context(prec=precision, rounding=decimal.ROUND_CEILING)
    return PrecReal(_divide(bound.numerator, bound.denominator, up), precision)


class PrecReal:
    """A ``Decimal`` rounded to ``precision`` significant digits, and its
    digit renderer.

    The constructor rounds once, by ``Context(prec=precision)``: a
    ``Fraction`` through ``_divide``, an int, string, ``Decimal`` or the
    ``value`` of a ``PrecReal`` through ``Context.plus``.  There is no
    arithmetic here: a caller computes on ``value`` with the methods of a
    ``Context`` it names, and wraps the result.  Nor is there comparison:
    ``==`` and ``!=`` raise ``TypeError`` as ``<`` does, so a caller
    compares ``value``s, and instances are unhashable.  Instances are
    immutable by convention.
    """

    __slots__ = ("value", "precision")

    def __init__(self, value, precision: int):
        if isinstance(value, PrecReal):
            value = value.value
        if not isinstance(precision, int) or precision < 1:
            raise DomainError(f"precision must be a positive integer, got {precision!r}")
        ctx = Context(prec=precision)
        if isinstance(value, Fraction):
            dec = _divide(value.numerator, value.denominator, ctx)
        elif isinstance(value, (int, str, Decimal)):
            dec = ctx.plus(Decimal(value))
        else:
            raise DomainError(f"cannot build PrecReal from {type(value).__name__}")
        self.value = dec
        self.precision = precision

    def digit_string(self, digits: int, rounding: str = decimal.ROUND_HALF_EVEN) -> str:
        """Fixed-point rendering with exactly ``digits`` decimal places.

        The default rounding is banker's rounding; pass
        ``decimal.ROUND_DOWN`` to truncate instead (the convention used for
        convergence-rate constants, whose published digits are truncations).
        """
        if digits < 1:
            raise DomainError("digits must be at least 1")
        quantum = Decimal(1).scaleb(-digits)
        ctx = Context(prec=self.precision + digits + 10)
        return format(self.value.quantize(quantum, rounding=rounding, context=ctx), "f")

    def __eq__(self, other):
        raise TypeError("PrecReal values do not compare; compare their .value")

    __ne__ = __eq__

    def __str__(self):
        return str(self.value)

    def __format__(self, spec):
        return format(self.value, spec)

    def __repr__(self):
        return f"PrecReal({str(self.value)!r}, precision={self.precision})"


def confirmed_value(compute: Callable[[int], T], digits: int, precision: int) -> T:
    """Run ``compute`` at ``precision`` and ``precision + 20`` and compare.

    ``compute`` returns a ``PrecReal``, or a result whose ``.value`` is one;
    the two values must agree to within one unit in the ``digits``-th
    decimal place; the higher-precision result is returned.  Disagreement
    raises ``PrecisionError`` -- no value is ever reported on the strength
    of a single run.
    """
    first = compute(precision)
    second = compute(precision + GUARD_DIGITS)
    gap = abs(first.value - second.value)
    if gap > Decimal(1).scaleb(-digits):
        raise PrecisionError(
            f"reruns at precisions {precision} and {precision + GUARD_DIGITS} "
            f"disagree beyond 10^-{digits} (gap {gap:E})"
        )
    return second


def horner(coeffs: Sequence[Decimal], x: Decimal, ctx: Context) -> Decimal:
    """sum_t coeffs[t] * x**t by Horner's rule, one fused multiply-add per
    coefficient at the precision of ``ctx``."""
    acc = Decimal(0)
    for coefficient in reversed(coeffs):
        acc = ctx.fma(acc, x, coefficient)
    return acc


class CPoly:
    """Dense polynomial in one formal symbol over the rationals.

    The symbol is ``C`` in the series engine and ``x`` in ``telescope``;
    ``format_str`` always writes ``C``.  Stored as integer numerators, in
    ascending order of the power of the symbol, over one shared positive
    denominator.  The pair is normalised -- no trailing zero numerators, and
    one ``math.gcd`` divides out every common factor -- so equal polynomials
    have equal pairs.  ``coeffs`` gives the
    coefficients as a tuple of reduced ``Fraction`` objects.  Instances are
    immutable and hashable.
    """

    __slots__ = ("_numerators", "_denominator")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        items = [Fraction(c) for c in coeffs]
        denominator = math.lcm(*(c.denominator for c in items))
        numerators = [c.numerator * (denominator // c.denominator) for c in items]
        self._store(numerators, denominator)

    def _store(self, numerators: list[int], denominator: int) -> None:
        while numerators and not numerators[-1]:
            numerators.pop()
        common = math.gcd(denominator, *numerators)
        if common != 1:
            numerators = [n // common for n in numerators]
            denominator //= common
        object.__setattr__(self, "_numerators", tuple(numerators))
        object.__setattr__(self, "_denominator", denominator)

    @classmethod
    def _over(cls, numerators: list[int], denominator: int) -> "CPoly":
        """The polynomial sum_t numerators[t]/denominator * C**t (denominator > 0)."""
        poly = object.__new__(cls)
        poly._store(numerators, denominator)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("CPoly instances are immutable")

    @classmethod
    def constant(cls, value: Scalar) -> "CPoly":
        return cls((Fraction(value),))

    @classmethod
    def variable(cls) -> "CPoly":
        """The polynomial ``C`` itself."""
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self._denominator) for n in self._numerators)

    def decimals(self, ctx: Context) -> list[Decimal]:
        """The coefficients in ascending order, each rounded once by ``ctx``
        from its stored numerator (``_divide``)."""
        return [_divide(n, self._denominator, ctx) for n in self._numerators]

    @property
    def degree(self) -> int:
        return len(self._numerators) - 1

    @property
    def is_zero(self) -> bool:
        return not self._numerators

    def __bool__(self):
        return bool(self._numerators)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CPoly.constant(other)
        if not isinstance(other, CPoly):
            return NotImplemented
        a, b = self._numerators, other._numerators
        common = math.gcd(self._denominator, other._denominator)
        scale_a, scale_b = other._denominator // common, self._denominator // common
        denominator = self._denominator * scale_a
        if len(a) < len(b):
            a, b, scale_a, scale_b = b, a, scale_b, scale_a
        out = [n * scale_a for n in a]
        for t, n in enumerate(b):
            out[t] += n * scale_b
        return CPoly._over(out, denominator)

    __radd__ = __add__

    def __neg__(self):
        return CPoly._over([-n for n in self._numerators], self._denominator)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CPoly.constant(other)
        if not isinstance(other, CPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return CPoly._over(
                [n * other.numerator for n in self._numerators],
                self._denominator * other.denominator,
            )
        if not isinstance(other, CPoly):
            return NotImplemented
        a, b = self._numerators, other._numerators
        if not (a and b):
            return CPoly()
        out = [0] * (len(a) + len(b) - 1)
        for s, x in enumerate(a):
            if x:
                for t, y in enumerate(b):
                    out[s + t] += x * y
        return CPoly._over(out, self._denominator * other._denominator)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = CPoly.constant(1)
        for _ in range(exponent):
            out = out * self
        return out

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * (1 / Fraction(scalar))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CPoly.constant(other)
        if not isinstance(other, CPoly):
            return NotImplemented
        return (self._numerators, self._denominator) == (other._numerators, other._denominator)

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        """The exact value at a rational ``x`` = p/q: Horner's rule on the
        integer sum_t n_t p**t q**(d - t), divided by the denominator times
        q**d once."""
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        total, power = 0, 1
        for n in reversed(self._numerators):
            total = total * p + n * power
            power *= q
        return Fraction(total * q, self._denominator * power)

    def coeff_strings(self) -> list[str]:
        """Ascending coefficient strings, e.g. ``["-5", "3"]`` for 3*C - 5.

        Each is ``str`` of the reduced ``Fraction``, formed from the stored
        pair with one gcd.
        """
        strings = []
        for n in self._numerators:
            common = math.gcd(n, self._denominator)
            d = self._denominator // common
            strings.append(f"{n // common}/{d}" if d != 1 else str(n // common))
        return strings

    def format_str(self) -> str:
        """Human-readable form in descending powers, e.g. ``"3*C - 5"``."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        coeffs = self.coeffs
        for power in range(self.degree, -1, -1):
            c = coeffs[power]
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                var = "C" if power == 1 else f"C^{power}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"CPoly({self.format_str()})"
