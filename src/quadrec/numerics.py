"""Arithmetic substrate: exact rationals, tracked-precision reals, C-polynomials.

Three kinds of numbers appear throughout the package:

* exact rationals (``fractions.Fraction``), used whenever a quantity is a
  ratio of integers by construction -- recurrence parameters, orbit values
  for small step counts, series coefficients;
* ``PrecReal``, a decimal floating-point value that carries its working
  precision with it.  Every operation rounds at the precision of its result
  (the minimum of the operand precisions), so a single operation contributes
  relative error at most ``10**(2 - P)`` at precision ``P``;
* ``CPoly``, a dense polynomial in one formal symbol ``C`` with exact
  rational coefficients, held as integer numerators over one shared
  denominator.  The asymptotic-series engine keeps every derived
  coefficient as a ``CPoly`` so that nothing is rounded before a caller asks
  for digits.

The module also owns the Euler--Mascheroni constant (110 verified digits)
and the one Decimal Horner rule (``horner``) that every polynomial-in-C
evaluation goes through.  ``confirmed_value`` repeats a computation with 20
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

from .errors import DomainError, PrecisionError, RefusalError

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
    if precision < 1:
        raise DomainError("precision must be at least 1")
    if precision > _GAMMA_MAX_PRECISION:
        raise RefusalError(
            f"euler_gamma is tabulated to {_GAMMA_MAX_PRECISION} digits; "
            f"{precision} requested"
        )
    return PrecReal(_EULER_GAMMA_110, precision)


def _divide(n: int, d: int, ctx: Context) -> Decimal:
    """``ctx.divide(Decimal(n), Decimal(d))`` for d > 0, by integer division.

    Converting n and d to ``Decimal`` first costs time quadratic in their
    length; here the quotient is taken to a few digits past ``ctx.prec``
    and rounded half-even.  An exact quotient keeps the exponent closest to
    the ideal exponent 0, as ``Context.divide`` does ("0.25", "12" and not
    "12.00"), so the result is the same ``Decimal``, exponent included.
    """
    if n == 0:
        return Decimal(0)
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
    if tail > half or (tail == half and (rest or head & 1)):
        head += 1
        if head == 10**precision:
            head, exponent = head // 10, exponent + 1
    elif not (tail or rest):
        # exact: drop trailing zeros towards the ideal exponent 0
        while exponent < 0 and head % 10 == 0:
            head, exponent = head // 10, exponent + 1
    dec = ctx.scaleb(Decimal(head), exponent)
    return dec.copy_negate() if n < 0 else dec


class PrecReal:
    """A real number bundled with its decimal working precision.

    Instances are immutable by convention: no method mutates ``value`` or
    ``precision`` after construction.  Binary operations take the *minimum*
    of the two precisions, so precision can only be lost explicitly, never
    gained by accident.
    """

    __slots__ = ("value", "precision")

    def __init__(self, value, precision: int | None = None):
        if isinstance(value, PrecReal):
            if precision is None:
                precision = value.precision
            value = value.value
        if precision is None:
            raise DomainError("precision is required")
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

    # -- construction helpers -------------------------------------------------

    def _coerce(self, other) -> "PrecReal":
        if isinstance(other, PrecReal):
            return other
        if isinstance(other, (int, Fraction, Decimal)):
            return PrecReal(other, self.precision)
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic ------------------------------------------------------------

    def _binary(self, other, op: str):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = min(self.precision, other.precision)
        ctx = Context(prec=prec)
        result = getattr(ctx, op)(self.value, other.value)
        return PrecReal(result, prec)

    def __add__(self, other):
        return self._binary(other, "add")

    def __radd__(self, other):
        return self._binary(other, "add")

    def __sub__(self, other):
        return self._binary(other, "subtract")

    def __rsub__(self, other):
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return coerced._binary(self, "subtract")

    def __mul__(self, other):
        return self._binary(other, "multiply")

    def __rmul__(self, other):
        return self._binary(other, "multiply")

    def __truediv__(self, other):
        return self._binary(other, "divide")

    def __rtruediv__(self, other):
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return coerced._binary(self, "divide")

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        ctx = Context(prec=self.precision)
        return PrecReal(ctx.power(self.value, Decimal(exponent)), self.precision)

    def __neg__(self):
        return PrecReal(self.value.copy_negate(), self.precision)

    def __abs__(self):
        return PrecReal(self.value.copy_abs(), self.precision)

    def ln(self) -> "PrecReal":
        if self.value <= 0:
            raise DomainError("ln requires a positive argument")
        ctx = Context(prec=self.precision)
        return PrecReal(ctx.ln(self.value), self.precision)

    def exp(self) -> "PrecReal":
        ctx = Context(prec=self.precision)
        return PrecReal(ctx.exp(self.value), self.precision)

    # -- comparisons (at the lower of the two precisions) -----------------------

    def _compared(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return None
        prec = min(self.precision, other.precision)
        ctx = Context(prec=prec)
        return ctx.plus(self.value), ctx.plus(other.value)

    def __eq__(self, other):
        pair = self._compared(other)
        if pair is None:
            return NotImplemented
        return pair[0] == pair[1]

    def __lt__(self, other):
        pair = self._compared(other)
        if pair is None:
            return NotImplemented
        return pair[0] < pair[1]

    def __le__(self, other):
        pair = self._compared(other)
        if pair is None:
            return NotImplemented
        return pair[0] <= pair[1]

    def __gt__(self, other):
        pair = self._compared(other)
        if pair is None:
            return NotImplemented
        return pair[0] > pair[1]

    def __ge__(self, other):
        pair = self._compared(other)
        if pair is None:
            return NotImplemented
        return pair[0] >= pair[1]

    # No __hash__: equality is taken at the lower of two precisions, so equal
    # values may differ in their trailing digits and no hash can agree with it.

    # -- rendering ---------------------------------------------------------------

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
    """Dense polynomial in the formal constant ``C`` over the rationals.

    Stored as integer numerators, in ascending order of the power of ``C``,
    over one shared positive denominator.  The pair is normalised -- no
    trailing zero numerators, and one ``math.gcd`` divides out every common
    factor -- so equal polynomials have equal pairs.  ``coeffs`` gives the
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

    def derivative(self) -> "CPoly":
        return CPoly._over(
            [k * n for k, n in enumerate(self._numerators) if k >= 1], self._denominator
        )

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for ``Fraction``, rounded for
        ``PrecReal`` (one rounding per step)."""
        if isinstance(x, PrecReal):
            acc = PrecReal(0, x.precision)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coeff_strings(self) -> list[str]:
        """Ascending coefficient strings, e.g. ``["-5", "3"]`` for 3*C - 5."""
        return [str(c) for c in self.coeffs]

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
