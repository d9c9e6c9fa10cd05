"""Exact scalar arithmetic.

Everything downstream computes over arbitrary-precision rationals; the
scalar type is ``fractions.Fraction`` (always lowest terms, positive
denominator).  This module adds exact s-th roots of integers, the "p/q"
string codec used by all JSON interfaces, and arithmetic in the
cyclotomic ring Q[x]/(Phi_d) needed for root-of-unity point verification.

No floating point anywhere: results are bit-exact by construction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

# [-]digits[/digits], "-" the ASCII hyphen or the unicode minus; [0-9],
# unlike \d, takes ASCII digits only
_RATIONAL = re.compile(r"\s*([-−]?)([0-9]+)(?:/([0-9]+))?\s*")


def shown(value) -> str:
    """``repr`` of an input value for a message.  A string longer than 80
    characters, or another value whose repr is, is cut to its first 40
    characters and its length."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 80:
        return repr(value)
    head = repr(text[:40]) if isinstance(value, str) else text[:40]
    return f"{head}… ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or bare "p") with an optional leading minus sign.

    Whitespace may surround the text but not split it.  Any other text
    raises ValueError naming it.
    """
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(
            f'expected a rational string "p/q", got {shown(text)}'
        )
    sign, num, den = match.groups()
    p = -int(num) if sign else int(num)
    if den is None:
        return Fraction(p)
    if (q := int(den)) == 0:
        raise ValueError(f"zero denominator in {shown(text)}")
    return Fraction(p, q)


def int_text(value: int) -> str:
    """``str(value)`` in subquadratic time, where ``str`` is quadratic: past
    8192 bits, the halves of the binary expansion join exactly in decimal."""
    bits = value.bit_length()
    if bits <= 8192:
        return str(value)
    from decimal import Context, Decimal, Inexact, Overflow
    digits = bits * 30103 // 100000 + 1  # at least the digits of value
    ctx = Context(prec=digits, Emax=digits, traps=[Inexact, Overflow])
    h = bits // 2
    hi, lo = (Decimal(int_text(v)) for v in (value >> h, value & ~(-1 << h)))
    return str(ctx.fma(hi, ctx.power(2, h), lo))


def format_rational(q: Fraction) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    num, den = q.numerator, q.denominator
    return int_text(num) if den == 1 else f"{int_text(num)}/{int_text(den)}"


def integer_nth_root(m: int, s: int) -> int | None:
    """Exact s-th root of a nonnegative integer.

    Returns t with t**s == m, or None when m is not a perfect s-th power.
    Pure integer Newton iteration seeded from the bit length; never a
    floor approximation and never floating point.
    """
    if s < 2:
        raise ValueError(f"exponent must be >= 2, got {s}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m < 2:
        return m
    # 2**ceil(bits/s) strictly exceeds m**(1/s), so Newton descends.
    x = 1 << ((m.bit_length() + s - 1) // s)
    while True:
        t = ((s - 1) * x + m // x ** (s - 1)) // s
        if t >= x:
            break
        x = t
    return x if x**s == m else None


def is_sth_power(m: int, s: int) -> int | None:
    """Integer t with t**s == m, if one exists: for even s, m >= 0 and
    t >= 0; for odd s, t takes the sign of m."""
    root = integer_nth_root(abs(m), s)  # refuses s < 2 for every m
    if m >= 0 or root is None:
        return root
    return None if s % 2 == 0 else -root


# ---------------------------------------------------------------------------
# Cyclotomic ring arithmetic
# ---------------------------------------------------------------------------


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Exact division in Z[x] by a monic divisor; remainder must vanish.
    num = list(num)
    deg = len(den) - 1
    quot = [0] * (len(num) - deg)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + deg]
        quot[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num[:deg]):
        raise ArithmeticError("polynomial division left a remainder")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Coefficients of Phi_d, lowest degree first (monic, integral)."""
    if d < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (d - 1) + [1]  # x**d - 1
    for e in range(1, d):
        if d % e == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(e))
    return tuple(poly)


def euler_phi(d: int) -> int:
    return len(cyclotomic_polynomial(d)) - 1


def _reduce_mod_cyclotomic(order: int, coeffs: list[Fraction]) -> list[Fraction]:
    phi_poly = cyclotomic_polynomial(order)
    deg = len(phi_poly) - 1
    coeffs = list(coeffs)
    for k in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[k]
        if c:
            base = k - deg
            for j, pj in enumerate(phi_poly):
                coeffs[base + j] -= c * pj
    return coeffs[:deg]


class CyclotomicElement:
    """Element of Q(zeta_d) in the power basis 1, zeta, ..., zeta^(phi(d)-1).

    Coordinates are exact rationals; products are reduced modulo the d-th
    cyclotomic polynomial.  Arithmetic combines elements of one order
    only; a rational q enters as ``CyclotomicElement(d, [q])``.
    Immutable, safe to share.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        if order < 1:
            raise ValueError("order must be positive")
        phi = euler_phi(order)
        values = [Fraction(c) for c in coeffs]
        if len(values) > phi:
            values = _reduce_mod_cyclotomic(order, values)
        values.extend([Fraction(0)] * (phi - len(values)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(values))

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicElement is immutable")

    @classmethod
    def one(cls, order: int) -> "CyclotomicElement":
        return cls(order, [Fraction(1)])

    @classmethod
    def zeta(cls, order: int) -> "CyclotomicElement":
        """The distinguished primitive d-th root of unity."""
        return cls(order, [Fraction(0), Fraction(1)])

    def _check_order(self, other: "CyclotomicElement") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check_order(other)
        return CyclotomicElement(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "CyclotomicElement":
        return CyclotomicElement(self.order, [-a for a in self.coeffs])

    def __sub__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        return self + (-other)

    def __mul__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check_order(other)
        a, b = self.coeffs, other.coeffs
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return CyclotomicElement(self.order, prod)

    def __pow__(self, exponent: int) -> "CyclotomicElement":
        if exponent < 0:
            raise ValueError("negative powers not supported")
        result = CyclotomicElement.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, CyclotomicElement):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)
