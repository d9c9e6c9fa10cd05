"""The curve family C_{a,b}: y^s = x(a x^r + b).

Exact membership and the genus of a smooth member (one with ab != 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


@dataclass(frozen=True)
class FamilyCurve:
    r: int
    s: int
    a: Fraction
    b: Fraction

    def rhs(self, x: Fraction) -> Fraction:
        return x * (self.a * x**self.r + self.b)


@dataclass(frozen=True)
class AffinePoint:
    x: Fraction
    y: Fraction


def contains(curve: FamilyCurve, p: AffinePoint) -> bool:
    """Exact membership: p.y**s == p.x (a p.x**r + b)."""
    return p.y**curve.s == curve.rhs(p.x)


def family_genus(r: int, s: int) -> int:
    """Genus of the smooth model of y^s = f(x), deg f = r + 1, f squarefree.

    Riemann-Hurwitz for the degree-s cyclic cover of the line branched at
    the r+1 simple roots of f and (partially) at infinity:
    g = (r(s-1) + 1 - gcd(s, r+1)) / 2.
    """
    if r < 1 or s < 2:
        raise ValueError("need r >= 1 and s >= 2")
    numerator = r * (s - 1) + 1 - gcd(s, r + 1)
    if numerator % 2 != 0:
        raise AssertionError("genus formula produced an odd numerator")
    return numerator // 2
