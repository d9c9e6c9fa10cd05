"""The curve family C_{a,b}: y^s = x(a x^r + b).

Exact membership and the genus of a smooth member (one with ab != 0).
Coefficients and coordinates are exact rationals, ints or Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple


class FamilyCurve(NamedTuple):
    r: int
    s: int
    a: Fraction
    b: Fraction


class AffinePoint(NamedTuple):
    x: Fraction
    y: Fraction


def contains(curve: FamilyCurve, p: AffinePoint) -> bool:
    """Exact membership: p.y**s == p.x (a p.x**r + b).

    With y = u/w, x = n/d, a = g/q and b = h/Q this is the integer identity
    u^s d^(r+1) q Q == w^s n (g n^r Q + h q d^r), both denominators being
    nonzero; r and s must be nonnegative."""
    r, s = curve.r, curve.s
    a, b, x, y = curve.a, curve.b, p.x, p.y
    n, d = x.numerator, x.denominator
    q, Q = a.denominator, b.denominator
    d_r = d**r
    lhs = y.numerator**s * d_r * d * q * Q
    return lhs == y.denominator**s * n * (
        a.numerator * n**r * Q + b.numerator * q * d_r
    )


def family_genus(r: int, s: int) -> int:
    """Genus of the smooth model of y^s = f(x), deg f = r + 1, f squarefree.

    Riemann-Hurwitz for the degree-s cyclic cover of the line branched at
    the r+1 simple roots of f and (partially) at infinity:
    g = (r(s-1) + 1 - gcd(s, r+1)) / 2.
    """
    if r < 1 or s < 2:
        raise ValueError("need r >= 1 and s >= 2")
    return (r * (s - 1) + 1 - gcd(s, r + 1)) // 2
