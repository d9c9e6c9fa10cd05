"""Planted-instance oracles shared by the test modules.

A plant starts from a known (a, b) and recovers its rational points by
brute force over x of bounded height, so every downstream operation can
be checked against ground truth.  The x-scan is integer arithmetic all
the way down; the witnesses are exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from fibercurve.arith import integer_nth_root
from fibercurve.birat import CurveWithPoints
from fibercurve.family import AffinePoint, FamilyCurve, contains


def rational_root(q, s: int) -> Fraction | None:
    """Rational t with t**s == q, if one exists: the nonnegative root for
    even s, the root of q's sign for odd s.  In lowest terms, q is an s-th
    power exactly when its numerator and denominator are."""
    q = Fraction(q)
    if q < 0 and s % 2 == 0:
        return None
    num = integer_nth_root(abs(q.numerator), s)
    den = integer_nth_root(q.denominator, s)
    if num is None or den is None:
        return None
    return Fraction(num if q >= 0 else -num, den)


def brute_force_points(
    curve: FamilyCurve, x_height: int = 50
) -> list[AffinePoint]:
    """All points with x = p/q, |p|, q <= x_height, one representative per
    r-th-power class of x, nonnegative y for even s."""
    r, s = curve.r, curve.s
    an, ad = curve.a.numerator, curve.a.denominator
    bn, bd = curve.b.numerator, curve.b.denominator
    points: list[AffinePoint] = []
    seen: set[Fraction] = set()
    for q in range(1, x_height + 1):
        qr = q**r
        den_base = qr * q * ad * bd
        for p in range(-x_height, x_height + 1):
            if p == 0 or gcd(abs(p), q) != 1:
                continue
            # x (a x^r + b) = p (an bd p^r + bn ad q^r) / (q^{r+1} ad bd)
            num = p * (an * bd * p**r + bn * ad * qr)
            den = den_base
            g = gcd(abs(num), den)
            num //= g
            den //= g
            if num < 0 and s % 2 == 0:
                continue
            root_num = integer_nth_root(abs(num), s)
            if root_num is None:
                continue
            root_den = integer_nth_root(den, s)
            if root_den is None:
                continue
            if num < 0:
                root_num = -root_num
            x = Fraction(p, q)
            cls = x**r
            if cls in seen:
                continue
            seen.add(cls)
            y = Fraction(root_num, root_den)
            point = AffinePoint(x, y)
            assert contains(curve, point)
            points.append(point)
    return points


def plant_curves(
    rng: random.Random,
    count: int,
    r_s_choices=((1, 2), (2, 2)),
    coeff_max: int = 8,
    x_height: int = 50,
    min_points: int = 3,
    max_points: int | None = None,
) -> list[CurveWithPoints]:
    """Random small (a, b) with ab != 0; plants with fewer than min_points
    brute-forced points are skipped."""
    plants: list[CurveWithPoints] = []
    while len(plants) < count:
        r, s = r_s_choices[rng.randrange(len(r_s_choices))]
        a = rng.randint(-coeff_max, coeff_max)
        b = rng.randint(-coeff_max, coeff_max)
        if a == 0 or b == 0:
            continue
        curve = FamilyCurve(r=r, s=s, a=Fraction(a), b=Fraction(b))
        points = brute_force_points(curve, x_height)
        if len(points) < min_points:
            continue
        if max_points is not None:
            points = points[:max_points]
        plants.append(CurveWithPoints(curve=curve, points=tuple(points)))
    return plants


def plant_search_instances(
    rng: random.Random,
    count: int,
    coeff_max: int = 4,
    denominators=(1, 1, 1, 2),
    x_height: int = 30,
):
    """Plants for the exhaustive search: returns (cwp, u, v, w) tuples with
    gcd(u, v, w) = 1; the planting height is max(|u|, |v|, w)."""
    out = []
    while len(out) < count:
        u = rng.randint(-coeff_max, coeff_max)
        v = rng.randint(-coeff_max, coeff_max)
        w = denominators[rng.randrange(len(denominators))]
        if u == 0 or v == 0 or gcd(gcd(abs(u), abs(v)), w) != 1:
            continue
        curve = FamilyCurve(r=2, s=2, a=Fraction(u, w), b=Fraction(v, w))
        points = brute_force_points(curve, x_height)
        if len(points) < 3:
            continue
        # keep the search box small: at most 4 prescribed coordinates
        cwp = CurveWithPoints(curve=curve, points=tuple(points[:4]))
        out.append((cwp, u, v, w))
    return out
