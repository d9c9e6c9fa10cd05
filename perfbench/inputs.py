"""Seeded inputs for the four workloads.

Everything here is a pure function of the seed and the size, so the same
seed gives the same inputs.  Curves are planted: a known (a, b) is chosen
and its rational points are found by an integer brute force over x, so
every output of the program can be checked against ground truth.  The
inputs reach the program only as JSON strings on its command line.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


def fmt(q: Fraction) -> str:
    """The program's exact "p/q" form ("p" for integers)."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _iroot(m: int, s: int) -> int | None:
    """Exact s-th root of m >= 0, or None; independent of the program, so
    that the plants stay ground truth for it."""
    if m < 2:
        return m
    x = 1 << ((m.bit_length() + s - 1) // s)
    while True:
        t = ((s - 1) * x + m // x ** (s - 1)) // s
        if t >= x:
            break
        x = t
    return x if x**s == m else None


def curve_points(r: int, s: int, a: Fraction, b: Fraction, x_height: int):
    """Points (x, y) of y^s = x(a x^r + b) with x = p/q, |p|, q <= x_height.

    One x per class of x^r and y >= 0 when s is even, so the x-coordinates
    always form an admissible configuration.
    """
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    points = []
    seen = set()
    for q in range(1, x_height + 1):
        qr = q**r
        den0 = qr * q * ad * bd
        for p in range(-x_height, x_height + 1):
            if p == 0 or gcd(abs(p), q) != 1:
                continue
            num = p * (an * bd * p**r + bn * ad * qr)
            g = gcd(abs(num), den0)
            num, den = num // g, den0 // g
            if num < 0 and s % 2 == 0:
                continue
            root_num = _iroot(abs(num), s)
            if root_num is None:
                continue
            root_den = _iroot(den, s)
            if root_den is None:
                continue
            x = Fraction(p, q)
            if x**r in seen:
                continue
            seen.add(x**r)
            y = Fraction(-root_num if num < 0 else root_num, root_den)
            assert y**s == x * (a * x**r + b)
            points.append((x, y))
    return points


@dataclass(frozen=True)
class Curve:
    """A curve with points, in the program's JSON form."""

    r: int
    s: int
    a: Fraction
    b: Fraction
    points: tuple[tuple[Fraction, Fraction], ...]

    def obj(self) -> dict:
        return {
            "curve": {"r": self.r, "s": self.s, "a": fmt(self.a), "b": fmt(self.b)},
            "points": [{"x": fmt(x), "y": fmt(y)} for x, y in self.points],
        }

    def config_obj(self) -> dict:
        return {"r": self.r, "s": self.s, "alphas": [fmt(x) for x, _ in self.points]}

    def scaled(self, lam: Fraction) -> "Curve":
        """The same points seen through x = lam * X.

        (X, y) = (x / lam, y) lies on y^s = X(a lam^(r+1) X^r + b lam), so
        the configuration changes while the work per curve stays alike.
        """
        return Curve(
            self.r,
            self.s,
            self.a * lam ** (self.r + 1),
            self.b * lam,
            tuple((x / lam, y) for x, y in self.points),
        )

    @classmethod
    def from_obj(cls, obj: dict) -> "Curve":
        c = obj["curve"]
        return cls(
            int(c["r"]),
            int(c["s"]),
            Fraction(c["a"]),
            Fraction(c["b"]),
            tuple((Fraction(p["x"]), Fraction(p["y"])) for p in obj["points"]),
        )


# Each planted curve is seen through x = lam X with lam drawn from these, so
# a seed changes every configuration but hardly the work per curve.
SCALINGS = tuple(Fraction(k) for k in (1, -1, 2, -2)) + (Fraction(1, 2), Fraction(-1, 2))


def planted_curves(seed: int, count: int | None = None) -> list[Curve]:
    """``count`` planted curves with distinct configurations, or all of them.

    (r, s) is (1, 2) or (2, 2), a and b are nonzero integers in [-8, 8],
    and the points come from x of height <= 50: about 20 points a curve,
    up to about 44.  Curves with fewer than three points are skipped.
    The seed orders the plants and picks each one's scaling.  All of them
    (306) make every seed's set alike in size, so the seed does not move
    the figures by the choice of curves.
    """
    rng = random.Random(seed)
    combos = [
        (r, s, a, b)
        for r, s in ((1, 2), (2, 2))
        for a in range(-8, 9)
        for b in range(-8, 9)
        if a and b
    ]
    rng.shuffle(combos)
    curves, configs = [], set()
    for r, s, a, b in combos:
        if len(curves) == count:
            break
        points = curve_points(r, s, Fraction(a), Fraction(b), 50)
        key = (r, s, tuple(x for x, _ in points))
        if len(points) < 3 or key in configs:
            continue
        configs.add(key)
        curves.append(Curve(r, s, Fraction(a), Fraction(b), tuple(points)))
    if count is not None and len(curves) < count:
        raise ValueError(f"only {len(curves)} distinct plants, asked for {count}")
    return [c.scaled(rng.choice(SCALINGS)) for c in curves]


@dataclass(frozen=True)
class SearchCase:
    config: str  # JSON configuration passed to --config
    planted: tuple[str, str]  # the planted (a, b) in "p/q" form


def search_cases(seed: int) -> list[SearchCase]:
    """Two planted search configurations: (r, s) = (2, 2) and (1, 3).

    a = u/w and b = v/w with |u|, |v| <= 4 and w <= 2, so the planted pair
    lies inside every search box of height >= 4.  The configuration is the
    x-coordinates of up to four of its points (at least three).
    """
    rng = random.Random(seed * 7919 + 17)
    cases = []
    for r, s in ((2, 2), (1, 3)):
        while True:
            u, v = rng.randint(-4, 4), rng.randint(-4, 4)
            w = rng.choice((1, 1, 1, 2))
            if u == 0 or v == 0 or gcd(gcd(abs(u), abs(v)), w) != 1:
                continue
            a, b = Fraction(u, w), Fraction(v, w)
            points = curve_points(r, s, a, b, 30)
            if len(points) >= 3:
                break
        alphas = [fmt(x) for x, _ in points[:4]]
        config = json.dumps({"r": r, "s": s, "alphas": alphas})
        cases.append(SearchCase(config, (fmt(a), fmt(b))))
    return cases
