"""Rational parametrization of the genus-zero fiber (s = 2, n = 2).

For three prescribed x-coordinates the fiber is one conic, the equation
A Y_0^2 + B Y_1^2 + C Y_2^2 = 0 of ``build_fiber``.  Given one rational
point, the pencil of lines through it parametrizes all the others on that
equation; each pencil vector is checked on the conic equation, in integers,
before it is normalized.  Each conic point gives a family member through
the three x-coordinates at scale 1, y_j = Y_j: one check of the base point
on the conic and that check of each vector prove every point on the
fiber, so no second membership check runs.  (a, b) comes from the
constants of ``birat.cramer``, computed once per configuration, over their
one denominator: a curve is a row of ints from the pencil vector on.  The
pencil reaches every point, so a solvable conic never runs out of curves,
and they are yielded as they are found.  Not every configuration yields a
solvable conic (the form can be definite); absence within the search bound
is reported honestly, before any curve.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt

from .birat import CurveWithPoints, cramer
from .config import Config, MathError
from .family import AffinePoint, FamilyCurve
from .fiber import FiberSystem, ProjPoint, build_fiber


def _half_shell(k: int):
    """The 4k pairs (a, b) with max(a, |b|) = k, a >= 0 and b > 0 when
    a = 0: one of each +- pair on the square shell, in lexicographic order."""
    yield 0, k
    for a in range(1, k):
        yield a, -k
        yield a, k
    for b in range(-k, k + 1):
        yield k, b


def find_base_point(
    system: FiberSystem, search_height: int
) -> ProjPoint | None:
    """First conic point over primitive integer triples of bounded height.

    Deterministic order: shells on max(|y_0|, |y_1|) with y_0 >= 0, then
    lexicographic; y_2 is recovered from the equation as a nonnegative
    integer square root.  Triples whose third coordinate exceeds the
    height bound are rejected, so the scan is exhaustive over primitive
    triples of height <= search_height.  The first hit is primitive: a
    multiple g P of a conic point P lies g shells further out than P.
    """
    eq = system.equations[0]
    A, B, C = eq.A, eq.B, eq.C
    if search_height < 1:
        raise ValueError("search height must be positive")
    for shell in range(1, search_height + 1):
        for y0, y1 in _half_shell(shell):
            # exact: rem == 0 iff C | t; C > 0 is build_fiber's normalization
            t, rem = divmod(-(A * y0 * y0 + B * y1 * y1), C)
            if rem or t < 0:
                continue
            root = isqrt(t)
            if root * root == t and root <= search_height:
                return ProjPoint([y0, y1, root])
    return None


def parametrize(
    system: FiberSystem, base: ProjPoint, t: tuple[int, int]
) -> tuple[int, int, int]:
    """Second intersection of the conic with the line through ``base`` in
    direction t, a coprime pair with a nonzero entry: t fills the two
    coordinates other than the first nonzero one of ``base``.

    Returns an integer vector on the conic, not normalized: its gcd may
    exceed 1 and its first nonzero entry may be negative.  The tangent
    direction meets the conic only at ``base`` and returns its coordinates;
    distinct directions give distinct points apart from that one.  The
    intersection is checked on the conic equation before it is returned.
    """
    eq = system.equations[0]
    A, B, C = eq.A, eq.B, eq.C
    p0, p1, p2 = base.coords
    t0, t1 = t
    # no conic point has Y_0 = Y_1 = 0: it would need C Y_2^2 = 0, C != 0
    d0, d1, d2 = (0, t0, t1) if p0 else (t0, 0, t1)
    polar = A * p0 * d0 + B * p1 * d1 + C * p2 * d2
    if polar == 0:  # the tangent at base
        return base.coords
    q_d, polar = A * d0 * d0 + B * d1 * d1 + C * d2 * d2, 2 * polar
    x0, x1, x2 = q_d * p0 - polar * d0, q_d * p1 - polar * d1, q_d * p2 - polar * d2
    if A * x0 * x0 + B * x1 * x1 + C * x2 * x2:
        raise AssertionError("parametrized point left the conic")
    return x0, x1, x2


def _directions():
    """Canonical coprime directions, one per +-pair, in shell order: the
    swapped pairs (b, a) of ``_half_shell(k)`` in lexicographic order,
    which is (-k, 1..k), (-k+1..k-1, k), then (k, 0..k)."""
    for k in itertools.count(1):
        yield from [(-k, t) for t in range(1, k + 1) if gcd(k, t) == 1]
        yield from [(t, k) for t in range(1 - k, k) if gcd(t, k) == 1]
        yield from [(k, t) for t in range(k + 1) if gcd(k, t) == 1]


class ConicReport:
    """One ``enumerate_curves`` run: ``rows`` yields its curves as they are
    found, as ints (a_num, a_den, b_num, b_den, y_0, y_1, y_2), a and b in
    lowest terms and the points (alpha_j, y_j); ``curves`` makes the same
    rows ``CurveWithPoints``.  The counters are final once the walk is
    exhausted: the base point and each examined pencil point (``directions``
    counts them) is a duplicate, a degenerate point or a ``found`` curve."""

    def __init__(self, config, system, base, count, constants) -> None:
        self.directions = self.duplicates = self.degenerate = self.found = 0
        self.rows = self._walk(system, base, count, constants)
        r, s, alphas = config.r, config.s, config.alphas
        self.curves = (CurveWithPoints(
            FamilyCurve(r, s, Fraction(a_num, a_den), Fraction(b_num, b_den)),
            tuple(map(AffinePoint, alphas, ys)))
            for a_num, a_den, b_num, b_den, *ys in self.rows)

    def _walk(self, system, base, count, constants):
        # Distinct directions give distinct pencil points, apart from the
        # tangent's return to the base point.  One key (Y_0^2, Y_1^2) covers
        # at most 4 points, its sign patterns, and a = 0 or b = 0 fixes
        # Y_0^2 : Y_1^2, two lines each, so at most 8 points are degenerate.
        # So the count-th curve comes by direction 4 count + 8: the pencil,
        # which reaches every point of the conic, cannot run out first.
        if count == 0:
            return
        A0, A1, B0, B1, den = constants
        seen: set[tuple[int, int]] = set()
        pencil = (parametrize(system, base, t) for t in _directions())
        for k, (y0, y1, y2) in enumerate(itertools.chain([base.coords], pencil)):
            self.directions = k
            g = gcd(y0, y1, y2)
            y0, y1, y2 = y0 // g, y1 // g, y2 // g
            key = (y0 * y0, y1 * y1)
            if key in seen:
                self.duplicates += 1
                continue
            seen.add(key)
            # birat.cramer's numerators over den at y_j^2 = Y_j^2 / 1
            a, b = key[0] * A0 - key[1] * A1, key[1] * B1 - key[0] * B0
            if a == 0 or b == 0:
                self.degenerate += 1
                continue
            if y0 < 0 or (y0 == 0 and y1 < 0):  # Y_0 = Y_1 = 0 is not on it
                y0, y1, y2 = -y0, -y1, -y2
            self.found += 1
            g, h = gcd(a, den), gcd(b, den)  # den > 0
            yield a // g, den // g, b // h, den // h, y0, y1, y2
            if self.found == count:  # before the next direction is drawn
                return


def enumerate_curves(
    config: Config, count: int, search_height: int
) -> ConicReport:
    """``count`` distinct smooth members through the three prescribed
    x-coordinates, as a report whose ``rows`` yields them one at a time.

    The inputs are checked, the base point found and the constants of
    ``birat.cramer`` computed before the report is returned, so every
    failure comes before the first curve.  Streams conic points from the
    line pencil in a fixed order and takes each at scale 1 (y_j = Y_j for
    the primitive vector Y), skipping points that degenerate (a = 0 or
    b = 0).  At scale 1, y_j^2 = a alpha_j^(r+1) + b alpha_j for j = 0, 1,
    so (a, b) and (Y_0^2, Y_1^2) determine each other: a point whose
    (Y_0^2, Y_1^2) was already seen, a sign flip of an earlier one or the
    base point again from the tangent direction, is skipped before it is
    normalized.  A pencil vector is divided by its gcd, deduplicated,
    solved for (a, b) in integers, and only a kept point gets the canonical
    sign (first nonzero entry positive) that ``ProjPoint`` gives.
    Deterministic: same inputs, same output sequence.  At count 0 no point
    is examined and every counter is 0.
    """
    if config.s != 2 or config.n != 2:
        raise ValueError("enumeration needs s = 2 and n = 2")
    if count < 0:
        raise ValueError("count must be nonnegative")
    system = build_fiber(config)
    base = find_base_point(system, search_height)
    eq = system.equations[0]
    if base is None:
        raise MathError(
            f"no rational point of height <= {search_height} on "
            f"{eq.A} Y0^2 + {eq.B} Y1^2 + {eq.C} Y2^2 = 0"
        )
    # every point is on the fiber, whose one equation is the conic: the
    # base point is checked here, once, and parametrize raises unless its
    # vector is on the conic
    p0, p1, p2 = base.coords
    if eq.A * p0 * p0 + eq.B * p1 * p1 + eq.C * p2 * p2:
        raise AssertionError("base point left the conic")
    constants = cramer(config.r, *config.alphas[:2])
    return ConicReport(config, system, base, count, constants)
