"""Rational parametrization of the genus-zero fiber (s = 2, n = 2).

For three prescribed x-coordinates the fiber is one conic, the equation
A Y_0^2 + B Y_1^2 + C Y_2^2 = 0 of ``build_fiber``.  Given one rational
point, the pencil of lines through it parametrizes all the others on that
equation; each pencil vector is checked on the conic equation, in integers,
before it is normalized.  Each conic point gives a family member through
the three x-coordinates at scale 1, y_j = Y_j: the base point's exact
square root and that check prove every point on the fiber, so no second
membership check runs, and (a, b) comes from ``birat.cramer``, whose
x-only constants are computed once per configuration.  Not every
configuration yields a solvable conic (the form can be definite); absence
within the search bound is reported honestly.
"""

from __future__ import annotations

import itertools
from math import gcd, isqrt
from typing import NamedTuple

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
    """Canonical coprime directions, one per +-pair, in shell order."""
    for shell in itertools.count(1):
        for t0, t1 in sorted((b, a) for a, b in _half_shell(shell)):
            if gcd(t0, t1) == 1:
                yield t0, t1


class ConicReport(NamedTuple):
    """The curves of one ``enumerate_curves`` run and its counters: the
    base point and each examined pencil point is a duplicate, a degenerate
    point or a curve.  ``directions`` counts the pencil points examined,
    ``budget`` the directions the run may draw."""

    curves: list[CurveWithPoints]
    directions: int
    duplicates: int
    degenerate: int
    budget: int


def enumerate_curves(
    config: Config, count: int, search_height: int
) -> ConicReport:
    """Up to ``count`` distinct smooth members through the three prescribed
    x-coordinates.

    Streams conic points from the line pencil in a fixed order and takes
    each at scale 1 (y_j = Y_j for the primitive vector Y), skipping points
    that degenerate (a = 0 or b = 0).  At scale 1, y_j^2 = a alpha_j^(r+1)
    + b alpha_j for j = 0, 1, so (a, b) and (Y_0^2, Y_1^2) determine each
    other: a point whose (Y_0^2, Y_1^2) was already seen, a sign flip of an
    earlier one or the base point again from the tangent direction, is
    skipped before it is normalized.  A pencil vector is divided by its gcd,
    deduplicated, solved for (a, b), and only a kept point gets the
    canonical sign (first nonzero entry positive) that ``ProjPoint`` gives.
    Deterministic: same inputs, same output sequence.  At count 0 no point
    is examined and every counter is 0.
    """
    if config.s != 2 or config.n != 2:
        raise ValueError("enumeration needs s = 2 and n = 2")
    if count < 0:
        raise ValueError("count must be nonnegative")
    system = build_fiber(config)
    base = find_base_point(system, search_height)
    if base is None:
        eq = system.equations[0]
        raise MathError(
            f"no rational point of height <= {search_height} on "
            f"{eq.A} Y0^2 + {eq.B} Y1^2 + {eq.C} Y2^2 = 0"
        )

    # Each (a, b) absorbs at most four sign-flipped conic points and lift
    # failures are finite, so this budget is never the binding constraint
    # for a solvable conic; it only guards against looping forever.
    budget = 16 * (count + 2) + 64
    pencil = (
        parametrize(system, base, t)
        for t in itertools.islice(_directions(), budget)
    )
    # every point is on the fiber, whose one equation is the conic:
    # find_base_point returns only exact roots of C Y_2^2 = -(A Y_0^2 +
    # B Y_1^2), and parametrize raises unless its vector is on the conic
    x0, x1, x2 = config.alphas
    solve = cramer(config.r, x0, x1)
    results: list[CurveWithPoints] = []
    seen: set[tuple[int, int]] = set()
    examined = duplicates = degenerate = 0
    for y0, y1, y2 in itertools.chain([base.coords], pencil):
        if len(results) >= count:
            break
        examined += 1
        g = gcd(y0, y1, y2)
        y0, y1, y2 = y0 // g, y1 // g, y2 // g
        key = (y0 * y0, y1 * y1)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        a, b = solve(key[0], 1, key[1], 1)
        if a == 0 or b == 0:
            degenerate += 1
            continue
        if y0 < 0 or (y0 == 0 and y1 < 0):  # Y_0 = Y_1 = 0 is not on it
            y0, y1, y2 = -y0, -y1, -y2
        results.append(CurveWithPoints(
            FamilyCurve(config.r, config.s, a, b),
            (AffinePoint(x0, y0), AffinePoint(x1, y1), AffinePoint(x2, y2)),
        ))
    if len(results) < count:
        raise MathError(
            f"exhausted {budget} directions with only {len(results)} "
            f"distinct curves"
        )
    # the base point is examined first, unless count is 0
    directions = max(examined - 1, 0)
    return ConicReport(results, directions, duplicates, degenerate, budget)
