"""Rational parametrization of the genus-zero fiber (s = 2, n = 2).

For three prescribed x-coordinates the fiber is a single conic
A Y_0^2 + B Y_1^2 + C Y_2^2 = 0 in P^2.  Given one rational point, the
pencil of lines through it parametrizes all the others, and each conic
point lifts to a family member through the three x-coordinates.  Not
every configuration yields a solvable conic (the form can be definite);
absence within the search bound is reported honestly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .birat import CurveWithPoints, LiftObstruction, from_fiber_point
from .config import Config
from .fiber import FiberSystem, ProjPoint, build_fiber


class NoRationalPointError(RuntimeError):
    """No conic point of height within the requested search bound."""


@dataclass(frozen=True)
class ConicModel:
    A: int
    B: int
    C: int
    base_point: ProjPoint

    def value(self, v) -> int:
        return self.A * v[0] ** 2 + self.B * v[1] ** 2 + self.C * v[2] ** 2

    def polar(self, u, v) -> int:
        # polar bilinear form of the diagonal quadratic
        return self.A * u[0] * v[0] + self.B * u[1] * v[1] + self.C * u[2] * v[2]


def _single_equation(system: FiberSystem) -> tuple[int, int, int]:
    eq = system.equations[0]
    return eq.A, eq.B, eq.C


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
    A, B, C = _single_equation(system)
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


def _direction(model: ConicModel, t: tuple[int, int]) -> list[int]:
    t0, t1 = t
    if (t0, t1) == (0, 0):
        raise ValueError("direction (0, 0) is not allowed")
    if gcd(abs(t0), abs(t1)) != 1:
        raise ValueError("direction must be a coprime pair")
    pivot = next(
        i for i, c in enumerate(model.base_point.coords) if c != 0
    )
    basis = [i for i in range(3) if i != pivot]
    d = [0, 0, 0]
    d[basis[0]] = t0
    d[basis[1]] = t1
    return d


def parametrize(
    model: ConicModel, t: tuple[int, int]
) -> tuple[ProjPoint, bool]:
    """Second intersection of the conic with the line through the base
    point in direction t.

    Returns (point, tangent_flag); the tangent direction collapses back to
    the base point and is flagged.  Distinct directions give distinct
    points apart from that single degenerate case.
    """
    p = model.base_point.coords
    d = _direction(model, t)
    q_d = model.value(d)
    polar = model.polar(p, d)
    if polar == 0:
        # line tangent at the base point
        return model.base_point, True
    coords = [q_d * pc - 2 * polar * dc for pc, dc in zip(p, d)]
    point = ProjPoint(coords)
    if model.value(point.coords) != 0:
        raise AssertionError("parametrized point left the conic")
    return point, False


def _directions():
    """Canonical coprime directions, one per +-pair, in shell order."""
    for shell in itertools.count(1):
        for t0, t1 in sorted((b, a) for a, b in _half_shell(shell)):
            if gcd(t0, t1) == 1:
                yield t0, t1


def enumerate_curves(
    config: Config, count: int, search_height: int
) -> list[CurveWithPoints]:
    """Up to ``count`` distinct smooth members through the three prescribed
    x-coordinates.

    Streams conic points from the line pencil in a fixed order and lifts
    each with scale 1, skipping points that degenerate (a = 0 or b = 0).
    With scale 1 the lift solves y_j^2 = a alpha_j^(r+1) + b alpha_j for
    j = 0, 1, so (a, b) and (Y_0^2, Y_1^2) determine each other: a point
    whose (Y_0^2, Y_1^2) was already seen, a sign flip of an earlier one or
    the base point again from the tangent direction, is skipped before it
    is lifted.  Deterministic: same inputs, same output sequence.
    """
    if config.s != 2 or config.n != 2:
        raise ValueError("enumeration needs s = 2 and n = 2")
    if count < 0:
        raise ValueError("count must be nonnegative")
    system = build_fiber(config)
    base = find_base_point(system, search_height)
    if base is None:
        A, B, C = _single_equation(system)
        raise NoRationalPointError(
            f"no rational point of height <= {search_height} on "
            f"{A} Y0^2 + {B} Y1^2 + {C} Y2^2 = 0"
        )
    model = ConicModel(*_single_equation(system), base_point=base)

    # Each (a, b) absorbs at most four sign-flipped conic points and lift
    # failures are finite, so this budget is never the binding constraint
    # for a solvable conic; it only guards against looping forever.
    budget = 16 * (count + 2) + 64
    pencil = (
        parametrize(model, t)[0]
        for t in itertools.islice(_directions(), budget)
    )
    results: list[CurveWithPoints] = []
    seen: set[tuple[int, int]] = set()
    for point in itertools.chain([base], pencil):
        if len(results) >= count:
            break
        key = (point[0] ** 2, point[1] ** 2)
        if key in seen:
            continue
        seen.add(key)
        try:
            results.append(from_fiber_point(system, point, scale=Fraction(1)))
        except LiftObstruction:
            pass
    if len(results) < count:
        raise NoRationalPointError(
            f"exhausted {budget} directions with only {len(results)} "
            f"distinct curves"
        )
    return results
