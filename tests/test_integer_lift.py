"""The lift's integer formulas against their Fraction definitions.

``fraction_solve_ab`` and ``fraction_contains`` are the Fraction forms of
``birat.solve_ab`` and ``family.contains`` kept as oracles: Cramer's rule
on the 2x2 system and the membership identity, each written as the
definition reads.  The oracle reads each coordinate as a Fraction: on
ints alone, ``/`` would give a float."""

import json
import random
from fractions import Fraction as F

import pytest

from fibercurve import birat, fixtures
from fibercurve.birat import from_fiber_point, solve_ab, to_fiber_point
from fibercurve.config import MathError
from fibercurve.family import AffinePoint, FamilyCurve, contains
from fibercurve.fiber import MembershipReport, ProjPoint, build_fiber


def fraction_solve_ab(r, s, p0, p1):
    if r < 1 or s < 2:
        raise ValueError("need r >= 1 and s >= 2")
    x0, y0 = F(p0.x), F(p0.y)
    x1, y1 = F(p1.x), F(p1.y)
    if x0 == 0 or x1 == 0:
        raise MathError("x-coordinates must be nonzero")
    delta = x0 * x1 * (x0**r - x1**r)
    if delta == 0:
        raise MathError(f"x_0^{r} == x_1^{r}: singular system")
    a = (y0**s * x1 - y1**s * x0) / delta
    b = (x0 ** (r + 1) * y1**s - x1 ** (r + 1) * y0**s) / delta
    return a, b


def fraction_contains(curve, p):
    return p.y**curve.s == p.x * (curve.a * p.x**curve.r + curve.b)


def rational(rng, zero=0.0):
    """An int or a Fraction of either sign, small or with numerator and
    denominator up to 10^6; zero with probability ``zero``."""
    if rng.random() < zero:
        return rng.choice((0, F(0)))
    kind = rng.randrange(4)
    bound = 10**6 if kind >= 2 else 7
    num = rng.randint(1, bound) * rng.choice((1, -1))
    if kind % 2:
        return num  # an int
    return F(num, rng.randint(1, bound))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_solve_ab_matches_the_fraction_formula():
    rng = random.Random(101)
    singular = 0
    for _ in range(3000):
        r, s = rng.randint(1, 5), rng.randint(2, 5)
        x0 = rational(rng, zero=0.05)
        # x_1 = +-x_0 now and then, so x_0^r = x_1^r is drawn
        x1 = (rng.choice((1, -1)) * x0 if rng.random() < 0.1
              else rational(rng, zero=0.05))
        p0 = AffinePoint(x0, rational(rng, zero=0.15))
        p1 = AffinePoint(x1, rational(rng, zero=0.15))
        expected = outcome(fraction_solve_ab, r, s, p0, p1)
        got = outcome(solve_ab, r, s, p0, p1)
        assert got == expected
        if isinstance(got[0], type):
            singular += 1
        else:
            assert all(type(v) is F for v in got)
    assert 300 < singular < 800


def test_contains_matches_the_fraction_identity():
    rng = random.Random(103)
    hits = 0
    for _ in range(3000):
        r, s = rng.randint(1, 5), rng.randint(2, 5)
        x, y = rational(rng, zero=0.1), rational(rng, zero=0.15)
        a = rational(rng)
        # b puts (x, y) on the curve when x != 0; a random b otherwise
        b = F(y) ** s / x - a * F(x) ** r if x != 0 else rational(rng)
        if b.denominator == 1 and rng.random() < 0.5:
            b = int(b)
        curve = FamilyCurve(r, s, a, b)
        for p in (AffinePoint(x, y), AffinePoint(x, -y),
                  AffinePoint(x, y + 1), AffinePoint(x, F(y) / 2),
                  AffinePoint(rational(rng, zero=0.1), y)):
            expected = fraction_contains(curve, p)
            assert contains(curve, p) is expected
            hits += expected
    assert 3000 < hits < 7000


def test_singular_systems_are_still_refused():
    y = AffinePoint(F(2), F(3))
    for r in range(1, 6):
        for zero in (0, F(0)):
            with pytest.raises(MathError, match="nonzero"):
                solve_ab(r, 2, AffinePoint(zero, F(1)), y)
            with pytest.raises(MathError, match="nonzero"):
                solve_ab(r, 2, y, AffinePoint(zero, F(1)))
        for x0, x1 in ((F(3, 7), F(3, 7)), (5, F(5)), (-4, F(-4))):
            with pytest.raises(MathError, match="singular"):
                solve_ab(r, 3, AffinePoint(x0, 1), AffinePoint(x1, 2))
        if r % 2 == 0:
            with pytest.raises(MathError, match="singular"):
                solve_ab(r, 2, AffinePoint(F(3, 7), 1),
                         AffinePoint(F(-3, 7), 2))


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_corrupted_lift_names_the_coordinate(monkeypatch, name):
    # with the on-fiber check waved through, the membership re-check is the
    # one that catches a corrupted coordinate, at the index the Fraction
    # formulas name
    cwp = fixtures.load(name).cwp
    system = build_fiber(cwp.verify())
    good = to_fiber_point(cwp).coords
    monkeypatch.setattr(birat, "on_fiber",
                        lambda system, point: MembershipReport(()))
    config = system.config
    for k in range(len(good)):
        coords = list(good)
        coords[k] += 1
        point = ProjPoint(coords)
        ys = [F(c, point[0]) for c in point.coords]
        a, b = fraction_solve_ab(config.r, config.s,
                                 AffinePoint(config.alphas[0], ys[0]),
                                 AffinePoint(config.alphas[1], ys[1]))
        curve = FamilyCurve(config.r, config.s, a, b)
        expected = next(i for i, (x, y) in enumerate(zip(config.alphas, ys))
                        if not fraction_contains(curve, AffinePoint(x, y)))
        with pytest.raises(MathError, match="inconsistent") as info:
            from_fiber_point(system, point)
        assert json.loads(str(info.value))["index"] == expected
        assert expected == (k if k >= 2 else 2)
