"""The lift's integer formulas against their Fraction definitions.

``fraction_solve_ab``, ``fraction_contains`` and ``fraction_lift`` are the
Fraction forms of ``birat.solve_ab``, ``family.contains`` and ``birat.lift``
kept as oracles: Cramer's rule on the 2x2 system, the membership identity
and the lift at a scale, each written as the definition reads.  The oracle
reads each coordinate as a Fraction: on ints alone, ``/`` would give a
float."""

import itertools
import json
import random
from fractions import Fraction as F

import pytest

from planting import plant_curves

from fibercurve.birat import (CurveWithPoints, cramer, from_fiber_point,
                              lift, solve_ab, to_fiber_point)
from fibercurve.config import MathError, validate
from fibercurve.conic import (_directions, enumerate_curves, find_base_point,
                              parametrize)
from fibercurve.family import AffinePoint, FamilyCurve, contains
from fibercurve.fiber import ProjPoint, build_fiber
from fibercurve.jsonio import cwp_to_obj


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


def fraction_lift(config, point, scale):
    ys = [F(scale) * c for c in point.coords]
    points = tuple(AffinePoint(x, y) for x, y in zip(config.alphas, ys))
    a, b = fraction_solve_ab(config.r, config.s, points[0], points[1])
    if a == 0 or b == 0:
        raise MathError("degenerate")
    return CurveWithPoints(FamilyCurve(config.r, config.s, a, b), points)


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


def test_cramer_constants_match_the_fraction_formula():
    # one set of x-only constants per (r, x_0, x_1), with den > 0, then
    # many points: a = (u_0 A_0 - u_1 A_1) / (e_0 e_1 den) and b = (u_1 B_1
    # - u_0 B_0) / (e_0 e_1 den) are the Fraction formula's (a, b), and the
    # constants refuse a zero x or x_0^r = x_1^r with the formula's
    # MathError text
    rng = random.Random(113)
    solved = refused = folded = 0
    for _ in range(400):
        r = rng.randint(1, 5)
        x0 = rational(rng, zero=0.05)
        x1 = (rng.choice((1, -1)) * x0 if rng.random() < 0.1
              else rational(rng, zero=0.05))
        try:
            A0, A1, B0, B1, den = cramer(r, x0, x1)
        except MathError as exc:
            with pytest.raises(MathError) as want:
                fraction_solve_ab(r, 2, AffinePoint(x0, 1), AffinePoint(x1, 1))
            assert str(exc) == str(want.value)
            refused += 1
            continue
        assert all(type(v) is int for v in (A0, A1, B0, B1, den)) and den > 0
        folded += F(x0) * F(x1) * (F(x0)**r - F(x1)**r) < 0
        for _ in range(8):
            s = rng.randint(2, 5)
            y0, y1 = rational(rng, zero=0.15), rational(rng, zero=0.15)
            e0, e1 = y0.denominator**s, y1.denominator**s
            u0, u1 = y0.numerator**s * e1, y1.numerator**s * e0
            got = (F(u0 * A0 - u1 * A1, e0 * e1 * den),
                   F(u1 * B1 - u0 * B0, e0 * e1 * den))
            want = fraction_solve_ab(r, s, AffinePoint(x0, y0),
                                     AffinePoint(x1, y1))
            assert got == want
            solved += 1
    assert solved > 2000 and 40 < refused < 150 and folded > 100


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


def fiber_points(rng):
    """(system, point) pairs: the pushes of seeded planted curves, and the
    base point and first pencil points of three conics."""
    for cwp in plant_curves(rng, 16, r_s_choices=((1, 2), (2, 2), (1, 3),
                                                   (2, 3))):
        yield build_fiber(cwp.verify()), to_fiber_point(cwp)
    for r, alphas in ((2, (1, 2, 3)), (1, (1, 2, 5)),
                      (1, (F(1, 2), 3, F(-5, 3)))):
        system = build_fiber(validate(r, 2, alphas))
        base = find_base_point(system, 64)
        yield system, base
        for t in itertools.islice(_directions(), 30):
            yield system, ProjPoint(parametrize(system, base, t))


def test_every_lifted_point_is_on_the_lifted_curve():
    # the lift does not check its points on the curve it returns: Cramer's
    # rule and the fiber equations put them there, and the Fraction
    # identity confirms it at the default scale and at explicit ones
    rng = random.Random(107)
    lifted = refused = 0
    for system, point in fiber_points(rng):
        for scale in (None, 1, -1, F(-3, 2), F(5, 7), rational(rng)):
            try:
                cwp = from_fiber_point(system, point, scale)
            except MathError as exc:  # Y_0 = 0, or a = 0 or b = 0
                reason = json.loads(str(exc))["obstruction"]
                assert reason.startswith(("Y_0 = 0", "lifted parameters"))
                refused += 1
                continue
            assert [p.x for p in cwp.points] == list(system.config.alphas)
            assert ProjPoint([p.y for p in cwp.points]) == point
            assert all(fraction_contains(cwp.curve, p) for p in cwp.points)
            lifted += 1
    assert lifted > 500 and refused < lifted // 10


def test_lift_matches_the_fraction_lift():
    # at integer scales the lift builds int y values and at fractional ones
    # Fractions; either way the curve, its points and its JSON are those of
    # the Fraction lift, through lift and through the checked lift, whose
    # default scale is 1/Y_0
    rng = random.Random(109)
    int_lifts = frac_lifts = refused = 0
    for system, point in fiber_points(rng):
        config = system.config
        for scale in (None, 1, 2, -1, F(6, 3), F(-7), rational(rng), F(-3, 2),
                      F(5, 7), rational(rng)):
            if scale is None and point[0] == 0:
                continue
            given = F(1, point[0]) if scale is None else scale
            try:
                expected = fraction_lift(config, point, given)
            except MathError:
                for fn, args in ((lift, (config, point, given)),
                                 (from_fiber_point, (system, point, scale))):
                    with pytest.raises(MathError, match="degenerate"):
                        fn(*args)
                refused += 1
                continue
            integer = F(given).denominator == 1
            for got in (lift(config, point, given),
                        from_fiber_point(system, point, scale)):
                assert got == expected
                assert cwp_to_obj(got) == cwp_to_obj(expected)
                assert all(type(p.y) is (int if integer else F)
                           for p in got.points)
            int_lifts += integer
            frac_lifts += not integer
    assert int_lifts > 500 and frac_lifts > 200 and refused < 100


def test_every_enumerated_curve_verifies():
    # enumerate_curves runs no on_fiber: verify() checks each point on the
    # curve on its own
    configs = [validate(r, 2, alphas) for r, alphas in (
        (2, (1, 2, 3)), (1, (1, 2, 5)), (1, (F(1, 2), 3, F(-5, 3))),
        (3, (1, 2, F(-3, 4))), (4, (1, F(-3, 2), F(2, 3))))]
    for config in configs:
        curves = list(enumerate_curves(config, 200, 64).curves)
        assert len(curves) == 200
        for cwp in curves:
            assert cwp.verify() == config
