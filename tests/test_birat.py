import json
import random
from fractions import Fraction as F

import pytest

from planting import plant_curves

from fibercurve import fixtures
from fibercurve.birat import (
    CurveWithPoints,
    from_fiber_point,
    solve_ab,
    to_fiber_point,
)
from fibercurve.config import MathError, validate
from fibercurve.family import AffinePoint, FamilyCurve, contains
from fibercurve.fiber import ProjPoint, build_fiber, on_fiber


class TestSolveAb:
    def test_hand_example(self):
        a, b = solve_ab(2, 2, AffinePoint(F(1), F(2)), AffinePoint(F(2), F(6)))
        assert (a, b) == (F(14, 3), F(-2, 3))
        curve = FamilyCurve(2, 2, a, b)
        assert contains(curve, AffinePoint(F(1), F(2)))
        assert contains(curve, AffinePoint(F(2), F(6)))

    def test_singular_when_rth_powers_collide(self):
        with pytest.raises(MathError, match=r"x_0\^2 == x_1\^2: singular"):
            solve_ab(2, 2, AffinePoint(F(1), F(2)), AffinePoint(F(-1), F(2)))
        with pytest.raises(MathError, match="x-coordinates must be nonzero"):
            solve_ab(2, 2, AffinePoint(F(0), F(0)), AffinePoint(F(1), F(2)))

    def test_round_trip_contract(self):
        # a curve through two arbitrary points is recovered exactly
        rng = random.Random(41)
        for _ in range(300):
            r = rng.randint(1, 4)
            s = rng.randint(2, 4)
            x0 = F(rng.randint(-20, 20), rng.randint(1, 6))
            x1 = F(rng.randint(-20, 20), rng.randint(1, 6))
            if x0 == 0 or x1 == 0 or x0**r == x1**r:
                continue
            y0 = F(rng.randint(-10, 10), rng.randint(1, 4))
            y1 = F(rng.randint(-10, 10), rng.randint(1, 4))
            p0, p1 = AffinePoint(x0, y0), AffinePoint(x1, y1)
            a, b = solve_ab(r, s, p0, p1)
            curve = FamilyCurve(r, s, a, b)
            assert contains(curve, p0) and contains(curve, p1)
            assert solve_ab(r, s, p0, p1) == (a, b)

    def test_reference_curves(self):
        for name in fixtures.FIXTURE_NAMES:
            fx = fixtures.load(name)
            a, b = solve_ab(
                fx.cwp.curve.r, fx.cwp.curve.s, fx.cwp.points[0], fx.cwp.points[1]
            )
            assert (a, b) == (fx.cwp.curve.a, fx.cwp.curve.b)


class TestToFiberPoint:
    def test_reference_points(self):
        for name in fixtures.FIXTURE_NAMES:
            fx = fixtures.load(name)
            point = to_fiber_point(fx.cwp)
            assert point == ProjPoint([p.y for p in fx.cwp.points])
            system = build_fiber(fx.cwp.verify())
            assert on_fiber(system, point).ok

    def test_off_curve_point_rejected(self):
        cwp = CurveWithPoints(FamilyCurve(2, 2, F(1), F(3)), (
            AffinePoint(F(1), F(2)), AffinePoint(F(3), F(6)),
            AffinePoint(F(12), F(43)),
        ))
        with pytest.raises(MathError, match="point 2 is not on the curve"):
            to_fiber_point(cwp)

    def test_every_y_zero_has_no_fiber_point(self):
        cwp = CurveWithPoints(FamilyCurve(2, 2, F(0), F(0)), tuple(
            AffinePoint(F(x), F(0)) for x in (1, 2, 3)))
        with pytest.raises(MathError, match=r"\(a, b\) = \(0, 0\)"):
            to_fiber_point(cwp)

    def test_singular_member_is_refused_after_the_input_checks(self):
        # y^2 = x has (1,1),(4,2),(9,3); y^2 = x^3 has (1,1),(4,8),(9,27)
        for r, a, b, ys in ((1, 0, 1, (1, 2, 3)), (2, 1, 0, (1, 8, 27))):
            points = tuple(AffinePoint(F(x), F(y))
                           for x, y in zip((1, 4, 9), ys))
            curve = FamilyCurve(r, 2, F(a), F(b))
            with pytest.raises(MathError, match=(
                    rf"singular member: \(a, b\) = \({a}, {b}\)")):
                to_fiber_point(CurveWithPoints(curve, points))
            # a point off the curve, then n < 2, are reported first
            off = points[:2] + (AffinePoint(F(9), F(4)),)
            with pytest.raises(MathError, match="point 2 is not on the curve"):
                to_fiber_point(CurveWithPoints(curve, off))
            with pytest.raises(ValueError, match="need n >= 2"):
                to_fiber_point(CurveWithPoints(curve, points[:2]))

    def test_sign_flip_keeps_verdict(self):
        rng = random.Random(47)
        for cwp in plant_curves(rng, 5, r_s_choices=((2, 2),)):
            system = build_fiber(cwp.verify())
            ys = [p.y for p in cwp.points]
            for _ in range(5):
                flips = [rng.choice((1, -1)) for _ in ys]
                if any(y == 0 for y in ys):
                    continue
                point = ProjPoint([e * y for e, y in zip(flips, ys)])
                assert on_fiber(system, point).ok


class TestFromFiberPoint:
    def test_small_lift(self):
        cfg = validate(2, 2, [F(1), F(2), F(3)])
        cwp = from_fiber_point(build_fiber(cfg), ProjPoint([0, 1, 2]), scale=F(1))
        assert (cwp.curve.a, cwp.curve.b) == (F(1, 6), F(-1, 6))
        assert cwp.points[0].y == 0

    def test_default_scale_normalizes_y0(self):
        cfg = validate(2, 2, [F(1), F(2), F(3)])
        # y = (2, 3, 4) lies over the curve through (1,2),(2,3),(3,4)
        point = ProjPoint([2, 3, 4])
        cwp = from_fiber_point(build_fiber(cfg), point)
        assert cwp.points[0].y == 1

    def test_default_scale_is_exact(self):
        # 1/Y_0 with |Y_0| > 1 and no power of two: a float would not lift
        cfg = validate(1, 2, [F(1, 2), F(3), F(-5, 3)])
        cwp = from_fiber_point(build_fiber(cfg), ProjPoint([21, -90, 34]))
        ys = [p.y for p in cwp.points]
        assert ys == [F(1), F(-30, 7), F(34, 21)]
        assert all(type(y) is F for y in ys)
        assert (cwp.curve.a, cwp.curve.b) == (F(404, 245), F(288, 245))

    def test_default_scale_gives_the_twist_by_the_first_point(self):
        # points (x_0, 1), (x_i, y_i/y_0) on (a/y_0^s, b/y_0^s)
        for name in fixtures.FIXTURE_NAMES:
            cwp = fixtures.load(name).cwp
            curve, (x0, y0) = cwp.curve, (cwp.points[0].x, cwp.points[0].y)
            lifted = from_fiber_point(build_fiber(cwp.verify()), to_fiber_point(cwp))
            assert lifted.points == (AffinePoint(x0, F(1)),) + tuple(
                AffinePoint(p.x, p.y / y0) for p in cwp.points[1:]
            )
            assert lifted.curve == FamilyCurve(
                curve.r, curve.s, curve.a / y0**curve.s, curve.b / y0**curve.s
            )

    def test_default_scale_needs_nonzero_y0(self):
        cfg = validate(2, 2, [F(1), F(2), F(3)])
        with pytest.raises(MathError, match="Y_0"):
            from_fiber_point(build_fiber(cfg), ProjPoint([0, 1, 2]))

    def test_off_fiber_rejected(self):
        cfg = validate(2, 2, [F(1), F(2), F(3)])
        with pytest.raises(MathError, match="not on the fiber"):
            from_fiber_point(build_fiber(cfg), ProjPoint([1, 1, 1]), scale=F(1))

    def test_off_fiber_names_the_coordinate(self):
        # a corrupted Y_5 breaks only the form of index 5
        cwp = fixtures.load("watkins14").cwp
        coords = list(to_fiber_point(cwp).coords)
        coords[5] += 1
        with pytest.raises(MathError, match="not on the fiber") as info:
            from_fiber_point(build_fiber(cwp.verify()), ProjPoint(coords))
        assert json.loads(str(info.value))["index"] == 5

    def test_degenerate_lift_is_an_obstruction(self):
        # y^2 = x has (1,1),(4,2),(9,3); lifting forces a = 0.  y^2 = x^3
        # has (1,1),(4,8),(9,27); lifting forces b = 0
        cfg = validate(2, 2, [F(1), F(4), F(9)])
        for coords in ([1, 2, 3], [1, 8, 27]):
            with pytest.raises(MathError, match="degenerate"):
                from_fiber_point(build_fiber(cfg), ProjPoint(coords), scale=F(1))

    def test_round_trip_recovers_parameters(self):
        rng = random.Random(53)
        plants = plant_curves(
            rng, 25, r_s_choices=((1, 2), (2, 2), (1, 3), (2, 3)))
        assert {(c.curve.r, c.curve.s) for c in plants} == {
            (1, 2), (2, 2), (1, 3), (2, 3)}
        for cwp in plants:
            point = to_fiber_point(cwp)
            # to_fiber_point does not check membership: the fiber is the oracle
            assert on_fiber(build_fiber(cwp.verify()), point).ok
            # fix the projective scale from the first nonzero y-coordinate
            k = next(i for i, p in enumerate(cwp.points) if p.y != 0)
            lifted = from_fiber_point(
                build_fiber(cwp.verify()), point, scale=cwp.points[k].y / point[k]
            )
            assert (lifted.curve.a, lifted.curve.b) == (
                cwp.curve.a,
                cwp.curve.b,
            )
            assert lifted.points == cwp.points

    def test_scale_moves_parameters_by_sth_powers(self):
        rng = random.Random(59)
        for cwp in plant_curves(rng, 5, r_s_choices=((2, 2),)):
            point = to_fiber_point(cwp)
            if point[0] == 0:
                continue
            base = from_fiber_point(build_fiber(cwp.verify()), point, scale=F(1))
            lam = F(3, 2)
            scaled = from_fiber_point(build_fiber(cwp.verify()), point, scale=lam)
            s = cwp.curve.s
            assert scaled.curve.a == base.curve.a * lam**s
            assert scaled.curve.b == base.curve.b * lam**s
