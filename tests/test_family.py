from fractions import Fraction as F
from math import gcd

import pytest

from fibercurve import fixtures
from fibercurve.family import (
    AffinePoint,
    FamilyCurve,
    contains,
    family_genus,
)


def hurwitz_genus_oracle(r, s):
    """Riemann-Hurwitz branch accounting for the degree-s cover of the line.

    f = x(ax^r + b) has m = r + 1 simple roots, each totally ramified;
    above infinity sit gcd(s, m) points of index s/gcd(s, m).
    """
    m = r + 1
    ramification = m * (s - 1) + (s - gcd(s, m))
    two_g_minus_2 = -2 * s + ramification
    assert two_g_minus_2 % 2 == 0
    return (two_g_minus_2 + 2) // 2


class TestContains:
    def test_simple_member(self):
        curve = FamilyCurve(2, 2, F(1), F(3))
        assert contains(curve, AffinePoint(F(1), F(2)))
        assert not contains(curve, AffinePoint(F(1), F(3)))

    def test_reference_point(self):
        fx = fixtures.load("watkins14")
        p = next(
            p for p in fx.cwp.points if p.x == F(17715373576525779)
        )
        assert contains(fx.cwp.curve, p)

    def test_sign_invariance_even_s(self):
        for name in fixtures.FIXTURE_NAMES:
            fx = fixtures.load(name)
            for p in fx.cwp.points:
                flipped = AffinePoint(p.x, -p.y)
                assert contains(fx.cwp.curve, flipped)


class TestFamilyGenus:
    @pytest.mark.parametrize("r,s,expected", [(2, 2, 1), (1, 2, 0), (4, 2, 2)])
    def test_known_values(self, r, s, expected):
        assert family_genus(r, s) == expected
        assert hurwitz_genus_oracle(r, s) == expected

    def test_against_hurwitz_oracle(self):
        for r in range(1, 21):
            for s in range(2, 7):
                assert family_genus(r, s) == hurwitz_genus_oracle(r, s)

    def test_hyperelliptic_floor(self):
        for r in range(1, 21):
            assert family_genus(r, 2) == r // 2
