from fractions import Fraction as F

import pytest

from fibercurve import fixtures
from fibercurve.birat import CurveWithPoints
from fibercurve.config import MathError
from fibercurve.family import FamilyCurve


class TestLoad:
    def test_names(self):
        assert fixtures.FIXTURE_NAMES == ("rogers7", "watkins14")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            fixtures.load("nosuch")

    def test_watkins_shape(self):
        fx = fixtures.load("watkins14")
        assert len(fx.cwp.points) == 14
        assert fx.cwp.curve.a == 1
        assert fx.cwp.curve.b == F(402599774387690701016910427272483)
        assert fx.expected_genus_fiber == 20481
        assert len(fx.printed_equations) == 12
        assert fx.expected_c is not None and fx.expected_c < 0

    def test_rogers_shape(self):
        fx = fixtures.load("rogers7")
        n = 797507543735
        assert len(fx.cwp.points) == 7
        assert fx.cwp.curve.b == -F(n) ** 2
        assert fx.expected_genus_fiber == 49
        assert len(fx.printed_equations) == 5
        assert fx.expected_c is None


class TestVerify:
    def test_watkins_passes(self):
        report = fixtures.verify(fixtures.load("watkins14"))
        labels = [label for label, _ in report.checks]
        assert "membership" in labels and "solve_ab" in labels
        # the reference display lists the raw cofactors verbatim
        assert report.printed_reading == "verbatim-lhs"
        assert all(lam == 1 for lam in report.scalars)
        assert ("shared_constant", "C == c") in report.checks

    def test_rogers_passes(self):
        report = fixtures.verify(fixtures.load("rogers7"))
        assert report.printed_reading == "algebraic-lhs"
        # monic reference: one shared scalar, the negated bottom cofactor
        assert len(set(report.scalars)) == 1

    def test_corrupted_b_fails_membership_everywhere(self):
        fx = fixtures.load("watkins14")
        bad_curve = FamilyCurve(
            r=2, s=2, a=fx.cwp.curve.a, b=fx.cwp.curve.b + 1
        )
        from fibercurve.family import contains

        assert all(not contains(bad_curve, p) for p in fx.cwp.points)
        corrupted = fx._replace(
            cwp=CurveWithPoints(curve=bad_curve, points=fx.cwp.points)
        )
        with pytest.raises(MathError, match="point 0"):
            fixtures.verify(corrupted)

    def test_corrupted_printed_equation_names_index(self):
        fx = fixtures.load("watkins14")
        printed = list(fx.printed_equations)
        printed[3] = printed[3]._replace(rhs0=printed[3].rhs0 + 1)
        corrupted = fx._replace(printed_equations=tuple(printed))
        with pytest.raises(MathError, match="equation 5"):
            fixtures.verify(corrupted)

    def test_printed_triple_with_a_zero_entry_has_no_scalar(self):
        # no scalar maps a nonzero raw triple onto a triple holding a 0
        fx = fixtures.load("rogers7")
        printed = list(fx.printed_equations)
        printed[0] = printed[0]._replace(lhs=F(0))
        corrupted = fx._replace(printed_equations=tuple(printed))
        with pytest.raises(MathError) as caught:
            fixtures.verify(corrupted)
        assert str(caught.value) == (
            "printed-system match failed: "
            "reading algebraic-lhs: equation 2 (attempted scalar None); "
            "reading verbatim-lhs: equation 2 (attempted scalar None)")

    def test_hash_pinning(self, tmp_path, monkeypatch):
        monkeypatch.setitem(fixtures.EXPECTED_SHA256, "watkins14", "0" * 64)
        with pytest.raises(MathError, match="hash"):
            fixtures.load("watkins14")


class TestVerifyMismatches:
    """Each check of ``verify`` that the shipped data passes, made to fail
    on ``watkins14`` by one changed field or one replaced helper."""

    def fails(self, fixture):
        with pytest.raises(MathError) as caught:
            fixtures.verify(fixture)
        return str(caught.value)

    def test_no_printed_equations(self):
        fx = fixtures.load("watkins14")
        assert self.fails(fx._replace(printed_equations=())) == (
            "no printed equations to match")

    def test_rank_deficient_jacobian(self, monkeypatch):
        monkeypatch.setattr(fixtures, "smooth_at", lambda system, point: False)
        assert self.fails(fixtures.load("watkins14")) == (
            "Jacobian rank deficient at the point")

    def test_fiber_genus(self):
        fx = fixtures.load("watkins14")
        corrupted = fx._replace(expected_genus_fiber=fx.expected_genus_fiber + 1)
        assert self.fails(corrupted) == "fiber genus 20481 != expected 20482"

    def test_shared_cofactor_of_the_other_sign(self):
        fx = fixtures.load("watkins14")
        report = fixtures.verify(fx._replace(expected_c=-fx.expected_c))
        assert ("shared_constant", "C == -c") in report.checks

    def test_shared_cofactor_neither_c_nor_minus_c(self):
        fx = fixtures.load("watkins14")
        c = fx.expected_c
        assert self.fails(fx._replace(expected_c=c + 1)) == (
            f"shared cofactor {c} is neither c nor -c")

    def test_solve_ab(self, monkeypatch):
        monkeypatch.setattr(fixtures, "solve_ab", lambda r, s, p0, p1: (F(2), F(3)))
        fx = fixtures.load("watkins14")
        assert self.fails(fx) == (
            f"solve_ab returned (2, 3), expected (1, {fx.cwp.curve.b})")
