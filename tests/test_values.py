"""The value types of ``src/fibercurve``: immutable, equal and hashed by
value, and printed as ``Name(field=value, ...)``, which every message and
the CLI corpus rely on."""

from fractions import Fraction as F

import pytest

from fibercurve.birat import CurveWithPoints
from fibercurve.config import Config
from fibercurve.family import AffinePoint, FamilyCurve
from fibercurve.fiber import (FiberEquation, FiberSystem, MembershipReport,
                              TrivialPointCertificate)
from fibercurve.fixtures import Fixture, FixtureReport, PrintedEquation
from fibercurve.search import SearchReport


def config():
    return Config(2, 2, (F(1), F(2), F(3)))


def cwp():
    return CurveWithPoints(FamilyCurve(2, 2, F(1), F(3)),
                           (AffinePoint(F(1), F(2)),))


CONFIG = "Config(r=2, s=2, alphas=(Fraction(1, 1), Fraction(2, 1), Fraction(3, 1)))"
CWP = ("CurveWithPoints(curve=FamilyCurve(r=2, s=2, a=Fraction(1, 1), "
       "b=Fraction(3, 1)), points=(AffinePoint(x=Fraction(1, 1), "
       "y=Fraction(2, 1)),))")
EQUATION = "FiberEquation(i=2, A=5, B=-4, C=1)"

CASES = [
    (config, CONFIG),
    (lambda: FamilyCurve(2, 2, F(1), F(3)),
     "FamilyCurve(r=2, s=2, a=Fraction(1, 1), b=Fraction(3, 1))"),
    (lambda: AffinePoint(F(1), F(-2, 3)),
     "AffinePoint(x=Fraction(1, 1), y=Fraction(-2, 3))"),
    (lambda: FiberEquation(2, 5, -4, 1), EQUATION),
    (lambda: FiberSystem(config(), (FiberEquation(2, 5, -4, 1),)),
     f"FiberSystem(config={CONFIG}, equations=({EQUATION},))"),
    (lambda: MembershipReport(((2, 0), (3, -5))),
     "MembershipReport(residues=((2, 0), (3, -5)))"),
    (lambda: TrivialPointCertificate(1, 2, 2, 2),
     "TrivialPointCertificate(r=1, s=2, n=2, verified_count=2)"),
    (cwp, CWP),
    (lambda: SearchReport(config(), 2, (cwp(),), 40, 0, True, 1, 3, (5, 7)),
     f"SearchReport(config={CONFIG}, height_bound=2, hits=({CWP},), "
     f"search_space_size=40, elapsed_ms=0, complete=True, workers=1, "
     f"sieve_survivors=3, block_us=(5, 7))"),
    (lambda: PrintedEquation(2, F(-1), F(5), F(-4)),
     "PrintedEquation(i=2, lhs=Fraction(-1, 1), rhs0=Fraction(5, 1), "
     "rhs1=Fraction(-4, 1))"),
    (lambda: Fixture("rogers7", cwp(), 3, None, ()),
     f"Fixture(name='rogers7', cwp={CWP}, expected_genus_fiber=3, "
     f"expected_c=None, printed_equations=())"),
    (lambda: FixtureReport("rogers7", (("genus", "3"),), "algebraic-lhs",
                           (F(1, 2),)),
     "FixtureReport(name='rogers7', checks=(('genus', '3'),), "
     "printed_reading='algebraic-lhs', scalars=(Fraction(1, 2),))"),
]
IDS = [text.split("(", 1)[0] for _, text in CASES]


@pytest.mark.parametrize("make, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned(make, text):
    value = make()
    field = text.split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("make, text", CASES, ids=IDS)
def test_equal_values_are_equal_and_hash_equal(make, text):
    one, two = make(), make()
    assert one is not two
    assert one == two and not one != two
    assert hash(one) == hash(two)


@pytest.mark.parametrize("make, text", CASES, ids=IDS)
def test_repr_is_name_and_fields(make, text):
    assert repr(make()) == text
