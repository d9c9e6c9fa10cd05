import math
import random
import re
import sys
from fractions import Fraction as F

import pytest

from fibercurve.arith import (
    CyclotomicElement,
    cyclotomic_polynomial,
    euler_phi,
    format_rational,
    int_text,
    integer_nth_root,
    is_sth_power,
    parse_rational,
)


class TestIntegerNthRoot:
    def test_zero(self):
        assert integer_nth_root(0, 2) == 0

    def test_perfect_cube(self):
        assert integer_nth_root(729, 3) == 9

    def test_one_below_cube(self):
        assert integer_nth_root(728, 3) is None

    def test_never_floor_approximation(self):
        rng = random.Random(7)
        for _ in range(500):
            t = rng.randint(2, 10**12)
            s = rng.randint(2, 7)
            assert integer_nth_root(t**s, s) == t
            assert integer_nth_root(t**s - 1, s) is None
            assert integer_nth_root(t**s + 1, s) is None

    def test_huge(self):
        t = 10**80 + 12345
        assert integer_nth_root(t**5, 5) == t

    def test_square_roots_match_isqrt(self):
        rng = random.Random(13)
        values = list(range(200)) + [rng.randint(0, 10**30) for _ in range(300)]
        values += [t * t + d for t in (rng.randint(1, 10**20) for _ in range(100))
                   for d in (-1, 0, 1)]
        for m in values:
            root = math.isqrt(m)
            assert integer_nth_root(m, 2) == (root if root * root == m else None)

    def test_domain(self):
        with pytest.raises(ValueError):
            integer_nth_root(-1, 2)
        with pytest.raises(ValueError):
            integer_nth_root(4, 1)


class TestIsSthPower:
    def test_square(self):
        assert is_sth_power(49, 2) == 7

    def test_odd_sign_transfer(self):
        assert is_sth_power(-27, 3) == -3

    def test_two_is_not_a_square(self):
        assert is_sth_power(2, 2) is None

    def test_negative_even_absent(self):
        assert is_sth_power(-4, 2) is None

    def test_power_round_trip(self):
        # t^s is always an s-th power; multiplying by a stray prime kills it
        rng = random.Random(11)
        prime = 101
        for _ in range(300):
            t = rng.randint(-10**6, 10**6)
            for s in (2, 3, 4, 5):
                root = is_sth_power(t**s, s)
                assert type(root) is int
                assert root == (abs(t) if s % 2 == 0 else t)
                if t:
                    assert is_sth_power(t**s * prime, s) is None

    def test_exponent_below_two_is_refused_for_every_m(self):
        for m in (-8, -1, 0, 1, 4):
            for s in (1, 0, -1, -2):
                with pytest.raises(ValueError, match="exponent must be >= 2"):
                    is_sth_power(m, s)


class TestRationalCodec:
    def test_format(self):
        assert format_rational(F(3, 7)) == "3/7"
        assert format_rational(F(-5)) == "-5"
        assert format_rational(F(0)) == "0"

    def test_parse(self):
        assert parse_rational("3/7") == F(3, 7)
        assert parse_rational("-5") == F(-5)
        assert parse_rational("−8/3") == F(-8, 3)  # unicode minus

    @pytest.mark.parametrize("text, value", [
        (" 1", F(1)), ("2 ", F(2)), ("\t-3/4\n", F(-3, 4)), ("007", F(7)),
        ("-0", F(0)), ("6/4", F(3, 2)),
    ])
    def test_outer_whitespace_and_plain_digits(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", [
        "--1", "1_0", "\u0663", "1/-2", "-1/-2", "+1", "1 / 2", "\u2212 5",
        "- 5", "", " ", "/2", "1/", "1//2", "1/2/3", "1.5", "1e3", "0x10",
        "\uff11", "\u00b2", "1\n/2",
    ])
    def test_malformed_text_names_the_input(self, text):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_rational(text)

    def test_zero_denominator_names_the_input(self):
        with pytest.raises(ValueError, match="'1/0'"):
            parse_rational("1/0")

    @pytest.mark.parametrize("value", [3, None, 1.5, ["1"]])
    def test_non_string_names_the_value(self, value):
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            parse_rational(value)

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(200):
            q = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
            assert parse_rational(format_rational(q)) == q


def lifted_then_default(value, lifted_of, default_of):
    """``lifted_of(value)`` with CPython's int digit limit lifted, then
    ``default_of(value)`` under its default of 4300 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int digit limit before Python 3.10.7")
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        lifted = lifted_of(value)
        sys.set_int_max_str_digits(4300)
        return lifted, default_of(value)
    finally:
        sys.set_int_max_str_digits(limit)


class TestLongIntegerText:
    @pytest.mark.parametrize("value", [
        2**8192, 2**8192 - 1, -(2**8193), 10**2467, 3**50_001, -(7**40_000),
    ], ids=["2^8192", "2^8192-1", "-2^8193", "10^2467", "3^50001", "-7^40000"])
    def test_int_text_converts_no_long_int_with_str(self, value):
        # under CPython's 4300-digit limit, str() of any piece past 4300
        # digits would raise: the decimal path only converts short pieces
        expected, text = lifted_then_default(value, str, int_text)
        assert text == expected

    @pytest.mark.parametrize("q", [
        F(2**8192 + 1), F(2**8192 - 1), F(-(10**4301)),
        F(-(3**7001), 2**49_999 + 1), F(10**4301, 7**20_000),
    ], ids=["2^8192+1", "2^8192-1", "-10^4301", "p/q-50000-bit-q",
            "10^4301/7^20000"])
    def test_format_rational_does_not_depend_on_the_digit_limit(self, q):
        # str(Fraction) is "p" or "p/q", the text format_rational writes
        expected, text = lifted_then_default(q, str, format_rational)
        assert text == expected


class TestCyclotomicPolynomial:
    def test_small_orders(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for d in range(1, 61):
            coeffs = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()
            assert cyclotomic_polynomial(d) == tuple(int(c) for c in reversed(coeffs))

    def test_degrees_are_totients(self):
        for d, phi in ((5, 4), (8, 4), (9, 6), (10, 4), (30, 8)):
            assert euler_phi(d) == phi


class TestCyclotomicElement:
    def test_zeta4_squared(self):
        z = CyclotomicElement.zeta(4)
        assert z * z == CyclotomicElement(4, [-1])

    def test_zeta3_cubed(self):
        z = CyclotomicElement.zeta(3)
        assert z * (z * z) == CyclotomicElement.one(3)

    def test_order6_expansion(self):
        # (z - 1)^2 = z^2 - 2z + 1 = (z - 1) - 2z + 1 = -z  since z^2 = z - 1
        z = CyclotomicElement.zeta(6)
        w = z - CyclotomicElement.one(6)
        assert w * w == -z

    def test_generator_has_exact_order(self):
        for d in range(1, 13):
            g = CyclotomicElement.zeta(d)
            one = CyclotomicElement.one(d)
            assert g**d == one
            for e in range(1, d):
                assert g**e != one

    def test_ring_axioms_on_random_triples(self):
        rng = random.Random(5)
        for d in (3, 4, 5, 6, 8, 12):
            phi = euler_phi(d)
            for _ in range(25):
                def rand_elt():
                    return CyclotomicElement(
                        d, [F(rng.randint(-9, 9), rng.randint(1, 4))
                            for _ in range(phi)]
                    )
                x, y, z = rand_elt(), rand_elt(), rand_elt()
                assert x * y == y * x
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CyclotomicElement.zeta(3) + CyclotomicElement.zeta(4)
        with pytest.raises(ValueError):
            CyclotomicElement.zeta(3) * CyclotomicElement.zeta(6)

    def test_immutable(self):
        z = CyclotomicElement.zeta(5)
        with pytest.raises(AttributeError):
            z.order = 7
