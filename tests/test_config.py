import itertools
import random
from fractions import Fraction as F

import pytest

from fibercurve import fixtures
from fibercurve.config import (
    InvalidConfigError,
    Regime,
    classify,
    validate,
    violations,
)
from fibercurve.fiber import fiber_genus


def pairwise_violations(r, s, alphas):
    """Reference: the all-pairs scan, raising every alpha to the r per pair."""
    problems = []
    if r < 1:
        problems.append(f"r must be >= 1, got {r}")
    if s < 2:
        problems.append(f"s must be >= 2, got {s}")
    values = [F(a) for a in alphas]
    if len(values) < 2:
        problems.append("need at least two x-coordinates")
    for i, a in enumerate(values):
        if a == 0:
            problems.append(f"alpha[{i}] is zero")
    if r >= 1:
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                if values[i] == values[j]:
                    problems.append(f"alpha[{i}] == alpha[{j}]")
                elif values[i] ** r == values[j] ** r:
                    problems.append(
                        f"alpha[{i}]^{r} == alpha[{j}]^{r} with distinct bases"
                    )
    return problems


class TestValidate:
    def test_simple_valid(self):
        cfg = validate(2, 2, [F(1), F(2), F(3)])
        assert cfg.n == 2

    def test_rth_power_collision(self):
        with pytest.raises(InvalidConfigError) as exc:
            validate(2, 2, [F(1), F(-1)])
        assert any("alpha[0]^2 == alpha[1]^2" in p for p in exc.value.problems)

    def test_reference_coordinates_valid(self):
        fx = fixtures.load("watkins14")
        cfg = validate(2, 2, [p.x for p in fx.cwp.points])
        assert cfg.n == 13

    def test_every_violation_reported(self):
        problems = violations(2, 2, [F(0), F(2), F(2), F(-2)])
        assert any("alpha[0] is zero" in p for p in problems)
        assert any("alpha[1] == alpha[2]" in p for p in problems)
        assert any("alpha[1]^2 == alpha[3]^2" in p for p in problems)

    def test_order_insensitive(self):
        rng = random.Random(2)
        base = [F(1), F(-1), F(3), F(0)]
        verdicts = set()
        for _ in range(10):
            shuffled = base[:]
            rng.shuffle(shuffled)
            verdicts.add(bool(violations(2, 2, shuffled)))
        assert verdicts == {True}
        for perm in itertools.permutations([F(1), F(2), F(5)]):
            assert not violations(2, 2, list(perm))

    def test_matches_pairwise_reference(self):
        # zeros, repeats and +-x pairs, which collide exactly for even r;
        # plain ints equal to Fractions of the pool; large numerators and
        # denominators, whose r-th powers are compared as integer pairs
        big, den = 10**40 + 7, 3**90
        pool = [F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3), F(9),
                0, 1, -1, 2, -2, 9, F(big, den), F(-big, den), F(big), -big,
                F(den, big), F(-den, big)]
        rng = random.Random(11)
        for _ in range(600):
            r = rng.randint(1, 4)
            s = rng.randint(1, 3)
            alphas = [rng.choice(pool) for _ in range(rng.randint(0, 9))]
            assert violations(r, s, alphas) == pairwise_violations(r, s, alphas)

    @pytest.mark.parametrize("alphas, problem", [
        ([2, F(2)], "alpha[0] == alpha[1]"),
        ([F(2), 2], "alpha[0] == alpha[1]"),
        ([-2, F(2)], "alpha[0]^2 == alpha[1]^2 with distinct bases"),
        ([F(-3, 7), F(3, 7)], "alpha[0]^2 == alpha[1]^2 with distinct bases"),
    ])
    def test_int_and_fraction_alphas_collide(self, alphas, problem):
        assert violations(2, 2, alphas) == [problem]
        assert pairwise_violations(2, 2, alphas) == [problem]


class TestClassify:
    def test_genus_zero_case(self):
        assert classify(2, 2) == (Regime.GENUS_ZERO, 4)

    def test_genus_one_cases(self):
        assert classify(3, 2) == (Regime.GENUS_ONE, 3)
        assert classify(2, 3) == (Regime.GENUS_ONE, 4)

    def test_general_type_case(self):
        assert classify(2, 4) == (Regime.GENUS_GE_TWO, 4)

    def test_agrees_with_fiber_genus(self):
        for s in range(2, 7):
            for n in range(2, 11):
                regime, n0 = classify(s, n)
                g = fiber_genus(s, n)
                assert (regime is Regime.GENUS_GE_TWO) == (g >= 2)
                assert (regime is Regime.GENUS_ZERO) == (g == 0)
                assert (regime is Regime.GENUS_ONE) == (g == 1)
                assert n0 == (4 if s == 2 else 3)
