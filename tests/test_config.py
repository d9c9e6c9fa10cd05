import itertools
import random
from fractions import Fraction as F

import pytest

from fibercurve import fixtures
from fibercurve.config import (
    Config,
    InvalidConfigError,
    Regime,
    classify,
    validate,
    violations,
)
from fibercurve.fiber import fiber_genus, raw_coefficients


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


def leibniz_det(rows):
    """Exact determinant by the permutation expansion; shares no code with
    ``linalg``."""
    total = F(0)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = F(-1) ** inversions
        for row, col in zip(rows, perm):
            term *= row[col]
        total += term
    return total


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

    def test_admissible_exactly_when_every_maximal_minor_is_nonzero(self):
        """Second oracle, from the fiber instead of the pairs of alphas.

        For n >= 2 the fiber is cut out by the n - 1 diagonal forms
        A_i Y_0^s + B_i Y_1^s + C_i Y_i^s, and it is smooth exactly when
        every maximal minor of their (n-1) x (n+1) coefficient matrix is
        nonzero.  Row i holds the ``raw_coefficients`` A_i, B_i and C_i in
        columns 0, 1 and i.  The raw triple is the definition, so it is
        read from an unchecked Config, whatever its alphas.
        """
        pool = [F(p, q) for p in range(-3, 4) for q in range(1, 4)]
        rng = random.Random(16)
        admissible = 0
        for _ in range(3000):
            r, n = rng.randint(1, 4), rng.randint(2, 4)
            alphas = tuple(rng.choice(pool) for _ in range(n + 1))
            config = Config(r=r, s=2, alphas=alphas)
            rows = []
            for i in range(2, n + 1):
                row = [F(0)] * (n + 1)
                row[0], row[1], row[i] = raw_coefficients(config, i)
                rows.append(row)
            smooth = all(
                leibniz_det([[row[c] for c in cols] for row in rows])
                for cols in itertools.combinations(range(n + 1), n - 1)
            )
            assert smooth == (violations(r, 2, alphas) == []), (r, alphas)
            admissible += smooth
        assert 500 < admissible < 2500  # both verdicts well represented

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
