import random
from fractions import Fraction as F

import pytest

from fibercurve.linalg import clear_denominators, matrix_rank, primitive_vector


def naive_rank(rows):
    """Plain Gaussian elimination over Fraction, as an independent oracle."""
    m = [[F(x) for x in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(n_rows):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_identity_and_zero():
    eye = [[F(int(i == j)) for j in range(4)] for i in range(4)]
    assert matrix_rank(eye) == 4
    assert matrix_rank([[F(0)] * 3 for _ in range(2)]) == 0
    assert matrix_rank([]) == 0


def test_matches_naive_on_random_matrices():
    rng = random.Random(17)
    for _ in range(200):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        m = [
            [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        assert matrix_rank(m) == naive_rank(m)


def test_planted_rank_deficiency():
    # A (m x k) times B (k x n) has rank at most k
    rng = random.Random(23)
    for _ in range(100):
        m, k, n = rng.randint(2, 5), rng.randint(1, 3), rng.randint(2, 5)
        A = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(m)]
        B = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        prod = [
            [F(sum(A[i][t] * B[t][j] for t in range(k))) for j in range(n)]
            for i in range(m)
        ]
        rank = matrix_rank(prod)
        assert rank <= k
        assert rank == naive_rank(prod)


def test_matches_sympy_rank():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)
    for _ in range(150):
        n_rows, n_cols, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        # a product of random rational factors, so many matrices are deficient
        A = [[F(rng.randint(-7, 7), rng.randint(1, 9)) for _ in range(k)]
             for _ in range(n_rows)]
        B = [[F(rng.randint(-7, 7), rng.randint(1, 9)) for _ in range(n_cols)]
             for _ in range(k)]
        m = [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(n_cols)]
             for i in range(n_rows)]
        expected = sympy.Matrix(
            [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m]
        ).rank()
        assert matrix_rank(m) == expected


def test_big_integer_entries():
    big = 10**40
    m = [[F(big), F(big + 1)], [F(big + 2), F(big + 3)]]
    assert matrix_rank(m) == 2
    dependent = [[F(big), F(2 * big)], [F(3 * big), F(6 * big)]]
    assert matrix_rank(dependent) == 1


def test_clear_denominators_primitive():
    assert clear_denominators([F(1, 2), F(1, 3)]) == [3, 2]
    assert clear_denominators([F(5)]) == [5]


def test_primitive_vector_signs_the_chosen_coordinate():
    row = [F(0), F(-1, 2), F(1, 3), F(-5, 6)]
    assert primitive_vector(row, positive=1) == [0, 3, -2, 5]
    assert primitive_vector(row, positive=2) == [0, -3, 2, -5]
    assert primitive_vector([F(4), F(-6)], positive=0) == [2, -3]


def test_clear_denominators_on_int_and_mixed_rows():
    assert clear_denominators([3, -6, 0]) == [3, -6, 0]
    assert all(type(v) is int for v in clear_denominators([3, -6, 0]))
    assert clear_denominators([2, F(1, 3), F(-5, 6), 0]) == [12, 2, -5, 0]
    assert clear_denominators([F(4), 1]) == [4, 1]
    assert clear_denominators([]) == []


def test_primitive_vector_on_int_and_mixed_rows():
    assert primitive_vector([4, -6, 0], positive=1) == [-2, 3, 0]
    assert primitive_vector([2, F(-1, 3), F(5, 6)], positive=0) == [12, -2, 5]
    assert primitive_vector([F(0), -3, F(9, 2)], positive=1) == [0, 2, -3]


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]],
                                  [[1, 2], [3, 4], []]])
def test_ragged_rows_are_refused(rows):
    with pytest.raises(ValueError, match="^ragged matrix$"):
        matrix_rank(rows)
