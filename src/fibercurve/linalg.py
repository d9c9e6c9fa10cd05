"""Exact rank computation and primitive-vector normalization over the
rationals.

Fraction-free (Bareiss) elimination on the integer-cleared matrix: every
intermediate entry is a minor of the original integer matrix, so the
divisions are exact and entries stay integral.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


def clear_denominators(row: Sequence[Fraction]) -> list[int]:
    """The row times the lcm of its denominators; entries are ints or
    Fractions, read through ``numerator``/``denominator`` only."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def primitive_vector(row: Sequence[Fraction], positive: int) -> list[int]:
    """The integer vector proportional to row with content 1 whose entry
    at index ``positive`` is > 0; row[positive] must be nonzero.  A row of
    ints needs no denominators cleared."""
    try:  # math.gcd takes ints only: a Fraction raises TypeError
        g = gcd(*row)
    except TypeError:
        g = gcd(*(row := clear_denominators(row)))
    if row[positive] < 0:
        g = -g
    return [v // g for v in row]


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix of rationals, computed exactly."""
    m = [clear_denominators(r) for r in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    if any(len(r) != n_cols for r in m):
        raise ValueError("ragged matrix")
    rank = 0
    prev_pivot = 1
    for col in range(n_cols):
        pivot_row = next(
            (i for i in range(rank, n_rows) if m[i][col] != 0), None
        )
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, n_rows):
            head = m[i][col]
            for j in range(col + 1, n_cols):
                m[i][j] = (m[i][j] * pivot - head * m[rank][j]) // prev_pivot
            m[i][col] = 0
        prev_pivot = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank
