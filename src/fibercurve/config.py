"""Admissible x-coordinate configurations.

A configuration holds n+1 prescribed x-coordinates alpha_0..alpha_n for
points on a family member.  Admissibility requires every alpha_i nonzero,
pairwise distinct, and with pairwise distinct r-th powers; exactly these
conditions make the specialized fiber equations nondegenerate.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple


class MathError(ValueError):
    """A construction of the paper that fails on its input: exit code 1."""


class InvalidConfigError(MathError):
    """Raised with the full list of admissibility violations."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(problems))


class Config(NamedTuple):
    r: int
    s: int
    alphas: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.alphas) - 1


def violations(r: int, s: int, alphas) -> list[str]:
    """Every admissibility violation, each naming the offending index/pair.

    ``alphas`` is a sequence of exact rationals (ints or Fractions), used
    as given.
    """
    problems: list[str] = []
    if r < 1:
        problems.append(f"r must be >= 1, got {r}")
    if s < 2:
        problems.append(f"s must be >= 2, got {s}")
    if len(alphas) < 2:
        problems.append("need at least two x-coordinates")
    for i, a in enumerate(alphas):
        if a == 0:
            problems.append(f"alpha[{i}] is zero")
    if r >= 1:
        # in lowest terms x^r == y^r iff x == y, or |x| == |y| with r even:
        # colliding pairs share a group; sorting restores the (i, j) order
        groups: dict[tuple[int, int], list[int]] = {}
        for j, a in enumerate(alphas):
            num = abs(a.numerator) if r % 2 == 0 else a.numerator
            groups.setdefault((num, a.denominator), []).append(j)
        pairs = sorted(p for g in groups.values() for p in combinations(g, 2))
        for i, j in pairs:
            if alphas[i] == alphas[j]:
                problems.append(f"alpha[{i}] == alpha[{j}]")
            else:
                problems.append(
                    f"alpha[{i}]^{r} == alpha[{j}]^{r} with distinct bases"
                )
    return problems


def validate(r: int, s: int, alphas) -> Config:
    """Build a Config, or raise InvalidConfigError listing every violation."""
    values = tuple(a if type(a) is Fraction else Fraction(a) for a in alphas)
    problems = violations(r, s, values)
    if problems:
        raise InvalidConfigError(problems)
    return Config(r=r, s=s, alphas=values)


class Regime(enum.Enum):
    GENUS_ZERO = "genus-zero"
    GENUS_ONE = "genus-one"
    GENUS_GE_TWO = "genus-at-least-two"


def classify(s: int, n: int) -> tuple[Regime, int]:
    """Fiber-genus regime for (s, n) plus the finiteness threshold n_0.

    The fiber is rational exactly at (s, n) = (2, 2), an elliptic curve at
    (2, 3) and (3, 2), and of general type everywhere else; n_0 is 4 for
    s = 2 and 3 otherwise.
    """
    if n < 2 or s < 2:
        raise ValueError("need n >= 2 and s >= 2")
    n0 = 4 if s == 2 else 3
    if (s, n) == (2, 2):
        return Regime.GENUS_ZERO, n0
    if (s, n) in ((2, 3), (3, 2)):
        return Regime.GENUS_ONE, n0
    return Regime.GENUS_GE_TWO, n0
