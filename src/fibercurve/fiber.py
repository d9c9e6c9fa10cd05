"""Fiber curves X_{a_n} in P^n and their defining diagonal forms.

A family member y^s = x(a x^r + b) turns each point (x_j, y_j) into the
linear relation y_j^s = a x_j^{r+1} + b x_j.  For any three indices
(0, 1, i) this forces

    det [[x_0,       x_1,       x_i      ],
         [x_0^{r+1}, x_1^{r+1}, x_i^{r+1}],
         [y_0^s,     y_1^s,     y_i^s    ]]  =  0,

because the bottom row is a times row 2 plus b times row 1.  Expanding
along the bottom row gives the diagonal form

    A_i Y_0^s + B_i Y_1^s + C_i Y_i^s,
    A_i = x_1 x_i (x_i^r - x_1^r),
    B_i = x_0 x_i (x_0^r - x_i^r),
    C_i = x_0 x_1 (x_1^r - x_0^r).

Specializing x_j to the configuration values alpha_j yields the n-1
equations (i = 2..n) cutting out the fiber curve X_{a_n} in P^n, a smooth
complete intersection of degree-s hypersurfaces for admissible
configurations.  This module builds those systems, evaluates the
determinant form, tests membership and smoothness of points, computes the
genus and the gonality lower bound, and certifies the root-of-unity points
of the unspecialized ambient variety.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .arith import CyclotomicElement
from .config import Config, MathError
from .linalg import matrix_rank, primitive_vector


class ProjPoint:
    """Point of P^n stored in canonical form.

    Canonical means: the primitive integer vector proportional to the
    coordinates whose first nonzero entry is positive
    (``linalg.primitive_vector``).  The coordinates are given as ints or
    Fractions and stored as ints.  Equality and hashing are exact.
    """

    __slots__ = ("coords",)

    def __init__(self, coords) -> None:
        values = list(coords)
        lead = next((k for k, v in enumerate(values) if v != 0), None)
        if lead is None:
            raise ValueError("projective point needs a nonzero coordinate")
        object.__setattr__(
            self, "coords", tuple(primitive_vector(values, positive=lead))
        )

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, ProjPoint):
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        inner = " : ".join(str(c) for c in self.coords)
        return f"ProjPoint[{inner}]"


class FiberEquation(NamedTuple):
    """Normalized equation A Y_0^s + B Y_1^s + C Y_i^s = 0.

    (A, B, C) is ``primitive_vector(raw, positive=2)`` of the raw cofactor
    triple of ``raw_coefficients``, as ProjPoint normalizes its coords.
    ``raw_scales`` gives back the scale between the two.
    """

    i: int
    A: int
    B: int
    C: int


class FiberSystem(NamedTuple):
    config: Config
    equations: tuple[FiberEquation, ...]


class MembershipReport(NamedTuple):
    residues: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return all(v == 0 for _, v in self.residues)


def raw_coefficients(
    config: Config, i: int
) -> tuple[Fraction, Fraction, Fraction]:
    """Unnormalized cofactor triple (A_i, B_i, C_i) for equation i.

    This is the definition; ``build_fiber`` computes the same triple times
    a positive integer, on integers only.
    """
    if not 2 <= i <= config.n:
        raise ValueError(f"equation index must be in 2..{config.n}, got {i}")
    a0, a1, ai = config.alphas[0], config.alphas[1], config.alphas[i]
    p0, p1, pi = a0**config.r, a1**config.r, ai**config.r
    A = a1 * ai * (pi - p1)
    B = a0 * ai * (p0 - pi)
    C = a0 * a1 * (p1 - p0)
    return A, B, C


def _cleared_powers(config: Config):
    """(P_0, P_1, R, Q, c_01) for alpha_j = p_j/q_j: P_j = p_j^r, the lists
    of R_j = q_j^r and Q_j = q_j^(r+1), and c_01 = p_0 p_1 (P_1 R_0 - P_0 R_1).
    """
    r = config.r
    p0, p1 = config.alphas[0].numerator, config.alphas[1].numerator
    P0, P1 = p0**r, p1**r
    R = [a.denominator**r for a in config.alphas]
    Q = [a.denominator * rq for a, rq in zip(config.alphas, R)]
    return P0, P1, R, Q, p0 * p1 * (P1 * R[0] - P0 * R[1])


def build_fiber(config: Config) -> FiberSystem:
    """The n-1 specialized diagonal equations of X_{a_n}.

    With the powers of ``_cleared_powers`` and P_i = p_i^r, the raw triple
    of ``raw_coefficients`` times Q_0 Q_1 Q_i is

        A = p_1 p_i Q_0 (P_i R_1 - P_1 R_i),
        B = p_0 p_i Q_1 (P_0 R_i - P_i R_0),
        C = c_01 Q_i,

    all integers.  Config admissibility guarantees each is nonzero.  Each
    triple is normalized by ``primitive_vector``, with C > 0.
    """
    if config.n < 2:
        raise ValueError("fiber systems need n >= 2")
    P0, P1, R, Q, c01 = _cleared_powers(config)
    p0, p1 = config.alphas[0].numerator, config.alphas[1].numerator
    equations = []
    for i in range(2, config.n + 1):
        pi = config.alphas[i].numerator
        Pi = pi**config.r
        raw = (
            p1 * pi * Q[0] * (Pi * R[1] - P1 * R[i]),
            p0 * pi * Q[1] * (P0 * R[i] - Pi * R[0]),
            c01 * Q[i],
        )
        if 0 in raw:
            raise AssertionError(
                f"degenerate coefficient in equation {i}; config not admissible"
            )
        equations.append(FiberEquation(i, *primitive_vector(raw, positive=2)))
    return FiberSystem(config=config, equations=tuple(equations))


def raw_scales(system: FiberSystem) -> list[Fraction]:
    """Per equation, the scale that turns (A, B, C) back into the raw triple
    of ``raw_coefficients``: g_i / (Q_0 Q_1 Q_i), g_i = c_01 Q_i // C."""
    *_, Q, c01 = _cleared_powers(system.config)
    return [Fraction(c01 * Q[eq.i] // eq.C, Q[0] * Q[1] * Q[eq.i])
            for eq in system.equations]


def det_form(
    config: Config, i: int, point: ProjPoint, row_power: int | None = None
) -> Fraction:
    """Evaluate the 3x3 determinant with rows (alpha, alpha^row_power, Y^s).

    The default row_power is r+1, the power actually occurring in the
    curve relation; with it the expansion along the bottom row reproduces
    the fiber equation exactly (same sign).  Passing row_power=r gives the
    lower-degree variant, which for r = 1 has two equal rows and therefore
    vanishes identically in Y.
    """
    if not 2 <= i <= config.n:
        raise ValueError(f"equation index must be in 2..{config.n}, got {i}")
    if len(point) != config.n + 1:
        raise ValueError("point length does not match configuration")
    power = config.r + 1 if row_power is None else row_power
    s = config.s
    a = (config.alphas[0], config.alphas[1], config.alphas[i])
    b = (a[0] ** power, a[1] ** power, a[2] ** power)
    c = (point[0] ** s, point[1] ** s, point[i] ** s)
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def on_fiber(system: FiberSystem, point: ProjPoint) -> MembershipReport:
    """Exact membership of a projective point, with per-equation residues."""
    if len(point) != system.config.n + 1:
        raise ValueError("point length does not match configuration")
    s = system.config.s
    y0 = point[0] ** s
    y1 = point[1] ** s
    return MembershipReport(tuple(
        (eq.i, eq.A * y0 + eq.B * y1 + eq.C * point[eq.i] ** s)
        for eq in system.equations))


def fiber_genus(s: int, n: int) -> int:
    """Genus of the smooth complete intersection of n-1 degree-s forms in P^n.

    From the canonical degree: 2g - 2 = s^{n-1} ((n-1)s - n - 1).
    """
    if n < 2 or s < 2:
        raise ValueError("need n >= 2 and s >= 2")
    return 1 + s ** (n - 1) * ((n - 1) * s - n - 1) // 2


def gonality_lower_bound(s: int, n: int) -> int:
    """Complete-intersection gonality bound (s-1) s^{n-2}."""
    if n < 2 or s < 2:
        raise ValueError("need n >= 2 and s >= 2")
    return (s - 1) * s ** (n - 2)


def jacobian_matrix(
    system: FiberSystem, point: ProjPoint
) -> list[list[int]]:
    """Rows of partial derivatives of the n-1 forms at the point."""
    s = system.config.s
    n = system.config.n
    rows = []
    for eq in system.equations:
        row = [0] * (n + 1)
        row[0] = s * eq.A * point[0] ** (s - 1)
        row[1] = s * eq.B * point[1] ** (s - 1)
        row[eq.i] = s * eq.C * point[eq.i] ** (s - 1)
        rows.append(row)
    return rows


def jacobian_rank(system: FiberSystem, point: ProjPoint) -> int:
    """Rank of ``jacobian_matrix(system, point)``, read from its structure.

    Off columns 0 and 1, row i is nonzero only in column i, where it holds
    s C_i Y_i^(s-1) with C_i != 0.  Each row with Y_i != 0 therefore owns a
    pivot column no other row touches, and the rank is their number plus
    the rank of the rows (A_i Y_0^(s-1), B_i Y_1^(s-1)) with Y_i = 0.
    """
    e = system.config.s - 1
    y0, y1 = point[0] ** e, point[1] ** e
    rest = [[eq.A * y0, eq.B * y1]
            for eq in system.equations if point[eq.i] == 0]
    return len(system.equations) - len(rest) + matrix_rank(rest)


def smooth_at(system: FiberSystem, point: ProjPoint) -> bool:
    """True iff the Jacobian at a fiber point has full rank n-1."""
    report = on_fiber(system, point)
    if not report.ok:
        raise ValueError("point is not on the fiber")
    return jacobian_rank(system, point) == system.config.n - 1


# ---------------------------------------------------------------------------
# Root-of-unity points of the ambient variety
# ---------------------------------------------------------------------------


class TrivialPointCertificate(NamedTuple):
    """Record of verified root-of-unity points.

    The verified pairs are the first ``verified_count`` of
    ``exponent_tuples(r, s, n, count)``; only the count is kept, and the
    pairs are regenerated from it.  For each, all n-1 unspecialized forms
    were evaluated in the cyclotomic ring of order lcm(r, s) and found to
    be exactly zero, as they must be: each A_i, B_i and C_i has a factor
    X_a^r - X_b^r, 0 at r-th roots of unity, so every form vanishes there
    for every Y.  The writer ``jsonio.certificate_to_obj`` derives the
    order, the size of the space and whether the pairs only sample it.
    """

    r: int
    s: int
    n: int
    verified_count: int


# the caps of trivial_points: a cyclotomic order, a number of tuples and
# a number of coordinates, n + 1 per tuple (every n <= 4 meets TUPLE_CAP)
ORDER_CAP = 30
TUPLE_CAP = 100_000
COORD_CAP = 500_000


def exponent_tuples(r: int, s: int, n: int, count: int):
    """The first ``count`` pairs (X-exponents j_0..j_n of zeta_r, Y-exponents
    i_0..i_n of zeta_s), lexicographic, X-tuple first."""
    # lazily: a product of the two products would first list both in full
    tuples = ((jt, it) for jt in itertools.product(range(r), repeat=n + 1)
              for it in itertools.product(range(s), repeat=n + 1))
    return itertools.islice(tuples, count)


def trivial_points(r: int, s: int, n: int) -> TrivialPointCertificate:
    """Certify that root-of-unity coordinate tuples satisfy every form.

    Candidate points set X_j = zeta_r^{j_j} and Y_j = zeta_s^{i_j}; the
    forms are evaluated symbolically in Q(zeta_d), d = lcm(r, s), which
    re-checks that each vanishes (see TrivialPointCertificate).  Orders
    beyond ORDER_CAP and tuples of more than COORD_CAP coordinates are
    refused outright.  At most min(TUPLE_CAP, COORD_CAP // (n + 1))
    tuples, a lexicographic prefix, are checked, and the certificate says
    when the space is larger.
    """
    if r < 1 or s < 2:
        raise ValueError("need r >= 1 and s >= 2")
    if n < 2:
        raise ValueError("need n >= 2")
    d = lcm(r, s)
    if d > ORDER_CAP:
        raise MathError(
            f"cyclotomic order {d} exceeds the cap {ORDER_CAP}; refusing"
        )
    if n + 1 > COORD_CAP:
        raise MathError(f"{n + 1} coordinates per tuple exceed the cap "
                        f"{COORD_CAP}; refusing")
    one = CyclotomicElement.one(d)
    zeta = CyclotomicElement.zeta(d)
    powers = [one]
    for _ in range(d):
        powers.append(powers[-1] * zeta)
    if powers[d] != one:
        raise AssertionError("generator does not have order d")

    x_root = [powers[(d // r) * j] for j in range(r)]
    y_root = [powers[(d // s) * i] for i in range(s)]
    x_pow_r = [v**r for v in x_root]
    y_pow_s = [v**s for v in y_root]

    listed = min(TUPLE_CAP, COORD_CAP // (n + 1))
    verified = 0
    coeffs_of = None
    for jt, it in exponent_tuples(r, s, n, listed):
        if jt != coeffs_of:  # the coefficient triples of a new X-tuple
            X = [x_root[j] for j in jt]
            Xr = [x_pow_r[j] for j in jt]
            coeffs = []
            for i in range(2, n + 1):
                A = X[1] * X[i] * (Xr[i] - Xr[1])
                B = X[0] * X[i] * (Xr[0] - Xr[i])
                C = X[0] * X[1] * (Xr[1] - Xr[0])
                coeffs.append((i, A, B, C))
            coeffs_of = jt
        ys = [y_pow_s[i2] for i2 in it]
        for i, A, B, C in coeffs:
            value = A * ys[0] + B * ys[1] + C * ys[i]
            if not value.is_zero():
                raise AssertionError(
                    f"form {i} does not vanish at X-exponents {jt}, "
                    f"Y-exponents {it}"
                )
        verified += 1
    return TrivialPointCertificate(r, s, n, verified)
