"""Coordinates of the curve/fiber-point correspondence.

A smooth family member through n+1 points with prescribed x-coordinates
corresponds to the projective point [y_0 : ... : y_n] on the fiber curve
of that configuration, and conversely.  This module recovers (a, b) from
two points and implements the two directions of the correspondence.

The (a, b) formulas solve the linear system

    y_0^s = a x_0^{r+1} + b x_0,    y_1^s = a x_1^{r+1} + b x_1,

whose determinant x_0 x_1 (x_0^r - x_1^r) is nonzero for admissible
x-coordinates.  They run on integers and come in two steps, so that points
sharing their x-coordinates share the first.  ``cramer`` takes the
x-coordinates x_j = n_j/d_j and computes, once, P_0 = n_0^r d_1^r and
P_1 = n_1^r d_0^r (x_0^r and x_1^r over d_0^r d_1^r), the a-coefficients
A_0 = n_1 d_0 d_0^r d_1^r and A_1 = n_0 d_1 d_0^r d_1^r, the b-coefficients
B_0 = n_1 d_0 P_1 and B_1 = n_0 d_1 P_0, and the denominator
den = n_0 n_1 (P_0 - P_1).  The step it returns takes the integers of
y_j^s = m_j/e_j, puts u_0 = m_0 e_1 and u_1 = m_1 e_0, and by Cramer's
rule over the one common denominator e_0 e_1 den gives

    a = (u_0 A_0 - u_1 A_1) / (e_0 e_1 den),
    b = (u_1 B_1 - u_0 B_0) / (e_0 e_1 den),

so a and b are the only Fractions built.  ``solve_ab`` is the two steps for
one pair of points; ``conic.enumerate_curves`` runs the first step once per
configuration.  The normative contract is the round trip: both defining
points land back on the returned curve, exactly.  Each direction checks
only its input; its docstring says why the output needs no check.
``lift`` takes a point already proved on the fiber; ``from_fiber_point``
proves it with ``on_fiber``.  A fiber point that does not lift is an
obstruction: a ``MathError`` whose message is the JSON object
{"obstruction": reason, "index": i}, with i the failing coordinate or null.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from . import config as config_mod
from .config import Config, MathError
from .family import AffinePoint, FamilyCurve, contains
from .fiber import FiberSystem, ProjPoint, on_fiber


class CurveWithPoints(NamedTuple):
    curve: FamilyCurve
    points: tuple[AffinePoint, ...]

    def verify(self) -> Config:
        """Check every point is on the curve; return the validated Config.

        The configuration is validated first: ``contains`` needs r and s
        in range (s = -1 would divide by zero)."""
        cfg = config_mod.validate(
            self.curve.r, self.curve.s, [p.x for p in self.points]
        )
        for idx, p in enumerate(self.points):
            if not contains(self.curve, p):
                raise MathError(f"point {idx} is not on the curve")
        return cfg


def cramer(r: int, x0: int | Fraction, x1: int | Fraction):
    """Cramer's rule for points at the x-coordinates x0 and x1 (ints or
    Fractions): the x-only constants of the module docstring, computed
    once, and the step (m_0, e_0, m_1, e_1) -> (a, b) for y_j^s = m_j/e_j,
    given as ints with e_j > 0, which returns two Fractions.  Raises
    MathError for a zero x or for x_0^r = x_1^r."""
    n0, d0 = x0.numerator, x0.denominator
    n1, d1 = x1.numerator, x1.denominator
    if n0 == 0 or n1 == 0:
        raise MathError("x-coordinates must be nonzero")
    d0_r, d1_r = d0**r, d1**r
    P0, P1 = n0**r * d1_r, n1**r * d0_r
    if P0 == P1:
        raise MathError(f"x_0^{r} == x_1^{r}: singular system")
    n1_d0, n0_d1, d_r = n1 * d0, n0 * d1, d0_r * d1_r
    A0, A1 = n1_d0 * d_r, n0_d1 * d_r
    B0, B1 = n1_d0 * P1, n0_d1 * P0
    den = n0 * n1 * (P0 - P1)

    def step(m0, e0, m1, e1):
        u0, u1 = m0 * e1, m1 * e0
        den_w = e0 * e1 * den
        return (Fraction(u0 * A0 - u1 * A1, den_w),
                Fraction(u1 * B1 - u0 * B0, den_w))

    return step


def solve_ab(
    r: int, s: int, p0: AffinePoint, p1: AffinePoint
) -> tuple[Fraction, Fraction]:
    """The unique (a, b) putting both points on y^s = x(a x^r + b).

    Coordinates are ints or Fractions; ``cramer`` holds the formulas."""
    if r < 1 or s < 2:
        raise ValueError("need r >= 1 and s >= 2")
    y0, y1 = p0.y, p1.y
    return cramer(r, p0.x, p1.x)(y0.numerator**s, y0.denominator**s,
                                 y1.numerator**s, y1.denominator**s)


def _obstruction(reason: str, index: int | None) -> MathError:
    return MathError(json.dumps({"obstruction": reason, "index": index}))


def to_fiber_point(cwp: CurveWithPoints) -> ProjPoint:
    """[y_0 : ... : y_n] in canonical normalization, on the fiber by the
    determinant identity in ``fiber``.  Raises MathError for a point off
    the curve, or for a = 0 or b = 0; with ab != 0 some y is nonzero, since
    y_0 = y_1 = 0 would give x_0^r = x_1^r = -b/a, which is inadmissible."""
    if cwp.verify().n < 2:
        raise ValueError("fiber systems need n >= 2")
    a, b = cwp.curve.a, cwp.curve.b
    if a == 0 or b == 0:
        raise MathError(f"singular member: (a, b) = ({a}, {b}), need ab != 0")
    return ProjPoint([p.y for p in cwp.points])


def from_fiber_point(
    system: FiberSystem,
    point: ProjPoint,
    scale: int | Fraction | None = None,
) -> CurveWithPoints:
    """Lift a point of the fiber ``system`` back to a curve with all n+1
    points at the x-coordinates of ``system.config``: the input checks,
    then ``lift``.

    The default scale 1/Y_0 normalizes y_0 = 1.  Raises an obstruction
    (see the module docstring) when the point is off the fiber or when
    Y_0 = 0 and no explicit scale was given, and ValueError for scale 0.
    """
    report = on_fiber(system, point)
    if not report.ok:
        bad = next(i for i, res in report.residues if res != 0)
        raise _obstruction("point is not on the fiber", bad)
    if scale is None:
        if point[0] == 0:
            raise _obstruction(
                "Y_0 = 0: default normalization undefined, pass a scale", 0)
        scale = Fraction(1, point[0])
    elif scale == 0:
        raise ValueError("scale must be nonzero")
    return lift(system.config, point, scale)


def lift(
    config: Config, point: ProjPoint, scale: int | Fraction
) -> CurveWithPoints:
    """The curve through y_i = scale * Y_i for ``point`` on the fiber of
    ``config`` and a nonzero scale = u/v, neither checked: each y is the int
    u Y_i when v = 1, else one Fraction(u Y_i, v).  Because fiber membership
    is degree-s homogeneous, changing the scale moves (a, b) by an s-th
    power.  Raises an obstruction when the lifted curve degenerates (a = 0
    or b = 0).  Cramer's rule puts points 0 and 1 on the curve; fiber
    equation i, a nonzero multiple of the determinant for (0, 1, i), puts
    point i on it.
    """
    u, v = scale.numerator, scale.denominator
    ys = [u * c if v == 1 else Fraction(u * c, v) for c in point.coords]
    points = tuple(map(AffinePoint, config.alphas, ys))
    a, b = solve_ab(config.r, config.s, points[0], points[1])
    if a == 0 or b == 0:
        raise _obstruction(
            f"lifted parameters degenerate: (a, b) = ({a}, {b})", None)
    return CurveWithPoints(FamilyCurve(config.r, config.s, a, b), points)
