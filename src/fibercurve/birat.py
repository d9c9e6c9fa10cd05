"""Coordinates of the curve/fiber-point correspondence.

A smooth family member through n+1 points with prescribed x-coordinates
corresponds to the projective point [y_0 : ... : y_n] on the fiber curve
of that configuration, and conversely.  This module recovers (a, b) from
two points and implements the two directions of the correspondence.

The (a, b) formulas solve the linear system

    y_0^s = a x_0^{r+1} + b x_0,    y_1^s = a x_1^{r+1} + b x_1,

whose determinant x_0 x_1 (x_0^r - x_1^r) is nonzero for admissible
x-coordinates.  They run on integers: with x_j = n_j/d_j and
y_j^s = m_j/e_j, put t_0 = m_0 e_1 n_1 d_0 and t_1 = m_1 e_0 n_0 d_1
(y_0^s x_1 and y_1^s x_0 over e_0 e_1 d_0 d_1) and
P_0 = n_0^r d_1^r, P_1 = n_1^r d_0^r (x_0^r and x_1^r over d_0^r d_1^r).
Cramer's rule over the one common denominator

    den = e_0 e_1 n_0 n_1 (P_0 - P_1)

gives a = (t_0 - t_1) d_0^r d_1^r / den and b = (t_1 P_0 - t_0 P_1) / den,
so a and b are the only Fractions built.  The normative contract is the
round trip: both defining points land back on the returned curve, exactly.
Each direction checks only its input; its docstring says why the output
needs no check.  ``lift`` takes a point already proved on the fiber:
``from_fiber_point`` proves it with ``on_fiber``, ``conic.enumerate_curves``
by how it builds its points (see ``conic``).  A fiber point that does not
lift is an obstruction: a ``MathError`` whose message is the JSON object
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


def solve_ab(
    r: int, s: int, p0: AffinePoint, p1: AffinePoint
) -> tuple[Fraction, Fraction]:
    """The unique (a, b) putting both points on y^s = x(a x^r + b).

    Coordinates are ints or Fractions, read through ``numerator`` and
    ``denominator``; the integer formulas are in the module docstring."""
    if r < 1 or s < 2:
        raise ValueError("need r >= 1 and s >= 2")
    n0, d0 = p0.x.numerator, p0.x.denominator
    n1, d1 = p1.x.numerator, p1.x.denominator
    if n0 == 0 or n1 == 0:
        raise MathError("x-coordinates must be nonzero")
    d0_r, d1_r = d0**r, d1**r
    P0, P1 = n0**r * d1_r, n1**r * d0_r
    if P0 == P1:
        raise MathError(f"x_0^{r} == x_1^{r}: singular system")
    m0, e0 = p0.y.numerator**s, p0.y.denominator**s
    m1, e1 = p1.y.numerator**s, p1.y.denominator**s
    t0, t1 = m0 * e1 * n1 * d0, m1 * e0 * n0 * d1
    den = e0 * e1 * n0 * n1 * (P0 - P1)
    a = Fraction((t0 - t1) * d0_r * d1_r, den)
    return a, Fraction(t1 * P0 - t0 * P1, den)


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
