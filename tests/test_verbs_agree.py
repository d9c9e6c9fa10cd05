"""``search-ab`` and ``conic-enumerate`` reach the genus-zero curves by two
independent routes, and must agree.

At s = 2, n = 2 a curve y^2 = x(a x^r + b) through the three points at
alpha_0, alpha_1, alpha_2 is a point [y_0 : y_1 : y_2] of the conic
fiber.  ``search_ab`` scans the (a, b) box of height H; ``enumerate_curves``
walks the line pencil through a base point of the conic.  Each hit of the
box maps through ``to_fiber_point`` to a conic point that the pencil
reaches, and each enumerated curve of height <= H is a hit of the box.
"""

import random
from fractions import Fraction as F
from math import gcd

from fibercurve.birat import to_fiber_point
from fibercurve.config import validate, violations
from fibercurve.conic import enumerate_curves, find_base_point
from fibercurve.fiber import ProjPoint, build_fiber
from fibercurve.search import search_ab

SEED = 1
CONFIGS = 16
HEIGHT = 40  # of the search box, and of the base-point scan


def drawn_configs(rng, count):
    """``count`` admissible (r, s = 2) configurations, r in {1, 2, 3} and
    three alphas p/q with |p| <= 6, q <= 3, whose conic has a base point of
    height <= HEIGHT; with that base point."""
    while count:
        r = rng.choice((1, 2, 3))
        alphas = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
        if violations(r, 2, alphas):
            continue
        cfg = validate(r, 2, alphas)
        base = find_base_point(build_fiber(cfg), HEIGHT)
        if base is not None:
            count -= 1
            yield cfg, base


def up_to_sign(point):
    return tuple(abs(c) for c in point.coords)


def curve_height(curve):
    """max(|u|, |v|, w) for (a, b) = (u/w, v/w), gcd(u, v, w) = 1."""
    w = curve.a.denominator * curve.b.denominator
    w //= gcd(curve.a.denominator, curve.b.denominator)
    return max(abs(curve.a * w), abs(curve.b * w), w)


def pencil_shell(base, point):
    """max(|t_0|, |t_1|) of the pencil direction t of the line through
    ``base`` and ``point``, 0 for the base itself.  The direction fills the
    two coordinates other than the first nonzero one, f, of the base: the
    line holds point[f] base - base[f] point, which is 0 at f."""
    f = next(k for k, c in enumerate(base.coords) if c)
    d = [p * base[f] - b * point[f] for p, b in zip(point.coords, base.coords)]
    t = [d[k] for k in range(3) if k != f]
    g = gcd(*t)
    return max(abs(x) for x in t) // g if g else 0


def test_search_hits_and_enumerated_curves_agree():
    points_seen = low_curves = 0
    for cfg, base in drawn_configs(random.Random(SEED), CONFIGS):
        hits = search_ab(cfg, HEIGHT).hits
        points = {up_to_sign(to_fiber_point(h)) for h in hits}
        # The pencil yields the base, then one point per direction, the
        # directions in shells of growing max(|t_0|, |t_1|) and at most
        # 4k of them in shell k; a point it has met up to sign, or whose
        # lift degenerates, adds no curve.  A hit has a, b != 0, so its
        # point lifts, and the first 1 + 2T(T + 1) curves hold every point
        # whose direction lies in a shell k <= T.
        shell = max((pencil_shell(base, ProjPoint(p)) for p in points),
                    default=0)
        curves = enumerate_curves(cfg, 1 + 2 * shell * (shell + 1), HEIGHT).curves
        assert points <= {up_to_sign(to_fiber_point(c)) for c in curves}, cfg
        found = {(h.curve.a, h.curve.b) for h in hits}
        low = [c.curve for c in curves if curve_height(c.curve) <= HEIGHT]
        assert all((c.a, c.b) in found for c in low), cfg
        points_seen += len(points)
        low_curves += len(low)
    # neither direction holds vacuously
    assert points_seen >= 12 and low_curves >= 6
