"""Acceptance suite.

One test per criterion; each prints a pass/fail line with its elapsed
time (run pytest with -s to see them inline) and asserts the stated
wall-clock budget.  Every numeric comparison is exact; there are no
tolerances anywhere.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from math import lcm

from planting import plant_curves, plant_search_instances

from fibercurve import fixtures
from fibercurve.birat import from_fiber_point, solve_ab, to_fiber_point
from fibercurve.config import Regime, classify, validate, violations
from fibercurve.conic import enumerate_curves
from fibercurve.family import contains
from fibercurve.fiber import (
    ProjPoint,
    build_fiber,
    det_form,
    exponent_tuples,
    fiber_genus,
    jacobian_matrix,
    on_fiber,
    raw_coefficients,
    trivial_points,
)
from fibercurve.jsonio import certificate_to_obj
from fibercurve.linalg import matrix_rank
from fibercurve.search import search_ab


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"[acceptance] {name}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.monotonic() - start
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget"


def test_criterion_1_watkins_reproduction():
    with criterion("1 watkins reproduction", 30):
        fx = fixtures.load("watkins14")
        assert len(fx.cwp.points) == 14
        for p in fx.cwp.points:
            assert contains(fx.cwp.curve, p)
        cfg = validate(2, 2, [p.x for p in fx.cwp.points])
        system = build_fiber(cfg)
        assert len(system.equations) == 12

        report = fixtures.verify(fx)
        # every constructed equation equals the transcribed one times a
        # single nonzero rational scalar, exactly
        assert len(report.scalars) == 12
        assert all(lam != 0 for lam in report.scalars)

        point = ProjPoint([p.y for p in fx.cwp.points])
        membership = on_fiber(system, point)
        assert membership.ok
        assert all(res == 0 for _, res in membership.residues)
        assert matrix_rank(jacobian_matrix(system, point)) == 12
        assert fiber_genus(2, 13) == 20481


def test_criterion_2_rogers_reproduction():
    with criterion("2 rogers reproduction", 5):
        fx = fixtures.load("rogers7")
        n_value = 797507543735
        assert fx.cwp.curve.b == -F(n_value) ** 2
        report = fixtures.verify(fx)
        assert len(report.scalars) == 5
        assert fiber_genus(2, 6) == 49
        a, b = solve_ab(2, 2, fx.cwp.points[0], fx.cwp.points[1])
        assert (a, b) == (F(1), -F(n_value) ** 2)


def test_criterion_3_genus_classification_table():
    with criterion("3 genus and classification table", 1):
        for s in range(2, 7):
            for n in range(2, 11):
                numerator = s ** (n - 1) * ((n - 1) * s - n - 1)
                assert numerator % 2 == 0
                expected = 1 + numerator // 2
                g = fiber_genus(s, n)
                assert g == expected
                regime, n0 = classify(s, n)
                assert n0 == (4 if s == 2 else 3)
                if (s, n) == (2, 2):
                    assert g == 0 and regime is Regime.GENUS_ZERO
                elif (s, n) in ((2, 3), (3, 2)):
                    assert g == 1 and regime is Regime.GENUS_ONE
                else:
                    assert g >= 2 and regime is Regime.GENUS_GE_TWO


def _random_config(rng, r, s, n):
    while True:
        alphas = [
            F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n + 1)
        ]
        if not violations(r, s, alphas):
            return validate(r, s, alphas)


def test_criterion_4_determinant_identity():
    # The determinant whose middle row carries the curve-relation power
    # r+1 equals the diagonal form with one global sign (+1) on every
    # sample; the lower-power variant (middle row alpha^r) degenerates to
    # the zero form when r = 1 because two rows coincide.
    with criterion("4 determinant identity suite", 10):
        rng = random.Random(401)
        for r in (1, 2, 3, 4):
            for s in (2, 3, 4):
                for _ in range(1000):
                    n = rng.randint(2, 4)
                    cfg = _random_config(rng, r, s, n)
                    coords = [rng.randint(-9, 9) for _ in range(n + 1)]
                    if all(c == 0 for c in coords):
                        coords[0] = 1
                    point = ProjPoint(coords)
                    i = rng.randint(2, n)
                    A, B, C = raw_coefficients(cfg, i)
                    trilinear = (
                        A * point[0] ** s
                        + B * point[1] ** s
                        + C * point[i] ** s
                    )
                    assert det_form(cfg, i, point) == trilinear
                    if r == 1:
                        assert det_form(cfg, i, point, row_power=r) == 0


def test_criterion_5_birational_round_trip():
    with criterion("5 birational round trip x500", 60):
        rng = random.Random(501)
        plants = plant_curves(rng, 500, coeff_max=8, x_height=50)
        for cwp in plants:
            assert len(cwp.points) >= 3
            point = to_fiber_point(cwp)
            system = build_fiber(cwp.verify())
            assert on_fiber(system, point).ok

            k = next(i for i, p in enumerate(cwp.points) if p.y != 0)
            lifted = from_fiber_point(
                system, point, scale=cwp.points[k].y / point[k]
            )
            assert (lifted.curve.a, lifted.curve.b) == (
                cwp.curve.a,
                cwp.curve.b,
            )

            pts = cwp.points
            pairs = [(0, 1), (0, len(pts) - 1)]
            pairs.append(tuple(sorted(rng.sample(range(len(pts)), 2))))
            for i, j in pairs:
                if pts[i].x ** cwp.curve.r == pts[j].x ** cwp.curve.r:
                    continue
                a, b = solve_ab(cwp.curve.r, cwp.curve.s, pts[i], pts[j])
                assert (a, b) == (cwp.curve.a, cwp.curve.b)


def test_criterion_6_conic_enumeration():
    with criterion("6 conic enumeration x100", 10):
        cfg = validate(2, 2, [F(1), F(2), F(3)])
        runs = [enumerate_curves(cfg, 100, 20).curves for _ in range(2)]
        for curves in runs:
            assert len(curves) == 100
            seen = {(c.curve.a, c.curve.b) for c in curves}
            assert len(seen) == 100
            for cwp in curves:
                assert cwp.curve.a != 0 and cwp.curve.b != 0
                assert [p.x for p in cwp.points] == [F(1), F(2), F(3)]
                for p in cwp.points:
                    assert contains(cwp.curve, p)
        # deterministic across runs (the stream has no worker knob; it is
        # a single fixed-order enumeration)
        assert [(c.curve.a, c.curve.b) for c in runs[0]] == [
            (c.curve.a, c.curve.b) for c in runs[1]
        ]


# two primes p = 1 mod 6, so that every lcm(r, s) of criterion 7 divides p - 1
PRIMES_1_MOD_6 = (1000000009, 1000000021)


def element_of_order(d: int, p: int) -> int:
    """An element of order exactly d in the integers mod p, for d | p - 1."""
    for h in range(2, p):
        g = pow(h, (p - 1) // d, p)
        if all(pow(g, d // q, p) != 1 for q in range(2, d + 1) if d % q == 0):
            return g
    raise AssertionError(f"no element of order {d} mod {p}")


def nonvanishing_mod_p(r: int, s: int, n: int, count: int, p: int) -> list:
    """(i, X-exponents, Y-exponents) of every form A_i Y_0^s + B_i Y_1^s +
    C_i Y_i^s that is not 0 mod p at the first ``count`` exponent pairs,
    with zeta_r and zeta_s read as powers of one element of order
    lcm(r, s).  A form that vanishes in Q(zeta_d) vanishes mod p."""
    d = lcm(r, s)
    g = element_of_order(d, p)
    bad = []
    for jt, it in exponent_tuples(r, s, n, count):
        X = [pow(g, (d // r) * j, p) for j in jt]
        Xr = [pow(x, r, p) for x in X]
        Ys = [pow(g, (d // s) * i * s, p) for i in it]
        for i in range(2, n + 1):
            A = X[1] * X[i] * (Xr[i] - Xr[1])
            B = X[0] * X[i] * (Xr[0] - Xr[i])
            C = X[0] * X[1] * (Xr[1] - Xr[0])
            if (A * Ys[0] + B * Ys[1] + C * Ys[i]) % p:
                bad.append((i, jt, it))
    return bad


def test_criterion_7_trivial_point_certificates():
    with criterion("7 trivial-point certificates", 30):
        for r, s in ((2, 2), (3, 2), (2, 3), (3, 3)):
            for n in (2, 3, 4):
                cert = trivial_points(r, s, n)
                obj = certificate_to_obj(cert)
                expected = r ** (n + 1) * s ** (n + 1)
                assert obj["total_space"] == expected
                assert obj["verified_count"] == expected
                assert not obj["sampled"]
                # the claim itself, checked without the cyclotomic ring
                for p in PRIMES_1_MOD_6:
                    bad = nonvanishing_mod_p(r, s, n, cert.verified_count, p)
                    assert not bad, (
                        f"({r}, {s}, {n}) mod {p}: {len(bad)} nonzero "
                        f"values, first {bad[0]}")


def test_criterion_8_search_soundness_completeness():
    with criterion("8 search soundness and completeness x50", 120):
        rng = random.Random(801)
        instances = plant_search_instances(rng, 50)
        reports = {}
        for idx, (cwp, u, v, w) in enumerate(instances):
            cfg = cwp.verify()
            height = max(abs(u), abs(v), w)
            report = search_ab(cfg, height, workers=1)
            # completeness: the planted pair is found at its own height
            assert (cwp.curve.a, cwp.curve.b) in [
                (h.curve.a, h.curve.b) for h in report.hits
            ]
            # soundness: every hit re-verifies from scratch
            for hit in report.hits:
                assert hit.curve.a != 0 and hit.curve.b != 0
                assert not violations(
                    cfg.r, cfg.s, [p.x for p in hit.points]
                )
                for p in hit.points:
                    assert contains(hit.curve, p)
            reports[idx] = report
        for workers in (2, 8):
            for idx, (cwp, u, v, w) in enumerate(instances):
                cfg = cwp.verify()
                height = max(abs(u), abs(v), w)
                report = search_ab(cfg, height, workers=workers)
                base = reports[idx]
                assert report.search_space_size == base.search_space_size
                assert [
                    (h.curve.a, h.curve.b, h.points) for h in report.hits
                ] == [(h.curve.a, h.curve.b, h.points) for h in base.hits]
