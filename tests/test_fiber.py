import random
import tracemalloc
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from planting import plant_curves

from fibercurve import fiber, fixtures, jsonio
from fibercurve.birat import CurveWithPoints, to_fiber_point
from fibercurve.config import MathError, validate, violations
from fibercurve.fiber import (
    MembershipReport,
    ProjPoint,
    TrivialPointCertificate,
    build_fiber,
    det_form,
    exponent_tuples,
    fiber_genus,
    gonality_lower_bound,
    jacobian_matrix,
    jacobian_rank,
    on_fiber,
    raw_coefficients,
    smooth_at,
    trivial_points,
)
from fibercurve.linalg import matrix_rank, primitive_vector


def random_config(rng, r, s, n):
    while True:
        alphas = [
            F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n + 1)
        ]
        if not violations(r, s, alphas):
            return validate(r, s, alphas)


class TestProjPoint:
    def test_canonical_integer_clearing(self):
        assert ProjPoint([F(1, 2), F(1, 3)]) == ProjPoint([3, 2])

    def test_canonical_sign(self):
        assert ProjPoint([-2, 4]).coords == (F(1), F(-2))
        assert ProjPoint([0, -3, 6]).coords == (F(0), F(1), F(-2))

    def test_scaling_invariance(self):
        rng = random.Random(4)
        for _ in range(50):
            coords = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)]
            if all(c == 0 for c in coords):
                continue
            lam = F(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
            assert ProjPoint(coords) == ProjPoint([lam * c for c in coords])

    def test_int_multiple_and_fraction_forms_agree(self):
        # int vectors with zeros, a negative lead and entries past 2^64: the
        # vector, a nonzero multiple and the vector as Fractions over a
        # common denominator give one point, the primitive vector with a
        # positive lead
        rng = random.Random(23)
        big = 2**64
        for _ in range(400):
            v = [rng.choice([0, 0, rng.randint(-9, 9), rng.randint(-big * big, big * big)])
                 for _ in range(rng.randint(1, 5))]
            lead = next((i for i, c in enumerate(v) if c), None)
            if lead is None:
                continue
            if rng.random() < 0.5:
                v[lead] = -abs(v[lead])
            k = rng.choice([-1, 1]) * rng.randint(1, 3 * big)
            d = rng.randint(1, big)
            point = ProjPoint(v)
            assert point == ProjPoint([k * c for c in v])
            assert point == ProjPoint([F(c, d) for c in v])
            assert list(point.coords) == primitive_vector(v, lead)
            assert point[lead] > 0 and gcd(*point.coords) == 1
            assert all(c * v[lead] == x * point[lead]
                       for c, x in zip(point.coords, v))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            ProjPoint([0, 0, 0])

    def test_hashable(self):
        assert len({ProjPoint([1, 2]), ProjPoint([2, 4])}) == 1

    def test_immutable_equal_only_to_points_and_printed_as_a_ratio(self):
        point = ProjPoint([0, -3, 6])
        with pytest.raises(AttributeError, match="^ProjPoint is immutable$"):
            point.coords = (0, 1, 2)
        assert point.coords == (0, 1, -2)
        assert point.__eq__((0, 1, -2)) is NotImplemented
        assert point != (0, 1, -2)
        assert repr(point) == "ProjPoint[0 : 1 : -2]"

    def test_coordinates_are_ints(self):
        from_fractions = ProjPoint([F(1, 2), F(-3), F(7, 3), F(0)])
        from_json = jsonio.proj_point_from_obj(
            {"coords": ["1/2", "-3", "7/3", "0"]}
        )
        for point in (from_fractions, from_json):
            assert point.coords == (3, -18, 14, 0)
            assert all(type(c) is int for c in point.coords)
        # hashes as the Fraction coordinates did: hash(F(k)) == hash(k)
        assert hash(from_json) == hash((F(3), F(-18), F(14), F(0)))


class TestBuildFiber:
    def test_three_point_system(self):
        cfg = validate(2, 2, [F(1), F(2), F(3)])
        system = build_fiber(cfg)
        eq = system.equations[0]
        assert (eq.A, eq.B, eq.C) == (F(5), F(-4), F(1))
        assert jsonio.fiber_system_to_obj(system)["equations"][0]["scale"] == "6"
        assert raw_coefficients(cfg, 2) == (F(30), F(-24), F(6))

    def test_normalization_c_positive_and_primitive(self):
        rng = random.Random(9)
        for _ in range(40):
            cfg = random_config(rng, rng.randint(1, 3), 2, rng.randint(2, 5))
            for eq in build_fiber(cfg).equations:
                assert eq.C > 0
                ints = [eq.A, eq.B, eq.C]
                assert all(v.denominator == 1 for v in ints)
                from math import gcd

                g = gcd(gcd(abs(ints[0].numerator), abs(ints[1].numerator)),
                        ints[2].numerator)
                assert g == 1

    def test_matches_fraction_oracle(self):
        # the integer build against the definitional Fraction triple
        rng = random.Random(83)
        negative = fractional = 0
        for _ in range(400):
            r, s, n = rng.randint(1, 4), rng.randint(2, 5), rng.randint(2, 8)
            cfg = random_config(rng, r, s, n)
            negative += any(a < 0 for a in cfg.alphas)
            fractional += any(a.denominator != 1 for a in cfg.alphas)
            system = build_fiber(cfg)
            assert [eq.i for eq in system.equations] == list(range(2, n + 1))
            written = jsonio.fiber_system_to_obj(system)["equations"]
            for eq, obj in zip(system.equations, written):
                raw = raw_coefficients(cfg, eq.i)
                assert [eq.A, eq.B, eq.C] == primitive_vector(raw, positive=2)
                assert all(type(c) is int for c in (eq.A, eq.B, eq.C))
                # the written scale restores this equation's raw triple
                scale = F(obj["scale"])
                assert scale == raw[2] / eq.C
                assert (scale * eq.A, scale * eq.B, scale * eq.C) == raw
        assert negative > 300 and fractional > 300

    def test_shared_bottom_cofactor(self):
        cfg = validate(2, 2, [F(1), F(2), F(3), F(5), F(7)])
        system = build_fiber(cfg)
        raw_cs = {raw_coefficients(cfg, eq.i)[2] for eq in system.equations}
        assert len(raw_cs) == 1

    def test_permutation_covariance(self):
        # swapping alpha_i and alpha_j (i, j >= 2) swaps equations i and j
        cfg = validate(2, 2, [F(1), F(2), F(3), F(5), F(7)])
        alphas = list(cfg.alphas)
        alphas[3], alphas[4] = alphas[4], alphas[3]
        swapped = validate(2, 2, alphas)
        original = build_fiber(cfg).equations
        permuted = build_fiber(swapped).equations
        key = lambda eq: (eq.A, eq.B, eq.C)
        assert key(permuted[3 - 2]) == key(original[4 - 2])
        assert key(permuted[4 - 2]) == key(original[3 - 2])
        assert key(permuted[2 - 2]) == key(original[2 - 2])


class TestDetForm:
    def test_hand_value(self):
        cfg = validate(2, 2, [F(1), F(2), F(3)])
        assert det_form(cfg, 2, ProjPoint([1, 1, 0])) == 6

    def test_equals_trilinear_form_globally(self):
        rng = random.Random(31)
        for r in (1, 2, 3, 4):
            for s in (2, 3, 4):
                for _ in range(50):
                    n = rng.randint(2, 5)
                    cfg = random_config(rng, r, s, n)
                    coords = [rng.randint(-9, 9) for _ in range(n + 1)]
                    if all(c == 0 for c in coords):
                        coords[0] = 1
                    point = ProjPoint(coords)
                    for i in range(2, n + 1):
                        A, B, C = raw_coefficients(cfg, i)
                        trilinear = (
                            A * point[0] ** s
                            + B * point[1] ** s
                            + C * point[i] ** s
                        )
                        assert det_form(cfg, i, point) == trilinear

    def test_lower_row_power_degenerates_at_r_one(self):
        rng = random.Random(33)
        for _ in range(100):
            n = rng.randint(2, 4)
            cfg = random_config(rng, 1, 2, n)
            coords = [rng.randint(-9, 9) for _ in range(n + 1)]
            if all(c == 0 for c in coords):
                coords[-1] = 2
            point = ProjPoint(coords)
            for i in range(2, n + 1):
                assert det_form(cfg, i, point, row_power=cfg.r) == 0

    def test_vanishes_at_reference_point(self):
        fx = fixtures.load("watkins14")
        cfg = validate(2, 2, [p.x for p in fx.cwp.points])
        point = ProjPoint([p.y for p in fx.cwp.points])
        for i in range(2, cfg.n + 1):
            assert det_form(cfg, i, point) == 0

    def test_index_range_enforced(self):
        cfg = validate(2, 2, [F(1), F(2), F(3)])
        for i in (1, 3):
            message = rf"^equation index must be in 2\.\.2, got {i}$"
            with pytest.raises(ValueError, match=message):
                det_form(cfg, i, ProjPoint([1, 1, 1]))
            with pytest.raises(ValueError, match=message):
                raw_coefficients(cfg, i)

    @pytest.mark.parametrize("coords", [[1, 1], [1, 1, 1, 1]])
    def test_point_length_enforced(self, coords):
        cfg = validate(2, 2, [F(1), F(2), F(3)])
        with pytest.raises(ValueError,
                           match="^point length does not match configuration$"):
            det_form(cfg, 2, ProjPoint(coords))


class TestOnFiber:
    def test_membership(self):
        cfg = validate(2, 2, [F(1), F(2), F(3)])
        system = build_fiber(cfg)
        assert on_fiber(system, ProjPoint([0, 1, 2])).ok

    def test_perturbation_reports_residue(self):
        cfg = validate(2, 2, [F(1), F(2), F(3)])
        system = build_fiber(cfg)
        report = on_fiber(system, ProjPoint([0, 1, 3]))
        assert not report.ok
        assert report.residues[0][1] == F(5)  # -4 + 9

    def test_length_mismatch(self):
        cfg = validate(2, 2, [F(1), F(2), F(3)])
        system = build_fiber(cfg)
        with pytest.raises(ValueError):
            on_fiber(system, ProjPoint([1, 1]))

    def test_ok_is_read_from_the_residues(self):
        assert MembershipReport._fields == ("residues",)
        assert isinstance(MembershipReport.ok, property)
        assert MembershipReport(()).ok
        assert not MembershipReport(((2, 0), (3, -1))).ok

    def test_ok_is_every_residue_zero_on_and_off_the_fiber(self):
        # planted curves give points on the fiber; one y-coordinate moved
        # by 1 gives, nearly always, a point off it
        rng = random.Random(67)
        seen = {True: 0, False: 0}
        for cwp in plant_curves(rng, 40, r_s_choices=((1, 2), (2, 2), (1, 3), (2, 3)),
                                x_height=20, max_points=5):
            system = build_fiber(cwp.verify())
            good = to_fiber_point(cwp).coords
            bad = list(good)
            bad[rng.randrange(len(bad))] += 1
            for coords in (good, bad):
                if not any(coords):
                    continue
                report = on_fiber(system, ProjPoint(coords))
                assert report.ok == all(v == 0 for _, v in report.residues)
                seen[report.ok] += 1
        assert min(seen.values()) >= 30, seen


class TestGenusAndGonality:
    @pytest.mark.parametrize(
        "s,n,expected",
        [(2, 13, 20481), (2, 6, 49), (2, 2, 0), (2, 3, 1), (3, 2, 1)],
    )
    def test_genus_values(self, s, n, expected):
        assert fiber_genus(s, n) == expected

    def test_genus_regimes_exhaustive(self):
        low = {(2, 2): 0, (2, 3): 1, (3, 2): 1}
        for s in range(2, 11):
            for n in range(2, 11):
                g = fiber_genus(s, n)
                if (s, n) in low:
                    assert g == low[(s, n)]
                else:
                    assert g >= 2

    @pytest.mark.parametrize("s,n,expected", [(2, 13, 2048), (2, 2, 1), (3, 4, 18)])
    def test_gonality_values(self, s, n, expected):
        assert gonality_lower_bound(s, n) == expected

    def test_tower_ratio(self):
        for s in range(2, 7):
            for n in range(2, 10):
                assert (
                    gonality_lower_bound(s, n + 1)
                    == s * gonality_lower_bound(s, n)
                )


class TestSmoothAt:
    def test_small_case(self):
        cfg = validate(2, 2, [F(1), F(2), F(3)])
        system = build_fiber(cfg)
        point = ProjPoint([0, 1, 2])
        assert jacobian_matrix(system, point)[0] == [F(0), F(-8), F(4)]
        assert smooth_at(system, point)

    def test_requires_membership(self):
        cfg = validate(2, 2, [F(1), F(2), F(3)])
        system = build_fiber(cfg)
        with pytest.raises(ValueError, match="not on the fiber"):
            smooth_at(system, ProjPoint([1, 1, 1]))

    def test_unit_row_structure_off_fiber(self):
        # with Y_0 = Y_1 = 0 each Jacobian row is a scaled unit vector
        cfg = validate(2, 2, [F(1), F(2), F(3), F(5)])
        system = build_fiber(cfg)
        rows = jacobian_matrix(system, ProjPoint([0, 0, 1, 1]))
        assert rows[0][:2] == [0, 0] and rows[1][:2] == [0, 0]
        assert matrix_rank(rows) == 2

    def test_reference_rank(self):
        fx = fixtures.load("rogers7")
        cfg = validate(2, 2, [p.x for p in fx.cwp.points])
        system = build_fiber(cfg)
        point = ProjPoint([p.y for p in fx.cwp.points])
        assert smooth_at(system, point)
        assert matrix_rank(jacobian_matrix(system, point)) == 5

    def test_rank_is_n_minus_one_at_every_fiber_point(self):
        # the theorem that fiber-verify states instead of computing a rank:
        # on an admissible fiber, the Jacobian has rank n-1 at every point,
        # Y_0 = 0 or one Y_i = 0 (i >= 2) included.  A point (c, 0) of a
        # plant, a c^r + b = 0, is pushed as the first and as the last point
        rng = random.Random(83)
        r_s = ((1, 2), (2, 2), (1, 3), (2, 3))
        seen = dict.fromkeys(r_s + ("y0", "yi"), 0)
        for cwp in plant_curves(rng, 40, r_s_choices=r_s, x_height=12,
                                max_points=6):
            r, s = cwp.curve.r, cwp.curve.s
            orders = [list(cwp.points)]
            for k, root in enumerate(cwp.points):
                if root.y == 0:
                    rest = list(cwp.points[:k] + cwp.points[k + 1:])
                    orders += [[root] + rest, rest + [root]]
            for points in orders:
                point = to_fiber_point(CurveWithPoints(cwp.curve, tuple(points)))
                system = build_fiber(validate(r, s, [p.x for p in points]))
                n = len(points) - 1
                assert on_fiber(system, point).ok
                assert jacobian_rank(system, point) == n - 1
                assert matrix_rank(jacobian_matrix(system, point)) == n - 1
                seen[r, s] += 1
                seen["y0"] += point[0] == 0
                seen["yi"] += point[2:].count(0) == 1
        assert min(seen.values()) >= 5, seen

    def test_structural_rank_matches_dense_rank(self):
        # the dense Bareiss rank of the full Jacobian is the oracle
        rng = random.Random(71)
        seen = dict.fromkeys(
            ("y0", "y1", "y0y1", "single", "deficient", "full_with_zero_yi"), 0
        )
        for case in range(2000):
            r, s, n = rng.randint(1, 4), rng.randint(2, 5), rng.randint(2, 7)
            system = build_fiber(random_config(rng, r, s, n))
            coords = [F(rng.randint(-5, 5), rng.randint(1, 3))
                      for _ in range(n + 1)]
            shape = case % 4
            if shape == 0:  # zeros among Y_2..Y_n only
                coords = [c if k < 2 or rng.random() < 0.5 else 0
                          for k, c in enumerate(coords)]
            elif shape == 1:  # all but one coordinate zero
                keep = rng.randrange(n + 1)
                coords = [c if k == keep else 0 for k, c in enumerate(coords)]
            elif shape == 2:  # Y_0 or Y_1 zero, some other zeros
                coords[rng.randrange(2)] = 0
                coords = [0 if rng.random() < 0.3 else c for c in coords]
            elif shape == 3:  # Y_0 = Y_1 = 0
                coords[0] = coords[1] = 0
            if not any(coords):
                coords[rng.randrange(n + 1)] = F(1)
            point = ProjPoint(coords)
            rank = jacobian_rank(system, point)
            assert rank == matrix_rank(jacobian_matrix(system, point))
            seen["y0"] += point[0] == 0
            seen["y1"] += point[1] == 0
            seen["y0y1"] += point[0] == point[1] == 0
            seen["single"] += sum(c != 0 for c in point) == 1
            seen["deficient"] += rank < n - 1
            seen["full_with_zero_yi"] += rank == n - 1 and 0 in point[2:]
        assert min(seen.values()) >= 200, seen


def certificate_reference(r, s, n, listed, include_tuples):
    """The items of ``certificate_to_obj`` from first principles: the ring
    Q(zeta_d), d = lcm(r, s), r^(n+1) s^(n+1) pairs, sampled when the
    listing cap is below that, and the first min(listed, total) pairs, the
    k-th of which writes k in the mixed radix (r, ..., r, s, ..., s)."""
    total = r ** (n + 1) * s ** (n + 1)
    verified = min(listed, total)
    items = [("r", r), ("s", s), ("n", n), ("cyclotomic_order", lcm(r, s)),
             ("total_space", total), ("verified_count", verified),
             ("sampled", total > listed)]
    if include_tuples:
        def digits(v, base):
            return [v // base**e % base for e in reversed(range(n + 1))]

        items.append(("tuples", [
            {"x_exponents": digits(k // s ** (n + 1), r),
             "y_exponents": digits(k % s ** (n + 1), s)}
            for k in range(verified)
        ]))
    return items


def _seeded_sweeps(count):
    # small listing caps keep each sweep short; some of them still cover
    # the whole space
    rng = random.Random(29)
    cases = []
    while len(cases) < count:
        r, s = rng.randint(1, 6), rng.randint(2, 6)
        if lcm(r, s) <= fiber.ORDER_CAP:
            cases.append((r, s, rng.randint(2, 4),
                          {"TUPLE_CAP": rng.choice((1, 40, 300))}))
    return cases


class TestTrivialPoints:
    def test_all_sign_tuples(self):
        cert = trivial_points(2, 2, 2)
        assert cert == (2, 2, 2, 64)
        obj = jsonio.certificate_to_obj(cert)
        assert obj["cyclotomic_order"] == 2
        assert obj["total_space"] == 64
        assert obj["verified_count"] == 64
        assert not obj["sampled"]

    def test_mixed_orders(self):
        cert = trivial_points(3, 2, 2)
        assert jsonio.certificate_to_obj(cert)["cyclotomic_order"] == 6
        assert cert.verified_count == 27 * 8

    def test_r_one_degenerate_x_row(self):
        cert = trivial_points(1, 3, 2)
        assert jsonio.certificate_to_obj(cert)["cyclotomic_order"] == 3
        assert cert.verified_count == 27

    def test_certificate_holds_only_what_the_sweep_counts(self):
        assert TrivialPointCertificate._fields == ("r", "s", "n",
                                                   "verified_count")

    @pytest.mark.parametrize("r, s, n, caps", _seeded_sweeps(12) + [
        (2, 2, 19, {"TUPLE_CAP": 10, "COORD_CAP": 100}),  # COORD_CAP binds
        (1, 2, 99, {"COORD_CAP": 100}),
        (1, 2, 400_000, {"TUPLE_CAP": 0}),  # a 120,413-digit total_space
    ])
    def test_writer_derives_the_rest(self, monkeypatch, r, s, n, caps):
        for name, value in caps.items():
            monkeypatch.setattr(fiber, name, value)
        cert = trivial_points(r, s, n)
        listed = min(fiber.TUPLE_CAP, fiber.COORD_CAP // (n + 1))
        monkeypatch.undo()
        for full in (False, True):
            obj = jsonio.certificate_to_obj(cert, include_tuples=full)
            assert list(obj.items()) == certificate_reference(r, s, n, listed,
                                                              full)

    def test_writer_at_the_tuple_cap(self):
        # the (5, 5, 4) sweep verifies the first TUPLE_CAP of 5^10 pairs,
        # which takes many seconds; the writer reads only its certificate
        listed = min(fiber.TUPLE_CAP, fiber.COORD_CAP // 5)
        assert listed == 100_000 < 5**10
        cert = TrivialPointCertificate(5, 5, 4, listed)
        for full in (False, True):
            obj = jsonio.certificate_to_obj(cert, include_tuples=full)
            assert list(obj.items()) == certificate_reference(5, 5, 4, listed,
                                                              full)

    def test_s_below_two_is_refused(self):
        # the family y^s = x(a x^r + b) needs s >= 2
        for s in (1, 0, -2):
            with pytest.raises(ValueError, match="s >= 2"):
                trivial_points(2, s, 2)

    def test_order_cap_refusal(self):
        with pytest.raises(MathError, match="cyclotomic order 62 exceeds the cap 30"):
            trivial_points(31, 2, 2)

    def test_coordinate_cap_refusal(self, monkeypatch):
        # a tuple of COORD_CAP coordinates is still listed, one more is not
        monkeypatch.setattr(fiber, "COORD_CAP", 100)
        assert trivial_points(1, 2, 99).verified_count == 1
        with pytest.raises(MathError, match="101 coordinates per tuple"):
            trivial_points(1, 2, 100)

    def test_tuple_cap_sampling_is_flagged(self, monkeypatch):
        monkeypatch.setattr(fiber, "TUPLE_CAP", 10)
        cert = trivial_points(2, 2, 4)
        obj = jsonio.certificate_to_obj(cert)
        assert obj["sampled"]
        assert cert.verified_count == 10
        assert obj["total_space"] == 2**5 * 2**5

    def test_listing_is_cut_by_tuples_or_by_coordinates(self, monkeypatch):
        # at most min(TUPLE_CAP, COORD_CAP // (n + 1)) tuples: every n <= 4
        # meets TUPLE_CAP first, and with the caps lowered 10 at n = 4 and
        # 100 // 20 = 5 at n = 19
        assert all(fiber.COORD_CAP // (n + 1) >= fiber.TUPLE_CAP
                   for n in range(2, 5))
        monkeypatch.setattr(fiber, "TUPLE_CAP", 10)
        monkeypatch.setattr(fiber, "COORD_CAP", 100)
        for n, listed in ((4, 10), (19, 5)):
            cert = trivial_points(2, 2, n)
            obj = jsonio.certificate_to_obj(cert)
            assert obj["sampled"] and obj["total_space"] == 4 ** (n + 1)
            first = [tuple(map(int, format(k, f"0{n + 1}b"))) for k in range(listed)]
            assert cert.verified_count == listed
            assert tuple(exponent_tuples(2, 2, n, cert.verified_count)) == tuple(
                ((0,) * (n + 1), it) for it in first)

    def test_capped_listing_does_not_build_the_tuple_space(self, monkeypatch):
        # 2^18 X-tuples and as many Y-tuples, about 100 MB if all were
        # built: only the first 10 pairs are, to verify and to list them
        monkeypatch.setattr(fiber, "TUPLE_CAP", 10)
        tracemalloc.start()
        try:
            cert = trivial_points(2, 2, 17)
            pairs = tuple(exponent_tuples(2, 2, 17, cert.verified_count))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        obj = jsonio.certificate_to_obj(cert)
        assert obj["sampled"] and obj["total_space"] == 2**36
        first = [tuple(map(int, format(k, "018b"))) for k in range(10)]
        assert cert.verified_count == 10
        assert pairs == tuple(((0,) * 18, it) for it in first)

    def test_certificate_holds_no_pair(self):
        # all 3^5 * 2^5 = 7776 pairs of (3, 2, 4) are verified; held as
        # tuples they took about 1.1 MiB.  What the call leaves behind is
        # the certificate and its ints, plus what a first call caches in
        # the cyclotomic ring: about 1.6 KiB.  64 KiB leaves room for that
        # to grow and is under a sixteenth of what the pairs took.
        tracemalloc.start()
        try:
            cert = trivial_points(3, 2, 4)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        obj = jsonio.certificate_to_obj(cert)
        assert cert.verified_count == obj["total_space"] == 7776
        assert held < 64 << 10

    def test_full_listing_is_the_counted_pairs(self, monkeypatch):
        # the writer regenerates the pairs from the stored count, not from
        # the caps in force when it writes
        monkeypatch.setattr(fiber, "TUPLE_CAP", 10)
        cert = trivial_points(2, 2, 4)
        monkeypatch.undo()
        assert fiber.TUPLE_CAP > 10
        obj = jsonio.certificate_to_obj(cert, include_tuples=True)
        first = [tuple(map(int, format(k, "05b"))) for k in range(10)]
        assert obj["verified_count"] == cert.verified_count == 10
        assert [(tuple(t["x_exponents"]), tuple(t["y_exponents"]))
                for t in obj["tuples"]] == [((0,) * 5, it) for it in first]
