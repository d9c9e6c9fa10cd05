import random
from fractions import Fraction as F
from math import gcd

import pytest

from planting import plant_search_instances

from fibercurve.arith import is_sth_power
from fibercurve.config import validate
from fibercurve.family import contains
from fibercurve.search import count_square_classes, search_ab

# y^2 = x(x^2 + 3) has small points at x = 1, 3, 12
PLANT13 = validate(2, 2, [F(1), F(3), F(12)])


class TestSearchAb:
    def test_hand_planted_curve_is_found(self):
        report = search_ab(PLANT13, height=3)
        pairs = [(h.curve.a, h.curve.b) for h in report.hits]
        assert (F(1), F(3)) in pairs
        assert report.complete

    def test_height_one_exhaustive(self):
        # candidates are (u, v, w) in {+-1} x {+-1} x {1}; none pass
        cfg = validate(2, 2, [F(1), F(2), F(3)])
        report = search_ab(cfg, height=1)
        assert report.search_space_size == 4
        assert report.hits == ()

    def test_hits_fully_verified(self):
        report = search_ab(PLANT13, height=4)
        assert report.hits
        for hit in report.hits:
            assert hit.curve.a != 0 and hit.curve.b != 0
            for p in hit.points:
                assert contains(hit.curve, p)
                if hit.curve.s % 2 == 0:
                    assert p.y >= 0

    def test_canonical_hit_order(self):
        report = search_ab(PLANT13, height=4)
        keys = [
            (abs(h.curve.a.numerator), h.curve.b, h.curve.a)
            for h in report.hits
        ]
        assert keys == sorted(keys)

    def test_worker_independence(self):
        for workers in (2, 3):
            parallel = search_ab(PLANT13, height=3, workers=workers)
            serial = search_ab(PLANT13, height=3, workers=1)
            assert parallel.search_space_size == serial.search_space_size
            assert [
                (h.curve.a, h.curve.b, h.points) for h in parallel.hits
            ] == [(h.curve.a, h.curve.b, h.points) for h in serial.hits]

    def test_planted_instances_complete(self):
        rng = random.Random(71)
        for cwp, u, v, w in plant_search_instances(rng, 10):
            cfg = cwp.config()
            height = max(abs(u), abs(v), w)
            report = search_ab(cfg, height)
            assert (cwp.curve.a, cwp.curve.b) in [
                (h.curve.a, h.curve.b) for h in report.hits
            ]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            search_ab(PLANT13, height=0)
        with pytest.raises(ValueError):
            search_ab(PLANT13, height=2, workers=0)


class TestCountSquareClasses:
    def test_counts_bounded_by_space(self):
        cfg = validate(2, 2, [F(1), F(2), F(3)])
        table = count_square_classes(cfg, 1)
        assert table.search_space_size == 4
        assert all(c <= table.search_space_size for c in table.per_index)

    def test_planted_counts_positive(self):
        table = count_square_classes(PLANT13, 3)
        assert all(c >= 1 for c in table.per_index)

    def test_intersection_monotone(self):
        # joint hits cannot exceed any single-condition count
        report = search_ab(PLANT13, height=3)
        table = count_square_classes(PLANT13, 3)
        assert all(len(report.hits) <= c for c in table.per_index)

    def test_matches_search_box_and_brute_force(self):
        for cfg in (PLANT13, validate(1, 3, [F(1), F(2), F(-3)])):
            for height in (1, 2, 3):
                table = count_square_classes(cfg, height)
                report = search_ab(cfg, height)
                assert table.search_space_size == report.search_space_size
                expected = [0] * (cfg.n + 1)
                for u in range(-height, height + 1):
                    for v in range(-height, height + 1):
                        for w in range(1, height + 1):
                            if u * v == 0 or gcd(u, v, w) != 1:
                                continue
                            a, b = F(u, w), F(v, w)
                            for idx, alpha in enumerate(cfg.alphas):
                                value = alpha * (a * alpha**cfg.r + b)
                                if is_sth_power(value, cfg.s) is not None:
                                    expected[idx] += 1
                assert list(table.per_index) == expected
