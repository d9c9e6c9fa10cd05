import itertools
import random
import tracemalloc
from fractions import Fraction as F
from math import gcd, isqrt, lcm

import pytest

from planting import brute_force_points, plant_search_instances, rational_root

from fibercurve.birat import solve_ab
from fibercurve.config import validate, violations
from fibercurve.family import AffinePoint, FamilyCurve, contains
from fibercurve.fiber import build_fiber
from fibercurve import jsonio, search
from fibercurve.search import search_ab

# y^2 = x(x^2 + 3) has small points at x = 1, 3, 12
PLANT13 = validate(2, 2, [F(1), F(3), F(12)])


def fraction_scan(config, height):
    """The search box tested candidate by candidate with Fractions and
    rational_root: (hits as (a, b, points) in canonical order, box size).
    The oracle for the integer sieve."""
    hits, space = [], 0
    for u in range(-height, height + 1):
        for v in range(-height, height + 1):
            for w in range(1, height + 1):
                if u * v == 0 or gcd(u, v, w) != 1:
                    continue
                space += 1
                a, b = F(u, w), F(v, w)
                roots = [
                    rational_root(alpha * (a * alpha**config.r + b), config.s)
                    for alpha in config.alphas
                ]
                if None not in roots:
                    points = tuple(map(AffinePoint, config.alphas, roots))
                    hits.append((a, b, points))
    hits.sort(key=lambda h: (abs(h[0].numerator), h[1], h[0]))
    return hits, space


def sieve_survivor_count(config, height):
    """The candidates of the box whose M, for every alpha, is >= 0 when s is
    even and an s-th power residue modulo every sieve prime: what
    ``sieve_survivors`` counts, computed candidate by candidate."""
    r, s = config.r, config.s
    powers = {m: {pow(x, s, m) for x in range(m)} for m in search._sieve_primes(s)}
    count = 0
    for u in range(-height, height + 1):
        for v in range(-height, height + 1):
            for w in range(1, height + 1):
                if u * v == 0 or gcd(u, v, w) != 1:
                    continue
                for alpha in config.alphas:
                    p, q = alpha.numerator, alpha.denominator
                    M = p * q ** ((r + 1) * (s - 1)) * w ** (s - 1) * (u * p**r + v * q**r)
                    if s % 2 == 0 and M < 0:
                        break
                    if any(M % m not in residues for m, residues in powers.items()):
                        break
                else:
                    count += 1
    return count


def oracle_configs(rng, count, heights=(1, 6)):
    """Seeded (config, height) cases, r in 1..4, s in 2..5, n in 1..4 and
    H in ``heights``: half planted through a small curve so that they have
    hits, half random; alphas negative, fractional and divisible by small
    primes."""
    cases = []
    while len(cases) < count:
        r, s, n = rng.randint(1, 4), rng.randint(2, 5), rng.randint(1, 4)
        height = rng.randint(*heights)
        if len(cases) % 2:
            u, v = rng.randint(-height, height), rng.randint(-height, height)
            w = rng.randint(1, height)
            if u * v == 0:
                continue
            curve = FamilyCurve(r, s, F(u, w), F(v, w))
            alphas = [p.x for p in brute_force_points(curve, 12)[: n + 1]]
        else:
            alphas = [
                F(rng.choice((-1, 1)) * rng.choice((1, 2, 3, 5, 7, 9, 10, 21, 49)),
                  rng.choice((1, 1, 2, 3, 4, 5, 7, 25)))
                for _ in range(n + 1)
            ]
        if len(alphas) < 2 or violations(r, s, alphas):
            continue
        cases.append((validate(r, s, alphas), height))
    return cases


def assert_matches_fraction_scan(config, height):
    hits, space = fraction_scan(config, height)
    report = search_ab(config, height)
    assert [(h.curve.a, h.curve.b, h.points) for h in report.hits] == hits
    assert report.search_space_size == space
    return hits


def root_floor(m, s):
    """The largest t >= 0 with t^s <= m."""
    t = 0
    while (t + 1) ** s <= m:
        t += 1
    return t


def fiber_oracle(config, height):
    """The set of (a, b) of height <= H with a point at every alpha, found
    on the fiber instead of in the box: the oracle for the hit set.

    A hit (u/w, v/w) has y_j = t_j / (q_j^(r+1) w) with t_j^s = M_j =
    p_j q_j^((r+1)(s-1)) w^(s-1) (u p_j^r + v q_j^r), as in
    ``fibercurve.search``, so |t_j|^s <= |p_j| q_j^((r+1)(s-1)) H^s
    (|p_j|^r + q_j^r).  Its fiber point [y_0 : y_1 : ...] has (y_0, y_1)
    proportional to (t_0 q_1^(r+1), t_1 q_0^(r+1)), so its primitive
    (Y_0, Y_1) has |Y_0| <= |t_0| q_1^(r+1) and |Y_1| <= |t_1| q_0^(r+1).
    Each coprime (Y_0, Y_1) within these bounds whose every
    -(A_i Y_0^s + B_i Y_1^s) / C_i is a rational s-th power lifts through
    ``solve_ab`` to (a_1, b_1), and the hits are its twists
    lambda^s (a_1, b_1), lambda = c/d in lowest terms, c != 0 < d.  Only
    Y_0 >= 0 is listed: (-Y_0, -Y_1) lifts to the twist by lambda = -1.
    With (a_1, b_1) = (U/W, V/W) in lowest terms, a twist's height is at
    least |c|^s / W and d^s / gcd(U, V), which bounds c and d.
    """
    r, s, H = config.r, config.s, height
    (p0, q0), (p1, q1) = [(x.numerator, x.denominator) for x in config.alphas[:2]]

    def t_bound(p, q):
        return root_floor(abs(p) * q ** ((r + 1) * (s - 1)) * H**s * (abs(p) ** r + q**r), s)

    bound0, bound1 = t_bound(p0, q0) * q1 ** (r + 1), t_bound(p1, q1) * q0 ** (r + 1)
    equations = build_fiber(config).equations
    found = set()
    for y0 in range(bound0 + 1):
        for y1 in range(-bound1, bound1 + 1):
            if gcd(y0, y1) != 1 or any(
                rational_root(F(-(eq.A * y0**s + eq.B * y1**s), eq.C), s) is None
                for eq in equations
            ):
                continue
            a1, b1 = solve_ab(r, s, AffinePoint(config.alphas[0], y0),
                              AffinePoint(config.alphas[1], y1))
            if a1 == 0 or b1 == 0:
                continue
            W = lcm(a1.denominator, b1.denominator)
            G = gcd((a1 * W).numerator, (b1 * W).numerator)
            c_max = root_floor(H * W, s)
            for c in range(-c_max, c_max + 1):
                for d in range(1, root_floor(H * G, s) + 1):
                    a, b = F(c, d) ** s * a1, F(c, d) ** s * b1
                    if c and gcd(c, d) == 1 and max(abs(a), abs(b), 1) * lcm(
                        a.denominator, b.denominator
                    ) <= H:
                        found.add((a, b))
    return found


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

    @pytest.mark.parametrize("workers, height, blocks", [
        (4096, 1, 2),  # more workers than rows of u: one block per u != 0
        (4096, 3, 6),
        (8, 3, 6),
    ])
    def test_workers_partition_the_u_range(self, workers, height, blocks):
        report = search_ab(PLANT13, height, workers)
        assert report.workers == workers
        assert len(report.block_us) == blocks
        serial = search_ab(PLANT13, height, 1)
        assert report.hits == serial.hits
        assert report.search_space_size == serial.search_space_size

    def test_interrupt_keeps_the_finished_blocks(self, monkeypatch):
        # workers=2 at H = 6 makes the blocks -6 <= u <= -1 and 1 <= u <= 6
        full = search_ab(PLANT13, 6)
        root_test = search._root_test

        def interrupted(u, *args):
            if u > 0:
                raise KeyboardInterrupt
            root_test(u, *args)

        monkeypatch.setattr(search, "_root_test", interrupted)
        report = search_ab(PLANT13, 6, workers=2)
        assert report.complete is False
        assert report.hits == tuple(h for h in full.hits if h.curve.a < 0)
        assert report.hits != full.hits
        # u -> -u maps the box onto itself, so the u < 0 block is half of it
        assert 2 * report.search_space_size == full.search_space_size
        assert len(report.block_us) == 1
        assert list(jsonio.search_stats_to_obj(report).items()) == [
            ("candidates", 362), ("sieve_survivors", 0), ("root_rejections", 0),
            ("hits", 0), ("workers", 2), ("block_us", list(report.block_us))]

    def test_odd_s_interrupt_keeps_the_finished_block_and_its_mirror(
            self, monkeypatch):
        # workers=2 at H = 6 makes the odd-s blocks u in [1, 4) and [4, 7),
        # each with the mirrored rows at -u; x = -1, -1/3, 2 are on
        # y^3 = x(x/6 - 5/6) (u = 1) and y^3 = x(4x/3 + 4/3) (u = 4)
        config = validate(1, 3, [F(-1), F(-1, 3), F(2)])
        full = search_ab(config, 6)
        assert {h.curve.a for h in full.hits} >= {F(1, 6), F(4, 3)}
        root_test = search._root_test

        def interrupted(u, *args):
            if u > 3:
                raise KeyboardInterrupt
            root_test(u, *args)

        monkeypatch.setattr(search, "_root_test", interrupted)
        report = search_ab(config, 6, workers=2)
        assert report.complete is False
        assert len(report.block_us) == 1
        pairs = {(h.curve.a, h.curve.b) for h in report.hits}
        assert pairs and pairs == {(-a, -b) for a, b in pairs}
        # u = a w with w the common denominator of a and b
        assert report.hits == tuple(h for h in full.hits if abs(h.curve.a * lcm(
            h.curve.a.denominator, h.curve.b.denominator)) <= 3)
        assert report.hits != full.hits
        assert report.search_space_size == sum(
            1 for u in range(-3, 4) for v in range(-6, 7) for w in range(1, 7)
            if u * v != 0 and gcd(u, v, w) == 1)

    def test_planted_instances_complete(self):
        rng = random.Random(71)
        for cwp, u, v, w in plant_search_instances(rng, 10):
            cfg = cwp.verify()
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


class TestIntegerSieve:
    def test_matches_fraction_scan_on_seeded_configs(self):
        found = 0
        for config, height in oracle_configs(random.Random(20251), 60):
            found += len(assert_matches_fraction_scan(config, height))
        assert found >= 30  # the planted half must give the oracle hits

    def test_hit_with_a_zero_witness(self):
        # x(x - 1) vanishes at x = 1 and is a square at 4/3 and 9/8; 3 divides
        # the denominator of 4/3 and the numerator of 9/8 (c1 = 0 mod 3)
        config = validate(1, 2, [F(1), F(4, 3), F(9, 8)])
        hits = assert_matches_fraction_scan(config, 2)
        assert (F(1), F(-1), (
            AffinePoint(F(1), F(0)),
            AffinePoint(F(4, 3), F(2, 3)),
            AffinePoint(F(9, 8), F(3, 8)),
        )) in hits

    def test_alphas_divisible_by_sieve_primes(self):
        # each alpha has a sieve prime in its numerator or denominator
        # (for s = 5, whose sieve starts 11, 31, only 11/13 and 31/5 do)
        for r, s in ((1, 2), (2, 3), (3, 4), (4, 5)):
            alphas = [F(3, 7), F(-7, 2), F(11, 13), F(31, 5)]
            assert_matches_fraction_scan(validate(r, s, alphas), 5)

    def test_stats_count_every_stage(self):
        report = search_ab(PLANT13, 6, workers=2)
        assert len(report.block_us) == 2
        assert 0 < len(report.hits) <= report.sieve_survivors
        assert report.sieve_survivors < report.search_space_size // 100

    @pytest.mark.parametrize("config", [
        PLANT13, validate(1, 3, [F(-1), F(-1, 3), F(2)])], ids=["s=2", "s=3"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_stats_object_keys_order_and_counts(self, monkeypatch, config, workers):
        # with three sieve primes some candidates fail the root test; the
        # keys, in this order, are the --stats line's
        monkeypatch.setattr(search, "SIEVE_PRIMES", 3)
        report = search_ab(config, 6, workers)
        survivors, hits = (26, 2) if config.s == 2 else (10, 8)
        assert len(report.block_us) == workers
        assert list(jsonio.search_stats_to_obj(report).items()) == [
            ("candidates", 724), ("sieve_survivors", survivors),
            ("root_rejections", survivors - hits), ("hits", hits),
            ("workers", workers), ("block_us", list(report.block_us))]


class TestSignStageAndMirror:
    """Even s keeps only the v with M >= 0 for every alpha before the sieve;
    odd s scans the rows of |u| and mirrors them to -u."""

    CASES = oracle_configs(random.Random(1313), 12, heights=(7, 10))

    def test_cases_cover_both_parities_odd_r_and_negative_alphas(self):
        for parity in (0, 1):
            cases = [c for c, _ in self.CASES if c.s % 2 == parity]
            assert len(cases) >= 3
            assert any(c.r % 2 and min(c.alphas) < 0 for c in cases)
            assert any(max(a.denominator for a in c.alphas) > 1 for c in cases)

    @pytest.mark.parametrize("k", range(len(CASES)))
    def test_matches_fraction_scan_and_survivor_count(self, k):
        config, height = self.CASES[k]
        hits = assert_matches_fraction_scan(config, height)
        report = search_ab(config, height)
        assert report.sieve_survivors == sieve_survivor_count(config, height)
        assert len(report.hits) == len(hits)

    def test_prime_s_uses_many_characters(self):
        # for prime s each sieve prime m has gcd(s, m - 1) = s characters,
        # each with its own pattern (for s = 101, m runs up to 10303)
        found = 0
        for s in (7, 11, 101):
            for alphas in ([F(1), F(1, 2)], [F(-1), F(2, 3), F(3)]):
                found += len(assert_matches_fraction_scan(validate(1, s, alphas), 6))
        assert found > 0

    def test_half_lines_ending_far_outside_the_row(self):
        # -u p^r / q^r far beyond H: each half-line keeps all or none of a row
        for r, alpha in ((1, F(10**21)), (1, F(-10**21)), (3, F(-10**7, 3)),
                         (3, F(1, 10**7)), (2, F(-1, 10**11))):
            config = validate(r, 2, [alpha, F(2), F(3)])
            assert_matches_fraction_scan(config, 3)
            report = search_ab(config, 3)
            assert report.sieve_survivors == sieve_survivor_count(config, 3)

    def test_survivors_with_one_sieve_prime(self, monkeypatch):
        # with one prime many candidates with M < 0 pass the sieve, so the
        # count shows a half-line that is one v too wide or too narrow
        monkeypatch.setattr(search, "SIEVE_PRIMES", 1)
        for config, height in self.CASES:
            report = search_ab(config, height)
            assert report.sieve_survivors == sieve_survivor_count(config, height)

    def test_tables_only_for_the_primes_candidates_reach(self, monkeypatch):
        # a prime gets slab tables once more than H candidates reach it;
        # the primes that few candidates reach test them one by one, with
        # the same hits and counters
        built = []

        class Counted(search._Patterns):
            def __init__(self, m, s, bits):
                built.append(m)
                super().__init__(m, s, bits)

        monkeypatch.setattr(search, "_Patterns", Counted)
        fewer = 0
        for config, height in self.CASES:
            built.clear()
            report = search_ab(config, height)
            primes = search._sieve_primes(config.s)
            assert built == primes[:len(built)]
            if len(built) < len(primes):
                fewer += 1
                hits = fraction_scan(config, height)[0]
                assert [(h.curve.a, h.curve.b, h.points) for h in report.hits] == hits
                assert report.sieve_survivors == sieve_survivor_count(
                    config, height)
        assert fewer

    @pytest.mark.parametrize("k", range(len(CASES)))
    def test_counters_do_not_depend_on_workers(self, k):
        config, height = self.CASES[k]
        reports = [search_ab(config, height, workers) for workers in (1, 2, 3, 4096)]
        for report in reports[1:]:
            assert report.search_space_size == reports[0].search_space_size
            assert report.sieve_survivors == reports[0].sieve_survivors
            assert report.hits == reports[0].hits
        # one block per u: u != 0 for even s, u > 0 for odd s
        blocks = height if config.s % 2 else 2 * height
        assert len(reports[-1].block_us) == blocks

    def test_odd_s_root_tests_each_positive_row_once(self, monkeypatch):
        # x-coordinates of points of y^3 = x(-5/2 x - 3/2)
        config = validate(1, 3, [F(-1), F(-1, 2), F(3), F(-3, 2)])
        full = fraction_scan(config, 6)[0]
        assert any(a < 0 for a, _, _ in full) and any(a > 0 for a, _, _ in full)
        for rows in root_tested_rows(monkeypatch, config, 6, full):
            assert min(u for u, _ in rows) > 0

    def test_even_s_root_tests_each_row_once(self, monkeypatch):
        # with one sieve prime many rows of one slab survive, and with no
        # mirror the rows of u < 0 reach the root test too
        monkeypatch.setattr(search, "SIEVE_PRIMES", 1)
        config = validate(1, 2, [F(1, 2), F(1), F(3, 2)])
        full = fraction_scan(config, 8)[0]
        assert full
        for rows in root_tested_rows(monkeypatch, config, 8, full):
            assert len({w for u, w in rows if u == 1}) > 3
            assert min(u for u, _ in rows) < 0 < max(u for u, _ in rows)


def slab_bits(config, height, rows):
    """A ``SLAB_BITS`` that makes slabs of ``rows`` rows, the last one
    ragged when ``rows`` does not divide H: ``rows`` times the stride
    (2H + 1 plus the largest sieve prime) plus 7, for the rounding up to
    whole bytes, which stays below rows + 1 strides while 7 rows < stride."""
    return rows * (2 * height + 1 + search._sieve_primes(config.s)[-1] + 7)


def root_tested_rows(monkeypatch, config, height, full):
    """For slabs of one row, three rows and the whole box and for 1, 2 and
    3 workers: check the hits against ``full`` and that each row (u, w)
    reaches ``_root_test`` at most once, and yield the rows that did."""
    rows = []
    root_test = search._root_test

    def noted(u, w, *args):
        rows.append((u, w))
        root_test(u, w, *args)

    monkeypatch.setattr(search, "_root_test", noted)
    for slab_rows in (1, 3, height):
        monkeypatch.setattr(search, "SLAB_BITS", slab_bits(config, height, slab_rows))
        for workers in (1, 2, 3):
            rows.clear()
            report = search_ab(config, height, workers)
            assert [(h.curve.a, h.curve.b, h.points) for h in report.hits] == full
            assert rows and len(rows) == len(set(rows))
            yield rows


class TestSlabs:
    """The rows (u, w) of one u are sieved together in slabs: one row, three
    rows (the last slab ragged at H = 7 and 10) and the whole box must
    give the same hits and counters."""

    @pytest.mark.parametrize("k", range(len(TestSignStageAndMirror.CASES)))
    def test_slab_sizes_match_the_oracles(self, monkeypatch, k):
        config, height = TestSignStageAndMirror.CASES[k]
        hits, space = fraction_scan(config, height)
        survivors = sieve_survivor_count(config, height)
        for rows in (1, 3, height):
            monkeypatch.setattr(search, "SLAB_BITS", slab_bits(config, height, rows))
            report = search_ab(config, height)
            assert [(h.curve.a, h.curve.b, h.points) for h in report.hits] == hits
            assert report.search_space_size == space
            assert report.sieve_survivors == survivors

    def test_prime_s_slabs_hold_little(self):
        # s = 101: the sieve primes run up to 10303, so a slab holds one row;
        # only the primes that more than H candidates reach get tables (one
        # here, 0.05 MiB), where tables for all 15 would take 1.3 MiB
        config = validate(1, 101, [F(1), F(2), F(-3), F(5)])
        tracemalloc.start()
        try:
            search_ab(config, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 // 2


class TestSieveTables:
    """Each prime's patterns, built from the s-th powers listed through the
    subgroup they form, against the powers listed one residue at a time."""

    @staticmethod
    def assert_pattern(tables, c1, powers, bits):
        m = tables.m
        want = "".join("1" if c1 * i % m in powers else "0" for i in range(bits))
        assert format(tables[c1], "b")[::-1][:bits].ljust(bits, "0") == want, (m, c1)

    @pytest.mark.parametrize("s", range(2, 8))
    def test_every_residue_of_every_prime(self, s):
        for m in search._sieve_primes(s):
            powers = {pow(x, s, m) for x in range(m)}
            tables = search._Patterns(m, s, m + 9)
            for c1 in range(m):
                self.assert_pattern(tables, c1, powers, m + 9)

    def test_seeded_residues_for_a_prime_s(self):
        rng = random.Random(101)
        for m in search._sieve_primes(101):
            powers = {pow(x, 101, m) for x in range(m)}
            tables = search._Patterns(m, 101, m + 9)
            for c1 in rng.sample(range(m), 20):
                self.assert_pattern(tables, c1, powers, m + 9)

    @pytest.mark.parametrize("s", range(2, 8))
    def test_residue_test_matches_the_patterns(self, s):
        # a candidate (u, v, w) of an alpha with residues (c, p^r, q^r) mod m
        # is pattern bit i = v + u p^r / q^r of c1 = c q^r w^(s-1); a prime
        # with no slab tables must pass it exactly when that bit is set
        rng = random.Random(s)
        for m in search._sieve_primes(s):
            tables = search._Patterns(m, s, m)
            k = (m - 1) // gcd(s, m - 1)
            for _ in range(40):
                c1, i = rng.randrange(m), rng.randrange(m)
                p_r, q_r = rng.randrange(m), rng.randrange(1, m)
                w = rng.randrange(1, m) + m * rng.randrange(3)
                u = rng.randint(-3 * m, 3 * m)
                c = c1 * pow(q_r * w ** (s - 1), -1, m) % m
                v = (i - u * p_r * pow(q_r, -1, m)) % m - m * rng.randrange(2)
                reached = {m: 0}
                row = search._residue_test(u, w, 1 << v + m, m, s,
                                           [(m, k, [(c, p_r, q_r)])], reached)
                assert row == (tables[c1] >> i & 1) << v + m, (m, c1, i)
                assert reached == {m: 1}

    def test_sieve_primes_are_the_first_non_power_primes(self):
        # brute force: the primes m, in order, with gcd(s, m - 1) > 1,
        # primes from a sieve of Eratosthenes.  Past s = 3000 the cases have
        # a prime factor above the square root of what trial division left:
        # 5003 * 5009, 1009^2 and 1009 * 99991
        bound = 1_000_000
        composite = bytearray(bound)
        for k in range(2, isqrt(bound) + 1):
            if not composite[k]:
                composite[k * k::k] = b"\x01" * len(range(k * k, bound, k))
        primes = [m for m in range(2, bound) if not composite[m]]
        for s in [*range(2, 3001), 30030, 5003 * 5009, 1009**2, 1009 * 99991]:
            stream = (m for m in primes if gcd(s, m - 1) > 1)
            want = list(itertools.islice(stream, search.SIEVE_PRIMES))
            assert len(want) == search.SIEVE_PRIMES, s
            assert search._sieve_primes(s) == want, s

    def test_large_prime_s_holds_little(self):
        # the sieve primes of s = 1009 run from 10091 to 173549, all above
        # SLAB_BITS: no prime gets slab tables, each tests the candidates
        # that reach it one by one
        config = validate(1, 1009, [F(1), F(2), F(-3)])
        tracemalloc.start()
        try:
            search_ab(config, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestFiberOracle:
    """The hit set against ``fiber_oracle``, at heights where the sign
    stage, the mirror and the sieve all reject candidates."""

    @pytest.mark.parametrize("r, s, alphas", [
        (2, 2, [F(2), F(1), F(3)]),
        (1, 3, [F(1), F(-2), F(4)]),
        (1, 2, [F(1), F(-1, 2), F(-4, 3)]),
        (1, 3, [F(-1), F(-1, 2), F(3), F(-3, 2)]),
        (3, 2, [F(-1), F(2), F(3), F(-8, 11)]),
    ])
    def test_hits_are_the_fiber_points_of_bounded_height(self, r, s, alphas):
        config = validate(r, s, alphas)
        for height in (12, 48):
            hits = {(h.curve.a, h.curve.b) for h in search_ab(config, height).hits}
            assert hits == fiber_oracle(config, height)
            assert len(hits) >= 5
