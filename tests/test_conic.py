import collections
import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction as F
from math import gcd

import pytest
from planting import rational_root

from fibercurve import cli, conic, jsonio
from fibercurve.arith import format_rational
from fibercurve.birat import from_fiber_point
from fibercurve.config import InvalidConfigError, MathError, validate
from fibercurve.conic import (
    _directions,
    _half_shell,
    enumerate_curves,
    find_base_point,
    parametrize,
)
from fibercurve.family import contains
from fibercurve.fiber import FiberEquation, FiberSystem, ProjPoint, build_fiber, on_fiber

CFG123 = validate(2, 2, [F(1), F(2), F(3)])
CFG124 = validate(2, 2, [F(1), F(2), F(4)])
# all three cofactors share a sign here, so the conic is definite
CFG_DEFINITE = validate(2, 2, [F(1), F(-2), F(4)])
# the base point (1, 2, 5) and its sign flips lift to b = 0
CFG125 = validate(1, 2, [F(1), F(2), F(5)])


def model_for(cfg, height=20):
    system = build_fiber(cfg)
    base = find_base_point(system, height)
    assert base is not None
    return system, base


def filtered_shell(k):
    """The square filter the base-point search ran before ``_half_shell``."""
    return [
        (y0, y1)
        for y0 in range(0, k + 1)
        for y1 in range(-k, k + 1)
        if max(y0, abs(y1)) == k and not (y0 == 0 and y1 < 0)
    ]


def filtered_directions():
    """The square filter ``_directions`` ran before ``_half_shell``."""
    for shell in itertools.count(1):
        for t0 in range(-shell, shell + 1):
            for t1 in range(0, shell + 1):
                if max(abs(t0), t1) != shell:
                    continue
                if t1 == 0 and t0 < 0:
                    continue
                if gcd(abs(t0), t1) != 1:
                    continue
                yield (t0, t1)


class TestShellWalk:
    def test_half_shell_is_the_filtered_shell(self):
        for k in range(1, 41):
            pairs = list(_half_shell(k))
            assert len(pairs) == 4 * k
            assert pairs == filtered_shell(k)

    def test_directions_match_the_filtered_walk(self):
        n = 20_000
        assert list(itertools.islice(_directions(), n)) == list(
            itertools.islice(filtered_directions(), n)
        )


class TestFindBasePoint:
    def test_first_point_in_order(self):
        system = build_fiber(CFG123)
        assert find_base_point(system, 20) == ProjPoint([0, 1, 2])

    def test_result_satisfies_equation(self):
        system = build_fiber(CFG124)
        eq = system.equations[0]
        point = find_base_point(system, 20)
        assert point == ProjPoint([1, -4, 12])
        assert (
            eq.A * point[0] ** 2 + eq.B * point[1] ** 2 + eq.C * point[2] ** 2
            == 0
        )

    def test_definite_form_has_no_point(self):
        system = build_fiber(CFG_DEFINITE)
        eq = system.equations[0]
        assert (eq.A > 0) and (eq.B > 0) and (eq.C > 0)
        assert find_base_point(system, 40) is None

    def test_synthetic_sum_of_squares(self):
        system = FiberSystem(
            config=CFG123,
            equations=(
                FiberEquation(i=2, A=F(1), B=F(1), C=F(1)),
            ),
        )
        assert find_base_point(system, 30) is None

    def test_c_zero_is_rejected(self):
        # build_fiber normalizes C > 0; a hand-built C = 0 has no y_2 to solve
        system = FiberSystem(
            config=CFG123,
            equations=(FiberEquation(i=2, A=1, B=-2, C=0),),
        )
        with pytest.raises(ZeroDivisionError):
            find_base_point(system, 5)

    def test_no_point_at_height_400(self):
        # about 0.1 s with an O(k) walk per shell; an O(k^2) one takes
        # about 10 s here
        system = FiberSystem(
            config=CFG123,
            equations=(FiberEquation(i=2, A=1, B=1, C=1),),
        )
        assert find_base_point(system, 400) is None


    def test_matches_a_scan_of_primitive_triples(self):
        def brute_force(system, height):
            eq = system.equations[0]
            hits = [
                (max(y0, abs(y1)), y0, y1, y2)
                for y0 in range(height + 1)
                for y1 in range(-height, height + 1)
                for y2 in range(height + 1)
                if (y0 > 0 or y1 > 0) and gcd(y0, y1, y2) == 1
                and eq.A * y0 * y0 + eq.B * y1 * y1 + eq.C * y2 * y2 == 0
            ]
            return ProjPoint(min(hits)[1:]) if hits else None

        rng = random.Random(8)
        checked = found = 0
        while checked < 300:
            alphas = [F(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(3)]
            try:
                cfg = validate(rng.randint(1, 3), 2, alphas)
            except InvalidConfigError:
                continue
            system = build_fiber(cfg)
            point = find_base_point(system, 8)
            assert point == brute_force(system, 8), cfg
            checked += 1
            found += point is not None
        assert found >= 50


class TestParametrize:
    def test_second_intersection(self):
        system, base = model_for(CFG123)
        point = ProjPoint(parametrize(system, base, (0, 1)))
        assert point != base
        assert point == ProjPoint([0, 1, -2])
        assert on_fiber(system, point).ok

    def test_tangent_direction_returns_the_base_point(self):
        system, base = model_for(CFG123)
        assert parametrize(system, base, (1, 0)) == base.coords
        assert ProjPoint(parametrize(system, base, (1, 0))) == base

    def test_many_directions_stay_on_conic(self):
        system, base = model_for(CFG123)
        seen = set()
        count = 0
        for t0 in range(-32, 33):
            for t1 in range(0, 33):
                if (t0, t1) == (0, 0) or gcd(abs(t0), t1) != 1:
                    continue
                if t1 == 0 and t0 < 0:
                    continue
                point = ProjPoint(parametrize(system, base, (t0, t1)))
                assert on_fiber(system, point).ok
                count += 1
                if point != base:
                    seen.add(point)
        assert count >= 1000
        # distinct directions give distinct points, tangent aside
        assert len(seen) == count - 1

    def test_point_off_the_conic_fails_the_check(self):
        # the base point of CFG123 on a conic whose C is perturbed: the
        # second intersection of every non-tangent line is off that conic
        system, base = model_for(CFG123)
        eq = system.equations[0]
        perturbed = system._replace(equations=(eq._replace(C=eq.C + 1),))
        for t in itertools.islice(_directions(), 40):
            if t[1] == 0:  # the tangent direction gives the base point back
                assert ProjPoint(parametrize(perturbed, base, t)) == base
                continue
            with pytest.raises(AssertionError,
                               match="^parametrized point left the conic$"):
                parametrize(perturbed, base, t)


def lift_every_point(cfg, count, height):
    """The reference pipeline: the base point and every non-tangent pencil
    point made a ``ProjPoint`` and lifted through the checked
    ``from_fiber_point`` at scale 1, repeated (a, b) dropped after the lift,
    within the direction budget of ``enumerate_curves`` and with its
    ``MathError`` texts; also count the obstructed lifts."""
    system = build_fiber(cfg)
    base = find_base_point(system, height)
    if base is None:
        eq = system.equations[0]
        raise MathError(f"no rational point of height <= {height} on "
                        f"{eq.A} Y0^2 + {eq.B} Y1^2 + {eq.C} Y2^2 = 0")
    budget = 16 * (count + 2) + 64
    pencil = (ProjPoint(parametrize(system, base, t))
              for t in itertools.islice(_directions(), budget))
    results, seen, obstructed = [], set(), 0
    for k, point in enumerate(itertools.chain([base], pencil)):
        if k and point == base:
            continue
        if len(results) >= count:
            break
        try:
            cwp = from_fiber_point(system, point, scale=F(1))
        except MathError:
            obstructed += 1
            continue
        if (cwp.curve.a, cwp.curve.b) not in seen:
            seen.add((cwp.curve.a, cwp.curve.b))
            results.append(cwp)
    if len(results) < count:
        raise MathError(f"exhausted {budget} directions with only "
                        f"{len(results)} distinct curves")
    return results, obstructed


def seeded_configs(seed, count, height=20):
    """Configs with r = 1..4 in turn and signed fractional alphas whose
    conic has a base point of height <= ``height``."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        alphas = [F(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 4))
                  for _ in range(3)]
        try:
            cfg = validate(len(found) % 4 + 1, 2, alphas)
        except InvalidConfigError:
            continue
        if find_base_point(build_fiber(cfg), height) is not None:
            found.append(cfg)
    return found


def written(fn, cfg, count):
    """The ``conic-enumerate`` stdout of the curves ``fn`` makes, or the
    text of its MathError."""
    try:
        curves = fn(cfg, count)
    except MathError as exc:
        return f"MathError: {exc}"
    return "".join(jsonio.cwp_lines(cfg, curves))


# 300 seeded configs, and three that no base point of height <= 20 solves,
# one each at r = 2, 3 and 4
REFERENCE_CONFIGS = (
    [CFG123, CFG124, CFG125] + seeded_configs(35, 300)
    + [CFG_DEFINITE, validate(3, 2, [F(-1, 2), F(3), F(5, 7)]),
       validate(4, 2, [F(-1, 2), F(3), F(5, 7)])]
)


class TestEnumerateCurves:
    @pytest.mark.parametrize("count", [1, 5, 60, 300])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_lifting_every_point(self, r, count):
        # enumerate_curves divides each pencil vector by its gcd, dedupes
        # it, solves it for (a, b) and signs the points it keeps;
        # lift_every_point makes every point a ProjPoint and lifts it
        # through the checked from_fiber_point
        kinds = collections.Counter()
        for cfg in REFERENCE_CONFIGS:
            if cfg.r != r:
                continue
            want = written(lambda c, n: lift_every_point(c, n, 20)[0], cfg, count)
            got = written(lambda c, n: enumerate_curves(c, n, 20).curves, cfg,
                          count)
            assert got == want, cfg
            kinds["math error" if want.startswith("MathError") else "curves"] += 1
        assert kinds["curves"] >= 75 and kinds["math error"] == (r > 1)

    def test_the_reference_configs_reach_every_branch(self):
        # a base point with Y_0 = 0, pencil vectors with gcd > 1 and with a
        # negative first entry, sign flips and degenerate points
        seen = collections.Counter()
        for cfg in REFERENCE_CONFIGS[:303]:
            system, base = model_for(cfg)
            seen["Y_0 = 0"] += base[0] == 0
            for t in itertools.islice(_directions(), 100):
                vector = parametrize(system, base, t)
                seen["gcd > 1"] += gcd(*vector) > 1
                seen["negative"] += next(v for v in vector if v) < 0
            report = enumerate_curves(cfg, 60, 20)
            seen["duplicates"] += report.duplicates > 1
            seen["degenerate"] += report.degenerate > 0
        assert min(seen.values()) >= 30, seen
        assert lift_every_point(CFG125, 150, 20)[1] == 4

    @pytest.mark.parametrize("count", [0, 1, 5, 60])
    def test_stats_counters_add_up(self, count):
        # the base point and each examined direction's point is a
        # duplicate, a degenerate point or a curve; at count 0 nothing is
        # examined
        for cfg in REFERENCE_CONFIGS[:303:10]:
            report = enumerate_curves(cfg, count, 20)
            stats = jsonio.conic_stats_to_obj(report)
            assert list(stats) == ["directions", "duplicates", "degenerate",
                                   "curves", "budget"]
            assert stats["curves"] == count
            assert stats["budget"] == 16 * (count + 2) + 64
            examined = stats["duplicates"] + stats["degenerate"] + count
            assert examined == (1 + stats["directions"] if count else 0)

    def test_a_point_off_the_conic_is_never_lifted(self, monkeypatch):
        # the lift trusts find_base_point and parametrize to put every point
        # on the conic; a base point off it makes the first non-tangent
        # direction fail parametrize's check, not a lift, so a broken proof
        # neither prints curves nor ends in a quiet exit 1
        system = build_fiber(CFG123)
        off = ProjPoint([1, 1, 1])
        assert not on_fiber(system, off).ok
        monkeypatch.setattr(conic, "find_base_point", lambda system, h: off)
        for count in (2, 3, 40):
            with pytest.raises(AssertionError,
                               match="^parametrized point left the conic$"):
                enumerate_curves(CFG123, count, 20)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                pytest.raises(AssertionError, match="left the conic"):
            cli.main(["conic-enumerate", "--config",
                      '{"r":2,"s":2,"alphas":["1","2","3"]}', "--count", "2"])
        assert out.getvalue() == ""


    @pytest.mark.parametrize("cfg, count", [
        (CFG123, 0), (CFG123, 1), (CFG123, 300), (CFG125, 300),
    ], ids=["cfg123-0", "cfg123-1", "cfg123-300", "cfg125-300"])
    def test_one_parametrize_call_per_direction(self, monkeypatch, cfg, count):
        # replay: the base point, then the directions in order, skipping a
        # repeated (Y_0^2, Y_1^2) and an obstructed lift; the point after
        # the last curve is made and then dropped
        system, base = model_for(cfg)
        seen, emitted = set(), 0
        for consumed, t in enumerate(itertools.chain([None], _directions())):
            if emitted == count:
                break
            point = base if t is None else ProjPoint(parametrize(system, base, t))
            if (point[0] ** 2, point[1] ** 2) in seen:
                continue
            seen.add((point[0] ** 2, point[1] ** 2))
            try:
                from_fiber_point(system, point, scale=F(1))
                emitted += 1
            except MathError:
                pass
        calls = []

        def counted(*args):
            calls.append(args[2])
            return parametrize(*args)

        monkeypatch.setattr(conic, "parametrize", counted)
        report = enumerate_curves(cfg, count, 20)
        assert len(report.curves) == count
        assert calls == list(itertools.islice(_directions(), consumed))
        # the dropped point is not counted among the examined directions
        assert report.directions == max(consumed - 1, 0)

    def test_five_distinct_verified_curves(self):
        curves = enumerate_curves(CFG123, 5, 20).curves
        assert len(curves) == 5
        seen = set()
        for cwp in curves:
            assert cwp.curve.a != 0 and cwp.curve.b != 0
            seen.add((cwp.curve.a, cwp.curve.b))
            assert [p.x for p in cwp.points] == [F(1), F(2), F(3)]
            for p in cwp.points:
                assert contains(cwp.curve, p)
        assert len(seen) == 5

    @pytest.mark.parametrize("cfg, digest", [
        (CFG123,
         "19cc3eb31aabe32a2feaedb15fa4942fe86d4241175a281273b7816b2e546629"),
        (CFG125,
         "4fb6bd165447e6597c186895df974156751f87ca4f91ed41a684421411d12f2d"),
    ], ids=["r2-alphas-1-2-3", "r1-alphas-1-2-5"])
    def test_benchmark_sequence_at_count_2000(self, cfg, digest):
        # the SHA-256 of the "a b" lines recorded for the benchmark's conic
        # workload (conic-enumerate --count 2000 --height 64)
        curves = enumerate_curves(cfg, 2000, 64).curves
        seq = "\n".join(f"{format_rational(c.curve.a)} {format_rational(c.curve.b)}"
                        for c in curves)
        assert hashlib.sha256(seq.encode()).hexdigest() == digest

    def test_count_zero(self):
        assert enumerate_curves(CFG123, 0, 20) == ([], 0, 0, 0, 96)

    def test_unsolvable_config_fails_loudly(self):
        with pytest.raises(MathError, match="no rational point of height <= 30"):
            enumerate_curves(CFG_DEFINITE, 3, 30)

    def test_exhausted_directions_fail_loudly(self, monkeypatch):
        # every direction gives the base point back, so only its lift counts
        monkeypatch.setattr(conic, "parametrize",
                            lambda system, base, t: base.coords)
        message = "exhausted 144 directions with only 1 distinct curves"
        with pytest.raises(MathError) as caught:
            enumerate_curves(CFG123, 3, 20)
        assert str(caught.value) == message
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(["conic-enumerate", "--config",
                             '{"r":2,"s":2,"alphas":["1","2","3"]}',
                             "--count", "3", "--height", "20"])
        assert code == cli.EXIT_MATH
        assert json.loads(err.getvalue()) == {"error": "math", "message": message}

    def test_deterministic(self):
        first = enumerate_curves(CFG123, 12, 20).curves
        second = enumerate_curves(CFG123, 12, 20).curves
        assert [(c.curve.a, c.curve.b) for c in first] == [
            (c.curve.a, c.curve.b) for c in second
        ]

    def test_square_condition_invariant(self):
        for cwp in enumerate_curves(CFG123, 8, 20).curves:
            for alpha in CFG123.alphas:
                value = alpha * (cwp.curve.a * alpha**2 + cwp.curve.b)
                assert rational_root(value, 2) is not None

    def test_needs_genus_zero_shape(self):
        cfg = validate(2, 2, [F(1), F(2), F(3), F(5)])
        with pytest.raises(ValueError):
            enumerate_curves(cfg, 3, 20)
