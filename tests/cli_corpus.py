"""A seeded corpus of ``fibercurve`` argvs and the bytes they produce.

Every argv runs in-process through ``fibercurve.cli.main``.  Its record
is the exit code and the sha256 of stdout, of stderr and of the file an
``--out`` flag names.  ``elapsed_ms`` and ``block_us`` are timings, so
they are masked before hashing.  The expected records are kept in
``tests/data/cli_golden.json``; ``tests/test_cli_corpus.py`` compares.

Regenerating the records is a deliberate act:

    python tests/cli_corpus.py --write

A change that alters a record names each changed argv in CHANGES.md.
Before regenerating, list them with

    python tests/cli_corpus.py --diff

which prints every argv whose record differs from the file or is missing
from it, and every record of the file that no argv makes any more, and
exits 1 if there is any.

argparse words its own messages, and that wording can change between
Python minor versions.  A record whose message went through
``cli._Parser.error`` is marked ``"argparse": true``; on another minor
version than the one that wrote the file, such a record is compared on
all but its stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

if __name__ == "__main__":  # run as a script: import the checkout's package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fibercurve.family import FamilyCurve  # noqa: E402
from planting import (brute_force_points, plant_curves,  # noqa: E402
                      plant_search_instances)

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
SEED = 12
# stands in an argv for the --out path; a run puts a fresh path there and
# writes the placeholder back into what it records
OUT = "@OUT@"
_TIMINGS = (
    (re.compile(r'"elapsed_ms": \d+'), '"elapsed_ms": 0'),
    (re.compile(r'"block_us": \[[^\]]*\]'), '"block_us": []'),
)

CFG123 = '{"r":2,"s":2,"alphas":["1","2","3"]}'
CFG_FRAC = '{"r":1,"s":2,"alphas":["1/2","3","-5/3"]}'
CONIC_CONFIGS = (
    CFG123,
    '{"r":1,"s":2,"alphas":["1","2","5"]}',
    '{"r":2,"s":2,"alphas":["1","-2","4"]}',
    CFG_FRAC,
)
BUILD_CONFIGS = CONIC_CONFIGS + (
    '{"r":3,"s":3,"alphas":["1","2","3","5"]}',
    '{"r":2,"s":3,"alphas":["1/2","-3","7/5","4","-11/6"]}',
    '{"r":1,"s":5,"alphas":["123456789/1000","-2","1/987654321"]}',
)
# twelve alphas, most of them fractions, at r = 2000: coefficients of up
# to 2965 digits, and scales whose denominators run to thousands of digits
LONG_CONFIG = ('{"r":2000,"s":3,"alphas":["1","2","-3/5","7/2","-11/3","13/4",'
               '"5","-17/6","19/7","23/9","-29/8","31/10"]}')
INVALID_CONFIGS = (
    '{"r":2,"s":2,"alphas":["1","-1"]}',
    '{"r":2,"s":2,"alphas":["1","2","-2","2/1","0"]}',
    '{"r":4,"s":3,"alphas":["1/2","-1/2","3","3"]}',
    '{"r":0,"s":1,"alphas":["1"]}',
)
MALFORMED_PAYLOADS = (
    '{"nope":1}',
    "[1]",
    "abc",
    "{",
    '{"r":2,"s":2,"alphas":[1,2,3]}',
    '{"r":2,"s":2,"alphas":["1/0","2","3"]}',
    '{"r":2.5,"s":2,"alphas":["1","2","3"]}',
    '{"r":true,"s":2,"alphas":["1","2","3"]}',
    "/nonexistent/config.json",
)
# one payload without each field a reader takes: r, s, alphas, coords,
# curve, points, a, b, x and y
MISSING_FIELDS = (
    ["validate", "--config", '{"s":2,"alphas":["1","2","3"]}'],
    ["validate", "--config", '{"r":2,"alphas":["1","2","3"]}'],
    ["validate", "--config", '{"r":2,"s":2}'],
    ["fiber-verify", "--config", CFG123, "--point", '{"coord":["1","2","3"]}'],
    ["push", "--input", '{"points":[]}'],
    ["push", "--input", '{"curve":{"r":2,"s":2,"a":"1","b":"3"}}'],
    ["push", "--input", '{"curve":{"r":2,"s":2,"b":"3"},"points":[]}'],
    ["push", "--input", '{"curve":{"r":2,"s":2,"a":"1"},"points":[]}'],
    ["push", "--input", '{"curve":{"r":2,"s":2,"a":"1","b":"3"},"points":[{"y":"2"}]}'],
    ["push", "--input", '{"curve":{"r":2,"s":2,"a":"1","b":"3"},"points":[{"x":"1"}]}'],
)
# members with a root, a c^r + b = 0, so (c, 0) is a point: fiber points
# with Y_0, Y_1 or Y_2 zero
ZERO_CURVES = ((2, 2, 2, -18), (1, 3, 1, -2), (2, 4, 2, -18))
BAD_TEXT = ("1/0", "abc", "", "--1", "1_0", "٣", "+3", "-2")
# texts a rational reads that an integer flag reads only without a "/":
# reducible rationals, padding and the unicode minus
INTEGER_TEXT = ("3/1", "4/2", "-4/2", " 03 ", "−3")
# search-ab configs with alphas of both signs: odd s, where a hit (u, v, w)
# comes with its mirror (-u, -v, w), and even s with odd r, where a
# negative alpha has p^r < 0
SEARCH_ODD = (
    '{"r":1,"s":3,"alphas":["-1","-1/2","3","-3/2"]}',
    '{"r":2,"s":5,"alphas":["-3","1"]}',
    '{"r":1,"s":3,"alphas":["-1","-4","1/5","-1/8"]}',
)
SEARCH_EVEN = (
    '{"r":3,"s":2,"alphas":["-1","2","3","-8/11"]}',
    '{"r":3,"s":2,"alphas":["-1","-1/2","3/2"]}',
    '{"r":1,"s":4,"alphas":["-4","4","8"]}',
)
# conic-enumerate at r = 3 and 4 with signed and fractional alphas, so a
# curve's a, b and y are fractions of either sign; -1/2, 3, 5/7 has no
# base point of height <= 64 at either r
CONIC_HIGH_R = tuple(
    json.dumps({"r": r, "s": 2, "alphas": alphas})
    for r, alphas in ((3, ["-1/2", "3", "5/7"]), (3, ["-1", "2", "1/3"]),
                      (3, ["1", "2", "-3/4"]), (4, ["-1/2", "3", "5/7"]),
                      (4, ["1", "-3/2", "2/3"]), (4, ["-1", "-2", "1/2"]))
)
# lifts at integer scales, which give integer y values: "6/3" and " 5 "
# read as 2 and 5, and Y_0 = 1 makes the default scale 1 too
CFG125_TEXT = CONIC_CONFIGS[1]
CFG149 = '{"r":1,"s":2,"alphas":["1","4","9"]}'
INTEGER_LIFTS = (
    (CFG123, '{"coords":["2","3","4"]}'),
    (CFG_FRAC, '{"coords":["3","-18","10"]}'),
    (CFG125_TEXT, '{"coords":["1","8","25"]}'),
    (CFG149, '{"coords":["1","16","39"]}'),
    # on the fiber, but b = 0 and a = 0 at every scale: [1:2:3] lifts to
    # (a, b) = (0, 1)
    (CFG125_TEXT, '{"coords":["1","-2","5"]}'),
    (CFG149, '{"coords":["1","2","3"]}'),
)
INTEGER_SCALES = ("2", "6/3", " 5 ", "-1")
# conic-enumerate at r = 1..4 with signed fractional alphas, two configs
# per r.  The first r = 1 and r = 2 configs have a base point with Y_0 = 0;
# the pencil vectors of every one but -3/2, 7/2, -1/2 include some whose
# first nonzero entry is negative, and of every one some with gcd > 1;
# both r = 1 configs, both r = 3 ones and -1/2, -2, -9/2 have pencil
# points that lift to a = 0 or b = 0
CONIC_SIGNED = tuple(
    json.dumps({"r": r, "s": 2, "alphas": alphas})
    for r, alphas in ((1, ["3", "-7/3", "-4"]), (1, ["-1/2", "7/3", "-9/4"]),
                      (2, ["-1/2", "1/3", "-5/2"]), (2, ["8/3", "3", "-1"]),
                      (3, ["2", "-5/3", "-2/3"]), (3, ["-3/2", "7/2", "-1/2"]),
                      (4, ["-1/2", "-2", "-9/2"]), (4, ["-2/3", "1", "3/2"]))
)


def fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _plant_argvs(rng: random.Random) -> list[list[str]]:
    """push, fiber-verify and lift on planted curves: as planted, with no
    scale, with a negative scale, and with one y-coordinate corrupted."""
    argvs = []
    plants = plant_curves(rng, 24, r_s_choices=((1, 2), (2, 2), (1, 3), (2, 3)),
                          x_height=20, max_points=5)
    for k, cwp in enumerate(plants):
        r, s = cwp.curve.r, cwp.curve.s
        a, b = cwp.curve.a, cwp.curve.b
        points = [(p.x, p.y) for p in cwp.points]
        if k % 2:  # the same points seen through x = lam X
            lam = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            a, b = a * lam ** (r + 1), b * lam
            points = [(x / lam, y) for x, y in points]
        config = json.dumps({"r": r, "s": s, "alphas": [fmt(x) for x, _ in points]})
        bad = rng.randrange(len(points))
        for ys in ([y for _, y in points],
                   [y + (j == bad) for j, (_, y) in enumerate(points)]):
            cwp_obj = {
                "curve": {"r": r, "s": s, "a": fmt(a), "b": fmt(b)},
                "points": [{"x": fmt(x), "y": fmt(y)} for (x, _), y in zip(points, ys)],
            }
            point = json.dumps({"coords": [fmt(y) for y in ys]})
            scale = f"-{rng.randint(1, 9)}" + rng.choice(("", f"/{rng.randint(2, 9)}"))
            argvs += [
                ["push", "--input", json.dumps(cwp_obj)],
                ["fiber-verify", "--config", config, "--point", point],
                ["lift", "--config", config, "--point", point],
                ["lift", "--config", config, "--point", point, "--scale", scale],
            ]
    return argvs


def _zero_argvs() -> list[list[str]]:
    argvs = []
    for r, s, a, b in ZERO_CURVES:
        points = brute_force_points(FamilyCurve(r, s, Fraction(a), Fraction(b)), 20)
        root = next(p for p in points if p.y == 0)
        rest = [p for p in points if p is not root]
        for k in range(3):
            placed = rest[:k] + [root] + rest[k:]
            config = json.dumps({"r": r, "s": s, "alphas": [fmt(p.x) for p in placed]})
            point = json.dumps({"coords": [fmt(p.y) for p in placed]})
            argvs.append(["fiber-verify", "--config", config, "--point", point])
    return argvs


def _search_argvs(rng: random.Random) -> list[list[str]]:
    argvs = []
    for cwp, _, _, _ in plant_search_instances(rng, 2):
        config = json.dumps({"r": 2, "s": 2, "alphas": [fmt(p.x) for p in cwp.points]})
        for height in (1, 3, 6):
            for workers in ("1", "2"):
                argvs.append(["search-ab", "--config", config,
                              "--height", str(height), "--workers", workers])
        argvs += [
            ["search-ab", "--config", config, "--height", "6", "--out", OUT],
            ["search-ab", "--config", config, "--height", "4", "--workers", "2",
             "--stats", "--out", OUT],
        ]
    argvs += [
        ["search-ab", "--config", CFG_FRAC, "--height", "5", "--stats"],
        ["search-ab", "--config", '{"r":1,"s":3,"alphas":["1","2","-3"]}',
         "--height", "6"],
        ["search-ab", "--config", CFG123, "--height", "0"],
        ["search-ab", "--config", CFG123, "--height", "2", "--workers", "0"],
        ["search-ab", "--config", CFG123, "--height", "2",
         "--out", "/nonexistent/dir/report.json"],
        ["search-ab", "--config", CFG123],
    ]
    for config in SEARCH_ODD + SEARCH_EVEN:
        for height in ("1", "5", "6"):
            for workers in ("1", "2", "3"):
                argvs.append(["search-ab", "--config", config,
                              "--height", height, "--workers", workers])
        argvs += [
            ["search-ab", "--config", config, "--height", "6", "--workers", "3",
             "--stats", "--out", OUT],
            ["search-ab", "--config", config, "--height", "5", "--workers", "2",
             "--stats"],
        ]
    for alpha in ("1000000000000000000000", "-1/1000000000000000000000"):
        config = json.dumps({"r": 3, "s": 2, "alphas": [alpha, "2", "3"]})
        argvs.append(["search-ab", "--config", config, "--height", "3", "--stats"])
    # prime s: the sieve primes are the m = 1 mod s, so they grow with s;
    # the alphas 1, 1/2 have hits for every s
    for alphas in (["1", "1/2"], ["-1", "2/3", "3"]):
        for s, height in ((7, "6"), (101, "6"), (1009, "2")):
            config = json.dumps({"r": 1, "s": s, "alphas": alphas})
            argvs.append(["search-ab", "--config", config, "--height", height, "--stats"])
    # boxes of many rows: the rows (u, w) of one u are sieved together in
    # slabs, several slabs per u at H = 48 and 96, the last one ragged
    large = [(config, height) for config in (SEARCH_ODD[0], SEARCH_EVEN[0])
             for height in ("24", "48", "96")]
    large += [(json.dumps({"r": 1, "s": s, "alphas": ["1", "2", "-3"]}), "24")
              for s in (5, 7)]
    for config, height in large:
        for workers in ("1", "3"):
            argvs.append(["search-ab", "--config", config, "--height", height,
                          "--workers", workers, "--stats"])
    return argvs


def _solve_ab_argvs(rng: random.Random) -> list[list[str]]:
    def rational():
        return fmt(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))

    argvs = []
    for _ in range(12):
        r, s = str(rng.randint(1, 4)), str(rng.randint(2, 5))
        p0 = f"{rational()},{rational()}"
        p1 = json.dumps({"x": rational(), "y": rational()}) if rng.random() < 0.3 \
            else f"{rational()},{rational()}"
        argvs.append(["solve-ab", "--r", r, "--s", s, "--p0", p0, "--p1", p1])
    argvs += [
        ["solve-ab", "--r", "2", "--s", "2", "--p0", "-1/2,3", "--p1", "1/2,3"],
        ["solve-ab", "--r", "1", "--s", "2", "--p0", "0,1", "--p1", "2,3"],
        ["solve-ab", "--r", "1", "--s", "2", "--p0", "1,2,3", "--p1", "2,3"],
        ["solve-ab", "--r", "0", "--s", "2", "--p0", "1,2", "--p1", "2,3"],
        ["solve-ab", "--r", "1", "--s", "2", "--p0", '{"x":"1"}', "--p1", "2,3"],
        # malformed JSON points, and one nested deeper than the decoder goes
        ["solve-ab", "--r", "1", "--s", "2", "--p0", '{"x":"1",}', "--p1", "2,3"],
        ["solve-ab", "--r", "1", "--s", "2", "--p0", "1,2", "--p1", '{"x":"2","y":}'],
        ["solve-ab", "--r", "1", "--s", "2", "--p0",
         '{"x":' + "[" * 10_000 + "]" * 10_000 + "}", "--p1", "2,3"],
        # JSON lists, which are JSON but not an object
        ["solve-ab", "--r", "1", "--s", "2", "--p0", "[1,2]", "--p1", "2,3"],
        ["solve-ab", "--r", "1", "--s", "2", "--p0", "1,2", "--p1", "[1,2]"],
        ["solve-ab", "--r", "1", "--s", "2", "--p0", " []", "--p1", "2,3"],
    ]
    return argvs


def argvs() -> list[list[str]]:
    """The corpus, in a fixed order; a pure function of ``SEED``."""
    rng = random.Random(SEED)
    out = _plant_argvs(rng)
    out += [
        ["push", "--input", '{"curve":{"r":2,"s":2,"a":"1","b":"3"},"points":[1,2]}'],
        ["push", "--input", '{"curve":[],"points":[]}'],
        # inadmissible curves: a repeated x, and r out of range
        ["push", "--input", '{"curve":{"r":2,"s":2,"a":"1","b":"3"},"points":'
         '[{"x":"1","y":"2"},{"x":"1","y":"2"},{"x":"3","y":"6"}]}'],
        ["push", "--input", '{"curve":{"r":-2,"s":2,"a":"1","b":"1"},"points":'
         '[{"x":"0","y":"0"},{"x":"2","y":"3"}]}'],
        # two points: no fiber system; a = b = 0 with every y zero: no fiber point
        ["push", "--input", '{"curve":{"r":2,"s":2,"a":"1","b":"3"},"points":'
         '[{"x":"1","y":"2"},{"x":"3","y":"6"}]}'],
        ["push", "--input", '{"curve":{"r":2,"s":2,"a":"0","b":"0"},"points":'
         '[{"x":"1","y":"0"},{"x":"2","y":"0"},{"x":"3","y":"0"}]}'],
        # singular members: y^2 = x has (a, b) = (0, 1), y^2 = x^3 has (1, 0)
        ["push", "--input", '{"curve":{"r":1,"s":2,"a":"0","b":"1"},"points":'
         '[{"x":"1","y":"1"},{"x":"4","y":"2"},{"x":"9","y":"3"}]}'],
        ["push", "--input", '{"curve":{"r":2,"s":2,"a":"1","b":"0"},"points":'
         '[{"x":"1","y":"1"},{"x":"4","y":"8"},{"x":"9","y":"27"}]}'],
        ["fiber-verify", "--config", CFG123, "--point", '{"coords":["1","2"]}'],
        ["lift", "--config", CFG123, "--point", '{"coords":["1","2"]}'],
        ["fiber-verify", "--config", CFG123, "--point", '{"coords":["0","0","0"]}'],
        ["lift", "--config", CFG123, "--point", '{"coords":["0","1","1"]}'],
        ["lift", "--config", CFG123, "--point", '{"coords":["1","1","1"]}',
         "--scale", "0"],
        # [0:1:2] is on the fiber, so the lift reaches its scale check
        ["lift", "--config", CFG123, "--point", '{"coords":["0","1","2"]}',
         "--scale", "0"],
        ["lift", "--config", CFG123, "--point", '{"coords":["1","1","1"]}',
         "--scale", "x"],
        ["lift", "--config", CFG123, "--point", '{"coords":["0","1","2"]}',
         "--scale", "2"],
    ]
    for config, point in INTEGER_LIFTS:
        head = ["lift", "--config", config, "--point", point]
        out += [head] + [head + ["--scale", text] for text in INTEGER_SCALES]
    out += _zero_argvs()
    out += MISSING_FIELDS
    for payload in MALFORMED_PAYLOADS:
        out += [
            ["push", "--input", payload],
            ["fiber-verify", "--config", payload, "--point", '{"coords":["1","1","1"]}'],
            ["fiber-verify", "--config", CFG123, "--point", payload],
            ["lift", "--config", payload, "--point", '{"coords":["1","1","1"]}'],
            ["validate", "--config", payload],
            ["fiber-build", "--config", payload],
            ["conic-enumerate", "--config", payload, "--count", "1"],
        ]
    for config in BUILD_CONFIGS + INVALID_CONFIGS:
        out += [
            ["validate", "--config", config],
            ["fiber-build", "--config", config],
            ["fiber-build", "--config", config, "--format", "display"],
            ["fiber-build", "--config", config, "--format", "display",
             "--style", "monic"],
        ]
    out += [
        ["fiber-build", "--config", LONG_CONFIG],
        ["fiber-build", "--config", LONG_CONFIG, "--format", "display"],
        ["fiber-build", "--config", LONG_CONFIG, "--format", "display",
         "--style", "monic"],
        ["fiber-build", "--config", CFG123, "--format", "xml"],
        ["fiber-build", "--config", CFG123, "--style", "x"],
    ]
    out += _search_argvs(rng)
    for config in CONIC_CONFIGS:
        for count in ("0", "1", "40"):
            out.append(["conic-enumerate", "--config", config, "--count", count])
    for config in CONIC_HIGH_R:
        for count in ("1", "300"):
            out.append(["conic-enumerate", "--config", config, "--count", count])
    # the base point of 1, 2, 5 and its sign flips lift to b = 0, so the
    # first curves come after obstructed lifts
    for count in ("2", "3", "5"):
        out.append(["conic-enumerate", "--config", CFG125_TEXT, "--count", count])
    out += [
        ["conic-enumerate", "--config", CFG123, "--count", "5", "--height", "3"],
        ["conic-enumerate", "--config", '{"r":2,"s":3,"alphas":["1","2","3"]}',
         "--count", "1"],
        ["conic-enumerate", "--config", '{"r":2,"s":2,"alphas":["1","2","3","5"]}',
         "--count", "1"],
        ["conic-enumerate", "--config", CFG123, "--count", "-1"],
        ["conic-enumerate", "--config", CFG123, "--count", "3", "--height", "0"],
    ]
    for config in CONIC_SIGNED:
        for count in ("1", "7", "300"):
            out.append(["conic-enumerate", "--config", config, "--count", count])
    # --stats: on success, the run's counters on stderr; on a MathError or
    # a usage error, the error alone
    stats_runs = [(config, "7") for config in CONIC_SIGNED]
    stats_runs += [(CFG123, "0"), (CFG123, "1"), (CFG123, "40"),
                   (CFG125_TEXT, "2"), (CFG125_TEXT, "5"),
                   (CONIC_CONFIGS[2], "1"), (CFG123, "-1")]
    for config, count in stats_runs:
        out.append(["conic-enumerate", "--config", config, "--count", count,
                    "--stats"])
    out.append(["conic-enumerate", "--config", CFG123, "--count", "300",
                "--height", "20", "--stats"])
    for r, s, n in ((1, 2, 2), (2, 2, 2), (1, 3, 2), (2, 2, 3), (3, 2, 2)):
        args = ["trivial-points", "--r", str(r), "--s", str(s), "--n", str(n)]
        out += [args, args + ["--full"]]
    out += [["trivial-points", "--r", "0", "--s", "2", "--n", "2"],
            ["trivial-points", "--r", "2", "--s", "1", "--n", "2"],
            ["trivial-points", "--r", "31", "--s", "2", "--n", "2"],
            ["trivial-points", "--r", "1", "--s", "2", "--n", "500000"]]
    out += _solve_ab_argvs(rng)
    for s, n in ((2, 2), (2, 3), (3, 2), (3, 5), (7, 40), (2, 1), (1, 3)):
        out.append(["classify", "--s", str(s), "--n", str(n)])
    for s, n in ((2, 2), (3, 7), (2, 14400), (3, 9100), (7, 5200), (2, 1)):
        out += [["fiber-genus", "--s", str(s), "--n", str(n)],
                ["gonality-bound", "--s", str(s), "--n", str(n)]]
    out += [["family-genus", "--r", str(r), "--s", str(s)]
            for r, s in ((1, 2), (2, 2), (3, 5), (0, 2))]
    for name in ("watkins14", "rogers7", "nope"):
        out += [["fixtures", name], ["fixtures", name, "--verify"]]
    # every integer and rational flag, each the last argument of its argv
    lift_head = ["lift", "--config", CFG123, "--point", '{"coords":["1","1","1"]}']
    integer_argvs = []
    for head in (["fiber-genus", "--s", "2", "--n"],
                 ["fiber-genus", "--n", "3", "--s"],
                 ["gonality-bound", "--n", "3", "--s"],
                 ["gonality-bound", "--s", "2", "--n"],
                 ["classify", "--n", "3", "--s"],
                 ["classify", "--s", "2", "--n"],
                 ["family-genus", "--s", "2", "--r"],
                 ["family-genus", "--r", "2", "--s"],
                 ["solve-ab", "--s", "2", "--p0", "1,2", "--p1", "2,3", "--r"],
                 ["solve-ab", "--r", "1", "--p0", "1,2", "--p1", "2,3", "--s"],
                 ["solve-ab", "--r", "1", "--s", "2", "--p1", "2,3", "--p0"],
                 ["solve-ab", "--r", "1", "--s", "2", "--p0", "1,2", "--p1"],
                 ["conic-enumerate", "--config", CFG123, "--count"],
                 ["conic-enumerate", "--config", CFG123, "--count", "1", "--height"],
                 ["search-ab", "--config", CFG123, "--height"],
                 ["search-ab", "--config", CFG123, "--height", "2", "--workers"],
                 ["trivial-points", "--r", "1", "--s", "2", "--n"],
                 ["trivial-points", "--s", "2", "--n", "2", "--r"],
                 ["trivial-points", "--r", "1", "--n", "2", "--s"],
                 lift_head + ["--scale"]):
        out += [head + [text] for text in BAD_TEXT]
        if head[-1] not in ("--p0", "--p1", "--scale"):
            integer_argvs += [head + [text] for text in INTEGER_TEXT]
    out += integer_argvs
    out += [[], ["nope"], ["validate"], ["push", "--input"],
            ["fiber-genus", "--s", "2", "--n", "3", "--extra"]]
    return out


def key(argv: list[str]) -> str:
    return json.dumps(argv, ensure_ascii=False)


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


def _digest(text: str) -> str:
    for pattern, fixed in _TIMINGS:
        text = pattern.sub(fixed, text)
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def record(argv: list[str], workdir: Path) -> dict:
    """Run ``argv`` through ``cli.main`` and return its record.  An OUT
    placeholder becomes a fresh file under ``workdir``."""
    from fibercurve import cli

    out_path = workdir / f"out{len(list(workdir.iterdir()))}.json"
    run_argv = [str(out_path) if arg == OUT else arg for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    parser_errors = []
    error = cli._Parser.error

    def noted_error(self, message):
        parser_errors.append(message)
        error(self, message)

    cli._Parser.error = noted_error
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(run_argv)
    finally:
        cli._Parser.error = error
    out_text = out_path.read_text(encoding="utf-8") if out_path.exists() else None
    return {
        "exit": code,
        "stdout": _digest(stdout.getvalue().replace(str(out_path), OUT)),
        "stderr": _digest(stderr.getvalue().replace(str(out_path), OUT)),
        "out": None if out_text is None else _digest(out_text),
        "argparse": bool(parser_errors),
    }


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def same_record(want: dict, got: dict, golden: dict) -> bool:
    """Whether ``got`` matches the golden ``want``; on another Python minor
    version than the file's, an argparse-worded stderr is not compared."""
    if want["argparse"] and golden["python"] != python_version():
        want = {**want, "stderr": got["stderr"]}
    return got == want


def diff(workdir: Path) -> list[str]:
    """One line per argv whose record is missing from the golden file or
    differs from it, in corpus order, then one per golden record that the
    corpus no longer makes, in file order."""
    golden = load_golden()
    lines = []
    keys = set()
    for argv in argvs():
        keys.add(key(argv))
        want = golden["cases"].get(key(argv))
        if want is None:
            lines.append(f"missing: {key(argv)}")
        elif not same_record(want, record(argv, workdir), golden):
            lines.append(f"differs: {key(argv)}")
    return lines + [f"stale: {k}" for k in golden["cases"] if k not in keys]


def write(workdir: Path) -> int:
    cases = {}
    for argv in argvs():
        cases.setdefault(key(argv), record(argv, workdir))
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {"python": python_version(), "seed": SEED, "cases": cases}
    GOLDEN.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    return len(cases)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] not in (["--write"], ["--diff"]):
        sys.exit("usage: python tests/cli_corpus.py --write | --diff")
    with tempfile.TemporaryDirectory() as tmp:
        if sys.argv[1] == "--write":
            print(f"wrote {write(Path(tmp))} records to {GOLDEN}")
        else:
            changed = diff(Path(tmp))
            print("\n".join(changed or ["no argv differs"]))
            sys.exit(1 if changed else 0)
