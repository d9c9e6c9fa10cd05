"""Fuzzing the CLI's exit-code contract: every run exits 0, 1 or 2, and a
failure is one JSON object on stderr whose "error" names its exit code."""

import contextlib
import io
import json
import re

import pytest

from fibercurve.cli import EXIT_MATH, EXIT_OK, EXIT_USAGE, main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def mostly(good, bad):
    """Draw from ``bad`` now and then, so that most runs get past the
    argument checks.  ``bad`` takes the top of the range because hypothesis
    favours small integers."""
    return st.integers(0, 99).flatmap(lambda k: bad if k >= 90 else good)


SMALL = st.integers(-2, 6)
BAD_TEXT = st.sampled_from(["1/0", "abc", "", "--1", "1_0", "\u0663", "+3"])
SCALARS = mostly(st.integers(2, 5).map(str), SMALL.map(str) | BAD_TEXT)
RATIONALS = mostly(st.sampled_from(["1", "-1", "2", "3", "1/2", "-5/3", "4"]),
                   st.just("0") | BAD_TEXT)
WRONG_TYPES = st.one_of(st.none(), st.booleans(), SMALL, st.just(1.5),
                        st.lists(SMALL, max_size=3), st.just({"x": "1"}))


def fields(**good):
    """JSON objects with these keys, each holding a well-typed value, a value
    of the wrong type, or missing."""
    return mostly(
        st.fixed_dictionaries({k: mostly(v, WRONG_TYPES) for k, v in good.items()}),
        st.fixed_dictionaries({}, optional=good),
    )


R = mostly(st.integers(1, 3), SMALL)
S = mostly(st.integers(2, 3), SMALL)
CONFIGS = fields(r=R, s=S,
                 alphas=st.lists(RATIONALS, min_size=2, max_size=5, unique=True))
POINTS = fields(coords=st.lists(RATIONALS, min_size=2, max_size=5))
AFFINE = fields(x=RATIONALS, y=RATIONALS)
CURVES = fields(curve=fields(r=R, s=S, a=RATIONALS, b=RATIONALS),
                points=st.lists(AFFINE, max_size=4))


# nested past the recursion limit of the JSON decoder
DEEP = "[" * 100_000 + "]" * 100_000


def payloads(objects):
    return mostly(objects.map(json.dumps),
                  st.sampled_from(["[1]", "3", "abc", "{", DEEP]))


def flag(name, values):
    """[name, value], or now and then [] for a missing flag."""
    return mostly(values.map(lambda v: [name, v]), st.just([]))


def switch(name):
    return st.sampled_from([[], [name]])


SCALAR_PAIR = {"--s": SCALARS, "--n": SCALARS}
VERBS = {
    "validate": {"--config": payloads(CONFIGS)},
    "fiber-build": {"--config": payloads(CONFIGS),
                    "--format": st.sampled_from(["json", "display", "x"]),
                    "--style": st.sampled_from(["shared", "monic", "x"])},
    "fiber-verify": {"--config": payloads(CONFIGS), "--point": payloads(POINTS)},
    "fiber-genus": SCALAR_PAIR,
    "gonality-bound": SCALAR_PAIR,
    "classify": SCALAR_PAIR,
    "family-genus": {"--r": SCALARS, "--s": SCALARS},
    "solve-ab": {"--r": SCALARS, "--s": SCALARS,
                 "--p0": st.tuples(RATIONALS, RATIONALS).map(",".join)
                 | AFFINE.map(json.dumps),
                 "--p1": st.tuples(RATIONALS, RATIONALS).map(",".join)},
    "push": {"--input": payloads(CURVES)},
    "lift": {"--config": payloads(CONFIGS), "--point": payloads(POINTS),
             "--scale": RATIONALS},
    "conic-enumerate": {"--config": payloads(CONFIGS),
                        "--count": mostly(st.integers(0, 20).map(str), BAD_TEXT),
                        "--height": mostly(st.integers(1, 6).map(str), BAD_TEXT)},
    "search-ab": {"--config": payloads(CONFIGS),
                  "--height": mostly(st.integers(1, 6).map(str), BAD_TEXT),
                  "--workers": mostly(st.just("1"),
                                      st.sampled_from(["0", "-1"]) | BAD_TEXT)},
    "trivial-points": {"--r": SCALARS, "--s": SCALARS, "--n": SCALARS},
}


INT_FLAGS = ("--r", "--s", "--n", "--count", "--height", "--workers")


def as_int(text):
    """The value an integer flag reads, else None: what ``parse_rational``
    reads without a "/", so "1_0", "+3" and "\u0663" are rejected."""
    match = re.fullmatch(r"\s*([-\u2212]?)([0-9]+)\s*", text)
    if match is None:
        return None
    return -int(match[2]) if match[1] else int(match[2])


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(sorted(VERBS) + ["fixtures"]))
    if verb == "fixtures":
        name = draw(st.sampled_from(["watkins14", "rogers7", "nope"]))
        return [verb, name, *draw(switch("--verify"))]
    argv = [verb]
    for name, values in VERBS[verb].items():
        argv += draw(flag(name, values))
    if verb in ("search-ab", "conic-enumerate"):
        argv += draw(switch("--stats"))
    if verb == "trivial-points":
        argv += draw(switch("--full"))
        r, s, n = (as_int(argv[argv.index(k) + 1]) if k in argv else None
                   for k in ("--r", "--s", "--n"))
        if None not in (r, s, n) and n >= 0:
            hypothesis.assume(abs(r * s) ** (n + 1) <= 10**3)
    return argv


VERIFICATION_KEYS = {"validate": "valid", "fiber-verify": "on_fiber"}


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(argv=argvs())
def test_fuzzed_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (EXIT_OK, EXIT_MATH, EXIT_USAGE)
    assert "Traceback" not in err
    if any(as_int(value) is None
           for flag, value in zip(argv, argv[1:]) if flag in INT_FLAGS):
        assert code == EXIT_USAGE
    if code == EXIT_OK:
        return
    if code == EXIT_MATH and argv[0] in VERIFICATION_KEYS and err == "":
        # a verification verb reports its failed check on stdout
        report = json.loads(out)
        assert report[VERIFICATION_KEYS[argv[0]]] is False
        return
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == {EXIT_MATH: "math", EXIT_USAGE: "usage"}[code]
