import contextlib
import importlib
import io
import json
import os
import pkgutil
import random
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import fibercurve
from fibercurve import cli, config, fiber, jsonio
from fibercurve.birat import CurveWithPoints, from_fiber_point
from fibercurve.cli import (
    EXIT_MATH,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from fibercurve.config import validate
from fibercurve.family import AffinePoint, FamilyCurve
from fibercurve.fiber import (
    ProjPoint,
    build_fiber,
    fiber_genus,
    gonality_lower_bound,
)
from fibercurve.search import search_ab


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def no_digit_limit():
    """CPython's 4300-digit limit on int/str conversion lifted for a test's
    own conversions; ``main`` lifts it for its verb only."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


CFG123 = '{"r":2,"s":2,"alphas":["1","2","3"]}'
# one argv per flag that takes JSON, the flag's value left as None
JSON_FLAGS = ["--config", "--point", "--input", "--p0", "--p1"]
JSON_FLAG_ARGVS = [
    ("validate", "--config", None),
    ("fiber-verify", "--config", CFG123, "--point", None),
    ("push", "--input", None),
    ("solve-ab", "--r", "1", "--s", "2", "--p0", None, "--p1", "2,3"),
    ("solve-ab", "--r", "1", "--s", "2", "--p0", "1,2", "--p1", None),
]
# non-integer config whose conic is 168 Y_0^2 - 13 Y_1^2 + 27 Y_2^2 = 0
CFG_FRAC = '{"r":1,"s":2,"alphas":["1/2","3","-5/3"]}'
SRC = str(Path(__file__).resolve().parent.parent / "src")
# nested past the recursion limit of the JSON decoder
DEEP = "[" * 100_000 + "]" * 100_000

# y^2 = x(x^2 + 3) through x = 1, 3, 12
CWP13 = CurveWithPoints(
    curve=FamilyCurve(2, 2, F(1), F(3)),
    points=(
        AffinePoint(F(1), F(2)),
        AffinePoint(F(3), F(6)),
        AffinePoint(F(12), F(42)),
    ),
)


class TestScalarVerbs:
    def test_fiber_genus(self, capsys):
        code, out, _ = run(capsys, "fiber-genus", "--s", "2", "--n", "13")
        assert code == EXIT_OK
        assert out.strip() == "20481"

    def test_gonality_bound(self, capsys):
        code, out, _ = run(capsys, "gonality-bound", "--s", "2", "--n", "13")
        assert code == EXIT_OK and out.strip() == "2048"

    def test_family_genus(self, capsys):
        code, out, _ = run(capsys, "family-genus", "--r", "2", "--s", "2")
        assert code == EXIT_OK and out.strip() == "1"

    @pytest.mark.parametrize("verb, s, n, formula", [
        ("fiber-genus", 2, 14400,
         lambda s, n: 1 + s ** (n - 1) * ((n - 1) * s - n - 1) // 2),
        ("gonality-bound", 3, 9100, lambda s, n: (s - 1) * s ** (n - 2)),
    ])
    def test_answers_past_the_int_digit_limit(self, capsys, verb, s, n, formula):
        # more than the 4300 digits CPython converts to text by default
        code, out, _ = run(capsys, verb, "--s", str(s), "--n", str(n))
        assert code == EXIT_OK
        assert len(out.strip()) > 4300
        with no_digit_limit():
            assert out.strip() == str(formula(s, n))

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int digit limit before Python 3.10.7")
    def test_main_restores_the_int_digit_limit(self):
        # main lifts the limit for its verb only: after a verb that exits
        # 0, 1 or 2 the limit is back, and a later verb still reads an
        # alpha of 5000 digits
        long_alpha = json.dumps({"r": 2, "s": 2, "alphas": ["1", "2", "3" * 5000]})
        script = f"""
import contextlib, io, sys
from fibercurve.cli import main
before = sys.get_int_max_str_digits()
for argv in (["classify", "--s", "2", "--n", "2"],
             ["validate", "--config", '{{"r":2,"s":2,"alphas":["1","-1"]}}'],
             ["classify", "--s", "2"],
             ["validate", "--config", {long_alpha!r}]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    try:
        int("1" * 5000)
        refused = False
    except ValueError:
        refused = True
    print(code, sys.get_int_max_str_digits() == before, refused)
"""
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONINTMAXSTRDIGITS"}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=60, env={**env, "PYTHONPATH": SRC},
        )
        assert proc.stderr == ""
        assert proc.stdout.split("\n") == [
            "0 True True", "1 True True", "2 True True", "0 True True", ""]

    def test_long_answers_print_as_str_does(self, capsys):
        # seeded (s, n) from under the 8192 bits where the decimal path
        # starts to about 60000 bits, where str() is still cheap
        rng = random.Random(9)
        for _ in range(12):
            s = rng.randint(2, 12)
            n = rng.randint(2, 60000 // s.bit_length())
            for verb, formula in (("fiber-genus", fiber_genus),
                                  ("gonality-bound", gonality_lower_bound)):
                code, out, _ = run(capsys, verb, "--s", str(s), "--n", str(n))
                assert code == EXIT_OK
                with no_digit_limit():
                    assert out == f"{formula(s, n)}\n"

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", "--s", "3", "--n", "2")
        assert code == EXIT_OK
        assert json.loads(out) == {"regime": "genus-one", "n0": 3}


class TestValidateVerb:
    def test_valid(self, capsys):
        code, out, _ = run(capsys, "validate", "--config", CFG123)
        assert code == EXIT_OK
        assert json.loads(out)["valid"] is True

    def test_duplicate_reported(self, capsys):
        cfg = '{"r":2,"s":2,"alphas":["1","-1"]}'
        code, out, _ = run(capsys, "validate", "--config", cfg)
        assert code == EXIT_MATH
        payload = json.loads(out)
        assert payload["valid"] is False
        assert any("alpha[0]^2 == alpha[1]^2" in v for v in payload["violations"])

    def test_malformed_is_usage_error(self, capsys):
        code, _, err = run(capsys, "validate", "--config", '{"nope": 1}')
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "usage"

    def test_unreadable_path(self, capsys):
        code, _, err = run(capsys, "validate", "--config", "/nonexistent.json")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("verb, flag, payload", [
        ("validate", "--config", CFG123),
        ("validate", "--config", '{"r":2,"s":2,"alphas":["1","-1"]}'),
        ("push", "--input", json.dumps(jsonio.cwp_to_obj(CWP13))),
    ])
    def test_stdin_reads_as_the_literal(self, capsys, monkeypatch, verb, flag,
                                        payload):
        literal = run(capsys, verb, flag, payload)
        monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
        assert run(capsys, verb, flag, "-") == literal

    @pytest.mark.parametrize("verb", ["validate", "fiber-build"])
    def test_zero_denominator_is_usage_error(self, capsys, verb):
        cfg = '{"r":2,"s":2,"alphas":["1/0","2","3"]}'
        code, out, err = run(capsys, verb, "--config", cfg)
        assert code == EXIT_USAGE
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert "'1/0'" in payload["message"]

    @pytest.mark.parametrize(
        "payload",
        [
            "[1]",
            "3",
            '"x"',
            '{"r":2,"s":2,"alphas":[1,2,3]}',
            '{"r":2,"s":2,"alphas":null}',
            '{"r":2,"s":2,"alphas":"123"}',
            '{"r":2.5,"s":2,"alphas":["1","2","3"]}',
            '{"r":true,"s":2,"alphas":["1","2","3"]}',
        ],
    )
    @pytest.mark.parametrize("verb", ["validate", "fiber-build", "search-ab"])
    def test_non_object_config_is_usage_error(self, capsys, tmp_path, verb, payload):
        path = tmp_path / "config.json"
        path.write_text(payload)
        extra = ["--height", "2"] if verb == "search-ab" else []
        for source in (str(path), payload):
            code, out, err = run(capsys, verb, "--config", source, *extra)
            assert code == EXIT_USAGE and out == ""
            assert json.loads(err)["error"] == "usage"


    @pytest.mark.parametrize("literal", [False, True])
    def test_deeply_nested_config_is_usage_error(self, capsys, tmp_path, literal):
        path = tmp_path / "deep.json"
        path.write_text(DEEP)
        source = DEEP if literal else str(path)
        code, out, err = run(capsys, "validate", "--config", source)
        assert code == EXIT_USAGE and out == ""
        payload = json.loads(err)
        assert payload["error"] == "usage"
        shown = (f"{DEEP[:40]!r}… ({len(DEEP)} characters)" if literal
                 else repr(source))
        assert payload["message"] == f"input {shown} is nested too deeply"

    @pytest.mark.parametrize("argv", JSON_FLAG_ARGVS, ids=JSON_FLAGS)
    def test_malformed_json_literal_names_its_input(self, capsys, argv):
        literal = '{"x":"1",}'
        code, out, err = run(capsys, *(literal if a is None else a for a in argv))
        assert code == EXIT_USAGE and out == ""
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert payload["message"].startswith(f"cannot read input {literal!r}: ")

    @pytest.mark.parametrize("literal", ["[1,2]", " []"])
    @pytest.mark.parametrize("argv", JSON_FLAG_ARGVS, ids=JSON_FLAGS)
    def test_json_list_literal_is_not_an_object(self, capsys, argv, literal):
        # every JSON flag reads a list as JSON, and a point is never split
        # into "x,y" fragments of one
        code, out, err = run(capsys, *(literal if a is None else a for a in argv))
        assert code == EXIT_USAGE and out == ""
        assert json.loads(err) == {
            "error": "usage", "message": f"input {literal!r} is not a JSON object"}

    def test_long_literal_is_shortened_in_the_message(self, capsys):
        literal = '{"r": 2, "alphas": [' + '"1", ' * 40_000 + "]"
        assert len(literal) > 200_000
        code, out, err = run(capsys, "validate", "--config", literal)
        assert code == EXIT_USAGE and out == ""
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert len(payload["message"]) < 200
        assert payload["message"].startswith(f"cannot read input {literal[:40]!r}…")

    @pytest.mark.parametrize("argv", [
        ("validate", "--config",
         json.dumps({"r": list(range(30_000)), "s": 2, "alphas": ["1", "2"]})),
        ("validate", "--config",
         json.dumps({"r": 2, "s": 2, "alphas": ["1", "2" * 100_000 + "x"]})),
        ("validate", "--config",
         json.dumps({"r": 2, "s": 2, "alphas": ["1", "2" * 100_000 + "/0"]})),
        ("solve-ab", "--r", "2", "--s", "2", "--p0", "1" * 100_000 + "x,2",
         "--p1", "2,6"),
        ("fiber-genus", "--s", "2" * 100_000 + "_0", "--n", "3"),
    ], ids=["list r", "alpha", "zero denominator", "--p0", "--s"])
    def test_long_values_are_shortened_in_the_message(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert len(payload["message"]) < 200
        assert "characters)" in payload["message"]

    @pytest.mark.parametrize("argv", [
        ("fixtures", "x" * 5000),
        ("fixtures", "rogers7", "x" * 5000),
    ], ids=["invalid choice", "unrecognized argument"])
    def test_argparse_messages_are_shortened(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        message = json.loads(err)["message"]
        assert len(message) < 200
        assert message.endswith(" characters)")

    def test_short_argparse_message_is_whole(self, capsys):
        code, _, err = run(capsys, "no-such-verb")
        assert code == EXIT_USAGE
        assert json.loads(err)["message"].endswith("'fixtures')")

    def test_non_utf8_file_names_the_path(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"r": 2, "s": 2, "alphas": ["1", "\xff"]}')
        code, out, err = run(capsys, "validate", "--config", str(path))
        assert code == EXIT_USAGE and out == ""
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert payload["message"].startswith(f"cannot read input {str(path)!r}: ")
        assert "utf-8" in payload["message"]

    def test_malformed_rationals_are_usage_errors(self, capsys):
        cfg = '{"r":2,"s":2,"alphas":["--1","1_0","\u0663"]}'
        code, out, err = run(capsys, "validate", "--config", cfg)
        assert code == EXIT_USAGE and out == ""
        payload = json.loads(err)
        assert payload["error"] == "usage" and "'--1'" in payload["message"]


class TestFlagRanges:
    @pytest.mark.parametrize(
        "argv",
        [
            ("trivial-points", "--r", "0", "--s", "2", "--n", "2"),
            ("trivial-points", "--r", "2", "--s", "1", "--n", "2"),
            ("fiber-genus", "--s", "1", "--n", "3"),
            ("fiber-genus", "--s", "2", "--n", "1"),
            ("gonality-bound", "--s", "1", "--n", "3"),
            ("gonality-bound", "--s", "2", "--n", "1"),
            ("classify", "--s", "1", "--n", "2"),
            ("classify", "--s", "2", "--n", "1"),
            ("family-genus", "--r", "2", "--s", "1"),
            ("solve-ab", "--r", "0", "--s", "2", "--p0", "1,2", "--p1", "2,6"),
            ("search-ab", "--config", CFG123, "--height", "0"),
            ("search-ab", "--config", CFG123, "--height", "2", "--workers", "0"),
            ("search-ab", "--config", CFG123, "--height", "2", "--workers", "-1"),
            ("fiber-verify", "--config", CFG123, "--point", '{"coords":[0,1,2]}'),
            ("fiber-verify", "--config", CFG123, "--point", '{"coords":"012"}'),
            ("fiber-verify", "--config", CFG123, "--point", '{"coords":["0","0","0"]}'),
            ("fiber-verify", "--config", CFG123, "--point", '{"coords":["a","1","2"]}'),
            ("lift", "--config", CFG123, "--point", '{"coords":["0","1","2"]}',
             "--scale", "abc"),
            ("lift", "--config", CFG123, "--point", '{"coords":["0","1","2"]}',
             "--scale", ""),
            ("fiber-build", "--config", '{"r":2,"s":2,"alphas":["1","2"]}'),
            ("push", "--input", json.dumps({
                "curve": {"r": 2, "s": 2, "a": 1, "b": 3},
                "points": [{"x": "1", "y": "2"}, {"x": "3", "y": "6"},
                           {"x": "12", "y": "42"}],
            })),
            ("solve-ab", "--r", "2", "--s", "2", "--p0", '{"x":1,"y":2}',
             "--p1", "2,6"),
            ("push", "--input", json.dumps({
                "curve": {"r": 2, "s": 2, "a": "1", "b": "3"}, "points": {},
            })),
            ("push", "--input", json.dumps({
                "curve": {"r": 2, "s": 2, "a": "1", "b": "3"},
                "points": {"x": "1", "y": "2"},
            })),
            ("push", "--input", json.dumps({
                "curve": {"r": 2, "s": 2, "a": "1", "b": "3"}, "points": [1, 2],
            })),
            ("push", "--input", json.dumps({
                "curve": [], "points": [{"x": "1", "y": "2"}, {"x": "3", "y": "6"}],
            })),
            pytest.param(("solve-ab", "--r", "2", "--s", "2", "--p0",
                          '{"x": %s}' % DEEP, "--p1", "2,6"),
                         id="solve-ab --p0 {deeply nested}"),
            ("lift", "--config", CFG123, "--point", '{"coords":["0","1","2"]}',
             "--scale", "1/-2"),
            ("fiber-genus", "--s", "abc", "--n", "3"),
        ],
        ids=lambda argv: " ".join(a for a in argv if a != CFG123),
    )
    def test_out_of_range_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("argv", [
        ("fiber-genus", "--s", "2", "--n", "3"),
        ("gonality-bound", "--s", "2", "--n", "3"),
        ("family-genus", "--r", "2", "--s", "2"),
        ("classify", "--s", "2", "--n", "3"),
        ("solve-ab", "--r", "2", "--s", "2", "--p0", "1,2", "--p1", "2,6"),
        ("conic-enumerate", "--config", CFG123, "--count", "1", "--height", "4"),
        ("search-ab", "--config", CFG123, "--height", "2", "--workers", "1"),
        ("trivial-points", "--r", "1", "--s", "2", "--n", "2"),
    ], ids=lambda argv: argv[0])
    def test_integer_flags_read_only_signed_ascii_digits(self, capsys, argv):
        # what parse_rational reads without a "/"; int() would also take
        # "1_0" as 10, "\u0663" (Arabic-Indic 3) as 3 and "+3" as 3
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        padded = [f" 0{v} " if v.isdigit() else v for v in argv]
        code, padded_out, _ = run(capsys, *padded)

        def masked(text):  # search-ab's wall-clock elapsed_ms may differ
            return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)

        assert (code, masked(padded_out)) == (EXIT_OK, masked(out))
        flags = [k for k, v in enumerate(argv) if v.isdigit()]
        assert len(flags) >= 2
        for k in flags:
            for bad in ("1_0", "\u0663", "+3", "3/1", "3.0"):
                bad_argv = argv[:k] + (bad,) + argv[k + 1:]
                code, out, err = run(capsys, *bad_argv)
                assert code == EXIT_USAGE and out == ""
                payload = json.loads(err)
                assert payload["error"] == "usage"
                assert payload["message"] == (
                    f"argument {argv[k - 1]}: invalid int value: {bad!r}"
                )

    def test_workers_default_is_one(self, capsys, monkeypatch):
        monkeypatch.setenv("FIBERCURVE_WORKERS", "2")  # ignored
        code, out, _ = run(capsys, "search-ab", "--config", CFG123, "--height", "2")
        assert code == EXIT_OK and json.loads(out)["workers"] == 1


class TestFiberVerbs:
    def test_build_json(self, capsys):
        code, out, _ = run(capsys, "fiber-build", "--config", CFG123)
        assert code == EXIT_OK
        obj = json.loads(out)
        system = build_fiber(validate(2, 2, [F(1), F(2), F(3)]))
        assert obj == jsonio.fiber_system_to_obj(system)
        eq = obj["equations"][0]
        assert (eq["A"], eq["B"], eq["C"]) == ("5", "-4", "1")

    def test_build_display_styles(self, capsys):
        code, out, _ = run(
            capsys, "fiber-build", "--config", CFG123, "--format", "display"
        )
        assert code == EXIT_OK
        assert out.strip() == "(6) Y_2^2 = (30) Y_0^2 + (-24) Y_1^2"
        code, out, _ = run(
            capsys,
            "fiber-build",
            "--config",
            CFG123,
            "--format",
            "display",
            "--style",
            "monic",
        )
        assert out.strip() == "Y_2^2 = (-5) Y_0^2 + (4) Y_1^2"

    def test_library_writes_past_the_int_digit_limit(self, capsys):
        # only cli.main lifts CPython's 4300-digit limit; at r = 20000 the
        # coefficients run to 20,000 digits, so a library caller that never
        # runs it writes them through arith.int_text
        config = ('{"r":20000,"s":3,"alphas":["1","2","-3/5","7/2","-11/3",'
                  '"13/4","5","-17/6","19/7","23/9","-29/8","31/10"]}')
        script = (
            "import json, sys; from fibercurve import fiber, jsonio; "
            f"cfg = jsonio.config_from_obj(json.loads({config!r})); "
            "obj = jsonio.fiber_system_to_obj(fiber.build_fiber(cfg)); "
            "print(getattr(sys, 'get_int_max_str_digits', lambda: 4300)(), "
            "file=sys.stderr); "
            "print(json.dumps(obj, indent=2))"
        )
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONINTMAXSTRDIGITS"}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60,
            env={**env, "PYTHONPATH": SRC},
        )
        assert (proc.returncode, proc.stderr) == (0, "4300\n")
        code, out, _ = run(capsys, "fiber-build", "--config", config)
        assert code == EXIT_OK and proc.stdout == out
        assert max(len(eq["A"]) for eq in json.loads(out)["equations"]) > 4300

    def test_display_refuses_an_unknown_style(self):
        # argparse's choices stop an unknown --style before it gets here
        system = build_fiber(validate(2, 2, [F(1), F(2), F(3)]))
        with pytest.raises(ValueError, match="^unknown style 'x'$"):
            jsonio.format_system_display(system, "x")

    def test_verify_pass_and_fail(self, capsys):
        point = '{"coords":["0","1","2"]}'
        code, out, _ = run(
            capsys, "fiber-verify", "--config", CFG123, "--point", point
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["on_fiber"] and payload["smooth"]
        bad = '{"coords":["1","1","1"]}'
        code, out, _ = run(
            capsys, "fiber-verify", "--config", CFG123, "--point", bad
        )
        assert code == EXIT_MATH
        assert json.loads(out)["on_fiber"] is False


class TestExactDivision:
    """The fiber runs on ints; each quotient of two of them is a Fraction,
    so every printed number is an exact "p" or "p/q"."""

    @staticmethod
    def exact(text):
        return not re.search(r"\d\.|\.\d", text)

    def test_monic_display(self, capsys):
        code, out, _ = run(capsys, "fiber-build", "--config", CFG_FRAC,
                           "--format", "display", "--style", "monic")
        assert code == EXIT_OK and self.exact(out)
        assert out.strip() == "Y_2^2 = (-56/9) Y_0^2 + (13/27) Y_1^2"

    def test_lift_default_scale(self, capsys):
        code, out, _ = run(capsys, "lift", "--config", CFG_FRAC,
                           "--point", '{"coords":["21","-90","34"]}')
        assert code == EXIT_OK and self.exact(out)
        assert json.loads(out) == {
            "curve": {"r": 1, "s": 2, "a": "404/245", "b": "288/245"},
            "points": [{"x": "1/2", "y": "1"}, {"x": "3", "y": "-30/7"},
                       {"x": "-5/3", "y": "34/21"}],
        }

    def test_conic_enumerate_with_c_not_one(self, capsys):
        code, out, _ = run(capsys, "fiber-build", "--config", CFG_FRAC)
        assert code == EXIT_OK
        assert json.loads(out)["equations"][0]["C"] == "27"
        code, out, _ = run(capsys, "conic-enumerate", "--config", CFG_FRAC,
                           "--count", "3", "--height", "30")
        assert code == EXIT_OK and self.exact(out)
        assert [(c["curve"]["a"], c["curve"]["b"],
                 [p["y"] for p in c["points"]])
                for c in map(json.loads, out.splitlines())] == [
            ("3636/5", "2592/5", ["21", "-90", "34"]),
            ("5364/5", "-2592/5", ["3", "-90", "-62"]),
            ("55476/5", "28512/5", ["75", "342", "-146"]),
        ]


class TestCorrespondenceVerbs:
    def test_solve_ab(self, capsys):
        code, out, _ = run(
            capsys,
            "solve-ab",
            "--r", "2", "--s", "2",
            "--p0", "1,2",
            "--p1", "2,6",
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"a": "14/3", "b": "-2/3"}

    def test_solve_ab_singular(self, capsys):
        code, _, err = run(
            capsys,
            "solve-ab",
            "--r", "2", "--s", "2",
            "--p0", "1,2",
            "--p1=-1,2",
        )
        assert code == EXIT_MATH

    @pytest.mark.parametrize("argv", [
        ("lift", "--config", '{"r":2,"s":2,"alphas":["1","3","12"]}',
         "--point", '{"coords":["1","3","21"]}', "--scale", "-1/2"),
        ("solve-ab", "--r", "2", "--s", "2", "--p0", "-1/2,3", "--p1", "1,2"),
        ("solve-ab", "--r", "1", "--s", "2", "--p0", "1,2", "--p1", "-1,-3/2"),
    ], ids=["--scale", "--p0", "--p1"])
    def test_negative_rational_is_a_value(self, capsys, argv):
        # argparse by itself reads only "-digits" as a value, and stops at
        # "-1/2" with "expected one argument"
        joined = (*argv[:-2], f"{argv[-2]}={argv[-1]}")
        spaced = run(capsys, *argv)
        assert spaced[0] == EXIT_OK
        assert spaced == run(capsys, *joined)

    def test_unknown_option_is_still_an_option(self, capsys):
        code, _, err = run(capsys, "solve-ab", "--r", "2", "--s", "2",
                           "--p0", "-x", "--p1", "1,2")
        assert code == EXIT_USAGE
        assert json.loads(err)["message"] == "argument --p0: expected one argument"

    def test_push_lift_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "push", "--input", json.dumps(jsonio.cwp_to_obj(CWP13))
        )
        assert code == EXIT_OK
        point_obj = json.loads(out)
        assert point_obj == {"coords": ["1", "3", "21"]}
        cfg = '{"r":2,"s":2,"alphas":["1","3","12"]}'
        code, out, _ = run(
            capsys,
            "lift",
            "--config", cfg,
            "--point", json.dumps(point_obj),
            "--scale", "2",
        )
        assert code == EXIT_OK
        lifted = jsonio.cwp_from_obj(json.loads(out))
        assert (lifted.curve.a, lifted.curve.b) == (F(1), F(3))

    def test_push_validates_once(self, capsys, monkeypatch):
        calls = []
        real_validate = config.validate

        def counting_validate(*args, **kwargs):
            calls.append(args)
            return real_validate(*args, **kwargs)

        monkeypatch.setattr(config, "validate", counting_validate)
        code, _, _ = run(
            capsys, "push", "--input", json.dumps(jsonio.cwp_to_obj(CWP13))
        )
        assert code == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("curve, x0, message", [
        ({"r": 2, "s": -1}, "1",
         '{"valid": false, "violations": ["s must be >= 2, got -1"]}'),
        ({"r": -2, "s": 2}, "0",
         '{"valid": false, "violations": ["r must be >= 1, got -2", '
         '"alpha[0] is zero"]}'),
    ], ids=["s=-1", "r=-2"])
    def test_push_out_of_range_curve_is_math_failure(self, capsys, curve, x0,
                                                     message):
        cwp = {"curve": {**curve, "a": "1", "b": "1"},
               "points": [{"x": x0, "y": "0"}, {"x": "2", "y": "3"}]}
        code, out, err = run(capsys, "push", "--input", json.dumps(cwp))
        assert code == EXIT_MATH and out == ""
        assert json.loads(err) == {"error": "math", "message": message}

    @pytest.mark.parametrize("r, s, xs", [
        (2, 2, ["1", "1", "3"]),
        (2, 2, ["1", "-1", "3"]),
        (-2, 2, ["0", "2"]),
        (1, 1, ["1", "2", "3"]),
    ], ids=["repeated x", "equal squares", "r=-2", "s=1"])
    def test_push_inadmissible_curve_fails_as_lift_does(self, capsys, r, s, xs):
        cwp = {"curve": {"r": r, "s": s, "a": "1", "b": "1"},
               "points": [{"x": x, "y": "1"} for x in xs]}
        cfg = json.dumps({"r": r, "s": s, "alphas": xs})
        point = json.dumps({"coords": ["1"] * len(xs)})
        code, out, err = run(capsys, "push", "--input", json.dumps(cwp))
        assert code == EXIT_MATH and out == ""
        assert (code, out, err) == run(capsys, "lift", "--config", cfg,
                                       "--point", point)

    def test_push_on_two_points_fails_as_fiber_build_does(self, capsys):
        cwp = {"curve": {"r": 2, "s": 2, "a": "1", "b": "3"},
               "points": [{"x": "1", "y": "2"}, {"x": "3", "y": "6"}]}
        cfg = '{"r":2,"s":2,"alphas":["1","3"]}'
        code, out, err = run(capsys, "push", "--input", json.dumps(cwp))
        assert (code, out) == (EXIT_USAGE, "")
        assert json.loads(err) == {"error": "usage",
                                   "message": "fiber systems need n >= 2"}
        assert (code, out, err) == run(capsys, "fiber-build", "--config", cfg)

    @pytest.mark.parametrize("coords", [["1", "2"], ["1", "2", "3", "4"]])
    def test_wrong_length_point_has_one_message(self, capsys, coords):
        point = json.dumps({"coords": coords})
        code, out, err = run(capsys, "lift", "--config", CFG123,
                             "--point", point)
        assert (code, out) == (EXIT_USAGE, "")
        assert json.loads(err)["message"] == (
            "point length does not match configuration")
        assert (code, out, err) == run(capsys, "fiber-verify", "--config",
                                       CFG123, "--point", point)

    def test_lift_obstruction(self, capsys):
        cfg = '{"r":2,"s":2,"alphas":["1","4","9"]}'
        point = '{"coords":["1","2","3"]}'
        code, _, err = run(capsys, "lift", "--config", cfg, "--point", point,
                           "--scale", "1")
        assert code == EXIT_MATH
        assert "degenerate" in err

    @pytest.mark.parametrize("r, alphas, coords", [
        (2, [1, 2, 3], [1, 1, 1]),  # off the fiber, at index 1
        (2, [1, 2, 3], [0, 1, 2]),  # Y_0 = 0 and no scale
        (1, [1, 4, 9], [1, 2, 3]),  # (a, b) = (0, 1)
    ], ids=["off-fiber", "y0-zero", "degenerate"])
    def test_lift_obstruction_message_is_the_library_message(
            self, capsys, r, alphas, coords):
        system = build_fiber(validate(r, 2, [F(x) for x in alphas]))
        with pytest.raises(config.MathError) as info:
            from_fiber_point(system, ProjPoint(coords))
        cfg = json.dumps({"r": r, "s": 2, "alphas": [str(x) for x in alphas]})
        point = json.dumps({"coords": [str(y) for y in coords]})
        code, out, err = run(capsys, "lift", "--config", cfg, "--point", point)
        assert (code, out) == (EXIT_MATH, "")
        assert json.loads(err) == {"error": "math", "message": str(info.value)}


class TestRepeatedCalls:
    """``main`` reuses one parser per process; a run of verbs in one
    process must print what each verb prints in a process of its own."""

    def fresh(self, *argv):
        env = {**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80"}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from fibercurve.cli import main; sys.exit(main())",
             *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def test_same_output_as_a_fresh_process(self, capsys):
        sequence = [
            ["fiber-genus", "--s", "abc", "--n", "2"],  # rejected flag
            ["fiber-verify", "--config", CFG123,
             "--point", '{"coords":["1","1","1"]}'],  # failing verb
            ["push", "--input", json.dumps(jsonio.cwp_to_obj(CWP13))],
            ["push"],  # missing flag
            ["lift", "--config", CFG123, "--point", '{"coords":["0","1","2"]}',
             "--scale", "1"],
        ]
        expected = [self.fresh(*argv) for argv in sequence]
        assert [code for code, _, _ in expected] == [
            EXIT_USAGE, EXIT_MATH, EXIT_OK, EXIT_USAGE, EXIT_OK
        ]
        for _ in range(2):
            assert [run(capsys, *argv) for argv in sequence] == expected
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv", [["--help"], ["lift", "--help"]])
    def test_help_still_exits_zero(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert (0, out, err) == self.fresh(*argv)
        code, out, _ = run(capsys, "fiber-genus", "--s", "2", "--n", "13")
        assert code == EXIT_OK and out.strip() == "20481"


class TestBatchVerbs:
    def test_conic_enumerate_lines(self, capsys):
        code, out, _ = run(
            capsys,
            "conic-enumerate",
            "--config", CFG123,
            "--count", "4",
            "--height", "20",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            jsonio.cwp_from_obj(json.loads(line))

    @pytest.mark.parametrize("config, count", [
        (CFG123, "0"), (CFG123, "40"), (CFG_FRAC, "7"),
        ('{"r":1,"s":2,"alphas":["1","2","5"]}', "5"),
    ])
    def test_conic_enumerate_stats_on_stderr(self, capsys, config, count):
        argv = ["conic-enumerate", "--config", config, "--count", count]
        code, plain, quiet = run(capsys, *argv)
        assert code == EXIT_OK and quiet == ""
        code, out, err = run(capsys, *argv, "--stats")
        assert code == EXIT_OK and out == plain
        assert err.count("\n") == 1
        stats = json.loads(err)
        assert list(stats) == ["directions", "duplicates", "degenerate",
                               "curves", "budget"]
        assert stats["curves"] == int(count) == out.count("\n")
        examined = stats["duplicates"] + stats["degenerate"] + stats["curves"]
        assert examined == (1 + stats["directions"] if int(count) else 0)
        assert stats["budget"] == 16 * (int(count) + 2) + 64

    def test_search_ab_report(self, capsys, tmp_path):
        cfg = '{"r":2,"s":2,"alphas":["1","3","12"]}'
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "search-ab",
            "--config", cfg,
            "--height", "3",
            "--workers", "1",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        written = json.loads(out_path.read_text())
        want = jsonio.search_report_to_obj(
            search_ab(validate(2, 2, [F(1), F(3), F(12)]), 3, 1)
        )
        written["elapsed_ms"] = want["elapsed_ms"] = 0
        assert written == want
        assert {"r": 2, "s": 2, "a": "1", "b": "3"} in [
            h["curve"] for h in written["hits"]
        ]
        assert "evidence" in written["note"]

    @pytest.mark.parametrize("name", ["nope/r.json", "."],
                             ids=["missing directory", "directory"])
    def test_search_ab_unwritable_out_is_usage_error(self, capsys, tmp_path,
                                                     name):
        out_path = tmp_path / name
        code, out, err = run(capsys, "search-ab", "--config", CFG123,
                             "--height", "2", "--out", str(out_path), "--stats")
        assert code == EXIT_USAGE and out == ""
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert payload["message"].startswith(
            f"cannot write --out {str(out_path)!r}: "
        )

    def test_search_ab_stats_on_stderr(self, capsys):
        argv = ["search-ab", "--config", '{"r":2,"s":2,"alphas":["1","3","12"]}',
                "--height", "4", "--workers", "2"]
        code, plain, quiet = run(capsys, *argv)
        assert code == EXIT_OK and quiet == ""
        code, out, err = run(capsys, *argv, "--stats")
        assert code == EXIT_OK

        def masked(text):
            obj = json.loads(text)
            obj["elapsed_ms"] = 0
            return json.dumps(obj, indent=2)

        assert masked(out) == masked(plain)
        assert plain.count("\n") == out.count("\n")
        stats = json.loads(err)
        report = json.loads(out)
        assert set(stats) == {"candidates", "sieve_survivors", "root_rejections",
                              "hits", "workers", "block_us"}
        assert stats["candidates"] == report["search_space_size"]
        assert stats["hits"] == len(report["hits"])
        assert stats["workers"] == 2 and len(stats["block_us"]) == 2

    def test_trivial_points(self, capsys):
        code, out, _ = run(
            capsys, "trivial-points", "--r", "2", "--s", "2", "--n", "2"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verified_count"] == 64
        assert payload["sampled"] is False

    def test_trivial_points_writes_a_huge_total_space(self, capsys,
                                                       monkeypatch):
        # with no tuple listed, the 120,413-digit total_space is all the
        # work, written in subquadratic time past CPython's digit limit
        monkeypatch.setattr(fiber, "TUPLE_CAP", 0)
        code, out, _ = run(
            capsys, "trivial-points", "--r", "1", "--s", "2", "--n", "400000"
        )
        assert code == EXIT_OK
        with no_digit_limit():
            payload = json.loads(out)
        assert payload["verified_count"] == 0
        assert payload["sampled"] is True
        assert payload["total_space"] == 2**400001

    def test_trivial_points_cap(self, capsys):
        code, _, err = run(
            capsys, "trivial-points", "--r", "31", "--s", "2", "--n", "2"
        )
        assert code == EXIT_MATH

    def test_fixtures_verify(self, capsys):
        code, out, _ = run(capsys, "fixtures", "watkins14", "--verify")
        assert code == EXIT_OK
        assert json.loads(out)["verified"] is True


class TestJsonRoundTrips:
    def test_all_exchanged_types(self):
        cfg = validate(2, 2, [F(1), F(2), F(3), F(5)])
        curve = FamilyCurve(2, 2, F(3, 7), F(-22, 5))
        cwp = CurveWithPoints(
            curve=FamilyCurve(2, 2, F(1), F(3)),
            points=(AffinePoint(F(1), F(2)), AffinePoint(F(3), F(6))),
        )
        point = ProjPoint([F(1, 2), F(-3), F(7, 3), F(0)])
        cases = [
            (curve, jsonio.curve_to_obj, jsonio.curve_from_obj),
            (cfg, jsonio.config_to_obj, jsonio.config_from_obj),
            (cwp, jsonio.cwp_to_obj, jsonio.cwp_from_obj),
            (point, jsonio.proj_point_to_obj, jsonio.proj_point_from_obj),
        ]
        for value, to_obj, from_obj in cases:
            emitted = json.dumps(to_obj(value))
            assert from_obj(json.loads(emitted)) == value

    @pytest.mark.parametrize("value", [{}, {"x": "1", "y": "2"}, "12"])
    @pytest.mark.parametrize("to_obj, from_obj, key", [
        (jsonio.cwp_to_obj, jsonio.cwp_from_obj, "points"),
        (jsonio.config_to_obj, jsonio.config_from_obj, "alphas"),
        (jsonio.proj_point_to_obj, jsonio.proj_point_from_obj, "coords"),
    ])
    def test_containers_must_be_lists(self, to_obj, from_obj, key, value):
        values = {
            "points": CWP13, "alphas": CWP13.verify(),
            "coords": ProjPoint([0, 1, 2]),
        }
        obj = to_obj(values[key])
        obj[key] = value
        with pytest.raises(ValueError, match=f"'{key}' must be a JSON list"):
            from_obj(obj)

    @pytest.mark.parametrize("to_obj, from_obj, key, value", [
        (jsonio.cwp_to_obj, jsonio.cwp_from_obj, "curve", []),
        (jsonio.cwp_to_obj, jsonio.cwp_from_obj, "points", 1),
    ])
    def test_nested_values_must_be_objects(self, to_obj, from_obj, key, value):
        obj = to_obj(CWP13)
        if isinstance(obj[key], list):  # the message names the last entry
            name = f"{key}[{len(obj[key]) - 1}]"
            obj[key][-1] = value
        else:
            name = key
            obj[key] = value
        with pytest.raises(ValueError, match=re.escape(f"{name!r} must be a JSON object")):
            from_obj(obj)

    @pytest.mark.parametrize("value", [True, 2.0, "2", None])
    @pytest.mark.parametrize("key", ["r", "s"])
    @pytest.mark.parametrize("to_obj, from_obj, data", [
        (jsonio.curve_to_obj, jsonio.curve_from_obj, CWP13.curve),
        (jsonio.config_to_obj, jsonio.config_from_obj, CWP13.verify()),
    ])
    def test_integer_fields_must_be_json_integers(
        self, to_obj, from_obj, data, key, value
    ):
        # True == 1 in Python; the exact type test keeps it out
        obj = to_obj(data)
        obj[key] = value
        with pytest.raises(ValueError, match=f"'{key}' must be a JSON integer"):
            from_obj(obj)

    @pytest.mark.parametrize("value", [3, 0.5])
    @pytest.mark.parametrize("to_obj, from_obj, data, path", [
        (jsonio.curve_to_obj, jsonio.curve_from_obj, CWP13.curve, ["a"]),
        (jsonio.curve_to_obj, jsonio.curve_from_obj, CWP13.curve, ["b"]),
        (jsonio.cwp_to_obj, jsonio.cwp_from_obj, CWP13, ["points", 0, "x"]),
        (jsonio.cwp_to_obj, jsonio.cwp_from_obj, CWP13, ["points", 1, "y"]),
        (jsonio.config_to_obj, jsonio.config_from_obj, CWP13.verify(),
         ["alphas", 2]),
        (jsonio.proj_point_to_obj, jsonio.proj_point_from_obj,
         ProjPoint([0, 1, 2]), ["coords", 1]),
    ])
    def test_rationals_must_be_strings(self, to_obj, from_obj, data, path, value):
        # a JSON number is never read as a rational, not even a whole one
        obj = to_obj(data)
        node = obj
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        with pytest.raises(ValueError, match=re.escape(
            f'expected a rational string "p/q", got {value!r}'
        )):
            from_obj(obj)

    def test_no_floats_anywhere(self):
        cfg = validate(2, 2, [F(1, 3), F(2, 7), F(3)])
        system = build_fiber(cfg)
        obj = jsonio.fiber_system_to_obj(system)

        def walk(node):
            if isinstance(node, float):
                raise AssertionError("float leaked into JSON")
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            if isinstance(node, list):
                for v in node:
                    walk(v)

        walk(obj)


def test_no_verb_starts_a_process():
    # search-ab runs its blocks in-process, whatever --workers says
    script = (
        "import sys; from fibercurve import cli; "
        f"code = cli.main(['search-ab', '--config', {CFG123!r}, "
        "'--height', '4', '--workers', '2']); "
        "print(code, 'concurrent.futures' in sys.modules, "
        "'multiprocessing' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert (proc.returncode, proc.stderr.strip()) == (0, "0 False False")


def test_package_import_loads_no_module():
    # each module is imported by name; the package holds only __version__
    script = (
        "import sys, fibercurve; "
        "print(sorted(m for m in sys.modules if m.startswith('fibercurve.')), "
        "[k for k in vars(fibercurve) if not k.startswith('_')], "
        "fibercurve.__version__)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "[] [] 0.1.0")


def test_jsonio_import_loads_no_search():
    # push, lift and fiber-verify read and write through jsonio; none searches
    script = (
        "import sys, fibercurve.jsonio; "
        "print('fibercurve.search' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "False")


def test_cli_import_loads_no_dataclasses_or_hashlib():
    # the value types are NamedTuples and only fixtures.load hashes and
    # reads package data; -S keeps site from preloading any of these
    script = "\n".join([
        "import contextlib, io, json, sys",
        "before = set(sys.modules)",
        "from fibercurve import cli",
        "loaded = set(sys.modules) - before",
        "with contextlib.redirect_stdout(io.StringIO()) as out:",
        "    code = cli.main(['fixtures', 'rogers7', '--verify'])",
        "print(sorted(loaded & {'dataclasses', 'inspect', 'hashlib',",
        "                       'importlib.resources', 'pathlib', 'tempfile',",
        "                       'shutil'}),",
        "      code, json.loads(out.getvalue())['name'])",
    ])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "[] 0 rogers7")


def test_closed_stdout_ends_the_verb_quietly():
    # about 300 KB of curves, more than a pipe holds: the verb is still
    # writing when the reader closes its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "fibercurve.cli", "conic-enumerate",
         "--config", CFG123, "--count", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert json.loads(proc.stdout.readline())["curve"]["r"] == 2
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_stdout_closed_before_a_buffered_answer_is_written():
    # with buffered stdout a short answer is written when main flushes it
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fibercurve.cli", "fiber-genus",
             "--s", "2", "--n", "13"],
            stdout=write, stderr=subprocess.PIPE, timeout=60,
            env={**env, "PYTHONPATH": SRC},
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


# conic-enumerate writes each line with its own write.  Under
# PYTHONUNBUFFERED stdout has no buffer: one write of the whole output
# would be one system call, which a pipe whose reader has gone takes only
# in part, and the text layer would report it whole, so the verb would
# exit 0 with its output cut.  A short line is taken whole or refused.
def _conic_env(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return {**env, "PYTHONPATH": SRC}


@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_closed_before_conic_enumerate_starts(unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fibercurve.cli", "conic-enumerate",
             "--config", CFG123, "--count", "2000"],
            stdout=write, stderr=subprocess.PIPE, timeout=60,
            env=_conic_env(unbuffered),
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_unbuffered_stdout_closed_mid_stream_ends_conic_enumerate():
    proc = subprocess.Popen(
        [sys.executable, "-m", "fibercurve.cli", "conic-enumerate",
         "--config", CFG123, "--count", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_conic_env(True),
    )
    assert json.loads(proc.stdout.readline())["curve"]["r"] == 2
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_trivial_points_refuses_n_past_the_coordinate_cap():
    # refused before anything of size n is made: under a 1 GiB address
    # space limit, where the tuple stream alone would ask for 16 GB
    proc = subprocess.run(
        [sys.executable, "-m", "fibercurve.cli", "trivial-points",
         "--r", "1", "--s", "2", "--n", "1000000000"],
        capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert (proc.returncode, proc.stdout) == (EXIT_MATH, b"")
    assert json.loads(proc.stderr)["message"] == (
        "1000000001 coordinates per tuple exceed the cap 500000; refusing")


def _run_in_256_mib(*argv):
    """``fibercurve`` in a subprocess under a 256 MiB address space limit."""
    return subprocess.run(
        [sys.executable, "-m", "fibercurve.cli", *argv],
        capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (256 << 20, 256 << 20)),
    )


def test_an_input_too_large_for_memory_is_a_math_failure():
    # 2^(n - 1) at n = 10^11 asks for 12.5 GB: a MemoryError, not a traceback
    proc = _run_in_256_mib("fiber-genus", "--s", "2", "--n", "100000000000")
    assert (proc.returncode, proc.stdout) == (EXIT_MATH, b"")
    assert json.loads(proc.stderr) == {
        "error": "math",
        "message": "out of memory: the input needs more than is available"}


def test_validate_at_a_huge_r_builds_no_power():
    # alpha^r for r = 10^12 would be terabytes; 3 and -3 collide at even r
    proc = _run_in_256_mib(
        "validate", "--config",
        '{"r":1000000000000,"s":2,"alphas":["2","3","5","-3"]}')
    assert (proc.returncode, proc.stderr) == (EXIT_MATH, b"")
    assert json.loads(proc.stdout) == {"valid": False, "violations": [
        "alpha[1]^1000000000000 == alpha[3]^1000000000000 with distinct bases"]}


@pytest.mark.parametrize("s", [100003, 1000003])
def test_search_ab_with_a_large_prime_s_holds_little(s):
    # every sieve prime of s is above SLAB_BITS, so none gets slab tables:
    # rows as long as the largest prime would ask for gigabytes at H = 24
    config = json.dumps({"r": 1, "s": s, "alphas": ["1", "2", "-3"]})
    proc = subprocess.run(
        [sys.executable, "-m", "fibercurve.cli", "search-ab", "--config", config,
         "--height", "24", "--stats"],
        capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    report = json.loads(proc.stdout)
    assert (report["complete"], report["search_space_size"]) == (True, 46228)
    assert json.loads(proc.stderr)["candidates"] == 46228


def test_search_ab_large_prime_s_and_a_fractional_alpha(capsys):
    # s = 10^7 + 19 is prime and -1/3 puts 3^(2 (s - 1)) in M: the sieve
    # needs that power only mod its primes, the box has no survivor and
    # the prime divisors of s come from trial division up to isqrt(s)
    start = time.monotonic()
    code, out, err = run(
        capsys, "search-ab",
        "--config", '{"r":1,"s":10000019,"alphas":["1","2","-1/3"]}',
        "--height", "2", "--stats",
    )
    elapsed = time.monotonic() - start
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["search_space_size"] == 28 and report["hits"] == []
    assert json.loads(err)["sieve_survivors"] == 0
    assert elapsed < 3


def test_every_package_exception_is_a_math_error_at_exit_1():
    # a usage error is a ValueError; the package defines only the type of
    # a failed construction, and the failure table sends each to exit 1
    found = {}
    for info in pkgutil.iter_modules(fibercurve.__path__):
        module = importlib.import_module(f"fibercurve.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                found[obj] = next(code for types, code, _ in cli._FAILURES
                                  if issubclass(obj, types))
    assert set(found) == {config.MathError, config.InvalidConfigError}, found
    assert all(issubclass(cls, config.MathError) for cls in found), found
    assert set(found.values()) == {EXIT_MATH}


@pytest.mark.parametrize("exc", [TypeError("set is not JSON serializable"),
                                 KeyError("a")])
def test_only_a_value_error_is_a_usage_error(monkeypatch, exc):
    # a missing field is a ValueError of the readers; any other TypeError
    # or KeyError is a bug, which propagates instead of exiting 2
    def broken(obj):
        raise exc

    monkeypatch.setattr(jsonio, "config_from_obj", broken)
    with pytest.raises(type(exc)):
        main(["validate", "--config", '{"r":2,"s":2,"alphas":["1","2","3"]}'])
