"""The CLI's one indent-2 JSON writer writes what ``json.dumps(obj,
indent=2)`` writes, for every type the program emits, and the
``conic-enumerate`` line writer writes what ``json.dumps`` writes of each
curve."""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction as F

import pytest

from fibercurve import jsonio
from fibercurve.birat import CurveWithPoints
from fibercurve.cli import _emit, _json
from fibercurve.config import MathError, validate
from fibercurve.conic import enumerate_curves
from fibercurve.family import AffinePoint, FamilyCurve

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# non-ASCII text, control characters, quotes, backslashes, lone surrogates
TEXT = st.text(st.characters(blacklist_categories=())
               | st.sampled_from('"\\\x00\x1f\n\t\x7f\u2028é\ud800\udfff'),
               max_size=6)
# past the 4300 digits CPython writes by default
HUGE = st.builds(lambda digits, low, sign: sign * (10**digits + low),
                 st.integers(4300, 5000), st.integers(0, 10**9),
                 st.sampled_from((1, -1)))
SCALARS = st.none() | st.booleans() | st.integers() | HUGE | TEXT
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)


@contextlib.contextmanager
def int_digit_limit(digits):
    """CPython's limit on the digits of an int written as text (0: none)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    setter = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    setter(digits)
    try:
        yield
    finally:
        setter(limit)


@hypothesis.settings(max_examples=200, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(obj=VALUES)
def test_writes_the_bytes_of_json_dumps(obj):
    with int_digit_limit(0):
        expected = json.dumps(obj, indent=2)
        assert _json(obj) == expected
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _emit(obj)
    assert out.getvalue() == expected + "\n"


@pytest.mark.parametrize("obj", [{}, [], (), {"a": {}}, [[], ()], {"": [{}]}])
def test_empty_containers(obj):
    assert _json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [{1, 2}, 1.5, [1, 0.0], {"x": frozenset()},
                                 b"bytes", [{"x": [set()]}]])
def test_other_types_raise_type_error(obj):
    # the program writes no float: a float is a bug, as a set is for json
    with pytest.raises(TypeError):
        _json(obj)


@pytest.mark.parametrize("bits", [8191, 8192, 8193, 40_000])
def test_ints_are_written_as_str_writes_them(bits):
    # even under CPython's default 4300-digit limit, which int.__repr__
    # obeys: past 8192 bits the writer takes the decimal path
    values = [(1 << bits) - 1, -((1 << bits) - 1), 1 << bits, -(1 << bits)]
    with int_digit_limit(0):
        expected = [str(value) for value in values]
    with int_digit_limit(4300):
        assert [_json(value) for value in values] == expected


def _dumped_lines(curves):
    return [json.dumps(jsonio.cwp_to_obj(cwp)) + "\n" for cwp in curves]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_cwp_lines_write_the_bytes_of_json_dumps(r):
    # seeded configs with alphas of both signs, most of them fractions;
    # one without a base point of height <= 64 is drawn again
    rng = random.Random(r)
    written = 0
    while written < 3:
        alphas = [F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
                  for _ in range(3)]
        try:
            config = validate(r, 2, alphas)
            curves = enumerate_curves(config, 60, 64).curves
        except MathError:
            continue
        assert list(jsonio.cwp_lines(config, curves)) == _dumped_lines(curves)
        written += 1


def test_cwp_lines_of_hand_built_curves():
    # negative and fractional a, b, x and y, and numerators and
    # denominators past 8192 bits, where int_text takes the decimal path
    huge = (1 << 9000) + 12345
    config = validate(3, 5, [F(-7, 3), F(huge, 11), F(2), F(-1, huge)])
    values = [F(0), F(1), F(-1), F(-22, 7), F(huge), F(-huge, 3),
              F(5, huge), F(-(huge * huge + 1), huge - 2)]
    rng = random.Random(0)
    curves = [
        CurveWithPoints(
            FamilyCurve(config.r, config.s, *rng.sample(values, 2)),
            tuple(AffinePoint(x, rng.choice(values)) for x in config.alphas))
        for _ in range(40)
    ]
    assert list(jsonio.cwp_lines(config, curves)) == _dumped_lines(curves)
    assert list(jsonio.cwp_lines(config, [])) == []
