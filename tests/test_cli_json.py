"""The CLI's one indent-2 JSON writer writes what ``json.dumps(obj,
indent=2)`` writes, for every type the program emits."""

import contextlib
import io
import json
import sys

import pytest

from fibercurve.cli import _emit, _json

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
def unlimited_int_digits():
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    setter = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    setter(0)
    try:
        yield
    finally:
        setter(limit)


@hypothesis.settings(max_examples=200, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(obj=VALUES)
def test_writes_the_bytes_of_json_dumps(obj):
    with unlimited_int_digits():
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
