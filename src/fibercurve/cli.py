"""Command-line interface.

One executable, subcommand per operation, exact JSON in and out.  Exit
codes: 0 success (verification verbs: fully passed), 1 a ``MathError``
(point off fiber, inadmissible configuration, fixture mismatch, no conic
point within the bound), 2 any other ValueError (bad flags, malformed
input).  All numbers cross the boundary as exact "p/q" strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import arith, birat, conic, family, fiber, fixtures, jsonio, search
from .arith import format_rational, parse_rational, shown
from .config import InvalidConfigError, MathError, classify

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


class _Parser(argparse.ArgumentParser):
    """Rejected arguments raise ValueError, which ``main`` reports as a
    usage error, instead of exiting.

    A negative rational ("-1/2", or "-1/2,3" for a point) is a value, as
    argparse takes "-2" for one; argparse echoes whole arguments, so an
    over-long message keeps its head and length, as ``shown`` does.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"-[0-9]+(?:/[0-9]+)?(?:,[-−]?[0-9]+(?:/[0-9]+)?)?\Z"
        )

    def error(self, message):
        if len(message) > 320:
            message = f"{message[:160]}… ({len(message)} characters)"
        raise ValueError(message)


def _integer(text: str) -> int:
    """The type of every integer flag: what ``parse_rational`` reads without
    its "/".  Any other text is rejected as argparse rejects a bad int."""
    if "/" not in text:
        try:
            return int(parse_rational(text))
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {shown(text)}")


def _is_literal(value: str) -> bool:
    """Whether a flag value is JSON text, not a path, "-" or "x,y"."""
    return value.strip().startswith(("{", "["))


def _read_payload(value: str) -> dict:
    """Accept a path, "-" for stdin, or a literal JSON object.  A message
    names a path in full and shortens a literal; nesting too deep for the
    decoder is a usage error, not a RecursionError."""
    source = repr(value)
    try:
        if _is_literal(value):
            text, source = value, shown(value)
        elif value == "-":
            text = sys.stdin.read()
        else:
            with open(value, "r", encoding="utf-8") as fh:
                text = fh.read()
        obj = json.loads(text)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read input {source}: {exc}") from exc
    except RecursionError:
        raise ValueError(f"input {source} is nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError(f"input {source} is not a JSON object")
    return obj


def _load_config(value: str):
    return jsonio.config_from_obj(_read_payload(value))


def _json(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` for str (also as keys), int, bool, None,
    dict, and list or tuple; other types raise TypeError, as in ``json``."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return arith.int_text(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        ends, body = "{}", [f"{_quote(k)}: {_json(v, inner)}"
                            for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        ends, body = "[]", [_json(v, inner) for v in obj]
    else:
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    if not body:
        return ends
    return f"{ends[0]}{inner}{f',{inner}'.join(body)}{newline}{ends[1]}"


def _emit(obj) -> None:
    print(_json(obj))


def _parse_affine(text: str) -> family.AffinePoint:
    if _is_literal(text):
        return jsonio.point_from_obj(_read_payload(text))
    coords = text.split(",")
    if len(coords) != 2:
        raise ValueError(f'point {shown(text)} is not "x,y" or JSON')
    return family.AffinePoint(*map(parse_rational, coords))


# --- verb implementations ---------------------------------------------------


def _cmd_validate(args) -> int:
    try:
        _load_config(args.config)
        problems = []
    except InvalidConfigError as exc:
        problems = exc.problems
    _emit({"valid": not problems, "violations": problems})
    return EXIT_OK if not problems else EXIT_MATH


def _cmd_fiber_build(args) -> int:
    cfg = _load_config(args.config)
    system = fiber.build_fiber(cfg)
    if args.format == "display":
        print(jsonio.format_system_display(system, style=args.style))
    else:
        _emit(jsonio.fiber_system_to_obj(system))
    return EXIT_OK


def _cmd_fiber_verify(args) -> int:
    system = fiber.build_fiber(_load_config(args.config))
    point = jsonio.proj_point_from_obj(_read_payload(args.point))
    report = fiber.on_fiber(system, point)
    result = {
        "on_fiber": report.ok,
        "residues": [
            {"i": i, "residue": format_rational(res)}
            for i, res in report.residues
        ],
    }
    if report.ok:
        # smooth by theorem: Y_0 and Y_1 are never both 0, and Y_j = Y_k = 0
        # (j, k >= 2) needs A_j B_k = A_k B_j, that is x_0 x_1 x_j x_k
        # (x_j^r - x_k^r)(x_0^r - x_1^r) = 0, which admissibility excludes;
        # so at most one Jacobian row has no pivot of its own, and that row
        # is nonzero: the rank is n - 1
        result["smooth"] = True
    _emit(result)
    return EXIT_OK if report.ok else EXIT_MATH


def _cmd_integer(args) -> int:
    print(arith.int_text(args.compute(*(getattr(args, f) for f in args.flags))))
    return EXIT_OK


def _cmd_classify(args) -> int:
    regime, n0 = classify(args.s, args.n)
    _emit({"regime": regime.value, "n0": n0})
    return EXIT_OK


def _cmd_solve_ab(args) -> int:
    p0 = _parse_affine(args.p0)
    p1 = _parse_affine(args.p1)
    a, b = birat.solve_ab(args.r, args.s, p0, p1)
    _emit({"a": format_rational(a), "b": format_rational(b)})
    return EXIT_OK


def _cmd_push(args) -> int:
    cwp = jsonio.cwp_from_obj(_read_payload(args.input))
    _emit(jsonio.proj_point_to_obj(birat.to_fiber_point(cwp)))
    return EXIT_OK


def _cmd_lift(args) -> int:
    cfg = _load_config(args.config)
    point = jsonio.proj_point_from_obj(_read_payload(args.point))
    scale = None if args.scale is None else parse_rational(args.scale)
    cwp = birat.from_fiber_point(fiber.build_fiber(cfg), point, scale=scale)
    _emit(jsonio.cwp_to_obj(cwp))
    return EXIT_OK


def _cmd_conic_enumerate(args) -> int:
    cfg = _load_config(args.config)
    report = conic.enumerate_curves(cfg, args.count, args.height)
    # one write per line as each curve is found, never one of the whole
    # output: under PYTHONUNBUFFERED a write is one system call, a pipe
    # whose reader has gone takes a long one in part and the text layer
    # reports it whole, so the verb would exit 0 with its output cut; a
    # short line is taken whole or refused with a BrokenPipeError
    for line in jsonio.conic_lines(cfg, report.rows):
        sys.stdout.write(line)
    if args.stats:
        print(json.dumps(jsonio.conic_stats_to_obj(report)), file=sys.stderr)
    return EXIT_OK


def _cmd_search_ab(args) -> int:
    cfg = _load_config(args.config)
    report = search.search_ab(cfg, args.height, args.workers)
    obj = jsonio.search_report_to_obj(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(_json(obj))
        except OSError as exc:
            raise ValueError(
                f"cannot write --out {args.out!r}: {exc.strerror or exc}"
            ) from exc
        obj = {
            "hits": len(report.hits),
            "search_space_size": report.search_space_size,
            "out": args.out,
        }
    if args.stats:
        print(json.dumps(jsonio.search_stats_to_obj(report)), file=sys.stderr)
    _emit(obj)
    return EXIT_OK


def _cmd_trivial_points(args) -> int:
    cert = fiber.trivial_points(args.r, args.s, args.n)
    _emit(jsonio.certificate_to_obj(cert, include_tuples=args.full))
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    fixture = fixtures.load(args.name)
    if not args.verify:
        _emit(jsonio.cwp_to_obj(fixture.cwp))
        return EXIT_OK
    report = fixtures.verify(fixture)
    _emit(
        {
            "name": report.name,
            "checks": [
                {"check": label, "detail": detail}
                for label, detail in report.checks
            ],
            "printed_reading": report.printed_reading,
            "scalars": [format_rational(s) for s in report.scalars],
            "verified": True,
        }
    )
    return EXIT_OK


# --- parser -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  It keeps no
    state between ``parse_args`` calls, so ``main`` can run many verbs."""
    parser = _Parser(
        prog="fibercurve",
        description="Exact toolkit for the family y^s = x(a x^r + b) and "
        "its fiber curves.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check a configuration")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fiber-build", help="construct the fiber equations")
    p.add_argument("--config", required=True)
    p.add_argument("--format", choices=("json", "display"), default="json")
    p.add_argument("--style", choices=("shared", "monic"), default="shared")
    p.set_defaults(func=_cmd_fiber_build)

    p = sub.add_parser("fiber-verify", help="test a point against the fiber")
    p.add_argument("--config", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_fiber_verify)

    for verb, help_text, compute, flags in (
        ("fiber-genus", "genus of the fiber curve", fiber.fiber_genus, "sn"),
        ("gonality-bound", "gonality lower bound",
         fiber.gonality_lower_bound, "sn"),
        ("family-genus", "genus of a family member",
         family.family_genus, "rs"),
    ):
        p = sub.add_parser(verb, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", type=_integer, required=True)
        p.set_defaults(func=_cmd_integer, compute=compute, flags=flags)

    p = sub.add_parser("classify", help="fiber regime and n0 threshold")
    p.add_argument("--s", type=_integer, required=True)
    p.add_argument("--n", type=_integer, required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve-ab", help="recover (a, b) from two points")
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--s", type=_integer, required=True)
    p.add_argument("--p0", required=True, help='point as "x,y" or JSON')
    p.add_argument("--p1", required=True)
    p.set_defaults(func=_cmd_solve_ab)

    p = sub.add_parser("push", help="curve with points to fiber point")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_push)

    p = sub.add_parser("lift", help="fiber point to curve with points")
    p.add_argument("--config", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--scale", default=None, help='rational "p/q"; default 1/Y_0')
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("conic-enumerate", help="stream curves from the "
                       "genus-zero fiber (s=2, n=2)")
    p.add_argument("--config", required=True)
    p.add_argument("--count", type=_integer, required=True)
    p.add_argument("--height", type=_integer, default=64)
    p.add_argument("--stats", action="store_true",
                   help="write the run's counters to stderr as JSON")
    p.set_defaults(func=_cmd_conic_enumerate)

    p = sub.add_parser("search-ab", help="height-bounded exhaustive search")
    p.add_argument("--config", required=True)
    p.add_argument("--height", type=_integer, required=True)
    p.add_argument("--workers", type=_integer, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--stats", action="store_true",
                   help="write the run's counters to stderr as JSON")
    p.set_defaults(func=_cmd_search_ab)

    p = sub.add_parser("trivial-points", help="certify root-of-unity points")
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--s", type=_integer, required=True)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--full", action="store_true",
                   help="include every verified tuple in the output")
    p.set_defaults(func=_cmd_trivial_points)

    p = sub.add_parser("fixtures", help="load or verify an embedded dataset")
    p.add_argument("name", choices=fixtures.FIXTURE_NAMES)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_fixtures)

    return parser


# Checked in order: MathError and its subclass InvalidConfigError are
# ValueErrors, and every other ValueError is a usage error.
_FAILURES = (
    (InvalidConfigError, EXIT_MATH,
     lambda exc: json.dumps({"valid": False, "violations": exc.problems})),
    (MathError, EXIT_MATH, str),
    (MemoryError, EXIT_MATH,
     lambda exc: "out of memory: the input needs more than is available"),
    (ValueError, EXIT_USAGE, str),
)


def main(argv=None) -> int:
    """Run one verb; every expected failure becomes an exit code and one
    JSON object on stderr.  Any other exception is a bug and propagates.
    A reader that closes stdout early (``| head``) ends the verb quietly
    with exit code 1."""
    # int() reads inputs past 4300 digits and messages print long ints with
    # str, for this verb only; 0 is no limit, as before Python 3.10.7
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout at exit: send what is left nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as exc:
        for types, code, message in _FAILURES:
            if isinstance(exc, types):
                kind = "math" if code == EXIT_MATH else "usage"
                print(json.dumps({"error": kind, "message": message(exc)}),
                      file=sys.stderr)
                return code
        raise
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
