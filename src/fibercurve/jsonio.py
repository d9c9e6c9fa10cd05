"""JSON codecs for every exchanged type.

All numeric payloads are exact "p/q" strings (bare "p" for integers);
floats never appear.  A type has a reader only when a verb reads it:
curves, configurations, points and curves with points.  Fiber systems,
search reports and certificates are only written.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .arith import format_rational, int_text, parse_rational, shown
from .birat import CurveWithPoints
from .config import Config, validate
from .family import AffinePoint, FamilyCurve
from .fiber import (FiberSystem, ProjPoint, TrivialPointCertificate,
                    exponent_tuples, raw_coefficients, raw_scales)


_JSON_TYPES = {int: "integer", list: "list", dict: "object"}

EVIDENCE_NOTE = (
    "height-bounded evidence only; no finiteness or emptiness claim"
)


def _typed(value, name: str, kind: type):
    """``value`` when its JSON type is ``kind``, else a ValueError naming
    the field ``name``.  The exact type test keeps a bool out of an int."""
    if type(value) is not kind:
        raise ValueError(
            f"{name!r} must be a JSON {_JSON_TYPES[kind]}, got {shown(value)}"
        )
    return value


def _field(obj: dict, key: str, kind: type | None = None):
    """``obj[key]``, of JSON type ``kind`` if one is given; a missing field
    is a ValueError naming it."""
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    return obj[key] if kind is None else _typed(obj[key], key, kind)


def curve_to_obj(curve: FamilyCurve) -> dict:
    return {
        "r": curve.r,
        "s": curve.s,
        "a": format_rational(curve.a),
        "b": format_rational(curve.b),
    }


def curve_from_obj(obj: dict) -> FamilyCurve:
    return FamilyCurve(
        r=_field(obj, "r", int),
        s=_field(obj, "s", int),
        a=parse_rational(_field(obj, "a")),
        b=parse_rational(_field(obj, "b")),
    )


def point_to_obj(p: AffinePoint) -> dict:
    return {"x": format_rational(p.x), "y": format_rational(p.y)}


def point_from_obj(obj: dict) -> AffinePoint:
    return AffinePoint(*(parse_rational(_field(obj, k)) for k in "xy"))


def config_to_obj(config: Config) -> dict:
    return {
        "r": config.r,
        "s": config.s,
        "alphas": [format_rational(a) for a in config.alphas],
    }


def config_from_obj(obj: dict) -> Config:
    return validate(
        _field(obj, "r", int),
        _field(obj, "s", int),
        [parse_rational(a) for a in _field(obj, "alphas", list)],
    )


def proj_point_to_obj(point: ProjPoint) -> dict:
    return {"coords": [format_rational(c) for c in point.coords]}


def proj_point_from_obj(obj: dict) -> ProjPoint:
    return ProjPoint([parse_rational(c) for c in _field(obj, "coords", list)])


def fiber_system_to_obj(system: FiberSystem) -> dict:
    # "scale" times (A, B, C) is the raw triple of raw_coefficients
    return {
        "config": config_to_obj(system.config),
        "equations": [
            {
                "i": eq.i,
                "A": format_rational(eq.A),
                "B": format_rational(eq.B),
                "C": format_rational(eq.C),
                "scale": format_rational(scale),
            }
            for eq, scale in zip(system.equations, raw_scales(system))
        ],
    }


def cwp_to_obj(cwp: CurveWithPoints) -> dict:
    return {
        "curve": curve_to_obj(cwp.curve),
        "points": [point_to_obj(p) for p in cwp.points],
    }


def cwp_from_obj(obj: dict) -> CurveWithPoints:
    return CurveWithPoints(
        curve=curve_from_obj(_field(obj, "curve", dict)),
        points=tuple(
            point_from_obj(_typed(p, f"points[{k}]", dict))
            for k, p in enumerate(_field(obj, "points", list))
        ),
    )


def cwp_lines(config: Config, curves):
    """Each of ``curves``, members through the x-coordinates of ``config``,
    as a line: ``json.dumps(cwp_to_obj(cwp))`` byte for byte, then a
    newline.  The parts that every such curve shares (r, s and each x) are
    formatted once; a curve formats only its a, b and y values."""
    r, s = int_text(config.r), int_text(config.s)
    head = f'{{"curve": {{"r": {r}, "s": {s}, "a": "'
    xs = [f'{{"x": "{format_rational(x)}", "y": "' for x in config.alphas]
    for cwp in curves:
        a, b = format_rational(cwp.curve.a), format_rational(cwp.curve.b)
        points = '"}, '.join(
            [x + format_rational(p.y) for x, p in zip(xs, cwp.points)])
        yield f'{head}{a}", "b": "{b}"}}, "points": [{points}"}}]}}\n'


def search_report_to_obj(report) -> dict:
    """A ``search.SearchReport`` and its note, without its counters."""
    return {
        "config": config_to_obj(report.config),
        "height_bound": report.height_bound,
        "hits": [cwp_to_obj(h) for h in report.hits],
        "search_space_size": report.search_space_size,
        "elapsed_ms": report.elapsed_ms,
        "complete": report.complete,
        "workers": report.workers,
        "note": EVIDENCE_NOTE,
    }


def search_stats_to_obj(report) -> dict:
    """The counters of a ``search.SearchReport``'s run: every candidate
    either fails the sieve, fails the root test or is a hit."""
    return {
        "candidates": report.search_space_size,
        "sieve_survivors": report.sieve_survivors,
        "root_rejections": report.sieve_survivors - len(report.hits),
        "hits": len(report.hits),
        "workers": report.workers,
        "block_us": list(report.block_us),
    }


def conic_stats_to_obj(report) -> dict:
    """The counters of a ``conic.ConicReport``'s run: the base point and
    each examined direction's point is a duplicate, a degenerate point or
    a curve, so 1 + directions = duplicates + degenerate + curves when
    curves > 0."""
    return {
        "directions": report.directions,
        "duplicates": report.duplicates,
        "degenerate": report.degenerate,
        "curves": len(report.curves),
        "budget": report.budget,
    }


def certificate_to_obj(
    cert: TrivialPointCertificate, include_tuples: bool = False
) -> dict:
    """The certificate and what follows from it: the sweep verifies
    min(listed, total_space) pairs, so fewer than total_space is sampled."""
    r, s, n, verified = cert
    total_space = r ** (n + 1) * s ** (n + 1)
    obj = {
        "r": r,
        "s": s,
        "n": n,
        "cyclotomic_order": lcm(r, s),
        "total_space": total_space,
        "verified_count": verified,
        "sampled": total_space > verified,
    }
    if include_tuples:
        obj["tuples"] = [
            {"x_exponents": list(jt), "y_exponents": list(it)}
            for jt, it in exponent_tuples(r, s, n, verified)
        ]
    return obj


# ---------------------------------------------------------------------------
# Display formatting in the two conventional scalings
# ---------------------------------------------------------------------------


def format_system_display(system: FiberSystem, style: str = "shared") -> str:
    """Human-readable equation layout.

    style "shared": left side is the raw shared cofactor C times Y_i^s and
    the right side lists the raw A, B cofactors verbatim.  style "monic":
    left side is Y_i^s alone, right side -A/C and -B/C.
    """
    s = system.config.s
    lines = []
    for eq in system.equations:
        raw_a, raw_b, raw_c = raw_coefficients(system.config, eq.i)
        if style == "shared":
            lines.append(
                f"({format_rational(raw_c)}) Y_{eq.i}^{s} = "
                f"({format_rational(raw_a)}) Y_0^{s} + "
                f"({format_rational(raw_b)}) Y_1^{s}"
            )
        elif style == "monic":
            p = Fraction(-eq.A, eq.C)
            q = Fraction(-eq.B, eq.C)
            lines.append(
                f"Y_{eq.i}^{s} = ({format_rational(p)}) Y_0^{s} + "
                f"({format_rational(q)}) Y_1^{s}"
            )
        else:
            raise ValueError(f"unknown style {style!r}")
    return "\n".join(lines)
