"""Embedded reference datasets and their verification harness.

Two curves ship with the package: a rank-record member with 14 points
(``watkins14``) and the smallest-N rank-7 congruent-number curve with 7
points (``rogers7``).  The JSON files are content-hashed; verification
recomputes everything from (r, s, a, b, points) alone and compares the
constructed fiber system against the transcribed reference equations up
to one nonzero rational scalar per equation.

The reference displays write each equation as  lhs * Y_i^s = rhs0 * Y_0^s
+ rhs1 * Y_1^s.  Two readings of that display are tried: the algebraic
one (coefficient triple (rhs0, rhs1, -lhs)) and the verbatim one (triple
(rhs0, rhs1, lhs), i.e. the three constants are the equation coefficients
as listed).  Whichever reading matches consistently across the whole
system is recorded in the report.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from .arith import parse_rational
from .birat import CurveWithPoints, solve_ab
from .config import MathError
from .fiber import (ProjPoint, build_fiber, fiber_genus, raw_coefficients,
                    smooth_at)
from .jsonio import cwp_from_obj

EXPECTED_SHA256 = {
    "watkins14": "13d088b26515f1a5d7cf8a7316cf046ba397ceb4aa913d7dc4b6a13ff69a4db7",
    "rogers7": "881c7d4c8de7b61f734a70e728df644292daf8ddcf89adfcfdb35b684256bcf0",
}

FIXTURE_NAMES = tuple(sorted(EXPECTED_SHA256))


class PrintedEquation(NamedTuple):
    i: int
    lhs: Fraction
    rhs0: Fraction
    rhs1: Fraction


class Fixture(NamedTuple):
    name: str
    cwp: CurveWithPoints
    expected_genus_fiber: int
    expected_c: Fraction | None
    printed_equations: tuple[PrintedEquation, ...]


class FixtureReport(NamedTuple):
    name: str
    checks: tuple[tuple[str, str], ...]  # (label, detail), all passed
    printed_reading: str
    scalars: tuple[Fraction, ...]


def load(name: str) -> Fixture:
    if name not in EXPECTED_SHA256:
        raise KeyError(f"unknown fixture {name!r}; have {FIXTURE_NAMES}")
    import hashlib  # these two only here, so that no other verb loads them
    from importlib import resources
    text = (
        resources.files("fibercurve") / "data" / f"{name}.json"
    ).read_text(encoding="utf-8")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != EXPECTED_SHA256[name]:
        raise MathError(
            f"fixture file {name} hash {digest} != expected"
        )
    obj = json.loads(text)
    printed = tuple(
        PrintedEquation(
            i=int(e["i"]),
            lhs=parse_rational(e["lhs"]),
            rhs0=parse_rational(e["rhs0"]),
            rhs1=parse_rational(e["rhs1"]),
        )
        for e in obj.get("printed_equations", [])
    )
    expected_c = (
        parse_rational(obj["expected_c"])
        if obj.get("expected_c") is not None
        else None
    )
    return Fixture(
        name=obj["name"],
        cwp=cwp_from_obj(obj),
        expected_genus_fiber=int(obj["expected_genus_fiber"]),
        expected_c=expected_c,
        printed_equations=printed,
    )


def _match_printed(raws, printed) -> tuple[str, list[Fraction]]:
    """Per-equation scalar match of the raw triples, by equation index,
    against the transcribed display, trying both readings of the display."""
    if not printed:
        raise MathError("no printed equations to match")
    failures = []
    for reading, eps in (("algebraic-lhs", -1), ("verbatim-lhs", +1)):
        scalars: list[Fraction] = []
        for pe in printed:
            target = (pe.rhs0, pe.rhs1, eps * pe.lhs)
            lam = None if 0 in target else raws[pe.i][0] / target[0]
            if lam is None or raws[pe.i] != tuple(lam * t for t in target):
                failures.append(f"reading {reading}: equation {pe.i} "
                                f"(attempted scalar {lam})")
                break
            scalars.append(lam)
        else:
            return reading, scalars
    raise MathError(
        f"printed-system match failed: {'; '.join(failures)}")


def verify(fixture: Fixture) -> FixtureReport:
    """Recompute everything from the raw data; raise on the first mismatch.

    The first five checks are the library's own (``CurveWithPoints.verify``,
    ``build_fiber``, ``smooth_at``); a ValueError from them is a mismatch."""
    curve = fixture.cwp.curve
    points = fixture.cwp.points
    try:
        cfg = fixture.cwp.verify()
        system = build_fiber(cfg)
        smooth = smooth_at(system, ProjPoint([p.y for p in points]))
    except ValueError as exc:
        raise MathError(str(exc)) from exc
    if not smooth:
        raise MathError("Jacobian rank deficient at the point")
    checks = [
        ("membership", f"all {len(points)} points on the curve"),
        ("config", f"n = {cfg.n}, admissible"),
        ("fiber", f"{len(system.equations)} equations built"),
        ("on_fiber", "y-coordinate point satisfies every equation"),
        ("smooth_at", f"Jacobian rank {cfg.n - 1} = n-1"),
    ]

    genus = fiber_genus(curve.s, cfg.n)
    if genus != fixture.expected_genus_fiber:
        raise MathError(
            f"fiber genus {genus} != expected {fixture.expected_genus_fiber}"
        )
    checks.append(("fiber_genus", str(genus)))

    raws = {eq.i: raw_coefficients(cfg, eq.i) for eq in system.equations}
    reading, scalars = _match_printed(raws, fixture.printed_equations)
    checks.append(
        ("printed_equations",
         f"all {len(scalars)} match, reading = {reading}")
    )

    if fixture.expected_c is not None:
        raw_c = raws[2][2]  # the same for every i
        if raw_c == fixture.expected_c:
            relation = "C == c"
        elif raw_c == -fixture.expected_c:
            relation = "C == -c"
        else:
            raise MathError(
                f"shared cofactor {raw_c} is neither c nor -c"
            )
        checks.append(("shared_constant", relation))

    a, b = solve_ab(curve.r, curve.s, points[0], points[1])
    if (a, b) != (curve.a, curve.b):
        raise MathError(
            f"solve_ab returned ({a}, {b}), expected ({curve.a}, {curve.b})"
        )
    checks.append(("solve_ab", "recovered (a, b) exactly"))

    return FixtureReport(
        name=fixture.name,
        checks=tuple(checks),
        printed_reading=reading,
        scalars=tuple(scalars),
    )
