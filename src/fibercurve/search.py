"""Height-bounded exhaustive search for family members through a
configuration.

Candidates (a, b) = (u/w, v/w) range over |u|, |v| <= H, 1 <= w <= H with
gcd(u, v, w) = 1 and uv != 0; a candidate is a hit when every
alpha_i (a alpha_i^r + b) is a rational s-th power.  Hits carry witnessed
points (nonnegative y for even s) and are reported in a canonical order
independent of how the work was partitioned.  Reports are evidence about
the searched box only; nothing is claimed beyond the height bound.

The scan tests every candidate directly.  A residue-class pre-sieve
(rejecting candidates whose conditions fail modulo small primes) would
prune the box and can be slotted into _test_candidate without touching
the partitioning or the report format; correctness comes first here.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import is_sth_power
from .birat import CurveWithPoints
from .config import Config
from .family import AffinePoint, FamilyCurve, contains

EVIDENCE_NOTE = (
    "height-bounded evidence only; no finiteness or emptiness claim"
)


@dataclass(frozen=True)
class SearchReport:
    config: Config
    height_bound: int
    hits: tuple[CurveWithPoints, ...]
    search_space_size: int
    elapsed_ms: int
    complete: bool
    workers: int
    note: str = EVIDENCE_NOTE


@dataclass(frozen=True)
class ClassCountTable:
    config: Config
    height_bound: int
    per_index: tuple[int, ...]  # candidates passing condition i alone
    search_space_size: int


def _candidates(height: int, u_lo: int, u_hi: int):
    """The box's (a, b) = (u/w, v/w) with u in [u_lo, u_hi), in scan order."""
    for u in range(u_lo, u_hi):
        if u == 0:
            continue
        for v in range(-height, height + 1):
            if v == 0:
                continue
            g_uv = gcd(u, v)
            for w in range(1, height + 1):
                if gcd(g_uv, w) == 1:
                    yield Fraction(u, w), Fraction(v, w)


def _test_candidate(
    config: Config, a: Fraction, b: Fraction
) -> tuple[AffinePoint, ...] | None:
    ys = []
    for alpha, power in zip(config.alphas, config.powers):
        y = is_sth_power(alpha * (a * power + b), config.s)
        if y is None:
            return None  # early exit on the first failing condition
        ys.append(y)
    return tuple(
        AffinePoint(alpha, y) for alpha, y in zip(config.alphas, ys)
    )


def _search_block(args) -> tuple[list, int]:
    config, height, u_lo, u_hi = args
    hits = []
    count = 0
    for a, b in _candidates(height, u_lo, u_hi):
        count += 1
        points = _test_candidate(config, a, b)
        if points is not None:
            hits.append((a, b, points))
    return hits, count


def _canonical_key(hit: CurveWithPoints):
    return (abs(hit.curve.a.numerator), hit.curve.b, hit.curve.a)


def search_ab(config: Config, height: int, workers: int = 1) -> SearchReport:
    """Every hit in the height-H box, fully verified, canonically ordered.

    The u-range is split into contiguous blocks; each block is pure, and
    the merged hit list is sorted by (|numerator of a|, b, a), so the
    result does not depend on the worker count.  Interruption returns a
    partial report marked incomplete.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    start = time.monotonic()
    raw_hits: list[tuple[Fraction, Fraction, tuple[AffinePoint, ...]]] = []
    space = 0
    complete = True
    try:
        if workers == 1:
            hits, space = _search_block((config, height, -height, height + 1))
            raw_hits.extend(hits)
        else:
            span = 2 * height + 1
            blocks = []
            per = (span + workers - 1) // workers
            lo = -height
            while lo <= height:
                hi = min(lo + per, height + 1)
                blocks.append((config, height, lo, hi))
                lo = hi
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for hits, count in pool.map(_search_block, blocks):
                    raw_hits.extend(hits)
                    space += count
    except KeyboardInterrupt:
        complete = False

    curve_hits = []
    for a, b, points in raw_hits:
        curve = FamilyCurve(r=config.r, s=config.s, a=a, b=b)
        # soundness: re-verify every hit independently of the search path
        if not all(contains(curve, p) for p in points):
            raise AssertionError(f"hit (a, b) = ({a}, {b}) failed re-verification")
        curve_hits.append(CurveWithPoints(curve=curve, points=points))
    curve_hits.sort(key=_canonical_key)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return SearchReport(
        config=config,
        height_bound=height,
        hits=tuple(curve_hits),
        search_space_size=space,
        elapsed_ms=elapsed_ms,
        complete=complete,
        workers=workers,
    )


def count_square_classes(config: Config, height: int) -> ClassCountTable:
    """Diagnostic: how many candidates pass each coordinate's s-th-power
    condition alone."""
    if height < 1:
        raise ValueError("height must be >= 1")
    counts = [0] * (config.n + 1)
    space = 0
    for a, b in _candidates(height, -height, height + 1):
        space += 1
        for idx, power in enumerate(config.powers):
            value = config.alphas[idx] * (a * power + b)
            if is_sth_power(value, config.s) is not None:
                counts[idx] += 1
    return ClassCountTable(
        config=config,
        height_bound=height,
        per_index=tuple(counts),
        search_space_size=space,
    )
