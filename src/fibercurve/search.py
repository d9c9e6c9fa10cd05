"""Height-bounded exhaustive search for family members through a
configuration.

Candidates (a, b) = (u/w, v/w) range over |u|, |v| <= H, 1 <= w <= H with
gcd(u, v, w) = 1 and uv != 0; a candidate is a hit when every
alpha_i (a alpha_i^r + b) is a rational s-th power.  Hits carry witnessed
points (nonnegative y for even s) and are reported in a canonical order
independent of how the work was partitioned.  Reports are evidence about
the searched box only; nothing is claimed beyond the height bound.

The test is on integers.  For alpha = p/q in lowest terms put
D = q^(r+1) w and

    M = p q^((r+1)(s-1)) w^(s-1) (u p^r + v q^r),

so that alpha (a alpha^r + b) D^s = M.  The value is a rational s-th power
exactly when M is an integer s-th power t^s (for even s, M >= 0 and
t >= 0), and then its root is y = t/D.

The box is scanned one row (u, w) at a time, with the v of the row as the
bits of an int: bit j stands for v = j - H.  Modulo a prime m with
gcd(s, m - 1) > 1 not every residue is an s-th power, and
M mod m = c0 + c1 v is affine in v.  When m divides p q w, both c0 and c1
vanish and m rejects nothing.  Otherwise M = c1 (v - v0) mod m with
v0 = -u (p/q)^r, so the allowed v are the bit pattern of the residues d
with c1 d an s-th power, shifted by v0: one shift and one AND per
(alpha, prime) sieve the whole row.  A row starts from the mask of v
coprime to gcd(u, w).  For even s a sign stage first keeps, per alpha,
the half-line of v with M >= 0 (M has the sign of p (u p^r + v q^r);
M = 0, the witness y = 0, stays).  Only the survivors reach the exact
root test.

For odd s, M(-u, -v, w) = -M(u, v, w) and (-t)^s = -t^s, so (u, v, w) is
a hit exactly when (-u, -v, w) is, roots negated, and the sieve passes c
exactly when it passes -c.  The rows of |u| are scanned once per search
and mirrored to -u; every counter still covers the whole box.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

from . import arith
from .birat import CurveWithPoints
from .config import Config
from .family import AffinePoint, FamilyCurve, contains

EVIDENCE_NOTE = (
    "height-bounded evidence only; no finiteness or emptiness claim"
)

# Primes per search.  Past the first few, a prime only costs work on the
# rare rows still alive, and each one passes about 1/gcd(s, m - 1) of the
# non-powers.
SIEVE_PRIMES = 15


@dataclass(frozen=True)
class SearchReport:
    config: Config
    height_bound: int
    hits: tuple[CurveWithPoints, ...]
    search_space_size: int
    elapsed_ms: int
    complete: bool
    workers: int
    # counters of the run: candidates, sieve_survivors (past the sign stage
    # and every prime: root-tested), root_rejections, hits, workers,
    # block_us (time of each u-block); a dict, so it stays out of the hash
    stats: dict = field(hash=False)
    note: str = EVIDENCE_NOTE


def _sieve_primes(s: int) -> list[int]:
    """The first SIEVE_PRIMES primes m modulo which not every residue is an
    s-th power, i.e. with gcd(s, m - 1) > 1: the smallest of the first
    SIEVE_PRIMES primes m = 1 mod d, over the divisors d > 1 of s."""
    primes: set[int] = set()
    for d in range(2, s + 1):
        if s % d == 0:
            stream = (m for m in itertools.count(d + 1, d)
                      if all(m % k for k in range(2, isqrt(m) + 1)))
            primes.update(itertools.islice(stream, SIEVE_PRIMES))
    return sorted(primes)[:SIEVE_PRIMES]


class _Patterns(dict):
    """Sieve patterns of one prime m, keyed by the residue c1 the search
    meets and shared per character c1^k, k = (m-1)/g, g = gcd(s, m - 1).
    The pattern of c1 has bit i set iff c1 i is an s-th power mod m, for
    i < bits: the s-th powers, 0 and the k powers of h = x^g for the first
    x whose h has order k, times 1/c1."""

    def __init__(self, m: int, s: int, bits: int):
        super().__init__({0: (1 << bits) - 1})  # c1 = 0 rejects nothing
        g = gcd(s, m - 1)
        self.m, self.k, self.shared = m, (m - 1) // g, {}
        for x in itertools.count(1):
            h, self.powers = pow(x, g, m), [0, 1]
            while (y := self.powers[-1] * h % m) != 1:
                self.powers.append(y)
            if len(self.powers) == self.k + 1:
                break
        self.repeat = sum(1 << m * j for j in range((bits + m - 1) // m))

    def __missing__(self, c1: int) -> int:
        chi = pow(c1, self.k, self.m)
        if chi not in self.shared:
            inverse = pow(c1, -1, self.m)
            self.shared[chi] = self.repeat * sum(
                1 << inverse * d % self.m for d in self.powers)
        self[c1] = self.shared[chi]
        return self[c1]


def _scan(config: Config, height: int, blocks):
    """Sieve and root-test the rows (u, w) of each block [u_lo, u_hi) of
    u in turn, all blocks sharing the per-alpha and per-w tables.

    A candidate survives when it passes the sign stage (even s) and the
    sieve of every alpha, and is a hit when every alpha's value is an s-th
    power.  Yields (hits, candidates, survivors, block_us) per block; a hit
    is (u, v, w, roots).
    """
    r, s, H = config.r, config.s, height
    primes = _sieve_primes(s)
    width = 2 * H + 1
    # Per alpha: (p q^((r+1)(s-1)), p^r, q^r, q^(r+1)) and, per prime m
    # not dividing p q, (m, (p/q)^r mod m, c1 at w = 1).
    exact, sieves = [], []
    for alpha in config.alphas:
        p, q = alpha.numerator, alpha.denominator
        p_r, q_r = p**r, q**r
        k = p * q ** ((r + 1) * (s - 1))
        exact.append((k, p_r, q_r, q ** (r + 1)))
        sieves += [
            (m, p_r * pow(q_r, -1, m) % m, k * q_r % m)
            for m in primes
            if p % m and q % m
        ]

    tables = {m: _Patterns(m, s, width + m) for m in primes}
    coprime: dict[int, int] = {}  # gcd(u, w) -> mask of its coprime v
    rows_w = []
    for w in range(1, H + 1):
        ws = w ** (s - 1)
        tests = [(k * ws, p_r, q_r, d * w) for k, p_r, q_r, d in exact]
        w_m = {m: pow(w, s - 1, m) for m in primes}
        pats = [tables[m][c1 * w_m[m] % m] for m, _, c1 in sieves]
        rows_w.append((w, tests, pats))

    def scan_u(u):
        """(hits, candidates, survivors) of the rows (u, w), 1 <= w <= H."""
        sign = -1  # even s: the v with M >= 0 for every alpha
        if s % 2 == 0:
            for k, p_r, q_r, _ in exact:
                if k > 0:  # k has the sign of p; v >= -u p^r / q^r
                    sign &= -1 << min(max(H - u * p_r // q_r, 0), width)
                else:  # v <= -u p^r / q^r
                    sign &= (1 << min(max(H + 1 + -u * p_r // q_r, 0), width)) - 1
        shifts = [(u * e - H) % m for m, e, _ in sieves]
        hits: list = []
        candidates = survivors = 0
        for w, tests, pats in rows_w:
            g = gcd(u, w)
            row = coprime.get(g)
            if row is None:
                row = coprime[g] = sum(
                    1 << j for j in range(width)
                    if j != H and gcd(g, j - H) == 1
                )
            candidates += row.bit_count()
            mask = row & sign
            for pat, shift in zip(pats, shifts):
                mask &= pat >> shift
                if not mask:
                    break
            else:
                survivors += mask.bit_count()
                _root_test(u, w, mask, H, s, tests, hits)
        return hits, candidates, survivors

    # odd s: the rows of |u|, scanned once per call and mirrored to -u
    mirrored: dict[int, tuple] = {}
    for u_lo, u_hi in blocks:
        start = time.perf_counter()
        candidates = survivors = 0
        hits: list = []
        for u in range(u_lo, u_hi):
            if u == 0:
                continue
            if s % 2 and abs(u) not in mirrored:
                mirrored[abs(u)] = scan_u(abs(u))
            found, count, alive = mirrored[abs(u)] if s % 2 else scan_u(u)
            if s % 2 and u < 0:
                found = [(u, -v, w, tuple(-t for t in roots))
                         for _, v, w, roots in found]
            hits += found
            candidates += count
            survivors += alive
        block_us = int((time.perf_counter() - start) * 1e6)
        yield hits, candidates, survivors, block_us


def _root_test(u, w, mask, H, s, tests, out) -> None:
    """Append (u, v, w, roots) for each v in mask whose values for every
    alpha are s-th powers."""
    while mask:
        low = mask & -mask
        mask ^= low
        v = low.bit_length() - 1 - H
        roots = []
        for k, p_r, q_r, d in tests:
            t = arith.is_sth_power(k * (u * p_r + v * q_r), s)
            if t is None:
                break
            roots.append(t / d)
        else:
            out.append((u, v, w, tuple(roots)))


def _canonical_key(hit: CurveWithPoints):
    return (abs(hit.curve.a.numerator), hit.curve.b, hit.curve.a)


def search_ab(config: Config, height: int, workers: int = 1) -> SearchReport:
    """Every hit in the height-H box, fully verified, canonically ordered.

    The u-range is split into at most ``workers`` contiguous blocks, run
    one after another in this process; the merged hit list is sorted by
    (|numerator of a|, b, a), so the result does not depend on the
    partition.  Interruption returns a partial report, holding the blocks
    that finished, marked incomplete.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    start = time.monotonic()
    raw_hits: list[tuple[int, int, int, tuple[Fraction, ...]]] = []
    space = survivors = 0
    block_us: list[int] = []
    complete = True
    span = 2 * height + 1
    per = (span + workers - 1) // workers
    blocks = [
        (lo, min(lo + per, height + 1))
        for lo in range(-height, height + 1, per)
    ]
    try:
        for hits, count, alive, micros in _scan(config, height, blocks):
            raw_hits.extend(hits)
            space += count
            survivors += alive
            block_us.append(micros)
    except KeyboardInterrupt:
        complete = False

    curve_hits = []
    for u, v, w, roots in raw_hits:
        a, b = Fraction(u, w), Fraction(v, w)
        curve = FamilyCurve(r=config.r, s=config.s, a=a, b=b)
        points = tuple(AffinePoint(x, y) for x, y in zip(config.alphas, roots))
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
        stats={
            "candidates": space,
            "sieve_survivors": survivors,
            "root_rejections": survivors - len(raw_hits),
            "hits": len(curve_hits),
            "workers": workers,
            "block_us": block_us,
        },
    )
