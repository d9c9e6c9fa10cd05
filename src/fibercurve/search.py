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

The box is scanned one u at a time, the v of a row (u, w) as the bits of
an int (bit j stands for v = j - H), the rows of a u side by side in
slabs (row w at bit (w - w_lo) stride).  Modulo a prime m with
gcd(s, m - 1) > 1 not every residue is an s-th power, and
M mod m = c0 + c1 v is affine in v.  When m divides p q w, both c0 and c1
vanish and m rejects nothing.  Otherwise M = c1 (v - v0) mod m with
v0 = -u (p/q)^r, so the allowed v are the bit pattern of the residues d
with c1 d an s-th power, shifted by v0.  For one alpha and m the pattern
depends on w only, through the character of w^(s-1) mod m, and the shift
on u only: each (alpha, prime) is one int per slab, and one shift and one
AND sieve all its rows.  The stride is the row width plus the largest
sieve prime that may get slab tables, so that no shift moves a bit into
the next row.  A row starts from the mask of v with gcd(u, v, w) = 1.
For even s a sign stage first keeps, per alpha, the half-line of v with
M >= 0 (M has the sign of p (u p^r + v q^r); M = 0, the witness y = 0,
stays).  Each row with survivors goes once to the exact root test.  The
sieve needs p q^((r+1)(s-1)) only modulo its primes; the exact power, of
(r+1)(s-1) log q bits, is made only when a row first reaches the root test.

A prime's slab tables cost about one piece per row of the box, and most
candidates die at the first few primes, so the primes get tables in
order, each only once more than H candidates of the search have reached
it; the slab at hand is then sieved with them.  Until then the
candidates that reach a prime are tested one at a time, with the
predicate of a pattern bit: M mod m, from w^(s-1) mod m, is 0 or has
M^((m-1)/gcd(s, m-1)) = 1.  A prime m > SLAB_BITS never gets tables,
since they would make every row piece at least m bits long.  Which
primes get tables changes no hit and no counter.

For odd s, M(-u, -v, w) = -M(u, v, w) and (-t)^s = -t^s, so (u, v, w) is
a hit exactly when (-u, -v, w) is, roots negated, and the sieve passes c
exactly when it passes -c.  So only u > 0 is scanned, each row mirrored
to -u in the same block; every counter still covers the whole box.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from . import arith
from .birat import CurveWithPoints
from .config import Config
from .family import AffinePoint, FamilyCurve

# Primes per search.  Past the first few, a prime only costs work on the
# rare rows still alive, and each one passes about 1/gcd(s, m - 1) of the
# non-powers.
SIEVE_PRIMES = 15
# Bits of one slab: the rows (u, w) of a u are sieved SLAB_BITS // stride
# at a time, in one int (see ``_scan``); no sieve prime above SLAB_BITS
# gets slab tables.
SLAB_BITS = 1 << 13


class SearchReport(NamedTuple):
    config: Config
    height_bound: int
    hits: tuple[CurveWithPoints, ...]
    search_space_size: int
    elapsed_ms: int
    complete: bool
    workers: int
    # candidates past the sign stage and every prime: the root-tested ones
    sieve_survivors: int
    block_us: tuple[int, ...]  # time of each u-block


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % k for k in range(2, isqrt(m) + 1))


def _sieve_primes(s: int) -> list[int]:
    """The first SIEVE_PRIMES primes m modulo which not every residue is an
    s-th power, i.e. with gcd(s, m - 1) > 1: the smallest of the first
    SIEVE_PRIMES primes m = 1 mod p, over the primes p dividing s (m = 1
    mod a divisor d of s is 1 mod every prime dividing d)."""
    divisors, rest, p = [], s, 2
    while p * p <= rest:  # trial division; what is left above 1 is prime
        if rest % p == 0:
            divisors.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        divisors.append(rest)
    primes: set[int] = set()
    for p in divisors:
        stream = filter(_is_prime, itertools.count(p + 1, p))
        primes.update(itertools.islice(stream, SIEVE_PRIMES))
    return sorted(primes)[:SIEVE_PRIMES]


class _Patterns(dict):
    """Sieve patterns of one prime m, keyed by the residue c1 the search
    meets and shared per character c1^k, k = (m-1)/g, g = gcd(s, m - 1).
    The pattern of c1 has bit i set iff c1 i is an s-th power mod m, for
    i < bits, and no bit from bits on: the s-th powers, 0 and the k powers
    of h = x^g for the first x whose h has order k, times 1/c1, set one
    byte at a time."""

    def __init__(self, m: int, s: int, bits: int):
        super().__init__({0: (1 << bits) - 1})  # c1 = 0 rejects nothing
        g = gcd(s, m - 1)
        self.m, self.k, self.bits, self.shared = m, (m - 1) // g, bits, {}
        for x in itertools.count(1):
            h, self.powers = pow(x, g, m), [0, 1]
            while (y := self.powers[-1] * h % m) != 1:
                self.powers.append(y)
            if len(self.powers) == self.k + 1:
                break

    def __missing__(self, c1: int) -> int:
        chi, m = pow(c1, self.k, self.m), self.m
        if chi not in self.shared:
            inverse, period = pow(c1, -1, m), bytearray(m // 8 + 1)
            for d in self.powers:
                x = inverse * d % m
                period[x >> 3] |= 1 << (x & 7)
            base, copies = int.from_bytes(period, "little"), range(self.bits // m + 1)
            self.shared[chi] = sum(base << m * j for j in copies) & self[0]
        self[c1] = self.shared[chi]
        return self[c1]


def _scan(config: Config, height: int, workers: int):
    """Sieve and root-test the rows (u, w) of at most ``workers`` blocks of
    contiguous u in turn, all blocks sharing the per-alpha tables and the
    slabs.  For even s the blocks split the u != 0 of -H <= u <= H; for
    odd s they split 1 <= u <= H, and a block adds the mirrors of its rows
    at -u.

    A candidate survives when it passes the sign stage (even s) and the
    sieve of every alpha, and is a hit when every alpha's value is an s-th
    power; a prime gets slab tables only once candidates reach it (see the
    module docstring).  Yields (hits, candidates, survivors, block_us) per
    block; a hit is (u, v, w, roots).
    """
    r, s, H = config.r, config.s, height
    primes = _sieve_primes(s)
    width = 2 * H + 1
    row_bits = (1 << width) - 1
    # Row w of a slab of rows w_lo <= w < w_hi sits at bit (w - w_lo) stride,
    # in whole bytes.  A pattern of m holds width + m bits, so a shift by
    # less than m moves no bit of a row into the next one.  Only the primes
    # m <= SLAB_BITS may get slab tables, so a row costs at most SLAB_BITS
    # more than its width.
    tabled = [m for m in primes if m <= SLAB_BITS]
    stride = (width + max(tabled, default=0) + 7) // 8 * 8
    rows = max(1, SLAB_BITS // stride)
    columns = {  # per prime l <= H, the v of a row with l | v
        l: sum(1 << j for j in range(H % l, width, l))
        for l in filter(_is_prime, range(2, H + 1))}
    # Per slab: its w, the v != 0 of its rows, a one per row, per prime
    # l <= H dividing some w the mask with the (v, w) of l | gcd(v, w)
    # cleared, and one pattern per sieve.
    slabs = []
    for lo in range(1, H + 1, rows):
        span = range(lo, min(lo + rows, H + 1))
        ones = sum(1 << (w - lo) * stride for w in span)
        keep = {}
        for l, column in columns.items():
            if drop := sum(1 << (w - lo) * stride for w in span if w % l == 0):
                keep[l] = ~(drop * column)
        slabs.append((span, ones * (row_bits ^ 1 << H), ones, keep, []))
    # Per alpha: (p, q, p^r, q^r).  Per prime m with no slab tables yet, in
    # order: (m, k = (m - 1) / gcd(s, m - 1), per alpha with m not dividing
    # p q the residues of (p q^((r+1)(s-1)), p^r, q^r) mod m), and the count
    # of candidates that have reached m.  Per (prime, alpha) with slab
    # tables: (m, (p/q)^r mod m), and a pattern per slab.  Per alpha, once a
    # row reaches the root test: (p q^((r+1)(s-1)), p^r, q^r, q^(r+1)).
    alphas = [(a.numerator, a.denominator, a.numerator**r, a.denominator**r)
              for a in config.alphas]
    exact, sieves, exponent = [], [], (r + 1) * (s - 1)
    pending = [(m, (m - 1) // gcd(s, m - 1),
                [(c, p_r % m, q_r % m) for p, q, p_r, q_r in alphas
                 if (c := p * pow(q, exponent, m) % m)])
               for m in primes]
    reached = dict.fromkeys(primes, 0)

    def build():
        """Move the first pending prime m to the sieves, with a pattern per
        slab.  Row w's pattern depends only on the class of w^(s-1) mod m,
        its character or 0, so a slab is one pattern per class, copied as
        bytes to the rows of the class; the tables are dropped after."""
        m, _, coefficients = pending.pop(0)
        tables = _Patterns(m, s, width + m)
        classes = []  # per slab: each row's character, a w^(s-1) per character
        for span, *_ in slabs:
            ws = [pow(w, s - 1, m) for w in span]
            chis = [pow(x, tables.k, m) for x in ws]
            classes.append((chis, dict(zip(chis, ws))))
        for c, p_r, q_r in coefficients:
            sieves.append((m, p_r * pow(q_r, -1, m) % m))
            c1 = c * q_r % m  # c1 at w = 1
            for slab, (chis, reps) in zip(slabs, classes):
                piece = {chi: tables[c1 * x % m].to_bytes(stride // 8, "little")
                         for chi, x in reps.items()}
                slab[-1].append(int.from_bytes(
                    b"".join([piece[chi] for chi in chis]), "little"))

    def scan_u(u):
        """(hits, candidates, survivors) of the rows (u, w), 1 <= w <= H."""
        sign = row_bits  # even s: the v with M >= 0 for every alpha
        if s % 2 == 0:
            for p, _, p_r, q_r in alphas:
                if p > 0:  # M >= 0 for v >= -u p^r / q^r
                    sign &= -1 << min(max(H - u * p_r // q_r, 0), width)
                else:  # v <= -u p^r / q^r
                    sign &= (1 << min(max(H + 1 + -u * p_r // q_r, 0), width)) - 1
        shifts = [(u * e - H) % m for m, e in sieves]
        factors = [l for l in columns if u % l == 0]
        hits: list = []
        candidates = survivors = 0
        for span, mask, ones, keep, pats in slabs:
            for l in factors:
                mask &= keep.get(l, -1)
            candidates += mask.bit_count()
            mask &= sign * ones
            for pat, shift in zip(pats, shifts):
                mask &= pat >> shift
                if not mask:
                    break
            else:
                # the first pending prime m gets its tables once more than
                # H candidates have reached it, and this slab is sieved
                # with them
                while (mask and pending and (m := pending[0][0]) <= SLAB_BITS
                       and reached[m] + mask.bit_count() > H):
                    built = len(sieves)
                    build()
                    shifts += [(u * e - H) % m for m, e in sieves[built:]]
                    for pat, shift in zip(pats[built:], shifts[built:]):
                        mask &= pat >> shift
                while mask:
                    i = ((mask & -mask).bit_length() - 1) // stride
                    row = mask >> i * stride & row_bits
                    mask ^= row << i * stride
                    if row := _residue_test(u, span[i], row, H, s, pending, reached):
                        survivors += row.bit_count()
                        if not exact:
                            exact.extend((p * q**exponent, p_r, q_r, q * q_r)
                                         for p, q, p_r, q_r in alphas)
                        _root_test(u, span[i], row, H, s, exact, hits)
        return hits, candidates, survivors

    odd = s % 2
    us = [u for u in range(1 if odd else -H, H + 1) if u]
    per = -(-len(us) // workers)
    for lo in range(0, len(us), per):
        start = time.perf_counter()
        candidates = survivors = 0
        hits: list = []
        for u in us[lo:lo + per]:
            found, count, alive = scan_u(u)
            hits += found
            if odd:  # the rows of -u
                hits += [(-u, -v, w, tuple(-t for t in roots))
                         for _, v, w, roots in found]
            candidates += count * (1 + odd)
            survivors += alive * (1 + odd)
        block_us = int((time.perf_counter() - start) * 1e6)
        yield hits, candidates, survivors, block_us


def _residue_test(u, w, row, H, s, pending, reached) -> int:
    """The v of the row mask of (u, w) that pass every prime of ``pending``,
    tested one candidate at a time; ``reached`` counts the candidates that
    reach each prime.  For (m, k, coefficients) in ``pending``, each
    (c, p^r, q^r) mod m of ``coefficients`` gives M = c w^(s-1)
    (u p^r + v q^r) mod m, which must be 0 or an s-th power: M^k = 1."""
    for m, k, coefficients in pending:
        if not row:
            break
        reached[m] += row.bit_count()
        ws, rest = pow(w, s - 1, m), row
        lines = [(c * ws * u * p_r % m, c * ws * q_r % m)
                 for c, p_r, q_r in coefficients]
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1 - H
            for a, b in lines:  # M = a + b v mod m
                if (x := (a + b * v) % m) and pow(x, k, m) != 1:
                    row ^= low
                    break
    return row


def _root_test(u, w, mask, H, s, exact, out) -> None:
    """Append (u, v, w, roots) for each v in the row mask of (u, w) whose
    values for every alpha are s-th powers."""
    ws = w ** (s - 1)
    while mask:
        low = mask & -mask
        mask ^= low
        v = low.bit_length() - 1 - H
        roots = []
        for k, p_r, q_r, d in exact:
            t = arith.is_sth_power(k * ws * (u * p_r + v * q_r), s)
            if t is None:
                break
            roots.append(Fraction(t, d * w))
        else:
            out.append((u, v, w, tuple(roots)))


def _canonical_key(hit: CurveWithPoints):
    return (abs(hit.curve.a.numerator), hit.curve.b, hit.curve.a)


def search_ab(config: Config, height: int, workers: int = 1) -> SearchReport:
    """Every hit in the height-H box, exact by the root test, canonically
    ordered.

    The u-range is split into at most ``workers`` contiguous blocks (for
    odd s of u > 0, see ``_scan``), run one after another in this process;
    the merged hit list is sorted by (|numerator of a|, b, a), so the
    result does not depend on the partition.  Interruption returns a
    partial report, holding the blocks that finished, marked incomplete.
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
    try:
        for hits, count, alive, micros in _scan(config, height, workers):
            raw_hits.extend(hits)
            space += count
            survivors += alive
            block_us.append(micros)
    except KeyboardInterrupt:
        complete = False

    # every hit is exact by the root test: is_sth_power returns t only when
    # t^s = M = alpha (a alpha^r + b) D^s, D = q^(r+1) w, so y = t/D has
    # y^s = alpha (a alpha^r + b) and (alpha, y) lies on the curve
    curve_hits = []
    for u, v, w, roots in raw_hits:
        a, b = Fraction(u, w), Fraction(v, w)
        curve = FamilyCurve(r=config.r, s=config.s, a=a, b=b)
        points = tuple(AffinePoint(x, y) for x, y in zip(config.alphas, roots))
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
        sieve_survivors=survivors,
        block_us=tuple(block_us),
    )
