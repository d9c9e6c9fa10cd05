"""The four workloads: their ops and the exact check of every output.

An op is one unit of benchmark work made of one or more ``fibercurve``
verbs, each run in-process through ``fibercurve.cli.main(argv)`` with
stdout captured, so argument parsing, JSON decoding and encoding stay on
the measured path.  Only the time inside ``cli.main`` counts; building
argv and checking outputs do not.  A wrong exit code or a wrong output
fails the op; failed ops are counted and never retried.

A workload is a fixed list of ops per cycle, and every cycle does the
same work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

import inputs


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Verbs:
    """Runs verbs through ``cli.main`` and adds up the time spent in them,
    less the time of host-speed probes that interrupted them."""

    def __init__(self, sampler=None) -> None:
        self.seconds = 0.0
        self.sampler = sampler

    def __call__(self, *argv: str) -> str:
        from fibercurve import cli

        out, err = io.StringIO(), io.StringIO()
        probed = self.sampler.probe_s if self.sampler else 0.0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        finally:
            self.seconds += time.perf_counter() - start
            if self.sampler:
                self.seconds -= self.sampler.probe_s - probed
        expect(code == 0, f"{argv[0]}: exit code {code}; stderr {err.getvalue()[:300]!r}")
        return out.getvalue()


@dataclass
class Op:
    tag: str  # which metric the op feeds, e.g. "1w" or "chain"
    body: Callable[[Verbs], dict]  # runs the verbs, checks, returns counts


@dataclass
class Outcome:
    tag: str
    seconds: float
    counts: dict  # {"items": ...} and workload-specific counts
    error: str | None


def run_op(op: Op, sampler=None) -> Outcome:
    verbs = Verbs(sampler)
    try:
        counts = op.body(verbs)
        error = None
    except CheckFailed as exc:
        counts, error = {"items": 0}, str(exc)
    except Exception as exc:  # a crash inside the program is a failed op
        counts, error = {"items": 0}, f"{type(exc).__name__}: {exc}"
    return Outcome(op.tag, verbs.seconds, counts, error)


class Workload:
    rate_tags: tuple[str, ...]  # ops whose items and time make items_per_s
    latency_tag: str  # ops whose latencies make op_p50_ms

    def setup(self) -> list[Op]:
        """Untimed preparation that needs the program."""
        return []

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def cycle(self, k: int) -> list[Op]:
        raise NotImplementedError


# --- search ----------------------------------------------------------------


def box_size(height: int) -> int:
    """Candidates (u/w, v/w) with |u|, |v| <= H, 1 <= w <= H, uv != 0 and
    gcd(u, v, w) = 1, counted independently of the program."""
    total = 0
    for u in range(1, height + 1):
        for v in range(1, height + 1):
            g = gcd(u, v)
            total += sum(1 for w in range(1, height + 1) if gcd(g, w) == 1)
    return 4 * total


class Search(Workload):
    """``search-ab`` on two planted configurations, with 1 and 2 workers."""

    rate_tags = ("1w",)
    latency_tag = "1w"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.height = 6 if tiny else 24
        self.cases = inputs.search_cases(seed)
        self.sizes = {h: box_size(h) for h in (6, self.height)}
        self.reference: dict[tuple, list] = {}  # (case, H) -> hits of 1 worker

    def _op(self, idx: int, height: int, workers: int) -> Op:
        case = self.cases[idx]

        def body(verbs: Verbs) -> dict:
            out = verbs(
                "search-ab", "--config", case.config,
                "--height", str(height), "--workers", str(workers),
            )
            report = json.loads(out)
            expect(report["complete"] is True, "search report incomplete")
            expect(report["workers"] == workers, "wrong worker count reported")
            expect(report["search_space_size"] == self.sizes[height],
                   f"search_space_size {report['search_space_size']} != "
                   f"{self.sizes[height]}")
            hits = report["hits"]
            pairs = [(h["curve"]["a"], h["curve"]["b"]) for h in hits]
            expect(case.planted in pairs,
                   f"planted (a, b) = {case.planted} not among the hits")
            ref = self.reference.setdefault((idx, height), hits)
            expect(hits == ref, "hit list differs from the 1-worker hit list")
            return {"items": report["search_space_size"], "hits": len(hits)}

        return Op("1w" if workers == 1 else "2w", body)

    def warmup(self) -> list[Op]:
        return [self._op(i, 6, w) for i in range(len(self.cases)) for w in (1, 2)]

    def cycle(self, k: int) -> list[Op]:
        return [
            self._op(i, self.height, w) for i in range(len(self.cases)) for w in (1, 2)
        ]


# --- roundtrip -------------------------------------------------------------


def _chain(curve: inputs.Curve) -> Op:
    """push -> fiber-verify -> lift; the lift must give back the input."""
    cwp = curve.obj()
    payload = json.dumps(cwp)
    config = json.dumps(curve.config_obj())
    k = next(i for i, (_, y) in enumerate(curve.points) if y != 0)

    def body(verbs: Verbs) -> dict:
        point = verbs("push", "--input", payload)
        report = json.loads(verbs("fiber-verify", "--config", config, "--point", point))
        expect(report["on_fiber"] is True and report["smooth"] is True,
               f"fiber-verify reports {report}")
        coord = Fraction(json.loads(point)["coords"][k])
        expect(coord != 0, "pushed point has Y_k = 0 where y_k != 0")
        scale = inputs.fmt(curve.points[k][1] / coord)
        lifted = json.loads(
            verbs("lift", "--config", config, "--point", point, "--scale", scale)
        )
        expect(lifted == cwp, "lift did not return the input curve")
        return {"items": 1}

    return Op("chain", body)


def _fixture_verify(name: str) -> Op:
    def body(verbs: Verbs) -> dict:
        report = json.loads(verbs("fixtures", name, "--verify"))
        expect(report["name"] == name and report["verified"] is True,
               f"fixture {name} not verified")
        return {"items": 0}

    return Op("fixture", body)


class Roundtrip(Workload):
    """Planted curves and both fixture curves through push, fiber-verify
    and lift, plus ``fixtures <name> --verify`` for each fixture."""

    rate_tags = ("chain", "fixture")
    latency_tag = "chain"
    fixtures = ("watkins14", "rogers7")

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.curves = inputs.planted_curves(seed, 4 if tiny else None)

    def setup(self) -> list[Op]:
        """Add the fixture curves, read through the ``fixtures`` verb."""

        def body(verbs: Verbs) -> dict:
            for name in self.fixtures:
                obj = json.loads(verbs("fixtures", name))
                self.curves.append(inputs.Curve.from_obj(obj))
            return {"items": 0}

        return [Op("setup", body)]

    def warmup(self) -> list[Op]:
        lam = Fraction(5)  # a scaling that no cycle uses
        return [_chain(c.scaled(lam)) for c in self.curves[:3]] + [
            _fixture_verify(name) for name in self.fixtures
        ]

    def cycle(self, k: int) -> list[Op]:
        # Odd cycles negate every x, so consecutive cycles never send the
        # same configuration while the work stays the same.
        lam = Fraction(-1 if k % 2 else 1)
        ops = [_chain(c.scaled(lam)) for c in self.curves]
        ops += [_fixture_verify(name) for name in self.fixtures]
        random.Random(self.seed).shuffle(ops)
        return ops


# --- conic -----------------------------------------------------------------

# SHA-256 of the "a b" lines of the curves that conic-enumerate emitted for
# each configuration at the commit that added this benchmark.  The stream
# is deterministic; a change to it is a change of the program's output.
CONIC_DIGESTS = {
    ('{"r": 2, "s": 2, "alphas": ["1", "2", "3"]}', 40):
        "ae3b82d280b31303f8e01a50599300609c334796f0ebc7ddd5a83d91398b5fcf",
    ('{"r": 2, "s": 2, "alphas": ["1", "2", "3"]}', 2000):
        "19cc3eb31aabe32a2feaedb15fa4942fe86d4241175a281273b7816b2e546629",
    ('{"r": 1, "s": 2, "alphas": ["1", "2", "5"]}', 40):
        "2a3195567fadb445b50833272a57697f268e04919dfaea5c502a92cd784a7fc9",
    ('{"r": 1, "s": 2, "alphas": ["1", "2", "5"]}', 2000):
        "4fb6bd165447e6597c186895df974156751f87ca4f91ed41a684421411d12f2d",
}


def _conic(config: str, count: int) -> Op:
    alphas = json.loads(config)["alphas"]

    def body(verbs: Verbs) -> dict:
        out = verbs("conic-enumerate", "--config", config,
                    "--count", str(count), "--height", "64")
        curves = [json.loads(line) for line in out.splitlines()]
        expect(len(curves) == count, f"{len(curves)} curves, expected {count}")
        expect(all([p["x"] for p in c["points"]] == alphas for c in curves),
               "emitted curve does not pass through the configuration")
        seq = "\n".join(f'{c["curve"]["a"]} {c["curve"]["b"]}' for c in curves)
        expect(hashlib.sha256(seq.encode()).hexdigest() == CONIC_DIGESTS[config, count],
               "(a, b) sequence differs from the recorded one")
        return {"items": count}

    return Op("conic", body)


class Conic(Workload):
    """``conic-enumerate`` on two fixed solvable genus-zero configurations."""

    rate_tags = ("conic",)
    latency_tag = "conic"
    configs = tuple(dict.fromkeys(config for config, _ in CONIC_DIGESTS))

    def __init__(self, seed: int, tiny: bool) -> None:
        self.count = 40 if tiny else 2000
        self.order = random.Random(seed).sample(self.configs, len(self.configs))

    def warmup(self) -> list[Op]:
        return [_conic(config, 40) for config in self.order]

    def cycle(self, k: int) -> list[Op]:
        return [_conic(config, self.count) for config in self.order]


# --- certify ---------------------------------------------------------------


def _certify(r: int, s: int, n: int) -> Op:
    def body(verbs: Verbs) -> dict:
        cert = json.loads(verbs("trivial-points", "--r", str(r), "--s", str(s),
                                "--n", str(n)))
        total = r ** (n + 1) * s ** (n + 1)
        expect((cert["r"], cert["s"], cert["n"]) == (r, s, n), "wrong case echoed")
        expect(cert["verified_count"] == cert["total_space"] == total,
               f"verified {cert['verified_count']} of {cert['total_space']}, "
               f"expected {total}")
        expect(cert["sampled"] is False, "certificate is sampled")
        return {"items": cert["verified_count"]}

    return Op("certify", body)


class Certify(Workload):
    """``trivial-points`` on fixed (r, s, n) cases, in a seeded order."""

    rate_tags = ("certify",)
    latency_tag = "certify"

    def __init__(self, seed: int, tiny: bool) -> None:
        cases = [(2, 2, 2), (2, 2, 3)] if tiny else [(3, 2, 4), (2, 3, 4), (3, 3, 3)]
        self.cases = random.Random(seed).sample(cases, len(cases))

    def warmup(self) -> list[Op]:
        return [_certify(2, 2, 2)]

    def cycle(self, k: int) -> list[Op]:
        return [_certify(*case) for case in self.cases]


WORKLOADS = {"search": Search, "roundtrip": Roundtrip, "conic": Conic, "certify": Certify}
