"""Runs one workload in a fresh interpreter and prints its numbers.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SIZE

``run.py`` starts this from the root of a checkout, so that import state,
``lru_cache`` contents and peak memory never carry over from one workload
to the next.  It prints one JSON object: the ops attempted and failed,
the first errors, the metric values by name, and with TRACE = 1 the
per-function counters and the spans.

With TRACE = 0 the run measures whole cycles until SECONDS have passed
and reports the end-to-end metrics.  With TRACE = 1 it runs one cycle
untraced, then the same cycle traced (search with one worker only, since
counters in forked workers are lost), so every ``calls`` count is a
function of the seed alone, and reports the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Log:
    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []

    def add(self, outcome: workloads.Outcome) -> workloads.Outcome:
        self.attempted += 1
        if outcome.error is not None:
            self.errors.append(f"{outcome.tag}: {outcome.error}")
        return outcome

    def run(self, ops) -> list[workloads.Outcome]:
        return [self.add(workloads.run_op(op)) for op in ops]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rate(outcomes, tags) -> float:
    picked = [o for o in outcomes if o.tag in tags]
    return ratio(sum(o.counts["items"] for o in picked), sum(o.seconds for o in picked))


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024  # ru_maxrss is in KiB on Linux


def timed_run(wl: workloads.Workload, log: Log, seconds: float) -> tuple[dict, dict, dict]:
    """One whole cycle, then ops in cycle order until ``seconds`` have passed.

    Every cycle does the same work, so op i of one cycle repeats op i of
    every other.  The host-speed sampler runs during the ops that make the
    metrics, and each such op's time is scaled to the reference host speed
    (``hostspeed``).  Each op's time is then its median across cycles: the
    time of a cycle is the sum of these, and ``op_p50_ref_ms`` is their
    median.  The same figures unscaled are returned too, for the run
    metadata.
    """
    sampler = hostspeed.Sampler()
    cycles: list[list[tuple[workloads.Outcome, float, float]]] = []
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline:
        done = []
        for op in wl.cycle(len(cycles)):
            if cycles and time.perf_counter() >= deadline:
                break
            start = time.perf_counter()
            if op.tag in wl.rate_tags:
                with sampler.running():
                    outcome = workloads.run_op(op, sampler)
            else:
                outcome = workloads.run_op(op)
            done.append((log.add(outcome), start, time.perf_counter()))
        cycles.append(done)

    def summary(seconds_of) -> tuple[float, float]:
        repeats = [[c[i] for c in cycles if i < len(c)] for i in range(len(cycles[0]))]
        rated = [r for r in repeats if r[0][0].tag in wl.rate_tags]
        items = sum(r[0][0].counts["items"] for r in rated)
        cycle_s = sum(statistics.median(map(seconds_of, r)) for r in rated)
        latencies = [
            statistics.median(seconds_of(x) * 1000 for x in r)
            for r in repeats
            if r[0][0].tag == wl.latency_tag
        ]
        return ratio(items, cycle_s), statistics.median(latencies)

    def scaled(x) -> float:
        outcome, start, end = x
        return outcome.seconds * hostspeed.PROBE_REF_MS / sampler.speed_ms(start, end)

    items_ref, p50_ref = summary(scaled)
    items_raw, p50_raw = summary(lambda x: x[0].seconds)
    metrics = {
        "items_per_ref_s": items_ref,
        "op_p50_ref_ms": p50_ref,
        "peak_rss_mib": peak_rss_mib(),
    }
    raw = {"items_per_s_raw": items_raw, "op_p50_ms_raw": p50_raw}
    samples = {
        "op": [[(o.tag, o.seconds, start, end) for o, start, end in c] for c in cycles],
        "probes": sampler.samples,
    }
    return metrics, raw, samples


def traced_run(wl: workloads.Workload, log: Log, import_s: float):
    plain = log.run(wl.cycle(0))
    tracer = tracing.Tracer()
    traced = []
    with tracing.installed(tracer):
        for op in wl.cycle(0):
            if op.tag != "2w":
                tracer.op = len(traced)
                traced.append(log.add(workloads.run_op(op)))

    candidates = sum(o.counts["items"] for o in traced if o.tag == "1w")
    hits = sum(o.counts.get("hits", 0) for o in traced if o.tag == "1w")
    curves = sum(o.counts["items"] for o in traced if o.tag in ("chain", "conic"))
    emitted = sum(o.counts["items"] for o in traced if o.tag == "conic")
    rate_1w, rate_2w = rate(plain, ("1w",)), rate(plain, ("2w",))
    chains = [o.seconds * 1000 for o in plain if o.tag == "chain"]
    calls, self_s = tracer.calls, tracer.self_s
    metrics = {
        "search.search_ab.self_s": self_s("search.search_ab"),
        "search.candidates": candidates,
        "search.hits": hits,
        "search.hit_ratio": ratio(hits, candidates),
        "search.cands_per_s_2w": rate_2w,
        "search.parallel_efficiency": ratio(rate_2w, 2 * rate_1w),
        "arith.root_tests_per_candidate": ratio(
            calls("arith.integer_nth_root"), candidates
        ),
        "arith.cyclotomic.mul_calls": calls("arith.cyclotomic.__mul__"),
        "arith.cyclotomic.self_s": self_s("arith.cyclotomic"),
        "config.violations.self_s": self_s("config.violations"),
        "config.validate.per_curve": ratio(calls("config.validate"), curves),
        "fiber.build_fiber.per_curve": ratio(calls("fiber.build_fiber"), curves),
        "fiber.smooth_at.self_s": self_s("fiber.smooth_at"),
        "fiber.trivial_points.self_s": self_s("fiber.trivial_points"),
        "birat.to_fiber_point.self_s": self_s("birat.to_fiber_point"),
        "birat.from_fiber_point.self_s": self_s("birat.from_fiber_point"),
        "birat.solve_ab.self_s": self_s("birat.solve_ab"),
        "conic.find_base_point.self_s": self_s("conic.find_base_point"),
        "conic.directions_per_curve": ratio(calls("conic.parametrize"), emitted),
        "fixtures.load.self_s": self_s("fixtures.load"),
        "fixtures.verify.self_s": self_s("fixtures.verify"),
        "jsonio.self_s": self_s("jsonio"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.import_s": import_s,
        "roundtrip.curve_p95_ms": (
            statistics.quantiles(chains, n=20)[18] if len(chains) > 1 else sum(chains)
        ),
        "trace.overhead": ratio(
            sum(o.seconds for o in traced),
            sum(o.seconds for o in plain if o.tag != "2w"),
        ),
    }
    for name in (
        "arith.is_sth_power", "arith.integer_nth_root", "arith.parse_rational",
        "arith.format_rational", "config.validate", "fiber.build_fiber",
        "fiber.on_fiber", "fiber.ProjPoint", "linalg.matrix_rank",
        "linalg.clear_denominators", "family.contains", "conic.parametrize",
    ):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    return metrics, tracer


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, size = argv
    start = time.perf_counter()
    import fibercurve.cli  # noqa: F401

    import_s = time.perf_counter() - start
    wl = workloads.WORKLOADS[workload](int(seed), size == "tiny")
    log = Log()
    log.run(wl.setup())
    log.run(wl.warmup())
    result: dict = {}
    if trace == "1":
        metrics, tracer = traced_run(wl, log, import_s)
        result["samples"] = {"stats": tracer.stats, "spans": tracer.spans}
    else:
        metrics, result["raw"], result["samples"] = timed_run(wl, log, float(seconds))
    result.update(
        attempted=log.attempted,
        failed=len(log.errors),
        errors=log.errors[:20],
        metrics=metrics,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
