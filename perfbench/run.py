"""The fibercurve benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The program is taken from ``src/``
as it stands (the only build step is byte-compiling it); nothing needs
to be installed.  Each run:

1. with ``--trace 0``, times several cold starts of
   ``python -m fibercurve.cli fiber-genus --s 2 --n 13`` (``setup_s``);
2. runs the workload in a fresh interpreter (``worker.py``), which makes
   its inputs from the seed, checks every output exactly and measures.
   Every timed end-to-end metric is scaled to a reference host speed by
   probes of the host taken around and during the ops (``hostspeed.py``),
   since the shared machine's own speed drifts far more than a bound
   allows; the raw figures go to the run metadata;
3. writes the metrics, the run metadata and, when traced, the spans to
   ``perfbench/results/`` and prints the run metadata and then, as the
   last line, ``{"correct", "attempted", "failed", "metrics"}`` with every
   end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
   per-layer metric (``--trace 1``), each with its unit.

``--size tiny`` shrinks every workload so that the benchmark's own tests
run in seconds; the figures it gives are not comparable to full runs.
See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("search", "roundtrip", "conic", "certify")
RUN_LIMIT_S = 170  # the whole run must end within 180 s
SETUP_ARGV = ("-m", "fibercurve.cli", "fiber-genus", "--s", "2", "--n", "13")
SETUP_OUTPUT = "20481"  # genus of the fiber for s = 2, n = 13
SETUP_PROBES = 40  # host-speed probes on each side of a cold start


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def host_probe_ms() -> float:
    """Median of 100 host-speed probes, in ms: shows how fast the machine
    was at the start and end of a run."""
    return statistics.median(hostspeed.probe_ms() for _ in range(100))


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the program's files, for checkouts that are not repositories."""
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def program_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def measure_setup(root: Path, starts: int) -> tuple[float, float, list[str]]:
    """Median wall time of a cold CLI start, raw and scaled to the reference
    host speed by probes just before and after it, and any wrong outputs."""
    times, scaled, errors = [], [], []
    for _ in range(starts):
        before = [hostspeed.probe_ms() for _ in range(SETUP_PROBES)]
        begin = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *SETUP_ARGV],
            cwd=root, env=program_env(root), capture_output=True, text=True, timeout=60,
        )
        took = time.perf_counter() - begin
        after = [hostspeed.probe_ms() for _ in range(SETUP_PROBES)]
        times.append(took)
        scaled.append(took * hostspeed.PROBE_REF_MS / statistics.fmean(before + after))
        if proc.returncode != 0 or proc.stdout.strip() != SETUP_OUTPUT:
            errors.append(f"setup: exit {proc.returncode}, stdout {proc.stdout[:100]!r}")
    return statistics.median(times), statistics.median(scaled), errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    began = time.monotonic()
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "fibercurve" / "cli.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the root of a fibercurve checkout "
              "(need src/fibercurve and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root / "src"),
        "loadavg_start": read_loadavg(),
        "probe_ms_start": host_probe_ms(),
    }
    compileall.compile_dir(str(root / "src"), quiet=1)

    values: dict = {}
    errors: list[str] = []
    attempted = 0
    if not args.trace:
        starts = 2 if args.size == "tiny" else 9
        meta["setup_s_raw"], values["setup_s"], errors = measure_setup(root, starts)
        attempted += starts

    worker = [sys.executable, str(HERE / "worker.py"), args.workload,
              str(args.seed), str(args.seconds), str(args.trace), args.size]
    # A session of its own, so that a timeout also stops the search workers.
    proc = subprocess.Popen(worker, cwd=root, env=program_env(root), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - began)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: workload ran past the time limit", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker failed (exit {proc.returncode})\n{stderr[-3000:]}",
              file=sys.stderr)
        return 1
    report = json.loads(lines[-1])
    values.update(report["metrics"])
    failed = len(errors) + report["failed"]
    attempted += report["attempted"]
    errors += report["errors"]
    meta.update(report.get("raw", {}))
    meta["loadavg_end"] = read_loadavg()
    meta["probe_ms_end"] = host_probe_ms()

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = dict(meta=meta, result=result, errors=errors, samples=report["samples"])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (out_dir / name).write_text(json.dumps(record))
    for line in errors[:20]:
        print(f"perfbench: failed op: {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
