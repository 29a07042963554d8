#!/usr/bin/env python3
"""Benchmark of sumsetlab: one workload per run, one single-threaded process.

    python3 bench/run.py --workload flow --seed 1 --seconds 20 --trace 0

The run is a closed loop with one client: the next op starts when the last
one returns.  It sets up the workload several times (reporting the median),
runs ops for ``--seconds``, then checks every output outside the timed
phase.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it replays a fixed op list alternately without and with the
per-layer tracer, then runs the workload's contract probes, and prints the
per-layer metrics.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
Metric names, units and the layer table are in bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from itertools import islice
from pathlib import Path

from tracing import CHECK_FUNCTIONS, COUNTERS, Tracer

# One thread: numpy's BLAS would otherwise start a thread per core at import,
# in this process and in the import timings' fresh interpreters.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
DIGEST_OPS = 16  # outputs of this many leading ops go into the run's digest
CALIBRATION_EVERY_S = 0.25  # time between calibration blocks in the timed phase
CALIBRATION_WINDOW_S = 1.0  # an op is scaled by the blocks this close to its start
# Typical kernel time on the machine the benchmark was tuned on (2-vCPU Xeon
# VM at 2.1 GHz, Python 3.11).  Timings are scaled to this speed.
CALIBRATION_REFERENCE_S = 0.00024

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

_SPAN_LAYERS = ("groups.sumset", "systems.build", "systems.apply_set", "systems.measure_of",
                "systems.ergodic", "magnification.flow", "magnification.enum",
                "zline.zsumset", "spectral.transform", "orbits.correspond")
_CHECKS = tuple(CHECK_FUNCTIONS)
_COUNTERS = tuple(dict.fromkeys(name for pairs in COUNTERS.values() for name, _ in pairs))

PER_LAYER = (
    tuple((f"{layer}.{field}", unit) for layer in _SPAN_LAYERS
          for field, unit in (("calls", "count"), ("self_ms", "ms")))
    + tuple((name, "count") for name in _COUNTERS)
    + tuple((f"verify.{check}.ms", "ms") for check in _CHECKS)
    + (("verify.campaign.self_ms", "ms"), ("cli.main.self_ms", "ms"),
       ("cli.report_bytes", "bytes"), ("trace.overhead_ratio", "ratio"),
       ("probe.attempted", "count"), ("probe.failed", "count"))
)


def load_library() -> None:
    """Import sumsetlab from this checkout's src/.

    Exits with code 2 when the checkout has no library to measure.
    """
    src = ROOT / "src"
    if not (src / "sumsetlab" / "__init__.py").is_file():
        print(f"error: no sumsetlab sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import sumsetlab

    if Path(sumsetlab.__file__).resolve().parent != src / "sumsetlab":
        print(f"error: imported sumsetlab from {sumsetlab.__file__}", file=sys.stderr)
        raise SystemExit(2)


_IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
                 "import numpy, sumsetlab; print(time.perf_counter() - start)")


def import_seconds() -> float:
    """Time ``import numpy, sumsetlab`` in a fresh interpreter, as a CLI call pays it."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy

    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sumsetlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    uname = platform.uname()
    return {
        "machine": f"{uname.system} {uname.release} {uname.machine}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "commit": _commit(),
        "source_sha256": source.hexdigest(),
    }


_KERNEL_TABLE = list(range(4096))


def calibrate() -> float:
    """Time a fixed pure-Python kernel: the speed of the host at this moment.

    The host is shared, and its speed drifts by a quarter over tens of
    seconds.  The drift slows the kernel and the library alike, so timings
    scaled by the kernel's time lose most of it.  The kernel runs eight
    times; the first two refill the caches the last op evicted.
    """
    times = []
    for _ in range(8):
        start = time.perf_counter()
        acc, table = 0, _KERNEL_TABLE
        for i in range(1500):
            acc = (acc * 31 + table[(acc ^ i) & 4095]) % 1000003
        times.append(time.perf_counter() - start)
    return statistics.median(times[2:])


def speed_factors(starts: list[float], blocks: list[tuple[float, float]]) -> list[float]:
    """Reference kernel time over the median kernel time near each op's start."""
    out = []
    for t in starts:
        near = [cal for when, cal in blocks if abs(when - t) <= CALIBRATION_WINDOW_S]
        if not near:
            near = [min(blocks, key=lambda b: abs(b[0] - t))[1]]
        out.append(CALIBRATION_REFERENCE_S / statistics.median(near))
    return out


def run_op(workload, op):
    from workloads import Record

    cpu, start = time.process_time(), time.perf_counter()
    try:
        output, error = workload.run(op), None
    except Exception as exc:  # a failed op is data, not a reason to stop
        output, error = None, type(exc).__name__
    return Record(op, time.perf_counter() - start, time.process_time() - cpu, output, error,
                  start)


def run_pass(workload, ops) -> tuple[float, list]:
    start = time.perf_counter()
    records = [run_op(workload, op) for op in ops]
    return time.perf_counter() - start, records


def check_records(workload, records) -> tuple[set[int], list[str]]:
    """Check every successful op's output; return the failed indices and problems."""
    bad, problems = set(), []
    for i, rec in enumerate(records):
        if rec.error is not None:
            continue
        try:
            found = workload.check(rec.op, rec.output)
        except Exception as exc:  # a crashing check is a failed check
            found = [f"output check raised {type(exc).__name__}: {exc}"]
        if found:
            bad.add(i)
            problems.append(f"op {i} ({rec.op.kind}): {found[0]}")
    try:
        found = workload.check_run(records)
    except Exception as exc:
        found = [(None, f"run check raised {type(exc).__name__}: {exc}")]
    for index, message in found:
        if index is not None:
            bad.add(index)
        problems.append(message)
    return bad, problems


def latency_ms(seconds: list[float], failed: set[int], q: float) -> float:
    """Nearest-rank percentile of op latencies, in ms.

    A failed op ranks above every success; if the rank lands on one, the
    value is the slowest latency seen in the run.
    """
    keys = sorted((i in failed, s) for i, s in enumerate(seconds))
    is_failure, value = keys[max(1, math.ceil(q * len(keys))) - 1]
    return (max(seconds) if is_failure else value) * 1000


def set_up(cls, seed: int, workdir: Path):
    """Set up SETUP_REPEATS times: a fresh import, the workload's setup, a warm-up op.

    A calibration block runs before each set-up and after the last, and
    each set-up is scaled like a timed op.  Returns the last workload, the
    median scaled and raw set-up times, and the warm-up problems.
    """
    starts, raw, blocks, problems = [], [], [], []
    for i in range(SETUP_REPEATS):
        blocks.append((time.perf_counter(), calibrate()))
        imported = import_seconds()
        starts.append(time.perf_counter())
        workload = cls(seed, workdir / f"setup-{i}")
        workload.setup()
        problems = workload.warm_up()
        raw.append(imported + time.perf_counter() - starts[-1])
    blocks.append((time.perf_counter(), calibrate()))
    scaled = [s * f for s, f in zip(raw, speed_factors(starts, blocks))]
    return workload, statistics.median(scaled), statistics.median(raw), problems


def measure(workload, seconds: float):
    """The timed closed loop, then the output checks.

    Returns the records, failed indices, problems, and the timing metrics
    both scaled to the reference speed and raw.
    """
    timed, blocks = [], []
    stream = workload.ops()
    deadline = time.perf_counter() + seconds
    while not timed or time.perf_counter() < deadline:
        timed.append(run_op(workload, next(stream)))
        now = time.perf_counter()
        if not blocks or now - blocks[-1][0] >= CALIBRATION_EVERY_S:
            blocks.append((now, calibrate()))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bad, problems = check_records(workload, timed)
    failed = bad | {i for i, rec in enumerate(timed) if rec.error is not None}

    def timings(factors: list[float]) -> dict[str, float]:
        seconds = [rec.seconds * f for rec, f in zip(timed, factors)]
        return {
            "throughput_ops_s": (len(timed) - len(failed)) / sum(seconds),
            "latency_p50_ms": latency_ms(seconds, failed, 0.50),
            "latency_p90_ms": latency_ms(seconds, failed, 0.90),
            "cpu_ms_per_op": sum(rec.cpu_seconds * f for rec, f in zip(timed, factors))
                             * 1000 / len(timed),
        }

    factors = speed_factors([rec.started for rec in timed], blocks)
    metrics = timings(factors) | {"peak_rss_mib": peak_rss_mib}
    return timed, failed, problems, metrics, timings([1.0] * len(timed)), factors


def _same(a, b) -> bool:
    """Equal outcomes; a RecursionError may come and go with stack depth."""
    if a.error == b.error and a.output == b.output:
        return True
    return "RecursionError" in (a.error, b.error)


def measure_traced(workload, seconds: float):
    """Replay a fixed op list without and with the tracer until time is up.

    Then run the workload's contract probes once, untraced.  They probe a
    known defect, so their failures are reported in ``probe.failed`` and
    not in the run's ``failed``; a probe whose output is wrong is a problem.
    """
    ops = list(islice(workload.ops(), workload.trace_ops))
    deadline = time.perf_counter() + seconds
    plain_s, traced_s, tracers, problems = [], [], [], []
    reference = bad = None
    attempted = failed = 0
    while not tracers or time.perf_counter() < deadline:
        seconds_plain, plain = run_pass(workload, ops)
        tracer = Tracer()
        with tracer:
            seconds_traced, traced = run_pass(workload, ops)
        if reference is None:
            reference = plain
            bad, problems = check_records(workload, reference)
        for records in (plain, traced):
            for i, (ref, rec) in enumerate(zip(reference, records)):
                if not _same(ref, rec):
                    problems.append(f"op {i} ({rec.op.kind}): traced and untraced outputs differ")
                if rec.error is not None or (i in bad and rec.output == ref.output):
                    failed += 1
            attempted += len(records)
        first = tracers[0] if tracers else tracer
        if (tracer.counts != first.counts
                or any(tracer.layers[k].calls != first.layers[k].calls for k in first.layers)):
            problems.append("span counts differ between traced passes of the same op list")
        plain_s.append(seconds_plain)
        traced_s.append(seconds_traced)
        tracers.append(tracer)
    _, probes = run_pass(workload, workload.probes())
    _, probe_problems = check_records(workload, probes)
    problems += [f"probe {p}" for p in probe_problems]

    def median_ms(layer: str, field: str) -> float:
        return statistics.median(getattr(t.layers[layer], field) for t in tracers) * 1000

    first = tracers[0]
    metrics = {}
    for layer in _SPAN_LAYERS:
        metrics[f"{layer}.calls"] = first.layers[layer].calls
        metrics[f"{layer}.self_ms"] = median_ms(layer, "self_s")
    for name in _COUNTERS:
        metrics[name] = first.counts.get(name, 0)
    for check in _CHECKS:
        metrics[f"verify.{check}.ms"] = median_ms(f"verify.{check}", "total_s")
    metrics["verify.campaign.self_ms"] = median_ms("verify.campaign", "self_s")
    metrics["cli.main.self_ms"] = median_ms("cli.main", "self_s")
    metrics["cli.report_bytes"] = sum(len(rec.output.stdout.encode()) + len(rec.output.report)
                                      for rec in reference
                                      if rec.error is None and hasattr(rec.output, "report"))
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    metrics["probe.attempted"] = len(probes)
    metrics["probe.failed"] = sum(1 for rec in probes if rec.error is not None)
    return reference, probes, attempted, failed, problems, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "flow", "enum", "line"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_library()
    from workloads import WORKLOADS, digest

    env = environment(args.seed)
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"sumsetlab-{args.workload}-",
                                    dir=ROOT / ".bench_build"))
    raw: dict[str, float] = {}
    probes = None
    try:
        workload, setup_s, setup_raw_s, problems = set_up(WORKLOADS[args.workload], args.seed,
                                                          workdir)
        if args.trace:
            records, probes, attempted, failed, found, metrics = measure_traced(workload,
                                                                                args.seconds)
            units = dict(PER_LAYER)
        else:
            records, failed_ops, found, metrics, raw, factors = measure(workload, args.seconds)
            attempted, failed = len(records), len(failed_ops)
            metrics["setup_s"], raw["setup_s"] = setup_s, setup_raw_s
            units = dict(END_TO_END)
        problems += found
        run_digest = digest(workload, records, DIGEST_OPS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def tally(records) -> str:
        errors = Counter(rec.error for rec in records if rec.error is not None)
        return "".join(f", {name} {n}" for name, n in sorted(errors.items()))

    print(f"sumsetlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    if raw:
        print("timings at the reference host speed; "
              f"median speed factor {statistics.median(factors):.4f}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:>16.6f} {unit:6s}"
              + (f" (raw {raw[name]:.6f})" if name in raw else ""))
    print(f"ops: attempted {attempted}, failed {failed}, error_rate {failed / attempted:.6f}"
          + tally(records))
    if probes is None:
        print("contract probes: made only with --trace 1")
    else:
        print(f"contract probes: attempted {len(probes)}, "
              f"failed {metrics['probe.failed']}" + tally(probes))
    print(f"digest of the first {min(DIGEST_OPS, len(records))} outputs: {run_digest}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
