"""Benchmark of the teamlogic checker: one workload per process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {sweep,search,nogo,prob} --seed N \
        --seconds S --trace {0,1}

The run imports the package from ``src/``, times several cold starts
(fresh interpreter, import, bundled tables, seeded inputs), then repeats
full passes of the workload until ``--seconds`` have elapsed.  Every pass
checks its verdicts; the verdict digest must agree across passes and, at
the default seed, with the pinned digest.  With ``--trace 1`` a traced
pass, with every layer entry point wrapped in spans, and one more untraced
pass follow, and the run reports per-layer metrics instead of end-to-end
ones.

Every end-to-end time is in reference seconds (see ``calibration.py``): the
run is pinned to one core and interleaves short slices of fixed reference
work with the workload.  Passes, verdicts and slices are timed in thread
CPU time, which leaves out the time the thread waits for its core, and
the work between two slices, and each verdict in it, is scaled by the
reference slice time over the mean time of the slices nearest it.
Set-up is the CPU time of fresh interpreters, less their slices, each
scaled by the mean of its own slices.  Unscaled CPU times are kept in the result
file.  The traced pass times its spans in wall time; the wall time of
each slice it takes is cut from the spans open around it, and its
per-layer times are scaled by the pass's reference seconds per CPU
second.

Human-readable lines go first; the last line of standard output is the
JSON result.  The full result, with run metadata, and the span file of a
traced pass are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from calibration import Calibrator, reference_factor

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("sweep", "search", "nogo", "prob")
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: Cold starts timed per run; setup_s is their median.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import calibration; "
    "c = calibration.Calibrator(); c.slice(); import workloads; "
    "workloads.setup(sys.argv[3], int(sys.argv[4])); c.slice(); print(*c.slices)"
)


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def check_definition():
    """The metric names in BENCHMARK.json must be the ones this run reports."""
    from tracing import LAYER_METRICS

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    expected = {
        "workloads": list(WORKLOAD_NAMES),
        "end_to_end": [name for name, _ in END_TO_END],
        "per_layer": [name for name, *_ in LAYER_METRICS],
    }
    for key, names in expected.items():
        listed = [entry.get("name") for entry in spec.get(key, [])]
        if listed != names:
            fail(f"BENCHMARK.json {key} {listed} differ from the harness's {names}")


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setups(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters that import the package, load
    the bundled tables and generate the seeded inputs, then exit: in
    reference seconds, each scaled by the two calibration slices it took
    before and after its set-up; and in CPU seconds."""
    times, cpu_times = [], []
    for _ in range(SETUP_PROBES):
        start = children_cpu_s()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(BENCH), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        elapsed = children_cpu_s() - start
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        probe_slices = [float(x) for x in proc.stdout.split()]
        cpu_times.append(elapsed - sum(probe_slices))
        times.append(cpu_times[-1] * reference_factor(probe_slices))
    return times, cpu_times


def percentile(ordered: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted samples, and how many lie beyond it."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "teamlogic").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Checker:
    """Digest and failure bookkeeping across the passes of one run."""

    def __init__(self, workloads, name: str, seed: int):
        self.pinned = workloads.PINNED_DIGESTS[name] if seed == workloads.DEFAULT_SEED else None
        self.min_verdicts = workloads.MIN_VERDICTS
        self.first = None
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, log):
        if len(log.latencies) < self.min_verdicts:
            fail(f"a pass issued {len(log.latencies)} timed verdicts, fewer than {self.min_verdicts}")
        digest = log.digest()
        self.digests.append(digest)
        wrong = len(log.failures)
        if self.first is None:
            self.first = log.answers
        elif log.answers != self.first:
            wrong += sum(a != b for a, b in zip(log.answers, self.first))
            self.messages.append("verdicts differ from the first pass")
        if self.pinned is not None and digest != self.pinned:
            wrong = max(wrong, len(log.answers))
            self.messages.append(f"digest {digest} differs from the pinned {self.pinned}")
        self.attempted += log.attempted
        self.failed += min(wrong, log.attempted)
        self.messages.extend(log.failures)


def run_pass(workloads, workload, checker: Checker, context=None, tracer=None):
    """One pass inside ``context``, with calibration slices before, between
    and after its verdicts; returns its log and its calibrator.  With a
    ``tracer``, each slice's time is cut from the spans open around it."""
    calibrator = Calibrator()
    tick = calibrator.tick if tracer is None else lambda: tracer.exclude(calibrator.tick())
    calibrator.slice()
    log = workloads.PassLog(tick)
    try:
        with context or nullcontext():
            workload.run_pass(log)
    except Exception as exc:  # a pass that raises is reported, not fatal
        log.attempted += 1
        log.failures.append(f"pass raised {type(exc).__name__}: {exc}")
    calibrator.slice()
    checker.add(log)
    return log, calibrator


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "teamlogic" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'teamlogic'}")
    sys.path.insert(0, str(SRC))
    check_definition()
    # Slices and the work they calibrate must share a core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    setup_times, setup_cpu_times = time_setups(args.workload, args.seed)

    import teamlogic
    import workloads

    if not Path(teamlogic.__file__).resolve().is_relative_to(SRC):
        fail(f"imported teamlogic from {teamlogic.__file__}, not from {SRC}")
    workload = workloads.setup(args.workload, args.seed)
    checker = Checker(workloads, args.workload, args.seed)

    calibrators: list[Calibrator] = []
    latencies: list[float] = []
    begin = time.perf_counter()
    while not calibrators or time.perf_counter() - begin < args.seconds:
        log, calibrator = run_pass(workloads, workload, checker)
        calibrators.append(calibrator)
        latencies.extend(calibrator.scale(log.latencies, log.ends))
        if len(calibrators) == 1:
            # Read after the first pass, so that it does not grow with the
            # latencies kept from however many passes fit in --seconds.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pass_times = [c.reference_s() for c in calibrators]
    pass_cpu_times = [c.work_s() for c in calibrators]

    latencies.sort()
    p50, beyond_p50 = percentile(latencies, 0.50)
    p99, beyond_p99 = percentile(latencies, 0.99)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(pass_times),
        "verdict_p50_ms": p50 * 1e3,
        "verdict_p99_ms": p99 * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    units = dict(END_TO_END)
    OUT.mkdir(exist_ok=True)

    layers = None
    traced = {}
    if args.trace:
        from tracing import LAYER_METRICS, Tracer, instrumented, layer_metrics

        # The traced pass is compared with the untraced passes just before
        # and after it, so that a change of host speed during the run
        # does not show as tracing overhead.
        tracer = Tracer()
        _, traced_calibrator = run_pass(
            workloads, workload, checker, instrumented(tracer, extra_modules=[workloads]), tracer
        )
        _, after_calibrator = run_pass(workloads, workload, checker)
        traced_s = traced_calibrator.reference_s()
        neighbours = [pass_times[-1], after_calibrator.reference_s()]
        overhead = traced_s / statistics.mean(neighbours) - 1.0
        # Spans are in wall time; they are scaled by the pass's mean factor.
        layers = layer_metrics(tracer, traced_s / traced_calibrator.work_s(), overhead)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.bin")
        traced = {"traced_pass_s": traced_s, "neighbour_pass_s": neighbours}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "passes": len(pass_times),
        **traced,
        "pass_s_samples": pass_times,
        "pass_cpu_s_samples": pass_cpu_times,
        "calibration_slices": sum(len(c.slices) for c in calibrators),
        "setup_s_samples": setup_times,
        "setup_cpu_s_samples": setup_cpu_times,
        "verdict_samples": len(latencies),
        "verdict_p50_samples_beyond": beyond_p50,
        "verdict_p99_samples_beyond": beyond_p99,
        "verdict_digests": checker.digests,
        "failed_frac": checker.failed / checker.attempted,
        "failures": checker.messages[:20],
    }
    if layers is None:
        metrics = {name: {"value": value, "unit": units[name]} for name, value in end_to_end.items()}
    else:
        layer_units = {name: unit for name, unit, *_ in LAYER_METRICS}
        metrics = {name: {"value": value, "unit": layer_units[name]} for name, value in layers.items()}
    result = {
        "correct": checker.failed == 0 and not checker.messages,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }

    print(f"workload {args.workload}, seed {args.seed}, {len(pass_times)} passes, "
          f"python {meta['python']}, nproc {meta['nproc']}, git {meta['git_sha']}")
    for name, value in end_to_end.items():
        print(f"  {name:<16} {value:12.4f} {units[name]}")
    print(f"  {'failed_frac':<16} {meta['failed_frac']:12.4f} ({checker.failed} of "
          f"{checker.attempted} verdicts)")
    print(f"  percentiles over {len(latencies)} verdicts; {beyond_p50} beyond p50, "
          f"{beyond_p99} beyond p99")
    if layers is not None:
        for name, entry in metrics.items():
            print(f"  {name:<32} {entry['value']:14.4f} {entry['unit']}")
    for message in checker.messages[:20]:
        print(f"  FAIL {message}")
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "end_to_end": end_to_end, "meta": meta}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
