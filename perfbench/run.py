"""Benchmark of the ternary_ecc toolkit: one workload per run, checked and timed.

    python3 perfbench/run.py --workload search|simulate|stream|cli --seed N \
        --seconds S --trace 0|1

Run from the repository root; the program is imported from src/ of the same
checkout. The run sets up, then cycles through the workload's cells until S
seconds have passed and every cell has run once. With --trace 0 it reports
the end-to-end metrics. With --trace 1 it instead alternates traced and
untraced whole rounds (at least one of each) and reports the per-layer
metrics from the spans, plus the tracing overhead. The last line of stdout is
the JSON result; the lines before it give the machine and the workload's own
figures. Full results, and the spans of a traced run, are written under
perfbench/out/. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES = 2  # extra set-ups in fresh interpreters, for the median setup_s
TRACED_ROUNDS = 5  # enough for a median; bounds the spans kept in memory
# Fastest time of _reference() on the 2-vCPU VM of the first measurements, in a
# quiet spell. Timings are scaled by REFERENCE_S / (fastest reference sample of
# the same run), so they read as seconds on that machine when it is quiet.
REFERENCE_S = 0.0295


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it as JSON and exit")
    return parser.parse_args(argv)


def _load(workload) -> None:
    workload.load()
    import ternary_ecc

    if not Path(ternary_ecc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ternary_ecc was imported from {ternary_ecc.__file__}, not from {SRC}")


def _setup_probe(args) -> float:
    """Time one set-up in a fresh interpreter, as a user starting the toolkit pays it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _machine() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": _git_commit(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git; None outside a repository."""
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
    return None


def _reference() -> int:
    """Fixed pure-Python work, independent of the program, to gauge machine speed.

    Tuples, a dict, a sort and nested loops over small ints: the kind of work
    the toolkit does, so that contention from other tenants slows both alike.
    """
    rng = random.Random(7)
    words = [tuple(rng.randrange(3) for _ in range(8)) for _ in range(600)]
    ordered = sorted({w: i for i, w in enumerate(words)})
    best = 99
    for u in ordered[:60]:
        for v in ordered:
            d = sum(1 for a, b in zip(u, v) if a != b)
            if 0 < d < best:
                best = d
    return best


def _time_reference(repeats: int) -> float:
    """Seconds per _reference() call, over `repeats` calls timed together."""
    start = perf_counter()
    for _ in range(repeats):
        _reference()
    return (perf_counter() - start) / repeats


def _run_cell(cell, tracer) -> tuple[float, str | None]:
    """Run one operation; returns its wall time and None or the fault its check found."""
    error = None
    if tracer is not None:
        tracer.op += 1
    start = perf_counter()
    try:
        if tracer is not None and cell.span:
            with tracer.span(cell.span):
                output = cell.run()
        else:
            output = cell.run()
    except Exception:
        error = traceback.format_exc(limit=3)
    elapsed = perf_counter() - start
    if error is None:
        try:
            error = cell.check(output)
            if tracer is not None:
                for name, value in cell.counts(output).items():
                    tracer.count(name, value)
        except Exception:
            error = traceback.format_exc(limit=3)
    return elapsed, error


def _measure(cells, seconds, samples, failures, reference, repeats) -> int:
    """Untraced: cycle through the cells until time is up and each has run once.

    Between operations, _reference() is timed into `reference`, in samples
    of `repeats` calls, taking about a fifth of the time.
    """
    begin = perf_counter()
    reference.append(_time_reference(repeats))
    last_reference = perf_counter()
    i = 0
    while i < len(cells) or perf_counter() - begin < seconds:
        cell = cells[i % len(cells)]
        elapsed, error = _run_cell(cell, None)
        samples[cell.name].append(elapsed)
        if error is not None:
            failures.append(f"{cell.name}: {error}")
        i += 1
        if perf_counter() - last_reference >= 4 * repeats * reference[-1]:
            reference.append(_time_reference(repeats))
            last_reference = perf_counter()
    return i


def _measure_traced(cells, seconds, tracer, samples, failures) -> tuple[int, float]:
    """Alternate traced and untraced whole rounds, at least one of each.

    After TRACED_ROUNDS traced rounds the rest are untraced. Returns the
    operations run and the tracing overhead in percent: the median traced
    round against the median untraced one, over the cells both run.
    """
    round_times: dict[bool, list[float]] = {True: [], False: []}
    begin = perf_counter()
    attempted = rounds = 0
    while rounds < 2 or perf_counter() - begin < seconds:
        traced = rounds % 2 == 0 and len(round_times[True]) < TRACED_ROUNDS
        if traced:
            tracer.phase = f"round{rounds}"
            tracer.install()
        total = 0.0
        try:
            for cell in cells:
                if cell.extra and not traced:
                    continue
                elapsed, error = _run_cell(cell, tracer if traced else None)
                attempted += 1
                if error is not None:
                    failures.append(f"{cell.name}: {error}")
                if not cell.extra:
                    samples[cell.name].append(elapsed)
                    total += elapsed
        finally:
            tracer.uninstall()
        round_times[traced].append(total)
        rounds += 1
    ratio = statistics.median(round_times[True]) / statistics.median(round_times[False])
    return attempted, (ratio - 1.0) * 100.0


def main(argv=None) -> int:
    args = _parse(argv)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed, OUT, SRC)
    tracer = Tracer() if args.trace else None

    start = perf_counter()
    _load(workload)
    if tracer is not None:
        workload.trace_targets(tracer)
        tracer.install()
    try:
        workload.generate()
    finally:
        if tracer is not None:
            tracer.uninstall()
    setups = [perf_counter() - start]
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setups[0]}))
        return 0

    try:
        if tracer is None:
            setups += [_setup_probe(args) for _ in range(SETUP_PROBES)]
        workload.prepare()
        cells = workload.cells()
        samples = {cell.name: [] for cell in cells if not cell.extra}
        failures: list[str] = []
        reference: list[float] = []
        if tracer is None:
            attempted = _measure([c for c in cells if not c.extra], args.seconds, samples,
                                 failures, reference, workload.reference_repeats)
        else:
            attempted, overhead_pct = _measure_traced(cells, args.seconds, tracer, samples, failures)
    finally:
        workload.close()

    failed = len(failures)
    best = {name: min(ts) for name, ts in samples.items()}
    figures = workload.detail(best, samples)
    figures["failed_frac"] = (failed / attempted, "1")
    if tracer is None:
        scale = REFERENCE_S / min(reference)
        metrics = {
            "setup_s": (statistics.median(setups) * scale, "s"),
            "best_round_s": (sum(best.values()) * scale, "s"),
            "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
        }
        figures["measured_setup_s"] = (statistics.median(setups), "s")
        figures["measured_best_round_s"] = (sum(best.values()), "s")
        figures["reference_s"] = (min(reference), "s")
    else:
        layer = tracer.layer_metrics()
        metrics = {name: (layer[name], unit) for name, (_, unit) in LAYER_METRICS.items()}
        metrics["trace.overhead_pct"] = (overhead_pct, "%")

    detail = {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    machine = _machine()
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "result": result,
        "detail": detail, "setups_s": setups, "reference_s": reference,
        "samples_s": samples, "failures": failures,
    }
    if tracer is not None:
        record["trace_record"] = tracer.dump()
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("machine " + json.dumps(machine))
    print(f"detail {args.workload} " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
