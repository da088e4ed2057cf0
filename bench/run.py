"""Time to verdict for the svlie engine, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: automorphisms, structure, linear-systems, cli-ops (see
BENCHMARK.json for why each exists).  One process, one thread, one caller:
each operation starts after the previous one returns.  Every run first
makes one untimed warm-up pass, which also fills the bracket_basis cache.

--trace 0 prints the end-to-end metrics, with times at reference speed (the
time on a machine where speed.reference takes 1 ms; see speed.py):
  setup_s        median over fresh interpreters of the time to import svlie
                 and the modules the workloads call (svlie.cli, svlie.verify);
                 the clock starts after the benchmark's own imports.  Suite
                 workloads generate their inputs inside svlie.verify.run_suite,
                 so that is in verdict_s; the cli-ops files are generated by
                 the benchmark, and the time that takes is printed apart.
  verdict_s      median time of one pass
  latency_s.p50  nearest-rank percentiles, over the pass's operations, of
  latency_s.p90  each operation's median latency
  peak_rss_mb    peak resident memory of the process
and fail_ratio, which is the result's failed / attempted.  The raw
wall-clock medians and each command's median latency are printed beside
them as comment lines.

--trace 1 alternates plain and traced passes, then runs the layer
microbenchmarks, and prints the per-layer metrics.  Counts are those of one
traced pass, self times the median over traced passes.  A layer the workload
bypasses reports 0 calls; as its self time, which would read 0 on every run,
it reports the median over traced runs of micro.sweep, which calls every
layer once on fixed small inputs.  Per-layer times are wall-clock seconds.

Human-readable lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, Speedometer, reference_samples

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 15
SETUP_REFERENCE = 10  # reference samples taken before and after each probe's import
SWEEPS = 5  # traced layer sweeps whose median self times stand in for bypassed layers
TRACED_SHARE = 0.7  # of --seconds in a traced run; the rest goes to microbenchmarks


def load_engine() -> None:
    """Put this checkout's ``src`` first on the path; fail without it.

    The benchmark's modules import ``svlie``, so they are imported after this.
    """
    if not (SRC / "svlie" / "__init__.py").is_file():
        sys.exit(f"error: engine source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import svlie

    if SRC.resolve() not in Path(svlie.__file__).resolve().parents:
        sys.exit(f"error: imported svlie from {svlie.__file__}, not from {SRC}")


def _environment() -> str:
    """Python version, CPUs, git sha and the line count of ``src``."""
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        sha = ref
    lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return (
        f"# env python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
        f"git={sha} src_lines={lines}"
    )


def _setup_probe() -> None:
    """Child side of setup_s: time importing the engine in this fresh interpreter.

    Prints the seconds taken and the speed scale read from reference samples
    taken just before and just after, outside the timed span.
    """
    before = reference_samples(SETUP_REFERENCE)
    start = time.perf_counter()
    load_engine()
    import svlie.cli  # noqa: F401
    import svlie.verify  # noqa: F401

    ready = time.perf_counter() - start
    samples = before + reference_samples(SETUP_REFERENCE)
    print(ready, REFERENCE_S / statistics.median(samples))


def _setup_seconds() -> tuple[list[float], list[float]]:
    """Raw and reference-speed seconds of engine import, one per fresh interpreter."""
    raw, scaled = [], []
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", "-", "--seed", "0"]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        ready, scale = map(float, done.stdout.split()[-2:])
        raw.append(ready)
        scaled.append(ready * scale)
    return raw, scaled


def _workdir() -> Path:
    path = ROOT / ".bench_work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def _remove(workdir: Path) -> None:
    shutil.rmtree(workdir)
    try:
        workdir.parent.rmdir()
    except OSError:  # another run still works there
        pass


def known_answers() -> dict:
    return json.loads((BENCH / "known_answers.json").read_text())


def _percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile: the smallest value with q% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def _emit(metrics: dict, checker, notes: dict) -> None:
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:48s} {value:14.6g} {unit}{note}")
    print(
        f"{'fail_ratio':48s} {len(checker.failures) / checker.attempted:14.6g} ratio"
        f"  ({len(checker.failures)} of {checker.attempted} operations)"
    )
    for failure in checker.failures[:20]:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def _end_to_end(seconds: float, warmup, ops, checker) -> None:
    import workloads

    setup_raw, setup = _setup_seconds()
    raw_passes, passes = [], []  # per pass, each op's latency: wall clock, reference speed
    with Speedometer() as meter:
        workloads.run_pass(warmup, checker, meter)
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            raw, scaled = workloads.run_pass(ops, checker, meter)
            raw_passes.append(raw)
            passes.append(scaled)
    op_medians = [statistics.median(column) for column in zip(*passes)]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_s": (statistics.median(sum(p) for p in passes), "s"),
        "latency_s.p50": (_percentile(op_medians, 50), "s"),
        "latency_s.p90": (_percentile(op_medians, 90), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "verdict_s": f"median of {len(passes)} passes of {len(ops)} operations",
        "latency_s.p50": f"over {len(ops)} operations, each its median of {len(passes)} runs",
        "latency_s.p90": f"over {len(ops)} operations, each its median of {len(passes)} runs",
    }
    print(f"# times at reference speed: the reference computation took a median "
          f"{statistics.median(meter.samples) * 1000:.4g} ms here, scaled to {REFERENCE_S * 1000:g} ms")
    raw_medians = [statistics.median(column) for column in zip(*raw_passes)]
    print(f"# wall clock: setup_s {statistics.median(setup_raw):.6g} s, "
          f"verdict_s {statistics.median(sum(p) for p in raw_passes):.6g} s, "
          f"latency_s.p50 {_percentile(raw_medians, 50):.6g} s, latency_s.p90 {_percentile(raw_medians, 90):.6g} s")
    kinds: dict[str, list[float]] = {}
    for op, latency in zip(ops, op_medians):
        kinds.setdefault(op.label.split(" #")[0], []).append(latency)
    for kind, latencies in sorted(kinds.items(), key=lambda item: statistics.median(item[1])):
        print(f"# operation {kind:40s} x{len(latencies):<4d} median {statistics.median(latencies):.6g} s "
              f"range {min(latencies):.6g}-{max(latencies):.6g} s")
    for q in (50, 90):
        value = _percentile(op_medians, q)
        print(f"# latency_s.p{q} is the latency of {ops[op_medians.index(value)].label}")
    _emit(metrics, checker, notes)


def _per_layer(seed: int, seconds: float, warmup, ops, checker) -> None:
    import micro
    import tracer as tracing
    import workloads
    from svlie import algebra

    cache = algebra.bracket_basis
    before = cache.cache_info()
    workloads.run_pass(warmup, checker)
    after = cache.cache_info()
    lookups = (after.hits - before.hits) + (after.misses - before.misses)
    tracer = tracing.Tracer()
    plain, traced, counts, selfs = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < TRACED_SHARE * seconds:
        plain.append(sum(workloads.run_pass(ops, checker)[0]))
        tracer.install()
        try:
            traced.append(sum(workloads.run_pass(ops, checker)[0]))
        finally:
            tracer.uninstall()
        counts.append(({name: s[0] for name, s in tracer.stats.items()}, tuple(tracer.nullspace)))
        selfs.append({name: s[2] for name, s in tracer.stats.items()})
    if any(c != counts[0] for c in counts):
        checker.failures.append("trace: call counts differ between identical passes")
    pass_counts, (rows, cols, rank) = counts[0]
    pass_self = {name: statistics.median(s[name] for s in selfs) for name in selfs[0]}

    rates, failures = micro.measure(micro.build(seed), (1 - TRACED_SHARE) * seconds)
    checker.failures.extend(failures)
    sweeps = []
    for _ in range(SWEEPS):
        tracer.install()
        try:
            micro.sweep()
        finally:
            tracer.uninstall()
        sweeps.append({name: s[2] for name, s in tracer.stats.items()})

    for name in sorted(pass_counts):
        note = ""
        if not pass_counts[name]:
            pass_self[name] = statistics.median(s[name] for s in sweeps)
            note = f"  (bypassed: median self time of {SWEEPS} layer sweeps)"
        print(f"# span {name:40s} calls {pass_counts[name]:>10d}  self {pass_self[name]:.6f} s{note}")
    metrics = {}
    for name in ("scalar.arith", "scalar.nullspace", "expr.parse_element", "algebra.bracket",
                 "algebra.exp_ad", "autgroup.apply", "autgroup.factorize"):
        metrics[f"{name}.calls"] = (pass_counts[name], "count")
    metrics["scalar.nullspace.rows"] = (rows, "count")
    metrics["scalar.nullspace.cols"] = (cols, "count")
    metrics["scalar.nullspace.rank_ratio"] = (rank / rows if rows else 0.0, "ratio")
    metrics["algebra.bracket_basis.hit_ratio"] = ((after.hits - before.hits) / lookups if lookups else 0.0, "ratio")
    metrics["algebra.bracket_basis.entries"] = (after.currsize, "count")
    for name in sorted(tracing.SPANS) + ["scalar.arith"]:
        metrics[f"{name}.self_s"] = (pass_self[name], "s")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    for name, rate in rates.items():
        metrics[f"micro.{name}.ops_per_s"] = (rate, "1/s")
    notes = {"trace.overhead_ratio": f"{len(traced)} traced and {len(plain)} plain passes"}
    _emit(metrics, checker, notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe()
        return 0
    load_engine()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    known = known_answers()
    unpinned = [s.key for s in workloads.SUITE_WORKLOADS.get(args.workload, ()) if s.key not in known["report_sha256"]]
    if unpinned:
        sys.exit(f"error: no pinned report hash for {', '.join(unpinned)}; run bench/pin.py")
    workdir = _workdir()
    try:
        start = time.perf_counter()
        warmup, ops = workloads.build(args.workload, args.seed, str(workdir), known)
        print(_environment())
        print(f"# inputs built by the benchmark in {time.perf_counter() - start:.4g} s (not in setup_s)")
        print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        checker = workloads.Checker()
        if args.trace:
            _per_layer(args.seed, args.seconds, warmup, ops, checker)
        else:
            _end_to_end(args.seconds, warmup, ops, checker)
    finally:
        _remove(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
