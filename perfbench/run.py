#!/usr/bin/env python3
"""stablepgf benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload {suite,chain,certify} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  The
workload's fixed task list is run in closed-loop rounds, one task after
another in this process, for --seconds; the first round always completes.
A round calls every task once; from the second round on, further calls to
the short tasks are spread between the tasks of each round (see SHORT_S),
so that a short task's median call is taken from many calls at different
moments.  Timings are scaled to reference seconds (see REF_S).  Every
output is checked, inside the timed round.  The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A report (machine info, source size, sample counts, failures by input)
and, when traced, the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import heapq
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread: the dense kernels here are small enough that a second
# thread mostly adds run-to-run jitter on a shared machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the BLAS thread setting)

SETUP_REPEATS = 3
# Timings are given in reference seconds.  The reference kernel is timed
# every REF_EVERY_S, from a timer signal, even inside calls; its time is
# taken out of the calls it interrupts, and each call's time is scaled by REF_S
# over the kernel's median time from REF_WINDOW_S before the call to
# REF_WINDOW_S after it.  On the shared 2-core host where the benchmark was
# written, every kernel, this one included, ran up to 60% slower together
# for stretches of seconds to minutes; the scaling takes that common factor
# out, while a change to stablepgf, which the kernel does not call, passes
# through unchanged.  REF_S is about the kernel's time there, so the figures
# read close to seconds on that host.
REF_S = 2e-3
REF_EVERY_S = 0.05
REF_WINDOW_S = 0.5
SETUP_REF_CALLS = 5
# Untraced end-to-end runs spread further calls to the tasks whose fastest
# call plus check takes at most SHORT_S over the run, as EXTRA_SHARE of its
# time (see extra_calls).  Traced runs call each task once per round, so
# that per-layer call counts stay fixed.
SHORT_S = 0.2
EXTRA_SHARE = 0.4
# Listed here rather than read from cli.EXPERIMENTS so that the metric
# names stay those declared in BENCHMARK.json.
EXPERIMENTS = (
    "quad-death-preserve",
    "double-root-counterexample",
    "birth-monotonicity",
    "hermite-law",
    "kummer-law",
    "kingman-bp",
    "wright-fisher",
    "trotter-split",
    "particles-na",
    "tstable-certify",
)
EXPONENTS = {
    "bdchain.transition.exponent_N": "bdchain.transition",
    "bdchain.kingman.exponent_n": "bdchain.kingman",
    "polycore.real_roots.exact.exponent_deg": "polycore.real_roots.exact",
    "particles.truncated_generator_evolve.exponent_states": "particles.truncated_generator_evolve",
}


def reference_kernel():
    """Fixed work in the program's own mix (exact rationals, small numpy
    vectors, a Python loop) that calls nothing in stablepgf."""
    acc = Fraction(0)
    for k in range(1, 240):
        acc += Fraction(1, k * k + 1)
    x, s = np.linspace(0.0, 1.0, 64), 0.0
    for _ in range(200):
        x = np.sqrt(x * 0.5 + 0.25)
        s += float(x.sum())
    n = 0
    for i in range(6000):
        n += i * i % 7
    return acc, s, n


def time_reference() -> tuple[float, float]:
    """(start, seconds) of one reference kernel call."""
    s = time.perf_counter()
    reference_kernel()
    return s, time.perf_counter() - s


class Samples:
    """Over a run: every call as (start, end, task, call seconds, call plus
    check seconds); with reference, the reference kernel's timings as
    (start, seconds); per task, the fastest call plus check (which
    schedules the further calls), the number of calls and one outcome, the
    first failure if any."""

    def __init__(self, n: int, reference: bool):
        self.log = []
        self.reference = reference
        self.ref = []
        self.fastest = [math.inf] * n
        self.calls = [0] * n
        self.outcome = [None] * n

    def _tick(self, signum, frame):
        self.ref.append(time_reference())
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S)

    def start(self):
        """With reference, time the reference kernel every REF_EVERY_S from
        a timer signal, so also in the middle of long calls."""
        if self.reference:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S)

    def stop(self):
        # Ignore first, so that a signal already pending cannot re-arm the timer.
        if self.reference:
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
            signal.setitimer(signal.ITIMER_REAL, 0)

    def call(self, i: int, task) -> float:
        """Call task i and check its output; records and returns the call
        plus check seconds, less the reference kernel's time inside them."""
        from workloads import fail

        outcome = None
        k = len(self.ref)
        s = time.perf_counter()
        try:
            out = task.run()
        except Exception as exc:  # a raising task is a failed task, not a crash
            outcome = fail("raised", f"{type(exc).__name__}: {exc}")
        mid = time.perf_counter()
        if outcome is None:
            try:
                outcome = task.check(out)
            except Exception as exc:
                outcome = fail("check-raised", f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        # The reference kernel runs whole between two bytecodes, so each of
        # its calls lies wholly inside or outside [s, mid] and [s, end].
        inside = [(t, d) for t, d in self.ref[k:] if s <= t < end]
        call_s = mid - s - sum(d for t, d in inside if t < mid)
        total_s = end - s - sum(d for _, d in inside)
        self.log.append((s, end, i, call_s, total_s))
        self.fastest[i] = min(self.fastest[i], total_s)
        self.calls[i] += 1
        if self.outcome[i] is None or (self.outcome[i].ok and not outcome.ok):
            self.outcome[i] = outcome
        return total_s

    def scaled_medians(self) -> tuple[list, list]:
        """Each task's median call and call-plus-check time over the run, in
        reference seconds."""
        starts = [t for t, _ in self.ref]
        secs = [d for _, d in self.ref]
        calls = [[] for _ in self.outcome]
        totals = [[] for _ in self.outcome]
        for start, end, i, call_s, total_s in self.log:
            lo = bisect.bisect_left(starts, start - REF_WINDOW_S)
            near = secs[lo : bisect.bisect_right(starts, end + REF_WINDOW_S)]
            scale = REF_S / statistics.median(near or secs)
            calls[i].append(call_s * scale)
            totals[i].append(total_s * scale)
        return [statistics.median(c) for c in calls], [statistics.median(t) for t in totals]


def extra_calls(samples: Samples):
    """Endless choice of the task for the next extra call, among the tasks
    of at most SHORT_S: a task's share of calls goes as one over the square
    root of its time, so the shortest get the most calls and the longer
    ones still several."""
    heap = [(0.0, i) for i, t in enumerate(samples.fastest) if t <= SHORT_S]
    while heap:
        weight, i = heapq.heappop(heap)
        yield i
        heapq.heappush(heap, (weight + math.sqrt(samples.fastest[i]), i))


def run_round(tasks, samples: Samples, tracer=None, extra=None, deadline=math.inf) -> float:
    """Call every task once, in order, or until the deadline; returns the
    round's wall seconds.

    With extra (an iterator of task indices), further calls are made
    between the tasks of the pass, so that they take EXTRA_SHARE of the
    round and each of those tasks is called at many different moments.
    """
    t0 = time.perf_counter()
    extra_s = 0.0
    for i, task in enumerate(tasks):
        if time.perf_counter() > deadline:
            break
        if tracer is not None:
            tracer.task = i
        samples.call(i, task)
        if extra is None:
            continue
        budget = EXTRA_SHARE / (1.0 - EXTRA_SHARE) * (time.perf_counter() - t0 - extra_s)
        while extra_s < budget and (j := next(extra, None)) is not None:
            extra_s += samples.call(j, tasks[j])
    return time.perf_counter() - t0


def measure_setup(args) -> list:
    """Wall time of fresh processes that import stablepgf and build the
    workload's inputs, oracles and reference data, each less its own
    reference kernel calls and scaled to reference seconds by their median."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed)]
    cmd.append("--setup-only")
    times = []
    for _ in range(SETUP_REPEATS):
        s = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - s
        if proc.returncode != 0:
            raise RuntimeError(f"setup process failed:\n{proc.stderr}")
        ref = json.loads(proc.stdout.splitlines()[-1])
        times.append((wall - sum(ref)) * REF_S / statistics.median(ref))
    return times


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    pkg = os.path.join(SRC, "stablepgf")
    src_lines = {}
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as fh:
                src_lines[f"src_lines.{fname[:-3]}"] = sum(1 for _ in fh)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        **src_lines,
        "src_lines.total": sum(src_lines.values()),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(samples: Samples, rounds: int, setup_times) -> tuple[dict, dict]:
    """Timings take each task's median over its calls, in reference seconds
    (see REF_S).  wall_s sums each task's median call plus check over the
    task list."""
    outcomes = samples.outcome
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    decided = sum(o.ok and o.definite for o in outcomes)
    call_s, total_s = samples.scaled_medians()
    deciles = statistics.quantiles(call_s, n=10, method="inclusive")
    ref_ms = 1e3 * statistics.median(d for _, d in samples.ref)
    sampled = f"{attempted} tasks, median of {min(samples.calls)} to {max(samples.calls)} calls each"
    scaled = f"{len(samples.ref)} reference timings, median {ref_ms:.3f} ms"
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(sum(total_s), "s"),
        "task_p50_ms": metric(1e3 * deciles[4], "ms"),
        "task_p90_ms": metric(1e3 * deciles[8], "ms"),
        "pass_frac": metric(1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "decided_frac": metric(decided / attempted, "ratio"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} processes",
        "wall_s": f"{sampled}; {rounds} rounds; {scaled}",
        "task_p50_ms": sampled,
        "task_p90_ms": sampled,
        "pass_frac": f"{attempted} tasks",
        "peak_rss_mb": "1 process",
        "decided_frac": f"{attempted} tasks",
    }
    return metrics, notes


def per_layer(tracer, traced, untraced_walls) -> dict:
    import tracer as tr

    rounds = [(tr.layer_stats(tracer.spans, lo, hi), lo, hi, wall) for lo, hi, wall in traced]
    med = lambda f: statistics.median(f(r) for r in rounds)
    metrics = {}
    for name in tr.SPAN_NAMES:
        metrics[f"{name}.calls"] = metric(med(lambda r: r[0][name]["calls"]), "count")
        metrics[f"{name}.busy_s"] = metric(med(lambda r: r[0][name]["busy_s"]), "s")
        metrics[f"{name}.self_s"] = metric(med(lambda r: r[0][name]["self_s"]), "s")
    spans = tracer.spans
    for exp in EXPERIMENTS:
        runs = lambda r: (s for s in spans[r[1] : r[2]] if s.name == "cli.run_experiment" and s.size == exp)
        metrics[f"cli.{exp}.s"] = metric(med(lambda r: sum(s.end - s.start for s in runs(r))), "s")
    verdict_layers = ("stability.is_real_rooted", "stability.is_stable_multi")
    verdicts = [s.result for s in spans if s.name in verdict_layers]
    definite = sum(v in ("Stable", "Refuted") for v in verdicts)
    metrics["stability.decided_ratio"] = metric(definite / len(verdicts) if verdicts else 0.0, "ratio")
    gil = [s for s in spans if s.name == "particles.gillespie_empirical"]
    gil_busy = sum(s.end - s.start for s in gil)
    samples_per_s = sum(s.size for s in gil) / gil_busy if gil else 0.0
    metrics["particles.gillespie.samples_per_s"] = metric(samples_per_s, "1/s")
    traced_wall = min(wall for *_, wall in traced)
    metrics["trace.overhead_frac"] = metric(traced_wall / min(untraced_walls) - 1.0, "ratio")
    coverage = med(lambda r: tr.top_level_time(spans, r[1], r[2]) / r[3])
    metrics["trace.coverage_frac"] = metric(coverage, "ratio")
    for key, name in EXPONENTS.items():
        metrics[key] = metric(tr.fit_exponent(spans, name), "1")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("suite", "chain", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "stablepgf")):
        print(f"no stablepgf sources under {SRC}", file=sys.stderr)
        return 2
    # A set-up process times the reference kernel before and after its
    # work and prints those timings for measure_setup.
    ref = [time_reference()[1] for _ in range(SETUP_REF_CALLS if args.setup_only else 0)]
    sys.path.insert(0, SRC)
    import stablepgf.cli  # noqa: F401  (imports every layer module)
    import workloads
    from tracer import Tracer

    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed).close()
        ref += [time_reference()[1] for _ in range(SETUP_REF_CALLS)]
        print(json.dumps(ref))
        return 0

    setup_times = [] if args.trace else measure_setup(args)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer()
    samples = Samples(len(wl.tasks), reference=not args.trace)
    walls, untraced_walls, traced = [], [], []
    extra = None
    start = time.perf_counter()
    # Untraced runs use the whole run time: a task's median call needs no
    # complete last round, since the first round calls every task.  Traced
    # rounds are compared with each other and so always complete.
    deadline = start + args.seconds
    samples.start()
    try:
        while True:
            trace_this = bool(args.trace) and len(walls) % 2 == 1
            lo = tracer.mark()
            if trace_this:
                with tracer:
                    wall = run_round(wl.tasks, samples, tracer)
                traced.append((lo, tracer.mark(), wall))
            else:
                cutoff = deadline if walls and not args.trace else math.inf
                wall = run_round(wl.tasks, samples, extra=extra, deadline=cutoff)
                untraced_walls.append(wall)
            walls.append(wall)
            if args.trace:
                if traced and time.perf_counter() + wall > deadline:
                    break
            elif time.perf_counter() >= deadline:
                break
            elif extra is None:
                extra = extra_calls(samples)
    finally:
        samples.stop()
        wl.close()

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    stem = os.path.join(workloads.OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    outcomes = samples.outcome
    failures = sorted(
        (o.failure, t.label, o.note, o.failure in t.known) for t, o in zip(wl.tasks, outcomes) if not o.ok
    )
    correct = all(known for *_, known in failures)
    failed = len(failures)
    info = machine_info()
    if args.trace:
        metrics = per_layer(tracer, traced, untraced_walls)
        notes = {}
        tracer.write(stem + ".spans.json")
    else:
        metrics, notes = end_to_end(samples, len(walls), setup_times)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(walls),
        "tasks": len(wl.tasks),
        "calls": sum(samples.calls),
        "fail_frac": failed / len(outcomes),
        "failures": [{"class": c, "input": label, "note": note, "known": k} for c, label, note, k in failures],
        "known_defects": workloads.KNOWN_DEFECTS,
        "info": info,
        "samples": notes,
        "metrics": metrics,
    }
    with open(stem + ".report.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(walls)} rounds of {len(wl.tasks)} tasks")
    for cls, label, note, known in failures:
        print(f"# FAIL [{cls}{'' if known else ', unexpected'}] {label}: {note}")
    print(f"# fail_frac {failed / len(outcomes):.6g} ({failed} of {len(outcomes)} tasks)")
    for key, val in info.items():
        print(f"# info {key} = {val}")
    for key, m in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"# {key} = {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
