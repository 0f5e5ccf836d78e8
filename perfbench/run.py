"""Benchmark entry point; run it from the repository root:

    python3 perfbench/run.py --workload analyze --seed 0 --seconds 20 --trace 0

Each run is one process and one thread, a closed loop with one client
and no think time. It prints a readable summary and, as its last line,
one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the
library's layers are wrapped (see tracer.py) and the metrics are the
per-layer totals over round 0, which is the same set of operations on
every run with the same seed.

Every reported time is in reference units (see calibrate.py): a fixed
reference computation is timed between and inside operations, and each
duration is scaled by the host speed the samples in and around it show,
so that the shared host's drifting speed largely cancels out.

Set-up (import, input generation, code construction, planner warm-up)
runs SETUP_REPS times, each from a fresh import of the package: once
before the timed phase and then between operations, spread over the
run so that the repetitions meet the same host conditions as the
operations; setup_s is their median.

The timed phase runs whole rounds until the time spent inside
operations reaches --seconds, at least MIN_OPS operations were timed
and at least the workload's min_rounds rounds were run; ops_per_s is
the median over rounds of the completed operations per second spent
inside operations. Each round's results are checked
after the round, outside the timed region. A timer signal bounds each
operation (the workload's guard_s); when it fires the operation counts
as failed and the run goes on.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from calibrate import Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 11
MIN_OPS = 100
# Stop starting operations after this long, so a run that regressed
# badly still exits within its time limit.
HARD_LIMIT_S = 120.0
WORKLOAD_NAMES = ("analyze", "serve", "search", "distance")
# Modules re-imported for every set-up repetition.
_FRESH = ("batchcodes", "workloads", "oracles")


class OpTimeout(Exception):
    """Raised by the timer signal when an operation exceeds its guard."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def use_sources() -> bool:
    """Put the checkout's sources, tests and this directory on sys.path;
    False when the checkout lacks them."""
    if not (ROOT / "src" / "batchcodes" / "__init__.py").is_file() or not (
        ROOT / "tests" / "oracles.py"
    ).is_file():
        print(f"error: no batchcodes sources or tests/oracles.py under {ROOT}",
              file=sys.stderr)
        return False
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]
    return True


def fresh_import():
    for name in list(sys.modules):
        if name.split(".")[0] in _FRESH:
            del sys.modules[name]
    return importlib.import_module("workloads")


class SetUp:
    """Timed set-up repetitions, each from a fresh import of the package.

    The first builds the workload the run uses. Later ones build a
    throwaway copy and then put the live modules back, so the run keeps
    using the objects its workload was built from.
    """

    def __init__(self, name: str, seed: int, workdir: Path, cal: Calibration):
        self.name, self.seed, self.workdir, self.cal = name, seed, workdir, cal
        self.times: list[float] = []
        self.module, self.workload = self._once()
        self._live = {k: m for k, m in sys.modules.items() if k.split(".")[0] in _FRESH}

    def _once(self):
        rep_dir = self.workdir / f"setup{len(self.times)}"
        rep_dir.mkdir()
        gc.collect()
        self.cal.sample(4)
        start = self.cal.begin()
        module = fresh_import()
        workload = module.WORKLOADS[self.name](self.seed, rep_dir)
        end, paused = self.cal.end()
        self.cal.sample(4)
        self.times.append(self.cal.normalize(start, end, paused))
        return module, workload

    def repeat(self) -> None:
        self._once()
        for name in [k for k in sys.modules if k.split(".")[0] in _FRESH]:
            del sys.modules[name]
        sys.modules.update(self._live)


class Results:
    def __init__(self):
        # [round, stratum, start, end, paused, failed] for every timed op;
        # `paused` is the time calibration samples took inside the op.
        self.ops: list[list] = []
        self.failed = 0
        # Wall time inside ops, which sets the run's length.
        self.op_time = 0.0
        self.digest = hashlib.sha256()
        self.errors: list[str] = []
        self.whole_rounds = 0
        # Filled by normalize() from the calibration samples.
        self.latencies: list[float] = []
        self.by_stratum: dict[str, list[float]] = {}
        # Completed ops per second of op time, one entry per whole round.
        self.round_rates: list[float] = []

    def record(self, rnd: int, stratum: str, start: float, end: float,
               paused: float, failed: bool) -> None:
        self.ops.append([rnd, stratum, start, end, paused, failed])
        self.op_time += end - start - paused

    def normalize(self, cal: Calibration) -> None:
        """Convert every op's time to reference units."""
        per_round: dict[int, list[float]] = {}
        done: dict[int, int] = {}
        for rnd, stratum, start, end, paused, failed in self.ops:
            seconds = cal.normalize(start, end, paused)
            self.latencies.append(seconds)
            self.by_stratum.setdefault(stratum, []).append(seconds)
            per_round.setdefault(rnd, []).append(seconds)
            done[rnd] = done.get(rnd, 0) + (not failed)
        self.round_rates = [
            done[rnd] / sum(per_round[rnd]) for rnd in range(self.whole_rounds)
        ]

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


_FAILED = object()


def run_op(workload, op, res: Results, tracer, cal: Calibration, op_id: int, rnd: int):
    """Time one operation; returns its result, or _FAILED."""
    thunk = op.prepare()
    if tracer is not None:
        tracer.begin_op(op_id)
    failure = None
    start = cal.begin()
    try:
        signal.setitimer(signal.ITIMER_REAL, workload.guard_s)
        try:
            result = thunk()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end, paused = cal.end()
    except OpTimeout:
        failure = f"exceeded the {workload.guard_s} s guard"
        workload.recover(op)
    except Exception as exc:  # any library error is a failed op
        failure = repr(exc)
    finally:
        if tracer is not None:
            tracer.end_op()
    res.record(rnd, op.stratum, start, end, paused, failure is not None)
    if failure is not None:
        res.fail(f"{op.stratum}: {failure}")
        return _FAILED
    return result


def check_op(op, result, res: Results, index: int) -> bytes:
    """Check the result of timed op `index`; returns its canonical output
    for the digest."""
    if result is _FAILED:
        return b"<failed>"
    try:
        return op.check(result)
    except Exception as exc:  # CheckFailed, or output that does not parse
        res.fail(f"{op.stratum}: {exc}")
        res.ops[index][5] = True
        return b"<failed>"


def run_rounds(workload, seconds: float, tracer, cal: Calibration, after_op=None):
    signal.signal(signal.SIGALRM, _on_alarm)
    res = Results()
    window = None
    rounds = 0
    begun = perf_counter()
    stop = False
    cal.sample(4)
    while not stop:
        timed = []
        for op in workload.round(rounds):
            if perf_counter() - begun > HARD_LIMIT_S:
                stop = True
                break
            index = len(res.ops)
            timed.append((op, run_op(workload, op, res, tracer, cal, index, rounds), index))
            if after_op is not None:
                after_op(res.op_time)
            cal.maybe_sample()
        # Checks wait for the end of the round, so that the timed calls
        # follow one another as a closed loop with no think time.
        for op, result, index in timed:
            out = check_op(op, result, res, index)
            if rounds == 0:
                res.digest.update(out + b"\n")
        if not stop:
            res.whole_rounds += 1
        rounds += 1
        if rounds == 1:
            window = (len(res.ops), res.op_time)
            if tracer is not None:
                window += (tracer.metrics(), tracer.self_times())
        if (res.op_time >= seconds and len(res.ops) >= MIN_OPS
                and rounds >= workload.min_rounds):
            stop = True
    cal.sample(4)
    res.normalize(cal)
    return res, rounds, window


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def summarize(name, seed, res, rounds, setup_s, digest, stored):
    n = len(res.latencies)
    print(f"workload {name} seed {seed}: {n} ops in {rounds} rounds, "
          f"{res.failed} failed, {res.op_time:.3f} s inside ops")
    print(f"setup_s {setup_s:.4f} (median of {SETUP_REPS})")
    line = (f"latency ms: p50 {quantile(res.latencies, 50) * 1e3:.3f}, "
            f"p90 {quantile(res.latencies, 90) * 1e3:.3f}")
    if n >= 1000:
        line += f", p99 {quantile(res.latencies, 99) * 1e3:.3f}"
    print(line + f" (n={n})")
    for stratum, lat in sorted(res.by_stratum.items()):
        if len(lat) >= 2:
            print(f"  {stratum}: n={len(lat)} p50 {statistics.median(lat) * 1e3:.3f} ms "
                  f"max {max(lat) * 1e3:.3f} ms")
    verdict = "none stored" if stored is None else ("match" if digest == stored else "MISMATCH")
    print(f"round-0 output digest {digest} (stored for this seed: {verdict})")
    for message in res.errors:
        print(f"failed: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_sources():
        return 2

    # Samples inside ops would count in the traced run's span times.
    cal = Calibration(in_op=not args.trace)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup = SetUp(args.workload, args.seed, workdir, cal)
        module, workload = setup.module, setup.workload
        tracer = after_op = None
        if args.trace:
            while len(setup.times) < SETUP_REPS:
                setup.repeat()
            import tracer as tracing

            tracer = tracing.Tracer(
                {m: sys.modules[f"batchcodes.{m}"]
                 for m in ("cli", "report", "profiler", "planner", "gf2")}
            )
            tracer.install()
        else:
            step = args.seconds / (SETUP_REPS - 1)

            def after_op(op_time: float) -> None:
                if len(setup.times) < SETUP_REPS and op_time >= step * len(setup.times):
                    setup.repeat()

        try:
            res, rounds, window = run_rounds(workload, args.seconds, tracer, cal, after_op)
        finally:
            if tracer is not None:
                tracer.uninstall()
        while len(setup.times) < SETUP_REPS:
            setup.repeat()
        setup_s = statistics.median(setup.times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = res.digest.hexdigest()
    stored = None
    if args.seed == module.DEFAULT_SEED:
        stored = module.load_frozen().get("digests", {}).get(args.workload)
    summarize(args.workload, args.seed, res, rounds, setup_s, digest, stored)

    n = len(res.latencies)
    # The median round resists both bursts of host contention and the
    # rare very slow query, where a pooled rate would follow them.
    ops_per_s = (
        statistics.median(res.round_rates) if res.round_rates
        else (n - res.failed) / sum(res.latencies)
    )
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "latency_p50_ms": (quantile(res.latencies, 50) * 1e3, "ms"),
            "latency_p90_ms": (quantile(res.latencies, 90) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        window_ops, window_time, metrics, self_times = window
        print(f"traced ops_per_s {ops_per_s:.4f}; round 0: {window_ops} ops, "
              f"{window_time:.3f} s inside ops; self-time shares:")
        for span, seconds in sorted(self_times.items(), key=lambda kv: -kv[1]):
            if seconds:
                print(f"  {span}: {seconds / window_time:.1%}")
    correct = res.failed == 0 and (stored is None or stored == digest)
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
