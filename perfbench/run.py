"""Benchmark of chaos_edge: certified locates, entropy and the float classifier.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/run.py --workload exact-locate --seed 1 --seconds 30 --trace 0

Runs one workload in this process as a closed loop, one operation at a time,
in whole rounds of the same operations until the next round would pass
--seconds (at least one round).  Every output is checked by perfbench/checks.py.
The last line of standard output is one JSON object: the end-to-end metrics
with --trace 0, the per-layer metrics (calls wrapped by perfbench/tracing.py)
with --trace 1.  Results and spans are also written under perfbench/out/.

Times are rescaled to a fixed machine speed.  The host this was built on
changes speed by up to a third over tens of seconds, so a short fixed loop
(`reference`) is timed just before and just after each operation and every
SAMPLE_EVERY seconds while it runs (from a SIGALRM handler, whose time is
taken out of the operation's).  The operation's wall time is multiplied by
the mean of REF_SECONDS over the reference's wall times, its CPU time by
the mean of REF_SECONDS over the reference's CPU times.  Raw times are kept
in the result file and printed to standard error.

setup_s is the median of SETUP_RUNS cold set-ups: this process's own and
those of SETUP_RUNS - 1 child processes that make only the set-up, started
between operations at even intervals of the run.  Each set-up is rescaled
the same way, sampling every SETUP_SAMPLE_EVERY seconds.
"""

import time

T_START = time.perf_counter()   # set-up is timed from the first line

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("exact-locate", "entropy-laps", "float-locate")
REF_TERMS = 1000
REF_SECONDS = 0.0038    # median duration of reference() on the 2-core build host
SAMPLE_EVERY = 0.1
SETUP_SAMPLE_EVERY = 0.02
SETUP_RUNS = 5


def reference() -> tuple:
    """(wall, CPU) seconds taken by a fixed exact rational sum, the program's
    own kind of work; the collector is off so the program's heap does not
    show in it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        s = Fraction(0)
        for k in range(1, REF_TERMS):
            s += Fraction(1, k)
        return time.perf_counter() - w0, time.process_time() - c0
    finally:
        if was_enabled:
            gc.enable()


class SpeedSampler:
    """Times a span of work and its speed factors: reference() runs just
    before the span, every `every` seconds during it (from a SIGALRM handler
    whose time is taken out of the span's) and just after it."""

    def __init__(self, every: float):
        self.every = every

    def _tick(self, signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        self.timings.append(reference())
        self.busy_wall += time.perf_counter() - w0
        self.busy_cpu += time.process_time() - c0

    def __enter__(self):
        self.timings, self.busy_wall, self.busy_cpu = [reference()], 0.0, 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        self.start, self._cpu_start = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        self.end, c1 = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.timings.append(reference())
        self.wall = self.end - self.start - self.busy_wall
        self.cpu = c1 - self._cpu_start - self.busy_cpu
        self.wall_factor = statistics.fmean(REF_SECONDS / w for w, _ in self.timings)
        self.cpu_factor = statistics.fmean(REF_SECONDS / c for _, c in self.timings)


def import_program():
    """Import chaos_edge from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "chaos_edge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no chaos_edge sources under {src}")
    sys.path.insert(0, str(src))
    import chaos_edge
    if Path(chaos_edge.__file__).resolve().parent != (src / "chaos_edge").resolve():
        sys.exit(f"perfbench: imported chaos_edge from {chaos_edge.__file__}, not {src}")


class Tally:
    """Outcomes and times of the operations run so far."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.op_walls = []          # rescaled wall seconds per operation
        self.op_spans = []          # (start, end, wall speed factor) per operation
        self.rounds = []            # per round: rescaled wall, rescaled cpu, raw wall, raw cpu

    def run_op(self, op):
        """Run and check one operation; returns its times as in self.rounds."""
        error = None
        with SpeedSampler(SAMPLE_EVERY) as span:
            try:
                out = op.run()
            except Exception as exc:     # one operation's failure must not end the run
                error = exc
                detail = traceback.format_exc()
        self.op_walls.append(span.wall * span.wall_factor)
        self.op_spans.append((span.start, span.end, span.wall_factor))
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if op.raises is None or not isinstance(error, op.raises):
                self.correct = False
                print(f"FAILED {op.name}:\n{detail}", file=sys.stderr)
        else:
            try:
                problem = op.check(out)
            except Exception:
                problem = "check raised:\n" + traceback.format_exc()
            if problem and op.known_fault and op.raises is None:
                self.failed += 1
            elif problem:
                self.correct = False
                print(f"WRONG {op.name}: {problem}", file=sys.stderr)
        return span.wall * span.wall_factor, span.cpu * span.cpu_factor, span.wall, span.cpu

    def run_round(self, ops, before_op=lambda: None):
        """Run every operation once, calling before_op() ahead of each; returns
        the round's raw wall seconds."""
        times = []
        for op in ops:
            before_op()
            times.append(self.run_op(op))
        self.rounds.append([sum(col) for col in zip(*times)])
        return self.rounds[-1][2]

    def median(self, column: int) -> float:
        return statistics.median(r[column] for r in self.rounds)

    def factor_at(self, t: float) -> float:
        """Wall speed factor of the operation running at time t."""
        i = bisect.bisect_right(self.op_spans, (t, float("inf"))) - 1
        return self.op_spans[i][2] if i >= 0 else 1.0


def end_to_end(tally, setup_s):
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": tally.median(0), "unit": "s"},
        "cpu_s": {"value": tally.median(1), "unit": "s"},
        "op_p50_s": {"value": statistics.median(tally.op_walls), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def traced_run(ops, seconds, started, spans_path):
    """Pairs of rounds, one untraced and one traced, until the next pair would
    pass `seconds`; returns (per-layer metrics, untraced tally, traced tally)."""
    import tracing
    tracer = tracing.Tracer()
    plain, traced = Tally(), Tally()
    while True:
        last = plain.run_round(ops)
        tracer.install()
        try:
            last += traced.run_round(ops)
        finally:
            tracer.uninstall()
        if time.perf_counter() - started + last > seconds:
            break
    rounds = len(traced.rounds)
    metrics = {}
    times = tracer.layer_times(traced.factor_at)
    for name in tracing.span_names():
        incl, self_s, calls = times.get(name, (0.0, 0.0, 0))
        metrics[f"{name}.s"] = {"value": incl / rounds, "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": self_s / rounds, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": calls / rounds, "unit": "count"}
    for name in tracing.COUNTER_NAMES:
        metrics[name] = {"value": tracer.counts.get(name, 0) / rounds, "unit": "count"}
    traced_wall = traced.median(0)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain.median(0), "unit": "s"}
    metrics["trace.absent"] = {"value": len(tracer.absent), "unit": "count"}
    tracer.write(spans_path)
    if tracer.absent:
        print(f"absent from chaos_edge: {', '.join(tracer.absent)}", file=sys.stderr)
    return metrics, plain, traced


def child_setup(args):
    """(raw, rescaled) set-up seconds of a child process that makes this
    workload's set-up from a cold start and exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    child = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if child.returncode != 0:
        sys.exit(f"perfbench: set-up child failed:\n{child.stderr}")
    return tuple(json.loads(child.stdout.splitlines()[-1]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="make the set-up, print its [raw, rescaled] seconds and exit")
    args = ap.parse_args(argv)

    with SpeedSampler(SETUP_SAMPLE_EVERY) as span:
        import_program()
        import workloads
        ops = workloads.build(args.workload, args.seed)
    # from the first line, less the reference timings
    setup_raw = span.end - T_START - span.timings[0][0] - span.busy_wall
    setups = [(setup_raw, setup_raw * span.wall_factor)]
    if args.setup_only:
        print(json.dumps(setups[0]))
        return 0

    tag = f"{args.workload}-seed{args.seed}"
    started = time.perf_counter()
    if args.trace:
        metrics, *tallies = traced_run(ops, args.seconds, started, OUT / f"spans-{tag}.jsonl")
    else:
        def setup_due():
            # the child set-ups are spread over the run, between operations,
            # so that they do not all meet the same spell of host speed
            if (len(setups) < SETUP_RUNS and
                    time.perf_counter() - started >= len(setups) * args.seconds / SETUP_RUNS):
                setups.append(child_setup(args))

        tallies = [Tally()]
        while True:
            last = tallies[0].run_round(ops, setup_due)
            if time.perf_counter() - started + last > args.seconds:
                break
        while len(setups) < SETUP_RUNS:
            setups.append(child_setup(args))
        metrics = end_to_end(tallies[0], statistics.median(s for _, s in setups))
        t = tallies[0]
        print(f"raw: setup_s {statistics.median(r for r, _ in setups):.4f} "
              f"wall_s {t.median(2):.4f} cpu_s {t.median(3):.4f}", file=sys.stderr)

    result = {"correct": all(t.correct for t in tallies),
              "attempted": sum(t.attempted for t in tallies),
              "failed": sum(t.failed for t in tallies),
              "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  setups=setups, ops_per_round=len(ops),
                  round_columns=["wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s"],
                  rounds=[t.rounds for t in tallies],
                  known_faults=sorted({op.known_fault for op in ops if op.known_fault}))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
