"""padicells benchmark: one workload per run, one closed-loop client.

    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Run from anywhere; padicells is imported from the checkout's src/. The
client runs one operation at a time (one subprocess at a time on `cli`),
because callers wait for each exact result, and cycles through the seeded
corpus of bench/workloads.py for --seconds seconds. Every operation's output
is checked.

The CPU speed of a shared machine drifts: a fixed loop of pure Python runs
up to twice as slow for seconds or minutes at a time, when other work
shares the core. So --trace 0 runs a fixed calibration loop of Fraction
arithmetic, which uses no padicells code, before and after every operation
and every set-up, and reports each time rescaled to the speed at which the
loop takes CALIBRATION_S: time * CALIBRATION_S / (mean of the two loop
times). CALIBRATION_S is the loop's time on the baseline's machine when
nothing else slows it, so there the rescaled times are wall times. Set-up
samples run the loop in their own process, between the phases of set-up
(imports, corpus generation, screening, warm-up), and rescale each phase by
the loops around it: the speed changes within a second. Interpreter start
and imports slow down less than the loop, so a `cli` call (the warm-up of
its set-up too) and the imports of set-up are rescaled by
(CALIBRATION_S / loop time) ** START_EXPONENT, and on `cli` each probe is
the median of five loops. The benchmark pins itself and its children to one
CPU, because the CPUs of a shared machine differ in speed: unpinned, a child
ran on another CPU than the probe, and rescaling made `cli` times less
steady instead of more. The summary lines also print the raw wall figures;
--trace 1 reports raw times.

--trace 0 prints the end-to-end metrics, timings rescaled:
  setup_s      median over SETUP_SAMPLES set-ups in fresh child processes,
               run back to back after the timed loop: imports, corpus
               generation, one warm-up operation outside the timed set
  ops_per_s    operations that succeeded, per second of operation time
  op_p50_ms    nearest-rank median latency; failures count as infinitely slow
  op_p90_ms    the same at p90. With fewer than 100 operations in a run
               (`cli`), the highest percentile with at least 10 operations
               beyond its rank, but not below p50; the summary names it
  ok_ratio     share of the corpus that succeeds (1 - fail_ratio; a ratio
               that can be 0 cannot be compared as a share): the share that
               set-up screens out of the loop (`univariate` inputs that
               decompose_univariate cannot decompose, ROADMAP 4(a)) counts
               as failed, the rest as the timed loop's operations succeed
  peak_rss_mb  getrusage max RSS of this process, or of its children on `cli`
  verify_depth sum over two reference problems of the largest N whose
               oracle_integrate finishes within VERIFY_BUDGET_S of CPU time,
               rescaled like the timings. It measures the oracle alone, but
               every workload reports it, because every run prints every
               end-to-end metric.
--trace 1 runs the first TRACE_OPS[workload] operations once untraced to fill
caches, then TRACE_PAIRS pairs of one untraced and one traced pass over the
same operations, in alternating order. It prints the per-layer metrics of
bench/tracer.py summed over the last traced pass (a fixed set of operations,
so counts repeat exactly for a seed; decompose.precision_exhausted also
counts the inputs screened out at set-up), the command line's start-up probes,
cli.<subcommand>.p50_ms (untraced passes, `cli` only) and trace.overhead (the
median over the pairs of traced / untraced wall time). A layer that a
workload does not reach reads 0. The spans go to
.bench_out/trace-<workload>-<seed>.json.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. An operation fails when it raises, its output check fails, or the
oracle answers with a sampled estimate; a failed check also makes correct
false and the exit code 1. Inputs screened out at set-up are not attempted:
`attempted` and `failed` count the timed (or last traced) operations only.
Without the padicells sources the benchmark exits with code 2 and prints no
result.
"""

import os
import time

from fractions import Fraction

# One CPU for this process and every child it starts: the speed differs
# between the CPUs of a shared machine, and a calibration loop only tells
# the speed of the CPU it ran on.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibration_loop() -> None:
    """Fixed work of exact Fraction arithmetic, like padicells' own but
    using none of its code."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i) * Fraction(i, 7)


def timed_calibration() -> float:
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def steady_calibration() -> float:
    """Median of five loop times, so that one loop's jitter does not show
    in a set-up phase rescaled by it."""
    return sorted(timed_calibration() for _ in range(5))[2]


calibration_loop()  # the first run in a process is slower
_START_PROBE = steady_calibration()
_START = time.perf_counter()  # set-up is timed from here, before any other import

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("oracle", "univariate", "engine", "cli")
SETUP_SAMPLES = 5
TRACE_OPS = {"oracle": 20, "univariate": 20, "engine": 12, "cli": 6}
TRACE_PAIRS = 3
VERIFY_BUDGET_S = 0.45  # CPU seconds per oracle run in verify_depth, rescaled
VERIFY_N_CAP = 20  # per reference problem
INF_MS = 1e12  # how an infinitely slow percentile (a failure) is reported
# time of calibration_loop() at which timings are reported: its uncontended
# time on a 2-core x86_64 Xeon container with Python 3.11
CALIBRATION_S = 0.0018
# Interpreter start and imports (a `cli` call, the imports of set-up) slow
# down about as the square root of the loop: a least-squares fit of log time
# against log loop time, over 50 `cli` calls and 50 set-ups on that
# container, gave exponents of 0.52 and 0.58.
START_EXPONENT = 0.5


# ---------------------------------------------------------------------------
# latency statistics

def percentile(latencies: list[float], q: int) -> float:
    """Nearest-rank q-th percentile. Failed operations are passed as
    math.inf, so they sort after every success."""
    ordered = sorted(latencies)
    return ordered[max(1, math.ceil(q * len(ordered) / 100)) - 1]


def tail_percentile(n: int) -> int:
    """90 when n >= 100; otherwise the highest percentile with at least 10
    of n operations beyond its rank, but not below 50."""
    for q in range(90, 50, -1):
        if n - math.ceil(q * n / 100) >= 10:
            return q
    return 50


def finite_ms(seconds: float) -> float:
    return INF_MS if math.isinf(seconds) else seconds * 1000


# ---------------------------------------------------------------------------
# CPU speed

class Speed:
    """Times of the calibration loop, taken between operations. A steady
    Speed takes the median of five loops each time, for operations that
    last long enough to pay for it."""

    def __init__(self, steady: bool = False):
        self.probes: list[float] = []
        self._time = steady_calibration if steady else timed_calibration

    def probe(self) -> float:
        took = self._time()
        self.probes.append(took)
        return took


def rescale(times, probes, exponent: float = 1.0) -> list[float]:
    """Each time at the speed where the calibration loop takes CALIBRATION_S,
    given the loop's time around it. With an exponent below 1, for work that
    slows less than the loop when the machine is busy."""
    return [t * (CALIBRATION_S / c) ** exponent for t, c in zip(times, probes)]


# ---------------------------------------------------------------------------
# the closed loop

class Outcome:
    """Latencies (inf for failures) and failures of the operations run;
    in a closed loop, also the calibration time around each operation."""

    def __init__(self):
        self.latencies: list[float] = []
        self.spent: list[float] = []  # time of every attempt, failed or not
        self.probes: list[float] = []
        self.failed = 0
        self.wrong = 0
        self.wall = 0.0
        self.errors: list[str] = []

    def attempt(self, op, tracer=None, op_id=None) -> None:
        from workloads import CheckFailed

        if tracer is not None:
            tracer.op = op_id
        error = None
        start = time.perf_counter()
        try:
            op.run()
        except Exception as exc:  # any library error is a failed operation
            error = exc
        took = time.perf_counter() - start
        self.spent.append(took)
        if error is None:
            self.latencies.append(took)
        else:
            self.wrong += isinstance(error, CheckFailed)
            self._fail(op, error)

    def _fail(self, op, exc: Exception) -> None:
        self.failed += 1
        self.latencies.append(math.inf)
        if len(self.errors) < 5:
            self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def closed_loop(ops, seconds: float, speed: Speed) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    before = speed.probe()
    i = 0
    while time.perf_counter() - start < seconds:
        out.attempt(ops[i % len(ops)])
        after = speed.probe()
        out.probes.append((before + after) / 2)
        before = after
        i += 1
    out.wall = time.perf_counter() - start
    return out


def run_each(ops, tracer=None) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        out.attempt(op, tracer, i)
    out.wall = time.perf_counter() - start
    return out


# ---------------------------------------------------------------------------
# set-up

def import_padicells():
    """Puts the checkout's src/ first on sys.path and imports from it."""
    if not os.path.isfile(os.path.join(SRC, "padicells", "__init__.py")):
        _give_up(f"no padicells sources under {SRC}")
    sys.path.insert(0, SRC)
    import padicells

    if os.path.dirname(os.path.abspath(padicells.__file__)) != os.path.join(SRC, "padicells"):
        _give_up(f"padicells imported from {padicells.__file__}, not {SRC}")


def _give_up(message: str):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class SetupClock:
    """Set-up time since _START, in phases; each phase is also rescaled by
    the calibration loops run before and after it, outside the phases."""

    def __init__(self):
        self.raw = self.rescaled = 0.0
        self._probe, self._start = _START_PROBE, _START

    def lap(self, exponent: float = 1.0) -> None:
        took = time.perf_counter() - self._start
        probe = steady_calibration()
        self.raw += took
        self.rescaled += rescale([took], [(self._probe + probe) / 2], exponent)[0]
        self._probe, self._start = probe, time.perf_counter()


def set_up(workload: str, seed: int, workdir: str, clock: SetupClock):
    """Operations to run, launcher (cli only), the warm-up's outcome, and
    the corpus's known defects, screened out of the operations."""
    import workloads

    launch = None
    if workload == "cli":
        launch = workloads.Launcher(sys.executable, child_env(), workdir)
        ops = workloads.cli_ops(seed, launch)
    else:
        ops = getattr(workloads, f"{workload}_ops")(seed)
    clock.lap()
    ops, known = workloads.screen(ops)
    clock.lap()
    warm = Outcome()
    warm.attempt(ops[0])
    clock.lap(START_EXPONENT if workload == "cli" else 1.0)
    return ops[1:], launch, warm, known


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh process: raw, and rescaled phase by phase."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["raw"], result["rescaled"]


# ---------------------------------------------------------------------------
# verify_depth

class _OverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise _OverBudget


def deepest_n(run_at, budget_s: float, cap: int, speed: Speed | None = None) -> int:
    """Largest N <= cap with run_at(n) taking at most budget_s of CPU time
    for every n <= N. With a Speed, each run's CPU time is rescaled by the
    calibration loop run before and after it. A run is stopped once it has
    taken twice the budget."""
    def probe() -> float:
        return speed.probe() if speed else CALIBRATION_S

    previous = signal.signal(signal.SIGPROF, _over_budget)
    best = 0
    try:
        for n in range(1, cap + 1):
            before = probe()
            start = time.process_time()
            try:
                try:
                    signal.setitimer(signal.ITIMER_PROF, 2 * budget_s * before / CALIBRATION_S)
                    run_at(n)
                finally:
                    signal.setitimer(signal.ITIMER_PROF, 0)
            except _OverBudget:
                break
            took = time.process_time() - start
            if took * CALIBRATION_S / ((before + probe()) / 2) > budget_s:
                break
            best = n
    finally:
        signal.signal(signal.SIGPROF, previous)
    return best


def verify_depth(speed: Speed) -> tuple[int, list[str]]:
    from workloads import reference_oracle_problems

    total, parts = 0, []
    for label, run_at in reference_oracle_problems():
        n = deepest_n(run_at, VERIFY_BUDGET_S, VERIFY_N_CAP, speed)
        total += n
        parts.append(f"{label}: N={n}")
    return total, parts


# ---------------------------------------------------------------------------
# command line start-up probes (traced runs)

def _child_ms(code: str, env: dict) -> float:
    """Wall time of `python -c code`, or the float it prints (seconds)."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    wall = time.perf_counter() - start
    printed = done.stdout.strip()
    return 1000 * (float(printed) if printed else wall)


def start_up_probes() -> dict[str, float]:
    env = child_env()
    timed_import = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    return {
        "cli.interp_start_ms": statistics.median(_child_ms("pass", env) for _ in range(5)),
        "cli.sympy_import_ms": statistics.median(
            _child_ms(timed_import.format("sympy"), env) for _ in range(3)),
        "cli.import_ms": statistics.median(
            _child_ms(timed_import.format("padicells.cli"), env) for _ in range(3)),
    }


# ---------------------------------------------------------------------------
# the two kinds of run

def known_notes(ops, known) -> list[str]:
    if not known:
        return []
    return [f"screened out at set-up, decompose_univariate raises PrecisionExhausted "
            f"(ROADMAP 4(a)): {len(known)} of {len(ops) + 1 + len(known)} corpus inputs: "
            + "; ".join(op.label for op in known)]


def measure(args, ops, warm: Outcome, known):
    speed = Speed(steady=args.workload == "cli")
    out = closed_loop(ops, args.seconds, speed)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    exponent = START_EXPONENT if args.workload == "cli" else 1.0
    latencies = rescale(out.latencies, out.probes, exponent)
    spent = rescale(out.spent, out.probes, exponent)
    # operation time of every attempt; failures count their time to the error
    busy = sum(spent)
    depth, depth_parts = verify_depth(speed)
    raw_setups, setups = zip(*(setup_sample(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES)))
    q = tail_percentile(out.attempted)
    # ops lacks the warm-up operation
    corpus_ok = 1 - len(known) / (len(ops) + 1 + len(known))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((out.attempted - out.failed) / busy, "1/s"),
        "op_p50_ms": (finite_ms(percentile(latencies, 50)), "ms"),
        "op_p90_ms": (finite_ms(percentile(latencies, q)), "ms"),
        "ok_ratio": (corpus_ok * (out.attempted - out.failed) / out.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "verify_depth": (depth, "levels"),
    }
    notes = [
        f"{out.attempted} operations in {out.wall:.3f} s, {out.failed} failed "
        f"(fail_ratio {out.failed / out.attempted:.4f}), {out.wrong} wrong",
        f"op_p90_ms taken at p{q} of {out.attempted} operations",
        "calibration loop around operations / CALIBRATION_S: "
        f"min {min(out.probes) / CALIBRATION_S:.3f}, "
        f"median {statistics.median(out.probes) / CALIBRATION_S:.3f}, "
        f"max {max(out.probes) / CALIBRATION_S:.3f}",
        f"raw wall figures: {(out.attempted - out.failed) / out.wall:.4f} ops/s, "
        f"p50 {finite_ms(percentile(out.latencies, 50)):.4f} ms, "
        f"p{q} {finite_ms(percentile(out.latencies, q)):.4f} ms",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)} "
        f"(raw {', '.join(f'{s:.4f}' for s in raw_setups)})",
        f"verify_depth within {VERIFY_BUDGET_S} CPU s, N <= {VERIFY_N_CAP}: "
        + "; ".join(depth_parts),
    ] + known_notes(ops, known)
    return out, warm.wrong == 0 and out.wrong == 0, metrics, notes


def traced_pass(subset, launch):
    from tracer import Tracer

    tracer = Tracer()
    if launch is not None:
        launch.tracer = tracer
    else:
        tracer.install()
    try:
        return run_each(subset, tracer), tracer
    finally:
        tracer.uninstall()
        if launch is not None:
            launch.tracer = None


def trace(args, ops, launch, warm: Outcome, known):
    from tracer import layer_metrics
    from workloads import SUBCOMMANDS

    subset = ops[:TRACE_OPS[args.workload]]
    # a first pass fills padicells' caches, so that every timed pass is warm
    outcomes = [warm, run_each(subset)]
    plains, ratios = [], []
    for pair in range(TRACE_PAIRS):
        if pair % 2:
            out, tracer = traced_pass(subset, launch)
            plain = run_each(subset)
        else:
            plain = run_each(subset)
            out, tracer = traced_pass(subset, launch)
        plains.append(plain)
        ratios.append(out.wall / plain.wall)
        outcomes += [plain, out]
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tracer.write(os.path.join(ROOT, ".bench_out", f"trace-{args.workload}-{args.seed}.json"))

    metrics = {name: (value, _unit(name)) for name, value in layer_metrics(tracer).items()}
    metrics["decompose.precision_exhausted"] = (
        metrics["decompose.precision_exhausted"][0] + len(known), "count")
    metrics.update((name, (value, "ms")) for name, value in start_up_probes().items())
    for sub in SUBCOMMANDS:
        took = [t for plain in plains for op, t in zip(subset, plain.latencies)
                if op.label.startswith(f"cli.{sub} ")]
        metrics[f"cli.{sub}.p50_ms"] = (finite_ms(percentile(took, 50)) if took else 0.0, "ms")
    metrics["trace.overhead"] = (statistics.median(ratios), "ratio")
    notes = [f"{len(subset)} operations per pass; traced / untraced wall time per pair: "
             + ", ".join(f"{r:.3f}" for r in ratios)
             + f"; last traced pass {out.wall:.3f} s, {len(tracer.spans)} spans"]
    notes += known_notes(ops, known)
    correct = all(o.wrong == 0 for o in outcomes)
    return out, correct, metrics, notes


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_mass")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print its raw and rescaled time and exit")
    args = parser.parse_args(argv)

    clock = SetupClock()
    import_padicells()
    clock.lap(START_EXPONENT)
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        ops, launch, warm, known = set_up(args.workload, args.seed, workdir, clock)
        if args.setup_only:
            print(json.dumps({"raw": clock.raw, "rescaled": clock.rescaled}))
            return 0
        if args.trace:
            out, correct, metrics, notes = trace(args, ops, launch, warm, known)
        else:
            out, correct, metrics, notes = measure(args, ops, warm, known)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    for line in warm.errors + out.errors:
        print(f"  failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
