"""testsched benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

    python3 bench/run.py --workload uniform_grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1            # every workload, untraced then traced
    python3 bench/run.py --self-test         # the checks must catch a corrupted op

One client in one process and one thread, closed loop: each op starts when
the previous one returns.  The package is imported from the checkout's
src/; nothing is installed.  Each run writes a result file (metrics, exact
counts, provenance) to bench/out/ or --out and prints one JSON object as
its last line.  bench/README.md describes the metrics and bench/compare.py.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from bisect import bisect_left
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from heapq import heappop, heappush
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# The benchmark measures the checkout it sits in, never an installed copy.
if not (SRC / "testsched" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'testsched'} not found; run from the root of a testsched checkout")
sys.path[:0] = [str(SRC), str(BENCH)]

import testsched  # noqa: E402
from testsched import analysis, cli, core, engine  # noqa: E402
from workloads import MC_TRIALS, WORKLOADS, expect  # noqa: E402

MIN_PASSES = 3          # timed passes of fresh ops, even past --seconds; >= 100 ops
CALIBRATION_EVERY_S = 0.05  # least gap between two calibration samples
CALIBRATION_REF_S = 0.007   # kernel time on the reference machine; sets the scale
WARMUP_SECONDS = 1.0    # at least this long, and each workload's warm-up op count
SETUP_REPEATS = 11      # fresh interpreters timed per run; the median is reported
COVER_OPS = 3           # ops of each other workload in a traced run
VERIFY_CALLS = 5        # timed verify_constants calls in a traced run
SWEEP_ARGS = ["sweep", "ute", "--gen", "extreme_uniform", "--param", "n=2000",
              "--param", "gamma=0.5", "--param", "placement=spread",
              "--sweep", "p_bar=1.8668:2.3668:0.05"]
SWEEP_POINTS = 11

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "op/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "ok_share": "ratio", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "generators.build_instance.us_per_call": "us",
    "generators.gen_four_type.us_per_call": "us",
    "core.validate_instance.us_per_job": "us",
    "engine.StaticSource.us_per_call": "us",
    "engine.run.us_per_call": "us",
    "engine.run.us_per_action": "us",
    "engine.actions": "count",
    "engine.run_expected.ms_per_call": "ms",
    "engine.run_expected.runs": "count",
    "engine.protocol_overhead.us_per_action": "us",
    "algorithms.drive.us_per_action": "us",
    "algorithms.first_action.us": "us",
    "algorithms.parse_algorithm.us_per_call": "us",
    "algorithms.tests_paid_share": "ratio",
    "offline.optimal_sum.us_per_call": "us",
    "offline.brute_force_optimum.ms_per_call": "ms",
    "analysis.random_expected_cost.us_per_call": "us",
    "analysis.verify_constants.ms_per_call": "ms",
    "cli.sweep.us_per_point": "us",
    "bench.trace_overhead_share": "ratio",
}


class Tracer:
    """Spans (id, op id, name, start, end, parent id) kept in memory, plus work counts.

    `tracer(name, fn, *args)` runs fn inside a span whose parent is the
    current op's span, so a Tracer stands in for workloads.plain.
    """

    def __init__(self):
        self.spans = []
        self.work = Counter()
        self._op = None
        self._parent = None

    def __call__(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.record(name, start, time.perf_counter())

    def record(self, name, start, end):
        self.spans.append((len(self.spans), self._op, name, start, end, self._parent))

    @contextmanager
    def op(self, op_id):
        """Span of one op; spans recorded inside it are its children."""
        sid = len(self.spans)
        self.spans.append(None)
        self._op, self._parent = op_id, sid
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[sid] = (sid, op_id, "op", start, time.perf_counter(), None)
            self._parent = None

    @contextmanager
    def request(self, op_id):
        """Spans recorded inside share the op id but hang off no op span."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = None

    def totals(self):
        """name -> (calls, seconds, self seconds); self time excludes child spans."""
        child = defaultdict(float)
        for _sid, _op, _name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _op, name, start, end, _parent in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[sid]
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path):
        keys = ("id", "op", "name", "start", "end", "parent")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


class Tally:
    """Ops attempted and failed.  A failure is counted, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, what, exc):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def attempt(self, what, fn, *args):
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # one failing op must not end the run
            self.fail(what, exc)


def timed_op(wl, op, tally, opt_shift=0):
    """Run one op untraced and return its seconds; check it after the clock stops."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        out = wl.run(op)
    except Exception as exc:  # counted in ok_share like a failed check
        seconds = time.perf_counter() - start
        tally.fail(f"op {op.index} {op.point}", exc)
        return seconds
    seconds = time.perf_counter() - start
    try:
        wl.check(op, out, opt_shift=opt_shift)
    except Exception as exc:
        tally.fail(f"op {op.index} {op.point}", exc)
    return seconds


def warm_up(wl, tally):
    """Checked, untimed ops from the tail of the stream until the process is warm.

    Warm-up ops count down from -1 and the measured ops count up from 0,
    so a seed always measures the same inputs, and none of them was run
    during the warm-up unless the workload's grid is smaller than the run.
    """
    index = -1
    start = time.perf_counter()
    while -index <= wl.warmup_ops or time.perf_counter() - start < WARMUP_SECONDS:
        timed_op(wl, wl.op(index), tally)
        index -= 1


def measure_setup(name, seed, speed):
    """Median rescaled wall time from spawning a fresh interpreter until it could start an op."""
    code = (f"import sys; sys.path[:0] = {[str(SRC), str(BENCH)]!r}; "
            f"from workloads import WORKLOADS; WORKLOADS[{name!r}]({seed!r}); "
            "print('ready', flush=True)")
    spawns = []
    for k in range(SETUP_REPEATS + 1):  # the first spawn only warms caches
        speed.sample(force=True)
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up child exited with {proc.returncode}")
        if k:
            spawns.append((start, ready - start))
    speed.sample(force=True)
    return (statistics.median(t for _, t in spawns),
            statistics.median(t * speed.scale(start) for start, t in spawns))


def _kernel_steps(n):
    x = 0
    for i in range(n):
        x = yield i, x


def calibration_kernel():
    """Fixed pure-Python work in testsched's style (generator sends, tuples, a
    heap, Fraction arithmetic) that never calls testsched."""
    heap = []
    gen = _kernel_steps(6000)
    send = None
    try:
        while True:
            i, x = gen.send(send)
            heappush(heap, (x % 1000, i, float(i)))
            if len(heap) > 64:
                heappop(heap)
            send = (x + i) % 1000003
    except StopIteration:
        pass
    a, b, acc = Fraction(17453, 10000), Fraction(28609, 10000), Fraction(0)
    for i in range(400):
        acc += a * i + b / (i + 1)
    return acc


class MachineSpeed:
    """Times of the calibration kernel, sampled between ops all run long.

    `scale(start)` is CALIBRATION_REF_S / the mean kernel time of the two
    samples taken just before and just after `start`.  A time that began
    at `start`, multiplied by it, reads as on a machine on which the kernel
    takes CALIBRATION_REF_S.
    """

    def __init__(self):
        self.starts = []
        self.samples = []
        self._last = -math.inf

    def sample(self, force=False):
        if not force and time.perf_counter() - self._last < CALIBRATION_EVERY_S:
            return
        gc.disable()  # a collection landing in the kernel would be noise
        try:
            start = time.perf_counter()
            calibration_kernel()
            self._last = time.perf_counter()
        finally:
            gc.enable()
        self.starts.append(start)
        self.samples.append(self._last - start)

    def scale(self, start):
        i = bisect_left(self.starts, start)
        return CALIBRATION_REF_S / statistics.fmean(self.samples[max(i - 1, 0):i + 1])


def end_to_end(wl, seconds, tally):
    """Set-up time, then passes of fresh ops until `seconds` of op time are spent.

    Each op is timed once, on a new op index, so a cold first call, a
    collection or heap growth counts as users would see it.  Each op's time
    is rescaled by the calibration kernel's speed around it: on a shared
    2-CPU machine the speed of both halved and recovered within seconds.
    Passes are whole, so every run weighs a small grid's points alike.
    """
    speed = MachineSpeed()
    setup_raw, setup = measure_setup(wl.name, wl.seed, speed)
    warm_up(wl, tally)
    starts, times = [], []
    while len(times) < MIN_PASSES * wl.pass_ops or len(times) % wl.pass_ops \
            or math.fsum(times) < seconds:
        starts.append(time.perf_counter())
        times.append(timed_op(wl, wl.op(len(times)), tally))
        speed.sample()
    speed.sample(force=True)
    rescaled = [t * speed.scale(start) for start, t in zip(starts, times)]
    raw = figures(times)
    values = figures(rescaled)
    raw["setup_s"], values["setup_s"] = setup_raw, setup
    values["ok_share"] = 1 - tally.failed / tally.attempted
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail = {"passes": len(times) // wl.pass_ops, "ops_per_pass": wl.pass_ops,
              "op_seconds": math.fsum(times), "unscaled": raw,
              "calibration_samples": len(speed.samples),
              "calibration_median_s": statistics.median(speed.samples),
              "failed_share": tally.failed / tally.attempted,
              "op_ms": [t * 1e3 for t in rescaled]}
    return values, detail


def figures(times):
    return {
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_p90": statistics.quantiles(times, n=10)[8] * 1e3,
    }


def drive(gen_fn, view, procs):
    """Feed a strategy its revealed times with no protocol checks; return its action count."""
    gen = gen_fn(view)
    send = None
    count = 0
    try:
        while True:
            kind, job = gen.send(send)
            count += 1
            send = procs[job] if kind == core.TEST else None
    except StopIteration:
        return count


def traced_op(tracer, wl, op):
    with tracer.request(op.index):
        with tracer.op(op.index):
            out = wl.run(op, tracer)
        wl.check(op, out, tracer)
    if isinstance(out.result, engine.ExpectedRun):
        tracer.work["engine.run_expected.runs"] += out.result.trials
    return out


def probe(tracer, wl, op, out):
    """Layer probes on one op's instance, outside the op's span."""
    inst = out.inst
    view = (inst.n, inst.uppers())
    gen_fn = wl.probe_generator(op)
    with tracer.request(op.index):
        tracer("core.validate_instance", core.validate_instance, inst)
        tracer.work["core.validate_instance.jobs"] += inst.n
        start = time.perf_counter()
        gen = gen_fn(view)
        next(gen)
        tracer.record("algorithms.first_action", start, time.perf_counter())
        gen.close()
        start = time.perf_counter()
        actions = drive(gen_fn, view, inst.procs())
        tracer.record("algorithms.drive", start, time.perf_counter())
        trace = out.result
        if not isinstance(trace, core.Trace):  # the op reached engine.run only via run_expected
            trace = tracer("engine.run", engine.run, gen_fn, engine.StaticSource(inst),
                           inst.n, inst.uppers())
    expect(actions == len(trace.steps),
           f"bare drive made {actions} actions, engine.run {len(trace.steps)}")
    tracer.work["algorithms.drive.actions"] += actions
    tracer.work["engine.actions"] += len(trace.steps)
    for kind, job, _start, _dur in trace.steps:
        if kind == core.TEST:
            tracer.work["algorithms.tests"] += 1
            tracer.work["algorithms.tests_paid"] += 1 + inst.jobs[job].proc < inst.jobs[job].upper


def cli_sweep(tracer, out_dir):
    fd, path = tempfile.mkstemp(suffix=".csv", dir=out_dir)
    os.close(fd)
    try:
        rc = tracer("cli.sweep", cli.main, SWEEP_ARGS + ["--out", path])
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
    finally:
        os.unlink(path)
    expect(rc == 0 and len(rows) == SWEEP_POINTS, f"sweep exited {rc} with {len(rows)} rows")
    worst = max(float(r["ratio"]) for r in rows)
    expect(worst <= analysis.UTE_RHO_PUBLISHED, f"sweep ratio {worst} above the ute guarantee")
    tracer.work["cli.sweep.points"] += len(rows)


def verify_constants(tracer):
    """Cold calls: the caches of analysis's solvers are emptied before each."""
    caches = [f for f in vars(analysis).values() if hasattr(f, "cache_clear")]
    for _ in range(VERIFY_CALLS):
        for f in caches:
            f.cache_clear()
        report = tracer("analysis.verify_constants", analysis.verify_constants)
        expect(report["ok"], "verify_constants reports a constant out of tolerance")


def per_layer(wl, out_dir, tally):
    """Fixed ops, each untraced and then traced; then probes and cover ops."""
    own, cover = Tracer(), Tracer()
    warm_up(wl, tally)
    untraced = 0.0
    for op in map(wl.op, range(wl.traced_ops)):
        # Untraced, then traced, op by op, so a change in machine speed hits both alike.
        untraced += timed_op(wl, op, tally)
        tally.attempt(f"traced op {op.index}",
                      lambda op=op: probe(own, wl, op, traced_op(own, wl, op)))
    for other in WORKLOADS.values():
        if other is not type(wl):
            ow = other(wl.seed)
            for i in range(COVER_OPS):
                tally.attempt(f"{ow.name} op {i}", traced_op, cover, ow, ow.op(i))
    tally.attempt("verify_constants", verify_constants, own)
    tally.attempt("cli sweep", cli_sweep, own, out_dir)
    layers = Layers(own, cover)
    values = layers.values()
    values["bench.trace_overhead_share"] = layers.own["op"][1] / untraced - 1
    detail = {"traced_ops": wl.traced_ops, "from_cover_ops": sorted(layers.from_cover),
              "spans": {name: dict(zip(("calls", "seconds", "self_seconds"), row))
                        for name, row in sorted(layers.own.items())},
              "work": dict(own.work)}
    return values, detail, own


class Layers:
    """Per-layer metrics from a traced pass.  A layer the workload's own ops
    never call is measured on the cover ops (a few ops of each other workload)."""

    def __init__(self, own, cover):
        self.own, self.cover = own.totals(), cover.totals()
        self.own_work, self.cover_work = own.work, cover.work
        self.from_cover = set()

    def get(self, name):
        """(calls, seconds, work counts) of the spans called `name`."""
        if name in self.own:
            return self.own[name][0], self.own[name][1], self.own_work
        self.from_cover.add(name)
        return self.cover[name][0], self.cover[name][1], self.cover_work

    def per_call(self, name, scale):
        calls, seconds, _ = self.get(name)
        return seconds / calls * scale

    def per_unit(self, name, unit, scale):
        _, seconds, work = self.get(name)
        return seconds / work[unit] * scale

    def values(self):
        run_seconds = self.get("engine.run")[1]
        drive_seconds = self.get("algorithms.drive")[1]
        actions = self.own_work["engine.actions"]
        tests = self.own_work["algorithms.tests"]
        return {
            "generators.build_instance.us_per_call": self.per_call("generators.build_instance", 1e6),
            "generators.gen_four_type.us_per_call": self.per_call("generators.gen_four_type", 1e6),
            "core.validate_instance.us_per_job":
                self.per_unit("core.validate_instance", "core.validate_instance.jobs", 1e6),
            "engine.StaticSource.us_per_call": self.per_call("engine.StaticSource", 1e6),
            "engine.run.us_per_call": self.per_call("engine.run", 1e6),
            "engine.run.us_per_action": run_seconds / actions * 1e6,
            "engine.actions": actions,
            "engine.run_expected.ms_per_call": self.per_call("engine.run_expected", 1e3),
            "engine.run_expected.runs": self.get("engine.run_expected")[2]["engine.run_expected.runs"],
            "engine.protocol_overhead.us_per_action": (run_seconds - drive_seconds) / actions * 1e6,
            "algorithms.drive.us_per_action":
                self.per_unit("algorithms.drive", "algorithms.drive.actions", 1e6),
            "algorithms.first_action.us": self.per_call("algorithms.first_action", 1e6),
            "algorithms.parse_algorithm.us_per_call": self.per_call("algorithms.parse_algorithm", 1e6),
            "algorithms.tests_paid_share": self.own_work["algorithms.tests_paid"] / tests if tests else 0.0,
            "offline.optimal_sum.us_per_call": self.per_call("offline.optimal_sum", 1e6),
            "offline.brute_force_optimum.ms_per_call": self.per_call("offline.brute_force_optimum", 1e3),
            "analysis.random_expected_cost.us_per_call":
                self.per_call("analysis.random_expected_cost", 1e6),
            "analysis.verify_constants.ms_per_call": self.per_call("analysis.verify_constants", 1e3),
            "cli.sweep.us_per_point": self.per_unit("cli.sweep", "cli.sweep.points", 1e6),
        }


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
    except OSError:  # no git on this machine
        return None
    return out.stdout.strip() or None


def provenance(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "K": MC_TRIALS,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "platform": platform.platform(), "commit": git_commit(),
        "testsched_version": testsched.__version__,
        "loadavg_start": list(os.getloadavg()),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_workload(args):
    prov = provenance(args)
    wl = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    if args.trace:
        values, detail, tracer = per_layer(wl, out_dir, tally)
        units = PER_LAYER_UNITS
        tracer.write(f"{stem}.spans.jsonl")
    else:
        values, detail = end_to_end(wl, args.seconds, tally)
        units = END_TO_END_UNITS
    result = {
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(f"{stem}.json", "w") as f:
        json.dump({**result, "provenance": prov, "detail": detail, "errors": tally.errors},
                  f, indent=1)
    print(f"# {wl.name} seed={args.seed} trace={args.trace} nproc={prov['nproc']} "
          f"python={prov['python']} load={prov['loadavg_start'][0]:.2f} commit={prov['commit']}")
    for name, metric in result["metrics"].items():
        print(f"{name:44s} {metric['value']:14.6g} {metric['unit']}")
    if not args.trace:
        print(f"{'failed_share':44s} {detail['failed_share']:14.6g} ratio")
    for name, value in detail.get("unscaled", {}).items():
        print(f"{'unscaled ' + name:44s} {value:14.6g}")
    for err in tally.errors:
        print(f"# failed: {err}", file=sys.stderr)
    print(f"# result file: {stem}.json")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    failed = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--out", args.out]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines or not json.loads(lines[-1])["correct"]:
                failed += 1
    return 1 if failed else 0


def self_test(args):
    """The checks must pass good ops and catch one op whose OPT is off by one."""
    problems = []
    for name, cls in WORKLOADS.items():
        wl = cls(args.seed)
        tally = Tally()
        for index in range(3):
            timed_op(wl, wl.op(index), tally, opt_shift=1 if index == 1 else 0)
        if (tally.attempted, tally.failed) != (3, 1):
            problems.append(f"{name}: {tally.failed} of {tally.attempted} ops failed, "
                            f"expected 1 of 3: {tally.errors}")
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            if declared != units:
                problems.append(f"BENCHMARK.json {key} differs from what run.py reports")
        if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from bench/workloads.py")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="one workload; default: every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    p.add_argument("--seconds", type=float, default=20.0, help="op time measured per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--out", default=str(BENCH / "out"), help="directory for result files")
    p.add_argument("--self-test", action="store_true", help="check the harness's checks")
    args = p.parse_args(argv)
    os.environ.pop("TESTSCHED_WORKERS", None)  # the sweep must stay in this process
    if args.self_test:
        return self_test(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
