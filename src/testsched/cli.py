"""Command-line workbench around the library.

Subcommands: simulate one algorithm on one instance, sweep a generator
parameter grid to CSV, verify the published constants, evaluate the two
lower-bound constructions, generate instance files, and replay traces.

Exit codes: 0 success, 1 verification/protocol failure, 2 bad usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from . import analysis, generators
from .algorithms import ConfigurationError, parse_algorithm
from .core import (
    InputFileError,
    InstanceError,
    TraceError,
    check_trace_durations,
    instance_text,
    load_instance,
    load_trace,
    trace_text,
)
from .engine import ProtocolError, StaticSource, run, trial_seed
from .evaluation import NonFiniteError, det_lower_bound, evaluate, rand_lower_bound, sweep_results
from .offline import optimal_sum


def _parse_value(raw, exact=False):
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return Fraction(raw) if exact else float(raw)
    except (ValueError, ZeroDivisionError):
        return raw


def _parse_params(items, exact=False):
    """key=value items as a dict; a key given twice is refused, not overridden."""
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigurationError(f"expected key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigurationError(f"parameter {key!r} given twice")
        out[key] = _parse_value(raw.strip(), exact)
    return out


def _float(x):
    """x as a float, or as the string "p/q" when it is past a float's range."""
    try:
        return float(x)
    except OverflowError:
        return str(x)


def _report_number(x):
    """A Fraction in a report: an int when whole, else its `_float` (reports are never read back)."""
    return x.numerator if x.denominator == 1 else _float(x)


def _emit(payload, out_path):
    try:
        text = json.dumps(payload, indent=2, default=_report_number, allow_nan=False)
    except ValueError:  # JSON has no NaN or Infinity
        raise NonFiniteError("a report value is not finite in floats") from None
    _write(text + "\n", out_path)


def _write(text, out_path):
    """The one writer of everything the command line writes: `text` to `out_path`, or to
    stdout when there is none; a file or stdout that cannot be written is an InputFileError.
    Stdout is flushed here, so that its failure is reported now rather than at exit."""
    with _reported_as(out_path or "stdout"):
        if out_path:
            with open(out_path, "w") as f:
                f.write(text)
            return
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError:
            # the buffer keeps the bytes it could not write and the interpreter flushes it
            # again at exit; with stdout on the null device that last flush succeeds in silence
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            raise


@contextmanager
def _reported_as(name):
    """Report an OSError raised inside the block as the InputFileError `name: reason`."""
    try:
        yield
    except OSError as exc:
        raise InputFileError(f"{name}: {exc.strerror or exc}") from exc


def _check_writable(out_path):
    """Refuse an `--out` that cannot be opened for writing before any work is done, and
    say whether it had to be created. An existing file is left as it is; `_write` replaces it."""
    with _reported_as(out_path):
        try:
            os.close(os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            return True
        except FileExistsError:
            os.close(os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666))
            return False


def cmd_simulate(args):
    exact_numbers = args.mode == "rational"
    alg = parse_algorithm(args.algorithm, exact=exact_numbers)
    if args.instance:
        inst = load_instance(args.instance, exact=exact_numbers)
    elif args.gen:
        inst = generators.build_instance(args.gen, _parse_params(args.param, exact_numbers))
    else:
        raise ConfigurationError("provide --instance FILE or --gen NAME")
    objective = args.objective or alg.objective
    expected = alg.randomized or args.exact  # an expectation, with trials and stderr, not one run
    if alg.randomized and not args.exact and args.seed is None:
        raise ConfigurationError("randomized algorithm needs --seed (or --exact)")
    if args.trace_out and expected:
        raise ConfigurationError("--trace-out needs a deterministic single run")

    cost, opt, stderr, res = evaluate(alg, inst, objective, args.trials, args.seed, args.exact)
    report = {"algorithm": alg.key, "source": args.instance or args.gen, "n": inst.n,
              "objective": objective, "alg_cost": cost, "opt_cost": opt,
              "ratio": _float(Fraction(cost) / Fraction(opt)), "exact": expected and res.exact}
    if expected:
        report.update(trials=res.trials, stderr=float(stderr))
        if args.seed is not None:
            report["seed"] = args.seed
    if args.trace_out:  # the priced run kept no steps; the trace is the same run, recorded
        _write(trace_text(run(alg.generator(), StaticSource(inst), inst.n, inst.uppers())), args.trace_out)
    _emit(report, args.out)
    return 0


SWEEP_MAX_POINTS = 100_000  # the most points a sweep grid may have, on one axis or in all


def _sweep_values(spec):
    """(name, values) of the axis `name=lo:hi:step`: lo + k * step, rounded to 12 places, for each
    k = 0, 1, ... while it is at most hi + 1e-12 (endpoints inclusive up to rounding slack).
    The count is worked out before any value is built, so a step that does not move lo, and
    a count above `SWEEP_MAX_POINTS` or past a float's range, are refused at once."""
    if "=" not in spec:
        raise ConfigurationError(f"expected name=lo:hi:step, got {spec!r}")
    name, rng = spec.split("=", 1)
    parts = rng.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"expected lo:hi:step in {spec!r}")
    try:
        lo, hi, step = bounds = [float(p) for p in parts]
    except ValueError:
        raise ConfigurationError(f"expected numbers lo:hi:step in {spec!r}") from None
    if not (all(map(math.isfinite, bounds)) and step > 0 and hi >= lo):
        raise ConfigurationError(f"bad range in {spec!r}: need finite lo <= hi and step > 0")
    if lo + step == lo:
        raise ConfigurationError(f"bad range in {spec!r}: step {step} does not move lo {lo}")
    top = hi + 1e-12
    # the last k with lo + k * step <= top, from its closed form, which rounding moves by a step at most
    k = int(min((top - lo) / step, SWEEP_MAX_POINTS))  # an infinite quotient too
    while k < SWEEP_MAX_POINTS and lo + (k + 1) * step <= top:
        k += 1
    while lo + k * step > top:
        k -= 1
    if k >= SWEEP_MAX_POINTS:
        raise ConfigurationError(f"bad range in {spec!r}: more than {SWEEP_MAX_POINTS} points")
    return name.strip(), [round(lo + i * step, 12) for i in range(k + 1)]


def cmd_sweep(args):
    alg = parse_algorithm(args.algorithm)
    if alg.randomized and args.seed is None:
        raise ConfigurationError("randomized algorithm needs --seed")
    base = _parse_params(args.param)
    axes = [_sweep_values(s) for s in args.sweep]

    names = [name for name, _ in axes]
    if len(set(names)) < len(names):
        raise ConfigurationError(f"sweep axis {max(names, key=names.count)!r} given twice")
    for name in names:
        if name in base:
            raise ConfigurationError(f"sweep axis {name!r} is also given as a --param")
    if (size := math.prod(len(vals) for _, vals in axes)) > SWEEP_MAX_POINTS:
        raise ConfigurationError(f"the sweep grid has {size} points, more than {SWEEP_MAX_POINTS}")
    created = bool(args.out) and _check_writable(args.out)
    points = list(product(*(vals for _, vals in axes)))  # row-major: the last axis varies fastest
    tasks = []
    for index, point in enumerate(points):
        params = {**base, **dict(zip(names, point))}
        seed = trial_seed(args.seed, index) if args.seed is not None else None
        tasks.append((args.algorithm, args.gen, params, args.objective or alg.objective,
                      args.trials, seed))

    try:
        results = sweep_results(tasks, 1)
    except BaseException:
        if created:  # a failed sweep leaves no file it made behind
            os.unlink(args.out)
        raise

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names + ["alg_cost", "opt_cost", "ratio", "stderr"])
    writer.writerows(point + result for point, result in zip(points, results))
    _write(out.getvalue(), args.out)
    return 0


def cmd_verify_constants(args):
    overrides = _parse_params(args.override)
    for name, value in overrides.items():
        if isinstance(value, str):
            raise ConfigurationError(f"{name}: expected a number, got {value!r}")
        try:
            overrides[name] = float(value)
        except OverflowError:  # an int past a float's range ends as "1e400" does: infinite
            overrides[name] = math.inf if value > 0 else -math.inf
    try:
        report = analysis.verify_constants(overrides)
    except KeyError as exc:
        raise ConfigurationError(str(exc)) from exc
    lines = []
    for entry in report["constants"]:
        status = "ok" if entry["ok"] else "FAIL"
        lines.append(f"{entry['name']:40s} paper={entry['paper_value']:.7f} "
                     f"computed={entry['computed_value']:.7f} err={entry['abs_error']:.2e} "
                     f"tol={entry['tolerance']:.0e} {status}\n")
    _write("".join(lines), None)
    if args.out:
        _emit(report, args.out)
    return 0 if report["ok"] else 1


def cmd_lower_bound(args):
    # a comma inside [...] separates a rule's parameters, not two rules
    names = [s.strip() for s in re.split(r",(?![^[]*\])", args.algorithms)] if args.algorithms else None
    if args.kind == "rand" and args.seed is None:
        raise ConfigurationError("the randomized bound needs --seed")
    try:  # the generators allocate each column whole, so an n too large for memory fails at once
        report = (det_lower_bound(args.delta, args.p_bar, args.n, names) if args.kind == "det"
                  else rand_lower_bound(args.q, args.n, args.trials, args.seed, names))
    except MemoryError:
        raise InstanceError(f"lower-bound {args.kind}: {args.n} jobs do not fit in memory") from None
    _emit(report, args.out)
    return 0


def cmd_gen(args):
    params = _parse_params(args.param, args.mode == "rational")
    _write(instance_text(generators.build_instance(args.name, params)), args.out)
    return 0


def cmd_replay(args):
    exact_numbers = args.mode == "rational"
    inst = load_instance(args.instance, exact=exact_numbers)
    trace = load_trace(args.trace, n=inst.n, exact=exact_numbers)
    check_trace_durations(trace, inst)
    opt = optimal_sum(inst)
    payload = {
        "n": inst.n,
        "total": _float(trace.total),
        "makespan": _float(trace.makespan),
        "opt_total": _float(opt.total),
        "opt_makespan": _float(opt.makespan),
        "ok": True,
    }
    _emit(payload, args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="testsched", allow_abbrev=False,
                                description="Workbench for scheduling with testing on one machine.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True, trials=True, mode=True):
        if mode:
            sp.add_argument("--mode", choices=("float", "rational"), default="float",
                            help="number handling for instances and parameters")
        sp.add_argument("--out", help="write the report here instead of stdout")
        if seed:
            sp.add_argument("--seed", help="master seed for randomized runs")
        if trials:
            sp.add_argument("--trials", type=int, default=1000,
                            help="Monte Carlo replicates for randomized runs")

    sp = sub.add_parser("simulate", allow_abbrev=False, help="run one algorithm on one instance")
    sp.add_argument("algorithm", help="name or name[key=value,...]")
    sp.add_argument("--instance", help="instance JSON file")
    sp.add_argument("--gen", help="generator name instead of a file")
    sp.add_argument("--param", action="append", default=[], help="generator key=value")
    sp.add_argument("--objective", choices=("sum", "makespan"), help="default: the rule's own")
    sp.add_argument("--exact", action="store_true",
                    help="exact expectation: one run of a deterministic rule, the closed form of a"
                         " randomized one")
    sp.add_argument("--trace-out", help="write the schedule trace (deterministic runs)")
    common(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("sweep", allow_abbrev=False, help="grid over generator parameters, CSV out")
    sp.add_argument("algorithm")
    sp.add_argument("--gen", required=True)
    sp.add_argument("--param", action="append", default=[], help="fixed generator key=value")
    sp.add_argument("--sweep", action="append", default=[], required=True,
                    help="axis as name=lo:hi:step (repeatable, row-major)")
    sp.add_argument("--objective", choices=("sum", "makespan"), help="default: the rule's own")
    common(sp, mode=False)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("verify-constants", allow_abbrev=False, help="recompute the published constants")
    sp.add_argument("--override", action="append", default=[],
                    help="NAME=VALUE replaces a computed value (negative control)")
    sp.add_argument("--out", help="also write the JSON report here")
    sp.set_defaults(fn=cmd_verify_constants)

    sp = sub.add_parser("lower-bound", allow_abbrev=False, help="evaluate a lower-bound construction")
    kinds = sp.add_subparsers(dest="kind", required=True)
    det = kinds.add_parser("det", allow_abbrev=False, help="adaptive adversary against deterministic rules")
    det.add_argument("--delta", type=float, default=analysis.DET_LB_DELTA)
    det.add_argument("--p-bar", type=float, default=analysis.DET_LB_PBAR)
    rand = kinds.add_parser("rand", allow_abbrev=False, help="random two-point instances")
    rand.add_argument("--q", type=float, default=analysis.RAND_LB_Q)
    for kind, randomized in ((det, False), (rand, True)):
        kind.add_argument("--n", type=int, default=2000)
        kind.add_argument("--algorithms", help="comma-separated names (det: best_schedule allowed)")
        common(kind, seed=randomized, trials=randomized, mode=False)
        kind.set_defaults(fn=cmd_lower_bound)

    sp = sub.add_parser("gen", allow_abbrev=False, help="write an instance file")
    sp.add_argument("name", choices=generators.GENERATORS)
    sp.add_argument("--param", action="append", default=[], help="generator key=value")
    common(sp, seed=False, trials=False)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("replay", allow_abbrev=False, help="validate a trace against an instance")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--trace", required=True)
    common(sp, seed=False, trials=False)
    sp.set_defaults(fn=cmd_replay)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "trials", 1) < 1:  # the one check for every command that takes --trials
            raise ConfigurationError(f"--trials must be at least 1, got {args.trials}")
        return args.fn(args)
    except (ConfigurationError, InstanceError, InputFileError) as exc:
        exact = isinstance(exc, NonFiniteError) and getattr(args, "mode", None) == "float"
        print(f"error: {exc}{'; use --mode rational for exact numbers' if exact else ''}", file=sys.stderr)
        return 2
    except (ProtocolError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
