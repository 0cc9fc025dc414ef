"""Command-line workbench around the library.

Subcommands: simulate one algorithm on one instance, sweep a generator
parameter grid to CSV, verify the published constants, evaluate the two
lower-bound constructions, generate instance files, and replay traces.

Exit codes: 0 success, 1 verification/protocol failure, 2 bad usage.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import analysis, generators
from .algorithms import ConfigurationError, SUM_ALGORITHM_NAMES, build_algorithm, parse_algorithm
from .core import (
    InstanceError,
    RatioReport,
    TraceError,
    check_trace_durations,
    cost_of_trace,
    dump_instance,
    dump_trace,
    load_instance,
    load_trace,
)
from .engine import ProtocolError, StaticSource, run, run_expected
from .offline import optimal_makespan, optimal_sum


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
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigurationError(f"expected key=value, got {item!r}")
        key, raw = item.split("=", 1)
        out[key.strip()] = _parse_value(raw.strip(), exact)
    return out


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2, default=float) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _load_or_generate(args, exact):
    if getattr(args, "instance", None):
        return load_instance(args.instance, exact=exact)
    if getattr(args, "gen", None):
        params = _parse_params(args.param, exact)
        return generators.build_instance(args.gen, params)
    raise ConfigurationError("provide --instance FILE or --gen NAME")


def _optimum(inst, objective):
    if objective == "makespan":
        value, _ = optimal_makespan(inst)
        return value
    return optimal_sum(inst).total


def cmd_simulate(args):
    exact_numbers = args.mode == "rational"
    alg = parse_algorithm(args.algorithm, exact=exact_numbers)
    inst = _load_or_generate(args, exact_numbers)
    objective = args.objective
    opt = _optimum(inst, objective)
    if opt <= 0:
        raise InstanceError("offline optimum is zero; ratio undefined")

    if alg.randomized and not args.exact and args.seed is None:
        raise ConfigurationError("randomized algorithm needs --seed (or --exact)")
    if args.trace_out and (alg.randomized or args.exact):
        raise ConfigurationError("--trace-out needs a deterministic single run")

    if alg.randomized or args.exact:
        res = run_expected(
            alg, lambda: StaticSource(inst), inst.n, inst.uppers(),
            trials=args.trials, seed=args.seed, exact=args.exact,
        )
        cost = res.makespan if objective == "makespan" else res.total
        stderr = res.makespan_stderr if objective == "makespan" else res.total_stderr
        report = RatioReport(
            alg.key, args.instance or args.gen, inst.n, objective,
            cost, opt, cost / opt, trials=res.trials, stderr=stderr,
            exact=res.exact, seed=args.seed,
        )
    else:
        trace = run(alg.generator(), StaticSource(inst), inst.n, inst.uppers())
        cost = trace.makespan if objective == "makespan" else trace.total
        report = RatioReport(
            alg.key, args.instance or args.gen, inst.n, objective,
            cost, opt, cost / opt,
        )
        if args.trace_out:
            dump_trace(trace, args.trace_out)
    _emit(report.to_dict(), args.out)
    return 0


def _sweep_values(spec):
    # name=lo:hi:step, endpoints inclusive up to rounding slack
    if "=" not in spec:
        raise ConfigurationError(f"expected name=lo:hi:step, got {spec!r}")
    name, rng = spec.split("=", 1)
    parts = rng.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"expected lo:hi:step in {spec!r}")
    lo, hi, step = (float(p) for p in parts)
    if step <= 0 or hi < lo:
        raise ConfigurationError(f"bad range in {spec!r}")
    vals = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-12:
            break
        vals.append(round(v, 12))
        k += 1
    return name.strip(), vals


def _sweep_point(task):
    (index, alg_text, gen_name, params, objective, trials, seed) = task
    alg = parse_algorithm(alg_text)
    inst = generators.build_instance(gen_name, params)
    opt = _optimum(inst, objective)
    if alg.randomized:
        res = run_expected(alg, lambda: StaticSource(inst), inst.n, inst.uppers(),
                           trials=trials, seed=seed)
        cost = res.makespan if objective == "makespan" else res.total
        stderr = res.makespan_stderr if objective == "makespan" else res.total_stderr
    else:
        trace = run(alg.generator(), StaticSource(inst), inst.n, inst.uppers())
        cost = trace.makespan if objective == "makespan" else trace.total
        stderr = ""
    return index, float(cost), float(opt), float(cost) / float(opt), stderr


def cmd_sweep(args):
    alg = parse_algorithm(args.algorithm)
    if alg.randomized and args.seed is None:
        raise ConfigurationError("randomized algorithm needs --seed")
    base = _parse_params(args.param)
    axes = [_sweep_values(s) for s in args.sweep]
    if not axes:
        raise ConfigurationError("need at least one --sweep axis")

    def grid(prefix, rest):
        if not rest:
            yield prefix
            return
        name, vals = rest[0]
        for v in vals:
            yield from grid(prefix + [(name, v)], rest[1:])

    points = list(grid([], axes))
    tasks = []
    for index, assignment in enumerate(points):
        params = dict(base)
        params.update(assignment)
        seed = f"{args.seed}:{index}" if args.seed is not None else None
        tasks.append((index, args.algorithm, args.gen, params, args.objective,
                      args.trials, seed))

    raw = os.environ.get("TESTSCHED_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigurationError(f"TESTSCHED_WORKERS must be an integer >= 1, got {raw!r}")
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]

    names = [name for name, _ in axes]
    rows = []
    for (index, assignment), (ridx, cost, opt, ratio, stderr) in zip(
            enumerate(points), results):
        assert index == ridx
        row = {name: value for name, value in assignment}
        row.update({"alg_cost": cost, "opt_cost": opt, "ratio": ratio, "stderr": stderr})
        rows.append(row)

    fieldnames = names + ["alg_cost", "opt_cost", "ratio", "stderr"]
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


def cmd_verify_constants(args):
    overrides = {}
    for item in args.override or []:
        if "=" not in item:
            raise ConfigurationError(f"expected NAME=VALUE, got {item!r}")
        name, raw = item.split("=", 1)
        overrides[name.strip()] = float(raw)
    try:
        report = analysis.verify_constants(overrides)
    except KeyError as exc:
        raise ConfigurationError(str(exc)) from exc
    for entry in report["constants"]:
        status = "ok" if entry["ok"] else "FAIL"
        print(f"{entry['name']:40s} paper={entry['paper_value']:.7f} "
              f"computed={entry['computed_value']:.7f} err={entry['abs_error']:.2e} "
              f"tol={entry['tolerance']:.0e} {status}")
    if args.out:
        _emit(report, args.out)
    return 0 if report["ok"] else 1


def cmd_lower_bound(args):
    if args.kind == "det":
        return _lower_bound_det(args)
    return _lower_bound_rand(args)


def _lower_bound_det(args):
    delta, p_bar, n = args.delta, args.p_bar, args.n
    analytic = analysis.det_lb_value(delta, p_bar)
    names = args.algorithms.split(",") if args.algorithms else \
        ["threshold", "delay_all", "combined", "ute", "best_schedule"]
    uppers = generators.adversary_view(n, p_bar)
    runs = []
    for name in names:
        name = name.strip()
        if name == "best_schedule":
            nu, lam = analysis.det_lb_best_schedule(delta, p_bar)
            alg = build_algorithm("lb_schedule", {"nu": nu, "lam": lam, "delta": delta})
        else:
            alg = parse_algorithm(name)
        if alg.randomized:
            raise ConfigurationError(f"{name}: the adaptive bound applies to deterministic rules")
        source = generators.det_lb_adversary(n, delta, p_bar)
        trace = run(alg.generator(), source, n, uppers)
        opt = optimal_sum(source.realized_instance()).total
        runs.append({
            "algorithm": alg.key if name != "best_schedule" else "best_schedule",
            "label": alg.label,
            "alg_cost": float(trace.total),
            "opt_cost": float(opt),
            "ratio": float(trace.total) / float(opt),
        })
    payload = {
        "bound": "adaptive-deterministic",
        "delta": delta, "p_bar": p_bar, "n": n,
        "analytic": analytic,
        "min_observed": min(r["ratio"] for r in runs),
        "runs": runs,
    }
    _emit(payload, args.out)
    return 0


def _lower_bound_rand(args):
    q, n, trials = args.q, args.n, args.trials
    if args.seed is None:
        raise ConfigurationError("the randomized bound needs --seed")
    analytic = analysis.rand_lb_value(q)
    names = [s.strip() for s in args.algorithms.split(",")] if args.algorithms \
        else list(SUM_ALGORITHM_NAMES)
    sums = {name: 0.0 for name in names}
    opt_sum = 0.0
    for i in range(trials):
        inst = generators.gen_rand_lb(n, q, seed=f"{args.seed}:inst:{i}")
        opt_sum += float(optimal_sum(inst).total)
        for name in names:
            alg = parse_algorithm(name)
            gen = alg.generator(f"{args.seed}:{name}:{i}" if alg.randomized else None)
            trace = run(gen, StaticSource(inst), inst.n, inst.uppers())
            sums[name] += float(trace.total)
    runs = [{"algorithm": name,
             "mean_alg": sums[name] / trials,
             "mean_opt": opt_sum / trials,
             "ratio": sums[name] / opt_sum} for name in names]
    payload = {
        "bound": "randomized-two-point",
        "q": q, "n": n, "trials": trials,
        "analytic": analytic,
        "expected_opt_coeff": analysis.rand_lb_opt_coeff(q),
        "min_observed": min(r["ratio"] for r in runs),
        "runs": runs,
    }
    _emit(payload, args.out)
    return 0


def cmd_gen(args):
    exact_numbers = args.mode == "rational"
    params = _parse_params(args.param, exact_numbers)
    inst = generators.build_instance(args.name, params)
    if args.out:
        dump_instance(inst, args.out)
    else:
        rows = [{"upper": float(j.upper), "proc": float(j.proc)} for j in inst.jobs]
        sys.stdout.write(json.dumps(rows, indent=1) + "\n")
    return 0


def cmd_replay(args):
    exact_numbers = args.mode == "rational"
    inst = load_instance(args.instance, exact=exact_numbers)
    trace = load_trace(args.trace, n=inst.n, exact=exact_numbers)
    total, makespan = cost_of_trace(trace)
    check_trace_durations(trace, inst)
    payload = {
        "n": inst.n,
        "total": float(total),
        "makespan": float(makespan),
        "opt_total": float(optimal_sum(inst).total),
        "opt_makespan": float(optimal_makespan(inst)[0]),
        "ok": True,
    }
    _emit(payload, args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="testsched",
                                description="Workbench for scheduling with testing on one machine.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True, trials=True):
        sp.add_argument("--mode", choices=("float", "rational"), default="float",
                        help="number handling for instances and parameters")
        sp.add_argument("--out", help="write the report here instead of stdout")
        if seed:
            sp.add_argument("--seed", help="master seed for randomized runs")
        if trials:
            sp.add_argument("--trials", type=int, default=1000,
                            help="Monte Carlo replicates for randomized runs")

    sp = sub.add_parser("simulate", help="run one algorithm on one instance")
    sp.add_argument("algorithm", help="name or name[key=value,...]")
    sp.add_argument("--instance", help="instance JSON file")
    sp.add_argument("--gen", help="generator name instead of a file")
    sp.add_argument("--param", action="append", default=[], help="generator key=value")
    sp.add_argument("--objective", choices=("sum", "makespan"), default="sum")
    sp.add_argument("--exact", action="store_true",
                    help="exact expectation by outcome enumeration (small n)")
    sp.add_argument("--trace-out", help="write the schedule trace (deterministic runs)")
    common(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("sweep", help="grid over generator parameters, CSV out")
    sp.add_argument("algorithm")
    sp.add_argument("--gen", required=True)
    sp.add_argument("--param", action="append", default=[], help="fixed generator key=value")
    sp.add_argument("--sweep", action="append", default=[], required=True,
                    help="axis as name=lo:hi:step (repeatable, row-major)")
    sp.add_argument("--objective", choices=("sum", "makespan"), default="sum")
    common(sp)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("verify-constants", help="recompute the published constants")
    sp.add_argument("--override", action="append", default=[],
                    help="NAME=VALUE replaces a computed value (negative control)")
    sp.add_argument("--out", help="also write the JSON report here")
    sp.set_defaults(fn=cmd_verify_constants)

    sp = sub.add_parser("lower-bound", help="evaluate a lower-bound construction")
    sp.add_argument("kind", choices=("det", "rand"))
    sp.add_argument("--delta", type=float, default=analysis.DET_LB_DELTA)
    sp.add_argument("--p-bar", type=float, default=analysis.DET_LB_PBAR)
    sp.add_argument("--q", type=float, default=1 - 1 / 3 ** 0.5)
    sp.add_argument("--n", type=int, default=2000)
    sp.add_argument("--algorithms", help="comma-separated names (det: best_schedule allowed)")
    common(sp)
    sp.set_defaults(fn=cmd_lower_bound)

    sp = sub.add_parser("gen", help="write an instance file")
    sp.add_argument("name", choices=generators.GENERATOR_NAMES)
    sp.add_argument("--param", action="append", default=[], help="generator key=value")
    common(sp, seed=False, trials=False)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("replay", help="validate a trace against an instance")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--trace", required=True)
    common(sp, seed=False, trials=False)
    sp.set_defaults(fn=cmd_replay)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, InstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ProtocolError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
