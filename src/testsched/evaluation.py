"""Online rules priced against the offline optimum: the one evaluation path of the command
line and the acceptance gate.  A float cost, OPT, ratio or stderr that is not finite is a
NonFiniteError, as no report can carry it; ints and Fractions are exact and never checked
(`math.isfinite` would overflow on a huge one)."""

import math
import os

from . import analysis, generators
from .algorithms import ConfigurationError, SUM_ALGORITHM_NAMES, build_algorithm, parse_algorithm
from .core import InstanceError
from .engine import StaticSource, run, run_expected
from .offline import optimal_sum


class NonFiniteError(InstanceError):
    """A float cost, OPT, ratio or stderr that is not finite, which no report can carry."""


def _finite(**values):
    for name, x in values.items():
        if isinstance(x, float) and not math.isfinite(x):
            raise NonFiniteError(f"{name.replace('_', ' ')} is {x} in floats")


def _float_row(cost, opt):
    """(cost, OPT, cost / OPT) as floats, each of them finite."""
    try:
        row = float(cost), float(opt), float(cost) / float(opt)
    except OverflowError:  # an int or Fraction past a float's range; OPT is at most the cost
        raise NonFiniteError("alg cost is inf in floats") from None
    _finite(alg_cost=row[0], OPT=row[1], ratio=row[2])
    return row


def evaluate(alg, inst, objective, trials=1, seed=None, exact=False):
    """(cost, OPT, stderr, ExpectedRun) from `run_expected`; stderr is None unless random or exact."""
    makespan = objective == "makespan"
    best = optimal_sum(inst)
    opt = best.makespan if makespan else best.total
    _finite(OPT=opt)
    if opt <= 0:
        raise InstanceError("offline optimum is zero; ratio undefined")
    res = run_expected(alg, StaticSource(inst), inst.n, inst.uppers(), trials=trials, seed=seed, exact=exact)
    cost, stderr = (res.makespan, res.makespan_stderr) if makespan else (res.total, res.total_stderr)
    stderr = stderr if alg.randomized or exact else None
    _finite(alg_cost=cost, stderr=stderr)
    return cost, opt, stderr, res


def sweep_point(task):
    """One CSV row of `sweep`: (cost, OPT, ratio, stderr or "") of the task
    (algorithm text, generator name, parameters, objective, trials, seed)."""
    (alg_text, gen_name, params, objective, trials, seed) = task
    inst = generators.build_instance(gen_name, params)
    cost, opt, stderr, _ = evaluate(parse_algorithm(alg_text), inst, objective, trials, seed)
    return *_float_row(cost, opt), "" if stderr is None else stderr


def worker_count(default):
    """The process count `TESTSCHED_WORKERS` asks for, or `default` when it is unset."""
    raw = os.environ.get("TESTSCHED_WORKERS")
    if raw is None:
        return default
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigurationError(f"TESTSCHED_WORKERS must be an integer >= 1, got {raw!r}")
    return workers


def sweep_results(tasks, default_workers):
    """`sweep_point` of each task, in order, on at most `worker_count(default_workers)` processes."""
    workers = min(worker_count(default_workers), len(tasks))
    if workers <= 1:
        return [sweep_point(t) for t in tasks]
    # loaded here, not at the top: a serial sweep and every other command never need them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # spawned workers import testsched afresh, as fork is unsafe in a process with threads
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
        return list(pool.map(sweep_point, tasks))


def det_lower_bound(delta, p_bar, n, names=None):
    """The `lower-bound det` report: the analytic bound at (delta, p_bar) and each
    deterministic rule's ratio against the adaptive adversary on n jobs."""
    nu, lam, analytic = analysis.det_lb_best_schedule(delta, p_bar)
    uppers = generators.adversary_view(n, p_bar)
    runs = []
    for name in names or ["threshold", "delay_all", "combined", "ute", "best_schedule"]:
        if name == "best_schedule":
            alg = build_algorithm("lb_schedule", {"nu": nu, "lam": lam, "delta": delta})
        else:
            alg = parse_algorithm(name)
        if alg.randomized:
            raise ConfigurationError(f"{name}: the adaptive bound applies to deterministic rules")
        source = generators.det_lb_adversary(n, delta, p_bar)
        total = run_expected(alg, source, n, uppers).total
        cost, opt, ratio = _float_row(total, optimal_sum(source.realized_instance()).total)
        runs.append({"algorithm": alg.key if name != "best_schedule" else "best_schedule",
                     "label": alg.label, "alg_cost": cost, "opt_cost": opt, "ratio": ratio})
    return {"bound": "adaptive-deterministic", "delta": delta, "p_bar": p_bar, "n": n,
            "analytic": analytic, "min_observed": min(r["ratio"] for r in runs), "runs": runs}


def rand_lower_bound(q, n, trials, seed, names=None):
    """The `lower-bound rand` report: the analytic bound at q and each rule's mean cost
    over `trials` two-point instances of n jobs, seeded `{seed}:inst:{i}` and
    `{seed}:{name}:{i}`."""
    analytic = analysis.rand_lb_value(q)
    names = names or list(SUM_ALGORITHM_NAMES)
    algs = {name: parse_algorithm(name) for name in names}
    sums = {name: 0.0 for name in names}
    opt_sum = 0.0
    for i in range(trials):
        inst = generators.gen_rand_lb(n, q, seed=f"{seed}:inst:{i}")
        opt_sum += float(optimal_sum(inst).total)
        for name, alg in algs.items():
            gen = alg.generator(f"{seed}:{name}:{i}" if alg.randomized else None)
            total, _ = run(gen, StaticSource(inst), inst.n, inst.uppers(), record=False)
            sums[name] += float(total)
    runs = [{"algorithm": name, "mean_alg": sums[name] / trials, "mean_opt": opt_sum / trials,
             "ratio": _float_row(sums[name], opt_sum)[2]} for name in names]
    return {"bound": "randomized-two-point", "q": q, "n": n, "trials": trials, "analytic": analytic,
            "expected_opt_coeff": analysis.rand_lb_opt_coeff(q),
            "min_observed": min(r["ratio"] for r in runs), "runs": runs}
