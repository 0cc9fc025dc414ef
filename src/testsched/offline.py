"""Offline benchmarks: optimal schedules when processing times are known.

With full information a job is worth min(1 + p, upper): test-and-run costs
1 + p, running blind costs the upper limit.  For the sum of completion
times the optimum orders jobs by that key ascending; for the makespan only
the per-job choice matters.  `brute_force_optimum` is the independent
oracle: in integers, it walks the 2^n test sets of every execution order
(one order for the makespan) in Gray-code order, so that each schedule's
cost is one addition away from the previous one's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, permutations
from operator import itemgetter, neg

from .core import Instance, Num

BRUTE_FORCE_MAX_N = 10


class OracleSizeError(ValueError):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class OptPlan:
    """An optimal offline schedule for the sum objective."""

    order: tuple[int, ...]      # job ids in execution order
    tested: frozenset           # ids that are tested (right before execution)
    total: Num
    makespan: Num


def _keys(inst: Instance) -> tuple[list, list]:
    """The one OPT key rule: each job's key and the ids tested, in id order.

    A job's key is min(1 + p, u), its duration under the better treatment, and
    1 + p on a tie, whose type the sums keep.  A job is tested iff 1 + p < u:
    a tie runs blind, at the same cost with one action fewer.
    """
    keys: list = []
    tested = []
    for jid, u, p in zip(count(), inst.uppers(), inst.procs()):
        c = 1 + p
        if u < c:
            keys.append(u)
        else:
            keys.append(c)
            if c < u:
                tested.append(jid)
    return keys, tested


def optimal_sum(inst: Instance) -> OptPlan:
    """Exact optimal sum of completion times (shortest key first, ties by id).

    `inst` was checked when built, so job ids are the indices sorted here.
    """
    keys, tested = _keys(inst)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    t: Num = 0
    total: Num = 0
    for key in map(keys.__getitem__, order):
        t = t + key
        total = total + t
    return OptPlan(tuple(order), frozenset(tested), total, t)


def optimal_makespan(inst: Instance) -> tuple[Num, frozenset]:
    """Minimal makespan and the set of jobs tested to achieve it."""
    keys, tested = _keys(inst)
    value: Num = 0
    for key in keys:
        value = value + key
    return value, frozenset(tested)


def _gray_walk(n: int) -> itemgetter:
    """Pick a start cost and the 2^n - 1 steps of a Gray-code walk over n choices.

    Applied to [start, +d_0, ..., +d_{n-1}, -d_0, ..., -d_{n-1}], it returns
    start, then for step m = 1 .. 2^n - 1 the switch of choice g = ctz(m):
    +d_g when bit g of the Gray code m ^ (m >> 1) turns on, -d_g when it
    turns off.  The running sums are the totals of all 2^n choice sets, each
    once.  Leading with start keeps the pick a tuple at n = 1.
    """
    steps = []
    for m in range(1, 1 << n):
        g = (m & -m).bit_length() - 1
        steps.append(1 + g if (m ^ m >> 1) >> g & 1 else 1 + n + g)
    return itemgetter(0, *steps)


def brute_force_optimum(inst: Instance, objective: str = "sum") -> Num:
    """Exhaustive optimum over all test sets and execution orders.

    A tested job runs immediately after its test (delaying it only adds
    cost), so a schedule is a choice of per-job effective duration, either
    1 + p or the upper limit, plus a permutation.  Cost grows as n! * 2^n for
    the sum and 2^n for the makespan, which no order changes; instances
    beyond n = 10 are refused, after an unknown objective is.

    Both objectives scale every duration to an integer over a common
    denominator (a float is dyadic, so `Fraction(x)` is exact).  For each
    order (the sum's n!, a position weighted by the completions it delays;
    the makespan's one, every weight 1) they walk all 2^n treatments in
    Gray-code order: each step switches one job between 1 + p and u, so each
    schedule's cost is the previous one's plus or minus that job's weight
    times u - 1 - p.  No schedule is skipped and no order is sorted, so this
    stays independent of `optimal_sum`; the work per schedule is one C-level
    addition in an `accumulate` chain.  Exact mode returns a Fraction, float
    mode (any float value) `best / denom`, the float nearest the exact optimum.
    """
    if objective not in ("sum", "makespan"):
        raise ValueError(f"unknown objective {objective!r}")
    n = inst.n
    if n > BRUTE_FORCE_MAX_N:
        raise OracleSizeError(f"brute force refuses n={n} > {BRUTE_FORCE_MAX_N}")
    uppers, procs = inst.uppers(), inst.procs()
    exact = not any(isinstance(v, float) for v in (*uppers, *procs))
    fracs = [(1 + Fraction(p), Fraction(u)) for u, p in zip(uppers, procs)]
    denom = math.lcm(*(v.denominator for pair in fracs for v in pair))
    jobs = [(int(a * denom), int((b - a) * denom)) for a, b in fracs]
    orders, weights = ((jobs,), (1,) * n) if objective == "makespan" else (permutations(jobs), range(n, 0, -1))
    walk = _gray_walk(n)
    best = None
    for order in orders:
        start = 0       # every job tested
        ups = []        # the cost of switching each position to its limit
        for w, (low, gap) in zip(weights, order):
            start += w * low
            ups.append(w * gap)
        cost = min(accumulate(walk([start, *ups, *map(neg, ups)])))
        if best is None or cost < best:
            best = cost
    if exact:
        return Fraction(best, denom)
    try:
        return best / denom
    except OverflowError:   # past a float's range, where float sums reach inf
        return math.inf
