"""Offline benchmarks: optimal schedules when processing times are known.

With full information a job is worth min(1 + p, upper): test-and-run costs
1 + p, running blind costs the upper limit.  `optimal_sum` orders the jobs
by that key ascending, which minimizes the sum of completion times and,
with no idle time, the makespan too.  `brute_force_optimum` is the independent
oracle: a recursion over the 2^n job subsets, in exact Fractions, whose
paths are every execution order under every test set.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .core import Instance, Num

BRUTE_FORCE_MAX_N = 12


class OracleSizeError(ValueError):
    """Instance too large for exhaustive enumeration."""


class OptCost(NamedTuple):
    """The offline optimum's two costs."""

    total: Num      # least sum of completion times
    makespan: Num   # least makespan: the keys summed in id order


def optimal_sum(inst: Instance) -> OptCost:
    """Exact optimal sum of completion times and makespan.

    A job's key is min(1 + p, u), its duration under the better treatment, and
    1 + p on a tie, whose type the sums keep.  Shortest key first (a stable
    sort, so ties by id) gives the least total; that schedule has no idle
    time, so its makespan, the sum of the keys, is the least too.
    """
    keys = [u if u < (c := 1 + p) else c for u, p in zip(inst.uppers(), inst.procs())]
    t: Num = 0
    total: Num = 0
    for key in sorted(keys):
        t = t + key
        total = total + t
    makespan: Num = 0
    for key in keys:    # not sum(): from Python 3.12 it rounds a float sum differently
        makespan = makespan + key
    return OptCost(total, makespan)


def brute_force_optimum(inst: Instance, objective: str = "sum") -> Num:
    """Exhaustive optimum over all test sets and execution orders.

    A tested job runs immediately after its test (delaying it only adds
    cost), so a schedule is a choice of per-job effective duration, either
    1 + p or the upper limit, plus a permutation.  The recursion over job
    subsets S (bit j set for job j scheduled) takes
    best[S] = min over j in S and d in {1 + p_j, u_j} of best[S - {j}] + w * d:
    job j runs last of S, and w is the number of completions its duration
    delays, n + 1 - |S| for the sum and 1 for the makespan.  Every order and
    every treatment is a path through it, with no sort and no per-job key,
    so this stays independent of `optimal_sum`; the work is 2^n * n steps.

    The sums are exact Fractions (a float is dyadic, so `Fraction(x)` is
    exact): with 2^n * n additions, not n! * 2^n, integer scaling over a
    common denominator no longer pays for its code.  Exact mode returns a
    Fraction, float mode (any float value) its float, the float nearest
    the exact optimum, or inf past a float's range.  Instances beyond
    n = 12 are refused (each job more doubles the subsets), after an
    unknown objective is.
    """
    if objective not in ("sum", "makespan"):
        raise ValueError(f"unknown objective {objective!r}")
    n = inst.n
    if n > BRUTE_FORCE_MAX_N:
        raise OracleSizeError(f"brute force refuses n={n} > {BRUTE_FORCE_MAX_N}")
    uppers, procs = inst.uppers(), inst.procs()
    exact = not any(isinstance(v, float) for v in (*uppers, *procs))
    pairs = [(1 + Fraction(p), Fraction(u)) for u, p in zip(uppers, procs)]
    best = [Fraction(0)] * (1 << n)
    for s in range(1, 1 << n):
        w = n + 1 - s.bit_count() if objective == "sum" else 1
        best[s] = min(best[s & ~(1 << j)] + w * d
                      for j, pair in enumerate(pairs) if s >> j & 1 for d in pair)
    if exact:
        return best[-1]
    try:
        return float(best[-1])
    except OverflowError:   # past a float's range, where float sums reach inf
        return math.inf
