"""Offline benchmarks: optimal schedules when processing times are known.

With full information a job is worth min(1 + p, upper): test-and-run costs
1 + p, running blind costs the upper limit.  For the sum of completion
times the optimum orders jobs by that key ascending; for the makespan only
the per-job choice matters.  `brute_force_optimum` is the independent
oracle: it enumerates every test-set choice and every execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, permutations, product
from operator import mul

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


def brute_force_optimum(inst: Instance, objective: str = "sum") -> Num:
    """Exhaustive optimum over all test sets and execution orders.

    A tested job runs immediately after its test (delaying it only adds
    cost), so a schedule is a choice of per-job effective duration, either
    1 + p or the upper limit, plus a permutation.  Cost grows as n! * 2^n;
    instances beyond n = 10 are refused, after an unknown objective is.
    """
    if objective not in ("sum", "makespan"):
        raise ValueError(f"unknown objective {objective!r}")
    n = inst.n
    if n > BRUTE_FORCE_MAX_N:
        raise OracleSizeError(f"brute force refuses n={n} > {BRUTE_FORCE_MAX_N}")
    pairs = [(1 + p, u) for u, p in zip(inst.uppers(), inst.procs())]
    if objective == "makespan":
        best = None
        for durs in product(*pairs):
            c = sum(durs)
            if best is None or c < best:
                best = c
        return best

    # Exact mode scales every duration to a common denominator and enumerates
    # in ints; float mode enumerates the durations as they are (denom = 1).
    exact = not any(isinstance(v, float) for pair in pairs for v in pair)
    denom = 1
    if exact:
        fracs = [(Fraction(a), Fraction(b)) for a, b in pairs]
        denom = math.lcm(*(v.denominator for pair in fracs for v in pair))
        pairs = [(int(a * denom), int(b * denom)) for a, b in fracs]
    best = None
    weights = tuple(range(n, 0, -1))
    for durs in product(*pairs):
        for perm in permutations(durs):
            c = sum(map(mul, weights, perm))
            if best is None or c < best:
                best = c
    return Fraction(best, denom) if exact else best
