"""Offline benchmarks: optimal schedules when processing times are known.

With full information a job is worth min(1 + p, upper): test-and-run costs
1 + p, running blind costs the upper limit.  `optimal_sum` orders the jobs
by that key ascending, which minimizes the sum of completion times and,
with no idle time, the makespan too.  `brute_force_optimum` is the independent
oracle: in integers, it walks the 2^n test sets in Gray-code order and, for
each, all n! execution orders by adjacent swaps (one order for the makespan),
so that each schedule's cost is one addition away from the previous one's.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cache
from itertools import accumulate
from operator import itemgetter, mul
from typing import NamedTuple

from .core import Instance, Num

BRUTE_FORCE_MAX_N = 10


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


@cache
def _plain_changes(n: int) -> Callable[[Sequence], Sequence]:
    """Pick the n! - 1 adjacent swaps of plain changes from an n * n table.

    Plain changes (Steinhaus-Johnson-Trotter) walks from the identity
    through all n! orders of n items, each once, each step swapping two
    neighbours.  Given a table holding f(a, b) at index a * n + b, the
    returned function gives f(a, b) for each step in turn, where item a
    stood just before item b.  The table of picks has 362,879 entries at
    n = 9 and 3,628,799 at n = 10.
    """
    moves: list[int] = []       # the left position of each swap; grown from k - 1 items to k
    for k in range(2, n + 1):
        left = list(range(k - 2, -1, -1))   # item k - 1 sweeps to the left end, later back
        right = left[::-1]
        grown = left[:]
        for i, s in enumerate(moves):       # between sweeps, one swap of the k - 1 walk
            if i % 2 == 0:                  # item k - 1 at the left end: one position on
                grown += [s + 1, *right]
            else:
                grown += [s, *left]
        moves = grown
    order = list(range(n))
    picks = []
    for i in moves:
        a, b = order[i], order[i + 1]
        picks.append(a * n + b)
        order[i], order[i + 1] = b, a
    if len(picks) > 1:
        return itemgetter(*picks)
    return lambda table: [table[i] for i in picks]  # itemgetter returns one pick bare


def brute_force_optimum(inst: Instance, objective: str = "sum") -> Num:
    """Exhaustive optimum over all test sets and execution orders.

    A tested job runs immediately after its test (delaying it only adds
    cost), so a schedule is a choice of per-job effective duration, either
    1 + p or the upper limit, plus a permutation.  Cost grows as n! * 2^n for
    the sum and 2^n for the makespan, which no order changes; instances
    beyond n = 10 are refused, after an unknown objective is.

    Both objectives scale every duration to an integer over a common
    denominator (a float is dyadic, so `Fraction(x)` is exact).  They walk
    all 2^n treatments in Gray-code order: each step switches one job g
    between 1 + p and u, so the identity order's cost moves by g's weight
    times u - 1 - p (the sum weights a position by the completions it
    delays; the makespan has one order, every weight 1).  For the sum, each
    treatment then walks all n! orders by plain changes: a swap that puts
    job b just before job a moves the cost by d_b - d_a, where d holds the
    treatment's scaled durations, picked by a cached table
    (`_plain_changes`) from the n * n differences of d.
    No schedule is skipped and no order is sorted, so this stays
    independent of `optimal_sum`; the work per schedule is one C-level
    addition in an `accumulate` chain, and the Python loop runs once per
    treatment.  Exact mode returns a Fraction, float mode (any float value)
    `best / denom`, the float nearest the exact optimum.
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
    d = [int(a * denom) for a, _ in fracs]     # every job tested
    gaps = [int((b - a) * denom) for a, b in fracs]
    if objective == "sum":
        weights, swaps = range(n, 0, -1), _plain_changes(n)
    else:           # one order, every weight 1
        weights, swaps = (1,) * n, None
    cost = sum(map(mul, weights, d))            # the identity order's
    best = None
    for m in range(1 << n):
        if m:       # switch job g = ctz(m), on to its limit as bit g of the Gray code turns on
            g = (m & -m).bit_length() - 1
            step = gaps[g] if (m ^ m >> 1) >> g & 1 else -gaps[g]
            d[g] += step
            cost += weights[g] * step
        if swaps is not None:   # every order: swapping a with the b just after it adds d[b] - d[a]
            here = min(accumulate(swaps([b - a for a in d for b in d]), initial=cost))
        else:
            here = cost
        if best is None or here < best:
            best = here
    if exact:
        return Fraction(best, denom)
    try:
        return best / denom
    except OverflowError:   # past a float's range, where float sums reach inf
        return math.inf
