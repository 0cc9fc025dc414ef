"""Reference code that only the tests call: each checks a src result another way.

`plan_trace` replays an optimal plan through the trace validator,
`det_lb_value_grid` minimizes the deterministic lower bound by brute force,
`enumerated_sum_optimum` sums every schedule afresh, the reference for
`brute_force_optimum`'s Gray-code walk, and `random_cost_coeffs` and
`delay_all_family_costs` are closed forms of two rules' costs on their hard families.
"""

import math
from fractions import Fraction
from itertools import permutations, product
from operator import mul

from testsched.analysis import det_lb_alg, det_lb_opt
from testsched.core import EXEC_TESTED, EXEC_UNTESTED, TEST, Instance, Num, Trace, build_trace
from testsched.offline import OptPlan


def plan_trace(inst: Instance, plan: OptPlan) -> Trace:
    """Materialize an OptPlan as a replayable trace."""
    uppers, procs = inst.uppers(), inst.procs()
    steps = []
    t: Num = 0
    for jid in plan.order:
        if jid in plan.tested:
            steps.append((TEST, jid, t, 1))
            t = t + 1
            steps.append((EXEC_TESTED, jid, t, procs[jid]))
            t = t + procs[jid]
        else:
            steps.append((EXEC_UNTESTED, jid, t, uppers[jid]))
            t = t + uppers[jid]
    return build_trace(inst.n, steps)


def det_lb_value_grid(delta, p_bar, steps=400):
    """Same bound by brute 2-D minimization over (nu, lam); cross-check."""
    best = None
    for i in range(steps + 1):
        nu = delta * i / steps
        opt = det_lb_opt(nu, delta, p_bar)
        for k in range(steps + 1):
            lam = (delta - nu) * k / steps
            v = det_lb_alg(nu, lam, delta, p_bar) / opt
            if best is None or v < best:
                best = v
    return best


def enumerated_sum_optimum(inst: Instance) -> Num:
    """Optimal sum of completion times over every test set and every order.

    Each schedule's cost is a fresh weighted sum.  Exact mode scales every
    duration to a common denominator and enumerates in ints; float mode
    enumerates the float durations as they are (denom = 1).
    """
    n = inst.n
    pairs = [(1 + p, u) for u, p in zip(inst.uppers(), inst.procs())]
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


def random_cost_coeffs(alpha, beta, gamma, T, E):
    """(alg2, alg1, opt2, opt1) of the random-order tester on a four-type mix with fractions
    alpha (p = T), beta (p = E), gamma (p = E + eps, deferred), remainder p = 0:
    ALG = (n^2/2) alg2 + (n/2) alg1 plus the deferred jobs' eps tail, same for OPT."""
    alg2 = 1 + gamma + beta * E + beta * gamma * E + gamma * gamma * E + alpha * T + alpha * gamma * T
    alg1 = 1 - gamma + beta * E + gamma * E + alpha * T
    opt2 = (
        1
        - alpha * alpha - 2 * alpha * beta - beta * beta
        - 2 * alpha * gamma - 2 * beta * gamma - gamma * gamma
        + beta * beta * E + 2 * beta * gamma * E + gamma * gamma * E
        + alpha * alpha * T + 2 * alpha * beta * T + 2 * alpha * gamma * T
    )
    opt1 = 1 - alpha - beta - gamma + beta * E + gamma * E + alpha * T
    return alg2, alg1, opt2, opt1


def delay_all_family_costs(a, b):
    """Exact (alg, opt) of the delay-everything rule's hardest instances.

    a jobs (limit 2, p 0) and b jobs (limit 2, p 2): everything is tested
    first, so even free jobs wait for the whole test phase.
    """
    alg = (a + b) * (a + b) + b * (b + 1)
    opt = a * (a + 1) // 2 + a * b + b * (b + 1)
    return alg, opt
