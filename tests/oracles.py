"""Reference code that only the tests call: each checks a src result another way.

`det_lb_value_grid` minimizes the deterministic lower bound by brute force,
`enumerated_sum_optimum` sums every schedule afresh and
`enumerated_makespan_optimum` every test set, the references for
`brute_force_optimum`'s recursion over job subsets, `random_cost_coeffs`
and `delay_all_family_costs` are closed forms of two rules' costs on their
hard families, `spent_and_spt` reads from a trace the time a rule spent on
each job, and `fit_quadratic` recovers an exact cost's polynomial in the
type counts, so that an asymptotic formula can be checked against its
quadratic part.
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from operator import mul

from testsched.analysis import det_lb_alg, det_lb_opt
from testsched.core import Instance, Num


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


def enumerated_makespan_optimum(inst: Instance) -> Num:
    """Least makespan over every test set, each set's durations summed afresh.

    A schedule with no idle time ends when its durations are summed, in any
    order, so only the 2^n test sets are enumerated.  The sums are exact on
    ints and Fractions.
    """
    pairs = [(1 + p, u) for u, p in zip(inst.uppers(), inst.procs())]
    return min(sum(durs) for durs in product(*pairs))


def spent_and_spt(trace):
    """(a, SPT(a)): the time a_j the trace spent on each job j, and the sum
    of completion times of those durations run shortest first.

    a_j is the job's test plus its run, 1 + p_j when tested and u_j when run
    blind.  SPT(a) is the least sum over every order of the same durations,
    so ALG >= SPT(a) (the order loss), and SPT(a) >= OPT (the treatment
    loss), as each a_j is at least the job's key min(1 + p_j, u_j).
    """
    spent = [0] * trace.n
    for _kind, job, _start, dur in trace.steps:
        spent[job] += dur
    t = total = 0
    for a in sorted(spent):
        t += a
        total += t
    return spent, total


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


def fit_quadratic(cost, k):
    """Fit an exact cost of k type counts as a polynomial of total degree <= 2.

    `cost` maps a count vector to an exact number.  The fit solves, by
    Fraction elimination, for the C(k + 2, 2) coefficients from the count
    vectors (1, ..., 1) + v with v of total degree <= 2, so that every
    sampled instance has a job of each type.  It returns {monomial:
    coefficient}, a monomial being the tuple of the type indices it
    multiplies: () is the constant term, (i,) is linear, (i, j) quadratic.
    """
    monomials = [m for d in range(3) for m in combinations_with_replacement(range(k), d)]
    rows = []
    for v in monomials:
        counts = [1 + v.count(i) for i in range(k)]
        rows.append([Fraction(math.prod(counts[i] for i in m)) for m in monomials] + [Fraction(cost(counts))])
    size = len(monomials)
    for col in range(size):     # Gauss-Jordan elimination on [A | b]
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [x / head for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return {m: rows[i][size] for i, m in enumerate(monomials)}


def quadratic_value(poly, x, degree=None):
    """`fit_quadratic`'s polynomial at x, or only its terms of one degree."""
    return sum(c * math.prod(x[i] for i in m) for m, c in poly.items() if degree in (None, len(m)))
