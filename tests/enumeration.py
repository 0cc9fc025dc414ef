"""Exact expectations by enumerating every outcome of a rule's randomness.

The reference the `expected_cost` hooks must equal: one engine run per test
order of random[T, E] (k! of them for k tested jobs) or per test-coin
outcome of makespan_rand (2^m for m jobs with a coin), each weighted by its
probability.  A deterministic rule has one outcome of weight 1.
"""

import math
from fractions import Fraction
from itertools import permutations, product

from testsched import analysis
from testsched.algorithms import _blind_test_defer, _per_job, _split
from testsched.engine import ProtocolError, run


def make_random_order_exact(T, E):
    def outcomes(n, uppers):
        blind, rest = _split(uppers, T)
        weight = Fraction(1, math.factorial(len(rest)))
        for perm in permutations(rest):
            yield weight, lambda view, order=perm: _blind_test_defer(blind, (order, E))
    return outcomes


def makespan_rand_exact(n, uppers):
    per_job = []
    for j in range(n):
        q = analysis.makespan_test_probability(uppers[j])
        per_job.append(((1, False),) if q == 0 else ((q, True), (1 - q, False)))
    for combo in product(*per_job):
        weight = 1
        for w, _ in combo:
            weight = weight * w
        yield weight, lambda view, flags=[tested for _, tested in combo]: _per_job(flags)


def exact_outcomes(alg, n, uppers):
    """Iterable of (weight, generator function) covering all outcomes of `alg`."""
    if alg.key == "random":
        return make_random_order_exact(alg.params["T"], alg.params["E"])(n, uppers)
    if alg.key == "makespan_rand":
        return makespan_rand_exact(n, uppers)
    assert not alg.randomized, alg.key
    return [(1, alg.build(None))]


def enumerated_expectation(alg, make_source, n, uppers):
    """(E[total], E[makespan], outcome count): one run per outcome on a fresh source."""
    total = 0
    makespan = 0
    weight_sum = 0
    count = 0
    for weight, gen_fn in exact_outcomes(alg, n, uppers):
        cost, span = run(gen_fn, make_source(), n, uppers, record=False)
        total = total + weight * cost
        makespan = makespan + weight * span
        weight_sum = weight_sum + weight
        count += 1
    if not math.isclose(float(weight_sum), 1.0, rel_tol=1e-12, abs_tol=1e-12):
        raise ProtocolError(f"outcome weights sum to {float(weight_sum)}, not 1")
    return total, makespan, count
