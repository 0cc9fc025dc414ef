"""Clairvoyant optimum against the exhaustive enumeration oracle."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumerated_sum_optimum, plan_trace
from testsched.algorithms import parse_algorithm
from testsched.core import (
    Instance,
    check_trace_durations,
    cost_of_trace,
    numbers_equal,
    validate_instance,
)
from testsched.engine import run
from testsched.generators import det_lb_adversary, gen_four_type, gen_random
from testsched.offline import (
    BRUTE_FORCE_MAX_N,
    OptPlan,
    OracleSizeError,
    brute_force_optimum,
    optimal_makespan,
    optimal_sum,
)


class TestKeyRule:
    """A one-job OPT costs the job's key, and tests it iff testing is strictly cheaper."""

    def test_testing_pays_when_limit_is_high(self):
        plan = optimal_sum(Instance.from_pairs([(3, 1)]))
        assert plan.total == 2
        assert plan.tested == frozenset({0})

    def test_blind_run_when_limit_is_low(self):
        plan = optimal_sum(Instance.from_pairs([(Fraction(3, 2), 1)]))
        assert plan.total == Fraction(3, 2)
        assert plan.tested == frozenset()

    def test_tie_goes_blind(self):
        # 1 + p equals the limit: both cost 2, testing buys nothing
        plan = optimal_sum(Instance.from_pairs([(2, 1)]))
        assert plan.total == 2
        assert plan.tested == frozenset()


class TestOptimalSum:
    def test_small_by_hand(self):
        # keys: min(1+0, 2) = 1 tested, min(1+2, 2) = 2 blind -> 1 + 3
        inst = Instance.from_pairs([(2, 0), (2, 2)])
        plan = optimal_sum(inst)
        assert plan.total == 4
        assert plan.order == (0, 1)
        assert plan.tested == frozenset({0})

    def test_agrees_with_brute_force(self):
        for i in range(120):
            n = random.Random(f"n:{i}").randrange(1, 7)
            inst = gen_random(n, seed=f"bf:{i}", exact=True, denominator=24)
            assert optimal_sum(inst).total == brute_force_optimum(inst)

    def test_permutation_invariance(self):
        rng = random.Random("perm")
        base = gen_random(6, seed="perm-inst", exact=True)
        pairs = [(j.upper, j.proc) for j in base.jobs]
        want = optimal_sum(base).total
        for _ in range(10):
            rng.shuffle(pairs)
            assert optimal_sum(Instance.from_pairs(pairs)).total == want

    def test_monotone_in_processing_time(self):
        rng = random.Random("mono")
        for i in range(40):
            inst = gen_random(5, seed=f"mono:{i}", exact=True, denominator=12)
            base = optimal_sum(inst).total
            k = rng.randrange(5)
            job = inst.jobs[k]
            bumped = list((j.upper, j.proc) for j in inst.jobs)
            room = job.upper - job.proc
            bumped[k] = (job.upper, job.proc + room / 2)
            assert optimal_sum(Instance.from_pairs(bumped)).total >= base

    def test_plan_trace_replays_to_same_cost(self):
        inst = gen_random(8, seed="plan", exact=True)
        plan = optimal_sum(inst)
        tr = plan_trace(inst, plan)
        total, makespan = cost_of_trace(tr)
        assert total == plan.total
        assert makespan == plan.makespan


    @pytest.mark.parametrize("num", [float, Fraction])
    def test_matches_reference_sort_with_ties(self, num):
        def reference(inst):
            order = sorted(inst.jobs, key=lambda j: (min(1 + j.proc, j.upper), j.id))
            t = total = 0
            for j in order:
                t = t + min(1 + j.proc, j.upper)
                total = total + t
            tested = frozenset(j.id for j in inst.jobs if 1 + j.proc < j.upper)
            return OptPlan(tuple(j.id for j in order), tested, total, t)

        grid = [num(v) / 2 for v in range(7)]  # few values, so many keys tie
        for i in range(150):
            rng = random.Random(f"ties:{i}")
            pairs = []
            for _ in range(rng.randrange(1, 40)):
                u = rng.choice(grid)
                pairs.append((u, rng.choice([v for v in grid if v <= u])))
            inst = Instance.from_pairs(pairs)
            plan, want = optimal_sum(inst), reference(inst)
            assert plan == want
            assert type(plan.total) is type(want.total)

    def test_tie_key_is_one_plus_proc(self):
        # 1 + p == upper: the key is min(1 + p, upper)'s first operand, whose type the sums keep
        plan = optimal_sum(Instance.from_pairs([(2, 1.0), (3, 2.0)]))
        assert repr((plan.total, plan.makespan, plan.tested)) == "(7.0, 5.0, frozenset())"

    def test_adversary_realized_instance_is_valid(self):
        source = det_lb_adversary(60, 0.4, 2.5)
        trace = run(parse_algorithm("threshold").generator(), source, 60, [2.5] * 60)
        inst = source.realized_instance()
        validate_instance(inst)
        assert inst.uppers() == (2.5,) * 60
        check_trace_durations(trace, inst)
        assert optimal_sum(inst).total <= trace.total


class TestOptimalMakespan:
    def test_sum_of_keys(self):
        inst = Instance.from_pairs([(3, 1), (Fraction(3, 2), 1), (2, 0)])
        value, tested = optimal_makespan(inst)
        assert value == 2 + Fraction(3, 2) + 1
        assert tested == frozenset({0, 2})

    def test_agrees_with_brute_force(self):
        for i in range(60):
            inst = gen_random(5, seed=f"mk:{i}", exact=True, denominator=16)
            value, _ = optimal_makespan(inst)
            assert value == brute_force_optimum(inst, objective="makespan")

    def test_float_brute_force_is_the_float_nearest_the_exact_optimum(self):
        # both objectives walk the same integer schedule costs; a float sum per schedule would round
        for i in range(300):
            inst = gen_random(6, seed=f"mk:{i}")
            pairs = [(1 + Fraction(p), Fraction(u)) for u, p in zip(inst.uppers(), inst.procs())]
            assert brute_force_optimum(inst, "makespan") == float(min(sum(d) for d in product(*pairs)))


class TestBruteForce:
    def test_refuses_large_instances(self):
        inst = gen_random(11, seed="big")
        with pytest.raises(OracleSizeError):
            brute_force_optimum(inst)

    @pytest.mark.parametrize("n", [3, 11])
    def test_unknown_objective_is_named_before_the_size_gate(self, n):
        with pytest.raises(ValueError, match="unknown objective 'bogus'"):
            brute_force_optimum(gen_random(n, seed="x"), "bogus")
        if n > BRUTE_FORCE_MAX_N:
            with pytest.raises(OracleSizeError):
                brute_force_optimum(gen_random(n, seed="x"), "makespan")

    def test_exact_on_fractions(self):
        inst = Instance.from_pairs([(Fraction(5, 2), Fraction(1, 3)),
                                    (Fraction(7, 3), Fraction(7, 3))])
        # keys 4/3 (tested) and 7/3 (blind): total 4/3 + (4/3 + 7/3)
        assert brute_force_optimum(inst) == Fraction(4, 3) + Fraction(11, 3)

    def test_float_mode_matches_optimal_sum(self):
        for i in range(60):
            n = random.Random(f"fn:{i}").randrange(1, 7)
            inst = gen_random(n, seed=f"bf-float:{i}")
            best = brute_force_optimum(inst)
            assert isinstance(best, float)
            assert numbers_equal(best, optimal_sum(inst).total)


def fraction_copy(inst):
    return Instance.from_pairs([(Fraction(u), Fraction(p)) for u, p in zip(inst.uppers(), inst.procs())])


class TestGrayWalk:
    """The Gray-code walk equals the literal enumeration of every schedule."""

    @pytest.mark.parametrize("pairs, want", [
        ([(3, 1)], 2),                                  # tested
        ([(Fraction(3, 2), 1)], Fraction(3, 2)),        # blind
        ([(2, 1)], 2),                                  # tie
        ([(2, 0), (2, 2)], 4),                          # keys 1 and 2: 1 + 3
        ([(5, 1), (Fraction(5, 2), 2)], 2 + Fraction(9, 2)),
    ])
    def test_one_and_two_jobs(self, pairs, want):
        inst = Instance.from_pairs(pairs)
        got = brute_force_optimum(inst)
        assert got == want == enumerated_sum_optimum(inst)
        assert type(got) is Fraction

    @pytest.mark.parametrize("pairs, want", [
        ([(3.0, 1.0)], 2.0),
        ([(2.0, 1.0)], 2.0),
        ([(2.5, 0.5), (1.25, 0.75)], 1.25 + 2.75),
        ([(0.1, 0.1), (0.2, 0.1)], float(Fraction(0.1) + Fraction(0.1) + Fraction(0.2))),
        # 1 + p and the sums are exact: 2 * (1 + 0.1) + (1 + 0.2) in floats is 3.4000000000000004
        ([(4.0, 0.1), (4.0, 0.2)], 3.4),
    ])
    def test_one_and_two_float_jobs(self, pairs, want):
        got = brute_force_optimum(Instance.from_pairs(pairs))
        assert got == want
        assert type(got) is float

    def test_beyond_a_floats_range_is_inf(self):
        inst = Instance.from_pairs([(1e308, 1e308), (1e308, 1e308)])
        assert brute_force_optimum(inst) == math.inf == enumerated_sum_optimum(inst)

    def test_criterion_10_corpus(self):
        for i in range(1000):
            inst = gen_random(1 + (i % 6), seed=f"c10:{i}", exact=True, denominator=24)
            assert brute_force_optimum(inst) == enumerated_sum_optimum(inst)

    def test_four_type_profiles(self):
        t, e, eps = Fraction(17453, 10000), Fraction(28609, 10000), Fraction(1, 10 ** 6)
        for i in range(5):
            for j in range(5 - i):
                for k in range(5 - i - j):
                    inst = gen_four_type(6, Fraction(i, 4), Fraction(j, 4), Fraction(k, 4),
                                         T=t, E=e, epsilon=eps)
                    assert brute_force_optimum(inst) == enumerated_sum_optimum(inst)


# Ints, Fractions and floats, on a coarse grid so that keys tie, and jobs
# whose limit is exactly 1 + p, where testing and running blind cost the same.
VALUES = (st.integers(0, 4) | st.fractions(0, 4, max_denominator=6)
          | st.sampled_from([0.0, 0.1, 0.2, 0.5, 1.0, 1.5, 2.5, 1 / 3]) | st.floats(0, 4))
JOB = st.tuples(VALUES, VALUES, st.booleans()).map(
    lambda t: (1 + min(t[:2]), min(t[:2])) if t[2] else (max(t[:2]), min(t[:2])))


@settings(derandomize=True, max_examples=120, database=None, deadline=None)
@given(st.lists(JOB, min_size=1, max_size=6))
def test_gray_walk_equals_the_enumeration(jobs):
    inst = Instance.from_pairs(jobs)
    got = brute_force_optimum(inst)
    if any(isinstance(v, float) for job in jobs for v in job):
        assert type(got) is float
        assert got == float(enumerated_sum_optimum(fraction_copy(inst)))
    else:
        assert type(got) is Fraction
        assert got == enumerated_sum_optimum(inst)
