"""Clairvoyant optimum against the exhaustive enumeration oracle."""

import random
from fractions import Fraction

import pytest

from testsched.algorithms import parse_algorithm
from testsched.core import (
    Instance,
    check_trace_durations,
    cost_of_trace,
    numbers_equal,
    validate_instance,
)
from testsched.engine import run
from testsched.generators import det_lb_adversary, gen_random
from testsched.offline import (
    BRUTE_FORCE_MAX_N,
    OptPlan,
    OracleSizeError,
    brute_force_optimum,
    job_key,
    optimal_makespan,
    optimal_sum,
    plan_trace,
    should_test,
)


class TestKeyRule:
    def test_testing_pays_when_limit_is_high(self):
        inst = Instance.from_pairs([(3, 1)])
        assert job_key(inst.jobs[0]) == 2
        assert should_test(inst.jobs[0])

    def test_blind_run_when_limit_is_low(self):
        inst = Instance.from_pairs([(Fraction(3, 2), 1)])
        assert job_key(inst.jobs[0]) == Fraction(3, 2)
        assert not should_test(inst.jobs[0])

    def test_tie_goes_blind(self):
        # 1 + p equals the limit: both cost 2, testing buys nothing
        inst = Instance.from_pairs([(2, 1)])
        assert job_key(inst.jobs[0]) == 2
        assert not should_test(inst.jobs[0])


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
            order = sorted(inst.jobs, key=lambda j: (job_key(j), j.id))
            t = total = 0
            for j in order:
                t = t + job_key(j)
                total = total + t
            tested = frozenset(j.id for j in inst.jobs if should_test(j))
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
