"""Behavioral traces of every strategy against hand-worked schedules."""

import math
from fractions import Fraction

import pytest

from testsched import analysis
from testsched.algorithms import (
    ConfigurationError,
    build_algorithm,
    make_lb_schedule,
    parse_algorithm,
    small_limit_prefix,
)
from testsched.core import EXEC_TESTED, EXEC_UNTESTED, TEST, Instance
from testsched.engine import StaticSource, run
from testsched.generators import gen_threshold_worstcase
from testsched.offline import optimal_sum


def trace_of(name_or_alg, pairs, seed=None):
    alg = parse_algorithm(name_or_alg) if isinstance(name_or_alg, str) else name_or_alg
    inst = Instance.from_pairs(pairs)
    return run(alg.generator(seed), StaticSource(inst), inst.n, inst.uppers())


def kinds(trace):
    return [s[0] for s in trace.steps]


def actions(trace):
    return [s[:2] for s in trace.steps]


class TestThreshold:
    def test_worst_family_exact(self):
        eps = Fraction(1, 2)
        inst = gen_threshold_worstcase(2, 2, 2, epsilon=eps)
        tr = run(parse_algorithm("threshold").generator(), StaticSource(inst),
                 inst.n, inst.uppers())
        alg, opt = analysis.threshold_family_costs(2, 2, 2, eps)
        assert tr.total == alg
        assert optimal_sum(inst).total == opt

    def test_worst_family_unit_counts(self):
        inst = gen_threshold_worstcase(1, 1, 1, epsilon=Fraction(1, 4))
        tr = trace_of("threshold", [(j.upper, j.proc) for j in inst.jobs])
        assert tr.total == 16 + Fraction(1, 4)
        assert optimal_sum(inst).total == 9 + Fraction(1, 4)

    def test_at_cutoff_runs_immediately(self):
        # revealed time exactly 2 is still "short"
        tr = trace_of("threshold", [(3, 2), (3, 0)])
        assert actions(tr)[:2] == [(TEST, 0), (EXEC_TESTED, 0)]

    def test_above_cutoff_deferred(self):
        tr = trace_of("threshold", [(3, Fraction(5, 2)), (3, 0)])
        assert actions(tr) == [(TEST, 0), (TEST, 1), (EXEC_TESTED, 1), (EXEC_TESTED, 0)]

    def test_blind_prefix_sorted_by_limit(self):
        tr = trace_of("threshold", [(1.5, 1), (0.5, 0.2), (3, 0)])
        assert actions(tr)[:2] == [(EXEC_UNTESTED, 1), (EXEC_UNTESTED, 0)]

    def test_deferred_run_shortest_first(self):
        tr = trace_of("threshold", [(4, 3.5), (4, 2.5), (4, 3.0)])
        tail = actions(tr)[-3:]
        assert tail == [(EXEC_TESTED, 1), (EXEC_TESTED, 2), (EXEC_TESTED, 0)]


class TestDelayAll:
    def test_family_costs(self):
        inst = Instance.from_pairs([(2, 0)] * 2 + [(2, 2)])
        tr = run(parse_algorithm("delay_all").generator(), StaticSource(inst),
                 inst.n, inst.uppers())
        alg, opt = analysis.delay_all_family_costs(2, 1)
        assert tr.total == alg == 11
        assert optimal_sum(inst).total == opt

    def test_no_execution_during_tests(self):
        tr = trace_of("delay_all", [(3, 0), (3, 1), (3, 2)])
        assert kinds(tr) == [TEST] * 3 + [EXEC_TESTED] * 3


class TestBeat:
    def test_hand_trace(self):
        # limit 2, cap 1: long, short, long, short
        tr = trace_of("beat", [(2, 2), (2, 0), (2, 2), (2, 0)])
        assert actions(tr) == [
            (TEST, 0), (TEST, 1), (EXEC_TESTED, 1), (TEST, 2),
            (EXEC_TESTED, 0), (TEST, 3), (EXEC_TESTED, 3), (EXEC_TESTED, 2),
        ]
        assert tr.total == 2 + 5 + 6 + 8

    def test_credit_invariant(self):
        # replay the trace and check the balance rule action by action;
        # the drain after the last test is exempt by design
        limit = 2.5
        pairs = [(limit, limit if i % 3 == 0 else 0) for i in range(30)]
        tr = trace_of("beat", pairs)
        cap = limit - 1
        last_test = max(i for i, s in enumerate(tr.steps) if s[0] == TEST)
        total_test = total_exec = 0
        early_longs = 0
        for i, (kind, job, _start, dur) in enumerate(tr.steps):
            if kind == TEST and pairs[job][1] > cap:
                total_test += 1
            elif kind == EXEC_TESTED and dur > cap:
                if i < last_test:
                    # a long run must be paid for by accumulated test credit
                    assert total_exec + dur <= total_test + 1e-9
                    early_longs += 1
                total_exec += dur
        assert early_longs > 0

    def test_needs_uniform_limits(self):
        with pytest.raises(ConfigurationError, match="common upper limit"):
            trace_of("beat", [(2, 1), (3, 1)])


class TestCombined:
    def test_below_t1_runs_blind(self):
        tr = trace_of("combined", [(1.9, 1.9)] * 3)
        assert kinds(tr) == [EXEC_UNTESTED] * 3

    def test_middle_regime_balances(self):
        # all long at limit 2: the balance rule frees job 0 after 2 tests
        tr = trace_of("combined", [(2.0, 2.0)] * 4)
        assert actions(tr)[:3] == [(TEST, 0), (TEST, 1), (EXEC_TESTED, 0)]

    def test_high_regime_uses_threshold(self):
        # 2.5 sits above the default switch point, so everything is deferred
        tr = trace_of("combined", [(2.5, 2.5)] * 4)
        assert kinds(tr) == [TEST] * 4 + [EXEC_TESTED] * 4
        # raising the switch point puts 2.5 back in the balance regime
        alg = build_algorithm("combined", {"T1": 1.9338, "T2": 2.6})
        tr2 = trace_of(alg, [(2.5, 2.5)] * 4)
        assert kinds(tr) != kinds(tr2)

    def test_needs_uniform_limits(self):
        with pytest.raises(ConfigurationError):
            trace_of("combined", [(2, 1), (3, 1)])


class TestUte:
    def test_low_limit_runs_blind(self):
        tr = trace_of("ute", [(1.8, 1.8)] * 4)
        assert kinds(tr) == [EXEC_UNTESTED] * 4

    def test_immediate_prefix_size(self):
        rho = analysis.ute_rho_star()
        beta = analysis.ute_beta(rho, 2.5)
        n = 10
        want = math.ceil(beta * n)
        tr = trace_of("ute", [(2.5, 2.5)] * n)
        immediate = sum(
            1 for i in range(len(tr.steps) - 1)
            if tr.steps[i][0] == TEST and tr.steps[i + 1][0] == EXEC_TESTED
            and tr.steps[i][1] == tr.steps[i + 1][1]
        )
        assert immediate == want

    def test_free_jobs_always_run_immediately(self):
        tr = trace_of("ute", [(2.5, 0)] * 6)
        assert kinds(tr) == [TEST, EXEC_TESTED] * 6

    def test_needs_uniform_limits(self):
        with pytest.raises(ConfigurationError):
            trace_of("ute", [(2.5, 0), (2.6, 0)])


class TestLbSchedule:
    def test_phase_structure(self):
        gen = make_lb_schedule(0.2, 0.3, 0.63)
        inst = Instance.from_pairs([(2, 0)] * 10)
        tr = run(gen, StaticSource(inst), 10, inst.uppers())
        ks = kinds(tr)
        assert ks[:2] == [EXEC_UNTESTED] * 2
        assert ks[2:8] == [TEST, EXEC_TESTED] * 3
        # job 5 is touch number 6 <= floor(0.63 * 10), so it is deferred
        assert actions(tr)[8] == (TEST, 5)
        assert actions(tr)[9] == (TEST, 6)
        assert actions(tr)[-1] == (EXEC_TESTED, 5)

    def test_fraction_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            make_lb_schedule(0.8, 0.4, 0.6)
        with pytest.raises(ConfigurationError):
            make_lb_schedule(-0.1, 0.0, 0.5)


class TestMakespanRules:
    def test_det_tests_only_above_golden_ratio(self):
        phi = analysis.GOLDEN_RATIO
        tr = trace_of("makespan_det", [(phi - 0.01, 1), (phi + 0.01, 1)])
        assert actions(tr) == [(EXEC_UNTESTED, 0), (TEST, 1), (EXEC_TESTED, 1)]

    def test_rand_never_tests_low_limits(self):
        tr = trace_of("makespan_rand", [(1.0, 0.5)] * 5, seed="any")
        assert kinds(tr) == [EXEC_UNTESTED] * 5

    def test_rand_deterministic_per_seed(self):
        pairs = [(2.0, 1.0)] * 8
        a = trace_of("makespan_rand", pairs, seed="s")
        b = trace_of("makespan_rand", pairs, seed="s")
        assert actions(a) == actions(b)


class TestRegistry:
    def test_parse_plain(self):
        assert parse_algorithm("threshold").key == "threshold"

    @pytest.mark.parametrize("name", ["random", "makespan_rand"])
    def test_randomized_generator_needs_seed(self, name):
        with pytest.raises(ConfigurationError, match="needs a seed"):
            parse_algorithm(name).generator()

    def test_deterministic_generator_ignores_seed(self):
        pairs = [(3, 0.5), (3, 2.8), (2, 2)]
        alg = parse_algorithm("threshold")
        assert trace_of(alg, pairs, seed="x").steps == trace_of(alg, pairs).steps

    def test_parse_with_params(self):
        alg = parse_algorithm("random[T=1.8,E=3.0]")
        assert alg.params == {"T": 1.8, "E": 3.0}

    def test_parse_exact_params(self):
        alg = parse_algorithm("random[T=1.7453,E=2.8609]", exact=True)
        assert alg.params["T"] == Fraction(17453, 10000)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            parse_algorithm("nope")

    def test_unknown_parameter(self):
        with pytest.raises(ConfigurationError, match="unknown parameters"):
            parse_algorithm("threshold[x=1]")

    def test_malformed_spec(self):
        with pytest.raises(ConfigurationError):
            parse_algorithm("random[T=1.8")
        with pytest.raises(ConfigurationError):
            parse_algorithm("random[T]")

    def test_bad_value(self):
        with pytest.raises(ConfigurationError, match="bad value"):
            parse_algorithm("random[T=abc]")

    def test_bad_random_thresholds(self):
        with pytest.raises(ConfigurationError):
            build_algorithm("random", {"T": 0.5, "E": 2.0})

    def test_deterministic_exact_outcomes(self):
        alg = parse_algorithm("threshold")
        outs = list(alg.exact_outcomes(2, (2, 2)))
        assert len(outs) == 1
        assert outs[0][0] == 1


class TestSmallLimitPrefix:
    def test_orders_by_limit_then_id(self):
        assert small_limit_prefix((1.5, 0.5, 3, 0.5), 2) == [1, 3, 0]

    def test_strict_cutoff(self):
        assert small_limit_prefix((2, 1), 2) == [1]
