"""Behavioral traces of every strategy against hand-worked schedules."""

import math
import random
import re
from fractions import Fraction
from heapq import heappop, heappush
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumeration import enumerated_expectation
from oracles import delay_all_family_costs, spent_and_spt
from testsched import algorithms, analysis
from testsched.algorithms import (
    SUM_ALGORITHM_NAMES,
    ConfigurationError,
    _seeded_shuffle,
    _split,
    _uniform_limit,
    build_algorithm,
    make_lb_schedule,
    parse_algorithm,
)
from testsched.core import (
    EXEC_TESTED,
    EXEC_UNTESTED,
    REL_TOL,
    TEST,
    Instance,
    check_trace_durations,
    cost_of_trace,
)
from testsched.engine import StaticSource, run, run_expected, trial_seed
from testsched.generators import four_type_counts, gen_four_type, gen_random, gen_threshold_worstcase
from testsched.offline import optimal_sum


# Heavily tied numbers of mixed types: 1, 1.0 and Fraction(1) are equal, and so are 2.5 and 5/2.
TIED = st.sampled_from([0, 0.0, 1, 1.0, Fraction(1), 1.5, Fraction(5, 2), 2.5, 3, Fraction(7, 3)])


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
        alg, opt = delay_all_family_costs(2, 1)
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


class TestMakespanGames:
    """The one-job games behind the makespan rules' lower bounds, on exact engine runs."""

    BLIND = "lb_schedule[nu=1,lam=0,delta=1]"     # every job run untested
    TESTED = "lb_schedule[nu=0,lam=1,delta=1]"    # every job tested, then run at once

    @staticmethod
    def ratio(spec, u, p):
        inst = Instance.from_pairs([(u, p)])
        alg = parse_algorithm(spec, exact=True)
        got = run_expected(alg, StaticSource(inst), 1, inst.uppers(), exact=True).makespan
        return Fraction(got) / optimal_sum(inst).makespan

    def test_randomized_game_gives_every_rule_four_thirds(self):
        # limit 2, p = 0 with probability 1/3 and p = 2 otherwise: testing and running
        # blind both average 4/3, so by Yao no randomized rule does better
        assert kinds(trace_of("makespan_det", [(2, 0)])) == [TEST, EXEC_TESTED]
        assert kinds(trace_of(self.BLIND, [(2, 0)])) == [EXEC_UNTESTED]
        for spec in ("makespan_det", self.BLIND, "makespan_rand"):
            mean = Fraction(1, 3) * self.ratio(spec, 2, 0) + Fraction(2, 3) * self.ratio(spec, 2, 2)
            assert mean == Fraction(4, 3)
        assert analysis.makespan_rand_curve(Fraction(2)) == Fraction(4, 3)

    def test_deterministic_game_crosses_at_the_golden_ratio(self):
        # limit x, p in {0, x}: blind meets p = 0 (ratio x), a test meets p = x
        # (ratio (1 + x)/x); the two cross where x^2 = x + 1, inside [lo, hi]
        lo, hi = Fraction(1618033, 10 ** 6), Fraction(1618034, 10 ** 6)
        assert (2 * lo - 1) ** 2 < 5 < (2 * hi - 1) ** 2   # lo < phi < hi exactly
        assert lo < analysis.GOLDEN_RATIO < hi
        assert kinds(trace_of(self.TESTED, [(lo, lo)])) == [TEST, EXEC_TESTED]
        for x, blind_is_less in ((lo, True), (hi, False)):
            blind, tested = self.ratio(self.BLIND, x, 0), self.ratio(self.TESTED, x, x)
            assert (blind, tested) == (x, (1 + x) / x)
            assert (blind < tested) is blind_is_less


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
        # an empty part is skipped: a trailing comma names the same rule
        alg, plain = parse_algorithm("random[T=1.8,]"), parse_algorithm("random[T=1.8]")
        assert (alg.key, alg.params) == (plain.key, plain.params)

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


class TestSmallLimitPrefix:
    def test_orders_by_limit_then_id(self):
        assert _split((1.5, 0.5, 3, 0.5), 2)[0] == [1, 3, 0]

    def test_strict_cutoff(self):
        assert _split((2, 1), 2)[0] == [1]

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(st.lists(TIED, max_size=30), TIED, st.booleans())
    def test_equals_the_pair_sort(self, limits, cutoff, as_tuple):
        uppers = tuple(limits) if as_tuple else limits
        pairs = sorted((u, j) for j, u in enumerate(limits) if u < cutoff)
        assert _split(uppers, cutoff)[0] == [j for _, j in pairs]


class TestDeferredTail:
    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(st.lists(TIED, min_size=1, max_size=40), st.randoms(use_true_random=False), TIED | st.just(-1))
    def test_runs_in_the_pair_sort_order(self, procs, rng, E):
        order = list(range(len(procs)))
        rng.shuffle(order)
        got = drive_actions(lambda view: algorithms._blind_test_defer((), (order, E)), [4] * len(procs), procs)
        want = []
        for j in order:
            want += [(TEST, j), (EXEC_TESTED, j)] if procs[j] <= E else [(TEST, j)]
        want += [(EXEC_TESTED, j) for _, j in sorted((procs[j], j) for j in order if not procs[j] <= E)]
        assert got == want


class TestUniformLimit:
    def test_float_limits_within_tolerance_give_the_first(self):
        a, b = 2.5, 2.5 * (1 + 1e-12)
        assert a != b
        assert _uniform_limit((a, b, a), "rule") == a
        assert _uniform_limit((b, a, a), "rule") == b

    @pytest.mark.parametrize("uppers", [(2, 3), (2.5, 2.5, 2.6),
                                        (Fraction(5, 2), Fraction(5, 2) + Fraction(1, 10**15))])
    def test_distinct_limits_rejected(self, uppers):
        with pytest.raises(ConfigurationError,
                           match=r"^balance rule needs a common upper limit on all jobs$"):
            _uniform_limit(uppers, "balance rule")


class TestRegistryPins:
    """What each registry row builds, and the exact text of each rejected spec."""

    BUILT = {
        "threshold": ("threshold", "threshold rule", False, "sum", {}),
        "delay_all": ("delay_all", "delay-everything rule", False, "sum", {}),
        "random": ("random", "random-order rule (T=1.7453, E=2.8609)", True, "sum",
                   {"T": 1.7453, "E": 2.8609}),
        "random[T=1.5,E=3]": ("random", "random-order rule (T=1.5, E=3.0)", True, "sum",
                              {"T": 1.5, "E": 3.0}),
        "beat": ("beat", "balance rule", False, "sum", {}),
        "combined": ("combined", "combined rule (T1=1.9338, T2=2.2948)", False, "sum",
                     {"T1": 1.9338, "T2": 2.2948}),
        "combined[T1=2,T2=2.5]": ("combined", "combined rule (T1=2.0, T2=2.5)", False, "sum",
                                  {"T1": 2.0, "T2": 2.5}),
        "ute": ("ute", "extreme-uniform rule (rho=1.8667603991738622)", False, "sum",
                {"rho": 1.8667603991738622}),
        "ute[rho=2]": ("ute", "extreme-uniform rule (rho=2.0)", False, "sum", {"rho": 2.0}),
        "lb_schedule": ("lb_schedule", "adversary schedule (nu=0.0, lam=0.0, delta=0.6306655)",
                        False, "sum", {"nu": 0.0, "lam": 0.0, "delta": 0.6306655}),
        "lb_schedule[nu=0.1,lam=0.2,delta=0.5]": (
            "lb_schedule", "adversary schedule (nu=0.1, lam=0.2, delta=0.5)", False, "sum",
            {"nu": 0.1, "lam": 0.2, "delta": 0.5}),
        "makespan_det": ("makespan_det", "golden-ratio makespan rule", False, "makespan", {}),
        "makespan_rand": ("makespan_rand", "randomized makespan rule", True, "makespan", {}),
    }

    @pytest.mark.parametrize("spec", sorted(BUILT))
    def test_built_rule(self, spec):
        alg = parse_algorithm(spec)
        got = (alg.key, alg.label, alg.randomized, alg.objective, alg.params)
        assert got == self.BUILT[spec]
        assert [type(v) for v in alg.params.values()] == [float] * len(alg.params)

    def test_rational_parameters_in_the_label(self):
        alg = parse_algorithm("random[T=3/2,E=3]", exact=True)
        assert alg.label == "random-order rule (T=3/2, E=3)"
        assert alg.params == {"T": Fraction(3, 2), "E": Fraction(3)}
        assert all(type(v) is Fraction for v in alg.params.values())

    REJECTED = {
        "random[T=0.5]": "random rule needs 1 < T <= E, got T=0.5, E=2.8609",
        "random[T=3,E=2]": "random rule needs 1 < T <= E, got T=3.0, E=2.0",
        "random[T=0.5,x=1]": "random rule needs 1 < T <= E, got T=0.5, E=2.8609",
        "random[x=1]": "unknown parameters for random: ['x']",
        "combined[T1=2.5,T2=2]": "combined rule needs 1 < T1 <= T2, got 2.5, 2.0",
        "ute[rho=1]": "extreme-uniform rule needs rho > 1, got 1.0",
        "lb_schedule[nu=0.7,lam=0.5]": "nu + lam must not exceed 1",
        "lb_schedule[nu=2,x=1]": "nu, lam, delta must lie in [0, 1]",
        "threshold[x=1]": "unknown parameters for threshold: ['x']",
        "makespan_rand[q=1]": "unknown parameters for makespan_rand: ['q']",
        "nope": "unknown algorithm: 'nope'",
    }

    @pytest.mark.parametrize("spec", sorted(REJECTED))
    def test_rejected_spec_text(self, spec):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(self.REJECTED[spec])}$"):
            parse_algorithm(spec)


# The expected-cost hook against the test-side enumeration of every outcome:
# T <= E pairs with denominators up to 4, limits drawn at T and E as well as
# anywhere, and times at 0, at the limit and at E, so every tie the rules
# break is common.  The same instance in floats agrees within REL_TOL.
def hook_case(te):
    T, E = te
    upper = st.sampled_from([T, E]) | st.integers(0, 6) | st.fractions(0, 6, max_denominator=4)
    job = upper.flatmap(lambda u: st.tuples(st.just(u), st.sampled_from([0, u, min(E, u)])
                                            | st.fractions(0, 1, max_denominator=4).map(lambda x: u * x)))
    return st.tuples(st.just(te), st.lists(job, min_size=1, max_size=7))


T_E_PAIRS = st.tuples(st.fractions(1, 4, max_denominator=4).filter(lambda t: t > 1),
                      st.fractions(0, 2, max_denominator=4)).map(lambda t: (t[0], t[0] + t[1]))


def typed(values):
    return [(type(v), v) for v in values]


@settings(derandomize=True, max_examples=120, database=None, deadline=None)
@given(T_E_PAIRS.flatmap(hook_case))
@example(((Fraction(2), Fraction(2)), [(1, 0), (0, 0)]))  # no test anywhere: int sums
@example(((Fraction(2), Fraction(2)), [(Fraction(1, 2), 0), (1, Fraction(1, 3))]))
def test_expected_cost_hook_equals_the_enumeration(case):
    (T, E), jobs = case
    inst = Instance.from_pairs(jobs)
    for alg in (build_algorithm("random", {"T": T, "E": E}), build_algorithm("makespan_rand")):
        want = typed(enumerated_expectation(alg, lambda: StaticSource(inst), inst.n, inst.uppers()))
        assert typed(alg.expected_cost(inst.uppers(), inst.procs())) == want
        res = run_expected(alg, StaticSource(inst), inst.n, inst.uppers(), exact=True)
        assert typed((res.total, res.makespan, res.trials)) == want and res.exact
    floats = Instance.from_pairs([(float(u), float(p)) for u, p in jobs])
    for alg in (build_algorithm("random", {"T": float(T), "E": float(E)}), build_algorithm("makespan_rand")):
        total, makespan, count = enumerated_expectation(alg, lambda: StaticSource(floats), floats.n,
                                                        floats.uppers())
        res = run_expected(alg, StaticSource(floats), floats.n, floats.uppers(), exact=True)
        assert (type(res.total), type(res.makespan), res.trials, res.exact) == (float, float, count, True)
        assert math.isclose(res.total, total, rel_tol=REL_TOL)
        assert math.isclose(res.makespan, makespan, rel_tol=REL_TOL)


@pytest.mark.parametrize("n", [10, 100, 1000])
@pytest.mark.parametrize("mix", [(Fraction(1, 4),) * 3, (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)),
                                 (0, 0, 1), (0, 0, 0)])
def test_random_hook_matches_the_four_type_closed_form(n, mix):
    T, E, eps = Fraction(17453, 10000), Fraction(28609, 10000), Fraction(1, 1000)
    inst = gen_four_type(n, *mix, T=T, E=E, epsilon=eps)
    counts = four_type_counts(n, *mix)
    alg = build_algorithm("random", {"T": T, "E": E})
    total, makespan, count = alg.expected_cost(inst.uppers(), inst.procs())
    assert total == analysis.random_expected_cost(counts, T, E, eps)
    # every job is tested, so the deterministic makespan is the phase plus the deferred times
    assert makespan == n + T * counts[1] + E * counts[2] + (E + eps) * counts[3]
    # n! outcomes, a count given only below 2**53
    assert count == (math.factorial(n) if n < 19 else None)


# random[T, E] as it was written with the stdlib shuffle and nothing shared
# between runs: the reference every run of the built rule must equal.
def reference_random_order(T, E, seed):
    def gen(view):
        uppers = view[1]
        ids = range(len(uppers))
        for j in sorted((j for j in ids if uppers[j] < T), key=lambda j: (uppers[j], j)):
            yield EXEC_UNTESTED, j
        rest = [j for j in ids if uppers[j] >= T]
        random.Random(seed).shuffle(rest)
        deferred = []
        for j in rest:
            p = yield TEST, j
            if p <= E:
                yield EXEC_TESTED, j
            else:
                heappush(deferred, (p, j))
        while deferred:
            yield EXEC_TESTED, heappop(deferred)[1]
    return gen


def drive_actions(gen_fn, uppers, procs):
    """The actions of gen_fn on the view (len(uppers), uppers), answering tests from procs."""
    gen = gen_fn((len(uppers), uppers))
    got, answer = [], None
    for action in iter(lambda: gen.send(answer), None):
        got.append(action)
        answer = procs[action[1]] if action[0] == TEST else None
    return got


class TestRandomOrderTrials:
    """The random rule's seeded shuffle and its shared split give the stdlib's runs."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 100, 1000])
    def test_seeded_shuffle_is_the_stdlib_shuffle(self, n):
        for seed in [*(trial_seed(m, i) for m in (0, "x", 918273) for i in range(12)),
                     *range(-3, 12), 2**70 + 1]:
            want = list(range(n))
            random.Random(seed).shuffle(want)
            assert _seeded_shuffle(range(n), seed) == want

    @pytest.mark.parametrize("name,args", [
        ("four_type", (0.3, 0.2, 0.1)), ("four_type", (0.25, 0.25, 0.25)),
        ("four_type", (0.0, 0.0, 1.0)), ("four_type", (0.0, 0.5, 0.1)),
        ("random", ("blind:1",)),
    ])
    def test_engine_traces_equal_the_reference(self, name, args):
        inst = gen_four_type(1000, *args) if name == "four_type" else gen_random(1000, seed=args[0])
        T, E = analysis.RANDOM_T_PUBLISHED, analysis.RANDOM_E_PUBLISHED
        alg = build_algorithm("random")
        for seed in ("mc:0", "mc:1", 7):
            got = run(alg.generator(seed), StaticSource(inst), inst.n, inst.uppers())
            want = run(reference_random_order(T, E, seed), StaticSource(inst), inst.n, inst.uppers())
            assert (got.steps, got.total, got.makespan) == (want.steps, want.total, want.makespan)
        res = run_expected(alg, StaticSource(inst), inst.n, inst.uppers(), trials=4, seed="mc")
        totals = [run(reference_random_order(T, E, trial_seed("mc", i)), StaticSource(inst), inst.n,
                      inst.uppers()).total for i in range(4)]
        assert res.total == sum(totals) / 4

    def test_split_memo_never_serves_a_stale_view(self):
        alg = build_algorithm("random")
        view_a = (2.0, 1.0, 3.0, 1.5, 2.5, 1.2)
        view_b = (1.0, 2.0, 1.7, 3.0, 1.9, 2.2)
        procs = (0.5, 1.0, 1.6, 0.0, 1.9, 1.2)
        inst_a, inst_b = Instance(view_a, procs), Instance(view_b, procs)
        for inst in (inst_a, inst_a, inst_b, inst_a, Instance(list(view_a), procs)):
            for seed in ("s:0", "s:1", 3):
                got = run(alg.generator(seed), StaticSource(inst), inst.n, inst.uppers())
                fresh = build_algorithm("random").generator(seed)
                assert got.steps == run(fresh, StaticSource(inst), inst.n, inst.uppers()).steps
        limits = list(view_a)
        for change in (None, (0, 1.0), (3, 2.0), (1, 2.8)):
            if change:
                limits[change[0]] = change[1]
            got = drive_actions(alg.generator("s:0"), limits, procs)
            assert got == drive_actions(build_algorithm("random").generator("s:0"), limits, procs)
        for limits in (view_a, view_b, view_a):
            assert (drive_actions(alg.generator(5), tuple(list(limits)), procs)
                    == drive_actions(build_algorithm("random").generator(5), limits, procs))


# Every sum rule that accepts an arbitrary rational instance makes a trace the
# replay accepts, whose cost the replay recomputes and which costs at least OPT.
RATIONAL = st.integers(0, 4) | st.fractions(0, 4, max_denominator=6)
JOBS = st.lists(st.tuples(RATIONAL, RATIONAL).map(lambda t: (max(t), min(t))), min_size=1, max_size=8)
COMMON_LIMIT = st.tuples(RATIONAL, st.lists(st.fractions(0, 1, max_denominator=6), min_size=1,
                                            max_size=8)).map(lambda c: [(c[0], c[0] * x) for x in c[1]])


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(JOBS | COMMON_LIMIT)
def test_sum_rules_pay_at_least_the_optimum(jobs):
    inst = Instance.from_pairs(jobs)
    opt = optimal_sum(inst).total
    ran = 0
    for name in SUM_ALGORITHM_NAMES:
        alg = build_algorithm(name)
        try:
            tr = run(alg.generator("p:0" if alg.randomized else None), StaticSource(inst), inst.n,
                     inst.uppers())
        except ConfigurationError:
            continue
        ran += 1
        check_trace_durations(tr, inst)
        assert cost_of_trace(tr) == (tr.total, tr.makespan)
        assert tr.total >= opt
    assert ran >= 3


def test_deterministic_rules_lose_order_then_treatment():
    # ALG >= SPT(a) >= OPT exactly, a_j being the time the rule spent on job j
    ran = 0
    for i in range(300):
        inst = gen_random(1 + i % 8, seed=f"split:{i}", exact=True, denominator=12)
        if i % 2:   # a common limit, which the balance, combined and ute rules need
            u = inst.uppers()[0]
            inst = Instance.from_pairs([(u, p * u / v) for v, p in zip(inst.uppers(), inst.procs())])
        opt = optimal_sum(inst).total
        for name in (*(n for n in SUM_ALGORITHM_NAMES if n != "random"), "lb_schedule"):
            try:
                tr = run(build_algorithm(name).generator(), StaticSource(inst), inst.n, inst.uppers())
            except ConfigurationError:
                continue
            ran += 1
            spent, spt = spent_and_spt(tr)
            assert all(a in (1 + p, u) for a, u, p in zip(spent, inst.uppers(), inst.procs()))
            assert tr.total >= spt >= opt
    assert ran >= 1300


# Both makespan rules accept every instance, so each example runs both.
@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(JOBS | COMMON_LIMIT)
def test_makespan_rules_pay_at_least_the_optimum(jobs):
    inst = Instance.from_pairs(jobs)
    opt = optimal_sum(inst).makespan
    for name, seed in (("makespan_det", None), ("makespan_rand", "p:0")):
        tr = run(build_algorithm(name).generator(seed), StaticSource(inst), inst.n, inst.uppers())
        check_trace_durations(tr, inst)
        assert cost_of_trace(tr) == (tr.total, tr.makespan)
        assert tr.makespan >= opt


# The paper's upper bounds on arbitrary exact instances (n <= 6), with no tolerance.  Values
# include the random rule's T and E, a limit just past E and two beside the golden ratio.
PHI_UP = Fraction(1618033988749895, 10 ** 15)  # just above phi = (1 + sqrt 5) / 2
RANDOM_T, RANDOM_E = Fraction(17453, 10000), Fraction(28609, 10000)
BOUND_VALUE = RATIONAL | st.sampled_from([RANDOM_T, RANDOM_E, RANDOM_E + Fraction(1, 10 ** 6),
                                          Fraction(1618, 1000), Fraction(1619, 1000)])
BOUND_JOBS = (st.lists(st.tuples(BOUND_VALUE, BOUND_VALUE).map(lambda t: (max(t), min(t))),
                       min_size=1, max_size=6)
              | st.tuples(BOUND_VALUE, st.lists(st.fractions(0, 1, max_denominator=6), min_size=1, max_size=6))
              .map(lambda c: [(c[0], c[0] * x) for x in c[1]]))


def test_phi_up_is_just_above_the_golden_ratio():
    # phi < x exactly when (2x - 1)^2 > 5, as 2x - 1 > 0
    assert (2 * PHI_UP - 1) ** 2 > 5 > (2 * (PHI_UP - Fraction(1, 10 ** 15)) - 1) ** 2
    assert PHI_UP >= analysis.GOLDEN_RATIO  # the float cutoff makespan_det tests above


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(BOUND_JOBS)
@example([(Fraction(1618, 1000), 0)])  # makespan_det runs it blind: ratio 1.618, just below phi
@example([(Fraction(199, 100), 0)])  # threshold runs it blind: ratio 1.99, just below 2
def test_rules_keep_the_paper_s_upper_bounds(jobs):
    inst = Instance.from_pairs(jobs)
    opt = optimal_sum(inst).total
    threshold = run(build_algorithm("threshold").generator(), StaticSource(inst), inst.n, inst.uppers())
    assert threshold.total <= 2 * opt
    det = run(build_algorithm("makespan_det").generator(), StaticSource(inst), inst.n, inst.uppers())
    assert det.makespan <= PHI_UP * optimal_sum(inst).makespan
    rand = build_algorithm("random", {"T": RANDOM_T, "E": RANDOM_E})
    assert run_expected(rand, StaticSource(inst), inst.n, inst.uppers(), exact=True).total <= RANDOM_T * opt


# The test-then-defer body as it was written with a heap for the deferred
# tail, one push per deferred job and one pop per tail execution: every rule
# built on the sorted tail must make the same run with it.
def heap_blind_test_defer(blind, *segments):
    for j in blind:
        yield EXEC_UNTESTED, j
    deferred = []
    for order, E in segments:
        for j in order:
            p = yield TEST, j
            if p <= E:
                yield EXEC_TESTED, j
            else:
                heappush(deferred, (p, j))
    while deferred:
        yield EXEC_TESTED, heappop(deferred)[1]


def equal_forms(halves, form):
    """halves / 2 as an int (where whole), a Fraction or a float: equal values, three types."""
    x = Fraction(halves, 2)
    return (int(x) if x.denominator == 1 else x, x, float(x))[form]


# Few distinct times, so revealed times tie, each in any of its three forms.
TIED = st.builds(equal_forms, st.sampled_from([0, 1, 2, 3, 4, 6]), st.integers(0, 2))
TIED_JOBS = st.lists(st.tuples(TIED, TIED).map(lambda t: (max(t), min(t))), min_size=1, max_size=12)
TIED_COMMON = st.tuples(st.sampled_from([4, 6]), st.integers(0, 2), st.lists(
    st.tuples(st.sampled_from([0, 1, 2, 3, 4]), st.integers(0, 2)), min_size=1, max_size=12)).map(
    lambda c: [(equal_forms(c[0], c[1]), equal_forms(min(h, c[0]), f)) for h, f in c[2]])
TAIL_RULES = [("threshold", None, None), ("delay_all", None, None),
              *(("random", None, seed) for seed in ("t:0", "t:1", 7)), ("ute", None, None),
              ("lb_schedule", None, None), ("lb_schedule", {"nu": 0.25, "lam": 0.25, "delta": 0.75}, None)]


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(TIED_JOBS | TIED_COMMON)
@example([(3, 3), (3.0, 3.0), (Fraction(3), Fraction(3)), (3, 3.0), (2.0, Fraction(3, 2)), (3, 1.5)])
@example([(Fraction(3), 3.0)] * 6 + [(3, 3)] * 6)
def test_sorted_tail_runs_as_the_heap_did(jobs):
    inst = Instance.from_pairs(jobs)
    ran = 0
    for name, params, seed in TAIL_RULES:
        try:
            got = run(build_algorithm(name, params).generator(seed), StaticSource(inst), inst.n,
                      inst.uppers())
        except ConfigurationError:
            continue
        with mock.patch.object(algorithms, "_blind_test_defer", heap_blind_test_defer):
            want = run(build_algorithm(name, params).generator(seed), StaticSource(inst), inst.n,
                       inst.uppers())
        ran += 1
        assert [typed(step) for step in got.steps] == [typed(step) for step in want.steps]
        assert typed((got.total, got.makespan)) == typed((want.total, want.makespan))
    assert ran >= len(TAIL_RULES) - 1
