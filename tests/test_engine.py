"""Protocol enforcement, reveal sources, and expectation runs."""

import dataclasses
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testsched import algorithms, core
from enumeration import exact_outcomes
from testsched.algorithms import (
    SUM_ALGORITHM_NAMES,
    ConfigurationError,
    OnlineAlgorithm,
    delay_all_generator,
    parse_algorithm,
    threshold_generator,
)
from testsched.core import (
    EXEC_TESTED,
    EXEC_UNTESTED,
    TEST,
    Instance,
    InstanceError,
    TraceError,
    build_trace,
    cost_of_trace,
)
from testsched.engine import (
    AdaptiveSource,
    ProtocolError,
    StaticSource,
    _stderr,
    run,
    run_expected,
    trial_seed,
)
from testsched.generators import det_lb_adversary, gen_random


def typed(values):
    return [(type(v), v) for v in values]


def run_static(gen_fn, pairs):
    inst = Instance.from_pairs(pairs)
    return run(gen_fn, StaticSource(inst), inst.n, inst.uppers())


class TestRun:
    def test_threshold_runs_small_limit_blind(self):
        tr = run_static(parse_algorithm("threshold").generator(), [(1.5, 0.7)])
        assert [s[:2] for s in tr.steps] == [(EXEC_UNTESTED, 0)]
        assert tr.total == 1.5

    def test_delay_all_waits_for_every_test(self):
        # two free jobs still cost 4: both tests run before either execution
        tr = run_static(parse_algorithm("delay_all").generator(), [(2, 0), (2, 0)])
        assert tr.total == 4
        kinds = [s[0] for s in tr.steps]
        assert kinds == [TEST, TEST, EXEC_TESTED, EXEC_TESTED]

    def test_revealed_time_is_sent_back(self):
        seen = []

        def probe(view):
            p = yield TEST, 0
            seen.append(p)
            yield EXEC_TESTED, 0

        run_static(probe, [(3, Fraction(5, 4))])
        assert seen == [Fraction(5, 4)]

    def test_trace_costs_recompute(self):
        inst = gen_random(12, seed="replay")
        tr = run(parse_algorithm("threshold").generator(), StaticSource(inst), inst.n, inst.uppers())
        total, makespan = cost_of_trace(tr)
        assert total == tr.total
        assert makespan == tr.makespan

    def test_view_must_match(self):
        inst = Instance.from_pairs([(2, 1)])
        with pytest.raises(ProtocolError):
            run(parse_algorithm("threshold").generator(), StaticSource(inst), 2, (2, 2))
        # same n, wrong limits: blind runs would be charged the view's limit
        inst = Instance.from_pairs([(1, 0.5), (1, 0.5)])
        with pytest.raises(ProtocolError, match="upper limits"):
            run(parse_algorithm("makespan_det").generator(), StaticSource(inst), 2, (1.5, 1.5))


ILLEGAL = {
    "test twice": ([(TEST, 0), (TEST, 0)], "job 0 tested twice"),
    "test after untested execution": ([(EXEC_UNTESTED, 0), (TEST, 0)], "job 0 tested after execution"),
    "test after tested execution":
        ([(TEST, 0), (EXEC_TESTED, 0), (TEST, 0)], "job 0 tested after execution"),
    "execute as tested before its test": ([(EXEC_TESTED, 0)], "job 0 executed as tested before its test"),
    "execute untested after its test":
        ([(TEST, 0), (EXEC_UNTESTED, 0)], "job 0 executed untested after its test"),
    "execute tested twice": ([(TEST, 0), (EXEC_TESTED, 0), (EXEC_TESTED, 0)], "job 0 executed twice"),
    "execute untested twice": ([(EXEC_UNTESTED, 0), (EXEC_UNTESTED, 0)], "job 0 executed twice"),
    "execute tested after untested": ([(EXEC_UNTESTED, 0), (EXEC_TESTED, 0)], "job 0 executed twice"),
    "unknown kind": ([("bogus", 0)], "unknown kind 'bogus'"),
    "unhashable kind": ([([TEST], 0)], "unknown kind ['test']"),
    "unknown job": ([(EXEC_UNTESTED, 5)], "unknown job id 5"),
    "non-integer job": ([(EXEC_UNTESTED, "0")], "unknown job id '0'"),
    "bool job": ([(EXEC_UNTESTED, 0), (EXEC_UNTESTED, True)], "unknown job id True"),
    "negative job": ([(EXEC_UNTESTED, -1)], "unknown job id -1"),
    "job id n": ([(TEST, 2)], "unknown job id 2"),
    "float job": ([(TEST, 0.0)], "unknown job id 0.0"),
}


def test_kinds_are_compared_by_value():
    """A kind string equal to a constant, though not the same object, is that kind."""
    actions = [(TEST, 1), (EXEC_TESTED, 1), (EXEC_UNTESTED, 0)]
    copies = [("".join(list(kind)), job) for kind, job in actions]
    assert copies == actions and not any(c[0] is a[0] for c, a in zip(copies, actions))
    tr = run_static(lambda view: (action for action in copies), [(2, 1), (3, Fraction(1, 2))])
    assert tr.steps == [(TEST, 1, 0, 1), (EXEC_TESTED, 1, 1, Fraction(1, 2)), (EXEC_UNTESTED, 0, Fraction(3, 2), 2)]
    assert all(step[0] is kind for step, (kind, _) in zip(tr.steps, actions))  # the constants, not the copies
    assert (tr.total, tr.makespan) == (5, Fraction(7, 2))


@pytest.mark.parametrize("name", sorted(ILLEGAL))
def test_engine_and_trace_ledgers_agree(name):
    """The engine and a replayed trace reject the same action with the same message."""
    actions, fault = ILLEGAL[name]

    def scripted(view):
        for action in actions:
            yield action

    with pytest.raises(ProtocolError) as engine_err:
        run_static(scripted, [(2, 1), (2, 1)])
    steps, t = [], 0
    for kind, job in actions:
        dur = 2 if kind == EXEC_UNTESTED else 1  # the durations the engine would charge
        steps.append((kind, job, t, dur))
        t += dur
    with pytest.raises(TraceError) as trace_err:
        build_trace(2, steps)
    assert str(engine_err.value) == str(trace_err.value) == f"action {len(actions) - 1}: {fault}"


@st.composite
def action_lists(draw):
    """n in 1..3 jobs and up to 8 actions.  About one kind, and one job, in ten lies outside the
    model ("bogus"; -1, n, True or 0.0): the first such action ends a run, so most runs reach the ledger."""
    n = draw(st.integers(1, 3))

    def rarely(common, rare):
        return draw(st.sampled_from(rare if draw(st.integers(0, 9)) == 9 else common))

    actions = [(rarely((TEST, EXEC_TESTED, EXEC_UNTESTED), ("bogus",)), rarely(range(n), (-1, n, True, 0.0)))
               for _ in range(draw(st.integers(0, 8)))]
    executed = set()
    for i, (kind, job) in enumerate(actions):
        if kind in (EXEC_TESTED, EXEC_UNTESTED) and type(job) is int:
            executed.add(job)
        if executed >= set(range(n)):  # the engine reads no action after the last job's execution
            return n, actions[:i + 1]
    return n, actions


@settings(derandomize=True, max_examples=400, deadline=None)
@given(action_lists())
def test_engine_and_trace_ledgers_agree_on_any_actions(case):
    """Any action sequence: the engine and a replayed trace fail with the same text, or agree on
    the steps, total and makespan; a sequence that leaves a job unfinished both refuse in their own words."""
    n, actions = case
    try:
        tr = run_static(lambda view: (action for action in actions), [(2, 1)] * n)
        engine = (tr.steps, tr.total, tr.makespan)
    except ProtocolError as exc:
        engine = str(exc)
    steps, t = [], 0
    for kind, job in actions:
        dur = 2 if kind == EXEC_UNTESTED else 1  # the durations the engine charges on limits 2, times 1
        steps.append((kind, job, t, dur))
        t += dur
    try:
        tr = build_trace(n, steps)
        replay = (tr.steps, tr.total, tr.makespan)
    except TraceError as exc:
        replay = str(exc)
    if isinstance(engine, str) and engine.startswith("algorithm stopped"):
        assert re.fullmatch(rf"algorithm stopped after action {len(actions)} with \d+ jobs unfinished", engine)
        assert re.fullmatch(r"job \d+ never executed", replay)
    else:
        assert engine == replay


def scripted_alg(actions):
    """A deterministic rule that yields `actions` in order, whatever the view."""
    def scripted(view):
        for action in actions:
            yield action

    return OnlineAlgorithm("scripted", "scripted rule", lambda seed: scripted)


# Early stops and malformed actions, beside ILLEGAL's ledger faults.
STOPPED = {
    "stop at once": ([], "algorithm stopped after action 0 with 2 jobs unfinished"),
    "stop after a test": ([(TEST, 1)], "algorithm stopped after action 1 with 2 jobs unfinished"),
    "stop after a job": ([(TEST, 1), (EXEC_TESTED, 1)], "algorithm stopped after action 2 with 1 jobs unfinished"),
    "stop after an untested job": ([(EXEC_UNTESTED, 0)], "algorithm stopped after action 1 with 1 jobs unfinished"),
    "not a pair": ([(TEST, 0), (EXEC_UNTESTED, 1), "x"], "action 2: not a (kind, job) pair: 'x'"),
    "not a sequence": ([(EXEC_UNTESTED, 1), 7], "action 1: not a (kind, job) pair: 7"),
}
ALL_FAULTS = {**{k: (a, f"action {len(a) - 1}: {f}") for k, (a, f) in ILLEGAL.items()}, **STOPPED}


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("name", sorted(ALL_FAULTS))
def test_expectation_runs_name_the_same_action(name, exact):
    """`run_expected` raises the text `run` raises, counting actions from the ledger."""
    actions, message = ALL_FAULTS[name]
    alg = scripted_alg(actions)
    inst = Instance.from_pairs([(2, 1), (2, 1)])
    with pytest.raises(ProtocolError) as run_err:
        run(alg.generator(), StaticSource(inst), 2, inst.uppers())
    with pytest.raises(ProtocolError) as expected_err:
        run_expected(alg, StaticSource(inst), 2, inst.uppers(), exact=exact)
    assert str(expected_err.value) == str(run_err.value) == message


class TestStaticSource:
    @pytest.mark.parametrize("exact", [False, True])
    def test_answers_with_the_instance_times(self, exact):
        # begin hands the run the instance's own two columns, so every time keeps its type
        inst = gen_random(9, seed="src", exact=exact)
        uppers, times = StaticSource(inst).begin(inst.n, inst.uppers())
        assert uppers is inst.uppers() and times is inst.procs()

    def test_begin_checks_the_view(self):
        inst = Instance.from_pairs([(2, 1), (3, 1)])
        src = StaticSource(inst)
        # an equal view that is not the instance's own tuple: the run uses the instance's
        for view in ([2.0, 3], inst.uppers()):
            uppers, times = src.begin(2, view)
            assert uppers is inst.uppers() and times is inst.procs()
        with pytest.raises(ProtocolError, match="^source holds 2 jobs, run asked for 3$"):
            src.begin(3, (2, 3, 3))
        with pytest.raises(ProtocolError, match="^view's upper limits differ from the source instance's$"):
            src.begin(2, (3, 2))

    @pytest.mark.parametrize("exact", [False, True])
    def test_one_source_serves_many_trials(self, exact):
        # the shared source's trials are the runs of a fresh source each
        inst = gen_random(25, seed="reuse", exact=exact)
        alg = parse_algorithm("random", exact=exact)
        shared = run_expected(alg, StaticSource(inst), inst.n, inst.uppers(), trials=20, seed="r")
        fresh = [run(alg.generator(trial_seed("r", i)), StaticSource(inst), inst.n, inst.uppers()).total
                 for i in range(20)]
        assert (shared.trials, shared.total) == (20, sum(fresh) / 20)


def test_a_source_may_answer_with_any_callables():
    inst = gen_random(20, seed="duck")

    class Lookup:  # holds no times and commits through an attribute, not a method
        def __init__(self):
            self.commit = lambda job, via_test: inst.procs()[job]

        def begin(self, n, uppers):
            return uppers, None

    class Column:  # duck-typed, holding its times in a list
        def begin(self, n, uppers):
            return uppers, list(inst.procs())

    alg = parse_algorithm("random")
    static = run_expected(alg, StaticSource(inst), inst.n, inst.uppers(), trials=5, seed="d")
    static_trace = run(parse_algorithm("threshold").generator(), StaticSource(inst), inst.n, inst.uppers())
    for make in (Lookup, Column):
        assert run_expected(alg, make(), inst.n, inst.uppers(), trials=5, seed="d") == static
        assert run(parse_algorithm("threshold").generator(), make(), inst.n, inst.uppers()) == static_trace


class TestAdaptiveSource:
    def test_commit_happens_once(self):
        calls = []

        def rule(job, via_test, rank, upper):
            calls.append((job, via_test, rank))
            return upper

        src = AdaptiveSource(rule)

        def alg(view):
            yield TEST, 0
            yield EXEC_TESTED, 0

        tr = run(alg, src, 1, (2,))
        assert calls == [(0, True, 1)]
        assert tr.total == 3  # test + the committed full limit

    def test_single_use(self):
        src = det_lb_adversary(4, 0.5, 2.0)
        run(parse_algorithm("threshold").generator(), src, 4, [2.0] * 4)
        with pytest.raises(ProtocolError, match="already used"):
            run(parse_algorithm("threshold").generator(), src, 4, [2.0] * 4)

    def test_realized_instance_only_after_full_run(self):
        src = det_lb_adversary(2, 0.5, 2.0)
        with pytest.raises(ProtocolError):
            src.realized_instance()
        run(parse_algorithm("threshold").generator(), src, 2, [2.0] * 2)
        inst = src.realized_instance()
        assert inst.n == 2
        # first touch was a test within budget, so it came out long
        assert inst.jobs[0].proc == 2.0

    def test_rule_cannot_exceed_limit(self):
        src = AdaptiveSource(lambda job, via_test, rank, upper: upper + 1)

        def alg(view):
            yield TEST, 0
            yield EXEC_TESTED, 0

        with pytest.raises(ProtocolError, match="outside"):
            run(alg, src, 1, (2,))

    @pytest.mark.parametrize("via_test", [True, False])
    def test_rule_cannot_fix_a_nan(self, via_test):
        # a NaN is neither below 0 nor above the limit, yet not in [0, upper]; let
        # through, it makes the total NaN and leaves the deferred tail unordered
        src = AdaptiveSource(lambda job, via_test, rank, upper: math.nan)
        gen_fn = threshold_generator if via_test else parse_algorithm("ute[rho=4]").generator()
        with pytest.raises(ProtocolError) as err:
            run(gen_fn, src, 2, [3.0, 3.0])
        assert str(err.value) == "adversary fixed p=nan outside [0, 3.0] for job 0"

    @pytest.mark.parametrize("answer", [True, "1"], ids=["bool", "str"])
    def test_rule_must_answer_a_number(self, answer):
        # a bool would be committed as a time and written to a trace as a JSON true
        src = AdaptiveSource(lambda job, via_test, rank, upper: answer)
        with pytest.raises(ProtocolError) as err:
            run(threshold_generator, src, 2, [3.0, 3.0])
        assert str(err.value) == f"adversary fixed p={answer} outside [0, 3.0] for job 0"


class TestRunExpected:
    def test_deterministic_single_trial(self):
        inst = Instance.from_pairs([(2, 0), (2, 0)])
        res = run_expected(parse_algorithm("delay_all"), StaticSource(inst), 2, inst.uppers())
        assert res.total == 4
        assert res.trials == 1
        assert res.total_stderr == 0

    def test_randomized_needs_seed(self):
        inst = Instance.from_pairs([(2, 0), (2, 0)])
        with pytest.raises(ProtocolError, match="seed"):
            run_expected(parse_algorithm("random"), StaticSource(inst), 2, inst.uppers())

    @pytest.mark.parametrize("trials", [0, -3])
    def test_monte_carlo_needs_a_trial(self, trials):
        inst = Instance.from_pairs([(2, 0), (2, 0)])
        with pytest.raises(ProtocolError, match=f"^Monte Carlo needs trials >= 1, got {trials}$"):
            run_expected(parse_algorithm("random"), StaticSource(inst), 2, inst.uppers(),
                         trials=trials, seed="s")

    def test_seeded_runs_reproduce(self):
        inst = gen_random(20, seed="mc")
        alg = parse_algorithm("random")
        a = run_expected(alg, StaticSource(inst), inst.n, inst.uppers(), trials=40, seed="s1")
        b = run_expected(alg, StaticSource(inst), inst.n, inst.uppers(), trials=40, seed="s1")
        c = run_expected(alg, StaticSource(inst), inst.n, inst.uppers(), trials=40, seed="s2")
        assert a.total == b.total
        assert a.total != c.total

    def test_trial_seed_shape(self):
        assert trial_seed("master", 3) == "master:3"

    def test_exact_outcomes_weighted(self):
        # random order over 3 tested jobs: 6 permutations, Fraction weights
        inst = Instance.from_pairs([(Fraction(2), Fraction(2))] * 3)
        alg = parse_algorithm("random[T=1.7453,E=2.8609]", exact=True)
        res = run_expected(alg, StaticSource(inst), 3, inst.uppers(), exact=True)
        assert res.exact
        assert res.trials == 6
        # 2 <= E, so each job runs right after its test: completions 3, 6, 9
        assert res.total == Fraction(3 + 6 + 9)

    @pytest.mark.parametrize("rule", ["random", "makespan_rand"])
    @pytest.mark.parametrize("exact", [False, True])
    def test_exact_past_eight_jobs_is_the_hook(self, rule, exact):
        # no size gate: 9 jobs give 9! orders or 2^9 coin outcomes, from the closed form
        inst = gen_random(9, seed="nine", exact=exact)
        alg = parse_algorithm(rule, exact=exact)
        res = run_expected(alg, StaticSource(inst), inst.n, inst.uppers(), exact=True)
        want = alg.expected_cost(inst.uppers(), inst.procs())
        assert typed((res.total, res.makespan, res.trials)) == typed(want)
        assert res.exact and (res.total_stderr, res.makespan_stderr) == (0.0, 0.0)

    @pytest.mark.parametrize("n", [9, 50])
    @pytest.mark.parametrize("common", [False, True])
    @pytest.mark.parametrize("kind", ["float", "fraction", "int"])
    def test_deterministic_exact_is_its_one_run(self, n, common, kind):
        # in either mode the run's own numbers, an int sum too, with no seed and whatever the
        # trials; a common limit lets the rules that need one accept the instance
        inst = gen_random(n, seed=f"det:{n}", exact=kind == "fraction")
        if kind == "int":
            inst = Instance(map(math.ceil, inst.uppers()), map(math.floor, inst.procs()))
        if common:
            inst = Instance([inst.uppers()[0]] * n, [min(p, inst.uppers()[0]) for p in inst.procs()])
        accepted = 0
        for name in SUM_ALGORITHM_NAMES:
            alg = parse_algorithm(name, exact=kind != "float")
            if alg.randomized:
                continue
            try:
                tr = run(alg.generator(), StaticSource(inst), n, inst.uppers())
            except ConfigurationError:
                continue
            for exact in (True, False):
                res = run_expected(alg, StaticSource(inst), n, inst.uppers(), trials=7, exact=exact)
                assert typed((res.total, res.makespan)) == typed((tr.total, tr.makespan))
                assert (res.trials, res.exact, res.total_stderr, res.makespan_stderr) == (1, True, 0.0, 0.0)
            accepted += 1
        assert accepted == (5 if common else 2)

    def test_exact_expected_makespan_single_job(self):
        inst = Instance.from_pairs([(Fraction(2), Fraction(0))])
        res = run_expected(parse_algorithm("makespan_rand", exact=True), StaticSource(inst), 1,
                           inst.uppers(), exact=True)
        # test w.p. 2/3 costs 1, otherwise the full limit 2
        assert res.makespan == Fraction(4, 3)


# A float instance and a Fraction one; each randomized rule runs in the instance's own mode.
PIN_INSTANCES = {
    "float": gen_random(30, seed="pin"),
    "fraction": Instance([Fraction(k % 7 + 3, 2) for k in range(12)], [Fraction(k % 4, 3) for k in range(12)]),
}


class TestExpectationMatchesRuns:
    """Each expectation equals the one computed from `run` traces of the same generators."""

    @pytest.mark.parametrize("rule", ["random", "makespan_rand"])
    @pytest.mark.parametrize("kind", sorted(PIN_INSTANCES))
    def test_one_trial_is_one_run(self, rule, kind):
        inst = PIN_INSTANCES[kind]
        alg = parse_algorithm(rule, exact=kind == "fraction")
        for seed in ["a", 1, 7, "918"]:
            res = run_expected(alg, StaticSource(inst), inst.n, inst.uppers(), trials=1, seed=seed)
            tr = run(alg.generator(trial_seed(seed, 0)), StaticSource(inst), inst.n, inst.uppers())
            assert (res.total, res.makespan) == (tr.total, tr.makespan)
            assert (type(res.total), type(res.makespan)) == (type(tr.total), type(tr.makespan))

    @pytest.mark.parametrize("rule", ["random", "makespan_rand"])
    @pytest.mark.parametrize("kind", sorted(PIN_INSTANCES))
    def test_mean_of_runs(self, rule, kind):
        inst = PIN_INSTANCES[kind]
        alg = parse_algorithm(rule, exact=kind == "fraction")
        res = run_expected(alg, StaticSource(inst), inst.n, inst.uppers(), trials=15, seed="k")
        traces = [run(alg.generator(trial_seed("k", i)), StaticSource(inst), inst.n, inst.uppers())
                  for i in range(15)]
        totals = [tr.total for tr in traces]
        spans = [tr.makespan for tr in traces]
        assert res.trials == 15
        assert res.total == sum(totals) / 15
        assert res.makespan == sum(spans) / 15
        assert (res.total_stderr, res.makespan_stderr) == (_stderr(totals), _stderr(spans))

    @pytest.mark.parametrize("rule", ["random", "makespan_rand"])
    def test_exact_is_the_weighted_sum_of_runs(self, rule):
        inst = Instance([Fraction(k + 3, 2) for k in range(5)], [Fraction(k % 3, 2) for k in range(5)])
        alg = parse_algorithm(rule, exact=True)
        res = run_expected(alg, StaticSource(inst), inst.n, inst.uppers(), exact=True)
        total = makespan = 0
        for weight, gen_fn in exact_outcomes(alg, inst.n, inst.uppers()):
            tr = run(gen_fn, StaticSource(inst), inst.n, inst.uppers())
            total += weight * tr.total
            makespan += weight * tr.makespan
        assert type(res.total) is type(res.makespan) is Fraction
        assert (res.total, res.makespan) == (total, makespan)

    def test_stderr_keeps_the_float_formula(self):
        xs = [3.25, 7.0, 1.5, 11.125, 4.0]
        m = sum(xs) / 5
        assert _stderr(xs) == math.sqrt(sum((x - m) ** 2 for x in xs) / 4 / 5)

    @pytest.mark.parametrize("xs, want", [
        # a square overflows
        ([2.0 ** 665, 2.0 ** 665 + 2.0 ** 620, 2.0 ** 665 - 2.0 ** 620], 2.0 ** 620 / math.sqrt(3)),
        ([0.0, 2.6e154, 0.0, 2.6e154], 1.3e154 / math.sqrt(3)),  # the squares are finite, their sum is not
        ([10**400, 10**400 + 2], 1.0),  # no value is a float
        ([Fraction(10**400, 3), Fraction(10**400, 3) + 2, Fraction(10**400, 3) + 4], 2 / math.sqrt(3)),
    ], ids=["square", "sum_of_squares", "int", "fraction"])
    def test_stderr_past_a_float_takes_the_exact_deviations(self, xs, want):
        assert _stderr(xs) == pytest.approx(want, rel=1e-15)

    def test_stderr_past_a_float_itself_is_infinite(self):
        assert _stderr([0, 10**400]) == math.inf
        assert _stderr([-10**400, Fraction(1, 3), 10**400]) == math.inf


# An adaptive source refuses a view as an instance with those limits and zero times refuses it
NOT_FINITE = "upper is not a finite number"
PAST_A_FLOAT = "upper is past a float's range, in an instance with floats"
BAD_VIEWS = {
    "negative limit": (2, (2, -1), "bad view: job 1: negative upper limit -1"),
    "infinite limit": (2, (2, math.inf), f"bad view: job 1: {NOT_FINITE}"),
    "length mismatch": (3, (2, 2), "bad view: n=3 with 2 upper limits"),
    "no jobs": (0, (), "bad view: instance must contain at least one job"),
    "str limit": (2, (2, "2"), f"bad view: job 1: {NOT_FINITE}"),
    "None limit": (2, (None, 2), f"bad view: job 0: {NOT_FINITE}"),
    # float() rounds these down to the largest float, yet `Instance` refuses them beside a float
    "int past a float": (2, (2.0, int(sys.float_info.max) + 1), f"bad view: job 1: {PAST_A_FLOAT}"),
    "fraction past a float": (2, (Fraction(sys.float_info.max) + Fraction(1, 3), 2.0),
                              f"bad view: job 0: {PAST_A_FLOAT}"),
}


def adaptive_at_limit():
    """A fresh adaptive source that commits every job at its limit."""
    return AdaptiveSource(lambda job, via_test, rank, upper: upper)


def on_adaptive(mode, n, view):
    """The total of the deterministic threshold rule on a fresh adaptive source: one `run`,
    or `run_expected` without ("mc") or with ("exact") `exact`, which is that one run."""
    alg = parse_algorithm("threshold")
    if mode == "run":
        return run(alg.generator(), adaptive_at_limit(), n, view).total
    return run_expected(alg, adaptive_at_limit(), n, view, exact=mode == "exact").total


def total_of(mode, source, n, view):
    alg = parse_algorithm("random")
    if mode == "run":
        return run(alg.generator("s"), source, n, view).total
    return run_expected(alg, source, n, view, trials=3, seed="s", exact=mode == "exact").total


@pytest.mark.parametrize("mode", ["run", "mc", "exact"])
@pytest.mark.parametrize("name", sorted(BAD_VIEWS))
def test_bad_view_rejected(mode, name):
    """An adaptive source checks its view in `begin`, by the instance rule."""
    n, uppers, message = BAD_VIEWS[name]
    with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
        on_adaptive(mode, n, uppers)


@pytest.mark.parametrize("mode", ["run", "mc", "exact"])
@pytest.mark.parametrize("name", sorted(BAD_VIEWS))
def test_bad_view_beside_a_static_source(mode, name):
    """A static source refuses each bad view in `begin`, with its own message."""
    n, uppers, _ = BAD_VIEWS[name]
    message = "view's upper limits differ from the source instance's"
    if n != 2:
        message = f"source holds 2 jobs, run asked for {n}"
    with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
        total_of(mode, StaticSource(Instance.from_pairs([(2, 1), (2, 1)])), n, uppers)


# (view, message or None if accepted): a NaN or a bad limit is named at the first job that
# has one, wherever it sits.
ODD_VIEWS = {
    "nan first": ((math.nan, 2.0, 2.0), f"bad view: job 0: {NOT_FINITE}"),
    "nan middle": ((2.0, math.nan, 2.0), f"bad view: job 1: {NOT_FINITE}"),
    "nan last": ((2.0, 2.0, math.nan), f"bad view: job 2: {NOT_FINITE}"),
    "nan then negative": ((2.0, math.nan, -1.0), f"bad view: job 1: {NOT_FINITE}"),
    "negative then nan": ((2.0, -1.0, math.nan), "bad view: job 1: negative upper limit -1.0"),
    "inf middle": ((2.0, math.inf, 2.0), f"bad view: job 1: {NOT_FINITE}"),
    "minus inf first": ((-math.inf, 2.0, 2.0), f"bad view: job 0: {NOT_FINITE}"),
    "nan among ints": ((2, math.nan, 2), f"bad view: job 1: {NOT_FINITE}"),
    "negative fraction": ((2, Fraction(-1, 2), 2), "bad view: job 1: negative upper limit -1/2"),
    "minus zero": ((-0.0, 2.0, 2.0), None),
    "minus zero among ints": ((2, -0.0, 2), None),
    "fraction and int": ((Fraction(5, 2), 2, 3), None),
    "bool": ((2, True, 2.5), f"bad view: job 1: {NOT_FINITE}"),
}


@pytest.mark.parametrize("mode", ["run", "mc"])
@pytest.mark.parametrize("name", sorted(ODD_VIEWS))
def test_view_check_keeps_its_verdict(mode, name):
    view, message = ODD_VIEWS[name]
    if message is not None:
        with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
            on_adaptive(mode, 3, view)
    else:  # accepted: jobs committed at their limits cost what the same limits as floats cost
        inst = Instance.from_pairs([(float(u), float(u)) for u in view])
        static = run(parse_algorithm("threshold").generator(), StaticSource(inst), 3, inst.uppers())
        assert on_adaptive(mode, 3, list(view)) == static.total


def test_view_with_an_int_beyond_float_range():
    # the clock would add such a limit to a float and overflow, so the view is refused by job;
    # without a float in the view the limits stay exact and pass
    with pytest.raises(ProtocolError, match=f"^bad view: job 0: {re.escape(PAST_A_FLOAT)}$"):
        adaptive_at_limit().begin(2, [10**400, 2.5])
    with pytest.raises(ProtocolError, match=f"^bad view: job 1: {re.escape(PAST_A_FLOAT)}$"):
        run(delay_all_generator, AdaptiveSource(lambda j, v, r, u: u), 3,
            [Fraction(1, 3), Fraction(10**400), 2.5])
    assert adaptive_at_limit().begin(2, [10**400, Fraction(5, 2)]) == ((10**400, Fraction(5, 2)), None)


# Limits the one rule accepts or refuses: every number type, sign, float edge and non-number
LIMITS = [0, 2, 2.5, -1, -0.0, 10**400, math.nan, math.inf, -math.inf, sys.float_info.max,
          Fraction(5, 2), Fraction(-1, 2), Fraction(sys.float_info.max) + Fraction(1, 3), True, None, "2"]


def first_refused(view):
    """The reference rule: the index of the first limit that is not a finite int, float or
    Fraction (a bool is none), not >= 0 or, beside a float, past a float's range; else None."""
    floats = any(type(u) is float for u in view)
    for j, u in enumerate(view):
        if not (type(u) in (int, float, Fraction) and (type(u) is not float or math.isfinite(u))
                and u >= 0 and not (floats and u > sys.float_info.max)):
            return j
    return None


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(st.lists(st.sampled_from(LIMITS), min_size=1, max_size=6))
def test_a_view_is_refused_exactly_when_an_instance_refuses_its_limits(view):
    bad = first_refused(view)
    zeros = (0,) * len(view)
    if bad is None:
        assert Instance(view, zeros).uppers() == tuple(view)
        limits, times = adaptive_at_limit().begin(len(view), view)
        assert typed(limits) == typed(view) and times is None
        return
    with pytest.raises(InstanceError, match=f"^job {bad}: "):
        Instance(view, zeros)
    with pytest.raises(ProtocolError, match=f"^bad view: job {bad}: "):
        adaptive_at_limit().begin(len(view), view)


def test_exact_short_view_is_a_protocol_error():
    # makespan_rand's outcomes index the limits by job, so the view is checked before them
    inst = Instance.from_pairs([(2, 1), (2, 1)])
    with pytest.raises(ProtocolError, match="^source holds 2 jobs, run asked for 3$"):
        run_expected(parse_algorithm("makespan_rand"), StaticSource(inst), 3, (2, 2), exact=True)


class CountingSource(StaticSource):
    def __init__(self, inst):
        super().__init__(inst)
        self.begins = 0

    def begin(self, n, uppers):
        self.begins += 1
        return super().begin(n, uppers)


@pytest.mark.parametrize("exact, runs", [(False, 5), (True, 1)])
def test_source_begins_every_run(exact, runs):
    # an exact expectation on a subclass is a deterministic rule's one run
    inst = Instance.from_pairs([(2, 1), (2, 1)])
    src = CountingSource(inst)
    alg = parse_algorithm("threshold" if exact else "random")
    run_expected(alg, src, 2, inst.uppers(), trials=5, seed="s", exact=exact)
    assert src.begins == runs
    # a valid view with other limits than the source's own fails in begin
    with pytest.raises(ProtocolError, match="upper limits differ"):
        run_expected(alg, src, 2, (3, 3), trials=5, seed="s", exact=exact)


@pytest.mark.parametrize("case", ["int", "float view", "float", "subclass"])
def test_closed_form_runs_on_the_columns_of_one_begin(monkeypatch, case):
    # the hook runs once, on the two columns one begin returns, whatever their numbers; a
    # subclass that keeps `begin` holds the same columns and gets the same closed form
    begun, hooked = [], []
    begin = StaticSource.begin
    monkeypatch.setattr(StaticSource, "begin", lambda self, n, uppers: begun.append(n) or begin(self, n, uppers))
    pairs = [(2, 1), (3, 3), (Fraction(5, 2), 0)]
    inst = Instance.from_pairs([(float(u), float(p)) for u, p in pairs] if case == "float" else pairs)
    view = [float(u) for u in inst.uppers()] if case == "float view" else inst.uppers()
    source = CountingSource(inst) if case == "subclass" else StaticSource(inst)
    alg = parse_algorithm("random")
    spied = dataclasses.replace(alg, expected_cost=lambda *columns: hooked.append(columns)
                                or alg.expected_cost(*columns))
    res = run_expected(spied, source, 3, view, exact=True)
    assert (len(begun), res.trials, res.exact) == (1, 6, True)
    assert len(hooked) == 1 and hooked[0][0] is inst.uppers() and hooked[0][1] is inst.procs()
    exact_inst = Instance.from_pairs(pairs)
    want, _, _ = alg.expected_cost(exact_inst.uppers(), exact_inst.procs())
    # a float view equal to the instance's column runs on that column: only float times make floats
    assert type(res.total) is (float if case == "float" else Fraction)
    assert res.total == want if case != "float" else math.isclose(res.total, want)


def view_check_calls(monkeypatch):
    """Spy on `core.validate_instance`, which checks an adaptive source's view: the list of n
    of the instances it checked."""
    calls = []
    check = core.validate_instance

    def spy(inst):
        calls.append(inst.n)
        return check(inst)

    monkeypatch.setattr(core, "validate_instance", spy)
    return calls


VIEW_INSTANCE = Instance.from_pairs([(2, 1), (3, 3), (Fraction(5, 2), 0)])


@pytest.mark.parametrize("mode", ["run", "mc", "exact"])
def test_an_instance_column_on_its_static_source_is_not_checked_again(monkeypatch, mode):
    # the instance checked its column when it was built; beside it a copy is only compared
    calls = view_check_calls(monkeypatch)
    own = total_of(mode, StaticSource(VIEW_INSTANCE), 3, VIEW_INSTANCE.uppers())
    assert own == total_of(mode, StaticSource(VIEW_INSTANCE), 3, list(VIEW_INSTANCE.uppers()))
    assert calls == []


@pytest.mark.parametrize("mode", ["run", "mc", "exact"])
def test_an_adaptive_source_walks_its_view_once_per_run(monkeypatch, mode):
    calls = view_check_calls(monkeypatch)
    for runs in (1, 2, 3):
        on_adaptive(mode, 3, VIEW_INSTANCE.uppers())
        assert calls == [3] * runs


def other_view(case):
    """(a fresh source, a view) where the view is not a StaticSource's own instance column."""
    own = VIEW_INSTANCE.uppers()
    if case == "list copy":
        return StaticSource(VIEW_INSTANCE), list(own)
    if case == "tuple copy":
        return StaticSource(VIEW_INSTANCE), tuple([*own])
    if case == "subclass":
        return CountingSource(VIEW_INSTANCE), own
    return adaptive_at_limit(), own


@pytest.mark.parametrize("mode, case", [
    (mode, case) for mode in ("run", "mc", "exact")
    for case in ("list copy", "tuple copy", "adaptive", "subclass") if (mode, case) != ("mc", "adaptive")])
def test_every_other_view_is_checked(monkeypatch, mode, case):
    # by its source's begin: an adaptive source checks it, a static one compares it with its
    # column; a randomized exact expectation then refuses the adaptive source, which holds no times
    calls = view_check_calls(monkeypatch)
    source, view = other_view(case)
    if mode == "exact" and case == "adaptive":
        with pytest.raises(ProtocolError, match="this source holds none$"):
            total_of(mode, source, 3, view)
        assert calls == [3]
        return
    total_of(mode, source, 3, view)
    assert calls == ([3] if case == "adaptive" else [])
    source, view = other_view(case)
    message = "bad view: job 2: negative upper limit -1" if case == "adaptive" else "view's upper limits differ"
    with pytest.raises(ProtocolError, match=f"^{message}"):
        total_of(mode, source, 3, [*view[:2], -1])


@pytest.mark.parametrize("mode", ["run", "mc", "exact"])
def test_a_list_copy_reaches_the_rule_as_the_instance_column(monkeypatch, mode):
    # so random's split memo, which serves only the tuple it holds, serves every run on it
    splits = []
    split = algorithms._split
    monkeypatch.setattr(algorithms, "_split", lambda uppers, T: splits.append(uppers) or split(uppers, T))
    alg = parse_algorithm("random")
    for _ in range(2):
        view = list(VIEW_INSTANCE.uppers())
        if mode == "run":
            run(alg.generator("s"), StaticSource(VIEW_INSTANCE), 3, view)
        else:
            run_expected(alg, StaticSource(VIEW_INSTANCE), 3, view, trials=3, seed="s", exact=mode == "exact")
    assert len(splits) == 1 and splits[0] is VIEW_INSTANCE.uppers()


@pytest.mark.parametrize("mode", ["run", "mc", "exact"])
def test_an_equal_view_holding_a_bool_runs_on_the_instance_column(mode):
    # begin hands the run the instance's (1, 3.0), so no bool reaches a step or a sum
    inst = Instance.from_pairs([(1, 0), (3.0, 1)])
    view = [True, 3.0]
    assert tuple(view) == inst.uppers()
    alg = parse_algorithm("random")
    if mode == "run":
        seen = []
        trace = run(lambda v: seen.append(v[1]) or alg.generator("s")(v), StaticSource(inst), 2, view)
        assert seen == [inst.uppers()] and seen[0] is inst.uppers()
        assert not any(type(x) is bool for step in trace.steps for x in step[2:])
        assert trace == run(alg.generator("s"), StaticSource(inst), 2, inst.uppers())
        return
    res = run_expected(alg, StaticSource(inst), 2, view, trials=3, seed="s", exact=mode == "exact")
    want = run_expected(alg, StaticSource(inst), 2, inst.uppers(), trials=3, seed="s", exact=mode == "exact")
    assert typed((res.total, res.makespan)) == typed((want.total, want.makespan))


@pytest.mark.parametrize("mode", ["run", "mc", "exact"])
@pytest.mark.parametrize("n", [0, 2, 4])
def test_an_instance_column_with_a_wrong_n_is_a_bad_view(mode, n):
    with pytest.raises(ProtocolError, match=f"^source holds 3 jobs, run asked for {n}$"):
        total_of(mode, StaticSource(VIEW_INSTANCE), n, VIEW_INSTANCE.uppers())


# A static source's times are read by index; every source whose `begin` returns no times
# is asked through its `commit` on each test and each untested run, as a plain loop asks it.


def reference_steps(gen_fn, source, n, uppers):
    """The steps of a plain protocol loop on the columns `source.begin` returns, asking
    `source.commit` on every test and untested run when it returns no times."""
    uppers, times = source.begin(n, uppers)
    gen = gen_fn((n, uppers))
    steps, revealed, t, answer = [], {}, 0, None
    for kind, job in iter(lambda: gen.send(answer), None):
        answer = None
        if kind == TEST:
            answer = revealed[job] = source.commit(job, True) if times is None else times[job]
            dur = 1
        elif kind == EXEC_UNTESTED:
            if times is None:
                source.commit(job, False)
            dur = uppers[job]
        else:
            dur = revealed[job]
        steps.append((kind, job, t, dur))
        t = t + dur
    return steps


# limits 1.5 and 0.5 are below the random rule's T: each run has two untested jobs and three tests
ASKED = Instance.from_pairs([(1.5, 1), (0.5, 0.5), (3, 2.9), (2, 0), (2.5, 2.5)])


def logged_source(case):
    """(a maker of fresh sources that hold no times and commit ASKED's, the list of
    (kind, job) their `commit` is called for)."""
    calls = []
    procs = ASKED.procs()

    def log(job, via_test):
        calls.append((TEST if via_test else EXEC_UNTESTED, job))
        return procs[job]

    class Withholding(StaticSource):  # holds the instance, yet its begin returns no times
        def begin(self, n, uppers):
            return super().begin(n, uppers)[0], None

        def commit(self, job, via_test):
            return log(job, via_test)

    class Lookup:  # duck-typed
        commit = staticmethod(log)

        def begin(self, n, uppers):
            return uppers, None

    def adaptive():  # each job is touched once, so its rule runs on every ask
        return AdaptiveSource(lambda job, via_test, rank, upper: log(job, via_test))

    return {"subclass": lambda: Withholding(ASKED), "lookup": Lookup, "adaptive": adaptive}[case], calls


def results(alg, make, mode):
    """What `run` (mode "run"), Monte Carlo ("mc", 7 trials) or an exact expectation
    ("exact") gives for `alg` on a source from `make()` over ASKED's view."""
    if mode == "run":
        return run(alg.generator("s"), make(), ASKED.n, ASKED.uppers())
    return run_expected(alg, make(), ASKED.n, ASKED.uppers(), trials=7, seed="s", exact=mode == "exact")


@pytest.mark.parametrize("case, mode", [
    (case, mode) for case in ("subclass", "lookup", "adaptive") for mode in ("run", "mc", "exact")
    if (case, mode) != ("adaptive", "mc")])  # an adaptive source is single-use
def test_every_other_source_is_asked_on_every_test_and_untested_run(case, mode):
    # an exact expectation asks a source only as a deterministic rule's one run; threshold
    # also runs the limits below 2 blind and tests the other three
    alg = parse_algorithm("threshold" if mode == "exact" else "random")
    n, view = ASKED.n, ASKED.uppers()
    make, calls = logged_source(case)
    assert results(alg, make, mode) == results(alg, lambda: StaticSource(ASKED), mode)
    if mode == "run":
        gen_fns = [alg.generator("s")]
    elif mode == "mc":
        gen_fns = [alg.generator(trial_seed("s", i)) for i in range(7)]
    else:
        gen_fns = [alg.generator()]
    assert len(gen_fns) == {"run": 1, "mc": 7, "exact": 1}[mode]
    want = [(kind, job) for gen_fn in gen_fns
            for kind, job, _, _ in reference_steps(gen_fn, StaticSource(ASKED), n, view) if kind != EXEC_TESTED]
    assert calls == want
    assert (calls.count((TEST, 2)), sum(kind == TEST for kind, _ in calls),
            sum(kind == EXEC_UNTESTED for kind, _ in calls)) == (len(gen_fns), 3 * len(gen_fns), 2 * len(gen_fns))


@pytest.mark.parametrize("rule", ["random", "makespan_rand"])
@pytest.mark.parametrize("case", ["subclass", "lookup", "adaptive"])
def test_a_closed_form_needs_the_times_up_front(rule, case):
    # whatever the source's type, a begin that returns no times is refused before any commit
    make, calls = logged_source(case)
    with pytest.raises(ProtocolError, match=f"^an exact expectation of {rule} reads every time up front,"
                                            " and this source holds none$"):
        run_expected(parse_algorithm(rule), make(), ASKED.n, ASKED.uppers(), exact=True)
    assert calls == []


def test_an_exact_expectation_of_a_randomized_rule_without_a_hook_is_refused(monkeypatch):
    # refused before the source is asked anything, even a StaticSource, which holds the times
    calls = []
    monkeypatch.setattr(StaticSource, "begin", lambda self, *args: calls.append(args))
    inst = Instance.from_pairs([(2, 1)])
    alg = OnlineAlgorithm("x", "x", lambda seed: None, randomized=True)
    for source in (StaticSource(inst), CountingSource(inst), adaptive_at_limit()):
        with pytest.raises(ProtocolError, match="^an exact expectation of x needs its expected_cost hook,"
                                                " and this randomized rule has none$"):
            run_expected(alg, source, 1, inst.uppers(), exact=True)
    assert calls == []


def test_a_plain_static_source_is_read_by_index(monkeypatch):
    # a static source, or a subclass that keeps its begin, is never asked after begin: in a
    # run, in Monte Carlo and in a deterministic rule's exact run
    def refuse(self, *args):
        raise AssertionError("a static source's times are read by index")

    class Asked(StaticSource):  # what a loop asking its source would call
        commit = reveal = settle_untested = refuse

    monkeypatch.setattr(StaticSource, "commit", refuse, raising=False)
    alg = parse_algorithm("random")
    trace = run(alg.generator("s"), StaticSource(ASKED), ASKED.n, ASKED.uppers())
    assert [s[:2] for s in trace.steps if s[0] != EXEC_TESTED][:2] == [(EXEC_UNTESTED, 1), (EXEC_UNTESTED, 0)]
    for mode in ("run", "mc", "exact"):
        rule = parse_algorithm("threshold") if mode == "exact" else alg
        assert results(rule, lambda: Asked(ASKED), mode) == results(rule, lambda: StaticSource(ASKED), mode)
    monkeypatch.undo()
    assert trace.steps == reference_steps(alg.generator("s"), StaticSource(ASKED), ASKED.n, ASKED.uppers())
