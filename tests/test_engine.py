"""Protocol enforcement, reveal sources, and expectation runs."""

import math
import re
import sys
from fractions import Fraction

import pytest

from testsched import algorithms, engine
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
    TraceError,
    build_trace,
    cost_of_trace,
)
from testsched.engine import (
    AdaptiveSource,
    ProtocolError,
    StaticSource,
    _check_view,
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
        inst = gen_random(9, seed="src", exact=exact)
        src = StaticSource(inst)
        src.begin(inst.n, inst.uppers())
        assert [src.reveal(j) for j in range(inst.n)] == list(inst.procs())
        assert [src.settle_untested(j) for j in range(inst.n)] == list(inst.procs())
        assert all(type(src.reveal(j)) is type(p) for j, p in enumerate(inst.procs()))
        assert src.realized_instance() is inst

    def test_begin_checks_the_view(self):
        inst = Instance.from_pairs([(2, 1), (3, 1)])
        src = StaticSource(inst)
        # an equal view that is not the instance's own tuple: the run uses the instance's
        assert src.begin(2, [2.0, 3]) is inst.uppers()
        assert src.begin(2, inst.uppers()) is inst.uppers()
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

    class Lookup:  # answers through a list's C-level __getitem__
        def __init__(self):
            self.reveal = self.settle_untested = list(inst.procs()).__getitem__

        def begin(self, n, uppers):
            return uppers

    alg = parse_algorithm("random")
    looked_up = run_expected(alg, Lookup(), inst.n, inst.uppers(), trials=5, seed="d")
    assert looked_up == run_expected(alg, StaticSource(inst), inst.n, inst.uppers(), trials=5, seed="d")
    trace = run(parse_algorithm("threshold").generator(), Lookup(), inst.n, inst.uppers())
    assert trace == run(parse_algorithm("threshold").generator(), StaticSource(inst), inst.n, inst.uppers())


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


BAD_VIEWS = {
    "negative limit": (2, (2, -1), "job 1: upper limit -1 invalid"),
    "infinite limit": (2, (2, math.inf), "job 1: upper limit inf invalid"),
    "length mismatch": (3, (2, 2), "bad view: n=3 with 2 upper limits"),
    "str limit": (2, (2, "2"), "job 1: upper limit 2 invalid"),
    "None limit": (2, (None, 2), "job 0: upper limit None invalid"),
    # float() rounds these down to the largest float, yet `Instance` refuses them beside a float
    "int past a float": (2, (2.0, int(sys.float_info.max) + 1),
                         "job 1: upper limit past a float's range among float limits"),
    "fraction past a float": (2, (Fraction(sys.float_info.max) + Fraction(1, 3), 2.0),
                              "job 0: upper limit past a float's range among float limits"),
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
    """An adaptive source walks its view in `begin`."""
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


# (view, message or None if accepted): each must keep the per-limit walk's verdict,
# a NaN or a bad limit named at the first job that has one, wherever it sits.
ODD_VIEWS = {
    "nan first": ((math.nan, 2.0, 2.0), "job 0: upper limit nan invalid"),
    "nan middle": ((2.0, math.nan, 2.0), "job 1: upper limit nan invalid"),
    "nan last": ((2.0, 2.0, math.nan), "job 2: upper limit nan invalid"),
    "nan then negative": ((2.0, math.nan, -1.0), "job 1: upper limit nan invalid"),
    "negative then nan": ((2.0, -1.0, math.nan), "job 1: upper limit -1.0 invalid"),
    "inf middle": ((2.0, math.inf, 2.0), "job 1: upper limit inf invalid"),
    "minus inf first": ((-math.inf, 2.0, 2.0), "job 0: upper limit -inf invalid"),
    "nan among ints": ((2, math.nan, 2), "job 1: upper limit nan invalid"),
    "negative fraction": ((2, Fraction(-1, 2), 2), "job 1: upper limit -1/2 invalid"),
    "minus zero": ((-0.0, 2.0, 2.0), None),
    "minus zero among ints": ((2, -0.0, 2), None),
    "fraction and int": ((Fraction(5, 2), 2, 3), None),
    "bool": ((2, True, 2.5), "job 1: upper limit True invalid"),
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
    # the clock would add such a limit to a float and overflow, so the walk refuses it by job;
    # without a float in the view the limits stay exact and pass
    with pytest.raises(ProtocolError, match="^job 0: upper limit past a float's range among float limits$"):
        _check_view(2, [10**400, 2.5])
    with pytest.raises(ProtocolError, match="^job 1: upper limit past a float's range"):
        run(delay_all_generator, AdaptiveSource(lambda j, v, r, u: u), 3,
            [Fraction(1, 3), Fraction(10**400), 2.5])
    assert _check_view(2, [10**400, Fraction(5, 2)]) == (10**400, Fraction(5, 2))


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


@pytest.mark.parametrize("case, begins", [("int", 1), ("float view", 1), ("float", 1), ("subclass", 0)])
def test_closed_form_only_on_an_exact_static_source(monkeypatch, case, begins):
    # the hook runs once, on the column of one begin, on exactly a StaticSource, whatever its
    # numbers; a subclass, whose methods could answer otherwise, is refused before its begin
    begun = []
    begin = StaticSource.begin
    monkeypatch.setattr(StaticSource, "begin", lambda self, n, uppers: begun.append(n) or begin(self, n, uppers))
    pairs = [(2, 1), (3, 3), (Fraction(5, 2), 0)]
    inst = Instance.from_pairs([(float(u), float(p)) for u, p in pairs] if case == "float" else pairs)
    view = [float(u) for u in inst.uppers()] if case == "float view" else inst.uppers()
    if case == "subclass":
        source = CountingSource(inst)
        with pytest.raises(ProtocolError, match="^an exact expectation of random reads the instance's times,"
                                                " so it needs a plain StaticSource, not CountingSource$"):
            run_expected(parse_algorithm("random"), source, 3, view, exact=True)
        assert (len(begun), source.begins) == (begins, 0)
        return
    res = run_expected(parse_algorithm("random"), StaticSource(inst), 3, view, exact=True)
    assert (len(begun), res.trials, res.exact) == (begins, 6, True)
    exact_inst = Instance.from_pairs(pairs)
    want, _, _ = parse_algorithm("random").expected_cost(exact_inst.uppers(), exact_inst.procs())
    # a float view equal to the instance's column runs on that column: only float times make floats
    assert type(res.total) is (float if case == "float" else Fraction)
    assert res.total == want if case != "float" else math.isclose(res.total, want)


def view_check_calls(monkeypatch):
    """Spy on `engine._check_view`: the list of n it was called with."""
    calls = []
    check = engine._check_view

    def spy(n, upper_limits):
        calls.append(n)
        return check(n, upper_limits)

    monkeypatch.setattr(engine, "_check_view", spy)
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
    """(a fresh source, a view) where the view is not a plain StaticSource's own instance column."""
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
    # by its source's begin: an adaptive source walks it, a static one compares it with its
    # column; a randomized exact expectation refuses any source but a plain StaticSource first
    calls = view_check_calls(monkeypatch)
    source, view = other_view(case)
    if mode == "exact" and case in ("subclass", "adaptive"):
        with pytest.raises(ProtocolError, match="needs a plain StaticSource"):
            total_of(mode, source, 3, view)
        assert calls == []
        return
    total_of(mode, source, 3, view)
    assert calls == ([3] if case == "adaptive" else [])
    source, view = other_view(case)
    message = "job 2: upper limit -1 invalid" if case == "adaptive" else "view's upper limits differ"
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


# Only exactly a StaticSource is read by index: every other source answers each
# test and each untested run through its own callables, as a plain loop asks it.


def reference_steps(gen_fn, source, n, uppers):
    """The steps of a plain protocol loop that asks `source` on every test and untested run."""
    source.begin(n, uppers)
    gen = gen_fn((n, uppers))
    steps, revealed, t, answer = [], {}, 0, None
    for kind, job in iter(lambda: gen.send(answer), None):
        answer = None
        if kind == TEST:
            answer = revealed[job] = source.reveal(job)
            dur = 1
        elif kind == EXEC_UNTESTED:
            source.settle_untested(job)
            dur = uppers[job]
        else:
            dur = revealed[job]
        steps.append((kind, job, t, dur))
        t = t + dur
    return steps


# limits 1.5 and 0.5 are below the random rule's T: each run has two untested jobs and three tests
ASKED = Instance.from_pairs([(1.5, 1), (0.5, 0.5), (3, 2.9), (2, 0), (2.5, 2.5)])


def logged_source(case):
    """(a fresh source answering from ASKED, the list of (kind, job) it is asked for)."""
    calls = []
    procs = ASKED.procs()

    class Logging(StaticSource):
        def reveal(self, job):
            calls.append((TEST, job))
            return super().reveal(job)

        def settle_untested(self, job):
            calls.append((EXEC_UNTESTED, job))
            return super().settle_untested(job)

    class Lookup:  # duck-typed; holds a `_procs` column, but is no StaticSource
        _procs = procs

        def __init__(self):
            self.reveal = lambda job: calls.append((TEST, job)) or procs[job]
            self.settle_untested = lambda job: calls.append((EXEC_UNTESTED, job)) or procs[job]

        def begin(self, n, uppers):
            return uppers

    def adaptive():  # each job is touched once, so its rule runs on every ask
        return AdaptiveSource(lambda job, via_test, rank, upper:
                              calls.append((TEST if via_test else EXEC_UNTESTED, job)) or procs[job])

    return {"subclass": lambda: Logging(ASKED), "lookup": Lookup, "adaptive": adaptive}[case], calls


@pytest.mark.parametrize("case, mode", [
    (case, mode) for case in ("subclass", "lookup", "adaptive") for mode in ("run", "mc", "exact")
    if (case, mode) != ("adaptive", "mc")])  # an adaptive source is single-use
def test_every_other_source_is_asked_on_every_test_and_untested_run(case, mode):
    # an exact expectation asks a source only as a deterministic rule's one run; threshold
    # also runs the limits below 2 blind and tests the other three
    alg = parse_algorithm("threshold" if mode == "exact" else "random")
    n, view = ASKED.n, ASKED.uppers()
    make, calls = logged_source(case)
    source = make()

    def result(src):
        if mode == "run":
            return run(alg.generator("s"), src, n, view)
        return run_expected(alg, src, n, view, trials=7, seed="s", exact=mode == "exact")

    assert result(source) == result(StaticSource(ASKED))
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
def test_a_randomized_exact_expectation_needs_a_plain_static_source(rule, case):
    make, calls = logged_source(case)
    source = make()
    with pytest.raises(ProtocolError, match=f"^an exact expectation of {rule} reads the instance's times,"
                                            f" so it needs a plain StaticSource, not "):
        run_expected(parse_algorithm(rule), source, ASKED.n, ASKED.uppers(), exact=True)
    assert calls == []


def test_an_exact_expectation_of_a_randomized_rule_without_a_hook_is_refused(monkeypatch):
    # refused before the source is asked anything, even a plain StaticSource
    calls = []
    for method in ("begin", "reveal", "settle_untested"):
        monkeypatch.setattr(StaticSource, method, lambda self, *args, m=method: calls.append((m, args)))
    inst = Instance.from_pairs([(2, 1)])
    alg = OnlineAlgorithm("x", "x", lambda seed: None, randomized=True)
    with pytest.raises(ProtocolError, match="^an exact expectation of x needs its expected_cost hook,"
                                            " and this randomized rule has none$"):
        run_expected(alg, StaticSource(inst), 1, inst.uppers(), exact=True)
    assert calls == []


def test_a_plain_static_source_is_read_by_index(monkeypatch):
    def refuse(self, job):
        raise AssertionError("a plain StaticSource's times are read by index")

    monkeypatch.setattr(StaticSource, "reveal", refuse)
    monkeypatch.setattr(StaticSource, "settle_untested", refuse)
    alg = parse_algorithm("random")
    trace = run(alg.generator("s"), StaticSource(ASKED), ASKED.n, ASKED.uppers())
    assert [s[:2] for s in trace.steps if s[0] != EXEC_TESTED][:2] == [(EXEC_UNTESTED, 1), (EXEC_UNTESTED, 0)]
    monkeypatch.undo()
    assert trace.steps == reference_steps(alg.generator("s"), StaticSource(ASKED), ASKED.n, ASKED.uppers())
