"""Trace accounting, instance validation, and file round-trips."""

import itertools
import math
import re
from fractions import Fraction

import pytest

from testsched.core import (
    EXEC_TESTED,
    EXEC_UNTESTED,
    TEST,
    Instance,
    InstanceError,
    Job,
    TraceError,
    _check_job,
    build_trace,
    check_trace_durations,
    cost_of_trace,
    dump_instance,
    dump_trace,
    load_instance,
    load_trace,
    numbers_equal,
    validate_instance,
)


def staircase_steps(num=Fraction):
    """Hand schedule: 5 long tests, 5 short test+run pairs, 5 long runs.

    Longs have time 1, shorts time 0.  Completion times are 6..10 for the
    shorts and 11..15 for the longs, so the total is 105.
    """
    steps = []
    t = num(0)
    for j in range(5):
        steps.append((TEST, j, t, num(1)))
        t += 1
    for j in range(5, 10):
        steps.append((TEST, j, t, num(1)))
        t += 1
        steps.append((EXEC_TESTED, j, t, num(0)))
    for j in range(5):
        steps.append((EXEC_TESTED, j, t, num(1)))
        t += 1
    return steps


class TestCostOfTrace:
    def test_staircase_total_exact(self):
        tr = build_trace(10, staircase_steps(Fraction))
        assert tr.total == 105
        assert tr.makespan == 15
        assert tr.completions[5] == 6
        assert tr.completions[0] == 11

    def test_staircase_total_float(self):
        tr = build_trace(10, staircase_steps(float))
        assert math.isclose(tr.total, 105.0)
        assert math.isclose(tr.makespan, 15.0)

    def test_single_untested_job(self):
        tr = build_trace(1, [(EXEC_UNTESTED, 0, 0, 3)])
        assert tr.total == 3
        assert tr.makespan == 3

    def test_single_tested_job(self):
        tr = build_trace(1, [(TEST, 0, 0, 1), (EXEC_TESTED, 0, 1, 2)])
        assert tr.total == 3

    def test_zero_duration_execution_is_legal(self):
        tr = build_trace(1, [(TEST, 0, 0, 1), (EXEC_TESTED, 0, 1, 0)])
        assert tr.total == 1

    def test_gap_rejected(self):
        with pytest.raises(TraceError, match="action 1"):
            build_trace(2, [(EXEC_UNTESTED, 0, 0, 1), (EXEC_UNTESTED, 1, 1.5, 1)])

    def test_test_duration_must_be_one(self):
        with pytest.raises(TraceError, match="action 0"):
            build_trace(1, [(TEST, 0, 0, 2), (EXEC_TESTED, 0, 2, 1)])

    def test_double_execution_rejected(self):
        with pytest.raises(TraceError, match="action 1"):
            build_trace(1, [(EXEC_UNTESTED, 0, 0, 1), (EXEC_UNTESTED, 0, 1, 1)])

    def test_exec_tested_needs_prior_test(self):
        with pytest.raises(TraceError):
            build_trace(1, [(EXEC_TESTED, 0, 0, 1)])

    def test_untested_execution_after_test_rejected(self):
        with pytest.raises(TraceError, match="action 1"):
            build_trace(1, [(TEST, 0, 0, 1), (EXEC_UNTESTED, 0, 1, 2)])

    def test_unfinished_job_rejected(self):
        with pytest.raises(TraceError):
            build_trace(2, [(EXEC_UNTESTED, 0, 0, 1)])


class TestDurationCheck:
    def test_durations_match_instance(self):
        inst = Instance.from_pairs([(2, 1)] * 5 + [(2, 0)] * 5)
        tr = build_trace(10, staircase_steps())
        check_trace_durations(tr, inst)

    def test_wrong_exec_duration_caught(self):
        inst = Instance.from_pairs([(3, 2)])
        tr = build_trace(1, [(TEST, 0, 0, 1), (EXEC_TESTED, 0, 1, 1)])
        with pytest.raises(TraceError, match="action 1"):
            check_trace_durations(tr, inst)

    def test_untested_duration_is_the_limit(self):
        inst = Instance.from_pairs([(3, 2)])
        tr = build_trace(1, [(EXEC_UNTESTED, 0, 0, 3)])
        check_trace_durations(tr, inst)
        bad = build_trace(1, [(EXEC_UNTESTED, 0, 0, 2)])
        with pytest.raises(TraceError):
            check_trace_durations(bad, inst)


class TestValidateInstance:
    def test_good_instance(self):
        validate_instance(Instance.from_pairs([(2, 1), (Fraction(3, 2), Fraction(1, 2))]))

    def test_empty_rejected(self):
        with pytest.raises(InstanceError):
            validate_instance(Instance(()))

    def test_proc_above_upper_rejected(self):
        with pytest.raises(InstanceError):
            validate_instance(Instance.from_pairs([(2, 3)]))

    def test_negative_proc_rejected(self):
        with pytest.raises(InstanceError):
            validate_instance(Instance.from_pairs([(2, -1)]))

    def test_non_finite_rejected(self):
        with pytest.raises(InstanceError):
            validate_instance(Instance.from_pairs([(math.inf, 1)]))

    def test_ids_must_be_consecutive(self):
        with pytest.raises(InstanceError):
            validate_instance(Instance((Job(1, 2, 1),)))

    def test_jobs_frozen_as_tuple(self):
        jobs = [Job(0, 2, 1)]
        inst = Instance(jobs)
        jobs.append(Job(7, 1, 5))
        assert inst.jobs == (Job(0, 2, 1),)

    @pytest.mark.parametrize("build, message", [
        (lambda: Instance.from_pairs([(2, 3)]), "job 0: proc 3 exceeds upper limit 2"),
        (lambda: Instance(()), "instance must contain at least one job"),
        (lambda: Instance((Job(0, 2, 1), Job(2, 2, 1))),
         "job 1: id 2 out of order (ids must be 0..n-1)"),
    ], ids=["proc_above_upper", "empty", "ids_out_of_order"])
    def test_constructor_raises(self, build, message):
        # no validate_instance call: the constructor checks, with today's messages
        with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
            build()

    def test_fast_check_agrees_with_per_field_check(self):
        class Int(int):
            pass

        class Float(float):
            pass

        edges = [0, -0.0, 0.5, -1, math.nan, math.inf, -math.inf, True,
                 Fraction(1, 3), 10**400, Int(1), Float(0.25), "1", None]

        def verdict(check):
            try:
                check()
            except InstanceError as exc:
                return str(exc)
            return None

        accepted = 0
        for job_id, u, p, lo in itertools.product((0, 1), edges, edges, edges):
            job = Job(job_id, u, p, lo)
            want = verdict(lambda: _check_job(0, job))
            assert verdict(lambda: Instance((job,))) == want, (job_id, u, p, lo)
            accepted += want is None
        assert accepted > 0  # the table reaches both verdicts


class TestNumbersEqual:
    def test_rational_exact(self):
        assert numbers_equal(Fraction(1, 3), Fraction(2, 6))
        assert not numbers_equal(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**12))

    def test_float_tolerance(self):
        assert numbers_equal(0.1 + 0.2, 0.3)
        assert not numbers_equal(0.3, 0.3001)


class TestRoundTrips:
    def test_instance_file_float(self, tmp_path):
        inst = Instance.from_pairs([(2.5, 1.25), (3, 0)])
        path = tmp_path / "inst.json"
        dump_instance(inst, path)
        back = load_instance(path)
        assert back.n == 2
        assert back.jobs[0].upper == 2.5
        assert back.jobs[1].proc == 0

    def test_instance_file_exact(self, tmp_path):
        inst = Instance.from_pairs([(Fraction(5, 2), Fraction(5, 4))])
        path = tmp_path / "inst.json"
        dump_instance(inst, path)
        back = load_instance(path, exact=True)
        assert back.jobs[0].upper == Fraction(5, 2)
        assert isinstance(back.jobs[0].upper, Fraction)

    def test_trace_file(self, tmp_path):
        tr = build_trace(10, staircase_steps())
        path = tmp_path / "trace.jsonl"
        dump_trace(tr, path)
        back = load_trace(path, n=10, exact=True)
        assert back.total == 105
        assert back.steps[0][:2] == (TEST, 0)

    def test_trace_infers_n(self, tmp_path):
        tr = build_trace(1, [(EXEC_UNTESTED, 0, 0, 3)])
        path = tmp_path / "t.jsonl"
        dump_trace(tr, path)
        assert load_trace(path).n == 1

    def test_bad_instance_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"upper": 2}')
        with pytest.raises(InstanceError):
            load_instance(path)
