"""Trace accounting, instance validation, and file round-trips."""

import itertools
import json
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from testsched.algorithms import parse_algorithm
from testsched.core import (
    EXEC_TESTED,
    EXEC_UNTESTED,
    TEST,
    Instance,
    InputFileError,
    InstanceError,
    Job,
    TraceError,
    _check_job,
    _plain,
    build_trace,
    check_trace_durations,
    cost_of_trace,
    instance_text,
    load_instance,
    load_trace,
    numbers_equal,
    trace_text,
    validate_instance,
)
from testsched.engine import StaticSource, run


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
        done = {job: start + dur for kind, job, start, dur in tr.steps if kind != TEST}
        assert done[5] == 6
        assert done[0] == 11

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


def verdict(check):
    """The InstanceError text `check()` raises, or None if it passes."""
    try:
        check()
    except InstanceError as exc:
        return str(exc)
    return None


class TestValidateInstance:
    def test_good_instance(self):
        validate_instance(Instance.from_pairs([(2, 1), (Fraction(3, 2), Fraction(1, 2))]))

    def test_empty_rejected(self):
        with pytest.raises(InstanceError):
            validate_instance(Instance((), ()))

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
        # ids are positions in the columns, so the row view numbers them 0..n-1
        inst = Instance([2, 3, 2.5], [1, 0, 2.5])
        assert [job.id for job in inst.jobs] == [0, 1, 2]

    def test_jobs_frozen_as_tuple(self):
        uppers, procs = [2], [1]
        inst = Instance(uppers, procs)
        uppers.append(1)
        procs.append(5)
        assert inst.jobs == (Job(0, 2, 1),)
        assert inst.uppers() == (2,) and inst.procs() == (1,)

    @pytest.mark.parametrize("build, message", [
        (lambda: Instance.from_pairs([(2, 3)]), "job 0: proc 3 exceeds upper limit 2"),
        (lambda: Instance((), ()), "instance must contain at least one job"),
        (lambda: Instance((2, 2), (1,)), "2 upper limits but 1 processing times"),
    ], ids=["proc_above_upper", "empty", "columns_unequal"])
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

        accepted = 0
        for u, p in itertools.product(edges, edges):
            want = verdict(lambda: _check_job(0, u, p, float_most((u, p))))
            assert verdict(lambda: Instance((u,), (p,))) == want, (u, p)
            assert verdict(lambda: Instance.from_pairs([(u, p)])) == want, (u, p)
            accepted += want is None
        assert accepted > 0  # the table reaches both verdicts

    # (upper, proc) faults placed in a column of five good (2, 1) jobs; NaN and a
    # negative value in one column make `min` and `max` depend on the order
    COLUMN_FAULTS = {
        "proc_nan_first": {0: (2, math.nan)},
        "proc_nan_middle": {2: (2, math.nan)},
        "proc_nan_last": {4: (2, math.nan)},
        "proc_negative_middle": {2: (2, -1)},
        "proc_nan_then_negative": {1: (2, math.nan), 3: (2, -1)},
        "proc_negative_then_nan": {1: (2, -1), 3: (2, math.nan)},
        "upper_nan_first": {0: (math.nan, 1)},
        "upper_nan_middle": {2: (math.nan, 1)},
        "upper_nan_last": {4: (math.nan, 1)},
        "upper_nan_then_negative": {1: (math.nan, 1), 3: (-1, 1)},
        "upper_inf_then_nan": {1: (math.inf, 1), 3: (math.nan, 1)},
        "proc_above_upper_last": {4: (2, 3)},
        "string_then_nan": {1: ("2", 1), 2: (math.nan, 1)},
    }

    @pytest.mark.parametrize("name", sorted(COLUMN_FAULTS))
    def test_first_faulty_job_is_named(self, name):
        pairs = [(2, 1)] * 5
        for i, pair in self.COLUMN_FAULTS[name].items():
            pairs[i] = pair
        first = min(self.COLUMN_FAULTS[name])
        want = verdict(lambda: _check_job(first, *pairs[first]))
        assert want is not None and want.startswith(f"job {first}: ")
        assert verdict(lambda: Instance.from_pairs(pairs)) == want
        uppers, procs = zip(*pairs)
        assert verdict(lambda: Instance(list(uppers), iter(procs))) == want

    PAST_A_FLOAT = "is past a float's range, in an instance with floats"

    @pytest.mark.parametrize("pairs, message", [
        ([(10**400, 10**400), (2.5, 1.5)], f"job 0: upper {PAST_A_FLOAT}"),
        ([(2.5, 1.5), (10**400, 1)], f"job 1: upper {PAST_A_FLOAT}"),
        ([(Fraction(10**400, 3), 1), (2, 0.5)], f"job 0: upper {PAST_A_FLOAT}"),
        ([(10**400, 1), (2.5, math.nan)], f"job 0: upper {PAST_A_FLOAT}"),
        ([(2.5, math.nan), (10**400, 1)], "job 0: proc is not a finite number"),
        ([(10**400, 10**400), (2, 1)], None),  # no float: the arithmetic is exact
        ([(Fraction(10**400, 3), 1), (2, 1)], None),
        ([(sys.float_info.max, 1), (int(sys.float_info.max), 0.5)], None),
        ([(int(sys.float_info.max) + 1, 1), (2, 0.5)], f"job 0: upper {PAST_A_FLOAT}"),
        ([(2, 0.5), (Fraction(sys.float_info.max) + Fraction(1, 3), 1)], f"job 1: upper {PAST_A_FLOAT}"),
    ], ids=["int", "int_second", "fraction", "int_then_nan", "nan_then_int", "ints_only",
            "fractions_only", "largest_float", "just_past", "fraction_just_past"])
    def test_float_instance_keeps_to_a_float_s_range(self, pairs, message):
        # float arithmetic on 10**400 raises OverflowError, so such an instance is refused
        assert verdict(lambda: Instance.from_pairs(pairs)) == message
        assert per_job_walk(*zip(*pairs)) == message

    def test_columns_and_rows_agree(self):
        pairs = [(2, 1), (Fraction(3, 2), 0), (2.5, 2.5)]
        rows = tuple(Job(i, u, p) for i, (u, p) in enumerate(pairs))
        inst = Instance.from_pairs(pairs)
        assert inst.uppers() == (2, Fraction(3, 2), 2.5) and inst.procs() == (1, 0, 2.5)
        assert inst.uppers() is inst.uppers() and inst.procs() is inst.procs()
        assert inst.jobs == rows and inst.jobs is inst.jobs
        assert inst.jobs[1].upper == Fraction(3, 2) and inst.jobs[2].proc == 2.5
        from_columns = Instance([2, Fraction(3, 2), 2.5], (1, 0, 2.5))
        assert from_columns.uppers() == inst.uppers() and from_columns.procs() == inst.procs()
        assert from_columns.jobs == rows

    def test_job_is_an_immutable_named_tuple(self):
        job = Job(id=0, upper=2, proc=1)
        assert job == (0, 2, 1) and hash(job) == hash((0, 2, 1))
        jid, upper, proc = job
        assert (jid, upper, proc) == (0, 2, 1)
        assert repr(job) == "Job(id=0, upper=2, proc=1)"
        with pytest.raises(AttributeError):
            job.upper = 3


# Column values for the property test: ints, Fractions and floats with every
# float edge, bools and strings; GOOD_JOBS makes accepted instances common.
VALUES = st.one_of(
    st.integers(-2, 4), st.fractions(-2, 4, max_denominator=6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]), st.booleans(), st.text(max_size=2))
GOOD_JOBS = st.integers(0, 3).flatmap(lambda p: st.tuples(st.integers(p, 6) | st.floats(p, 6), st.just(p)))


def float_most(values):
    """The largest value `_check_job` allows among `values`: a float's range if one is a float."""
    return sys.float_info.max if any(isinstance(x, float) for x in values) else math.inf


def per_job_walk(uppers, procs):
    """The reference verdict: the instance-level checks, then `_check_job` job by job."""
    if not uppers:
        return "instance must contain at least one job"
    if len(uppers) != len(procs):
        return f"{len(uppers)} upper limits but {len(procs)} processing times"
    most = float_most([*uppers, *procs])
    for i, (upper, proc) in enumerate(zip(uppers, procs)):
        fault = verdict(lambda: _check_job(i, upper, proc, most))
        if fault:
            return fault
    return None


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(st.lists(GOOD_JOBS | st.tuples(VALUES, VALUES), max_size=6), st.sampled_from([0, 0, 0, -1, 1]))
def test_instance_check_agrees_with_the_per_job_walk(jobs, skew):
    uppers = [u for u, _ in jobs]
    procs = [p for _, p in jobs][:len(jobs) + skew] + [1] * skew
    want = per_job_walk(uppers, procs)
    assert verdict(lambda: Instance(uppers, procs)) == want
    if not skew:
        assert verdict(lambda: Instance.from_pairs(jobs)) == want


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
        path.write_text(instance_text(inst))
        back = load_instance(path)
        assert back.n == 2
        assert back.jobs[0].upper == 2.5
        assert back.jobs[1].proc == 0

    def test_instance_file_exact(self, tmp_path):
        inst = Instance.from_pairs([(Fraction(5, 2), Fraction(5, 4))])
        path = tmp_path / "inst.json"
        path.write_text(instance_text(inst))
        back = load_instance(path, exact=True)
        assert back.jobs[0].upper == Fraction(5, 2)
        assert isinstance(back.jobs[0].upper, Fraction)

    def test_trace_file(self, tmp_path):
        tr = build_trace(10, staircase_steps())
        path = tmp_path / "trace.jsonl"
        path.write_text(trace_text(tr))  # the text `simulate --trace-out` writes
        back = load_trace(path, n=10, exact=True)
        assert back.total == 105
        assert back.steps[0][:2] == (TEST, 0)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("field, value", [("dur", "NaN"), ("t", "Infinity"), ("dur", "-Infinity")])
    def test_trace_numbers_must_be_finite(self, tmp_path, exact, field, value):
        # JSON's NaN and Infinity parse as floats; a NaN duration once made the total nan
        row = {"t": "0", "kind": '"exec_untested"', "job": "0", "dur": "2", field: value}
        path = tmp_path / "t.jsonl"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}\n")
        with pytest.raises(InputFileError, match=f"^{re.escape(str(path))}, line 1: expected a JSON object"
                                                 " with numbers 't' and 'dur'"):
            load_trace(path, n=1, exact=exact)

    def test_lower_key_rejected(self, tmp_path):
        path = tmp_path / "lower.json"
        path.write_text('[{"upper": 2, "proc": 1}, {"upper": 2, "proc": 1, "lower": 0}]')
        message = "job 1: unknown key 'lower' (a job has only 'upper' and 'proc')"
        with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
            load_instance(path)

    def test_dump_writes_upper_and_proc_only(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(instance_text(Instance.from_pairs([(2, 0), (Fraction(5, 2), Fraction(1, 2))])))
        assert json.loads(path.read_text()) == [{"upper": 2, "proc": 0}, {"upper": 2.5, "proc": 0.5}]

    def test_bad_instance_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"upper": 2}')
        with pytest.raises(InstanceError):
            load_instance(path)


class TestLosslessNumbers:
    """`_plain` writes a number the loaders read back equal; "p/q" only where no float is exact."""

    @pytest.mark.parametrize("x, plain", [
        (3, 3), (2.5, 2.5), (Fraction(4, 2), 2), (Fraction(5, 2), 2.5), (Fraction(1, 10), 0.1),
        (Fraction(1, 3), "1/3"), (Fraction(-7, 3), "-7/3"), (Fraction(1, 10**400), f"1/{10**400}"),
        (Fraction(10**400 + 1, 2), f"{10**400 + 1}/2"),
    ], ids=["int", "float", "whole", "half", "tenth", "third", "negative", "tiny", "past_a_float"])
    def test_plain(self, x, plain):
        assert _plain(x) == plain and type(_plain(x)) is type(plain)

    def test_third_round_trips_in_both_files(self, tmp_path):
        inst = Instance.from_pairs([(Fraction(2, 3), Fraction(1, 3)), (2, 1)])
        path = tmp_path / "inst.json"
        path.write_text(instance_text(inst))
        assert '"upper": "2/3",\n  "proc": "1/3"' in path.read_text()
        back = load_instance(path, exact=True)
        assert back.uppers() == (Fraction(2, 3), 2) and back.procs() == (Fraction(1, 3), 1)
        assert load_instance(path).uppers() == (2 / 3, 2)
        trace_path = tmp_path / "trace.jsonl"
        trace = run(parse_algorithm("threshold", exact=True).generator(), StaticSource(inst), 2, inst.uppers())
        trace_path.write_text(trace_text(trace))
        assert '"dur": "2/3"' in trace_path.read_text()
        assert load_trace(trace_path, n=2, exact=True).steps == trace.steps
        assert [s[3] for s in load_trace(trace_path, n=2).steps] == [float(s[3]) for s in trace.steps]

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "rational"])
    @pytest.mark.parametrize("value", ['"2"', '"1/0"', '"1 /3"', '"0x1/3"', '"1/3.0"', '"+1/3"'],
                             ids=["no_slash", "zero_denominator", "space", "hex", "decimal", "plus"])
    def test_other_strings_are_not_numbers(self, tmp_path, value, exact):
        path = tmp_path / "inst.json"
        path.write_text(f'[{{"upper": {value}, "proc": 0}}]')
        with pytest.raises(InstanceError, match=r"^job 0: upper is not a finite number$"):
            load_instance(path, exact=exact)

    def test_past_a_float_is_exact_or_not_finite(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(f'[{{"upper": "{10**400}/3", "proc": 0}}]')
        assert load_instance(path, exact=True).uppers() == (Fraction(10**400, 3),)
        with pytest.raises(InstanceError, match=r"^job 0: upper is not a finite number$"):
            load_instance(path)

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "rational"])
    def test_over_the_digit_limit_is_an_input_error(self, tmp_path, exact):
        path = tmp_path / "big.json"
        path.write_text(f'[{{"upper": {"9" * 5000}, "proc": 1}}]')
        with pytest.raises(InputFileError, match=f"^{re.escape(str(path))}: Exceeds the limit"):
            load_instance(path, exact=exact)


# Round-trip properties: ints and Fractions with any denominator for rational
# mode, ints and finite floats for float mode; each pair sorted so proc <= upper.
def sorted_pairs(values):
    return st.lists(st.tuples(values, values).map(lambda t: (max(t), min(t))), min_size=1, max_size=6)


RATIONAL_PAIRS = sorted_pairs(st.integers(0, 10**9) | st.fractions(0, 10**9))
FLOAT_PAIRS = sorted_pairs(st.integers(0, 10**9) | st.floats(0, 1e300))
ROUND_TRIP = settings(derandomize=True, max_examples=150, database=None, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


@ROUND_TRIP
@given(RATIONAL_PAIRS)
def test_rational_instance_reads_back_equal(tmp_path, pairs):
    inst = Instance.from_pairs(pairs)
    (tmp_path / "inst.json").write_text(instance_text(inst))
    back = load_instance(tmp_path / "inst.json", exact=True)
    assert back.uppers() == inst.uppers() and back.procs() == inst.procs()
    assert {*map(type, back.uppers()), *map(type, back.procs())} <= {int, Fraction}


@ROUND_TRIP
@given(FLOAT_PAIRS)
def test_float_instance_reads_back_equal(tmp_path, pairs):
    inst = Instance.from_pairs(pairs)
    (tmp_path / "inst.json").write_text(instance_text(inst))
    back = load_instance(tmp_path / "inst.json")
    assert back.uppers() == inst.uppers() and back.procs() == inst.procs()
    assert list(map(type, back.uppers() + back.procs())) == list(map(type, inst.uppers() + inst.procs()))


@ROUND_TRIP
@given(st.sampled_from([True, False]).flatmap(
    lambda exact: st.tuples(st.just(exact), RATIONAL_PAIRS if exact else FLOAT_PAIRS)))
def test_threshold_trace_reads_back_equal(tmp_path, case):
    exact, pairs = case
    inst = Instance.from_pairs(pairs)
    trace = run(parse_algorithm("threshold", exact=exact).generator(), StaticSource(inst), inst.n, inst.uppers())
    (tmp_path / "trace.jsonl").write_text(trace_text(trace))
    assert load_trace(tmp_path / "trace.jsonl", n=inst.n, exact=exact).steps == trace.steps
