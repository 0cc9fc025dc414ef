"""Simulation engine: drives online algorithms against reveal sources.

The engine owns the clock and the hidden processing times.  An algorithm is
a generator function: it receives the public view (n, upper limits), yields
actions one at a time, and receives the revealed processing time as the
value of a `test` yield (execution yields return None).  Hidden times can
therefore only reach an algorithm through a completed test, which is the
whole information model enforced structurally.

A reveal source's `begin(n, uppers)` is the one check of a run's view.  It
returns `(limits, times)`: the limits the run uses, and the run's time column
when the source holds one, else None.  A static source compares the view with
its instance's limits and returns both checked columns, read by index.  An
adaptive source checks the view as the limits of an instance with zero times
and returns no times; the loop calls its `commit(job, via_test)` on each job's
first touch, which fixes the job's time.

The protocol loop keeps `core`'s ledger: per job `UNTOUCHED`, the revealed
time or `DONE`.  `run` returns the full trace.  Expectation runs
(`run_expected`) read only each run's total and makespan, so they call
`run(..., record=False)`: the same loop with the same checks, but no step
list.  A deterministic rule's expectation is its one run; a randomized
rule's exact one is its `expected_cost` hook on the columns `begin`
returns, with no run at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .core import (
    DONE,
    EXEC_TESTED,
    EXEC_UNTESTED,
    TEST,
    UNTOUCHED,
    Instance,
    InstanceError,
    Num,
    Trace,
    action_fault,
    is_finite_number,
)


class ProtocolError(RuntimeError):
    """An algorithm emitted an action the model forbids."""


class StaticSource:
    """Holds the fixed processing times of an instance (checked when built).

    `begin` refuses a view of another length or other limits and returns the
    instance's own two columns, so a run on an equal copy runs on its values.
    The loop reads each time from the time column and asks nothing more, as
    of any source whose `begin` returns times.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self._uppers = inst.uppers()
        self._procs = inst.procs()

    def begin(self, n: int, uppers) -> tuple:
        if n != self.inst.n:
            raise ProtocolError(f"source holds {self.inst.n} jobs, run asked for {n}")
        if uppers is not self._uppers and tuple(uppers) != self._uppers:
            raise ProtocolError("view's upper limits differ from the source instance's")
        return self._uppers, self._procs


class AdaptiveSource:
    """Fixes each hidden time when the job is first touched: how adversary lower bounds run.

    `rule(job, via_test, rank, upper)` returns the committed processing
    time, a finite int, float or Fraction in [0, upper]; `rank` is the
    1-based count of distinct jobs touched so far.  The loop calls `commit`
    once per job, on its first touch.  Single-use: one run per source.
    """

    def __init__(self, rule):
        self.rule = rule
        self._uppers = None
        self._committed: dict[int, Num] = {}

    def begin(self, n: int, uppers) -> tuple:
        """The view's limits and no times.  A ProtocolError `bad view: ...` refuses a view of
        other than n limits, and one whose limits an instance with zero times refuses."""
        if self._uppers is not None:
            raise ProtocolError("adaptive source already used; build a fresh one per run")
        uppers = tuple(uppers)
        if len(uppers) != n:
            raise ProtocolError(f"bad view: n={n} with {len(uppers)} upper limits")
        try:
            self._uppers = Instance(uppers, (0,) * n).uppers()
        except InstanceError as exc:
            raise ProtocolError(f"bad view: {exc}") from exc
        self._n = n
        return self._uppers, None

    def commit(self, job: int, via_test: bool) -> Num:
        rank = len(self._committed) + 1
        p = self.rule(job, via_test, rank, self._uppers[job])
        if not (is_finite_number(p) and 0 <= p <= self._uppers[job]):
            raise ProtocolError(f"adversary fixed p={p} outside [0, {self._uppers[job]}] for job {job}")
        self._committed[job] = p
        return p

    def realized_instance(self) -> Instance:
        if self._uppers is None or len(self._committed) != self._n:
            raise ProtocolError("realized instance is only defined after a complete run")
        return Instance(self._uppers, map(self._committed.__getitem__, range(self._n)))


def run(gen_fn, source, n: int, upper_limits, record: bool = True):
    """Run one algorithm to completion and return its trace.

    `gen_fn` is a generator function taking the view (n, uppers).  The
    source's `begin` checks the view and returns the limits the run uses and
    any times it holds.  With `record=False` no step is kept and the result
    is `(total, makespan)`, the two values the Trace would carry:
    expectation runs read nothing else.  Both modes make the same checks.
    An action is checked on its job's ledger entry (`UNTOUCHED`, the
    revealed time or `DONE`), then on its kind; any structural violation
    raises ProtocolError naming the action by its index, the tests so far
    plus jobs done.  A test reads the job's time from the source's column;
    a source with no column gets `commit(job, via_test)` on each test and
    untested run instead.
    """
    uppers, times = source.begin(n, upper_limits)
    commit = source.commit if times is None else None
    gen = gen_fn((n, uppers))
    send = gen.send
    test, exec_tested, exec_untested = TEST, EXEC_TESTED, EXEC_UNTESTED
    untouched, done, int_ = UNTOUCHED, DONE, int
    ledger = [untouched] * n
    completions: list = [None] * n
    steps: list[tuple] = []
    append = steps.append
    t: Num = 0
    remaining = n
    tests = 0
    send_value = None
    try:
        while remaining:
            try:
                action = send(send_value)
            except StopIteration:
                raise ProtocolError(f"algorithm stopped after action {tests + n - remaining}"
                                    f" with {remaining} jobs unfinished")
            try:
                kind, job = action
            except (TypeError, ValueError):
                raise ProtocolError(f"action {tests + n - remaining}: not a (kind, job) pair: {action!r}")
            if type(job) is not int_ or not 0 <= job < n:  # a bool is no job id
                raise ProtocolError(f"action {tests + n - remaining}: unknown job id {job!r}")
            s = ledger[job]
            if s is untouched:
                if kind == test:
                    send_value = ledger[job] = commit(job, True) if times is None else times[job]
                    tests += 1
                    if record:
                        append((test, job, t, 1))
                    t = t + 1
                    continue
                if not kind == exec_untested:
                    raise ProtocolError(f"action {tests + n - remaining}: {action_fault(kind, job, s)}")
                if times is None:
                    commit(job, False)
                dur = uppers[job]
                if record:
                    append((exec_untested, job, t, dur))
            elif s is not done and kind == exec_tested:
                dur = s
                if record:
                    append((exec_tested, job, t, dur))
            else:
                raise ProtocolError(f"action {tests + n - remaining}: {action_fault(kind, job, s)}")
            t = t + dur
            completions[job] = t
            ledger[job] = done
            remaining -= 1
            send_value = None
    finally:
        gen.close()
    if not record:
        return sum(completions), t
    return Trace(n=n, steps=steps, completions=tuple(completions), total=sum(completions), makespan=t)


@dataclass
class ExpectedRun:
    """Expected costs of a (possibly randomized) algorithm on one view."""

    total: Num
    makespan: Num
    total_stderr: float
    makespan_stderr: float
    trials: int | None
    exact: bool


def trial_seed(master_seed, index: int) -> str:
    """Deterministic per-trial seed derived from the master seed."""
    return f"{master_seed}:{index}"


def run_expected(alg, source, n: int, upper_limits, trials: int = 100, seed=None,
                 exact: bool = False) -> ExpectedRun:
    """Expected cost of `alg` (an OnlineAlgorithm) under its own randomness.

    The one `source` serves every run, and its `begin` checks the view on
    each.  A deterministic rule's expectation is its one run, in either mode,
    as it is: exact, with zero standard error.  With `exact`, a randomized
    rule's comes from its `expected_cost` hook on the limits and times one
    `begin` returns, at any n, and `trials` is its number of outcomes, or
    None when that count is 2**53 or more, past what a float or a JSON reader
    holds whole.  A source that holds no times is a ProtocolError, and a
    rule with no hook is one before the source is asked anything.  Otherwise
    it is the mean of `trials` (at least 1) seeded replicates.
    Each run is `run(..., record=False)`: every check of a recorded run, but
    no step list, only its total and makespan.
    """
    if not exact and alg.randomized and seed is None:
        raise ProtocolError("randomized run without a master seed")
    if not exact and alg.randomized and trials < 1:
        raise ProtocolError(f"Monte Carlo needs trials >= 1, got {trials}")
    if exact and alg.randomized and alg.expected_cost is None:
        raise ProtocolError(f"an exact expectation of {alg.key} needs its expected_cost hook,"
                            " and this randomized rule has none")
    if not alg.randomized:
        total, makespan = run(alg.generator(), source, n, upper_limits, record=False)
        return ExpectedRun(total, makespan, 0.0, 0.0, 1, True)
    if exact:
        uppers, times = source.begin(n, upper_limits)
        if times is None:
            raise ProtocolError(f"an exact expectation of {alg.key} reads every time up front,"
                                " and this source holds none")
        total, makespan, count = alg.expected_cost(uppers, times)
        return ExpectedRun(total, makespan, 0.0, 0.0, count, True)
    totals = []
    spans = []
    for i in range(trials):
        cost, span = run(alg.generator(trial_seed(seed, i)), source, n, upper_limits, record=False)
        totals.append(cost)
        spans.append(span)
    return ExpectedRun(sum(totals) / trials, sum(spans) / trials, _stderr(totals), _stderr(spans),
                       trials, False)


def _stderr(xs: list) -> float:
    """The standard error of the mean of xs in floats, or from exact sums where floats overflow."""
    if len(xs) < 2:
        return 0.0
    try:
        m = float(sum(xs)) / len(xs)
        se = math.sqrt(sum((float(x) - m) ** 2 for x in xs) / (len(xs) - 1) / len(xs))
    except OverflowError:  # a value past a float's range, or a square of a deviation
        se = math.inf
    if math.isfinite(se):
        return se
    k, exact = len(xs), [Fraction(x) for x in xs]
    var = (sum(x * x for x in exact) - sum(exact) ** 2 / k) / (k * (k - 1))
    return float((Decimal(var.numerator) / var.denominator).sqrt())  # inf only past a float's range
