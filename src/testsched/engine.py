"""Simulation engine: drives online algorithms against reveal sources.

The engine owns the clock and the hidden processing times.  An algorithm is
a generator function: it receives the public view (n, upper limits), yields
actions one at a time, and receives the revealed processing time as the
value of a `test` yield (execution yields return None).  Hidden times can
therefore only reach an algorithm through a completed test, which is the
whole information model enforced structurally.

A reveal source's `begin(n, uppers)` is the one check of a run's view, and
returns the limits the run uses.  Its `reveal` and `settle_untested`, any
callables taking a job id, say what a test reveals and what an untested run
committed to; the engine calls them on every test and untested run, except on
exactly a `StaticSource`, whose times it reads by index.  A static source
replays a fixed instance on its own checked column; an adaptive source walks
its view and fixes each time when the job is first touched, which is how
adversary lower bounds run.

The protocol loop keeps one ledger entry per job: untouched, the time its
test revealed, or done.  `run` returns the full trace.  Expectation runs
(`run_expected`) read only each run's total and makespan, so they drive the
same loop with the same checks but keep no step list.  A deterministic
rule's expectation is its one run; a randomized rule's exact one is its
`expected_cost` hook on a plain static source, with no run at all.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .core import (
    DONE,
    EXEC_TESTED,
    EXEC_UNTESTED,
    TEST,
    TESTED,
    UNTOUCHED,
    Instance,
    Num,
    Trace,
    action_fault,
    is_finite_number,
)

_UNTOUCHED, _DONE = object(), object()  # `_drive`'s ledger entries beside a revealed time


class ProtocolError(RuntimeError):
    """An algorithm emitted an action the model forbids."""


class StaticSource:
    """Reveals the fixed processing times of an instance (checked when built).

    `begin` refuses a view of another length or other limits and returns the
    instance's own column, so a run on an equal copy runs on its values.  The
    loop reads a plain `StaticSource`'s `_procs` by index instead of calling
    `reveal`, and skips `settle_untested`, which only reads that column; a
    subclass is asked through its own methods, as any other source is.
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
        return self._uppers

    def reveal(self, job: int) -> Num:
        return self._procs[job]

    def settle_untested(self, job: int) -> Num:
        return self._procs[job]

    def realized_instance(self) -> Instance:
        return self.inst


class AdaptiveSource:
    """Fixes each hidden time when the job is first touched.

    `rule(job, via_test, rank, upper)` returns the committed processing
    time, a finite int, float or Fraction in [0, upper]; `rank` is the
    1-based count of distinct jobs touched so far.  `begin` returns the view
    as `_check_view` walks it.  Single-use: one run per source.
    """

    def __init__(self, rule):
        self.rule = rule
        self._uppers = None
        self._committed: dict[int, Num] = {}

    def begin(self, n: int, uppers) -> tuple:
        if self._uppers is not None:
            raise ProtocolError("adaptive source already used; build a fresh one per run")
        self._n = n
        self._uppers = _check_view(n, uppers)
        return self._uppers

    def _commit(self, job: int, via_test: bool) -> Num:
        if job in self._committed:
            return self._committed[job]
        rank = len(self._committed) + 1
        p = self.rule(job, via_test, rank, self._uppers[job])
        if not (is_finite_number(p) and 0 <= p <= self._uppers[job]):
            raise ProtocolError(f"adversary fixed p={p} outside [0, {self._uppers[job]}] for job {job}")
        self._committed[job] = p
        return p

    def reveal(self, job: int) -> Num:
        return self._commit(job, True)

    def settle_untested(self, job: int) -> Num:
        return self._commit(job, False)

    def realized_instance(self) -> Instance:
        if self._uppers is None or len(self._committed) != self._n:
            raise ProtocolError("realized instance is only defined after a complete run")
        return Instance(self._uppers, map(self._committed.__getitem__, range(self._n)))


def run(algorithm, source, n: int, upper_limits) -> Trace:
    """Run one algorithm to completion and return its trace.

    `algorithm` is a generator function taking the view (n, uppers).  The
    source's `begin` checks the view and returns the limits the run uses;
    any structural violation raises ProtocolError naming the action index.
    """
    return _drive(algorithm, source, n, upper_limits)


def _check_view(n: int, upper_limits) -> tuple:
    """The view's limits as a tuple; ProtocolError unless n >= 1 limits obey the rule
    `Instance` applies to its values (`core.validate_instance`): each a finite int,
    float or Fraction (`is_finite_number`, so not a bool), >= 0 and, in a view with a
    float, not past a float's range, since the run would overflow on adding it.
    `AdaptiveSource.begin` calls it, on the one kind of view not from an instance.
    """
    uppers = tuple(upper_limits)
    if n < 1 or len(uppers) != n:
        raise ProtocolError(f"bad view: n={n} with {len(uppers)} upper limits")
    most = sys.float_info.max if any(isinstance(u, float) for u in uppers) else math.inf
    for j, u in enumerate(uppers):
        if not is_finite_number(u) or u < 0:
            raise ProtocolError(f"job {j}: upper limit {u} invalid")
        if u > most:
            raise ProtocolError(f"job {j}: upper limit past a float's range among float limits")
    return uppers


def _drive(gen_fn, source, n: int, upper_limits, record: bool = True):
    """`run`, on the limits the source's `begin` returns for the view.

    With `record=False` no step is kept and the result is `(total, makespan)`,
    the two values the Trace would carry: expectation runs read nothing else.
    Both modes make the same checks.  An action is checked on its job's
    ledger entry (`_UNTOUCHED`, the revealed time or `_DONE`), then on its
    kind; an error names it by its index, the tests so far plus jobs done.
    On exactly a `StaticSource` a test reads the time from its `_procs`
    column, the object `reveal` returns, and an untested run asks nothing;
    any other source's `reveal` and `settle_untested` are called as given.
    """
    uppers = source.begin(n, upper_limits)
    times = source._procs if type(source) is StaticSource else None
    reveal = source.reveal
    settle_untested = source.settle_untested
    gen = gen_fn((n, uppers))
    send = gen.send
    test, exec_tested, exec_untested = TEST, EXEC_TESTED, EXEC_UNTESTED
    untouched, done, int_ = _UNTOUCHED, _DONE, int
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
                    send_value = ledger[job] = reveal(job) if times is None else times[job]
                    tests += 1
                    if record:
                        append((test, job, t, 1))
                    t = t + 1
                    continue
                if not kind == exec_untested:
                    raise ProtocolError(f"action {tests + n - remaining}: {action_fault(kind, job, UNTOUCHED)}")
                if times is None:
                    settle_untested(job)
                dur = uppers[job]
                if record:
                    append((exec_untested, job, t, dur))
            elif s is not done and kind == exec_tested:
                dur = s
                if record:
                    append((exec_tested, job, t, dur))
            else:
                fault = action_fault(kind, job, DONE if s is done else TESTED)
                raise ProtocolError(f"action {tests + n - remaining}: {fault}")
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
    trials: int
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
    rule's comes from its `expected_cost` hook on the limits one `begin`
    returns, at any n, and `trials` is its number of outcomes; the hook reads
    the instance's times, so the source must be exactly a `StaticSource`.
    Any other source, or no hook, is a ProtocolError before the source is
    asked anything.  Otherwise the rule runs `trials` (at least 1) seeded
    replicates, and the result is their mean.  Each run goes through the
    protocol loop with every check `run` makes, but keeps no step list: only
    its total and makespan.
    """
    if not exact and alg.randomized and seed is None:
        raise ProtocolError("randomized run without a master seed")
    if not exact and alg.randomized and trials < 1:
        raise ProtocolError(f"Monte Carlo needs trials >= 1, got {trials}")
    if exact and alg.randomized and alg.expected_cost is None:
        raise ProtocolError(f"an exact expectation of {alg.key} needs its expected_cost hook,"
                            " and this randomized rule has none")
    if not alg.randomized:
        total, makespan = _drive(alg.generator(), source, n, upper_limits, record=False)
        return ExpectedRun(total, makespan, 0.0, 0.0, 1, True)
    if exact:
        if type(source) is not StaticSource:
            raise ProtocolError(f"an exact expectation of {alg.key} reads the instance's times,"
                                f" so it needs a plain StaticSource, not {type(source).__name__}")
        total, makespan, count = alg.expected_cost(source.begin(n, upper_limits), source._procs)
        return ExpectedRun(total, makespan, 0.0, 0.0, count, True)
    totals = []
    spans = []
    for i in range(trials):
        cost, span = _drive(alg.generator(trial_seed(seed, i)), source, n, upper_limits, record=False)
        totals.append(cost)
        spans.append(span)
    return ExpectedRun(sum(totals) / trials, sum(spans) / trials, _stderr(totals), _stderr(spans),
                       trials, False)


def _stderr(xs: list) -> float:
    if len(xs) < 2:
        return 0.0
    m = float(sum(xs)) / len(xs)
    var = sum((float(x) - m) ** 2 for x in xs) / (len(xs) - 1)
    return math.sqrt(var / len(xs))
