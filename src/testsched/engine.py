"""Simulation engine: drives online algorithms against reveal sources.

The engine owns the clock and the hidden processing times.  An algorithm is
a generator function: it receives the public view (n, upper limits), yields
actions one at a time, and receives the revealed processing time as the
value of a `test` yield (execution yields return None).  Hidden times can
therefore only reach an algorithm through a completed test, which is the
whole information model enforced structurally.

Reveal sources answer the engine's two questions: what a test reveals, and
what value a job committed to when it was executed untested.  A static
source replays a fixed instance; an adaptive source fixes each value at the
moment the job is first touched, which is how adversary lower bounds run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    EXEC_TESTED,
    EXEC_UNTESTED,
    TEST,
    Instance,
    Job,
    Num,
    Trace,
)

EXACT_ENUMERATION_LIMIT = 8  # n! / outcome enumeration only up to this n


class ProtocolError(RuntimeError):
    """An algorithm emitted an action the model forbids."""


class StaticSource:
    """Reveals the fixed processing times of an instance (checked when built)."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self._procs = inst.procs()

    def begin(self, n: int, uppers) -> None:
        if n != self.inst.n:
            raise ProtocolError(f"source holds {self.inst.n} jobs, run asked for {n}")

    def reveal(self, job: int) -> Num:
        return self._procs[job]

    def settle_untested(self, job: int) -> Num:
        return self._procs[job]

    def realized_instance(self) -> Instance:
        return self.inst

    def describe(self) -> str:
        return f"instance(n={self.inst.n})"


class AdaptiveSource:
    """Fixes each hidden time when the job is first touched.

    `rule(job, via_test, rank, upper)` returns the committed processing
    time; `rank` is the 1-based count of distinct jobs touched so far.
    Single-use: one run per source.
    """

    def __init__(self, rule, label: str = "adaptive"):
        self.rule = rule
        self.label = label
        self._uppers = None
        self._committed: dict[int, Num] = {}

    def begin(self, n: int, uppers) -> None:
        if self._uppers is not None:
            raise ProtocolError("adaptive source already used; build a fresh one per run")
        self._n = n
        self._uppers = tuple(uppers)

    def _commit(self, job: int, via_test: bool) -> Num:
        if job in self._committed:
            return self._committed[job]
        rank = len(self._committed) + 1
        p = self.rule(job, via_test, rank, self._uppers[job])
        if p < 0 or p > self._uppers[job]:
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
        jobs = tuple(Job(j, self._uppers[j], self._committed[j]) for j in range(self._n))
        return Instance(jobs)

    def describe(self) -> str:
        return self.label


def run(algorithm, source, n: int, upper_limits) -> Trace:
    """Run one algorithm to completion and return its trace.

    `algorithm` is a generator function taking the view (n, uppers).  Any
    structural violation raises ProtocolError naming the action index.
    """
    uppers = tuple(upper_limits)
    if n < 1 or len(uppers) != n:
        raise ProtocolError(f"bad view: n={n} with {len(uppers)} upper limits")
    for j, u in enumerate(uppers):
        if u < 0 or (isinstance(u, float) and not math.isfinite(u)):
            raise ProtocolError(f"job {j}: upper limit {u} invalid")
    source.begin(n, uppers)

    gen = algorithm((n, uppers))
    tested: dict[int, Num] = {}
    done = [False] * n
    completions: list = [None] * n
    steps: list[tuple] = []
    t: Num = 0
    remaining = n
    send_value = None
    idx = 0
    try:
        while remaining:
            try:
                action = gen.send(send_value)
            except StopIteration:
                raise ProtocolError(f"algorithm stopped after action {idx} with {remaining} jobs unfinished")
            send_value = None
            try:
                kind, job = action
            except (TypeError, ValueError):
                raise ProtocolError(f"action {idx}: not a (kind, job) pair: {action!r}")
            if not isinstance(job, int) or not 0 <= job < n:
                raise ProtocolError(f"action {idx}: unknown job id {job!r}")
            if kind == TEST:
                if job in tested:
                    raise ProtocolError(f"action {idx}: job {job} tested twice")
                if done[job]:
                    raise ProtocolError(f"action {idx}: job {job} tested after execution")
                p = source.reveal(job)
                tested[job] = p
                steps.append((TEST, job, t, 1))
                t = t + 1
                send_value = p
            elif kind == EXEC_TESTED:
                if done[job]:
                    raise ProtocolError(f"action {idx}: job {job} executed twice")
                if job not in tested:
                    raise ProtocolError(f"action {idx}: job {job} executed as tested before its test")
                dur = tested[job]
                steps.append((EXEC_TESTED, job, t, dur))
                t = t + dur
                completions[job] = t
                done[job] = True
                remaining -= 1
            elif kind == EXEC_UNTESTED:
                if done[job]:
                    raise ProtocolError(f"action {idx}: job {job} executed twice")
                if job in tested:
                    raise ProtocolError(f"action {idx}: job {job} executed untested after its test")
                source.settle_untested(job)
                dur = uppers[job]
                steps.append((EXEC_UNTESTED, job, t, dur))
                t = t + dur
                completions[job] = t
                done[job] = True
                remaining -= 1
            else:
                raise ProtocolError(f"action {idx}: unknown kind {kind!r}")
            idx += 1
    finally:
        gen.close()
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

    Exact mode enumerates the algorithm's outcome distribution (all test
    orders, or all test-coin outcomes) and is limited to n <= 8; it returns
    the exact expectation with zero standard error.  Monte Carlo mode runs
    `trials` independent seeded replicates.  `source` may be a reveal source
    (reused across trials) or a zero-argument factory returning fresh ones.
    """
    make_source = source if callable(source) else (lambda: source)
    if exact:
        if n > EXACT_ENUMERATION_LIMIT:
            raise ProtocolError(f"exact expectation limited to n <= {EXACT_ENUMERATION_LIMIT}, got n={n}")
        total: Num = 0
        makespan: Num = 0
        weight_sum: Num = 0
        count = 0
        for weight, gen_fn in alg.exact_outcomes(n, tuple(upper_limits)):
            tr = run(gen_fn, make_source(), n, upper_limits)
            total = total + weight * tr.total
            makespan = makespan + weight * tr.makespan
            weight_sum = weight_sum + weight
            count += 1
        if not math.isclose(float(weight_sum), 1.0, rel_tol=1e-12, abs_tol=1e-12):
            raise ProtocolError(f"outcome weights sum to {float(weight_sum)}, not 1")
        return ExpectedRun(total, makespan, 0.0, 0.0, count, True)
    if alg.randomized and seed is None:
        raise ProtocolError("randomized run without a master seed")
    totals = []
    spans = []
    count = trials if alg.randomized else 1
    for i in range(count):
        gen_fn = alg.generator(trial_seed(seed, i) if alg.randomized else None)
        tr = run(gen_fn, make_source(), n, upper_limits)
        totals.append(tr.total)
        spans.append(tr.makespan)
    mean_t = sum(totals) / len(totals)
    mean_m = sum(spans) / len(spans)
    return ExpectedRun(mean_t, mean_m, _stderr(totals), _stderr(spans), count, False)


def _stderr(xs: list) -> float:
    if len(xs) < 2:
        return 0.0
    m = float(sum(xs)) / len(xs)
    var = sum((float(x) - m) ** 2 for x in xs) / (len(xs) - 1)
    return math.sqrt(var / len(xs))
