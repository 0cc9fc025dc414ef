"""Data model and cost accounting for single-machine scheduling with testing.

A job arrives with a known upper limit on its execution time and a hidden
processing time.  Spending one unit of time on a test reveals the hidden
time, after which the job can be run at any later point for exactly that
long.  Running a job untested takes the full upper limit.  Schedules are
judged by the sum of completion times or by the makespan.

Two numeric modes are supported throughout: exact rationals (Fraction) for
small-instance oracles and 64-bit floats for sweeps.  All arithmetic here is
generic over the mode; comparisons involving floats use a 1e-9 tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import le
from typing import Iterable, NamedTuple, Sequence, Union

Num = Union[int, float, Fraction]

# Schedule action kinds.  These strings are also the wire format in traces.
TEST = "test"
EXEC_TESTED = "exec_tested"
EXEC_UNTESTED = "exec_untested"
KINDS = (TEST, EXEC_TESTED, EXEC_UNTESTED)

# Per-job states of a schedule ledger, one byte per job in a bytearray(n).
UNTOUCHED, TESTED, DONE = 0, 1, 2

REL_TOL = 1e-9  # float-mode comparison tolerance


class InstanceError(ValueError):
    """Malformed instance data."""


class TraceError(ValueError):
    """A trace violates the schedule structure."""


def numbers_equal(a: Num, b: Num) -> bool:
    """Equality that is exact for rationals and tolerant for floats."""
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)
    return a == b


class Job(NamedTuple):
    """One job.  `upper` is public, `proc` is hidden until tested.

    An immutable named tuple: it equals a plain tuple of the same values,
    but only a `Job` is a row of an instance.
    """

    id: int
    upper: Num
    proc: Num


class Instance:
    """Jobs with ids 0..n-1, kept as two columns and checked once, when built.

    `uppers()` and `procs()` return the columns.  `Instance(jobs)` splits
    `Job` rows into them and `from_pairs` builds them directly; `jobs` gives
    the rows back, built on first use.
    """

    __slots__ = ("_uppers", "_procs", "_jobs")

    def __init__(self, jobs: Iterable[Job]):
        rows = self._jobs = tuple(jobs)  # a list could change after the check
        if not {Job}.issuperset(map(type, rows)):
            _check_rows(rows)  # names the first row that is no Job; a Job subclass passes
        ids, self._uppers, self._procs = tuple(zip(*rows)) or ((), (), ())
        if ids != tuple(range(len(rows))):
            _check_rows(rows)
        validate_instance(self)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Num, Num]]) -> "Instance":
        """Build an instance from (upper, proc) pairs, ids in given order."""
        self = cls.__new__(cls)
        self._uppers, self._procs = tuple(zip(*pairs, strict=True)) or ((), ())
        self._jobs = None
        validate_instance(self)
        return self

    @property
    def n(self) -> int:
        return len(self._uppers)

    @property
    def jobs(self) -> tuple[Job, ...]:
        if self._jobs is None:
            self._jobs = tuple(map(Job, range(self.n), self._uppers, self._procs))
        return self._jobs

    def uppers(self) -> tuple[Num, ...]:
        return self._uppers

    def procs(self) -> tuple[Num, ...]:
        return self._procs

    def __repr__(self):
        return f"Instance(uppers={self._uppers!r}, procs={self._procs!r})"


_NUMBER_TYPES = frozenset((int, float, Fraction))  # a bool is no number here


def validate_instance(inst: Instance) -> None:
    """Raise InstanceError unless `inst` is well formed.

    Checks: at least one job, finite int, float or Fraction values (not
    bool) and 0 <= proc <= upper.  `Instance` calls this once, when built;
    the engine and the offline solvers rely on it.  It runs C-level passes
    over the columns (the `le` pass sees a NaN that `min` or `max` skip);
    only if one fails does `_check_job` walk the rows to name the first fault.
    """
    if not isinstance(inst, Instance) or not inst.n:
        raise InstanceError("instance must contain at least one job")
    uppers, procs = inst.uppers(), inst.procs()
    types = {*map(type, uppers), *map(type, procs)}
    if not (types <= _NUMBER_TYPES and min(procs) >= 0 and (float not in types or max(uppers) < math.inf)
            and all(map(le, procs, uppers))):
        _check_rows(inst.jobs)


def _check_rows(rows) -> None:
    for i, job in enumerate(rows):
        _check_job(i, job)


def _check_job(i: int, job: Job) -> None:
    """Per-field check of job `i`; raises InstanceError naming the first fault."""
    if not isinstance(job, Job):
        raise InstanceError(f"job {i}: not a Job")
    if job.id != i:
        raise InstanceError(f"job {i}: id {job.id} out of order (ids must be 0..n-1)")
    for name in ("upper", "proc"):
        x = getattr(job, name)
        if (isinstance(x, bool) or not isinstance(x, (int, float, Fraction))
                or isinstance(x, float) and not math.isfinite(x)):
            raise InstanceError(f"job {i}: {name} is not a finite number")
    if job.proc < 0:
        raise InstanceError(f"job {i}: negative time")
    if job.proc > job.upper:
        raise InstanceError(f"job {i}: proc {job.proc} exceeds upper limit {job.upper}")


@dataclass
class Trace:
    """A complete schedule: contiguous actions from time 0 plus aggregates."""

    n: int
    steps: list[tuple]  # (kind, job, start, dur)
    completions: tuple[Num, ...]
    total: Num
    makespan: Num


def action_fault(kind, job, state) -> str:
    """Name the schedule rule that action `kind` on `job` breaks in ledger `state`."""
    if kind not in KINDS:
        return f"unknown kind {kind!r}"
    if kind == TEST:
        return f"job {job} tested twice" if state == TESTED else f"job {job} tested after execution"
    if state == DONE:
        return f"job {job} executed twice"
    if kind == EXEC_TESTED:
        return f"job {job} executed as tested before its test"
    return f"job {job} executed untested after its test"


def _replay(trace: Trace) -> tuple[list, Num, Num]:
    """One checked walk of the steps: (completions, total, makespan), see cost_of_trace."""
    n = trace.n
    state = bytearray(n)
    completions: list = [None] * n
    t: Num = 0
    for i, (kind, job, start, dur) in enumerate(trace.steps):
        if not isinstance(job, int) or not 0 <= job < n:
            raise TraceError(f"action {i}: unknown job id {job!r}")
        if not numbers_equal(start, t):
            raise TraceError(f"action {i}: starts at {start}, schedule time is {t} (gap or overlap)")
        if dur < 0:
            raise TraceError(f"action {i}: negative duration")
        s = state[job]
        if kind == TEST and s == UNTOUCHED:
            if not numbers_equal(dur, 1):
                raise TraceError(f"action {i}: test duration {dur} != 1")
            state[job] = TESTED
        elif (kind == EXEC_TESTED and s == TESTED) or (kind == EXEC_UNTESTED and s == UNTOUCHED):
            state[job] = DONE
            completions[job] = start + dur
        else:
            raise TraceError(f"action {i}: {action_fault(kind, job, s)}")
        t = start + dur
    for j in range(n):
        if state[j] != DONE:
            raise TraceError(f"job {j} never executed")
    return completions, sum(completions), t


def cost_of_trace(trace: Trace) -> tuple[Num, Num]:
    """Recompute (sum of completions, makespan) from the action list alone.

    Validates the schedule structure on the way: actions contiguous from 0,
    tests take exactly one unit, at most one test per job and only before
    its execution, exactly one execution per job, no untested execution of
    a tested job.  The first offending action index is named in the error.
    """
    _, total, makespan = _replay(trace)
    return total, makespan


def check_trace_durations(trace: Trace, inst: Instance) -> None:
    """Check every action duration against the instance (replay validation)."""
    uppers, procs = inst.uppers(), inst.procs()
    for i, (kind, job, _start, dur) in enumerate(trace.steps):
        want = 1 if kind == TEST else procs[job] if kind == EXEC_TESTED else uppers[job]
        if not numbers_equal(dur, want):
            raise TraceError(f"action {i}: duration {dur} does not match {kind} of job {job} (expected {want})")


def build_trace(n: int, steps: Sequence[tuple]) -> Trace:
    """Assemble a Trace from (kind, job, start, dur) rows, validating it."""
    tr = Trace(n=n, steps=list(steps), completions=(), total=0, makespan=0)
    completions, tr.total, tr.makespan = _replay(tr)
    tr.completions = tuple(completions)
    return tr


# ---------------------------------------------------------------------------
# File formats.  Instances are a JSON array of {"upper":..,"proc":..}, traces
# are JSON lines {"t":..,"kind":..,"job":..,"dur":..}.  Exact mode reads every
# number as a Fraction.

_AS_FRACTIONS = {"parse_float": Fraction, "parse_int": Fraction}


def load_instance(path, exact: bool = False) -> Instance:
    with open(path) as f:
        raw = json.load(f, **(_AS_FRACTIONS if exact else {}))
    if not isinstance(raw, list):
        raise InstanceError("instance file must contain a JSON array of jobs")
    for i, row in enumerate(raw):
        if not isinstance(row, dict) or "upper" not in row or "proc" not in row:
            raise InstanceError(f"job {i}: expected an object with 'upper' and 'proc'")
        if "lower" in row:
            raise InstanceError(f"job {i}: unknown key 'lower' (a job has only 'upper' and 'proc')")
    return Instance.from_pairs((row["upper"], row["proc"]) for row in raw)


def dump_instance(inst: Instance, path) -> None:
    rows = [{"upper": _plain(u), "proc": _plain(p)} for u, p in zip(inst.uppers(), inst.procs())]
    with open(path, "w") as f:
        json.dump(rows, f, indent=1)
        f.write("\n")


def dump_trace(trace: Trace, path) -> None:
    with open(path, "w") as f:
        for kind, job, start, dur in trace.steps:
            f.write(json.dumps({"t": _plain(start), "kind": kind, "job": job, "dur": _plain(dur)}) + "\n")


def load_trace(path, n: int | None = None, exact: bool = False) -> Trace:
    steps = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line, **(_AS_FRACTIONS if exact else {}))
            steps.append((row["kind"], int(row["job"]) if exact else row["job"], row["t"], row["dur"]))
    if n is None:
        n = 1 + max((s[1] for s in steps), default=-1)
    return build_trace(n, steps)


def _plain(x: Num):
    """JSON-friendly number: ints stay ints, rationals become floats if needed."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else float(x)
    return x


@dataclass
class RatioReport:
    """Result of comparing an online algorithm against the offline optimum."""

    algorithm: str
    source: str
    n: int
    objective: str
    alg_cost: float
    opt_cost: float
    ratio: float
    trials: int | None = None
    stderr: float | None = None
    exact: bool = False
    seed: object = None

    def to_dict(self) -> dict:
        d = {
            "algorithm": self.algorithm,
            "source": self.source,
            "n": self.n,
            "objective": self.objective,
            "alg_cost": _plain(self.alg_cost),
            "opt_cost": _plain(self.opt_cost),
            "ratio": float(self.ratio),
            "exact": self.exact,
        }
        if self.trials is not None:
            d["trials"] = self.trials
        if self.stderr is not None:
            d["stderr"] = float(self.stderr)
        if self.seed is not None:
            d["seed"] = self.seed
        return d
