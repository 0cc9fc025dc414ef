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
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
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


def _finite(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float, Fraction)):
        return False
    if isinstance(x, float):
        return math.isfinite(x)
    return True


class Job(NamedTuple):
    """One job.  `upper` is public, `proc` is hidden until tested.

    An immutable named tuple: it unpacks as (id, upper, proc, lower) and
    equals a plain tuple of the same values, but only a `Job` passes
    `validate_instance`.  The optional lower limit is accepted on input for
    completeness but no algorithm here uses it.
    """

    id: int
    upper: Num
    proc: Num
    lower: Num = 0


_UPPER, _PROC = itemgetter(1), itemgetter(2)


@dataclass(frozen=True)
class Instance:
    """Jobs with ids 0..n-1, checked once by `validate_instance` when built."""

    jobs: tuple[Job, ...]

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))  # a list could change after the check
        validate_instance(self)

    @property
    def n(self) -> int:
        return len(self.jobs)

    def uppers(self) -> tuple[Num, ...]:
        return tuple(map(_UPPER, self.jobs))

    def procs(self) -> tuple[Num, ...]:
        return tuple(map(_PROC, self.jobs))

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Num, Num]]) -> "Instance":
        """Build an instance from (upper, proc) pairs, ids in given order."""
        new = tuple.__new__  # what Job(i, u, p) runs, without its Python-level call
        return Instance(tuple([new(Job, (i, u, p, 0)) for i, (u, p) in enumerate(pairs)]))


_EXACT_TYPES = frozenset((int, float, Fraction))


def validate_instance(inst: Instance) -> None:
    """Raise InstanceError unless `inst` is well formed.

    Checks: every row a `Job`, at least one job, consecutive ids from 0,
    finite numeric values, 0 <= lower <= proc <= upper.  `Instance` calls
    this once, when built; the engine and the offline solvers rely on it.
    A `Job` of plain int, float or Fraction values passes on one chained
    comparison; any other row goes to `_check_job`, which names the fault.
    """
    if not isinstance(inst, Instance) or inst.n == 0:
        raise InstanceError("instance must contain at least one job")
    exact = _EXACT_TYPES
    inf = math.inf
    for i, job in enumerate(inst.jobs):
        if job.__class__ is Job:  # a plain 4-tuple unpacks too, but is no job
            jid, u, p, lo = job
            if (jid == i and type(u) in exact and type(p) in exact and type(lo) in exact
                    and 0 <= lo <= p <= u < inf):
                continue
        _check_job(i, job)


def _check_job(i: int, job: Job) -> None:
    """Per-field check of job `i`; raises InstanceError naming the first fault."""
    if not isinstance(job, Job):
        raise InstanceError(f"job {i}: not a Job")
    if job.id != i:
        raise InstanceError(f"job {i}: id {job.id} out of order (ids must be 0..n-1)")
    for name in ("upper", "proc", "lower"):
        if not _finite(getattr(job, name)):
            raise InstanceError(f"job {i}: {name} is not a finite number")
    if job.proc < 0 or job.lower < 0:
        raise InstanceError(f"job {i}: negative time")
    if job.proc > job.upper:
        raise InstanceError(f"job {i}: proc {job.proc} exceeds upper limit {job.upper}")
    if job.lower > job.proc:
        raise InstanceError(f"job {i}: lower limit {job.lower} exceeds proc {job.proc}")


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
    for i, (kind, job, _start, dur) in enumerate(trace.steps):
        if kind == TEST:
            want = 1
        elif kind == EXEC_TESTED:
            want = inst.jobs[job].proc
        else:
            want = inst.jobs[job].upper
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
# are JSON lines {"t":..,"kind":..,"job":..,"dur":..}.


def load_instance(path, exact: bool = False) -> Instance:
    with open(path) as f:
        if exact:
            raw = json.load(f, parse_float=Fraction, parse_int=Fraction)
        else:
            raw = json.load(f)
    if not isinstance(raw, list):
        raise InstanceError("instance file must contain a JSON array of jobs")
    jobs = []
    for i, row in enumerate(raw):
        if not isinstance(row, dict) or "upper" not in row or "proc" not in row:
            raise InstanceError(f"job {i}: expected an object with 'upper' and 'proc'")
        lower = row.get("lower", 0)
        jobs.append(Job(i, row["upper"], row["proc"], lower))
    return Instance(tuple(jobs))


def dump_instance(inst: Instance, path) -> None:
    rows = []
    for j in inst.jobs:
        row = {"upper": _plain(j.upper), "proc": _plain(j.proc)}
        if j.lower:
            row["lower"] = _plain(j.lower)
        rows.append(row)
    with open(path, "w") as f:
        json.dump(rows, f, indent=1)
        f.write("\n")


def dump_trace(trace: Trace, path) -> None:
    with open(path, "w") as f:
        for kind, job, start, dur in trace.steps:
            f.write(json.dumps({"t": _plain(start), "kind": kind, "job": job, "dur": _plain(dur)}))
            f.write("\n")


def load_trace(path, n: int | None = None, exact: bool = False) -> Trace:
    steps = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if exact:
                row = json.loads(line, parse_float=Fraction, parse_int=Fraction)
                row["job"] = int(row["job"])
            else:
                row = json.loads(line)
            steps.append((row["kind"], row["job"], row["t"], row["dur"]))
    if n is None:
        n = 1 + max((s[1] for s in steps), default=-1)
    return build_trace(n, steps)


def _plain(x: Num):
    """JSON-friendly number: ints stay ints, rationals become floats if needed."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return float(x)
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
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "algorithm": self.algorithm,
            "source": self.source,
            "n": self.n,
            "objective": self.objective,
            "alg_cost": _plain(self.alg_cost) if isinstance(self.alg_cost, Fraction) else self.alg_cost,
            "opt_cost": _plain(self.opt_cost) if isinstance(self.opt_cost, Fraction) else self.opt_cost,
            "ratio": float(self.ratio),
            "exact": self.exact,
        }
        if self.trials is not None:
            d["trials"] = self.trials
        if self.stderr is not None:
            d["stderr"] = float(self.stderr)
        if self.seed is not None:
            d["seed"] = self.seed
        d.update(self.extra)
        return d
