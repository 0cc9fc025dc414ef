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
import re
import sys
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

# The one schedule ledger: an entry per job, UNTOUCHED, DONE or, once the job is tested, any other
# value (the protocol loop keeps the revealed time there, `build_trace` the test's duration).
UNTOUCHED, DONE = object(), object()

REL_TOL = 1e-9  # float-mode comparison tolerance


class InstanceError(ValueError):
    """Malformed instance data."""


class TraceError(ValueError):
    """A trace violates the schedule structure."""


class InputFileError(ValueError):
    """A file that cannot be read, parsed or written, named with the line where there is one."""


def numbers_equal(a: Num, b: Num) -> bool:
    """Equality that is exact for rationals and tolerant for floats."""
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)
    return a == b


class Job(NamedTuple):
    """One job.  `upper` is public, `proc` is hidden until tested.

    The read-only row type of `Instance.jobs`; an immutable named tuple that
    equals a plain tuple of the same values.
    """

    id: int
    upper: Num
    proc: Num


class Instance:
    """Jobs 0..n-1 as two columns, `uppers` and `procs`, checked once, when built.

    `Instance(uppers, procs)` is the only constructor, and the generators call
    it with the columns they build; `from_pairs` is the convenience that
    transposes (upper, proc) pairs into it, for files and hand-written rows.
    `uppers()` and `procs()` return the columns, immutable tuples the engine
    trusts as checked, and `jobs` is a read-only view of them as `Job` rows,
    built on first use.
    """

    __slots__ = ("_uppers", "_procs", "_jobs")

    def __init__(self, uppers: Iterable[Num], procs: Iterable[Num]):
        self._uppers, self._procs = tuple(uppers), tuple(procs)  # a list could change after the check
        self._jobs = None
        validate_instance(self)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Num, Num]]) -> "Instance":
        """Build an instance from (upper, proc) pairs, ids in given order."""
        return cls(*(tuple(zip(*pairs, strict=True)) or ((), ())))

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
_FLOAT_MAX = sys.float_info.max


def validate_instance(inst: Instance) -> None:
    """Raise InstanceError unless `inst` is well formed.

    Checks: at least one job, equal column lengths, finite int, float or
    Fraction values (not bool), 0 <= proc <= upper and, in an instance with
    a float, no value past a float's range (its arithmetic is in floats).
    `Instance` calls this once, when built; the engine and the offline
    solvers rely on it.  It runs C-level passes over the columns (the `le`
    pass sees a NaN that `min` or `max` skip); if one fails, `_check_job`
    walks the jobs to name the first.
    """
    if not isinstance(inst, Instance) or not inst.n:
        raise InstanceError("instance must contain at least one job")
    uppers, procs = inst.uppers(), inst.procs()
    if len(procs) != len(uppers):
        raise InstanceError(f"{len(uppers)} upper limits but {len(procs)} processing times")
    types = {*map(type, uppers), *map(type, procs)}
    if not (types <= _NUMBER_TYPES and min(procs) >= 0 and (float not in types or max(uppers) <= _FLOAT_MAX)
            and all(map(le, procs, uppers))):
        most = _FLOAT_MAX if any(issubclass(t, float) for t in types) else math.inf
        for i, (upper, proc) in enumerate(zip(uppers, procs)):
            _check_job(i, upper, proc, most)


def is_finite_number(x) -> bool:
    """True for a finite int, float or Fraction; a bool is no number here.

    The one rule for a value in an instance, a run's view or an adversary's answer.
    """
    return (isinstance(x, (int, float, Fraction)) and not isinstance(x, bool)
            and (not isinstance(x, float) or math.isfinite(x)))


def _check_job(i: int, upper: Num, proc: Num, most: Num = math.inf) -> None:
    """Per-field check of job `i`, whose values may not exceed `most`; raises
    InstanceError naming the first fault."""
    for name, x in (("upper", upper), ("proc", proc)):
        if not is_finite_number(x):
            raise InstanceError(f"job {i}: {name} is not a finite number")
        if x > most:
            raise InstanceError(f"job {i}: {name} is past a float's range, in an instance with floats")
    if upper < 0:
        raise InstanceError(f"job {i}: negative upper limit {upper}")
    if proc < 0:
        raise InstanceError(f"job {i}: negative time")
    if proc > upper:
        raise InstanceError(f"job {i}: proc {proc} exceeds upper limit {upper}")


@dataclass
class Trace:
    """A complete schedule: contiguous actions from time 0 plus aggregates."""

    n: int
    steps: list[tuple]  # (kind, job, start, dur)
    completions: tuple[Num, ...]
    total: Num
    makespan: Num


def action_fault(kind, job, entry) -> str:
    """Name the schedule rule that action `kind` on `job` breaks at its ledger `entry`."""
    if kind not in KINDS:
        return f"unknown kind {kind!r}"
    if kind == TEST:
        return f"job {job} tested after execution" if entry is DONE else f"job {job} tested twice"
    if entry is DONE:
        return f"job {job} executed twice"
    if kind == EXEC_TESTED:
        return f"job {job} executed as tested before its test"
    return f"job {job} executed untested after its test"


def build_trace(n: int, steps: Sequence[tuple]) -> Trace:
    """Assemble a Trace from (kind, job, start, dur) rows, validating it.

    Checks the schedule structure: actions contiguous from 0, tests take
    exactly one unit, at most one test per job and only before its
    execution, exactly one execution per job, no untested execution of a
    tested job.  The first offending action index is named in the error.
    """
    steps = list(steps)
    ledger = [UNTOUCHED] * n
    completions: list = [None] * n
    t: Num = 0
    for i, (kind, job, start, dur) in enumerate(steps):
        if type(job) is not int or not 0 <= job < n:  # a bool is no job id
            raise TraceError(f"action {i}: unknown job id {job!r}")
        if not numbers_equal(start, t):
            raise TraceError(f"action {i}: starts at {start}, schedule time is {t} (gap or overlap)")
        if dur < 0:
            raise TraceError(f"action {i}: negative duration")
        s = ledger[job]
        if kind == TEST and s is UNTOUCHED:
            if not numbers_equal(dur, 1):
                raise TraceError(f"action {i}: test duration {dur} != 1")
            ledger[job] = dur
        elif kind == (EXEC_UNTESTED if s is UNTOUCHED else EXEC_TESTED) and s is not DONE:
            ledger[job] = DONE
            completions[job] = start + dur
        else:
            raise TraceError(f"action {i}: {action_fault(kind, job, s)}")
        t = start + dur
    for j in range(n):
        if ledger[j] is not DONE:
            raise TraceError(f"job {j} never executed")
    return Trace(n, steps, tuple(completions), sum(completions), t)


def cost_of_trace(trace: Trace) -> tuple[Num, Num]:
    """Recompute (sum of completions, makespan) from the action list alone, checked as in build_trace."""
    replayed = build_trace(trace.n, trace.steps)
    return replayed.total, replayed.makespan


def check_trace_durations(trace: Trace, inst: Instance) -> None:
    """Check every action duration against the instance (replay validation)."""
    uppers, procs = inst.uppers(), inst.procs()
    for i, (kind, job, _start, dur) in enumerate(trace.steps):
        want = 1 if kind == TEST else procs[job] if kind == EXEC_TESTED else uppers[job]
        if not numbers_equal(dur, want):
            raise TraceError(f"action {i}: duration {dur} does not match {kind} of job {job} (expected {want})")


# ---------------------------------------------------------------------------
# File formats.  Instances are a JSON array of {"upper":..,"proc":..}, traces
# are JSON lines {"t":..,"kind":..,"job":..,"dur":..}, and a row with any other key
# is bad input.  Exact mode reads each number of an instance, and each fractional
# number of a trace, as a Fraction.

_AS_FRACTIONS = {"parse_float": Fraction, "parse_int": Fraction}
_RATIO = re.compile(r"-?[0-9]+/[0-9]+")


def _read(path) -> str:
    try:
        with open(path) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _number(x, exact: bool):
    """A "p/q" string (see `_plain`) as its Fraction in exact mode, else its nearest float; else `x`."""
    if type(x) is str and _RATIO.fullmatch(x):
        try:
            x = Fraction(x) if exact else float(Fraction(x))
        except (ValueError, ArithmeticError):  # over the digit limit, a zero denominator, past a float
            pass
    return x


def load_instance(path, exact: bool = False) -> Instance:
    """Read an instance file: JSON numbers as written (all Fractions in exact mode), "p/q" by `_number`."""
    text = _read(path)  # before the parse, so a missing file is not named a bad document
    try:
        raw = json.loads(text, **(_AS_FRACTIONS if exact else {}))
    except json.JSONDecodeError as exc:
        raise InputFileError(f"{path}: not a JSON document ({exc})") from exc
    except ValueError as exc:  # an integer literal over Python's digit limit
        raise InputFileError(f"{path}: {exc}") from exc
    if not isinstance(raw, list):
        raise InstanceError("instance file must contain a JSON array of jobs")
    for i, row in enumerate(raw):
        if not isinstance(row, dict) or "upper" not in row or "proc" not in row:
            raise InstanceError(f"job {i}: expected an object with 'upper' and 'proc'")
        if (key := next((k for k in row if k not in ("upper", "proc")), None)) is not None:
            raise InstanceError(f"job {i}: unknown key {key!r} (a job has only 'upper' and 'proc')")
    return Instance.from_pairs((_number(row["upper"], exact), _number(row["proc"], exact)) for row in raw)


def instance_text(inst: Instance) -> str:
    """The text of an instance file, every number written by `_plain`."""
    rows = [{"upper": _plain(u), "proc": _plain(p)} for u, p in zip(inst.uppers(), inst.procs())]
    return json.dumps(rows, indent=1) + "\n"


def trace_text(trace: Trace) -> str:
    """The text of a trace file: one JSON line per step, every number written by `_plain`."""
    return "".join(json.dumps({"t": _plain(start), "kind": kind, "job": job, "dur": _plain(dur)}) + "\n"
                   for kind, job, start, dur in trace.steps)


def load_trace(path, n: int, exact: bool = False) -> Trace:
    """Read a trace file and replay it as a run on n jobs; "p/q" times by `_number`, each time finite
    (`is_finite_number`: JSON's NaN and Infinity are bad input), a job id a JSON integer in either mode."""
    steps = []
    for lineno, line in enumerate(_read(path).split("\n"), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line, parse_float=Fraction if exact else float)
            t, kind, job, dur = _number(row["t"], exact), row["kind"], row["job"], _number(row["dur"], exact)
            ok = is_finite_number(t) and is_finite_number(dur)
        except (ValueError, TypeError, KeyError):
            ok = False
        if not ok:
            raise InputFileError(f"{path}, line {lineno}: expected a JSON object with "
                                  "numbers 't' and 'dur', a 'kind' and a 'job'")
        if (key := next((k for k in row if k not in ("t", "kind", "job", "dur")), None)) is not None:
            raise InputFileError(f"{path}, line {lineno}: unknown key {key!r}"
                                 " (a trace line has only 't', 'kind', 'job' and 'dur')")
        if exact and type(job) is not int:  # name it as float mode does, not as a Fraction
            job = json.loads(line)["job"]
        steps.append((kind, job, t, dur))
    return build_trace(n, steps)


def _plain(x: Num):
    """A number as an instance or trace file writes it, so that it reads back equal: an int or
    float as it is, a whole Fraction as an int, any other as the float whose repr is exactly it
    (5/2 is 2.5) or, where there is none, the string "p/q" (1/3 is "1/3")."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return x.numerator
        try:
            f = float(x)
        except OverflowError:
            return str(x)
        return f if Fraction(repr(f)) == x else str(x)
    return x
