"""Pinned digests of every rule's schedules on seeded corpora.

`PINNED` covers the `repr` of each engine trace's steps, total and
makespan, the exact expectations for n <= 6, and the error text of rules
that reject an instance.  `PINNED_LB` covers the adversary schedules
`lb_schedule[nu,lam,delta]`, which that corpus skips: the steps and the
realized instance on static instances and against the adaptive adversary.
A refactor of the engine, the ledger or the strategy bodies must leave both
unchanged; a change of behaviour changes them.
"""

import hashlib
import random
from fractions import Fraction

from testsched.algorithms import ConfigurationError, build_algorithm, parse_algorithm
from testsched.analysis import DET_LB_DELTA, DET_LB_PBAR
from testsched.core import Instance
from testsched.engine import StaticSource, run, run_expected
from testsched.generators import det_lb_adversary

RULES = ("threshold", "delay_all", "random", "beat", "combined", "ute",
         "makespan_det", "makespan_rand")

# sha256 over outcome_lines() of the corpus below; any change of a schedule changes it
PINNED = "356dad7135d0ad82923174209cf67008f07aeb6cff5327a39f3d5f6d074de783"

# sha256 over lb_lines(); any change of an adversary schedule changes it
PINNED_LB = "9f6abbf562ee44ba357628a4393d0fc00c4055d0bbfdeffa91c6fdb362ae96bc"

LB_FRACTIONS = (0, 0.1, 0.25, 1 / 3, 0.5, DET_LB_DELTA, 0.75, 1)
LB_SIZES = tuple(range(1, 14)) + (40,)


def corpus(count=200):
    """Seeded float and Fraction instances, n <= 9, a third with a common limit."""
    rng = random.Random("trace-digest")
    out = []
    for k in range(count):
        n = rng.randint(1, 9)
        rational = k % 2 == 1
        uniform = k % 3 == 0
        common = rng.choice((1, 3, 5, 6, 7, 8, 10, 12, 14, 20)) / 4
        pairs = []
        for _ in range(n):
            u = common if uniform else rng.randint(1, 24) / 4
            p = rng.choice((0, u, rng.randint(0, int(u * 4)) / 4, rng.uniform(0, u)))
            if rational:
                u, p = Fraction(u), Fraction(p).limit_denominator(16)
                p = min(p, u)
            pairs.append((u, p))
        out.append(Instance.from_pairs(pairs))
    return out


def outcome_lines(inst, index):
    rational = isinstance(inst.jobs[0].upper, Fraction)
    for name in RULES:
        alg = parse_algorithm(name, exact=rational)
        seed = f"digest:{index}" if alg.randomized else None
        try:
            tr = run(alg.generator(seed), StaticSource(inst), inst.n, inst.uppers())
            yield f"{index} {name} run {tr.steps!r} {tr.total!r} {tr.makespan!r}"
        except ConfigurationError as exc:  # a rule that rejects the instance
            yield f"{index} {name} run {type(exc).__name__}: {exc}"
        if inst.n <= 6:
            try:
                res = run_expected(alg, StaticSource(inst), inst.n, inst.uppers(), exact=True)
                yield f"{index} {name} exact {res.total!r} {res.makespan!r} {res.trials}"
            except ConfigurationError as exc:
                yield f"{index} {name} exact {type(exc).__name__}: {exc}"


def pinned_repr(inst):
    """The instance in the text `PINNED_LB` was computed over.

    That text is the `repr` an instance had when it was a tuple of `Job`
    rows that carried a lower limit of 0; it is rebuilt here from the
    columns, so the digest still pins every limit and time of the instance.
    """
    rows = [f"Job(id={j}, upper={u!r}, proc={p!r}, lower=0)"
            for j, (u, p) in enumerate(zip(inst.uppers(), inst.procs()))]
    return f"Instance(jobs=({', '.join(rows)}{',' if len(rows) == 1 else ''}))"


def lb_lines():
    """lb_schedule on a quarter-grid static instance and on the adversary, per (nu, lam, delta, n).

    The static times repeat, so ties in the deferred tail are covered; the
    adversary plays at the schedule's own delta (DET_LB_DELTA when that is 0).
    """
    rng = random.Random("lb-digest")
    statics = {n: Instance.from_pairs([(2, rng.randint(0, 8) / 4) for _ in range(n)])
               for n in LB_SIZES}
    for nu in LB_FRACTIONS:
        for lam in LB_FRACTIONS:
            if nu + lam > 1:
                continue
            for delta in LB_FRACTIONS:
                alg = build_algorithm("lb_schedule", {"nu": nu, "lam": lam, "delta": delta})
                for n in LB_SIZES:
                    inst = statics[n]
                    tr = run(alg.generator(), StaticSource(inst), n, inst.uppers())
                    yield f"{nu} {lam} {delta} {n} static {tr.steps!r} {pinned_repr(inst)}"
                    source = det_lb_adversary(n, delta or DET_LB_DELTA, DET_LB_PBAR)
                    tr = run(alg.generator(), source, n, [DET_LB_PBAR] * n)
                    realized = pinned_repr(source.realized_instance())
                    yield f"{nu} {lam} {delta} {n} adversary {tr.steps!r} {realized}"


def sha256_lines(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def digest():
    return sha256_lines(line for index, inst in enumerate(corpus())
                        for line in outcome_lines(inst, index))


def test_traces_match_pinned_digest():
    assert digest() == PINNED


def test_lb_schedules_match_pinned_digest():
    assert sha256_lines(lb_lines()) == PINNED_LB
