"""Pinned digest of every rule's schedules on a seeded corpus.

The digest covers the `repr` of each engine trace's steps, total and
makespan, the exact expectations for n <= 6, and the error text of rules
that reject an instance.  A refactor of the engine, the ledger or the
strategy bodies must leave it unchanged; a change of behaviour changes it.
"""

import hashlib
import random
from fractions import Fraction

from testsched.algorithms import ConfigurationError, parse_algorithm
from testsched.core import Instance
from testsched.engine import StaticSource, run, run_expected

RULES = ("threshold", "delay_all", "random", "beat", "combined", "ute",
         "makespan_det", "makespan_rand")

# sha256 over outcome_lines() of the corpus below; any change of a schedule changes it
PINNED = "06397ca31c13bae0ebbc44ba23b23a58a074076db2964678a6612d24ff5f79bf"


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
                res = run_expected(alg, lambda: StaticSource(inst), inst.n, inst.uppers(),
                                   exact=True)
                yield f"{index} {name} exact {res.total!r} {res.makespan!r} {res.trials}"
            except ConfigurationError as exc:
                yield f"{index} {name} exact {type(exc).__name__}: {exc}"


def digest():
    h = hashlib.sha256()
    for index, inst in enumerate(corpus()):
        for line in outcome_lines(inst, index):
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()


def test_traces_match_pinned_digest():
    assert digest() == PINNED
