"""Online strategies for the one-machine testing model.

Each strategy is a generator function over a view (n, upper_limits).  It
yields (kind, job) actions and receives the revealed processing time as
the value of a "test" yield; nothing else about the hidden times is
reachable from here, which is the whole point of the protocol.

Strategies are wrapped in OnlineAlgorithm records carrying a seedable
builder and, for a randomized rule, the closed form of its expected cost,
the only exact expectation the engine computes for it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from typing import Callable, Optional

from . import analysis
from .core import EXEC_TESTED, EXEC_UNTESTED, TEST, numbers_equal


class ConfigurationError(ValueError):
    """Bad algorithm name, parameter, or instance/algorithm mismatch."""


def _uniform_limit(uppers, who):
    """The common limit, `uppers[0]`; the others need only pass `numbers_equal`."""
    limit = uppers[0]
    if uppers.count(limit) == len(uppers):
        return limit
    for u in uppers[1:]:
        if not numbers_equal(u, limit):
            raise ConfigurationError(f"{who} needs a common upper limit on all jobs")
    return limit


# ---------------------------------------------------------------------------
# Test-then-defer rules, one body: run `blind` untested, then test each
# segment's `order` in turn, run a job at once when its revealed time is at
# most that segment's E, and defer the others to one shortest-first tail.
# The tail keeps each deferred job's revealed time and runs after the last
# test, in (p, id) order: the ids sorted, then stably by time.  As every id
# is distinct, that is the order in which a heap of (p, id) pairs would pop.
# E = inf runs every tested job at once, E = -1 defers every one.  Each rule
# is a choice of (blind, segments):
#   threshold    limits below 2 blind, then (the rest in id order, 2)
#   delay_all    limits below 2 blind, then (the rest in id order, -1); the
#                cautionary baseline, its ratio grows linearly with n
#   random[T,E]  limits below T blind, then (the rest shuffled, E)
#   ute[rho]     limit <= rho: all blind; else no blind, then (the first
#                k = ceil(max(0, beta) n), inf) and (the others, 0)
#   lb_schedule  the first floor(nu n) blind, then (the next floor(lam n),
#                inf), (up to job floor(delta n), -1) and (the others, inf)
#   combined     a common limit below T1: all blind (up to T2 it is beat,
#                above T2 threshold)


def _split(uppers, T):
    """(the ids of limits below T in (limit, id) order, the other ids in id order).

    The first list is the blind prefix a threshold-style rule runs untested up
    front: the ids are taken in ascending order, so one stable sort by limit
    gives the (limit, id) order.
    """
    blind = [j for j, u in enumerate(uppers) if u < T]
    blind.sort(key=uppers.__getitem__)
    return blind, [j for j in range(len(uppers)) if uppers[j] >= T]


def _blind_test_defer(blind, *segments):
    """Run `blind` untested, then test each (order, E), deferring revealed times above E."""
    for j in blind:
        yield EXEC_UNTESTED, j
    late = {}
    for order, E in segments:
        for j in order:
            p = yield TEST, j
            if p <= E:
                yield EXEC_TESTED, j
            else:
                late[j] = p
    for j in sorted(sorted(late), key=late.__getitem__):
        yield EXEC_TESTED, j


def threshold_generator(view):
    blind, rest = _split(view[1], 2)
    return _blind_test_defer(blind, (rest, 2))


def delay_all_generator(view):
    blind, rest = _split(view[1], 2)
    return _blind_test_defer(blind, (rest, -1))


def _seeded_shuffle(items, seed):
    """A list of `items` in the order `random.Random(seed).shuffle` leaves them.

    The same Fisher-Yates pass with the same draws: position i swaps with
    r < i + 1, r taken from `getrandbits(k)`, k = (i + 1).bit_length(), until
    it falls below i + 1, as `_randbelow_with_getrandbits` does.  k is fixed
    while i + 1 stays in [lo, 2 lo), so it is worked out once per such block,
    and a draw is one C call where `shuffle` makes a Python call to
    `_randbelow`.
    """
    x = list(items)
    getrandbits = random.Random(seed).getrandbits
    n = len(x)
    while n > 1:
        k = n.bit_length()
        lo = 1 << (k - 1)
        for i in range(n - 1, lo - 2, -1):
            r = getrandbits(k)
            while r > i:
                r = getrandbits(k)
            x[i], x[r] = x[r], x[i]
        n = lo - 1
    return x


def make_random_order(T, E):
    """(seed -> generator function, `expected_cost` hook) of random[T, E].

    A run takes the blind prefix, then the rest shuffled.  Every seed of one
    built rule, and its hook, share a one-entry memo of the last view's
    split.  Any run on a static source gets the instance's own column,
    whatever copy of it the caller passed (`StaticSource.begin`), so Monte
    Carlo trials on one instance split it once.  The memo keeps the limits
    tuple itself and serves only that object, so a tuple it no longer holds
    can never share its id; limits of any other type are split on every run,
    as a list may change between runs.  Each run shuffles its own copy of
    the rest with `_seeded_shuffle`, which gives `random.Random(seed).shuffle`'s
    order.

    The hook is (E[total], E[makespan], outcome count), by linearity.  The
    blind prefix ends at S.  A tested job's chunk c_j is 1 + p_j when it
    runs at once, else 1; L sums the chunks.  Each other chunk precedes c_j
    with probability 1/2, so a job run at once finishes on average at
    S + c_j + (L - c_j)/2.  The deferred tail runs shortest first from S + L.
    On int and Fraction columns both sums are Fractions; a float anywhere
    makes them floats.
    """
    if not 1 < T <= E:
        raise ConfigurationError(f"random rule needs 1 < T <= E, got T={T}, E={E}")
    last = (None, None)

    def split(uppers):
        nonlocal last
        held, parts = last
        if uppers is held:
            return parts
        parts = _split(uppers, T)
        if type(uppers) is tuple:
            last = (uppers, parts)
        return parts

    def build(seed):
        def gen(view):
            blind, rest = split(view[1])
            return _blind_test_defer(blind, (_seeded_shuffle(rest, seed), E))
        return gen

    def expected(uppers, procs):
        blind, rest = split(uppers)
        t = twice = 0  # twice the expected total keeps the halves whole
        for j in blind:
            t = t + uppers[j]
            twice = twice + 2 * t
        now = [1 + procs[j] for j in rest if procs[j] <= E]
        late = sorted(procs[j] for j in rest if not procs[j] <= E)
        chunks = sum(now)
        length = chunks + len(late)
        twice = twice + len(now) * (2 * t + length) + chunks
        t = t + length
        for p in late:
            t = t + p
            twice = twice + 2 * t
        count = math.factorial(len(rest)) if len(rest) < 19 else None  # 18! < 2**53 < 19!
        if isinstance(twice, float):
            return twice / 2, t, count
        return Fraction(twice, 2), Fraction(t), count
    return build, expected


# ---------------------------------------------------------------------------
# Balance rule for a common limit: spend tested-long credit on executing
# pending longs whenever the budget covers the cheapest one.


def beat_generator(view):
    n, uppers = view
    limit = _uniform_limit(uppers, "balance rule")
    cap = max(1, limit - 1)
    pending = []
    total_test = 0
    total_exec = 0
    nxt = 0
    while nxt < n or pending:
        if pending and (nxt == n or total_exec + pending[0][0] <= total_test):
            p, j = heappop(pending)
            yield EXEC_TESTED, j
            total_exec += p
        else:
            j = nxt
            nxt += 1
            p = yield TEST, j
            if p <= cap:
                yield EXEC_TESTED, j
            else:
                total_test += 1
                heappush(pending, (p, j))


# ---------------------------------------------------------------------------
# Combined rule: pick the regime by the common limit.


def make_combined(T1, T2):
    if not 1 < T1 <= T2:
        raise ConfigurationError(f"combined rule needs 1 < T1 <= T2, got {T1}, {T2}")

    def gen(view):
        limit = _uniform_limit(view[1], "combined rule")
        if limit < T1:
            return _blind_test_defer(range(view[0]))
        return beat_generator(view) if limit <= T2 else threshold_generator(view)
    return gen


# ---------------------------------------------------------------------------
# Extreme-uniform rule: either run everything blind, or test everything and
# run an immediate prefix regardless of what the tests reveal; after it only
# free jobs (p <= 0, that is p == 0) run at once.


def make_ute(rho):
    if not rho > 1:
        raise ConfigurationError(f"extreme-uniform rule needs rho > 1, got {rho}")

    def gen(view):
        n, uppers = view
        limit = _uniform_limit(uppers, "extreme-uniform rule")
        if limit <= rho:
            return _blind_test_defer(range(n))
        try:
            beta = analysis.ute_beta(rho, limit)
        except OverflowError:  # an exact limit past a float's range meets a float rho: work exactly
            beta = analysis.ute_beta(Fraction(rho), limit)
        k = math.ceil(max(0.0, beta) * n)
        return _blind_test_defer((), (range(k), math.inf), (range(k, n), 0))
    return gen


# ---------------------------------------------------------------------------
# Schedules played against the adaptive adversary: run a nu-fraction blind,
# test-and-run a lam-fraction, keep deferring tests until the adversary's
# long budget is spent (job j is touch j + 1, deferred while j < floor(delta
# n)), then everything else runs on the spot.


def make_lb_schedule(nu, lam, delta):
    if not (0 <= nu <= 1 and 0 <= lam <= 1 and 0 <= delta <= 1):
        raise ConfigurationError("nu, lam, delta must lie in [0, 1]")
    if nu + lam > 1:
        raise ConfigurationError("nu + lam must not exceed 1")

    def gen(view):
        n = view[0]
        a = math.floor(nu * n)
        b = min(a + math.floor(lam * n), n)
        d = min(max(b, math.floor(delta * n)), n)
        return _blind_test_defer(range(a), (range(a, b), math.inf), (range(b, d), -1),
                                 (range(d, n), math.inf))
    return gen


# ---------------------------------------------------------------------------
# Makespan rules: a single test either pays for itself or it does not, so
# the decision is per job and depends only on the limit.


def _per_job(flags):
    """Test job j and run it at once where flags[j], else run it blind."""
    for j, tested in enumerate(flags):
        if tested:
            yield TEST, j
            yield EXEC_TESTED, j
        else:
            yield EXEC_UNTESTED, j


def makespan_det_generator(view):
    return _per_job([u > analysis.GOLDEN_RATIO for u in view[1]])


def make_makespan_rand(seed):
    def gen(view):
        rng = random.Random(seed)
        probs = map(analysis.makespan_test_probability, view[1])
        return _per_job([q > 0 and rng.random() < q for q in probs])
    return gen


def makespan_rand_expected(uppers, procs):
    """The (E[total], E[makespan], outcome count) of makespan_rand, job by job.

    Job j takes 1 + p_j with its test probability q_j, else u_j, and sits in
    the n - j completions from its own on.  A job with q_j == 0 takes u_j as
    it is, so the float 0.0 never enters an exact sum.  The m jobs with a
    test coin give 2^m outcomes.
    """
    n = len(uppers)
    total = span = 0
    coins = 0
    for j in range(n):
        u = uppers[j]
        q = analysis.makespan_test_probability(u)
        if q == 0:
            d = u
        else:
            d = q * (1 + procs[j]) + (1 - q) * u
            coins += 1
        span = span + d
        total = total + (n - j) * d
    return total, span, 1 << coins if coins < 53 else None


# ---------------------------------------------------------------------------
# Wrapping and the registry.


@dataclass(frozen=True)
class OnlineAlgorithm:
    """A named strategy plus everything the engine needs to run it."""

    key: str
    label: str
    build: Callable[[Optional[object]], Callable]
    randomized: bool = False
    objective: str = "sum"
    params: dict = field(default_factory=dict)
    # (uppers, procs) -> (E[total], E[makespan], outcome count); a randomized
    # rule's exact expectation, exact on int and Fraction columns
    expected_cost: Optional[Callable] = None

    def generator(self, seed=None):
        """Generator function for one run; a randomized rule needs a seed."""
        if self.randomized and seed is None:
            raise ConfigurationError(f"{self.key}: randomized rule needs a seed")
        return self.build(seed)


# One row per rule: (label template over the parameters, parameter defaults,
# maker, randomized, objective).  `maker(**params)` checks the parameters and
# returns the generator function, or for a randomized rule the pair
# (seed -> generator function, `expected_cost` hook).
_RULES = {
    "threshold": ("threshold rule", {}, lambda: threshold_generator, False, "sum"),
    "delay_all": ("delay-everything rule", {}, lambda: delay_all_generator, False, "sum"),
    "random": ("random-order rule (T={T}, E={E})",
               {"T": analysis.RANDOM_T_PUBLISHED, "E": analysis.RANDOM_E_PUBLISHED},
               make_random_order, True, "sum"),
    "beat": ("balance rule", {}, lambda: beat_generator, False, "sum"),
    "combined": ("combined rule (T1={T1}, T2={T2})",
                 {"T1": analysis.COMBINED_T1_PUBLISHED, "T2": analysis.COMBINED_T2_PUBLISHED},
                 make_combined, False, "sum"),
    "ute": ("extreme-uniform rule (rho={rho})", {"rho": analysis.ute_rho_star()}, make_ute, False, "sum"),
    "lb_schedule": ("adversary schedule (nu={nu}, lam={lam}, delta={delta})",
                    {"nu": 0.0, "lam": 0.0, "delta": analysis.DET_LB_DELTA}, make_lb_schedule,
                    False, "sum"),
    "makespan_det": ("golden-ratio makespan rule", {}, lambda: makespan_det_generator, False, "makespan"),
    "makespan_rand": ("randomized makespan rule", {},
                      lambda: (make_makespan_rand, makespan_rand_expected), True, "makespan"),
}


def build_algorithm(name, params=None):
    """Construct a wrapped strategy from its `_RULES` row and parameters.

    Missing parameters take the row's defaults; the row's maker checks the
    values before any unknown parameter name is reported.
    """
    if name not in _RULES:
        raise ConfigurationError(f"unknown algorithm: {name!r}")
    label, defaults, maker, randomized, objective = _RULES[name]
    given = dict(params or {})
    values = {key: given.pop(key, default) for key, default in defaults.items()}
    made = maker(**values)
    if given:
        raise ConfigurationError(f"unknown parameters for {name}: {sorted(given)}")
    build, expected = made if randomized else ((lambda seed: made), None)
    return OnlineAlgorithm(name, label.format(**values), build, randomized, objective, values, expected)


SUM_ALGORITHM_NAMES = ("threshold", "delay_all", "random", "beat", "combined", "ute")


def parse_algorithm(text, exact=False):
    """Parse 'name' or 'name[k=v,...]' into a wrapped strategy.

    With exact=True numeric parameters become Fractions so comparisons
    against rational processing times stay exact.  A value that is no
    number, or a key given twice, is a ConfigurationError, as on `--param`.
    """
    text = text.strip()
    name, params = text, {}
    if "[" in text:
        if not text.endswith("]"):
            raise ConfigurationError(f"malformed algorithm spec: {text!r}")
        name, body = text[:-1].split("[", 1)
        for part in body.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ConfigurationError(f"expected key=value in {text!r}, got {part!r}")
            key, raw = (s.strip() for s in part.split("=", 1))
            if key in params:
                raise ConfigurationError(f"parameter {key!r} given twice")
            try:
                params[key] = Fraction(raw) if exact else float(raw)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigurationError(f"bad value for {key}: {raw!r}") from exc
    return build_algorithm(name, params)
