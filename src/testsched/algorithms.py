"""Online strategies for the one-machine testing model.

Each strategy is a generator function over a view (n, upper_limits).  It
yields (kind, job) actions and receives the revealed processing time as
the value of a "test" yield; nothing else about the hidden times is
reachable from here, which is the whole point of the protocol.

Strategies are wrapped in OnlineAlgorithm records carrying a seedable
builder and, where meaningful, an exact enumeration of random outcomes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from itertools import permutations, product
from typing import Callable, Optional

from . import analysis
from .core import EXEC_TESTED, EXEC_UNTESTED, TEST, numbers_equal

DEFAULT_RANDOM_T = analysis.RANDOM_T_PUBLISHED
DEFAULT_RANDOM_E = analysis.RANDOM_E_PUBLISHED
DEFAULT_COMBINED_T1 = analysis.COMBINED_T1_PUBLISHED
DEFAULT_COMBINED_T2 = analysis.COMBINED_T2_PUBLISHED
DEFAULT_UTE_RHO = analysis.ute_rho_star()


class ConfigurationError(ValueError):
    """Bad algorithm name, parameter, or instance/algorithm mismatch."""


def small_limit_prefix(uppers, cutoff):
    """Ids whose limit is strictly below cutoff, ordered by (limit, id).

    These are the jobs a threshold-style strategy runs untested up front.
    """
    pairs = sorted((uppers[j], j) for j in range(len(uppers)) if uppers[j] < cutoff)
    return [j for _, j in pairs]


def _uniform_limit(uppers, who):
    limit = uppers[0]
    for u in uppers[1:]:
        if not numbers_equal(u, limit):
            raise ConfigurationError(f"{who} needs a common upper limit on all jobs")
    return limit


def _drain(deferred):
    while deferred:
        _, j = heappop(deferred)
        yield EXEC_TESTED, j


# ---------------------------------------------------------------------------
# Threshold rule: run limits below 2 blind, test the rest, defer anything
# whose revealed time exceeds 2.


def threshold_generator(view):
    n, uppers = view
    blind = small_limit_prefix(uppers, 2)
    for j in blind:
        yield EXEC_UNTESTED, j
    skip = set(blind)
    deferred = []
    for j in range(n):
        if j in skip:
            continue
        p = yield TEST, j
        if p <= 2:
            yield EXEC_TESTED, j
        else:
            heappush(deferred, (p, j))
    yield from _drain(deferred)


# ---------------------------------------------------------------------------
# Delay-everything variant: same blind prefix, but no execution happens
# until every remaining job has been tested.  Kept as the cautionary
# baseline; its ratio grows linearly with n.


def delay_all_generator(view):
    n, uppers = view
    blind = small_limit_prefix(uppers, 2)
    for j in blind:
        yield EXEC_UNTESTED, j
    skip = set(blind)
    deferred = []
    for j in range(n):
        if j in skip:
            continue
        p = yield TEST, j
        heappush(deferred, (p, j))
    yield from _drain(deferred)


# ---------------------------------------------------------------------------
# Randomized tester: thresholds (T, E), uniformly random test order.


def make_random_order(T, E):
    def build(seed):
        def gen(view):
            n, uppers = view
            blind = small_limit_prefix(uppers, T)
            for j in blind:
                yield EXEC_UNTESTED, j
            rest = [j for j in range(n) if uppers[j] >= T]
            random.Random(seed).shuffle(rest)
            yield from _test_run_defer(rest, E)
        return gen
    return build


def _test_run_defer(order, exec_cutoff):
    deferred = []
    for j in order:
        p = yield TEST, j
        if p <= exec_cutoff:
            yield EXEC_TESTED, j
        else:
            heappush(deferred, (p, j))
    yield from _drain(deferred)


def make_random_order_exact(T, E):
    def outcomes(n, uppers):
        blind = small_limit_prefix(uppers, T)
        rest = [j for j in range(n) if uppers[j] >= T]
        weight = Fraction(1, math.factorial(len(rest)))

        def fixed(order):
            def gen(view):
                for j in blind:
                    yield EXEC_UNTESTED, j
                yield from _test_run_defer(order, E)
            return gen

        for perm in permutations(rest):
            yield weight, fixed(perm)
    return outcomes


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
        if pending and total_exec + pending[0][0] <= total_test:
            p, j = heappop(pending)
            yield EXEC_TESTED, j
            total_exec += p
        elif nxt < n:
            j = nxt
            nxt += 1
            p = yield TEST, j
            if p <= cap:
                yield EXEC_TESTED, j
            else:
                total_test += 1
                heappush(pending, (p, j))
        else:
            p, j = heappop(pending)
            yield EXEC_TESTED, j
            total_exec += p


# ---------------------------------------------------------------------------
# Combined rule: pick the regime by the common limit.


def make_combined(t1, t2):
    def gen(view):
        n, uppers = view
        limit = _uniform_limit(uppers, "combined rule")
        if limit < t1:
            for j in range(n):
                yield EXEC_UNTESTED, j
        elif limit <= t2:
            yield from beat_generator(view)
        else:
            yield from threshold_generator(view)
    return gen


# ---------------------------------------------------------------------------
# Extreme-uniform rule: either run everything blind, or test everything
# and run an immediate prefix regardless of what the tests reveal.


def make_ute(rho):
    def gen(view):
        n, uppers = view
        limit = _uniform_limit(uppers, "extreme-uniform rule")
        if limit <= rho:
            for j in range(n):
                yield EXEC_UNTESTED, j
            return
        beta = analysis.ute_beta(rho, limit)
        immediate = math.ceil(max(0.0, beta) * n)
        deferred = []
        for j in range(n):
            p = yield TEST, j
            if j < immediate or p == 0:
                yield EXEC_TESTED, j
            else:
                heappush(deferred, (p, j))
        yield from _drain(deferred)
    return gen


# ---------------------------------------------------------------------------
# Schedules played against the adaptive adversary: run a nu-fraction blind,
# test-and-run a lam-fraction, keep deferring tests until the adversary's
# long budget is spent, then everything else runs on the spot.


def make_lb_schedule(nu, lam, delta):
    if not (0 <= nu <= 1 and 0 <= lam <= 1 and 0 <= delta <= 1):
        raise ConfigurationError("nu, lam, delta must lie in [0, 1]")
    if nu + lam > 1:
        raise ConfigurationError("nu + lam must not exceed 1")

    def gen(view):
        n, _ = view
        m_nu = math.floor(nu * n)
        m_lam = math.floor(lam * n)
        m_delta = math.floor(delta * n)
        touches = 0
        deferred = []
        for j in range(m_nu):
            touches += 1
            yield EXEC_UNTESTED, j
        for j in range(m_nu, min(m_nu + m_lam, n)):
            touches += 1
            yield TEST, j
            yield EXEC_TESTED, j
        for j in range(min(m_nu + m_lam, n), n):
            touches += 1
            p = yield TEST, j
            if touches <= m_delta:
                heappush(deferred, (p, j))
            else:
                yield EXEC_TESTED, j
        yield from _drain(deferred)
    return gen


# ---------------------------------------------------------------------------
# Makespan rules: a single test either pays for itself or it does not, so
# the decision is per job and depends only on the limit.


def makespan_det_generator(view):
    n, uppers = view
    for j in range(n):
        if uppers[j] > analysis.GOLDEN_RATIO:
            yield TEST, j
            yield EXEC_TESTED, j
        else:
            yield EXEC_UNTESTED, j


def make_makespan_rand(seed):
    def gen(view):
        n, uppers = view
        rng = random.Random(seed)
        for j in range(n):
            q = analysis.makespan_test_probability(uppers[j])
            if q > 0 and rng.random() < q:
                yield TEST, j
                yield EXEC_TESTED, j
            else:
                yield EXEC_UNTESTED, j
    return gen


def makespan_rand_exact(n, uppers):
    per_job = []
    for j in range(n):
        q = analysis.makespan_test_probability(uppers[j])
        if q == 0:
            per_job.append(((1, False),))
        else:
            per_job.append(((q, True), (1 - q, False)))

    def fixed(flags):
        def gen(view):
            for j, tested in enumerate(flags):
                if tested:
                    yield TEST, j
                    yield EXEC_TESTED, j
                else:
                    yield EXEC_UNTESTED, j
        return gen

    for combo in product(*per_job):
        weight = 1
        flags = []
        for w, tested in combo:
            weight = weight * w
            flags.append(tested)
        yield weight, fixed(tuple(flags))


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
    exact: Optional[Callable] = None

    def generator(self, seed=None):
        """Generator function for one run; a randomized rule needs a seed."""
        if self.randomized and seed is None:
            raise ConfigurationError(f"{self.key}: randomized rule needs a seed")
        return self.build(seed)

    def exact_outcomes(self, n, uppers):
        """Iterable of (weight, generator function) covering all outcomes."""
        if self.exact is not None:
            return self.exact(n, uppers)
        return [(1, self.build(None))]


def _fixed(gen_fn):
    return lambda seed: gen_fn


def build_algorithm(name, params=None):
    """Construct a wrapped strategy from its registry name and parameters."""
    params = dict(params or {})

    def take(key, default):
        return params.pop(key, default)

    def done(alg):
        if params:
            raise ConfigurationError(f"unknown parameters for {name}: {sorted(params)}")
        return alg

    if name == "threshold":
        return done(OnlineAlgorithm("threshold", "threshold rule", _fixed(threshold_generator)))
    if name == "delay_all":
        return done(OnlineAlgorithm("delay_all", "delay-everything rule", _fixed(delay_all_generator)))
    if name == "random":
        T = take("T", DEFAULT_RANDOM_T)
        E = take("E", DEFAULT_RANDOM_E)
        if not 1 < T <= E:
            raise ConfigurationError(f"random rule needs 1 < T <= E, got T={T}, E={E}")
        return done(OnlineAlgorithm(
            "random", f"random-order rule (T={T}, E={E})", make_random_order(T, E),
            randomized=True, params={"T": T, "E": E}, exact=make_random_order_exact(T, E),
        ))
    if name == "beat":
        return done(OnlineAlgorithm("beat", "balance rule", _fixed(beat_generator)))
    if name == "combined":
        t1 = take("T1", DEFAULT_COMBINED_T1)
        t2 = take("T2", DEFAULT_COMBINED_T2)
        if not 1 < t1 <= t2:
            raise ConfigurationError(f"combined rule needs 1 < T1 <= T2, got {t1}, {t2}")
        return done(OnlineAlgorithm(
            "combined", f"combined rule (T1={t1}, T2={t2})", _fixed(make_combined(t1, t2)),
            params={"T1": t1, "T2": t2},
        ))
    if name == "ute":
        rho = take("rho", DEFAULT_UTE_RHO)
        if not rho > 1:
            raise ConfigurationError(f"extreme-uniform rule needs rho > 1, got {rho}")
        return done(OnlineAlgorithm(
            "ute", f"extreme-uniform rule (rho={rho})", _fixed(make_ute(rho)),
            params={"rho": rho},
        ))
    if name == "lb_schedule":
        nu = take("nu", 0.0)
        lam = take("lam", 0.0)
        delta = take("delta", analysis.DET_LB_DELTA)
        return done(OnlineAlgorithm(
            "lb_schedule", f"adversary schedule (nu={nu}, lam={lam}, delta={delta})",
            _fixed(make_lb_schedule(nu, lam, delta)),
            params={"nu": nu, "lam": lam, "delta": delta},
        ))
    if name == "makespan_det":
        return done(OnlineAlgorithm(
            "makespan_det", "golden-ratio makespan rule", _fixed(makespan_det_generator),
            objective="makespan",
        ))
    if name == "makespan_rand":
        return done(OnlineAlgorithm(
            "makespan_rand", "randomized makespan rule", make_makespan_rand,
            randomized=True, objective="makespan", exact=makespan_rand_exact,
        ))
    raise ConfigurationError(f"unknown algorithm: {name!r}")


ALGORITHM_NAMES = (
    "threshold", "delay_all", "random", "beat", "combined", "ute",
    "lb_schedule", "makespan_det", "makespan_rand",
)

SUM_ALGORITHM_NAMES = ("threshold", "delay_all", "random", "beat", "combined", "ute")


def parse_algorithm(text, exact=False):
    """Parse 'name' or 'name[k=v,...]' into a wrapped strategy.

    With exact=True numeric parameters become Fractions so comparisons
    against rational processing times stay exact.
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
            try:
                params[key] = Fraction(raw) if exact else float(raw)
            except ValueError as exc:
                raise ConfigurationError(f"bad value for {key}: {raw!r}") from exc
    return build_algorithm(name, params)
