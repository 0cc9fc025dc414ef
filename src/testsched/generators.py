"""Instance generators: hard families, adversaries, and random mixes.

Fractional family sizes are rounded the same way everywhere: floor for
each named fraction, remainder to the residual (cheap) type, so closed
forms and simulations agree on the exact counts.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import analysis
from .core import Instance, InstanceError
from .engine import AdaptiveSource


def gen_threshold_worstcase(a, b, c, epsilon=1e-6):
    """Hard mixed-limit family for the threshold rule.

    c jobs just over the execution cutoff (limit 2 + epsilon, time 2 + epsilon)
    come first so their tests delay everyone, then b jobs exactly at the
    cutoff (limit 2, time 2), then a free jobs (limit 2, time 0).
    """
    if min(a, b, c) < 0 or a + b + c < 1:
        raise InstanceError(f"need nonnegative counts with a+b+c >= 1, got {(a, b, c)}")
    pairs = [(2 + epsilon, 2 + epsilon)] * c + [(2, 2)] * b + [(2, 0)] * a
    return Instance.from_pairs(pairs)


def _count(frac, n):
    """floor(frac * n), the one rounding of a family's fraction; InstanceError unless it is finite."""
    try:
        return math.floor(frac * n)
    except (ValueError, OverflowError):  # a NaN, an infinity, or an int too large for a float
        raise InstanceError(f"fraction {frac} of n={n} is not a finite number of jobs") from None


def four_type_counts(n, alpha, beta, gamma):
    """(zeros, at T, at E, deferred) counts used by the four-type family."""
    mt = _count(alpha, n)
    me = _count(beta, n)
    md = _count(gamma, n)
    m0 = n - mt - me - md
    if m0 < 0:
        raise InstanceError(f"fractions exceed 1: {(alpha, beta, gamma)}")
    return m0, mt, me, md


def gen_four_type(n, alpha, beta, gamma, T=None, E=None, epsilon=1e-6):
    """Four-type family the randomized tester is tuned against.

    Fractions of n: alpha at (limit T, time T), beta at (limit E, time E),
    gamma at (limit E + epsilon, time E + epsilon), remainder free at
    (limit T, time 0).  Everything has a limit at or above T, so the
    tester tests every job.
    """
    T = analysis.RANDOM_T_PUBLISHED if T is None else T
    E = analysis.RANDOM_E_PUBLISHED if E is None else E
    m0, mt, me, md = four_type_counts(n, alpha, beta, gamma)
    pairs = [(T, 0)] * m0 + [(T, T)] * mt + [(E, E)] * me + [(E + epsilon, E + epsilon)] * md
    return Instance.from_pairs(pairs)


def det_lb_adversary(n, delta, p_bar):
    """Adaptive reveal source for the deterministic lower bound.

    The first floor-free budget of delta * n touches made via a test come
    out at the full limit; every other touch comes out free.  Single-use,
    like any adaptive source.
    """
    if not (0 < delta <= 1) or p_bar <= 1 or n < 1:
        raise InstanceError(f"bad adversary parameters: n={n}, delta={delta}, p_bar={p_bar}")
    budget = delta * n

    def rule(job, via_test, rank, upper):
        if via_test and rank <= budget:
            return upper
        return 0

    return AdaptiveSource(rule)


def adversary_view(n, p_bar):
    """The public side of an adversary run: n identical upper limits."""
    return [p_bar] * n


def gen_rand_lb(n, q, seed, exact=False):
    """Random two-point instance behind the randomized lower bound.

    Every job has limit 1/q; its time is 0 with probability q and the full
    1/q otherwise.  With exact=True the values are Fractions.
    """
    if not 0 < q < 1:
        raise InstanceError(f"q must be in (0, 1), got {q}")
    rng = random.Random(seed)
    limit = Fraction(q) ** -1 if exact else 1 / q
    return Instance.from_pairs([(limit, 0 if rng.random() < q else limit) for _ in range(n)])


def gen_extreme_uniform(n, p_bar, gamma, placement="long_first"):
    """Two-point uniform-limit family: times are either 0 or the limit.

    gamma is the fraction of long jobs (time equal to the limit); placement
    picks where they sit in id order, which is what a tester meets first.
    """
    nlong = _count(gamma, n)
    if not 0 <= nlong <= n:
        raise InstanceError(f"bad long fraction {gamma} for n={n}")
    long_job = (p_bar, p_bar)
    zero_job = (p_bar, 0)
    if placement == "long_first":
        pairs = [long_job] * nlong + [zero_job] * (n - nlong)
    elif placement == "long_last":
        pairs = [zero_job] * (n - nlong) + [long_job] * nlong
    elif placement == "spread":
        # job i is long when floor(i * nlong / n) steps up at i + 1
        pairs = [long_job if (i + 1) * nlong // n > i * nlong // n else zero_job for i in range(n)]
    else:
        raise InstanceError(f"unknown placement {placement!r}")
    return Instance.from_pairs(pairs)


def gen_uniform_mixed(n, p_bar, long_frac=0.0, mid_frac=0.0, mid_value=None, middle=None):
    """Three-value uniform-limit family, ordered by decreasing time.

    long_frac of the jobs run at the full limit, mid_frac at mid_value
    (default max(1, limit - 1)), the rest at 0.  An optional single
    `middle` job with the given time is placed between longs and mids;
    it replaces one zero.
    """
    if mid_value is None:
        mid_value = max(1, p_bar - 1)
    if not 0 < mid_value <= p_bar:
        raise InstanceError(f"mid value {mid_value} outside (0, {p_bar}]")
    nlong = _count(long_frac, n)
    nmid = _count(mid_frac, n)
    nzero = n - nlong - nmid - (1 if middle is not None else 0)
    if nzero < 0:
        raise InstanceError(f"fractions exceed 1 for n={n}: {(long_frac, mid_frac)}")
    pairs = [(p_bar, p_bar)] * nlong
    if middle is not None:
        if not 0 <= middle <= p_bar:
            raise InstanceError(f"middle time {middle} outside [0, {p_bar}]")
        pairs.append((p_bar, middle))
    pairs += [(p_bar, mid_value)] * nmid + [(p_bar, 0)] * nzero
    return Instance.from_pairs(pairs)


def gen_random(n, seed, max_upper=4, exact=False, denominator=1000):
    """Unstructured random instance for stress tests.

    Limits are uniform in (0, max_upper], times uniform in [0, limit].
    exact=True draws everything on a 1/denominator grid as Fractions.
    """
    if n < 1:
        raise InstanceError(f"need n >= 1, got {n}")
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        if exact:
            num = rng.randrange(1, int(max_upper * denominator) + 1)
            u = Fraction(num, denominator)
            p = Fraction(rng.randrange(0, num + 1), denominator)
        else:
            u = rng.uniform(1e-3, max_upper)
            p = rng.uniform(0.0, u)
        pairs.append((u, p))
    return Instance.from_pairs(pairs)


GENERATORS = {
    "threshold_worstcase": gen_threshold_worstcase,
    "four_type": gen_four_type,
    "rand_lb": gen_rand_lb,
    "extreme_uniform": gen_extreme_uniform,
    "uniform_mixed": gen_uniform_mixed,
    "random": gen_random,
}
GENERATOR_NAMES = tuple(GENERATORS)


def build_instance(name, params):
    """Dispatch for the command line: generator name plus keyword params."""
    if name not in GENERATORS:
        raise InstanceError(f"unknown generator {name!r}; pick from {sorted(GENERATORS)}")
    try:
        return GENERATORS[name](**params)
    except TypeError as exc:
        raise InstanceError(f"bad parameters for {name}: {exc}") from exc
