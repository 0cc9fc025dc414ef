"""Instance generators: hard families, adversaries, and random mixes.

Fractional family sizes are rounded the same way everywhere: floor for
each named fraction, remainder to the residual (cheap) type, so closed
forms and simulations agree on the exact counts.  A count (n, or a, b
and c, and their sum) must be a whole number no larger than `sys.maxsize`
(`_whole`), checked before any column is built; the fractions of n are
counted first, so a fraction's own check names an n that it cannot count.

Each generator builds the two columns of its instance, the limits and the
times, and passes them to `Instance`, which checks them once: a repeated
tuple per block of equal values, or one list where the values vary.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

from . import analysis
from .core import Instance, InstanceError, is_finite_number
from .engine import AdaptiveSource


def gen_threshold_worstcase(a, b, c, epsilon=1e-6):
    """Hard mixed-limit family for the threshold rule.

    c jobs just over the execution cutoff (limit 2 + epsilon, time 2 + epsilon)
    come first so their tests delay everyone, then b jobs exactly at the
    cutoff (limit 2, time 2), then a free jobs (limit 2, time 0).
    """
    a, b, c = _whole("a", a, 0), _whole("b", b, 0), _whole("c", c, 0)
    if a + b + c < 1:
        raise InstanceError(f"need a+b+c >= 1, got {(a, b, c)}")
    if a + b + c > sys.maxsize:
        raise InstanceError(f"a+b+c must be at most {sys.maxsize}, got {a + b + c}")
    over = 2 + epsilon
    return Instance((over,) * c + (2,) * (b + a), (over,) * c + (2,) * b + (0,) * a)


def _whole(name, x, least):
    """Parameter `name` as an int; InstanceError unless x is a whole number >= least:
    an int, or a float or Fraction equal to one (a sweep's axis values are floats).
    A count above `sys.maxsize` is refused too: no column of that many jobs fits
    a machine index."""
    try:
        k = int(x)
    except (TypeError, ValueError, OverflowError):  # not a number, a NaN or an infinity
        k = None
    if k is None or k != x or k < least or isinstance(x, bool):
        raise InstanceError(f"{name} must be a whole number >= {least}, got {x}")
    if k > sys.maxsize:
        raise InstanceError(f"{name} must be at most {sys.maxsize}, got {x}")
    return k


def _count(frac, n):
    """floor(frac * n), the one rounding of a family's fraction; InstanceError unless it is finite."""
    try:
        return math.floor(frac * n)
    except (ValueError, OverflowError):  # a NaN, an infinity, or an int too large for a float
        raise InstanceError(f"fraction {frac} of n={n} is not a finite number of jobs") from None


def _family_count(frac, n):
    """`_count` of a named family; InstanceError if it is below 0 jobs."""
    k = _count(frac, n)
    if k < 0:
        raise InstanceError(f"fraction {frac} of n={n} is a negative number of jobs ({k})")
    return k


def four_type_counts(n, alpha, beta, gamma):
    """(zeros, at T, at E, deferred) counts used by the four-type family."""
    mt = _family_count(alpha, n)
    me = _family_count(beta, n)
    md = _family_count(gamma, n)
    m0 = _whole("n", n, 1) - mt - me - md
    if m0 < 0:
        raise InstanceError(f"fractions exceed 1: {(alpha, beta, gamma)}")
    return m0, mt, me, md


def gen_four_type(n, alpha, beta, gamma, T=None, E=None, epsilon=1e-6):
    """Four-type family the randomized tester is tuned against.

    Fractions of n: alpha at (limit T, time T), beta at (limit E, time E),
    gamma at (limit E + epsilon, time E + epsilon), remainder free at
    (limit T, time 0).  Everything has a limit at or above T, so the
    tester tests every job; T > E or epsilon <= 0 is refused.
    """
    T = analysis.RANDOM_T_PUBLISHED if T is None else T
    E = analysis.RANDOM_E_PUBLISHED if E is None else E
    if not (T <= E and epsilon > 0):
        raise InstanceError(f"four_type needs T <= E and epsilon > 0, "
                            f"got T={T}, E={E}, epsilon={epsilon}")
    m0, mt, me, md = four_type_counts(n, alpha, beta, gamma)
    over = E + epsilon
    return Instance((T,) * (m0 + mt) + (E,) * me + (over,) * md,
                    (0,) * m0 + (T,) * mt + (E,) * me + (over,) * md)


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
    """The public side of an adversary run: n identical upper limits, n a count (`_whole`)."""
    return [p_bar] * _whole("n", n, 1)


def gen_rand_lb(n, q, seed):
    """Random two-point instance behind the randomized lower bound.

    Every job has limit 1/q; its time is 0 with probability q and the full
    1/q otherwise.  A Fraction q, as `--mode rational` reads it, gives
    Fraction values.
    """
    if not 0 < q < 1:
        raise InstanceError(f"q must be in (0, 1), got {q}")
    n = _whole("n", n, 1)
    rng = random.Random(seed)
    limit = 1 / q
    procs = [limit] * n
    for j in range(n):
        if rng.random() < q:
            procs[j] = 0
    return Instance((limit,) * n, procs)


def gen_extreme_uniform(n, p_bar, gamma, placement="long_first"):
    """Two-point uniform-limit family: times are either 0 or the limit.

    gamma is the fraction of long jobs (time equal to the limit); placement
    picks where they sit in id order, which is what a tester meets first.
    """
    nlong = _count(gamma, n)
    n = _whole("n", n, 1)
    if not 0 <= nlong <= n:
        raise InstanceError(f"bad long fraction {gamma} for n={n}")
    if placement == "long_first":
        procs = (p_bar,) * nlong + (0,) * (n - nlong)
    elif placement == "long_last":
        procs = (0,) * (n - nlong) + (p_bar,) * nlong
    elif placement == "spread":
        # job i is long when floor(i * nlong / n) steps up at i + 1: the m-th step is at (m * n - 1) // nlong
        procs = [0] * n
        for m in range(1, nlong + 1):
            procs[(m * n - 1) // nlong] = p_bar
    else:
        raise InstanceError(f"unknown placement {placement!r}")
    return Instance((p_bar,) * n, procs)


def gen_uniform_mixed(n, p_bar, long_frac=0.0, mid_frac=0.0, mid_value=None):
    """Three-value uniform-limit family, ordered by decreasing time.

    long_frac of the jobs run at the full limit, mid_frac at mid_value
    (default max(1, limit - 1)), the rest at 0.
    """
    if mid_value is None:
        mid_value = max(1, p_bar - 1)
    if not 0 < mid_value <= p_bar:
        raise InstanceError(f"mid value {mid_value} outside (0, {p_bar}]")
    nlong = _family_count(long_frac, n)
    nmid = _family_count(mid_frac, n)
    n = _whole("n", n, 1)
    nzero = n - nlong - nmid
    if nzero < 0:
        raise InstanceError(f"fractions exceed 1 for n={n}: {(long_frac, mid_frac)}")
    procs = (p_bar,) * nlong + (mid_value,) * nmid + (0,) * nzero
    return Instance((p_bar,) * n, procs)


def gen_random(n, seed, max_upper=4, exact=False, denominator=1000):
    """Unstructured random instance for stress tests.

    Limits are uniform in [1e-3, max_upper], times uniform in [0, limit].
    exact=True draws everything on a 1/denominator grid as Fractions; then
    denominator is an int >= 1 with max_upper * denominator >= 1.
    """
    n = _whole("n", n, 1)
    if not (is_finite_number(max_upper) and max_upper >= 1e-3):
        raise InstanceError(f"max_upper must be a finite number >= 1e-3, got {max_upper}")
    if exact:
        try:
            top = math.floor(max_upper * denominator) if type(denominator) is int and denominator >= 1 else 0
        except OverflowError:  # an infinite product, or a float times an int past a float's range
            top = 0
        if top < 1:
            raise InstanceError(f"exact draws need an int denominator >= 1 with max_upper * denominator"
                                f" a finite number >= 1, got max_upper={max_upper}, denominator={denominator}")
    elif max_upper > sys.float_info.max:
        raise InstanceError(f"max_upper {max_upper} is past a float's range")
    rng = random.Random(seed)
    uppers = [0] * n
    procs = [0] * n
    for j in range(n):
        if exact:
            num = rng.randrange(1, top + 1)
            uppers[j] = Fraction(num, denominator)
            procs[j] = Fraction(rng.randrange(0, num + 1), denominator)
        else:
            uppers[j] = u = rng.uniform(1e-3, max_upper)
            procs[j] = rng.uniform(0.0, u)
    return Instance(uppers, procs)


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
    """Dispatch for the command line: generator name plus keyword params.  A count that
    passes `_whole` may still be too large for memory: each generator allocates its
    columns whole before drawing a value, so that fails at once, as an InstanceError."""
    if name not in GENERATORS:
        raise InstanceError(f"unknown generator {name!r}; pick from {sorted(GENERATORS)}")
    try:
        return GENERATORS[name](**params)
    except TypeError as exc:
        raise InstanceError(f"bad parameters for {name}: {exc}") from exc
    except MemoryError:
        raise InstanceError(f"{name}: the instance's columns do not fit in memory") from None
