"""Closed-form competitive ratios, their optimizers, and constant checks.

Everything here is plain real arithmetic over the asymptotic cost
expressions (costs per n^2/2 unless said otherwise), so the simulation
side of the package can be checked against formulas and vice versa.
Extremizers follow fixed numeric recipes: one maximiser in one dimension
(`scan_then_golden_max`; a minimum of f is its maximum of -f), nested in
itself for a job mix on the simplex (`simplex_max`); bisection for roots.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .core import InstanceError

# Published rounded values of the tuned parameters; solvers recompute them.
RANDOM_T_PUBLISHED = 1.7453
RANDOM_E_PUBLISHED = 2.8609
COMBINED_T1_PUBLISHED = 1.9338
COMBINED_T2_PUBLISHED = 2.2948
UTE_RHO_PUBLISHED = 1.8668
DET_LB_DELTA = 0.6306655
DET_LB_PBAR = 1.9896202
DET_LB_PUBLISHED = 1.854628
RAND_LB_PUBLISHED = 1.62575

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2
GOLDEN_TOL, BISECT_TOL, BISECT_MAX_ITER = 1e-9, 1e-12, 500  # the two searches' stopping rules

# ---------------------------------------------------------------------------
# Numeric building blocks.


def scan_then_golden_max(f, a, b, steps=200):
    """Maximum of f on [a, b] as (x, f(x)); a minimum is the maximum of -f.

    A coarse scan brackets the best of steps + 1 points, golden-section search
    narrows the bracket, and its two ends and final midpoint compete.  Assumes
    one peak in the bracket; ties keep the first point.
    """
    xs = [a + (b - a) * i / steps for i in range(steps + 1)]
    vals = [f(x) for x in xs]
    i = max(range(len(xs)), key=lambda k: vals[k])
    lo, hi = left, right = xs[max(i - 1, 0)], xs[min(i + 1, steps)]
    inv = (math.sqrt(5) - 1) / 2
    c = hi - inv * (hi - lo)
    d = lo + inv * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > GOLDEN_TOL:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - inv * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv * (hi - lo)
            fd = f(d)
    best = max(((f(x), x) for x in (left, (lo + hi) / 2, right)), key=lambda t: t[0])
    return best[1], best[0]


def bisect_root(f, a, b):
    """Root of f on [a, b]; requires a sign change."""
    fa, fb = f(a), f(b)
    if fa == 0:
        return a
    if fb == 0:
        return b
    if (fa > 0) == (fb > 0):
        raise ValueError(f"no sign change on [{a}, {b}]: f={fa}, {fb}")
    for _ in range(BISECT_MAX_ITER):
        m = (a + b) / 2
        fm = f(m)
        if fm == 0 or (b - a) / 2 < BISECT_TOL:
            return m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m
    return (a + b) / 2


def simplex_max(f, xlo, xhi):
    """Maximum of f(x, y) over xlo <= x <= xhi, 0 <= y <= 1 - x.

    Returns ((x, y), f(x, y)): scan_then_golden_max over x of the same search
    over y, each scanning 51 points first.  Like that search, it assumes one
    peak in each bracket the scans leave.
    """

    def best_y(x):
        return scan_then_golden_max(lambda y: f(x, y), 0.0, 1.0 - x, steps=50)

    x, _ = scan_then_golden_max(lambda x: best_y(x)[1], xlo, xhi, steps=50)
    y, v = best_y(x)
    return (x, y), v


# ---------------------------------------------------------------------------
# Deterministic adaptive lower bound (sum objective).
#
# The adversary fixes a fraction delta of the jobs as long (p = p_bar) when
# tested early, everything else short (p = 0).  A schedule against it is
# described by nu (fraction executed untested up front) and lam (fraction
# tested and executed immediately); costs below are per n^2, exact on Fractions.


def det_lb_alg(nu, lam, delta, p_bar):
    """Asymptotic cost of the (nu, lam) schedule against the adversary."""
    return (
        1
        + 2 * delta * (1 - nu * p_bar)
        + delta * delta * (p_bar - 1)
        + 2 * nu * (nu + p_bar - 2)
        + lam * lam
        + 2 * lam * (nu + p_bar - 1 - delta * p_bar)
    ) / 2


def det_lb_opt(nu, delta, p_bar):
    """Asymptotic optimum of the instance realized against that schedule."""
    return (1 + (delta - nu) ** 2 * (p_bar - 1)) / 2


def _clamped_best_lam(nu, delta, p_bar):
    # The cost is an upward parabola in lam with vertex at tau - nu.
    tau = 1 + delta * p_bar - p_bar
    return min(max(tau - nu, 0.0), delta - nu)


def det_lb_best_schedule(delta, p_bar):
    """(nu, lam, ratio): the schedule minimizing the ratio against the adversary, and that ratio."""
    if not (0 < delta <= 1 and 1 < p_bar < math.inf):
        raise InstanceError(f"need 0 < delta <= 1 and p_bar > 1, got ({delta}, {p_bar})")

    def ratio_at(nu):
        lam = _clamped_best_lam(nu, delta, p_bar)
        return det_lb_alg(nu, lam, delta, p_bar) / det_lb_opt(nu, delta, p_bar)

    nu, neg_ratio = scan_then_golden_max(lambda nu: -ratio_at(nu), 0.0, delta, steps=2000)
    return nu, _clamped_best_lam(nu, delta, p_bar), -neg_ratio


def det_lb_value(delta, p_bar):
    """Lower bound on every deterministic algorithm's ratio at (delta, p_bar)."""
    return det_lb_best_schedule(delta, p_bar)[2]


# ---------------------------------------------------------------------------
# Randomized testing algorithm (uniform random test order).
#
# Worst instances mix four job types; fractions alpha (p = T), beta (p = E),
# gamma (p = E + eps, deferred), remainder p = 0.


def random_expected_cost(counts, T, E, eps=0):
    """Exact expected cost of the random-order tester on a four-type mix.

    `counts` = (zeros, type_T, type_E, type_deferred).  Works in whatever
    arithmetic the inputs use (Fractions stay exact).  Jobs outside the
    deferred class finish during the test phase, whose order is uniformly
    random; deferred jobs run at the end.
    """
    m0, mt, me, md = counts
    n = m0 + mt + me + md
    phase = n + T * mt + E * me  # length of the test-and-run phase
    during = m0 + mt + me
    total = during * (phase + 1) / 2 + (T * mt + E * me) / 2
    total += md * phase + (E + eps) * (md * (md + 1) // 2)
    return total


def random_opt_cost(counts, T, E, eps=0):
    """Exact offline optimum of the same four-type mix."""
    m0, mt, me, md = counts
    # triangular counts are even products, so // keeps integer inputs exact
    total = m0 * (m0 + 1) // 2 + m0 * (mt + me + md)
    total += T * (mt * (mt + 1) // 2 + mt * (me + md))
    total += E * (me * (me + 1) // 2 + me * md)
    total += (E + eps) * (md * (md + 1) // 2)
    return total


def random_conditions(T, E):
    """Certificate values whose joint nonnegativity proves the ratio T.

    Each entry evaluates T*OPT - ALG at one candidate minimum of the
    quadratic cost gap over the job-mix simplex (interior critical points,
    facets, edges, and a vertex), up to positive factors.  The second entry
    is the gamma = 0 facet after eliminating alpha and beta.
    """
    return (
        E * E * (T - 1) ** 2 + T * (2 * T - 1) - E * T * T,
        4 * (T - 1) - 1 / (T - 1) - E / T,
        T * (T - 1) - Fraction(3, 4) - E / (4 * T),
        4 * E * (1 - (2 - T) * T * T) - (2 * T * (T - 1) - 1) ** 2,
        E * (T - 1) - 2,
        4 * T - 5 - 1 / (T - 1),
        4 * (T - 1) - E * E / (T * (E - 1)),
        T - 1 - 1 / (4 * (E * T - E - T)),
    )


def _exec_threshold_on_facet(T):
    # Where the gamma = 0 facet certificate vanishes for a given T.
    return T * (4 * (T - 1) - 1 / (T - 1))


@lru_cache(maxsize=None)
def solve_random_params():
    """The (T, E) pair where the two binding certificates vanish together.

    E is eliminated through the facet certificate (the second), and the
    fourth, `random_conditions(T, E)[3]`, is bisected as a 1-D root in T.
    The root lies above the golden ratio.
    """
    T = bisect_root(lambda T: random_conditions(T, _exec_threshold_on_facet(T))[3], 1.7, 1.8)
    if T <= GOLDEN_RATIO:
        raise ArithmeticError(f"unexpected root T={T} at or below the golden ratio")
    return T, _exec_threshold_on_facet(T)


# ---------------------------------------------------------------------------
# Randomized lower bound: upper limit 1/q, processing time 0 with
# probability q, else 1/q.  The bound peaks at q = RAND_LB_Q.

RAND_LB_Q = 1 - 1 / math.sqrt(3)


def rand_lb_opt_coeff(q):
    """E[OPT] per n^2/2 on the two-point random instance."""
    return 1 / q + 3 * q - 2 - q * q


def rand_lb_value(q):
    """Lower bound on every algorithm's expected ratio at parameter q."""
    if not 0 < q < 1:
        raise InstanceError(f"q must be in (0, 1), got {q}")
    return (1 / q) / rand_lb_opt_coeff(q)


@lru_cache(maxsize=None)
def solve_rand_lb_q():
    """The q maximizing the randomized lower bound."""
    q, _ = scan_then_golden_max(rand_lb_value, 1e-3, 1 - 1e-3)
    return q


# ---------------------------------------------------------------------------
# Balance ("beat the threshold") algorithm on uniform upper limits.


def beat_ratio(p_bar):
    """Asymptotic ratio of the balance algorithm, uniform limits in [1.5, 3]."""
    if not 1.5 <= p_bar <= 3:
        raise ValueError(f"balance ratio defined on [1.5, 3], got {p_bar}")
    disc = (1 - 2 * p_bar) ** 2 * (4 * p_bar - 3)
    return (1 + 2 * (p_bar - 2) * p_bar + math.sqrt(disc)) / (2 * (p_bar - 1) * p_bar)


def beat_family_ratio(p_bar, long_frac, mid_frac=0.0):
    """Asymptotic ratio of the balance algorithm on its worst-style mixes.

    Fractions of the whole instance: `long_frac` jobs at p = p_bar,
    `mid_frac` jobs at p = E = max(1, p_bar - 1), remainder at p = 0.
    Long tests accumulate one credit each; a long job is run once credits
    cover it, so a fraction lam/p_bar of the longs finishes during testing.
    """
    lam, mid = long_frac, mid_frac
    z = 1 - lam - mid
    if min(lam, mid, z) < -1e-12:
        raise ValueError("fractions must be nonnegative and sum to at most 1")
    e_short = max(1, p_bar - 1)
    eta = lam / p_bar
    psi = lam - eta
    a_len = lam + p_bar * eta  # tests of longs plus early long executions
    alg = p_bar * eta * eta  # early longs: the i-th finishes near 2*i*p_bar
    alg += mid * a_len + (1 + e_short) * mid * mid / 2
    alg += z * (a_len + (1 + e_short) * mid) + z * z / 2
    tail_start = a_len + (1 + e_short) * mid + z
    alg += psi * tail_start + p_bar * psi * psi / 2
    opt = z * z / 2 + z * (mid + lam) + p_bar * (mid + lam) ** 2 / 2
    return alg / opt


def beat_worst_mix(p_bar):
    """Worst (long_frac, mid_frac) for the balance algorithm, by simplex_max."""
    (lam, mid), _ = simplex_max(lambda lam, mid: beat_family_ratio(p_bar, lam, mid), 0.01, 0.99)
    return lam, mid


@lru_cache(maxsize=None)
def solve_thresholds():
    """(T1, T2): where the balance curve meets the no-test and threshold curves.

    Below T1 running everything untested is better (ratio p_bar); above T2
    the threshold rule's uniform curve drops below the balance curve.
    """
    t1 = bisect_root(lambda x: beat_ratio(x) - x, 1.8, 2.0)
    t2 = bisect_root(lambda x: beat_ratio(x) - thresh_uniform_ratio(x), 2.0 + 1e-6, 2.5)
    return t1, t2


# ---------------------------------------------------------------------------
# Threshold rule on uniform upper limits above 2.


def thresh_uniform_ratio(p_bar):
    """Asymptotic worst ratio of the threshold rule, uniform limit p_bar > 2."""
    if p_bar <= 2:
        raise ValueError(f"uniform threshold curve needs p_bar > 2, got {p_bar}")
    if p_bar >= 3:
        return math.sqrt(3)
    return (-3 + p_bar + math.sqrt(-15 + p_bar * (18 + p_bar))) / (2 * (p_bar - 1))


def thresh_uniform_mix_ratio(p_bar, alpha, beta):
    """Asymptotic ratio on the mix: alpha zeros, beta twos, rest p = p_bar.

    All upper limits equal p_bar > 2, so every job is tested; twos run
    immediately after their test, longs are deferred.
    """
    if p_bar <= 2:
        raise ValueError(f"mix ratio needs p_bar > 2, got {p_bar}")
    gamma = 1 - alpha - beta
    if min(alpha, beta, gamma) < -1e-12:
        raise ValueError("fractions must be nonnegative and sum to at most 1")
    alg2 = (
        alpha * alpha + 3 * beta * beta + (2 + p_bar) * gamma * gamma
        + 6 * alpha * beta + 4 * alpha * gamma + 8 * beta * gamma
    )
    k2 = min(3, p_bar)  # offline key of a two: test it only if that beats p_bar
    opt2 = (
        alpha * alpha + k2 * beta * beta + p_bar * gamma * gamma
        + 2 * alpha * beta + 2 * alpha * gamma + 2 * k2 * beta * gamma
    )
    return alg2 / opt2


def thresh_uniform_worst_mix(p_bar):
    """Worst (alpha, beta) mix for the threshold rule at a uniform limit."""
    if p_bar <= 2:
        raise ValueError(f"needs p_bar > 2, got {p_bar}")
    if p_bar >= 3:
        beta = (math.sqrt(3) - 1) / 2
    else:
        beta = (-(p_bar + 1) + math.sqrt(p_bar * p_bar + 18 * p_bar - 15)) / (4 * (p_bar - 1))
    return 1 - beta, beta


def thresh_uniform_worst_mix_grid(p_bar):
    """Cross-check of the worst mix: ((alpha, beta), ratio) by simplex_max."""
    return simplex_max(lambda alpha, beta: thresh_uniform_mix_ratio(p_bar, alpha, beta), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Untested-or-test-everything rule on extreme uniform instances.


def ute_rho_star():
    """Self-consistent target ratio of the extreme-uniform rule (closed form)."""
    return (1 + math.sqrt(3 + 2 * math.sqrt(5))) / 2


def ute_beta(rho, p_bar):
    """Fraction of tested jobs run immediately regardless of their time."""
    num = 1 - p_bar + p_bar * p_bar - rho + 2 * p_bar * rho - p_bar * p_bar * rho
    den = 1 - p_bar + p_bar * p_bar - rho + p_bar * rho
    return num / den


def ute_p_star(rho):
    """Largest uniform limit at which the immediate fraction stays positive."""
    return (2 * rho + math.sqrt(4 * rho - 3) - 1) / (2 * (rho - 1))


def ute_ratio(p_bar):
    """Worst asymptotic ratio of the extreme-uniform rule at limit p_bar."""
    x = p_bar
    disc = -3 + 6 * x - 3 * x * x - 6 * x ** 3 + 10 * x ** 4 - 4 * x ** 5 + x ** 6
    if disc < 0 or x <= 1:
        raise ValueError(f"ratio undefined at p_bar={p_bar}")
    return (-1 - x + 2 * x * x - x ** 3 + math.sqrt(disc)) / (2 * (x - 1))


@lru_cache(maxsize=None)
def solve_ute_rho():
    """Fixed point ratio(rho) = rho, found by bisection."""
    return bisect_root(lambda x: ute_ratio(x) - x, 1.8, 1.95)


# ---------------------------------------------------------------------------
# Makespan.


def makespan_test_probability(p_bar):
    """Test probability of the randomized makespan rule; exact for an int or Fraction limit."""
    if p_bar <= 1:
        return 0.0
    d = p_bar * p_bar - p_bar + 1
    return 1 - (1 / d if isinstance(d, float) else Fraction(1, d))


def makespan_det_curve(p_bar):
    """Worst per-job ratio of the golden-ratio test rule at one limit."""
    if p_bar <= 1:
        return 1.0
    if p_bar > GOLDEN_RATIO:
        return (1 + p_bar) / p_bar
    return p_bar


def makespan_rand_curve(p_bar):
    """Worst per-job expected ratio of the randomized rule at one limit."""
    if p_bar <= 1:
        return 1.0
    return p_bar * p_bar / (p_bar * p_bar - p_bar + 1)


# ---------------------------------------------------------------------------
# The piecewise guarantee of the combined uniform-limit algorithm.


def combined_curve(p_bar):
    """Ratio guarantee of the combined algorithm as a function of the limit."""
    t1, t2 = solve_thresholds()
    if p_bar < 1:
        return 1.0
    if p_bar < t1:
        return p_bar
    if p_bar <= t2:
        return beat_ratio(p_bar)
    return thresh_uniform_ratio(p_bar)


# ---------------------------------------------------------------------------
# Threshold rule worst family (mixed limits): a zeros, b twos, c just-longs.


def threshold_family_costs(a, b, c, eps=0.0):
    """Exact (alg, opt) of the threshold rule's hardest instances.

    a jobs (limit 2, p 0), b jobs (limit 2, p 2), c jobs (limit 2 + eps,
    p 2 + eps), tested longs first, then twos, then zeros.
    """
    alg = (
        (a + b + c) * c
        + 3 * (b * (b + 1) // 2)
        + 3 * b * (a + c)
        + a * (a + 1) // 2
        + a * c
        + (2 + eps) * (c * (c + 1) // 2)
    )
    opt = (
        a * (a + 1) // 2
        + a * (b + c)
        + b * (b + 1)
        + 2 * b * c
        + (2 + eps) * (c * (c + 1) // 2)
    )
    return alg, opt


# ---------------------------------------------------------------------------
# Constant verification.


def _threshold_sum_ratio():
    # Supremum 2 is approached along a = b growing, c = 0.
    k = 10 ** 6
    alg, opt = threshold_family_costs(k, k, 0)
    return alg / opt


def _sqrt3_from_mix():
    _, val = thresh_uniform_worst_mix_grid(4.0)
    return val


CONSTANT_CHECKS = (
    # (name, paper_value, tolerance, computation); field names match the report
    ("threshold_sum_ratio", 2.0, 1e-5, _threshold_sum_ratio),
    ("det_lb_ratio", DET_LB_PUBLISHED, 1e-5, lambda: det_lb_value(DET_LB_DELTA, DET_LB_PBAR)),
    ("random_test_threshold", RANDOM_T_PUBLISHED, 1e-4, lambda: solve_random_params()[0]),
    ("random_exec_threshold", RANDOM_E_PUBLISHED, 1e-4, lambda: solve_random_params()[1]),
    ("rand_lb_ratio", RAND_LB_PUBLISHED, 1e-5, lambda: rand_lb_value(RAND_LB_Q)),
    ("rand_lb_worst_q", 0.42265, 1e-5, solve_rand_lb_q),
    ("combined_no_test_threshold", COMBINED_T1_PUBLISHED, 1e-4, lambda: solve_thresholds()[0]),
    ("combined_switch_threshold", COMBINED_T2_PUBLISHED, 1e-4, lambda: solve_thresholds()[1]),
    ("extreme_uniform_ratio", UTE_RHO_PUBLISHED, 1e-4, solve_ute_rho),
    ("extreme_uniform_ratio_at_lb_limit", 1.8552, 1e-4, lambda: ute_ratio(DET_LB_PBAR)),
    ("extreme_uniform_limit_cap", 2.7961, 1e-4, lambda: ute_p_star(solve_ute_rho())),
    ("extreme_uniform_immediate_fraction", 0.2869, 1e-4, lambda: ute_beta(solve_ute_rho(), solve_ute_rho())),
    ("threshold_uniform_limit_ratio", math.sqrt(3), 1e-5, _sqrt3_from_mix),
    ("makespan_det_ratio", GOLDEN_RATIO, 1e-6,
     lambda: scan_then_golden_max(makespan_det_curve, 0.5, 5.0, steps=1000)[1]),
    ("makespan_rand_ratio", 4 / 3, 1e-6,
     lambda: scan_then_golden_max(makespan_rand_curve, 1.0, 5.0, steps=1000)[1]),
)


def verify_constants(overrides=None):
    """Recompute every published constant and compare within tolerance.

    `overrides` maps a constant name to a replacement computed value,
    which is how the negative control (perturb by 1e-2, expect failure)
    is exercised from the command line.
    """
    overrides = overrides or {}
    unknown = set(overrides) - {name for name, *_ in CONSTANT_CHECKS}
    if unknown:
        raise KeyError(f"unknown constant names: {sorted(unknown)}")
    entries = []
    for name, paper_value, tol, compute in CONSTANT_CHECKS:
        computed = overrides.get(name)
        if computed is None:
            computed = compute()
        err = abs(computed - paper_value)
        entries.append({
            "name": name,
            "paper_value": paper_value,
            "computed_value": computed,
            "abs_error": err,
            "tolerance": tol,
            "ok": err <= tol,
        })
    return {"constants": entries, "ok": all(e["ok"] for e in entries)}
