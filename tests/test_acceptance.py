"""Acceptance gate: eleven verifiable claims, one pass/fail line each.

Every criterion prints its verdict to the real stdout so the lines
survive pytest capture.  Tolerances and corpus sizes are fixed here on
purpose; loosening them is a red flag, not a fix.
"""

import math
import os
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from operator import itemgetter

import pytest

from testsched import analysis as A
from testsched.algorithms import build_algorithm, parse_algorithm
from testsched.cli import main as cli_main
from testsched.core import REL_TOL, TEST, Instance
from testsched.engine import StaticSource, run
from testsched.evaluation import det_lower_bound, evaluate, rand_lower_bound, sweep_results
from testsched.generators import (
    four_type_counts,
    gen_extreme_uniform,
    gen_four_type,
    gen_random,
    gen_threshold_worstcase,
    gen_uniform_mixed,
)
from testsched.offline import brute_force_optimum, optimal_sum


@pytest.fixture()
def criterion(capsys):
    # verdict lines must survive output capture, so print them with
    # capture suspended

    def _report(line):
        with capsys.disabled():
            print(line, flush=True)

    @contextmanager
    def _criterion(num, desc):
        notes = {}
        start = time.monotonic()
        try:
            yield notes
        except BaseException:
            _report(f"[acceptance] criterion {num:02d} FAIL  {desc}")
            raise
        detail = f"  ({notes['detail']})" if "detail" in notes else ""
        _report(f"[acceptance] criterion {num:02d} pass  {desc}{detail}"
                f"  [{time.monotonic() - start:.1f}s]")

    return _criterion


def test_criterion_01_threshold_bound(criterion):
    with criterion(1, "threshold ratio <= 2 on random, family, and adversary corpora") as notes:
        start = time.monotonic()
        thresh = parse_algorithm("threshold")
        slack = 2 * (1 + 1e-9)
        worst = 0.0
        runs = 0

        size_rng = random.Random("c1:sizes")
        for i in range(10_000):
            inst = gen_random(size_rng.randint(1, 50), seed=f"c1:{i}")
            cost, opt, _, _ = evaluate(thresh, inst, "sum")
            worst = max(worst, float(cost) / float(opt))
            runs += 1

        for a in range(31):
            for b in range(31):
                for c in range(31):
                    if a + b + c == 0:
                        continue
                    cost, opt, _, _ = evaluate(thresh, gen_threshold_worstcase(a, b, c), "sum")
                    worst = max(worst, float(cost) / float(opt))
                    runs += 1

        n = 2000
        for delta in (0.2, 0.4, 0.6, 0.8):
            for p_bar in (1.2, 1.5, 2.0, 2.5, 3.0):
                ratio = det_lower_bound(delta, p_bar, n, ["threshold"])["runs"][0]["ratio"]
                worst = max(worst, ratio)
                runs += 1

        elapsed = time.monotonic() - start
        assert worst <= slack
        assert elapsed < 120
        notes["detail"] = f"{runs} runs, worst ratio {worst:.7f}, {elapsed:.1f}s of 120s"


def test_criterion_02_threshold_tight(criterion):
    with criterion(2, "single-job tightness: ratio >= 2 - 1e-5, exact") as notes:
        p_bar = Fraction(2) - Fraction(1, 10 ** 6)
        cost, opt, _, _ = evaluate(parse_algorithm("threshold"),
                                    Instance.from_pairs([(p_bar, Fraction(0))]), "sum")
        ratio = cost / opt
        assert isinstance(ratio, Fraction)
        assert ratio >= 2 - Fraction(1, 10 ** 5)
        notes["detail"] = f"exact ratio {float(ratio):.7f}"


def test_criterion_03_deterministic_lower_bound(criterion):
    with criterion(3, "deterministic lower bound 1.854628 analytically and on the engine") as notes:
        start = time.monotonic()
        report = det_lower_bound(A.DET_LB_DELTA, A.DET_LB_PBAR, 5000)
        value = report["analytic"]
        assert abs(value - 1.854628) < 1e-5

        elapsed = time.monotonic() - start
        best = min(report["runs"], key=itemgetter("ratio"))
        low = best["ratio"]
        assert low >= 1.8546 - 0.01
        assert elapsed < 60
        notes["detail"] = (f"analytic {value:.7f}, engine min {low:.5f} "
                           f"({best['algorithm']}), {elapsed:.1f}s of 60s")


def test_criterion_04_random_parameters(criterion):
    with criterion(4, "random-order tester: solved (T, E), certificates, exact and MC ratio") as notes:
        T, E = A.solve_random_params()
        assert abs(T - 1.7453) < 1e-3
        assert abs(E - 2.8609) < 1e-3
        conds = A.random_conditions(T, E)
        assert len(conds) == 8
        assert min(conds) >= -1e-9

        # exact rational expectation over every quarter-step profile, n <= 6
        FT, FE = Fraction(17453, 10000), Fraction(28609, 10000)
        eps = Fraction(1, 10 ** 6)
        exact_alg = build_algorithm("random", {"T": FT, "E": FE})
        seen = set()
        exact_checks = 0
        for n in range(1, 7):
            for i in range(5):
                for j in range(5 - i):
                    for k in range(5 - i - j):
                        counts = four_type_counts(
                            n, Fraction(i, 4), Fraction(j, 4), Fraction(k, 4))
                        if (n, counts) in seen:
                            continue  # floors collapse many profiles
                        seen.add((n, counts))
                        inst = gen_four_type(n, Fraction(i, 4), Fraction(j, 4),
                                             Fraction(k, 4), T=FT, E=FE, epsilon=eps)
                        cost, opt, _, _ = evaluate(exact_alg, inst, "sum", exact=True)
                        assert cost <= FT * opt
                        exact_checks += 1

        # exact rational expectation, from the closed form, over the 0.1-step profile grid
        # at n = 1000: the Monte Carlo pass below runs on the same mixes
        n = 1000
        worst_exact = 0
        exact_mixes = 0
        for i in range(11):
            for j in range(11 - i):
                for k in range(11 - i - j):
                    inst = gen_four_type(n, Fraction(i, 10), Fraction(j, 10), Fraction(k, 10),
                                         T=FT, E=FE, epsilon=eps)
                    cost, opt, _, _ = evaluate(exact_alg, inst, "sum", exact=True)
                    ratio = cost / opt
                    assert ratio <= FT, (i, j, k, ratio)
                    worst_exact = max(worst_exact, ratio)
                    exact_mixes += 1
        assert exact_mixes == 286

        # Monte Carlo over the 0.1-step profile grid at n = 1000; each mean lies
        # within 5 standard errors of the closed-form E[ALG].  A one-type mix has
        # a fixed cost, so its error is float noise and its z score is not kept.
        # The mixes are sweep points, run across up to min(CPUs, 4) processes
        # (TESTSCHED_WORKERS overrides it); every check is made here, in combo order.
        mixes = [(i / 10, j / 10, k / 10) for i in range(11) for j in range(11 - i) for k in range(11 - i - j)]
        tasks = [("random", "four_type", {"n": n, "alpha": a, "beta": b, "gamma": g}, "sum", 200,
                  f"c4:{combo}") for combo, (a, b, g) in enumerate(mixes)]
        results = sweep_results(tasks, min(os.cpu_count() or 1, 4))
        worst_mc = 0.0
        worst_z = 0.0
        combo = 0
        for mix, (total, _, ratio, stderr) in zip(mixes, results):
            worst_mc = max(worst_mc, ratio)
            want = A.random_expected_cost(four_type_counts(n, *mix), A.RANDOM_T_PUBLISHED,
                                          A.RANDOM_E_PUBLISHED, 1e-6)
            miss = abs(total - want)
            assert miss <= 5 * stderr + REL_TOL * abs(want), (combo, total, stderr, want)
            if stderr > REL_TOL * abs(want):
                worst_z = max(worst_z, miss / stderr)
            combo += 1
        assert combo == 286
        assert worst_mc <= 1.7453 + 0.02
        notes["detail"] = (f"T={T:.5f} E={E:.5f}, {exact_checks} exact profiles, "
                           f"exact worst {float(worst_exact):.5f} <= {FT} over 286 mixes at n={n}, "
                           f"MC worst {worst_mc:.5f} over 286 mixes, max |z| {worst_z:.2f}")


def test_criterion_05_randomized_lower_bound(criterion):
    with criterion(5, "randomized lower bound: analytic value, E[OPT] form, E[ALG] floor") as notes:
        q = A.RAND_LB_Q
        n, trials = 500, 500
        report = rand_lower_bound(q, n, trials, "c5")
        assert abs(report["analytic"] - 1.62575) < 1e-5

        mean_opt = report["runs"][0]["mean_opt"]
        closed = (n * n / 2) * A.rand_lb_opt_coeff(q)
        assert abs(mean_opt - closed) <= 0.02 * closed

        floor = (1 - 0.02) * n * n / (2 * q)
        lowest = min(r["mean_alg"] for r in report["runs"])
        for r in report["runs"]:
            assert r["mean_alg"] >= floor, r["algorithm"]
        notes["detail"] = (f"E[OPT] off by {abs(mean_opt - closed) / closed:.2%}, "
                           f"min E[ALG]/(n^2/2q) = {lowest / (n * n / (2 * q)):.4f} "
                           f"across {len(report['runs'])} algorithms")


def test_criterion_06_combined_guarantee(criterion):
    with criterion(6, "combined: switch points, curve peak, sweep under curve + 0.02") as notes:
        t1, t2 = A.solve_thresholds()
        assert abs(t1 - 1.9338) < 1e-4
        assert abs(t2 - 2.2948) < 1e-4
        _, peak = A.scan_then_golden_max(A.combined_curve, 1.0, 5.0, steps=1000)
        assert abs(peak - t1) < 1e-4

        combined = parse_algorithm("combined")
        n = 2000
        worst_excess = -math.inf
        for step in range(41):
            p_bar = round(1.0 + 0.1 * step, 10)
            curve = A.combined_curve(p_bar)
            instances = [gen_extreme_uniform(n, p_bar, g)
                         for g in (0.0, 0.2, 0.4, 0.6, 0.8)]
            if t1 <= p_bar <= t2:
                lam, _ = A.beat_worst_mix(p_bar)
                instances.append(gen_extreme_uniform(n, p_bar, lam))
            if p_bar > 2.0001:
                _, beta = A.thresh_uniform_worst_mix(p_bar)
                instances.append(gen_uniform_mixed(n, p_bar, long_frac=0.0,
                                                   mid_frac=beta, mid_value=2.0))
            for inst in instances:
                cost, opt, _, _ = evaluate(combined, inst, "sum")
                worst_excess = max(worst_excess, float(cost) / float(opt) - curve)
        assert worst_excess <= 0.02
        notes["detail"] = (f"T1={t1:.5f} T2={t2:.5f}, peak-T1={abs(peak - t1):.1e}, "
                           f"max sweep excess {worst_excess:+.5f}")


def test_criterion_07_threshold_uniform_curve(criterion):
    with criterion(7, "threshold uniform curve: continuity, sqrt(3) plateau, sweep") as notes:
        root3 = math.sqrt(3)
        assert abs(A.thresh_uniform_ratio(3 - 1e-9) - root3) < 1e-9
        for p_bar in (3.0, 3.5, 4.0, 10.0):
            assert A.thresh_uniform_ratio(p_bar) == root3

        thresh = parse_algorithm("threshold")
        n = 2000
        worst_excess = -math.inf
        for p_bar in (2.5, 3.0, 4.0):
            curve = A.thresh_uniform_ratio(p_bar)
            for i in range(11):
                for j in range(11 - i):
                    long_frac = (10 - i - j) / 10
                    inst = gen_uniform_mixed(n, p_bar, long_frac=long_frac,
                                             mid_frac=j / 10, mid_value=2.0)
                    cost, opt, _, _ = evaluate(thresh, inst, "sum")
                    worst_excess = max(worst_excess, float(cost) / float(opt) - curve)
        assert worst_excess <= 0.02
        notes["detail"] = f"max sweep excess {worst_excess:+.5f} over 198 mixes"


def test_criterion_08_ute_guarantee(criterion):
    with criterion(8, "extreme-uniform rule stays under 1.8668 + 0.02 on its domain") as notes:
        ute = parse_algorithm("ute")
        n = 2000
        worst = 0.0
        points = 0
        for k in range(33):
            p_bar = round(1.8668 + 0.05 * k, 10)
            for gi in range(51):
                cost, opt, _, _ = evaluate(ute, gen_extreme_uniform(n, p_bar, gi / 50), "sum")
                worst = max(worst, float(cost) / float(opt))
                points += 1
        assert worst <= 1.8668 + 0.02

        worst_lb_limit = 0.0
        for gi in range(51):
            cost, opt, _, _ = evaluate(ute, gen_extreme_uniform(n, 1.9896, gi / 50), "sum")
            worst_lb_limit = max(worst_lb_limit, float(cost) / float(opt))
        assert worst_lb_limit <= 1.8552 + 0.02
        notes["detail"] = (f"worst {worst:.5f} over {points} grid points, "
                           f"{worst_lb_limit:.5f} at the lower-bound limit")


def test_criterion_09_makespan(criterion):
    with criterion(9, "makespan: per-job golden-ratio bound, tightness, exact 4/3") as notes:
        phi = A.GOLDEN_RATIO
        det = parse_algorithm("makespan_det")

        corpora = [gen_random(1 + (i % 30), seed=f"c9:{i}") for i in range(200)]
        for p_bar in (1.2, 1.5, phi, 1.7, 2.0, 3.0):
            for g in (0.3, 0.7):
                corpora.append(gen_extreme_uniform(50, p_bar, g))
        corpora.append(gen_threshold_worstcase(3, 3, 3))

        jobs_checked = 0
        for inst in corpora:
            makespan, opt, _, _ = evaluate(det, inst, "makespan")
            trace = run(det.generator(), StaticSource(inst), inst.n, inst.uppers())
            assert trace.makespan == makespan
            tested = {s[1] for s in trace.steps if s[0] == TEST}
            for job in inst.jobs:
                contrib = 1 + job.proc if job.id in tested else job.upper
                key = min(1 + job.proc, job.upper)
                assert float(contrib) <= phi * float(key) * (1 + 1e-9)
                jobs_checked += 1
            assert float(makespan) <= phi * float(opt) * (1 + 1e-9)

        makespan, opt, _, _ = evaluate(det, Instance.from_pairs([(phi + 1e-6, phi + 1e-6)]), "makespan")
        gap = phi - makespan / opt
        assert abs(gap) < 1e-6

        rand = parse_algorithm("makespan_rand")
        four_thirds = Fraction(4, 3)
        equalities = 0
        for p_bar in (Fraction(6, 5), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)):
            for p in (Fraction(0), p_bar / 2, p_bar):
                inst = Instance.from_pairs([(p_bar, p)])
                makespan, opt, _, _ = evaluate(rand, inst, "makespan", exact=True)
                assert opt == min(1 + p, p_bar)
                assert makespan <= four_thirds * opt
                if (p_bar, p) in ((Fraction(2), Fraction(0)), (Fraction(2), Fraction(2))):
                    assert makespan == four_thirds * opt
                    equalities += 1
        assert equalities == 2
        notes["detail"] = (f"{jobs_checked} per-job checks, tightness gap {gap:.1e}, "
                           f"two exact 4/3 equalities")


def test_criterion_10_oracle_equivalence(criterion):
    with criterion(10, "optimal_sum equals brute force on 1000 exact random instances") as notes:
        start = time.monotonic()
        for i in range(1000):
            inst = gen_random(1 + (i % 6), seed=f"c10:{i}", exact=True, denominator=24)
            assert optimal_sum(inst).total == brute_force_optimum(inst)
        elapsed = time.monotonic() - start
        assert elapsed < 30
        notes["detail"] = f"{elapsed:.1f}s of 30s"


def test_criterion_11_constant_mutation_control(criterion):
    with criterion(11, "verify-constants exits nonzero under any 1e-2 perturbation") as notes:
        for name, published, _tol, _fn in A.CONSTANT_CHECKS:
            rc = cli_main(["verify-constants", "--override", f"{name}={published + 0.01!r}"])
            assert rc == 1, name
        assert cli_main(["verify-constants"]) == 0
        notes["detail"] = f"all {len(A.CONSTANT_CHECKS)} constants flagged when shifted"
