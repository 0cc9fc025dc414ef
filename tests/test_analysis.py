"""Closed forms against independent grids, solvers, and exact enumeration."""

import math
from fractions import Fraction

import pytest

from oracles import delay_all_family_costs, det_lb_value_grid, random_cost_coeffs
from testsched import analysis as A
from testsched.algorithms import build_algorithm
from testsched.engine import StaticSource, run_expected
from testsched.generators import gen_four_type
from testsched.offline import optimal_sum


class TestNumericUtilities:
    def test_golden_section_interior_min(self):
        x, v = A.scan_then_golden_max(lambda x: -((x - 2) ** 2), 0, 5)
        assert abs(x - 2) < 1e-7
        assert -v < 1e-13

    def test_scan_endpoint_min(self):
        x, v = A.scan_then_golden_max(lambda x: -x, 1, 3)
        assert abs(x - 1) < 1e-7
        assert abs(-v - 1) < 1e-7

    def test_scan_max(self):
        x, v = A.scan_then_golden_max(lambda x: -(x - 1.5) ** 2 + 4, 0, 3)
        assert abs(x - 1.5) < 1e-6
        assert abs(v - 4) < 1e-12

    def test_bisect_finds_pi(self):
        assert abs(A.bisect_root(math.sin, 3, 3.2) - math.pi) < 1e-11

    def test_bisect_returns_an_endpoint_where_f_is_zero(self):
        assert A.bisect_root(lambda x: x - 1, 1, 4) == 1
        assert A.bisect_root(lambda x: x - 4, 1, 4) == 4

    def test_bisect_needs_sign_change(self):
        with pytest.raises(ValueError, match="sign change"):
            A.bisect_root(lambda x: x * x + 1, 0, 1)

    def test_simplex_max(self):
        # the peak (1, 2) lies outside the simplex, so the maximum is its nearest corner (0, 1)
        assert A.simplex_max(lambda x, y: -(x - 1) ** 2 - (y - 2) ** 2, 0, 1) == ((0.0, 1.0), -2.0)
        (x, y), v = A.simplex_max(lambda x, y: -(x - 0.25) ** 2 - (y - 0.5) ** 2, 0, 1)
        assert abs(x - 0.25) < 1e-6 and abs(y - 0.5) < 1e-6
        assert v > -1e-12


class TestDeterministicLowerBound:
    def test_frozen_pieces_at_published_point(self):
        # references quoted at the exact optimizer; the published point is
        # rounded to 7 digits, so only ~5 decimals transfer
        assert abs(A.det_lb_alg(0, 0, A.DET_LB_DELTA, A.DET_LB_PBAR) - 1.327472) < 1e-5
        assert abs(A.det_lb_opt(0, A.DET_LB_DELTA, A.DET_LB_PBAR) - 0.696806) < 1e-5

    def test_value_matches_published(self):
        v = A.det_lb_value(A.DET_LB_DELTA, A.DET_LB_PBAR)
        assert abs(v - 1.8546281) < 1e-6
        assert abs(v - A.DET_LB_PUBLISHED) < 1e-5

    def test_value_agrees_with_grid(self):
        v = A.det_lb_value(A.DET_LB_DELTA, A.DET_LB_PBAR)
        g = det_lb_value_grid(A.DET_LB_DELTA, A.DET_LB_PBAR)
        assert abs(v - g) < 1e-7

    def test_value_is_min_over_schedules(self):
        v = A.det_lb_value(A.DET_LB_DELTA, A.DET_LB_PBAR)
        for nu in (0.0, 0.1, 0.3, 0.5, 0.6):
            for k in range(5):
                lam = (A.DET_LB_DELTA - nu) * k / 4
                r = (A.det_lb_alg(nu, lam, A.DET_LB_DELTA, A.DET_LB_PBAR)
                     / A.det_lb_opt(nu, A.DET_LB_DELTA, A.DET_LB_PBAR))
                assert r >= v - 1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            A.det_lb_value(0.0, 2.0)
        with pytest.raises(ValueError):
            A.det_lb_value(0.5, 1.0)
        with pytest.raises(ValueError, match=r"need 0 < delta <= 1 and p_bar > 1, got \(0.5, inf\)"):
            A.det_lb_best_schedule(0.5, math.inf)

    def test_best_schedule_carries_its_ratio(self):
        nu, lam, ratio = A.det_lb_best_schedule(A.DET_LB_DELTA, A.DET_LB_PBAR)
        assert ratio == (A.det_lb_alg(nu, lam, A.DET_LB_DELTA, A.DET_LB_PBAR)
                         / A.det_lb_opt(nu, A.DET_LB_DELTA, A.DET_LB_PBAR))
        assert ratio == A.det_lb_value(A.DET_LB_DELTA, A.DET_LB_PBAR)


class TestRandomTester:
    def test_solved_point(self):
        T, E = A.solve_random_params()
        assert abs(T - 1.7452628) < 1e-6
        assert abs(E - 2.8609096) < 1e-6
        assert abs(T - A.RANDOM_T_PUBLISHED) < 1e-3
        assert abs(E - A.RANDOM_E_PUBLISHED) < 1e-3

    def test_certificates_at_solved_point(self):
        conds = A.random_conditions(*A.solve_random_params())
        assert min(conds) >= -1e-9
        # the two binding certificates vanish there
        assert abs(conds[1]) < 1e-6
        assert abs(conds[3]) < 1e-6

    def test_certificates_strict_at_published(self):
        conds = A.random_conditions(A.RANDOM_T_PUBLISHED, A.RANDOM_E_PUBLISHED)
        assert all(c > 0 for c in conds)

    def test_exact_enumeration_matches_closed_form(self):
        T, E = Fraction(17453, 10000), Fraction(28609, 10000)
        eps = Fraction(1, 1000)
        inst = gen_four_type(4, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4),
                             T=T, E=E, epsilon=eps)
        alg = build_algorithm("random", {"T": T, "E": E})
        res = run_expected(alg, StaticSource(inst), inst.n, inst.uppers(), exact=True)
        counts = (1, 1, 1, 1)
        assert res.total == A.random_expected_cost(counts, T, E, eps)
        opt = optimal_sum(inst).total
        assert opt == A.random_opt_cost(counts, T, E, eps)
        assert res.total <= T * opt

    def test_coefficient_identity_exact(self):
        T, E = Fraction(17453, 10000), Fraction(28609, 10000)
        eps = Fraction(1, 1000)
        for counts in ((1, 1, 1, 1), (2, 2, 1, 1), (0, 3, 0, 2), (4, 0, 1, 0)):
            m0, mt, me, md = counts
            n = sum(counts)
            al2, al1, op2, op1 = random_cost_coeffs(
                Fraction(mt, n), Fraction(me, n), Fraction(md, n), T, E)
            tail = eps * Fraction(md * (md + 1), 2)
            assert A.random_expected_cost(counts, T, E, eps) == (
                Fraction(n * n, 2) * al2 + Fraction(n, 2) * al1 + tail)
            assert A.random_opt_cost(counts, T, E, eps) == (
                Fraction(n * n, 2) * op2 + Fraction(n, 2) * op1 + tail)


class TestRandomizedLowerBound:
    def test_value_at_half(self):
        assert A.rand_lb_value(0.5) == pytest.approx(1.6, abs=1e-12)
        assert A.rand_lb_opt_coeff(0.5) == pytest.approx(1.25, abs=1e-12)

    def test_worst_q(self):
        q = A.solve_rand_lb_q()
        assert abs(q - (1 - 1 / math.sqrt(3))) < 1e-6
        assert abs(A.rand_lb_value(q) - 1.6257524) < 1e-6
        assert abs(A.rand_lb_value(q) - A.RAND_LB_PUBLISHED) < 1e-5

    def test_domain(self):
        with pytest.raises(ValueError):
            A.rand_lb_value(0)
        with pytest.raises(ValueError):
            A.rand_lb_value(1)


class TestBalanceCurve:
    def test_value_at_two(self):
        assert A.beat_ratio(2) == pytest.approx((1 + math.sqrt(45)) / 4, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            A.beat_ratio(1.4)
        with pytest.raises(ValueError):
            A.beat_ratio(3.1)

    def test_family_max_equals_curve(self):
        for p_bar in (1.6, 2.0, 2.5, 3.0):
            lam, mid = A.beat_worst_mix(p_bar)
            fam = A.beat_family_ratio(p_bar, lam, mid)
            assert abs(fam - A.beat_ratio(p_bar)) < 1e-9
            assert mid < 1e-3  # pure two-point mixes are worst


class TestThresholdUniformCurve:
    def test_limit_from_above_two(self):
        assert abs(A.thresh_uniform_ratio(2 + 1e-9) - 2) < 1e-6

    def test_flat_sqrt3_above_three(self):
        assert A.thresh_uniform_ratio(3) == math.sqrt(3)
        assert A.thresh_uniform_ratio(4.7) == math.sqrt(3)

    def test_continuous_at_three(self):
        assert abs(A.thresh_uniform_ratio(3 - 1e-9) - math.sqrt(3)) < 1e-8

    def test_worst_mix_closed_vs_grid(self):
        for p_bar in (2.3, 2.7, 3.5):
            alpha, beta = A.thresh_uniform_worst_mix(p_bar)
            closed = A.thresh_uniform_mix_ratio(p_bar, alpha, beta)
            (_, gb), grid = A.thresh_uniform_worst_mix_grid(p_bar)
            assert abs(closed - A.thresh_uniform_ratio(p_bar)) < 1e-9
            assert abs(grid - closed) < 1e-9
            assert abs(gb - beta) < 1e-5

    def test_domain(self):
        with pytest.raises(ValueError):
            A.thresh_uniform_ratio(2)
        with pytest.raises(ValueError):
            A.thresh_uniform_mix_ratio(2.5, 0.6, 0.6)


class TestCombinedThresholds:
    def test_solved_values(self):
        t1, t2 = A.solve_thresholds()
        assert abs(t1 - 1.9337914) < 1e-6
        assert abs(t2 - 2.2948116) < 1e-6
        assert abs(t1 - A.COMBINED_T1_PUBLISHED) < 1e-4
        assert abs(t2 - A.COMBINED_T2_PUBLISHED) < 1e-4

    def test_curve_continuous_at_joints(self):
        t1, t2 = A.solve_thresholds()
        for t in (t1, t2):
            below = A.combined_curve(t - 1e-9)
            above = A.combined_curve(t + 1e-9)
            assert abs(below - above) < 1e-8

    def test_curve_peak_is_t1(self):
        t1, _ = A.solve_thresholds()
        _, peak = A.scan_then_golden_max(A.combined_curve, 1.0, 5.0, steps=1000)
        assert abs(peak - t1) < 1e-6

    def test_curve_regimes(self):
        assert A.combined_curve(0.5) == 1.0
        assert A.combined_curve(1.5) == 1.5
        assert A.combined_curve(5.0) == math.sqrt(3)


class TestExtremeUniformRule:
    def test_fixpoint_matches_closed_form(self):
        assert abs(A.solve_ute_rho() - A.ute_rho_star()) < 1e-9

    def test_ratio_fixpoint(self):
        rho = A.ute_rho_star()
        assert abs(A.ute_ratio(rho) - rho) < 1e-9
        assert abs(rho - 1.8667604) < 1e-6

    def test_immediate_fraction_vanishes_at_cap(self):
        for rho in (1.85, A.ute_rho_star(), 1.9):
            assert abs(A.ute_beta(rho, A.ute_p_star(rho))) < 1e-10

    def test_frozen_values(self):
        rho = A.ute_rho_star()
        assert abs(A.ute_p_star(rho) - 2.7960775) < 1e-6
        assert abs(A.ute_beta(rho, rho) - 0.2869610) < 1e-6
        assert abs(A.ute_ratio(A.DET_LB_PBAR) - 1.8551896) < 1e-6


class TestMakespanCurves:
    def test_det_curve_shape(self):
        phi = A.GOLDEN_RATIO
        assert A.makespan_det_curve(1.0) == 1.0
        assert A.makespan_det_curve(phi) == pytest.approx(phi, abs=1e-12)
        assert A.makespan_det_curve(phi + 1e-6) < phi

    def test_rand_curve_peak_at_two(self):
        assert A.makespan_rand_curve(2) == pytest.approx(4 / 3, abs=1e-15)
        assert A.makespan_rand_curve(1.5) < 4 / 3
        assert A.makespan_rand_curve(3) < 4 / 3

    def test_test_probability(self):
        assert A.makespan_test_probability(0.8) == 0.0
        assert A.makespan_test_probability(1) == 0.0
        assert A.makespan_test_probability(Fraction(2)) == Fraction(2, 3)
        assert A.makespan_test_probability(3) == Fraction(6, 7)
        assert A.makespan_test_probability(3.0) == 1 - 1 / 7.0

    def test_scanned_maxima(self):
        got = {e["name"]: e["computed_value"] for e in A.verify_constants()["constants"]}
        assert abs(got["makespan_det_ratio"] - A.GOLDEN_RATIO) < 1e-9
        assert abs(got["makespan_rand_ratio"] - 4 / 3) < 1e-9


class TestFamilyCosts:
    def test_threshold_family_exact(self):
        alg, opt = A.threshold_family_costs(1, 1, 1, Fraction(1, 4))
        assert (alg, opt) == (Fraction(65, 4), Fraction(37, 4))

    def test_threshold_family_approaches_two(self):
        k = 10 ** 6
        alg, opt = A.threshold_family_costs(k, k, 0)
        assert 1.999999 < alg / opt < 2

    def test_delay_all_family_exact(self):
        assert delay_all_family_costs(2, 1) == (11, 7)


class TestConstantRegistry:
    def test_all_pass_with_tight_tolerances(self):
        report = A.verify_constants()
        assert report["ok"]
        assert len(report["constants"]) == 15
        for entry in report["constants"]:
            assert entry["tolerance"] < 0.01
            assert entry["ok"], entry

    def test_computed_values_are_pinned(self):
        # exact floats from the solvers; a change to a search routine or formula shows here
        got = {e["name"]: e["computed_value"] for e in A.verify_constants()["constants"]}
        assert abs(got.pop("threshold_uniform_limit_ratio") - math.sqrt(3)) <= 1e-15
        assert got == {
            "threshold_sum_ratio": 1.99999960000024,
            "det_lb_ratio": 1.8546281091568344,
            "random_test_threshold": 1.7452628308477867,
            "random_exec_threshold": 2.8609095731282155,
            "rand_lb_ratio": 1.6257523845831854,
            "rand_lb_worst_q": 0.4226497234536202,
            "combined_no_test_threshold": 1.9337914333409567,
            "combined_switch_threshold": 2.294811601393996,
            "extreme_uniform_ratio": 1.8667603991734723,
            "extreme_uniform_ratio_at_lb_limit": 1.855189595408567,
            "extreme_uniform_limit_cap": 2.796077497300147,
            "extreme_uniform_immediate_fraction": 0.28696097636816564,
            "makespan_det_ratio": 1.6180339886537987,
            "makespan_rand_ratio": 1.3333333333333333,
        }

    def test_override_fails(self):
        bad = A.RAND_LB_PUBLISHED + 0.011
        report = A.verify_constants({"rand_lb_ratio": bad})
        assert not report["ok"]
        flagged = [e for e in report["constants"] if not e["ok"]]
        assert [e["name"] for e in flagged] == ["rand_lb_ratio"]

    def test_unknown_override_name(self):
        with pytest.raises(KeyError):
            A.verify_constants({"made_up": 1.0})
