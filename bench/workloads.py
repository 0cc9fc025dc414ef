"""The benchmark's three workloads: seeded op streams, the op, and its check.

An op reaches testsched only through `call(name, fn, *args, **kwargs)`.
The untraced run passes `plain`, the traced run a tracer that records a
span per call, so both runs do exactly the same work.  Checks run outside
the timed interval and compare every op against an independent oracle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from testsched import algorithms, analysis, core, engine, generators, offline

MC_N = 1000
MC_TRIALS = 20              # K: Monte Carlo trials per mix
MC_CONFIRM_TRIALS = 200     # criterion 04's K, used only to confirm a failed z test
MC_MAX_Z = 5.0
MC_SLACK = 0.02
GRID_N = 2000
GRID_SLACK = 0.02
PLACEMENTS = ("long_first", "long_last", "spread")
EXACT_N = 6
EXACT_T = Fraction(17453, 10000)
EXACT_E = Fraction(28609, 10000)
EXACT_EPS = Fraction(1, 10 ** 6)


class CheckFailed(AssertionError):
    """An op's output disagrees with its oracle."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def plain(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


@dataclass(frozen=True)
class Op:
    index: int
    point: tuple
    seed: str


@dataclass
class Out:
    inst: core.Instance
    opt: object                 # offline optimum of the sum objective
    result: object              # ExpectedRun or Trace
    brute: object = None        # brute-force optimum (exact workload only)


class Workload:
    """An endless, seeded op stream.

    `points()` returns the workload's grid; the seed shuffles it, and op i
    takes point i mod len(grid), so a run of any length samples the grid
    evenly.  Timed ops count up from index 0 and warm-up ops count down
    from -1, so the two take different points until the stream wraps.
    """

    name = ""
    warmup_ops = 0      # checked but untimed ops before the timed loop
    pass_ops = 100      # a run times whole passes of this many ops, at least 3
    traced_ops = 0      # fixed op count of a traced pass, so its counts repeat exactly

    def __init__(self, seed):
        self.seed = seed
        self.grid = self.points()
        random.Random(f"{self.name}:{seed}").shuffle(self.grid)

    def op(self, index):
        return Op(index, self.grid[index % len(self.grid)], f"{self.seed}:{index}")

    def points(self):
        raise NotImplementedError

    def run(self, op, call=plain):
        raise NotImplementedError

    def check(self, op, out, call=plain, opt_shift=0):
        """Raise CheckFailed unless `out` is right; `opt_shift` corrupts OPT."""
        raise NotImplementedError

    def probe_generator(self, op):
        """Generator function of one of the op's runs, for the traced run's probes."""
        raise NotImplementedError


class MonteCarloFourType(Workload):
    name = "mc_four_type"
    warmup_ops = 8
    traced_ops = 24

    def __init__(self, seed):
        super().__init__(seed)
        self.alg = algorithms.build_algorithm("random", {})

    def points(self):
        return [(i, j, k) for i in range(11) for j in range(11 - i) for k in range(11 - i - j)]

    def run(self, op, call=plain):
        a, b, g = (x / 10 for x in op.point)
        inst = call("generators.gen_four_type", generators.gen_four_type, MC_N, a, b, g)
        opt = call("offline.optimal_sum", offline.optimal_sum, inst).total
        src = call("engine.StaticSource", engine.StaticSource, inst)
        res = call("engine.run_expected", engine.run_expected, self.alg, src, inst.n,
                   inst.uppers(), trials=MC_TRIALS, seed=op.seed)
        return Out(inst, opt, res)

    def check(self, op, out, call=plain, opt_shift=0):
        T, E = analysis.RANDOM_T_PUBLISHED, analysis.RANDOM_E_PUBLISHED
        counts = generators.four_type_counts(MC_N, *(x / 10 for x in op.point))
        opt = out.opt + opt_shift
        want_opt = call("analysis.random_opt_cost", analysis.random_opt_cost, counts, T, E, 1e-6)
        expect(core.numbers_equal(opt, want_opt), f"OPT {opt} != closed form {want_opt}")
        want = call("analysis.random_expected_cost", analysis.random_expected_cost,
                    counts, T, E, 1e-6)
        mean = out.result.total
        expect(mean >= opt * (1 - core.REL_TOL), f"mean {mean} below OPT {opt}")
        expect(mean <= (T + MC_SLACK) * opt, f"mean/OPT {mean / opt} above {T + MC_SLACK}")
        if not _z_ok(out.result, want):
            # With K=20 the z score has t(19) tails: |z| > 5 has probability ~8e-5
            # per op, so a miss counts only if criterion 04's K confirms it.
            again = engine.run_expected(self.alg, engine.StaticSource(out.inst), out.inst.n,
                                        out.inst.uppers(), trials=MC_CONFIRM_TRIALS,
                                        seed=f"{op.seed}:confirm")
            expect(_z_ok(again, want), f"mean {again.total} is more than {MC_MAX_Z} standard "
                                       f"errors ({again.total_stderr}) from E[ALG] {want}")

    def probe_generator(self, op):
        return self.alg.generator(engine.trial_seed(op.seed, 0))


def _z_ok(res, want):
    return abs(res.total - want) <= MC_MAX_Z * res.total_stderr + core.REL_TOL * abs(want)


class UniformGrid(Workload):
    name = "uniform_grid"
    warmup_ops = 40
    traced_ops = 120

    def __init__(self, seed):
        super().__init__(seed)
        self.combined_bound = {}

    def points(self):
        # 5664 points, more than a run takes, so no timed point repeats.
        ute = [("ute", round(1.8668 + 0.05 * k, 10), gi / 50, pl)
               for k in range(33) for gi in range(51) for pl in PLACEMENTS]
        combined = [("combined", round(1.0 + 0.1 * s, 10), g, pl)
                    for s in range(41) for g in (0.0, 0.2, 0.4, 0.6, 0.8) for pl in PLACEMENTS]
        return ute + combined

    def run(self, op, call=plain):
        rule, p_bar, gamma, placement = op.point
        alg = call("algorithms.parse_algorithm", algorithms.parse_algorithm, rule)
        inst = call("generators.build_instance", generators.build_instance, "extreme_uniform",
                    {"n": GRID_N, "p_bar": p_bar, "gamma": gamma, "placement": placement})
        opt = call("offline.optimal_sum", offline.optimal_sum, inst).total
        src = call("engine.StaticSource", engine.StaticSource, inst)
        trace = call("engine.run", engine.run, alg.generator(), src, inst.n, inst.uppers())
        return Out(inst, opt, trace)

    def check(self, op, out, call=plain, opt_shift=0):
        rule, p_bar, gamma, _ = op.point
        trace = out.result
        total, _ = call("core.cost_of_trace", core.cost_of_trace, trace)
        call("core.check_trace_durations", core.check_trace_durations, trace, out.inst)
        expect(core.numbers_equal(total, trace.total),
               f"replayed total {total} != engine total {trace.total}")
        opt = out.opt + opt_shift
        want_opt = extreme_uniform_opt(GRID_N, p_bar, gamma)
        expect(core.numbers_equal(opt, want_opt), f"OPT {opt} != closed form {want_opt}")
        ratio = trace.total / opt
        expect(ratio >= 1 - core.REL_TOL, f"ratio {ratio} below 1")
        if rule == "ute":
            bound = analysis.UTE_RHO_PUBLISHED
        else:
            if p_bar not in self.combined_bound:
                self.combined_bound[p_bar] = analysis.combined_curve(p_bar) + GRID_SLACK
            bound = self.combined_bound[p_bar]
        expect(ratio <= bound, f"{rule} ratio {ratio} above its guarantee {bound}")

    def probe_generator(self, op):
        return algorithms.parse_algorithm(op.point[0]).generator()


def extreme_uniform_opt(n, p_bar, gamma):
    """Closed-form optimum of gen_extreme_uniform: the min(1, limit) keys go first."""
    nlong = math.floor(gamma * n)
    nzero = n - nlong
    cheap = min(1, p_bar)
    return (cheap * (nzero * (nzero + 1) // 2) + cheap * nzero * nlong
            + p_bar * (nlong * (nlong + 1) // 2))


class ExactFourType(Workload):
    name = "exact_four_type"
    warmup_ops = 8
    pass_ops = 35       # each profile once, so every run weighs them alike
    traced_ops = 24

    def __init__(self, seed):
        super().__init__(seed)
        self.alg = algorithms.build_algorithm("random", {"T": EXACT_T, "E": EXACT_E})

    def points(self):
        return [(i, j, k) for i in range(5) for j in range(5 - i) for k in range(5 - i - j)]

    def run(self, op, call=plain):
        a, b, g = (Fraction(x, 4) for x in op.point)
        inst = call("generators.gen_four_type", generators.gen_four_type, EXACT_N, a, b, g,
                    T=EXACT_T, E=EXACT_E, epsilon=EXACT_EPS)
        opt = call("offline.optimal_sum", offline.optimal_sum, inst).total
        src = call("engine.StaticSource", engine.StaticSource, inst)
        res = call("engine.run_expected", engine.run_expected, self.alg, src, inst.n,
                   inst.uppers(), exact=True)
        brute = call("offline.brute_force_optimum", offline.brute_force_optimum, inst)
        return Out(inst, opt, res, brute)

    def check(self, op, out, call=plain, opt_shift=0):
        counts = generators.four_type_counts(EXACT_N, *(Fraction(x, 4) for x in op.point))
        want = call("analysis.random_expected_cost", analysis.random_expected_cost,
                    counts, EXACT_T, EXACT_E, EXACT_EPS)
        want_opt = call("analysis.random_opt_cost", analysis.random_opt_cost,
                        counts, EXACT_T, EXACT_E, EXACT_EPS)
        opt = out.opt + opt_shift
        mean = out.result.total
        expect(out.result.exact and mean == want, f"E[ALG] {mean} != closed form {want}")
        expect(opt == out.brute == want_opt,
               f"OPT {opt}, brute force {out.brute}, closed form {want_opt} disagree")
        expect(mean <= EXACT_T * opt, f"E[ALG]/OPT {mean / opt} above {EXACT_T}")

    def probe_generator(self, op):
        return self.alg.generator(engine.trial_seed(op.seed, 0))


WORKLOADS = {w.name: w for w in (MonteCarloFourType, UniformGrid, ExactFourType)}
