"""Instance generators: counts, ordering, determinism, and dispatch."""

import math
import random
from fractions import Fraction

import pytest

from testsched import analysis
from testsched.core import EXEC_TESTED, EXEC_UNTESTED, TEST, InstanceError, validate_instance
from testsched.engine import run
from testsched.generators import (
    adversary_view,
    build_instance,
    det_lb_adversary,
    four_type_counts,
    gen_extreme_uniform,
    gen_four_type,
    gen_rand_lb,
    gen_random,
    gen_threshold_worstcase,
    gen_uniform_mixed,
)


class TestThresholdWorstcase:
    def test_ordering_and_counts(self):
        inst = gen_threshold_worstcase(1, 2, 3, epsilon=Fraction(1, 2))
        pairs = [(j.upper, j.proc) for j in inst.jobs]
        long = (Fraction(5, 2), Fraction(5, 2))
        assert pairs == [long] * 3 + [(2, 2)] * 2 + [(2, 0)]

    def test_rejects_empty_or_negative(self):
        with pytest.raises(InstanceError):
            gen_threshold_worstcase(0, 0, 0)
        with pytest.raises(InstanceError):
            gen_threshold_worstcase(-1, 2, 0)


class TestFourType:
    def test_counts_floor_with_residual(self):
        assert four_type_counts(10, 0.25, 0.25, 0.25) == (4, 2, 2, 2)
        assert four_type_counts(7, 0.3, 0.3, 0.3) == (1, 2, 2, 2)

    def test_counts_reject_overfull(self):
        with pytest.raises(InstanceError):
            four_type_counts(4, 0.5, 0.5, 0.5)

    def test_instance_order(self):
        T, E = Fraction(7, 4), Fraction(11, 4)
        inst = gen_four_type(8, 0.25, 0.25, 0.25, T=T, E=E, epsilon=Fraction(1, 100))
        pairs = [(j.upper, j.proc) for j in inst.jobs]
        assert pairs[:2] == [(T, 0)] * 2
        assert pairs[2:4] == [(T, T)] * 2
        assert pairs[4:6] == [(E, E)] * 2
        assert pairs[6:] == [(E + Fraction(1, 100), E + Fraction(1, 100))] * 2


class TestDetLbAdversary:
    def test_commit_rule(self):
        def probe(view):
            n, uppers = view
            yield TEST, 0            # touch 1, via test: comes out long
            yield EXEC_UNTESTED, 1   # touch 2, blind: free
            yield TEST, 2            # touch 3, over budget: free
            yield TEST, 3
            yield EXEC_TESTED, 0
            yield EXEC_TESTED, 2
            yield EXEC_TESTED, 3

        src = det_lb_adversary(4, 0.5, 2.0)
        run(probe, src, 4, adversary_view(4, 2.0))
        procs = src.realized_instance().procs()
        assert procs == (2.0, 0, 0, 0)

    def test_parameter_validation(self):
        with pytest.raises(InstanceError):
            det_lb_adversary(10, 0.0, 2.0)
        with pytest.raises(InstanceError):
            det_lb_adversary(10, 0.5, 1.0)
        with pytest.raises(InstanceError):
            det_lb_adversary(0, 0.5, 2.0)

    def test_view_shape(self):
        assert adversary_view(3, 2.5) == [2.5, 2.5, 2.5]


class TestRandLb:
    def test_two_point_values(self):
        inst = gen_rand_lb(60, 0.5, seed="a")
        assert all(j.upper == 2 for j in inst.jobs)
        assert set(inst.procs()) == {0, 2.0}

    def test_deterministic_by_seed(self):
        a = gen_rand_lb(40, 0.4, seed="s1")
        b = gen_rand_lb(40, 0.4, seed="s1")
        c = gen_rand_lb(40, 0.4, seed="s2")
        assert a.procs() == b.procs()
        assert a.procs() != c.procs()

    def test_exact_mode(self):
        inst = gen_rand_lb(30, Fraction(1, 2), seed="e")
        assert all(isinstance(j.upper, Fraction) and j.upper == 2 for j in inst.jobs)
        assert all(j.proc in (0, Fraction(2)) for j in inst.jobs)

    def test_rejects_bad_q(self):
        with pytest.raises(InstanceError):
            gen_rand_lb(5, 0.0, seed="x")
        with pytest.raises(InstanceError):
            gen_rand_lb(5, 1.0, seed="x")


class TestExtremeUniform:
    def test_placements_share_counts(self):
        insts = {place: gen_extreme_uniform(10, 2.5, 0.3, placement=place)
                 for place in ("long_first", "long_last", "spread")}
        for inst in insts.values():
            validate_instance(inst)
            assert sum(1 for j in inst.jobs if j.proc == 2.5) == 3
        first = insts["long_first"].procs()
        last = insts["long_last"].procs()
        assert first[:3] == (2.5,) * 3
        assert last[-3:] == (2.5,) * 3

    def test_spread_is_interleaved(self):
        inst = gen_extreme_uniform(10, 2.0, 0.3, placement="spread")
        longs = [j.id for j in inst.jobs if j.proc == 2.0]
        assert longs == [3, 6, 9]

    def test_spread_matches_the_float_floor_loop(self):
        # the earlier loop: long at i when floor((i + 1) * nlong / n) passes the longs placed so far;
        # every nlong at every n <= 64 and at larger n around powers of two, up to 300
        for n in (*range(1, 65), 97, 127, 128, 129, 255, 256, 257, 299, 300):
            for nlong in range(n + 1):
                want, placed = [], 0
                for i in range(n):
                    is_long = math.floor((i + 1) * nlong / n) > placed
                    placed += is_long
                    want.append(2.0 if is_long else 0)
                inst = gen_extreme_uniform(n, 2.0, Fraction(nlong, n), placement="spread")
                assert inst.procs() == tuple(want), (n, nlong)

    def test_unknown_placement(self):
        with pytest.raises(InstanceError, match="placement"):
            gen_extreme_uniform(10, 2.0, 0.3, placement="sideways")


class TestUniformMixed:
    def test_default_mid_value(self):
        inst = gen_uniform_mixed(10, 3.0, long_frac=0.2, mid_frac=0.3)
        procs = inst.procs()
        assert procs[:2] == (3.0,) * 2
        assert procs[2:5] == (2.0,) * 3
        assert procs[5:] == (0,) * 5

    def test_rejects_bad_shapes(self):
        with pytest.raises(InstanceError):
            gen_uniform_mixed(10, 3.0, long_frac=0.6, mid_frac=0.6)
        with pytest.raises(InstanceError):
            gen_uniform_mixed(10, 3.0, mid_frac=0.1, mid_value=3.5)


class TestGenRandom:
    def test_bounds(self):
        inst = gen_random(200, seed="r")
        for j in inst.jobs:
            assert 0 < j.upper <= 4
            assert 0 <= j.proc <= j.upper

    def test_exact_grid(self):
        inst = gen_random(50, seed="r", exact=True, denominator=8)
        for j in inst.jobs:
            assert isinstance(j.upper, Fraction)
            assert (j.upper * 8).denominator == 1
            assert (j.proc * 8).denominator == 1
            assert j.proc <= j.upper

    def test_deterministic(self):
        assert gen_random(20, seed="z").procs() == gen_random(20, seed="z").procs()


class TestDispatch:
    def test_known_names(self):
        inst = build_instance("extreme_uniform", {"n": 6, "p_bar": 2.0, "gamma": 0.5})
        assert inst.n == 6

    def test_unknown_name(self):
        with pytest.raises(InstanceError, match="unknown generator"):
            build_instance("mystery", {})

    def test_bad_params(self):
        with pytest.raises(InstanceError, match="bad parameters"):
            build_instance("rand_lb", {"n": 5})


# Reference: each generator's earlier construction, an (upper, proc) pair list that
# `Instance.from_pairs` transposed.  The generators now build the two columns directly;
# these pin them element by element, value and type.
def pairs_threshold_worstcase(a, b, c, epsilon=1e-6):
    return [(2 + epsilon, 2 + epsilon)] * c + [(2, 2)] * b + [(2, 0)] * a


def pairs_four_type(n, alpha, beta, gamma, T=None, E=None, epsilon=1e-6):
    T = analysis.RANDOM_T_PUBLISHED if T is None else T
    E = analysis.RANDOM_E_PUBLISHED if E is None else E
    m0, mt, me, md = four_type_counts(n, alpha, beta, gamma)
    return [(T, 0)] * m0 + [(T, T)] * mt + [(E, E)] * me + [(E + epsilon, E + epsilon)] * md


def pairs_rand_lb(n, q, seed):
    rng = random.Random(seed)
    limit = 1 / q
    return [(limit, 0 if rng.random() < q else limit) for _ in range(n)]


def pairs_extreme_uniform(n, p_bar, gamma, placement="long_first"):
    nlong = math.floor(gamma * n)
    long_job, zero_job = (p_bar, p_bar), (p_bar, 0)
    if placement == "long_first":
        return [long_job] * nlong + [zero_job] * (n - nlong)
    if placement == "long_last":
        return [zero_job] * (n - nlong) + [long_job] * nlong
    return [long_job if (i + 1) * nlong // n > i * nlong // n else zero_job for i in range(n)]


def pairs_uniform_mixed(n, p_bar, long_frac=0.0, mid_frac=0.0, mid_value=None):
    mid_value = max(1, p_bar - 1) if mid_value is None else mid_value
    nlong, nmid = math.floor(long_frac * n), math.floor(mid_frac * n)
    return [(p_bar, p_bar)] * nlong + [(p_bar, mid_value)] * nmid + [(p_bar, 0)] * (n - nlong - nmid)


def pairs_random(n, seed, exact=False, denominator=1000):
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        if exact:
            num = rng.randrange(1, 4 * denominator + 1)
            u = Fraction(num, denominator)
            p = Fraction(rng.randrange(0, num + 1), denominator)
        else:
            u = rng.uniform(1e-3, 4)
            p = rng.uniform(0.0, u)
        pairs.append((u, p))
    return pairs


EPS = Fraction(1, 100)
COLUMN_CASES = {
    "threshold_worstcase": (gen_threshold_worstcase, pairs_threshold_worstcase, [
        ((1, 2, 3), {}), ((4, 0, 0), {}), ((0, 0, 2), {"epsilon": EPS}), ((3, 1, 2), {"epsilon": 0})]),
    "four_type": (gen_four_type, pairs_four_type, [
        ((n, *fracs), kw)
        for n in (1, 7, 10, 1000)
        for fracs in ((0.25, 0.25, 0.25), (Fraction(1, 3), Fraction(1, 6), 0), (0.4, 0.1, 0.3), (0, 0, 0))
        for kw in ({}, {"T": Fraction(7, 4), "E": Fraction(11, 4), "epsilon": EPS},
                   {"T": 2, "E": 3, "epsilon": 0.5})]),
    "extreme_uniform": (gen_extreme_uniform, pairs_extreme_uniform, [
        ((n, p_bar, gamma, place), {})
        for n in (1, 2, 7, 10, 2000)
        for gamma in sorted({Fraction(0), Fraction(1, n), Fraction(n - 1, n), Fraction(1), 0.3, 0.5, 0.999})
        for p_bar in (2.5, Fraction(5, 2), 3)
        for place in ("long_first", "long_last", "spread")]),
    "uniform_mixed": (gen_uniform_mixed, pairs_uniform_mixed, [
        ((n, p_bar), kw)
        for n in (1, 10, 2000)
        for p_bar in (3.0, Fraction(5, 2), 4)
        for kw in ({}, {"long_frac": 0.2, "mid_frac": 0.3}, {"long_frac": Fraction(1, 2), "mid_value": 1})]),
    "rand_lb": (gen_rand_lb, pairs_rand_lb, [
        ((n, q, seed), {})
        for n in (1, 60, 2000)
        for seed in ("a", 1, 918273)
        for q in (0.5, 0.3, Fraction(1, 3))]),
    "random": (gen_random, pairs_random, [
        ((n, seed), kw)
        for n in (1, 50, 500)
        for seed in ("r", 2, 918273)
        for kw in ({}, {"exact": True}, {"exact": True, "denominator": 8},
                   {"exact": True, "denominator": 6})]),
}


@pytest.mark.parametrize("name", sorted(COLUMN_CASES))
def test_columns_match_the_pair_lists(name):
    gen, pairs_of, cases = COLUMN_CASES[name]
    for args, kwargs in cases:
        inst = gen(*args, **kwargs)
        pairs = pairs_of(*args, **kwargs)
        for got, want in ((inst.uppers(), [u for u, _ in pairs]), (inst.procs(), [p for _, p in pairs])):
            assert list(got) == want, (args, kwargs)
            assert list(map(type, got)) == list(map(type, want)), (args, kwargs)
