"""End-to-end command line behavior through main(argv)."""

import argparse
import concurrent.futures
import contextlib
import csv
import inspect
import io
import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testsched import algorithms, analysis, cli, engine, evaluation, generators
from testsched.algorithms import parse_algorithm
from testsched.analysis import DET_LB_DELTA, DET_LB_PBAR
from testsched.cli import main
from testsched.evaluation import worker_count


def read_json(path):
    with open(path) as f:
        return json.load(f)


class TestSimulate:
    def test_stdout_report(self, capsys):
        rc = main(["simulate", "threshold", "--gen", "threshold_worstcase",
                   "--param", "a=1", "--param", "b=1", "--param", "c=1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["algorithm"] == "threshold"
        assert report["objective"] == "sum"
        assert report["n"] == 3
        assert report["ratio"] == pytest.approx(16.000001 / 9.000001, rel=1e-9)

    def test_cost_past_a_float_is_written_as_p_over_q(self, tmp_path, capsys):
        big = f"{10**400}/3"
        inst = tmp_path / "big.json"
        inst.write_text(f'[{{"upper": "{big}", "proc": "{big}"}}]')
        assert main(["simulate", "threshold", "--mode", "rational", "--instance", str(inst)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["opt_cost"] == big
        assert report["alg_cost"] == f"{10**400 + 3}/3"  # tested: 1 + p
        assert report["ratio"] == 1.0

    @pytest.mark.parametrize("upper, ratio", [(10**400, str(10**400)), (f"{10**400}/3", f"{10**400}/3")],
                             ids=["whole", "p_over_q"])
    def test_ratio_past_a_float_is_written_as_p_over_q(self, tmp_path, capsys, upper, ratio):
        inst = tmp_path / "big.json"
        inst.write_text(json.dumps([{"upper": upper, "proc": 0}]))
        assert main(["simulate", "lb_schedule[nu=1,lam=0,delta=1]", "--mode", "rational",
                     "--instance", str(inst)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["opt_cost"] == 1  # the blind run costs the limit, OPT tests for 1 + 0
        assert report["ratio"] == ratio

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["simulate", "delay_all", "--gen", "extreme_uniform",
                   "--param", "n=4", "--param", "p_bar=2.0", "--param", "gamma=0.5",
                   "--out", str(out)])
        assert rc == 0
        assert read_json(out)["algorithm"] == "delay_all"

    def test_makespan_objective(self, capsys):
        rc = main(["simulate", "makespan_det", "--gen", "extreme_uniform",
                   "--param", "n=5", "--param", "p_bar=2.0", "--param", "gamma=0.4",
                   "--objective", "makespan"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["objective"] == "makespan"
        assert report["ratio"] <= 1.619

    def test_objective_defaults_to_the_rule_s_own(self, capsys):
        rc = main(["simulate", "makespan_det", "--gen", "extreme_uniform",
                   "--param", "n=5", "--param", "p_bar=2.0", "--param", "gamma=0.4"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["objective"] == "makespan"
        assert report["ratio"] <= (1 + 5 ** 0.5) / 2

    def test_randomized_needs_seed(self, capsys):
        rc = main(["simulate", "random", "--gen", "extreme_uniform",
                   "--param", "n=4", "--param", "p_bar=2.0", "--param", "gamma=0.5"])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_exact_rational_expectation(self, capsys):
        rc = main(["simulate", "random", "--exact", "--mode", "rational",
                   "--gen", "four_type", "--param", "n=4",
                   "--param", "alpha=1/4", "--param", "beta=1/4",
                   "--param", "gamma=1/4", "--param", "epsilon=1/100"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact"] is True
        assert report["trials"] == 24
        assert report["stderr"] == 0

    def test_exact_count_past_a_safe_json_integer_is_null(self, capsys):
        # every job is tested: 2000! outcomes, 5736 digits, past the 4300 that `json.dumps` writes
        rc = main(["simulate", "random", "--exact", "--mode", "rational",
                   "--gen", "four_type", "--param", "n=2000",
                   "--param", "alpha=3/10", "--param", "beta=1/5", "--param", "gamma=1/10"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["exact"], report["trials"], report["stderr"]) == (True, None, 0)
        assert 1 <= report["ratio"] <= 1.7453

    def test_trace_out_rejected_for_randomized(self, tmp_path, capsys):
        rc = main(["simulate", "random", "--seed", "s", "--gen", "extreme_uniform",
                   "--param", "n=4", "--param", "p_bar=2.0", "--param", "gamma=0.5",
                   "--trace-out", str(tmp_path / "t.jsonl")])
        assert rc == 2

    def test_needs_instance_or_generator(self, capsys):
        assert main(["simulate", "threshold"]) == 2

    def test_unknown_algorithm(self, capsys):
        assert main(["simulate", "nope", "--gen", "extreme_uniform",
                     "--param", "n=2", "--param", "p_bar=2.0", "--param", "gamma=0.5"]) == 2

    def test_bad_generator_params(self, capsys):
        assert main(["simulate", "threshold", "--gen", "rand_lb",
                     "--param", "n=5"]) == 2


class TestRoundTrip:
    def test_gen_simulate_replay(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        trace = tmp_path / "trace.jsonl"
        rep = tmp_path / "rep.json"
        out = tmp_path / "replay.json"
        assert main(["gen", "extreme_uniform", "--param", "n=6",
                     "--param", "p_bar=2.5", "--param", "gamma=0.5",
                     "--out", str(inst)]) == 0
        assert main(["simulate", "threshold", "--instance", str(inst),
                     "--trace-out", str(trace), "--out", str(rep)]) == 0
        assert main(["replay", "--instance", str(inst), "--trace", str(trace),
                     "--out", str(out)]) == 0
        replayed = read_json(out)
        assert replayed["ok"] is True
        assert replayed["total"] == pytest.approx(read_json(rep)["alg_cost"])
        assert replayed["opt_total"] == pytest.approx(read_json(rep)["opt_cost"])

    def test_replay_rejects_corrupt_trace(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        trace = tmp_path / "trace.jsonl"
        main(["gen", "extreme_uniform", "--param", "n=4", "--param", "p_bar=2.0",
              "--param", "gamma=0.5", "--out", str(inst)])
        main(["simulate", "threshold", "--instance", str(inst),
              "--trace-out", str(trace), "--out", str(tmp_path / "r.json")])
        lines = trace.read_text().splitlines()
        lines.append(lines[-1])  # a job executed twice
        trace.write_text("\n".join(lines) + "\n")
        assert main(["replay", "--instance", str(inst), "--trace", str(trace)]) == 1

    def test_rational_thirds_replay_exactly(self, tmp_path, capsys):
        inst, trace = tmp_path / "inst.json", tmp_path / "trace.jsonl"
        assert main(["gen", "extreme_uniform", "--mode", "rational", "--param", "n=3",
                     "--param", "p_bar=7/3", "--param", "gamma=1/3", "--out", str(inst)]) == 0
        assert '"7/3"' in inst.read_text()
        assert main(["simulate", "threshold", "--mode", "rational", "--instance", str(inst),
                     "--trace-out", str(trace), "--out", str(tmp_path / "r.json")]) == 0
        assert '"7/3"' in trace.read_text()
        capsys.readouterr()
        assert main(["replay", "--mode", "rational", "--instance", str(inst), "--trace", str(trace)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    @pytest.mark.parametrize("argv", [
        ["gen", "threshold_worstcase", "--param", "a=1", "--param", "b=1", "--param", "c=1"],
        ["gen", "extreme_uniform", "--mode", "rational", "--param", "n=3", "--param", "p_bar=7/3",
         "--param", "gamma=1/3"],
    ], ids=["float", "rational"])
    def test_gen_prints_the_file_it_writes(self, tmp_path, capsys, argv):
        out = tmp_path / "inst.json"
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main(argv + ["--out", str(out)]) == 0
        assert printed == out.read_text()

    def test_lower_key_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text('[{"upper": 2, "proc": 1, "lower": 0.5}]')
        assert main(["simulate", "threshold", "--instance", str(inst)]) == 2
        err = capsys.readouterr().err
        assert err == "error: job 0: unknown key 'lower' (a job has only 'upper' and 'proc')\n"


# each generator's count parameter, with a valid setting of its other parameters
COUNTED = {
    "threshold_worstcase": ("a", ["b=1", "c=1"]),
    "four_type": ("n", ["alpha=0", "beta=0", "gamma=0"]),
    "rand_lb": ("n", ["q=0.4", "seed=1"]),
    "extreme_uniform": ("n", ["p_bar=2", "gamma=0.5"]),
    "uniform_mixed": ("n", ["p_bar=2.5", "long_frac=0.5"]),
    "random": ("n", ["seed=1"]),
}


class TestSweep:
    GRID = ["sweep", "threshold", "--gen", "extreme_uniform", "--param", "n=40",
            "--sweep", "p_bar=2.5:3.0:0.5", "--sweep", "gamma=0.2:0.4:0.2"]  # 4 points

    def run_sweep(self, out, extra=()):
        return main(self.GRID + ["--out", str(out)] + list(extra))

    def test_row_major_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert self.run_sweep(out) == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        coords = [(r["p_bar"], r["gamma"]) for r in rows]
        assert coords == [("2.5", "0.2"), ("2.5", "0.4"), ("3.0", "0.2"), ("3.0", "0.4")]
        for r in rows:
            assert float(r["ratio"]) == pytest.approx(
                float(r["alg_cost"]) / float(r["opt_cost"]))

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert self.run_sweep(a) == 0
        monkeypatch.setenv("TESTSCHED_WORKERS", "2")
        assert self.run_sweep(b) == 0
        assert a.read_text() == b.read_text()

    def test_never_more_workers_than_points(self, tmp_path, monkeypatch):
        # a stand-in pool records its size and maps in this process: no process is started
        sizes = []

        class SerialPool:
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert self.run_sweep(a) == 0
        monkeypatch.setenv("TESTSCHED_WORKERS", "64")
        assert self.run_sweep(b) == 0
        assert sizes == [4]
        assert a.read_text() == b.read_text()

    def test_a_serial_sweep_never_loads_the_process_pool(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "TESTSCHED_WORKERS": "1"}
        out = tmp_path / "fresh.csv"
        code = ("import sys\n"
                "from testsched.cli import main\n"
                f"rc = main({self.GRID + ['--out', str(out)]!r})\n"
                "print(rc, 'concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True)
        assert (done.returncode, done.stderr, done.stdout) == (0, "", "0 False False\n")
        assert self.run_sweep(tmp_path / "in_process.csv") == 0
        assert out.read_text() == (tmp_path / "in_process.csv").read_text()

    def test_spawned_workers_through_the_module_entry_point(self, tmp_path):
        # `python -m testsched` runs an unguarded __main__.py, which a spawned worker must not run
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "TESTSCHED_WORKERS": "2"}
        out = tmp_path / "spawned.csv"
        # the output pipes end only once every process holding them, each worker and the
        # resource tracker too, has exited: run returns with none of them left
        done = subprocess.run([sys.executable, "-m", "testsched"] + self.GRID + ["--out", str(out)],
                              env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr, done.stdout) == (0, "", "")
        assert self.run_sweep(tmp_path / "serial.csv") == 0
        assert out.read_bytes() == (tmp_path / "serial.csv").read_bytes()

    @pytest.mark.parametrize("where", ["absent/x.csv", "."], ids=["missing_dir", "directory"])
    def test_an_unwritable_out_is_refused_before_any_point(self, tmp_path, monkeypatch, capsys, where):
        calls = []
        monkeypatch.setattr(evaluation, "sweep_point", lambda task: calls.append(task))
        path = tmp_path / where
        assert self.run_sweep(path) == 2
        strerror = "Is a directory" if path.is_dir() else "No such file or directory"
        assert one_error_line(capsys) == f"{path}: {strerror}"
        assert calls == []

    @pytest.mark.parametrize("older", [None, "an older file\n"], ids=["new_file", "existing_file"])
    def test_a_failed_point_leaves_the_out_path_as_it_was(self, tmp_path, capsys, older):
        out = tmp_path / "grid.csv"
        if older is not None:
            out.write_text(older)
        # the first point runs, the second asks for a long fraction past 1
        argv = ["sweep", "threshold", "--gen", "extreme_uniform", "--param", "n=4", "--param", "p_bar=2.5",
                "--sweep", "gamma=0.5:1.5:1", "--out", str(out)]
        assert main(argv) == 2
        assert one_error_line(capsys) == "bad long fraction 1.5 for n=4"
        assert (out.read_text() if out.exists() else None) == older

    def test_out_replaces_a_file_with_the_stdout_bytes(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        out.write_text("an older and longer file\n" * 40)
        assert self.run_sweep(out) == 0
        assert main(self.GRID) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode()

    def test_worker_count_takes_its_default_only_when_unset(self, monkeypatch):
        monkeypatch.delenv("TESTSCHED_WORKERS", raising=False)
        assert worker_count(3) == 3
        monkeypatch.setenv("TESTSCHED_WORKERS", "2")
        assert worker_count(3) == 2

    @pytest.mark.parametrize("workers", ["abc", "0"])
    def test_bad_worker_count(self, tmp_path, monkeypatch, capsys, workers):
        monkeypatch.setenv("TESTSCHED_WORKERS", workers)
        assert self.run_sweep(tmp_path / "x.csv") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: TESTSCHED_WORKERS must be an integer >= 1, got {workers!r}"]

    def test_seeded_randomized_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "random", "--gen", "extreme_uniform", "--param", "n=30",
                "--sweep", "gamma=0.2:0.4:0.2", "--param", "p_bar=2.5",
                "--trials", "20", "--seed", "s7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_randomized_needs_seed(self, tmp_path, capsys):
        rc = main(["sweep", "random", "--gen", "extreme_uniform",
                   "--param", "n=10", "--param", "p_bar=2.5",
                   "--sweep", "gamma=0.2:0.4:0.2", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_objective_defaults_to_the_rule_s_own(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "makespan_det", "--gen", "extreme_uniform", "--param", "n=5",
                "--param", "gamma=0.4", "--sweep", "p_bar=2:3:1"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--objective", "makespan", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_zero_optimum_exits_2(self, tmp_path, capsys):
        rc = main(["sweep", "threshold", "--gen", "extreme_uniform", "--param", "n=4",
                   "--param", "gamma=0", "--sweep", "p_bar=0:0:1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: offline optimum is zero; ratio undefined"]

    PINNED_CSV = {
        "random": (["--gen", "four_type", "--param", "n=12", "--sweep", "alpha=0.1:0.2:0.1",
                    "--sweep", "beta=0.1:0.2:0.1", "--sweep", "gamma=0:0.1:0.1",
                    "--seed", "s3", "--trials", "4"],
                   "alpha,beta,gamma,alg_cost,opt_cost,ratio,stderr\n"
                   "0.1,0.1,0.0,106.35242500000001,81.3515,1.3073197789837927,3.150004223376799\n"
                   "0.1,0.1,0.1,119.97695100000001,85.818601,1.3980296765732643,9.485277162573237\n"
                   "0.1,0.2,0.0,128.402925,85.8186,1.4962132334948368,8.83923076982899\n"
                   "0.1,0.2,0.1,132.90762600000002,92.146601,1.442349740062577,1.981532449214918\n"
                   "0.2,0.1,0.0,118.49762500000001,83.5874,1.4176493705989182,7.983028352216445\n"
                   "0.2,0.1,0.1,137.723651,88.799801,1.5509454914206393,3.665361244020389\n"
                   "0.2,0.2,0.0,129.770175,88.7998,1.461379135989045,6.773332786053334\n"
                   "0.2,0.2,0.1,148.999726,95.873101,1.5541348349627284,5.299421773705601\n"),
        "ute": (["--gen", "uniform_mixed", "--param", "n=20", "--sweep", "p_bar=1.5:2.5:1",
                 "--sweep", "long_frac=0.2:0.4:0.2", "--sweep", "mid_frac=0:0.2:0.2"],
                "p_bar,long_frac,mid_frac,alg_cost,opt_cost,ratio,stderr\n"
                "1.5,0.2,0.0,315.0,215.0,1.4651162790697674,\n"
                "1.5,0.2,0.2,315.0,228.0,1.381578947368421,\n"
                "1.5,0.4,0.0,315.0,228.0,1.381578947368421,\n"
                "1.5,0.4,0.2,315.0,249.0,1.2650602409638554,\n"
                "2.5,0.2,0.0,348.0,225.0,1.5466666666666666,\n"
                "2.5,0.2,0.2,429.0,264.0,1.625,\n"
                "2.5,0.4,0.0,447.0,264.0,1.6931818181818181,\n"
                "2.5,0.4,0.2,536.0,327.0,1.6391437308868502,\n"),
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("rule", sorted(PINNED_CSV))
    def test_three_axis_csv_is_pinned(self, tmp_path, monkeypatch, rule, workers):
        args, text = self.PINNED_CSV[rule]
        monkeypatch.setenv("TESTSCHED_WORKERS", workers)
        out = tmp_path / "grid.csv"
        assert main(["sweep", rule] + args + ["--out", str(out)]) == 0
        assert out.read_text() == text

    def test_bad_axis_spec(self, tmp_path, capsys):
        rc = main(["sweep", "threshold", "--gen", "extreme_uniform",
                   "--param", "n=10", "--param", "p_bar=2.5",
                   "--sweep", "gamma=0.2:0.4", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_an_axis_with_no_range_exits_2(self, capsys):
        assert main(["sweep", "threshold", "--gen", "extreme_uniform", "--sweep", "gamma"]) == 2
        assert one_error_line(capsys) == "expected name=lo:hi:step, got 'gamma'"

    def test_no_axis_is_a_usage_error(self, capsys):
        # argparse refuses it, before the command runs
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "threshold", "--gen", "extreme_uniform", "--param", "n=4"])
        assert exc.value.code == 2
        assert "--sweep" in capsys.readouterr().err

    def test_duplicate_axis_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["sweep", "threshold", "--gen", "extreme_uniform",
                   "--param", "n=10", "--param", "p_bar=2.5", "--sweep", "gamma=0.2:0.4:0.2",
                   "--sweep", "gamma=0.6:0.6:0.1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: sweep axis 'gamma' given twice\n"
        assert not out.exists()


    @pytest.mark.parametrize("gen", sorted(COUNTED))
    def test_a_count_axis_equals_simulate_at_each_count(self, capsys, gen):
        # the axis values are floats 2.0, 3.0, 4.0; a generator takes each as its int
        name, params = COUNTED[gen]
        fixed = [arg for pair in params for arg in ("--param", pair)]
        assert main(["sweep", "threshold", "--gen", gen, *fixed, "--sweep", f"{name}=2:4:1"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == [name, "alg_cost", "opt_cost", "ratio", "stderr"]
        for count, row in zip((2, 3, 4), rows[1:], strict=True):
            assert main(["simulate", "threshold", "--gen", gen, *fixed, "--param", f"{name}={count}"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert [float(x) for x in row[:4]] == [count, report["alg_cost"], report["opt_cost"], report["ratio"]]
            assert row[4] == ""


class TestVerifyConstants:
    def test_all_ok(self, capsys):
        assert main(["verify-constants"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 15
        assert all(line.endswith(" ok") for line in lines)

    def test_override_fails(self, capsys):
        rc = main(["verify-constants", "--override", "rand_lb_ratio=1.63575"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_unknown_name(self, capsys):
        assert main(["verify-constants", "--override", "bogus=1.0"]) == 2

    def test_malformed_override(self, capsys):
        assert main(["verify-constants", "--override", "rand_lb_ratio"]) == 2

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_an_int_override_past_a_float_is_infinite(self, capsys, sign):
        # an int with 401 digits ends as "1e400" does: an infinite value that fails its check
        assert main(["verify-constants", "--override", f"threshold_sum_ratio={sign}1e400"]) == 1
        as_float = capsys.readouterr()
        assert main(["verify-constants", "--override", f"threshold_sum_ratio={sign}1{'0' * 400}"]) == 1
        assert capsys.readouterr() == as_float
        line = next(line for line in as_float.out.splitlines() if line.startswith("threshold_sum_ratio"))
        assert f" computed={sign}inf " in line and line.endswith(" FAIL")


class TestLowerBound:
    def test_det_small(self, tmp_path):
        out = tmp_path / "lb.json"
        rc = main(["lower-bound", "det", "--n", "200",
                   "--algorithms", "threshold,best_schedule", "--out", str(out)])
        assert rc == 0
        payload = read_json(out)
        assert payload["analytic"] == pytest.approx(1.8546281, abs=1e-6)
        assert len(payload["runs"]) == 2
        assert payload["min_observed"] > 1.5

    def test_rand_needs_seed(self, capsys):
        assert main(["lower-bound", "rand", "--n", "20", "--trials", "2"]) == 2

    def test_rand_small(self, tmp_path):
        out = tmp_path / "lb.json"
        rc = main(["lower-bound", "rand", "--n", "60", "--trials", "5",
                   "--seed", "s", "--algorithms", "threshold,random",
                   "--out", str(out)])
        assert rc == 0
        payload = read_json(out)
        assert payload["analytic"] == pytest.approx(1.6257524, abs=1e-6)
        assert {r["algorithm"] for r in payload["runs"]} == {"threshold", "random"}
        assert payload["min_observed"] > 1.0

    def test_rand_repeated_name_counts_once(self, capsys):
        argv = ["lower-bound", "rand", "--n", "10", "--trials", "2", "--seed", "1", "--algorithms"]
        assert main(argv + ["threshold"]) == 0
        once = json.loads(capsys.readouterr().out)["runs"]
        assert main(argv + ["threshold,threshold"]) == 0
        assert json.loads(capsys.readouterr().out)["runs"] == once * 2

    def test_det_rejects_randomized(self, capsys):
        assert main(["lower-bound", "det", "--n", "50",
                     "--algorithms", "random"]) == 2

    @pytest.mark.parametrize("argv", [
        ["det", "--q", "0.3"], ["det", "--seed", "zz"], ["det", "--trials", "7"],
        ["rand", "--seed", "1", "--delta", "0.5"], ["rand", "--seed", "1", "--p-bar", "2"],
    ], ids=["det_q", "det_seed", "det_trials", "rand_delta", "rand_p_bar"])
    def test_a_flag_of_the_other_kind_is_refused(self, capsys, argv):
        # each kind reads its own flags only; another kind's flag once parsed and was ignored
        with pytest.raises(SystemExit) as exc:
            main(["lower-bound"] + argv + ["--n", "10"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, runs", [
        (["rand", "--n", "3", "--seed", "1", "--trials", "2", "--algorithms", "random[T=1.5,E=2]"],
         [("random[T=1.5,E=2]", None)]),
        (["det", "--n", "5", "--algorithms", "lb_schedule[nu=0.1,lam=0.2],threshold"],
         [("lb_schedule", "adversary schedule (nu=0.1, lam=0.2, delta=0.6306655)"),
          ("threshold", "threshold rule")]),
    ], ids=["rand_two_parameters", "det_two_parameters_then_a_rule"])
    def test_a_comma_inside_brackets_belongs_to_its_rule(self, capsys, argv, runs):
        assert main(["lower-bound"] + argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert [(r["algorithm"], r.get("label")) for r in report["runs"]] == runs


def lb_run(algorithm, label, alg_cost, opt_cost, ratio):
    return {"algorithm": algorithm, "label": label, "alg_cost": alg_cost, "opt_cost": opt_cost,
            "ratio": ratio}


def rand_run(algorithm, mean_alg, ratio):
    return {"algorithm": algorithm, "mean_alg": mean_alg, "mean_opt": 1953.64142060011,
            "ratio": ratio}


class TestPinnedOutput:
    """The exact stdout of three commands; `det` carries every rule label the registry builds."""

    LB_DET = {
        "bound": "adaptive-deterministic", "delta": 0.6306655, "p_bar": 1.9896202, "n": 200,
        "analytic": 1.8546281091568344, "min_observed": 1.8506792747649734,
        "runs": [
            lb_run("threshold", "threshold rule", 39991.366019999914, 20100.0, 1.9896201999999956),
            lb_run("delay_all", "delay-everything rule", 39991.366019999914, 20100.0,
                   1.9896201999999956),
            lb_run("combined", "combined rule (T1=1.9338, T2=2.2948)", 53925.56059259979,
                   28017.95122019996, 1.9246789377562108),
            lb_run("ute", "extreme-uniform rule (rho=1.8667603991738622)", 51861.08217059994,
                   28017.95122019996, 1.8509948055448793),
            lb_run("best_schedule",
                   "adversary schedule (nu=0.0, lam=0.2651646182430998, delta=0.6306655)",
                   51852.241644600064, 28017.95122019996, 1.8506792747649734),
        ],
    }
    LB_RAND = {
        "bound": "randomized-two-point", "q": 0.42264973081037416, "n": 50, "trials": 5,
        "analytic": 1.6257523845831854, "expected_opt_coeff": 1.4553418012614798,
        "min_observed": 1.6035712152792208,
        "runs": [
            rand_run("threshold", 3205.041420600108, 1.6405474345520372),
            rand_run("delay_all", 3675.441420600108, 1.8813285702506777),
            rand_run("random", 3132.8031470515416, 1.6035712152792208),
            rand_run("beat", 3177.729086146993, 1.6265672157846005),
            rand_run("combined", 3205.041420600108, 1.6405474345520372),
            rand_run("ute", 3188.383329584903, 1.6320207464712286),
        ],
    }
    # the threshold rule's schedule of (2, 0.1), (0.7, 0.3), (2.2, 1.9), (3.3, 0.2)
    REPLAY_INSTANCE = ('[{"upper": 2, "proc": 0.1}, {"upper": 0.7, "proc": 0.3}, '
                       '{"upper": 2.2, "proc": 1.9}, {"upper": 3.3, "proc": 0.2}]')
    REPLAY_TRACE = (
        '{"t": 0, "kind": "exec_untested", "job": 1, "dur": 0.7}\n'
        '{"t": 0.7, "kind": "test", "job": 0, "dur": 1}\n'
        '{"t": 1.7, "kind": "exec_tested", "job": 0, "dur": 0.1}\n'
        '{"t": 1.8, "kind": "test", "job": 2, "dur": 1}\n'
        '{"t": 2.8, "kind": "exec_tested", "job": 2, "dur": 1.9}\n'
        '{"t": 4.699999999999999, "kind": "test", "job": 3, "dur": 1}\n'
        '{"t": 5.699999999999999, "kind": "exec_tested", "job": 3, "dur": 0.2}\n'
    )
    REPLAY = {"n": 4, "total": 13.099999999999998, "makespan": 5.8999999999999995,
              "opt_total": 10.7, "opt_makespan": 5.2, "ok": True}

    @pytest.mark.parametrize("argv, payload", [
        (["lower-bound", "det", "--n", "200"], LB_DET),
        (["lower-bound", "rand", "--n", "50", "--trials", "5", "--seed", "1"], LB_RAND),
    ], ids=["det", "rand"])
    def test_lower_bound_text(self, capsys, argv, payload):
        assert main(argv) == 0
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    def write_replay_files(self, tmp_path):
        inst, trace = tmp_path / "inst.json", tmp_path / "trace.jsonl"
        inst.write_text(self.REPLAY_INSTANCE)
        trace.write_text(self.REPLAY_TRACE)
        return ["replay", "--instance", str(inst), "--trace", str(trace)]

    def test_replay_text(self, tmp_path, capsys):
        assert main(self.write_replay_files(tmp_path)) == 0
        assert capsys.readouterr().out == json.dumps(self.REPLAY, indent=2) + "\n"

    def test_replay_rational_names_the_float_gap(self, tmp_path, capsys):
        assert main(self.write_replay_files(tmp_path) + ["--mode", "rational"]) == 1
        assert capsys.readouterr().err == (
            "error: action 5: starts at 4699999999999999/1000000000000000, "
            "schedule time is 47/10 (gap or overlap)\n")

    SIMULATE_FLOAT = {"algorithm": "threshold", "source": "threshold_worstcase", "n": 3,
                      "objective": "sum", "alg_cost": 16.000001, "opt_cost": 9.000001000000001,
                      "ratio": 1.777777691358034, "exact": False}
    SIMULATE_MC = {"algorithm": "random", "source": "extreme_uniform", "n": 8, "objective": "sum",
                   "alg_cost": 81.3, "opt_cost": 51.0, "ratio": 1.5941176470588234, "exact": False,
                   "trials": 50, "stderr": 1.3545840539382095, "seed": "s"}

    @pytest.mark.parametrize("argv, payload", [
        (["simulate", "threshold", "--gen", "threshold_worstcase",
          "--param", "a=1", "--param", "b=1", "--param", "c=1"], SIMULATE_FLOAT),
        (["simulate", "random", "--seed", "s", "--trials", "50", "--gen", "extreme_uniform",
          "--param", "n=8", "--param", "p_bar=2.5", "--param", "gamma=0.5"], SIMULATE_MC),
    ], ids=["float", "monte_carlo"])
    def test_simulate_text(self, capsys, argv, payload):
        assert main(argv) == 0
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    def test_simulate_rational_text_keeps_whole_costs_integers(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text('[{"upper": 2, "proc": 1}, {"upper": 3, "proc": 0}, {"upper": 1, "proc": 1}]')
        assert main(["simulate", "threshold", "--mode", "rational", "--instance", str(inst)]) == 0
        assert capsys.readouterr().out == (
            '{\n  "algorithm": "threshold",\n  "source": ' + json.dumps(str(inst)) + ',\n'
            '  "n": 3,\n  "objective": "sum",\n  "alg_cost": 8,\n  "opt_cost": 7,\n'
            '  "ratio": 1.1428571428571428,\n  "exact": false\n}\n')

    GEN_FLOAT = ('[\n {\n  "upper": 2.000001,\n  "proc": 2.000001\n },\n'
                 ' {\n  "upper": 2,\n  "proc": 2\n },\n {\n  "upper": 2,\n  "proc": 0\n }\n]\n')
    GEN_DECIMAL = ('[\n {\n  "upper": 1.75,\n  "proc": 0\n },\n {\n  "upper": 1.75,\n  "proc": 1.75\n },\n'
                   ' {\n  "upper": 2.5,\n  "proc": 2.5\n },\n {\n  "upper": 2.51,\n  "proc": 2.51\n }\n]\n')

    @pytest.mark.parametrize("argv, text", [
        (["gen", "threshold_worstcase", "--param", "a=1", "--param", "b=1", "--param", "c=1"],
         GEN_FLOAT),
        (["gen", "four_type", "--mode", "rational", "--param", "n=4", "--param", "alpha=1/4",
          "--param", "beta=1/4", "--param", "gamma=1/4", "--param", "T=7/4", "--param", "E=5/2",
          "--param", "epsilon=1/100"], GEN_DECIMAL),
    ], ids=["float", "decimal_rational"])
    def test_gen_out_bytes(self, tmp_path, argv, text):
        out = tmp_path / "inst.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == text.encode()


def one_error_line(capsys):
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: "), (out, err)
    return err[len("error: "):-1]


class TestBadInputFiles:
    """A file that cannot be read, parsed or written exits 2 with one line naming it."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "threshold", "--gen", "random", "--param", "n=5", "--param", "seed=1", "--out"],
        ["simulate", "threshold", "--gen", "random", "--param", "n=5", "--param", "seed=1", "--trace-out"],
        ["gen", "random", "--param", "n=5", "--param", "seed=1", "--out"],
        ["sweep", "threshold", "--gen", "random", "--param", "seed=1", "--sweep", "n=2:3:1", "--out"],
        ["verify-constants", "--out"],
    ], ids=["simulate", "trace_out", "gen", "sweep", "verify_constants"])
    def test_unwritable_output(self, tmp_path, capsys, argv):
        path = tmp_path / "absent" / "x"
        assert main(argv + [str(path)]) == 2
        # verify-constants prints its table before it writes the report
        assert capsys.readouterr().err == f"error: {path}: No such file or directory\n"
        assert not path.parent.exists()

    def test_output_to_a_directory(self, tmp_path, capsys):
        assert main(["gen", "random", "--param", "n=5", "--param", "seed=1", "--out", str(tmp_path)]) == 2
        assert one_error_line(capsys) == f"{tmp_path}: Is a directory"

    def test_truncated_instance(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text('[{"upper": 2, "proc": 1}, {"upper": 2,')
        assert main(["simulate", "threshold", "--instance", str(inst)]) == 2
        assert one_error_line(capsys).startswith(f"{inst}: not a JSON document (")

    @pytest.mark.parametrize("command", [["simulate", "threshold"], ["replay", "--trace", "t.jsonl"]],
                             ids=["simulate", "replay"])
    def test_missing_instance(self, tmp_path, capsys, command):
        inst = tmp_path / "absent.json"
        assert main(command + ["--instance", str(inst)]) == 2
        assert one_error_line(capsys) == f"{inst}: No such file or directory"

    def test_missing_trace(self, tmp_path, capsys):
        inst, trace = tmp_path / "inst.json", tmp_path / "absent.jsonl"
        inst.write_text('[{"upper": 2, "proc": 1}]')
        assert main(["replay", "--instance", str(inst), "--trace", str(trace)]) == 2
        assert one_error_line(capsys) == f"{trace}: No such file or directory"

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("bad_line", [
        '{"t": 1, "kind": "exec_untested", "job": 1}',
        '{"t": 1, "kind": "exec_untested", "job": 1, "dur": 2',
        '[1, "exec_untested", 1, 2]',
        '{"t": 1, "kind": "exec_untested", "job": 1, "dur": "2"}',
        '{"t": true, "kind": "exec_untested", "job": 1, "dur": 2}',
        '{"t": 1, "kind": "exec_untested", "job": 1, "dur": NaN}',
        '{"t": Infinity, "kind": "exec_untested", "job": 1, "dur": 2}',
        '{"t": 1, "kind": "exec_untested", "job": 1, "dur": -Infinity}',
    ], ids=["no_dur", "not_json", "not_an_object", "dur_a_string", "t_a_bool", "dur_nan", "t_infinity",
            "dur_minus_infinity"])
    def test_malformed_trace_line(self, tmp_path, capsys, bad_line, mode):
        inst, trace = tmp_path / "inst.json", tmp_path / "trace.jsonl"
        inst.write_text('[{"upper": 1, "proc": 1}, {"upper": 2, "proc": 2}]')
        trace.write_text('{"t": 0, "kind": "exec_untested", "job": 0, "dur": 1}\n\n' + bad_line + "\n")
        assert main(["replay", "--instance", str(inst), "--trace", str(trace), "--mode", mode]) == 2
        assert one_error_line(capsys) == (
            f"{trace}, line 3: expected a JSON object with numbers 't' and 'dur', a 'kind' and a 'job'")

    def test_an_instance_row_that_is_no_object(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text("[1]")
        assert main(["simulate", "threshold", "--instance", str(inst)]) == 2
        assert one_error_line(capsys) == "job 0: expected an object with 'upper' and 'proc'"

    def test_a_negative_duration_in_a_trace(self, tmp_path, capsys):
        inst, trace = tmp_path / "inst.json", tmp_path / "trace.jsonl"
        inst.write_text('[{"upper": 2, "proc": 1}, {"upper": 2, "proc": 1}]')
        trace.write_text('{"t": 0, "kind": "exec_untested", "job": 0, "dur": 2}\n'
                         '{"t": 2, "kind": "exec_untested", "job": 1, "dur": -1}\n')
        assert main(["replay", "--instance", str(inst), "--trace", str(trace)]) == 1
        assert one_error_line(capsys) == "action 1: negative duration"

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("row, key", [
        ('{"upper": 2, "proc": 1, "weight": 5}', "weight"),
        ('{"upper": 2, "prc": 1, "proc": 1}', "prc"),
        ('{"note": "x", "upper": 2, "lower": 0, "proc": 1}', "note"),
    ], ids=["extra", "typo_beside_proc", "first_of_two"])
    def test_unknown_instance_key(self, tmp_path, capsys, row, key, mode):
        # an instance row holds only 'upper' and 'proc'; the first other key is named
        inst = tmp_path / "inst.json"
        inst.write_text(f'[{{"upper": 2, "proc": 1}}, {row}]')
        assert main(["simulate", "threshold", "--instance", str(inst), "--mode", mode]) == 2
        assert one_error_line(capsys) == f"job 1: unknown key '{key}' (a job has only 'upper' and 'proc')"

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("line, key", [
        ('{"t": 1, "kind": "exec_untested", "job": 1, "dur": 2, "note": "x"}', "note"),
        ('{"lower": 0, "t": 1, "kind": "exec_untested", "job": 1, "dur": 2, "note": "x"}', "lower"),
    ], ids=["extra", "first_of_two"])
    def test_unknown_trace_key(self, tmp_path, capsys, line, key, mode):
        # the schedule is valid without the key, so only the key rule refuses it
        inst, trace = tmp_path / "inst.json", tmp_path / "trace.jsonl"
        inst.write_text('[{"upper": 1, "proc": 1}, {"upper": 2, "proc": 2}]')
        trace.write_text('{"t": 0, "kind": "exec_untested", "job": 0, "dur": 1}\n\n' + line + "\n")
        assert main(["replay", "--instance", str(inst), "--trace", str(trace), "--mode", mode]) == 2
        assert one_error_line(capsys) == (
            f"{trace}, line 3: unknown key '{key}' (a trace line has only 't', 'kind', 'job' and 'dur')")

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("job, shown", [("0.5", "0.5"), ('"0"', "'0'"), ("false", "False")],
                             ids=["fraction", "string", "bool"])
    def test_job_id_must_be_an_integer(self, tmp_path, capsys, job, shown, mode):
        inst, trace = tmp_path / "inst.json", tmp_path / "trace.jsonl"
        inst.write_text('[{"upper": 2, "proc": 1}]')
        trace.write_text(f'{{"t": 0, "kind": "exec_untested", "job": {job}, "dur": 2}}\n')
        assert main(["replay", "--instance", str(inst), "--trace", str(trace), "--mode", mode]) == 1
        assert one_error_line(capsys) == f"action 0: unknown job id {shown}"

    @pytest.mark.parametrize("trials", ["0", "-2"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "random", "--seed", "s", "--gen", "extreme_uniform", "--param", "n=4",
         "--param", "p_bar=2.0", "--param", "gamma=0.5"],
        ["simulate", "threshold", "--gen", "extreme_uniform", "--param", "n=4",
         "--param", "p_bar=2.0", "--param", "gamma=0.5"],
        ["sweep", "random", "--gen", "extreme_uniform", "--param", "n=4", "--param", "p_bar=2.5",
         "--sweep", "gamma=0.2:0.4:0.2", "--seed", "s"],
        ["lower-bound", "rand", "--n", "10", "--seed", "s"],
    ], ids=["simulate_random", "simulate_threshold", "sweep", "lower_bound_rand"])
    def test_trials_below_one(self, capsys, argv, trials):
        assert main(argv + ["--trials", trials]) == 2
        assert one_error_line(capsys) == f"--trials must be at least 1, got {trials}"


CHILD_ADDRESS_SPACE = 512 * 2**20  # bytes: the interpreter and the package need about a tenth of it


class TestBadValues:
    """A bad value on the command line or in a file exits 2 with one `error:` line."""

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_instance_integer_over_the_digit_limit(self, tmp_path, capsys, mode):
        inst = tmp_path / "big.json"
        inst.write_text(f'[{{"upper": {"9" * 5000}, "proc": 1}}]')
        assert main(["simulate", "threshold", "--mode", mode, "--instance", str(inst)]) == 2
        assert one_error_line(capsys).startswith(f"{inst}: Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize("mode, status", [("float", 2), ("rational", 0)])
    def test_instance_int_past_a_float_beside_a_float(self, tmp_path, capsys, mode, status):
        inst = tmp_path / "big.json"
        inst.write_text(f'[{{"upper": {10**400}, "proc": {10**400}}}, {{"upper": 2.5, "proc": 1.5}}]')
        assert main(["simulate", "threshold", "--mode", mode, "--instance", str(inst)]) == status
        if status:
            assert one_error_line(capsys) == "job 0: upper is past a float's range, in an instance with floats"
        else:  # rational mode reads 2.5 as 5/2, so no float meets the big int
            assert json.loads(capsys.readouterr().out)["opt_cost"] == 10**400 + 5  # 5/2, then 5/2 + 10**400

    def test_override_not_a_number(self, capsys):
        assert main(["verify-constants", "--override", "threshold_sum_ratio=abc"]) == 2
        assert one_error_line(capsys) == "threshold_sum_ratio: expected a number, got 'abc'"

    def test_sweep_bound_not_a_number(self, capsys):
        assert main(["sweep", "threshold", "--gen", "extreme_uniform", "--param", "n=4",
                     "--param", "p_bar=2.5", "--sweep", "gamma=a:1:0.1"]) == 2
        assert one_error_line(capsys) == "expected numbers lo:hi:step in 'gamma=a:1:0.1'"

    @pytest.mark.parametrize("axis", ["gamma=0:inf:0.1", "gamma=0:nan:0.1", "gamma=0:1:nan",
                                      "gamma=-inf:1:0.1", "gamma=0:1:inf", "gamma=1:0:0.1", "gamma=0:1:0"])
    def test_sweep_range_must_be_finite_and_increasing(self, capsys, axis):
        assert main(["sweep", "threshold", "--gen", "extreme_uniform", "--param", "n=4",
                     "--param", "p_bar=2.5", "--sweep", axis]) == 2
        assert one_error_line(capsys) == f"bad range in {axis!r}: need finite lo <= hi and step > 0"

    @pytest.mark.parametrize("axes, message", [
        (["gamma=0:1:1e-9"], "bad range in 'gamma=0:1:1e-9': more than {cap} points"),
        (["gamma=0:1:5e-324"], "bad range in 'gamma=0:1:5e-324': more than {cap} points"),
        (["epsilon=-1:1e308:2"], "bad range in 'epsilon=-1:1e308:2': more than {cap} points"),
        (["n=1:1:1e-300"], "bad range in 'n=1:1:1e-300': step 1e-300 does not move lo 1.0"),
        (["gamma=0:1:0.001", "p_bar=2:3:0.001"], "the sweep grid has 1002001 points, more than {cap}"),
    ], ids=["fine_step", "infinite_count", "count_past_memory", "step_below_an_ulp", "grid"])
    def test_a_sweep_grid_is_bounded(self, tmp_path, axes, message):
        # the count is worked out before any point is built. Without that bound these grids grow until
        # memory runs out, or loop for ever, so they run in a child with a cap on its own address space
        # and a timeout: a regression ends in a MemoryError or a timeout, not in a dead test runner
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))

        src = Path(__file__).resolve().parent.parent / "src"
        argv = ["sweep", "threshold", "--gen", "extreme_uniform", "--param", "n=2"]
        argv += [arg for axis in axes for arg in ("--sweep", axis)]
        done = subprocess.run([sys.executable, "-m", "testsched", *argv], preexec_fn=cap_memory, timeout=30,
                              env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
                              capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (2, ""), done.stderr[-500:]
        assert done.stderr == f"error: {message.format(cap=cli.SWEEP_MAX_POINTS)}\n"

    def test_the_sweep_cap_is_on_the_point_count(self):
        # 0, 1e-5, ..., 0.99999 is the most an axis may hold; one more point is refused
        assert len(cli._sweep_values("x=0:0.99999:1e-5")[1]) == cli.SWEEP_MAX_POINTS
        with pytest.raises(cli.ConfigurationError, match="more than"):
            cli._sweep_values("x=0:1:1e-5")

    @pytest.mark.parametrize("spec", ["p_bar=1.8668:2.3668:0.05", "p_bar=1.0:5.0:0.1", "gamma=0.6:0.6:0.1",
                                      "p_bar=1e307:1e308:5e307", "gamma=0.1:0.9:0.2", "x=-1e6:1e6:25"])
    def test_a_sweep_axis_is_the_rounded_steps_up_to_hi(self, spec):
        lo, hi, step = map(float, spec.split("=")[1].split(":"))
        values = []
        while (v := lo + len(values) * step) <= hi + 1e-12:
            values.append(round(v, 12))
        assert cli._sweep_values(spec) == (spec.split("=")[0], values)

    @pytest.mark.parametrize("mode, params", [
        ("float", [f"E={10**400}"]), ("rational", [f"E={10**400}"]), ("float", ["E=2.5", f"epsilon={10**400}"]),
    ], ids=["E_float", "E_rational", "epsilon_float"])
    def test_four_type_gap_past_a_float(self, capsys, mode, params):
        # an int past a float's range plus a float beside it (the default epsilon is one in both modes)
        # used to end in an OverflowError traceback
        argv = ["gen", "four_type", "--mode", mode, "--param", "n=2", "--param", "alpha=0", "--param", "beta=0",
                "--param", "gamma=0"]
        assert main(argv + [arg for pair in params for arg in ("--param", pair)]) == 2
        assert one_error_line(capsys) == "four_type: E + epsilon is past a float's range"

    @pytest.mark.parametrize("seed", ["1/2", "nan"])
    @pytest.mark.parametrize("command", ["gen", "simulate"])
    @pytest.mark.parametrize("gen, params", [("random", ["n=3"]), ("rand_lb", ["n=3", "q=0.5"])],
                             ids=["random", "rand_lb"])
    def test_a_seed_that_is_no_number_of_its_mode_draws_alike_in_both(self, capsys, command, gen, params, seed):
        # rational mode reads 1/2 as a Fraction, which random.Random refuses with a two-line message;
        # float mode reads nan as a NaN, whose hash, and so the draws, differ from run to run
        head = ["gen", gen] if command == "gen" else ["simulate", "threshold", "--gen", gen]
        argv = head + [arg for pair in params + [f"seed={seed}"] for arg in ("--param", pair)]
        reports = []
        for mode in ("float", "rational", "float"):
            assert main(argv + ["--mode", mode]) == 0
            reports.append(json.loads(capsys.readouterr().out, parse_int=float))
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("params, message", [
        ("four_type n=10 alpha=nan beta=0.1 gamma=0.1", "fraction nan of n=10"),
        ("four_type n=1e400 alpha=0.1 beta=0.1 gamma=0.1", "fraction 0.1 of n=inf"),
        ("extreme_uniform n=10 p_bar=2.5 gamma=inf", "fraction inf of n=10"),
        ("uniform_mixed n=10 p_bar=2.5 mid_frac=nan", "fraction nan of n=10"),
        ("uniform_mixed n=1e400 p_bar=2.5", "fraction 0.0 of n=inf"),
    ], ids=["four_type_nan", "four_type_n_past_float", "extreme_uniform_inf", "uniform_mixed_nan",
            "uniform_mixed_n_past_float"])
    def test_generator_fraction_must_give_a_finite_count(self, capsys, params, message):
        name, *pairs = params.split()
        assert main(["gen", name] + [arg for pair in pairs for arg in ("--param", pair)]) == 2
        assert one_error_line(capsys) == f"{message} is not a finite number of jobs"

    @pytest.mark.parametrize("params, message", [
        ("four_type n=10 alpha=0.2 beta=0.2 gamma=-0.1", "fraction -0.1 of n=10 is a negative number of jobs (-1)"),
        ("four_type n=10 alpha=-0.5 beta=0.2 gamma=0.1", "fraction -0.5 of n=10 is a negative number of jobs (-5)"),
        ("four_type n=-10 alpha=0.1 beta=0 gamma=0", "fraction 0.1 of n=-10 is a negative number of jobs (-1)"),
        ("uniform_mixed n=10 p_bar=3.0 long_frac=-0.1", "fraction -0.1 of n=10 is a negative number of jobs (-1)"),
        ("uniform_mixed n=10 p_bar=3.0 mid_frac=-0.5", "fraction -0.5 of n=10 is a negative number of jobs (-5)"),
        ("extreme_uniform n=10 p_bar=2.5 gamma=-0.1", "bad long fraction -0.1 for n=10"),
        ("four_type n=10 alpha=0.5 beta=0.5 gamma=0.1", "fractions exceed 1: (0.5, 0.5, 0.1)"),
        # a limit below T would go untested, and a deferred type at or below E run at once
        ("four_type n=10 alpha=0.1 beta=0.1 gamma=0.1 T=3 E=2",
         "four_type needs T <= E and epsilon > 0, got T=3, E=2, epsilon=1e-06"),
        ("four_type n=10 alpha=0.1 beta=0.1 gamma=0.1 epsilon=-0.5",
         "four_type needs T <= E and epsilon > 0, got T=1.7453, E=2.8609, epsilon=-0.5"),
    ], ids=["four_type_gamma", "four_type_alpha", "four_type_n", "uniform_mixed_long", "uniform_mixed_mid",
            "extreme_uniform_keeps_its_text", "four_type_exceeds_1", "four_type_T_above_E",
            "four_type_epsilon_negative"])
    def test_generator_fraction_must_not_be_negative(self, capsys, params, message):
        name, *pairs = params.split()
        assert main(["gen", name] + [arg for pair in pairs for arg in ("--param", pair)]) == 2
        assert one_error_line(capsys) == message

    @pytest.mark.parametrize("value", ["-5", "0", "2.5", "nan", "inf"])
    @pytest.mark.parametrize("gen", sorted(set(COUNTED) - {"threshold_worstcase"}))
    def test_n_must_be_a_whole_number_of_jobs(self, capsys, gen, value):
        _, params = COUNTED[gen]
        argv = ["gen", gen, "--param", f"n={value}"] + [arg for pair in params for arg in ("--param", pair)]
        assert main(argv) == 2
        line = one_error_line(capsys)
        # a fraction of n is counted first, and its own check names n
        assert line == f"n must be a whole number >= 1, got {value}" or f" of n={value} is " in line, line

    @pytest.mark.parametrize("value", ["-1", "2.5", "nan", "inf"])
    @pytest.mark.parametrize("name", ["a", "b", "c"])
    def test_threshold_worstcase_counts_must_be_whole(self, capsys, name, value):
        counts = {"a": "1", "b": "1", "c": "1", name: value}
        assert main(["gen", "threshold_worstcase"] + [arg for k, v in counts.items()
                                                      for arg in ("--param", f"{k}={v}")]) == 2
        assert one_error_line(capsys) == f"{name} must be a whole number >= 0, got {value}"

    @pytest.mark.parametrize("gen", sorted(COUNTED))
    def test_a_count_past_a_machine_index_is_refused(self, capsys, gen):
        # no column of 10**30 jobs fits, so the count is refused before one is built: without
        # the check, four generators end in an OverflowError and rand_lb and random draw until killed
        name, params = COUNTED[gen]
        argv = ["gen", gen, "--param", f"{name}={10**30}"] + [arg for pair in params for arg in ("--param", pair)]
        assert main(argv) == 2
        assert one_error_line(capsys) == f"{name} must be at most {sys.maxsize}, got {10**30}"

    @pytest.mark.parametrize("gen", sorted(COUNTED))
    def test_a_count_too_large_for_memory_is_refused(self, capsys, gen):
        # 10**18 jobs pass the count check, but each generator asks for its whole columns first,
        # and the allocator refuses 8 exabytes at once; a count it might grant is never tried
        name, params = COUNTED[gen]
        argv = ["gen", gen, "--param", f"{name}={10**18}"] + [arg for pair in params for arg in ("--param", pair)]
        assert main(argv) == 2
        assert one_error_line(capsys) == f"{gen}: the instance's columns do not fit in memory"

    @pytest.mark.parametrize("argv, key", [
        (["simulate", "threshold", "--gen", "random", "--param", "n=10", "--param", "n=20",
          "--param", "seed=1"], "n"),
        (["gen", "random", "--param", "seed=1", "--param", "n=3", "--param", "seed=2"], "seed"),
        (["sweep", "threshold", "--gen", "random", "--param", "seed=1", "--param", "seed=2",
          "--sweep", "n=2:3:1"], "seed"),
        (["verify-constants", "--override", "det_lb_ratio=1", "--override", "det_lb_ratio=1.854628"],
         "det_lb_ratio"),
        (["simulate", "random[T=2,T=1.8,E=3]", "--seed", "1", "--gen", "four_type", "--param", "n=4"], "T"),
    ], ids=["simulate", "gen", "sweep", "verify_constants", "rule_spec"])
    def test_a_key_given_twice_is_refused(self, capsys, argv, key):
        # the later value used to win, so a negative control could be masked by a repeat
        assert main(argv) == 2
        assert one_error_line(capsys) == f"parameter {key!r} given twice"

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_a_rule_spec_value_with_a_zero_denominator_is_refused(self, capsys, mode):
        # rational mode reads the value as a Fraction, whose zero denominator is no ValueError
        argv = ["simulate", "random[T=1/0,E=3]", "--mode", mode, "--exact", "--gen", "four_type", "--param", "n=4"]
        assert main(argv) == 2
        assert one_error_line(capsys) == "bad value for T: '1/0'"

    def test_a_sweep_axis_given_as_a_param_is_refused(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sweep", "threshold", "--gen", "random", "--param", "n=10", "--param", "seed=1",
                     "--sweep", "n=2:3:1", "--out", str(out)]) == 2
        assert one_error_line(capsys) == "sweep axis 'n' is also given as a --param"
        assert not out.exists()

    def test_threshold_worstcase_total_past_a_machine_index_is_refused(self, capsys):
        argv = ["gen", "threshold_worstcase", "--param", f"a={sys.maxsize}", "--param", "b=1", "--param", "c=0"]
        assert main(argv) == 2
        assert one_error_line(capsys) == f"a+b+c must be at most {sys.maxsize}, got {sys.maxsize + 1}"

    @pytest.mark.parametrize("params, message", [
        ("exact=1 denominator=0", "exact draws need an int denominator >= 1, got 0"),
        ("exact=1 denominator=2.5", "exact draws need an int denominator >= 1, got 2.5"),
    ], ids=["exact_denominator_zero", "exact_denominator_float"])
    def test_random_generator_bounds(self, capsys, params, message):
        argv = ["gen", "random", "--param", "n=3", "--param", "seed=1"]
        assert main(argv + [arg for pair in params.split() for arg in ("--param", pair)]) == 2
        assert one_error_line(capsys) == message

    @pytest.mark.parametrize("argv, message", [
        (["lower-bound", "rand", "--q", "1.5", "--seed", "1"], "q must be in (0, 1), got 1.5"),
        (["lower-bound", "det", "--delta", "2"],
         "need 0 < delta <= 1 and p_bar > 1, got (2.0, 1.9896202)"),
        (["lower-bound", "det", "--p-bar", "nan"],
         "need 0 < delta <= 1 and p_bar > 1, got (0.6306655, nan)"),
        (["lower-bound", "det", "--p-bar", "inf"],
         "need 0 < delta <= 1 and p_bar > 1, got (0.6306655, inf)"),
        # no n here is ever allocated: 10**14 jobs fail at their first column's allocation, 10**23 at the count
        (["lower-bound", "det", "--n", str(10**14)], f"lower-bound det: {10**14} jobs do not fit in memory"),
        (["lower-bound", "rand", "--n", str(10**14), "--seed", "1", "--trials", "1"],
         f"lower-bound rand: {10**14} jobs do not fit in memory"),
        (["lower-bound", "det", "--n", str(10**23)], f"n must be at most {sys.maxsize}, got {10**23}"),
        (["lower-bound", "rand", "--n", str(10**23), "--seed", "1"], f"n must be at most {sys.maxsize}, got {10**23}"),
    ], ids=["rand_q", "det_delta", "det_p_bar_nan", "det_p_bar_inf", "det_n_memory", "rand_n_memory",
            "det_n_index", "rand_n_index"])
    def test_lower_bound_parameters(self, capsys, argv, message):
        assert main(argv) == 2
        assert one_error_line(capsys) == message

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "threshold", "--gen", "extreme_uniform", "--param", "n=10", "--param", "p_bar=1e308",
          "--param", "gamma=0.5"], "OPT is inf in floats; use --mode rational for exact numbers"),
        (["sweep", "threshold", "--gen", "extreme_uniform", "--param", "n=10", "--param", "gamma=0.5",
          "--sweep", "p_bar=1e307:1e308:5e307"], "OPT is inf in floats"),
        (["lower-bound", "det", "--n", "50", "--p-bar", "1e307"], "alg cost is inf in floats"),
        (["lower-bound", "rand", "--n", "50", "--q", "1e-306", "--seed", "1", "--trials", "2",
          "--algorithms", "threshold"], "alg cost is inf in floats"),
        (["replay", "--instance", "big.json", "--trace", "big.jsonl"],
         "a report value is not finite in floats; use --mode rational for exact numbers"),
    ], ids=["simulate", "sweep", "lower_bound_det", "lower_bound_rand", "replay"])
    def test_a_float_past_its_range_is_refused(self, tmp_path, monkeypatch, capsys, argv, message):
        # JSON has no NaN or Infinity and a CSV cell "inf" is no cost; where rational mode exists, it
        # carries the exact numbers
        monkeypatch.chdir(tmp_path)
        (tmp_path / "big.json").write_text('[{"upper": 1e308, "proc": 0}, {"upper": 1e308, "proc": 0}]')
        (tmp_path / "big.jsonl").write_text('{"t": 0, "kind": "exec_untested", "job": 0, "dur": 1e308}\n'
                                            '{"t": 1e308, "kind": "exec_untested", "job": 1, "dur": 1e308}\n')
        assert main(argv) == 2
        assert one_error_line(capsys) == message
        if "--mode" in message:
            assert main(argv + ["--mode", "rational"]) == 0
            json.loads(capsys.readouterr().out, parse_constant=pytest.fail)

    def test_an_int_past_a_float_in_a_sweep_row_is_refused(self, tmp_path, capsys):
        # a CSV row holds floats, and the cost of a 401-digit int limit has none
        out = tmp_path / "x.csv"
        assert main(["sweep", "threshold", "--gen", "extreme_uniform", "--param", "n=4", "--param",
                     f"p_bar={10**400}", "--sweep", "gamma=0:0.5:0.5", "--out", str(out)]) == 2
        assert one_error_line(capsys) == "alg cost is inf in floats"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_a_monte_carlo_mean_past_a_float_is_exact(self, tmp_path, capsys, mode):
        # two int totals past a float's range: the report carries their exact mean, a sweep row refuses it
        gen = ["--seed", "1", "--trials", "2", "--gen", "extreme_uniform", "--param", "n=4",
               "--param", f"p_bar={10**400}"]
        assert main(["simulate", "random", *gen, "--param", "gamma=0.5", "--mode", mode]) == 0
        report = json.loads(capsys.readouterr().out)
        inst = generators.build_instance("extreme_uniform", {"n": 4, "p_bar": 10**400, "gamma": 0.5})
        res = engine.run_expected(parse_algorithm("random"), engine.StaticSource(inst), 4, inst.uppers(),
                                  trials=2, seed="1")
        assert isinstance(res.total, Fraction) and report["alg_cost"] == str(res.total)  # p/q
        out = tmp_path / "x.csv"
        assert main(["sweep", "random", *gen, "--sweep", "gamma=0:0.5:0.5", "--out", str(out)]) == 2
        assert one_error_line(capsys) == "alg cost is inf in floats"
        assert not out.exists()

    @pytest.mark.parametrize("name, params", [
        ("rand_lb", ["n=3", "q=0.4", "seed=1", "exact=1"]),
        ("uniform_mixed", ["n=3", "p_bar=2", "middle=1"]),
        ("random", ["n=3", "seed=1", "max_upper=4"]),
    ], ids=["rand_lb_exact", "uniform_mixed_middle", "random_max_upper"])
    def test_a_removed_generator_parameter_is_refused(self, capsys, name, params):
        assert main(["gen", name] + [arg for pair in params for arg in ("--param", pair)]) == 2
        assert one_error_line(capsys).startswith(f"bad parameters for {name}: ")

    @pytest.mark.parametrize("argv", [
        ["simulate", "threshold", "--gen", "extreme_uniform", "--par", "n=4", "--par", "p_bar=2",
         "--par", "gamma=0.5", "--obj", "makespan"],
        ["lower-bound", "det", "--n", "10", "--p-b", "2"],
        ["verify-constants", "--over", "x=1"],
    ], ids=["simulate", "lower_bound", "verify_constants"])
    def test_a_prefix_of_a_flag_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "threshold", "--gen", "extreme_uniform", "--param", "n=4", "--param", "p_bar=2.5",
         "--sweep", "gamma=0:1:0.5"],
        ["lower-bound", "det", "--n", "10"],
    ], ids=["sweep", "lower_bound"])
    def test_mode_is_not_an_option(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--mode", "rational"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode rational" in capsys.readouterr().err


BIG_COSTS = ["simulate", "random", "--gen", "extreme_uniform", "--param", "n=10", "--param", "gamma=0.3",
             "--seed", "1", "--trials", "5"]


@pytest.mark.parametrize("extra", [["--param", "p_bar=1e200"],
                                   ["--param", "p_bar=1e200", "--mode", "rational"],
                                   ["--param", "p_bar=1e400", "--mode", "rational"]],
                         ids=["float", "rational", "rational_past_a_float"])
def test_a_monte_carlo_stderr_of_costs_near_a_float_limit(capsys, extra):
    # each cost is near p_bar, so a deviation's square, or the cost itself, is past a float's range
    assert main(BIG_COSTS + extra) == 0
    report = json.loads(capsys.readouterr().out)
    assert math.isfinite(report["stderr"])


def test_the_readme_monte_carlo_stderr_keeps_its_bits(capsys):
    assert main(["simulate", "random", "--gen", "four_type", "--param", "n=1000", "--param", "alpha=0.3",
                 "--param", "beta=0.2", "--param", "gamma=0.1", "--seed", "7", "--trials", "200"]) == 0
    assert json.loads(capsys.readouterr().out)["stderr"] == 644.1630200129612


def test_priced_runs_record_no_trace(monkeypatch):
    # `evaluate`, `sweep_point` and `det_lower_bound` price each run through `run_expected`,
    # `rand_lower_bound` through `run(..., record=False)`; a recorded run builds a Trace
    loop = engine.run

    def unrecorded(gen_fn, source, n, upper_limits, record=True):
        if record:
            raise AssertionError("a priced run recorded its steps")
        return loop(gen_fn, source, n, upper_limits, record=False)

    def refuse(*args, **kwargs):
        raise AssertionError("a priced run recorded its steps")

    monkeypatch.setattr(engine, "run", unrecorded)
    monkeypatch.setattr(engine, "Trace", refuse)
    inst = generators.gen_random(12, seed="no-trace")
    for name in ("threshold", "lb_schedule[nu=0.2,lam=0.3]", "makespan_det"):
        alg = parse_algorithm(name)
        cost, _, stderr, res = evaluation.evaluate(alg, inst, alg.objective)
        assert stderr is None and cost == (res.makespan if alg.objective == "makespan" else res.total)
    params = {"n": 20, "p_bar": 2.5, "gamma": 0.3}
    assert evaluation.sweep_point(("ute", "extreme_uniform", params, "sum", 1, None))[3] == ""
    assert len(evaluation.det_lower_bound(DET_LB_DELTA, DET_LB_PBAR, 50)["runs"]) == 5
    assert len(evaluation.rand_lower_bound(0.4, 20, 2, "no-trace")["runs"]) == 6


# Every option and generator parameter, so that a new one shows in review as a line here:
# each must change a result, as `lower-bound`'s kinds once shared flags that one of them ignored.
FLAGS = {
    "": [],
    "simulate": ["--instance", "--gen", "--param", "--objective", "--exact", "--trace-out", "--mode", "--out",
                 "--seed", "--trials"],
    "sweep": ["--gen", "--param", "--sweep", "--objective", "--out", "--seed", "--trials"],
    "verify-constants": ["--override", "--out"],
    "lower-bound": [],
    "lower-bound det": ["--delta", "--p-bar", "--n", "--algorithms", "--out"],
    "lower-bound rand": ["--q", "--n", "--algorithms", "--out", "--seed", "--trials"],
    "gen": ["--param", "--mode", "--out"],
    "replay": ["--instance", "--trace", "--mode", "--out"],
}
GENERATOR_PARAMETERS = {
    "threshold_worstcase": ["a", "b", "c", "epsilon"],
    "four_type": ["n", "alpha", "beta", "gamma", "T", "E", "epsilon"],
    "rand_lb": ["n", "q", "seed"],
    "extreme_uniform": ["n", "p_bar", "gamma", "placement"],
    "uniform_mixed": ["n", "p_bar", "long_frac", "mid_frac", "mid_value"],
    "random": ["n", "seed", "exact", "denominator"],
}


def test_every_flag_and_generator_parameter_is_pinned():
    flags = {}

    def walk(parser, path):
        flags[path] = [s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help")]
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, f"{path} {name}".strip())

    walk(cli.build_parser(), "")
    assert flags == FLAGS
    assert {name: list(inspect.signature(gen).parameters)
            for name, gen in generators.GENERATORS.items()} == GENERATOR_PARAMETERS


# the command-line fuzz draws each value from this pool; a count also from 1..10 (1..5 for --trials),
# without the pool's large values, so that every run stays small (huge counts have their own tests).
FUZZ_VALUES = ["0", "-1", "1/3", "3/0", "1e-320", "5e-324", "1e308", "1e400", "7" * 400, "nan", "inf", "x", ""]
FUZZ_LARGE = ("1e308", "1e400", "7" * 400)
COUNT_PARAMETERS = ("n", "a", "b", "c")


def fuzz_counts(most):
    return [v for v in FUZZ_VALUES if v not in FUZZ_LARGE] + [str(k) for k in range(1, most + 1)]


@st.composite
def fuzz_argv(draw, files):
    """An argv over the pinned surface: a command of `FLAGS`, its flags, and values from the pool."""
    command = draw(st.sampled_from(list(FLAGS)))
    gen = draw(st.sampled_from(list(GENERATOR_PARAMETERS)))
    count, others = COUNTED[gen]
    valid = dict(pair.split("=") for pair in others)
    valid[count] = draw(st.sampled_from([str(k) for k in range(1, 11)]))
    numbers = FUZZ_VALUES + [str(k) for k in range(1, 11)]

    def pick(good, bad):  # a good value seven times in eight, so that runs get deep
        return draw(st.sampled_from(good if draw(st.integers(0, 7)) else bad))

    def value_of(key):
        bad = fuzz_counts(10) if key in COUNT_PARAMETERS else numbers
        return pick([valid[key]] if key in valid else numbers, bad)

    def rule():
        name = pick(list(algorithms._RULES), ["x", ""])
        if name not in algorithms._RULES or draw(st.integers(0, 3)):
            return name
        key = draw(st.sampled_from(list(algorithms._RULES[name][1]) + ["x"]))
        return f"{name}[{key}={draw(st.sampled_from(numbers))}]"

    values = {
        "--gen": lambda: pick(list(GENERATOR_PARAMETERS), FUZZ_VALUES),
        "--objective": lambda: pick(["sum", "makespan"], FUZZ_VALUES),
        "--mode": lambda: pick(["float", "rational"], FUZZ_VALUES),
        "--trials": lambda: pick(["1", "5"], fuzz_counts(5)),
        "--n": lambda: pick(["1", "10"], fuzz_counts(10)),
        "--algorithms": lambda: ",".join(rule() for _ in range(draw(st.integers(1, 2)))),
        "--override": lambda: f"{draw(st.sampled_from([c[0] for c in analysis.CONSTANT_CHECKS] + ['x']))}"
                              f"={draw(st.sampled_from(numbers))}",
        "--instance": lambda: draw(st.sampled_from([files["instance"], files["trace"], files["missing"]])),
        "--trace": lambda: draw(st.sampled_from([files["trace"], files["instance"], files["missing"]])),
        "--out": lambda: draw(st.sampled_from([files["out"], files["dir"]])),
        "--trace-out": lambda: draw(st.sampled_from([files["trace_out"], files["dir"]])),
    }
    argv = command.split()
    if command in ("simulate", "sweep"):
        argv += [rule(), "--gen", gen]
    elif command == "gen":
        argv.append(pick([gen], FUZZ_VALUES))
    if "--mode" in FLAGS[command]:
        argv += ["--mode", values["--mode"]()]
    keys = GENERATOR_PARAMETERS[gen] + ["x"]
    axes = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2)) if command == "sweep" else []
    for key in axes:
        argv += ["--sweep", f"{key}={value_of(key)}:{value_of(key)}:{pick(['1'], numbers)}"]
    if "--param" in FLAGS[command]:
        # one time in eight a required parameter is left out, or an axis is given as a --param too;
        # then up to two optional or unknown parameters
        given = [key for key in valid if (key in axes) == (not draw(st.integers(0, 7)))]
        given += draw(st.lists(st.sampled_from([key for key in keys if key not in valid]), unique=True,
                               max_size=2))
        for key in given:
            argv += ["--param", f"{key}={value_of(key)}"]
    for flag in draw(st.lists(st.sampled_from(FLAGS[command] or [""]), max_size=4)):
        if flag == "--exact":
            argv.append(flag)
        elif flag:
            argv += [flag, values[flag]() if flag in values else draw(st.sampled_from(numbers))]
    if "--trials" in FLAGS[command] and "--trials" not in argv:  # its default is 1000
        argv += ["--trials", draw(st.sampled_from(["1", "5"]))]
    if command.startswith("lower-bound ") and "--n" not in argv:  # its default is 2000
        argv += ["--n", draw(st.sampled_from(["1", "10"]))]
    return argv


def test_any_command_line_exits_0_1_or_2_and_explains_a_2_in_one_line(tmp_path):
    # the contract of the whole surface: no traceback, bad input is one `error:` line (argparse's own
    # usage error keeps its usage text above it), and no report holds a non-finite JSON number
    files = {name: str(tmp_path / name) for name in ("instance", "trace", "missing", "out", "trace_out")}
    files["dir"] = str(tmp_path)
    seeded = ["random", "--param", "n=3", "--param", "seed=1"]
    assert main(["gen", *seeded, "--out", files["instance"]]) == 0
    assert main(["simulate", "threshold", "--gen", *seeded, "--out", files["out"],
                 "--trace-out", files["trace"]]) == 0
    codes = []

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(fuzz_argv(files))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error: its usage text, then "testsched ...: error: ..."
                code = exc.code
        err = err.getvalue()
        assert code in (0, 1, 2), (argv, code, err)
        if code == 2:
            lines = err.splitlines()
            assert err.endswith("\n") and sum("error: " in line for line in lines) == 1, (argv, err)
            assert "error: " in lines[-1] and (len(lines) == 1 or lines[0].startswith("usage: ")), (argv, err)
        written = [out.getvalue()]
        for name in ("out", "trace_out"):
            if os.path.isfile(files[name]):
                written.append(Path(files[name]).read_text())
                os.unlink(files[name])
        assert not any("NaN" in text or "Infinity" in text for text in written), argv
        codes.append(code)

    with mock.patch.dict(os.environ, {"TESTSCHED_WORKERS": "1"}):
        check()
    assert set(codes) == {0, 1, 2}


def test_lower_bound_det_searches_once(monkeypatch):
    calls = []
    search = analysis.det_lb_best_schedule

    def spy(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(analysis, "det_lb_best_schedule", spy)
    report = evaluation.det_lower_bound(DET_LB_DELTA, DET_LB_PBAR, 50)
    assert calls == [(DET_LB_DELTA, DET_LB_PBAR)]
    assert report["analytic"] == search(DET_LB_DELTA, DET_LB_PBAR)[2]


def test_makespan_rand_is_exact_for_an_integer_limit(capsys):
    argv = ["simulate", "makespan_rand", "--exact", "--mode", "rational", "--gen", "extreme_uniform",
            "--param", "n=3", "--param", "gamma=0.5", "--param"]
    assert main(argv + ["p_bar=3"]) == 0
    as_int = capsys.readouterr().out
    assert main(argv + ["p_bar=3.0"]) == 0
    assert as_int == capsys.readouterr().out
    assert json.loads(as_int)["alg_cost"] == float(Fraction(45, 7))


@pytest.mark.parametrize("p_bar", ["1e308", "1e400"])
def test_ute_on_a_limit_past_a_float_works_exactly(capsys, p_bar):
    # the default rho is a float, and its arithmetic with an exact limit past a float's range used to
    # end in an OverflowError traceback; it now runs as the same rho given exactly does
    argv = ["--mode", "rational", "--gen", "extreme_uniform", "--param", f"p_bar={p_bar}", "--param", "gamma=0.5",
            "--param", "n=10"]
    costs = []
    for rule in ("ute", f"ute[rho={Fraction(analysis.ute_rho_star())}]"):
        assert main(["simulate", rule, *argv]) == 0
        report = json.loads(capsys.readouterr().out)
        costs.append((report["alg_cost"], report["opt_cost"], report["ratio"]))
    assert costs[0] == costs[1]


def test_the_library_modules_load_no_command_line_code():
    # the benchmark's set-up child imports these through bench/workloads.py, and times it
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "import testsched\n"
            "from testsched import algorithms, analysis, core, engine, generators, offline\n"
            "print([m for m in ('testsched.cli', 'testsched.evaluation', 'argparse', 'multiprocessing')"
            " if m in sys.modules])\n")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


def test_python_m_runs_the_cli_from_a_checkout(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = tmp_path / "report.json"
    done = subprocess.run([sys.executable, "-m", "testsched", "simulate", "threshold", "--gen",
                           "threshold_worstcase", "--param", "a=1", "--param", "b=1", "--param", "c=1",
                           "--out", str(out)], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert main(["simulate", "threshold", "--gen", "threshold_worstcase", "--param", "a=1",
                 "--param", "b=1", "--param", "c=1", "--out", str(tmp_path / "in_process.json")]) == 0
    assert out.read_bytes() == (tmp_path / "in_process.json").read_bytes()
    bad = subprocess.run([sys.executable, "-m", "testsched", "simulate", "no_such_rule", "--gen",
                          "threshold_worstcase"], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert (bad.returncode, bad.stderr) == (2, "error: unknown algorithm: 'no_such_rule'\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("flags, argv", [
    ([], ["gen", "random", "--param", "n=2000", "--param", "seed=1"]),  # 130 kB, past the buffer
    ([], ["gen", "random", "--param", "n=2", "--param", "seed=1"]),
    (["-u"], ["gen", "random", "--param", "n=2", "--param", "seed=1"]),
    ([], ["verify-constants"]),
], ids=["gen_large", "gen_small", "gen_small_unbuffered", "verify_constants"])
def test_a_failing_stdout_is_one_error_line(tmp_path, flags, argv):
    # a small output waits in stdout's buffer, which the interpreter flushes again at exit;
    # PYTHONUNBUFFERED is dropped so that the buffered cases are buffered
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, *flags, "-m", "testsched", *argv], env=env,
                              cwd=tmp_path, stdout=full, stderr=subprocess.PIPE, text=True)
    assert (done.returncode, done.stderr) == (2, "error: stdout: No space left on device\n")
