"""End-to-end command line behavior through main(argv)."""

import csv
import json

import pytest

from testsched.cli import main


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

    def test_lower_key_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text('[{"upper": 2, "proc": 1, "lower": 0.5}]')
        assert main(["simulate", "threshold", "--instance", str(inst)]) == 2
        err = capsys.readouterr().err
        assert err == "error: job 0: unknown key 'lower' (a job has only 'upper' and 'proc')\n"


class TestSweep:
    def run_sweep(self, out, extra=()):
        args = ["sweep", "threshold", "--gen", "extreme_uniform",
                "--param", "n=40", "--sweep", "p_bar=2.5:3.0:0.5",
                "--sweep", "gamma=0.2:0.4:0.2", "--out", str(out)]
        return main(args + list(extra))

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

    def test_duplicate_axis_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["sweep", "threshold", "--gen", "extreme_uniform",
                   "--param", "n=10", "--param", "p_bar=2.5", "--sweep", "gamma=0.2:0.4:0.2",
                   "--sweep", "gamma=0.6:0.6:0.1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: sweep axis 'gamma' given twice\n"
        assert not out.exists()


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

    def test_det_rejects_randomized(self, capsys):
        assert main(["lower-bound", "det", "--n", "50",
                     "--algorithms", "random"]) == 2
