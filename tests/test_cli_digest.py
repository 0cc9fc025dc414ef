"""A pinned digest of the bytes the command line writes for a fixed list of commands.

Each command runs through `main(argv)`; the digest covers its exit code,
stdout, stderr and the bytes of its `--out` and `--trace-out` files.  The
list runs every deterministic rule through `simulate` in float and rational
mode, with and without `--exact`, on a mixed-limit and a common-limit
instance (a rule that needs a common limit refuses the first, and that
error line is pinned too), plus a traced run, two randomized runs, a
`sweep` and both lower bounds.  A change to how a run is priced or recorded
must leave the digest unchanged.
"""

import hashlib

from testsched.cli import main

# sha256 over outcome_lines(); any change of a report, a trace or a CSV changes it
PINNED = "fceadf7ca6cda29919bf5598753fb64a78769ce1047b88b831d25fddf010d13c"

DET_RULES = ("threshold", "delay_all", "beat", "combined", "ute",
             "lb_schedule[nu=0.1,lam=0.2]", "makespan_det")

INSTANCES = {
    "float": (("random", "n=25", "seed=3"),
              ("uniform_mixed", "n=30", "p_bar=3.5", "long_frac=0.3", "mid_frac=0.3")),
    "rational": (("random", "n=25", "seed=3", "exact=1"),
                 ("uniform_mixed", "n=30", "p_bar=7/2", "long_frac=3/10", "mid_frac=3/10")),
}


def _gen(name, *params):
    return ["--gen", name] + [arg for p in params for arg in ("--param", p)]


def commands():
    """Each command's argv; "{out}" and "{trace}" stand for two files the run may write."""
    for mode, instances in INSTANCES.items():
        for rule in DET_RULES:
            for inst in instances:
                for exact in ([], ["--exact"]):
                    yield ["simulate", rule, "--mode", mode, *_gen(*inst), *exact]
    yield ["simulate", "threshold", "--objective", "makespan", *_gen(*INSTANCES["float"][0])]
    yield ["simulate", "threshold", "--mode", "rational", *_gen(*INSTANCES["rational"][0]),
           "--out", "{out}", "--trace-out", "{trace}"]
    yield ["simulate", "random", *_gen("four_type", "n=40", "alpha=0.2", "beta=0.3", "gamma=0.2"),
           "--seed", "7", "--trials", "20"]
    yield ["simulate", "makespan_rand", *_gen(*INSTANCES["float"][0]), "--seed", "2", "--trials", "5"]
    yield ["sweep", "threshold", *_gen("extreme_uniform", "n=20", "gamma=0.3"),
           "--sweep", "p_bar=1.5:3.5:0.5", "--out", "{out}"]
    yield ["lower-bound", "det", "--n", "200"]
    yield ["lower-bound", "rand", "--n", "50", "--trials", "3", "--seed", "1"]


def outcome_lines(tmp_path, capsys):
    paths = {"{out}": tmp_path / "out", "{trace}": tmp_path / "trace"}
    for argv in commands():
        for path in paths.values():
            path.unlink(missing_ok=True)
        rc = main([str(paths.get(arg, arg)) for arg in argv])
        captured = capsys.readouterr()
        yield f"{argv} rc={rc} stdout={captured.out!r} stderr={captured.err!r}"
        for name, path in paths.items():
            if path.exists():
                yield f"{name} {path.read_bytes()!r}"


def test_command_outputs_match_pinned_digest(tmp_path, capsys):
    h = hashlib.sha256()
    for line in outcome_lines(tmp_path, capsys):
        h.update(line.encode())
        h.update(b"\n")
    assert h.hexdigest() == PINNED
