"""Compare two sets of benchmark result files: a parent commit and a change.

    python3 bench/compare.py --parent out-parent/ --change out-change/

Each argument is a result file written by bench/run.py or a directory of
them.  Runs are paired by (workload, seed, trace).  For every metric and
workload the report gives each side's median and quartiles, the share of
pairs the change won (ties count for neither side) and a verdict:

  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  improved    the change won at least 9 of every 10 pairs, over at least
              10 pairs, and the medians differ by more than the parent's
              quartile spread
  unresolved  the parent's own spread is wider than the bound, and not
              every change run beats every parent run
  unchanged   none of the above

Per-layer metrics have no bound: they are improved or regressed by the
9-in-10 rule, else unchanged.  The exact counts must repeat for a seed;
any difference is reported as a behaviour change, not as speed.

The timed end-to-end metrics are rescaled by a calibration kernel that
runs in the same process but never calls testsched.  A change that slows
the whole process (a thread started at import, say) slows the kernel too
and would cancel out of them, so the kernel's time is compared as well,
by the 9-in-10 rule: a regression there is reported as `process slowed`.
Exit status 1 when anything regressed or behaved differently.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_COUNTS = ("engine.actions", "engine.run_expected.runs", "algorithms.tests_paid_share")
# Never used while a change is written; a claimed gain must also hold on it.
HELD_OUT_SEED = 918273
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths):
    """(workload, trace) -> seed -> list of result dicts."""
    runs = defaultdict(lambda: defaultdict(list))
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for f in files:
            result = json.loads(f.read_text())
            prov = result["provenance"]
            runs[prov["workload"], prov["trace"]][prov["seed"]].append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric_value(name):
    return lambda result: result["metrics"][name]["value"]


def kernel_seconds(result):
    return result["detail"]["calibration_median_s"]


KERNEL = {"name": "calibration_median_s", "unit": "s", "better": "lower"}


def pairs_of(parent, change, get):
    """Value pairs of runs that share a seed, in run order."""
    out = []
    for seed in sorted(set(parent) & set(change)):
        for p, c in zip(parent[seed], change[seed]):
            out.append((get(p), get(c)))
    return out


def values_of(runs, get):
    return [get(r) for seed in runs for r in runs[seed]]


def verdict(spec, p_vals, c_vals, pairs, change_failed_more):
    lower = spec["better"] == "lower"
    p1, pm, p3 = quartiles(p_vals)
    _, cm, _ = quartiles(c_vals)
    worse = ((cm - pm) if lower else (pm - cm)) / abs(pm) if pm else 0.0
    won = sum((c < p) if lower else (c > p) for p, c in pairs)
    lost = sum((c > p) if lower else (c < p) for p, c in pairs)
    beyond_spread = abs(cm - pm) > p3 - p1
    bound = spec.get("bound")
    if bound is not None and worse > bound:
        return "regressed", won
    if bound is None and len(pairs) >= MIN_PAIRS and lost >= WIN_SHARE * len(pairs) \
            and beyond_spread:
        return "regressed", won
    if len(pairs) >= MIN_PAIRS and won >= WIN_SHARE * len(pairs) and beyond_spread \
            and worse < 0 and not change_failed_more:
        return "improved", won
    if bound is not None and pm and (p3 - p1) / abs(pm) > bound:
        all_better = (max(c_vals) < min(p_vals)) if lower else (min(c_vals) > max(p_vals))
        if not all_better:
            return "unresolved", won
    return "unchanged", won


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", nargs="+", required=True, help="result files or directories")
    p.add_argument("--change", nargs="+", required=True, help="result files or directories")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {0: spec["end_to_end"] + [KERNEL], 1: spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    bad = False
    print(f"{'workload':16s} {'metric':42s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'delta':>8s} {'won':>7s}  verdict")
    for key in sorted(set(parent) | set(change)):
        workload, trace = key
        if key not in parent or key not in change:
            print(f"{workload:16s} (trace={trace}) results on one side only")
            continue
        p_runs, c_runs = parent[key], change[key]
        p_failed = sum(r["failed"] for s in p_runs for r in p_runs[s])
        c_failed = sum(r["failed"] for s in c_runs for r in c_runs[s])
        if p_failed or c_failed:
            print(f"{workload:16s} failed ops: parent {p_failed}, change {c_failed}")
        for m in metrics[trace]:
            name = m["name"]
            get = kernel_seconds if m is KERNEL else metric_value(name)
            p_vals, c_vals = values_of(p_runs, get), values_of(c_runs, get)
            pairs = pairs_of(p_runs, c_runs, get)
            if name in EXACT_COUNTS:
                differ = sum(a != b for a, b in pairs)
                result = "behaviour change" if differ else "same" if pairs else "no shared seed"
                won = 0
                bad = bad or bool(differ)
            else:
                result, won = verdict(m, p_vals, c_vals, pairs, c_failed > p_failed)
                bad = bad or result == "regressed"
                if m is KERNEL and result == "regressed":
                    result = "process slowed"
            p1, pm, p3 = quartiles(p_vals)
            c1, cm, c3 = quartiles(c_vals)
            delta = (cm - pm) / abs(pm) if pm else 0.0
            print(f"{workload:16s} {name:42s} {pm:12.5g} [{p1:.4g}, {p3:.4g}]"
                  f" {cm:12.5g} [{c1:.4g}, {c3:.4g}] {delta:+8.2%} {won:3d}/{len(pairs):<3d}  {result}")
    if not any(HELD_OUT_SEED in runs for runs in change.values()):
        print(f"note: no change run used the held-out seed {HELD_OUT_SEED}; "
              "a claimed gain must also hold on it")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
