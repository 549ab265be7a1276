#!/usr/bin/env python3
"""Compares sets of kbt_bench runs.

  compare.py PARENT_DIR CHANGE_DIR   parent commit vs change
  compare.py --self DIR_A DIR_B      two sets of runs of the same code
  compare.py --baseline DIR          summarize one set (baseline.json)

Each directory holds the results files kbt_bench writes (run.sh --out DIR),
one per run; give both sides the same seeds, alternating which side runs
first. For every workload and metric the report gives each side's median
and quartiles. For the metrics BENCHMARK.json lists, whose direction it
fixes, it then gives:

  * pairs: run i of the parent against run i of the change (matched by
    seed where both sides used the same seeds); the change wins a pair when
    it reads better, ties count for neither side;
  * gain: the change wins at least 9 in 10 pairs AND its median beats the
    parent's by more than the parent's own spread (third minus first
    quartile);
  * regression (end-to-end metrics only): the change's median is worse than
    the parent's by more than the metric's bound in BENCHMARK.json;
  * unresolved (end-to-end metrics only): the run-to-run spread (quartile
    distance over the median, on either side) exceeds the bound, unless
    every change run reads better than every parent run.

Diagnostics (results-file metrics outside BENCHMARK.json) get quartiles
only: they have no direction to judge a pair by.

--self treats both directories as the same code: every end-to-end metric
must have a spread within its bound on both sides and medians that differ
by no more than the bound. A directory holding both traced and untraced
runs of a workload also yields trace_overhead_ratio (traced over untraced
median of update_p50_s).

Exit codes: 0 when no end-to-end metric regressed or stayed unresolved
(with --self: when every one agreed), 1 otherwise, 2 on bad input.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SECTIONS = ("end_to_end", "per_layer", "diagnostics")


def load_contract():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for m in contract["end_to_end"]:
        metrics[m["name"]] = {"better": m["better"], "bound": m["bound"]}
    for m in contract["per_layer"]:
        metrics[m["name"]] = {"better": m["better"], "bound": None}
    return metrics


def load_runs(directory):
    """{(workload, traced): [run, ...]} sorted by seed; smoke runs skipped."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        if path.name.startswith("trace_"):
            continue
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            sys.exit(f"compare.py: cannot read {path}: {error}")
        if "workload" not in data or data.get("smoke"):
            continue  # not a results file, or a smoke run
        runs.setdefault((data["workload"], data["trace"]), []).append(data)
    for group in runs.values():
        group.sort(key=lambda run: run["seed"])
    return runs


def metric_values(runs, name):
    values = []
    for run in runs:
        for section in SECTIONS:
            if name in run.get(section, {}):
                values.append(run[section][name]["value"])
                break
    return values


def metric_unit(runs, name):
    for run in runs:
        for section in SECTIONS:
            if name in run.get(section, {}):
                return run[section][name]["unit"]
    return ""


def metric_names(runs):
    names = []
    for section in SECTIONS:
        for run in runs:
            for name in run.get(section, {}):
                if name not in names:
                    names.append(name)
    return names


def summary(values):
    """(first quartile, median, third quartile) as statistics.quantiles."""
    if len(values) < 2:
        value = values[0] if values else float("nan")
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def pairs(parent_runs, change_runs, name):
    """Matched (parent, change) values: by seed when the seeds agree."""
    parent_seeds = [run["seed"] for run in parent_runs]
    change_seeds = [run["seed"] for run in change_runs]
    if sorted(parent_seeds) == sorted(change_seeds):
        by_seed = {run["seed"]: run for run in change_runs}
        matched = [(run, by_seed[run["seed"]]) for run in parent_runs]
    else:
        matched = list(zip(parent_runs, change_runs))
    out = []
    for p, c in matched:
        pv, cv = metric_values([p], name), metric_values([c], name)
        if pv and cv:
            out.append((pv[0], cv[0]))
    return out


def judge(parent_runs, change_runs, name, spec):
    """One row of the report; `spec` is the metric's BENCHMARK.json entry,
    None for a diagnostic."""
    pv, cv = metric_values(parent_runs, name), metric_values(change_runs, name)
    if not pv or not cv:
        return None
    p1, pm, p3 = summary(pv)
    c1, cm, c3 = summary(cv)
    if spec is None:
        return {"parent": (p1, pm, p3), "change": (c1, cm, c3),
                "wins": "-", "pairs": "-", "verdict": "-"}
    better, bound = spec["better"], spec["bound"]
    matched = pairs(parent_runs, change_runs, name)
    wins = sum(is_better(c, p, better) for p, c in matched)
    losses = sum(is_better(p, c, better) for p, c in matched)
    gain = (bool(matched) and wins >= 0.9 * len(matched) and
            is_better(cm, pm, better) and abs(cm - pm) > (p3 - p1))
    row = {"parent": (p1, pm, p3), "change": (c1, cm, c3),
           "wins": wins, "losses": losses, "pairs": len(matched)}
    if bound is None or pm == 0:
        row["verdict"] = "gain" if gain else "-"
        return row
    worse_by = (cm - pm) / abs(pm) if better == "lower" else (pm - cm) / abs(pm)
    spread = max(p3 - p1, c3 - c1) / abs(pm)
    all_better = all(is_better(c, p, better) for p in pv for c in cv)
    row["worse_by"], row["spread"] = worse_by, spread
    if spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif worse_by > bound:
        row["verdict"] = "REGRESSION"
    elif gain:
        row["verdict"] = "gain"
    else:
        row["verdict"] = "within bound"
    return row


def fmt(value):
    return f"{value:.6g}"


def trace_overhead(runs):
    ratios = {}
    for (workload, traced), group in runs.items():
        if traced or (workload, True) not in runs:
            continue
        untraced = statistics.median(metric_values(group, "update_p50_s"))
        traced_median = statistics.median(
            metric_values(runs[(workload, True)], "update_p50_s"))
        ratios[workload] = traced_median / untraced
    return ratios


def compare(parent_dir, change_dir, contract):
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    verdicts = {"REGRESSION": 0, "unresolved": 0, "gain": 0}
    for key in sorted(set(parent) & set(change)):
        workload, traced = key
        print(f"\n== {workload}{' (traced)' if traced else ''}: "
              f"{len(parent[key])} parent runs, {len(change[key])} change runs")
        print(f"{'metric':34} {'unit':6} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'wins':>7}  verdict")
        for name in metric_names(parent[key] + change[key]):
            spec = contract.get(name)
            if traced and spec is not None:
                # Bounds hold for untraced runs; traced ones are judged
                # like per-layer metrics.
                spec = dict(spec, bound=None)
            row = judge(parent[key], change[key], name, spec)
            if row is None:
                continue
            if row["verdict"] in verdicts:
                verdicts[row["verdict"]] += 1
            print(f"{name:34} {metric_unit(parent[key], name):6} "
                  f"{'/'.join(fmt(v) for v in row['parent']):>32} "
                  f"{'/'.join(fmt(v) for v in row['change']):>32} "
                  f"{row['wins']:>3}/{row['pairs']:<3}  {row['verdict']}")
    for side, runs in (("parent", parent), ("change", change)):
        for workload, ratio in trace_overhead(runs).items():
            print(f"trace_overhead_ratio {side} {workload}: {ratio:.4f}")
    print(f"\n{verdicts['REGRESSION']} regressions, {verdicts['unresolved']} "
          f"unresolved, {verdicts['gain']} gains")
    return 1 if verdicts["REGRESSION"] or verdicts["unresolved"] else 0


def self_compare(dir_a, dir_b, contract):
    a, b = load_runs(dir_a), load_runs(dir_b)
    bounded = [name for name, spec in contract.items()
               if spec["bound"] is not None]
    failures = 0
    for key in sorted(set(a) & set(b)):
        workload, traced = key
        if traced:
            continue
        print(f"\n== {workload}: {len(a[key])} + {len(b[key])} runs")
        print(f"{'metric':16} {'spread A':>9} {'spread B':>9} {'gap':>8} "
              f"{'bound':>6}  verdict")
        for name in bounded:
            va, vb = metric_values(a[key], name), metric_values(b[key], name)
            if not va or not vb:
                print(f"{name:16} missing")
                failures += 1
                continue
            (a1, am, a3), (b1, bm, b3) = summary(va), summary(vb)
            spread_a, spread_b = (a3 - a1) / am, (b3 - b1) / bm
            gap = abs(bm - am) / am
            bound = contract[name]["bound"]
            if max(spread_a, spread_b) > bound:
                verdict = "UNRESOLVED"
            elif gap > bound:
                verdict = "DRIFT"
            elif max(spread_a, spread_b) <= bound / 3:
                verdict = "steady"
            else:
                verdict = "within bound"
            failures += verdict in ("UNRESOLVED", "DRIFT")
            print(f"{name:16} {spread_a:9.4f} {spread_b:9.4f} {gap:8.4f} "
                  f"{bound:6.3f}  {verdict}")
    return 1 if failures else 0


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def baseline(directory, commit):
    runs = load_runs(directory)
    if not commit:
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = "unknown"
    compilers = {run.get("meta", {}).get("compiler", "unknown")
                 for group in runs.values() for run in group}
    out = {
        "commit": commit,
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                    "compiler": sorted(compilers)},
        "workloads": {},
    }
    for (workload, traced), group in sorted(runs.items()):
        entry = {"runs": len(group), "seeds": [run["seed"] for run in group],
                 "metrics": {}}
        for name in metric_names(group):
            values = metric_values(group, name)
            q1, median, q3 = summary(values)
            entry["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                      "unit": metric_unit(group, name)}
        out["workloads"][workload + ("-traced" if traced else "")] = entry
    for workload, ratio in trace_overhead(runs).items():
        out["workloads"][workload]["trace_overhead_ratio"] = ratio
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("dirs", nargs="+", metavar="DIR")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--self", action="store_true", dest="self_mode",
                      help="both directories hold runs of the same code")
    mode.add_argument("--baseline", action="store_true",
                      help="print the medians and quartiles of one set")
    parser.add_argument("--commit", help="commit to record with --baseline")
    args = parser.parse_args()
    contract = load_contract()
    if args.baseline:
        if len(args.dirs) != 1:
            parser.error("--baseline takes one directory")
        return baseline(args.dirs[0], args.commit)
    if len(args.dirs) != 2:
        parser.error("give two directories")
    if args.self_mode:
        return self_compare(args.dirs[0], args.dirs[1], contract)
    return compare(args.dirs[0], args.dirs[1], contract)


if __name__ == "__main__":
    sys.exit(main())
