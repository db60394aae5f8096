#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per workload and metric.

Usage, from the repository root:

    python3 perfbench/compare.py BASE NEW [--benchmark BENCHMARK.json]
    python3 perfbench/compare.py RUNS [--benchmark BENCHMARK.json]

BASE and NEW are directories (or lists of files joined by commas) of run
outputs: the captured stdout of `python3 perfbench/run.py ...`, one run
per file. Each file's `run:` line names its workload and seed, and its
last line is the JSON result. Runs of the two sets are paired by
workload and seed (runs without a partner are paired in file order).

For every workload and metric it prints both sets' median and quartiles
and a verdict:

* improved: the new set wins at least 9 of every 10 pairs (ties count
  for neither side) and the medians differ by more than the base set's
  interquartile distance;
* worse than the bound: the new median is worse than the base median by
  more than the metric's bound in BENCHMARK.json (for a metric without
  a bound: the new set loses 9 of 10 pairs by more than the base spread);
* unresolved: neither of the above; `spread>bound` marks a metric whose
  base spread is wider than its bound, so a regression within the spread
  could hide.

With one set it prints, per workload and metric, the quartiles and the
spread (interquartile distance over median) beside the metric's bound.
"""

import json
import pathlib
import statistics
import sys


def load_runs(spec):
    path = pathlib.Path(spec)
    files = sorted(path.iterdir()) if path.is_dir() else [pathlib.Path(p) for p in spec.split(",")]
    runs = []
    for file in files:
        if not file.is_file():
            continue
        lines = [line for line in file.read_text().splitlines() if line.strip()]
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        info = {}
        for line in lines:
            if line.startswith("run: "):
                info = dict(part.split("=", 1) for part in line[5:].split() if "=" in part)
        runs.append({
            "file": file.name,
            "workload": info.get("workload", "?"),
            "seed": info.get("seed"),
            "trace": info.get("trace", "0"),
            "result": result,
        })
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pair_up(base, new):
    by_seed = {r["seed"]: r for r in new}
    pairs, rest_b, used = [], [], set()
    for run in base:
        partner = by_seed.get(run["seed"])
        if partner is not None and run["seed"] not in used:
            pairs.append((run, partner))
            used.add(run["seed"])
        else:
            rest_b.append(run)
    rest_n = [r for r in new if r["seed"] not in used]
    pairs.extend(zip(rest_b, rest_n))
    return pairs


def summarize(runs, spec):
    print(f"{'workload':<12} {'metric':<36} {'runs':>4} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload, trace in sorted({(r["workload"], r["trace"]) for r in runs}):
        group = [r for r in runs if (r["workload"], r["trace"]) == (workload, trace)]
        label = workload + ("" if trace == "0" else " (traced)")
        for name in group[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in group
                      if r["result"]["metrics"].get(name, {}).get("value") is not None]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = spec.get(name, {}).get("bound")
            print(f"{label:<12} {name:<36} {len(values):>4} {q1:>12.5g} {med:>12.5g} {q3:>12.5g} "
                  f"{spread:>7.3f} {'' if bound is None else bound:>6}")
        failed = sum(r["result"]["failed"] for r in group)
        attempted = sum(r["result"]["attempted"] for r in group)
        correct = all(r["result"]["correct"] for r in group)
        print(f"{label:<12} failed/attempted {failed}/{attempted}, all correct: {correct}")


def main(argv):
    bench_path = pathlib.Path("BENCHMARK.json")
    if "--benchmark" in argv:
        at = argv.index("--benchmark")
        bench_path = pathlib.Path(argv[at + 1])
        argv = argv[:at] + argv[at + 2:]
    if not argv:
        print(__doc__)
        return 2
    bench = json.loads(bench_path.read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    if len(argv) == 1:
        summarize(load_runs(argv[0]), spec)
        return 0
    base_runs, new_runs = load_runs(argv[0]), load_runs(argv[1])
    groups = sorted({(r["workload"], r["trace"]) for r in base_runs + new_runs})
    print(f"{'workload':<12} {'metric':<36} {'base q1/med/q3':>34} {'new q1/med/q3':>34} "
          f"{'wins':>6}  verdict")
    for workload, trace in groups:
        base = [r for r in base_runs if (r["workload"], r["trace"]) == (workload, trace)]
        new = [r for r in new_runs if (r["workload"], r["trace"]) == (workload, trace)]
        if not base or not new:
            continue
        pairs = pair_up(base, new)
        names = list(base[0]["result"]["metrics"])
        for name in names:
            if name not in spec:
                continue
            lower = spec[name]["better"] == "lower"
            b = [r["result"]["metrics"][name]["value"] for r in base
                 if r["result"]["metrics"].get(name, {}).get("value") is not None]
            n = [r["result"]["metrics"][name]["value"] for r in new
                 if r["result"]["metrics"].get(name, {}).get("value") is not None]
            if not b or not n:
                continue
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            wins = losses = 0
            for rb, rn in pairs:
                vb = rb["result"]["metrics"].get(name, {}).get("value")
                vn = rn["result"]["metrics"].get(name, {}).get("value")
                if vb is None or vn is None or vb == vn:
                    continue
                if (vn < vb) == lower:
                    wins += 1
                else:
                    losses += 1
            spread = bq3 - bq1
            gap = (bmed - nmed) if lower else (nmed - bmed)
            bound = spec[name].get("bound")
            verdict = "unresolved"
            if len(pairs) and wins >= 0.9 * len(pairs) and gap > spread:
                verdict = "improved"
            elif bound is not None and -gap > bound * abs(bmed):
                verdict = "worse than the bound"
            elif bound is None and len(pairs) and losses >= 0.9 * len(pairs) and -gap > spread:
                verdict = "worse"
            if bound is not None and bmed and spread / abs(bmed) > bound and verdict == "unresolved":
                verdict += " (spread>bound)"
            label = workload + ("" if trace == "0" else " (traced)")
            print(f"{label:<12} {name:<36} {bq1:>11.4g}/{bmed:>10.4g}/{bq3:>10.4g} "
                  f"{nq1:>11.4g}/{nmed:>10.4g}/{nq3:>10.4g} {wins:>3}/{len(pairs):<2}  {verdict}")
        fb = sum(r["result"]["failed"] for r in base)
        ab = sum(r["result"]["attempted"] for r in base)
        fn = sum(r["result"]["failed"] for r in new)
        an = sum(r["result"]["attempted"] for r in new)
        print(f"{workload:<12} failed/attempted: base {fb}/{ab}, new {fn}/{an}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
