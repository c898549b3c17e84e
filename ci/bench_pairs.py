#!/usr/bin/env python3
"""Perf gate: alternated parent/change pairs of the paper-run benchmark.

Usage, from anywhere:

    python3 ci/bench_pairs.py <parent-checkout> <change-checkout>

For every workload in the parent's BENCHMARK.json it runs PAIRS pairs of

    python3 <side>/paperbench/run.py --workload W --seed S --seconds SECONDS --trace 0

once in each checkout. Both runs of a pair use the same seed, and the side
that runs first swaps from pair to pair, so a swing of the host's speed
lands on both sides alike. Each side builds into its own checkout
(CARGO_TARGET_DIR is cleared, so run.py uses <side>/.bench_build).

The gate fails (exit 1) if any run exits non-zero, prints no final JSON
line, reports failed > 0 or lacks an end-to-end metric, or if the change's
median of an end-to-end metric is worse than the parent's median by more
than that metric's bound. Bounds and directions are the parent's, so a
change cannot loosen its own gate. Exit 2 is a usage error.

One row per workload and metric shows both medians, the pairs the change
won and the parent's interquartile range relative to its median. A row
whose parent IQR exceeds the bound reads "unresolved": those runs are too
spread to tell a change of that size from noise.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 9
SECONDS = 5
SEEDS = (7, 424242)


def run(side, workload, seed):
    """Runs run.py once in checkout `side`; returns (exit code, final JSON line or None)."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = [sys.executable, os.path.join(side, "paperbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=side, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        final = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        final = None
    return done.returncode, final


def verdict(spec, results):
    """Judges parsed runs against the BENCHMARK.json `spec`.

    `results` maps each workload to its list of pairs, and each pair is
    ((exit, final), (exit, final)) for the parent and the change side,
    `final` being the parsed last stdout line of run.py or None. Returns
    (rows, problems): one row dict per workload and end-to-end metric, and
    one message per reason to fail. The gate passes when problems is empty.
    """
    rows, problems = [], []
    for workload, pairs in results.items():
        values = {}  # (side, metric) -> [value per pair]
        for i, pair in enumerate(pairs):
            for side, (code, final) in zip(("parent", "change"), pair):
                where = f"{workload} {side} pair {i + 1}"
                if code != 0:
                    problems.append(f"{where}: run.py exited with {code}")
                if final is None:
                    problems.append(f"{where}: no final JSON line")
                    continue
                if final.get("failed") != 0:
                    problems.append(f"{where}: failed={final.get('failed')}")
                for m in spec["end_to_end"]:
                    metric = final.get("metrics", {}).get(m["name"])
                    if metric is None:
                        problems.append(f"{where}: no {m['name']}")
                    else:
                        values.setdefault((side, m["name"]), []).append(metric["value"])
        for m in spec["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            parent = values.get(("parent", name), [])
            change = values.get(("change", name), [])
            if not parent or not change:
                continue
            p_med, c_med = statistics.median(parent), statistics.median(change)
            won = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
            iqr = 0.0
            if len(parent) > 1 and p_med:
                q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
                iqr = (q3 - q1) / abs(p_med)
            if better == "lower":
                worse = c_med > p_med * (1 + bound)
            else:
                worse = c_med < p_med * (1 - bound)
            if worse:
                status = "worse"
                problems.append(f"{workload} {name}: change median {c_med:.6g} is worse "
                                f"than parent median {p_med:.6g} by more than {bound:.0%}")
            elif iqr > bound:
                status = "unresolved"
            else:
                status = "unchanged"
            rows.append({"workload": workload, "metric": name, "parent": p_med,
                         "change": c_med, "won": won, "pairs": min(len(parent), len(change)),
                         "iqr": iqr, "bound": bound, "status": status})
    return rows, problems


def render(rows):
    """The verdict table, one line per row."""
    lines = [f"{'workload':<16} {'metric':<13} {'parent':>10} {'change':>10} "
             f"{'won':>5} {'parent IQR':>10} {'bound':>6}  verdict"]
    for r in rows:
        lines.append(f"{r['workload']:<16} {r['metric']:<13} {r['parent']:>10.4g} "
                     f"{r['change']:>10.4g} {r['won']:>2}/{r['pairs']:<2} {r['iqr']:>10.1%} "
                     f"{r['bound']:>6.0%}  {r['status']}")
    return "\n".join(lines)


def main():
    if len(sys.argv) != 3 or not all(os.path.isdir(d) for d in sys.argv[1:]):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    parent_dir, change_dir = (os.path.abspath(d) for d in sys.argv[1:])
    with open(os.path.join(parent_dir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    results = {}
    for w in spec["workloads"]:
        workload = w["name"]
        results[workload] = []
        for i in range(PAIRS):
            seed = SEEDS[i % len(SEEDS)]
            order = [("parent", parent_dir), ("change", change_dir)]
            if i % 2:
                order.reverse()
            pair = {}
            for side, directory in order:
                code, final = pair[side] = run(directory, workload, seed)
                values = " ".join(f"{k}={m['value']:.4g}"
                                  for k, m in (final or {}).get("metrics", {}).items())
                print(f"bench_pairs: {workload} pair {i + 1}/{PAIRS} seed {seed} {side}: "
                      f"exit {code} {values}", file=sys.stderr, flush=True)
            results[workload].append((pair["parent"], pair["change"]))
    rows, problems = verdict(spec, results)
    print(render(rows))
    for p in problems:
        print(f"FAIL {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
