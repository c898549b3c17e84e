"""The perf gate's decision on canned run.py final lines.

Run from the root of the repository:

    python3 -m unittest discover -s ci
"""

import json
import os
import unittest

import bench_pairs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BASE = {"run_s": 0.4, "iter_ms_p50": 9.0, "setup_s": 0.003, "peak_rss_mib": 3.5}


def line(scale=None, failed=0, drop=None):
    """A run.py final line: BASE metrics, some scaled, one optionally left out."""
    scale = scale or {}
    metrics = {name: {"value": value * scale.get(name, 1.0), "unit": "x"}
               for name, value in BASE.items() if name != drop}
    return {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}


def pairs(parent, change, n=bench_pairs.PAIRS):
    """`n` pairs whose runs all have the same (exit, final) per side."""
    return [(parent, change) for _ in range(n)]


def aa():
    """An A/A set: every run of both sides reads BASE, with a little spread."""
    results = {}
    for w in WORKLOADS:
        results[w] = [((0, line({"run_s": 1 + 0.01 * i})),
                       (0, line({"run_s": 1 + 0.01 * (4 - i)})))
                      for i in range(bench_pairs.PAIRS)]
    return results


class VerdictTest(unittest.TestCase):
    def test_an_aa_set_passes(self):
        rows, problems = bench_pairs.verdict(SPEC, aa())
        self.assertEqual(problems, [])
        self.assertEqual(len(rows), len(WORKLOADS) * len(SPEC["end_to_end"]))
        self.assertTrue(all(r["status"] == "unchanged" for r in rows))

    def test_a_run_s_regression_fails_and_names_workload_and_metric(self):
        results = aa()
        results[WORKLOADS[1]] = pairs((0, line()), (0, line({"run_s": 1.3})))
        rows, problems = bench_pairs.verdict(SPEC, results)
        self.assertEqual(len(problems), 1)
        self.assertIn(WORKLOADS[1], problems[0])
        self.assertIn("run_s", problems[0])
        worse = [r for r in rows if r["status"] == "worse"]
        self.assertEqual([(r["workload"], r["metric"]) for r in worse], [(WORKLOADS[1], "run_s")])
        self.assertEqual(worse[0]["won"], 0)

    def test_a_peak_rss_rise_past_its_tighter_bound_fails(self):
        results = aa()
        results[WORKLOADS[0]] = pairs((0, line()), (0, line({"peak_rss_mib": 1.2})))
        _, problems = bench_pairs.verdict(SPEC, results)
        self.assertEqual(len(problems), 1)
        self.assertIn("peak_rss_mib", problems[0])
        # The same rise is inside run_s's wider bound.
        results[WORKLOADS[0]] = pairs((0, line()), (0, line({"run_s": 1.2})))
        self.assertEqual(bench_pairs.verdict(SPEC, results)[1], [])

    def test_failed_iterations_fail(self):
        results = aa()
        results[WORKLOADS[2]][3] = ((0, line()), (1, line(failed=2)))
        _, problems = bench_pairs.verdict(SPEC, results)
        self.assertTrue(any("failed=2" in p and WORKLOADS[2] in p for p in problems))
        self.assertTrue(any("exited with 1" in p for p in problems))

    def test_a_nonzero_exit_fails(self):
        results = aa()
        results[WORKLOADS[0]][0] = ((2, None), (0, line()))
        _, problems = bench_pairs.verdict(SPEC, results)
        self.assertTrue(any("parent" in p and "exited with 2" in p for p in problems))
        self.assertTrue(any("no final JSON line" in p for p in problems))

    def test_a_missing_metric_fails(self):
        results = aa()
        results[WORKLOADS[1]][2] = ((0, line()), (0, line(drop="setup_s")))
        _, problems = bench_pairs.verdict(SPEC, results)
        self.assertEqual(len(problems), 1)
        self.assertIn("no setup_s", problems[0])

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        results = aa()
        spread = [0.6, 0.8, 1.0, 1.2, 1.4]
        results[WORKLOADS[0]] = [((0, line({"run_s": s})), (0, line())) for s in spread]
        rows, problems = bench_pairs.verdict(SPEC, results)
        self.assertEqual(problems, [])
        row = next(r for r in rows if (r["workload"], r["metric"]) == (WORKLOADS[0], "run_s"))
        self.assertEqual(row["status"], "unresolved")
        self.assertGreater(row["iqr"], row["bound"])
        table = bench_pairs.render(rows)
        self.assertIn("unresolved", table)
        self.assertEqual(table.count("unresolved"), 1)


if __name__ == "__main__":
    unittest.main()
