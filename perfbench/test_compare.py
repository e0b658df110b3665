#!/usr/bin/env python3
"""Unit tests of the compare step and the entry script's helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        v = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
        q1, med, q3 = compare.quartiles(v)
        self.assertEqual([q1, med, q3], statistics.quantiles(v, n=4))
        self.assertAlmostEqual(compare.spread(v), (q3 - q1) / med)

    def test_single_value_has_no_spread(self):
        self.assertEqual(compare.quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertEqual(compare.spread([3.0]), 0.0)

    def test_zero_median_is_unbounded_spread(self):
        self.assertEqual(compare.spread([0.0, 0.0, 0.0]), float("inf"))


class Order(unittest.TestCase):
    def test_sides_alternate(self):
        self.assertEqual(compare.order_of(0), ("parent", "change"))
        self.assertEqual(compare.order_of(1), ("change", "parent"))
        self.assertEqual(compare.order_of(2), ("parent", "change"))


class Claim(unittest.TestCase):
    def test_gain_needs_nine_tenths_of_pairs(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
        change = [8.0] * 10
        self.assertEqual(compare.judge_claim(parent, change, "lower"), ("gain", 10, 10))
        change[0], change[1] = 11.0, 11.0  # two lost pairs: 8 of 10
        verdict, wins, _ = compare.judge_claim(parent, change, "lower")
        self.assertEqual((verdict, wins), ("not met", 8))

    def test_ties_count_for_neither(self):
        parent = [10.0] * 10
        change = [10.0] + [5.0] * 9
        verdict, wins, pairs = compare.judge_claim(parent, change, "lower")
        self.assertEqual((verdict, wins, pairs), ("gain", 9, 10))

    def test_gap_must_exceed_parent_spread(self):
        parent = [1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0, 5.0]
        change = [p + 0.5 for p in parent]  # wins every pair by less than the spread
        self.assertEqual(compare.judge_claim(parent, change, "higher")[0], "not met")


class Bound(unittest.TestCase):
    def test_within_bound_is_ok_beyond_is_regression(self):
        parent = [100.0, 101.0, 99.0, 100.0, 100.5]
        self.assertEqual(compare.judge_bound(parent, [104.0] * 5, "lower", 0.1)[0], "ok")
        verdict, worse = compare.judge_bound(parent, [120.0] * 5, "lower", 0.1)
        self.assertEqual(verdict, "regression")
        self.assertAlmostEqual(worse, 0.2)
        # Higher-is-better: a drop is the regression.
        self.assertEqual(compare.judge_bound(parent, [80.0] * 5, "higher", 0.1)[0], "regression")
        self.assertEqual(compare.judge_bound(parent, [120.0] * 5, "higher", 0.1)[0], "ok")

    def test_wide_spread_is_unresolved_unless_every_run_is_better(self):
        parent = [50.0, 100.0, 150.0, 80.0, 120.0]
        change = [60.0, 110.0, 160.0, 90.0, 130.0]
        self.assertEqual(compare.judge_bound(parent, change, "lower", 0.1)[0], "unresolved")
        self.assertEqual(compare.judge_bound(parent, [10.0, 20.0, 30.0, 15.0, 25.0], "lower", 0.1)[0], "better")


class Judge(unittest.TestCase):
    def rows(self, parent, change, workload="w", metric="p50_ms", correct=True):
        out = []
        for i, (p, c) in enumerate(zip(parent, change)):
            for side, v in (("parent", p), ("change", c)):
                out.append({"side": side, "pair": i, "workload": workload,
                            "result": {"correct": correct, "metrics": {metric: {"value": v, "unit": "ms"}}}})
        return out

    def test_claim_and_bounds_per_pair(self):
        metrics = {"p50_ms": {"name": "p50_ms", "better": "lower", "bound": 0.1}}
        rows = self.rows([10.0] * 10, [8.0] * 10)
        lines, ok = compare.judge(rows, metrics, ["w"], claim=("p50_ms", "w"))
        self.assertTrue(ok, lines)
        self.assertIn("gain", lines[0])
        lines, ok = compare.judge(self.rows([10.0] * 10, [12.0] * 10), metrics, ["w"])
        self.assertFalse(ok)
        self.assertIn("regression", lines[0])

    def test_invalid_runs_are_left_out(self):
        metrics = {"p50_ms": {"name": "p50_ms", "better": "lower", "bound": 0.1}}
        rows = self.rows([10.0] * 10, [10.0] * 9 + [50.0])
        rows[-1]["result"]["invalid"] = True  # the change's outlier run
        lines, ok = compare.judge(rows, metrics, ["w"])
        self.assertTrue(ok, lines)
        self.assertIn("left out", lines[0])
        self.assertEqual(len(compare.series(rows, "change", "w", "p50_ms")), 9)

    def test_incorrect_runs_fail_the_comparison(self):
        metrics = {"p50_ms": {"name": "p50_ms", "better": "lower", "bound": 0.1}}
        lines, ok = compare.judge(self.rows([10.0], [10.0], correct=False), metrics, ["w"])
        self.assertFalse(ok)
        self.assertIn("not correct", lines[0])

    def test_spec_is_read_from_benchmark_json(self):
        metrics, workloads = compare.load_spec(os.path.join(ROOT, "BENCHMARK.json"))
        self.assertIn("setup_s", metrics)
        self.assertGreaterEqual(len(workloads), 2)
        for m in metrics.values():
            self.assertLessEqual(m["bound"], 0.25)


class Entry(unittest.TestCase):
    def test_source_digest_tracks_content(self):
        with tempfile.TemporaryDirectory() as d:
            os.makedirs(os.path.join(d, "crates", "x"))
            path = os.path.join(d, "crates", "x", "lib.rs")
            with open(path, "w") as f:
                f.write("fn a() {}")
            first = run.source_digest(d)
            self.assertEqual(first, run.source_digest(d))
            with open(path, "w") as f:
                f.write("fn b() {}")
            self.assertNotEqual(first, run.source_digest(d))

    def test_fails_without_a_result_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as d:
            os.makedirs(os.path.join(d, "perfbench"))
            for f in ("run.py",):
                with open(os.path.join(ROOT, "perfbench", f)) as src, open(os.path.join(d, "perfbench", f), "w") as dst:
                    dst.write(src.read())
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paxos-durable-kv",
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=d, capture_output=True, text=True, timeout=60,
                               env=dict(os.environ, CARGO_TARGET_DIR=os.path.join(d, ".bench_build")))
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")


class Spec(unittest.TestCase):
    def test_benchmark_json_keys(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for m in spec["end_to_end"]] + [m["name"] for m in spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
