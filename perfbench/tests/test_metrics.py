"""Self-tests of the benchmark's own arithmetic and metric catalogue.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

import metrics  # noqa: E402

BENCHMARK_JSON = PERFBENCH.parent / "BENCHMARK.json"


def span(name, start, end, parent=-1, op="pass1"):
    return [name, op, start, end, parent]


class MetricCatalogue(unittest.TestCase):
    def all_metrics(self):
        return (metrics.END_TO_END + metrics.SERVICE_END_TO_END
                + metrics.PER_LAYER)

    def test_names_match_pattern_and_are_unique(self):
        names = [name for name, _, _ in self.all_metrics()]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        self.assertEqual(len(names), len(set(names)))

    def test_every_metric_has_a_unit_and_direction(self):
        for name, unit, better in self.all_metrics():
            self.assertRegex(unit, r"^[A-Za-z0-9_/%.-]{1,16}$", name)
            self.assertIn(better, ("lower", "higher"), name)

    def test_benchmark_json_matches_catalogue(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            list(metrics.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(metrics.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(metrics.WORKLOADS))
        self.assertIn(("setup_s", "s", "lower"), metrics.END_TO_END)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        # root [0, 100) with children [10, 40) and [30, 60) that overlap
        # (concurrent clients) and a grandchild [15, 25) under the first.
        spans = [
            span("perfbench.pass", 0, 100),
            span("service.ServiceClient.submit", 10, 40, parent=0),
            span("service.ServiceClient.submit", 30, 60, parent=0),
            span("dist.run_mst", 15, 25, parent=1),
        ]
        self.assertEqual(metrics.self_times_ns(spans), [50, 20, 30, 10])

    def test_child_outside_parent_is_clipped(self):
        spans = [span("perfbench.pass", 0, 10), span("dist.x", 5, 20, parent=0)]
        self.assertEqual(metrics.self_times_ns(spans)[0], 5)

    def test_layer_self_seconds_per_traced_pass(self):
        spans = [
            span("perfbench.pass", 0, 100, op="pass1"),
            span("dist.build_bfs_tree", 0, 40, parent=0, op="pass1"),
            span("perfbench.pass", 200, 300, op="pass3"),
            span("dist.build_bfs_tree", 200, 260, parent=2, op="pass3"),
            # set-up spans are not part of any pass
            span("perfbench.setup", 400, 500, op="setup0"),
            span("congest.Network", 400, 450, parent=4, op="setup0"),
        ]
        layers = metrics.layer_self_seconds(spans)
        self.assertAlmostEqual(layers["dist"], 50e-9)
        self.assertAlmostEqual(layers["perfbench"], 50e-9)
        self.assertEqual(layers["congest"], 0.0)

    def test_covered_merges_overlaps(self):
        self.assertEqual(metrics.covered_ns([(0, 5), (3, 8), (10, 12)]), 10)
        self.assertEqual(metrics.covered_ns([]), 0)


class Percentiles(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(metrics.TooFewSamples):
            metrics.tail_percentile(list(range(999)), 99)
        with self.assertRaises(metrics.TooFewSamples):
            metrics.tail_percentile(list(range(19)), 50)

    def test_accepts_exactly_ten_beyond(self):
        values = list(range(1, 1001))
        self.assertEqual(metrics.tail_percentile(values, 99), 990)
        self.assertEqual(metrics.tail_percentile(list(range(1, 21)), 50), 10)

    def test_summary(self):
        s = metrics.summary([4.0, 1.0, 3.0, 2.0, 5.0])
        self.assertEqual((s["median"], s["q1"], s["q3"], s["min"], s["n"]),
                         (3.0, 2.0, 4.0, 1.0, 5))


if __name__ == "__main__":
    unittest.main()
