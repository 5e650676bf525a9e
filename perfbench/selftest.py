"""Self-tests: every correctness check accepts a right result and rejects a wrong one.

Run from the repository root:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import unittest

import common
import numpy as np

import checks
import run
from eevit import costs
from eevit.config import build_system
from eevit.inference import EvaluationSummary


class TrainingChecks(unittest.TestCase):
    def test_finite_histories(self):
        checks.finite_histories([{"loss": 1.0}], [{"objective": 2.0}])
        with self.assertRaises(checks.CheckError):
            checks.finite_histories([{"loss": 1.0}], [{"objective": float("nan")}])

    def test_objective_drops(self):
        checks.objective_drops([{"loss_ce": 2.0}, {"loss_ce": 1.5}], "loss_ce")
        with self.assertRaises(checks.CheckError):
            checks.objective_drops([{"loss_ce": 2.0}, {"loss_ce": 2.0}], "loss_ce")
        with self.assertRaises(checks.CheckError):
            checks.objective_drops([{"loss_ce": 2.0}, {"loss_ce": 2.0 - 4e-16}], "loss_ce")

    def test_same_snapshot(self):
        before = {"w": np.zeros(3).tobytes()}
        checks.same_snapshot(before, dict(before), "backbone")
        moved = np.zeros(3)
        moved[1] = np.nextafter(0.0, 1.0)
        with self.assertRaises(checks.CheckError):
            checks.same_snapshot(before, {"w": moved.tobytes()}, "backbone")

    def test_bitwise_equal(self):
        a = np.linspace(0.0, 1.0, 5)
        checks.bitwise_equal(a, a.copy(), "logits")
        with self.assertRaises(checks.CheckError):
            checks.bitwise_equal(a, a + 1e-16 * np.arange(5), "logits")
        with self.assertRaises(checks.CheckError):
            checks.bitwise_equal(np.zeros(1), -np.zeros(1), "signed zero")


class ExitChecks(unittest.TestCase):
    positions = (2, 4, 6, 7)

    def test_first_exits_and_match(self):
        conf = np.array([[0.95, 0.1, 0.1, 0.1], [0.5, 0.5, 0.91, 0.99], [0.1, 0.2, 0.3, 0.4]])
        exits, decidable = checks.first_exits(conf, self.positions, 8, 0.9)
        self.assertEqual(exits.tolist(), [2, 6, 8])
        self.assertTrue(decidable.all())
        checks.exit_layers_match(np.array([2, 6, 8]), exits, decidable)
        with self.assertRaises(checks.CheckError):
            checks.exit_layers_match(np.array([2, 7, 8]), exits, decidable)

    def test_confidence_near_tau_is_skipped_not_passed(self):
        conf = np.array([[0.9 + 1e-12, 0.1, 0.1, 0.1], [0.95, 0.1, 0.1, 0.1], [0.95, 0.1, 0.1, 0.1]])
        exits, decidable = checks.first_exits(conf, self.positions, 8, 0.9)
        self.assertEqual(decidable.tolist(), [False, True, True])
        checks.exit_layers_match(np.array([8, 2, 2]), exits, decidable)
        with self.assertRaises(checks.CheckError):
            checks.exit_layers_match(np.array([8, 2, 4]), exits, decidable)

    def test_layer_ratio_speedup(self):
        layers = np.array([2, 4, 8, 8])
        checks.layer_ratio_speedup(8 * 4 / 22, layers, 8)
        with self.assertRaises(checks.CheckError):
            checks.layer_ratio_speedup(8 * 4 / 22 + 1e-12, layers, 8)

    def test_own_mac_formulas_agree_with_the_cost_model(self):
        system = build_system(common.desk_run(0))
        geometry = run.geometry(system)
        for layer in (2, 4, 6, 7, 8):
            self.assertEqual(checks.path_macs(geometry, layer), costs.path_macs(system.profile, system.placement, layer))
        layers = [2, 4, 4, 8]
        hist = costs.ExitHistogram.from_layers(layers, 8)
        expected = costs.expected_macs(system.profile, hist, system.placement)
        per_image = [costs.path_macs(system.profile, system.placement, layer) for layer in layers]
        checks.macs_match(per_image, expected, layers, geometry)
        with self.assertRaises(checks.CheckError):
            checks.macs_match(per_image[:-1] + [per_image[-1] + 1], expected, layers, geometry)
        with self.assertRaises(checks.CheckError):
            checks.macs_match(per_image, expected * (1 + 1e-9), layers, geometry)


class SweepChecks(unittest.TestCase):
    def test_exits_never_shallower(self):
        checks.exits_never_shallower([(0, 3, 0, 1, 0, 0, 0, 0), (0, 1, 0, 2, 0, 0, 0, 1)])
        with self.assertRaises(checks.CheckError):
            checks.exits_never_shallower([(0, 1, 0, 2, 0, 0, 0, 1), (0, 3, 0, 1, 0, 0, 0, 0)])

    def test_histogram_matches(self):
        self.assertEqual(checks.histogram(np.array([2, 2, 8]), 8), (0, 2, 0, 0, 0, 0, 0, 1))
        checks.histogram_matches((0, 2, 0, 0, 0, 0, 0, 1), (0, 2, 0, 0, 0, 0, 0, 1), 0.9)
        with self.assertRaises(checks.CheckError):
            checks.histogram_matches((0, 1, 0, 1, 0, 0, 0, 1), (0, 2, 0, 0, 0, 0, 0, 1), 0.9)

    def test_hits_match_allows_only_near_ties(self):
        logits = np.array([[1.0, 1.0 + 1e-12, 0.0], [3.0, 0.0, 0.0]])
        self.assertEqual(checks.near_ties(logits).tolist(), [True, False])
        checks.hits_match(10, 11, 1, "accuracy")
        with self.assertRaises(checks.CheckError):
            checks.hits_match(10, 11, 0, "accuracy")

    def test_summaries_equal(self):
        hist = costs.ExitHistogram((0, 1, 0, 0, 0, 0, 0, 1))
        a = EvaluationSummary(0.9, 0.5, hist, 1.6, 100.0)
        checks.summaries_equal(a, EvaluationSummary(0.9, 0.5, hist, 1.6, 100.0), "sweep")
        with self.assertRaises(checks.CheckError):
            checks.summaries_equal(a, EvaluationSummary(0.9, 0.5625, hist, 1.6, 100.0), "sweep")


class BenchmarkFile(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in run.SPEC["workloads"]], list(run.WORKLOADS))

    def test_stream_is_seeded_and_balanced(self):
        cfg = common.desk_run(common.WEIGHTS_SEED)
        a, la = common.held_out_stream(cfg, 128, 3)
        b, lb = common.held_out_stream(cfg, 128, 3)
        c, _ = common.held_out_stream(cfg, 128, 4)
        checks.bitwise_equal(a, b, "same seed")
        self.assertFalse(np.array_equal(a, c))
        self.assertEqual(np.bincount(la).min(), 12)


if __name__ == "__main__":
    unittest.main()
