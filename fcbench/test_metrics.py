"""Self-tests of the benchmark's metric code (run.py runs them first).

    python3 -m unittest discover -s fcbench -p 'test_*.py'
"""

import json
import os
import unittest

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))


def rep(index, traced, round_ms, **fields):
    entry = {"rep": index, "traced": traced, "rounds": len(round_ms),
             "round_ms": round_ms, "loop_ms": sum(round_ms),
             "run_ms": 1.5 * sum(round_ms), "ttt_ms": 100.0 * (index + 1),
             "final_acc": 0.9, "digest": "d%d" % index, "dispatches": 20,
             "uplink_wire_bytes": 2e6, "uplink_raw_bytes": 8e6,
             "failed_rounds": 0, "failures": [], "checkpoint_bytes": 4e6,
             "periodic_checkpoints": 0}
    entry.update(fields)
    return entry


def record(reps, **trace_totals):
    out = {"workload": "cnn-sync", "seed": 1, "trace": 0,
           "host": {"nproc": 4, "fl_threads": 2, "simd": "generic",
                    "build_type": "Release"},
           "config": {"k": 4, "samples_per_dispatch": 50,
                      "flops_per_sample": 1e6, "gemm_n": 100},
           "data_ms": [10.0, 30.0, 20.0], "server_ms": [1.0, 1.0, 1.0],
           "reps": reps, "peak_rss_mb": 80.0, "probe_error": ""}
    if trace_totals:
        out["trace_totals"] = trace_totals
    return out


class PercentileTest(unittest.TestCase):

    def test_interpolates_between_ranks(self):
        self.assertEqual(metrics.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(metrics.percentile([1, 2, 3, 4, 5], 90), 4.6)
        self.assertEqual(metrics.percentile([7], 90), 7)

    def test_p90_kept_with_ten_samples_beyond(self):
        values = list(range(1, 101))  # n = 100
        p, value, n = metrics.tail_percentile(values, 90)
        self.assertEqual((p, n), (90, 100))
        self.assertAlmostEqual(value, 90.1)
        self.assertEqual(metrics.samples_beyond(n, p), 10)

    def test_falls_back_to_highest_percentile_with_ten_beyond(self):
        p, _, n = metrics.tail_percentile(list(range(60)), 90)
        self.assertEqual((p, n), (83, 60))
        self.assertGreaterEqual(metrics.samples_beyond(n, p), 10)
        self.assertLess(metrics.samples_beyond(n, p + 1), 11)

    def test_few_samples_report_the_median(self):
        p, value, n = metrics.tail_percentile([3.0, 1.0, 2.0], 90)
        self.assertEqual((p, value, n), (50, 2.0, 3))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.tail_percentile([], 90)


class RatioTest(unittest.TestCase):

    def test_reports_its_base(self):
        self.assertEqual(metrics.ratio(3, 4), (0.75, "ratio", 4))
        self.assertEqual(metrics.ratio(6, 3, "versions"), (2.0, "versions", 3))

    def test_zero_base_is_zero_with_the_base_shown(self):
        self.assertEqual(metrics.ratio(5, 0), (0.0, "ratio", 0))


class FailureCountTest(unittest.TestCase):

    def test_failed_over_attempted(self):
        self.assertEqual(metrics.error_rate(200, 0), 0.0)
        self.assertEqual(metrics.error_rate(200, 50), 0.25)

    def test_failures_never_exceed_attempts(self):
        self.assertEqual(metrics.error_rate(10, 25), 1.0)

    def test_a_crash_fails_every_round(self):
        self.assertEqual(metrics.error_rate(120, 3, crashed=True), 1.0)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.error_rate(0, 0)


class EndToEndTest(unittest.TestCase):

    def test_metrics_from_untraced_repetitions_only(self):
        reps = [rep(0, False, [10.0] * 60), rep(1, False, [20.0] * 60),
                rep(0, True, [1000.0] * 60)]
        e2e = metrics.end_to_end(record(reps))
        self.assertEqual(e2e["round_ms.p50"][:3], (15.0, "ms", 120))
        self.assertEqual(e2e["round_ms.p90"][0], 20.0)
        self.assertIn("p90", e2e["round_ms.p90"][3])
        self.assertEqual(e2e["setup_s"][:3], (0.021, "s", 3))
        self.assertAlmostEqual(e2e["time_to_target_s"][0], 0.15)
        self.assertEqual(e2e["final_acc"][0], 90.0)
        self.assertEqual(e2e["uplink_wire_mb"][0], 2.0)
        # 20 dispatches x 50 samples over 0.6 s and over 1.2 s.
        self.assertAlmostEqual(e2e["samples_per_s"][0], 1250.0)

    def test_unreached_target_counts_the_whole_repetition(self):
        reps = [rep(0, False, [10.0] * 60, ttt_ms=-1.0),
                rep(1, False, [10.0] * 60, ttt_ms=-1.0)]
        e2e = metrics.end_to_end(record(reps))
        self.assertAlmostEqual(e2e["time_to_target_s"][0], 0.9)
        self.assertIn("never reached", e2e["time_to_target_s"][3])

    def test_names_match_the_benchmark_definition(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        e2e = metrics.end_to_end(record([rep(0, False, [1.0] * 100)]))
        self.assertEqual(sorted(e2e),
                         sorted(m["name"] for m in spec["end_to_end"]))


class PerLayerTest(unittest.TestCase):

    def traced_record(self):
        spans = {
            "phase.train": {"ms": 80.0, "count": 4},
            "phase.aggregate": {"ms": 20.0, "count": 4},
            "bench.core.select_round": {"ms": 6.0, "count": 3},
            "bench.core.similarity_round": {"ms": 3.0, "count": 3},
            "bench.tensor.gemm": {"ms": 2.0, "count": 1},
            "pool.task": {"ms": 40.0, "count": 8},
        }
        reps = [rep(0, False, [20.0] * 4), rep(0, True, [25.0] * 4)]
        return record(
            reps, rounds=4, round_ms_total=100.0, phase_self_ms_total=100.0,
            dispatches=20, harvest_ok=True, spans=spans,
            train_window_ms=90.0, pool_in_train_ms=45.0,
            counters={"fl.plan.steps": 10, "fl.plan.fused_steps": 8,
                      "fl.plan.fallback_jobs": 0,
                      "fl.pool.checkout.hit": 3, "fl.pool.checkout.miss": 1},
            arena_bytes_max=2e6, queue_depth_max=1, resident_clients_max=4,
            retries=2, timeouts=4, wire_wasted_bytes=1.0,
            wire_total_bytes=4.0, staleness_sum=6.0, staleness_count=3,
            mask_pairs=0, mask_recoveries=0)

    def test_shares_and_rates(self):
        layer = metrics.per_layer(self.traced_record())
        self.assertEqual(layer["phase.train_ms"], (20.0, "ms", None))
        self.assertEqual(layer["phase.train_share"], (0.8, "ratio", 100.0))
        self.assertEqual(layer["plan.fused_share"], (0.8, "ratio", 10))
        self.assertEqual(layer["pool.hit_ratio"], (0.75, "ratio", 4))
        # Only pool.task time inside phase.train counts: 45 of 90 ms x 2.
        self.assertEqual(layer["threadpool.busy_share"], (0.25, "ratio", 180))
        self.assertEqual(layer["engine.retry_share"], (0.1, "ratio", 20))
        self.assertEqual(layer["engine.staleness_mean"][0], 2.0)
        # A selection round takes 2 ms, the direct scans 1 ms.
        self.assertEqual(layer["core.select_over_scan"], (2.0, "ratio", 1.0))
        # 1e6 FLOPs x 1000 samples in 80 ms; 2 x 100^3 FLOPs in 2 ms.
        self.assertAlmostEqual(layer["train.gflop_per_s"][0], 12.5)
        self.assertAlmostEqual(layer["tensor.gemm_peak_gflop_per_s"][0], 1.0)
        self.assertAlmostEqual(layer["train.peak_share"][0], 6.25)
        self.assertAlmostEqual(layer["trace.overhead_share"][0], 0.25)

    def test_names_match_the_benchmark_definition(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "layers.json")) as f:
            mapped = [name for group in json.load(f)["layers"]
                      for name in group["metrics"]]
        layer = metrics.per_layer(self.traced_record())
        names = sorted(m["name"] for m in spec["per_layer"])
        self.assertEqual(sorted(layer), names)
        self.assertEqual(sorted(mapped), names)

    def test_path_failures_name_what_was_not_exercised(self):
        traced = self.traced_record()
        layer = metrics.per_layer(traced)
        self.assertEqual(metrics.path_failures(traced, layer), [])
        traced["trace_totals"]["counters"]["fl.plan.fallback_jobs"] = 2
        traced["trace_totals"]["phase_self_ms_total"] = 90.0
        traced["reps"][1]["digest"] = "changed"
        layer = metrics.per_layer(traced)
        failures = metrics.path_failures(traced, layer)
        self.assertEqual(len(failures), 3, failures)

    def test_timing_ratios_never_fail_a_run(self):
        traced = self.traced_record()
        traced["workload"] = "wide-server"
        traced["trace_totals"]["spans"]["bench.core.select_round"]["ms"] = 1e6
        layer = metrics.per_layer(traced)
        self.assertEqual(metrics.path_failures(traced, layer), [])


if __name__ == "__main__":
    unittest.main()
