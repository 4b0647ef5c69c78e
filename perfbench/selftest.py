"""Self-tests of the benchmark, at tiny input sizes whose numbers are never reported.

    python3 perfbench/selftest.py        (from the root of a checkout)

Checks that every named metric is emitted with a unit, that the correctness
gate trips on a perturbed reference, that a traced run yields every per-layer
metric, that the exact counters repeat, and the compare-mode rules.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
from iteration import WORKLOADS  # noqa: E402
from tracing import EXACT_COUNTERS, Tracer  # noqa: E402

NAMED_END_TO_END = (
    "wall_s setup_s gen_s train_s eval_s eval_episodes_per_s episode_p50_s "
    "episode_p95_s peak_rss_mb success_total cost_effective_total ops_failed_share"
).split()
NAMED_PER_LAYER = """
envs.step_calls envs.precondition_calls envs.is_goal_calls envs.self_s
oracle.bfs_calls oracle.bfs_s oracle.bfs_successors_generated oracle.bfs_distinct_start_ratio
oracle.replay_calls data.generate_split_s data.episodes_drawn data.episodes_kept_ratio
data.write_s data.read_s data.can_samples data.pay_samples data.samples_build_s
features.featurize_calls features.featurize_s features.cache_hit_ratio.train
features.cache_hit_ratio.eval features.bucket_cache_hit_ratio
models.train_s.can models.train_s.pay models.train_s.say models.train_samples_per_s.can
models.train_samples_per_s.pay models.train_samples_per_s.say models.score_calls
models.score_s models.action_probs_calls models.action_probs_s
models.candidates_per_action_probs models.save_s models.load_s
backends.propose_calls.trained backends.propose_calls.perfect-say
backends.propose_s.trained backends.propose_s.perfect-say backends.can_calls.trained
backends.can_calls.oracle backends.can_s.trained backends.can_s.oracle
backends.pay_calls.trained backends.pay_calls.oracle backends.pay_s.trained
backends.pay_s.oracle decoding.expand_calls decoding.expand_p50_s decoding.expand_p95_s
decoding.candidates_scored decoding.kept_share decoding.run_strategy_s.greedy-action
decoding.run_strategy_s.beam-action evaluate.episodes evaluate.cell_s
evaluate.execute_plan_s evaluate.fanout_busy_share trace.overhead_s
""".split()

_RUNS: dict = {}


def tiny_runs(workload: str) -> dict:
    """One untraced and two traced tiny iterations, shared by the tests."""
    if workload not in _RUNS:
        checkout = run.Checkout(Path.cwd())
        untraced = checkout.spawn(workload, 0, "self-u", size="tiny")
        traced = [checkout.spawn(workload, 0, f"self-t{i}", trace=True, size="tiny")
                  for i in range(2)]
        _RUNS[workload] = {"untraced": untraced, "traced": traced,
                           "reference": gate.reference_entry(traced[0])}
    return _RUNS[workload]


def tearDownModule():
    run.Checkout(Path.cwd()).cleanup()


class MetricsTest(unittest.TestCase):
    def test_every_named_metric_is_emitted_with_a_unit(self):
        bench = run.load_benchmark()
        units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
        units.update({name: unit for name, (unit, _) in run.PRINTED_ONLY.items()})
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                r = tiny_runs(workload)
                record = run.summarize(workload, [r["untraced"]], [r["untraced"]["setup_s"]],
                                       {"0": r["reference"]}, r["traced"])
                self.assertEqual(record["failed"], 0, record["problems"])
                for trace in (False, True):
                    line = run.result_line(record, bench, trace)
                    registered = bench["per_layer" if trace else "end_to_end"]
                    self.assertEqual(list(line["metrics"]), [m["name"] for m in registered])
                    for metric in line["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))
                        self.assertTrue(metric["unit"])
                expected = [n for n in NAMED_END_TO_END
                            if n != "train_s" or WORKLOADS[workload].train]
                self.assertEqual(sorted(record["end_to_end"]), sorted(expected))
                for name in list(record["end_to_end"]) + list(record["layers"]):
                    self.assertIn(name, units)

    def test_traced_run_yields_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                r = tiny_runs(workload)
                record = run.summarize(workload, [r["untraced"]], [1.0], {"0": r["reference"]},
                                       r["traced"])
                missing = set(NAMED_PER_LAYER) - set(record["layers"])
                self.assertFalse(missing)
                self.assertGreater(record["layers"]["evaluate.episodes"], 0)
                self.assertGreater(record["layers"]["envs.step_calls"], 0)

    def test_jobs2_workers_are_counted(self):
        r = tiny_runs("hanoi-gridworld-jobs2")
        layers = r["traced"][0]["layers"]
        self.assertEqual(layers["evaluate.episodes"], len(r["untraced"]["episode_wall_s"]))
        self.assertGreater(layers["decoding.expand_calls"], 0)

    def test_exact_counters_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                r = tiny_runs(workload)
                record = run.summarize(workload, [r["untraced"]], [1.0], {"0": r["reference"]},
                                       r["traced"])
                self.assertEqual(record["layers"]["trace.counters_repeat"], 1, record["counters"])

    def test_flags_a_counter_that_differs_between_traced_iterations(self):
        r = tiny_runs("blocks-oracle-eval")
        second = copy.deepcopy(r["traced"][1])
        second["layers"][EXACT_COUNTERS[0]] += 1
        record = run.summarize("blocks-oracle-eval", [r["untraced"]], [1.0],
                               {"0": r["reference"]}, [r["traced"][0], second])
        self.assertEqual(record["layers"]["trace.counters_repeat"], 0)


class GateTest(unittest.TestCase):
    def setUp(self):
        r = tiny_runs("blocks-oracle-eval")
        self.result, self.reference = r["untraced"], r["reference"]

    def test_passes_on_its_own_reference(self):
        self.assertEqual(gate.check(self.result, self.reference), (0, []))

    def test_trips_on_a_perturbed_cell(self):
        for field in gate.CELL_FIELDS:
            ref = copy.deepcopy(self.reference)
            ref["cells"][0][field] += 1
            failed, problems = gate.check(self.result, ref)
            self.assertEqual(failed, 1, field)
            self.assertIn(field, problems[0])

    def test_trips_on_a_perturbed_split(self):
        ref = copy.deepcopy(self.reference)
        name = next(iter(ref["splits"]))
        ref["splits"][name] = "0" * 64
        failed, problems = gate.check(self.result, ref)
        self.assertEqual(failed, 1)
        self.assertIn("split bytes differ", problems[0])

    def test_fails_everything_without_reference(self):
        failed, _ = gate.check(self.result, None)
        self.assertEqual(failed, self.result["planned_ops"])

    def test_counts_a_raised_stage(self):
        result = copy.deepcopy(self.result)
        result["stages"] = result["stages"][:1]
        result["cells"] = []
        result["errors"] = ["blocks eval: Traceback ..."]
        failed, _ = gate.check(result, self.reference)
        self.assertEqual(failed, result["planned_ops"] - 1)


class CompareTest(unittest.TestCase):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]

    def test_win_needs_nine_of_ten_pairs_and_a_gap_beyond_the_iqr(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1)["verdict"], "win")
        change[0] = 20.0
        change[1] = 20.0
        self.assertNotEqual(compare.verdict(self.parent, change, "lower", 0.1)["verdict"], "win")

    def test_regression_beyond_the_bound(self):
        change = [v * 1.3 for v in self.parent]
        row = compare.verdict(self.parent, change, "lower", 0.1)
        self.assertEqual(row["verdict"], "regression")
        row = compare.verdict(self.parent, [v * 0.7 for v in self.parent], "higher", 0.1)
        self.assertEqual(row["verdict"], "regression")

    def test_unresolved_when_spread_exceeds_the_bound(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        row = compare.verdict(self.parent, noisy, "lower", 0.1)
        self.assertEqual(row["verdict"], "unresolved")

    def test_within_bound(self):
        change = [v * 1.01 for v in self.parent]
        row = compare.verdict(self.parent, change, "lower", 0.1)
        self.assertEqual(row["verdict"], "within bound")


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        tracer = Tracer(full=False, worker_dir=Path("."))
        tracer.spans = [
            ("a", "cell", 0.0, 10.0, None),
            ("b", "episode", 1.0, 4.0, "a"),
            ("c", "episode", 3.0, 6.0, "a"),  # overlaps b, as pool workers do
            ("d", "episode", 8.0, 12.0, "a"),  # clipped to the parent
        ]
        rows = {r["id"]: r for r in tracer.span_rows()}
        self.assertAlmostEqual(rows["a"]["self_s"], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(rows["b"]["self_s"], 3.0)


class CommandTest(unittest.TestCase):
    def test_exits_nonzero_without_the_package(self):
        work = Path.cwd() / ".perfbench_work"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as empty:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "blocks-pipeline",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=empty, capture_output=True, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=""),
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        with self.assertRaises(json.JSONDecodeError):
            json.loads(proc.stdout)


if __name__ == "__main__":
    unittest.main()
