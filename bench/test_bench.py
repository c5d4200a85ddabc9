"""Tests of the bench's own statistics, tracing and bookkeeping.

Run from the repository root:  python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import types
import unittest

import run
import workloads
from tracer import Tracer, layer_metrics, self_times, traced_package


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(range(1, 31)), (66, 20))
        self.assertEqual(run.tail_percentile(range(1, 1001)), (99, 990))
        for n in (11, 19, 20, 57, 100, 101, 999, 4000):
            p, value = run.tail_percentile(range(n))
            rank = -(-p * n // 100)
            self.assertEqual(value, rank - 1)
            self.assertGreaterEqual(n - rank, 10, n)
            if p < 99:
                self.assertLess(n - -(-(p + 1) * n // 100), 10, n)

    def test_ten_samples_or_fewer_report_the_maximum(self):
        self.assertEqual(run.tail_percentile([3, 1, 2]), (100, 3))
        self.assertEqual(run.tail_percentile(range(10)), (100, 9))


class SpecTest(unittest.TestCase):
    def test_benchmark_json_names_what_the_bench_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            ("root", 0.0, 10.0, -1, True, 0),
            ("child", 1.0, 4.0, 0, True, 0),
            ("grandchild", 2.0, 3.0, 1, True, 0),
            ("child", 5.0, 6.0, 0, True, 0),
        ]
        self.assertEqual(self_times(spans), [6.0, 2.0, 1.0, 1.0])

    def test_layer_metrics_attribute_spans_to_layers(self):
        spans = [
            ("solver_goods.solve", 0.0, 20.0, -1, True, 0),
            ("mms.mu_vector", 1.0, 5.0, 0, True, 0),
            ("mms.mms_value", 1.0, 3.0, 1, True, 1),
            ("mms.mms_value", 3.0, 5.0, 1, True, 0),
            ("reductions.reduce_single_item", 5.0, 6.0, 0, False, 0),
            ("matching.envy_free_matching", 6.0, 9.0, 0, True, 0),
            ("matching.max_matching", 6.0, 8.0, 5, True, 0),
            ("core.lift_allocation", 9.0, 10.0, 0, True, 0),
            ("mms.mms_value", 10.0, 14.0, 0, True, 1),
            ("verify", 30.0, 40.0, -1, True, 0),
            ("reductions.verify_step", 30.0, 35.0, 9, True, 0),
            ("mms.mms_value", 31.0, 34.0, 10, True, 1),
            ("mms.mms_value", 35.0, 39.0, 9, True, 1),
        ]
        metrics = layer_metrics(spans)
        self.assertEqual(metrics["mms.share_calls"], 3)
        self.assertEqual(metrics["mms.share_s"], 8.0)
        self.assertAlmostEqual(metrics["mms.cache_hit_ratio"], 1 / 3)
        self.assertEqual(metrics["mms.mu_vector_s"], 4.0)
        self.assertEqual(metrics["mms.certify_s"], 4.0)
        self.assertEqual(metrics["reductions.rule_attempts"], 1)
        self.assertEqual(metrics["reductions.rule_fire_ratio"], 0.0)
        self.assertEqual((metrics["matching.calls"], metrics["matching.s"]), (1, 3.0))
        self.assertEqual(metrics["core.lift_s"], 1.0)
        self.assertEqual(metrics["solver.self_s"], 20.0 - 4 - 1 - 3 - 1 - 4)
        self.assertEqual(metrics["reductions.verify_step_s"], 5.0)
        self.assertEqual(metrics["reductions.verify_share_s"], 3.0)

    def test_wrapped_calls_record_their_parents(self):
        tracer = Tracer(lambda: 0)
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: (inner(), inner(), 1)[-1])
        with tracer.root("root"):
            outer()
        names = [span[0] for span in tracer.spans]
        parents = [span[3] for span in tracer.spans]
        fired = [span[4] for span in tracer.spans]
        self.assertEqual(names, ["root", "outer", "inner", "inner"])
        self.assertEqual(parents, [-1, 0, 1, 1])
        self.assertEqual(fired, [True, True, False, False])
        own = self_times(tracer.spans)
        self.assertAlmostEqual(sum(own), tracer.spans[0][2] - tracer.spans[0][1])


class PackageTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.pkg = run.load_package()

    def solve_pool(self, pkg, pool):
        result = run.Pass(len(pool))
        run.run_round(pkg, pool, range(len(pool)), result)
        return result

    def test_tracing_patches_every_binding_and_restores_it(self):
        pkg = self.pkg
        original = pkg.mms.mms_value
        with traced_package(Tracer(lambda: 0)) as missing:
            self.assertEqual(missing, [])
            for module in (pkg, pkg.mms, pkg.reductions, pkg.solver_goods, pkg.solver_chores):
                self.assertIsNot(module.mms_value, original)
        for module in (pkg, pkg.mms, pkg.reductions, pkg.solver_goods, pkg.solver_chores):
            self.assertIs(module.mms_value, original)

    def test_digest_is_stable_across_runs_of_one_seed(self):
        pkg = self.pkg
        digests = [
            run.outcome_digest(
                pkg, self.solve_pool(pkg, workloads.correlated(pkg, seed, 40)).outcomes
            )
            for seed in (5, 5, 6)
        ]
        self.assertEqual(digests[0], digests[1])
        self.assertNotEqual(digests[0], digests[2])

    def test_unresolved_outcome_counts_as_failed(self):
        pkg = self.pkg
        pool = workloads.small_uniform(pkg, 3, 10)
        target = pool[4]

        def solve(instance):
            outcome = pkg.solve(instance)
            if instance is target:
                return pkg.SolveOutcome("unresolved", None, None, "injected")
            return outcome

        shim = types.SimpleNamespace(**vars(pkg))
        shim.solve = solve
        result = self.solve_pool(shim, pool)
        failed = result.failed + run.check(shim, pool, result)
        attempted = result.attempted() + len(pool)
        # the unresolved solve, its verification and its bench-side check
        self.assertEqual((failed, attempted), (3, 30))
        self.assertEqual(result.solved, 9)


if __name__ == "__main__":
    unittest.main()
