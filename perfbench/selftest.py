"""Self-tests of the benchmark's checks and tracer.

    python3 perfbench/selftest.py

Run from the root of a checkout.  The checks must reject a certificate with
one copy image altered, rational weights off by one unit, float weights off
by more than the tolerance, and an UNSAT status on a SAT instance; the
tracer must put back every binding it wrapped, also when a traced call
raises, and its self times must add up to the traced wall time.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks                                   # noqa: E402
import jobs                                     # noqa: E402
import run                                      # noqa: E402
import spans                                    # noqa: E402
from checks import ANSWERED, FAILED, UNANSWERED  # noqa: E402

_, DL, _ = run.setup(HERE.parent, "fractional", 1)


class CertificateChecks(unittest.TestCase):
    def setUp(self):
        self.job = jobs._exact_sat_job("K3->K9", jobs.K3, 9)
        self.result = self.job.run(DL)

    def test_valid_certificate_is_answered(self):
        self.assertEqual(self.job.check(self.result).status, ANSWERED)

    def test_one_altered_copy_image_is_rejected(self):
        res, back, verified = self.result
        first = back.copies[0]
        image = list(first.image)
        image[0] = next(x for x in range(9) if x not in image)
        back.copies[0] = dataclasses.replace(first, image=tuple(image))
        outcome = self.job.check((res, back, verified))
        self.assertEqual(outcome.status, FAILED, outcome.detail)

    def test_unsat_status_on_sat_instance_fails(self):
        res = DL.solver.SolveResult(DL.solver.UNSAT_EXHAUSTED)
        outcome = self.job.check((res, None, False))
        self.assertEqual(outcome.status, FAILED)

    def test_indeterminate_is_unanswered(self):
        res = DL.solver.SolveResult(DL.solver.INDETERMINATE, nodes=7)
        outcome = self.job.check((res, None, False))
        self.assertEqual(outcome.status, UNANSWERED)
        self.assertEqual(outcome.counts["search_nodes"], 0)

    def test_verifier_disagreement_fails(self):
        res, back, _ = self.result
        self.assertEqual(self.job.check((res, back, False)).status, FAILED)


class WeightChecks(unittest.TestCase):
    def solve(self, mode):
        job = jobs._fractional_job("K3->K7", jobs.K3, 7, mode)
        return job, job.run(DL)

    def test_rational_weights_off_by_one_unit_are_rejected(self):
        job, res = self.solve("rational")
        self.assertEqual(job.check(res).status, ANSWERED)
        w = res.solution.weights
        k = next(i for i, x in enumerate(w) if x > 0)
        w[k] += Fraction(1, w[k].denominator)
        self.assertEqual(job.check(res).status, FAILED)

    def test_inexact_rational_weight_is_rejected(self):
        job, res = self.solve("rational")
        res.solution.weights[0] = float(res.solution.weights[0])
        self.assertEqual(job.check(res).status, FAILED)

    def test_float_weights_outside_tolerance_are_rejected(self):
        job, res = self.solve("float")
        self.assertEqual(job.check(res).status, ANSWERED)
        res.solution.weights[0] += 1e-6
        self.assertEqual(job.check(res).status, FAILED)

    def test_negative_float_weight_is_rejected(self):
        pedges = jobs.K3[1]
        host = checks.edge_set(jobs.complete_edges(3))
        why = checks.check_float_weights(3, pedges, [(0, 1, 2)], [-1e-12],
                                         host, 1.0)
        self.assertIsNotNone(why)

    def test_size_guard_refusal_is_unanswered(self):
        outcome = jobs.classify_fractional(jobs.K3, set(), "float", "refused")
        self.assertEqual(outcome.status, UNANSWERED)


class CoverDownChecks(unittest.TestCase):
    # K4 on {0,1,2,3}: one triangle 0-1-2 leaves the star at 3
    host = checks.edge_set(jobs.complete_edges(4))
    pattern = jobs.K3

    def classify(self, images, leftover, final, claimed):
        return checks.classify_cover_down(self.host, 3, self.pattern[1],
                                          images, leftover, final, claimed)

    def test_confined_leftover_is_answered(self):
        left = {(0, 3), (1, 3), (2, 3)}
        self.assertEqual(self.classify([(0, 1, 2)], left, [0, 1, 2, 3],
                                       False)[0], ANSWERED)

    def test_unconfined_is_unanswered_unless_claimed(self):
        left = {(0, 3), (1, 3), (2, 3)}
        status, _, outside = self.classify([(0, 1, 2)], left, [0, 1, 2],
                                           False)
        self.assertEqual((status, outside), (UNANSWERED, 3))
        self.assertEqual(self.classify([(0, 1, 2)], left, [0, 1, 2],
                                       True)[0], FAILED)

    def test_wrong_leftover_or_overlap_fails(self):
        self.assertEqual(self.classify([(0, 1, 2)], {(0, 3)}, [0, 1, 2, 3],
                                       False)[0], FAILED)
        self.assertEqual(self.classify([(0, 1, 2), (0, 1, 3)], set(),
                                       [0, 1, 2, 3], False)[0], FAILED)


class Tracing(unittest.TestCase):
    def originals(self):
        return {(m.__name__, k): v for m in spans.program_modules()
                for k, v in vars(m).items() if callable(v)}

    def test_bindings_restored_after_pass_and_after_raise(self):
        before = self.originals()
        init = DL.graphs.Graph.__init__
        tracer = spans.Tracer()
        with tracer.installed():
            self.assertTrue(spans.wrapped_bindings())
            self.assertIsNot(DL.solver.exact_decompose,
                             before[("decomplab.solver", "exact_decompose")])
        self.assertEqual(spans.wrapped_bindings(), [])
        with self.assertRaises(DL.errors.InputError):
            with tracer.installed():
                DL.solver.exact_decompose(DL.graphs.Graph(2, [(0, 1)]),
                                          DL.graphs.Graph(2, [(0, 1)]))
        self.assertEqual(spans.wrapped_bindings(), [])
        after = self.originals()
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(after[k] is v for k, v in before.items()))
        self.assertIs(DL.graphs.Graph.__init__, init)

    def test_untraced_pass_after_traced_pass_is_unwrapped(self):
        job_list = [jobs._exact_sat_job("K3->K9", jobs.K3, 9),
                    jobs._fractional_job("K3->K7", jobs.K3, 7, "rational")]
        tracer = spans.Tracer()
        with tracer.installed():
            times, outcomes, _ = run.run_pass(DL, job_list, tracer)
        self.assertEqual([o.status for o in outcomes], [ANSWERED, ANSWERED])
        accounted = sum(tracer.self_s.values()) + tracer.bench_self_s
        self.assertAlmostEqual(accounted, sum(times), delta=1e-6)
        layers = run.layer_metrics(tracer, sum(times))
        self.assertGreater(layers["embeddings.copies"], 0)
        self.assertGreater(layers["lp.rational_s"], 0)
        calls = dict(tracer.calls)
        self.assertEqual(spans.wrapped_bindings(), [])
        run.run_pass(DL, job_list)
        self.assertEqual(dict(tracer.calls), calls)


class MetricTables(unittest.TestCase):
    def test_benchmark_json_matches_run_tables(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         {k: u for k, (u, _) in run.PER_LAYER.items()})
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(jobs.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
