"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m unittest discover -s perfbench``
(a few seconds).  They use the small-configs items and the known-failing
separated L2 d=12 item, never a whole timed workload.
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, bindings  # noqa: E402
from workloads import DEFAULT_SEED, KNOWN_FAILURE, WORKLOADS, recorded_digests  # noqa: E402

SMALL = WORKLOADS["small-configs"]


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.harness = worker.import_oclab()

    def test_every_patched_name_is_restored(self):
        before = bindings()
        tracer = Tracer()
        with tracer:
            during = bindings()
            patched = len(tracer.patched)
            worker.run_pass(self.harness, SMALL, DEFAULT_SEED, {}, tracer=tracer)
        self.assertEqual(bindings(), before)
        changed = {key for key in before if during[key] is not before[key]}
        self.assertEqual(len(changed), patched)
        self.assertIn(("oclab.harness", "load_config"), changed)
        self.assertIn(("oclab.harness", "density_certificate"), changed)
        self.assertIn(("oclab.constructors", "riesz_step"), changed)
        self.assertIn(("oclab.certify", "rank_exact"), changed)
        self.assertNotIn(("oclab.serialize", "frac_str"), changed)

    def test_traced_and_untraced_digests_are_equal(self):
        reference = {}
        plain = worker.run_pass(self.harness, SMALL, DEFAULT_SEED, reference, check=True)
        tracer = Tracer()
        with tracer:
            traced = worker.run_pass(self.harness, SMALL, DEFAULT_SEED, reference, tracer=tracer)
        self.assertEqual(plain["problems"], [])
        self.assertEqual(sorted(plain["ref"]), sorted(plain["times"]))
        self.assertTrue(all(t > 0 for t in plain["ref"].values()))
        self.assertEqual(traced["mismatches"], 0)
        self.assertEqual(traced["digests"], plain["digests"])
        recorded = recorded_digests()
        self.assertEqual(plain["digests"], {label: recorded[label] for label, _, _ in SMALL})

        summary = tracer.summary()
        self.assertEqual(summary["functions"]["harness.load_config"]["calls"], len(SMALL))
        self_total = sum(summary["layers"].values())
        self.assertLessEqual(self_total, sum(traced["times"].values()))
        values = run.per_layer_values(summary, traced, 1.0)
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            wanted = [m["name"] for m in json.load(fh)["per_layer"]]
        self.assertEqual([name for name in wanted if name not in values], [])

    def test_failing_item_is_counted_and_the_pass_goes_on(self):
        items = [SMALL[3], KNOWN_FAILURE, SMALL[4]]
        before = bindings()
        tracer = Tracer()
        with tracer:
            result = worker.run_pass(self.harness, items, DEFAULT_SEED, {}, tracer=tracer)
        self.assertEqual(bindings(), before)
        self.assertEqual([e[:2] for e in result["errors"]], [[KNOWN_FAILURE[0], "ValueError"]])
        self.assertEqual(sorted(result["digests"]), sorted([SMALL[3][0], SMALL[4][0]]))
        self.assertEqual(tracer._stack, [-1])

    def test_every_run_with_a_wrong_digest_is_counted(self):
        label = SMALL[3][0]
        result = worker.run_pass(self.harness, [SMALL[3]], DEFAULT_SEED, {label: "0" * 64}, repeats=3)
        self.assertEqual(result["mismatches"], 3)
        self.assertEqual(len(result["problems"]), 3)

    def test_report_check_catches_an_edited_certificate(self):
        label, scenario, text = SMALL[3]
        payload, canonical, _ = worker.run_item(self.harness, scenario, text, DEFAULT_SEED)
        self.assertEqual(worker.check_report(payload, canonical, scenario, DEFAULT_SEED), [])
        record = json.loads(payload)
        record["certificates"][0]["verdict"] = "Edited"
        problems = worker.check_report(json.dumps(record), canonical, scenario, DEFAULT_SEED)
        self.assertIn("certificate_refs do not match the certificates", problems)


if __name__ == "__main__":
    unittest.main()
