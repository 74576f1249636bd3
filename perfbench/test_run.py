"""Tests of the benchmark's correctness check.

Run from the root of a checkout: `python3 -m unittest perfbench/test_run.py`.
The fixtures are the `iadm-cli sweep` artifacts of `sf_churn` and
`wormhole_lanes` at seed 1, whose digests are recorded in `digests.json`.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

FIXTURES = os.path.join(run.HERE, "fixtures")


def fixture(name):
    with open(os.path.join(FIXTURES, f"{name}.seed1.json")) as f:
        return json.load(f)


def check(name, doc, with_digest=True):
    recorded = run.load_digests()[name]["1"]["full"] if with_digest else None
    failed, _, _, errors = run.check_artifact(
        json.dumps(doc), 1, run.WORKLOADS[name].cycles, recorded)
    return failed, errors


class CheckArtifact(unittest.TestCase):
    def test_recorded_artifacts_pass(self):
        for name in ("sf_churn", "wormhole_lanes"):
            self.assertEqual(check(name, fixture(name)), (0, []))

    def test_changed_counter_fails_the_digest(self):
        doc = fixture("sf_churn")
        doc["runs"][0]["stats"]["latency_max"] += 1  # outside every ledger
        failed, errors = check("sf_churn", doc)
        self.assertEqual(failed, 1)
        self.assertTrue(any("digest" in e for e in errors), errors)

    def test_broken_packet_ledger_fails_without_a_digest(self):
        doc = fixture("sf_churn")
        doc["runs"][0]["stats"]["delivered"] += 1
        failed, errors = check("sf_churn", doc, with_digest=False)
        self.assertEqual(failed, 1)
        self.assertTrue(any("packets not conserved" in e for e in errors), errors)

    def test_misrouted_packet_fails(self):
        doc = fixture("sf_churn")
        doc["runs"][0]["stats"]["misrouted"] = 1
        failed, errors = check("sf_churn", doc, with_digest=False)
        self.assertEqual(failed, 1)
        self.assertEqual(errors, ["run 0: misrouted 1"])

    def test_broken_flit_ledger_fails_without_a_digest(self):
        doc = fixture("wormhole_lanes")
        doc["runs"][0]["stats"]["flits_delivered"] -= 1
        failed, errors = check("wormhole_lanes", doc, with_digest=False)
        self.assertEqual(failed, 1)
        self.assertTrue(any("flits not conserved" in e for e in errors), errors)

    def test_truncated_artifact_fails_every_run(self):
        text = json.dumps(fixture("sf_churn"))[:-10]
        failed, _, _, _ = run.check_artifact(text, 1, 4000, None)
        self.assertEqual(failed, 1)


if __name__ == "__main__":
    unittest.main()
