#!/usr/bin/env python3
"""Unit tests for scripts/check_scenario_digests.py, the CI check that
every committed scenario report stays byte-identical. A stand-in np_run
writes a report derived from the spec and the mode flags, so the tests
pin the contract without building anything: --update records scenario
digests for every spec and serving digests only for specs without
track_load; a matching tree passes; a changed report, a failing run, a
spec without a digest and a digest without a spec each fail.

Run directly (python3 tests/scripts/check_scenario_digests_test.py) or
via ctest (scripts_check_scenario_digests).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SCRIPT = os.path.join(ROOT, "scripts", "check_scenario_digests.py")

# Writes "<spec text>|<salt>|<args>" to --out; exits 3 when the spec
# says "fail".
FAKE_NP_RUN = """#!/usr/bin/env python3
import sys
args = sys.argv[1:]
spec = open(args[0]).read()
if "fail" in spec:
    sys.exit(3)
out = args[args.index("--out") + 1]
salt = open(__file__ + ".salt").read()
flags = " ".join(a for i, a in enumerate(args[1:], 1)
                 if a != "--out" and args[i - 1] != "--out")
open(out, "w").write(spec + "|" + salt + "|" + flags)
"""


class CheckScenarioDigestsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.scenarios = os.path.join(self.tmp.name, "scenarios")
        os.mkdir(self.scenarios)
        self.np_run = os.path.join(self.tmp.name, "np_run")
        with open(self.np_run, "w") as f:
            f.write(FAKE_NP_RUN)
        os.chmod(self.np_run, 0o755)
        self.set_salt("a")
        self.digests = os.path.join(self.tmp.name, "digests.json")
        self.spec("plain", {"scenario": {"epochs": 2}})
        self.spec("loaded", {"scenario": {"fault": {"track_load": True}}})

    def set_salt(self, salt):
        with open(self.np_run + ".salt", "w") as f:
            f.write(salt)

    def spec(self, name, payload):
        with open(os.path.join(self.scenarios, name + ".json"), "w") as f:
            json.dump(payload, f)

    def run_script(self, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, "--np-run", self.np_run,
             "--scenarios", self.scenarios, "--digests", self.digests,
             *extra],
            capture_output=True, text=True, check=False)

    def test_update_then_check_passes(self):
        self.assertEqual(self.run_script("--update").returncode, 0)
        with open(self.digests) as f:
            digests = json.load(f)
        self.assertEqual(sorted(digests["scenario"]),
                         ["loaded.json", "plain.json"])
        # track_load refuses serving mode: no serving digest.
        self.assertEqual(sorted(digests["serving"]), ["plain.json"])
        self.assertNotEqual(digests["scenario"]["plain.json"],
                            digests["serving"]["plain.json"])
        self.assertEqual(self.run_script().returncode, 0)

    def test_changed_report_fails(self):
        self.run_script("--update")
        self.set_salt("b")
        result = self.run_script()
        self.assertEqual(result.returncode, 1)
        self.assertIn("report changed", result.stderr)

    def test_failing_run_fails(self):
        self.run_script("--update")
        self.spec("plain", {"scenario": {"epochs": 2}, "description": "fail"})
        result = self.run_script()
        self.assertEqual(result.returncode, 1)
        self.assertIn("exited 3", result.stderr)

    def test_spec_without_digest_fails(self):
        self.run_script("--update")
        self.spec("extra", {"scenario": {}})
        result = self.run_script()
        self.assertEqual(result.returncode, 1)
        self.assertIn("extra.json has no committed digest", result.stderr)

    def test_digest_without_spec_fails(self):
        self.run_script("--update")
        os.remove(os.path.join(self.scenarios, "plain.json"))
        result = self.run_script()
        self.assertEqual(result.returncode, 1)
        self.assertIn("plain.json has a digest but no spec", result.stderr)


if __name__ == "__main__":
    unittest.main()
