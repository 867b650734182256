"""compare.py verdicts on synthetic run sets (a ctest of the benchmark)."""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.dont_write_bytecode = True  # no __pycache__ beside compare.py
import compare  # noqa: E402


def results_file(directory, name, runs):
    """Writes a run.py-style results file; runs is a list of
    {workload: {metric: value}}."""
    path = Path(directory) / name
    path.write_text(json.dumps({"runs": [
        {"workloads": {w: {"metrics": {m: {"value": v, "unit": "ms", "n": 0}
                                       for m, v in metrics.items()}}
                       for w, metrics in run.items()}}
        for run in runs]}))
    return path


class Verdicts(unittest.TestCase):
    def test_identical_deterministic_values_are_unchanged(self):
        self.assertEqual(compare.verdict([1.0] * 5, [1.0] * 5, "higher", 0.01),
                         "unchanged")
        self.assertEqual(compare.verdict([7.0] * 3, [7.0] * 3, "lower", None),
                         "unchanged")

    def test_small_moves_are_unchanged(self):
        a = [10.0, 10.1, 10.2, 10.1, 10.0]
        b = [10.3, 10.4, 10.3, 10.5, 10.4]
        self.assertEqual(compare.verdict(a, b, "lower", 0.1), "unchanged")

    def test_direction_decides_better_or_worse(self):
        a = [10.0, 10.1, 10.2, 10.1, 10.0]
        b = [13.0, 13.1, 13.2, 13.1, 13.0]
        self.assertEqual(compare.verdict(a, b, "lower", 0.1), "worse")
        self.assertEqual(compare.verdict(a, b, "higher", 0.1), "better")
        self.assertEqual(compare.verdict(b, a, "lower", 0.1), "better")

    def test_wide_spread_is_unresolved(self):
        a = [5.0, 10.0, 15.0, 20.0, 8.0]
        b = [6.0, 11.0, 16.0, 21.0, 9.0]
        self.assertEqual(compare.verdict(a, b, "lower", 0.1), "unresolved")

    def test_wide_spread_but_every_run_better(self):
        a = [20.0, 30.0, 40.0, 25.0, 35.0]
        b = [1.0, 5.0, 10.0, 3.0, 8.0]
        self.assertEqual(compare.verdict(a, b, "lower", 0.1), "better")

    def test_per_layer_metrics_have_no_bound(self):
        self.assertEqual(compare.verdict([1.0, 2.0], [3.0, 4.0], "lower", None),
                         "-")


class CommandLine(unittest.TestCase):
    def run_compare(self, a_runs, b_runs):
        with tempfile.TemporaryDirectory() as d:
            a = results_file(d, "a.json", a_runs)
            b = results_file(d, "b.json", b_runs)
            return subprocess.run(
                [sys.executable, str(HERE.parent / "compare.py"), str(a),
                 str(b)], capture_output=True, text=True)

    def test_exit_code_flags_worse(self):
        base = [{"bt_crc_500": {"census_ms_p50": 3.0 + 0.01 * k}}
                for k in range(5)]
        slow = [{"bt_crc_500": {"census_ms_p50": 4.0 + 0.01 * k}}
                for k in range(5)]
        same = self.run_compare(base, base)
        self.assertEqual(same.returncode, 0, same.stdout)
        self.assertIn("unchanged", same.stdout)
        worse = self.run_compare(base, slow)
        self.assertEqual(worse.returncode, 1, worse.stdout)
        self.assertIn("worse", worse.stdout)


if __name__ == "__main__":
    unittest.main()
