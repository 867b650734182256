#!/usr/bin/env python3
"""Tests for scripts/check_invariants.py.

Each fixture under tests/lint_fixtures/ is a minimal violation of exactly
one rule, and every rule has one (plus clean.cpp, which exercises every
rule's negative space: string literals, comment-only mentions, growth
inside an ALLOC_GUARD_ALLOW scope, digit separators, a hot operator, and
justified noexcept opt-outs and NOLINTs).  The fixtures mirror the real
tree's src/ layout because the rules are path-scoped; --project-root
points the linter at the fixture root.  Registered with ctest as
`LintFixtures`; also runnable directly:

    python3 tests/test_lint.py
"""

import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINTER = REPO / "scripts" / "check_invariants.py"
FIXTURES = REPO / "tests" / "lint_fixtures"

# fixture path (relative to FIXTURES) -> rule id it must trip.
EXPECTED = {
    "src/sim/det_rand.cpp": "RFID-DET-001",
    "src/core/hot_alloc.cpp": "RFID-HOT-002",
    "src/phy/impair_hot_alloc.cpp": "RFID-HOT-002",
    "src/core/hot_alloc_separator.cpp": "RFID-HOT-002",
    "src/core/hot_alloc_after_allow.cpp": "RFID-HOT-002",
    "src/core/hot_stray_guard.cpp": "RFID-HOT-002",
    "src/sim/io_cout.cpp": "RFID-IO-003",
    "src/phy/naked_thread.cpp": "RFID-THR-004",
    "src/core/nolint_bare.cpp": "RFID-NOLINT-005",
    "src/sim/engine_batch.cpp": "RFID-HOT-006",
    "src/sim/seed_arith.cpp": "RFID-SEED-007",
    "src/core/hot_throw.cpp": "RFID-EXC-008",
    "src/core/hot_throw_template.cpp": "RFID-EXC-008",
    "src/core/hot_operator.cpp": "RFID-EXC-008",
    "src/sim/time_clock.cpp": "RFID-TIME-009",
}

# Fixtures mirroring the real tree's allowlisted paths: the patterns
# match, the path-scoped allowance must win.
ALLOWLISTED = [
    "src/common/rng.hpp",     # seed mixing IS the forStream implementation
    "src/sim/montecarlo.cpp"  # wall-clock throughput reporting
]


def run_linter(*roots: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINTER), "--project-root", str(FIXTURES),
         *roots],
        capture_output=True, text=True, check=False)


class FixtureViolations(unittest.TestCase):
    def test_each_fixture_trips_exactly_its_rule(self):
        for relpath, rule in EXPECTED.items():
            with self.subTest(fixture=relpath):
                proc = run_linter(relpath)
                self.assertEqual(proc.returncode, 1,
                                 f"{relpath} should fail\n{proc.stdout}")
                self.assertIn(rule, proc.stdout)
                for other in set(EXPECTED.values()) - {rule}:
                    self.assertNotIn(
                        other, proc.stdout,
                        f"{relpath} tripped unrelated rule {other}")

    def test_violations_carry_file_and_line(self):
        proc = run_linter("src/sim/det_rand.cpp")
        self.assertRegex(proc.stdout,
                         r"src/sim/det_rand\.cpp:\d+: RFID-DET-001")

    def test_clean_file_passes(self):
        proc = run_linter("src/core/clean.cpp")
        self.assertEqual(
            proc.returncode, 0,
            f"clean.cpp must pass\n{proc.stdout}{proc.stderr}")

    def test_allowlisted_paths_pass(self):
        for relpath in ALLOWLISTED:
            with self.subTest(fixture=relpath):
                proc = run_linter(relpath)
                self.assertEqual(
                    proc.returncode, 0,
                    f"{relpath} is allowlisted and must pass\n"
                    f"{proc.stdout}{proc.stderr}")

    def test_whole_fixture_tree_counts_all_rules(self):
        proc = run_linter("src")
        self.assertEqual(proc.returncode, 1)
        for rule in set(EXPECTED.values()):
            self.assertIn(rule, proc.stdout)

    def test_list_rules(self):
        proc = subprocess.run(
            [sys.executable, str(LINTER), "--list-rules"],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0)
        listed = set(re.findall(r"^(RFID-[A-Z]+-\d+):", proc.stdout, re.M))
        self.assertEqual(listed, set(EXPECTED.values()),
                         "every listed rule needs a fixture, and vice versa")


class SarifOutput(unittest.TestCase):
    def test_sarif_shape(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "findings.sarif"
            proc = subprocess.run(
                [sys.executable, str(LINTER), "--project-root",
                 str(FIXTURES), "--sarif", str(out), "src"],
                capture_output=True, text=True, check=False)
            self.assertEqual(proc.returncode, 1)
            doc = json.loads(out.read_text())
        self.assertEqual(doc["version"], "2.1.0")
        run = doc["runs"][0]
        declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
        self.assertLessEqual(set(EXPECTED.values()), declared)
        results = run["results"]
        self.assertTrue(results)
        reported = set()
        for res in results:
            self.assertIn(res["ruleId"], declared)
            self.assertEqual(res["level"], "error")
            self.assertTrue(res["message"]["text"])
            loc = res["locations"][0]["physicalLocation"]
            uri = loc["artifactLocation"]["uri"]
            self.assertFalse(Path(uri).is_absolute())
            self.assertGreaterEqual(loc["region"]["startLine"], 1)
            reported.add(res["ruleId"])
        self.assertEqual(reported, set(EXPECTED.values()))


class DiffMode(unittest.TestCase):
    def test_diff_reports_only_changed_lines(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            src = root / "src" / "sim"
            src.mkdir(parents=True)
            f = src / "worker.cpp"
            base = ("#include <cstdint>\n"
                    "std::uint64_t old_stream(std::uint64_t seed) {\n"
                    "  return seed + 7;  // pre-existing violation\n"
                    "}\n")
            f.write_text(base)

            def git(*argv):
                subprocess.run(
                    ["git", "-C", str(root), "-c",
                     "user.email=t@example.com", "-c", "user.name=t",
                     *argv],
                    capture_output=True, text=True, check=True)

            git("init", "-q")
            git("add", "-A")
            git("commit", "-q", "-m", "base")
            f.write_text(base + (
                "std::uint64_t new_stream(std::uint64_t seed) {\n"
                "  return seed * 3;  // new violation\n"
                "}\n"))
            proc = subprocess.run(
                [sys.executable, str(LINTER), "--project-root", str(root),
                 "--diff", "HEAD", "src"],
                capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("worker.cpp:6", proc.stdout)
        self.assertNotIn("worker.cpp:3", proc.stdout,
                         "diff mode must skip unchanged-line findings")


class RuleTableDocs(unittest.TestCase):
    def test_design_md_rule_table_is_generated(self):
        proc = subprocess.run(
            [sys.executable, str(LINTER), "--list-rules", "--markdown"],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0)
        design = (REPO / "DESIGN.md").read_text()
        begin = "<!-- rule-table:begin (scripts/check_invariants.py"
        self.assertIn(begin, design)
        table = design.split("<!-- rule-table:begin", 1)[1]
        table = table.split("-->", 1)[1]
        table = table.split("<!-- rule-table:end -->", 1)[0]
        self.assertEqual(
            table.strip(), proc.stdout.strip(),
            "DESIGN.md rule table drifted from --list-rules --markdown; "
            "regenerate it")


class RealTreeIsClean(unittest.TestCase):
    def test_repository_lints_clean(self):
        proc = subprocess.run(
            [sys.executable, str(LINTER)],
            capture_output=True, text=True, check=False)
        self.assertEqual(
            proc.returncode, 0,
            f"the real tree must lint clean\n{proc.stdout}{proc.stderr}")


if __name__ == "__main__":
    unittest.main()
