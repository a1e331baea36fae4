#!/usr/bin/env python3
"""Runs scripts/bench_compare.py on synthetic baseline and current dirs.

A file whose hardware_concurrency matches between baseline and current run
gates for real: a 50% slowdown in it fails the run. A file whose widths differ
is report-only: the same slowdown in it only warns, and it does not mask a
failure in a matched file next to it.

Usage: bench_compare_test.py <path to scripts/bench_compare.py>
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"


def write_bench(path: pathlib.Path, width: str, real_time: float) -> None:
    runs = [{"name": "BM_Row", "run_type": "iteration", "real_time": real_time,
             "time_unit": "ns"} for _ in range(5)]
    doc = {"context": {"hardware_concurrency": width}, "benchmarks": runs}
    path.write_text(json.dumps(doc))


class BenchCompareGate(unittest.TestCase):
    def compare(self, files):
        """files: {name: (baseline width, current width, slowdown ratio)}.
        Returns (exit code, {artifact: status of BM_Row})."""
        with tempfile.TemporaryDirectory() as tmp:
            baseline = pathlib.Path(tmp, "baseline")
            current = pathlib.Path(tmp, "current")
            baseline.mkdir()
            current.mkdir()
            for name, (base_width, cur_width, slowdown) in files.items():
                write_bench(baseline / name, base_width, 1000.0)
                write_bench(current / name, cur_width, 1000.0 * (1.0 + slowdown))
            result = subprocess.run(
                [sys.executable, str(SCRIPT), "--baseline", str(baseline),
                 "--current", str(current)], capture_output=True, text=True)
        statuses = {}
        for line in result.stdout.splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if len(cells) == 6 and cells[2] == "BM_Row":
                statuses[cells[1]] = cells[0]
        return result.returncode, statuses

    def test_matched_file_fails_on_a_50_percent_slowdown(self):
        code, statuses = self.compare({"BENCH_a.json": ("4", "4", 0.5)})
        self.assertEqual(code, 1)
        self.assertEqual(statuses, {"BENCH_a.json": "FAIL"})

    def test_mismatched_file_only_warns_on_a_50_percent_slowdown(self):
        code, statuses = self.compare({"BENCH_a.json": ("1", "4", 0.5)})
        self.assertEqual(code, 0)
        self.assertEqual(statuses, {"BENCH_a.json": "warn"})

    def test_a_mismatched_file_does_not_mask_a_matched_failure(self):
        code, statuses = self.compare({"BENCH_a.json": ("4", "4", 0.5),
                                       "BENCH_b.json": ("1", "4", 0.5)})
        self.assertEqual(code, 1)
        self.assertEqual(statuses, {"BENCH_a.json": "FAIL", "BENCH_b.json": "warn"})

    def test_small_slowdowns_stay_below_the_thresholds(self):
        code, statuses = self.compare({"BENCH_a.json": ("4", "4", 0.10),
                                       "BENCH_b.json": ("4", "4", 0.20)})
        self.assertEqual(code, 0)
        self.assertEqual(statuses, {"BENCH_a.json": "ok", "BENCH_b.json": "warn"})


if __name__ == "__main__":
    if len(sys.argv) > 1:
        SCRIPT = pathlib.Path(sys.argv.pop(1))
    unittest.main()
