#!/usr/bin/env python3
"""Self-tests of the benchmark: percentile picker, correctness gate, seeded
request streams, and a second-seed run of every workload through the gate.

    python3 perfbench/test_run.py        # builds the binary if needed

The last test runs each workload once (about two minutes on 4 cores).
"""

import importlib.util
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def grid_records(threads=4, digests=None):
    """A two-cell grid: one 1-thread pass and one N-thread pass."""
    digests = digests or {}
    records = [{"kind": "meta", "threads": threads}]
    for pass_no, t in ((1, threads), (0, 1)):
        for model, platform in (("gmm", "reldb"), ("lasso", "dataflow")):
            label = model + "/" + platform
            records.append({
                "kind": "cell", "pass": pass_no, "threads": t, "traced": 0,
                "model": model, "platform": platform, "wall_s": 1.0,
                "status": "OK",
                "digest": digests.get((label, t), "d-" + label)})
    return records


class PercentilePickerTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(run.pick_percentile(240), 95.0)
        self.assertEqual(run.pick_percentile(199), 90.0)
        self.assertEqual(run.pick_percentile(1000), 99.0)
        self.assertEqual(run.pick_percentile(10000), 99.9)
        self.assertEqual(run.pick_percentile(24), 50.0)
        self.assertIsNone(run.pick_percentile(12))

    def test_interpolated_percentile(self):
        self.assertEqual(run.percentile([3, 1, 2], 50), 2)
        self.assertAlmostEqual(run.percentile(list(range(101)), 95), 95.0)


class GateTest(unittest.TestCase):
    def test_matching_digests_pass(self):
        attempted, failures = run.gate(grid_records(), "dense_grid", 7, {})
        self.assertEqual(attempted, 4)
        self.assertEqual(failures, [])

    def test_corrupted_reference_raises_fail_frac(self):
        records = grid_records(digests={("gmm/reldb", 1): "corrupt"})
        attempted, failures = run.gate(records, "dense_grid", 7, {})
        self.assertEqual(len(failures), 1)
        self.assertGreater(len(failures) / attempted, 0)
        self.assertEqual(failures[0]["cell"], "gmm/reldb")
        self.assertFalse(failures[0]["known"])

    def test_pinned_digest_mismatch_fails_at_default_seed(self):
        pins = {"seed": 2014,
                "dense_grid": {"gmm/reldb": "other",
                               "lasso/dataflow": "d-lasso/dataflow"}}
        _, failures = run.gate(grid_records(), "dense_grid", 2014, pins)
        self.assertEqual([f["cell"] for f in failures], ["gmm/reldb"])
        _, failures = run.gate(grid_records(), "dense_grid", 2015, pins)
        self.assertEqual(failures, [])

    def test_known_defect_is_counted_and_labelled(self):
        records = grid_records(digests={("lasso/dataflow", 4): "racy"})
        attempted, failures = run.gate(records, "dense_grid", 7, {})
        self.assertEqual(len(failures), 1)
        self.assertTrue(failures[0]["known"])

    def test_server_errors_and_reconnects_fail(self):
        records = [
            {"kind": "ref", "index": 0, "cell": "gmm/gas", "digest": "a",
             "status": "OK"},
            {"kind": "ref", "index": 1, "cell": "hmm/bsp", "digest": "b",
             "status": "OK"},
            {"kind": "request", "pass": 1, "threads": 4, "traced": 0,
             "index": 0, "cell": "gmm/gas", "digest": "a", "status": "OK",
             "error": 0, "latency_ms": 1.0},
            {"kind": "request", "pass": 1, "threads": 4, "traced": 0,
             "index": 1, "cell": "hmm/bsp", "status": "ResourceExhausted",
             "error": 1, "latency_ms": 1.0},
            {"kind": "clients", "pass": 1, "reconnects": 1, "sheds": 0,
             "deadlines": 0},
        ]
        attempted, failures = run.gate(records, "server_mix", 7, {})
        self.assertEqual(attempted, 2)
        self.assertEqual(sorted(f["cell"] for f in failures),
                         ["client", "hmm/bsp"])
        self.assertFalse(any(f["known"] for f in failures))


def print_requests(workload, seed):
    out = subprocess.run([str(run.BINARY), "--print-requests", "--workload",
                          workload, "--seed", str(seed)],
                         capture_output=True, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines()]


class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def test_requests_are_a_pure_function_of_the_seed(self):
        for workload in run.WORKLOADS:
            first = print_requests(workload, 11)
            self.assertEqual(first, print_requests(workload, 11))
            self.assertNotEqual(first, print_requests(workload, 12))

    def test_mix_runs_the_same_work_for_every_seed(self):
        def shapes(seed):
            return sorted((r["cell"], r.get("machines", 0), r.get("rows", 0),
                           r.get("sql", "")) for r in
                          print_requests("server_mix", seed))
        self.assertEqual(shapes(11), shapes(12))
        self.assertNotEqual(print_requests("server_mix", 11),
                            print_requests("server_mix", 12))
        self.assertGreaterEqual(len(shapes(11)), 200)

    def test_second_seed_passes_the_gate(self):
        for workload in run.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "0", "--trace", "0"],
                capture_output=True, text=True, timeout=300)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            self.assertTrue(result["correct"], proc.stdout)
            unexpected = [line for line in lines if "UNEXPECTED" in line]
            self.assertEqual(unexpected, [])
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in BENCHMARK["end_to_end"]})


BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

if __name__ == "__main__":
    unittest.main()
