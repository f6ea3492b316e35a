"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Runs every workload untraced and traced on tiny corpora, and checks:

- the result line has exactly the contract's keys, and its metric names
  and units are those of ``BENCHMARK.json``, in order;
- the traced ``synth-cold`` and ``edit-loop`` runs cover at least 90% of
  their timed wall time with layer spans;
- the ``server-mix`` server process is reaped, also when a check fails
  or the run raises;
- the benchmark refuses to run, without printing a result, in a directory
  that holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=str(cwd), capture_output=True, text=True, timeout=300,
    )
    return proc


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class ResultLines(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            for trace in (0, 1):
                proc = run_bench(workload, trace)
                if proc.returncode != 0:
                    raise AssertionError(f"{workload} trace={trace}:\n{proc.stderr}")
                cls.results[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])

    def test_keys_names_and_units(self):
        for (workload, trace), result in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], result)
                self.assertGreaterEqual(result["attempted"], 1)
                section = SPEC["per_layer" if trace else "end_to_end"]
                self.assertEqual(
                    [(name, m["unit"]) for name, m in result["metrics"].items()],
                    [(entry["name"], entry["unit"]) for entry in section],
                )

    def test_end_to_end_metrics_are_nonzero(self):
        for workload in WORKLOADS:
            for name, metric in self.results[workload, 0]["metrics"].items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(metric["value"], 0)

    def test_spans_cover_the_synthesis_workloads(self):
        for workload in ("synth-cold", "edit-loop"):
            coverage = self.results[workload, 1]["metrics"]["trace.coverage"]["value"]
            with self.subTest(workload=workload):
                self.assertGreaterEqual(coverage, 0.90)

    def test_edit_loop_hit_path_is_split(self):
        metrics = self.results["edit-loop", 1]["metrics"]
        for name in ("uml.xmi.parse_ms", "parallel.fingerprint.key_ms",
                     "parallel.cache.get_ms", "simulink.mdl.emit_ms"):
            with self.subTest(metric=name):
                self.assertGreater(metrics[name]["value"], 0)


class ServerReaped(unittest.TestCase):
    def setUp(self):
        for path in (str(ROOT / "src"), str(HERE)):
            if path not in sys.path:
                sys.path.insert(0, path)
        import servermix

        self.servermix = servermix
        self.pids = []
        original = servermix.ServerProcess.start

        def start(server):
            result = original(server)
            self.pids.append(server.proc.pid)
            return result

        self.original_start = original
        servermix.ServerProcess.start = start

    def tearDown(self):
        self.servermix.ServerProcess.start = self.original_start

    def test_reaped_when_a_check_fails(self):
        servermix = self.servermix
        original = servermix.expected_artifacts
        servermix.expected_artifacts = lambda specs, keys: {key: "0" * 64 for key in keys}
        try:
            outcome = servermix.run(3, 1.0, 0, smoke=True)
        finally:
            servermix.expected_artifacts = original
        self.assertGreater(outcome.failed, 0)
        self.assertTrue(self.pids)
        self.assertFalse(any(alive(pid) for pid in self.pids))

    def test_reaped_when_the_run_raises(self):
        servermix = self.servermix
        original = servermix.Phases

        def broken(*args, **kwargs):
            raise RuntimeError("injected failure")

        servermix.Phases = broken
        try:
            with self.assertRaises(RuntimeError):
                servermix.run(3, 1.0, 0, smoke=True)
        finally:
            servermix.Phases = original
        self.assertTrue(self.pids)
        self.assertFalse(any(alive(pid) for pid in self.pids))


class BareDirectory(unittest.TestCase):
    def test_refuses_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
