"""Smoke test of the benchmark at tiny sizes.

    python3 bench/smoke.py

Every workload, untraced and traced, must emit every metric BENCHMARK.json
names, pass its own output checks, and send the same traffic (the same
fingerprint) when run twice with the same seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace), "--tiny",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    fingerprint = next(json.loads(l.split(" fingerprint ", 1)[1]) for l in lines if " fingerprint " in l)
    return json.loads(lines[-1]), fingerprint


class SmokeTest(unittest.TestCase):
    def check_result(self, result: dict, metrics: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_every_workload(self) -> None:
        for entry in BENCH["workloads"]:
            name = entry["name"]
            with self.subTest(workload=name):
                first, fingerprint = run(name, 7, 0)
                self.check_result(first, BENCH["end_to_end"])
                for metric in BENCH["end_to_end"]:
                    self.assertGreater(first["metrics"][metric["name"]]["value"], 0, metric["name"])
                again, same = run(name, 7, 0)
                self.check_result(again, BENCH["end_to_end"])
                self.assertEqual(same, fingerprint)
                traced, traced_fingerprint = run(name, 7, 1)
                self.check_result(traced, BENCH["per_layer"])
                self.assertEqual(traced_fingerprint, fingerprint)


if __name__ == "__main__":
    unittest.main()
