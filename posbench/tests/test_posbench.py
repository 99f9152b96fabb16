"""The benchmark's own tests, at toy scale.

Run from the repository root:

    python3 -m unittest discover -s posbench/tests -v
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
os.environ["POSBENCH_TOY"] = "1"
sys.path.insert(0, str(BENCH_DIR))
import run as bench  # noqa: E402


class ToyBenchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.pos, cls.posbench = bench.build(ROOT)
        (ROOT / ".bench_work").mkdir(exist_ok=True)

    def workdir(self):
        d = tempfile.TemporaryDirectory(dir=ROOT / ".bench_work", prefix="test-")
        self.addCleanup(d.cleanup)
        return Path(d.name)

    def run_bench(self, workload, trace):
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload]
        argv += ["--seed", "19", "--seconds", "1", "--trace", str(trace)]
        p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(p.returncode, 0, p.stderr)
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_every_metric_is_emitted_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in bench.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    out = self.run_bench(workload, trace)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    got = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in out["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_flipped_byte_in_a_measurement_log_fails_the_check(self):
        work = self.workdir()
        exp = bench.scaffold(self.pos, work)
        r = bench.run_campaign(self.pos, exp, "case_study_pos", 3, work / "rep")
        self.assertEqual(r["code"], 0)
        golden = bench.load_golden()["case_study_pos"]["3"]
        clean = bench.Checks()
        bench.check_tree(self.pos, r["tree"], golden, clean, work)
        self.assertEqual(clean.failed, 0)

        log = r["tree"] / "run-0001" / "loadgen_measurement.log"
        data = bytearray(log.read_bytes())
        data[len(data) // 2] ^= 0x01
        log.write_bytes(bytes(data))
        damaged = bench.Checks()
        bench.check_tree(self.pos, r["tree"], golden, damaged, work)
        # Both the golden digest and `pos fsck` catch it.
        self.assertEqual(damaged.failed, 2)

    def test_harness_reads_stdout_to_eof(self):
        work = self.workdir()
        lines = 200_000
        r = bench.launch([sys.executable, "-c", f"for i in range({lines}): print(i)"], work)
        self.assertEqual((r["code"], len(r["lines"])), (0, lines))

        exp = bench.scaffold(self.pos, work)
        r = bench.run_campaign(self.pos, exp, "case_study_vpos", 3, work / "rep")
        self.assertEqual(r["code"], 0)
        self.assertTrue(r["lines"][-1].startswith("next: pos eval"), r["lines"][-1])

        # Stopping `pos run` at its first line kills it outright; it never
        # sees a closed pipe.
        argv = [self.pos, "run", exp, "--results", work / "stopped", "--seed", 3]
        r = bench.launch(argv, work, stop_after_first_line=True)
        self.assertEqual(r["code"], -signal.SIGKILL)

    def test_without_the_program_it_fails_and_prints_no_result(self):
        work = self.workdir()
        shutil.copy(ROOT / "BENCHMARK.json", work)
        shutil.copytree(BENCH_DIR, work / "posbench", ignore=shutil.ignore_patterns("__pycache__", "target"))
        argv = [sys.executable, "posbench/run.py", "--workload", "case_study_pos"]
        argv += ["--seed", "1", "--seconds", "1", "--trace", "0"]
        p = subprocess.run(argv, cwd=work, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
