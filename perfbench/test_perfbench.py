#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Run from the repository root. Builds perfgen and sentineld the way
run.py does, then checks that the generated stream is a function of the
seed, that the printed metric names are BENCHMARK.json's, that a tiny
run passes the correctness gate, and that daemons and work
directories are cleaned up on every exit path.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = ("ingest", "durable", "fanin_detect")
# BENCHMARK.json gates these; durable stays runnable by hand (README).
GATED = ("ingest", "fanin_detect")
SMOKE = ["--seconds", "1"]


def benchmark_json():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # A zombie is dead for our purposes.
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rsplit(")", 1)[1].split()[0] != "Z"


def daemon_pids(workdir):
    """pids from the endpoints files the daemons wrote."""
    pids = []
    for name in os.listdir(workdir):
        if name.endswith(".endpoints"):
            with open(os.path.join(workdir, name)) as f:
                for line in f:
                    if line.startswith("pid="):
                        pids.append(int(line[4:]))
    return pids


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.root = run.build_root()
        os.makedirs(cls.root, exist_ok=True)
        build_dir = run.build(cls.root)
        if build_dir is None:
            raise RuntimeError("build failed")
        cls.perfgen, cls.sentineld = run.binaries(build_dir)

    def setUp(self):
        self.workdir = tempfile.mkdtemp(prefix="test-", dir=self.root)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def perfgen_cmd(self, workload, seed, trace, extra=SMOKE):
        return [self.perfgen, "--workload", workload, "--seed", str(seed),
                "--trace", str(trace), "--sentineld", self.sentineld,
                "--workdir", self.workdir] + list(extra)

    def stream_hash(self, workload, seed):
        out = subprocess.run(
            [self.perfgen, "--workload", workload, "--seed", str(seed),
             "--seconds", "15", "--hash"],
            check=True, capture_output=True, text=True).stdout
        return out.split()[0]

    def smoke(self, workload, trace):
        proc = subprocess.run(self.perfgen_cmd(workload, 3, trace),
                              capture_output=True, text=True, timeout=170)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return proc.returncode, result, proc.stderr

    def test_same_seed_same_stream(self):
        for workload in WORKLOADS:
            self.assertEqual(self.stream_hash(workload, 7),
                             self.stream_hash(workload, 7))
            self.assertNotEqual(self.stream_hash(workload, 7),
                                self.stream_hash(workload, 8))

    def test_metric_names_match_benchmark_json(self):
        spec = benchmark_json()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(GATED))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = sorted(m["name"] for m in spec[key])
            units = {m["name"]: m["unit"] for m in spec[key]}
            for workload in WORKLOADS:
                rc, result, err = self.smoke(workload, trace)
                self.assertEqual(rc, 0, err)
                self.assertEqual(sorted(result["metrics"]), want)
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], units[name], name)

    def test_smoke_run_passes_gate(self):
        for workload in WORKLOADS:
            rc, result, err = self.smoke(workload, 0)
            self.assertEqual(rc, 0, err)
            self.assertTrue(result["correct"], err)
            self.assertEqual(result["failed"], 0, err)
            self.assertGreater(result["attempted"], 0)
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)

    def wait_for_daemons(self, workdir, count, timeout=30):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if os.path.isdir(workdir) and len(daemon_pids(workdir)) >= count:
                return daemon_pids(workdir)
            time.sleep(0.01)
        self.fail("daemons did not start")

    def test_daemons_die_with_perfgen(self):
        for signo in (signal.SIGTERM, signal.SIGKILL):
            proc = subprocess.Popen(
                self.perfgen_cmd("fanin_detect", 1, 0, ["--seconds", "30"]),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            pids = self.wait_for_daemons(self.workdir, 3)
            proc.send_signal(signo)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and any(map(pid_alive, pids)):
                time.sleep(0.01)
            self.assertFalse(any(map(pid_alive, pids)), signo)
            for name in os.listdir(self.workdir):
                os.unlink(os.path.join(self.workdir, name))

    def test_run_py_cleans_up_on_sigterm(self):
        before = set(os.listdir(self.root))
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "ingest", "--seed", "1", "--seconds", "30", "--trace", "0"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 60
        workdir = None
        while workdir is None and time.monotonic() < deadline:
            fresh = [d for d in set(os.listdir(self.root)) - before
                     if d.startswith("run-")]
            workdir = os.path.join(self.root, fresh[0]) if fresh else None
            time.sleep(0.01)
        self.assertIsNotNone(workdir)
        pids = self.wait_for_daemons(workdir, 2)
        proc.send_signal(signal.SIGTERM)
        self.assertNotEqual(proc.wait(timeout=30), 0)
        self.assertFalse(os.path.exists(workdir))
        self.assertFalse(any(map(pid_alive, pids)))

    def test_fails_without_sources(self):
        bare = tempfile.mkdtemp(prefix="bare-", dir=self.root)
        try:
            shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ingest",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True,
                timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
