#!/usr/bin/env python3
"""End-to-end benchmark of the deployed sentineld pipeline.

    python3 perfbench/run.py --workload <ingest|durable|fanin_detect> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `sentineld` and the `perfgen`
load generator from source into $CARGO_TARGET_DIR (default
`.bench_build`), then runs one workload; the last line of stdout is the
JSON result. Build logs and the human-readable tables go to stderr. The
exit code is non-zero when the build fails or the correctness gate does.
See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(root):
    """Configures once, then builds perfgen and sentineld; returns the
    build directory or None."""
    build_dir = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfgen", "sentineld",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return build_dir


def binaries(build_dir):
    return (os.path.join(build_dir, "perfgen"),
            os.path.join(build_dir, "sentineld", "daemon", "sentineld"))


def stop_group(proc):
    """SIGKILLs whatever is left of perfgen's process group and reaps it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    # Daemons orphaned by a killed perfgen are reaped by init; wait until
    # the group is gone.
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = build_root()
    os.makedirs(root, exist_ok=True)
    build_dir = build(root)
    if build_dir is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    perfgen, sentineld = binaries(build_dir)
    workdir = tempfile.mkdtemp(prefix="run-", dir=root)

    def on_signal(signo, _frame):
        raise SystemExit(128 + signo)

    for signo in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signo, on_signal)

    cmd = [perfgen, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sentineld", sentineld, "--workdir", workdir]
    proc = None
    try:
        # Own process group: the daemons perfgen spawns join it, so one
        # killpg reaches anything left behind.
        proc = subprocess.Popen(cmd, process_group=0)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: run timed out", file=sys.stderr)
            return 1
    finally:
        if proc is not None:
            stop_group(proc)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
