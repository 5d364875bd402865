#!/usr/bin/env python3
"""Build the treesketch server and the benchmark from source, then run one
benchmark workload against the real server.

Run from the root of a checkout:

    python3 perfbench/run.py --workload read-xmark --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones.  The exit code is 0 only when every check passed.

All files are written under the checkout: dune's _build directory and
.perfbench/<workload>/ (documents, catalogs, server logs, trace spans).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

WORKLOADS = ("read-xmark", "live-imdb")
# A run must end within 180 s; leave room for draining the servers.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root):
    """Build both executables with dune; returns their absolute paths."""
    for need in ("dune-project", os.path.join("bin", "treesketch.ml"), os.path.join("lib", "serve")):
        if not os.path.exists(os.path.join(root, need)):
            fail("no treesketch sources here (missing %s); run from the root of a checkout" % need)
    if shutil.which("dune") is None:
        fail("dune is not installed")
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["./bin/treesketch.exe", "./perfbench/perfbench.exe"]
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet"] + targets,
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed (dune exit %d)" % proc.returncode)
    return [os.path.join(root, "_build", "default", t[2:]) for t in targets]


def run_bench(bench, exe, work, workload, seed, seconds, trace, inject=None, quiet=False):
    """Run one workload; returns (exit code, last stdout line)."""
    cmd = [bench, "--exe", exe, "--work", work, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    expired = threading.Event()

    def stop():
        # the benchmark drains its servers on SIGTERM
        expired.set()
        proc.send_signal(signal.SIGTERM)

    watchdog = threading.Timer(RUN_TIMEOUT_S, stop)
    watchdog.start()
    last = ""
    try:
        for line in proc.stdout:
            if not quiet:
                sys.stdout.write(line)
                sys.stdout.flush()
            if line.strip():
                last = line.strip()
        code = proc.wait()
    except KeyboardInterrupt:
        stop()
        code = proc.wait()
    finally:
        watchdog.cancel()
    if expired.is_set():
        print("perfbench: run exceeded %d s, stopped" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124, ""
    return code, last


def self_test(bench, exe, root):
    """A wrong est= and a dropped response must each count as a failure
    and make the run exit non-zero."""
    work = os.path.join(root, ".perfbench", "self-test")
    ok = True
    for fault in ("wrong-est", "drop"):
        code, last = run_bench(bench, exe, work, "read-xmark", 1, 1, 0, inject=fault, quiet=True)
        try:
            result = json.loads(last)
        except ValueError:
            result = {}
        caught = code != 0 and result.get("failed", 0) >= 1 and result.get("correct") is False
        print("self-test %s: exit=%d failed=%s -> %s"
              % (fault, code, result.get("failed"), "caught" if caught else "MISSED"))
        ok = ok and caught
    shutil.rmtree(work, ignore_errors=True)
    print("self-test %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    root = os.getcwd()
    exe, bench = build(root)
    if args.self_test:
        sys.exit(self_test(bench, exe, root))
    work = os.path.join(root, ".perfbench", args.workload)
    code, _ = run_bench(bench, exe, work, args.workload, args.seed, args.seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
