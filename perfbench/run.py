#!/usr/bin/env python3
"""Served-leakage benchmark: builds the server and the load generator from
this source tree, then runs one workload and relays the driver's report.

    python3 perfbench/run.py --workload audit-hot --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is the result JSON object. Build output
and errors go to standard error. See perfbench/README.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_build" / "runs"
TARGETS = ["infoleak", "perfbench_driver", "perfbench_selftest"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def die_with_parent():
    """Runs in the child before exec: SIGKILL it when this process dies."""
    ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no infoleak source tree at %s (run from a full checkout)" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target"]
                 + TARGETS)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def provenance():
    """Commit (when this is a git checkout) and a digest of the sources."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    files += sorted(p for p in HERE.iterdir() if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def clear_stale_runs():
    """Removes run directories whose driver no longer exists."""
    if not RUNS.is_dir():
        return
    for entry in RUNS.iterdir():
        match = re.match(r"run-(\d+)-", entry.name)
        if match and not Path("/proc", match.group(1)).exists():
            shutil.rmtree(entry, ignore_errors=True)


def run_driver(args):
    commit, digest = provenance()
    RUNS.mkdir(parents=True, exist_ok=True)
    clear_stale_runs()
    cmd = [str(BUILD / "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--infoleak", str(BUILD / "infoleak" / "src" / "cli" / "infoleak"),
           "--workdir", str(RUNS), "--commit", commit,
           "--source-digest", digest]
    child = subprocess.Popen(cmd, preexec_fn=die_with_parent)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def self_test():
    """The C++ self-test, then the driver's names against BENCHMARK.json."""
    status = subprocess.run([str(BUILD / "perfbench_selftest")]).returncode
    listed = json.loads(subprocess.run(
        [str(BUILD / "perfbench_driver"), "--list"], capture_output=True,
        text=True, check=True).stdout)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    expect([w["name"] for w in spec["workloads"]] == listed["workloads"],
           "BENCHMARK.json workloads differ from the driver's")
    for key in ("end_to_end", "per_layer"):
        expect([m["name"] for m in spec[key]] == listed[key],
               "BENCHMARK.json %s metrics differ from the driver's" % key)
    names = [w["name"] for w in spec["workloads"]]
    for key in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[key]]
        for m in spec[key]:
            expect(UNIT.match(m["unit"]), "bad unit " + m["unit"])
    for name in names:
        expect(NAME.match(name), "bad name " + name)
    expect(len(names) == len(set(names)), "a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s must be in s, lower-better, with the largest bound")
    for problem in problems:
        print("FAIL " + problem)
    print("names: " + ("ok" if not problems else "FAILED"))
    return 1 if status or problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    build()
    sys.exit(self_test() if args.self_test else run_driver(args))


if __name__ == "__main__":
    main()
