#!/usr/bin/env python3
"""Builds and runs the dCat benchmark (perfbench/).

    python3 perfbench/run.py --workload mix-line|ctl-resctrl|fleet-hybrid \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The first run configures and builds
perfbench/ (the repository's src/ libraries plus the harness) in Release
mode under .bench_build/; later runs rebuild incrementally. Build output
goes to stderr. The harness prints its report to stdout, ending with one
JSON line: {"correct", "attempted", "failed", "metrics"}. The exit code is
the harness's: 0 when the correctness gate passed, non-zero otherwise (or
when the build failed, in which case no result is printed).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("mix-line", "ctl-resctrl", "fleet-hybrid")
ROOT = Path(__file__).resolve().parent.parent
DEADLINE_S = 175  # every run must end within 180 s


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(out_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    binary = out_dir / "dcat_perfbench"
    return binary if binary.exists() else None


def source_id():
    """The git commit when there is one, else a digest of src/."""
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
        if sha:
            return sha
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    start = time.monotonic()
    if not (ROOT / "src").is_dir():
        print("run.py: no src/ next to perfbench/; nothing to build", file=sys.stderr)
        return 2
    binary = build(build_dir())
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 2

    workdir = build_dir().parent / ("run-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
               "--workdir=" + str(workdir), "--git-sha=" + source_id()]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    process = subprocess.Popen(command)
    try:
        return process.wait(timeout=max(10, DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        print("run.py: harness exceeded the time limit", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
