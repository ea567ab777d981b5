#!/usr/bin/env python3
"""Builds the qlosured benchmark from this checkout's sources and runs it once.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is reused while the sources are unchanged. Build output goes to stderr;
stdout carries the benchmark's stamp line and, last, its result line.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def source_digest():
    """Hash of everything the benchmark builds, keying the determinism guard."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode() + b"\0")
            digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def commit_id():
    """The git commit when there is one, and always the source digest."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        prefix = head.stdout.strip() if head.returncode == 0 else "nogit"
    except (OSError, subprocess.SubprocessError):
        prefix = "nogit"
    return f"{prefix}.src-{source_digest()}"


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(out), "-j", jobs]]
    if not (out / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="shrink every input (the benchmark's self-test)")
    args = parser.parse_args()

    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        print("error: perfbench must run from a qlosure checkout", file=sys.stderr)
        return 2
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    if not build(out):
        print("error: build failed", file=sys.stderr)
        return 1

    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit_id(),
           "--state-dir", str(out / "determinism")]
    if args.small:
        cmd.append("--small")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
