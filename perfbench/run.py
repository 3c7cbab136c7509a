#!/usr/bin/env python3
"""Builds and runs the served BEAS benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload point_rw --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py                     # every workload, summary table

The first run configures and builds perfbench/ (the repository's libraries
plus the beas_perfbench program) in Release mode under $CARGO_TARGET_DIR
(default .bench_build) of the checkout; later runs only rebuild what
changed. A single-workload run forwards the program's output, whose last
line is the result object; the exit code is the program's (non-zero on any
answer mismatch or budget overrun). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["paper_mix", "bulk_scan", "point_rw"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configures (once) and builds beas_perfbench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"the BEAS sources (CMakeLists.txt, src/) are missing from {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "beas_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    exe = bdir / "beas_perfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def source_digest():
    """sha256 over the sources the program is built from."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "cmake", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_workload(exe, bdir, args, workload, digest, commit):
    """Runs one workload; returns (exit code, stdout text)."""
    data_dir = bdir / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", str(data_dir), "--commit", commit,
           "--source-digest", digest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", code=3)
    return done.returncode, done.stdout


def run_all(exe, bdir, args, digest, commit):
    """Runs every workload and prints one table of their metrics."""
    results, worst = {}, 0
    for workload in WORKLOADS:
        code, out = run_workload(exe, bdir, args, workload, digest, commit)
        worst = worst or code
        lines = out.strip().splitlines()
        try:
            results[workload] = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            results[workload] = None
        if results[workload] is None:
            worst = worst or 1
        for line in lines[:-1]:
            print(f"{workload} {line}")
    names = []
    for res in results.values():
        for name in (res or {}).get("metrics", {}):
            if name not in names:
                names.append(name)
    print(f"{'metric':32s} {'unit':14s} " + " ".join(f"{w:>14s}" for w in WORKLOADS))
    for name in names:
        unit, cells = "", []
        for w in WORKLOADS:
            m = ((results[w] or {}).get("metrics") or {}).get(name)
            unit = unit or (m or {}).get("unit", "")
            cells.append(f"{m['value']:14.6g}" if m else f"{'-':>14s}")
        print(f"{name:32s} {unit:14s} " + " ".join(cells))
    for w in WORKLOADS:
        res = results[w] or {}
        print(f"{w}: correct={res.get('correct')} attempted={res.get('attempted')} "
              f"failed={res.get('failed')}")
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all"] + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    bdir = build_dir()
    exe = build(bdir)
    digest, commit = source_digest(), git_commit()
    if args.workload == "all":
        sys.exit(run_all(exe, bdir, args, digest, commit))
    code, out = run_workload(exe, bdir, args, args.workload, digest, commit)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
