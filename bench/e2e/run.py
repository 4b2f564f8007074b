#!/usr/bin/env python3
"""Build bench_e2e from this checkout's sources, then run it.

Run from the repository root; every argument goes to bench_e2e:

    python3 bench/e2e/run.py --workload cifar_lcs_serial --seed 1 --seconds 10 --trace 0
    python3 bench/e2e/run.py            # every workload, 20 s of searches each, traced pass

The build lives in $CARGO_TARGET_DIR/e2e (default .bench_build/e2e).  Build
output goes to stderr, so bench_e2e's result line stays the last line of
stdout.  A failed build exits with status 1 and prints no result.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def git_describe():
    """`git describe` of the checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             env=env, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def build():
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "e2e"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target", "bench_e2e", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode != 0:
            return None
    return build_dir / "bench_e2e"


def main():
    binary = build()
    if binary is None:
        print("bench_e2e: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ)
    describe = git_describe()
    if describe is not None:
        env.setdefault("SWTNAS_GIT_DESCRIBE", describe)
    return subprocess.run([str(binary), *sys.argv[1:]], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
