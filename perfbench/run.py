#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper-sim|certify-suite|serve-mix \
        --seed <n> --seconds <s> --trace 0|1 [--smoke]

Run from the root of a checkout. The first call configures and builds
the cudanp library, cudanp-cc and the perfbench program from the
checkout's sources into $CARGO_TARGET_DIR (default .bench_build); later
calls rebuild incrementally. Build output goes to stderr. The program's
stdout passes through unchanged: human-readable lines, then one JSON
result as the last line. Exits with the program's status, or non-zero
without a result when the build fails.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def source_id():
    """The commit when the checkout is a git repository, else a digest
    of the sources the benchmark builds from."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return "git-" + out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
         "cudanp-cc"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    base = build_dir()
    out = os.path.join(base, "perfbench")
    if not build(out):
        return 1
    binary = os.path.join(out, "perfbench")
    cmd = [binary, *sys.argv[1:], "--source-id", source_id()]
    if "--work-dir" not in sys.argv:
        cmd += ["--work-dir", os.path.relpath(os.path.join(base, "work"))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
