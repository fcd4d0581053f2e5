#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload wire_commit --seed 1 --seconds 10 --trace 0

The library (../src) and pivot_perfbench (perfbench/main.cc) are compiled
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
run data goes under .../run. The last stdout line of pivot_perfbench is the
result JSON. Exits non-zero, without a result, when the build fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_tag():
    """Content hash of the library and benchmark sources.

    Keys the exact-count store, so counts are only compared between runs
    of the same code.
    """
    digest = hashlib.sha1()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", "CMakeLists.txt")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n" not in f.read():
                shutil.rmtree(build_dir)  # configured for another checkout
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "pivot_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["wire_commit", "search_anneal",
                                 "cold_reactivate"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "pivot")):
        print("perfbench: library sources (src/pivot) not found",
              file=sys.stderr)
        return 1
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    build_root = os.path.abspath(build_root)
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    # Relative, so that the unix socket path under it stays within the
    # 108-byte sun_path limit however deep the checkout is.
    run_dir = os.path.relpath(os.path.join(build_root, "run"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir,
           "--exact-tag", source_tag()]
    if args.tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
