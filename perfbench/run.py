#!/usr/bin/env python3
"""Tag-to-subscriber benchmark entry point.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
repository's src/ libraries) and runs one workload:

    python3 perfbench/run.py --workload ward_scale --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test      # the benchmark's own unit tests

Run it from the repository root. Build output goes to stderr; the last
line of stdout is the JSON result. The build tree is
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Hash of every source the benchmark is built from: keys the event-log
    hash ledger, so a changed program starts a fresh ledger."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:12]


def build(build_dir, target):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("configure failed")
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs,
                        "--target", target], stdout=sys.stderr) != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"system sources not found under {ROOT}/src")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    os.makedirs(build_dir, exist_ok=True)

    if args.self_test:
        build(build_dir, "perfbench_tests")
        sys.exit(subprocess.call([os.path.join(build_dir, "perfbench_tests")]))
    if not args.workload:
        fail("--workload is required")

    build(build_dir, "tb_bench")
    work_dir = os.path.join(build_dir, "work-" + source_digest())
    command = [os.path.join(build_dir, "tb_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir]
    process = subprocess.Popen(command)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
