#!/usr/bin/env python3
"""End-to-end benchmark of kgfd: builds the program, runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload discover-dense --seed 1 \
        --seconds 20 --trace 0

Builds `kgfd_perfbench` and `kgfd_server` from source with
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR (default `.bench_build`),
runs the workload in a scratch directory under `.bench_work/`, and
forwards the program's output; its last line is the result JSON. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("discover-dense", "discover-faithful-sparse", "serve-mixed")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the two binaries; logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generated = [os.path.join(build_dir, f) for f in ("build.ninja",
                                                       "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    return subprocess.call(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "kgfd_perfbench", "kgfd_server"], stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the self-check")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(ROOT, ".bench_work",
                            "%s-%d-%d" % (args.workload, args.seed,
                                          os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [os.path.join(build_dir, "kgfd_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work_dir", work_dir,
           "--server", os.path.join(build_dir, "kgfd_server")]
    # Own process group, so a timeout or a signal to this script also
    # stops the server the program started.
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def stop_child(*_):
        """Kills whatever is left of the group and waits until it is gone."""
        deadline = time.monotonic() + 10
        try:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            while time.monotonic() < deadline:
                os.killpg(child.pid, 0)
                time.sleep(0.05)
        except ProcessLookupError:
            pass
        child.wait()

    signal.signal(signal.SIGTERM, lambda *a: (stop_child(), sys.exit(1)))
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        stop_child()
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
