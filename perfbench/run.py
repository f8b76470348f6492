#!/usr/bin/env python3
"""Build and run the eel-serve / eel-core benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the shipped `eelserved`
daemon and the `perfbench` load generator with cargo (offline, release,
into $CARGO_TARGET_DIR, default `.bench_build`), then runs one workload.
The last line of standard output is the result object; build output goes
to standard error. Per-run reports land in `.bench_build/perfbench-results/`.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cold-mix", "warm-hits", "near-dup-edit")
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo(root, target_dir, *args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "-q", *args]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def stamp_git(root):
    """The commit of a git checkout, without looking above `root`."""
    if shutil.which("git") is None:
        return "unknown (git not installed)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def stamp_sources(root):
    """A digest of the sources the benchmark builds, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "third_party", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if "/target/" in f:
                continue
            digest.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "crates", "serve", "Cargo.toml")):
        fail("run from the root of the source checkout (crates/serve not found)")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cargo(root, target_dir, "-p", "eel-serve", "--bin", "eelserved")
    cargo(root, target_dir, "--manifest-path", os.path.join("perfbench", "Cargo.toml"))

    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    cmd = [
        os.path.join(target_dir, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--daemon", os.path.join(target_dir, "release", "eelserved"),
        "--out-dir", os.path.join(root, ".bench_build", "perfbench-results"),
        "--stamp", f"git_commit={stamp_git(root)}",
        "--stamp", f"source_digest={stamp_sources(root)}",
        "--stamp", f"rustc={rustc or 'unknown'}",
    ]
    # Its own process group, so a timeout or a stop signal also stops
    # the daemon it runs.
    child = subprocess.Popen(cmd, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"timed out after {RUN_TIMEOUT_S}s")
    sys.exit(code)


if __name__ == "__main__":
    main()
