#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. It builds the `coconut` binary
(the program under test) and the `perfbench` binary from source, in release
mode, into $CARGO_TARGET_DIR (default `.bench_build`), then runs
`perfbench`, whose last line of standard output is the result JSON; build
output goes to standard error. Inputs and indexes live in `.bench_work/` and are
removed at the end of the run; run records and spans go to `.bench_out/`.

Every process `perfbench` starts is in a process group of its own, which is
killed when `perfbench` ends or overruns its time limit.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for the kill and the reaping.
TIME_LIMIT_S = 170


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build coconut (from the repository's workspace) and perfbench."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "coconut-cli", "--bin", "coconut"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for extra in steps:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        if subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)


def source_rev():
    """The git revision, or a digest of the sources when there is no git."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        out = rev.stdout.split()
        # Only a repository rooted at this checkout names its revision.
        if rev.returncode == 0 and len(out) == 2 and os.path.samefile(out[0], ROOT):
            return out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in files:
            if f.endswith((".rs", ".toml", ".lock", ".py")):
                digest.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    build()
    release = os.path.join(target_dir(), "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--coconut", os.path.join(release, "coconut"),
        "--source-rev", source_rev(),
        "--work-dir", os.path.join(ROOT, ".bench_work"),
        "--out-dir", os.path.join(ROOT, ".bench_out"),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: time limit exceeded\n")
        code = 2
    finally:
        # The group holds perfbench and every server it started.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(os.path.join(ROOT, ".bench_work"), ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
