#!/usr/bin/env python3
"""Tiny-scale smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run it from the root of a source checkout (about a minute). For every
workload it checks that:

  * an untraced run prints, as its last line, a result with exactly the keys
    correct/attempted/failed/metrics, and every end-to-end metric of
    BENCHMARK.json with its unit;
  * a traced run prints every per-layer metric with its unit, and its own
    end-to-end numbers on the line before;
  * a run whose oracle answer is corrupted on purpose fails (exit code 1,
    "correct": false).

Finally it checks that the benchmark fails, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(cwd, *extra):
    cmd = BENCH["command"] + ["--seed", "7", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(res):
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def check_metrics(out, declared, what):
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"], out.keys()
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1, out
    assert isinstance(out["failed"], int), out
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == want, "%s: metrics differ from BENCHMARK.json: %s" % (what, set(got) ^ set(want))
    for k, v in out["metrics"].items():
        assert sorted(v) == ["unit", "value"], (k, v)
        assert isinstance(v["value"], (int, float)), (k, v)


def main():
    failures = 0
    for w in [w["name"] for w in BENCH["workloads"]]:
        base = ["--workload", w, "--scale", "tiny"]
        try:
            res = run(ROOT, *base, "--trace", "0")
            out = result(res)
            assert res.returncode == 0 and out and out["correct"], res.stderr[-1500:]
            check_metrics(out, BENCH["end_to_end"], w + " untraced")
            assert all(v["value"] != 0 for v in out["metrics"].values()), out

            res = run(ROOT, *base, "--trace", "1")
            out = result(res)
            assert res.returncode == 0 and out and out["correct"], res.stderr[-1500:]
            check_metrics(out, BENCH["per_layer"], w + " traced")
            assert any(l.startswith("traced_end_to_end ") for l in res.stdout.splitlines())

            res = run(ROOT, *base, "--trace", "0", "--corrupt-oracle")
            out = result(res)
            assert res.returncode == 1, "corrupted oracle: exit %d" % res.returncode
            assert out is not None and out["correct"] is False, out
            print("ok   %s" % w)
        except AssertionError as e:
            failures += 1
            print("FAIL %s: %s" % (w, e))

    # Only the benchmark's own files: it must fail without a result.
    bare = os.path.join(ROOT, ".bench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    res = subprocess.run(
        BENCH["command"] + ["--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=600, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if res.returncode == 0 or result(res) is not None:
        failures += 1
        print("FAIL bare directory: exit %d, stdout %r" % (res.returncode, res.stdout[-300:]))
    else:
        print("ok   bare directory fails (exit %d)" % res.returncode)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
