#!/usr/bin/env python3
"""The benchmark's own smoke test.

    python3 perfbench/smoke.py

Run from the root of the source tree.  It runs the tiny variant of every
workload (scale-8k at 256 hosts, explore-mixed at budget 20,
families-bt49 at one seed) untraced and traced, and asserts that:

  * every metric BENCHMARK.json names is printed with its unit, and no
    other metric is;
  * every check passes, and the untraced and traced runs of one seed
    agree on the observables digest;
  * a run told to expect a wrong checksum (--corrupt-checksum) counts the
    mismatch as an error, reports no metrics and exits 1;
  * the benchmark refuses to run, without a result line, in a directory
    holding only BENCHMARK.json and the benchmark's own files.

Exits 0 when all hold, 1 with the failures listed otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

SEED = 3
failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what)


def run(workload, trace, *extra, cwd="."):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--small", *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    header = next((json.loads(l.split(":", 1)[1]) for l in lines
                   if l.startswith("perfbench header:")), None)
    return p.returncode, result, header, p


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in (x["name"] for x in bench["workloads"]):
        digests = set()
        for trace in (0, 1):
            tag = "%s --trace %d" % (w, trace)
            code, result, header, p = run(w, trace)
            check(code == 0 and result is not None, tag + " exits 0 with a result")
            if result is None:
                sys.stderr.write(p.stdout + p.stderr)
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  tag + " result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  tag + " every check passes")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace], tag + " prints exactly the listed metrics with units")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  tag + " metric values are numbers")
            check(header is not None and all(k in header for k in ("commit", "nproc", "ocaml", "jobs")),
                  tag + " header stamps commit, nproc, ocaml and jobs")
            if header:
                digests.add(header["digest"])
        check(len(digests) == 1, w + " untraced and traced runs agree on the digest")

    for w in ("families-bt49", "scale-8k"):
        code, result, _, _ = run(w, 0, "--corrupt-checksum")
        check(code == 1 and result is not None and not result["correct"]
              and result["failed"] >= 1 and result["metrics"] == {},
              w + " --corrupt-checksum counts the mismatch and reports no timings")

    bare = os.path.join(".bench_build", "smoke-bare")
    if os.path.isdir(bare):
        shutil.rmtree(bare)
    os.makedirs(bare)
    shutil.copy2("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    code, result, _, _ = run("scale-8k", 0, cwd=bare)
    check(code != 0 and result is None, "a tree with only the benchmark fails without a result")
    shutil.rmtree(bare)

    if failures:
        print("%d smoke check(s) failed" % len(failures))
        sys.exit(1)
    print("smoke test passed")


if __name__ == "__main__":
    main()
