#!/usr/bin/env python3
"""Run one FAIL-MPI benchmark workload and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--jobs J] [--small] [--corrupt-checksum]
                             [--spans FILE]

Run from the root of a source tree.  The script builds
perfbench/_ocaml/perfbench.exe against the tree's lib/ in .bench_build/ws
(never touching the tree's own dune build), runs the workload in one
process of its own, and prints:

  * the measuring process's own report lines (observables digest,
    error rate, and with --trace 1 the per-layer self-time table);
  * a "perfbench header:" line with the commit, core count, OCaml
    version and --jobs;
  * as the last line, one JSON object with the keys correct, attempted,
    failed and metrics.

--seconds fixes how many measured units the process runs, through a
constant nominal unit length per workload, so the amount of work in a
run depends on the arguments only, never on how fast the code is.

Exit status: 0 when every output check passed, 1 when a check failed
(the result line then has no metrics), 2 when the benchmark could not be
built or run.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("families-bt49", "scale-8k", "explore-mixed")

# Host seconds one measured unit of each workload takes on a 2-core
# x86-64 container; --seconds / this, rounded, is the unit count.
NOMINAL_UNIT_S = {"families-bt49": 18.0, "scale-8k": 10.0, "explore-mixed": 10.0}
MIN_UNITS = 1

BUILD_DIR = os.path.join(".bench_build", "ws")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description="FAIL-MPI benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--small", action="store_true",
                   help="tiny variant of the workload (smoke test)")
    p.add_argument("--corrupt-checksum", action="store_true",
                   help="expect a wrong checksum on one run; the run must fail")
    p.add_argument("--spans", default=None, help="write the traced spans here")
    a = p.parse_args(argv)
    if a.seconds < 1:
        p.error("--seconds must be at least 1")
    if a.jobs is not None and a.jobs < 1:
        p.error("--jobs must be at least 1")
    return a


def sync_tree(src, dst):
    """Make dst a copy of src; unchanged files keep their mtimes."""
    if os.path.isdir(dst):
        shutil.rmtree(dst)
    shutil.copytree(src, dst, copy_function=shutil.copy2)


def build():
    """Build perfbench.exe against lib/; return its path."""
    if not os.path.isdir("lib") or not os.path.isdir(os.path.join("perfbench", "_ocaml")):
        fail("run from the root of a FAIL-MPI source tree (lib/ and perfbench/ needed)")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    os.makedirs(BUILD_DIR, exist_ok=True)
    src = os.path.join("perfbench", "_ocaml")
    for name in os.listdir(src):
        shutil.copy2(os.path.join(src, name), os.path.join(BUILD_DIR, name))
    sync_tree("lib", os.path.join(BUILD_DIR, "lib"))
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", BUILD_DIR, "--profile", "release",
           "--display", "quiet", "./perfbench.exe"]
    proc = run_bounded(cmd, BUILD_TIMEOUT_S, env=env)
    if proc is None or proc[0] != 0:
        if proc is not None:
            sys.stderr.write(proc[1] + proc[2])
        fail("build failed")
    return os.path.join(BUILD_DIR, "_build", "default", "perfbench.exe")


def run_bounded(cmd, timeout, env=None):
    """Run cmd in its own process group; kill the whole group on timeout.

    Returns (returncode, stdout, stderr), or None on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return proc.returncode, out, err


def source_id():
    """The commit when the tree is a git checkout, else a digest of lib/."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                           env=env, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for root, dirs, files in os.walk("lib"):
        dirs.sort()
        for f in sorted(files):
            path = os.path.join(root, f)
            h.update(path.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return "lib-sha256:" + h.hexdigest()[:16]


def main():
    a = parse_args(sys.argv[1:])
    exe = build()
    nproc = os.cpu_count() or 1
    jobs = a.jobs if a.jobs is not None else min(2, nproc)
    units = max(MIN_UNITS, round(a.seconds / NOMINAL_UNIT_S[a.workload]))
    cmd = [exe, a.workload, "--seed", str(a.seed), "--units", str(units),
           "--trace", str(a.trace), "--jobs", str(jobs)]
    if a.small:
        cmd.append("--small")
    if a.corrupt_checksum:
        cmd.append("--corrupt-checksum")
    if a.spans:
        cmd += ["--spans", a.spans]
    proc = run_bounded(cmd, RUN_TIMEOUT_S)
    if proc is None:
        fail("%s did not finish within %d s" % (a.workload, RUN_TIMEOUT_S))
    code, out, err = proc
    sys.stderr.write(err)
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if code != 0 or result is None:
        fail("%s exited with %d and no result" % (a.workload, code))
    header = {
        "workload": a.workload,
        "seed": a.seed,
        "units": result["units"],
        "commit": source_id(),
        "nproc": nproc,
        "jobs": jobs,
        "ocaml": result["ocaml"],
        "python": platform.python_version(),
        "digest": result["digest"],
    }
    print("perfbench header: " + json.dumps(header, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
