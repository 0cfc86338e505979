#!/usr/bin/env python3
"""Run one perfbench workload and print its result.

    python3 perfbench/run.py --workload devcycle --seed 1 --seconds 10 --trace 0

Builds the driver from the checkout's sources (Release, under
.bench_build/perfbench), runs the workload, checks its outputs against the
committed sim_digest (digests.json), and prints two JSON lines: the full
report (provenance, digests, checks, every metric measured), then the
result line {"correct", "attempted", "failed", "metrics"} whose metrics are
exactly the BENCHMARK.json end_to_end metrics (--trace 0) or per_layer
metrics (--trace 1).  Exits non-zero without a result line when the
checkout has no library sources, the build fails or the driver crashes.
"""
import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; build output goes to a log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s/src" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        def step(cmd):
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  stdin=subprocess.DEVNULL).returncode == 0

        def configure():
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            return step(cmd)

        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            ok = configure()
        else:
            ok = True
        ok = ok and step(["cmake", "--build", BUILD_DIR, "-j", jobs])
        if not ok:
            # A cache from another checkout location: start over once.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            os.makedirs(BUILD_DIR, exist_ok=True)
            ok = configure() and step(["cmake", "--build", BUILD_DIR, "-j", jobs])
    if not ok:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail("build failed (log: %s)" % log_path)
    return DRIVER


def source_sha():
    """SHA-256 over the library sources: provenance when git is absent."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_driver(driver, args):
    """Runs the driver; returns its report (the last stdout line)."""
    try:
        proc = subprocess.run([driver] + args, stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL,
                              timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("driver printed no report")
    return json.loads(lines[-1])


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    driver = build()
    report = run_driver(driver, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(float(args.seconds)), "--trace", str(args.trace),
        "--out", OUT_DIR])

    with open(os.path.join(HERE, "digests.json")) as f:
        committed = json.load(f)
    expected = committed.get(args.workload)
    report["source_sha"] = source_sha()
    report["committed_digest"] = expected
    report["digest_ok"] = expected is not None and report["ref_digest"] == expected

    metrics = {}
    names_ok = True
    for m in declared_metrics(args.trace):
        got = report["metrics"].get(m["name"])
        if (got is None or got["unit"] != m["unit"] or got["value"] is None
                or not math.isfinite(got["value"])
                or not NAME_RE.match(m["name"])):
            names_ok = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    report["names_ok"] = names_ok

    correct = (report["failed"] == 0 and report["attempted"] >= 1
               and report["digest_ok"] and names_ok
               and all(report["checks"].values()))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
