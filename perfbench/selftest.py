#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Builds the driver (as run.py does) and checks that
  * the same seed generates byte-identical inputs, and another seed
    different ones;
  * the same seed gives the same sim_digest, and the default seed gives the
    committed one;
  * every printed metric is declared in BENCHMARK.json with its unit and
    matches the name grammar, in both untraced and traced runs;
  * one flipped byte in an evidence artifact makes its op count as failed
    instead of being dropped.
Short runs (1 s) keep the whole suite to a couple of minutes.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)
with open(os.path.join(HERE, "digests.json")) as _f:
    COMMITTED = json.load(_f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
OUT = os.path.join(ROOT, ".bench_build", "selftest")


def driver(*args):
    proc = subprocess.run([bench.DRIVER, *args, "--out", OUT],
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=bench.DRIVER_TIMEOUT_S)
    return proc.stdout


def report(workload, seed, trace=0, *extra):
    return json.loads(driver("--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace),
                             *extra).splitlines()[-1])


def run_py(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = driver("--workload", w, "--seed", "1", "--dump-inputs")
                b = driver("--workload", w, "--seed", "1", "--dump-inputs")
                c = driver("--workload", w, "--seed", "2", "--dump-inputs")
                self.assertTrue(a)
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)


class Digest(unittest.TestCase):
    def test_same_seed_same_digest_default_seed_committed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = report(w, 1)
                second = report(w, 1)
                self.assertEqual(first["sim_digest"], second["sim_digest"])
                self.assertEqual(first["sim_digest"], COMMITTED[w])
                other = report(w, 5)
                self.assertEqual(other["sim_digest"],
                                 report(w, 5)["sim_digest"])
                self.assertNotEqual(other["sim_digest"], COMMITTED[w])
                # Every run re-derives the default seed's digest.
                self.assertEqual(other["ref_digest"], COMMITTED[w])
                self.assertEqual(first["failed"], 0)


class Names(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            for name in declared:
                self.assertRegex(name, bench.NAME_RE)
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    full, result = run_py(w, 1, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(set(result["metrics"]), set(declared))
                    for name, m in result["metrics"].items():
                        self.assertEqual(m["unit"], declared[name])
                    for name in full["metrics"]:
                        self.assertRegex(name, bench.NAME_RE)


class FlippedByte(unittest.TestCase):
    def test_corrupt_artifact_fails_its_op(self):
        # devcycle writes one artifact per op; pil_campaign one per run.
        for w, op in (("devcycle", 2), ("pil_campaign", 5)):
            with self.subTest(workload=w):
                clean = report(w, 1)
                flipped = report(w, 1, 0, "--flip-byte-op", str(op))
                self.assertEqual(clean["failed"], 0)
                self.assertEqual(flipped["failed"], 1)
                self.assertGreaterEqual(flipped["attempted"], op)


if __name__ == "__main__":
    bench.build()
    unittest.main(verbosity=2)
