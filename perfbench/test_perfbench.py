#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the benchmark, then checks that its inputs are a function of the
seed, that every metric it prints is declared in BENCHMARK.json with
the same unit, that a run at the tiniest size passes every self-check,
and that it refuses environments that would skew the measurement.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def bench(*args, env=None):
    """Run the built binary; returns (exit code, stdout lines)."""
    command = [run.BINARY, "--workloads-dir", os.path.join(HERE, "workloads")]
    done = subprocess.run(command + list(args), capture_output=True, text=True,
                          env=env, cwd=run.ROOT)
    return done.returncode, done.stdout.strip().splitlines()


def describe(workload, seed):
    code, lines = bench("--workload", workload, "--seed", str(seed), "--describe")
    assert code == 0, lines
    return json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")

    def test_seed_determines_inputs(self):
        for workload in WORKLOADS:
            first = describe(workload, 3)
            self.assertEqual(first, describe(workload, 3), workload)
            other = describe(workload, 4)
            self.assertNotEqual(first["scenario_digest"], other["scenario_digest"])
            self.assertNotEqual(first["input_digest"], other["input_digest"])

    def test_tiny_runs_pass_self_checks_and_print_declared_metrics(self):
        for trace, table in (("0", "end_to_end"), ("1", "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[table]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, lines = bench("--workload", workload, "--seed", "5",
                                        "--seconds", "0", "--trace", trace,
                                        "--size", "tiny")
                    self.assertEqual(code, 0, lines)
                    self.assertFalse([l for l in lines if l.startswith("check FAILED")])
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    metrics = result["metrics"]
                    for name, metric in metrics.items():
                        self.assertRegex(name, NAME)
                        self.assertEqual(metric["unit"], declared.get(name), name)
                    self.assertEqual(set(metrics), set(declared))
                    printed = [l.split()[1] for l in lines if l.startswith("metric ")]
                    self.assertEqual(sorted(printed), sorted(declared))
                    if trace == "1":
                        events = metrics["sim.events"]["value"]
                        self.assertEqual(events > 0, workload == "cluster_failover")
                    else:
                        # Host times are CPU-time medians at the reference clock.
                        host = [json.loads(l.split(" ", 1)[1]) for l in lines
                                if l.startswith("host ")]
                        self.assertEqual(len(host), 1)
                        host = host[0]
                        self.assertGreater(host["probe_samples"], 0)
                        self.assertAlmostEqual(host["factor"],
                                               host["reference_s"] / host["probe_median_s"])
                        self.assertAlmostEqual(metrics["run_s"]["value"],
                                               host["cpu_run_s"] * host["factor"])
                        self.assertAlmostEqual(metrics["setup_s"]["value"],
                                               host["cpu_setup_s"] * host["factor"])

    def test_refuses_skewing_environment(self):
        for knob in ("MODM_KERNEL", "MODM_TRACE", "MODM_LOG", "MODM_SWEEP_PARALLELISM"):
            env = dict(os.environ, **{knob: "1"})
            code, lines = bench("--workload", WORKLOADS[0], "--seed", "1",
                                "--seconds", "0", "--size", "tiny", env=env)
            self.assertEqual(code, 2, knob)
            self.assertEqual(lines, [], knob)

    def test_rejects_bad_arguments(self):
        for args in (["--workload", "nope", "--seed", "1"],
                     ["--workload", "../x", "--seed", "1"],
                     ["--workload", WORKLOADS[0], "--seed", "-1"],
                     ["--workload", WORKLOADS[0], "--seed", "1", "--trace", "2"],
                     ["--workload", WORKLOADS[0]]):
            code, lines = bench(*args)
            self.assertEqual(code, 1, args)
            self.assertEqual(lines, [], args)

    def test_fails_without_the_sources(self):
        # A tree holding only BENCHMARK.json and perfbench/ cannot build.
        scratch = os.path.join(run.ROOT, ".bench_build")
        with tempfile.TemporaryDirectory(dir=scratch) as tree:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tree)
            shutil.copytree(HERE, os.path.join(tree, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tree, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
