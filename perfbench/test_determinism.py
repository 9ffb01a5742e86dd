#!/usr/bin/env python3
"""Self-checks of the benchmark.

For each workload, with one seed, it makes an untraced run and a traced run.
It checks that:

- both pass the correctness gate;
- every simulated-clock metric reads bit-identically in the two processes;
- the result lines name exactly the metrics BENCHMARK.json declares, in the
  declared units.

Run it from the root of a checkout (each workload takes about a minute):

    python3 perfbench/test_determinism.py [workload ...]
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 7
WORKLOADS = ("paper-suite", "serve-open", "serve-reuse")


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    """Runs one workload for a single iteration; returns (sim, result)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.001", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload} --trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stdout}\n"
                             f"{proc.stderr[-2000:]}")
    # Metric lines read "  [sim ] <name> <value> <unit>"; values are printed
    # with 17 significant digits, so equal strings mean equal doubles.
    sim = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[0] == "[sim" and parts[1] == "]":
            sim[parts[2]] = parts[3]
    return sim, json.loads(lines[-1])


class Determinism(unittest.TestCase):
    pass


def make_test(workload):
    def test(self):
        spec = bench_spec()
        plain_sim, plain = run(workload, 0)
        traced_sim, traced = run(workload, 1)
        for result in (plain, traced):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
        self.assertTrue(plain_sim)
        for name, value in plain_sim.items():
            self.assertIn(name, traced_sim)
            self.assertEqual(value, traced_sim[name], name)
        for key, result in (("end_to_end", plain), ("per_layer", traced)):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            self.assertEqual(declared, printed, key)
        for name, metric in plain["metrics"].items():
            self.assertGreater(metric["value"], 0, name)
    return test


for _workload in WORKLOADS:
    setattr(Determinism, "test_" + _workload.replace("-", "_"),
            make_test(_workload))


if __name__ == "__main__":
    selected = sys.argv[1:]
    suite = unittest.TestSuite()
    for workload in selected or WORKLOADS:
        suite.addTest(Determinism("test_" + workload.replace("-", "_")))
    sys.exit(0 if unittest.TextTestRunner(verbosity=2).run(suite)
             .wasSuccessful() else 1)
