#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Run from the repository root; builds perfbench first (see run.py). Takes a
few minutes: every measuring invocation runs each workload at least three
times.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = ("paper_join", "serve_htap", "cluster_tenants")
SIM_METRICS = ("sim_s", "sim_latency_ms_p50", "sim_latency_ms_p99")


def perfbench(*args):
    done = subprocess.run([BINARY] + [str(a) for a in args],
                          stdout=subprocess.PIPE, text=True, check=False)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload, seed, trace=0, trace_out=None):
    args = ["--workload", workload, "--seed", seed, "--seconds", "0.01",
            "--trace", trace]
    if trace_out:
        args += ["--trace-out", trace_out]
    code, out = perfbench(*args)
    assert code == 0 and not out["errors"], out["errors"]
    return out


def setUpModule():
    global BINARY
    BINARY = run.build()


class Determinism(unittest.TestCase):
    def test_same_seed_repeats_exactly(self):
        for w in WORKLOADS:
            a, b = measure(w, 7), measure(w, 7)
            self.assertEqual(a["fingerprint"], b["fingerprint"], w)
            for m in SIM_METRICS:
                self.assertEqual(a["metrics"][m], b["metrics"][m], (w, m))

    def test_traced_run_matches_untraced(self):
        # The fingerprint holds every simulated value and count; a traced
        # invocation also checks its traced against its untraced
        # repetitions before printing.
        for w in WORKLOADS:
            self.assertEqual(measure(w, 7)["fingerprint"],
                             measure(w, 7, trace=1)["fingerprint"], w)

    def test_seed_changes_inputs(self):
        for w in WORKLOADS:
            self.assertNotEqual(measure(w, 7)["fingerprint"],
                                measure(w, 8)["fingerprint"], w)


class Trace(unittest.TestCase):
    def test_loop_self_time_plus_slices_is_the_run_span(self):
        for w in ("serve_htap", "cluster_tenants"):
            path = os.path.join(run.build_dir(), f"test-{w}.json")
            out = measure(w, 3, trace=1, trace_out=path)
            with open(path) as f:
                events = json.load(f)["traceEvents"]
            selfs = []
            for e in events:
                if e["name"] != "RequestServer::Run":
                    continue
                slices = [c for c in events
                          if c["args"]["parent"] == e["args"]["id"]]
                self.assertTrue(all(c["name"] in ("slice", "hedge")
                                    for c in slices))
                # Children lie inside the parent and do not overlap.
                end = e["ts"]
                for c in sorted(slices, key=lambda c: c["ts"]):
                    self.assertGreaterEqual(c["ts"], end - 1e-3)
                    end = c["ts"] + c["dur"]
                self.assertLessEqual(end, e["ts"] + e["dur"] + 1e-3)
                if slices:
                    selfs.append(
                        (e["dur"] - sum(c["dur"] for c in slices)) / 1e6)
            # A traced warm-up, then two timed traced repetitions.
            self.assertEqual(len(selfs), 3, w)
            # Microsecond timestamps with nanosecond decimals.
            self.assertAlmostEqual(out["metrics"]["serve.loop_self_host_s"],
                                   sum(selfs[1:]) / 2, delta=1e-8)

    def test_phase_sink_sees_the_join_layers(self):
        m = measure("paper_join", 3, trace=1)["metrics"]
        for name in ("index.lookup_host_s", "join.build_host_s",
                     "join.probe_host_s", "partition.host_s"):
            self.assertGreater(m[name], 0, name)
        self.assertGreater(m["core.windows"], 0)


class Contract(unittest.TestCase):
    def run_py(self, cwd, *args):
        return subprocess.run(
            [sys.executable, os.path.join(cwd, "perfbench", "run.py")] +
            [str(a) for a in args], cwd=cwd, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=False)

    def test_result_line_lists_every_metric(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        nonzero = set()
        for w in WORKLOADS:
            for trace, wanted in ((0, spec["end_to_end"]),
                                  (1, spec["per_layer"])):
                done = self.run_py(run.ROOT, "--workload", w, "--seed", 1,
                                   "--seconds", 1, "--trace", trace)
                self.assertEqual(done.returncode, 0)
                out = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertEqual(sorted(out), ["attempted", "correct",
                                               "failed", "metrics"])
                self.assertTrue(out["correct"])
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["failed"], 0)
                self.assertEqual(
                    {k: v["unit"] for k, v in out["metrics"].items()},
                    {m["name"]: m["unit"] for m in wanted})
                for k, v in out["metrics"].items():
                    if v["value"] != 0:
                        nonzero.add(k)
        # Every metric is measured by some workload. Failure and waste
        # counters stay zero: no workload sheds, spills or re-executes.
        zero_by_design = {"partition.spilled_tuples", "serve.ingest.ops_shed",
                          "serve.tenants.rate_limit_sheds",
                          "cluster.reexec_sim_ms"}
        self.assertEqual(nonzero | zero_by_design,
                         {m["name"] for m in
                          spec["end_to_end"] + spec["per_layer"]})

    def test_fails_without_the_program(self):
        bare = os.path.join(run.build_dir(), "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = self.run_py(bare, "--workload", "paper_join", "--seed", 1,
                           "--seconds", 1, "--trace", 0)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
