"""Self-tests of the benchmark, in its tiny-size mode.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Tiny runs take about a second each (plus a one-time build); their
figures are not measurements.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run

RUN_PY = Path(run.__file__).resolve()


def bench(workload, trace, seed=run.DEFAULT_SEED, cwd=None,
          script=RUN_PY):
    """Run the benchmark in tiny mode; returns (exit code, stdout)."""
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=cwd, timeout=900)
    return done.returncode, done.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def line_value(stdout, prefix):
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise AssertionError("no '%s' line" % prefix)


class TinyRuns(unittest.TestCase):
    traced = {}
    timed = {}

    @classmethod
    def setUpClass(cls):
        for w in run.WORKLOADS:
            cls.traced[w] = [bench(w, 1) for _ in range(2)]
            cls.timed[w] = bench(w, 0)

    def test_every_metric_with_unit_and_direction(self):
        for w in run.WORKLOADS:
            for (code, out), specs in ((self.timed[w], run.END_TO_END),
                                       (self.traced[w][0], run.PER_LAYER)):
                self.assertEqual(code, 0)
                res = result(out)
                self.assertEqual(set(res), {"correct", "attempted",
                                            "failed", "metrics"})
                self.assertTrue(res["correct"], w)
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(set(res["metrics"]),
                                 {n for n, _, _ in specs})
                for name, unit, better in specs:
                    self.assertEqual(res["metrics"][name]["unit"], unit)
                    self.assertRegex(out, r"\n  %s +\S+ %s +\(%s is better\)"
                                     % (re.escape(name), re.escape(unit),
                                        better))

    def test_end_to_end_metrics_are_positive(self):
        for w in run.WORKLOADS:
            for name, _, _ in run.END_TO_END:
                self.assertGreater(
                    result(self.timed[w][1])["metrics"][name]["value"], 0)

    def test_counts_and_digest_repeat_exactly(self):
        counts = [n for n, _, _ in run.COUNTS]
        for w in run.WORKLOADS:
            (_, a), (_, b) = self.traced[w]
            ma, mb = result(a)["metrics"], result(b)["metrics"]
            for n in counts:
                self.assertEqual(ma[n]["value"], mb[n]["value"], (w, n))
            self.assertEqual(line_value(a, "sim_digest:"),
                             line_value(b, "sim_digest:"))
            # Tracing must not change the simulated results either.
            self.assertEqual(line_value(a, "sim_digest:"),
                             line_value(self.timed[w][1], "sim_digest:"))

    def test_attr_shares_sum_to_one(self):
        for w in run.WORKLOADS:
            m = result(self.traced[w][0][1])["metrics"]
            total = sum(m["attr." + c]["value"] for c in run.ATTR_CATS)
            self.assertAlmostEqual(total, 1.0, places=9)

    def test_isolated_timings_count_operations(self):
        for w in run.WORKLOADS:
            spans = Path(line_value(self.traced[w][0][1], "spans:"))
            report = json.loads((spans.parent / "report.json").read_text())
            layers = {l["name"]: l for l in report["layers"]}
            self.assertEqual(set(layers), {n for n, _ in run.ISOLATED})
            for l in layers.values():
                self.assertGreater(l["ops"], 0, l["name"])
                self.assertGreater(l["value"], 0, l["name"])

    def test_spans_have_jobs_and_parents(self):
        for w in run.WORKLOADS:
            spans_path = Path(line_value(self.traced[w][0][1], "spans:"))
            report_path = spans_path.parent / "report.json"
            spans = json.loads(spans_path.read_text())["spans"]
            njobs = len(json.loads(report_path.read_text())["jobs"])
            # Written once, after everything else, when the driver exits.
            self.assertGreaterEqual(spans_path.stat().st_mtime_ns,
                                    report_path.stat().st_mtime_ns)
            by_id = {s["id"]: s for s in spans}
            for s in spans:
                self.assertGreaterEqual(s["end_ns"], s["start_ns"])
                if s["parent"] >= 0:
                    parent = by_id[s["parent"]]
                    self.assertLess(parent["id"], s["id"])
                    self.assertEqual(parent["job"], s["job"])
                    self.assertLessEqual(parent["start_ns"], s["start_ns"])
                    self.assertGreaterEqual(parent["end_ns"], s["end_ns"])
            for kind in ("run", "run_traced"):
                runs = [s for s in spans if s["name"] == kind]
                self.assertEqual(sorted(s["job"] for s in runs),
                                 list(range(njobs)))
                for s in runs:
                    self.assertEqual(by_id[s["parent"]]["name"], "job")
            layer_spans = [s for s in spans if s["parent"] >= 0 and
                           by_id[s["parent"]]["name"] == "layers"]
            # fabric.advance_ns is timed inside the fabric.inject_ns
            # batches, so it shares that span.
            self.assertEqual({s["name"] for s in layer_spans},
                             {n for n, _ in run.ISOLATED} -
                             {"fabric.advance_ns"})


class JobLists(unittest.TestCase):
    def test_seeded_and_stratified(self):
        for w in run.WORKLOADS:
            self.assertEqual(run.make_jobs(w, 5), run.make_jobs(w, 5))
            self.assertNotEqual(run.make_jobs(w, 5), run.make_jobs(w, 6))
        for seed in range(20):
            stream = run.make_jobs("stream_isa", seed)
            self.assertEqual(sorted(j.split()[1] for j in stream),
                             ["0", "1", "2", "3"])
            for j in stream:
                self.assertTrue(1600 <= int(j.split()[2]) <= 2000)
            splash = run.make_jobs("splash_exec", seed)
            self.assertEqual(len(set(splash)), 18)
            halo = run.make_jobs("halo_fabric", seed)
            self.assertEqual(sorted(halo[:3]), sorted(halo[3:]))
            self.assertEqual(len(set(halo)), 3)


class Registration(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(doc["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in doc["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in doc["per_layer"]], run.PER_LAYER)
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in doc["end_to_end"]))

    def test_fails_without_the_simulator_sources(self):
        bare = run.BUILD / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            code, out = bench("stream_isa", 0, cwd=bare,
                              script=bare / "perfbench" / "run.py")
            self.assertNotEqual(code, 0)
            self.assertNotIn('"correct"', out)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
