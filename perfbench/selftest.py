"""Self-tests of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

They live beside the benchmark, outside the repository's test suite, and
take about a minute.
"""
from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import threading
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import deltagrid  # noqa: E402
import deltagrid.cli  # noqa: E402
import outcheck  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import Command  # noqa: E402

SPEC = run.load_spec()


def run_tiny(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, proc.stdout


def load_reference(workload: str) -> dict:
    with open(os.path.join(HERE, "reference", f"{workload}.json")) as fh:
        return json.load(fh)


class MetricNames(unittest.TestCase):
    def test_every_metric_with_its_unit_on_every_workload(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, out = run_tiny(w["name"], trace)
                    self.assertEqual(code, 0)
                    lines = out.strip().splitlines()
                    res = json.loads(lines[-1])
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, want)
                    summary = "\n".join(lines[:-1])
                    for name, unit in want.items():
                        self.assertRegex(summary, rf"\b{name} +\S+ {unit}\b")

    def test_tail_percentile_keeps_ten_runs_beyond_it(self):
        self.assertIsNone(run.tail(list(range(10))))
        self.assertEqual(run.tail(list(range(20, 0, -1))), (50.0, 10))

    def test_timings_scale_with_the_host_calibration(self):
        res = {"walls": [2.0, 3.0, 4.0], "cpus": [2.5, 3.5, 4.5], "ops_per_rep": 6,
               "calib": [0.03, 0.04, 0.05], "import_s": 0.1, "setup_times": [0.9, 1.1, 1.3],
               "setup_calib": [0.01, 0.01, 0.02], "peak_rss_mb": 50.0,
               "attempted": 12, "failed": 0}
        ref = worker.CALIB_REF_S
        e2e = run.end_to_end(res)
        self.assertAlmostEqual(e2e["wall_s"], 3.0 * ref / 0.04)
        self.assertAlmostEqual(e2e["ops_per_s"], 6 / e2e["wall_s"])
        self.assertAlmostEqual(e2e["cpu_s"], 3.5 * ref / 0.04)
        self.assertAlmostEqual(e2e["setup_s"], 1.2 * ref / 0.01)
        self.assertGreater(worker.calibrate(), 0.0)


class OutputCheck(unittest.TestCase):
    def test_reference_matches_itself(self):
        ref = load_reference("verify-expander")["verify.verify"]
        self.assertEqual(outcheck.failed_ops(ref, ref, 600, True), 0)

    def test_perturbed_reference_row_fails_one_op(self):
        ref = load_reference("verify-expander")["verify.verify"]
        bad = copy.deepcopy(ref)
        row = bad["csv"][7]
        row[3] = str(int(row[3]) + 1)  # the lhs of one inequality case
        self.assertEqual(outcheck.failed_ops(ref, bad, 600, True), 1)

    def test_perturbed_printed_value_fails_every_op(self):
        ref = load_reference("sweep-marstrand")["marstrand.cantor_kaufman"]
        bad = copy.deepcopy(ref)
        bad["stdout"][0] = bad["stdout"][0].replace("2.", "3.", 1)
        self.assertNotEqual(bad["stdout"], ref["stdout"])
        self.assertEqual(outcheck.failed_ops(ref, bad, 64, False), 64)

    def test_floats_within_tolerance_integers_exact(self):
        self.assertTrue(outcheck.field_equal("m=0.30000000000000004", "m=0.3"))
        self.assertFalse(outcheck.field_equal("m=0.3000001", "m=0.3"))
        self.assertFalse(outcheck.field_equal("x=1023/512", "x=1023/511"))
        self.assertFalse(outcheck.field_equal("count=362", "count=363"))
        self.assertFalse(outcheck.field_equal("count=362", "total=362"))

    def test_thread_count_must_not_change_the_report(self):
        cmds = [Command(k, (), 4) for k in ("x_t1", "x_t2", "y_t1", "y_t2")]
        same = outcheck.capture(0, "best", b"x\n1\n")
        got = {"x_t1": same, "x_t2": same, "y_t1": same,
               "y_t2": outcheck.capture(0, "best", b"x\n2\n")}
        self.assertEqual(worker.thread_mismatches(cmds, got), {"y_t2"})

    def test_config_echo_line_is_ignored(self):
        a = outcheck.capture(0, "", b'# {"alpha": null}\nx,y\n1,2\n')
        b = outcheck.capture(0, "", b'# {}\nx,y\n1,2\n')
        self.assertEqual(outcheck.failed_ops(a, b, 1, True), 0)


class Wrapping(unittest.TestCase):
    def _results(self):
        from deltagrid import addcomb, expand, measure, project, setcalc
        from deltagrid.grid import GridSet1, Scale, cartesian_product, gen_cantor, make_interval

        A = gen_cantor(Scale(10), 4, (0, 3), 5)
        B = GridSet1.from_indices(Scale(10), [1, 4, 9, 30])
        E = cartesian_product(A, B)
        cand = make_interval(Scale(4), 1, 2)
        return {
            "sumset": setcalc.sumset(A, B, setcalc.SumSemantics.COVER),
            "diffset": setcalc.diffset(A, B),
            "dilate": setcalc.dilate(A, "3/2"),
            "indices": E.indices.tolist(),
            "ruzsa": addcomb.check_ruzsa_triangle(A, B, A),
            "expander": expand.find_expander(A, cand, threads=2).records,
            "sweep": project.sweep(E, np.arange(5) * 0.6, 0.66, threads=2).records,
            "energy": measure.riesz_energy(measure.uniform_on(E), 1.0),
        }

    def test_wrapped_functions_return_the_same_results(self):
        sumset, main = deltagrid.setcalc.sumset, deltagrid.cli.main
        plain = self._results()
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(deltagrid.addcomb.sumset, sumset)
            traced = self._results()
        finally:
            tracer.uninstall()
        self.assertIs(deltagrid.setcalc.sumset, sumset)
        self.assertIs(deltagrid.addcomb.sumset, sumset)
        self.assertIs(deltagrid.cli.main, main)
        for key in plain:
            self.assertEqual(traced[key], plain[key], key)

        by_id = {s[0]: s for s in tracer.spans}
        names = {s[3] for s in tracer.spans}
        self.assertTrue({"setcalc.sumset", "grid.indices", "addcomb.check_ruzsa_triangle",
                         "measure.riesz_energy", "project.adversarial_projection"} <= names)
        main_tid = threading.get_ident()
        workers = [s for s in tracer.spans if s[2] != main_tid]
        self.assertTrue(workers)
        for s in workers:
            # a worker's outermost span hangs under the span that submitted it
            while s[1] is not None and by_id[s[1]][2] == s[2]:
                s = by_id[s[1]]
            self.assertIn(by_id[s[1]][3], ("expand.find_expander", "project.sweep"))

        wall = sum(s[5] - s[4] for s in tracer.spans if s[1] is None and s[2] == main_tid)
        m = layer_metrics(tracer.spans, main_tid, wall, 1)
        self.assertAlmostEqual(m["trace.unattributed_s"], 0.0, places=9)
        self.assertLess(m["_check"]["identity_error_s"], 1e-9)
        self.assertEqual(m["expand.candidates"], 16)
        self.assertEqual(m["addcomb.checks"], 1)


if __name__ == "__main__":
    unittest.main()
