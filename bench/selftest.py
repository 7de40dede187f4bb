"""Self-tests of the benchmark: its checks catch bad output, its metric names are valid.

    python3 bench/selftest.py

Runs small variants of the workloads in-process (a second or two in all).
"""

import json
import re
import sys
import time
import unittest
from dataclasses import replace

import run
from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS, ExactSweep, LineMC, TreeMC, poisson_tails, run_cli_inprocess

sys.path.insert(0, str(run.SRC))

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMALL_LINE = LineMC(n=20, replicates=20_000)
SMALL_TREE = TreeMC(max_depth=6, replicates=2_000)
SMALL_SWEEP = ExactSweep(degrees=(2, 5), scales=(1.0,), horizon=300)


def _stdout(workload, seed=3) -> str:
    code, stdout, runtime = run_cli_inprocess(workload.argv(seed))
    assert code == 0 and runtime == 0
    return stdout


def _replace_line(stdout: str, index: int, old: str, new: str) -> str:
    lines = stdout.splitlines(keepends=True)
    lines[index] = lines[index].replace(old, new, 1)
    return "".join(lines)


class MetricNames(unittest.TestCase):
    def test_declared_metrics_match_emitted_ones(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END)
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(declared, PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))

    def test_every_name_is_well_formed(self):
        for name in [*run.END_TO_END, *PER_LAYER, *WORKLOADS]:
            self.assertRegex(name, NAME)
            self.assertEqual(NAME.fullmatch(name).group(), name)


class LineChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = _stdout(SMALL_LINE)

    def test_real_output_passes(self):
        self.assertEqual(SMALL_LINE.check(self.out), [])

    def test_corrupted_output_fails(self):
        row = self.out.splitlines()[2].split()  # site 1
        z2 = self.out.splitlines()[3].split()[4]  # site 2
        corrupted = [
            _replace_line(self.out, 2, row[1], str(int(row[1]) + 1)),  # hits no longer p_hat
            _replace_line(self.out, 1, "20000", "19999"),  # hits[0] != replicates
            "".join(self.out.splitlines(keepends=True)[:-1]),  # a site missing
            self.out.replace("u_exact", "u_exakt"),  # header
            _replace_line(self.out, 3, z2, "9.999999"),  # z at site 2
            self.out + "trailing\n",
        ]
        for text in corrupted:
            self.assertNotEqual(SMALL_LINE.check(text), [], text[:200])

    def test_judged_as_failed(self):
        judged = run.judge(SMALL_LINE, (0, self.out.replace("20000", "20001", 1), False), None)
        self.assertEqual(judged["failed"], 1)
        judged = run.judge(SMALL_LINE, (0, self.out, True), None)  # a RuntimeWarning
        self.assertEqual(judged["failed"], 1)
        judged = run.judge(SMALL_LINE, (0, self.out, False), "0" * 64)  # wrong digest
        self.assertEqual(judged["failed"], 1)
        judged = run.judge(SMALL_LINE, (0, self.out, False), None)
        self.assertEqual(judged["failed"], 0)

    def test_rare_site_hits_use_poisson_tails(self):
        lower, upper = poisson_tails(2.0, 0)
        self.assertAlmostEqual(lower, 0.1353352832366127)
        self.assertAlmostEqual(upper, 1.0)
        # one hit where 1e-3 are expected is a 3e-4 event, not a failure;
        # one hit where 1e-5 are expected is beyond 4 sigma
        self.assertGreater(poisson_tails(1e-3, 1)[1], 3.1e-5)
        self.assertLess(poisson_tails(1e-5, 1)[1], 3.1e-5)


class TreeChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = _stdout(SMALL_TREE)

    def test_real_output_passes(self):
        self.assertEqual(SMALL_TREE.check(self.out), [])

    def test_wrong_verdict_or_mass_fails(self):
        self.assertNotEqual(SMALL_TREE.check(self.out.replace("supercritical", "subcritical")), [])
        count = self.out.splitlines()[1].split()[1]
        self.assertNotEqual(SMALL_TREE.check(_replace_line(self.out, 1, count, str(int(count) + 1))), [])
        judged = run.judge(SMALL_TREE, (0, self.out.replace("super", "sub"), False), None)
        self.assertEqual(judged["failed"], 1)

    def test_nonzero_exit_fails(self):
        run.OUT.mkdir(exist_ok=True)
        bad = replace(SMALL_TREE, q=0.6)  # d*q > 1: the CLI rejects it with exit code 2
        self.assertEqual(run.cli_pass(bad, 3, None)["failed"], 1)


class SweepChecks(unittest.TestCase):
    def test_real_cells_pass_and_bad_records_fail(self):
        records, failed, problems = SMALL_SWEEP.run_pass(SMALL_SWEEP.cells(3))
        self.assertEqual((failed, problems), (0, []))
        good = records[0]
        for bad in ({"below": "supercritical"}, {"above": "indeterminate"},
                    {"gamma": good["d"] + 1e-5}, {"lower_c2": good["q_c"] * 1.01}):
            self.assertNotEqual(SMALL_SWEEP.check({**good, **bad}), [], bad)

    def test_digest_ignores_order_only(self):
        records, _, _ = SMALL_SWEEP.run_pass(SMALL_SWEEP.cells(3))
        self.assertEqual(SMALL_SWEEP.digest(records), SMALL_SWEEP.digest(records[::-1]))
        changed = [{**records[0], "below": "indeterminate"}, *records[1:]]
        self.assertNotEqual(SMALL_SWEEP.digest(records), SMALL_SWEEP.digest(changed))


class Tracing(unittest.TestCase):
    def traced(self, workload):
        tracer = Tracer()
        with tracer.installed():
            tracer.run("pass", run.inprocess_call, workload, 3)
        return tracer.layer_metrics(workload.home_layer)[1]

    def test_workloads_isolate_their_layers(self):
        line, tree, sweep = (self.traced(w) for w in (SMALL_LINE, SMALL_TREE, SMALL_SWEEP))
        self.assertEqual(line["rng.uniform_matrix.calls"], 1)
        self.assertEqual(line["rng.uniform.calls"], 0)
        self.assertEqual(line["rng.uniform_matrix.mb"], 20_000 * 20 * 8 / 1e6)
        self.assertEqual(tree["rng.uniform_matrix.calls"], 0)
        self.assertGreater(tree["rng.uniform.calls"], tree["simulator.tree.steps"])
        self.assertEqual(sweep["rng.uniform_matrix.calls"], 0)
        self.assertEqual(sweep["rng.uniform.calls"], 0)
        self.assertEqual(sweep["renewal.growth_sequence.madds"], 2 * 2 * 300 * 301 // 2)
        self.assertGreater(sweep["renewal.growth_sequence.sub_s"], 0.0)
        self.assertGreater(sweep["renewal.growth_sequence.sup_s"], 0.0)

    def test_patches_are_removed(self):
        from frogcrit import simulator

        original = simulator.uniform_matrix
        with Tracer().installed():
            self.assertIsNot(simulator.uniform_matrix, original)
        self.assertIs(simulator.uniform_matrix, original)

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        child = tracer._span("child", lambda: time.sleep(0.02))
        tracer.run("parent", lambda: (time.sleep(0.01), child()))
        summary = tracer.summary()
        self.assertLess(summary["parent"]["self_s"], summary["parent"]["s"] - 0.019)
        self.assertEqual(summary["child"]["self_s"], summary["child"]["s"])


if __name__ == "__main__":
    unittest.main()
