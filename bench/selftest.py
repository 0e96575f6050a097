"""Self-tests of the benchmark's own machinery.

Run from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import checks
import inputs
import run
from spans import Tracer

inputs.load_package()

from defcolor import cli, colorer, embedding  # noqa: E402
from defcolor.generate import gen_planar_girth5  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        tracer = Tracer()
        tracer.spans = [
            ("outer", 0.0, 10.0, -1, "job0"),
            ("mid", 1.0, 4.0, 0, "job0"),
            ("leaf", 2.0, 3.0, 1, "job0"),
            ("mid", 5.0, 7.0, 0, "job0"),
            ("outer", 20.0, 21.0, -1, "setup"),
        ]
        totals = tracer.totals({"job0"})
        self.assertEqual(totals["outer"].calls, 1)
        self.assertAlmostEqual(totals["outer"].self_s, 10.0 - 3.0 - 2.0)
        self.assertAlmostEqual(totals["mid"].self_s, (3.0 - 1.0) + 2.0)
        self.assertAlmostEqual(totals["leaf"].self_s, 1.0)
        self.assertEqual(tracer.totals()["outer"].calls, 2)

    def test_wrappers_bind_at_calling_module(self):
        original = embedding.girth
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(colorer.girth, original)
            tracer.job = "job0"
            colorer.color(gen_planar_girth5(3, 30))
        finally:
            tracer.uninstall()
        self.assertIs(colorer.girth, original)
        names = {span[0]: span for span in tracer.spans}
        gate = names["embedding.girth"]
        self.assertEqual(tracer.spans[gate[3]][0], "colorer.color")
        totals = tracer.totals({"job0"})
        color = totals["colorer.color"]
        self.assertLess(color.self_s, color.total_s)


class TailTest(unittest.TestCase):
    def test_ten_jobs_beyond(self):
        value, pct = run.tail_latency([float(x) for x in range(20, 0, -1)])
        self.assertEqual(value, 10.0)
        self.assertEqual(pct, 50.0)
        value, pct = run.tail_latency([float(x) for x in range(11)])
        self.assertEqual(value, 0.0)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_refuses_fewer_than_eleven_jobs(self):
        with self.assertRaises(ValueError):
            run.tail_latency([1.0] * 10)

    def test_key_means(self):
        samples = [(0, "color", 1.0, 0.0), (1, "color", 5.0, 0.0),
                   (0, "color", 3.0, 0.0), (0, "audit", 7.0, 0.0)]
        self.assertEqual(run.key_means(samples, 2), [2.0, 5.0, 2.0, 7.0])


class RunnerTest(unittest.TestCase):
    def test_missing_output_is_a_failed_job(self):
        doc = inputs._document("tiny", gen_planar_girth5(3, 30), 10)
        with tempfile.TemporaryDirectory() as tmp:
            runner = run.Runner(Path(tmp), [doc])
            self.assertEqual(runner.run(0, "audit").problems, [])
            # A run that exits 0 but writes nothing must not pass on the
            # first run's file.
            with mock.patch.object(cli, "main", return_value=0):
                result = runner.run(0, "audit")
        self.assertTrue(any("wrote no output" in p for p in result.problems))

    def test_baseline_worker_runs_jobs(self):
        doc = inputs._document("tiny", gen_planar_girth5(3, 30), 10)
        with tempfile.TemporaryDirectory() as tmp, run.Worker("baseline") as baseline:
            runner = run.Runner(Path(tmp), [doc], baseline)
            self.assertEqual(runner.run(0, "color").problems, [])
            reply = baseline.request(op="job", argvs=[["color", "--input", "missing"]])
        self.assertNotEqual(reply["codes"], [0])
        self.assertGreater(reply["latency"], 0.0)

    def test_digest_counts_the_jobs_it_covers(self):
        doc = inputs._document("tiny", gen_planar_girth5(3, 30), 10)
        checker = run.Checker([doc])
        checker.record((0, "audit"), run.JobResult(0.1, (b"[0]",), []))
        digest, covered = checker.digest([(0, "audit"), (0, "color"), (0, "audit")])
        self.assertEqual(covered, 1)
        self.assertNotEqual(digest, checker.digest([(0, "audit")])[0])


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from defcolor.graphio import serialize_graph
        cls.tmp = tempfile.TemporaryDirectory()
        tmp = Path(cls.tmp.name)
        cls.text = serialize_graph(gen_planar_girth5(7, 80), declare_girth5=True)
        cls.adj = checks.parse_adjacency(cls.text)
        (tmp / "g").write_text(cls.text)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["color", "--input", str(tmp / "g"), "--output",
                             str(tmp / "c"), "--trace", str(tmp / "t")]) == 0
            assert cli.main(["audit", "--input", str(tmp / "g"), "--format",
                             "csv", "--output", str(tmp / "a")]) == 0
        cls.coloring = (tmp / "c").read_text()
        cls.trace = (tmp / "t").read_text()
        cls.csv = (tmp / "a").read_text()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_program_outputs_pass(self):
        self.assertEqual(checks.coloring_problems(self.adj, self.coloring, (1, 10)), [])
        self.assertEqual(checks.replay_problems(self.trace, self.coloring), [])
        self.assertEqual(checks.audit_csv_problems(self.adj, 0, self.csv), [])

    def _flip(self, v: int) -> str:
        lines = self.coloring.splitlines()
        vertex, cls_ = lines[v + 1].split()
        lines[v + 1] = f"{vertex} {3 - int(cls_)}"
        return "\n".join(lines) + "\n"

    def test_one_flipped_vertex(self):
        classes, _ = checks.parse_coloring_doc(self.coloring)
        # Moving a defect-t vertex with two defect-1 neighbours into the
        # defect-1 class gives it two same-class neighbours.
        v = next(v for v, nbrs in enumerate(self.adj)
                 if classes[v] == 1 and sum(classes[u] == 0 for u in nbrs) >= 2)
        self.assertTrue(checks.coloring_problems(self.adj, self._flip(v), (1, 10)))
        for u in (v, 0):
            self.assertTrue(checks.replay_problems(self.trace, self._flip(u)))

    def test_one_altered_amount(self):
        rows = self.csv.split("\n")
        i = next(k for k, row in enumerate(rows) if row.startswith("R"))
        fields = rows[i].split(",")
        fields[5] = "1/3"
        rows[i] = ",".join(fields)
        self.assertTrue(checks.audit_csv_problems(self.adj, 0, "\n".join(rows)))


class DeterminismTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in run.WORKLOADS[1:]:
            with self.subTest(workload=name):
                first = run.build_workload(name, 5)
                second = run.build_workload(name, 5)
                digests = [d.sha256 for d in first.docs]
                self.assertEqual(digests, [d.sha256 for d in second.docs])
                self.assertEqual(first.schedule, second.schedule)

    def test_worker_build_matches_in_process_build(self):
        with tempfile.TemporaryDirectory() as tmp, run.Worker("baseline") as baseline:
            work, builds = run.build_inputs("gate-heavy", 5, Path(tmp), baseline)
        self.assertEqual(work.docs, inputs.gate_documents(5))
        for side in ("program", "baseline"):
            self.assertEqual(len(builds[side]), run.SETUP_BUILDS["gate-heavy"])
        self.assertTrue(builds["deterministic"])

    def test_other_seed_other_inputs(self):
        self.assertNotEqual([d.sha256 for d in inputs.gate_documents(5)],
                            [d.sha256 for d in inputs.gate_documents(6)])


if __name__ == "__main__":
    unittest.main()
