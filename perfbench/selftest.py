"""The benchmark's own tests.

    python3 perfbench/selftest.py

Kept out of the package's test suite (the file name does not match pytest's
``test_*.py``) so that suite's run time does not change.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import unittest
from collections import Counter

import common

common.import_multihead()

import multihead.cli  # noqa: E402
import checks  # noqa: E402
import compare  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = multihead.cli.main(list(argv))
    assert code == 0, code
    return out.getvalue()


class JobListTest(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for workload in jobs.WORKLOADS:
            self.assertEqual(jobs.make_jobs(workload, 7, 2), jobs.make_jobs(workload, 7, 2))

    def test_every_seed_and_cycle_carries_the_same_work(self):
        for workload in jobs.WORKLOADS:
            size = len(jobs.CYCLES[workload](random.Random(0)))
            reference = None
            for seed in (1, 2):
                job_list = jobs.make_jobs(workload, seed, 2)
                for start in (0, size):
                    shapes = Counter(j.shape for j in job_list[start:start + size])
                    reference = reference or shapes
                    self.assertEqual(shapes, reference)
            self.assertNotEqual(jobs.make_jobs(workload, 1, 1), jobs.make_jobs(workload, 2, 1))

    def test_validate_r_stays_in_its_strata(self):
        for job in jobs.make_jobs("validate-oracle", 3, 1):
            r = float(job.argv[job.argv.index("--alpha") + 1].split("@")[0])
            nearest = min(jobs.VALIDATE_R, key=lambda c: abs(c - r))
            self.assertLessEqual(abs(r / nearest - 1.0), jobs.VALIDATE_R_JITTER)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        # root [0, 10] holds a [1, 4] (which holds g [2, 3]), b [5, 6] and
        # c [9, 12], which runs past the end of root and is clipped to [9, 10].
        start = [0.0, 1.0, 2.0, 5.0, 9.0]
        end = [10.0, 4.0, 3.0, 6.0, 12.0]
        parent = [-1, 0, 1, 0, 0]
        own = spans.self_times(start, end, parent)
        for got, want in zip(own, [5.0, 2.0, 1.0, 1.0, 3.0]):
            self.assertAlmostEqual(got, want)

    def test_overlapping_children_are_covered_once(self):
        own = spans.self_times([0.0, 1.0, 2.0], [10.0, 5.0, 6.0], [-1, 0, 0])
        self.assertAlmostEqual(own[0], 5.0)


class TailTest(unittest.TestCase):
    def test_tail_leaves_ten_jobs_above(self):
        value, percentile = worker.tail([float(i) for i in range(40)])
        self.assertEqual(value, 29.0)
        self.assertEqual(percentile, 75.0)


def _corrupt_wigner(job, text: str, index: int, value: float) -> str:
    if job.kind == "csv":
        lines = text.splitlines()
        x, y, _ = lines[index + 1].split(",")
        lines[index + 1] = f"{x},{y},{multihead.serialize.fmt(value)}"
        return "\n".join(lines) + "\n"
    out = json.loads(text)
    out["rows"][index][2] = value
    return json.dumps(out)


class CheckerTest(unittest.TestCase):
    def test_wigner_checker_rejects_a_corrupted_value(self):
        for fmt in ("csv", "json"):
            job = jobs._wigner_job(random.Random(5), 3, "coherent", fmt, 21)
            text = run_cli(job.argv)
            self.assertIsNone(checks.check(job, 0, text))
            rows = checks._wigner_rows(job, text)
            # The seed-chosen point, and the grid maximum that is always checked.
            for index in (job.check_points[0], int(abs(rows[:, 2]).argmax())):
                w = rows[index, 2]
                bad = _corrupt_wigner(job, text, index, w + 1e-6 * max(1.0, abs(w)))
                self.assertIn(f"W at row {index}", checks.check(job, 0, bad))

    def test_wigner_checker_rejects_missing_rows_and_nan(self):
        job = jobs._wigner_job(random.Random(5), 2, "incoherent", "csv", 21)
        text = run_cli(job.argv)
        self.assertIn("grid rows", checks.check(job, 0, text.rsplit("\n", 2)[0] + "\n"))
        first = text.splitlines()[1]
        self.assertIn("non-finite", checks.check(job, 0, text.replace(first, "0,0,nan", 1)))

    def _sweep_job(self, quantity):
        argv = ("sweep", "--heads", "2", "--family", "coherent", "--quantity", quantity,
                "--r-max", "3.0", "--theta", "0.4", "--format", "json")
        return jobs.Job("sweep", argv, 2, "coherent", quantity, 301, (7, 120, 250))

    def test_sweep_checker_rejects_a_corrupted_sample(self):
        for quantity in ("var-x1", "mandel-q"):
            job = self._sweep_job(quantity)
            text = run_cli(job.argv)
            self.assertIsNone(checks.check(job, 0, text))
            out = json.loads(text)
            r, v = out["samples"][job.check_points[1]]
            out["samples"][job.check_points[1]][1] = v * (1.0 + 1e-6)
            self.assertIn(f"at r={r!r}", checks.check(job, 0, json.dumps(out)))

    def test_sweep_checker_rejects_bad_grid_and_crossings(self):
        job = self._sweep_job("var-x1")
        out = json.loads(run_cli(job.argv))
        short = dict(out, samples=out["samples"][:-1])
        self.assertIn("grid", checks.check(job, 0, json.dumps(short)))
        outside = dict(out, crossings=[1.0, 0.5, 4.0])
        self.assertIn("crossings", checks.check(job, 0, json.dumps(outside)))

    def test_validate_checker_needs_every_row_ok(self):
        job = jobs.make_jobs("validate-oracle", 1, 1)[0]
        table = "\n".join(f"row{i} 1.0e-12  ok" for i in range(checks.VALIDATE_ROWS[job.family]))
        self.assertIsNone(checks.check(job, 0, table))
        self.assertIn("not ok", checks.check(job, 0, table.replace("ok", "MISMATCH", 1)))
        self.assertIn("exit code", checks.check(job, 1, table))


class TracerTest(unittest.TestCase):
    ARGV = (
        ("wigner", "--alpha", "2@0.3", "--heads", "3", "--family", "coherent",
         "--nx", "11", "--ny", "11", "--format", "json"),
        ("sweep", "--heads", "2", "--family", "coherent", "--quantity", "parity", "--r-max", "0.2"),
        ("validate", "--alpha", "1.5@0.2", "--heads", "3", "--family", "incoherent"),
    )

    def _traced_pass(self):
        tracer = spans.Tracer()
        tracer.install()
        try:
            outputs = [run_cli(argv) for argv in self.ARGV]
        finally:
            tracer.uninstall()
        return tracer, outputs

    def test_counts_repeat_and_originals_come_back(self):
        originals = {name: getattr(sys.modules["multihead." + name.split(".")[0]],
                                   name.split(".")[1]) for name in spans.SPANNED}
        plain = [run_cli(argv) for argv in self.ARGV]
        first, outputs = self._traced_pass()
        again, _ = self._traced_pass()
        self.assertEqual(outputs, plain)
        self.assertEqual(spans.exact_counts(first), spans.exact_counts(again))
        for name, original in originals.items():
            module, attr = name.split(".")
            self.assertIs(getattr(sys.modules["multihead." + module], attr), original)
        self.assertIs(multihead.cli.parse_amplitude, multihead.serialize.parse_amplitude)
        counts = spans.exact_counts(first)
        self.assertEqual(counts["cli.main.calls"], 3)
        self.assertEqual(counts["serialize.render_json.calls"], 2)  # outermost only
        self.assertEqual(counts["compare.validate_spec.calls"], 1)
        # 11² points × 3² head pairs; 21 parity samples × 2²; 21² + 1 points × 3 heads.
        self.assertEqual(counts["closed_form.wigner_pair_points"], 121 * 9 + 21 * 4 + 442 * 3)

    def test_uninstall_fails_loudly_when_a_wrapper_is_left(self):
        tracer = spans.Tracer()
        tracer.install()
        wrapper = multihead.closed_form.moment
        tracer.uninstall()
        multihead.closed_form.moment = wrapper
        try:
            with self.assertRaises(RuntimeError):
                spans.Tracer().uninstall()
        finally:
            multihead.closed_form.moment = wrapper.__perfbench_original__


class CompareTest(unittest.TestCase):
    BEFORE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]

    def _pairs(self, after):
        return list(zip(self.BEFORE, after))

    def test_verdicts(self):
        faster = [v * 0.8 for v in self.BEFORE]
        same = [v * 1.01 for v in reversed(self.BEFORE)]
        slower = [v * 1.3 for v in self.BEFORE]
        noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0]
        cases = [(faster, "improved"), (same, "no worse"), (slower, "regressed"),
                 (noisy, "unresolved")]
        for after, want in cases:
            self.assertEqual(compare.verdict(self.BEFORE, after, self._pairs(after), "lower", 0.1),
                             want)
        self.assertEqual(compare.verdict(self.BEFORE, slower, self._pairs(slower), "higher", 0.1),
                         "improved")
        self.assertEqual(compare.verdict(self.BEFORE, slower, self._pairs(slower), "lower"),
                         "worse")

    def test_stamp_difference_warns(self):
        runs = [{"stamp": {"numpy": "2.4.6", "seed": 1}}, {"stamp": {"numpy": "2.3.0", "seed": 2}}]
        warnings = compare.stamp_warnings(runs)
        self.assertEqual(len(warnings), 1)
        self.assertIn("numpy", warnings[0])


if __name__ == "__main__":
    unittest.main()
