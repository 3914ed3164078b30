"""Self-test of the perfbench checker and printer.

    python3 perfbench/test_perfbench.py

Feeds the checks outputs with known defects (an off-by-one dead count, a
tree-vs-VM mismatch, a non-zero exit, a missing fuzz summary) and asserts
each counts as a failure, and asserts that the timed and traced printers
emit every metric BENCHMARK.json lists, with its unit. Needs no build.
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402

SPEC = {"name": "jikes", "hand_written": False, "num_members": 1052,
        "target_static_dead_pct": 8.0}
PORT = {"name": "richards", "hand_written": True, "num_members": 40,
        "target_static_dead_pct": 0.0}

STATIC_OK = """no dead data members reported here

lines of code:            58296
classes:                  268 (161 used)
members in used classes:  1052
dead members:             84 (8.0%)
"""

DYNAMIC_LINES = [
    "  object space:           1173776 bytes (19919 objects)",
    "  dead data member space: 30544 bytes (2.6%)",
    "  high water mark:        845416 bytes",
    "  high water mark w/o dead members: 818264 bytes (3.2% reduction)",
]
DYNAMIC_OK = "\n".join(
    ["soundness check: 968 members dynamically read, 0 violations (OK)",
     "", "dynamic measurements:"] + DYNAMIC_LINES +
    ["", "profiler agreement with trace metrics: OK", ""])

FUZZ_OK = "dmm-fuzz: 25 programs, 0 failures (oracle: all)\n"


class CheckTest(unittest.TestCase):
    def test_expected_dead_rounds_half_up_and_ports_are_zero(self):
        self.assertEqual(checks.expected_dead(SPEC), 84)  # 84.16
        self.assertEqual(checks.expected_dead(
            dict(SPEC, num_members=10, target_static_dead_pct=25.0)), 3)
        self.assertEqual(checks.expected_dead(PORT), 0)

    def test_static_accepts_the_spec_counts(self):
        self.assertIsNone(checks.check_static(0, STATIC_OK, SPEC))

    def test_static_off_by_one_dead_count_fails(self):
        for dead in (83, 85):
            out = STATIC_OK.replace("84 (8.0%)", "%d (8.0%%)" % dead)
            self.assertIsNotNone(checks.check_static(0, out, SPEC))

    def test_static_wrong_member_count_fails(self):
        out = STATIC_OK.replace("used classes:  1052", "used classes:  1051")
        self.assertIsNotNone(checks.check_static(0, out, SPEC))

    def test_static_missing_stats_fails(self):
        self.assertIsNotNone(checks.check_static(0, "", SPEC))

    def test_dynamic_accepts_matching_reference(self):
        self.assertEqual(checks.dynamic_measurements(DYNAMIC_OK),
                         DYNAMIC_LINES)
        self.assertIsNone(checks.check_dynamic(0, DYNAMIC_OK, DYNAMIC_LINES))

    def test_dynamic_tree_vs_vm_mismatch_fails(self):
        tree = list(DYNAMIC_LINES)
        tree[1] = "  dead data member space: 30545 bytes (2.6%)"
        self.assertIsNotNone(checks.check_dynamic(0, DYNAMIC_OK, tree))
        self.assertIsNotNone(checks.check_dynamic(0, DYNAMIC_OK, None))

    def test_dynamic_unsound_or_disagreeing_profiler_fails(self):
        unsound = DYNAMIC_OK.replace("0 violations (OK)",
                                     "1 violations (FAILED)")
        self.assertIsNotNone(checks.check_dynamic(0, unsound, DYNAMIC_LINES))
        no_profiler = DYNAMIC_OK.replace(
            "profiler agreement with trace metrics: OK", "")
        self.assertIsNotNone(
            checks.check_dynamic(0, no_profiler, DYNAMIC_LINES))

    def test_fuzz_requires_zero_failures(self):
        self.assertIsNone(checks.check_fuzz(0, FUZZ_OK, 25))
        self.assertIsNotNone(checks.check_fuzz(
            0, FUZZ_OK.replace("0 failures", "1 failure"), 25))
        self.assertIsNotNone(checks.check_fuzz(0, FUZZ_OK, 24))

    def test_non_zero_exit_fails_every_check(self):
        for code in (1, 2, -11):
            self.assertIsNotNone(checks.check_static(code, STATIC_OK, SPEC))
            self.assertIsNotNone(
                checks.check_dynamic(code, DYNAMIC_OK, DYNAMIC_LINES))
            self.assertIsNotNone(checks.check_fuzz(code, FUZZ_OK, 25))

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(checks.tail(list(range(19))))
        self.assertEqual(checks.tail(list(range(20)))[0], "p50")
        self.assertEqual(checks.tail(list(range(100)))[0], "p90")
        self.assertEqual(checks.tail(list(range(1000)))[0], "p99")


class FakeTools:
    """Stands in for the built tools: every invocation "runs" in 10 ms
    and prints stdout with exit status code."""

    work = run.ROOT / ".bench_build" / "selftest"

    def __init__(self, code, stdout):
        self.code = code
        self.stdout = stdout
        self.probe_runs = 0
        self.probe_failures = []

    def invoke(self, argv):
        return 0.01, 0.008, 12.0, self.code, self.stdout


class FakeWorkload:
    setups = 0

    def setup(self, out):
        self.setups += 1

    def invocations(self):
        for name in ("a", "b"):
            yield name, [name], (lambda code, out:
                                 checks.check_fuzz(code, out, 25))

    def trace_counts(self):
        self.reps = 0

    def trace_rep(self):
        self.reps += 1

    def trace_metrics(self, walls):
        assert self.reps == run.MIN_PASSES
        assert walls == {"a": [0.01] * (run.MIN_PASSES * run.REPEATS),
                         "b": [0.01] * (run.MIN_PASSES * run.REPEATS)}
        return {"lexer.ms": 1.5}


def last_json(fn, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fn(*args)
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


class PrinterTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def assert_emits(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        for m in metrics:
            self.assertIn(m["name"], result["metrics"])
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_timed_run_prints_every_end_to_end_metric(self):
        workload = FakeWorkload()
        setup = [0.5]
        result = last_json(run.timed_run, workload, FakeTools(0, FUZZ_OK), 0,
                           setup, 2)
        self.assertEqual(workload.setups, 1)
        self.assertEqual(len(setup), 2)
        self.assert_emits(result, self.spec["end_to_end"])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in self.spec["end_to_end"]})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["attempted"],
                         2 * run.MIN_PASSES * run.REPEATS)

    def test_traced_run_prints_every_per_layer_metric(self):
        result = last_json(run.traced_run, FakeWorkload(),
                           FakeTools(0, FUZZ_OK), 0)
        self.assert_emits(result, self.spec["per_layer"])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in self.spec["per_layer"]})
        self.assertEqual(result["metrics"]["lexer.ms"]["value"], 1.5)

    def test_failed_invocations_are_counted(self):
        result = last_json(run.timed_run, FakeWorkload(),
                           FakeTools(1, FUZZ_OK), 0, [0.5], 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_benchmark_json_matches_the_declared_metrics(self):
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["per_layer"]], run.PER_LAYER)
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         set(run.SETUP_REPEATS))


if __name__ == "__main__":
    unittest.main()
