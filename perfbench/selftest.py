"""The benchmark's own tests.

    python3 perfbench/selftest.py

They take about a minute, most of it two traced runs and one untraced run of
``verify --pmax 20 --workers 1``, and are not part of Tier-1 (pytest collects
only ``test_*.py``).  The pinned counts are those of the seed code; a change
that alters what the program computes, such as pruning the enumeration, moves
them, and that change updates them here with the reason.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(1, str(run.ROOT / "src"))

VERIFY = ["verify", "--pmax", "20", "--workers", "1"]

SEED_COUNTS = {
    "words.lyndon.calls": 60,
    "words.lyndon.yielded": 333_039,
    "expansions.rotation_numerators.calls": 136_213,
    "numberfield.int_sign.calls": 2_563_312,
    "numberfield.refine.rounds": 468_483,
}
# admitted, checked at p = 20
SEED_ADMITTED_P20 = {"2": [52_377, 52_377], "golden": [750, 52_377], "tribonacci": [9_794, 52_377]}


def counts(trace: dict) -> dict:
    return {name: run.PER_LAYER[name][2](trace, None) for name in run.COUNT_METRICS}


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        env = run.command_env(0)
        cls.plain = run.Command(VERIFY, env)
        cls.traced = [run.Command(VERIFY, env, traced=True) for _ in range(2)]

    def test_outputs_are_correct_and_identical(self):
        expected = json.loads(run.EXPECTED.read_text())
        commands = [self.plain, *self.traced]
        run.check_outputs(commands, expected)
        for c in commands:
            self.assertEqual(c.errors, [])
            self.assertEqual(c.stdout, self.plain.stdout)

    def test_counts_repeat_exactly(self):
        first, second = (counts(run.merged_trace([c])) for c in self.traced)
        self.assertEqual(first, second)

    def test_counts_match_the_seed(self):
        trace = run.merged_trace([self.traced[0]])
        got = counts(trace)
        for name, value in SEED_COUNTS.items():
            self.assertEqual(got[name], value, name)
        for kind, value in SEED_ADMITTED_P20.items():
            self.assertEqual(trace["admitted"][f"{kind}/20"], value, kind)
        self.assertEqual(trace["missing"], [])


class MissingNameTest(unittest.TestCase):
    def test_gone_name_is_reported_missing(self):
        missing = tracer.install([("betahole.words", "no_such_function", tracer._lyndon)])
        self.assertEqual(missing, ["betahole.words:no_such_function"])

    def test_metrics_of_a_missing_name_are_none(self):
        trace = tracer.Tracer().snapshot()
        trace["missing"] = ["betahole.words:rotations"]
        side = {"wall_s": 2.0, "raw_wall_s": 2.0, "cpu_s": 1.0}
        values = run.layer_values(trace, {"plain": side, "traced": side})
        self.assertIsNone(values["words.rotations.calls"])
        self.assertIsNone(values["words.rotations.s"])
        self.assertEqual(values["words.lyndon.calls"], 0)
        self.assertEqual(values["trace.overhead_ratio"], 1.0)


class OutputCheckTest(unittest.TestCase):
    def fake(self, args, stdout, code=0):
        return SimpleNamespace(args=args, key=" ".join(args), stdout=stdout, code=code,
                               stderr="", errors=[])

    def test_verify_mismatch_is_rejected(self):
        expected = {" ".join(VERIFY): "0" * 64}
        c = self.fake(VERIFY, b"kind,p\nmismatches:\n", code=3)
        run.check_outputs([c], expected)
        self.assertEqual(len(c.errors), 3)  # exit code, digest, no "ok" line

    def test_table_disagreement_is_rejected(self):
        theorem = b"p,word,exact,float,method\n1,,0,0,TheoremWord\n2,01,1/3,0.3333,TheoremWord\n"
        closed = b"p,word,exact,float,method\n1,,0,0,ClosedForm\n2,,1/3,0.3334,ClosedForm\n"
        self.assertEqual(run.compare_tables(theorem, closed), (2, 1))
        self.assertEqual(run.compare_tables(theorem, theorem), (2, 0))


class CheckoutTest(unittest.TestCase):
    def copy_benchmark(self, dest: Path) -> None:
        shutil.copytree(run.HERE, dest / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", dest)

    def bench(self, root: Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "table-p1000",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=170,
        )

    def test_no_sources_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.copy_benchmark(Path(tmp))
            out = self.bench(Path(tmp))
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")

    def test_wrong_output_fails_the_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            self.copy_benchmark(root)
            shutil.copytree(run.ROOT / "src", root / "src",
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            cli = root / "src" / "betahole" / "cli.py"
            cli.write_text(cli.read_text().replace('"p,word,exact,float,method"',
                                                   '"p,word,exact,value,method"'))
            out = self.bench(root)
        self.assertEqual(out.returncode, 1)
        result = json.loads(out.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
