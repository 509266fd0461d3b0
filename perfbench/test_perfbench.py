#!/usr/bin/env python3
"""Tests of the benchmark itself: its known answers and its output shape.

    python3 -m unittest perfbench/test_perfbench.py     (from the repo root)

The first test to run builds the tools, as the benchmark's first run does.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

_BINS = None


def bins():
    global _BINS
    if _BINS is None:
        _BINS = run.build()[0]
    return _BINS


def check_farm(farm):
    code, out, err, _, _, _ = run.run_child(farm.check_cmd(farm.files),
                                         cwd=farm.dir)
    return run.check_ok(code, out, err, farm.expected), out.decode()


class FarmAnswers(unittest.TestCase):
    def test_flood_count_is_four_per_function_plus_planted(self):
        # Seed 3 plants one warning (3 % 3 == 0); seed 4 plants none.
        for seed, planted in ((3, 1), (4, 0)):
            farm = run.FarmRun(bins(), "farm-flood", seed, units=3, fns=2)
            self.assertEqual(farm.expected, 4 * 6 + planted)
            ok, out = check_farm(farm)
            self.assertTrue(ok, out)
            self.assertIn("qualifier errors: %d " % farm.expected, out)

    def test_clean_farm_warns_only_for_the_planted_initialization(self):
        for seed, planted in ((3, 1), (4, 0)):
            farm = run.FarmRun(bins(), "farm-clean", seed, units=3, fns=2)
            self.assertEqual(farm.expected, planted)
            ok, out = check_farm(farm)
            self.assertTrue(ok, out)


class ProveAnswers(unittest.TestCase):
    def prove(self, source):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            path = os.path.join(tmp, "bnd.stq")
            with open(path, "w") as f:
                f.write(source)
            p = subprocess.run([bins()["stqc"], "prove", "--qualfile", path],
                               capture_output=True, text=True)
        m = run.PROVE_VERDICT.search(p.stdout)
        self.assertIsNotNone(m, p.stdout + p.stderr)
        self.assertEqual(p.returncode, 0 if m.group(1) == "SOUND" else 1)
        return m.group(1) == "SOUND"

    def qualifier(self, k, j, shape):
        src = ("value qualifier bnd(int Expr E)\n  case E of\n"
               "    decl int Const C:\n      C, where C > %d\n" % k)
        if shape != "const":
            src += ("  | decl int Expr E1, E2:\n"
                    "      E1 %s E2, where bnd(E1) && bnd(E2)\n"
                    % ("+" if shape == "sum" else "*"))
        return src + "  invariant value(E) > %d\n" % j

    def test_rule_on_sound_and_unsound_cases(self):
        cases = [(7, 7, "const", True), (6, 7, "const", False),
                 (4, 0, "sum", True), (-4, 0, "sum", False),
                 (3, -5, "sum", False), (2, 0, "product", True),
                 (3, -5, "product", False)]
        for k, j, shape, sound in cases:
            self.assertEqual(gen.bound_sound(k, j, shape), sound)
            self.assertEqual(self.prove(self.qualifier(k, j, shape)), sound,
                             (k, j, shape))

    def test_generated_family_matches_the_rule(self):
        for n in range(1, 13):
            src, k, j, shape = gen.bound_qualifier(11, n)
            self.assertEqual(self.prove(src), gen.bound_sound(k, j, shape),
                             src)


class EditAnswers(unittest.TestCase):
    def test_error_count_follows_the_edits(self):
        unit = gen.EditUnit(5, 0)
        kinds = {unit.edit() for _ in range(2 * gen.SIGNATURE_EVERY)}
        self.assertEqual(kinds, {"body", "signature"})
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            path = os.path.join(tmp, "unit.c")
            with open(path, "w") as f:
                f.write(unit.source())
            p = subprocess.run([bins()["stqc"], "check", path],
                               capture_output=True, text=True)
        self.assertTrue(run.recheck_ok(
            {"status": "ok", "stdout": p.stdout, "stderr": p.stderr,
             "exit_code": p.returncode}, unit.expected_errors()), p.stdout)


class Output(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = layers.benchmark_spec()
        for w in spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                p = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", w["name"], "--seed", "2", "--seconds",
                     "1", "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True)
                self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                result = json.loads(p.stdout.strip().splitlines()[-1])
                self.assertEqual(sorted(result),
                                 ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertEqual(
                    {n: m["unit"] for n, m in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in spec[key]})

    def test_refuses_without_the_sources(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "farm-clean", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
