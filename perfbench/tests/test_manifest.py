"""BENCHMARK.json and perfbench/design.json describe the same benchmark.

Run with `python3 perfbench/run.py --self-test` (or `python3 -m unittest
discover -s perfbench/tests`).
"""

import json
import re
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class ManifestTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.design = json.loads((ROOT / "perfbench" / "design.json").read_text())

    def test_benchmark_json_shape(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertIn(self.spec["run_seconds"], range(1, 61))
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in self.spec["end_to_end"])}])

    def test_design_covers_the_same_names(self):
        workloads = {w["name"] for w in self.spec["workloads"]}
        self.assertEqual(set(self.design["workloads"]), workloads)
        self.assertEqual(set(self.design["end_to_end"]),
                         {m["name"] for m in self.spec["end_to_end"]})
        self.assertEqual(set(self.design["per_layer"]),
                         {m["name"] for m in self.spec["per_layer"]})
        self.assertEqual(set(self.design["details"]), workloads)

    def test_every_layer_metric_maps_to_an_end_to_end_metric(self):
        workloads = {w["name"] for w in self.spec["workloads"]}
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        details = {d for ds in self.design["details"].values() for d in ds}
        for name, entry in self.design["per_layer"].items():
            self.assertEqual(name.split(".")[0], entry["layer"])
            for metric, workload, detail in entry["moves"]:
                self.assertIn(metric, e2e, name)
                self.assertIn(workload, workloads, name)
                if detail and " " not in detail:
                    self.assertIn(detail, details, name)
            self.assertLessEqual(set(entry["flat_on"]), workloads, name)

    def test_seeds(self):
        seeds = self.design["seeds"]
        self.assertNotEqual(seeds["default"], seeds["confirm"])


if __name__ == "__main__":
    unittest.main()
