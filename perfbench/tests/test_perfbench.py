"""Self-tests of the benchmark: deterministic inputs, an output checker
that rejects wrong outputs, and metric declarations that match what each
workload emits.

    python3 -m unittest discover -s perfbench/tests

Builds paladin_sort and perfbench_tool first if needed (as run.py does).
Runs every workload at a reduced size, so the whole suite takes seconds
once the build exists.
"""

import array
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMALL = 1 << 16  # keys per test input


def small(name):
    """The workload's configuration at a test-sized input."""
    wl = dict(run.WORKLOADS[name])
    if wl["kind"] == "sort":
        wl.update(records=SMALL, memory=wl["memory"] // 64)
    else:
        wl.update(jobs=8)
    return wl


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        run.WORK.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(dir=run.WORK, prefix="selftest-"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def gen(self, dist, seed, name):
        path = self.tmp / name
        subprocess.run([str(run.TOOL), "gen-keys", "--dist", dist, "--records",
                        str(SMALL), "--seed", str(seed), "--out", str(path)],
                       check=True)
        return path

    # ---- inputs ----

    def test_same_seed_gives_identical_inputs(self):
        for dist in ("uniform", "zipf"):
            a = self.gen(dist, 7, f"{dist}-a.bin").read_bytes()
            b = self.gen(dist, 7, f"{dist}-b.bin").read_bytes()
            c = self.gen(dist, 8, f"{dist}-c.bin").read_bytes()
            self.assertEqual(len(a), 4 * SMALL)
            self.assertEqual(a, b, dist)
            self.assertNotEqual(a, c, dist)
        self.assertEqual(run.job_list(7), run.job_list(7))
        self.assertNotEqual(run.job_list(7), run.job_list(8))

    def test_zipf_keys_are_duplicate_heavy(self):
        keys = array.array("I", self.gen("zipf", 3, "z.bin").read_bytes())
        self.assertLessEqual(len(set(keys)), 1024)

    def test_job_list_mix_is_fixed(self):
        jobs = [dict(f.split("=") for f in line.split(","))
                for line in run.job_list(5).splitlines()[1:]]
        self.assertEqual(len(jobs), 64)
        self.assertEqual(sum(j["n"] == str(1 << 21) for j in jobs), 4)
        for algo in ("ext-psrs", "ext-multiway", "ext-distribution",
                     "ext-overpartition"):
            self.assertEqual(sum(j["algo"] == algo for j in jobs), 16)
        arrivals = [float(j["arrival"]) for j in jobs]
        self.assertEqual(arrivals, sorted(arrivals))

    # ---- output checker ----

    def check(self, keys):
        out = self.tmp / "out.bin"
        out.write_bytes(keys.tobytes())
        return run.check_sort_output(self.tmp / "in.bin", out)

    def test_checker_accepts_sorted_permutation_only(self):
        inp = self.gen("uniform", 11, "in.bin")
        keys = array.array("I", inp.read_bytes())
        good = array.array("I", sorted(keys))
        self.assertTrue(self.check(good)["ok"])

        self.assertFalse(self.check(good[:-1])["ok"], "truncated")
        torn = self.tmp / "out.bin"
        torn.write_bytes(good.tobytes()[:-1])
        self.assertFalse(run.check_sort_output(inp, torn)["ok"], "torn tail")

        unsorted = array.array("I", good)
        unsorted[10], unsorted[20] = unsorted[20], unsorted[10]
        if unsorted[10] == unsorted[20]:
            unsorted[10] += 1
        self.assertFalse(self.check(unsorted)["ok"], "unsorted")

        changed = array.array("I", good)
        changed[-1] = changed[-2]  # still sorted, same length
        self.assertNotEqual(changed, good)
        self.assertFalse(self.check(changed)["ok"], "one key changed")

    # ---- metric declarations ----

    def test_declared_names_match_emitted_names(self):
        end, layers = run.declared_metrics()
        for d in end + layers:
            self.assertRegex(d["name"], NAME)
        self.assertEqual({d["name"] for d in end}, set(run.END_TO_END))
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))

    def test_every_workload_emits_its_metrics(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                r = run.Run(name, 1, small(name))
                shutil.rmtree(r.work, ignore_errors=True)
                try:
                    end, _ = run.end_to_end(r, 0)
                    shutil.rmtree(r.work, ignore_errors=True)
                    layers, _ = run.per_layer(r, 0)
                finally:
                    shutil.rmtree(r.work, ignore_errors=True)
                self.assertEqual(r.failed, 0)
                self.assertEqual(set(end), set(run.END_TO_END))
                for metric, value in end.items():
                    self.assertGreater(value, 0, metric)
                self.assertEqual(set(layers), set(run.LAYER_METRICS[name]))


if __name__ == "__main__":
    unittest.main()
