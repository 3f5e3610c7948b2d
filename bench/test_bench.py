"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:  python3 -m unittest discover -s bench -v
"""

import json
import math
import shutil
import subprocess
import sys
import time
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

MODULES = run.import_ringline()
TABLE = {w: run.load_pool(w) for w in wl.WORKLOADS}


def entries(workload: str, *slots: str) -> list[dict]:
    return [e for e in TABLE[workload] if e["slot"] in slots]


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Generation(unittest.TestCase):
    def test_deck_is_deterministic_per_seed_and_differs_across_seeds(self):
        for workload in wl.WORKLOADS:
            pool = TABLE[workload]
            first = [e["key"] for e in wl.make_deck(workload, 5, pool)]
            self.assertEqual(first, [e["key"] for e in wl.make_deck(workload, 5, pool)])
            self.assertNotEqual(first, [e["key"] for e in wl.make_deck(workload, 6, pool)])

    def test_pool_is_deterministic_per_seed_and_differs_across_seeds(self):
        for workload in ("cli-session", "line-queries"):
            keys = [e["key"] for e in wl.generate_pool(workload, 11)]
            self.assertEqual(keys, [e["key"] for e in wl.generate_pool(workload, 11)])
            self.assertNotEqual(keys, [e["key"] for e in wl.generate_pool(workload, 12)])

    def test_committed_table_is_the_generated_pool(self):
        for workload in wl.WORKLOADS:
            generated = [(e["slot"], e["key"]) for e in wl.generate_pool(workload)]
            self.assertEqual(generated, [(e["slot"], e["key"]) for e in TABLE[workload]])

    def test_deck_composition_is_fixed(self):
        for workload in wl.WORKLOADS:
            picks = sum(n for _, n in wl.SLOTS[workload].values())
            for seed in (0, 1, 99):
                self.assertEqual(len(wl.make_deck(workload, seed, TABLE[workload])), picks)


class CeilingGuard(unittest.TestCase):
    def test_no_seed_generates_an_input_above_the_ceiling(self):
        for workload in wl.WORKLOADS:
            for seed in range(40):
                for entry in wl.generate_pool(workload, seed):
                    self.assertLessEqual(wl.predicted_cost(workload, entry["op"]),
                                         wl.CEILING[workload], entry["key"])

    def test_guard_rejects_inputs_that_would_hang(self):
        self.assertFalse(wl.admit("cli-session", {"argv": ["factor", str(2**61 - 1)]}))
        self.assertFalse(wl.admit("cli-session", {"argv": ["perp", "210", "0", "0"]}))
        self.assertFalse(wl.admit("cli-session", {"argv": ["verify", "105"]}))
        self.assertFalse(wl.admit("verify-sweep", {"check": "theorem1", "d": 105}))
        self.assertFalse(wl.admit("line-queries", {"fn": "perp_as_point_union", "d": 330,
                                                   "args": [[0, 0]]}))
        self.assertTrue(wl.admit("cli-session", {"argv": ["factor", "9999999967"]}))


class ClosedForms(unittest.TestCase):
    def test_against_the_program(self):
        ring, projline, symplectic = (MODULES[k] for k in ("ring", "projline", "symplectic"))
        for d in range(2, 64):
            m = ring.make_modulus(d)
            self.assertEqual(wl.line_size(d), len(projline.enumerate_points(m)), d)
            n, p, tried = d, 2, 0  # the loop make_modulus runs
            while p * p <= n:
                tried += 1
                while n % p == 0:
                    n //= p
                p += 1
            self.assertEqual(wl.trial_divisions(d), tried, d)
            if m.square_free and d <= 30:
                sizes = [symplectic.perp_set((b, c), m).size for b in range(d) for c in range(d)]
                self.assertEqual(wl.witness_pairs(d), sum(sizes), d)
                v = (d // m.primes[0], 0)
                self.assertEqual(wl.points_through(v, d), len(projline.points_containing(v, m)))

    def test_work_counts(self):
        theorem = wl.work_counts("verify-sweep", {"op": {"check": "theorem1", "d": 30}})
        self.assertEqual(theorem["pairs"], 30**4)
        self.assertEqual(theorem["points_scanned"], 30**2 * 72)
        group = wl.work_counts("verify-sweep", {"op": {"check": "group", "d": 16}})
        self.assertEqual(group["group_products"], 16**4)
        factor = wl.work_counts("cli-session", {"op": {"argv": ["factor", "9999999967"]}})
        self.assertEqual(factor["trial_divisions"], math.isqrt(9999999967) - 1)


class Checking(unittest.TestCase):
    def run_line_queries(self, deck, tracer=None):
        moduli, points = run.build_setup(MODULES, (105,), (105,))
        prepared = run.prepare("line-queries", deck, MODULES, moduli, points)
        tally = run.Tally()
        if tracer is None:
            run.inprocess_pass("line-queries", prepared, tally)
        else:
            tr.install(tracer, MODULES)
            try:
                run.inprocess_pass("line-queries", prepared, tally, tracer=tracer)
            finally:
                tracer.uninstall()
        return tally

    def small_deck(self):
        slots = [f"{fn}:105" for fn in wl.QUERY_PICKS]
        return [e for e in TABLE["line-queries"] if e["slot"] in slots][::8]

    def test_table_outputs_pass(self):
        tally = self.run_line_queries(self.small_deck())
        self.assertGreater(tally.attempted, 10)
        self.assertEqual(tally.failures, [])

    def test_planted_wrong_digest_is_a_named_failure(self):
        deck = [dict(e) for e in self.small_deck()]
        deck[3]["sha256"] = "0" * 64
        tally = self.run_line_queries(deck)
        self.assertEqual(len(tally.failures), 1)
        self.assertIn(deck[3]["key"], tally.failures[0])

    def test_planted_wrong_verify_status_is_a_named_failure(self):
        moduli, points = run.build_setup(MODULES, (15,), (15,))
        entry = dict(entries("verify-sweep", "theorem2:15")[0], status="skip")
        prepared = run.prepare("verify-sweep", [entry], MODULES, moduli, points)
        tally = run.Tally()
        run.inprocess_pass("verify-sweep", prepared, tally)
        self.assertEqual(tally.failures, ["theorem2 d=15: status 'pass', expected 'skip'"])

    def test_planted_wrong_cli_output_is_a_named_failure(self):
        entry = dict(entries("cli-session", "verify")[0])
        good, bad = run.Tally(), run.Tally()
        run.cli_pass([entry], good)
        run.cli_pass([dict(entry, sha256="f" * 64)], bad)
        self.assertEqual(good.failures, [])
        self.assertEqual(len(bad.failures), 1)
        self.assertIn(entry["key"], bad.failures[0])

    def test_untraced_and_traced_give_the_same_outputs(self):
        deck = self.small_deck()
        self.assertEqual(self.run_line_queries(deck).failures, [])
        t = tr.Tracer()
        self.assertEqual(self.run_line_queries(deck, t).failures, [])
        self.assertGreater(t.calls["projline.points_containing"], 0)
        argv = entries("cli-session", "verify")[0]["op"]["argv"]
        plain = run.run_request(argv)
        dump = run.OUT / "test-request-trace.json"
        run.OUT.mkdir(exist_ok=True)
        traced = run.run_request(argv, dump)
        self.assertEqual(plain[:2], traced[:2])
        self.assertGreater(json.loads(dump.read_text())["calls"]["cli.cmd.verify"], 0)
        dump.unlink()


class Tracing(unittest.TestCase):
    def test_self_time_excludes_children(self):
        ns = types.SimpleNamespace()
        ns.inner = lambda: busy(0.03)
        ns.leaf = lambda: busy(0.01)

        def outer():
            busy(0.02)
            ns.inner()
            ns.leaf()
            ns.counted()

        ns.outer = outer
        ns.counted = lambda: None
        t = tr.Tracer()
        t.patch(ns, "outer", "outer", tr.SPAN)
        t.patch(ns, "inner", "inner", tr.SPAN)
        t.patch(ns, "leaf", "leaf", tr.TIMED)
        t.patch(ns, "counted", "counted", tr.COUNT)
        ns.outer()
        t.uninstall()
        self.assertIs(ns.outer, outer)
        self.assertAlmostEqual(t.self_s("outer"), 0.02, delta=0.008)
        self.assertAlmostEqual(t.self_s("inner"), 0.03, delta=0.008)
        self.assertAlmostEqual(t.self_s("leaf"), 0.01, delta=0.008)
        self.assertEqual(t.calls["counted"], 1)
        (outer_span, inner_span) = t.spans
        self.assertEqual(outer_span[3], -1)
        self.assertEqual(inner_span[3], 0)
        self.assertAlmostEqual(t.covered_ns / 1e9, 0.06, delta=0.01)


class Bare(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = run.OUT / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "line-queries", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
