#!/usr/bin/env python3
"""The bench gate checker (bench/run_benches.py --check) on recorded Google
Benchmark JSON. Each fixture here is a passing run of one gated bench; a case
edits a copy to break one check and asserts the gate's verdict (the exit
status --check returns for it) and the FAIL or SKIPPED line. No bench runs.

Run: python3 tests/bench_gates/test_bench_gates.py
"""
import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.join(HERE, "..", "..", "bench"))
import run_benches  # noqa: E402

TOL = 0.5


def fixture(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def gate(bench):
    return next(g for g in run_benches.GATES if g.bench == bench)


def row(doc, name):
    return next(b for b in doc["benchmarks"] if b["name"] == name)


E15, E5, E13 = "bench_e15_read_mostly", "bench_e5_dataspace", "bench_e13_planner"
E20, E21 = "bench_e20_overload", "bench_e21_replication"
FIXTURES = {E15: "e15.json", E5: "e5.json", E13: "e13.json", E20: "e20.json",
            E21: "e21.json"}


class BenchGates(unittest.TestCase):
    def run_gate(self, bench, edit=None, edit_base=None):
        base = fixture(FIXTURES[bench])
        cur = copy.deepcopy(base)
        if edit:
            edit(cur)
        if edit_base:
            edit_base(base)
        has_base = gate(bench).baseline is not None
        return run_benches.compare(gate(bench), cur, base if has_base else None, TOL)

    def assert_verdict(self, result, status, line):
        got_status, lines = result
        self.assertIn(line, lines)
        self.assertEqual(got_status, status, lines)

    def test_fixtures_pass_every_gate(self):
        for bench in FIXTURES:
            status, lines = self.run_gate(bench)
            self.assertEqual(status, 0, lines)
            self.assertFalse([l for l in lines if l.startswith(("FAIL", "SKIPPED"))])

    def test_band_breach_higher_is_better(self):
        def slow(d):
            row(d, "BM_Global_R50/1/real_time")["ops_per_sec"] = 0.8e6
        self.assert_verdict(self.run_gate(E15, slow), 1,
            "FAIL: BM_Global_R50/1/real_time: ops_per_sec fell to 0.40x of "
            "baseline (800000.00 vs 2000000.00, band 0.50)")

    def test_band_breach_lower_is_better(self):
        def slow(d):
            row(d, "BM_AssertRetract/1000")["real_time"] = 360.0
        self.assert_verdict(self.run_gate(E5, slow), 1,
            "FAIL: BM_AssertRetract/1000: real_time grew to 2.00x of baseline "
            "(360.00 vs 180.00, band 1.50)")

    def test_speedup_note_reads_base_over_current(self):
        def fast(d):
            row(d, "BM_AssertRetract/1000")["real_time"] = 60.0
        self.assert_verdict(self.run_gate(E5, fast), 0,
            "note: BM_AssertRetract/1000: 3.00x faster than baseline; "
            "consider refreshing bench/BENCH_e5_baseline.json")

    def test_missing_row(self):
        def drop(d):
            d["benchmarks"].remove(row(d, "BM_MatchBySecond/1000"))
        self.assert_verdict(self.run_gate(E5, drop), 1,
            "FAIL: BM_MatchBySecond/1000: row missing from current run")

    def test_new_row(self):
        def grow(d):
            extra = copy.deepcopy(row(d, "BM_MatchBySecond/1000"))
            extra["name"] = "BM_MatchBySecond/10000"
            d["benchmarks"].append(extra)
        self.assert_verdict(self.run_gate(E5, grow), 1,
            "FAIL: BM_MatchBySecond/10000: row not in committed baseline; "
            "regenerate bench/BENCH_e5_baseline.json to cover it")

    def test_error_row(self):
        def err(d):
            row(d, "BM_ReplicatedCommit/1/real_time").update(
                error_occurred=True, error_message="follower diverged")
        self.assert_verdict(self.run_gate(E21, err), 1,
            "FAIL: BM_ReplicatedCommit/1/real_time: follower diverged")

    def test_broken_version_equals_writes(self):
        def publish(d):
            row(d, "BM_Sharded_R100/2/real_time")["version"] = 3.0
        self.assert_verdict(self.run_gate(E15, publish), 1,
            "FAIL: BM_Sharded_R100/2/real_time: version 3.0 != writes 0.0")

    def test_missing_derived_column(self):
        def strip(d):
            del row(d, "BM_Sharded_R50/1/real_time")["vs_global_t1"]
        self.assert_verdict(self.run_gate(E15, strip), 1,
            "FAIL: BM_Sharded_R50/1/real_time: column 'vs_global_t1' missing")

    def test_e15_scaling_gate(self):
        def collapse(d):
            row(d, "BM_Sharded_R50/4/real_time")["scaling_eff"] = 0.12
        self.assert_verdict(self.run_gate(E15, collapse), 1,
            "FAIL: BM_Sharded_R50/4/real_time: scaling_eff 0.120 below gate "
            "0.25 (sharded engine stopped scaling)")

    def test_e13_compiled_tier_gate(self):
        def slow(d):
            row(d, "BM_GuardHeavyCompiled/16384")["real_time"] = 60000.0
        self.assert_verdict(self.run_gate(E13, slow), 1,
            "FAIL: BM_GuardHeavyInterpreted/16384: real_time / "
            "BM_GuardHeavyCompiled/16384 1.500 below gate 2 (compiled tier "
            "lost its lead)")

    def test_e20_plateau_gate(self):
        def cliff(d):
            row(d, "BM_Overload/200/iterations:1/real_time")["goodput_vs_peak"] = 0.5
        self.assert_verdict(self.run_gate(E20, cliff), 1,
            "FAIL: BM_Overload/200/iterations:1/real_time: goodput_vs_peak "
            "0.500 below gate 0.7 (degradation curve is a cliff, not a plateau)")

    def test_e20_needs_sheds(self):
        def no_sheds(d):
            row(d, "BM_Overload/200/iterations:1/real_time")["sheds_total"] = 0.0
        self.assert_verdict(self.run_gate(E20, no_sheds), 1,
            "FAIL: BM_Overload/200/iterations:1/real_time: sheds_total 0.000 "
            "below gate 1 (admission never shed at 2x, plateau untested)")

    def test_e21_overhead_gate(self):
        def slow(d):
            row(d, "BM_ReplicatedCommit/2/real_time")["vs_0f"] = 0.8
        self.assert_verdict(self.run_gate(E21, slow), 1,
            "FAIL: BM_ReplicatedCommit/2/real_time: vs_0f 0.800 below gate 0.9 "
            "(shipping is on the commit path)")

    def test_nproc_1_skips_parallel_gates(self):
        def one_core(d):
            d["context"]["num_cpus"] = 1
            for b in d["benchmarks"]:  # collapsed, but not gated on 1 core
                for col in ("scaling_eff", "vs_0f"):
                    if col in b:
                        b[col] = 0.1
        for bench, col, floor in ((E15, "scaling_eff", "0.25"),
                                  (E21, "vs_0f", "0.9")):
            self.assert_verdict(self.run_gate(bench, one_core, one_core), 0,
                f"SKIPPED: {col} >= {floor} (nproc=1: no row has the cores "
                "it needs, its threads would time-share)")

    def test_host_mismatch_skips_band_only(self):
        def other_host(d):
            d["context"]["mhz_per_cpu"] = 3000
            row(d, "BM_AssertRetract/1000")["real_time"] = 900.0
        skipped = ("SKIPPED: real_time band (host mismatch: baseline num_cpus=4 "
                   "mhz=2100 caches=L1D=48K/L1I=32K/L2U=2048K/L3U=307200K, this "
                   "host num_cpus=4 mhz=3000 caches=L1D=48K/L1I=32K/L2U=2048K/"
                   "L3U=307200K)")
        self.assert_verdict(self.run_gate(E5, other_host), 0, skipped)

        def other_host_lost_row(d):
            other_host(d)
            d["benchmarks"].remove(row(d, "BM_MatchBySecond/1000"))
        self.assert_verdict(self.run_gate(E5, other_host_lost_row), 1,
            "FAIL: BM_MatchBySecond/1000: row missing from current run")


if __name__ == "__main__":
    unittest.main()
