"""Tests for the driver's own logic: the percentile rule, report parsing and
the per-op output checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import run

REPORT = """\
26 cores, 3 layers, 38 flows — 3 feasible points, 12 rejected
partition cache: 22 hits (9 base lookups, 13 warm-started), 1 cold, 5 in-place SPG derivations
placement LP: 32 axis solves (24 warm-started, 8 cold), 2503 simplex pivots, ~1455 pivots saved
switches  total_mW  latency_cyc  max_ill
       3     270.4         2.21        4
       5     266.8         2.08        6
       9     281.0         2.05        9

best-power topology:
switch 0 (layer 0, 4x4): cores [arm, dsp0]
"""

EXPECTED = {
    "max_ill": 25,
    "summary": {
        "feasible": 3,
        "rejected": 12,
        "best_power_mw": 266.7618,
        "best_latency_cyc": 2.0526,
        "counters": {
            "partition.warm": 13,
            "partition.cold": 1,
            "partition.spg_derivations": 5,
            "lp.warm_solves": 24,
            "lp.cold_solves": 8,
            "lp.pivots": 2503,
            "lp.pivots_saved": 1455,
            "anneal.runs": 0,
            "anneal.swap_attempts": 0,
        },
    },
}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank_and_samples_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 0.9), (90, 10))
        self.assertEqual(run.percentile(values, 0.5), (50, 50))
        self.assertEqual(run.percentile([7.0], 0.9), (7.0, 0))

    def test_tail_keeps_ten_samples_beyond_it(self):
        self.assertEqual(run.tail_quantile(300), 0.9)
        self.assertEqual(run.tail_quantile(100), 0.9)
        self.assertAlmostEqual(run.tail_quantile(99), 1 - 10 / 99)
        self.assertAlmostEqual(run.tail_quantile(40), 0.75)
        for n in (20, 40, 99, 100, 300):
            _, beyond = run.percentile(range(n), run.tail_quantile(n))
            self.assertGreaterEqual(beyond, 10, n)

    def test_tail_never_drops_below_the_median(self):
        self.assertEqual(run.tail_quantile(10), 0.5)
        self.assertEqual(run.tail_quantile(1), 0.5)

    def test_detrending_keeps_spikes_and_drops_drift(self):
        # A host that slows by half over the run, with one op stalled.
        values = [1.0 + 0.01 * i for i in range(50)]
        values[25] *= 1.5
        d = run.detrended(values)
        self.assertAlmostEqual(d[25], 1.5, delta=0.01)
        for i, x in enumerate(d):
            if i != 25:
                self.assertAlmostEqual(x, 1.0, delta=0.06, msg=i)
        self.assertEqual(run.detrended([3.0]), [1.0])
        self.assertEqual(run.detrended([1.0, 2.0, 4.0], width=1), [0.5, 0.8, 2.0])


class ReportParsing(unittest.TestCase):
    def test_parses_header_table_and_counters(self):
        r = run.parse_report(REPORT)
        self.assertEqual((r["cores"], r["feasible"], r["rejected"]), (26, 3, 12))
        self.assertEqual(r["rows"][1], (5, 266.8, 2.08, 6))
        self.assertEqual(r["counters"]["partition.warm"], 13)
        self.assertEqual(r["counters"]["lp.pivots_saved"], 1455)
        self.assertNotIn("anneal.runs", r["counters"])

    def test_tempered_line_and_infeasible_report(self):
        text = REPORT.replace(
            "switches  total_mW",
            "tempered layout: 48 anneals, 384 replica swaps attempted (64% accepted)\nswitches  total_mW",
        )
        self.assertEqual(run.parse_report(text)["counters"]["anneal.swap_attempts"], 384)
        empty = "4 cores, 2 layers, 3 flows — 0 feasible points, 9 rejected\nswitches  total_mW  latency_cyc  max_ill\n\n"
        self.assertEqual(run.parse_report(empty)["rows"], [])

    def test_rejects_malformed_reports(self):
        for bad in ("", "error: no such file\n", REPORT.split("switches")[0]):
            with self.assertRaises(ValueError):
                run.parse_report(bad)


class OpChecks(unittest.TestCase):
    def test_a_matching_op_passes(self):
        self.assertEqual(run.check_op(0, REPORT, True, EXPECTED), [])

    def test_each_disagreement_is_reported(self):
        self.assertEqual(run.check_op(1, REPORT, True, EXPECTED), ["exit status 1"])
        self.assertTrue(run.check_op(0, REPORT.replace("266.8", "268.8"), True, EXPECTED))
        self.assertTrue(run.check_op(0, REPORT.replace("3 feasible", "4 feasible"), True, EXPECTED))
        self.assertTrue(run.check_op(0, REPORT.replace("2503 simplex", "2504 simplex"), True, EXPECTED))
        self.assertTrue(run.check_op(0, REPORT.replace("       9\n", "      26\n"), True, EXPECTED))
        self.assertTrue(run.check_op(0, REPORT, False, EXPECTED))
        tight = dict(EXPECTED, max_ill=8)
        self.assertIn("a point exceeds max_ill", run.check_op(0, REPORT, True, tight))


if __name__ == "__main__":
    unittest.main()
