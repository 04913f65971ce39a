"""Self-tests of the benchmark harness (no gl2zeta run needed).

    python3 perfbench/selftest.py
"""

import json
import unittest

from harness import ROOT, beta_cdf, cli_answer, hd_median, judge, percentile, tail_latency, tail_percentile
from run import E2E_UNITS, repeats, trace_overhead
from tracing import PER_LAYER, Tracer, layer_metrics, self_times
from workloads import STRATA, generate


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(tail_percentile(10000), 99.9)
        self.assertEqual(tail_percentile(1000), 99.0)
        self.assertEqual(tail_percentile(999), 95.0)  # p99 would leave 9 beyond
        self.assertEqual(tail_percentile(200), 95.0)
        self.assertEqual(tail_percentile(100), 90.0)

    def test_none_when_too_few(self):
        self.assertIsNone(tail_percentile(99))
        self.assertIsNone(tail_percentile(0))
        self.assertIsNone(tail_latency([0.1] * 50, 50))

    def test_value_and_samples_beyond(self):
        samples = [float(i) for i in range(1, 1001)]
        p, value, beyond = tail_latency(samples, len(samples))
        self.assertEqual((p, value, beyond), (99.0, 990.0, 10))
        self.assertEqual(percentile(samples, 50), 500.0)

    def test_percentile_fixed_by_pass_length(self):
        # three passes of a 267-query list: p95 from the pass length, not p99
        samples = [float(i) for i in range(801)]
        p, _, beyond = tail_latency(samples, 267)
        self.assertEqual(p, 95.0)
        self.assertGreaterEqual(beyond, 10)


class Median(unittest.TestCase):
    def test_beta_cdf_matches_binomial_sum(self):
        # I_x(a, b) = P(Binomial(a+b-1, x) >= a) for whole a, b
        from math import comb
        for a, b, x in ((6, 6, 0.3), (5, 5, 0.5), (3, 8, 0.7), (160, 160, 0.48)):
            n = a + b - 1
            want = sum(comb(n, k) * x ** k * (1 - x) ** (n - k) for k in range(a, n + 1))
            self.assertAlmostEqual(beta_cdf(x, a, b), want, places=10)

    def test_hd_median(self):
        self.assertEqual(hd_median([2.5]), 2.5)
        self.assertAlmostEqual(hd_median([1.0, 2.0, 3.0, 4.0, 5.0]), 3.0)
        self.assertAlmostEqual(hd_median([float(i) for i in range(318)]), 158.5)
        skewed = [1.0, 1.0, 1.0, 2.0, 10.0]
        self.assertTrue(1.0 < hd_median(skewed) < 2.0)


class SelfTime(unittest.TestCase):
    # (name, start, end, parent, query)
    SPANS = [
        ("zeta:zeta_insert", 0.0, 10.0, -1, 0),
        ("reptheory:CharacterTable.__init__", 1.0, 4.0, 0, 0),
        ("cyclo:CycNumber.canonical_coeffs", 2.0, 3.0, 1, 0),
        ("cyclo:CycNumber.canonical_coeffs", 5.0, 9.0, 0, 0),
        ("topo:hom_count", 11.0, 12.5, -1, 1),
    ]

    def test_self_time_subtracts_direct_children(self):
        self.assertEqual(self_times(self.SPANS), [3.0, 2.0, 1.0, 4.0, 1.5])

    def test_layer_metrics_sum_self_times_and_count_spans(self):
        tr = Tracer()
        tr.spans = list(self.SPANS)
        m = layer_metrics(tr)
        self.assertEqual(m["zeta.generic_s"], 3.0)
        self.assertEqual(m["reptheory.table_build_s"], 2.0)
        self.assertEqual(m["cyclo.canonical_s"], 5.0)
        self.assertEqual(m["cyclo.canonical_calls"], 2)
        self.assertEqual(m["topo.hom_count_s"], 1.5)
        self.assertEqual(m["oracle.theta_s"], 0)
        self.assertEqual(sum(v for k, v in m.items() if k.endswith("_s")), 12.5 - 1.0)

    def test_wrappers_record_parents_and_queries(self):
        tr = Tracer()
        inner = tr.span("cyclo:CycNumber.to_float", lambda: 1)
        outer = tr.span("zeta:zeta", lambda: inner() + inner())
        count = tr.counter("reptheory.value_calls", lambda x: x)
        tr.query = 7
        self.assertEqual(outer(), 2)
        count(1)
        names = [(s[0], s[3], s[4]) for s in tr.spans]
        self.assertEqual(names, [("zeta:zeta", -1, 7), ("cyclo:CycNumber.to_float", 0, 7),
                                 ("cyclo:CycNumber.to_float", 0, 7)])
        self.assertEqual(tr.counters["reptheory.value_calls"], 1)


class ReferenceGate(unittest.TestCase):
    ARGV = "zeta --q 5 --s 2 --insert c4:1 --both --format json".split()
    OUT = '{"closed_form":"0","generic":"0","match":true,"q":5}\n'

    def test_matching_answer_passes_and_formatting_is_ignored(self):
        ref = cli_answer(self.ARGV, self.OUT)
        reformatted = '{"q": 5, "match": true, "generic": "0/1", "closed_form": "0"}'
        self.assertIsNone(judge(0, cli_answer(self.ARGV, reformatted), ref))

    def test_changed_answer_fails(self):
        ref = cli_answer(self.ARGV, self.OUT)
        changed = cli_answer(self.ARGV, self.OUT.replace('"generic":"0"', '"generic":"1/2"'))
        self.assertIn("generic", judge(0, changed, ref))

    def test_nonzero_exit_fails(self):
        ref = cli_answer(self.ARGV, self.OUT)
        self.assertEqual(judge(3, None, ref), "exit code 3")

    def test_internal_mismatch_and_missing_reference_fail(self):
        bad = cli_answer(self.ARGV, self.OUT.replace("true", "false"))
        self.assertEqual(judge(0, bad, bad), "match: false")
        self.assertIsNotNone(judge(0, cli_answer(self.ARGV, self.OUT), None))

    def test_ascii_table_compared_by_tokens(self):
        argv = ["chartable", "--q", "3"]
        a = cli_answer(argv, "irrep  dim\nlinear:0   1\n")
        b = cli_answer(argv, "irrep dim\n linear:0 1\n")
        self.assertEqual(a, b)


class Repeats(unittest.TestCase):
    def test_count_follows_seconds_only(self):
        self.assertEqual(repeats(30, 15, 2), 2)
        self.assertEqual(repeats(60, 15, 2), 4)
        self.assertEqual(repeats(30, 10, 3), 3)
        self.assertEqual(repeats(5, 10, 3), 3)

    def test_overhead_from_fastest_runs(self):
        plain = [[1.0, 2.0], [1.2, 1.9]]
        traced = [[1.5, 2.4], [1.3, 2.6]]
        overhead, noise = trace_overhead(plain, traced)
        self.assertAlmostEqual(overhead, (1.3 + 2.4) - (1.0 + 1.9))
        self.assertAlmostEqual(noise, 0.1)  # traced totals 3.9 and 3.9, untraced 3.0 and 3.1
        _, noise = trace_overhead(plain, [[1.5, 2.4], [1.3, 3.0]])
        self.assertAlmostEqual(noise, 0.4)


class Definition(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        with open(ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, PER_LAYER)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, E2E_UNITS)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(STRATA))

    def test_generation_is_seeded_and_stratified(self):
        pools = {s: [f"{s}/{i}" for i in range(5)] for s in STRATA["enumeration"]}
        a = generate("enumeration", 3, pools)
        self.assertEqual(a, generate("enumeration", 3, pools))
        self.assertNotEqual(a, generate("enumeration", 4, pools))
        per_stratum = {s: sum(1 for q in a if q.startswith(s + "/")) for s in pools}
        self.assertEqual(per_stratum, STRATA["enumeration"])


if __name__ == "__main__":
    unittest.main()
