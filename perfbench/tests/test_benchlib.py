"""Tests for perfbench/benchlib.py (the percentile rule and the parser of
themis_arbiterd's exit stats) and for run.py's check of a daemon repetition.

    python3 perfbench/tests/test_benchlib.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import benchlib  # noqa: E402
import run  # noqa: E402

EXIT_STATS = """\
PORT 40123
rounds           : 222
round latency    : p50 5.71 ms, p99 80.02 ms, max 95.40 ms
sessions         : 4 accepted, 4 peak, 1 evicted, 2 refused
frames           : 1499 in, 1508 out (3 protocol errors, 5 deadline misses)
apps             : 512 registered, 512 finished
grant digest     : 29c541df4b2f9579 (2412 grants, 6400 gpus)
"""


class PercentileTest(unittest.TestCase):
    def test_interpolates_like_the_program(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(benchlib.percentile(xs, 0), 1.0)
        self.assertEqual(benchlib.percentile(xs, 100), 4.0)
        self.assertEqual(benchlib.percentile(xs, 50), 2.5)
        self.assertAlmostEqual(benchlib.percentile(xs, 95), 3.85)
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertEqual(benchlib.tail_percentile(199), 90.0)
        self.assertEqual(benchlib.tail_percentile(200), 95.0)
        self.assertEqual(benchlib.tail_percentile(999), 95.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)
        self.assertTrue(benchlib.supports(222, 95.0))
        self.assertFalse(benchlib.supports(199, 95.0))

    def test_summary_reports_the_sample_count(self):
        s = benchlib.summarize_timing([float(i) for i in range(1, 201)])
        self.assertEqual(s["n"], 200)
        self.assertEqual(s["tail_p"], 95.0)
        self.assertAlmostEqual(s["p50"], 100.5)
        self.assertAlmostEqual(s["tail"], benchlib.percentile(range(1, 201), 95))
        few = benchlib.summarize_timing([1.0, 2.0])
        self.assertEqual(few["n"], 2)
        self.assertIsNone(few["tail_p"])
        self.assertIsNone(few["tail"])


class DaemonStatsTest(unittest.TestCase):
    def test_parses_every_counter(self):
        stats = benchlib.parse_daemon_stats(EXIT_STATS)
        self.assertEqual(stats, {
            "rounds": 222,
            "sessions_accepted": 4, "sessions_peak": 4,
            "sessions_evicted": 1, "sessions_refused": 2,
            "frames_in": 1499, "frames_out": 1508,
            "protocol_errors": 3, "deadline_misses": 5,
            "apps_registered": 512, "apps_finished": 512,
            "digest": "29c541df4b2f9579",
            "digest_grants": 2412, "digest_gpus": 6400,
        })

    def test_no_rounds_run(self):
        text = EXIT_STATS.replace(
            "round latency    : p50 5.71 ms, p99 80.02 ms, max 95.40 ms",
            "round latency    : (no rounds completed)").replace(
            "rounds           : 222", "rounds           : 0")
        self.assertEqual(benchlib.parse_daemon_stats(text)["rounds"], 0)

    def test_missing_or_mangled_lines_are_errors(self):
        for broken in (
                EXIT_STATS.replace("grant digest", "digest"),
                EXIT_STATS.replace("4 accepted", "four accepted"),
                EXIT_STATS.replace("29c541df4b2f9579", "29c541df"),
                ""):
            with self.assertRaises(ValueError):
                benchlib.parse_daemon_stats(broken)


class DaemonCheckTest(unittest.TestCase):
    def repetition(self, exit_stats, fleet_errors=0):
        daemon = benchlib.parse_daemon_stats(exit_stats)
        r = {k: daemon[k] for k in ("rounds", "digest", "digest_grants",
                                    "digest_gpus")}
        r.update(daemon=daemon, apps=512, agents_closed=4, agent_rounds=888,
                 errors=fleet_errors)
        return r

    def test_healthy_run_passes(self):
        clean = EXIT_STATS.replace("1 evicted, 2 refused",
                                   "0 evicted, 0 refused").replace(
            "(3 protocol errors, 5 deadline misses)",
            "(0 protocol errors, 0 deadline misses)")
        r = self.repetition(clean)
        errors = []
        run.check_daemon(r, errors)
        self.assertEqual(errors, [])
        self.assertEqual(run.attempts("daemon", r), (892, 0))

    def test_any_failed_operation_fails_the_check(self):
        r = self.repetition(EXIT_STATS, fleet_errors=1)
        errors = []
        run.check_daemon(r, errors)
        self.assertEqual(errors, [
            "failed operations on a fault-free loopback run: "
            "deadline_misses 5, sessions_evicted 1, protocol_errors 3, "
            "sessions_refused 2, fleet_error_frames 1"])
        self.assertEqual(run.attempts("daemon", r), (892, 12))


if __name__ == "__main__":
    unittest.main()
