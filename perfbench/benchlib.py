"""Pure helpers of perfbench/run.py: percentiles and the daemon's exit
stats. Kept apart from run.py so tests/test_benchlib.py can import them
without building anything."""

import re

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, p):
    """Linear-interpolation percentile of `values`, p in [0, 100] (the rule
    of themis::Percentile). Requires a non-empty input."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    if p <= 0:
        return xs[0]
    if p >= 100:
        return xs[-1]
    rank = p / 100.0 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (rank - lo) * (xs[hi] - xs[lo])


def supports(n, p):
    """True when a sample of n leaves at least MIN_BEYOND samples beyond
    the p-th percentile."""
    return n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9


def tail_percentile(n):
    """The highest percentile with at least MIN_BEYOND of n samples beyond
    it, or None when even the median has fewer."""
    for p in TAIL_PERCENTILES:
        if supports(n, p):
            return p
    return None


def summarize_timing(values):
    """Median, the highest supported tail percentile and the sample count."""
    n = len(values)
    tail = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0) if n else None,
        "tail_p": tail,
        "tail": percentile(values, tail) if tail is not None else None,
    }


# themis_arbiterd prints these lines on exit (examples/themis_arbiterd.cpp).
_EXIT_STATS = [
    (r"^rounds\s*:\s*(\d+)\s*$", ("rounds",)),
    (r"^sessions\s*:\s*(\d+) accepted, (\d+) peak, (\d+) evicted, "
     r"(\d+) refused\s*$",
     ("sessions_accepted", "sessions_peak", "sessions_evicted",
      "sessions_refused")),
    (r"^frames\s*:\s*(\d+) in, (\d+) out \((\d+) protocol errors, "
     r"(\d+) deadline misses\)\s*$",
     ("frames_in", "frames_out", "protocol_errors", "deadline_misses")),
    (r"^apps\s*:\s*(\d+) registered, (\d+) finished\s*$",
     ("apps_registered", "apps_finished")),
    (r"^grant digest\s*:\s*([0-9a-f]{16}) \((\d+) grants, (\d+) gpus\)\s*$",
     ("digest", "digest_grants", "digest_gpus")),
]


def parse_daemon_stats(text):
    """Parse themis_arbiterd's exit report into a dict of ints (the digest
    stays a hex string). Raises ValueError naming the first missing line."""
    lines = text.splitlines()
    stats = {}
    for pattern, keys in _EXIT_STATS:
        rx = re.compile(pattern)
        match = next((m for m in map(rx.match, lines) if m), None)
        if match is None:
            raise ValueError("daemon exit stats: no line matching %r" % pattern)
        for key, value in zip(keys, match.groups()):
            stats[key] = value if key == "digest" else int(value)
    return stats
