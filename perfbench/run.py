#!/usr/bin/env python3
"""perfbench: the end-to-end benchmark of the Themis simulator and of
themis_arbiterd.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Builds the program and the
benchmark's load generators into .bench_build (Release). Then repeats the
workload while --seconds allow, at least MIN_REPS times. Each repetition
is a fresh process on its own input, generated from a seed derived from
--seed. Every repetition's outputs are checked. The report goes to stdout;
its last line is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
repetitions; round latency pooled over them). With --trace 1 each
repetition is an untraced run followed by a traced run of the same input,
and the metrics are the per-layer ones (medians over the pairs).

Exit status: 0 when every check passed, 1 when one failed or a process
failed or hung, 2 on bad usage or when the tree cannot be built (then no
result is printed). See README.md.
"""

import argparse
import itertools
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
FLEET_STDERR = os.path.join(BUILD, "fleet.stderr")

DAEMON = {"cluster": "sim256", "round_interval": "2", "agents": "4"}
WORKLOADS = {
    "sim-4096": {"kind": "sim"},
    "sim-256-tiresias": {"kind": "sim"},
    "daemon-themis": {"kind": "daemon", "policy": "themis"},
    "daemon-tiresias": {"kind": "daemon", "policy": "tiresias"},
}
# Each repetition of a run gets its own input, generated from a seed
# derived from --seed, so the run's medians average over inputs as well as
# over the host's noise. At least MIN_REPS repetitions run.
MIN_REPS = 3
# Hang guard: a repetition (one program process, or one daemon plus its
# fleet) that has not finished by then is killed and the run fails.
REP_DEADLINE_S = 120.0
# Outcome figures an untraced and a traced run of one input must share.
SIM_OUTCOME = ("rounds", "events", "max_rho", "jain", "avg_act", "gpu_time",
               "digest", "digest_grants", "digest_gpus", "apps", "jobs")
DAEMON_OUTCOME = ("rounds", "digest", "digest_grants", "digest_gpus",
                  "apps", "jobs")


def input_seed(seed, i):
    """The trace seed of a run's i-th repetition."""
    return seed * 1000 + i


class RunFailed(Exception):
    """A process failed or hung; the message names the cause."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark's targets. Returns False
    when the tree cannot be built."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: %s is not a Themis source checkout" % ROOT)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "perfbench_sim", "perfbench_fleet", "perfbench_spawn",
                  "themis_arbiterd"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return False
    return True


def binary(*parts):
    return os.path.join(BUILD, *parts)


def kill(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def collect(proc, deadline, what):
    """Read proc's stdout to EOF and reap it. Returns (stdout text, exit
    status). Kills it past `deadline`."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    chunks = []
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise RunFailed("%s did not finish within %.0f s; killed"
                                % (what, REP_DEADLINE_S))
            if not sel.select(timeout=left):
                continue
            data = os.read(proc.stdout.fileno(), 1 << 16)
            if not data:
                break
            chunks.append(data)
    finally:
        sel.close()
    proc.stdout.close()
    return b"".join(chunks).decode(), proc.wait()


def spawn(cmd, **kwargs):
    """Start a measured program under perfbench_spawn, which reports its
    peak RSS as the last stdout line."""
    return subprocess.Popen([binary("perfbench_spawn")] + cmd,
                            stdout=subprocess.PIPE, **kwargs)


def peak_rss_mb(text, what):
    """Split perfbench_spawn's last line off a program's stdout."""
    body, _, last = text.rstrip("\n").rpartition("\n")
    key, _, kb = last.partition(" ")
    if key != "peak_rss_kb":
        raise RunFailed("%s: no peak RSS reported" % what)
    return body, int(kb) / 1024.0


def last_json(text, what):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise RunFailed("%s printed no result" % what)
    return json.loads(lines[-1])


def run_sim(workload, seed, trace):
    """One simulator process. Returns its result with the spawn instant."""
    cmd = [binary("perfbench_sim"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = spawn(cmd)
    try:
        out, rc = collect(proc, t0 + REP_DEADLINE_S, "perfbench_sim")
    finally:
        kill(proc)
    if rc != 0:
        raise RunFailed("perfbench_sim exited %d" % rc)
    out, rss = peak_rss_mb(out, "perfbench_sim")
    r = last_json(out, "perfbench_sim")
    r.update(spawn_mono=t0, peak_rss_mb=rss,
             round_ms=[us / 1000.0 for us in r.pop("round_us")])
    return r


def read_port(daemon, deadline):
    """The port from the daemon's first stdout line ("PORT N")."""
    line = b""
    sel = selectors.DefaultSelector()
    sel.register(daemon.stdout, selectors.EVENT_READ)
    try:
        while not line.endswith(b"\n"):
            if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                raise RunFailed("themis_arbiterd printed no port")
            byte = os.read(daemon.stdout.fileno(), 1)
            if not byte:
                raise RunFailed("themis_arbiterd exited before listening")
            line += byte
    finally:
        sel.close()
    return line.decode().split()[1]


def run_daemon(workload, seed, trace, replay):
    """One daemon process served by one fleet process until it drains."""
    policy = WORKLOADS[workload]["policy"]
    deadline = time.monotonic() + REP_DEADLINE_S
    t0 = time.monotonic()
    daemon = spawn(
        [binary("themis", "themis_arbiterd"), "--port", "0", "--print-port",
         "--min-agents", DAEMON["agents"], "--policy", policy,
         "--cluster", DAEMON["cluster"],
         "--round-interval", DAEMON["round_interval"]])
    fleet = None
    try:
        port = read_port(daemon, deadline)
        cmd = [binary("perfbench_fleet"), "--port", port, "--policy", policy,
               "--round-interval", DAEMON["round_interval"],
               "--seed", str(seed), "--trace", str(trace)]
        if replay:
            cmd.append("--replay")
        with open(FLEET_STDERR, "w+") as err:
            fleet = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err)
            fleet_out, fleet_rc = collect(fleet, deadline, "perfbench_fleet")
            err.seek(0)
            cause = err.read().strip().replace("\n", "; ")
        if fleet_rc != 0:
            # The daemon would wait at its registration barrier (or for
            # bids) forever; the finally clause kills it.
            raise RunFailed("perfbench_fleet exited %d (%s); themis_arbiterd "
                            "killed" % (fleet_rc, cause))
        daemon_out, daemon_rc = collect(daemon, deadline, "themis_arbiterd")
        if daemon_rc != 0:
            raise RunFailed("themis_arbiterd exited %d" % daemon_rc)
        daemon_out, rss = peak_rss_mb(daemon_out, "themis_arbiterd")
    finally:
        for proc in (fleet, daemon):
            if proc is not None:
                kill(proc)
    r = last_json(fleet_out, "perfbench_fleet")
    try:
        r["daemon"] = benchlib.parse_daemon_stats(daemon_out)
    except ValueError as e:
        raise RunFailed(str(e))
    r.update(spawn_mono=t0, peak_rss_mb=rss)
    return r


def check_sim(r, errors):
    if r["violations"]:
        errors.append("grant audit: %d violations, first: %s"
                      % (r["violations"], r["first_violation"]))
    if r["audited_rounds"] != r["rounds"]:
        errors.append("observer saw %d rounds of %d"
                      % (r["audited_rounds"], r["rounds"]))
    if r["unfinished"]:
        errors.append("%d of %d apps unfinished" % (r["unfinished"], r["apps"]))
    if r["total_apps"] != r["apps"]:
        errors.append("simulator saw %d apps, the trace held %d"
                      % (r["total_apps"], r["apps"]))


def check_daemon(r, errors):
    d = r["daemon"]
    for key in ("digest", "digest_grants", "digest_gpus", "rounds"):
        if r[key] != d[key]:
            errors.append("fleet %s %s != daemon %s %s" % (key, r[key], key, d[key]))
    if "replay_digest" in r:
        for key in ("digest", "digest_grants", "digest_gpus"):
            if r[key] != r["replay_" + key]:
                errors.append("fleet %s %s != in-process replay %s"
                              % (key, r[key], r["replay_" + key]))
    if not d["apps_registered"] == d["apps_finished"] == r["apps"]:
        errors.append("daemon registered %d and finished %d of %d apps"
                      % (d["apps_registered"], d["apps_finished"], r["apps"]))
    if r["agents_closed"] != int(DAEMON["agents"]):
        errors.append("%d of %s sessions closed"
                      % (r["agents_closed"], DAEMON["agents"]))
    # The fleet is local and bids at once, so no operation may fail.
    faults = daemon_faults(r)
    if any(faults.values()):
        errors.append("failed operations on a fault-free loopback run: " +
                      ", ".join("%s %d" % kv for kv in faults.items() if kv[1]))


def daemon_faults(r):
    """A daemon repetition's failed operations, by cause."""
    d = r["daemon"]
    faults = {k: d[k] for k in ("deadline_misses", "sessions_evicted",
                                "protocol_errors", "sessions_refused")}
    faults["fleet_error_frames"] = r["errors"]
    return faults


def attempts(kind, r):
    """(attempted, failed) operations of one repetition."""
    if kind == "sim":
        return r["apps"], r["unfinished"]
    return (r["agent_rounds"] + r["daemon"]["sessions_accepted"],
            sum(daemon_faults(r).values()))


def same_outcome(kind, a, b, what, errors):
    for key in SIM_OUTCOME if kind == "sim" else DAEMON_OUTCOME:
        if a[key] != b[key]:
            errors.append("%s differ in %s: %r != %r" % (what, key, a[key], b[key]))


def setup_s(r):
    return r["first_round_mono"] - r["spawn_mono"]


def jobs_per_s(r):
    end = r["run_end_mono"] if "run_end_mono" in r else r["drain_end_mono"]
    return r["jobs"] / (end - r["first_round_mono"])


def end_to_end(reps):
    lat = [x for r in reps for x in r["round_ms"]]
    timing = benchlib.summarize_timing(lat)
    if not benchlib.supports(timing["n"], 95.0):
        log("perfbench: only %d round samples; p95 has fewer than %d beyond"
            % (timing["n"], benchlib.MIN_BEYOND))
    metrics = {
        "setup_s": (statistics.median([setup_s(r) for r in reps]), "s"),
        "jobs_per_s": (statistics.median([jobs_per_s(r) for r in reps]), "1/s"),
        "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in reps]), "MB"),
        "round_p50_ms": (timing["p50"], "ms"),
        "round_p95_ms": (benchlib.percentile(lat, 95.0), "ms"),
    }
    notes = ["round latency: %d samples" % timing["n"]]
    if timing["tail_p"] is not None:
        notes.append("highest percentile with >= %d samples beyond: p%g = "
                     "%.6g ms" % (benchlib.MIN_BEYOND, timing["tail_p"],
                                  timing["tail"]))
    return metrics, notes


def per_layer(kind, plain, traced):
    """Per-layer metrics of one (untraced, traced) pair of runs."""
    zero = 0.0
    m = dict.fromkeys(LAYER_UNITS, zero)
    m["workload.next_s"] = traced["next_s"]
    m["workload.generate_s"] = traced["generate_s"]
    m["workload.jobs"] = traced["jobs"]
    m["workload.apps"] = traced["apps"]
    m["bench.trace_overhead_frac"] = 1.0 - jobs_per_s(traced) / jobs_per_s(plain)
    if kind == "sim":
        run_s = traced["run_end_mono"] - traced["run_start_mono"]
        self_s = run_s - traced["round_s"] - traced["next_s"] - traced["observer_s"]
        round_us = [ms * 1000.0 for ms in traced["round_ms"]]
        m.update({
            "sim.run_s": run_s,
            "sim.self_s": self_s,
            "sim.self_us_per_event": self_s / traced["events"] * 1e6,
            "sim.events": traced["events"],
            "sim.rounds": traced["rounds"],
            "sim.time_advances": traced["time_advances"],
            "sim.peak_live_apps": traced["peak_live_apps"],
            "metrics.summarize_s": traced["summarize_s"],
        })
        if traced["policy"] == "Themis":
            auctions = traced["auction_rounds"]
            m.update({
                "core.round_s": traced["round_s"],
                "core.round_p50_us": benchlib.percentile(round_us, 50.0),
                "core.round_p99_us": benchlib.percentile(round_us, 99.0),
                "core.offered_gpus": traced["offered_gpus"] / traced["rounds"],
                "core.grant_ratio": traced["granted_gpus"] / traced["offered_gpus"],
                "core.auction_frac": auctions / traced["rounds"],
                "core.participants_mean":
                    traced["auction_participants"] / auctions if auctions else zero,
            })
        else:
            m.update({
                "baselines.round_s": traced["round_s"],
                "baselines.round_p99_us": benchlib.percentile(round_us, 99.0),
            })
        return m
    d = traced["daemon"]
    replay_s = traced["begin_round_s"] + traced["finish_round_s"]
    drain_s = traced["drain_end_mono"] - traced["first_round_mono"]
    m.update({
        "server.begin_round_s": traced["begin_round_s"],
        "server.finish_round_s": traced["finish_round_s"],
        "server.finish_round_p95_us":
            benchlib.percentile(traced["finish_round_us"], 95.0),
        "server.rounds": d["rounds"],
        "server.frames_in": d["frames_in"],
        "server.frames_out": d["frames_out"],
        "server.io_s": drain_s - replay_s,
        "net.parse_s": traced["parse_s"],
        "net.encode_s": traced["encode_s"],
        "net.wait_s": traced["wait_s"],
        "net.bytes_in": traced["bytes_in"],
        "net.bytes_out": traced["bytes_out"],
        "net.hello_bytes": traced["hello_bytes"],
        "net.offer_bytes_mean": traced["offer_bytes_mean"],
        "net.grant_bytes_mean": traced["grant_bytes_mean"],
    })
    return m


LAYER_UNITS = {
    "sim.run_s": "s", "sim.self_s": "s", "sim.self_us_per_event": "us",
    "sim.events": "count", "sim.rounds": "count", "sim.time_advances": "count",
    "sim.peak_live_apps": "count",
    "core.round_s": "s", "core.round_p50_us": "us", "core.round_p99_us": "us",
    "core.offered_gpus": "count", "core.grant_ratio": "frac",
    "core.auction_frac": "frac", "core.participants_mean": "count",
    "baselines.round_s": "s", "baselines.round_p99_us": "us",
    "workload.next_s": "s", "workload.generate_s": "s",
    "workload.jobs": "count", "workload.apps": "count",
    "metrics.summarize_s": "s",
    "server.begin_round_s": "s", "server.finish_round_s": "s",
    "server.finish_round_p95_us": "us", "server.rounds": "count",
    "server.frames_in": "count", "server.frames_out": "count",
    "server.io_s": "s",
    "net.parse_s": "s", "net.encode_s": "s", "net.wait_s": "s",
    "net.bytes_in": "bytes", "net.bytes_out": "bytes",
    "net.hello_bytes": "bytes", "net.offer_bytes_mean": "bytes",
    "net.grant_bytes_mean": "bytes",
    "bench.trace_overhead_frac": "frac",
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not build():
        return 2

    kind = WORKLOADS[args.workload]["kind"]
    errors = []
    reps, pairs = [], []
    attempted = failed = 0

    def one(i, trace, replay):
        nonlocal attempted, failed
        seed = input_seed(args.seed, i)
        if kind == "sim":
            r = run_sim(args.workload, seed, trace)
            check_sim(r, errors)
        else:
            r = run_daemon(args.workload, seed, trace, replay)
            check_daemon(r, errors)
        a, f = attempts(kind, r)
        attempted += a
        failed += f
        return r

    start = time.monotonic()
    try:
        for i in itertools.count():
            t0 = time.monotonic()
            if args.trace:
                plain, traced = one(i, 0, False), one(i, 1, True)
                same_outcome(kind, plain, traced, "input seed %d: untraced "
                             "and traced runs" % input_seed(args.seed, i),
                             errors)
                pairs.append((plain, traced))
            else:
                # The in-process replay of the daemon runs on the first input.
                reps.append(one(i, 0, i == 0))
            now = time.monotonic()
            if errors or (i + 1 >= MIN_REPS and
                          now - start + (now - t0) > args.seconds):
                break
    except RunFailed as e:
        errors.append(str(e))
        attempted, failed = max(attempted, 1), max(failed, 1)

    if not reps and not pairs:
        print("perfbench %s seed %d: FAILED: %s" % (args.workload, args.seed,
                                                   "; ".join(errors)))
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    if args.trace:
        layers = [per_layer(kind, p, t) for p, t in pairs]
        metrics = {k: (statistics.median([m[k] for m in layers]), unit)
                   for k, unit in LAYER_UNITS.items()}
        notes = []
        n = len(pairs)
    else:
        metrics, notes = end_to_end(reps)
        n = len(reps)

    correct = not errors
    print("perfbench %s seed %d trace %d: %d repetitions in %.1f s"
          % (args.workload, args.seed, args.trace, n, time.monotonic() - start))
    for name, (value, unit) in metrics.items():
        print("  %-28s %16.6g %s" % (name, value, unit))
    print("  %-28s %16.6g frac (%d failed of %d attempted)"
          % ("failed_frac", failed / max(attempted, 1), failed, attempted))
    for note in notes:
        print("  " + note)
    for err in errors:
        print("  CHECK FAILED: " + err)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
