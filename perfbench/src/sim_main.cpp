// perfbench_sim — one simulator run of a perfbench workload.
//
//   perfbench_sim --workload sim-4096|sim-256-tiresias --seed N --trace 0|1
//
// Streams the workload's trace from the generator (seeded by --seed) into
// the simulator, audits every round, and prints one JSON line: the run's
// outcome figures, its grant digest and audit result, every RunRound
// latency, and with --trace 1 the per-layer times taken around
// Simulator::Run, RunRound, TraceReader::Next and the metric summaries.
// Exit status 0 means the run completed; run.py judges its outputs.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>

#include "harness.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace {

using namespace themis;
using perfbench::MonoNow;

struct Workload {
  ClusterSpec cluster;
  TraceConfig trace;
  long long max_jobs = 0;
  PolicyKind policy = PolicyKind::kThemis;
};

// The regimes and their sizes are documented in perfbench/README.md.
bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* w) {
  w->trace.seed = seed;
  w->trace.num_apps = 1 << 30;  // the job cap ends the stream
  if (name == "sim-4096") {
    w->cluster = ClusterSpec::Uniform(8, 64, 8, 4);
    w->trace.mean_interarrival = 2.0;
    w->max_jobs = 10000;
    w->policy = PolicyKind::kThemis;
    return true;
  }
  if (name == "sim-256-tiresias") {
    w->cluster = ClusterSpec::Simulation256();
    w->trace.contention_factor = 4.0;
    w->max_jobs = 250000;
    w->policy = PolicyKind::kTiresias;
    return true;
  }
  return false;
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_sim --workload sim-4096|sim-256-tiresias "
               "--seed N --trace 0|1\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 42;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage();
    if (arg == "--workload") name = argv[++i];
    else if (arg == "--seed") seed = std::strtoull(argv[++i], nullptr, 10);
    else if (arg == "--trace") trace = std::strcmp(argv[++i], "1") == 0;
    else Usage();
  }
  Workload w;
  if (!MakeWorkload(name, seed, &w)) Usage();

  try {
    SimConfig config;
    config.retire_finished_apps = true;
    config.metrics.bounded_memory = true;
    config.round_threads = 0;

    auto reader = std::make_unique<perfbench::TimedTraceReader>(
        std::make_unique<GeneratorTraceReader>(w.trace), w.max_jobs, trace);
    auto rounds = std::make_unique<perfbench::TimedRoundScheduler>(
        MakePolicy(w.policy));
    perfbench::TimedTraceReader& reader_stats = *reader;
    perfbench::TimedRoundScheduler& round_stats = *rounds;

    Simulator sim(w.cluster, std::move(reader), std::move(rounds), config);
    perfbench::RoundAuditor auditor;
    double observer_s = 0.0;
    sim.set_round_observer(
        [&](const ResourceOffer& offer, const GrantSet& grants) {
          const double t0 = trace ? MonoNow() : 0.0;
          auditor.Observe(offer, grants);
          if (trace) observer_s += MonoNow() - t0;
        });

    const double run_start = MonoNow();
    const SimResult result = sim.Run();
    const double run_end = MonoNow();

    const double summarize_start = MonoNow();
    const double max_rho = result.metrics.MaxFairness();
    const double jain = result.metrics.JainsFairnessIndex();
    const double avg_act = result.metrics.AverageCompletionTime();
    const double gpu_time = result.metrics.TotalGpuTime();
    const double summarize_s = MonoNow() - summarize_start;

    // The generator's own cost, without the simulator around it.
    double generate_s = 0.0;
    if (trace) {
      perfbench::TimedTraceReader alone(
          std::make_unique<GeneratorTraceReader>(w.trace), w.max_jobs, true);
      AppSpec spec;
      while (alone.Next(spec)) {
      }
      generate_s = alone.next_s;
    }

    perfbench::JsonLine out(stdout);
    out.Str("workload", name);
    out.Str("policy", ToString(w.policy));
    out.Num("first_round_mono", round_stats.first_round_mono);
    out.Num("run_start_mono", run_start);
    out.Num("run_end_mono", run_end);
    out.Num("apps", static_cast<double>(reader_stats.apps));
    out.Num("jobs", static_cast<double>(reader_stats.jobs));
    out.Num("total_apps", static_cast<double>(result.total_apps));
    out.Num("unfinished", static_cast<double>(result.unfinished.size()));
    out.Num("rounds", static_cast<double>(result.rounds_executed));
    out.Num("events", static_cast<double>(result.events_processed));
    out.Num("time_advances", static_cast<double>(result.sim_time_advances));
    out.Num("peak_live_apps", static_cast<double>(result.peak_live_apps));
    out.Num("max_rho", max_rho);
    out.Num("jain", jain);
    out.Num("avg_act", avg_act);
    out.Num("gpu_time", gpu_time);
    out.Str("digest", perfbench::Hex64(auditor.digest().hash));
    out.Num("digest_grants", static_cast<double>(auditor.digest().grants));
    out.Num("digest_gpus", static_cast<double>(auditor.digest().gpus));
    out.Num("audited_rounds", static_cast<double>(auditor.rounds()));
    out.Num("violations", static_cast<double>(auditor.violations()));
    out.Str("first_violation", auditor.first_violation());
    if (trace) {
      out.Num("round_s", round_stats.total_s);
      out.Num("offered_gpus", static_cast<double>(round_stats.offered_gpus));
      out.Num("granted_gpus", static_cast<double>(round_stats.granted_gpus));
      out.Num("auction_rounds", static_cast<double>(round_stats.auction_rounds));
      out.Num("auction_participants",
              static_cast<double>(round_stats.auction_participants));
      out.Num("next_s", reader_stats.next_s);
      out.Num("generate_s", generate_s);
      out.Num("observer_s", observer_s);
      out.Num("summarize_s", summarize_s);
    }
    out.Nums("round_us", round_stats.latency_us);
    out.End();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sim: %s\n", e.what());
    return 1;
  }
  return 0;
}
