// Shared pieces of the perfbench load generators: a monotonic clock shared
// with run.py, the grant-stream digest + per-round audit, and the two
// decorators that time the program's layers from outside it (around
// IRoundScheduler::RunRound and TraceReader::Next).
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/round.h"
#include "net/wire.h"
#include "sim/policy.h"
#include "workload/trace_io.h"

namespace perfbench {

/// CLOCK_MONOTONIC in seconds: the clock Python's time.monotonic() reads,
/// so run.py can subtract its spawn instant from a child's first round.
double MonoNow();

/// Digest of a grant stream plus an audit of each round: every granted GPU
/// must be in the round's offer, and no GPU may be granted twice in one
/// round. Feed it every (offer, grants) pair, e.g. from
/// Simulator::set_round_observer.
class RoundAuditor {
 public:
  void Observe(const themis::ResourceOffer& offer,
               const themis::GrantSet& grants);

  const themis::net::GrantDigest& digest() const { return digest_; }
  long long rounds() const { return rounds_; }
  /// Granted GPUs that broke either rule, summed over all rounds.
  long long violations() const { return violations_; }
  /// Description of the first violation ("" when there was none).
  const std::string& first_violation() const { return first_violation_; }

 private:
  void Violation(const std::string& what);

  themis::net::GrantDigest digest_;
  /// Per GPU id: 2k+1 when offered in the k-th observed round, 2k+2 once
  /// granted in it. Stamps make the per-round reset free.
  std::vector<std::uint64_t> stamp_;
  long long rounds_ = 0;
  long long violations_ = 0;
  std::string first_violation_;
};

/// IRoundScheduler decorator: times every RunRound call and keeps the
/// round's diagnostics. Latency samples are always kept (they are an
/// end-to-end metric); the rest is cheap counters.
class TimedRoundScheduler : public themis::IRoundScheduler {
 public:
  explicit TimedRoundScheduler(std::unique_ptr<themis::IRoundScheduler> inner)
      : inner_(std::move(inner)) {}

  themis::GrantSet RunRound(const themis::ResourceOffer& offer,
                            themis::SchedulerContext& ctx) override;
  const char* name() const override { return inner_->name(); }

  /// MonoNow() at the start of the first RunRound (0 before any round).
  double first_round_mono = 0.0;
  double total_s = 0.0;
  std::vector<float> latency_us;
  long long offered_gpus = 0;
  long long granted_gpus = 0;
  long long auction_rounds = 0;
  long long auction_participants = 0;

 private:
  std::unique_ptr<themis::IRoundScheduler> inner_;
};

/// TraceReader decorator: ends the stream once `max_jobs` jobs were yielded
/// (0 = no cap), counts apps and jobs, and with `timed` sums the time spent
/// in the inner Next.
class TimedTraceReader : public themis::TraceReader {
 public:
  TimedTraceReader(std::unique_ptr<themis::TraceReader> inner,
                   long long max_jobs, bool timed)
      : inner_(std::move(inner)), max_jobs_(max_jobs), timed_(timed) {}

  bool Next(themis::AppSpec& out) override;

  long long apps = 0;
  long long jobs = 0;
  double next_s = 0.0;

 private:
  std::unique_ptr<themis::TraceReader> inner_;
  long long max_jobs_;
  bool timed_;
};

/// Writes one flat JSON object to a FILE, member by member. Numbers are
/// printed with all 17 significant digits.
class JsonLine {
 public:
  explicit JsonLine(std::FILE* out) : out_(out) { std::fputc('{', out_); }
  void Num(const char* key, double v);
  void Str(const char* key, const std::string& v);
  void Nums(const char* key, const std::vector<float>& vs);
  void Nums(const char* key, const std::vector<double>& vs);
  /// Closes the object and terminates the line.
  void End();

 private:
  void Key(const char* key);

  std::FILE* out_;
  bool first_ = true;
};

/// 16 lower-case hex digits, the daemon's digest spelling.
std::string Hex64(std::uint64_t v);

}  // namespace perfbench
