#include "harness.h"

#include <time.h>

#include <cinttypes>

namespace perfbench {

double MonoNow() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void RoundAuditor::Violation(const std::string& what) {
  if (violations_++ == 0) first_violation_ = what;
}

void RoundAuditor::Observe(const themis::ResourceOffer& offer,
                           const themis::GrantSet& grants) {
  const std::uint64_t offered = 2 * static_cast<std::uint64_t>(rounds_) + 1;
  const std::uint64_t granted = offered + 1;
  for (themis::GpuId g : offer.gpus) {
    if (g >= stamp_.size()) stamp_.resize(static_cast<std::size_t>(g) + 1, 0);
    stamp_[g] = offered;
  }
  for (const themis::Grant& grant : grants.grants) {
    digest_.Add(grants.round_id, grants.lease_expiry, grant);
    for (themis::GpuId g : grant.gpus) {
      const std::uint64_t s = g < stamp_.size() ? stamp_[g] : 0;
      if (s == offered) {
        stamp_[g] = granted;
        continue;
      }
      Violation("round " + std::to_string(grants.round_id) + ": GPU " +
                std::to_string(g) +
                (s == granted ? " granted twice" : " granted but not offered"));
    }
  }
  ++rounds_;
}

themis::GrantSet TimedRoundScheduler::RunRound(
    const themis::ResourceOffer& offer, themis::SchedulerContext& ctx) {
  const double t0 = MonoNow();
  if (first_round_mono == 0.0) first_round_mono = t0;
  themis::GrantSet grants = inner_->RunRound(offer, ctx);
  const double dt = MonoNow() - t0;
  total_s += dt;
  latency_us.push_back(static_cast<float>(dt * 1e6));
  const themis::RoundDiagnostics& d = grants.diagnostics;
  offered_gpus += offer.TotalGpus();
  granted_gpus += grants.TotalGpus();
  if (d.auction_ran) {
    ++auction_rounds;
    auction_participants += d.auction_participants;
  }
  return grants;
}

bool TimedTraceReader::Next(themis::AppSpec& out) {
  if (max_jobs_ > 0 && jobs >= max_jobs_) return false;
  const double t0 = timed_ ? MonoNow() : 0.0;
  const bool ok = inner_->Next(out);
  if (timed_) next_s += MonoNow() - t0;
  if (!ok) return false;
  ++apps;
  jobs += static_cast<long long>(out.jobs.size());
  return true;
}

void JsonLine::Key(const char* key) {
  if (!first_) std::fputc(',', out_);
  first_ = false;
  std::fprintf(out_, "\"%s\":", key);
}

void JsonLine::Num(const char* key, double v) {
  Key(key);
  std::fprintf(out_, "%.17g", v);
}

void JsonLine::Str(const char* key, const std::string& v) {
  Key(key);
  std::fputc('"', out_);
  for (char c : v) {
    if (c == '"' || c == '\\') std::fputc('\\', out_);
    std::fputc(static_cast<unsigned char>(c) < 0x20 ? ' ' : c, out_);
  }
  std::fputc('"', out_);
}

void JsonLine::Nums(const char* key, const std::vector<float>& vs) {
  Key(key);
  std::fputc('[', out_);
  for (std::size_t i = 0; i < vs.size(); ++i)
    std::fprintf(out_, i == 0 ? "%.9g" : ",%.9g", static_cast<double>(vs[i]));
  std::fputc(']', out_);
}

void JsonLine::Nums(const char* key, const std::vector<double>& vs) {
  Key(key);
  std::fputc('[', out_);
  for (std::size_t i = 0; i < vs.size(); ++i)
    std::fprintf(out_, i == 0 ? "%.17g" : ",%.17g", vs[i]);
  std::fputc(']', out_);
}

void JsonLine::End() {
  std::fputs("}\n", out_);
  std::fflush(out_);
}

std::string Hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

}  // namespace perfbench
