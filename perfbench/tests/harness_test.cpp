// Tests for the perfbench harness helpers: the grant digest + round audit
// that judges the simulator workloads, and the decorators' bookkeeping.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness.h"
#include "workload/trace_gen.h"

namespace {

using themis::GrantSet;
using themis::ResourceOffer;

ResourceOffer Offer(std::uint64_t round, std::vector<themis::GpuId> gpus) {
  ResourceOffer offer;
  offer.round_id = round;
  offer.gpus = std::move(gpus);
  return offer;
}

GrantSet Grants(std::uint64_t round,
                std::vector<std::vector<themis::GpuId>> bundles) {
  GrantSet set;
  set.round_id = round;
  set.lease_expiry = 20.0 * static_cast<double>(round);
  themis::JobId job = 0;
  for (auto& gpus : bundles)
    set.grants.push_back(themis::Grant{7, job++, std::move(gpus)});
  return set;
}

TEST(RoundAuditor, CleanRoundsMatchTheWireDigest) {
  perfbench::RoundAuditor auditor;
  themis::net::GrantDigest expected;
  const GrantSet first = Grants(1, {{0, 1}, {4}});
  const GrantSet second = Grants(2, {{0, 1, 2, 3}});
  auditor.Observe(Offer(1, {0, 1, 2, 4}), first);
  // A GPU granted in one round may be offered and granted again later.
  auditor.Observe(Offer(2, {0, 1, 2, 3}), second);
  for (const GrantSet* set : {&first, &second})
    for (const themis::Grant& g : set->grants)
      expected.Add(set->round_id, set->lease_expiry, g);

  EXPECT_EQ(auditor.rounds(), 2);
  EXPECT_EQ(auditor.violations(), 0);
  EXPECT_EQ(auditor.first_violation(), "");
  EXPECT_TRUE(auditor.digest() == expected);
  EXPECT_EQ(auditor.digest().gpus, 7);
}

TEST(RoundAuditor, FlagsAGpuOutsideTheOffer) {
  perfbench::RoundAuditor auditor;
  auditor.Observe(Offer(1, {0, 1}), Grants(1, {{1, 9}}));
  EXPECT_EQ(auditor.violations(), 1);
  EXPECT_EQ(auditor.first_violation(), "round 1: GPU 9 granted but not offered");
}

TEST(RoundAuditor, FlagsAGpuOfferedOnlyInAnEarlierRound) {
  perfbench::RoundAuditor auditor;
  auditor.Observe(Offer(1, {0, 1, 2}), Grants(1, {}));
  auditor.Observe(Offer(2, {0}), Grants(2, {{2}}));
  EXPECT_EQ(auditor.violations(), 1);
  EXPECT_EQ(auditor.first_violation(), "round 2: GPU 2 granted but not offered");
}

TEST(RoundAuditor, FlagsAGpuGrantedTwiceInOneRound) {
  perfbench::RoundAuditor auditor;
  auditor.Observe(Offer(3, {0, 1, 2}), Grants(3, {{0, 1}, {1}, {1}}));
  EXPECT_EQ(auditor.violations(), 2);
  EXPECT_EQ(auditor.first_violation(), "round 3: GPU 1 granted twice");
}

TEST(TimedTraceReader, CapsTheStreamAtTheJobBudget) {
  themis::TraceConfig config;
  config.num_apps = 1000;
  std::vector<themis::AppSpec> apps = themis::TraceGenerator(config).Generate();
  const long long cap =
      static_cast<long long>(apps[0].jobs.size() + apps[1].jobs.size());
  perfbench::TimedTraceReader reader(
      std::make_unique<themis::VectorTraceReader>(apps), cap, true);
  themis::AppSpec spec;
  int yielded = 0;
  while (reader.Next(spec)) ++yielded;
  // The app that reaches the cap is the last one yielded.
  EXPECT_EQ(yielded, 2);
  EXPECT_EQ(reader.apps, 2);
  EXPECT_EQ(reader.jobs, cap);
  EXPECT_FALSE(reader.Next(spec));
  EXPECT_GE(reader.next_s, 0.0);
}

}  // namespace
