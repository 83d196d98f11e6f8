// perfbench_fleet — the AGENT fleet of the perfbench daemon workloads.
//
//   perfbench_fleet --port P --policy NAME --round-interval MIN --seed N
//                   --trace 0|1 [--replay]
//
// Generates 4 x 96 apps from --seed, registers them with a running
// themis_arbiterd on 127.0.0.1:P over 4 connections (HELLO waits for
// WELCOME, so app numbering is deterministic), then serves every round from
// one poll loop, bidding as soon as an OFFER arrives (a closed loop), until
// the daemon CLOSEs every session. Prints one JSON line: the first OFFER
// and drain instants, the latency of each of the first kSampledRounds
// rounds from its first OFFER to its last GRANT, the fleet's grant digest, and with --trace 1 the time spent
// in ParseWireMessage, the Encode* calls and poll(). With --replay the same
// specs are then driven through an in-process ArbiterCore configured like
// the daemon (cluster sim256, default lease and seed), timing
// BeginRound/FinishRound, and its digest is printed beside the fleet's.
#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "server/arbiter_core.h"
#include "sim/experiment.h"
#include "workload/trace_gen.h"

namespace {

using namespace themis;
using perfbench::MonoNow;

constexpr int kAgents = 4;
/// A generated app's HELLO entry is ~7.6 KB, and the daemon caps a frame
/// at 1 MiB (net::kDefaultMaxLine): at 128 apps per agent 343 of 4000
/// agent HELLOs over seeds 0-999 exceed it; at 96 the largest is 936 KB.
constexpr int kAppsPerAgent = 96;
/// Round latency is sampled over a drain's first rounds only. Later rounds
/// serve an ever smaller remainder of the fleet and get ever cheaper; how
/// many there are depends on the input's longest apps, and sampling them
/// made the median swing by half between inputs. Every drain lasts longer
/// than this (at least ~140 rounds under Themis).
constexpr std::uint64_t kSampledRounds = 100;
/// A fleet that hears nothing for this long gives up (the daemon is hung).
constexpr double kStallSeconds = 60.0;

struct Options {
  int port = 0;
  PolicyKind policy = PolicyKind::kThemis;
  double round_interval = 2.0;
  std::uint64_t seed = 42;
  bool trace = false;
  bool replay = false;
};

struct FleetAgent {
  int fd = net::kBadFd;
  net::LineReader reader;
  net::WriteBuffer out;
  std::vector<AppId> apps;
  std::vector<int> declared;
  bool closed = false;
};

struct RoundTimes {
  double first_offer = 0.0;
  double last_grant = 0.0;
};

/// Everything the fleet measures; `trace` gates the clock reads around
/// the codec and poll() calls.
struct Fleet {
  bool trace = false;
  double parse_s = 0.0;
  double encode_s = 0.0;
  double wait_s = 0.0;
  double bytes_in = 0.0;
  double bytes_out = 0.0;
  double hello_bytes = 0.0;
  double offer_bytes = 0.0;
  double offers = 0.0;
  double grant_bytes = 0.0;
  double grants = 0.0;
  double errors = 0.0;
  double closed = 0.0;
  std::uint64_t last_round = 0;
  std::vector<RoundTimes> rounds;
  net::GrantDigest digest;

  double Start() const { return trace ? MonoNow() : 0.0; }
  void Add(double* sum, double t0) const {
    if (trace) *sum += MonoNow() - t0;
  }

  net::WireMessage Parse(const std::string& line) {
    const double t0 = Start();
    net::WireMessage msg = net::ParseWireMessage(line);
    Add(&parse_s, t0);
    return msg;
  }

  void Send(FleetAgent& a, const std::string& frame) {
    a.out.QueueFrame(frame);
    bytes_out += static_cast<double>(frame.size() + 1);
    Flush(a);
  }

  /// A failed send means the daemon already closed the session, which it
  /// does right after its CLOSE frame, so an ACK can race it. Drop what is
  /// unsent and keep reading: the CLOSE is still queued for us, and a
  /// session that ends without one fails the run at the next read.
  static void Flush(FleetAgent& a) {
    if (!a.out.Flush(a.fd)) a.out = net::WriteBuffer();
  }

  /// poll() with its wait counted in wait_s.
  int Poll(std::vector<pollfd>& fds, int timeout_ms) {
    const double t0 = Start();
    const int n = poll(fds.data(), fds.size(), timeout_ms);
    Add(&wait_s, t0);
    return n;
  }
};

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench_fleet: %s\n", what.c_str());
  std::exit(1);
}

/// Blocking read of the next non-empty line from a blocking socket.
std::string ReadLine(Fleet& fleet, FleetAgent& a) {
  std::string line;
  for (;;) {
    if (a.reader.NextLine(line)) {
      if (line.empty()) continue;
      return line;
    }
    std::vector<pollfd> fds{{a.fd, POLLIN, 0}};
    if (fleet.Poll(fds, static_cast<int>(kStallSeconds * 1000)) <= 0)
      Fail("no WELCOME within the stall limit");
    char buf[16384];
    const long r = net::RecvSome(a.fd, buf, sizeof buf);
    if (r < 0) Fail("connection closed during registration");
    fleet.bytes_in += static_cast<double>(r);
    if (!a.reader.Feed(buf, static_cast<std::size_t>(r)))
      Fail("oversized frame during registration");
  }
}

void HandleFrame(Fleet& fleet, FleetAgent& a, const std::string& line,
                 double now) {
  net::WireMessage msg;
  try {
    msg = fleet.Parse(line);
  } catch (const net::WireError& e) {
    ++fleet.errors;
    std::fprintf(stderr, "perfbench_fleet: bad frame: %s\n", e.what());
    return;
  }
  switch (msg.type) {
    case net::MsgType::kOffer: {
      const std::uint64_t r = msg.offer.round_id;
      ++fleet.offers;
      fleet.offer_bytes += static_cast<double>(line.size());
      fleet.last_round = std::max(fleet.last_round, r);
      if (r >= fleet.rounds.size()) fleet.rounds.resize(r + 1);
      if (fleet.rounds[r].first_offer == 0.0) fleet.rounds[r].first_offer = now;
      std::vector<net::BidDemand> demands(a.apps.size());
      for (std::size_t j = 0; j < a.apps.size(); ++j)
        demands[j] = net::BidDemand{a.apps[j], a.declared[j]};
      const double t0 = fleet.Start();
      std::string bid = net::EncodeBid(r, demands);
      fleet.Add(&fleet.encode_s, t0);
      fleet.Send(a, bid);
      break;
    }
    case net::MsgType::kGrant: {
      const std::uint64_t r = msg.grants.round_id;
      ++fleet.grants;
      fleet.grant_bytes += static_cast<double>(line.size());
      fleet.last_round = std::max(fleet.last_round, r);
      if (r >= fleet.rounds.size()) fleet.rounds.resize(r + 1);
      fleet.rounds[r].last_grant = now;
      for (const Grant& g : msg.grants.grants)
        fleet.digest.Add(r, msg.grants.lease_expiry, g);
      for (AppId id : msg.finished_apps) {
        const auto it = std::find(a.apps.begin(), a.apps.end(), id);
        if (it == a.apps.end()) continue;
        a.declared.erase(a.declared.begin() + (it - a.apps.begin()));
        a.apps.erase(it);
      }
      const double t0 = fleet.Start();
      std::string ack = net::EncodeAck(r);
      fleet.Add(&fleet.encode_s, t0);
      fleet.Send(a, ack);
      break;
    }
    case net::MsgType::kClose:
      ++fleet.closed;
      a.closed = true;
      net::CloseFd(a.fd);
      break;
    case net::MsgType::kError:
      ++fleet.errors;
      std::fprintf(stderr, "perfbench_fleet: ERROR %s: %s\n", msg.code.c_str(),
                   msg.detail.c_str());
      break;
    default:
      ++fleet.errors;
      break;
  }
}

/// Serves every complete line already buffered for `a`. Registration reads
/// the last WELCOME with a recv that can also carry round 1's OFFER, which
/// would otherwise wait for data that poll() never reports.
void ServeBuffered(Fleet& fleet, FleetAgent& a, double now) {
  std::string line;
  while (!a.closed && a.reader.NextLine(line))
    if (!line.empty()) HandleFrame(fleet, a, line, now);
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_fleet --port P --policy NAME "
               "--round-interval MIN --seed N --trace 0|1 [--replay]\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--replay") {
      o.replay = true;
      continue;
    }
    if (i + 1 >= argc) Usage();
    const char* v = argv[++i];
    if (arg == "--port") o.port = std::atoi(v);
    else if (arg == "--policy") o.policy = PolicyKindFromString(v);
    else if (arg == "--round-interval") o.round_interval = std::atof(v);
    else if (arg == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--trace") o.trace = std::strcmp(v, "1") == 0;
    else Usage();
  }
  if (o.port <= 0) Usage();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_fleet: %s\n", e.what());
    return 2;
  }
  Fleet fleet;
  fleet.trace = opt.trace;

  TraceConfig trace;
  trace.seed = opt.seed;
  trace.num_apps = kAgents * kAppsPerAgent;
  perfbench::TimedTraceReader reader(
      std::make_unique<GeneratorTraceReader>(trace), 0, opt.trace);
  std::vector<std::vector<AppSpec>> scripts(kAgents);
  for (auto& script : scripts) {
    script.resize(kAppsPerAgent);
    for (AppSpec& spec : script)
      if (!reader.Next(spec)) Fail("generator ran dry");
  }

  // Registration: sequential, so the daemon numbers apps in script order.
  std::vector<FleetAgent> agents(kAgents);
  for (int i = 0; i < kAgents; ++i) {
    FleetAgent& a = agents[i];
    std::string err;
    a.fd = net::TcpConnect("127.0.0.1", opt.port, &err);
    if (a.fd == net::kBadFd) Fail("agent " + std::to_string(i) + ": " + err);
    const double t0 = fleet.Start();
    std::string hello = net::EncodeHello("agent-" + std::to_string(i),
                                         scripts[i]);
    fleet.Add(&fleet.encode_s, t0);
    if (hello.size() + 1 > net::kDefaultMaxLine)
      Fail("agent " + std::to_string(i) + ": HELLO of " +
           std::to_string(hello.size() + 1) +
           " bytes exceeds the daemon's line cap");
    fleet.hello_bytes += static_cast<double>(hello.size() + 1);
    fleet.Send(a, hello);
    while (!a.out.empty()) {
      std::vector<pollfd> fds{{a.fd, POLLOUT, 0}};
      fleet.Poll(fds, 1000);
      if (!a.out.Flush(a.fd)) Fail("HELLO send failed");
    }
    const net::WireMessage welcome = fleet.Parse(ReadLine(fleet, a));
    if (welcome.type != net::MsgType::kWelcome)
      Fail("agent " + std::to_string(i) + ": expected WELCOME, got " +
           net::ToString(welcome.type) + " " + welcome.detail);
    a.apps = welcome.app_ids;
    for (const AppSpec& spec : scripts[i])
      a.declared.push_back(spec.MaxJobParallelism());
    if (a.apps.size() != a.declared.size())
      Fail("WELCOME app count differs from HELLO");
    net::SetNonBlocking(a.fd);
  }

  // Serving: one poll loop over every open session, after whatever the
  // registration reads left buffered.
  double drain_end = 0.0;
  double last_progress = MonoNow();
  for (FleetAgent& a : agents) ServeBuffered(fleet, a, last_progress);
  std::vector<pollfd> fds;
  std::vector<FleetAgent*> owners;
  for (;;) {
    fds.clear();
    owners.clear();
    for (FleetAgent& a : agents) {
      if (a.closed) continue;
      fds.push_back({a.fd, static_cast<short>(a.out.empty() ? POLLIN
                                                            : POLLIN | POLLOUT),
                     0});
      owners.push_back(&a);
    }
    if (fds.empty()) break;
    if (MonoNow() - last_progress > kStallSeconds)
      Fail("daemon stalled: no frames for 60 s");
    if (fleet.Poll(fds, 1000) <= 0) continue;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      FleetAgent& a = *owners[i];
      if (fds[i].revents == 0 || a.closed) continue;
      if ((fds[i].revents & POLLOUT) != 0) Fleet::Flush(a);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char buf[65536];
      const long r = net::RecvSome(a.fd, buf, sizeof buf);
      if (r < 0) Fail("session dropped without CLOSE");
      if (r == 0) continue;
      const double now = MonoNow();
      last_progress = now;
      fleet.bytes_in += static_cast<double>(r);
      if (!a.reader.Feed(buf, static_cast<std::size_t>(r)))
        Fail("oversized frame");
      ServeBuffered(fleet, a, now);
      if (a.closed) drain_end = now;
    }
  }

  std::vector<double> round_ms;
  double first_offer = 0.0;
  for (std::uint64_t id = 0; id < fleet.rounds.size(); ++id) {
    const RoundTimes& r = fleet.rounds[id];
    if (r.first_offer == 0.0) continue;
    if (first_offer == 0.0) first_offer = r.first_offer;
    if (id <= kSampledRounds && r.last_grant >= r.first_offer)
      round_ms.push_back((r.last_grant - r.first_offer) * 1e3);
  }

  perfbench::JsonLine out(stdout);
  out.Num("first_round_mono", first_offer);
  out.Num("drain_end_mono", drain_end);
  out.Num("apps", static_cast<double>(reader.apps));
  out.Num("jobs", static_cast<double>(reader.jobs));
  out.Num("agents_closed", fleet.closed);
  out.Num("agent_rounds", fleet.offers);
  out.Num("errors", fleet.errors);
  out.Num("rounds", static_cast<double>(fleet.last_round));
  out.Str("digest", perfbench::Hex64(fleet.digest.hash));
  out.Num("digest_grants", static_cast<double>(fleet.digest.grants));
  out.Num("digest_gpus", static_cast<double>(fleet.digest.gpus));
  out.Nums("round_ms", round_ms);
  if (opt.trace) {
    perfbench::TimedTraceReader alone(
        std::make_unique<GeneratorTraceReader>(trace), 0, true);
    AppSpec spec;
    while (alone.Next(spec)) {
    }
    out.Num("next_s", reader.next_s);
    out.Num("generate_s", alone.next_s);
    out.Num("parse_s", fleet.parse_s);
    out.Num("encode_s", fleet.encode_s);
    out.Num("wait_s", fleet.wait_s);
    out.Num("bytes_in", fleet.bytes_in);
    out.Num("bytes_out", fleet.bytes_out);
    out.Num("hello_bytes", fleet.hello_bytes);
    out.Num("offer_bytes_mean",
            fleet.offers > 0 ? fleet.offer_bytes / fleet.offers : 0.0);
    out.Num("grant_bytes_mean",
            fleet.grants > 0 ? fleet.grant_bytes / fleet.grants : 0.0);
  }
  if (opt.replay) {
    // In-process reference: the fleet's specs in its registration order,
    // against a core configured like the daemon, for as many rounds.
    server::ArbiterConfig config;
    config.policy = opt.policy;
    config.round_interval_minutes = opt.round_interval;
    server::ArbiterCore core(config);
    for (const auto& script : scripts)
      for (const AppSpec& spec : script) core.RegisterApp(spec);
    double begin_s = 0.0;
    double finish_s = 0.0;
    std::vector<double> finish_us;
    while (core.rounds_run() < fleet.last_round) {
      const double t0 = MonoNow();
      const server::RoundStart start = core.BeginRound();
      const double t1 = MonoNow();
      begin_s += t1 - t0;
      if (!start.have_offer) continue;
      core.FinishRound(start.offer);
      const double dt = MonoNow() - t1;
      finish_s += dt;
      finish_us.push_back(dt * 1e6);
    }
    out.Str("replay_digest", perfbench::Hex64(core.digest().hash));
    out.Num("replay_digest_grants", static_cast<double>(core.digest().grants));
    out.Num("replay_digest_gpus", static_cast<double>(core.digest().gpus));
    out.Num("begin_round_s", begin_s);
    out.Num("finish_round_s", finish_s);
    out.Nums("finish_round_us", finish_us);
  }
  out.End();
  return 0;
}
