// Golden digests of the CONGEST round engine: CRC32 constants over the
// message trace (every accepted send, in acceptance order, as
// TraceRecorder::format lines) and the rendered metrics JSON (round
// clock, message counters, congestion histograms, spans) of fixed
// message-level runs, pinned so that any restructuring of how rounds
// execute must reproduce exactly what the engine observably did before:
//
//   * distributed_bfs on a grid, a triangulation and a random planar
//     graph of about 2,000 nodes each;
//   * message_level_aggregate over a triangulation's BFS tree;
//   * Awerbuch's token-passing DFS;
//   * both recovery drivers (separator, then DFS) under a crash-heavy
//     fault plan, whose waves die and leave rounds in which only crashed
//     nodes wait for their restart.
//
// The fault-free rows exercise the fault-free round path, the recovery row
// the faulted one (crash filter, fates, stalls, reorders, restart turns).
// When a digest moves, the change altered observable output — fix the
// change, not the constant.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/awerbuch.hpp"
#include "congest/bfs_tree.hpp"
#include "faults/controller.hpp"
#include "faults/plan.hpp"
#include "faults/recovery.hpp"
#include "io/binary.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "planar/generators.hpp"
#include "shortcuts/partwise_message.hpp"
#include "testing/trace.hpp"

namespace plansep {
namespace {

using planar::Family;
using planar::GeneratedGraph;
using planar::NodeId;

// ------------------------------------------------------------- pinned ----

struct Pinned {
  std::uint32_t trace_crc;
  std::uint32_t metrics_crc;
  long long events;
};

constexpr Pinned kBfsGrid = {0x0d2a2865, 0xf87297f4, 5763};
constexpr Pinned kBfsTriangulation = {0x40c09dde, 0xb297ac56, 9989};
constexpr Pinned kBfsRandomPlanar = {0xc03e461a, 0x653496f9, 4001};
constexpr Pinned kAggregate = {0xe3578b0b, 0x72b98cc7, 9337};
constexpr Pinned kAwerbuch = {0x47487f69, 0xd3846180, 4379};
constexpr Pinned kRecovery = {0xefba4a33, 0xbe583088, 176670};
constexpr const char* kRecoveryOutcome =
    "0/4/224 0/4/224;0/4/224 0/4/224;0/4/224 0/4/224;1/1/7038 0/4/224;";

// ------------------------------------------------------------- helpers ----

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

std::uint32_t crc_of(const std::string& s) {
  return io::crc32(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

struct Digest {
  std::uint32_t trace_crc = 0;
  std::uint32_t metrics_crc = 0;
  long long events = 0;
};

// Runs fn under a fresh trace recorder and metrics registry (the metrics
// sink chains over the recorder, so one run feeds both) and digests what
// they observed.
template <typename Fn>
Digest capture(const Fn& fn) {
  testing::TraceRecorder rec;
  obs::MetricsRegistry reg;
  {
    testing::ScopedTraceCapture cap(rec);
    obs::ScopedMetrics metrics(reg);
    fn();
  }
  std::string trace;
  for (const testing::TraceEvent& e : rec.events()) {
    trace += testing::TraceRecorder::format(e);
    trace += '\n';
  }
  return {crc_of(trace), crc_of(reg.to_json()), rec.total_messages()};
}

void expect_pinned(const Digest& d, const Pinned& p, const char* what) {
  EXPECT_EQ(hex(d.trace_crc), hex(p.trace_crc)) << what << " trace";
  EXPECT_EQ(hex(d.metrics_crc), hex(p.metrics_crc)) << what << " metrics";
  EXPECT_EQ(d.events, p.events) << what << " messages";
}

// ---------------------------------------------------------------- tests ----

TEST(GoldenEngine, DistributedBfsIsPinned) {
  const struct {
    Family family;
    const Pinned* pinned;
  } rows[] = {{Family::kGrid, &kBfsGrid},
              {Family::kTriangulation, &kBfsTriangulation},
              {Family::kRandomPlanar, &kBfsRandomPlanar}};
  for (const auto& row : rows) {
    const GeneratedGraph gg = planar::make_instance(row.family, 2000, 1);
    congest::BfsResult bfs;
    const Digest d =
        capture([&] { bfs = congest::distributed_bfs(gg.graph, gg.root_hint); });
    EXPECT_EQ(d.events, bfs.messages);
    expect_pinned(d, *row.pinned, planar::family_name(row.family));
  }
}

TEST(GoldenEngine, MessageLevelAggregateIsPinned) {
  const GeneratedGraph gg =
      planar::make_instance(Family::kTriangulation, 2000, 7);
  const congest::BfsResult tree =
      congest::distributed_bfs(gg.graph, gg.root_hint);
  std::vector<int> part(static_cast<std::size_t>(gg.graph.num_nodes()));
  std::vector<std::int64_t> value(part.size());
  for (NodeId v = 0; v < gg.graph.num_nodes(); ++v) {
    part[static_cast<std::size_t>(v)] = v % 32;
    value[static_cast<std::size_t>(v)] = (11 * v) % 257;
  }
  shortcuts::MessageAggregateResult res;
  const Digest d = capture([&] {
    res = shortcuts::message_level_aggregate(gg.graph, tree, part, value,
                                             shortcuts::AggOp::kSum);
  });
  EXPECT_EQ(d.events, res.messages);
  expect_pinned(d, kAggregate, "aggregate");
}

TEST(GoldenEngine, AwerbuchDfsIsPinned) {
  const GeneratedGraph gg = planar::make_instance(Family::kGrid, 900, 3);
  baselines::AwerbuchResult res;
  const Digest d =
      capture([&] { res = baselines::awerbuch_dfs(gg.graph, gg.root_hint); });
  EXPECT_EQ(d.events, res.messages);
  expect_pinned(d, kAwerbuch, "awerbuch");
}

TEST(GoldenEngine, RecoveryDriversUnderCrashesArePinned) {
  // Two crash plans, each over a triangulation and a grid. The heavy one
  // crashes a tenth of the nodes for six rounds in every 16-round window:
  // waves stall behind crashed nodes, whole rounds pass with nothing to do
  // but wait out a crash, and every attempt fails. The light one lets some
  // attempts through, so the drivers' success paths are pinned too.
  faults::FaultSpec heavy;
  heavy.crash_prob = 0.1;
  heavy.crash_length = 6;
  heavy.window_rounds = 16;
  faults::FaultSpec light = heavy;
  light.crash_prob = 0.002;
  const GeneratedGraph tri =
      planar::make_instance(Family::kTriangulation, 2000, 2);
  const GeneratedGraph grid = planar::make_instance(Family::kGrid, 1600, 4);
  // "ok/attempts/measured" per driver, separator first, per run.
  std::string outcome;
  const auto run = [&](const GeneratedGraph& gg, const faults::FaultSpec& spec,
                       std::uint64_t seed) {
    faults::FaultController ctl(spec, seed);
    faults::ScopedFaultInjection inject(ctl);
    const faults::RecoveredSeparator s =
        faults::compute_separator_with_recovery(gg.graph, gg.root_hint);
    const faults::RecoveredDfs r =
        faults::build_dfs_tree_with_recovery(gg.graph, gg.root_hint);
    outcome += std::to_string(s.recovery.ok) + "/" +
               std::to_string(s.recovery.attempts) + "/" +
               std::to_string(s.cost.measured) + " " +
               std::to_string(r.recovery.ok) + "/" +
               std::to_string(r.recovery.attempts) + "/" +
               std::to_string(r.cost.measured) + ";";
    EXPECT_GT(ctl.counters().crashed, 0) << "the plan never crashed a node";
  };
  const Digest d = capture([&] {
    run(tri, heavy, 11);
    run(grid, heavy, 12);
    run(tri, light, 11);
    run(grid, light, 12);
  });
  EXPECT_EQ(outcome, kRecoveryOutcome);
  expect_pinned(d, kRecovery, "recovery");
}

}  // namespace
}  // namespace plansep
