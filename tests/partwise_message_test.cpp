// Cross-validation of the part-wise aggregation engine: the actual
// message-level CONGEST protocol must compute the same values as the
// engine, and its simulated round count must track the engine's analytic
// schedule (same algorithm, so they should agree within a small factor).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "congest/bfs_tree.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "planar/generators.hpp"
#include "shortcuts/partwise.hpp"
#include "shortcuts/partwise_message.hpp"
#include "subroutines/components.hpp"
#include "util/rng.hpp"

namespace plansep::shortcuts {
namespace {

using planar::Family;
using planar::NodeId;

struct Fixture {
  planar::GeneratedGraph gg;
  congest::BfsResult bfs;
  std::vector<int> part;
  int num_parts = 0;
};

Fixture make_setup(Family f, int n, std::uint64_t seed, int bands) {
  Fixture s{planar::make_instance(f, n, seed), {}, {}, 0};
  s.bfs = congest::distributed_bfs(s.gg.graph, s.gg.root_hint);
  // Depth bands refined to components.
  const int width = std::max(1, (s.bfs.height + 1) / bands);
  std::vector<int> band(s.gg.graph.num_nodes());
  for (NodeId v = 0; v < s.gg.graph.num_nodes(); ++v) {
    band[v] = s.bfs.depth[v] / width;
  }
  s.part.assign(s.gg.graph.num_nodes(), -1);
  std::vector<char> seen(s.gg.graph.num_nodes(), 0);
  for (NodeId v = 0; v < s.gg.graph.num_nodes(); ++v) {
    if (seen[v]) continue;
    std::vector<NodeId> stack{v};
    seen[v] = 1;
    const int id = s.num_parts++;
    while (!stack.empty()) {
      const NodeId x = stack.back();
      stack.pop_back();
      s.part[x] = id;
      for (planar::DartId d : s.gg.graph.rotation(x)) {
        const NodeId w = s.gg.graph.head(d);
        if (!seen[w] && band[w] == band[x]) {
          seen[w] = 1;
          stack.push_back(w);
        }
      }
    }
  }
  return s;
}

TEST(PartwiseMessage, ValuesMatchEngineAcrossOps) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Fixture s = make_setup(Family::kTriangulation, 150, seed, 4);
    PartwiseEngine engine(s.gg.graph, s.gg.root_hint);
    std::vector<std::int64_t> value(s.gg.graph.num_nodes());
    Rng rng(seed);
    for (auto& x : value) x = rng.next_in(-50, 50);
    for (AggOp op : {AggOp::kMin, AggOp::kMax, AggOp::kSum}) {
      const auto want = engine.aggregate(s.part, value, op);
      const auto got =
          message_level_aggregate(s.gg.graph, s.bfs, s.part, value, op);
      for (NodeId v = 0; v < s.gg.graph.num_nodes(); ++v) {
        if (s.part[v] < 0) continue;
        ASSERT_EQ(got.value[v], want.value[v])
            << "seed=" << seed << " v=" << v
            << " op=" << static_cast<int>(op);
      }
      EXPECT_GT(got.rounds, 0);
      EXPECT_GT(got.messages, 0);
    }
  }
}

TEST(PartwiseMessage, HandlesAbsentNodes) {
  Fixture s = make_setup(Family::kGrid, 100, 1, 3);
  // Knock out every third part.
  for (NodeId v = 0; v < s.gg.graph.num_nodes(); ++v) {
    if (s.part[v] % 3 == 0) s.part[v] = -1;
  }
  PartwiseEngine engine(s.gg.graph, s.gg.root_hint);
  std::vector<std::int64_t> value(s.gg.graph.num_nodes(), 1);
  const auto want = engine.aggregate(s.part, value, AggOp::kSum);
  const auto got =
      message_level_aggregate(s.gg.graph, s.bfs, s.part, value, AggOp::kSum);
  for (NodeId v = 0; v < s.gg.graph.num_nodes(); ++v) {
    if (s.part[v] < 0) continue;
    ASSERT_EQ(got.value[v], want.value[v]) << v;
  }
}

TEST(PartwiseMessage, RoundsTrackAnalyticSchedule) {
  // The engine's measured cost is min(intra, analytic-global); when parts
  // are depth bands the global pipeline dominates the comparison, and the
  // message-level run should land within a small factor of the analytic
  // schedule (same algorithm, conservative certification details aside).
  for (Family f : {Family::kGrid, Family::kTriangulation}) {
    for (int bands : {1, 4, 16}) {
      Fixture s = make_setup(f, 400, 2, bands);
      PartwiseEngine engine(s.gg.graph, s.gg.root_hint);
      std::vector<std::int64_t> ones(s.gg.graph.num_nodes(), 1);
      const long long analytic = engine.global_schedule_rounds(s.part);
      const auto msg =
          message_level_aggregate(s.gg.graph, s.bfs, s.part, ones, AggOp::kSum);
      // Same algorithm: within a small factor (the protocol pays a few
      // handshake rounds per stream the analytic model compresses).
      EXPECT_LE(msg.rounds, 6 * analytic + 20)
          << planar::family_name(f) << " bands=" << bands;
      EXPECT_GE(3 * msg.rounds + 20, analytic)
          << planar::family_name(f) << " bands=" << bands;
    }
  }
}

TEST(PartwiseMessage, SinglePartIsConvergecastPlusBroadcast) {
  const auto gg = planar::grid(10, 10);
  const auto bfs = congest::distributed_bfs(gg.graph, 0);
  std::vector<int> part(gg.graph.num_nodes(), 0);
  std::vector<std::int64_t> ones(gg.graph.num_nodes(), 1);
  const auto got =
      message_level_aggregate(gg.graph, bfs, part, ones, AggOp::kSum);
  EXPECT_EQ(got.value[99], 100);
  // One part: roughly up (height) + down (height) rounds.
  EXPECT_LE(got.rounds, 4 * bfs.height + 10);
}

long long note_of(const obs::SpanRecord& span, const std::string& key) {
  for (const auto& [k, v] : span.notes) {
    if (k == key) return v;
  }
  return -1;
}

TEST(PartwiseMessage, GlobalScheduleLowerBoundIsSoundAndKeepsTheLedger) {
  // aggregate() skips the global simulation when intra <= the lower
  // bound; the bound must never exceed the exact schedule, and the
  // measured cost must stay min(intra, exact) whichever path ran.
  int skipped = 0;
  int simulated = 0;
  for (Family f : planar::all_families()) {
    std::vector<std::pair<std::string, std::vector<int>>> cases;
    for (int bands : {1, 4, 16}) {
      cases.emplace_back("bands" + std::to_string(bands),
                         make_setup(f, 200, 3, bands).part);
    }
    Fixture gaps = make_setup(f, 200, 3, 4);
    const int width = std::max(1, (gaps.bfs.height + 1) / 4);
    for (NodeId v = 0; v < gaps.gg.graph.num_nodes(); ++v) {
      if ((gaps.bfs.depth[v] / width) % 2 == 1) gaps.part[v] = -1;
    }
    cases.emplace_back("gaps", gaps.part);
    const NodeId n = gaps.gg.graph.num_nodes();
    std::vector<int> singletons(n);
    for (NodeId v = 0; v < n; ++v) singletons[v] = v;
    cases.emplace_back("singletons", singletons);
    cases.emplace_back("one_part", std::vector<int>(n, 0));
    cases.emplace_back("absent", std::vector<int>(n, -1));

    PartwiseEngine engine(gaps.gg.graph, gaps.gg.root_hint);
    const std::vector<std::int64_t> ones(n, 1);
    for (const auto& [name, part] : cases) {
      const std::string where =
          std::string(planar::family_name(f)) + " " + name;
      const long long lb = engine.global_schedule_lower_bound(part);
      const long long exact = engine.global_schedule_rounds(part);
      EXPECT_LE(lb, exact) << where;

      obs::MetricsRegistry reg;
      long long measured = 0;
      {
        obs::ScopedMetrics scope(reg);
        measured = engine.aggregate(part, ones, AggOp::kSum).cost.measured;
      }
      ASSERT_EQ(reg.spans().size(), 1u) << where;
      const obs::SpanRecord& span = reg.spans().front();
      ASSERT_EQ(span.name, "pa/aggregate") << where;
      const long long intra = note_of(span, "intra");
      ASSERT_GE(intra, 2) << where;
      EXPECT_EQ(note_of(span, "measured"), measured) << where;
      EXPECT_EQ(measured, std::min(intra, exact)) << where;
      // The simulation runs exactly when intra exceeds the bound.
      if (intra > lb) {
        EXPECT_EQ(note_of(span, "global_tree"), exact) << where;
        ++simulated;
      } else {
        EXPECT_EQ(note_of(span, "global_tree"), -1) << where;
        ++skipped;
      }
      if (name == "absent") {
        EXPECT_EQ(lb, 0) << where;
        EXPECT_EQ(exact, 1) << where;
        EXPECT_EQ(measured, 1) << where;
      }
    }
  }
  EXPECT_GT(skipped, 0);
  EXPECT_GT(simulated, 0);
}

}  // namespace
}  // namespace plansep::shortcuts
