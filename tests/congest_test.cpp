// Tests for the CONGEST simulator (bandwidth guard, max_rounds and
// quiescence, exceptions from turns, reuse of one Network across runs),
// distributed BFS, and the part-wise aggregation engine (values, round
// costs, bandwidth discipline).

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "congest/bfs_tree.hpp"
#include "congest/network.hpp"
#include "planar/generators.hpp"
#include "shortcuts/partwise.hpp"
#include "shortcuts/partwise_message.hpp"
#include "subroutines/components.hpp"
#include "subroutines/part_context.hpp"
#include "subroutines/spanning_forest.hpp"
#include "testing/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace plansep {
namespace {

using congest::BfsResult;
using congest::distributed_bfs;
using planar::GeneratedGraph;
using planar::NodeId;

TEST(Network, BandwidthViolationThrows) {
  // A program that sends two messages over one edge in a round must trip
  // the CONGEST guard.
  class Bad : public congest::NodeProgram {
   public:
    std::vector<NodeId> initial_nodes(const planar::EmbeddedGraph&) override {
      return {0};
    }
    void round(NodeId, congest::InboxView,
               congest::Ctx& ctx) override {
      congest::Message m;
      ctx.send(1, m);
      ctx.send(1, m);
    }
  };
  const GeneratedGraph gg = planar::path(3);
  congest::Network net(gg.graph);
  Bad bad;
  EXPECT_THROW(net.run(bad, 4), CheckError);
}

TEST(Network, MaxRoundsCutsOffRunawayProgram) {
  // A program that wakes itself forever never quiesces; run() must stop at
  // exactly max_rounds and report that count.
  class Forever : public congest::NodeProgram {
   public:
    std::vector<NodeId> initial_nodes(const planar::EmbeddedGraph&) override {
      return {0};
    }
    void round(NodeId, congest::InboxView,
               congest::Ctx& ctx) override {
      ctx.wake_next_round();
      ++rounds_seen;
    }
    int rounds_seen = 0;
  };
  const GeneratedGraph gg = planar::path(4);
  congest::Network net(gg.graph);
  Forever prog;
  const int rounds = net.run(prog, 17);
  EXPECT_EQ(rounds, 17);
  EXPECT_EQ(prog.rounds_seen, 17);
  EXPECT_EQ(net.messages_sent(), 0);
}

TEST(Network, QuiescesAfterSilentWakeUps) {
  // Wake-ups without messages keep a node active but cost no bandwidth;
  // once the node stops asking, the network reaches quiescence on its own,
  // well before max_rounds.
  class CountDown : public congest::NodeProgram {
   public:
    std::vector<NodeId> initial_nodes(const planar::EmbeddedGraph&) override {
      return {2};
    }
    void round(NodeId, congest::InboxView inbox,
               congest::Ctx& ctx) override {
      EXPECT_TRUE(inbox.empty());  // nobody ever sends
      if (++ticks < 5) ctx.wake_next_round();
    }
    int ticks = 0;
  };
  const GeneratedGraph gg = planar::path(5);
  congest::Network net(gg.graph);
  CountDown prog;
  const int rounds = net.run(prog);
  EXPECT_EQ(prog.ticks, 5);
  EXPECT_LE(rounds, 6);
  EXPECT_EQ(net.messages_sent(), 0);
}

TEST(Bfs, GridDepthsAndRounds) {
  const GeneratedGraph gg = planar::grid(5, 7);
  const BfsResult bfs = distributed_bfs(gg.graph, 0);
  // Corner-rooted grid: height = (5-1)+(7-1).
  EXPECT_EQ(bfs.height, 10);
  // The wave takes height+O(1) rounds.
  EXPECT_GE(bfs.rounds, bfs.height);
  EXPECT_LE(bfs.rounds, bfs.height + 2);
  for (NodeId v = 0; v < gg.graph.num_nodes(); ++v) {
    const int r = v / 7, c = v % 7;
    EXPECT_EQ(bfs.depth[v], r + c) << v;
  }
}

TEST(Bfs, DiameterEstimateOnPath) {
  const GeneratedGraph gg = planar::path(40);
  const auto est = congest::estimate_diameter(gg.graph, 20);
  EXPECT_EQ(est.diameter_lb, 39);
}

// v -> v+1 ping down a path, recording (round, payload) per node.
class Ping : public congest::NodeProgram {
 public:
  explicit Ping(int sends) : sends_(sends) {}
  std::vector<NodeId> initial_nodes(const planar::EmbeddedGraph& g) override {
    received.assign(static_cast<std::size_t>(g.num_nodes()), {});
    return {0};
  }
  void round(NodeId v, congest::InboxView inbox, congest::Ctx& ctx) override {
    for (const auto& inc : inbox) {
      received[static_cast<std::size_t>(v)].push_back(
          {ctx.round(), inc.msg.a});
    }
    if (v == 0 && ctx.round() < sends_) {
      congest::Message m;
      m.a = ctx.round();
      ctx.send(1, m);
      if (ctx.round() + 1 < sends_) ctx.wake_next_round();
    }
  }
  std::vector<std::vector<std::pair<int, std::int64_t>>> received;

 private:
  int sends_ = 1;
};

// Every node is initially active; the listed nodes throw on their first
// turn, every other node sends to its first neighbor and wakes itself, so
// an aborted run leaves staged mail and wake-ups behind.
class ThrowAt : public congest::NodeProgram {
 public:
  explicit ThrowAt(std::vector<NodeId> throwers)
      : throwers_(std::move(throwers)) {}
  std::vector<NodeId> initial_nodes(const planar::EmbeddedGraph& g) override {
    g_ = &g;
    std::vector<NodeId> all(static_cast<std::size_t>(g.num_nodes()));
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  void round(NodeId v, congest::InboxView, congest::Ctx& ctx) override {
    for (const NodeId t : throwers_) {
      if (v == t) throw std::runtime_error("node " + std::to_string(v));
    }
    ctx.send(g_->neighbors(v).front(), congest::Message{});
    ctx.wake_next_round();
  }

 private:
  std::vector<NodeId> throwers_;
  const planar::EmbeddedGraph* g_ = nullptr;
};

TEST(Network, LowestIdThrowingTurnSurfaces) {
  // Turns run in activation order, so the lowest-id thrower of round 0
  // aborts the run before node 19 takes its turn.
  const GeneratedGraph gg = planar::grid(5, 5);
  congest::Network net(gg.graph);
  ThrowAt prog({19, 7});
  try {
    net.run(prog, 8);
    ADD_FAILURE() << "the run did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "node 7");
  }
}

TEST(Network, WakeUpDrivenNodesQuiesceAndRespectMaxRounds) {
  // Every node wakes itself 3-5 more times and sends nothing: the run
  // quiesces once the longest countdown ends, or stops at the cap.
  class CountDown : public congest::NodeProgram {
   public:
    std::vector<NodeId> initial_nodes(const planar::EmbeddedGraph& g) override {
      ticks.assign(static_cast<std::size_t>(g.num_nodes()), 0);
      std::vector<NodeId> all(static_cast<std::size_t>(g.num_nodes()));
      std::iota(all.begin(), all.end(), 0);
      return all;
    }
    void round(NodeId v, congest::InboxView, congest::Ctx& ctx) override {
      if (++ticks[v] < 4 + v % 3) ctx.wake_next_round();
    }
    std::vector<int> ticks;
  };
  const GeneratedGraph gg = planar::path(24);
  congest::Network net(gg.graph);
  CountDown prog;
  EXPECT_EQ(net.run(prog, 1 << 20), 6);
  EXPECT_EQ(net.messages_sent(), 0);
  EXPECT_EQ(net.run(prog, 3), 3);
  EXPECT_EQ(net.messages_sent(), 0);
}

TEST(Network, ReuseAfterAbortedRunReproducesFirstTrace) {
  // One Network rerun several times (inbox slabs, activation scratch and
  // bandwidth guards are all reused) must reproduce its first run bit for
  // bit, including after a run aborted mid-round by a throwing turn.
  const GeneratedGraph gg = planar::path(6);
  congest::Network net(gg.graph);
  const auto run_once = [&] {
    Ping prog(4);
    plansep::testing::TraceRecorder rec;
    plansep::testing::ScopedTraceCapture cap(rec);
    const int rounds = net.run(prog, 32);
    return std::make_pair(rounds, rec.events());
  };
  const auto first = run_once();
  ASSERT_FALSE(first.second.empty());
  const auto again = run_once();
  EXPECT_EQ(again.first, first.first);
  EXPECT_EQ(plansep::testing::first_divergence(again.second, first.second), -1)
      << plansep::testing::diff_traces(again.second, first.second);
  {
    ThrowAt bomb({3});
    EXPECT_THROW(net.run(bomb, 8), std::runtime_error);
  }
  const auto after_abort = run_once();
  EXPECT_EQ(after_abort.first, first.first);
  EXPECT_EQ(
      plansep::testing::first_divergence(after_abort.second, first.second), -1)
      << plansep::testing::diff_traces(after_abort.second, first.second);
}

TEST(Partwise, ValuesMatchPerPartReference) {
  Rng rng(3);
  const GeneratedGraph gg = planar::stacked_triangulation(80, rng);
  shortcuts::PartwiseEngine engine(gg.graph, gg.root_hint);
  // Parts = connected components after removing a BFS level band.
  const auto& bfs = engine.global_tree();
  std::vector<int> part(gg.graph.num_nodes());
  const sub::Components comps = sub::connected_components(
      gg.graph, [&](NodeId) { return true; });
  (void)comps;
  for (NodeId v = 0; v < gg.graph.num_nodes(); ++v) {
    part[v] = bfs.depth[v] % 3 == 1 ? -1 : (bfs.depth[v] > 1 ? 1 : 0);
  }
  // Make parts connected: just use two crude parts by depth; fall back to
  // component labelling for robustness.
  const sub::Components by_part = sub::connected_components(
      gg.graph, [&](NodeId v) { return part[v] >= 0; });
  for (NodeId v = 0; v < gg.graph.num_nodes(); ++v) {
    part[v] = part[v] < 0 ? -1 : by_part.label[v];
  }
  std::vector<std::int64_t> value(gg.graph.num_nodes());
  for (NodeId v = 0; v < gg.graph.num_nodes(); ++v) value[v] = 7 * v % 23;

  for (auto op : {shortcuts::AggOp::kMin, shortcuts::AggOp::kMax,
                  shortcuts::AggOp::kSum}) {
    auto res = engine.aggregate(part, value, op);
    // Reference.
    for (NodeId v = 0; v < gg.graph.num_nodes(); ++v) {
      if (part[v] < 0) continue;
      std::int64_t ref = value[v];
      for (NodeId w = 0; w < gg.graph.num_nodes(); ++w) {
        if (w == v || part[w] != part[v]) continue;
        switch (op) {
          case shortcuts::AggOp::kMin: ref = std::min(ref, value[w]); break;
          case shortcuts::AggOp::kMax: ref = std::max(ref, value[w]); break;
          case shortcuts::AggOp::kSum: ref += value[w]; break;
        }
      }
      ASSERT_EQ(res.value[v], ref) << v;
    }
    EXPECT_GT(res.cost.measured, 0);
    EXPECT_EQ(res.cost.pa_calls, 1);
  }
}

TEST(Partwise, SinglePartCostTracksDiameter) {
  for (int side : {6, 10, 14}) {
    const GeneratedGraph gg = planar::grid(side, side);
    shortcuts::PartwiseEngine engine(gg.graph, 0);
    std::vector<int> part(gg.graph.num_nodes(), 0);
    std::vector<std::int64_t> value(gg.graph.num_nodes(), 1);
    auto res = engine.aggregate(part, value, shortcuts::AggOp::kSum);
    EXPECT_EQ(res.value[0], gg.graph.num_nodes());
    // One part spanning the graph: cost within a small factor of D.
    EXPECT_LE(res.cost.measured, 6 * engine.diameter_bound() + 8);
  }
}

TEST(Boruvka, SpansEveryPartWithZeroWeightPreference) {
  Rng rng(5);
  const GeneratedGraph gg = planar::random_planar(60, 90, rng);
  shortcuts::PartwiseEngine engine(gg.graph, gg.root_hint);
  std::vector<int> part(gg.graph.num_nodes(), 0);
  // 0/1 weights: prefer even edge ids.
  sub::SpanningForest forest = sub::boruvka_forest(
      gg.graph, part, 1, [](planar::EdgeId e) { return e % 2; }, engine);
  // It spans: every node except the root has a parent dart.
  int roots = 0;
  for (NodeId v = 0; v < gg.graph.num_nodes(); ++v) {
    if (forest.parent_dart[v] == planar::kNoDart) ++roots;
  }
  EXPECT_EQ(roots, 1);
  EXPECT_GT(forest.cost.pa_calls, 0);
  // MST property for 0/1 weights: the number of weight-1 edges used equals
  // (#components of the weight-0 subgraph) - 1.
  const sub::Components zero_comps = sub::connected_components(
      gg.graph, [](NodeId) { return true; });
  (void)zero_comps;
  int ones_used = 0;
  for (NodeId v = 0; v < gg.graph.num_nodes(); ++v) {
    const planar::DartId pd = forest.parent_dart[v];
    if (pd == planar::kNoDart) continue;
    if (planar::EmbeddedGraph::edge_of(pd) % 2 == 1) ++ones_used;
  }
  // Count components of the even-edge subgraph via DSU.
  std::vector<int> dsu(gg.graph.num_nodes());
  std::iota(dsu.begin(), dsu.end(), 0);
  std::function<int(int)> find = [&](int x) {
    return dsu[x] == x ? x : dsu[x] = find(dsu[x]);
  };
  for (planar::EdgeId e = 0; e < gg.graph.num_edges(); e += 2) {
    dsu[find(gg.graph.edge_u(e))] = find(gg.graph.edge_v(e));
  }
  int comps = 0;
  for (NodeId v = 0; v < gg.graph.num_nodes(); ++v) {
    if (find(v) == v) ++comps;
  }
  EXPECT_EQ(ones_used, comps - 1);
}

TEST(PartSet, RepresentationMatchesTrees) {
  Rng rng(9);
  const GeneratedGraph gg = planar::stacked_triangulation(50, rng);
  shortcuts::PartwiseEngine engine(gg.graph, gg.root_hint);
  std::vector<int> part(gg.graph.num_nodes(), 0);
  sub::PartSet ps = sub::build_part_set(gg.graph, part, 1, engine);
  ASSERT_EQ(ps.num_parts, 1);
  const auto& t = ps.tree_of_part(0);
  EXPECT_EQ(t.size(), gg.graph.num_nodes());
  EXPECT_GT(ps.cost.measured, 0);
  EXPECT_GT(ps.cost.pa_calls, 0);
}

TEST(PartSet, PreferredRootRespected) {
  const GeneratedGraph gg = planar::grid(4, 4);
  shortcuts::PartwiseEngine engine(gg.graph, 0);
  std::vector<int> part(gg.graph.num_nodes(), 0);
  sub::PartSet ps =
      sub::build_part_set(gg.graph, part, 1, engine, {15});
  EXPECT_EQ(ps.tree_of_part(0).root(), 15);
}

}  // namespace
}  // namespace plansep
