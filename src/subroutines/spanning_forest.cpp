#include "subroutines/spanning_forest.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/dsu.hpp"

namespace plansep::sub {

SpanningForest boruvka_forest(
    const EmbeddedGraph& g, const std::vector<int>& part, int num_parts,
    const std::function<int(EdgeId)>& weight, PartwiseEngine& engine) {
  PLANSEP_SPAN("sub/boruvka");
  const NodeId n = g.num_nodes();
  SpanningForest out;
  out.parent_dart.assign(static_cast<std::size_t>(n), planar::kNoDart);
  out.root.assign(static_cast<std::size_t>(num_parts), planar::kNoNode);

  Dsu dsu(n);
  std::vector<char> chosen(static_cast<std::size_t>(g.num_edges()), 0);
  // Fragment ids for cost accounting: the PA of each phase runs over the
  // current fragments (each fragment is a connected subgraph).
  std::vector<int> frag(static_cast<std::size_t>(n));

  constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::max();
  for (int phase = 0; phase < 64; ++phase) {
    // Fragment ids = DSU representative, but only for participating nodes.
    bool multi = false;
    for (NodeId v = 0; v < n; ++v) {
      frag[static_cast<std::size_t>(v)] =
          part[static_cast<std::size_t>(v)] < 0 ? -1 : dsu.find(v);
    }
    // MOE per fragment: encode (weight, edge_id) into the PA value; every
    // node contributes its best incident intra-part inter-fragment edge.
    std::vector<std::int64_t> moe(static_cast<std::size_t>(n), kNone);
    for (NodeId v = 0; v < n; ++v) {
      const int p = part[static_cast<std::size_t>(v)];
      if (p < 0) continue;
      for (planar::DartId d : g.rotation(v)) {
        const NodeId w = g.head(d);
        if (part[static_cast<std::size_t>(w)] != p) continue;
        if (dsu.find(v) == dsu.find(w)) continue;
        const EdgeId e = EmbeddedGraph::edge_of(d);
        const std::int64_t key =
            (static_cast<std::int64_t>(weight(e)) << 32) | e;
        moe[static_cast<std::size_t>(v)] =
            std::min(moe[static_cast<std::size_t>(v)], key);
      }
    }
    auto agg = engine.aggregate(frag, moe, shortcuts::AggOp::kMin);
    out.cost += agg.cost;
    out.cost += shortcuts::local_exchange(1);  // merge handshake

    // Merge along each fragment's MOE.
    std::vector<std::pair<int, EdgeId>> merges;
    std::vector<char> frag_seen(static_cast<std::size_t>(n), 0);
    for (NodeId v = 0; v < n; ++v) {
      if (part[static_cast<std::size_t>(v)] < 0) continue;
      const int f = dsu.find(v);
      if (frag_seen[static_cast<std::size_t>(f)]) continue;
      frag_seen[static_cast<std::size_t>(f)] = 1;
      const std::int64_t key = agg.value[static_cast<std::size_t>(v)];
      if (key == kNone) continue;
      merges.emplace_back(f, static_cast<EdgeId>(key & 0xffffffff));
    }
    if (merges.empty()) break;
    for (const auto& [f, e] : merges) {
      (void)f;
      if (dsu.find(g.edge_u(e)) == dsu.find(g.edge_v(e))) continue;
      chosen[static_cast<std::size_t>(e)] = 1;
      dsu.unite(g.edge_u(e), g.edge_v(e));
    }
    if (!multi) multi = true;
  }

  // Root each part's tree at its minimum-id node and orient the chosen
  // edges. Orientation is the RE-ROOT problem on the forest; the paper
  // solves it in Õ(D) (Lemma 19) — charge one black-box call.
  out.cost += engine.blackbox_charge();
  std::vector<NodeId> order;
  for (NodeId v = 0; v < n; ++v) {
    const int p = part[static_cast<std::size_t>(v)];
    if (p < 0) continue;
    if (out.root[static_cast<std::size_t>(p)] == planar::kNoNode) {
      out.root[static_cast<std::size_t>(p)] = v;  // min id: v ascending
    }
  }
  // BFS over chosen edges from each root to orient parent darts.
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (int p = 0; p < num_parts; ++p) {
    const NodeId r = out.root[static_cast<std::size_t>(p)];
    if (r == planar::kNoNode) continue;
    std::vector<NodeId> stack{r};
    seen[static_cast<std::size_t>(r)] = 1;
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (planar::DartId d : g.rotation(v)) {
        if (!chosen[static_cast<std::size_t>(EmbeddedGraph::edge_of(d))]) {
          continue;
        }
        const NodeId w = g.head(d);
        if (seen[static_cast<std::size_t>(w)]) continue;
        seen[static_cast<std::size_t>(w)] = 1;
        out.parent_dart[static_cast<std::size_t>(w)] = EmbeddedGraph::rev(d);
        stack.push_back(w);
      }
    }
  }
  // Sanity: every participating node is reached.
  for (NodeId v = 0; v < n; ++v) {
    const int p = part[static_cast<std::size_t>(v)];
    if (p < 0) continue;
    PLANSEP_CHECK_MSG(seen[static_cast<std::size_t>(v)],
                      "part is not connected");
  }
  return out;
}

}  // namespace plansep::sub
