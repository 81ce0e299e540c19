#include "testing/dmp_oracle.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <numeric>

#include "planar/face_structure.hpp"
#include "util/check.hpp"

namespace plansep::testing {

using planar::DartId;
using planar::EmbeddedGraph;
using planar::FaceId;
using planar::FaceStructure;
using planar::kNoFace;
using planar::kNoNode;
using planar::NodeId;
using planar::PlanarityResult;


namespace {

using Edge = std::pair<NodeId, NodeId>;

// ---------------------------------------------------------------------
// Biconnected blocks (iterative Hopcroft–Tarjan with an edge stack).
// ---------------------------------------------------------------------

std::vector<std::vector<Edge>> biconnected_blocks(
    NodeId n, const std::vector<std::vector<std::pair<NodeId, int>>>& adj,
    int num_edges) {
  std::vector<std::vector<Edge>> blocks;
  std::vector<int> tin(static_cast<std::size_t>(n), -1);
  std::vector<int> low(static_cast<std::size_t>(n), 0);
  std::vector<char> edge_used(static_cast<std::size_t>(num_edges), 0);
  std::vector<Edge> edge_stack;
  int timer = 0;

  struct Frame {
    NodeId v;
    NodeId parent;
    std::size_t i;
  };
  for (NodeId s = 0; s < n; ++s) {
    if (tin[static_cast<std::size_t>(s)] >= 0) continue;
    std::vector<Frame> stack{{s, kNoNode, 0}};
    tin[static_cast<std::size_t>(s)] = low[static_cast<std::size_t>(s)] =
        timer++;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto& nb = adj[static_cast<std::size_t>(f.v)];
      if (f.i < nb.size()) {
        const auto [w, eid] = nb[f.i++];
        if (edge_used[static_cast<std::size_t>(eid)]) continue;
        edge_used[static_cast<std::size_t>(eid)] = 1;
        edge_stack.push_back({f.v, w});
        if (tin[static_cast<std::size_t>(w)] < 0) {
          tin[static_cast<std::size_t>(w)] = low[static_cast<std::size_t>(w)] =
              timer++;
          stack.push_back({w, f.v, 0});
        } else {
          low[static_cast<std::size_t>(f.v)] =
              std::min(low[static_cast<std::size_t>(f.v)],
                       tin[static_cast<std::size_t>(w)]);
        }
      } else {
        const NodeId v = f.v;
        const NodeId p = f.parent;
        stack.pop_back();
        if (p == kNoNode) continue;
        low[static_cast<std::size_t>(p)] = std::min(
            low[static_cast<std::size_t>(p)], low[static_cast<std::size_t>(v)]);
        if (low[static_cast<std::size_t>(v)] >=
            tin[static_cast<std::size_t>(p)]) {
          // p closes a block: pop edges down to (p, v).
          std::vector<Edge> block;
          for (;;) {
            PLANSEP_CHECK(!edge_stack.empty());
            const Edge e = edge_stack.back();
            edge_stack.pop_back();
            block.push_back(e);
            if (e.first == p && e.second == v) break;
          }
          blocks.push_back(std::move(block));
        }
      }
    }
    PLANSEP_CHECK(edge_stack.empty());
  }
  return blocks;
}

// ---------------------------------------------------------------------
// DMP embedding of one biconnected block.
// ---------------------------------------------------------------------

struct Fragment {
  std::vector<NodeId> attachments;  // H-vertices, sorted
  // A path between two attachments through the fragment, endpoints
  // included: either a chord (two nodes) or a..interior..b.
  std::vector<NodeId> path;
};

/// Finds a cycle in a biconnected graph (local ids) by walking the DFS
/// tree to the first back edge.
std::vector<NodeId> find_cycle(
    int n, const std::vector<std::vector<std::pair<NodeId, int>>>& adj) {
  // Proper iterative DFS (frame stack): a back edge to an ancestor on the
  // recursion stack closes a cycle along parent pointers.
  std::vector<NodeId> parent(static_cast<std::size_t>(n), kNoNode);
  std::vector<int> state(static_cast<std::size_t>(n), 0);  // 0/1=on stack/2
  struct Frame {
    NodeId v;
    std::size_t i;
  };
  std::vector<Frame> stack{{0, 0}};
  state[0] = 1;
  while (!stack.empty()) {
    Frame& f = stack.back();
    const auto& nb = adj[static_cast<std::size_t>(f.v)];
    if (f.i >= nb.size()) {
      state[static_cast<std::size_t>(f.v)] = 2;
      stack.pop_back();
      continue;
    }
    const NodeId w = nb[f.i++].first;
    if (w == parent[static_cast<std::size_t>(f.v)]) continue;
    if (state[static_cast<std::size_t>(w)] == 1) {
      // w is an ancestor of v on the recursion stack.
      std::vector<NodeId> cycle;
      for (NodeId x = f.v; x != w; x = parent[static_cast<std::size_t>(x)]) {
        cycle.push_back(x);
      }
      cycle.push_back(w);
      PLANSEP_CHECK(cycle.size() >= 3);
      return cycle;
    }
    if (state[static_cast<std::size_t>(w)] == 0) {
      state[static_cast<std::size_t>(w)] = 1;
      parent[static_cast<std::size_t>(w)] = f.v;
      stack.push_back({w, 0});
    }
  }
  PLANSEP_CHECK_MSG(false, "biconnected block without a cycle");
  return {};
}

/// Embeds one biconnected block given by local-id edges over n_local
/// vertices; returns rotations or nullopt when non-planar.
std::optional<std::vector<std::vector<NodeId>>> embed_block(
    int n_local, const std::vector<Edge>& edges) {
  // Adjacency with edge ids.
  std::vector<std::vector<std::pair<NodeId, int>>> adj(
      static_cast<std::size_t>(n_local));
  for (std::size_t i = 0; i < edges.size(); ++i) {
    adj[static_cast<std::size_t>(edges[i].first)].push_back(
        {edges[i].second, static_cast<int>(i)});
    adj[static_cast<std::size_t>(edges[i].second)].push_back(
        {edges[i].first, static_cast<int>(i)});
  }
  if (static_cast<int>(edges.size()) > 3 * n_local - 6) return std::nullopt;

  const std::vector<NodeId> cycle = find_cycle(n_local, adj);

  EmbeddedGraph h(n_local);
  std::vector<char> in_h_vertex(static_cast<std::size_t>(n_local), 0);
  std::vector<char> in_h_edge(edges.size(), 0);
  std::map<Edge, int> edge_id;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    auto [a, b] = edges[i];
    if (a > b) std::swap(a, b);
    edge_id[{a, b}] = static_cast<int>(i);
  }
  auto mark_edge = [&](NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    in_h_edge[static_cast<std::size_t>(edge_id.at({a, b}))] = 1;
  };
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const NodeId a = cycle[i];
    const NodeId b = cycle[(i + 1) % cycle.size()];
    h.add_edge_back(a, b);
    in_h_vertex[static_cast<std::size_t>(a)] = 1;
    mark_edge(a, b);
  }

  int embedded = static_cast<int>(cycle.size());
  const int total = static_cast<int>(edges.size());

  while (embedded < total) {
    const FaceStructure fs(h);
    // Vertex sets per face (H stays 2-connected, so faces are simple
    // cycles and each vertex occurs at most once per face).
    std::vector<std::vector<NodeId>> face_vertices(
        static_cast<std::size_t>(fs.num_faces()));
    for (FaceId f = 0; f < fs.num_faces(); ++f) {
      for (DartId d : fs.walk(f)) {
        face_vertices[static_cast<std::size_t>(f)].push_back(h.tail(d));
      }
      auto& fv = face_vertices[static_cast<std::size_t>(f)];
      std::sort(fv.begin(), fv.end());
    }

    // Fragments: chords plus components of G − V(H).
    std::vector<Fragment> fragments;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (in_h_edge[i]) continue;
      const auto [a, b] = edges[i];
      if (in_h_vertex[static_cast<std::size_t>(a)] &&
          in_h_vertex[static_cast<std::size_t>(b)]) {
        Fragment frag;
        frag.attachments = {std::min(a, b), std::max(a, b)};
        frag.path = {a, b};
        fragments.push_back(std::move(frag));
      }
    }
    {
      std::vector<int> comp(static_cast<std::size_t>(n_local), -1);
      for (NodeId s = 0; s < n_local; ++s) {
        if (in_h_vertex[static_cast<std::size_t>(s)] ||
            comp[static_cast<std::size_t>(s)] >= 0 ||
            adj[static_cast<std::size_t>(s)].empty()) {
          continue;
        }
        // BFS over interior vertices; collect attachments.
        Fragment frag;
        std::vector<NodeId> interior;
        std::deque<NodeId> queue{s};
        comp[static_cast<std::size_t>(s)] = s;
        while (!queue.empty()) {
          const NodeId v = queue.front();
          queue.pop_front();
          interior.push_back(v);
          for (const auto& [w, eid] : adj[static_cast<std::size_t>(v)]) {
            (void)eid;
            if (in_h_vertex[static_cast<std::size_t>(w)]) {
              frag.attachments.push_back(w);
            } else if (comp[static_cast<std::size_t>(w)] < 0) {
              comp[static_cast<std::size_t>(w)] = s;
              queue.push_back(w);
            }
          }
        }
        std::sort(frag.attachments.begin(), frag.attachments.end());
        frag.attachments.erase(
            std::unique(frag.attachments.begin(), frag.attachments.end()),
            frag.attachments.end());
        PLANSEP_CHECK_MSG(frag.attachments.size() >= 2,
                          "fragment of a biconnected block must have >= 2 "
                          "attachments");
        // A path between two attachments through the interior: BFS from
        // attachment a through interior only, stopping at attachment b.
        const NodeId a = frag.attachments[0];
        std::vector<NodeId> prev(static_cast<std::size_t>(n_local), kNoNode);
        std::vector<char> seen(static_cast<std::size_t>(n_local), 0);
        std::deque<NodeId> q2;
        NodeId reached_b = kNoNode;
        for (const auto& [w, eid] : adj[static_cast<std::size_t>(a)]) {
          (void)eid;
          if (!in_h_vertex[static_cast<std::size_t>(w)] &&
              comp[static_cast<std::size_t>(w)] == s && !seen[static_cast<std::size_t>(w)]) {
            seen[static_cast<std::size_t>(w)] = 1;
            prev[static_cast<std::size_t>(w)] = a;
            q2.push_back(w);
          }
        }
        while (!q2.empty() && reached_b == kNoNode) {
          const NodeId v = q2.front();
          q2.pop_front();
          for (const auto& [w, eid] : adj[static_cast<std::size_t>(v)]) {
            (void)eid;
            if (in_h_vertex[static_cast<std::size_t>(w)]) {
              if (w != a) {
                prev[static_cast<std::size_t>(w)] = v;
                reached_b = w;
                break;
              }
              continue;
            }
            if (!seen[static_cast<std::size_t>(w)]) {
              seen[static_cast<std::size_t>(w)] = 1;
              prev[static_cast<std::size_t>(w)] = v;
              q2.push_back(w);
            }
          }
        }
        PLANSEP_CHECK_MSG(reached_b != kNoNode,
                          "fragment path search failed");
        std::vector<NodeId> rpath;
        for (NodeId x = reached_b; x != kNoNode; x = prev[static_cast<std::size_t>(x)]) {
          rpath.push_back(x);
          if (x == a) break;
        }
        std::reverse(rpath.begin(), rpath.end());
        frag.path = std::move(rpath);
        fragments.push_back(std::move(frag));
      }
    }
    PLANSEP_CHECK_MSG(!fragments.empty(), "no fragments but edges remain");

    // Admissible faces per fragment; pick the most constrained fragment.
    int best_frag = -1;
    FaceId best_face = kNoFace;
    int best_count = std::numeric_limits<int>::max();
    for (std::size_t i = 0; i < fragments.size(); ++i) {
      int count = 0;
      FaceId some = kNoFace;
      for (FaceId f = 0; f < fs.num_faces(); ++f) {
        const auto& fv = face_vertices[static_cast<std::size_t>(f)];
        if (std::includes(fv.begin(), fv.end(),
                          fragments[i].attachments.begin(),
                          fragments[i].attachments.end())) {
          ++count;
          some = f;
        }
      }
      if (count == 0) return std::nullopt;  // non-planar certificate
      if (count < best_count) {
        best_count = count;
        best_frag = static_cast<int>(i);
        best_face = some;
        if (count == 1) break;
      }
    }

    // Embed the chosen fragment's path into the chosen face: insert the
    // end darts at the face corners of the endpoints (the corner after the
    // arriving walk dart), interior vertices appended in order.
    const Fragment& frag = fragments[static_cast<std::size_t>(best_frag)];
    const std::vector<NodeId>& path = frag.path;
    const NodeId a = path.front();
    const NodeId b = path.back();
    int pos_a = -1, pos_b = -1;
    for (DartId d : fs.walk(best_face)) {
      const NodeId head = h.head(d);
      // Corner at `head` between rev(d) and rot_next(rev(d)); inserting
      // before rot_next(rev(d)) places the new dart inside this face.
      if (head == a && pos_a < 0) {
        pos_a = h.position(h.rot_next(EmbeddedGraph::rev(d)));
      }
      if (head == b && pos_b < 0) {
        pos_b = h.position(h.rot_next(EmbeddedGraph::rev(d)));
      }
    }
    PLANSEP_CHECK(pos_a >= 0 && pos_b >= 0);
    if (path.size() == 2) {
      h.add_edge(a, b, pos_a, pos_b);
      mark_edge(a, b);
      ++embedded;
    } else {
      // a – x1 ... xk – b.
      h.add_edge(a, path[1], pos_a, 0);
      mark_edge(a, path[1]);
      in_h_vertex[static_cast<std::size_t>(path[1])] = 1;
      ++embedded;
      for (std::size_t i = 1; i + 2 < path.size(); ++i) {
        h.add_edge_back(path[i], path[i + 1]);
        mark_edge(path[i], path[i + 1]);
        in_h_vertex[static_cast<std::size_t>(path[i + 1])] = 1;
        ++embedded;
      }
      h.add_edge(path[path.size() - 2], b, h.degree(path[path.size() - 2]),
                 pos_b);
      mark_edge(path[path.size() - 2], b);
      ++embedded;
    }
  }

  std::vector<std::vector<NodeId>> rotations(
      static_cast<std::size_t>(n_local));
  for (NodeId v = 0; v < n_local; ++v) {
    rotations[static_cast<std::size_t>(v)] = h.neighbors(v);
  }
  return rotations;
}

}  // namespace

PlanarityResult dmp_planar_embedding_with_witness(
    NodeId n, const std::vector<Edge>& edges) {
  // Validate input and build adjacency.
  std::map<Edge, int> seen;
  std::vector<std::vector<std::pair<NodeId, int>>> adj(
      static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < edges.size(); ++i) {
    auto [a, b] = edges[i];
    PLANSEP_CHECK(a >= 0 && a < n && b >= 0 && b < n);
    PLANSEP_CHECK_MSG(a != b, "self-loops are not supported");
    if (a > b) std::swap(a, b);
    PLANSEP_CHECK_MSG(!seen.count({a, b}), "duplicate edge in input");
    seen[{a, b}] = static_cast<int>(i);
    adj[static_cast<std::size_t>(a)].push_back({b, static_cast<int>(i)});
    adj[static_cast<std::size_t>(b)].push_back({a, static_cast<int>(i)});
  }
  if (n >= 3 && static_cast<int>(edges.size()) > 3 * n - 6) {
    // Euler bound: the whole edge set is the witness (any subgraph with
    // m > 3n - 6 over its support would do; the caller gets the full set).
    return {std::nullopt, edges};
  }

  // Per-block embedding, glued at articulation vertices.
  std::vector<std::vector<NodeId>> rotations(static_cast<std::size_t>(n));
  for (const auto& block : biconnected_blocks(n, adj, static_cast<int>(edges.size()))) {
    if (block.size() == 1) {
      rotations[static_cast<std::size_t>(block[0].first)].push_back(
          block[0].second);
      rotations[static_cast<std::size_t>(block[0].second)].push_back(
          block[0].first);
      continue;
    }
    // Local ids.
    std::vector<NodeId> to_global;
    std::map<NodeId, NodeId> to_local;
    std::vector<Edge> local_edges;
    for (const auto& [a, b] : block) {
      for (NodeId x : {a, b}) {
        if (!to_local.count(x)) {
          to_local[x] = static_cast<NodeId>(to_global.size());
          to_global.push_back(x);
        }
      }
      local_edges.push_back({to_local[a], to_local[b]});
    }
    auto rot = embed_block(static_cast<int>(to_global.size()), local_edges);
    if (!rot.has_value()) {
      // The block itself is non-planar (a block-level DMP failure is a
      // certificate, unlike a fragment-placement dead end in a planar
      // graph, which cannot happen: DMP always extends a planar block).
      // Its edge list, normalized (min, max) and sorted, is the witness.
      std::vector<Edge> witness = block;
      for (auto& [a, b] : witness) {
        if (a > b) std::swap(a, b);
      }
      std::sort(witness.begin(), witness.end());
      return {std::nullopt, std::move(witness)};
    }
    for (NodeId lv = 0; lv < static_cast<NodeId>(to_global.size()); ++lv) {
      auto& out = rotations[static_cast<std::size_t>(to_global[static_cast<std::size_t>(lv)])];
      for (NodeId lw : (*rot)[static_cast<std::size_t>(lv)]) {
        out.push_back(to_global[static_cast<std::size_t>(lw)]);
      }
    }
  }

  EmbeddedGraph g = EmbeddedGraph::from_rotations(rotations);
  const FaceStructure fs(g);
  PLANSEP_CHECK_MSG(fs.euler_genus(g) == 0, "DMP produced a bad embedding");
  return {std::move(g), {}};
}

}  // namespace plansep::testing
