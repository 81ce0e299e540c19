#include "planar/dmp_embedder.hpp"

#include <algorithm>

#include "planar/face_structure.hpp"
#include "util/check.hpp"

namespace plansep::planar {

namespace {

using Edge = std::pair<NodeId, NodeId>;

/// A non-negative int id as a vector index.
std::size_t ix(int i) { return static_cast<std::size_t>(i); }

/// Compressed incidence lists: the edges at v are eid[off[v] .. off[v+1]),
/// in ascending edge id.
struct Incidence {
  std::vector<int> off;
  std::vector<int> eid;
};

Incidence incidence(int n, const std::vector<Edge>& edges) {
  Incidence inc;
  inc.off.assign(ix(n) + 1, 0);
  for (const auto& [a, b] : edges) {
    ++inc.off[ix(a) + 1];
    ++inc.off[ix(b) + 1];
  }
  for (int v = 0; v < n; ++v) inc.off[ix(v) + 1] += inc.off[ix(v)];
  inc.eid.resize(2 * edges.size());
  std::vector<int> fill(inc.off.begin(), inc.off.end() - 1);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    inc.eid[ix(fill[ix(edges[e].first)]++)] = static_cast<int>(e);
    inc.eid[ix(fill[ix(edges[e].second)]++)] = static_cast<int>(e);
  }
  return inc;
}

NodeId other_end(const Edge& e, NodeId v) {
  return e.first == v ? e.second : e.first;
}

/// Rejects a repeated edge (in either orientation) by stamping each
/// vertex's neighbours.
void check_no_repeats(NodeId n, const std::vector<Edge>& edges,
                      const Incidence& inc) {
  std::vector<NodeId> stamp(ix(n), kNoNode);
  for (NodeId v = 0; v < n; ++v) {
    for (int k = inc.off[ix(v)]; k < inc.off[ix(v) + 1]; ++k) {
      NodeId& mark = stamp[ix(other_end(edges[ix(inc.eid[ix(k)])], v))];
      PLANSEP_CHECK_MSG(mark != v, "duplicate edge in input");
      mark = v;
    }
  }
}

/// Biconnected blocks in Hopcroft–Tarjan closing order, flat: block k is
/// edges[start[k] .. start[k+1]), each oriented as the DFS traversed it.
struct Blocks {
  std::vector<Edge> edges;
  std::vector<std::size_t> start{0};
};

/// Iterative Hopcroft–Tarjan with an edge stack.
Blocks biconnected_blocks(NodeId n, const std::vector<Edge>& edges,
                          const Incidence& inc) {
  Blocks blocks;
  blocks.edges.reserve(edges.size());
  std::vector<int> tin(ix(n), -1);
  std::vector<int> low(ix(n), 0);
  std::vector<char> edge_used(edges.size(), 0);
  std::vector<Edge> edge_stack;
  int timer = 0;

  struct Frame {
    NodeId v;
    NodeId parent;
    int i;  // next position in inc.eid
  };
  std::vector<Frame> stack;
  for (NodeId s = 0; s < n; ++s) {
    if (tin[ix(s)] >= 0) continue;
    stack.push_back({s, kNoNode, inc.off[ix(s)]});
    tin[ix(s)] = low[ix(s)] = timer++;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.i < inc.off[ix(f.v) + 1]) {
        const int eid = inc.eid[ix(f.i++)];
        if (edge_used[ix(eid)]) continue;
        edge_used[ix(eid)] = 1;
        const NodeId w = other_end(edges[ix(eid)], f.v);
        edge_stack.push_back({f.v, w});
        if (tin[ix(w)] < 0) {
          tin[ix(w)] = low[ix(w)] = timer++;
          stack.push_back({w, f.v, inc.off[ix(w)]});
        } else {
          low[ix(f.v)] = std::min(low[ix(f.v)], tin[ix(w)]);
        }
      } else {
        const NodeId v = f.v;
        const NodeId p = f.parent;
        stack.pop_back();
        if (p == kNoNode) continue;
        low[ix(p)] = std::min(low[ix(p)], low[ix(v)]);
        if (low[ix(v)] >= tin[ix(p)]) {
          // p closes a block: pop edges down to (p, v).
          for (;;) {
            PLANSEP_CHECK(!edge_stack.empty());
            const Edge e = edge_stack.back();
            edge_stack.pop_back();
            blocks.edges.push_back(e);
            if (e.first == p && e.second == v) break;
          }
          blocks.start.push_back(blocks.edges.size());
        }
      }
    }
    PLANSEP_CHECK(edge_stack.empty());
  }
  return blocks;
}

// ---------------------------------------------------------------------
// Left-right embedding of one biconnected block.
// ---------------------------------------------------------------------

/// The left-right planarity test and embedder over local vertices
/// 0..n-1 (Brandes, "The Left-Right Planarity Test"). Edges are oriented
/// by a DFS; edge e runs src_[e] → dst_[e]. Every array is indexed by
/// local vertex or local edge id and reused across blocks; -1 is "none".
class LeftRight {
 public:
  /// Embeds the connected graph (n, edges); false iff it is not planar.
  /// On success rotation(v) lists v's neighbours clockwise.
  bool embed(int n, const std::vector<Edge>& edges);

  /// The clockwise neighbours of v after a successful embed().
  void rotation(NodeId v, std::vector<NodeId>& out) const;

 private:
  struct Interval {
    int low = -1;
    int high = -1;
    bool empty() const { return low < 0 && high < 0; }
  };
  struct ConflictPair {
    Interval left, right;
  };

  void orient(const std::vector<Edge>& edges, const Incidence& inc);
  void finish_edge(int e);
  void order_out_edges(const std::vector<int>& key, int key_range);
  bool test();
  bool add_constraints(int ei, int e);
  void remove_back_edges(int e);
  void resolve_sides();
  void place_back_edges();

  bool conflicting(const Interval& i, int b) const {
    return i.high >= 0 && lowpt_[ix(i.high)] > lowpt_[ix(b)];
  }
  int lowest(const ConflictPair& p) const {
    if (p.left.empty()) return lowpt_[ix(p.right.low)];
    if (p.right.empty()) return lowpt_[ix(p.left.low)];
    return std::min(lowpt_[ix(p.left.low)], lowpt_[ix(p.right.low)]);
  }

  int n_ = 0;
  int m_ = 0;

  // Orientation (per vertex / per edge); dfs_ is the DFS stack of every
  // phase and next_ its per-vertex cursor.
  std::vector<NodeId> dfs_;
  std::vector<int> height_, parent_edge_, next_;
  std::vector<NodeId> src_, dst_;
  std::vector<int> lowpt_, lowpt2_, nesting_;

  // Out-edges by (key, edge id): out_[out_off_[v] .. out_off_[v+1]).
  std::vector<int> out_off_, out_, sorted_, bucket_, fill_;

  // Testing.
  std::vector<ConflictPair> stack_;
  std::vector<int> stack_bottom_, lowpt_edge_, ref_, side_, chain_;

  // Embedding: darts 2e (at src_[e]) and 2e + 1 (at dst_[e]) in circular
  // clockwise lists; first_[v] is where rotation(v) starts.
  std::vector<int> cw_, ccw_, first_, left_ref_, right_ref_;
};

bool LeftRight::embed(int n, const std::vector<Edge>& edges) {
  n_ = n;
  m_ = static_cast<int>(edges.size());
  if (n >= 3 && m_ > 3 * n - 6) return false;
  orient(edges, incidence(n, edges));
  order_out_edges(nesting_, 2 * n_);
  if (!test()) return false;
  resolve_sides();
  // Final order: nesting depth signed by the resolved side.
  for (int e = 0; e < m_; ++e) {
    nesting_[ix(e)] = side_[ix(e)] * nesting_[ix(e)] + 2 * n_;
  }
  order_out_edges(nesting_, 4 * n_);
  place_back_edges();
  return true;
}

/// Phase 1: DFS orientation, heights, lowpoints and nesting depths.
void LeftRight::orient(const std::vector<Edge>& edges, const Incidence& inc) {
  height_.assign(ix(n_), -1);
  parent_edge_.assign(ix(n_), -1);
  next_.assign(inc.off.begin(), inc.off.end() - 1);
  src_.assign(ix(m_), kNoNode);
  dst_.assign(ix(m_), kNoNode);
  lowpt_.assign(ix(m_), 0);
  lowpt2_.assign(ix(m_), 0);
  nesting_.assign(ix(m_), 0);

  std::vector<NodeId>& stack = dfs_;
  stack.clear();
  height_[0] = 0;
  stack.push_back(0);
  while (!stack.empty()) {
    const NodeId v = stack.back();
    if (next_[ix(v)] < inc.off[ix(v) + 1]) {
      const int e = inc.eid[ix(next_[ix(v)]++)];
      if (src_[ix(e)] != kNoNode) continue;  // already oriented
      const NodeId w = other_end(edges[ix(e)], v);
      src_[ix(e)] = v;
      dst_[ix(e)] = w;
      lowpt_[ix(e)] = lowpt2_[ix(e)] = height_[ix(v)];
      if (height_[ix(w)] < 0) {  // tree edge: finished when w is
        parent_edge_[ix(w)] = e;
        height_[ix(w)] = height_[ix(v)] + 1;
        stack.push_back(w);
        continue;
      }
      lowpt_[ix(e)] = height_[ix(w)];  // back edge
      finish_edge(e);
    } else {
      stack.pop_back();
      if (parent_edge_[ix(v)] >= 0) finish_edge(parent_edge_[ix(v)]);
    }
  }
  for (NodeId v = 0; v < n_; ++v) {
    PLANSEP_CHECK_MSG(height_[ix(v)] >= 0, "block is not connected");
  }
}

/// Nesting depth of e, and its lowpoints folded into its parent edge.
void LeftRight::finish_edge(int e) {
  const NodeId v = src_[ix(e)];
  nesting_[ix(e)] = 2 * lowpt_[ix(e)] + (lowpt2_[ix(e)] < height_[ix(v)]);
  const int pe = parent_edge_[ix(v)];
  if (pe < 0) return;
  const std::size_t p = ix(pe);
  if (lowpt_[ix(e)] < lowpt_[p]) {
    lowpt2_[p] = std::min(lowpt_[p], lowpt2_[ix(e)]);
    lowpt_[p] = lowpt_[ix(e)];
  } else if (lowpt_[ix(e)] > lowpt_[p]) {
    lowpt2_[p] = std::min(lowpt2_[p], lowpt_[ix(e)]);
  } else {
    lowpt2_[p] = std::min(lowpt2_[p], lowpt2_[ix(e)]);
  }
}

/// Out-edges of every vertex ordered by (key, edge id), key in
/// [0, key_range): one counting sort over all edges, then a stable
/// scatter by source.
void LeftRight::order_out_edges(const std::vector<int>& key, int key_range) {
  bucket_.assign(ix(key_range) + 1, 0);
  for (int e = 0; e < m_; ++e) ++bucket_[ix(key[ix(e)]) + 1];
  for (int k = 0; k < key_range; ++k) bucket_[ix(k) + 1] += bucket_[ix(k)];
  sorted_.resize(ix(m_));
  for (int e = 0; e < m_; ++e) sorted_[ix(bucket_[ix(key[ix(e)])]++)] = e;

  out_off_.assign(ix(n_) + 1, 0);
  for (int e = 0; e < m_; ++e) ++out_off_[ix(src_[ix(e)]) + 1];
  for (int v = 0; v < n_; ++v) out_off_[ix(v) + 1] += out_off_[ix(v)];
  fill_.assign(out_off_.begin(), out_off_.end() - 1);
  out_.resize(ix(m_));
  for (const int e : sorted_) out_[ix(fill_[ix(src_[ix(e)])]++)] = e;
}

/// Phase 2: DFS in nesting order, building the left-right constraints.
bool LeftRight::test() {
  stack_.clear();
  stack_bottom_.assign(ix(m_), -1);  // -1: e_i not entered yet
  lowpt_edge_.assign(ix(m_), -1);
  ref_.assign(ix(m_), -1);
  side_.assign(ix(m_), 1);
  next_.assign(out_off_.begin(), out_off_.end() - 1);

  std::vector<NodeId>& stack = dfs_;
  stack.clear();
  stack.push_back(0);
  while (!stack.empty()) {
    const NodeId v = stack.back();
    const int e = parent_edge_[ix(v)];
    if (next_[ix(v)] == out_off_[ix(v) + 1]) {
      stack.pop_back();
      if (e >= 0) remove_back_edges(e);
      continue;
    }
    const int ei = out_[ix(next_[ix(v)])];
    if (stack_bottom_[ix(ei)] < 0) {
      stack_bottom_[ix(ei)] = static_cast<int>(stack_.size());
      if (parent_edge_[ix(dst_[ix(ei)])] == ei) {  // tree edge: descend
        stack.push_back(dst_[ix(ei)]);
        continue;
      }
      lowpt_edge_[ix(ei)] = ei;  // back edge: its own conflict pair
      stack_.push_back({{}, {ei, ei}});
    }
    // Integrate the new return edges of e_i.
    if (lowpt_[ix(ei)] < height_[ix(v)]) {
      if (next_[ix(v)] == out_off_[ix(v)]) {
        lowpt_edge_[ix(e)] = lowpt_edge_[ix(ei)];
      } else if (!add_constraints(ei, e)) {
        return false;
      }
    }
    ++next_[ix(v)];
  }
  return true;
}

bool LeftRight::add_constraints(int ei, int e) {
  ConflictPair p;
  // Merge the return edges of e_i into p.right.
  do {
    PLANSEP_CHECK(!stack_.empty());
    ConflictPair q = stack_.back();
    stack_.pop_back();
    if (!q.left.empty()) std::swap(q.left, q.right);
    if (!q.left.empty()) return false;
    if (lowpt_[ix(q.right.low)] > lowpt_[ix(e)]) {  // merge intervals
      if (p.right.empty()) {
        p.right.high = q.right.high;
      } else {
        ref_[ix(p.right.low)] = q.right.high;
      }
      p.right.low = q.right.low;
    } else {  // align
      ref_[ix(q.right.low)] = lowpt_edge_[ix(e)];
    }
  } while (static_cast<int>(stack_.size()) > stack_bottom_[ix(ei)]);

  // Merge the conflicting return edges of e_1 .. e_{i-1} into p.left.
  while (!stack_.empty() && (conflicting(stack_.back().left, ei) ||
                             conflicting(stack_.back().right, ei))) {
    ConflictPair q = stack_.back();
    stack_.pop_back();
    if (conflicting(q.right, ei)) std::swap(q.left, q.right);
    if (conflicting(q.right, ei)) return false;
    // Merge the interval below lowpt(e_i) into p.right.
    if (p.right.empty()) {
      p.right.high = q.right.high;
    } else {
      ref_[ix(p.right.low)] = q.right.high;
    }
    if (q.right.low >= 0) p.right.low = q.right.low;
    if (p.left.empty()) {
      p.left.high = q.left.high;
    } else {
      ref_[ix(p.left.low)] = q.left.high;
    }
    p.left.low = q.left.low;
  }
  if (!p.left.empty() || !p.right.empty()) stack_.push_back(p);
  return true;
}

/// Trims the back edges ending at the parent u of tree edge e, then
/// anchors e's side to its highest return edge.
void LeftRight::remove_back_edges(int e) {
  const NodeId u = src_[ix(e)];
  while (!stack_.empty() && lowest(stack_.back()) == height_[ix(u)]) {
    const ConflictPair p = stack_.back();
    stack_.pop_back();
    if (p.left.low >= 0) side_[ix(p.left.low)] = -1;
  }
  if (!stack_.empty()) {
    ConflictPair& p = stack_.back();
    while (p.left.high >= 0 && dst_[ix(p.left.high)] == u) {
      p.left.high = ref_[ix(p.left.high)];
    }
    if (p.left.high < 0 && p.left.low >= 0) {  // just emptied
      ref_[ix(p.left.low)] = p.right.low;
      side_[ix(p.left.low)] = -1;
      p.left.low = -1;
    }
    while (p.right.high >= 0 && dst_[ix(p.right.high)] == u) {
      p.right.high = ref_[ix(p.right.high)];
    }
    if (p.right.high < 0 && p.right.low >= 0) {  // just emptied
      ref_[ix(p.right.low)] = p.left.low;
      side_[ix(p.right.low)] = -1;
      p.right.low = -1;
    }
  }
  if (lowpt_[ix(e)] < height_[ix(u)]) {  // e has a return edge
    PLANSEP_CHECK(!stack_.empty());
    const int hl = stack_.back().left.high;
    const int hr = stack_.back().right.high;
    ref_[ix(e)] = hl >= 0 && (hr < 0 || lowpt_[ix(hl)] > lowpt_[ix(hr)])
                      ? hl
                      : hr;
  }
}

/// Turns every side relative to its reference edge into an absolute
/// side, walking each reference chain once (the references form a
/// forest; the chain length bound guards against a cycle).
void LeftRight::resolve_sides() {
  for (int e = 0; e < m_; ++e) {
    chain_.clear();
    for (int x = e; ref_[ix(x)] >= 0; x = ref_[ix(x)]) {
      chain_.push_back(x);
      PLANSEP_CHECK(static_cast<int>(chain_.size()) <= m_);
    }
    for (std::size_t k = chain_.size(); k-- > 0;) {
      const std::size_t y = ix(chain_[k]);
      side_[y] *= side_[ix(ref_[y])];
      ref_[y] = -1;
    }
  }
}

/// Phase 3: rotations start as the out-edges in signed nesting order; a
/// DFS then inserts each tree edge's far end first at its child and each
/// back edge at its ancestor, left or right of the reference dart.
void LeftRight::place_back_edges() {
  cw_.assign(2 * ix(m_), -1);
  ccw_.assign(2 * ix(m_), -1);
  first_.assign(ix(n_), -1);
  left_ref_.assign(ix(n_), -1);
  right_ref_.assign(ix(n_), -1);
  for (int v = 0; v < n_; ++v) {
    const int b = out_off_[ix(v)];
    const int k = out_off_[ix(v) + 1] - b;
    for (int i = 0; i < k; ++i) {
      const int d = 2 * out_[ix(b + i)];
      cw_[ix(d)] = 2 * out_[ix(b + (i + 1) % k)];
      ccw_[ix(d)] = 2 * out_[ix(b + (i + k - 1) % k)];
    }
    if (k > 0) first_[ix(v)] = 2 * out_[ix(b)];
  }
  const auto insert_after = [&](int r, int x) {  // x clockwise after r
    cw_[ix(x)] = cw_[ix(r)];
    ccw_[ix(x)] = r;
    ccw_[ix(cw_[ix(r)])] = x;
    cw_[ix(r)] = x;
  };
  const auto insert_before = [&](NodeId w, int l, int x) {  // ccw before l
    insert_after(ccw_[ix(l)], x);
    if (first_[ix(w)] == l) first_[ix(w)] = x;
  };

  next_.assign(out_off_.begin(), out_off_.end() - 1);
  std::vector<NodeId>& stack = dfs_;
  stack.clear();
  stack.push_back(0);
  while (!stack.empty()) {
    const NodeId v = stack.back();
    if (next_[ix(v)] == out_off_[ix(v) + 1]) {
      stack.pop_back();
      continue;
    }
    const int e = out_[ix(next_[ix(v)]++)];
    const NodeId w = dst_[ix(e)];
    const int x = 2 * e + 1;  // the dart of e at w
    if (parent_edge_[ix(w)] == e) {
      if (first_[ix(w)] < 0) {
        cw_[ix(x)] = ccw_[ix(x)] = x;
        first_[ix(w)] = x;
      } else {
        insert_before(w, first_[ix(w)], x);
      }
      left_ref_[ix(v)] = right_ref_[ix(v)] = 2 * e;
      stack.push_back(w);
    } else if (side_[ix(e)] == 1) {
      insert_after(right_ref_[ix(w)], x);
    } else {
      insert_before(w, left_ref_[ix(w)], x);
      left_ref_[ix(w)] = x;
    }
  }
}

void LeftRight::rotation(NodeId v, std::vector<NodeId>& out) const {
  const int start = first_[ix(v)];
  if (start < 0) return;
  int d = start;
  do {
    const int e = d >> 1;
    out.push_back((d & 1) ? src_[ix(e)] : dst_[ix(e)]);
    d = cw_[ix(d)];
  } while (d != start);
}

}  // namespace

PlanarityResult planar_embedding_with_witness(
    NodeId n, const std::vector<Edge>& edges) {
  for (const auto& [a, b] : edges) {
    PLANSEP_CHECK(a >= 0 && a < n && b >= 0 && b < n);
    PLANSEP_CHECK_MSG(a != b, "self-loops are not supported");
  }
  const Incidence inc = incidence(n, edges);
  check_no_repeats(n, edges, inc);
  if (n >= 3 && static_cast<long long>(edges.size()) > 3LL * n - 6) {
    // Euler bound: the whole edge set is the witness (any subgraph with
    // m > 3n - 6 over its support would do; the caller gets the full set).
    return {std::nullopt, edges};
  }

  // Per-block embedding, glued at articulation vertices.
  const Blocks blocks = biconnected_blocks(n, edges, inc);
  std::vector<std::vector<NodeId>> rotations(ix(n));
  std::vector<NodeId> to_local(ix(n), kNoNode);
  std::vector<NodeId> to_global;
  std::vector<Edge> local_edges;
  LeftRight lr;
  for (std::size_t k = 0; k + 1 < blocks.start.size(); ++k) {
    const auto first = blocks.edges.begin() +
                       static_cast<std::ptrdiff_t>(blocks.start[k]);
    const auto last = blocks.edges.begin() +
                      static_cast<std::ptrdiff_t>(blocks.start[k + 1]);
    if (last - first == 1) {
      rotations[ix(first->first)].push_back(first->second);
      rotations[ix(first->second)].push_back(first->first);
      continue;
    }
    // Local ids in order of first appearance.
    to_global.clear();
    local_edges.clear();
    for (auto it = first; it != last; ++it) {
      for (const NodeId x : {it->first, it->second}) {
        if (to_local[ix(x)] == kNoNode) {
          to_local[ix(x)] = static_cast<NodeId>(to_global.size());
          to_global.push_back(x);
        }
      }
      local_edges.push_back({to_local[ix(it->first)], to_local[ix(it->second)]});
    }
    for (const NodeId x : to_global) to_local[ix(x)] = kNoNode;
    if (!lr.embed(static_cast<int>(to_global.size()), local_edges)) {
      // The block itself is non-planar; its edge list, normalized
      // (min, max) and sorted, is the witness.
      std::vector<Edge> witness(first, last);
      for (auto& [a, b] : witness) {
        if (a > b) std::swap(a, b);
      }
      std::sort(witness.begin(), witness.end());
      return {std::nullopt, std::move(witness)};
    }
    for (NodeId lv = 0; lv < static_cast<NodeId>(to_global.size()); ++lv) {
      auto& out = rotations[ix(to_global[ix(lv)])];
      const std::size_t from = out.size();
      lr.rotation(lv, out);
      for (std::size_t i = from; i < out.size(); ++i) {
        out[i] = to_global[ix(out[i])];
      }
    }
  }

  EmbeddedGraph g = EmbeddedGraph::from_rotations(rotations);
  const FaceStructure fs(g);
  PLANSEP_CHECK_MSG(fs.euler_genus(g) == 0,
                    "left-right embedder produced a bad embedding");
  return {std::move(g), {}};
}

std::optional<EmbeddedGraph> planar_embedding(
    NodeId n, const std::vector<Edge>& edges) {
  return planar_embedding_with_witness(n, edges).embedding;
}

bool is_planar(NodeId n, const std::vector<Edge>& edges) {
  return planar_embedding(n, edges).has_value();
}

}  // namespace plansep::planar
