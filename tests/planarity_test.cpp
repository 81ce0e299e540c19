// Differential test of the left-right planarity embedder (the admission
// path, planar/dmp_embedder.hpp) against the DMP oracle
// (testing/dmp_oracle.hpp). Over a seeded matrix of planar and
// non-planar inputs both must return the same verdict and the same
// witness byte for byte, and on a planar input the left-right embedding
// must have genus 0 and exactly the input edge set. A disagreement prints
// one replay line: the proptest case spec plus the splice that built the
// input.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "planar/dmp_embedder.hpp"
#include "planar/face_structure.hpp"
#include "planar/generators.hpp"
#include "testing/dmp_oracle.hpp"
#include "testing/proptest.hpp"
#include "util/rng.hpp"

namespace plansep {
namespace {

using planar::NodeId;
using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

/// A checked input: the graph plus the command that rebuilds it.
struct Input {
  std::string replay;
  NodeId n = 0;
  EdgeList edges;  // normalised (min, max) and sorted, as ingest hands it
};

EdgeList canonical(EdgeList edges) {
  for (auto& [a, b] : edges) {
    if (a > b) std::swap(a, b);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

EdgeList edge_list(const planar::EmbeddedGraph& g) {
  EdgeList out;
  for (planar::EdgeId e = 0; e < g.num_edges(); ++e) {
    out.emplace_back(g.edge_u(e), g.edge_v(e));
  }
  return canonical(std::move(out));
}

/// Checks the contract on one input; returns false (after recording a
/// failure with the replay line) on any disagreement.
bool agrees(const Input& in) {
  const auto lr = planar::planar_embedding_with_witness(in.n, in.edges);
  const auto dmp = testing::dmp_planar_embedding_with_witness(in.n, in.edges);
  const std::string replay = "replay: " + in.replay;
  if (lr.planar() != dmp.planar()) {
    ADD_FAILURE() << "verdict: left-right " << lr.planar() << ", DMP "
                  << dmp.planar() << "; " << replay;
    return false;
  }
  if (lr.witness != dmp.witness) {
    ADD_FAILURE() << "witness: left-right " << lr.witness.size()
                  << " edges, DMP " << dmp.witness.size() << "; " << replay;
    return false;
  }
  if (lr.planar()) {
    const planar::FaceStructure fs(*lr.embedding);
    if (fs.euler_genus(*lr.embedding) != 0 ||
        edge_list(*lr.embedding) != in.edges ||
        lr.embedding->num_nodes() != in.n) {
      ADD_FAILURE() << "left-right embedding is not a genus-0 embedding of "
                       "the input; "
                    << replay;
      return false;
    }
  }
  return true;
}

Input from_spec(const testing::CaseSpec& spec) {
  const testing::Instance inst = testing::build_instance(spec);
  return {spec.replay(), inst.gg.graph.num_nodes(),
          edge_list(inst.gg.graph)};
}

// ---------------------------------------------------- Kuratowski gadgets --

enum class Gadget { kK5, kK33, kSubdividedK5, kSubdividedK33 };
enum class Placement { kInBlock, kAtCutVertex, kSeparate };

const char* gadget_name(Gadget g) {
  switch (g) {
    case Gadget::kK5: return "k5";
    case Gadget::kK33: return "k33";
    case Gadget::kSubdividedK5: return "subdivided_k5";
    case Gadget::kSubdividedK33: return "subdivided_k33";
  }
  return "?";
}

const char* placement_name(Placement p) {
  switch (p) {
    case Placement::kInBlock: return "in_block";
    case Placement::kAtCutVertex: return "at_cut_vertex";
    case Placement::kSeparate: return "separate";
  }
  return "?";
}

/// The gadget's edges over local ids 0.. (branch vertices first).
EdgeList gadget_edges(Gadget g, NodeId& count) {
  EdgeList core;
  NodeId branch = 0;
  if (g == Gadget::kK5 || g == Gadget::kSubdividedK5) {
    branch = 5;
    for (NodeId a = 0; a < 5; ++a) {
      for (NodeId b = a + 1; b < 5; ++b) core.emplace_back(a, b);
    }
  } else {
    branch = 6;
    for (NodeId a = 0; a < 3; ++a) {
      for (NodeId b = 3; b < 6; ++b) core.emplace_back(a, b);
    }
  }
  count = branch;
  if (g == Gadget::kK5 || g == Gadget::kK33) return core;
  EdgeList out;
  for (const auto& [a, b] : core) {
    out.emplace_back(a, count);
    out.emplace_back(count, b);
    ++count;
  }
  return out;
}

/// Splices the gadget into the base graph on fresh ids and relabels all
/// vertices by a seeded permutation (so the gadget's block lands anywhere
/// in the block order).
Input splice(const Input& base, Gadget g, Placement p, std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(g) * 7 +
          static_cast<std::uint64_t>(p));
  NodeId count = 0;
  const EdgeList gadget = gadget_edges(g, count);
  Input out;
  out.replay = base.replay + " --splice=" + gadget_name(g) + "@" +
               placement_name(p);
  out.n = base.n + count;
  out.edges = base.edges;
  std::vector<NodeId> id(static_cast<std::size_t>(count));
  std::iota(id.begin(), id.end(), base.n);
  if (p == Placement::kAtCutVertex) {
    // Gadget branch vertex 0 becomes a base vertex: the gadget is a block
    // of its own, hung off that cut vertex.
    id[0] = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(base.n)));
    --out.n;
    for (NodeId k = 1; k < count; ++k) --id[static_cast<std::size_t>(k)];
  }
  for (const auto& [a, b] : gadget) {
    out.edges.emplace_back(id[static_cast<std::size_t>(a)],
                           id[static_cast<std::size_t>(b)]);
  }
  if (p == Placement::kInBlock) {
    // Connectors from the two ends of a random base edge (which share a
    // block) to two gadget vertices merge gadget and block.
    const auto& [u, v] = base.edges[static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(base.edges.size())))];
    out.edges.emplace_back(u, id[0]);
    out.edges.emplace_back(v, id[1]);
  }
  std::vector<NodeId> perm(static_cast<std::size_t>(out.n));
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(perm.data(), perm.size());
  for (auto& [a, b] : out.edges) {
    a = perm[static_cast<std::size_t>(a)];
    b = perm[static_cast<std::size_t>(b)];
  }
  out.edges = canonical(std::move(out.edges));
  return out;
}

// ------------------------------------------------------------- matrix ----

class FamilyDifferential : public ::testing::TestWithParam<planar::Family> {};

TEST_P(FamilyDifferential, PlanarInstancesAgreeWithDmp) {
  for (const int n : {60, 500, 2000}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ASSERT_TRUE(agrees(from_spec({GetParam(), n, seed})));
    }
  }
}

TEST_P(FamilyDifferential, PlanarityPreservingMutationsAgreeWithDmp) {
  for (const auto m : {testing::Mutation::kPendantTrees,
                       testing::Mutation::kSubdividedEdges}) {
    for (const int n : {60, 500}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        ASSERT_TRUE(agrees(from_spec({GetParam(), n, seed, m})));
      }
    }
  }
}

TEST_P(FamilyDifferential, SplicedKuratowskiGadgetsAgreeWithDmp) {
  for (const int n : {60, 500}) {
    const Input base = from_spec({GetParam(), n, 1});
    for (const Gadget g : {Gadget::kK5, Gadget::kK33, Gadget::kSubdividedK5,
                           Gadget::kSubdividedK33}) {
      for (const Placement p : {Placement::kInBlock, Placement::kAtCutVertex,
                                Placement::kSeparate}) {
        const Input in = splice(base, g, p, static_cast<std::uint64_t>(n));
        ASSERT_FALSE(planar::is_planar(in.n, in.edges)) << in.replay;
        ASSERT_TRUE(agrees(in));
      }
    }
  }
}

TEST_P(FamilyDifferential, TwoNonPlanarBlocksReportTheFirstInBlockOrder) {
  // Two gadgets in different blocks: the witness is whichever block the
  // Hopcroft–Tarjan order closes first, the same one DMP reports.
  const Input base = from_spec({GetParam(), 60, 2});
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Input one = splice(base, Gadget::kK5, Placement::kAtCutVertex, seed);
    const Input two =
        splice(one, Gadget::kSubdividedK33, Placement::kSeparate, seed);
    ASSERT_TRUE(agrees(two));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FamilyDifferential, ::testing::ValuesIn(planar::all_families()),
    [](const ::testing::TestParamInfo<planar::Family>& info) {
      std::string name = planar::family_name(info.param);
      std::replace(name.begin(), name.end(), '+', '_');  // "grid+diag"
      return name;
    });

TEST(PlanarityDifferential, TriangulationPlusOneMissingEdgeOverflowsEuler) {
  for (const int n : {60, 500, 2000}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Input in = from_spec({planar::Family::kTriangulation, n, seed});
      const std::set<std::pair<NodeId, NodeId>> have(in.edges.begin(),
                                                     in.edges.end());
      Rng rng(seed);
      for (;;) {
        NodeId a = static_cast<NodeId>(rng.next_below(in.n));
        NodeId b = static_cast<NodeId>(rng.next_below(in.n));
        if (a > b) std::swap(a, b);
        if (a == b || have.count({a, b})) continue;
        in.edges.emplace_back(a, b);
        in.replay += " --add-edge=" + std::to_string(a) + "," +
                     std::to_string(b);
        break;
      }
      in.edges = canonical(std::move(in.edges));
      ASSERT_TRUE(agrees(in));
      const auto res = planar::planar_embedding_with_witness(in.n, in.edges);
      EXPECT_EQ(res.witness, in.edges) << "Euler overflow: whole edge set";
    }
  }
}

TEST(PlanarityDifferential, TriangulationEdgeSwapsAgreeWithDmp) {
  // Remove k edges of a triangulation and add k non-edges: the edge count
  // stays at 3n - 6, so the verdict rests on the embedders alone, and the
  // whole graph is one large block.
  for (const int n : {60, 500}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      for (const int k : {1, 3}) {
        Input in = from_spec({planar::Family::kTriangulation, n, seed});
        std::set<std::pair<NodeId, NodeId>> have(in.edges.begin(),
                                                 in.edges.end());
        Rng rng(seed * 1000 + static_cast<std::uint64_t>(k));
        for (int i = 0; i < k; ++i) {
          const std::size_t drop = static_cast<std::size_t>(
              rng.next_below(in.edges.size()));
          have.erase(in.edges[drop]);
          in.edges.erase(in.edges.begin() + static_cast<std::ptrdiff_t>(drop));
        }
        for (int i = 0; i < k;) {
          NodeId a = static_cast<NodeId>(rng.next_below(in.n));
          NodeId b = static_cast<NodeId>(rng.next_below(in.n));
          if (a > b) std::swap(a, b);
          if (a == b || !have.insert({a, b}).second) continue;
          in.edges.emplace_back(a, b);
          ++i;
        }
        in.replay += " --swap-edges=" + std::to_string(k) +
                     " --swap-seed=" + std::to_string(seed * 1000 + k);
        in.edges = canonical(std::move(in.edges));
        ASSERT_TRUE(agrees(in));
      }
    }
  }
}

TEST(PlanarityDifferential, SmallRandomGraphsAgreeWithDmp) {
  // Dense small graphs hit every branch of the conflict-pair bookkeeping
  // (both verdicts, nested and interlaced return edges) thousands of
  // times.
  int planar_count = 0;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    Rng rng(seed);
    const NodeId n = static_cast<NodeId>(5 + rng.next_below(11));
    const std::uint64_t max_m = static_cast<std::uint64_t>(3 * n - 6);
    const std::uint64_t m = n - 1 + rng.next_below(max_m - (n - 1) + 2);
    std::set<std::pair<NodeId, NodeId>> have;
    while (have.size() < m &&
           have.size() < static_cast<std::size_t>(n) * (n - 1) / 2) {
      NodeId a = static_cast<NodeId>(rng.next_below(n));
      NodeId b = static_cast<NodeId>(rng.next_below(n));
      if (a == b) continue;
      have.insert({std::min(a, b), std::max(a, b)});
    }
    Input in{"--random-graph-seed=" + std::to_string(seed), n,
             EdgeList(have.begin(), have.end())};
    ASSERT_TRUE(agrees(in));
    planar_count += planar::is_planar(n, in.edges);
  }
  EXPECT_GT(planar_count, 300);
  EXPECT_LT(planar_count, 2700);
}

TEST(PlanarityDifferential, PetersenAndItsDeletionsAgreeWithDmp) {
  EdgeList petersen;
  for (NodeId i = 0; i < 5; ++i) {
    petersen.emplace_back(i, (i + 1) % 5);
    petersen.emplace_back(5 + i, 5 + (i + 2) % 5);
    petersen.emplace_back(i, 5 + i);
  }
  petersen = canonical(petersen);
  ASSERT_TRUE(agrees({"--graph=petersen", 10, petersen}));
  for (std::size_t drop = 0; drop < petersen.size(); ++drop) {
    EdgeList e = petersen;
    e.erase(e.begin() + static_cast<std::ptrdiff_t>(drop));
    ASSERT_TRUE(
        agrees({"--graph=petersen --drop-edge=" + std::to_string(drop), 10, e}));
  }
  for (NodeId v = 0; v < 10; ++v) {
    EdgeList e;
    for (const auto& [a, b] : petersen) {
      if (a != v && b != v) e.emplace_back(a, b);
    }
    ASSERT_TRUE(
        agrees({"--graph=petersen --drop-node=" + std::to_string(v), 10, e}));
  }
}

}  // namespace
}  // namespace plansep
