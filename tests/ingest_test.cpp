// The ingest front door (src/ingest/): reader dialects and hostile-input
// edge cases, the full rejection taxonomy with its exact error strings,
// canonicalization invariance, triangulation, and corpus round-trips —
// an accepted external edge list must be indistinguishable from a
// generated instance to every downstream tier — plus admission at
// hostile scale under a wall budget linear in the edge count.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <unordered_set>

#include "core/fingerprint.hpp"
#include "ingest/pipeline.hpp"
#include "io/corpus.hpp"
#include "planar/dmp_embedder.hpp"
#include "planar/generators.hpp"
#include "planar/planarity.hpp"
#include "util/rng.hpp"

namespace plansep {
namespace {

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    path_ = (fs::temp_directory_path() /
             (std::string("plansep_ing_") + tag + "_" +
              std::to_string(reinterpret_cast<std::uintptr_t>(this))))
                .string();
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

ingest::IngestResult run(const std::string& text,
                         ingest::IngestOptions opts = {}) {
  return ingest::ingest_string(text, opts);
}

/// Runs and returns the rejection; fails the test if accepted.
ingest::IngestError reject(const std::string& text,
                           ingest::IngestOptions opts = {}) {
  try {
    (void)ingest::ingest_string(text, opts);
  } catch (const ingest::IngestError& e) {
    return e;
  }
  ADD_FAILURE() << "input was accepted: " << text;
  return {ingest::IngestErrorCode::kParse, 0, "unreached"};
}

// ------------------------------------------------------------- reader ----

TEST(IngestReader, PlainEdgeListWithCommentsBlanksAndCrlf) {
  const auto res = run("# header comment\r\n"
                       "10 20\r\n"
                       "\r\n"
                       "20 30\t\n"
                       "  30 10  \n"
                       "# trailing comment");
  EXPECT_EQ(res.graph.num_nodes(), 3);
  EXPECT_EQ(res.graph.num_edges(), 3);
  EXPECT_EQ(res.stats.lines, 6u);
  EXPECT_EQ(res.stats.comment_lines, 3u);
  EXPECT_EQ(res.stats.input_edges, 3u);
}

TEST(IngestReader, DimacsDialect) {
  const auto res = run("c a dimacs file\n"
                       "p edge 3 3\n"
                       "e 1 2\n"
                       "e 2 3\n"
                       "e 3 1\n");
  EXPECT_EQ(res.graph.num_nodes(), 3);
  EXPECT_EQ(res.graph.num_edges(), 3);
}

TEST(IngestReader, AutoDetectsDimacsFromLeadingComment) {
  // A leading "c ..." line selects the DIMACS dialect under kAuto.
  const auto res = run("c comment first\np edge 2 1\ne 1 2\n");
  EXPECT_EQ(res.graph.num_edges(), 1);

  ingest::IngestOptions opts;
  opts.format = ingest::TextFormat::kDimacs;
  const auto forced = run("p edge 2 1\ne 7 9\n", opts);
  EXPECT_EQ(forced.graph.num_edges(), 1);
}

TEST(IngestReader, SixtyFourBitIdsSurviveCompaction) {
  const long long big = 9007199254740993LL;  // > 2^53: dies in a double
  const auto res = run(std::to_string(big) + " " + std::to_string(big + 7) +
                       "\n" + std::to_string(big + 7) + " 3\n");
  EXPECT_EQ(res.graph.num_nodes(), 3);
  EXPECT_EQ(res.graph.num_edges(), 2);
}

TEST(IngestReader, FinalLineWithoutNewlineParses) {
  const auto res = run("1 2\n2 3");
  EXPECT_EQ(res.graph.num_edges(), 2);
}

// ----------------------------------------------------------- taxonomy ----

TEST(IngestTaxonomy, ParseErrorsCarryCodeLineAndExactMessage) {
  const auto e = reject("1 2\n1 2 3\n");
  EXPECT_EQ(e.code(), ingest::IngestErrorCode::kParse);
  EXPECT_EQ(e.line(), 2u);
  EXPECT_STREQ(e.what(),
               "ingest rejected [parse] line 2: trailing tokens after "
               "edge: '3'");

  const auto bad = reject("1 x\n");
  EXPECT_EQ(bad.code(), ingest::IngestErrorCode::kParse);
  EXPECT_STREQ(bad.what(),
               "ingest rejected [parse] line 1: expected node id, got 'x'");

  const auto neg = reject("1 -2\n");
  EXPECT_EQ(neg.code(), ingest::IngestErrorCode::kParse);

  const auto glued = reject("12x 3\n");
  EXPECT_EQ(glued.code(), ingest::IngestErrorCode::kParse);
}

TEST(IngestTaxonomy, Overflow) {
  const auto e = reject("18446744073709551617 2\n");
  EXPECT_EQ(e.code(), ingest::IngestErrorCode::kOverflow);
  EXPECT_EQ(e.line(), 1u);
  EXPECT_STREQ(e.what(),
               "ingest rejected [overflow] line 1: node id "
               "'18446744073709551617' exceeds 2^63-1");
  // 2^63-1 itself is representable and fine.
  const auto ok = run("9223372036854775807 0\n");
  EXPECT_EQ(ok.graph.num_nodes(), 2);
}

TEST(IngestTaxonomy, LineLimit) {
  ingest::IngestOptions opts;
  opts.max_line_bytes = 16;
  const auto e = reject("1 2\n3 400000000000000000\n", opts);
  EXPECT_EQ(e.code(), ingest::IngestErrorCode::kLineLimit);
  EXPECT_EQ(e.line(), 2u);
}

TEST(IngestTaxonomy, SelfLoopPolicy) {
  const auto e = reject("1 2\n7 7\n2 3\n");
  EXPECT_EQ(e.code(), ingest::IngestErrorCode::kSelfLoop);
  EXPECT_STREQ(e.what(),
               "ingest rejected [self-loop]: self-loop at node 7 (pass "
               "--drop-self-loops to drop)");

  ingest::IngestOptions opts;
  opts.drop_self_loops = true;
  const auto res = run("1 2\n7 7\n2 3\n", opts);
  EXPECT_EQ(res.graph.num_edges(), 2);
  EXPECT_EQ(res.stats.dropped_self_loops, 1u);
  EXPECT_EQ(res.graph.num_nodes(), 3) << "a dropped loop interns no node";
}

TEST(IngestTaxonomy, DuplicateEdgePolicy) {
  // Duplicates in either orientation.
  const auto e = reject("1 2\n2 3\n2 1\n");
  EXPECT_EQ(e.code(), ingest::IngestErrorCode::kDuplicateEdge);
  EXPECT_STREQ(e.what(),
               "ingest rejected [duplicate-edge]: duplicate edge {1, 2} "
               "(pass --drop-duplicates to drop)");

  ingest::IngestOptions opts;
  opts.drop_duplicate_edges = true;
  const auto res = run("1 2\n2 3\n2 1\n", opts);
  EXPECT_EQ(res.graph.num_edges(), 2);
  EXPECT_EQ(res.stats.dropped_duplicates, 1u);
}

TEST(IngestTaxonomy, NodeAndEdgeCaps) {
  ingest::IngestOptions opts;
  opts.max_nodes = 3;
  const auto e = reject("1 2\n2 3\n3 4\n", opts);
  EXPECT_EQ(e.code(), ingest::IngestErrorCode::kNodeLimit);

  ingest::IngestOptions opts2;
  opts2.max_edges = 2;
  const auto e2 = reject("1 2\n2 3\n3 4\n", opts2);
  EXPECT_EQ(e2.code(), ingest::IngestErrorCode::kEdgeLimit);
  EXPECT_EQ(e2.line(), 3u) << "the reader rejects while streaming";
}

TEST(IngestTaxonomy, EmptyInput) {
  EXPECT_EQ(reject("").code(), ingest::IngestErrorCode::kEmpty);
  EXPECT_EQ(reject("# only comments\n\n").code(),
            ingest::IngestErrorCode::kEmpty);
  EXPECT_STREQ(reject("").what(), "ingest rejected [empty]: no edges in input");
}

TEST(IngestTaxonomy, DimacsHeaderLies) {
  const auto e = reject("p edge 3 5\ne 1 2\ne 2 3\n");
  EXPECT_EQ(e.code(), ingest::IngestErrorCode::kParse);

  const auto e2 = reject("p edge 2 3\ne 1 2\ne 2 3\ne 3 1\n");
  EXPECT_EQ(e2.code(), ingest::IngestErrorCode::kParse);

  const auto e3 = reject("e 1 2\n");
  EXPECT_EQ(e3.code(), ingest::IngestErrorCode::kParse);

  const auto e4 = reject("p edge 9 1\ne 1 2\np edge 9 1\n");
  EXPECT_EQ(e4.code(), ingest::IngestErrorCode::kParse);
}

TEST(IngestTaxonomy, NonPlanarCarriesWitnessInOriginalIds) {
  // K5 over sparse external ids {100, 200, 300, 400, 500}.
  std::string text;
  const long long ids[5] = {100, 200, 300, 400, 500};
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      text += std::to_string(ids[a]) + " " + std::to_string(ids[b]) + "\n";
    }
  }
  // Plus a planar tail hanging off one K5 vertex.
  text += "100 7\n7 8\n";
  const auto e = reject(text);
  EXPECT_EQ(e.code(), ingest::IngestErrorCode::kNonPlanar);
  ASSERT_EQ(e.witness().size(), 10u) << "witness is the K5 block only";
  for (const auto& [u, v] : e.witness()) {
    EXPECT_TRUE(u == 100 || u == 200 || u == 300 || u == 400 || u == 500);
    EXPECT_TRUE(v == 100 || v == 200 || v == 300 || v == 400 || v == 500);
  }
}

// ------------------------------------------------- canonicalization ------

TEST(IngestCanonical, FingerprintInvariantUnderOrderAndOrientation) {
  const auto a = run("10 20\n20 30\n30 10\n30 40\n");
  const auto b = run("40 30\n10 30\n30 20\n20 10\n");  // reversed, reordered
  EXPECT_EQ(a.meta.fingerprint, b.meta.fingerprint)
      << "same graph, same ids => same canonical artifact";

  const auto c = run("10 20\n20 31\n31 10\n31 40\n");  // 30 renamed to 31
  EXPECT_EQ(a.meta.fingerprint, c.meta.fingerprint)
      << "compaction is by id rank, not id value";
}

TEST(IngestCanonical, TriangulationAddsFlaggedApexes) {
  ingest::IngestOptions opts;
  opts.triangulate = true;
  // A 4-cycle: two non-triangular faces, so triangulation must add apexes.
  const auto res = run("1 2\n2 3\n3 4\n4 1\n", opts);
  EXPECT_GT(res.stats.apexes, 0);
  EXPECT_EQ(res.graph.num_nodes(), 4 + res.stats.apexes);
  EXPECT_TRUE(planar::validate_embedding(res.graph));
}

// ------------------------------------------------------ corpus round-trip -

TEST(IngestCorpus, AcceptedGraphLandsContentAddressedAndReloads) {
  ScratchDir dir("corpus");
  ingest::IngestOptions opts;
  opts.corpus_root = dir.path();
  opts.family = "roadnet";
  const auto res = run("0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n", opts);
  ASSERT_FALSE(res.corpus_file.empty());
  EXPECT_EQ(res.corpus_file,
            io::corpus_path(dir.path(), "roadnet", res.meta.fingerprint));
  EXPECT_TRUE(fs::exists(res.corpus_file));

  // Reload through the generic artifact path: fingerprint verified.
  const io::LoadedGraph loaded = io::load_graph(res.corpus_file);
  EXPECT_EQ(core::topology_fingerprint(loaded.graph), res.meta.fingerprint);
  EXPECT_EQ(loaded.meta.family, "roadnet");
  EXPECT_EQ(loaded.graph.num_nodes(), res.graph.num_nodes());

  // And through the corpus listing.
  const auto entries = io::list_corpus(dir.path());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].fingerprint, res.meta.fingerprint);

  // Ingesting the same bytes again is a no-op (same address).
  ingest::IngestOptions again = opts;
  const auto res2 = run("0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n", again);
  EXPECT_EQ(res2.corpus_file, res.corpus_file);
  EXPECT_EQ(io::list_corpus(dir.path()).size(), 1u);
}

TEST(IngestCorpus, DisconnectedInputsAreAccepted) {
  const auto res = run("1 2\n2 3\n10 11\n11 12\n12 10\n");
  EXPECT_EQ(res.graph.num_nodes(), 6);
  EXPECT_EQ(res.graph.num_edges(), 5);
}

// ------------------------------------------------------ hostile scale ----

/// An external-looking edge list: sparse 64-bit ids, random orientation,
/// shuffled lines, CRLF on every other line. The `gadget` edges (over
/// gadget-local ids 0, 1, ...) are spliced in on fresh ids as a separate
/// component; their original-id edges, normalised and sorted, land in
/// `spliced`.
struct ExternalText {
  std::string text;
  std::vector<ingest::IngestError::Edge> spliced;
  std::size_t edges = 0;
};

ExternalText external_text(const planar::EmbeddedGraph& g,
                           const std::vector<std::pair<int, int>>& gadget,
                           std::uint64_t seed) {
  Rng rng(seed);
  int gadget_nodes = 0;
  for (const auto& [a, b] : gadget) {
    gadget_nodes = std::max({gadget_nodes, a + 1, b + 1});
  }
  std::unordered_set<long long> used;
  std::vector<long long> ids;
  while (ids.size() < static_cast<std::size_t>(g.num_nodes() + gadget_nodes)) {
    const long long id = static_cast<long long>(1 + (rng.next_u64() >> 2));
    if (used.insert(id).second) ids.push_back(id);
  }
  std::vector<std::pair<long long, long long>> lines;
  for (planar::EdgeId e = 0; e < g.num_edges(); ++e) {
    lines.emplace_back(ids[static_cast<std::size_t>(g.edge_u(e))],
                       ids[static_cast<std::size_t>(g.edge_v(e))]);
  }
  ExternalText out;
  for (const auto& [a, b] : gadget) {
    const long long u = ids[static_cast<std::size_t>(g.num_nodes() + a)];
    const long long v = ids[static_cast<std::size_t>(g.num_nodes() + b)];
    lines.emplace_back(u, v);
    out.spliced.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(out.spliced.begin(), out.spliced.end());
  for (auto& line : lines) {
    if (rng.next_bool()) std::swap(line.first, line.second);
  }
  rng.shuffle(lines.data(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out.text += std::to_string(lines[i].first) + " " +
                std::to_string(lines[i].second) + (i % 2 ? "\n" : "\r\n");
  }
  out.edges = lines.size();
  return out;
}

std::vector<std::pair<int, int>> k5_gadget() {
  std::vector<std::pair<int, int>> e;
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) e.emplace_back(a, b);
  }
  return e;
}

/// K3,3 with every edge subdivided once: 15 nodes, 18 edges.
std::vector<std::pair<int, int>> subdivided_k33_gadget() {
  std::vector<std::pair<int, int>> e;
  int mid = 6;
  for (int a = 0; a < 3; ++a) {
    for (int b = 3; b < 6; ++b) {
      e.emplace_back(a, mid);
      e.emplace_back(mid, b);
      ++mid;
    }
  }
  return e;
}

/// Admission wall budget, linear in the edge count: generous enough for
/// sanitizer builds on a loaded machine; a quadratic embedder misses it by
/// orders of magnitude at these sizes.
double budget_seconds(std::size_t edges) {
  return 20e-6 * static_cast<double>(edges) + 2.0;
}

template <class F>
double seconds(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(IngestHostileScale, LargePlanarTextsAdmitAndSplicedVariantsRejectInLinearTime) {
  const planar::Family families[] = {planar::Family::kTriangulation,
                                     planar::Family::kGrid,
                                     planar::Family::kRandomPlanar};
  for (const planar::Family f : families) {
    const planar::GeneratedGraph gg = planar::make_instance(f, 100000, 1);
    const std::string name = planar::family_name(f);
    const ExternalText plain = external_text(gg.graph, {}, 11);
    ingest::IngestResult res;
    const double accept_s = seconds([&] { res = run(plain.text); });
    EXPECT_EQ(res.graph.num_edges(), static_cast<int>(plain.edges)) << name;
    EXPECT_TRUE(planar::validate_embedding(res.graph)) << name;
    EXPECT_LE(accept_s, budget_seconds(plain.edges)) << name << " accept";

    for (const auto& gadget : {k5_gadget(), subdivided_k33_gadget()}) {
      const ExternalText spliced = external_text(gg.graph, gadget, 12);
      ingest::IngestError err{ingest::IngestErrorCode::kParse, 0, ""};
      const double reject_s = seconds([&] { err = reject(spliced.text); });
      EXPECT_EQ(err.code(), ingest::IngestErrorCode::kNonPlanar) << name;
      EXPECT_EQ(err.witness(), spliced.spliced)
          << name << ": the witness is exactly the spliced block ("
          << gadget.size() << " edges), in original ids";
      EXPECT_LE(reject_s, budget_seconds(spliced.edges)) << name << " reject";
    }
  }
}

TEST(IngestHostileScale, DeepPathCycleAndWheelAdmitWithoutRecursion) {
  // A 2^18-node path drives every DFS to depth 2^18, which a recursive
  // DFS would overflow the stack on; the wheel's hub has degree 2^18 - 1.
  // Only the edge lists matter here, so the graphs are built unembedded.
  constexpr int kN = 1 << 18;
  planar::EmbeddedGraph path(kN);
  for (int v = 0; v + 1 < kN; ++v) path.add_edge_back(v, v + 1);
  planar::EmbeddedGraph cycle = path;
  cycle.add_edge_back(kN - 1, 0);
  planar::EmbeddedGraph wheel(kN);
  for (int v = 1; v < kN; ++v) {
    wheel.add_edge_back(0, v);
    wheel.add_edge_back(v, v + 1 < kN ? v + 1 : 1);
  }
  for (const planar::EmbeddedGraph& g : {path, cycle, wheel}) {
    const ExternalText t = external_text(g, {}, 13);
    ingest::IngestResult res;
    const double s = seconds([&] { res = run(t.text); });
    EXPECT_EQ(res.graph.num_edges(), static_cast<int>(t.edges));
    EXPECT_LE(s, budget_seconds(t.edges)) << t.edges << " edges";
  }
}

}  // namespace
}  // namespace plansep
