#pragma once

/// \file
/// The ingest admission pipeline: untrusted text in, canonical
/// fingerprinted `.psg` corpus artifact out — or a typed IngestError.

// Stages (each can reject; codes in ingest/error.hpp):
//
//   read          reader.hpp — caps, overflow-safe parse      (parse,
//                 overflow, line-limit, edge-limit)
//   canonicalize  dense renumbering by ascending original id,
//                 edges normalized (min,max) + sorted + deduped (self-loop,
//                 duplicate-edge, node-limit, edge-limit, empty)
//   admit         left-right planarity with witness, O(n + m)  (non-planar)
//   finalize      optional apex triangulation, fingerprint,
//                 store_in_corpus
//
// The output is indistinguishable from a generated instance: the same
// `.psg` layout, addressed corpus/<family>/<fingerprint>.psg, so
// plansep_batch --graph=, plansepd jobs and the query engine serve it
// with zero changes. Determinism: byte-identical input + options give a
// byte-identical artifact (canonical edge order, canonical embedding).

#include <istream>
#include <string>
#include <string_view>

#include "ingest/reader.hpp"
#include "io/artifact.hpp"
#include "planar/embedded_graph.hpp"

namespace plansep::ingest {

/// Knobs of one admission. Defaults are the hardened production caps;
/// tests and the CLI lower them to probe the rejection taxonomy.
struct IngestOptions {
  TextFormat format = TextFormat::kAuto;  ///< input dialect (kAuto sniffs)
  std::int64_t max_nodes = 1 << 20;       ///< kNodeLimit past this
  std::int64_t max_edges = 1 << 22;       ///< kEdgeLimit past this
  std::size_t max_line_bytes = 1 << 16;   ///< kLineLimit past this
  bool drop_self_loops = false;       ///< true: drop; false: kSelfLoop
  bool drop_duplicate_edges = false;  ///< true: drop; false: kDuplicateEdge
  bool triangulate = false;     ///< apex-triangulate the accepted graph
  std::string family = "ingest";  ///< corpus bucket for the artifact
  std::string corpus_root;        ///< empty: validate only, do not store
};

/// Counters of one accepted admission (rejections carry no stats).
struct IngestStats {
  std::size_t lines = 0;                ///< physical input lines
  std::size_t comment_lines = 0;        ///< blank/comment lines skipped
  std::size_t input_edges = 0;          ///< edges parsed from the text
  std::size_t dropped_self_loops = 0;   ///< under the drop policy
  std::size_t dropped_duplicates = 0;   ///< under the drop policy
  int apexes = 0;                       ///< vertices added by triangulation
};

/// An accepted graph: the canonical embedding plus its corpus identity.
struct IngestResult {
  planar::EmbeddedGraph graph;  ///< canonical (post-triangulation) embedding
  io::ArtifactMeta meta;        ///< family + fingerprint (seed = 0)
  std::string corpus_file;      ///< stored path ("" when corpus_root empty)
  IngestStats stats;            ///< admission counters
};

/// Runs the full pipeline over a stream. Throws IngestError on any
/// rejection; never throws anything else on malformed *input* (I/O and
/// out-of-memory failures surface as their usual exceptions).
IngestResult ingest_text(std::istream& in, const IngestOptions& opts);

/// ingest_text over an in-memory buffer (the daemon frame path).
IngestResult ingest_string(std::string_view text, const IngestOptions& opts);

/// ingest_text over a file; throws io::FormatError if unreadable.
IngestResult ingest_file(const std::string& path, const IngestOptions& opts);

}  // namespace plansep::ingest
