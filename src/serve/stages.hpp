#pragma once

/// \file
/// The one execution path of every serving job: instance acquisition,
/// the cache key of every per-instance artifact, the per-job spanning
/// tree and PartwiseEngine the stages share, and the daemon's boot
/// warm-up.

// Batch jobs, daemon submissions and query jobs all run the same
// straight-line stages (DESIGN.md §10):
//
//   1. acquire_instance: generate-or-load, fingerprint once, derive the
//      root. A generated instance starts its corpus store in the
//      background; Instance::finish joins it and rethrows its failure.
//   2. each requested stage: ArtifactCache::get_or_compute under
//      artifact_key(fingerprint, id, root) — "separator@v1", "dfs@v1",
//      "lt-level@v1" or "hier-index@v1".
//   3. only when a stage misses: the job's JobEngine fetches the
//      "spantree@v1" bytes through the same cache (at most once per job,
//      and shared with every other job on the same fingerprint and root),
//      decodes them, and builds one PartwiseEngine that every later
//      stage of the job reuses.
//
// Stages decode the spanning tree from its *bytes*, never from live
// state, so a cache-served and a freshly computed tree drive identical
// downstream computations; with the row contract of batch.hpp (rows
// derive only from artifact bytes) that is the whole byte-identity
// argument across thread counts and cache temperature.

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "congest/bfs_tree.hpp"
#include "planar/embedded_graph.hpp"
#include "serve/cache.hpp"
#include "shortcuts/partwise.hpp"

namespace plansep::serve {

struct JobSpec;

// Versioned ids of the per-instance artifacts (part of every cache key
// and of the on-disk tier; bump the version when a payload changes).
inline constexpr const char* kSpanningTreeArtifactId = "spantree@v1";
inline constexpr const char* kSeparatorArtifactId = "separator@v1";
inline constexpr const char* kDfsArtifactId = "dfs@v1";
inline constexpr const char* kLevelSeparatorArtifactId = "lt-level@v1";

/// The cache key of a per-instance artifact: the topology fingerprint,
/// the versioned id, and a config hash mixing the root with the one
/// remaining knob of the artifact (the query index's leaf size; 0 for
/// every other artifact).
CacheKey artifact_key(std::uint64_t fingerprint, const std::string& algorithm,
                      planar::NodeId root, std::uint64_t knob = 0);

/// A job's instance, acquired once by acquire_instance.
struct Instance {
  /// The graph (shared with the background corpus store).
  std::shared_ptr<const planar::EmbeddedGraph> graph;
  planar::NodeId root = 0;          ///< generator root hint; 0 when loaded
  std::uint64_t fingerprint = 0;    ///< core::topology_fingerprint(*graph)
  /// Provenance family: the loaded file's, else the spec's.
  std::string family;
  /// The corpus store of a generated instance, running in the background
  /// (invalid when nothing is stored).
  std::future<void> store;

  /// Joins the corpus store, if one was started, and rethrows its
  /// failure. An Instance destroyed without finish() joins silently.
  void finish();
};

/// Generates (family/n/seed) or loads (graph_path) the spec's instance,
/// fingerprints it once and derives its root. When the instance was
/// generated and `corpus_dir` is set, its corpus store starts
/// asynchronously. Throws std::runtime_error for an unknown family and
/// io::FormatError for an unreadable graph file.
Instance acquire_instance(const JobSpec& spec, const std::string& corpus_dir);

/// One job's spanning tree and PartwiseEngine, built lazily on the first
/// stage that misses the cache, then shared by every later stage of the
/// job. Not thread-safe: one job, one thread.
class JobEngine {
 public:
  /// Binds the instance (which must outlive this) and the cache.
  JobEngine(const Instance& inst, ArtifactCache& cache);

  /// The global BFS tree: the "spantree@v1" bytes through the cache on
  /// first use, decoded.
  const congest::BfsResult& spanning_tree();

  /// The PartwiseEngine over spanning_tree(), built on first use.
  shortcuts::PartwiseEngine& engine();

 private:
  const Instance& inst_;
  ArtifactCache& cache_;
  std::optional<congest::BfsResult> tree_;
  std::optional<shortcuts::PartwiseEngine> engine_;
};

/// Outcome of a boot warm-up sweep.
struct WarmReport {
  long long instances = 0;  ///< corpus entries visited
  long long artifacts = 0;  ///< artifacts now resident in memory
};

/// Boot warm-up (plansepd --warm-from-corpus): for every instance in the
/// corpus, preloads its spanning-tree, separator, DFS and level-separator
/// artifacts from the cache's disk tier into memory under the root-0 key
/// — the root every corpus-addressed (--graph=) job binds, and the root
/// hint of most generator families — so the first job of a session is
/// served warm. Pure preloading: nothing is ever computed; absent disk
/// payloads are skipped silently.
WarmReport warm_from_corpus(ArtifactCache& cache,
                            const std::string& corpus_root);

}  // namespace plansep::serve
