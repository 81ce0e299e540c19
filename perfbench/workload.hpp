#pragma once

// The benchmark's inputs: which instances each workload runs, and, as pure
// functions of the benchmark seed, the query request stream and the ingest
// texts. Every perfbench_tool subcommand derives its inputs from here, so
// the programs under test receive only generated inputs and the same seed
// always gives the same bytes.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "planar/embedded_graph.hpp"

namespace perfbench {

using plansep::planar::EmbeddedGraph;
using plansep::planar::NodeId;

/// splitmix64 finaliser: the one mixing step every derived seed uses.
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Small seeded generator (splitmix64 stream), independent of the
/// library's own Rng so the inputs stay fixed whatever the library does.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    s_ += 0x9e3779b97f4a7c15ULL;
    return mix(s_, 0);
  }
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t s_;
};

/// One generated instance, in the plansep_batch job-line grammar.
struct Instance {
  std::string family;
  int n = 0;
  std::uint64_t seed = 1;
  /// "--family=F --n=N --seed=S" (the instance part of a job line).
  std::string spec() const;
  /// make_instance for this spec (throws on an unknown family).
  EmbeddedGraph generate(NodeId* root = nullptr) const;
};

/// Sizes of every workload; the smoke mode shrinks them without changing
/// the code path.
struct Sizes {
  int batch_n = 10000;      ///< triangulation / random_planar jobs
  int batch_grid_a = 9025;  ///< 95 x 95
  int batch_grid_b = 10000; ///< 100 x 100
  int query_grid_a = 8100;  ///< 90 x 90
  int query_grid_b = 10000;
  int query_tri = 20000;
  int pairs_per_request = 2000;
  int ingest_grid = 2500;
  int ingest_other = 2000;
  static Sizes for_mode(bool smoke);
};

inline constexpr int kLeafSize = 64;      ///< hierarchy leaf of every query
inline constexpr int kDeadEvery = 16;     ///< one dead-edge request per 16
inline constexpr int kQueryInstances = 4;

/// The instances of each workload. Their seeds are fixed (see
/// workload.cpp); the benchmark seed drives everything drawn against them:
/// query pairs and dead edges, ingest ids and line order.
std::vector<Instance> batch_instances(const Sizes& sz);
std::vector<Instance> query_instances(const Sizes& sz);
std::vector<Instance> ingest_instances(const Sizes& sz);

/// The plansep_batch job file of batch_pipeline.
std::string batch_job_file(const Sizes& sz);

/// Request i of the query stream goes to instance i % 4. Exactly one in
/// every 16 requests carries a dead edge, rotating over the instances:
/// request i is a dead-edge request iff i % 16 == (i / 16) % 4.
inline bool is_dead_request(long long i) {
  return i % kDeadEvery == (i / kDeadEvery) % kQueryInstances;
}

/// The pairs of request i (uniform over the instance's nodes).
std::vector<std::pair<NodeId, NodeId>> request_pairs(std::uint64_t seed,
                                                     long long i, NodeId n,
                                                     int count);

/// The dead edge of dead-edge request i: a uniformly drawn edge of g.
std::pair<NodeId, NodeId> request_dead_edge(std::uint64_t seed, long long i,
                                            const EmbeddedGraph& g);

/// One ingest text with the verdict it must get.
struct IngestText {
  std::string name;    ///< e.g. "grid" or "grid+k5"
  std::string text;    ///< the edge-list bytes
  bool planar = true;  ///< expected verdict: accept (true) / non-planar
};

/// The six ingest texts: each base graph rendered as an external-looking
/// edge list (sparse 64-bit ids, shuffled lines, random orientation, CRLF
/// on every other line), then again with a K5 spliced in on fresh ids.
std::vector<IngestText> ingest_texts(std::uint64_t seed, const Sizes& sz);

/// Hop distances from src in g, skipping the edge {dead_u, dead_v} when
/// given (-1 = unreachable). The benchmark's own oracle for query answers.
std::vector<std::int64_t> bfs_distances(const EmbeddedGraph& g, NodeId src,
                                        NodeId dead_u = -1,
                                        NodeId dead_v = -1);

/// FNV-1a over bytes, continuing from `h` (digests of rows and answers).
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/// Fixed ALU kernel timed as the host-speed probe; returns milliseconds.
double calib_ms();

}  // namespace perfbench
