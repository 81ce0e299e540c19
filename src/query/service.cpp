#include "query/service.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "io/artifact.hpp"
#include "obs/metrics.hpp"
#include "serve/stages.hpp"

namespace plansep::query {

serve::CacheKey index_cache_key(std::uint64_t fingerprint, NodeId root,
                                int leaf_size) {
  return serve::artifact_key(fingerprint, kIndexAlgorithmId, root,
                             static_cast<std::uint64_t>(leaf_size));
}

EngineCache::EngineCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<QueryEngine> EngineCache::get_or_build(std::uint64_t address,
                                                       const Builder& build,
                                                       bool* was_hit) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = index_.find(address);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++counters_.hits;
    if (was_hit != nullptr) *was_hit = true;
    return it->second->second;
  }
  ++counters_.misses;
  if (was_hit != nullptr) *was_hit = false;
  std::shared_ptr<QueryEngine> eng = build();
  lru_.emplace_front(address, eng);
  index_[address] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++counters_.evictions;
  }
  return eng;
}

EngineCache::Counters EngineCache::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

std::size_t EngineCache::entries() const {
  std::lock_guard<std::mutex> lk(mu_);
  return lru_.size();
}

std::shared_ptr<QueryEngine> engine_from_artifact_bytes(
    const planar::EmbeddedGraph& g, const std::vector<std::uint8_t>& bytes) {
  const io::Artifact a = io::parse(bytes);
  const io::Section* hs = a.find(io::SectionId::kHierarchy);
  if (hs == nullptr) throw io::FormatError("artifact lacks kHierarchy");
  const io::Section* qs = a.find(io::SectionId::kQueryIndex);
  if (qs == nullptr) throw io::FormatError("artifact lacks kQueryIndex");
  io::HierarchyArtifact ha = io::decode_hierarchy(hs->bytes);
  QueryIndex qi = io::decode_query_index(qs->bytes);
  if (ha.num_nodes != g.num_nodes() || qi.num_nodes != g.num_nodes()) {
    throw io::FormatError("hierarchy/index node count does not match graph");
  }
  return std::make_shared<QueryEngine>(g, std::move(ha.hierarchy),
                                       std::move(qi));
}

namespace {

void check_pairs(const std::vector<std::pair<NodeId, NodeId>>& pairs,
                 NodeId n, const char* what) {
  for (const auto& [u, v] : pairs) {
    if (u < 0 || u >= n || v < 0 || v >= n) {
      throw std::runtime_error(std::string(what) + " (" + std::to_string(u) +
                               ", " + std::to_string(v) +
                               ") outside [0, " + std::to_string(n) + ")");
    }
  }
}

}  // namespace

QueryOutcome run_query_job(const QueryJob& job,
                           const serve::BatchOptions& opts,
                           serve::ArtifactCache& cache, EngineCache* engines) {
  QueryOutcome out;
  try {
    if (job.leaf_size < 1 || job.leaf_size > (1 << 20)) {
      throw std::runtime_error("leaf size " + std::to_string(job.leaf_size) +
                               " outside [1, 2^20]");
    }

    serve::Instance inst =
        serve::acquire_instance(job.instance, opts.corpus_dir);
    const planar::EmbeddedGraph& g = *inst.graph;
    const NodeId n = g.num_nodes();
    check_pairs(job.pairs, n, "query pair");
    check_pairs(job.dead_edges, n, "dead edge");

    // --- the persisted index, through the shared result cache -----------
    const serve::CacheKey key =
        index_cache_key(inst.fingerprint, inst.root, job.leaf_size);
    const serve::ArtifactCache::Value bytes = cache.get_or_compute(key, [&] {
      // Scoped to the compute: the engine is freed before the answering
      // below decodes the index.
      serve::JobEngine shared(inst, cache);
      const separator::SeparatorHierarchy h =
          separator::build_hierarchy(g, shared.engine(), job.leaf_size);
      // Fanning the per-piece solves over opts.threads is byte-identical
      // to the serial build (disjoint writes), so the cached artifact is
      // the same no matter who computed it.
      const QueryIndex qi =
          build_query_index(g, h, job.leaf_size, std::max(1, opts.threads));
      io::Artifact a;
      a.add(io::SectionId::kMeta,
            io::encode_meta({inst.family, job.instance.seed, inst.fingerprint}));
      a.add(io::SectionId::kHierarchy, io::encode_hierarchy({n, h}));
      a.add(io::SectionId::kQueryIndex, io::encode_query_index(qi));
      return io::assemble(a);
    });
    inst.finish();

    // --- one bytes→answers path, warm or cold ----------------------------
    std::shared_ptr<QueryEngine> engine;
    if (job.dead_edges.empty() && engines != nullptr) {
      engine = engines->get_or_build(
          serve::cache_address(key),
          [&] { return engine_from_artifact_bytes(g, *bytes); },
          &out.engine_cache_hit);
    } else {
      // Dead-edge jobs get a private engine: kill state is session-scoped
      // and must never leak into a shared oracle.
      engine = engine_from_artifact_bytes(g, *bytes);
      for (const auto& [a, b] : job.dead_edges) engine->kill_edge(a, b);
    }
    out.distances = engine->distances(job.pairs);
    if (obs::MetricsRegistry* reg = obs::global_registry()) {
      reg->add("query/jobs");
      reg->add("query/answers",
               static_cast<long long>(out.distances.size()));
    }
  } catch (const std::exception& e) {
    out.status = "error";
    out.error = e.what();
    out.distances.clear();
  }
  return out;
}

}  // namespace plansep::query
