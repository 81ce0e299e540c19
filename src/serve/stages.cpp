#include "serve/stages.hpp"

#include <stdexcept>
#include <utility>

#include "core/fingerprint.hpp"
#include "io/artifact.hpp"
#include "io/corpus.hpp"
#include "obs/metrics.hpp"
#include "planar/generators.hpp"
#include "serve/batch.hpp"
#include "util/check.hpp"

namespace plansep::serve {

CacheKey artifact_key(std::uint64_t fingerprint, const std::string& algorithm,
                      planar::NodeId root, std::uint64_t knob) {
  // Frozen: the disk tier addresses payloads by this hash.
  const std::uint64_t config_hash =
      core::mix_seed(0x726f6f7400000000ULL /* "root" */,
                     static_cast<std::uint64_t>(root), knob);
  return CacheKey{fingerprint, algorithm, config_hash};
}

void Instance::finish() {
  if (store.valid()) store.get();
}

Instance acquire_instance(const JobSpec& spec, const std::string& corpus_dir) {
  Instance inst;
  inst.family = spec.family;
  if (!spec.graph_path.empty()) {
    io::LoadedGraph loaded = io::load_graph(spec.graph_path);
    if (!loaded.meta.family.empty()) inst.family = loaded.meta.family;
    inst.graph = std::make_shared<const planar::EmbeddedGraph>(
        std::move(loaded.graph));
    // A stored fingerprint was verified against the graph on load.
    inst.fingerprint = loaded.meta.fingerprint != 0
                           ? loaded.meta.fingerprint
                           : core::topology_fingerprint(*inst.graph);
    return inst;
  }
  const auto fam = planar::family_from_name(spec.family);
  if (!fam) throw std::runtime_error("unknown family '" + spec.family + "'");
  planar::GeneratedGraph gg = planar::make_instance(*fam, spec.n, spec.seed);
  inst.graph =
      std::make_shared<const planar::EmbeddedGraph>(std::move(gg.graph));
  inst.root = gg.root_hint;
  inst.fingerprint = core::topology_fingerprint(*inst.graph);
  if (!corpus_dir.empty()) {
    // The store only reads the graph; it overlaps the compute stages.
    inst.store = std::async(
        std::launch::async,
        [g = inst.graph, corpus_dir, family = spec.family, seed = spec.seed,
         fp = inst.fingerprint] {
          io::store_in_corpus(corpus_dir, family, *g, seed, fp);
        });
  }
  return inst;
}

JobEngine::JobEngine(const Instance& inst, ArtifactCache& cache)
    : inst_(inst), cache_(cache) {}

const congest::BfsResult& JobEngine::spanning_tree() {
  if (tree_) return *tree_;
  const planar::EmbeddedGraph& g = *inst_.graph;
  const ArtifactCache::Value bytes = cache_.get_or_compute(
      artifact_key(inst_.fingerprint, kSpanningTreeArtifactId, inst_.root),
      [&] {
        PLANSEP_CHECK_MSG(g.num_components() == 1, "graph must be connected");
        congest::BfsResult bfs;
        {
          // The span PartwiseEngine(g, root) wraps its own BFS in.
          PLANSEP_SPAN("pa/setup_bfs");
          bfs = congest::distributed_bfs(g, inst_.root);
        }
        io::Artifact a;
        a.add(io::SectionId::kSpanningTree,
              io::encode_spanning_tree({std::move(bfs)}));
        return io::assemble(a);
      });
  const io::Artifact a = io::parse(*bytes);
  const io::Section* sec = a.find(io::SectionId::kSpanningTree);
  if (sec == nullptr) throw io::FormatError("artifact lacks kSpanningTree");
  tree_ = io::decode_spanning_tree(sec->bytes).bfs;
  return *tree_;
}

shortcuts::PartwiseEngine& JobEngine::engine() {
  if (!engine_) engine_.emplace(*inst_.graph, spanning_tree());
  return *engine_;
}

WarmReport warm_from_corpus(ArtifactCache& cache,
                            const std::string& corpus_root) {
  WarmReport rep;
  if (corpus_root.empty()) return rep;
  for (const io::CorpusEntry& entry : io::list_corpus(corpus_root)) {
    ++rep.instances;
    for (const char* id :
         {kSpanningTreeArtifactId, kSeparatorArtifactId, kDfsArtifactId,
          kLevelSeparatorArtifactId}) {
      if (cache.warm(artifact_key(entry.fingerprint, id, 0))) ++rep.artifacts;
    }
  }
  return rep;
}

}  // namespace plansep::serve
