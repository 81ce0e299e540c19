#include "io/corpus.hpp"

#include <algorithm>
#include <filesystem>

#include "core/fingerprint.hpp"

namespace plansep::io {

namespace fs = std::filesystem;

std::string corpus_path(const std::string& root, const std::string& family,
                        std::uint64_t fingerprint) {
  return (fs::path(root) / family /
          (core::fingerprint_hex(fingerprint) + ".psg"))
      .string();
}

std::string store_in_corpus(const std::string& root, const std::string& family,
                            const planar::EmbeddedGraph& g,
                            std::uint64_t seed) {
  return store_in_corpus(root, family, g, seed, core::topology_fingerprint(g));
}

std::string store_in_corpus(const std::string& root, const std::string& family,
                            const planar::EmbeddedGraph& g, std::uint64_t seed,
                            std::uint64_t fingerprint) {
  const std::string path = corpus_path(root, family, fingerprint);
  std::error_code ec;
  if (fs::exists(path, ec)) return path;  // content-addressed: already stored
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) {
    throw FormatError("cannot create corpus directory for " + path + ": " +
                      ec.message());
  }
  ArtifactMeta meta;
  meta.family = family;
  meta.seed = seed;
  meta.fingerprint = fingerprint;
  write_file(path, encode_fingerprinted_graph_artifact(g, meta));
  return path;
}

LoadedGraph load_from_corpus(const std::string& root,
                             const std::string& family,
                             std::uint64_t fingerprint) {
  return load_graph(corpus_path(root, family, fingerprint));
}

std::vector<CorpusEntry> list_corpus(const std::string& root) {
  std::vector<CorpusEntry> out;
  std::error_code ec;
  for (const fs::directory_entry& fam : fs::directory_iterator(root, ec)) {
    if (!fam.is_directory()) continue;
    std::error_code ec2;
    for (const fs::directory_entry& f :
         fs::directory_iterator(fam.path(), ec2)) {
      const fs::path p = f.path();
      if (p.extension() != ".psg") continue;
      std::uint64_t fp = 0;
      if (!core::fingerprint_from_hex(p.stem().string(), fp)) continue;
      out.push_back(
          CorpusEntry{fam.path().filename().string(), fp, p.string()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CorpusEntry& a, const CorpusEntry& b) {
              return a.family != b.family ? a.family < b.family
                                          : a.fingerprint < b.fingerprint;
            });
  return out;
}

}  // namespace plansep::io
