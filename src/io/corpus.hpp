#pragma once

/// \file
/// Corpus directory layout: content-addressed on-disk instance store
/// (corpus/<family>/<fingerprint>.psg) over the artifact format.

// The corpus: a directory of persisted planar instances, addressed by
// content.
//
//   <root>/<family>/<fingerprint>.psg
//
// `family` is the generator family name (or any caller-chosen bucket for
// imported graphs) and `fingerprint` the 16-hex-digit
// core::topology_fingerprint of the rotation system, so a graph's path is
// a pure function of its content: storing the same instance twice is a
// no-op, two corpora merge by file copy, and a batch job can reference an
// instance stably across machines. Listing is sorted (family, then
// fingerprint), so corpus sweeps are deterministic regardless of
// directory enumeration order.

#include <cstdint>
#include <string>
#include <vector>

#include "io/artifact.hpp"

namespace plansep::io {

/// One corpus entry, as discovered by list_corpus.
struct CorpusEntry {
  std::string family;             ///< bucket directory name
  std::uint64_t fingerprint = 0;  ///< parsed from the file name
  std::string path;               ///< full path to the .psg file
};

/// The content-addressed path of a graph inside a corpus root (the file
/// need not exist yet).
std::string corpus_path(const std::string& root, const std::string& family,
                        std::uint64_t fingerprint);

/// Stores g under its content address, creating directories as needed.
/// Returns the stored path. Overwrites only byte-identical content by
/// construction (same fingerprint, canonical encoding); skips the write
/// when the file already exists.
std::string store_in_corpus(const std::string& root, const std::string& family,
                            const planar::EmbeddedGraph& g,
                            std::uint64_t seed = 0);

/// store_in_corpus for a caller that already computed g's fingerprint
/// (core::topology_fingerprint): the instance is hashed once, not again
/// here. The stored bytes are identical.
std::string store_in_corpus(const std::string& root, const std::string& family,
                            const planar::EmbeddedGraph& g, std::uint64_t seed,
                            std::uint64_t fingerprint);

/// Loads the instance with the given address; throws FormatError if the
/// file is absent or malformed (fingerprint verified on load).
LoadedGraph load_from_corpus(const std::string& root,
                             const std::string& family,
                             std::uint64_t fingerprint);

/// All entries under the root, sorted by (family, fingerprint). Files not
/// matching the `<family>/<16 hex>.psg` shape are ignored.
std::vector<CorpusEntry> list_corpus(const std::string& root);

}  // namespace plansep::io
