// plansep_ingest — the ingest front door as a CLI.
//
// Reads an untrusted edge list (a file argument or stdin), runs the full
// admission pipeline (caps, overflow-safe parse, canonicalization,
// left-right planarity with witness, optional apex triangulation) and, on accept,
// lands the graph as a fingerprinted .psg artifact in a content-addressed
// corpus — ready for plansep_batch --graph=, plansepd jobs and distance
// queries. Formats, limits and the rejection taxonomy: docs/INGEST.md.
//
//   plansep_ingest [FILE] [--format=auto|edges|dimacs] [--corpus=DIR]
//                  [--family=NAME] [--max-nodes=N] [--max-edges=M]
//                  [--max-line-bytes=B] [--drop-self-loops]
//                  [--drop-duplicates] [--triangulate] [--quiet]
//
// Exit codes: 0 accepted, 1 rejected (typed reason on stderr), 2 usage /
// I/O error. On accept, prints one JSON line with the corpus identity.

#include <cstring>
#include <iostream>
#include <string>

#include "ingest/pipeline.hpp"
#include "core/fingerprint.hpp"
#include "io/binary.hpp"

namespace {

using namespace plansep;

int usage() {
  std::cerr
      << "usage: plansep_ingest [FILE] [--format=auto|edges|dimacs]\n"
         "                      [--corpus=DIR] [--family=NAME]\n"
         "                      [--max-nodes=N] [--max-edges=M]\n"
         "                      [--max-line-bytes=B] [--drop-self-loops]\n"
         "                      [--drop-duplicates] [--triangulate] [--quiet]\n"
         "reads FILE (or stdin), admits it or explains the rejection\n";
  return 2;
}

bool parse_count(const std::string& v, long long& out) {
  try {
    std::size_t pos = 0;
    out = std::stoll(v, &pos);
    return pos == v.size() && out >= 0;
  } catch (...) {
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string file;
  bool quiet = false;
  ingest::IngestOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    long long count = 0;
    if (const char* v = value("--format=")) {
      if (!ingest::text_format_from_name(v, opts.format)) return usage();
    } else if (const char* v = value("--corpus=")) {
      opts.corpus_root = v;
    } else if (const char* v = value("--family=")) {
      opts.family = v;
    } else if (const char* v = value("--max-nodes=")) {
      if (!parse_count(v, count)) return usage();
      opts.max_nodes = count;
    } else if (const char* v = value("--max-edges=")) {
      if (!parse_count(v, count)) return usage();
      opts.max_edges = count;
    } else if (const char* v = value("--max-line-bytes=")) {
      if (!parse_count(v, count)) return usage();
      opts.max_line_bytes = static_cast<std::size_t>(count);
    } else if (arg == "--drop-self-loops") {
      opts.drop_self_loops = true;
    } else if (arg == "--drop-duplicates") {
      opts.drop_duplicate_edges = true;
    } else if (arg == "--triangulate") {
      opts.triangulate = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage();
    } else if (file.empty()) {
      file = arg;
    } else {
      return usage();
    }
  }

  try {
    const ingest::IngestResult res =
        file.empty() ? ingest::ingest_text(std::cin, opts)
                     : ingest::ingest_file(file, opts);
    if (!quiet) {
      std::cout << "{\"status\": \"ok\", \"fingerprint\": \""
                << core::fingerprint_hex(res.meta.fingerprint)
                << "\", \"family\": \"" << res.meta.family
                << "\", \"nodes\": " << res.graph.num_nodes()
                << ", \"edges\": " << res.graph.num_edges()
                << ", \"input_edges\": " << res.stats.input_edges
                << ", \"dropped_self_loops\": "
                << res.stats.dropped_self_loops
                << ", \"dropped_duplicates\": "
                << res.stats.dropped_duplicates
                << ", \"apexes\": " << res.stats.apexes
                << ", \"corpus_path\": \"" << res.corpus_file << "\"}\n";
    }
    return 0;
  } catch (const ingest::IngestError& e) {
    std::cerr << e.what() << "\n";
    if (e.code() == ingest::IngestErrorCode::kNonPlanar && !quiet) {
      std::cerr << "witness (" << e.witness().size() << " edges):";
      std::size_t shown = 0;
      for (const auto& [u, v] : e.witness()) {
        if (++shown > 20) {
          std::cerr << " ...";
          break;
        }
        std::cerr << " {" << u << "," << v << "}";
      }
      std::cerr << "\n";
    }
    return 1;
  } catch (const io::FormatError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
