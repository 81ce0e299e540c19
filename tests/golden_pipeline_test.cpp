// Golden digests of the serving pipeline: CRC32 constants over a fixed
// job matrix, pinned so that any restructuring of how jobs execute (stage
// order, caching, instance acquisition, corpus IO) must reproduce the
// exact bytes it produced before:
//
//   * the joined run_batch rows at threads {1, 4};
//   * every corpus .psg file the batch stores;
//   * the cold cache hit/miss counts at threads=1 (which sub-artifacts
//     are looked up, and how often, is part of the contract: one
//     spanning tree per fingerprint, shared across algorithms);
//   * one run_query_job answer digest, with and without a dead edge.
//
// The matrix covers every algo, one fault-injected job, one --graph= job
// and one already-expired --deadline-ms=0 job, plus three pipeline jobs of
// 1,600-2,000 nodes (random_planar, grid, triangulation): large enough that
// the round ledger takes both of its paths (the intra-part charge decided
// by the linear-time bound alone, and the simulated global schedule) and
// that random_planar deletes edges through its bridge test at scale. When a digest moves, the
// change altered observable output — fix the change, not the constant.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "io/artifact.hpp"
#include "io/binary.hpp"
#include "io/corpus.hpp"
#include "planar/generators.hpp"
#include "query/service.hpp"
#include "serve/batch.hpp"
#include "serve/cache.hpp"

namespace plansep {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------- pinned ----

constexpr std::uint32_t kRowsCrc = 0x3fb489cd;
constexpr std::uint32_t kCorpusCrc = 0x38f9e28b;
constexpr std::size_t kCorpusFiles = 9;
constexpr long long kColdHits = 2;
constexpr long long kColdMisses = 24;
constexpr std::uint32_t kAnswersCrc = 0xd8d01cd0;
constexpr std::uint32_t kDeadAnswersCrc = 0x9518353a;
constexpr long long kQueryColdMisses = 2;

// ------------------------------------------------------------- helpers ----

class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    path_ = (fs::temp_directory_path() /
             (std::string("plansep_golden_") + tag + "_" +
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

std::uint32_t crc_of(const std::string& s) {
  return io::crc32(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

// The instance the --graph= job loads: written once per test from a
// generator, so its bytes are as deterministic as the generated ones.
std::string write_imported_graph(const std::string& dir) {
  const planar::GeneratedGraph gg =
      planar::make_instance(planar::Family::kRandomPlanar, 50, 7);
  io::ArtifactMeta meta;
  meta.family = "imported";
  meta.seed = 7;
  const std::string path = dir + "/imported.psg";
  io::save_graph(path, gg.graph, &meta);
  return path;
}

std::vector<serve::JobSpec> golden_jobs(const std::string& graph_path) {
  std::istringstream file(
      "--family=grid --n=49 --seed=1 --algo=pipeline\n"
      "--family=triangulation --n=60 --seed=2 --algo=separator\n"
      "--family=triangulation --n=60 --seed=2 --algo=baseline-separator\n"
      "--family=triangulation --n=60 --seed=2 --algo=dfs\n"
      "--family=cycle --n=24 --seed=3 --algo=dfs\n"
      "--family=outerplanar --n=40 --seed=4 --algo=pipeline\n"
      "--family=grid --n=36 --seed=5 --algo=pipeline --drop=0.05 "
      "--fault-seed=9\n"
      "--graph=" + graph_path + " --algo=pipeline\n"
      "--family=wheel --n=30 --seed=6 --algo=pipeline --deadline-ms=0\n"
      "--family=random_planar --n=2000 --seed=3 --algo=pipeline\n"
      "--family=grid --n=1600 --seed=1 --algo=pipeline\n"
      "--family=triangulation --n=2000 --seed=1 --algo=pipeline\n");
  return serve::parse_job_file(file);
}

std::string joined_rows(const serve::BatchReport& rep) {
  std::string out;
  for (const auto& r : rep.results) {
    out += r.row;
    out += '\n';
  }
  return out;
}

// "family/fingerprint crc" per stored file, in list_corpus order.
std::string corpus_manifest(const std::string& root) {
  std::string out;
  for (const io::CorpusEntry& e : io::list_corpus(root)) {
    const std::vector<std::uint8_t> bytes = io::read_file(e.path);
    out += e.family + "/" + fs::path(e.path).filename().string() + " " +
           hex(io::crc32(bytes.data(), bytes.size())) + "\n";
  }
  return out;
}

std::uint32_t answers_crc(const std::vector<std::int64_t>& distances) {
  std::vector<std::uint8_t> bytes;
  for (const std::int64_t d : distances) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(
          static_cast<std::uint8_t>(static_cast<std::uint64_t>(d) >> (8 * i)));
    }
  }
  return io::crc32(bytes.data(), bytes.size());
}

// ---------------------------------------------------------------- tests ----

TEST(GoldenPipeline, BatchRowsCorpusAndColdCacheCountsArePinned) {
  ScratchDir graphs("graphs");
  const std::vector<serve::JobSpec> jobs =
      golden_jobs(write_imported_graph(graphs.path()));

  for (const int threads : {1, 4}) {
    ScratchDir corpus("corpus");
    serve::BatchOptions opts;
    opts.threads = threads;
    opts.corpus_dir = corpus.path();
    serve::ResultCache cache({1 << 24, ""});
    const serve::BatchReport rep = serve::run_batch(jobs, opts, cache);
    ASSERT_EQ(rep.jobs, static_cast<long long>(jobs.size()));
    EXPECT_EQ(rep.ok, rep.jobs - 1) << joined_rows(rep);
    EXPECT_EQ(rep.deadline_missed, 1);

    const std::string rows = joined_rows(rep);
    EXPECT_EQ(hex(crc_of(rows)), hex(kRowsCrc))
        << "threads=" << threads << "\n" << rows;

    const std::string manifest = corpus_manifest(corpus.path());
    EXPECT_EQ(io::list_corpus(corpus.path()).size(), kCorpusFiles)
        << manifest;
    EXPECT_EQ(hex(crc_of(manifest)), hex(kCorpusCrc))
        << "threads=" << threads << "\n" << manifest;

    if (threads == 1) {
      EXPECT_EQ(rep.cache.hits, kColdHits);
      EXPECT_EQ(rep.cache.misses, kColdMisses);
    }
  }
}

TEST(GoldenPipeline, QueryAnswersArePinnedWithAndWithoutADeadEdge) {
  query::QueryJob job;
  job.instance.family = "grid";
  job.instance.n = 64;
  job.instance.seed = 3;
  job.leaf_size = 8;
  for (planar::NodeId u = 0; u < 64; u += 5) {
    for (planar::NodeId v = 1; v < 64; v += 7) job.pairs.emplace_back(u, v);
  }

  serve::BatchOptions opts;
  serve::ResultCache cache({1 << 24, ""});
  const query::QueryOutcome live =
      query::run_query_job(job, opts, cache, nullptr);
  ASSERT_EQ(live.status, "ok") << live.error;
  ASSERT_EQ(live.distances.size(), job.pairs.size());
  EXPECT_EQ(hex(answers_crc(live.distances)), hex(kAnswersCrc));
  EXPECT_EQ(cache.counters().misses, kQueryColdMisses);

  // Grid node 9 sits at (1, 1); killing its edge to node 10 lengthens
  // some of the queried paths.
  job.dead_edges = {{9, 10}};
  const query::QueryOutcome dead =
      query::run_query_job(job, opts, cache, nullptr);
  ASSERT_EQ(dead.status, "ok") << dead.error;
  EXPECT_EQ(hex(answers_crc(dead.distances)), hex(kDeadAnswersCrc));
  EXPECT_NE(answers_crc(dead.distances), answers_crc(live.distances));
}

}  // namespace
}  // namespace plansep
