// perfbench_tool — the C++ half of the benchmark (run.py drives it).
//
//   perfbench_tool render --workload=W --seed=S --dir=D [--requests=N] [--smoke]
//       Writes the workload's inputs into D: jobs.txt (batch_pipeline),
//       plan.txt (query_serve: instance sizes and dead edges), ingest_*.txt
//       plus manifest.tsv (ingest_admit). --workload=all writes all three.
//   perfbench_tool query --socket=P --seed=S --dir=D --requests=N --out=F [--smoke]
//       Against a running plansepd: one cold query per instance, then a
//       closed loop with four requests outstanding on one connection. Checks
//       a seeded sample of answers against BFS, drains the daemon, and
//       writes the raw timings as JSON.
//   perfbench_tool trace --socket=P --seed=S --dir=D --out=F --trace-out=F [--smoke]
//       The traced run: times every unit kind in process, one span per call
//       into a plansep module, plus request round trips through plansepd.
//       Writes the per-layer metrics as JSON and the spans as Chrome
//       trace-event JSON.
//   perfbench_tool drain --socket=P
//       Drains a running plansepd through the protocol, which makes it exit.
//   perfbench_tool calib
//       Prints the host-speed probe (fixed ALU kernel) in milliseconds.
//
// Exit status: 0 ok (correctness failures are reported in the JSON, not
// the exit code); 2 usage, I/O or daemon errors.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/plansep.hpp"
#include "daemon/client.hpp"
#include "dfs/builder.hpp"
#include "ingest/error.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/reader.hpp"
#include "io/artifact.hpp"
#include "io/corpus.hpp"
#include "planar/dmp_embedder.hpp"
#include "query/index.hpp"
#include "query/service.hpp"
#include "separator/hierarchy.hpp"
#include "serve/cache.hpp"
#include "serve/verify.hpp"
#include "shortcuts/partwise.hpp"
#include "tracer.hpp"
#include "workload.hpp"

namespace {

using namespace plansep;
using perfbench::Instance;
using perfbench::Sizes;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;
using Pairs = std::vector<std::pair<planar::NodeId, planar::NodeId>>;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

std::string hex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6f", i == 0 ? "" : ",", v[i]);
    s += buf;
  }
  return s + "]";
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

struct Args {
  std::map<std::string, std::string> kv;
  bool smoke = false;

  std::string get(const std::string& key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) throw std::runtime_error("missing --" + key + "=");
    return it->second;
  }
  std::uint64_t u64(const std::string& key) const {
    return std::strtoull(get(key).c_str(), nullptr, 10);
  }
};

// ------------------------------------------------------------- render --

// plan.txt: "instance <k> <nodes>" per query instance, then
// "dead <request> <u> <v>" per dead-edge request of the closed loop.
struct Plan {
  std::vector<planar::NodeId> nodes;
  std::map<long long, std::pair<planar::NodeId, planar::NodeId>> dead;
};

void render_query_plan(std::uint64_t seed, const Sizes& sz, long long requests,
                       const std::string& path) {
  std::string out;
  std::vector<planar::EmbeddedGraph> graphs;
  const std::vector<Instance> insts = perfbench::query_instances(sz);
  for (std::size_t k = 0; k < insts.size(); ++k) {
    graphs.push_back(insts[k].generate());
    out += "instance " + std::to_string(k) + " " +
           std::to_string(graphs.back().num_nodes()) + "\n";
  }
  for (long long i = 0; i < requests; ++i) {
    if (!perfbench::is_dead_request(i)) continue;
    const auto [u, v] = perfbench::request_dead_edge(
        seed, i, graphs[static_cast<std::size_t>(i % perfbench::kQueryInstances)]);
    out += "dead " + std::to_string(i) + " " + std::to_string(u) + " " +
           std::to_string(v) + "\n";
  }
  write_text(path, out);
}

Plan read_plan(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read " + path);
  Plan p;
  std::string kind;
  while (f >> kind) {
    if (kind == "instance") {
      long long k = 0, n = 0;
      f >> k >> n;
      p.nodes.push_back(static_cast<planar::NodeId>(n));
    } else if (kind == "dead") {
      long long i = 0, u = 0, v = 0;
      f >> i >> u >> v;
      p.dead[i] = {static_cast<planar::NodeId>(u), static_cast<planar::NodeId>(v)};
    } else {
      throw std::runtime_error("bad plan line kind " + kind);
    }
  }
  return p;
}

// manifest.tsv: "<name>\t<file>\t<bytes>\t<accept|reject>" per text.
void render_ingest(std::uint64_t seed, const Sizes& sz, const std::string& dir) {
  std::string manifest;
  int k = 0;
  for (const auto& t : perfbench::ingest_texts(seed, sz)) {
    const std::string file = "ingest_" + std::to_string(k++) + ".txt";
    write_text(dir + "/" + file, t.text);
    manifest += t.name + "\t" + file + "\t" + std::to_string(t.text.size()) +
                "\t" + (t.planar ? "accept" : "reject") + "\n";
  }
  write_text(dir + "/manifest.tsv", manifest);
}

int cmd_render(const Args& a) {
  const std::string w = a.get("workload");
  const std::string dir = a.get("dir");
  const std::uint64_t seed = a.u64("seed");
  const Sizes sz = Sizes::for_mode(a.smoke);
  const bool all = w == "all";
  if (all || w == "batch_pipeline") {
    write_text(dir + "/jobs.txt", perfbench::batch_job_file(sz));
  }
  if (all || w == "query_serve") {
    render_query_plan(seed, sz, all ? 0 : static_cast<long long>(a.u64("requests")),
                      dir + "/plan.txt");
  }
  if (all || w == "ingest_admit") render_ingest(seed, sz, dir);
  return 0;
}

// -------------------------------------------------------------- query --

daemon::QueryRequestPayload make_request(const Instance& inst,
                                         const Pairs& pairs) {
  daemon::QueryRequestPayload req;
  req.spec_line = inst.spec();
  req.leaf_size = perfbench::kLeafSize;
  for (const auto& [u, v] : pairs) req.pairs.emplace_back(u, v);
  return req;
}

query::QueryJob make_job(const Instance& inst, Pairs pairs) {
  query::QueryJob job;
  job.instance.family = inst.family;
  job.instance.n = inst.n;
  job.instance.seed = inst.seed;
  job.leaf_size = perfbench::kLeafSize;
  job.pairs = std::move(pairs);
  return job;
}

// Checks the first `count` pairs of one answered request against BFS;
// returns false on any mismatch.
bool answers_match(const planar::EmbeddedGraph& g, const Pairs& pairs,
                   const std::vector<std::int64_t>& got, std::size_t count,
                   planar::NodeId dead_u = -1, planar::NodeId dead_v = -1) {
  if (got.size() != pairs.size()) return false;
  for (std::size_t j = 0; j < std::min(count, pairs.size()); ++j) {
    const auto want = perfbench::bfs_distances(g, pairs[j].first, dead_u, dead_v);
    if (want[static_cast<std::size_t>(pairs[j].second)] != got[j]) return false;
  }
  return true;
}

int cmd_query(const Args& a) {
  const std::uint64_t seed = a.u64("seed");
  const Sizes sz = Sizes::for_mode(a.smoke);
  const long long n_req = static_cast<long long>(a.u64("requests"));
  const std::vector<Instance> insts = perfbench::query_instances(sz);
  const Plan plan = read_plan(a.get("dir") + "/plan.txt");
  if (plan.nodes.size() != insts.size()) throw std::runtime_error("plan/instance mismatch");
  constexpr int kOutstanding = 4;
  constexpr long long kLoopId = 1000;

  // Every request payload is built before the first timed unit.
  std::vector<Pairs> cold_pairs;
  std::vector<daemon::QueryRequestPayload> cold_reqs;
  for (std::size_t k = 0; k < insts.size(); ++k) {
    cold_pairs.push_back(perfbench::request_pairs(
        seed, -1 - static_cast<long long>(k), plan.nodes[k], sz.pairs_per_request));
    cold_reqs.push_back(make_request(insts[k], cold_pairs.back()));
  }
  std::vector<Pairs> pairs(static_cast<std::size_t>(n_req));
  std::vector<daemon::QueryRequestPayload> reqs(static_cast<std::size_t>(n_req));
  for (long long i = 0; i < n_req; ++i) {
    const std::size_t k = static_cast<std::size_t>(i % perfbench::kQueryInstances);
    pairs[static_cast<std::size_t>(i)] =
        perfbench::request_pairs(seed, i, plan.nodes[k], sz.pairs_per_request);
    auto& req = reqs[static_cast<std::size_t>(i)];
    req = make_request(insts[k], pairs[static_cast<std::size_t>(i)]);
    if (const auto it = plan.dead.find(i); it != plan.dead.end()) {
      req.dead_edges.push_back(it->second);
    } else if (perfbench::is_dead_request(i)) {
      throw std::runtime_error("plan lacks dead edge of request " + std::to_string(i));
    }
  }

  daemon::Client client;
  if (!client.connect(a.get("socket"), 10000)) {
    throw std::runtime_error("cannot connect to " + a.get("socket"));
  }
  long long failed = 0;
  long long rejected = 0;

  // 1. One cold query per instance: generate → hierarchy → index →
  //    persist → answer, one at a time.
  std::vector<double> cold_ms;
  std::vector<std::vector<std::int64_t>> cold_answers;
  for (std::size_t k = 0; k < insts.size(); ++k) {
    const auto t0 = Clock::now();
    const auto resp = client.query(static_cast<std::uint64_t>(k + 1), cold_reqs[k], 170000);
    cold_ms.push_back(ms_since(t0));
    if (!resp || resp->status != "ok") {
      ++failed;
      cold_answers.emplace_back();
    } else {
      cold_answers.push_back(resp->distances);
    }
  }

  // The host probe between the phases, so the run's calibration samples
  // the middle of the run too.
  const double calib_mid = perfbench::calib_ms();

  // 2. The closed loop: four requests outstanding, the next sent as soon
  //    as a reply arrives. Replies come back in admission order.
  std::vector<double> lat_ms(static_cast<std::size_t>(n_req), 0.0);
  std::vector<Clock::time_point> sent(static_cast<std::size_t>(n_req));
  std::vector<std::vector<std::int64_t>> answers(static_cast<std::size_t>(n_req));
  long long engine_hits = 0;
  long long hot = 0;
  long long next = 0;
  long long done = 0;
  const auto send = [&](long long i) {
    sent[static_cast<std::size_t>(i)] = Clock::now();
    client.submit_query(static_cast<std::uint64_t>(kLoopId + i),
                        reqs[static_cast<std::size_t>(i)]);
  };
  const auto loop_t0 = Clock::now();
  while (next < std::min<long long>(kOutstanding, n_req)) send(next++);
  while (done < n_req) {
    const auto f = client.next_frame(120000);
    if (!f) throw std::runtime_error("daemon stopped answering the closed loop");
    const long long i = static_cast<long long>(f->id) - kLoopId;
    if (i < 0 || i >= n_req) throw std::runtime_error("reply for unknown request id");
    lat_ms[static_cast<std::size_t>(i)] = ms_since(sent[static_cast<std::size_t>(i)]);
    ++done;
    if (f->type == static_cast<std::uint8_t>(daemon::FrameType::kQueryResp)) {
      auto resp = daemon::decode_query_response(f->payload);
      if (resp.status != "ok") ++failed;
      if (!perfbench::is_dead_request(i)) {
        ++hot;
        engine_hits += resp.engine_cache_hit;
      }
      answers[static_cast<std::size_t>(i)] = std::move(resp.distances);
    } else {
      if (f->type == static_cast<std::uint8_t>(daemon::FrameType::kReject)) ++rejected;
      ++failed;
    }
    if (next < n_req) send(next++);
  }
  const double loop_s = ms_since(loop_t0) / 1000.0;

  const auto drained = client.drain(999, 60000);
  if (!drained) throw std::runtime_error("daemon did not confirm the drain");
  client.close();

  // 3. Outside the timed region: a seeded sample of answers against BFS,
  //    and the digest of every answer.
  std::vector<planar::EmbeddedGraph> graphs;
  for (const Instance& inst : insts) graphs.push_back(inst.generate());
  long long mismatched = 0;
  const std::size_t sample_pairs = a.smoke ? 8 : 24;
  for (std::size_t k = 0; k < insts.size(); ++k) {
    if (!cold_answers[k].empty() &&
        !answers_match(graphs[k], cold_pairs[k], cold_answers[k], sample_pairs)) {
      ++mismatched;
    }
  }
  perfbench::Rng pick(perfbench::mix(seed, 0x636865636bULL));
  const int sampled = a.smoke ? 8 : 40;
  for (int s = 0; s < sampled && n_req > 0; ++s) {
    const long long i = static_cast<long long>(pick.below(static_cast<std::uint64_t>(n_req)));
    const auto& got = answers[static_cast<std::size_t>(i)];
    if (got.empty()) continue;  // already counted as failed
    const auto& g = graphs[static_cast<std::size_t>(i % perfbench::kQueryInstances)];
    planar::NodeId du = -1, dv = -1;
    if (const auto it = plan.dead.find(i); it != plan.dead.end()) {
      du = it->second.first;
      dv = it->second.second;
    }
    if (!answers_match(g, pairs[static_cast<std::size_t>(i)], got, sample_pairs, du, dv)) {
      ++mismatched;
    }
  }
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const auto& ans : cold_answers) digest = perfbench::fnv1a(ans.data(), ans.size() * 8, digest);
  for (const auto& ans : answers) digest = perfbench::fnv1a(ans.data(), ans.size() * 8, digest);

  std::ostringstream out;
  out << "{\"cold_ms\": " << json_list(cold_ms) << ", \"calib_ms\": " << calib_mid
      << ", \"loop_s\": " << loop_s
      << ", \"lat_ms\": " << json_list(lat_ms) << ", \"hot\": " << hot
      << ", \"engine_hits\": " << engine_hits << ", \"rejected\": " << rejected
      << ", \"attempted\": " << n_req + static_cast<long long>(insts.size())
      << ", \"failed\": " << failed + mismatched
      << ", \"mismatched\": " << mismatched << ", \"answers_digest\": \""
      << hex64(digest) << "\"}\n";
  write_text(a.get("out"), out.str());
  return 0;
}

// -------------------------------------------------------------- trace --

// The traced run. Each unit kind mirrors what one end-to-end unit does,
// made of direct calls into the modules so every call gets a span:
//
//   batch_cold   one cold pass: per job generate, fingerprint, corpus
//                store, separator, encode, engine setup, DFS, encode,
//                decode, verify
//   batch_warm   one warm pass: per job generate, fingerprint, decode,
//                verify (what a disk-warm plansep_batch job does)
//   query_cold   the four cold first answers: generate, fingerprint,
//                engine setup, hierarchy, index, encode, decode, answer
//   query_hot    one hot request through run_query_job in process
//   query_answer one request answered by a prepared engine
//   query_dead   one dead-edge request: decode a private engine, kill the
//                edge, answer
//   daemon_rtt   one hot request round trip through plansepd
//   ingest_accept one pass over the planar texts: read, planarity (DMP)
//                and the full admission, each timed as its own call on the
//                same text
//   ingest_reject one pass over the K5 texts: the full admission
class TraceRun {
 public:
  explicit TraceRun(const Args& a)
      : seed_(a.u64("seed")), sz_(Sizes::for_mode(a.smoke)), dir_(a.get("dir")),
        socket_(a.get("socket")), smoke_(a.smoke) {}

  void run();
  std::string metrics_json() const;
  const Tracer& tracer() const { return tr_; }

 private:
  struct BatchJob {
    Instance inst;
    std::vector<std::uint8_t> sep_bytes, dfs_bytes;
  };
  struct QueryInst {
    Instance inst;
    planar::EmbeddedGraph g;
    planar::NodeId root = 0;
    std::uint64_t fingerprint = 0;
    std::vector<std::uint8_t> bytes;
    std::shared_ptr<query::QueryEngine> engine;
  };

  // Times f as one unit of `kind`: a unit span when tracing, a plain
  // wall-clock sample (untraced_ms_) otherwise.
  template <class F>
  void unit(const std::string& kind, F&& f) {
    if (tr_.enabled()) {
      tr_.span("unit." + kind, f);
    } else {
      const auto t0 = Clock::now();
      f();
      untraced_ms_[kind].push_back(ms_since(t0));
    }
  }
  void check(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  void batch_cold_job(BatchJob& job, const std::string& corpus);
  bool decode_and_verify(const planar::EmbeddedGraph& g, const BatchJob& job);
  void batch_warm_job(const BatchJob& job);
  void query_cold_instance(QueryInst& q, const Pairs& pairs);
  void ingest_text(const std::string& text, bool planar);
  void daemon_phase(const std::vector<QueryInst>& qs,
                    const std::vector<query::QueryJob>& hot_jobs);

  std::uint64_t seed_;
  Sizes sz_;
  std::string dir_;
  std::string socket_;
  bool smoke_;
  Tracer tr_;
  std::map<std::string, std::vector<double>> untraced_ms_;
  std::vector<double> calib_;
  long long attempted_ = 0;
  long long failed_ = 0;
  // Deterministic counts (the instances are fixed, so they repeat exactly).
  long long pa_calls_ = 0, sep_charged_ = 0, dfs_charged_ = 0,
            dfs_measured_ = 0, dfs_phases_ = 0, artifact_bytes_ = 0,
            index_bytes_ = 0;
  // Daemon-side observations.
  long long daemon_hot_ = 0, daemon_engine_hits_ = 0, daemon_rejected_ = 0;
  double cache_hit_ratio_ = 0;
  long long cache_evictions_ = 0;
};

void TraceRun::batch_cold_job(BatchJob& job, const std::string& corpus) {
  planar::NodeId root = 0;
  const planar::EmbeddedGraph g =
      tr_.span("planar.generate", [&] { return job.inst.generate(&root); });
  tr_.span("core.fingerprint", [&] { return core::topology_fingerprint(g); });
  tr_.span("io.corpus_store", [&] {
    return io::store_in_corpus(corpus, job.inst.family, g, job.inst.seed);
  });
  const SeparatorRun sr =
      tr_.span("separator.compute", [&] { return compute_cycle_separator(g, root); });
  job.sep_bytes = tr_.span("io.encode", [&] {
    io::Artifact art;
    art.add(io::SectionId::kSeparator, io::encode_separator({sr.separator, sr.cost}));
    return io::assemble(art);
  });
  const auto engine = tr_.span("shortcuts.setup", [&] {
    return std::make_unique<shortcuts::PartwiseEngine>(g, root);
  });
  const dfs::DfsBuildResult db =
      tr_.span("dfs.build", [&] { return dfs::build_dfs_tree(g, root, *engine); });
  job.dfs_bytes = tr_.span("io.encode", [&] {
    io::DfsArtifact da = io::dfs_artifact_from_tree(db.tree);
    da.phases = db.phases;
    da.cost = db.cost;
    io::Artifact art;
    art.add(io::SectionId::kDfsTree, io::encode_dfs(da));
    return io::assemble(art);
  });
  check(decode_and_verify(g, job));
  pa_calls_ += sr.cost.pa_calls + db.cost.pa_calls;
  sep_charged_ += sr.cost.charged;
  dfs_charged_ += db.cost.charged;
  dfs_measured_ += db.cost.measured;
  dfs_phases_ += db.phases;
  artifact_bytes_ += static_cast<long long>(job.sep_bytes.size() + job.dfs_bytes.size());
}

bool TraceRun::decode_and_verify(const planar::EmbeddedGraph& g, const BatchJob& job) {
  const auto [sa, da] = tr_.span("io.decode", [&] {
    const io::Artifact s = io::parse(job.sep_bytes);
    const io::Artifact d = io::parse(job.dfs_bytes);
    const io::Section* ss = s.find(io::SectionId::kSeparator);
    const io::Section* ds = d.find(io::SectionId::kDfsTree);
    if (ss == nullptr || ds == nullptr) throw std::runtime_error("artifact lacks a section");
    return std::make_pair(io::decode_separator(ss->bytes), io::decode_dfs(ds->bytes));
  });
  return tr_.span("serve.verify", [&] {
    return serve::verify_separator_artifact(g, sa).ok() &&
           serve::verify_dfs_artifact(g, da).ok();
  });
}

void TraceRun::batch_warm_job(const BatchJob& job) {
  const planar::EmbeddedGraph g =
      tr_.span("planar.generate", [&] { return job.inst.generate(); });
  tr_.span("core.fingerprint", [&] { return core::topology_fingerprint(g); });
  check(decode_and_verify(g, job));
}

void TraceRun::query_cold_instance(QueryInst& q, const Pairs& pairs) {
  q.g = tr_.span("planar.generate", [&] { return q.inst.generate(&q.root); });
  q.fingerprint = tr_.span("core.fingerprint", [&] { return core::topology_fingerprint(q.g); });
  const auto engine = tr_.span("shortcuts.setup", [&] {
    return std::make_unique<shortcuts::PartwiseEngine>(q.g, q.root);
  });
  const separator::SeparatorHierarchy h = tr_.span("separator.hierarchy", [&] {
    return separator::build_hierarchy(q.g, *engine, perfbench::kLeafSize);
  });
  const query::QueryIndex qi = tr_.span("query.index_build", [&] {
    return query::build_query_index(q.g, h, perfbench::kLeafSize, 1);
  });
  // The same container run_query_job persists: meta, hierarchy, index.
  q.bytes = tr_.span("io.encode", [&] {
    io::Artifact art;
    art.add(io::SectionId::kMeta,
            io::encode_meta({q.inst.family, q.inst.seed, q.fingerprint}));
    art.add(io::SectionId::kHierarchy, io::encode_hierarchy({q.g.num_nodes(), h}));
    art.add(io::SectionId::kQueryIndex, io::encode_query_index(qi));
    return io::assemble(art);
  });
  q.engine = tr_.span("query.decode",
                      [&] { return query::engine_from_artifact_bytes(q.g, q.bytes); });
  const auto got = tr_.span("query.answer", [&] { return q.engine->distances(pairs); });
  check(answers_match(q.g, pairs, got, 8));
  index_bytes_ += static_cast<long long>(q.bytes.size());
}

void TraceRun::ingest_text(const std::string& text, bool planar) {
  ingest::IngestOptions opts;
  opts.corpus_root = dir_ + "/trace_corpus";
  const auto admit = [&] {
    return tr_.span("ingest.admit", [&] {
      try {
        ingest::ingest_string(text, opts);
        return true;
      } catch (const ingest::IngestError& e) {
        return e.code() != ingest::IngestErrorCode::kNonPlanar;  // wrong reason
      }
    });
  };
  if (!planar) {  // the reject half times the whole admission only
    check(!admit());
    return;
  }
  const ingest::RawEdgeList raw = tr_.span("ingest.read", [&] {
    std::istringstream in(text);
    return ingest::read_untrusted_edge_list(in, ingest::TextFormat::kAuto, {});
  });
  // Dense renumbering by ascending id (as admission canonicalises) so the
  // planarity call sees the same graph the pipeline gives it.
  std::vector<long long> ids;
  for (const auto& [u, v] : raw.edges) {
    ids.push_back(u);
    ids.push_back(v);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const auto dense = [&](long long id) {
    return static_cast<planar::NodeId>(std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
  };
  std::vector<std::pair<planar::NodeId, planar::NodeId>> edges;
  for (const auto& [u, v] : raw.edges) {
    edges.emplace_back(std::min(dense(u), dense(v)), std::max(dense(u), dense(v)));
  }
  std::sort(edges.begin(), edges.end());
  const bool dmp_planar = tr_.span("planar.dmp", [&] {
    return planar::planar_embedding_with_witness(static_cast<planar::NodeId>(ids.size()), edges)
        .planar();
  });
  const bool admitted = admit();
  check(dmp_planar && admitted);
}

// Warms plansepd with the four cold queries (not a unit), then times hot
// round trips and reads the daemon's own cache counters around them.
void TraceRun::daemon_phase(const std::vector<QueryInst>& qs,
                            const std::vector<query::QueryJob>& hot_jobs) {
  daemon::Client client;
  if (!client.connect(socket_, 10000)) throw std::runtime_error("cannot connect to " + socket_);
  std::uint64_t id = 1;
  const auto to_request = [](const query::QueryJob& job) {
    return make_request(Instance{job.instance.family, job.instance.n, job.instance.seed},
                        job.pairs);
  };
  for (const QueryInst& q : qs) {
    if (!client.query(id++, make_request(q.inst, {{0, q.g.num_nodes() - 1}}), 170000)) {
      throw std::runtime_error("daemon warm-up query failed");
    }
  }
  const auto counter = [](const std::string& json, const std::string& name) {
    const std::string key = "\"" + name + "\":";
    const auto at = json.find(key);
    return at == std::string::npos ? 0LL : std::atoll(json.c_str() + at + key.size());
  };
  const auto before = client.metrics(id++);
  for (const auto& job : hot_jobs) {
    const auto req = to_request(job);
    std::optional<daemon::QueryResponsePayload> resp;
    unit("daemon_rtt", [&] { resp = tr_.span("daemon.rtt", [&] { return client.query(id++, req, 60000); }); });
    check(resp && resp->status == "ok" && resp->distances.size() == job.pairs.size());
    if (resp) {
      ++daemon_hot_;
      daemon_engine_hits_ += resp->engine_cache_hit;
    }
  }
  const auto after = client.metrics(id++);
  if (!before || !after) throw std::runtime_error("daemon metrics snapshot timed out");
  const long long hits = counter(*after, "daemon/cache_hits") - counter(*before, "daemon/cache_hits") +
                         counter(*after, "daemon/cache_disk_hits") -
                         counter(*before, "daemon/cache_disk_hits");
  const long long misses = counter(*after, "daemon/cache_misses") - counter(*before, "daemon/cache_misses");
  cache_hit_ratio_ = hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0;
  cache_evictions_ = counter(*after, "daemon/cache_evictions");
  daemon_rejected_ = counter(*after, "daemon/rejected_backpressure") +
                     counter(*after, "daemon/rejected_quota") +
                     counter(*after, "daemon/rejected_draining");
  if (!client.drain(id++, 60000)) throw std::runtime_error("daemon did not confirm the drain");
}

void TraceRun::run() {
  calib_.push_back(perfbench::calib_ms());
  const int warm_passes = smoke_ ? 2 : 4;
  const int hot_requests = smoke_ ? 8 : 48;
  const int dead_requests = smoke_ ? 2 : 8;

  // --- batch ------------------------------------------------------------
  std::vector<BatchJob> jobs;
  for (const Instance& inst : perfbench::batch_instances(sz_)) jobs.push_back({inst, {}, {}});
  unit("batch_cold", [&] {
    for (BatchJob& job : jobs) batch_cold_job(job, dir_ + "/trace_corpus");
  });
  // Traced and untraced warm passes alternate; their medians give the
  // tracing overhead (trace.gap_ratio).
  for (int p = 0; p < 2 * warm_passes; ++p) {
    tr_.set_enabled(p % 2 == 0);
    unit("batch_warm", [&] {
      for (const BatchJob& job : jobs) batch_warm_job(job);
    });
  }
  tr_.set_enabled(true);

  // --- query ------------------------------------------------------------
  std::vector<QueryInst> qs;
  for (const Instance& inst : perfbench::query_instances(sz_)) {
    qs.emplace_back();
    qs.back().inst = inst;
  }
  unit("query_cold", [&] {
    for (std::size_t k = 0; k < qs.size(); ++k) {
      query_cold_instance(qs[k], perfbench::request_pairs(seed_, -1 - static_cast<long long>(k),
                                                          qs[k].inst.n, sz_.pairs_per_request));
    }
  });
  calib_.push_back(perfbench::calib_ms());
  // An in-process service seeded with the artifacts just built, so hot
  // requests measure what a warm daemon worker does.
  serve::ResultCache cache(serve::ResultCache::Options{std::size_t{1} << 30, ""});
  query::EngineCache engines(qs.size());
  serve::BatchOptions opts;
  for (const QueryInst& q : qs) {
    cache.get_or_compute(query::index_cache_key(q.fingerprint, q.root, perfbench::kLeafSize),
                         [&] { return q.bytes; });
  }
  std::vector<query::QueryJob> hot_jobs;
  std::vector<const QueryInst*> hot_inst;
  for (long long i = 0; static_cast<int>(hot_jobs.size()) < hot_requests; ++i) {
    if (perfbench::is_dead_request(i)) continue;
    const QueryInst& q = qs[static_cast<std::size_t>(i % perfbench::kQueryInstances)];
    hot_inst.push_back(&q);
    hot_jobs.push_back(
        make_job(q.inst, perfbench::request_pairs(seed_, i, q.g.num_nodes(), sz_.pairs_per_request)));
  }
  for (const QueryInst& q : qs) {  // fill the engine cache (not timed)
    query::run_query_job(make_job(q.inst, {{0, 0}}), opts, cache, &engines);
  }
  for (std::size_t r = 0; r < hot_jobs.size(); ++r) {
    const query::QueryJob& job = hot_jobs[r];
    const QueryInst& q = *hot_inst[r];
    query::QueryOutcome out;
    unit("query_hot", [&] {
      out = tr_.span("query.service", [&] { return query::run_query_job(job, opts, cache, &engines); });
    });
    check(out.status == "ok" && out.engine_cache_hit && answers_match(q.g, job.pairs, out.distances, 2));
    std::vector<std::int64_t> got;
    unit("query_answer", [&] { got = tr_.span("query.answer", [&] { return q.engine->distances(job.pairs); }); });
    check(got == out.distances);
  }
  for (long long i = 0, done = 0; done < dead_requests; ++i) {
    if (!perfbench::is_dead_request(i)) continue;
    ++done;
    const QueryInst& q = qs[static_cast<std::size_t>(i % perfbench::kQueryInstances)];
    const auto [du, dv] = perfbench::request_dead_edge(seed_, i, q.g);
    const Pairs pairs = perfbench::request_pairs(seed_, i, q.g.num_nodes(), sz_.pairs_per_request);
    std::vector<std::int64_t> got;
    unit("query_dead", [&] {
      const auto eng = tr_.span("query.decode",
                                [&] { return query::engine_from_artifact_bytes(q.g, q.bytes); });
      got = tr_.span("query.dead_rebuild", [&] {
        eng->kill_edge(du, dv);
        return eng->distances(pairs);
      });
    });
    check(answers_match(q.g, pairs, got, 2, du, dv));
  }
  daemon_phase(qs, hot_jobs);

  // --- ingest -----------------------------------------------------------
  std::ifstream manifest(dir_ + "/manifest.tsv");
  if (!manifest) throw std::runtime_error("cannot read manifest.tsv");
  std::vector<std::pair<std::string, bool>> texts;
  std::string line;
  while (std::getline(manifest, line)) {
    std::istringstream fields(line);
    std::string name, file, bytes, verdict;
    std::getline(fields, name, '\t');
    std::getline(fields, file, '\t');
    std::getline(fields, bytes, '\t');
    std::getline(fields, verdict, '\t');
    std::ifstream f(dir_ + "/" + file, std::ios::binary);
    texts.emplace_back(std::string(std::istreambuf_iterator<char>(f), {}), verdict == "accept");
  }
  for (const bool planar : {true, false}) {
    unit(planar ? "ingest_accept" : "ingest_reject", [&] {
      for (const auto& [text, p] : texts) {
        if (p == planar) ingest_text(text, p);
      }
    });
  }
  calib_.push_back(perfbench::calib_ms());
}

std::string TraceRun::metrics_json() const {
  std::vector<std::tuple<std::string, double, std::string>> m;
  const auto layer = [&](const std::string& span, const std::string& kind) {
    std::vector<double> v;
    for (const int u : tr_.units(kind)) {
      const auto self = tr_.self_ms(u);
      const auto it = self.find(span);
      v.push_back(it == self.end() ? 0.0 : it->second);
    }
    return median(v);
  };
  const auto unit_median = [&](const std::string& kind) {
    std::vector<double> v;
    for (const int u : tr_.units(kind)) v.push_back(tr_.unit_ms(u));
    return median(v);
  };
  const auto add = [&](const std::string& name, double value, const std::string& unit) {
    m.emplace_back(name, value, unit);
  };
  add("planar.generate_ms", layer("planar.generate", "batch_warm"), "ms");
  add("planar.dmp_ms", layer("planar.dmp", "ingest_accept"), "ms");
  add("ingest.read_ms", layer("ingest.read", "ingest_accept"), "ms");
  add("ingest.admit_ms", layer("ingest.admit", "ingest_accept"), "ms");
  add("ingest.reject_ms", layer("ingest.admit", "ingest_reject"), "ms");
  add("core.fingerprint_ms", layer("core.fingerprint", "batch_warm"), "ms");
  add("shortcuts.setup_ms", layer("shortcuts.setup", "batch_cold"), "ms");
  add("separator.compute_ms", layer("separator.compute", "batch_cold"), "ms");
  add("dfs.build_ms", layer("dfs.build", "batch_cold"), "ms");
  add("separator.hierarchy_ms", layer("separator.hierarchy", "query_cold"), "ms");
  add("query.index_build_ms", layer("query.index_build", "query_cold"), "ms");
  add("io.encode_ms", layer("io.encode", "batch_cold"), "ms");
  add("io.decode_ms", layer("io.decode", "batch_warm"), "ms");
  add("serve.verify_ms", layer("serve.verify", "batch_warm"), "ms");
  add("io.corpus_store_ms", layer("io.corpus_store", "batch_cold"), "ms");
  add("query.decode_ms", layer("query.decode", "query_dead"), "ms");
  add("query.dead_rebuild_ms", layer("query.dead_rebuild", "query_dead"), "ms");
  add("query.answer_ns_per_pair",
      layer("query.answer", "query_answer") * 1e6 / sz_.pairs_per_request,
      "ns");
  const double service = layer("query.service", "query_hot");
  const double rtt = layer("daemon.rtt", "daemon_rtt");
  add("query.service_ms", service, "ms");
  add("daemon.rtt_ms", rtt, "ms");
  add("daemon.wait_ms", rtt - service, "ms");
  add("shortcuts.pa_calls", static_cast<double>(pa_calls_), "count");
  add("separator.rounds_charged", static_cast<double>(sep_charged_), "count");
  add("dfs.rounds_charged", static_cast<double>(dfs_charged_), "count");
  add("dfs.rounds_measured", static_cast<double>(dfs_measured_), "count");
  add("dfs.phases", static_cast<double>(dfs_phases_), "count");
  add("io.artifact_bytes", static_cast<double>(artifact_bytes_), "bytes");
  add("query.index_bytes", static_cast<double>(index_bytes_), "bytes");
  add("query.engine_hit_ratio",
      daemon_hot_ > 0 ? static_cast<double>(daemon_engine_hits_) / static_cast<double>(daemon_hot_) : 0.0,
      "ratio");
  add("serve.cache_hit_ratio", cache_hit_ratio_, "ratio");
  add("serve.cache_evictions", static_cast<double>(cache_evictions_), "count");
  add("daemon.rejected", static_cast<double>(daemon_rejected_), "count");
  add("host.calib_ms", median(calib_), "ms");
  // Coverage: the share of each unit's wall time inside layer spans; the
  // metric is the worst unit kind.
  double worst = 1.0;
  std::string per_kind;
  for (const char* kind : {"batch_cold", "batch_warm", "query_cold", "query_hot", "query_answer",
                           "query_dead", "daemon_rtt", "ingest_accept", "ingest_reject"}) {
    std::vector<double> v;
    for (const int u : tr_.units(kind)) {
      double covered = 0;
      for (const auto& [name, ms] : tr_.self_ms(u)) covered += ms;
      v.push_back(covered / tr_.unit_ms(u));
    }
    const double c = median(v);
    worst = std::min(worst, c);
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.4f", per_kind.empty() ? "" : ", ", kind, c);
    per_kind += buf;
  }
  add("trace.coverage", worst, "ratio");
  const auto untraced = untraced_ms_.find("batch_warm");
  add("trace.gap_ratio",
      untraced == untraced_ms_.end() ? 0.0 : unit_median("batch_warm") / median(untraced->second),
      "ratio");

  std::ostringstream out;
  out.precision(10);
  out << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"coverage\": {" << per_kind << "}, \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << std::get<0>(m[i]) << "\": {\"value\": "
        << std::get<1>(m[i]) << ", \"unit\": \"" << std::get<2>(m[i]) << "\"}";
  }
  out << "}}\n";
  return out.str();
}

int cmd_trace(const Args& a) {
  TraceRun run(a);
  run.run();
  write_text(a.get("out"), run.metrics_json());
  write_text(a.get("trace-out"), run.tracer().chrome_json());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_tool {render|query|trace|drain|calib} [--key=value ...]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
      continue;
    }
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bad argument %s\n", arg.c_str());
      return 2;
    }
    args.kv[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  try {
    if (cmd == "render") return cmd_render(args);
    if (cmd == "query") return cmd_query(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "drain") {
      daemon::Client client;
      if (!client.connect(args.get("socket"), 10000)) {
        throw std::runtime_error("cannot connect to " + args.get("socket"));
      }
      if (!client.drain(1, 60000)) throw std::runtime_error("daemon did not confirm the drain");
      return 0;
    }
    if (cmd == "calib") {
      std::printf("%.6f\n", perfbench::calib_ms());
      return 0;
    }
    std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_tool %s: %s\n", cmd.c_str(), e.what());
  }
  return 2;
}
