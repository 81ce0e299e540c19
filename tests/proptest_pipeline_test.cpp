// Property-based fuzzing of the full pipeline — embedding → triangulation
// → separator engine → hierarchy → DFS builder — with the centralized
// oracles of testing/oracles.hpp checked on every seeded case, round-count
// envelopes that fail on >2× regressions, CONGEST bandwidth accounting
// over captured message traces, and the seeded-replay workflow (an
// injected violation must shrink and print a reproducible one-line
// command).

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "shortcuts/partwise.hpp"
#include "shortcuts/partwise_message.hpp"
#include "testing/proptest.hpp"
#include "testing/trace.hpp"
#include "util/check.hpp"

namespace plansep::testing {
namespace {

using planar::Family;
using planar::NodeId;

Property pipeline_property(PipelineOptions opt) {
  return [opt](const Instance& inst, InvariantReport& rep) {
    run_pipeline_checked(inst, opt, rep);
  };
}

TEST(ProptestPipeline, FullPipelineInvariantsHold) {
  PropConfig cfg;
  cfg.cases = 320;
  cfg.min_n = 12;
  cfg.max_n = 120;
  cfg.mutation_probability = 0.35;
  cfg.base_seed = 20260806;

  std::set<Family> families_seen;
  const PropResult res = run_property(
      "pipeline", cfg, [&](const Instance& inst, InvariantReport& rep) {
        families_seen.insert(inst.spec.family);
        run_pipeline_checked(inst, PipelineOptions{}, rep);
      });
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_GE(res.cases_run, 200);
  EXPECT_GE(families_seen.size(), 5u);
}

TEST(ProptestPipeline, TracedRunsRespectBandwidth) {
  // A smaller traced sweep: every captured message stream must satisfy the
  // one-message-per-edge-per-round CONGEST discipline, and the
  // message-level aggregation protocol must agree with the analytic
  // engine's values.
  PropConfig cfg;
  cfg.cases = 24;
  cfg.min_n = 12;
  cfg.max_n = 48;
  cfg.mutation_probability = 0.25;
  cfg.base_seed = 7;

  PipelineOptions opt;
  opt.capture_trace = true;
  opt.run_hierarchy = false;  // keep traced runs small
  const PropResult res = run_property("pipeline_traced", cfg,
                                      pipeline_property(opt));
  EXPECT_TRUE(res.ok()) << res.summary();
}

TEST(ProptestPipeline, TraceCaptureIsDeterministicAndDiffable) {
  const CaseSpec spec{Family::kTriangulation, 48, 12345, Mutation::kNone};
  auto capture = [](const CaseSpec& s) {
    const Instance inst = build_instance(s);
    const auto& g = inst.gg.graph;
    TraceRecorder rec;
    {
      ScopedTraceCapture cap(rec);
      shortcuts::PartwiseEngine engine(g, inst.gg.root_hint);
      std::vector<int> part(static_cast<std::size_t>(g.num_nodes()), 0);
      std::vector<std::int64_t> value(static_cast<std::size_t>(g.num_nodes()));
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        value[static_cast<std::size_t>(v)] = v;
      }
      shortcuts::message_level_aggregate(g, engine.global_tree(), part, value,
                                         shortcuts::AggOp::kSum);
    }
    return rec.events();
  };

  const auto a = capture(spec);
  const auto b = capture(spec);
  ASSERT_GT(a.size(), 0u);
  EXPECT_EQ(first_divergence(a, b), -1) << diff_traces(a, b);
  EXPECT_EQ(diff_traces(a, b), "");

  CaseSpec other = spec;
  other.seed = 54321;
  const auto c = capture(other);
  EXPECT_NE(first_divergence(a, c), -1);
  EXPECT_FALSE(diff_traces(a, c).empty());
}

TEST(ProptestPipeline, GlobalSinkDetachesCleanly) {
  // Settle any PLANSEP_METRICS bootstrap so the baseline sink is stable
  // across the engine runs below (Network::run would trigger it mid-test).
  obs::global_registry();
  congest::TraceSink* const base = congest::global_trace_sink();
  TraceRecorder rec;
  {
    ScopedTraceCapture cap(rec);
    const Instance inst =
        build_instance({Family::kGrid, 25, 1, Mutation::kNone});
    shortcuts::PartwiseEngine engine(inst.gg.graph, inst.gg.root_hint);
  }
  const long long captured = rec.total_messages();
  EXPECT_GT(captured, 0);
  EXPECT_EQ(congest::global_trace_sink(), base);
  // Outside the scope nothing more is recorded.
  const Instance inst2 =
      build_instance({Family::kGrid, 25, 2, Mutation::kNone});
  shortcuts::PartwiseEngine engine2(inst2.gg.graph, inst2.gg.root_hint);
  EXPECT_EQ(rec.total_messages(), captured);
}

TEST(ProptestReplay, InjectedViolationShrinksAndReplaysDeterministically) {
  // Artificially injected invariant violation: pretend instances above 40
  // nodes are broken. The harness must shrink toward the threshold and
  // print a single-line replay command that reproduces the failure.
  const Property injected = [](const Instance& inst, InvariantReport& rep) {
    if (inst.gg.graph.num_nodes() > 40) {
      rep.fail("injected: n = " +
               std::to_string(inst.gg.graph.num_nodes()) + " > 40");
    }
  };
  PropConfig cfg;
  cfg.cases = 60;
  cfg.min_n = 30;
  cfg.max_n = 90;
  cfg.base_seed = 3;
  cfg.max_failures = 1;

  ::testing::internal::CaptureStderr();
  const PropResult res = run_property("injected", cfg, injected);
  const std::string err = ::testing::internal::GetCapturedStderr();

  ASSERT_FALSE(res.ok());
  const Failure& f = res.failures.front();

  // The replay command was printed, on a single line.
  const auto at = err.find(f.replay);
  ASSERT_NE(at, std::string::npos) << err;
  const auto line_start = err.rfind('\n', at);
  const auto line_end = err.find('\n', at);
  const std::string line = err.substr(
      line_start == std::string::npos ? 0 : line_start + 1,
      (line_end == std::string::npos ? err.size() : line_end) -
          (line_start == std::string::npos ? 0 : line_start + 1));
  EXPECT_NE(line.find("--seed="), std::string::npos) << line;
  EXPECT_NE(line.find("--family="), std::string::npos) << line;
  EXPECT_NE(line.find("--n="), std::string::npos) << line;

  // The command parses and reproduces the failure, deterministically.
  const auto spec = parse_replay(f.replay);
  ASSERT_TRUE(spec.has_value()) << f.replay;
  const InvariantReport once = run_one(*spec, injected);
  const InvariantReport twice = run_one(*spec, injected);
  EXPECT_FALSE(once.ok());
  EXPECT_EQ(once.to_string(), twice.to_string());

  // Shrinking moved toward the threshold without crossing it.
  EXPECT_LE(f.shrunk.n, f.original.n);
  EXPECT_GT(build_instance(f.shrunk).gg.graph.num_nodes(), 40);
  EXPECT_LE(f.shrunk.n, 60);
}

TEST(ProptestReplay, ExceptionsAreCapturedAsViolations) {
  const Property throws = [](const Instance&, InvariantReport&) {
    throw CheckError("synthetic engine failure");
  };
  const InvariantReport rep =
      run_one({Family::kGrid, 16, 9, Mutation::kNone}, throws);
  ASSERT_FALSE(rep.ok());
  EXPECT_NE(rep.to_string().find("synthetic engine failure"),
            std::string::npos);
}

}  // namespace
}  // namespace plansep::testing
