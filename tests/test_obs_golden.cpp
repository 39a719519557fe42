// Golden-file determinism test for the observability exporters: one fixed
// observed pipelined PSRS run must serialise byte-for-byte to the
// checked-in fixtures tests/golden/obs_run.trace.json (Chrome trace_event)
// and tests/golden/obs_run.report.json (paladin.run_report.v1), and three
// fixed p=3 runs pin the phased exchange paths in RunReport form —
// obs_phased (phased ext-psrs), obs_multiway and obs_distribution.  Any
// intentional change to the trace content or the serialisation format
// shows up as a reviewable fixture diff — regenerate with
// tools/regen_golden_obs.sh (which runs this binary with
// PALADIN_REGEN_GOLDEN=1 so the test rewrites the fixtures in place).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "core/ext_psrs.h"
#include "core/sort_driver.h"
#include "hetero/drift.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "obs/export.h"
#include "test_params.h"
#include "workload/generators.h"

#ifndef PALADIN_GOLDEN_DIR
#error "tests/CMakeLists.txt must define PALADIN_GOLDEN_DIR"
#endif

namespace paladin::obs {
namespace {

/// The fixed run behind the fixtures.  Everything here is pinned: perf
/// vector, seeds, block size, message size, metadata order.  Do not tweak
/// casually — every edit is a fixture regeneration.
ClusterTrace golden_run() {
  const std::vector<u32> perf_values = {2, 1};
  hetero::PerfVector perf(perf_values);
  const u64 n = perf.admissible_size(20);

  net::ClusterConfig config;
  config.perf = perf_values;
  config.disk = test_params::tiny_blocks();
  config.seed = 1234;
  config.observe = true;
  net::Cluster cluster(config);

  workload::WorkloadSpec spec;
  spec.dist = workload::Dist::kUniform;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = 99;

  auto outcome = cluster.run([&](net::NodeContext& ctx) -> int {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    core::ExtPsrsConfig psrs;
    psrs.sequential.memory_records = test_params::kMemoryRecords;
    psrs.sequential.tape_count = test_params::kTapeCount;
    psrs.sequential.allow_in_memory = false;
    psrs.message_records = test_params::kMessageRecords;
    psrs.pipelined = true;
    core::ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
    return 0;
  });

  ClusterTrace trace = core::collect_cluster_trace(outcome);
  trace.set_meta("algorithm", "ext-psrs");
  trace.set_meta("perf", "2,1");
  trace.set_meta("fixture", "tests/golden/obs_run");
  return trace;
}

/// The same pinned run under a pinned drift plan: a forced 3× slowdown of
/// rank 0 over epochs [2, 6) plus a seeded probabilistic spec.  Pins the
/// drift.* counter block of the RunReport (paladin.run_report.v1 itself is
/// unchanged — the drift-free fixtures above must never move when this
/// one does).
ClusterTrace golden_drift_run() {
  const std::vector<u32> perf_values = {2, 1};
  hetero::PerfVector perf(perf_values);
  const u64 n = perf.admissible_size(20);

  net::ClusterConfig config;
  config.perf = perf_values;
  config.disk = test_params::tiny_blocks();
  config.seed = 1234;
  config.observe = true;
  config.drift_plan.seed = 77;
  config.drift_plan.spec.epoch_seconds = 0.05;
  config.drift_plan.spec.slow_prob = 0.5;
  config.drift_plan.spec.slow_factor = 2.0;
  config.drift_plan.spec.regime_epochs = 2;
  hetero::ForcedSlowdown forced;
  forced.rank = 0;
  forced.from_epoch = 2;
  forced.until_epoch = 6;
  forced.factor = 3.0;
  config.drift_plan.forced.push_back(forced);
  net::Cluster cluster(config);

  workload::WorkloadSpec spec;
  spec.dist = workload::Dist::kUniform;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = 99;

  auto outcome = cluster.run([&](net::NodeContext& ctx) -> int {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    core::ExtPsrsConfig psrs;
    psrs.sequential.memory_records = test_params::kMemoryRecords;
    psrs.sequential.tape_count = test_params::kTapeCount;
    psrs.sequential.allow_in_memory = false;
    psrs.message_records = test_params::kMessageRecords;
    psrs.pipelined = true;
    core::ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
    return 0;
  });

  ClusterTrace trace = core::collect_cluster_trace(outcome);
  trace.set_meta("algorithm", "ext-psrs");
  trace.set_meta("perf", "2,1");
  trace.set_meta("drift", hetero::drift_plan_to_string(config.drift_plan));
  trace.set_meta("fixture", "tests/golden/obs_drift");
  return trace;
}

/// Tweaks a pinned run's cluster and sort configs before it starts.
using GoldenTweak =
    std::function<void(net::ClusterConfig&, core::ParallelSortConfig&)>;

std::string perf_string(const std::vector<u32>& perf_values) {
  std::string out;
  for (const u32 v : perf_values) {
    if (!out.empty()) out += ",";
    out += std::to_string(v);
  }
  return out;
}

/// A pinned run of `algorithm` through parallel_external_sort on
/// `perf_values`, observed, with `tweak` applied to the defaults below.
ClusterTrace golden_sort_run(core::ParallelSortAlgorithm algorithm,
                             const std::vector<u32>& perf_values, u64 k,
                             const std::string& fixture,
                             const GoldenTweak& tweak) {
  hetero::PerfVector perf(perf_values);
  const u64 n = perf.admissible_size(k);

  net::ClusterConfig config;
  config.perf = perf_values;
  config.disk = test_params::tiny_blocks();
  config.seed = 4321;
  config.observe = true;

  core::ParallelSortConfig sort;
  sort.algorithm = algorithm;
  sort.sequential.memory_records = test_params::kMemoryRecords;
  sort.sequential.tape_count = test_params::kTapeCount;
  sort.sequential.allow_in_memory = false;
  sort.message_records = test_params::kMessageRecords;
  tweak(config, sort);
  net::Cluster cluster(config);

  workload::WorkloadSpec spec;
  spec.dist = workload::Dist::kUniform;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = 17;

  auto outcome = cluster.run([&](net::NodeContext& ctx) -> int {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    core::parallel_external_sort<DefaultKey>(ctx, perf, sort);
    return 0;
  });

  ClusterTrace trace = core::collect_cluster_trace(outcome);
  trace.set_meta("algorithm", core::to_string(algorithm));
  trace.set_meta("perf", perf_string(perf_values));
  if (config.drift_plan.active()) {
    trace.set_meta("drift", hetero::drift_plan_to_string(config.drift_plan));
  }
  trace.set_meta("fixture", "tests/golden/" + fixture);
  return trace;
}

/// A pinned p=3 run of `algorithm`, sized so every exchange pair moves
/// more chunks than the credit window holds and the multiway backend forms
/// several runs per node.  PSRS runs phased (the pipelined path is pinned
/// by golden_run above).
ClusterTrace golden_exchange_run(core::ParallelSortAlgorithm algorithm,
                                 const std::string& fixture) {
  return golden_sort_run(
      algorithm, {2, 1, 1}, 400, fixture,
      [](net::ClusterConfig&, core::ParallelSortConfig& sort) {
        sort.psrs.pipelined = false;
      });
}

/// A pinned p=4 run that forces the multi-level splitter tree with fanout
/// 2 (two levels): PSRS sends its regular ranks through the tree, multiway
/// its perf-share cuts in unique-value space, overpartitioning its p·s−1
/// uniform cuts.
ClusterTrace golden_tree_run(core::ParallelSortAlgorithm algorithm,
                             const std::string& fixture) {
  return golden_sort_run(
      algorithm, {2, 1, 1, 1}, 200, fixture,
      [](net::ClusterConfig&, core::ParallelSortConfig& sort) {
        sort.splitter.strategy = core::SplitterStrategy::kTree;
        sort.splitter.fanout = 2;
      });
}

/// A pinned p=3 adaptive run under a forced 4× slowdown of rank 0 from the
/// first epoch on: the speed probe sees it, the blended weights clear the
/// deadband (drift.adapt.applied = 1), and the splitters are cut at the
/// weight quantiles.  PSRS runs phased.
ClusterTrace golden_adaptive_run(core::ParallelSortAlgorithm algorithm,
                                 const std::string& fixture) {
  return golden_sort_run(
      algorithm, {2, 1, 1}, 400, fixture,
      [](net::ClusterConfig& config, core::ParallelSortConfig& sort) {
        config.drift_plan.seed = 5;
        config.drift_plan.spec.epoch_seconds = 0.05;
        hetero::ForcedSlowdown forced;
        forced.rank = 0;
        forced.from_epoch = 0;
        forced.factor = 4.0;
        config.drift_plan.forced.push_back(forced);
        sort.adaptive.enabled = true;
        sort.psrs.pipelined = false;
      });
}

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool regen_requested() {
  const char* env = std::getenv("PALADIN_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void check_against_golden(const std::string& produced,
                          const std::string& fixture_name) {
  const std::string path =
      std::string(PALADIN_GOLDEN_DIR) + "/" + fixture_name;
  if (regen_requested()) {
    ASSERT_TRUE(write_text_file(path, produced)) << "regen failed: " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  const std::string expected = read_file_or_empty(path);
  ASSERT_FALSE(expected.empty())
      << "missing fixture " << path
      << " — run tools/regen_golden_obs.sh and commit the result";
  // Byte-exact.  On mismatch, report the first diverging offset rather
  // than dumping two multi-kilobyte JSON bodies into the log.
  if (produced != expected) {
    std::size_t at = 0;
    while (at < produced.size() && at < expected.size() &&
           produced[at] == expected[at]) {
      ++at;
    }
    FAIL() << fixture_name << " diverges from the fixture at byte " << at
           << " (produced " << produced.size() << " bytes, fixture "
           << expected.size() << ")\n  produced: ..."
           << produced.substr(at > 40 ? at - 40 : 0, 80) << "...\n  fixture:  ..."
           << expected.substr(at > 40 ? at - 40 : 0, 80)
           << "...\n  If the change is intended, regenerate with "
              "tools/regen_golden_obs.sh";
  }
}

TEST(ObsGolden, ChromeTraceMatchesFixtureByteExact) {
  const ClusterTrace trace = golden_run();
  check_against_golden(chrome_trace_json(trace), "obs_run.trace.json");
}

TEST(ObsGolden, RunReportMatchesFixtureByteExact) {
  const ClusterTrace trace = golden_run();
  check_against_golden(run_report_json(trace), "obs_run.report.json");
}

TEST(ObsGolden, DriftRunReportMatchesFixtureByteExact) {
  // The drifted fixture only exists where the drift layer does: the
  // compiled-out CI job would otherwise produce the drift-free report.
  if (!hetero::kDriftCompiledIn) GTEST_SKIP() << "drift layer compiled out";
  const ClusterTrace trace = golden_drift_run();
  check_against_golden(run_report_json(trace), "obs_drift.report.json");
}

TEST(ObsGolden, PhasedPsrsRunReportMatchesFixtureByteExact) {
  const ClusterTrace trace = golden_exchange_run(
      core::ParallelSortAlgorithm::kExtPsrs, "obs_phased");
  check_against_golden(run_report_json(trace), "obs_phased.report.json");
}

TEST(ObsGolden, MultiwayRunReportMatchesFixtureByteExact) {
  const ClusterTrace trace = golden_exchange_run(
      core::ParallelSortAlgorithm::kExtMultiway, "obs_multiway");
  check_against_golden(run_report_json(trace), "obs_multiway.report.json");
}

TEST(ObsGolden, DistributionRunReportMatchesFixtureByteExact) {
  const ClusterTrace trace = golden_exchange_run(
      core::ParallelSortAlgorithm::kExtDistribution, "obs_distribution");
  check_against_golden(run_report_json(trace), "obs_distribution.report.json");
}

TEST(ObsGolden, TreePsrsRunReportMatchesFixtureByteExact) {
  const ClusterTrace trace = golden_tree_run(
      core::ParallelSortAlgorithm::kExtPsrs, "obs_tree_psrs");
  check_against_golden(run_report_json(trace), "obs_tree_psrs.report.json");
}

TEST(ObsGolden, TreeMultiwayRunReportMatchesFixtureByteExact) {
  const ClusterTrace trace = golden_tree_run(
      core::ParallelSortAlgorithm::kExtMultiway, "obs_tree_multiway");
  check_against_golden(run_report_json(trace),
                       "obs_tree_multiway.report.json");
}

TEST(ObsGolden, TreeOverpartitionRunReportMatchesFixtureByteExact) {
  const ClusterTrace trace = golden_tree_run(
      core::ParallelSortAlgorithm::kExtOverpartition,
      "obs_tree_overpartition");
  check_against_golden(run_report_json(trace),
                       "obs_tree_overpartition.report.json");
}

TEST(ObsGolden, AdaptivePsrsRunReportMatchesFixtureByteExact) {
  if (!hetero::kDriftCompiledIn) GTEST_SKIP() << "drift layer compiled out";
  const ClusterTrace trace = golden_adaptive_run(
      core::ParallelSortAlgorithm::kExtPsrs, "obs_adaptive_psrs");
  check_against_golden(run_report_json(trace),
                       "obs_adaptive_psrs.report.json");
}

TEST(ObsGolden, AdaptiveMultiwayRunReportMatchesFixtureByteExact) {
  if (!hetero::kDriftCompiledIn) GTEST_SKIP() << "drift layer compiled out";
  const ClusterTrace trace = golden_adaptive_run(
      core::ParallelSortAlgorithm::kExtMultiway, "obs_adaptive_multiway");
  check_against_golden(run_report_json(trace),
                       "obs_adaptive_multiway.report.json");
}

TEST(ObsGolden, TwoCollectionsOfTheSameRunSerialiseIdentically) {
  // The in-process determinism half of the golden guarantee: re-running
  // the whole observed cluster yields byte-identical exports even before
  // comparing against the on-disk fixture.
  const ClusterTrace a = golden_run();
  const ClusterTrace b = golden_run();
  EXPECT_EQ(chrome_trace_json(a), chrome_trace_json(b));
  EXPECT_EQ(run_report_json(a), run_report_json(b));
}

}  // namespace
}  // namespace paladin::obs
