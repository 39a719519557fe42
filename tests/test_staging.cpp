// Pins the full staged pipeline — scatter_shares from one node, a backend,
// collect_sorted_output back to that node — to exact values at p = 3,
// perf {2,1,1}, 64-record messages: the makespan double, every node's
// CommStats and IoStats, and the collected output bytes.  Staging and
// egress are pure plumbing around the sort, so a refactor of the framed
// transfers must leave every one of these values unchanged.
// ext-overpartition pins only its output bytes and CommStats: its egress
// is where the root's uncharged copy of its own buckets may lower the
// clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "base/checksum.h"
#include "core/backend.h"
#include "core/scatter_gather.h"
#include "core/sort_driver.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "test_params.h"
#include "workload/generators.h"

namespace paladin::core {
namespace {

constexpr u64 kRecords = 3000;  // admissible on {2,1,1}
constexpr u64 kSeed = 0x57a9;

struct NodePin {
  net::CommStats comm;
  pdm::IoStats io;
};

struct StagedRun {
  double makespan = 0.0;
  std::vector<NodePin> nodes;
  u64 out_records = 0;
  u64 out_hash = 0;  ///< FNV-1a of the collected file's bytes
  bool sorted = false;
};

StagedRun staged_run(ParallelSortAlgorithm algo, bool pipelined) {
  const std::vector<u32> perf_values = {2, 1, 1};
  const hetero::PerfVector perf(perf_values);

  net::ClusterConfig config;
  config.perf = perf_values;
  config.disk = test_params::tiny_blocks();
  config.seed = kSeed;
  net::Cluster cluster(config);

  workload::WorkloadSpec spec;
  spec.dist = workload::Dist::kUniform;
  spec.total_records = kRecords;
  spec.node_count = 1;
  spec.seed = kSeed;

  ParallelSortConfig psc;
  psc.algorithm = algo;
  psc.psrs.pipelined = pipelined;
  psc.sequential.memory_records = test_params::kMemoryRecords;
  psc.sequential.tape_count = test_params::kTapeCount;
  psc.sequential.allow_in_memory = false;
  psc.message_records = test_params::kMessageRecords;

  struct NodeResult {
    net::CommStats comm;
    std::vector<DefaultKey> collected;  // root only
  };
  auto outcome = cluster.run([&](net::NodeContext& ctx) -> NodeResult {
    if (ctx.rank() == 0) {
      workload::write_share(spec, 0, 0, kRecords, ctx.disk(), "all.in");
    }
    scatter_shares<DefaultKey>(ctx, perf, "all.in", "input", 0,
                               psc.message_records);
    const ParallelSortReport report =
        parallel_external_sort<DefaultKey>(ctx, perf, psc);
    collect_sorted_output<DefaultKey>(ctx, psc, report, "all.out", 0);
    NodeResult r;
    r.comm = ctx.comm().stats();
    if (ctx.rank() == 0) {
      r.collected = pdm::read_file<DefaultKey>(ctx.disk(), "all.out");
    }
    return r;
  });

  StagedRun run;
  run.makespan = outcome.makespan;
  for (u32 i = 0; i < perf.node_count(); ++i) {
    run.nodes.push_back({outcome.results[i].comm, outcome.nodes[i].io});
  }
  const std::vector<DefaultKey>& out = outcome.results[0].collected;
  run.out_records = out.size();
  run.out_hash = hash_bytes_fnv1a(reinterpret_cast<const u8*>(out.data()),
                                  out.size() * sizeof(DefaultKey));
  run.sorted = std::is_sorted(out.begin(), out.end());
  return run;
}

/// Prints a run in the initializer syntax of the tables below, so a
/// deliberate change of the pinned values is a copy-paste.
std::string describe(const StagedRun& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%a, 0x%llxULL,\n", r.makespan,
                static_cast<unsigned long long>(r.out_hash));
  std::string s = buf;
  for (const NodePin& n : r.nodes) {
    std::snprintf(buf, sizeof(buf), "{{%llu, %llu, %llu, %llu, %llu}, ",
                  static_cast<unsigned long long>(n.comm.messages_sent),
                  static_cast<unsigned long long>(n.comm.bytes_sent),
                  static_cast<unsigned long long>(n.comm.messages_received),
                  static_cast<unsigned long long>(n.comm.bytes_received),
                  static_cast<unsigned long long>(n.comm.self_deliveries));
    s += buf;
    std::snprintf(buf, sizeof(buf), "{%llu, %llu, %llu, %llu, %llu, %llu}},\n",
                  static_cast<unsigned long long>(n.io.blocks_read),
                  static_cast<unsigned long long>(n.io.blocks_written),
                  static_cast<unsigned long long>(n.io.bytes_read),
                  static_cast<unsigned long long>(n.io.bytes_written),
                  static_cast<unsigned long long>(n.io.files_created),
                  static_cast<unsigned long long>(n.io.files_removed));
    s += buf;
  }
  return s;
}

struct CommPin {
  u64 messages_sent, bytes_sent, messages_received, bytes_received,
      self_deliveries;
};
struct IoPin {
  u64 blocks_read, blocks_written, bytes_read, bytes_written, files_created,
      files_removed;
};
struct Pin {
  double makespan;
  u64 out_hash;
  struct {
    CommPin comm;
    IoPin io;
  } nodes[3];
};

/// Checks `r` against `pin`; the makespan and IoStats only when
/// `with_clock_and_io`.
void expect_pinned(const StagedRun& r, const Pin& pin,
                   bool with_clock_and_io) {
  SCOPED_TRACE("actual:\n" + describe(r));
  EXPECT_EQ(r.out_records, kRecords);
  EXPECT_TRUE(r.sorted);
  EXPECT_EQ(r.out_hash, pin.out_hash);
  if (with_clock_and_io) EXPECT_EQ(r.makespan, pin.makespan);
  ASSERT_EQ(r.nodes.size(), 3u);
  for (u32 i = 0; i < 3; ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    const net::CommStats& c = r.nodes[i].comm;
    const CommPin& pc = pin.nodes[i].comm;
    EXPECT_EQ(c.messages_sent, pc.messages_sent);
    EXPECT_EQ(c.bytes_sent, pc.bytes_sent);
    EXPECT_EQ(c.messages_received, pc.messages_received);
    EXPECT_EQ(c.bytes_received, pc.bytes_received);
    EXPECT_EQ(c.self_deliveries, pc.self_deliveries);
    if (!with_clock_and_io) continue;
    const pdm::IoStats& io = r.nodes[i].io;
    const IoPin& pi = pin.nodes[i].io;
    EXPECT_EQ(io.blocks_read, pi.blocks_read);
    EXPECT_EQ(io.blocks_written, pi.blocks_written);
    EXPECT_EQ(io.bytes_read, pi.bytes_read);
    EXPECT_EQ(io.bytes_written, pi.bytes_written);
    EXPECT_EQ(io.files_created, pi.files_created);
    EXPECT_EQ(io.files_removed, pi.files_removed);
  }
}

TEST(StagedPipeline, ExtPsrsFusedPinned) {
  const Pin pin = {
      0x1.d1f0d28c9e8bdp+0,
      0xbd0eefebcc179dfaULL,
      {{{86, 12080, 75, 12080, 25}, {851, 846, 54332, 54012, 11, 7}},
       {{40, 5172, 32, 5172, 7}, {224, 222, 14260, 14132, 9, 7}},
       {{52, 6896, 38, 6896, 9}, {251, 249, 15984, 15856, 9, 7}}}};
  expect_pinned(staged_run(ParallelSortAlgorithm::kExtPsrs, true), pin, true);
}

TEST(StagedPipeline, ExtPsrsPhasedPinned) {
  const Pin pin = {
      0x1.1b20bb7eb32a2p+1,
      0xbd0eefebcc179dfaULL,
      {{{61, 9108, 54, 9101, 0}, {994, 989, 63344, 63024, 16, 12}},
       {{33, 4667, 28, 4662, 0}, {299, 297, 18864, 18736, 14, 12}},
       {{43, 5924, 33, 5914, 0}, {345, 343, 21840, 21712, 14, 12}}}};
  expect_pinned(staged_run(ParallelSortAlgorithm::kExtPsrs, false), pin, true);
}

TEST(StagedPipeline, ExtDistributionPinned) {
  const Pin pin = {
      0x1.2cbb2f947cd38p+1,
      0xbd0eefebcc179dfaULL,
      {{{60, 8998, 52, 9356, 0}, {1103, 1007, 70168, 64024, 16, 12}},
       {{35, 5052, 29, 4863, 0}, {324, 276, 20380, 17332, 14, 12}},
       {{41, 5763, 32, 5571, 0}, {399, 351, 25176, 22104, 14, 12}}}};
  expect_pinned(staged_run(ParallelSortAlgorithm::kExtDistribution, true), pin,
                true);
}

TEST(StagedPipeline, ExtMultiwayPinned) {
  const Pin pin = {
      0x1.e2442b0cccf21p+0,
      0xbd0eefebcc179dfaULL,
      {{{61, 9236, 54, 9967, 0}, {952, 701, 60776, 44744, 7, 3}},
       {{37, 5562, 30, 5186, 0}, {307, 172, 19536, 10920, 5, 3}},
       {{41, 5956, 32, 5578, 0}, {320, 187, 20392, 11880, 5, 3}}}};
  expect_pinned(staged_run(ParallelSortAlgorithm::kExtMultiway, true), pin,
                true);
}

TEST(StagedPipeline, ExtOverpartitionOutputAndTrafficPinned) {
  // Makespan and IoStats are not pinned (see the file comment).
  const Pin pin = {
      0.0,
      0xbd0eefebcc179dfaULL,
      {{{56, 9532, 73, 9844, 0}, {}},
       {{43, 5652, 34, 5496, 0}, {}},
       {{44, 5844, 36, 5688, 0}, {}}}};
  expect_pinned(staged_run(ParallelSortAlgorithm::kExtOverpartition, true),
                pin, false);
}

}  // namespace
}  // namespace paladin::core
