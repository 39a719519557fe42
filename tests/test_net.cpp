// Tests of the cluster runtime: virtual clocks, mailboxes, point-to-point
// semantics, collectives, poisoning, and determinism of simulated time.
#include <gtest/gtest.h>

#include <thread>

#include "base/temp_dir.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "net/communicator.h"
#include "net/mailbox.h"
#include "net/network_model.h"
#include "net/virtual_clock.h"

namespace paladin::net {
namespace {

// ---------------------------------------------------------------------
// VirtualClock
// ---------------------------------------------------------------------

TEST(VirtualClock, AdvanceAndMerge) {
  VirtualClock c;
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  c.advance(1.5);
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.merge(1.0);  // in the past: no-op
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.merge(2.0);
  EXPECT_DOUBLE_EQ(c.now(), 2.0);
  EXPECT_THROW(c.advance(-1.0), ContractViolation);
}

// ---------------------------------------------------------------------
// Mailbox
// ---------------------------------------------------------------------

TEST(Mailbox, MatchesBySourceAndTag) {
  Mailbox box;
  box.deliver(Packet{.source = 1, .tag = 7, .arrival_time = 0, .payload = {1}});
  box.deliver(Packet{.source = 2, .tag = 7, .arrival_time = 0, .payload = {2}});
  box.deliver(Packet{.source = 1, .tag = 8, .arrival_time = 0, .payload = {3}});

  EXPECT_EQ(box.receive(2, 7).payload[0], 2);
  EXPECT_EQ(box.receive(1, 8).payload[0], 3);
  EXPECT_EQ(box.receive(1, 7).payload[0], 1);
}

TEST(Mailbox, WildcardsMatchAnything) {
  Mailbox box;
  box.deliver(Packet{.source = 3, .tag = 9, .arrival_time = 0, .payload = {}});
  const Packet p = box.receive(kAnySource, kAnyTag);
  EXPECT_EQ(p.source, 3);
  EXPECT_EQ(p.tag, 9);
}

TEST(Mailbox, FifoPerSourceTagPair) {
  Mailbox box;
  for (u8 i = 0; i < 5; ++i) {
    box.deliver(Packet{.source = 0, .tag = 1, .arrival_time = 0,
                       .payload = {i}});
  }
  for (u8 i = 0; i < 5; ++i) {
    EXPECT_EQ(box.receive(0, 1).payload[0], i);
  }
}

TEST(Mailbox, BlockingReceiveWakesOnDelivery) {
  Mailbox box;
  std::thread t([&] {
    box.deliver(Packet{.source = 0, .tag = 0, .arrival_time = 0,
                       .payload = {42}});
  });
  EXPECT_EQ(box.receive(0, 0).payload[0], 42);
  t.join();
}

TEST(Mailbox, PoisonWakesBlockedReceiver) {
  Mailbox box;
  std::thread t([&] { box.poison(); });
  EXPECT_THROW(box.receive(0, 0), MailboxPoisoned);
  t.join();
}

TEST(Mailbox, PoisonStillDrainsMatchingPackets) {
  Mailbox box;
  box.deliver(Packet{.source = 0, .tag = 0, .arrival_time = 0, .payload = {}});
  box.poison();
  EXPECT_NO_THROW(box.receive(0, 0));       // matching packet available
  EXPECT_THROW(box.receive(0, 0), MailboxPoisoned);  // now empty
}

// ---------------------------------------------------------------------
// NetworkModel
// ---------------------------------------------------------------------

TEST(NetworkModel, TransferTimeIsAffine) {
  NetworkModel m{.name = "t", .latency_seconds = 0.001,
                 .bandwidth_bytes_per_second = 1e6};
  EXPECT_NEAR(m.transfer_seconds(0), 0.001, 1e-12);
  EXPECT_NEAR(m.transfer_seconds(1'000'000), 1.001, 1e-9);
}

TEST(NetworkModel, MyrinetBeatsFastEthernet) {
  const auto fe = NetworkModel::fast_ethernet();
  const auto my = NetworkModel::myrinet();
  EXPECT_LT(my.latency_seconds, fe.latency_seconds);
  EXPECT_GT(my.bandwidth_bytes_per_second, fe.bandwidth_bytes_per_second);
  EXPECT_LT(my.transfer_seconds(32 * 1024), fe.transfer_seconds(32 * 1024));
}

// ---------------------------------------------------------------------
// Cluster + Communicator
// ---------------------------------------------------------------------

ClusterConfig quad() {
  ClusterConfig c = ClusterConfig::homogeneous(4);
  c.network = NetworkModel::fast_ethernet();
  return c;
}

TEST(Cluster, PointToPointDeliversPayload) {
  Cluster cluster(quad());
  auto out = cluster.run([](NodeContext& ctx) -> u32 {
    auto& comm = ctx.comm();
    if (comm.rank() == 0) {
      for (u32 i = 1; i < comm.size(); ++i) {
        comm.send_value<u32>(i, 5, 100 + i);
      }
      return 100;
    }
    return comm.recv_value<u32>(0, 5);
  });
  EXPECT_EQ(out.results, (std::vector<u32>{100, 101, 102, 103}));
}

TEST(Cluster, RecvMergesArrivalTime) {
  ClusterConfig cfg = ClusterConfig::homogeneous(2);
  cfg.network = NetworkModel{.name = "slow", .latency_seconds = 1.0,
                             .bandwidth_bytes_per_second = 1e9};
  Cluster cluster(cfg);
  auto out = cluster.run([](NodeContext& ctx) -> double {
    auto& comm = ctx.comm();
    if (comm.rank() == 0) {
      comm.send_value<u32>(1, 1, 7u);
      return ctx.clock().now();
    }
    comm.recv_value<u32>(0, 1);
    return ctx.clock().now();
  });
  // Receiver's clock must include the 1 s latency.
  EXPECT_GE(out.results[1], 1.0);
  EXPECT_LT(out.results[0], 0.5);
}

TEST(Cluster, SelfSendIsFreeAndDelivered) {
  Cluster cluster(ClusterConfig::homogeneous(1));
  auto out = cluster.run([](NodeContext& ctx) -> u32 {
    ctx.comm().send_value<u32>(0, 3, 99u);
    EXPECT_DOUBLE_EQ(ctx.clock().now(), 0.0);
    return ctx.comm().recv_value<u32>(0, 3);
  });
  EXPECT_EQ(out.results[0], 99u);
}

TEST(Cluster, BarrierSynchronisesClocks) {
  Cluster cluster(quad());
  auto out = cluster.run([](NodeContext& ctx) -> double {
    // Node i does i seconds of "work", then a barrier.
    ctx.clock().advance(static_cast<double>(ctx.rank()));
    ctx.comm().barrier();
    return ctx.clock().now();
  });
  // Everybody's clock must be >= the slowest participant's (3 s).
  for (double t : out.results) EXPECT_GE(t, 3.0);
}

TEST(Cluster, BcastFromNonzeroRoot) {
  Cluster cluster(quad());
  auto out = cluster.run([](NodeContext& ctx) -> u64 {
    const u64 v = ctx.rank() == 2 ? 777 : 0;
    return ctx.comm().bcast_value<u64>(v, 2);
  });
  for (u64 v : out.results) EXPECT_EQ(v, 777u);
}

TEST(Cluster, GatherConcatenatesInRankOrder) {
  Cluster cluster(quad());
  auto out = cluster.run([](NodeContext& ctx) -> std::vector<u32> {
    std::vector<u32> mine = {ctx.rank() * 10, ctx.rank() * 10 + 1};
    return ctx.comm().gather_records<u32>(std::span<const u32>(mine), 0);
  });
  EXPECT_EQ(out.results[0],
            (std::vector<u32>{0, 1, 10, 11, 20, 21, 30, 31}));
  EXPECT_TRUE(out.results[1].empty());
}

TEST(Cluster, GatherHandlesEmptyContributions) {
  Cluster cluster(quad());
  auto out = cluster.run([](NodeContext& ctx) -> std::vector<u32> {
    std::vector<u32> mine;
    if (ctx.rank() == 1) mine = {42};
    return ctx.comm().gather_records<u32>(std::span<const u32>(mine), 0);
  });
  EXPECT_EQ(out.results[0], std::vector<u32>{42});

  // One empty rank among non-empty ones.
  out = cluster.run([](NodeContext& ctx) -> std::vector<u32> {
    std::vector<u32> mine;
    if (ctx.rank() != 2) mine = {ctx.rank()};
    return ctx.comm().gather_records<u32>(std::span<const u32>(mine), 0);
  });
  EXPECT_EQ(out.results[0], (std::vector<u32>{0, 1, 3}));
}

TEST(Cluster, EmptyRecordsRoundTrip) {
  Cluster cluster(ClusterConfig::homogeneous(2));
  auto out = cluster.run([](NodeContext& ctx) -> u64 {
    if (ctx.rank() == 0) {
      ctx.comm().send_records<u32>(1, 5, std::span<const u32>());
      return 0;
    }
    return ctx.comm().recv_records<u32>(0, 5).size() + 1;
  });
  EXPECT_EQ(out.results[1], 1u);
}

TEST(Cluster, AllToAllExchangesPersonalisedData) {
  Cluster cluster(quad());
  auto out = cluster.run([](NodeContext& ctx) -> u32 {
    const u32 p = ctx.node_count();
    std::vector<std::vector<u32>> outgoing(p);
    for (u32 j = 0; j < p; ++j) {
      outgoing[j] = {ctx.rank() * 100 + j};
    }
    auto incoming = ctx.comm().alltoall_records<u32>(std::move(outgoing));
    // incoming[i] must be {i*100 + rank}.
    u32 errors = 0;
    for (u32 i = 0; i < p; ++i) {
      if (incoming[i] != std::vector<u32>{i * 100 + ctx.rank()}) ++errors;
    }
    return errors;
  });
  for (u32 e : out.results) EXPECT_EQ(e, 0u);
}

TEST(Cluster, AllReduceMaxAndSum) {
  Cluster cluster(quad());
  auto out = cluster.run([](NodeContext& ctx) -> std::pair<double, u64> {
    const double mx =
        ctx.comm().allreduce_max(static_cast<double>(ctx.rank()) * 1.5);
    const u64 sum = ctx.comm().allreduce_sum(ctx.rank() + 1ull);
    return {mx, sum};
  });
  for (const auto& [mx, sum] : out.results) {
    EXPECT_DOUBLE_EQ(mx, 4.5);
    EXPECT_EQ(sum, 10u);
  }
}

TEST(Cluster, SpeedFactorScalesCharges) {
  ClusterConfig cfg;
  cfg.perf = {1, 4};
  cfg.cost.per_compare_seconds = 1e-6;
  Cluster cluster(cfg);
  auto out = cluster.run([](NodeContext& ctx) -> double {
    ctx.on_compares(1'000'000);
    return ctx.clock().now();
  });
  EXPECT_NEAR(out.results[0], 1.0, 1e-9);
  EXPECT_NEAR(out.results[1], 0.25, 1e-9);
}

TEST(Cluster, DiskCostScaledBySpeedWhenConfigured) {
  ClusterConfig cfg;
  cfg.perf = {1, 2};
  cfg.cost.scale_disk_with_speed = true;
  Cluster cluster(cfg);
  auto out = cluster.run([](NodeContext& ctx) -> double {
    std::vector<u32> data(10000);
    pdm::write_file<u32>(ctx.disk(), "f", std::span<const u32>(data));
    return ctx.clock().now();
  });
  EXPECT_GT(out.results[0], 0.0);
  EXPECT_NEAR(out.results[0], 2.0 * out.results[1], 1e-9);
}

TEST(Cluster, MakespanIsMaxFinishTime) {
  Cluster cluster(quad());
  auto out = cluster.run([](NodeContext& ctx) -> int {
    ctx.clock().advance(ctx.rank() == 2 ? 9.0 : 1.0);
    return 0;
  });
  EXPECT_DOUBLE_EQ(out.makespan, 9.0);
}

TEST(Cluster, VirtualTimeDeterministicAcrossRuns) {
  // The makespan must not depend on OS thread scheduling.
  auto run_once = [] {
    ClusterConfig cfg = ClusterConfig::homogeneous(4);
    cfg.cost.per_compare_seconds = 1e-7;
    Cluster cluster(cfg);
    auto out = cluster.run([](NodeContext& ctx) -> double {
      auto& comm = ctx.comm();
      // An uneven comms pattern with work in between.
      ctx.on_compares(1000 * (ctx.rank() + 1));
      std::vector<std::vector<u32>> outgoing(comm.size());
      for (u32 j = 0; j < comm.size(); ++j) {
        outgoing[j].assign(100 * (ctx.rank() + 1), ctx.rank());
      }
      comm.alltoall_records<u32>(std::move(outgoing));
      comm.barrier();
      return ctx.clock().now();
    });
    return out.makespan;
  };
  const double first = run_once();
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(run_once(), first);
}

TEST(Cluster, NodeExceptionPropagatesWithoutDeadlock) {
  Cluster cluster(quad());
  EXPECT_THROW(
      cluster.run([](NodeContext& ctx) -> int {
        if (ctx.rank() == 2) throw std::runtime_error("boom");
        // Everyone else blocks forever waiting for rank 2.
        ctx.comm().recv_value<u32>(2, 1);
        return 0;
      }),
      std::runtime_error);
}

TEST(Cluster, UserTagsMustBeNonNegative) {
  Cluster cluster(ClusterConfig::homogeneous(2));
  EXPECT_THROW(cluster.run([](NodeContext& ctx) -> int {
                 if (ctx.rank() == 0) {
                   ctx.comm().send_value<u32>(1, -9, 1u);
                 } else {
                   ctx.comm().recv_value<u32>(0, -9);
                 }
                 return 0;
               }),
               ContractViolation);
}

TEST(Cluster, PaperTestbedFactoryShape) {
  const ClusterConfig c = ClusterConfig::paper_testbed();
  EXPECT_EQ(c.node_count(), 4u);
  EXPECT_EQ(c.perf, (std::vector<u32>{4, 4, 1, 1}));
}

TEST(Cluster, PosixWorkdirGivesRealFiles) {
  ScopedTempDir dir("cluster-posix");
  ClusterConfig cfg = ClusterConfig::homogeneous(2);
  cfg.workdir = dir.path();
  Cluster cluster(cfg);
  cluster.run([](NodeContext& ctx) -> int {
    std::vector<u32> data = {1, 2, 3};
    pdm::write_file<u32>(ctx.disk(), "x", std::span<const u32>(data));
    return 0;
  });
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "node0" / "x"));
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "node1" / "x"));
}

}  // namespace
}  // namespace paladin::net
