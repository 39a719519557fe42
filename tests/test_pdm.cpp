// Tests of the Parallel Disk Model substrate: backends, block accounting,
// typed buffered I/O, striped volumes and the PDM bound arithmetic.
#include <gtest/gtest.h>

#include <deque>
#include <numeric>
#include <sstream>

#include "base/rng.h"
#include "base/temp_dir.h"
#include "pdm/disk.h"
#include "pdm/pdm_math.h"
#include "pdm/striped_volume.h"
#include "pdm/typed_io.h"

namespace paladin::pdm {
namespace {

DiskParams tiny_blocks() {
  DiskParams p;
  p.block_bytes = 64;  // 16 u32 per block
  return p;
}

// ---------------------------------------------------------------------
// Backends (both must behave identically)
// ---------------------------------------------------------------------

class BackendTest : public ::testing::TestWithParam<bool> {
 protected:
  Disk make_disk() {
    if (GetParam()) {
      dir_.emplace("pdm-test");
      return Disk::posix(dir_->path(), tiny_blocks());
    }
    return Disk::in_memory(tiny_blocks());
  }
  std::optional<ScopedTempDir> dir_;
};

TEST_P(BackendTest, RoundTripsRecords) {
  Disk disk = make_disk();
  std::vector<u32> data(1000);
  std::iota(data.begin(), data.end(), 7u);
  write_file<u32>(disk, "f", std::span<const u32>(data));
  EXPECT_EQ(read_file<u32>(disk, "f"), data);
  EXPECT_EQ(disk.file_records<u32>("f"), 1000u);
}

TEST_P(BackendTest, CreateTruncatesExisting) {
  Disk disk = make_disk();
  std::vector<u32> big(100, 1u), small(3, 2u);
  write_file<u32>(disk, "f", std::span<const u32>(big));
  write_file<u32>(disk, "f", std::span<const u32>(small));
  EXPECT_EQ(read_file<u32>(disk, "f"), small);
}

TEST_P(BackendTest, ExistsAndRemove) {
  Disk disk = make_disk();
  EXPECT_FALSE(disk.exists("f"));
  write_file<u32>(disk, "f", std::span<const u32>());
  EXPECT_TRUE(disk.exists("f"));
  disk.remove("f");
  EXPECT_FALSE(disk.exists("f"));
}

TEST_P(BackendTest, OpenMissingFileViolatesContract) {
  Disk disk = make_disk();
  EXPECT_THROW(disk.open("nope"), ContractViolation);
}

TEST_P(BackendTest, AppendExtendsFile) {
  Disk disk = make_disk();
  BlockFile f = disk.create("f");
  std::vector<u8> a(10, 0xaa), b(5, 0xbb);
  f.append(a);
  f.append(b);
  EXPECT_EQ(f.size_bytes(), 15u);
  std::vector<u8> out(15);
  EXPECT_EQ(f.read_at(0, out), 15u);
  EXPECT_EQ(out[0], 0xaa);
  EXPECT_EQ(out[14], 0xbb);
}

INSTANTIATE_TEST_SUITE_P(MemAndPosix, BackendTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "posix" : "mem";
                         });

// ---------------------------------------------------------------------
// Block accounting
// ---------------------------------------------------------------------

TEST(IoAccounting, WholeBlocksCountedExactly) {
  Disk disk = Disk::in_memory(tiny_blocks());  // 16 records/block
  std::vector<u32> data(64);                   // exactly 4 blocks
  std::iota(data.begin(), data.end(), 0u);
  write_file<u32>(disk, "f", std::span<const u32>(data));
  EXPECT_EQ(disk.stats().blocks_written, 4u);
  EXPECT_EQ(disk.stats().bytes_written, 256u);

  read_file<u32>(disk, "f");
  EXPECT_EQ(disk.stats().blocks_read, 4u);
  EXPECT_EQ(disk.stats().bytes_read, 256u);
}

TEST(IoAccounting, PartialFinalBlockCostsOneTransfer) {
  Disk disk = Disk::in_memory(tiny_blocks());
  std::vector<u32> data(17);  // one full block + 1 record
  write_file<u32>(disk, "f", std::span<const u32>(data));
  EXPECT_EQ(disk.stats().blocks_written, 2u);
}

TEST(IoAccounting, CostSinkChargedPerBlock) {
  Disk disk = Disk::in_memory(tiny_blocks());
  double charged = 0;
  disk.set_cost_sink([&](double s) { charged += s; });
  std::vector<u32> data(32);  // 2 blocks
  write_file<u32>(disk, "f", std::span<const u32>(data));
  EXPECT_NEAR(charged, 2 * disk.params().block_cost_seconds(), 1e-12);
}

TEST(IoAccounting, StatsDifferenceOperator) {
  IoStats a{10, 5, 100, 50, 2, 1};
  IoStats b{4, 2, 40, 20, 1, 0};
  const IoStats d = a - b;
  EXPECT_EQ(d.blocks_read, 6u);
  EXPECT_EQ(d.blocks_written, 3u);
  EXPECT_EQ(d.total_block_ios(), 9u);
}

// ---------------------------------------------------------------------
// BlockReader / BlockWriter
// ---------------------------------------------------------------------

TEST(TypedIo, ReaderPeeksWithoutConsuming) {
  Disk disk = Disk::in_memory(tiny_blocks());
  std::vector<u32> data = {10, 20, 30};
  write_file<u32>(disk, "f", std::span<const u32>(data));
  BlockFile f = disk.open("f");
  BlockReader<u32> r(f);
  EXPECT_EQ(*r.peek(), 10u);
  EXPECT_EQ(*r.peek(), 10u);
  u32 v;
  EXPECT_TRUE(r.next(v));
  EXPECT_EQ(v, 10u);
  EXPECT_EQ(*r.peek(), 20u);
}

TEST(TypedIo, SeekRecordRepositions) {
  Disk disk = Disk::in_memory(tiny_blocks());
  std::vector<u32> data(100);
  std::iota(data.begin(), data.end(), 0u);
  write_file<u32>(disk, "f", std::span<const u32>(data));
  BlockFile f = disk.open("f");
  BlockReader<u32> r(f);
  r.seek_record(57);
  u32 v;
  EXPECT_TRUE(r.next(v));
  EXPECT_EQ(v, 57u);
  r.seek_record(3);
  EXPECT_TRUE(r.next(v));
  EXPECT_EQ(v, 3u);
  r.seek_record(100);
  EXPECT_TRUE(r.done());
  EXPECT_FALSE(r.next(v));
}

TEST(TypedIo, WriterFlushOnDestruction) {
  Disk disk = Disk::in_memory(tiny_blocks());
  {
    BlockFile f = disk.create("f");
    BlockWriter<u32> w(f);
    w.push(123u);
    // no explicit flush
  }
  EXPECT_EQ(read_file<u32>(disk, "f"), std::vector<u32>{123u});
}

TEST(TypedIo, NonRecordSizedFileRejected) {
  Disk disk = Disk::in_memory(tiny_blocks());
  BlockFile f = disk.create("f");
  std::vector<u8> junk(6, 0);  // not a multiple of sizeof(u64)
  f.append(junk);
  BlockFile g = disk.open("f");
  EXPECT_THROW(BlockReader<u64> r(g), ContractViolation);
}

TEST(TypedIo, LargeRecordsSpanningBlocks) {
  struct Wide {
    u64 a, b, c, d, e;  // 40 bytes; block = 64 → 1 record per block
  };
  Disk disk = Disk::in_memory(tiny_blocks());
  BlockFile f = disk.create("f");
  BlockWriter<Wide> w(f);
  for (u64 i = 0; i < 10; ++i) w.push(Wide{i, i, i, i, i});
  w.flush();
  BlockFile g = disk.open("f");
  BlockReader<Wide> r(g);
  EXPECT_EQ(r.size_records(), 10u);
  Wide v{};
  u64 i = 0;
  while (r.next(v)) EXPECT_EQ(v.a, i++);
  EXPECT_EQ(i, 10u);
}

// ---------------------------------------------------------------------
// Streamed import/export: the same charges as write_file/read_file
// ---------------------------------------------------------------------

// true = posix disk with overlapped I/O (read-ahead, write-behind), so the
// sanitizer presets exercise the executor under the streaming helpers.
class StreamedIoTest : public ::testing::TestWithParam<bool> {
 protected:
  /// One disk per side; each charges its own cost-sink total.
  Disk make_disk(double& charged) {
    DiskParams params = tiny_blocks();
    Disk disk = Disk::in_memory(params);
    if (GetParam()) {
      params.io_mode = IoMode::kOverlapped;
      disk = Disk::posix(dirs_.emplace_back("pdm-stream").path(), params);
    }
    disk.set_cost_sink([&charged](double s) { charged += s; });
    return disk;
  }
  std::deque<ScopedTempDir> dirs_;
};

void expect_same_stats(const IoStats& got, const IoStats& want) {
  EXPECT_EQ(got.blocks_read, want.blocks_read);
  EXPECT_EQ(got.blocks_written, want.blocks_written);
  EXPECT_EQ(got.bytes_read, want.bytes_read);
  EXPECT_EQ(got.bytes_written, want.bytes_written);
  EXPECT_EQ(got.files_created, want.files_created);
  EXPECT_EQ(got.files_removed, want.files_removed);
}

TEST_P(StreamedIoTest, ImportAndExportChargeLikeWholeFileIo) {
  constexpr u64 kB = 16;  // u32 records per 64-byte block
  constexpr u32 kPad = 0xFFFFFFFFu;
  for (const u64 size : {u64{0}, u64{1}, kB - 1, kB, kB + 1, 64 * kB + 3}) {
    for (const u64 padding : {u64{0}, u64{5}}) {
      SCOPED_TRACE("size " + std::to_string(size) + " padding " +
                   std::to_string(padding));
      Xoshiro256 rng(size * 31 + padding);
      std::vector<u32> data(size);
      for (u32& v : data) v = static_cast<u32>(rng.next());
      std::vector<u32> padded = data;
      padded.resize(size + padding, kPad);
      const std::string bytes(reinterpret_cast<const char*>(padded.data()),
                              padded.size() * sizeof(u32));

      double whole_s = 0;
      Disk whole = make_disk(whole_s);
      write_file<u32>(whole, "f", std::span<const u32>(padded));
      const IoStats whole_written = whole.stats();
      const double whole_written_s = whole_s;
      EXPECT_EQ(read_file<u32>(whole, "f"), padded);

      // A host stream in, uneven pushes (as --demo's per-node shares
      // arrive), and a host stream out: all charge alike.
      for (const bool from_stream : {true, false}) {
        SCOPED_TRACE(from_stream ? "istream" : "uneven pushes");
        double streamed_s = 0;
        Disk streamed = make_disk(streamed_s);
        std::istringstream in(bytes.substr(0, size * sizeof(u32)));
        const u64 pushed = write_file_streamed<u32>(
            streamed, "f", size + padding, kPad, [&](BlockWriter<u32>& w) {
              if (from_stream) {
                EXPECT_EQ(push_stream(w, in), size);
                return;
              }
              for (u64 at = 0; at < size; at += 7) {
                w.push_span(std::span<const u32>(data).subspan(
                    at, std::min<u64>(7, size - at)));
              }
            });
        EXPECT_EQ(pushed, size);
        expect_same_stats(streamed.stats(), whole_written);
        EXPECT_EQ(streamed_s, whole_written_s);

        std::ostringstream out;
        const u64 exported = read_file_streamed<u32>(
            streamed, "f", [&](std::span<const u32> chunk) {
              out.write(reinterpret_cast<const char*>(chunk.data()),
                        static_cast<std::streamsize>(chunk.size_bytes()));
            });
        EXPECT_EQ(exported, size + padding);
        EXPECT_EQ(out.str(), bytes);
        expect_same_stats(streamed.stats(), whole.stats());
        EXPECT_EQ(streamed_s, whole_s);
      }
    }
  }
}

TEST_P(StreamedIoTest, PushStreamRejectsATornRecord) {
  double charged = 0;
  Disk disk = make_disk(charged);
  std::istringstream in(std::string(4 * sizeof(u32) + 2, 'x'));
  auto fill = [&](BlockWriter<u32>& w) { push_stream(w, in); };
  EXPECT_THROW(write_file_streamed<u32>(disk, "f", 8, 0u, fill),
               std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(MemAndOverlappedPosix, StreamedIoTest,
                         ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "OverlappedPosix" : "Mem";
                         });

// ---------------------------------------------------------------------
// StripedVolume (PDM D > 1)
// ---------------------------------------------------------------------

class StripedTest : public ::testing::TestWithParam<u64> {};

TEST_P(StripedTest, RoundTripsInLogicalOrder) {
  const u64 d = GetParam();
  StripedVolume vol = StripedVolume::in_memory(d, tiny_blocks());
  std::vector<u32> data(1000);
  Xoshiro256 rng(3);
  for (auto& x : data) x = static_cast<u32>(rng.next());

  StripedWriter<u32> w(vol, "f");
  w.push_span(std::span<const u32>(data));
  w.flush();

  StripedReader<u32> r(vol, "f");
  EXPECT_EQ(r.size_records(), data.size());
  std::vector<u32> out;
  u32 v;
  while (r.next(v)) out.push_back(v);
  EXPECT_EQ(out, data);
}

TEST_P(StripedTest, ParallelIosScaleWithD) {
  const u64 d = GetParam();
  StripedVolume vol = StripedVolume::in_memory(d, tiny_blocks());
  std::vector<u32> data(16 * 64);  // 64 blocks of 16 records
  StripedWriter<u32> w(vol, "f");
  w.push_span(std::span<const u32>(data));
  w.flush();
  // With D disks, 64 striped block writes take ceil(64/D) parallel steps.
  EXPECT_EQ(vol.parallel_block_ios(), ceil_div(64, d));
  EXPECT_EQ(vol.total_stats().blocks_written, 64u);
}

INSTANTIATE_TEST_SUITE_P(DiskCounts, StripedTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(StripedVolume, RemoveDeletesAllStripes) {
  StripedVolume vol = StripedVolume::in_memory(3, tiny_blocks());
  std::vector<u32> data(100);
  StripedWriter<u32> w(vol, "f");
  w.push_span(std::span<const u32>(data));
  w.flush();
  vol.remove("f");
  for (u64 i = 0; i < 3; ++i) {
    EXPECT_FALSE(vol.disk(i).exists(StripedVolume::stripe_name("f", i)));
  }
}

// ---------------------------------------------------------------------
// PDM bound arithmetic
// ---------------------------------------------------------------------

TEST(PdmMath, BlocksAndMemoryBlocks) {
  PdmShape s{.N = 1000, .M = 160, .B = 16, .D = 1};
  EXPECT_EQ(s.n_blocks(), 63u);
  EXPECT_EQ(s.m_blocks(), 10u);
  EXPECT_FALSE(s.fits_in_memory());
}

TEST(PdmMath, OptimalPassesFollowsLogM) {
  // 1000 records, memory 100 → 10 runs, m = 100/10=10 blocks... choose
  // clean numbers: N=10000, M=100, B=10 → runs=100, m=10 → 1+ceil(log_10
  // 100)=3 passes.
  PdmShape s{.N = 10000, .M = 100, .B = 10, .D = 1};
  EXPECT_EQ(s.optimal_passes(), 3u);
  PdmShape in_mem{.N = 50, .M = 100, .B = 10, .D = 1};
  EXPECT_EQ(in_mem.optimal_passes(), 1u);
}

TEST(PdmMath, SortBoundScalesInverselyWithD) {
  PdmShape d1{.N = 10000, .M = 100, .B = 10, .D = 1};
  PdmShape d4{.N = 10000, .M = 100, .B = 10, .D = 4};
  EXPECT_EQ(d1.sort_io_bound(), 4u * d4.sort_io_bound());
}

TEST(PdmMath, SequentialBoundHelper) {
  const PdmShape shape{.N = 10000, .M = 100, .B = 10, .D = 1};
  EXPECT_EQ(sequential_sort_io_bound(10000, 100, 10), shape.sort_io_bound());
}

TEST(DiskParams, BlockCostCombinesAccessAndTransfer) {
  DiskParams p;
  p.block_bytes = 1000;
  p.access_seconds = 0.001;
  p.transfer_bytes_per_second = 1e6;
  EXPECT_NEAR(p.block_cost_seconds(), 0.002, 1e-12);
}

TEST(DiskParams, RecordsPerBlockNeverZero) {
  DiskParams p;
  p.block_bytes = 4;
  EXPECT_EQ(p.records_per_block(8), 1u);  // record wider than block
  EXPECT_EQ(p.records_per_block(4), 1u);
  EXPECT_EQ(p.records_per_block(2), 2u);
}

}  // namespace
}  // namespace paladin::pdm
