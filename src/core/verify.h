// Verification utilities the tests, benches, CLI and service run *inside*
// a cluster node body: local/global sortedness and multiset preservation.
// They stream, so they are usable at out-of-core sizes.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "base/checksum.h"
#include "base/contracts.h"
#include "base/types.h"
#include "core/backend.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"

namespace paladin::core {

/// Streaming sortedness check of one file.
template <Record T, typename Less = std::less<T>>
bool is_sorted_file(pdm::Disk& disk, const std::string& name, Less less = {}) {
  pdm::BlockFile f = disk.open(name);
  pdm::BlockReader<T> reader(f);
  T prev;
  if (!reader.next(prev)) return true;
  T cur;
  while (reader.next(cur)) {
    if (less(cur, prev)) return false;
    prev = cur;
  }
  return true;
}

/// Streaming multiset fingerprint of one file.
template <Record T>
MultisetChecksum file_checksum(pdm::Disk& disk, const std::string& name) {
  pdm::BlockFile f = disk.open(name);
  pdm::BlockReader<T> reader(f);
  MultisetChecksum sum;
  T v;
  while (reader.next(v)) sum.add(v);
  return sum;
}

/// Global order summary of one node's output file.
template <Record T>
struct FileBoundary {
  T first{};
  T last{};
  u64 count = 0;
};

/// First key, last key and record count of one file.
template <Record T>
FileBoundary<T> file_boundary(pdm::Disk& disk, const std::string& name) {
  FileBoundary<T> b;
  pdm::BlockFile f = disk.open(name);
  pdm::BlockReader<T> reader(f);
  b.count = reader.size_records();
  if (b.count > 0) {
    const bool first = reader.next(b.first);
    PALADIN_ASSERT(first);
    reader.seek_record(b.count - 1);
    const bool last = reader.next(b.last);
    PALADIN_ASSERT(last);
  }
  return b;
}

namespace detail {

/// Rank 0's half of the order checks, over per-file summaries (each with
/// an `ok` flag and a `boundary`) in global order: every file locally
/// sorted, and each non-empty file's first key not below the last key of
/// the non-empty file before it.  Broadcasts the verdict to every node.
template <Record T, typename Summary, typename Less>
bool chain_verdict(net::NodeContext& ctx, const std::vector<Summary>& all,
                   Less less) {
  u8 verdict = 1;
  if (ctx.comm().rank() == 0) {
    bool have_prev = false;
    T prev_last{};
    for (const Summary& s : all) {
      if (s.ok == 0) verdict = 0;
      if (s.boundary.count == 0) continue;
      if (have_prev && less(s.boundary.first, prev_last)) verdict = 0;
      prev_last = s.boundary.last;
      have_prev = true;
    }
  }
  verdict = ctx.comm().template bcast_value<u8>(verdict, 0);
  return verdict != 0;
}

}  // namespace detail

/// Collective: checks that the per-node output files form one globally
/// sorted sequence in rank order (each file locally sorted, and node i's
/// last key <= node i+1's first key, skipping empty files).  Returns the
/// same verdict on every node.
template <Record T, typename Less = std::less<T>>
bool verify_global_order(net::NodeContext& ctx, const std::string& output,
                         Less less = {}) {
  const bool local_ok = is_sorted_file<T, Less>(ctx.disk(), output, less);
  const FileBoundary<T> mine = file_boundary<T>(ctx.disk(), output);
  struct Summary {
    FileBoundary<T> boundary;
    u8 ok;
  };
  Summary summary{mine, static_cast<u8>(local_ok ? 1 : 0)};
  const std::vector<Summary> all =
      ctx.comm().template gather_records<Summary>(
          std::span<const Summary>(&summary, 1), 0);
  return detail::chain_verdict<T>(ctx, all, less);
}

/// Collective, layout-aware: checks that a backend's output forms one
/// globally sorted sequence.  Contiguous slices are checked in rank order
/// by verify_global_order; bucket files (verify_global_order assumes one
/// file per node) each send a boundary summary to rank 0, which checks the
/// chain in global bucket order.  With `after`, this node's output
/// checksum(s) are merged into it.  Returns the same verdict on every node.
template <Record T, typename Less = std::less<T>>
bool verify_output_order(net::NodeContext& ctx, const std::string& output,
                         const BackendReport& report,
                         MultisetChecksum* after = nullptr, Less less = {}) {
  if (report.layout == OutputLayout::kContiguousSlice) {
    const bool ok = verify_global_order<T, Less>(ctx, output, less);
    if (after != nullptr) after->merge(file_checksum<T>(ctx.disk(), output));
    return ok;
  }

  struct BucketSummary {
    u64 bucket;
    FileBoundary<T> boundary;
    u8 ok;
  };
  std::vector<u64> owned = report.owned_buckets;
  std::sort(owned.begin(), owned.end());
  std::vector<BucketSummary> mine;
  mine.reserve(owned.size());
  for (const u64 b : owned) {
    const std::string name = bucket_file_name(output, b);
    const bool sorted = is_sorted_file<T, Less>(ctx.disk(), name, less);
    mine.push_back({b, file_boundary<T>(ctx.disk(), name),
                    static_cast<u8>(sorted ? 1 : 0)});
    if (after != nullptr) after->merge(file_checksum<T>(ctx.disk(), name));
  }
  std::vector<BucketSummary> all =
      ctx.comm().template gather_records<BucketSummary>(
          std::span<const BucketSummary>(mine), 0);
  std::sort(all.begin(), all.end(),
            [](const BucketSummary& a, const BucketSummary& b) {
              return a.bucket < b.bucket;
            });
  return detail::chain_verdict<T>(ctx, all, less);
}

/// Collective: true iff the multiset of all nodes' `after` files equals the
/// multiset of all nodes' `before` checksums (pass each node's input
/// checksum, captured before sorting).
template <Record T>
bool verify_global_permutation(net::NodeContext& ctx,
                               const MultisetChecksum& before_local,
                               const std::string& after) {
  MultisetChecksum after_local = file_checksum<T>(ctx.disk(), after);

  struct Pair {
    MultisetChecksum before, after;
  };
  Pair mine{before_local, after_local};
  std::vector<Pair> all = ctx.comm().template gather_records<Pair>(
      std::span<const Pair>(&mine, 1), 0);
  u8 verdict = 1;
  if (ctx.comm().rank() == 0) {
    MultisetChecksum b, a;
    for (const Pair& pr : all) {
      b.merge(pr.before);
      a.merge(pr.after);
    }
    verdict = (b == a) ? 1 : 0;
  }
  verdict = ctx.comm().template bcast_value<u8>(verdict, 0);
  return verdict != 0;
}

}  // namespace paladin::core
