// Every point-to-point wire tag the core algorithms use, in one table.
// A tag names one directed message stream between two ranks: mailboxes
// match on (source, tag), and the fault layer hashes its drop/duplicate
// decisions on (destination, tag), so two mechanisms must never share a
// tag.  The collectives' reserved tags are negative (net/communicator.h);
// every tag here is non-negative and distinct from every other.
#pragma once

#include <cstddef>

namespace paladin::core {

// Phased PSRS Step 4 and distribution sort (core/redistribute.h).
inline constexpr int kTagRedistributeHeader = 40;
inline constexpr int kTagRedistributeData = 41;
inline constexpr int kTagRedistributeAck = 42;

// Fused PSRS Steps 3-5 (core/pipeline.h).
inline constexpr int kTagPipelineData = 50;
inline constexpr int kTagPipelineAck = 51;

/// Header and data tags of one framed-transfer stream: a u64 record-count
/// header, then data messages (core/scatter_gather.h's send_piece and
/// recv_piece).
struct FrameTags {
  int header;
  int data;
};

// Input staging: scatter_shares.
inline constexpr FrameTags kStagingTags{52, 53};
// Output egress: gather_shares and collect_sorted_output.
inline constexpr FrameTags kEgressTags{54, 55};
// Overpartitioning Step 4, bucket shipping (core/ext_overpartition.h).
inline constexpr FrameTags kShipTags{60, 61};

// Multiway merge sort's run-piece exchange (core/ext_multiway.h).
inline constexpr int kTagMultiwayHeader = 70;
inline constexpr int kTagMultiwayData = 71;
inline constexpr int kTagMultiwayAck = 72;

// Splitter-tree digest sends (core/splitter_tree.h).
inline constexpr int kTagSplitterDigest = 80;

/// One past the largest core tag: the width a job's tag namespace needs
/// (service::kJobTagStride must not be smaller).
inline constexpr int kCoreTagLimit = kTagSplitterDigest + 1;

namespace detail {

inline constexpr int kCoreTags[] = {
    kTagRedistributeHeader, kTagRedistributeData, kTagRedistributeAck,
    kTagPipelineData,       kTagPipelineAck,      kStagingTags.header,
    kStagingTags.data,      kEgressTags.header,   kEgressTags.data,
    kShipTags.header,       kShipTags.data,       kTagMultiwayHeader,
    kTagMultiwayData,       kTagMultiwayAck,      kTagSplitterDigest,
};

constexpr bool core_tags_valid() {
  constexpr std::size_t n = sizeof(kCoreTags) / sizeof(kCoreTags[0]);
  for (std::size_t i = 0; i < n; ++i) {
    if (kCoreTags[i] < 0 || kCoreTags[i] >= kCoreTagLimit) return false;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (kCoreTags[i] == kCoreTags[j]) return false;
    }
  }
  return true;
}

}  // namespace detail

static_assert(detail::core_tags_valid(),
              "core wire tags must be pairwise distinct, non-negative (the "
              "net layer reserves the negative ones) and below "
              "kCoreTagLimit");

}  // namespace paladin::core
