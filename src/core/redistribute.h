// The phased exchange of partition data.  Two callers share it:
//
//  * Step 4 of Algorithm 1 (and distribution sort): partition j of every
//    node travels to node j as one whole-file piece;
//  * Phase 3 of the multiway backend (Rahn–Sanders–Singler): each sorted
//    run's piece for node j travels there, one (offset, len) piece per run.
//
// Every source spills to one file on the receiver, whose piece layout the
// pair header announces.  Data moves in messages of `message_records`
// records (the paper's packet-size knob: 8-integer packets were
// disastrous, 8K-integer packets optimal; Table 3 uses 32 KB), clamped up
// to a whole multiple of the disk block per the paper's block-multiple
// message requirement.  Each transfer is a read on the sender side and a
// write on the receiver side: no more than 2·l_i/B I/Os total, as the
// paper counts.
//
// Flow control: the old eager schedule put a node's *entire* outgoing data
// in flight before any receive was posted, so a slow receiver let a fast
// sender buffer Θ(l_i) bytes in its mailbox — a latent violation of the
// linear-space invariant.  The exchange now runs in p−1 lockstep offset
// phases (phase o pairs rank with dst=(rank+o)%p and src=(rank+p−o)%p) and
// inside each phase the partner files move in rounds: before sending chunk
// k ≥ W the sender first receives the ack for chunk k−W, and each received
// chunk is acked as soon as it is spilled.  At most W chunks per pair are
// ever un-acknowledged, so mailbox occupancy is O(W·message_bytes).
//
// Deadlock-freedom: order phases, then rounds, then (send-part, recv-part)
// lexicographically.  Within a phase both partners run the same round
// sequence; the send part of round k blocks only on an ack its partner's
// recv part of round k−W already emitted, and the recv part blocks only on
// the partner's round-k send.  Every wait is thus on a strictly smaller
// lexicographic position of the partner, which the partner has already
// passed or is currently executing, so some node can always progress.
#pragma once

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/math_util.h"
#include "base/types.h"
#include "core/partition_file.h"
#include "core/wire_tags.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"

namespace paladin::core {

/// Default per-pair credit window (un-acknowledged chunks in flight), used
/// by both the phased exchange and the fused pipeline.
inline constexpr u64 kDefaultFlowWindow = 4;

/// The paper requires messages to be whole multiples of the disk block.
/// Rounds `requested` up to the smallest positive multiple of T-records
/// per block on `disk` (any sub-block request becomes one full block).
template <Record T>
u64 clamped_message_records(const pdm::Disk& disk, u64 requested) {
  PALADIN_EXPECTS(requested >= 1);
  const u64 rpb = disk.params().records_per_block(sizeof(T));
  return ceil_div(requested, rpb) * rpb;
}

/// `len` records starting at record `offset` of a file.
struct Piece {
  u64 offset = 0;
  u64 len = 0;
};

/// What this node ships to one destination: pieces of `file`, in order.
struct Outgoing {
  std::string file;
  std::vector<Piece> pieces;
};

/// Keeps one caller's exchange apart from another's: the wire tags (the
/// fault layer hashes its decisions on (dst, tag)) and the prefix of the
/// `<prefix>.chunks_sent/acks_sent/acks_consumed` counters.
struct ExchangeChannel {
  int tag_header;
  int tag_data;
  int tag_ack;
  const char* counter_prefix;
};

/// Phased PSRS Step 4 and distribution sort.
inline constexpr ExchangeChannel kRedistributeChannel{
    kTagRedistributeHeader, kTagRedistributeData, kTagRedistributeAck,
    "redistribute"};

namespace detail {

inline u64 total(const std::vector<u64>& lens) {
  return std::accumulate(lens.begin(), lens.end(), u64{0});
}

inline std::vector<u64> piece_lengths(const Outgoing& out) {
  std::vector<u64> lens;
  lens.reserve(out.pieces.size());
  for (const Piece& piece : out.pieces) lens.push_back(piece.len);
  return lens;
}

/// Messages needed for `lens`: a chunk never spans two pieces.
inline u64 chunk_count(const std::vector<u64>& lens, u64 message_records) {
  u64 chunks = 0;
  for (u64 len : lens) chunks += ceil_div(len, message_records);
  return chunks;
}

}  // namespace detail

struct ExchangeResult {
  /// Piece lengths per source, in send order: entry `src` is the layout of
  /// received_name(recv_prefix, src); this node's own entry lists the
  /// pieces it kept in place.
  std::vector<std::vector<u64>> received_pieces;
  std::vector<u64> sent_records;      ///< records shipped to each peer
  u64 messages = 0;                   ///< data messages (headers/acks excl.)
  u64 effective_message_records = 0;  ///< message_records after clamping

  u64 received_records(u32 src) const {
    return detail::total(received_pieces[src]);
  }
};

/// Name of the file holding what `src` sent us.
inline std::string received_name(const std::string& prefix, u32 src) {
  return prefix + ".from" + std::to_string(src);
}

/// Ships `outgoing[j]` to node j for every peer j (node r keeps
/// `outgoing[r]` in place); what `src` sends lands in
/// `received_name(recv_prefix, src)`, its pieces back to back.  The pair
/// header is the piece-length vector, so the receiver knows the layout
/// of its spill file before the first chunk arrives.
template <Record T>
ExchangeResult exchange_pieces(net::NodeContext& ctx,
                               const std::vector<Outgoing>& outgoing,
                               const std::string& recv_prefix,
                               u64 message_records,
                               u64 window_chunks = kDefaultFlowWindow,
                               const ExchangeChannel& channel =
                                   kRedistributeChannel) {
  PALADIN_EXPECTS(message_records >= 1);
  PALADIN_EXPECTS(window_chunks >= 1);
  net::Communicator& comm = ctx.comm();
  const u32 p = comm.size();
  const u32 rank = comm.rank();
  PALADIN_EXPECTS(outgoing.size() == p);
  const u64 msg = clamped_message_records<T>(ctx.disk(), message_records);
  ExchangeResult result;
  result.received_pieces.assign(p, {});
  result.sent_records.assign(p, 0);
  result.effective_message_records = msg;
  result.received_pieces[rank] = detail::piece_lengths(outgoing[rank]);
  result.sent_records[rank] = result.received_records(rank);

  obs::Tracer* const tr = ctx.obs();
  const std::string prefix = channel.counter_prefix;
  const std::string chunks_sent = prefix + ".chunks_sent";
  const std::string acks_sent = prefix + ".acks_sent";
  const std::string acks_consumed = prefix + ".acks_consumed";
  std::vector<T> chunk;
  chunk.reserve(msg);
  for (u32 offset = 1; offset < p; ++offset) {
    const u32 dst = (rank + offset) % p;
    const u32 src = (rank + p - offset) % p;
    const Outgoing& out = outgoing[dst];

    const std::vector<u64> send_lens = detail::piece_lengths(out);
    comm.template send_records<u64>(dst, channel.tag_header, send_lens);
    std::vector<u64> recv_lens =
        comm.template recv_records<u64>(src, channel.tag_header);
    const u64 send_chunks = detail::chunk_count(send_lens, msg);
    const u64 recv_chunks = detail::chunk_count(recv_lens, msg);

    pdm::BlockFile f = ctx.disk().open(out.file);
    pdm::BlockReader<T> reader(f);
    pdm::BlockFile rf = ctx.disk().create(received_name(recv_prefix, src));
    pdm::BlockWriter<T> writer(rf);

    u64 next_piece = 0;
    u64 piece_left = 0;
    u64 sent = 0;
    u64 got = 0;
    const u64 rounds = std::max(send_chunks, recv_chunks);
    for (u64 k = 0; k < rounds; ++k) {
      if (k < send_chunks) {
        if (k >= window_chunks) {
          // Credit: dst has consumed chunk k−W.
          comm.recv_packet(dst, channel.tag_ack);
          if (tr) tr->counters().add(acks_consumed, 1);
        }
        while (piece_left == 0) {
          PALADIN_ASSERT(next_piece < out.pieces.size());
          const Piece& piece = out.pieces[next_piece++];
          piece_left = piece.len;
          if (piece_left > 0) reader.seek_record(piece.offset);
        }
        const u64 take = std::min(msg, piece_left);
        chunk.resize(take);
        const u64 read = reader.read_span(std::span<T>(chunk));
        PALADIN_ASSERT(read == take);
        comm.template send_records<T>(dst, channel.tag_data, chunk);
        ++result.messages;
        piece_left -= take;
        sent += take;
        if (tr) tr->counters().add(chunks_sent, 1);
      }
      if (k < recv_chunks) {
        std::vector<T> data =
            comm.template recv_records<T>(src, channel.tag_data);
        PALADIN_ASSERT(!data.empty());
        writer.push_span(std::span<const T>(data));
        got += data.size();
        comm.send_value<u8>(src, channel.tag_ack, 0);
        if (tr) tr->counters().add(acks_sent, 1);
      }
    }
    writer.flush();
    PALADIN_ASSERT(sent == detail::total(send_lens));
    PALADIN_ASSERT(got == detail::total(recv_lens));
    result.sent_records[dst] = sent;
    result.received_pieces[src] = std::move(recv_lens);
  }
  return result;
}

/// Step 4 proper: node r keeps `<part_prefix>.part<r>` in place and ships
/// `<part_prefix>.part<j>` whole to node j.  Every received file is a
/// sorted run when the senders partitioned sorted data.
template <Record T>
ExchangeResult redistribute_partitions(net::NodeContext& ctx,
                                       const std::string& part_prefix,
                                       const std::string& recv_prefix,
                                       u64 message_records,
                                       u64 window_chunks = kDefaultFlowWindow) {
  std::vector<Outgoing> outgoing(ctx.node_count());
  for (u32 j = 0; j < ctx.node_count(); ++j) {
    outgoing[j].file = partition_name(part_prefix, j);
    outgoing[j].pieces.push_back(
        {0, ctx.disk().file_records<T>(outgoing[j].file)});
  }
  return exchange_pieces<T>(ctx, outgoing, recv_prefix, message_records,
                            window_chunks);
}

}  // namespace paladin::core
