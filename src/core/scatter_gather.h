// Input staging and output collection.  The paper's timings deliberately
// exclude both ("the execution time does not comprise neither the initial
// distribution of data (since they are generated on a sole node) nor the
// gather time").  These collectives implement that excluded machinery so
// the full cost can be measured: scatter a file living on one node into
// perf-proportional shares, and gather per-node files back into one file.
//
// Every file transfer here (and overpartitioning's bucket shipping) is one
// framed piece: a u64 record-count header, then data messages of at most
// `message_records` records streamed from a BlockReader and appended to a
// BlockWriter — send_piece / recv_piece.  Pieces stay block-streamed, so
// no file is ever materialised in RAM.  A node's copy of its own piece is
// a plain disk-to-disk copy and charges no moves.
#pragma once

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/types.h"
#include "core/wire_tags.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"

namespace paladin::core {

/// Sends the next `count` records of `reader` to `dst` as one framed
/// piece: a u64 header carrying `count`, then data messages of at most
/// `message_records` records (an empty piece is the header alone).
template <Record T>
void send_piece(net::Communicator& comm, u32 dst, FrameTags tags,
                pdm::BlockReader<T>& reader, u64 count, u64 message_records) {
  PALADIN_EXPECTS(message_records >= 1);
  comm.send_value<u64>(dst, tags.header, count);
  std::vector<T> chunk(std::min(count, message_records));
  for (u64 sent = 0; sent < count;) {
    const std::span<T> want(chunk.data(),
                            std::min<u64>(chunk.size(), count - sent));
    const u64 got = reader.read_span(want);
    PALADIN_ASSERT(got == want.size());
    comm.send_records<T>(dst, tags.data, std::span<const T>(want));
    sent += got;
  }
}

/// Receives one framed piece from `src`, appending its records to
/// `writer` (not flushed).  Returns the piece's record count.
template <Record T>
u64 recv_piece(net::Communicator& comm, u32 src, FrameTags tags,
               pdm::BlockWriter<T>& writer) {
  const u64 count = comm.recv_value<u64>(src, tags.header);
  for (u64 got = 0; got < count;) {
    const std::vector<T> data = comm.recv_records<T>(src, tags.data);
    PALADIN_ASSERT(!data.empty() && got + data.size() <= count);
    writer.push_span(std::span<const T>(data));
    got += data.size();
  }
  return count;
}

/// Collective: node `root` holds `source` with an admissible number of
/// records; afterwards every node's `dest` holds its perf-proportional
/// contiguous share.  Data moves in messages of `message_records`.
/// Returns the local share size.
template <Record T>
u64 scatter_shares(net::NodeContext& ctx, const hetero::PerfVector& perf,
                   const std::string& source, const std::string& dest,
                   u32 root = 0, u64 message_records = 8192) {
  PALADIN_EXPECTS(message_records >= 1);
  net::Communicator& comm = ctx.comm();

  if (comm.rank() != root) {
    comm.allreduce_sum(u64{0});
    pdm::BlockFile out = ctx.disk().create(dest);
    pdm::BlockWriter<T> writer(out);
    const u64 share = recv_piece<T>(comm, root, kStagingTags, writer);
    writer.flush();
    return share;
  }

  const u64 n = ctx.disk().file_records<T>(source);
  PALADIN_EXPECTS_MSG(perf.is_admissible(n),
                      "scatter source size must have integral shares");
  const u64 total = comm.allreduce_sum(n);  // announce n to everyone
  PALADIN_ASSERT(total == n);

  pdm::BlockFile f = ctx.disk().open(source);
  pdm::BlockReader<T> reader(f);
  u64 my_share = 0;
  for (u32 i = 0; i < comm.size(); ++i) {
    const u64 share = perf.share(i, n);
    if (i != root) {
      send_piece<T>(comm, i, kStagingTags, reader, share, message_records);
      continue;
    }
    pdm::BlockFile out = ctx.disk().create(dest);
    pdm::BlockWriter<T> writer(out);
    my_share = pdm::copy_records(reader, writer, share);
    PALADIN_ASSERT(my_share == share);
    writer.flush();
  }
  return my_share;
}

/// Collective: concatenates at `root` into `dest` the pieces at positions
/// 0, 1, …, owner_of.size()−1, where position k is file `piece_name(k)` on
/// rank owner_of[k].  Root copies its own pieces; every other owner sends
/// its pieces to root as framed pieces in position order.  Off the root,
/// only the entries naming this rank need be right.  Returns the records
/// written at root, 0 elsewhere.
template <Record T, typename NameFn>
u64 gather_pieces(net::NodeContext& ctx, std::span<const u32> owner_of,
                  NameFn&& piece_name, const std::string& dest, u32 root,
                  u64 message_records) {
  net::Communicator& comm = ctx.comm();
  const u32 rank = comm.rank();
  if (rank != root) {
    for (u64 k = 0; k < owner_of.size(); ++k) {
      if (owner_of[k] != rank) continue;
      pdm::BlockFile f = ctx.disk().open(piece_name(k));
      pdm::BlockReader<T> reader(f);
      send_piece<T>(comm, root, kEgressTags, reader, reader.size_records(),
                    message_records);
    }
    return 0;
  }

  pdm::BlockFile out = ctx.disk().create(dest);
  pdm::BlockWriter<T> writer(out);
  for (u64 k = 0; k < owner_of.size(); ++k) {
    const u32 who = owner_of[k];
    PALADIN_ASSERT(who < comm.size());
    if (who != root) {
      recv_piece<T>(comm, who, kEgressTags, writer);
      continue;
    }
    pdm::BlockFile f = ctx.disk().open(piece_name(k));
    pdm::BlockReader<T> reader(f);
    pdm::copy_records(reader, writer);
  }
  writer.flush();
  return writer.records_written();
}

/// Collective: concatenates every node's `source` at node `root` into
/// `dest`, in rank order (node 0's slice first) — gather_pieces with one
/// piece per rank.  Returns the total record count (on every node).
template <Record T>
u64 gather_shares(net::NodeContext& ctx, const std::string& source,
                  const std::string& dest, u32 root = 0,
                  u64 message_records = 8192) {
  PALADIN_EXPECTS(message_records >= 1);
  net::Communicator& comm = ctx.comm();
  const u64 total =
      comm.allreduce_sum(ctx.disk().file_records<T>(source));
  std::vector<u32> ranks(comm.size());
  std::iota(ranks.begin(), ranks.end(), u32{0});
  const u64 written = gather_pieces<T>(
      ctx, std::span<const u32>(ranks), [&](u64) { return source; }, dest,
      root, message_records);
  PALADIN_ENSURES(comm.rank() != root || written == total);
  return total;
}

}  // namespace paladin::core
