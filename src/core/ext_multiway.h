// Multiway external merge sort — Rahn–Sanders–Singler, "Scalable
// Distributed-Memory External Sorting" (ICDE 2010), adapted to the
// heterogeneous simulated cluster.  Structurally the opposite of external
// PSRS: where Algorithm 1 finishes the local sort *before* any data moves
// (sort → sample sorted data → partition → exchange → p-way merge), this
// backend moves data after only one local pass and merges *everything*
// once:
//
//   Phase 1  run formation — one streaming pass turns the local share into
//            ~l_i/M memory-sized sorted runs (no local merge passes);
//   Phase 2  oversampled random splitters — each node samples its unsorted
//            input perf-proportionally; a designated node sorts the pooled
//            sample and broadcasts p−1 perf-weighted cut keys (with the
//            Axtmann–Sanders duplicate-robust dedup, see
//            core/splitter_tree.h's select_splitters);
//   Phase 3  one redistribution — every run is cut at the splitters by
//            binary search *in the runs file* (no partition copy on disk),
//            and the run pieces travel to their owners through the
//            core/redistribute.h exchange: block-multiple, credit-windowed
//            messages, spilling to one file per source;
//   Phase 4  one global multiway merge — a single loser-tree pass over all
//            R·p surviving run pieces produces the node's contiguous
//            sorted slice.  No polyphase, no per-step intermediate sort.
//
// I/O per node ≈ 2 passes for run formation + 1 read + 1 write around the
// wire + 1 merge pass — the "just over two scans" shape the ICDE paper
// targets, versus external PSRS's sort-then-merge profile.  When the
// memory budget cannot buffer one block per piece (fan-in R·p exceeds
// max_fan_in at tiny test geometries) the merge degrades to the balanced
// multi-pass fallback, exactly like core/merge_files.h.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/math_util.h"
#include "base/types.h"
#include "core/backend.h"
#include "core/redistribute.h"
#include "core/wire_tags.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "seq/kway_merge.h"
#include "seq/loser_tree.h"
#include "seq/parallel_merge.h"
#include "seq/run_formation.h"

namespace paladin::core {

/// Random samples drawn per unit of perf (node i draws
/// kMultiwayOversample·p·perf[i], clamped to its share).  Larger than the
/// distribution sort's: splitters here are final — there is no per-owner
/// full sort afterwards to absorb imbalance.  Node 0 pools the sample and
/// cuts the splitters in unique-value space (SplitterCut::dedup, the
/// Axtmann–Sanders robust selection), so heavy duplicate mass cannot
/// collapse several splitters onto one key; on the tree path the dedup
/// runs per level — core/splitter_tree.h's merge_equal mode.
inline constexpr u64 kMultiwayOversample = 32;

/// Wire tags and counter prefix of the run-piece exchange.
inline constexpr ExchangeChannel kMultiwayChannel{
    kTagMultiwayHeader, kTagMultiwayData, kTagMultiwayAck, "multiway"};

/// The backend has no knobs of its own; the common core is BackendConfig.
struct ExtMultiwayConfig : BackendConfig {};

struct ExtMultiwayReport : BackendReport {
  u64 initial_runs = 0;         ///< sorted runs after Phase 1
  u64 samples_contributed = 0;  ///< this node's share of the pooled sample
  u64 messages_sent = 0;        ///< Phase 3 data messages
  u64 effective_message_records = 0;  ///< message_records after clamping
  u64 merge_fan_in = 0;   ///< non-empty run pieces entering Phase 4
  u64 merge_passes = 0;   ///< 1 normally; >1 in the degenerate fallback

  // Virtual seconds / block I/O per phase (this node).
  double t_run_formation = 0.0;
  double t_splitters = 0.0;
  double t_exchange = 0.0;
  double t_merge = 0.0;
  u64 io_run_formation = 0;
  u64 io_splitters = 0;
  u64 io_exchange = 0;
  u64 io_merge = 0;
};

namespace detail {

/// First record index in [lo, hi) of `reader`'s file that is not less than
/// `key` — std::lower_bound over on-disk records, one seek+read per probe.
/// Together with the upper_bound-over-splitters routing convention this
/// sends a record equal to splitter j−1 to partition j (ties route above
/// the splitter), so the file cuts agree exactly with
/// route_file_by_splitters even when dedup left equal splitters.
template <Record T, typename Less>
u64 file_lower_bound(pdm::BlockReader<T>& reader, u64 lo, u64 hi,
                     const T& key, Meter& meter, Less less) {
  u64 compares = 0;
  while (lo < hi) {
    const u64 mid = lo + (hi - lo) / 2;
    reader.seek_record(mid);
    T v;
    const bool ok = reader.next(v);
    PALADIN_ASSERT(ok);
    ++compares;
    if (less(v, key)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  meter.on_compares(compares);
  return lo;
}

}  // namespace detail

/// SPMD body: sorts the cluster-wide dataset whose share on this node is
/// `config.input`; on return `config.output` holds this node's globally
/// contiguous slice (node 0's output precedes node 1's, etc.).  Unlike
/// PSRS the share layout need not satisfy Equation 2 — the perf vector
/// only weights the splitter quantiles.
template <Record T, typename Less = std::less<T>>
ExtMultiwayReport ext_multiway_sort(net::NodeContext& ctx,
                                    const hetero::PerfVector& perf,
                                    const ExtMultiwayConfig& config,
                                    Less less = {}) {
  PALADIN_EXPECTS(perf.node_count() == ctx.node_count());
  const u32 p = ctx.node_count();
  const u32 rank = ctx.rank();

  BackendContext bc(ctx, perf, config);
  obs::Tracer* const tr = ctx.obs();

  ExtMultiwayReport report;
  report.local_records = ctx.disk().file_records<T>(config.input);
  if (tr) tr->counters().set("multiway.records_in", report.local_records);

  Phase total(bc, "multiway", "sort", report.t_total);

  // ---- Phase 1: run formation (one pass, no local merge) --------------
  const std::string runs_file = config.output + ".mwruns";
  seq::RunLayout runs;
  {
    Phase phase(bc, "multiway", "phase1.run_formation",
                report.t_run_formation, &report.io_run_formation);
    pdm::BlockFile in = ctx.disk().open(config.input);
    pdm::BlockReader<T> reader(in);
    pdm::BlockFile out = ctx.disk().create(runs_file);
    pdm::BlockWriter<T> writer(out);
    runs = seq::form_runs<T, Less>(config.sequential.run_formation, reader,
                                   writer, config.sequential.memory_records,
                                   ctx, less);
    report.initial_runs = runs.run_count();
    phase.arg("runs", report.initial_runs);
    phase.counter("initial_runs", report.initial_runs);
  }

  if (p == 1) {
    // Degenerate single-node "cluster": Phase 4 directly on the runs.
    {
      Phase phase(bc, "multiway", "phase4.merge", report.t_merge,
                  &report.io_merge);
      report.merge_fan_in = runs.run_count();
      report.merge_passes = std::max<u64>(
          seq::merge_runs_balanced<T, Less>(ctx.disk(), runs_file, runs,
                                            config.output,
                                            config.sequential.memory_records,
                                            ctx, less,
                                            config.sequential.merge),
          runs.run_count() > 0 ? 1 : 0);
      if (!config.keep_intermediates) ctx.disk().remove(runs_file);
      phase.end();
      report.final_records = report.local_records;
      phase.counter("records_out", report.final_records);
    }
    total.end();
    return report;
  }

  // ---- Adaptive re-estimation (hetero/drift.h) ------------------------
  // Phase 1 (run formation) is the backend's big up-front local phase;
  // probe effective speeds after it and re-split the exchange targets
  // with the blended weights if they moved beyond the deadband.
  std::vector<double> adapt_weights;
  if (config.adaptive.enabled) {
    obs::ScopedSpan span(tr, "multiway.adapt", "drift");
    const AdaptiveOutcome ad =
        adaptive_reestimate(bc, config.adaptive, report.local_records, 0);
    if (ad.applied) adapt_weights = ad.weights;
  }

  // ---- Phase 2: oversampled random splitters --------------------------
  std::vector<T> splitters;
  {
    Phase phase(bc, "multiway", "phase2.splitters", report.t_splitters,
                &report.io_splitters);
    const u64 want = std::min<u64>(report.local_records,
                                   kMultiwayOversample * p * perf[rank]);
    std::vector<T> sample =
        draw_random_sample<T>(ctx, config.input, want);
    report.samples_contributed = sample.size();
    splitters = select_splitters<T, Less>(
        ctx, config.splitter,
        adapt_weights.empty()
            ? SplitterCut::perf_shares(perf, /*dedup=*/true)
            : SplitterCut::weighted(adapt_weights, /*dedup=*/true),
        std::move(sample), /*root=*/0, less);
    phase.arg("samples", report.samples_contributed);
    phase.counter("samples", report.samples_contributed);
  }

  // ---- Phase 3: cut every run at the splitters; exchange the pieces ----
  // outgoing[j] lists, in run order, each run's piece for node j in the
  // runs file; what node src sent lands in received_name(recv_prefix, src)
  // with its piece layout in received[src].
  const std::string recv_prefix = config.output + ".mwrecv";
  std::vector<Outgoing> outgoing(p, Outgoing{runs_file, {}});
  std::vector<std::vector<u64>> received;
  {
    Phase phase(bc, "multiway", "phase3.exchange", report.t_exchange,
                &report.io_exchange);
    {
      pdm::BlockFile f = ctx.disk().open(runs_file);
      pdm::BlockReader<T> reader(f);
      u64 run_start = 0;
      for (u64 r = 0; r < runs.run_count(); ++r) {
        const u64 run_end = run_start + runs.run_lengths[r];
        u64 cut = run_start;
        for (u32 j = 0; j < p; ++j) {
          // Cuts are monotone in j, so each search starts at the previous
          // cut instead of the run start.
          const u64 next =
              j < splitters.size()
                  ? detail::file_lower_bound<T, Less>(reader, cut, run_end,
                                                      splitters[j], ctx, less)
                  : run_end;
          outgoing[j].pieces.push_back({cut, next - cut});
          cut = next;
        }
        run_start = run_end;
      }
    }
    ExchangeResult exchanged = exchange_pieces<T>(
        ctx, outgoing, recv_prefix, config.message_records,
        kDefaultFlowWindow, kMultiwayChannel);
    report.messages_sent = exchanged.messages;
    report.effective_message_records = exchanged.effective_message_records;
    received = std::move(exchanged.received_pieces);
    phase.end();
    phase.arg("messages", report.messages_sent);
    phase.counter("messages_sent", report.messages_sent);
    phase.counter("effective_message_records",
                  report.effective_message_records);
  }

  // ---- Phase 4: one global multiway merge over all surviving pieces ----
  {
    Phase phase(bc, "multiway", "phase4.merge", report.t_merge,
                &report.io_merge);
    std::vector<seq::MergePiece> pieces;
    for (const Piece& piece : outgoing[rank].pieces) {
      if (piece.len > 0) pieces.push_back({runs_file, piece.offset, piece.len});
    }
    for (u32 off = 1; off < p; ++off) {
      const u32 src = (rank + p - off) % p;
      const std::string name = received_name(recv_prefix, src);
      u64 pos = 0;
      for (const u64 len : received[src]) {
        if (len > 0) pieces.push_back({name, pos, len});
        pos += len;
      }
    }
    report.merge_fan_in = pieces.size();

    const u64 fan_in =
        seq::max_fan_in<T>(ctx.disk(), config.sequential.memory_records);
    if (pieces.empty()) {
      pdm::BlockFile out = ctx.disk().create(config.output);
      pdm::BlockWriter<T> writer(out);
      writer.flush();
      report.final_records = 0;
    } else if (pieces.size() <= fan_in) {
      // The headline single pass: one merge over all pieces straight to
      // the output file (parallel engine per config.sequential.merge; one
      // block buffer per piece either way).
      pdm::BlockFile out = ctx.disk().create(config.output);
      pdm::BlockWriter<T> writer(out);
      const seq::MergeResult r = seq::merge_pieces<T, Less>(
          ctx.disk(), pieces, writer, ctx, less, config.sequential.merge);
      writer.flush();
      ctx.on_moves(r.merged);
      if (r.tail_compares > 0) ctx.on_compares(r.tail_compares);
      report.final_records = r.merged;
      report.merge_passes = 1;
    } else {
      // Degenerate memory budget (fan-in exceeds the block buffers M can
      // hold): concatenate the pieces into one runs file and fall back to
      // the balanced multi-pass merge, as core/merge_files.h does.
      const std::string cat = config.output + ".mwcat";
      seq::RunLayout cat_layout;
      {
        pdm::BlockFile out = ctx.disk().create(cat);
        pdm::BlockWriter<T> writer(out);
        for (const seq::MergePiece& piece : pieces) {
          pdm::BlockFile f = ctx.disk().open(piece.file);
          pdm::BlockReader<T> reader(f);
          reader.seek_record(piece.offset);
          const u64 copied = pdm::copy_records(reader, writer, piece.len);
          PALADIN_ASSERT(copied == piece.len);
          ctx.on_moves(copied);
          cat_layout.run_lengths.push_back(copied);
          cat_layout.total_records += copied;
        }
        writer.flush();
      }
      report.merge_passes = 1 + seq::merge_runs_balanced<T, Less>(
                                    ctx.disk(), cat, cat_layout,
                                    config.output,
                                    config.sequential.memory_records, ctx,
                                    less, config.sequential.merge);
      ctx.disk().remove(cat);
      report.final_records = ctx.disk().file_records<T>(config.output);
    }

    if (!config.keep_intermediates) {
      ctx.disk().remove(runs_file);
      for (u32 off = 1; off < p; ++off) {
        const u32 src = (rank + p - off) % p;
        ctx.disk().remove(received_name(recv_prefix, src));
      }
    }
    phase.end();
    phase.arg("records", report.final_records);
    phase.arg("fan_in", report.merge_fan_in);
    phase.counter("records_out", report.final_records);
    phase.counter("merge_fan_in", report.merge_fan_in);
  }
  total.end();
  return report;
}

}  // namespace paladin::core
