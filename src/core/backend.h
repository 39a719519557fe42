// The backend seam: every parallel external sort in this library (external
// PSRS, distribution sort, overpartitioning, multiway merge sort) is an
// SPMD "backend" over the same per-node environment — a NodeContext, the
// cluster's perf vector, and a common configuration core (sequential-sort
// machinery, message size, file names).  This header is that shared
// surface:
//
//  * BackendConfig / BackendReport — the common config and result slices
//    every backend config/report derives from, so the driver can assemble
//    a backend's full config by slice-assignment instead of field-by-field
//    plumbing, and slice the common report back out generically;
//  * BackendContext — the bundle of per-node handles (node, perf, common
//    config) the shared phase helpers run against, plus the Phase bracket
//    that produces every report's per-phase time / block-I/O columns and
//    the matching span, counter and snapshot;
//  * shared phase helpers — the sampling / routing / concatenation
//    scaffolding that used to be re-implemented inside each ext_* header,
//    hoisted here so the backends keep only their genuinely distinct logic
//    (splitter selection itself is core/splitter_tree.h's
//    select_splitters);
//  * collect_sorted_output — the layout-aware gather that assembles the
//    globally sorted sequence at one node whatever the backend's output
//    layout (contiguous slices or scattered bucket files).
#pragma once

#include <algorithm>
#include <cmath>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/meter.h"
#include "base/types.h"
#include "core/scatter_gather.h"
#include "core/splitter_tree.h"
#include "hetero/drift.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "obs/trace.h"
#include "pdm/typed_io.h"
#include "seq/counting.h"
#include "seq/external_sort.h"

namespace paladin::core {

/// Configuration every backend shares.  Backend configs derive from this
/// (plus their own option struct), so the driver builds them by slicing.
struct BackendConfig {
  /// Sequential machinery for the local sort phases (memory budget, tape
  /// count, run-formation strategy, in-node merge engine — the
  /// `sequential.merge` tuning also drives every backend's final merge,
  /// see seq/parallel_merge.h).
  seq::ExternalSortConfig sequential;
  /// Records per network message (paper: 8K integers = 32 KB); clamped up
  /// to a block multiple by the transports.
  u64 message_records = 8192;
  /// Node-local file names.
  std::string input = "input";
  std::string output = "sorted";
  /// Keep intermediate files (for inspection) instead of deleting them as
  /// soon as they are consumed.
  bool keep_intermediates = false;
  /// How splitters are selected (flat designated-node sort vs the
  /// multi-level sample tree of core/splitter_tree.h); shared by all four
  /// backends.  The default auto heuristic keeps the paper-scale runs on
  /// the exact flat path.
  SplitterConfig splitter;
  /// Adaptive repartitioning under speed drift (hetero/drift.h): when
  /// enabled, every backend re-estimates effective node speeds right
  /// before its splitter/schedule decision and re-splits the partition
  /// targets with the blended weights.  Off (the default) leaves the
  /// static perf-proportional path untouched, verbatim.
  hetero::AdaptiveConfig adaptive;
};

/// How a backend lays out its result across the cluster.
enum class OutputLayout : u8 {
  /// `<output>` on node i holds one sorted slice; node i's keys precede
  /// node i+1's (PSRS, distribution, multiway).
  kContiguousSlice,
  /// `<output>.bucket<b>` files, globally ordered by bucket index with
  /// ownership scattered by the schedule (overpartitioning).
  kBucketFiles,
};

/// Name of bucket `b`'s sorted output file under the kBucketFiles layout.
inline std::string bucket_file_name(const std::string& output, u64 b) {
  return output + ".bucket" + std::to_string(b);
}

/// Per-node result core every backend reports; backend reports derive from
/// this and add their own per-phase columns.
struct BackendReport {
  u64 local_records = 0;  ///< l_i, the node's initial share
  u64 final_records = 0;  ///< records owned after the sort
  double t_total = 0.0;   ///< virtual seconds, whole algorithm
  /// Where the sorted data lives (drives collect_sorted_output).
  OutputLayout layout = OutputLayout::kContiguousSlice;
  /// Buckets this node owns (kBucketFiles layout only; empty otherwise).
  std::vector<u64> owned_buckets;
};

/// The per-node execution environment a backend runs against: the cluster
/// node, the perf vector and the common config, with the derived accessors
/// the shared phase helpers want.
class BackendContext {
 public:
  BackendContext(net::NodeContext& node, const hetero::PerfVector& perf,
                 const BackendConfig& common)
      : node_(&node), perf_(&perf), common_(&common) {
    PALADIN_EXPECTS(perf.node_count() == node.node_count());
  }

  net::NodeContext& node() const { return *node_; }
  const hetero::PerfVector& perf() const { return *perf_; }
  const BackendConfig& common() const { return *common_; }

  net::Communicator& comm() const { return node_->comm(); }
  pdm::Disk& disk() const { return node_->disk(); }
  obs::Tracer* obs() const { return node_->obs(); }
  u32 p() const { return node_->node_count(); }
  u32 rank() const { return node_->rank(); }

  double now() const { return node_->clock().now(); }
  u64 block_ios() const { return node_->disk().stats().total_block_ios(); }

 private:
  net::NodeContext* node_;
  const hetero::PerfVector* perf_;
  const BackendConfig* common_;
};

/// One backend phase: brackets the virtual clock and the disk's block-I/O
/// counter from construction to end(), and fills the caller's report
/// columns there.  A traced phase also records the span
/// `<backend>.<step>`; a report step (`ios` set) additionally attaches the
/// block count as the span's `blocks` arg at end() and, on destruction,
/// sets the `<backend>.io.<name>` counter (name = `step` after its first
/// '.') and takes the `<step>` snapshot.  Caller counters set through
/// counter() in between land before the I/O counter, so every phase
/// exports its counters in one fixed order.
class Phase {
 public:
  /// Untraced bracket: fills `seconds` at end().
  Phase(const BackendContext& bc, double& seconds)
      : bc_(&bc), seconds_(&seconds), t0_(bc.now()), io0_(bc.block_ios()) {}

  Phase(const BackendContext& bc, std::string backend, std::string step,
        double& seconds, u64* ios = nullptr, bool blocks_arg = true)
      : Phase(bc, seconds) {
    ios_ = ios;
    blocks_arg_ = blocks_arg;
    tr_ = bc.obs();
    if (tr_) {
      span_ = tr_->open(backend + "." + step, backend);
      backend_ = std::move(backend);
      step_ = std::move(step);
    }
  }

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  ~Phase() {
    end();
    // An exception unwinding through the phase leaves no snapshot behind,
    // as if the phase had never completed.
    if (tr_ && ios_ && std::uncaught_exceptions() == uncaught_) {
      tr_->counters().set(
          backend_ + ".io." + step_.substr(step_.find('.') + 1), *ios_);
      tr_->snapshot(step_);
    }
  }

  /// Closes the span and fills the report columns (idempotent).
  void end() {
    if (ended_) return;
    ended_ = true;
    if (tr_) tr_->close(span_);
    *seconds_ = bc_->now() - t0_;
    if (ios_) {
      *ios_ = bc_->block_ios() - io0_;
      if (blocks_arg_) arg("blocks", *ios_);
    }
  }

  /// Attaches an arg to the span; valid before or after end().
  void arg(std::string key, u64 value) {
    if (tr_) tr_->arg(span_, std::move(key), value);
  }

  /// Sets the counter `<backend>.<name>`.
  void counter(const std::string& name, u64 value) {
    if (tr_) tr_->counters().set(backend_ + "." + name, value);
  }

 private:
  const BackendContext* bc_;
  double* seconds_;
  double t0_;
  u64 io0_;
  u64* ios_ = nullptr;
  bool blocks_arg_ = false;
  bool ended_ = false;
  obs::Tracer* tr_ = nullptr;
  obs::Tracer::SpanId span_ = 0;
  std::string backend_;
  std::string step_;
  int uncaught_ = std::uncaught_exceptions();
};

/// Outcome of one adaptive speed re-estimation (hetero::AdaptiveConfig).
/// `weights` is the blended per-node partition share (normalized to sum 1)
/// on every node when `applied`, empty when adaptation was declined — the
/// caller then runs its static perf-proportional path verbatim.
struct AdaptiveOutcome {
  bool applied = false;
  std::vector<double> weights;
  double local_speed = 0.0;  ///< this node's measured effective speed
};

/// Collective speed re-estimation — every node must call it at the same
/// point of the algorithm.  Each node runs a probe: it charges
/// `probe_compares` compares through its (possibly drifting) meter and
/// reads the virtual time billed; known-work / observed-duration *is* the
/// node's current effective speed, recorded as an `adapt.probe` span.  The
/// root gathers the measurements, blends the observed speed shares with
/// the static perf shares, applies the deadband, and broadcasts either the
/// normalized weights or an empty vector (declined).  Deterministic: the
/// probe reads only virtual clocks, so the outcome is a pure function of
/// (seed, plan, config).
inline AdaptiveOutcome adaptive_reestimate(const BackendContext& bc,
                                           const hetero::AdaptiveConfig& cfg,
                                           u64 phase_records, u32 root) {
  AdaptiveOutcome out;
  net::NodeContext& ctx = bc.node();
  const hetero::PerfVector& perf = bc.perf();
  obs::Tracer* const tr = bc.obs();
  const double t0 = ctx.clock().now();
  ctx.on_compares(cfg.probe_compares);
  const double dt = ctx.clock().now() - t0;
  const double per_compare = ctx.config().cost.per_compare_seconds;
  out.local_speed =
      dt > 0.0 ? static_cast<double>(cfg.probe_compares) * per_compare / dt
               : ctx.speed();
  if (tr) {
    const obs::Tracer::SpanId probe = tr->open_at("adapt.probe", "drift", t0);
    tr->arg(probe, "phase_records", phase_records);
    tr->arg(probe, "speed_x1000",
            static_cast<u64>(out.local_speed * 1000.0));
    tr->close(probe);
  }

  net::Communicator& comm = ctx.comm();
  std::vector<double> speeds = comm.gather_records<double>(
      std::span<const double>(&out.local_speed, 1), root);
  std::vector<double> weights;
  if (bc.rank() == root) {
    const u32 p = perf.node_count();
    double speed_sum = 0.0;
    for (double s : speeds) speed_sum += s;
    const double perf_sum = static_cast<double>(perf.sum());
    weights.resize(p);
    double blended_sum = 0.0;
    for (u32 i = 0; i < p; ++i) {
      const double stat = static_cast<double>(perf[i]) / perf_sum;
      const double observed = speed_sum > 0.0 ? speeds[i] / speed_sum : stat;
      weights[i] = (1.0 - cfg.blend) * stat + cfg.blend * observed;
      blended_sum += weights[i];
    }
    double max_rel = 0.0;
    for (u32 i = 0; i < p; ++i) {
      weights[i] /= blended_sum;
      const double stat = static_cast<double>(perf[i]) / perf_sum;
      max_rel = std::max(max_rel, std::abs(weights[i] - stat) / stat);
    }
    // Deadband: measurement within noise of the static shares — decline,
    // so drift-free adaptive runs keep the exact static partition.
    if (max_rel < cfg.min_relative_change) weights.clear();
  }
  weights = comm.bcast_records<double>(std::move(weights), root);
  out.applied = !weights.empty();
  out.weights = std::move(weights);
  if (tr) {
    // Deterministic per (seed, plan, config): safe to fold into the trace.
    tr->counters().set("drift.adapt.applied", out.applied ? 1 : 0);
    if (out.applied) {
      tr->counters().set(
          "drift.adapt.weight_ppm",
          static_cast<u64>(out.weights[bc.rank()] * 1e6));
    }
  }
  return out;
}

/// Draws `want` records of `file` at uniformly random positions (sampling
/// with replacement, one seek per sample) — the probabilistic-splitting
/// sample of DeWitt et al. and the oversampling step of Rahn–Sanders–
/// Singler.  `want` is clamped to the file size; an empty file yields an
/// empty sample.
template <Record T>
std::vector<T> draw_random_sample(net::NodeContext& ctx,
                                  const std::string& file, u64 want) {
  std::vector<T> sample;
  pdm::BlockFile f = ctx.disk().open(file);
  pdm::BlockReader<T> reader(f);
  const u64 size = reader.size_records();
  if (size == 0) return sample;
  want = std::min(want, size);
  sample.reserve(want);
  for (u64 i = 0; i < want; ++i) {
    reader.seek_record(ctx.rng().next_below(size));
    T v;
    const bool ok = reader.next(v);
    PALADIN_ASSERT(ok);
    sample.push_back(v);
  }
  return sample;
}

/// One streaming pass of an *unsorted* local file into `splitters.size()+1`
/// bucket files selected by binary search (a record equal to a splitter
/// routes above it, matching std::upper_bound).  `bucket_name(b)` names the
/// file of bucket b.  Charges one compare per search step and one move per
/// record; returns per-bucket record counts.
template <Record T, typename NameFn, typename Less = std::less<T>>
std::vector<u64> route_file_by_splitters(net::NodeContext& ctx,
                                         const std::string& input,
                                         std::span<const T> splitters,
                                         NameFn&& bucket_name, Less less = {}) {
  const u64 buckets = splitters.size() + 1;
  std::vector<u64> sizes(buckets, 0);
  std::vector<pdm::BlockFile> files;
  std::vector<pdm::BlockWriter<T>> writers;
  files.reserve(buckets);
  writers.reserve(buckets);
  for (u64 b = 0; b < buckets; ++b) {
    files.push_back(ctx.disk().create(bucket_name(b)));
    writers.emplace_back(files.back());
  }
  pdm::BlockFile f = ctx.disk().open(input);
  pdm::BlockReader<T> reader(f);
  u64 compares = 0;
  seq::CountingLess<Less> counting{less, &compares};
  u64 routed = 0;
  T v;
  while (reader.next(v)) {
    const u64 b = static_cast<u64>(
        std::upper_bound(splitters.begin(), splitters.end(), v, counting) -
        splitters.begin());
    writers[b].push(v);
    ++sizes[b];
    ++routed;
  }
  for (auto& w : writers) w.flush();
  ctx.on_compares(compares);
  ctx.on_moves(routed);
  return sizes;
}

/// Concatenates `sources` into `dest` in order, removing each source as it
/// is consumed (unless `keep_sources`).  Returns records written.
template <Record T>
u64 concat_files(pdm::Disk& disk, std::span<const std::string> sources,
                 const std::string& dest, Meter& meter,
                 bool keep_sources = false) {
  pdm::BlockFile out = disk.create(dest);
  pdm::BlockWriter<T> writer(out);
  for (const std::string& name : sources) {
    pdm::BlockFile f = disk.open(name);
    pdm::BlockReader<T> reader(f);
    const u64 copied = pdm::copy_records(reader, writer);
    meter.on_moves(copied);
    if (!keep_sources) disk.remove(name);
  }
  writer.flush();
  return writer.records_written();
}

/// Collective, bucket layout: the owner of every bucket, at `root` from
/// every rank's ascending `owned` list (gathered in rank order); off the
/// root only this rank's own buckets are filled in, the rest read p.
inline std::vector<u32> gather_bucket_owners(net::Communicator& comm,
                                             std::span<const u64> owned,
                                             u32 root) {
  const u32 p = comm.size();
  const u64 my_count = owned.size();
  const std::vector<u64> counts =
      comm.gather_records<u64>(std::span<const u64>(&my_count, 1), root);
  const std::vector<u64> all_ids = comm.gather_records<u64>(owned, root);

  std::vector<u32> owner_of;
  const auto claim = [&](u64 b, u32 who) {
    if (b >= owner_of.size()) owner_of.resize(b + 1, p);
    PALADIN_ASSERT(owner_of[b] == p);  // owned exactly once
    owner_of[b] = who;
  };
  if (comm.rank() != root) {
    for (const u64 b : owned) claim(b, comm.rank());
    return owner_of;
  }
  u64 pos = 0;
  for (u32 i = 0; i < p; ++i) {
    for (u64 k = 0; k < counts[i]; ++k) claim(all_ids[pos++], i);
  }
  for (const u32 o : owner_of) PALADIN_ASSERT(o < p);  // no bucket missing
  return owner_of;
}

/// Collective: assembles the globally sorted sequence at `root` into
/// `dest` on root's disk, whatever the backend's output layout — one
/// gather_pieces walk over an owner-per-position list.  Contiguous slices
/// are one piece per rank in rank order (gather_shares); bucket files are
/// one piece per bucket in global bucket order, owners from
/// gather_bucket_owners.  Returns the total record count on every node.
template <Record T>
u64 collect_sorted_output(net::NodeContext& ctx, const BackendConfig& config,
                          const BackendReport& report, const std::string& dest,
                          u32 root = 0) {
  if (report.layout == OutputLayout::kContiguousSlice) {
    return gather_shares<T>(ctx, config.output, dest, root,
                            config.message_records);
  }

  net::Communicator& comm = ctx.comm();
  const auto bucket = [&](u64 b) {
    return bucket_file_name(config.output, b);
  };
  std::vector<u64> owned = report.owned_buckets;
  std::sort(owned.begin(), owned.end());
  u64 mine = 0;
  for (const u64 b : owned) mine += ctx.disk().file_records<T>(bucket(b));
  const u64 total = comm.allreduce_sum(mine);
  const std::vector<u32> owner_of =
      gather_bucket_owners(comm, std::span<const u64>(owned), root);
  const u64 written =
      gather_pieces<T>(ctx, std::span<const u32>(owner_of), bucket, dest,
                       root, config.message_records);
  PALADIN_ENSURES(comm.rank() != root || written == total);
  return total;
}

}  // namespace paladin::core
