// perfbench_tool — the compiled half of the benchmark (run.py is the other
// half).  Subcommands:
//
//   gen-keys --dist uniform|zipf --records N --seed S --out FILE
//       Seeded little-endian u32 key file.  Independent of the library's
//       generators, so a change to the program never changes its inputs.
//   check --input IN --output OUT
//       Output checker for a sort invocation: same length as the input,
//       keys non-decreasing, multiset digest equal to the input's.  Prints
//       one JSON line; exits 1 when the output is wrong.
//   trace-sort --input IN --output OUT --perf a,b,.. --algorithm NAME
//              --memory R --prefix P
//       The traced per-layer run of a sort invocation, in process.  It
//       repeats paladin_sort's file-in -> sorted-file-out path through each
//       layer's public entry point and times every call per node on the
//       host (wall and thread CPU), next to block I/O, messages and the
//       program's virtual-time phase spans.  Writes P.layers.json (the
//       per-layer metrics), P.host.json (host spans, Chrome trace format)
//       and P.trace.json / P.report.json (the program's virtual spans).
//   trace-service --jobs FILE --perf a,b,.. --policy NAME --memory R
//                 --prefix P
//       The same for a --jobs invocation: SortService::run in process.
//   meta
//       Build and machine facts that make two results comparable.
//
// Host spans are kept in memory and written once the run has ended.
#include <time.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.h"
#include "core/pipeline.h"
#include "core/sampling.h"
#include "core/scatter_gather.h"
#include "core/sort_driver.h"
#include "core/verify.h"
#include "hetero/perf_vector.h"
#include "metrics/expansion.h"
#include "metrics/table.h"
#include "net/cluster.h"
#include "obs/export.h"
#include "pdm/typed_io.h"
#include "seq/external_sort.h"
#include "seq/parallel_merge.h"
#include "service/service.h"
#include "workload/generators.h"

using namespace paladin;

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void fail(const std::string& msg) {
  std::cerr << "perfbench_tool: " << msg << "\n";
  std::exit(2);
}

// ---- arguments -------------------------------------------------------------

using Args = std::map<std::string, std::string>;

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) fail("bad argument " + key);
    args[key.substr(2)] = argv[++i];
  }
  return args;
}

std::string need(const Args& args, const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) fail("missing --" + key);
  return it->second;
}

u64 need_u64(const Args& args, const std::string& key) {
  return std::stoull(need(args, key));
}

std::vector<u32> parse_perf(const std::string& text) {
  std::vector<u32> perf;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    perf.push_back(static_cast<u32>(std::stoul(item)));
  }
  if (perf.empty()) fail("empty --perf");
  return perf;
}

// ---- key files, digests ----------------------------------------------------

u64 splitmix64(u64& state) {
  u64 z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

u64 mix(u64 x) {
  u64 s = x;
  return splitmix64(s);
}

std::vector<u32> read_keys(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) fail("cannot open " + path);
  const auto bytes = static_cast<u64>(in.tellg());
  std::vector<u32> keys(bytes / sizeof(u32));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(keys.data()),
          static_cast<std::streamsize>(keys.size() * sizeof(u32)));
  if (bytes % sizeof(u32) != 0) keys.push_back(0xdeadbeefU);  // torn tail
  return keys;
}

void write_keys(const std::string& path, std::span<const u32> keys) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(keys.data()),
            static_cast<std::streamsize>(keys.size() * sizeof(u32)));
  if (!out) fail("cannot write " + path);
}

/// Order-independent fingerprint of a key multiset (sum and xor of two
/// different mixes, plus the count).
u64 multiset_digest(std::span<const u32> keys) {
  u64 sum = 0, xr = 0;
  for (const u32 k : keys) {
    const u64 h = mix(u64{k} ^ 0x5bd1e995ULL);
    sum += h;
    xr ^= mix(h + 0x2545f4914f6cdd1dULL);
  }
  return mix(sum) ^ mix(xr + keys.size());
}

/// Order-sensitive fingerprint: equal iff the files are (whp) byte-equal.
u64 sequence_hash(std::span<const u32> keys) {
  u64 h = 0xcbf29ce484222325ULL;
  for (const u32 k : keys) h = (h ^ k) * 0x100000001b3ULL;
  return mix(h ^ keys.size());
}

std::string hex(u64 v) {
  std::ostringstream s;
  s << std::hex << std::setw(16) << std::setfill('0') << v;
  return s.str();
}

int cmd_gen_keys(const Args& args) {
  const std::string dist = need(args, "dist");
  const u64 n = need_u64(args, "records");
  u64 state = mix(need_u64(args, "seed") ^ 0x7065726662656e63ULL);
  std::vector<u32> keys(n);
  if (dist == "uniform") {
    for (u32& k : keys) k = static_cast<u32>(splitmix64(state) >> 32);
  } else if (dist == "zipf") {
    // Zipf(theta ~ 1) over a fixed dictionary of 1024 keys (continuous
    // inverse CDF: rank r appears with probability ~ 1/(r+1)), ranks
    // scattered over the key space by a hash.  The seed draws the sequence
    // only; which values are hot stays fixed, so where the splitters fall
    // among the duplicates, and with it the figures, repeats across seeds.
    constexpr double kDistinct = 1024.0;
    constexpr u64 kDictionary = 0x7a697066;
    const double ln_k = std::log(kDistinct);
    for (u32& k : keys) {
      const double u =
          static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
      const u64 r = std::min<u64>(
          static_cast<u64>(std::exp(u * ln_k)) - 1, 1023);
      k = static_cast<u32>(mix(kDictionary + r));
    }
  } else {
    fail("unknown --dist " + dist);
  }
  write_keys(need(args, "out"), keys);
  return 0;
}

int cmd_check(const Args& args) {
  const std::vector<u32> in = read_keys(need(args, "input"));
  const std::vector<u32> out = read_keys(need(args, "output"));
  std::string reason;
  if (out.size() != in.size()) {
    reason = "length " + std::to_string(out.size()) + " != input " +
             std::to_string(in.size());
  } else if (!std::is_sorted(out.begin(), out.end())) {
    reason = "keys out of order";
  } else if (multiset_digest(out) != multiset_digest(in)) {
    reason = "multiset differs from the input";
  }
  std::cout << "{\"ok\": " << (reason.empty() ? "true" : "false")
            << ", \"records\": " << out.size() << ", \"hash\": \""
            << hex(sequence_hash(out)) << "\", \"reason\": \"" << reason
            << "\"}\n";
  return reason.empty() ? 0 : 1;
}

// ---- host spans ------------------------------------------------------------

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// One host span: a layer call on one node (or on the driving thread).
struct HostSpan {
  std::string layer;
  int tid = 0;          ///< node rank; -1 = driving thread
  double begin = 0.0;   ///< host seconds since the run's epoch
  double end = 0.0;
  double cpu = 0.0;     ///< thread-CPU seconds
  double vs = 0.0;      ///< virtual seconds on the node clock
  u64 blocks = 0;       ///< block I/Os on the node disk
};

/// Per-node span recorder; each node thread owns one, so no locking.
class NodeSpans {
 public:
  NodeSpans(net::NodeContext* ctx, int tid, Clock::time_point epoch)
      : ctx_(ctx), tid_(tid), epoch_(epoch) {}

  template <typename F>
  void span(const std::string& layer, F&& body) {
    HostSpan s;
    s.layer = layer;
    s.tid = tid_;
    const double cpu0 = thread_cpu_s();
    const double vs0 = ctx_ ? ctx_->clock().now() : 0.0;
    const u64 io0 = ctx_ ? ctx_->disk().stats().total_block_ios() : 0;
    s.begin = seconds_since_epoch();
    body();
    s.end = seconds_since_epoch();
    s.cpu = thread_cpu_s() - cpu0;
    if (ctx_) {
      s.vs = ctx_->clock().now() - vs0;
      s.blocks = ctx_->disk().stats().total_block_ios() - io0;
    }
    spans.push_back(std::move(s));
  }

  std::vector<HostSpan> spans;

 private:
  double seconds_since_epoch() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  net::NodeContext* ctx_;
  int tid_;
  Clock::time_point epoch_;
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string host_trace_json(const std::vector<HostSpan>& spans) {
  std::ostringstream o;
  o << std::setprecision(17);
  o << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const HostSpan& s = spans[i];
    o << (i ? ",\n" : "") << "{\"name\": " << json_str(s.layer)
      << ", \"cat\": \"host\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
      << (s.tid < 0 ? 99 : s.tid) << ", \"ts\": " << s.begin * 1e6
      << ", \"dur\": " << (s.end - s.begin) * 1e6
      << ", \"args\": {\"cpu_ms\": " << s.cpu * 1e3
      << ", \"virtual_s\": " << s.vs << ", \"blocks\": " << s.blocks << "}}";
  }
  o << "\n]}\n";
  return o.str();
}

/// Layer metrics from host spans (one span per node and layer).
///  * wall: the layer's share of the critical path - how far the last
///    node's finish moved during the layer: max end(layer) - max
///    end(`after`), or - min begin(layer) for the first layer.  Layers
///    that follow each other therefore add up to the wall of the run.
///  * cpu: thread CPU summed over nodes; wait: per-node wall minus thread
///    CPU, summed - time blocked on peers, mailboxes and credit gates.
///  * vs: the slowest node's virtual seconds; blocks: summed over nodes.
void add_layer_metrics(std::map<std::string, double>& m,
                       const std::vector<HostSpan>& spans,
                       const std::string& layer, const std::string& after) {
  double first_begin = 1e300, last_end = 0, last_end_after = -1;
  double cpu = 0, wait = 0, vs = 0;
  u64 blocks = 0;
  bool seen = false;
  for (const HostSpan& s : spans) {
    if (s.layer == after) last_end_after = std::max(last_end_after, s.end);
    if (s.layer != layer) continue;
    seen = true;
    first_begin = std::min(first_begin, s.begin);
    last_end = std::max(last_end, s.end);
    cpu += s.cpu;
    wait += std::max(0.0, s.end - s.begin - s.cpu);
    vs = std::max(vs, s.vs);
    blocks += s.blocks;
  }
  if (!seen) return;
  m[layer + ".wall_s"] =
      last_end - (last_end_after >= 0 ? last_end_after : first_begin);
  m[layer + ".cpu_s"] = cpu;
  m[layer + ".wait_s"] = wait;
  m[layer + ".vs"] = vs;
  m[layer + ".blocks"] = static_cast<double>(blocks);
}

/// Virtual seconds and blocks of the program's own phase spans, for
/// backends the benchmark runs as one call: the slowest node's summed
/// span durations and the summed "blocks" args of every main-track span
/// whose name contains one of `needles`.
void add_virtual_layer(std::map<std::string, double>& m,
                       const obs::ClusterTrace& trace,
                       const std::string& layer,
                       const std::vector<std::string>& needles) {
  double vs = 0;
  u64 blocks = 0;
  bool seen = false;
  for (const obs::NodeTrace& node : trace.nodes) {
    double node_vs = 0;
    for (const obs::SpanRecord& s : node.spans) {
      if (s.track != obs::Track::kMain) continue;
      const bool hit = std::any_of(
          needles.begin(), needles.end(),
          [&](const std::string& n) { return s.name.find(n) != std::string::npos; });
      if (!hit) continue;
      seen = true;
      node_vs += s.end - s.begin;
      for (const auto& [k, v] : s.args) {
        if (k == "blocks") blocks += v;
      }
    }
    vs = std::max(vs, node_vs);
  }
  if (!seen) return;
  m[layer + ".vs"] = vs;
  m[layer + ".blocks"] = static_cast<double>(blocks);
}

std::string metrics_json(const std::map<std::string, double>& m,
                         const std::map<std::string, std::string>& facts) {
  std::ostringstream o;
  o << std::setprecision(17) << "{\"facts\": {";
  bool first = true;
  for (const auto& [k, v] : facts) {
    o << (first ? "" : ", ") << json_str(k) << ": " << json_str(v);
    first = false;
  }
  o << "}, \"metrics\": {";
  first = true;
  for (const auto& [k, v] : m) {
    o << (first ? "" : ", ") << json_str(k) << ": " << v;
    first = false;
  }
  o << "}}\n";
  return o.str();
}

void write_or_fail(const std::string& path, const std::string& text) {
  if (!obs::write_text_file(path, text)) fail("cannot write " + path);
}

std::string default_format(double v) {
  std::ostringstream o;
  o << v;  // how paladin_sort prints its makespan and expansion
  return o.str();
}

// ---- traced sort -----------------------------------------------------------

struct NodeOut {
  core::ParallelSortReport report;
  std::vector<u32> gathered;  // root only
  bool ok = false;
  std::vector<HostSpan> spans;
  net::CommStats comm;
  pdm::IoStats io;
  double cpu = 0.0;  ///< node thread CPU over the whole body
};

/// Algorithm 1 with the fused Steps 3-5, composed from the layers'
/// public entry points exactly as core::ext_psrs_sort runs them (static
/// perf weights, flat splitter path), so each step gets its own host span.
void composed_psrs(net::NodeContext& ctx, const hetero::PerfVector& perf,
                   const core::ParallelSortConfig& psc, NodeSpans& rec,
                   core::ParallelSortReport& report) {
  net::Communicator& comm = ctx.comm();
  obs::Tracer* const tr = ctx.obs();
  const u32 p = comm.size();
  const std::string sorted_local = psc.output + ".step1";
  report.local_records = ctx.disk().file_records<u32>(psc.input);
  u64 n = 0;
  rec.span("seq", [&] {
    n = comm.allreduce_sum(report.local_records);
    obs::ScopedSpan span(tr, "psrs.step1.seq_sort", "psrs");
    seq::external_sort<u32>(ctx.disk(), psc.input, sorted_local,
                            psc.sequential, ctx, std::less<u32>{}, tr);
  });
  std::vector<u32> pivots;
  rec.span("sampling", [&] {
    obs::ScopedSpan span(tr, "psrs.step2.sampling", "psrs");
    const u64 off = perf.sample_stride(n, psc.psrs.sampling_oversample);
    std::vector<u32> samples;
    {
      pdm::BlockFile f = ctx.disk().open(sorted_local);
      pdm::BlockReader<u32> reader(f);
      samples = core::draw_regular_sample<u32>(reader, off);
    }
    const u32 root = psc.psrs.designated_node;
    std::vector<u32> gathered =
        comm.gather_records<u32>(std::span<const u32>(samples), root);
    if (comm.rank() == root) {
      pivots = core::select_pivots<u32>(gathered, perf, ctx, std::less<u32>{},
                                        psc.psrs.sampling_oversample);
    }
    pivots = comm.bcast_records<u32>(std::move(pivots), root);
  });
  rec.span("exchange", [&] {
    obs::ScopedSpan span(tr, "psrs.steps3-5.pipeline", "psrs");
    const u64 msg =
        core::clamped_message_records<u32>(ctx.disk(), psc.message_records);
    const core::PipelineOutcome piped = core::pipelined_exchange_merge<u32>(
        ctx, sorted_local, psc.output, std::span<const u32>(pivots), msg,
        psc.psrs.flow_window_chunks);
    ctx.disk().remove(sorted_local);
    report.final_records = piped.merged;
  });
  PALADIN_ENSURES(pivots.size() + 1 == p);
}

int cmd_trace_sort(const Args& args) {
  const Clock::time_point epoch = Clock::now();
  NodeSpans main_thread(nullptr, -1, epoch);

  const std::vector<u32> perf_values = parse_perf(need(args, "perf"));
  const hetero::PerfVector perf(perf_values);
  const auto algo = core::try_parse_algorithm(need(args, "algorithm"));
  if (!algo) fail("unknown --algorithm");
  const std::string prefix = need(args, "prefix");

  net::ClusterConfig config;
  config.perf = perf_values;
  config.observe = true;

  core::ParallelSortConfig psc;
  psc.algorithm = *algo;
  psc.sequential.memory_records = need_u64(args, "memory");
  psc.sequential.allow_in_memory = false;

  // The composition below is the backend's static, flat-splitter,
  // pipelined path; anything else runs as one backend call.
  const bool compose = *algo == core::ParallelSortAlgorithm::kExtPsrs &&
                       psc.psrs.pipelined && perf.node_count() > 1 &&
                       !core::splitter_uses_tree(psc.splitter,
                                                 perf.node_count());

  std::vector<u32> keys;
  u64 original = 0;
  main_thread.span("read_input", [&] {
    keys = read_keys(need(args, "input"));
    original = keys.size();
    keys.resize(perf.round_up_admissible(original),
                std::numeric_limits<u32>::max());
  });

  net::Cluster cluster(config);
  const double cpu0 = process_cpu_s();
  net::RunOutcome<NodeOut> outcome;
  main_thread.span("cluster_run", [&] {
    outcome = cluster.run([&](net::NodeContext& ctx) -> NodeOut {
      NodeOut out;
      const double node_cpu0 = thread_cpu_s();
      NodeSpans rec(&ctx, static_cast<int>(ctx.rank()), epoch);
      rec.span("ingest", [&] {
        if (ctx.rank() == 0) {
          pdm::write_file<u32>(ctx.disk(), "all.in",
                               std::span<const u32>(keys));
        }
        core::scatter_shares<u32>(ctx, perf, "all.in", "input", 0,
                                  psc.message_records);
      });
      rec.span("backend", [&] {
        if (compose) {
          composed_psrs(ctx, perf, psc, rec, out.report);
        } else {
          out.report = core::parallel_external_sort<u32>(ctx, perf, psc);
        }
      });
      rec.span("verify", [&] {
        if (out.report.layout == core::OutputLayout::kContiguousSlice) {
          out.ok = core::verify_global_order<u32>(ctx, psc.output);
        } else {
          out.ok = true;
          for (const u64 b : out.report.owned_buckets) {
            out.ok = out.ok && core::is_sorted_file<u32>(
                                   ctx.disk(),
                                   core::bucket_file_name(psc.output, b));
          }
        }
      });
      rec.span("egress", [&] {
        core::collect_sorted_output<u32>(ctx, psc, out.report, "all.out", 0);
        if (ctx.rank() == 0) {
          out.gathered = pdm::read_file<u32>(ctx.disk(), "all.out");
        }
      });
      out.spans = std::move(rec.spans);
      out.comm = ctx.comm().stats();
      out.io = ctx.disk().stats();
      out.cpu = thread_cpu_s() - node_cpu0;
      return out;
    });
  });
  const double run_cpu = process_cpu_s() - cpu0;

  std::vector<u32>& sorted = outcome.results[0].gathered;
  bool ok = std::is_sorted(sorted.begin(), sorted.end());
  main_thread.span("write_output", [&] {
    sorted.resize(original);
    write_keys(need(args, "output"), sorted);
  });

  // ---- metrics ----
  std::vector<HostSpan> spans = main_thread.spans;
  std::vector<u64> finals;
  double node_cpu = 0;
  u64 messages = 0, bytes_sent = 0, bytes_read = 0, bytes_written = 0;
  for (const NodeOut& r : outcome.results) {
    ok = ok && r.ok;
    spans.insert(spans.end(), r.spans.begin(), r.spans.end());
    finals.push_back(r.report.final_records);
    node_cpu += r.cpu;
    messages += r.comm.messages_sent;
    bytes_sent += r.comm.bytes_sent;
    bytes_read += r.io.bytes_read;
    bytes_written += r.io.bytes_written;
  }
  const double input_bytes = static_cast<double>(original * sizeof(u32));
  const u64 records = perf.round_up_admissible(original);

  std::map<std::string, double> m;
  // Each layer with the layer it follows on every node.
  const std::pair<const char*, const char*> order[] = {
      {"ingest", ""},         {"backend", "ingest"}, {"seq", "ingest"},
      {"sampling", "seq"},    {"exchange", "sampling"},
      {"verify", "backend"},  {"egress", "verify"}};
  for (const auto& [layer, after] : order) {
    add_layer_metrics(m, spans, layer, after);
  }
  const obs::ClusterTrace trace = core::collect_cluster_trace(outcome);
  if (!compose) {
    add_virtual_layer(m, trace, "seq", {".phase1."});
    add_virtual_layer(m, trace, "sampling", {".phase2."});
    add_virtual_layer(m, trace, "exchange", {".phase3.", ".phase4."});
  }
  for (const char* layer : {"seq", "exchange"}) {
    const auto it = m.find(std::string(layer) + ".cpu_s");
    if (it != m.end()) {
      m[std::string(layer) + ".ns_per_rec"] =
          it->second * 1e9 / static_cast<double>(records);
    }
  }
  m["net.messages"] = static_cast<double>(messages);
  m["net.mb"] = static_cast<double>(bytes_sent) / 1e6;
  m["pdm.write_amp"] = static_cast<double>(bytes_written) / input_bytes;
  m["pdm.read_amp"] = static_cast<double>(bytes_read) / input_bytes;
  m["helpers.cpu_s"] = std::max(0.0, run_cpu - node_cpu);
  m["sampling.expansion"] =
      metrics::sublist_expansion(std::span<const u64>(finals), perf);

  std::map<std::string, std::string> facts;
  facts["ok"] = ok ? "true" : "false";
  facts["makespan"] = default_format(outcome.makespan);
  facts["expansion"] = default_format(m["sampling.expansion"]);
  facts["composed"] = compose ? "true" : "false";
  write_or_fail(prefix + ".layers.json", metrics_json(m, facts));
  write_or_fail(prefix + ".host.json", host_trace_json(spans));
  if (!core::write_obs_outputs(trace, prefix)) fail("cannot write " + prefix);
  return ok ? 0 : 1;
}

// ---- traced service --------------------------------------------------------

/// Reads a --jobs file in the subset of paladin_sort's job syntax the
/// benchmark writes: one job per line, comma-separated key=value fields.
std::vector<service::JobSpec> read_jobs(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  std::vector<service::JobSpec> jobs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    service::JobSpec job;
    job.id = jobs.size();
    std::stringstream fields(line);
    std::string field;
    while (std::getline(fields, field, ',')) {
      const auto eq = field.find('=');
      if (eq == std::string::npos) fail("bad job field " + field);
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      if (key == "n") {
        job.records = std::stoull(value);
      } else if (key == "dist") {
        const auto d = workload::try_parse_dist(value);
        if (!d) fail("bad dist " + value);
        job.dist = *d;
      } else if (key == "algo") {
        const auto a = core::try_parse_algorithm(value);
        if (!a) fail("bad algo " + value);
        job.algorithm = *a;
      } else if (key == "width") {
        job.perf.assign(std::stoul(value), 1);
      } else if (key == "arrival") {
        job.arrival_s = std::stod(value);
      } else if (key == "seed") {
        job.seed = std::stoull(value);
      } else if (key == "id") {
        job.id = std::stoull(value);
      } else {
        fail("unsupported job key " + key);
      }
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

int cmd_trace_service(const Args& args) {
  const Clock::time_point epoch = Clock::now();
  NodeSpans main_thread(nullptr, -1, epoch);
  const std::string prefix = need(args, "prefix");
  const auto policy = service::try_parse_policy(need(args, "policy"));
  if (!policy) fail("unknown --policy");

  service::ServiceConfig sc;
  sc.cluster.perf = parse_perf(need(args, "perf"));
  sc.cluster.observe = true;
  sc.policy = *policy;
  sc.sort.sequential.memory_records = need_u64(args, "memory");
  sc.sort.sequential.allow_in_memory = false;

  std::vector<service::JobSpec> jobs;
  main_thread.span("read_input", [&] { jobs = read_jobs(need(args, "jobs")); });
  service::SortService svc(sc);
  service::ServiceReport report;
  const double cpu0 = process_cpu_s();
  main_thread.span("service", [&] { report = svc.run(jobs); });
  const double run_cpu = process_cpu_s() - cpu0;

  double input_bytes = 0, backend_vs = 0;
  u64 blocks = 0, bytes_read = 0, bytes_written = 0;
  for (const service::JobReport& j : report.jobs) {
    input_bytes += static_cast<double>(j.records * j.spec.record_bytes);
    backend_vs += j.t_total_s;
    blocks += j.io.total_block_ios();
    bytes_read += j.io.bytes_read;
    bytes_written += j.io.bytes_written;
  }
  std::map<std::string, double> m;
  const HostSpan& run = main_thread.spans.back();
  m["service.wall_s"] = run.end - run.begin;
  m["service.cpu_s"] = run_cpu;
  m["service.vs"] = report.makespan_s;
  m["service.blocks"] = static_cast<double>(blocks);
  m["backend.vs"] = backend_vs;
  m["pdm.write_amp"] = static_cast<double>(bytes_written) / input_bytes;
  m["pdm.read_amp"] = static_cast<double>(bytes_read) / input_bytes;

  std::map<std::string, std::string> facts;
  const bool ok = report.all_ok() && report.rejected.empty();
  facts["ok"] = ok ? "true" : "false";
  facts["makespan"] = metrics::TextTable::fmt(report.makespan_s, 3);
  facts["jobs"] = std::to_string(report.jobs.size());
  std::ostringstream lat;
  for (const service::JobReport& j : report.jobs) {
    lat << (lat.tellp() > 0 ? " " : "")
        << metrics::TextTable::fmt(j.latency_s(), 3);
  }
  facts["latencies"] = lat.str();
  write_or_fail(prefix + ".layers.json", metrics_json(m, facts));
  write_or_fail(prefix + ".host.json", host_trace_json(main_thread.spans));
  write_or_fail(prefix + ".report.json",
                service::service_report_json(report));
  return ok ? 0 : 1;
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

int cmd_meta() {
  std::cout << "{\"compiler\": " << json_str(kCompiler)
            << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
            << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency()
            << ", \"merge_pool_threads_per_node\": "
            << seq::resolve_merge_threads(seq::MergeTuning{}.threads)
            << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) fail("usage: perfbench_tool gen-keys|check|trace-sort|"
                     "trace-service|meta [--key value]...");
  const std::string cmd = argv[1];
  const Args args = parse_args(argc, argv, 2);
  try {
    if (cmd == "gen-keys") return cmd_gen_keys(args);
    if (cmd == "check") return cmd_check(args);
    if (cmd == "trace-sort") return cmd_trace_sort(args);
    if (cmd == "trace-service") return cmd_trace_service(args);
    if (cmd == "meta") return cmd_meta();
  } catch (const std::exception& e) {
    fail(cmd + ": " + e.what());
  }
  fail("unknown subcommand " + cmd);
}
