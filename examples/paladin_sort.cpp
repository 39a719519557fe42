// paladin_sort — command-line front end: sort a real binary file of
// little-endian u32 keys on a simulated heterogeneous cluster with any of
// the parallel external-sort backends, and write the sorted file back.
// Node disks are real files in a temporary directory and the input and
// output are streamed, so the keys need not fit in RAM.
//
//   build/examples/paladin_sort --input keys.bin --output sorted.bin \
//       --perf 4,4,1,1 [--algorithm ext-psrs|ext-distribution|...]
//       [--memory 1048576] [--message 8192] [--net myrinet]
//
// With --demo N the tool generates N keys itself (--dist selects the
// input distribution, including the adversarial ones: zero, sorted,
// reverse-sorted, zipf, ...), so it runs without any input file.  The
// simulated execution-time breakdown and the balance metric are printed
// either way; --obs-out writes the phase-span trace for every backend.
//
// With --jobs SPEC the tool switches to sort-as-a-service mode
// (docs/SERVICE.md): SPEC is either a file or an inline string of
// ';'/newline-separated jobs, each a comma-separated key=value list
//   n=4096,dist=zipf,algo=ext-psrs,width=2,arrival=0.5,priority=1
// run through the multi-job scheduler under --policy fifo|fair-share on
// the shared simulated cluster.  --obs-out then writes the aggregated
// per-job service report (PREFIX.report.json).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "base/temp_dir.h"
#include "core/backend.h"
#include "core/scatter_gather.h"
#include "core/sort_driver.h"
#include "core/verify.h"
#include "hetero/drift.h"
#include "hetero/perf_vector.h"
#include "metrics/expansion.h"
#include "metrics/table.h"
#include "net/cluster.h"
#include "obs/export.h"
#include "pdm/typed_io.h"
#include "service/service.h"
#include "workload/generators.h"

using namespace paladin;

namespace {

/// Parses all of `text` as a decimal integer in [lo, hi].  Unlike
/// std::stoull it refuses a sign ("-1" would wrap), trailing characters
/// ("12x" would read as 12) and out-of-range values.
u64 parse_uint(const std::string& text, u64 lo,
               u64 hi = std::numeric_limits<u64>::max()) {
  u64 v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) {
    throw std::invalid_argument("expected an integer in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  }
  return v;
}

/// A finite, non-negative decimal number (all of `text`).
double parse_seconds(const std::string& text) {
  std::size_t used = 0;
  const double v = std::stod(text, &used);
  if (used != text.size() || !std::isfinite(v) || v < 0.0) {
    throw std::invalid_argument("expected a finite number >= 0");
  }
  return v;
}

struct Options {
  std::string input;
  std::string output = "sorted.bin";
  std::vector<u32> perf = {1, 1, 1, 1};
  core::ParallelSortAlgorithm algorithm =
      core::ParallelSortAlgorithm::kExtPsrs;
  core::SplitterStrategy splitter = core::SplitterStrategy::kAuto;
  u64 memory_records = u64{1} << 20;
  u64 message_records = 8192;
  std::string net = "fast-ethernet";
  u64 demo_records = 0;
  workload::Dist demo_dist = workload::Dist::kUniform;
  std::string obs_out;
  std::string jobs;  // file or inline spec; non-empty = service mode
  service::SchedulePolicy policy = service::SchedulePolicy::kFifo;
  hetero::DriftPlan drift;  // --drift; inactive by default
  bool adaptive = false;    // --adaptive

  static void usage() {
    std::cout
        << "paladin_sort --input FILE [--output FILE] [--perf a,b,c,...]\n"
           "             [--algorithm NAME]  (one of: "
        << core::algorithm_names()
        << ")\n"
           "             [--splitter NAME]  (one of: "
        << core::splitter_strategy_names()
        << ")\n"
           "             [--memory RECORDS] [--message RECORDS]\n"
           "             [--net fast-ethernet|myrinet|infinite]\n"
           "             [--demo N]   (generate N keys instead of --input)\n"
           "             [--dist NAME]  (--demo distribution; one of: "
        << workload::dist_names()
        << ")\n"
           "             [--obs-out PREFIX]  (write PREFIX.trace.json + "
           "PREFIX.report.json)\n"
           "             [--jobs FILE|SPEC]  (service mode: "
           "';'-separated k=v jobs,\n"
           "                 keys: n dist algo width arrival priority "
           "seed bytes id)\n"
           "             [--policy NAME]  (--jobs policy; one of: "
        << service::policy_names()
        << ")\n"
           "             [--drift SPEC]  (seeded speed drift, e.g.\n"
           "                 seed=7,epoch=0.5,prob=0.25,factor=4,regime=2"
           "[,force=rank:from:until:factor])\n"
           "             [--adaptive]  (re-estimate node speeds mid-run "
           "and re-split partitions)\n";
  }

  /// A malformed flag value is a usage error: message, usage, exit 2.
  [[noreturn]] static void bad_value(const std::string& what,
                                     const std::string& value,
                                     const std::exception& e) {
    std::cerr << "bad value '" << value << "' for " << what << " ("
              << e.what() << ")\n";
    usage();
    std::exit(2);
  }

  static Options parse(int argc, char** argv) {
    Options opt;
    auto need_value = [&](int& i) -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    auto need_count = [&](int& i) -> u64 {
      const std::string flag = argv[i];
      const std::string value = need_value(i);
      try {
        return parse_uint(value, 1);
      } catch (const std::exception& e) {
        bad_value(flag, value, e);
      }
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--input") {
        opt.input = need_value(i);
      } else if (arg == "--output") {
        opt.output = need_value(i);
      } else if (arg == "--perf") {
        const std::string value = need_value(i);
        opt.perf.clear();
        try {
          std::stringstream ss(value);
          std::string item;
          while (std::getline(ss, item, ',')) {
            opt.perf.push_back(static_cast<u32>(
                parse_uint(item, 1, std::numeric_limits<u32>::max())));
          }
          if (opt.perf.empty()) {
            throw std::invalid_argument("expected a,b,c,...");
          }
        } catch (const std::exception& e) {
          bad_value(arg, value, e);
        }
      } else if (arg == "--algorithm") {
        const std::string name = need_value(i);
        const auto algo = core::try_parse_algorithm(name);
        if (!algo) {
          std::cerr << "unknown algorithm '" << name
                    << "'; valid: " << core::algorithm_names() << "\n";
          std::exit(2);
        }
        opt.algorithm = *algo;
      } else if (arg == "--splitter") {
        const std::string name = need_value(i);
        if (!core::try_parse_splitter_strategy(name, opt.splitter)) {
          std::cerr << "unknown splitter strategy '" << name
                    << "'; valid: " << core::splitter_strategy_names()
                    << "\n";
          std::exit(2);
        }
      } else if (arg == "--memory") {
        opt.memory_records = need_count(i);
      } else if (arg == "--message") {
        opt.message_records = need_count(i);
      } else if (arg == "--net") {
        opt.net = need_value(i);
      } else if (arg == "--demo") {
        opt.demo_records = need_count(i);
      } else if (arg == "--dist") {
        const std::string name = need_value(i);
        const auto dist = workload::try_parse_dist(name);
        if (!dist) {
          std::cerr << "unknown distribution '" << name
                    << "'; valid: " << workload::dist_names() << "\n";
          std::exit(2);
        }
        opt.demo_dist = *dist;
      } else if (arg == "--obs-out") {
        opt.obs_out = need_value(i);
      } else if (arg == "--jobs") {
        opt.jobs = need_value(i);
      } else if (arg == "--drift") {
        const std::string spec = need_value(i);
        try {
          opt.drift = hetero::parse_drift_plan(spec);
        } catch (const std::exception& e) {
          std::cerr << "bad --drift spec '" << spec << "' (" << e.what()
                    << ")\n";
          std::exit(2);
        }
      } else if (arg == "--adaptive") {
        opt.adaptive = true;
      } else if (arg == "--policy") {
        const std::string name = need_value(i);
        const auto policy = service::try_parse_policy(name);
        if (!policy) {
          std::cerr << "unknown policy '" << name
                    << "'; valid: " << service::policy_names() << "\n";
          std::exit(2);
        }
        opt.policy = *policy;
      } else {
        usage();
        std::exit(arg == "--help" || arg == "-h" ? 0 : 2);
      }
    }
    if (opt.input.empty() && opt.demo_records == 0 && opt.jobs.empty()) {
      usage();
      std::exit(2);
    }
    return opt;
  }
};

/// Demo keys: the perf-proportional concatenation of per-node generator
/// shares, so each node's scattered slice is exactly what the distribution
/// says that node should hold (kStaggered, kGGroup etc. are per-node
/// patterns, not just global shapes).  One share is in RAM at a time.
void push_demo_keys(pdm::BlockWriter<u32>& w, const Options& opt,
                    const hetero::PerfVector& perf, u64 n) {
  workload::WorkloadSpec spec;
  spec.dist = opt.demo_dist;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = 2026;
  for (u32 i = 0; i < perf.node_count(); ++i) {
    const std::vector<DefaultKey> share = workload::generate_share(
        spec, i, perf.share_offset(i, n), perf.share(i, n));
    w.push_span(std::span<const u32>(share));
  }
}

/// Opens --input for streaming and returns its key count; exits 1 when it
/// cannot be read or is not a whole number of keys.
u64 open_input(const std::string& path, std::ifstream& in) {
  in.open(path, std::ios::binary | std::ios::ate);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    std::exit(1);
  }
  const auto bytes = static_cast<u64>(in.tellg());
  if (bytes % sizeof(u32) != 0) {
    std::cerr << path << " is not a whole number of u32 keys\n";
    std::exit(1);
  }
  in.seekg(0);
  return bytes / sizeof(u32);
}

/// The --output file under construction: a temporary sibling that replaces
/// the target only on commit() and is removed otherwise.  Creating it up
/// front makes an unwritable --output fail before any sort work, and
/// sorting a file in place reads all of the input before the rename.
class PendingOutput {
 public:
  explicit PendingOutput(const std::string& path)
      : path_(path), tmp_(path + ".partial-" + std::to_string(::getpid())) {
    if (std::filesystem::is_directory(path_)) {
      throw std::runtime_error("cannot write " + path_ + ": a directory");
    }
    stream_.open(tmp_, std::ios::binary | std::ios::trunc);
    if (!stream_) throw std::runtime_error("cannot write " + path_);
  }
  PendingOutput(const PendingOutput&) = delete;
  PendingOutput& operator=(const PendingOutput&) = delete;
  ~PendingOutput() {
    if (committed_) return;
    stream_.close();
    std::error_code ec;  // best effort; never throw from a destructor
    std::filesystem::remove(tmp_, ec);
  }

  std::ofstream& stream() { return stream_; }

  /// Completes the temporary file and renames it over the target.
  void commit() {
    stream_.close();
    if (!stream_) throw std::runtime_error("failed writing " + tmp_);
    std::filesystem::rename(tmp_, path_);
    committed_ = true;
  }

 private:
  std::string path_;
  std::string tmp_;
  std::ofstream stream_;
  bool committed_ = false;
};

/// What rank 0 saw while streaming the gathered output.
struct Egress {
  u64 records = 0;
  bool sorted = true;
};

/// Streams the gathered, padded sort output `name` into `out`, keeping its
/// first `keep` keys (the padding sorts last), and checks global order on
/// the way.
Egress stream_egress(pdm::Disk& disk, const std::string& name, u64 keep,
                     std::ostream& out) {
  Egress e;
  u32 last = 0;
  pdm::read_file_streamed<u32>(disk, name, [&](std::span<const u32> chunk) {
    e.sorted = e.sorted && (e.records == 0 || last <= chunk.front()) &&
               std::is_sorted(chunk.begin(), chunk.end());
    last = chunk.back();
    const u64 take =
        std::min<u64>(chunk.size(), keep - std::min(keep, e.records));
    out.write(reinterpret_cast<const char*>(chunk.data()),
              static_cast<std::streamsize>(take * sizeof(u32)));
    e.records += chunk.size();
  });
  return e;
}

// --- sort-as-a-service mode (--jobs) -------------------------------------

/// Widths clamp to the cluster at admission; this bound only keeps the
/// placeholder perf vector of a typo like width=99999999999 allocatable.
constexpr u64 kMaxJobWidth = u64{1} << 16;

/// One `key=value` pair applied to a JobSpec.  Exits with a message on an
/// unknown key or unparsable value — the spec is user input.
void apply_job_field(service::JobSpec& job, const std::string& key,
                     const std::string& value) {
  constexpr u64 kU32Max = std::numeric_limits<u32>::max();
  try {
    if (key == "n" || key == "records") {
      job.records = parse_uint(value, 0);
    } else if (key == "dist") {
      const auto dist = workload::try_parse_dist(value);
      if (!dist) throw std::invalid_argument(workload::dist_names());
      job.dist = *dist;
    } else if (key == "algo" || key == "algorithm") {
      const auto algo = core::try_parse_algorithm(value);
      if (!algo) throw std::invalid_argument(core::algorithm_names());
      job.algorithm = *algo;
    } else if (key == "width") {
      job.perf.assign(parse_uint(value, 0, kMaxJobWidth), 1);
    } else if (key == "arrival") {
      job.arrival_s = parse_seconds(value);
    } else if (key == "priority") {
      job.priority = static_cast<u32>(parse_uint(value, 0, kU32Max));
    } else if (key == "seed") {
      job.seed = parse_uint(value, 0);
    } else if (key == "bytes") {
      job.record_bytes = static_cast<u32>(parse_uint(value, 0, kU32Max));
    } else if (key == "id") {
      job.id = parse_uint(value, 0);
    } else {
      std::cerr << "unknown job key '" << key
                << "'; valid: n dist algo width arrival priority seed "
                   "bytes id\n";
      std::exit(2);
    }
  } catch (const std::exception& e) {
    Options::bad_value("job key '" + key + "'", value, e);
  }
}

/// Parse a --jobs spec: if the argument names a readable file its contents
/// are the spec, otherwise the argument itself is.  Jobs are separated by
/// ';' or newlines; '#' starts a comment line; each job is a
/// comma-separated key=value list.  Ids default to the job's position.
std::vector<service::JobSpec> parse_jobs(const std::string& arg) {
  std::string text = arg;
  if (std::ifstream file(arg); file) {
    std::ostringstream buf;
    buf << file.rdbuf();
    text = buf.str();
  }
  for (char& c : text) {
    if (c == '\n') c = ';';
  }
  std::vector<service::JobSpec> jobs;
  std::stringstream lines(text);
  std::string line;
  while (std::getline(lines, line, ';')) {
    const auto start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    service::JobSpec job;
    job.id = jobs.size();
    std::stringstream fields(line);
    std::string field;
    while (std::getline(fields, field, ',')) {
      const auto eq = field.find('=');
      if (eq == std::string::npos) {
        std::cerr << "job field '" << field << "' is not key=value\n";
        std::exit(2);
      }
      auto trim = [](std::string s) {
        const auto a = s.find_first_not_of(" \t\r");
        const auto b = s.find_last_not_of(" \t\r");
        return a == std::string::npos ? std::string() : s.substr(a, b - a + 1);
      };
      apply_job_field(job, trim(field.substr(0, eq)),
                      trim(field.substr(eq + 1)));
    }
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) {
    std::cerr << "--jobs spec contains no jobs\n";
    std::exit(2);
  }
  return jobs;
}

/// Service mode: run the parsed workload through the multi-job scheduler
/// on the shared cluster and print the per-job report.
int run_service(const Options& opt, const net::ClusterConfig& config) {
  service::ServiceConfig sc;
  sc.cluster = config;
  sc.policy = opt.policy;
  sc.sort.splitter.strategy = opt.splitter;
  sc.sort.adaptive.enabled = opt.adaptive;
  sc.sort.sequential.memory_records = opt.memory_records;
  sc.sort.sequential.allow_in_memory = false;
  sc.sort.message_records = opt.message_records;

  const std::vector<service::JobSpec> jobs = parse_jobs(opt.jobs);
  std::cout << "service mode: " << jobs.size() << " job(s), policy "
            << service::to_string(opt.policy) << ", cluster perf "
            << hetero::PerfVector(config.perf).to_string() << ", "
            << config.network.name << "\n";

  service::SortService svc(sc);
  const service::ServiceReport report = svc.run(jobs);

  for (const auto& [spec, reason] : report.rejected) {
    std::cerr << "rejected job " << spec.id << ": " << reason << "\n";
  }

  metrics::TextTable t({"job", "algorithm", "dist", "records", "width",
                        "arrival", "start", "finish", "latency (s)", "ok"});
  for (const service::JobReport& j : report.jobs) {
    t.add_row({std::to_string(j.spec.id), core::to_string(j.spec.algorithm),
               workload::to_string(j.spec.dist), std::to_string(j.records),
               std::to_string(j.nodes.size()),
               metrics::TextTable::fmt(j.arrival_s, 3),
               metrics::TextTable::fmt(j.start_s, 3),
               metrics::TextTable::fmt(j.finish_s, 3),
               metrics::TextTable::fmt(j.latency_s(), 3),
               j.ok ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "makespan " << metrics::TextTable::fmt(report.makespan_s, 3)
            << " s; " << metrics::TextTable::fmt(report.jobs_per_vsecond(), 3)
            << " jobs/vsec; latency p50/p95/p99 "
            << metrics::TextTable::fmt(
                   latency_percentile(report.jobs, 0.50), 3)
            << "/"
            << metrics::TextTable::fmt(
                   latency_percentile(report.jobs, 0.95), 3)
            << "/"
            << metrics::TextTable::fmt(
                   latency_percentile(report.jobs, 0.99), 3)
            << " s\n";

  if (!opt.obs_out.empty()) {
    if (obs::write_text_file(opt.obs_out + ".report.json",
                             service::service_report_json(report))) {
      std::cout << "wrote " << opt.obs_out
                << ".report.json (aggregated service report)\n";
    } else {
      std::cerr << "warning: failed to write " << opt.obs_out
                << ".report.json\n";
    }
  }
  if (!report.all_ok()) {
    std::cerr << "a job failed verification\n";
    return 1;
  }
  return report.rejected.empty() ? 0 : 1;
}

}  // namespace

int run_cli(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);

  hetero::PerfVector perf(opt.perf);

  net::ClusterConfig config;
  config.perf = opt.perf;
  if (opt.net == "myrinet") {
    config.network = net::NetworkModel::myrinet();
  } else if (opt.net == "infinite") {
    config.network = net::NetworkModel::infinite();
  } else if (opt.net != "fast-ethernet") {
    std::cerr << "unknown network: " << opt.net << "\n";
    return 2;
  }
  config.observe = !opt.obs_out.empty();
  config.drift_plan = opt.drift;
  if (config.drift_plan.active()) {
    std::cout << "speed drift: " << hetero::drift_plan_to_string(opt.drift)
              << (opt.adaptive ? " (adaptive repartitioning on)" : "")
              << "\n";
  }

  if (!opt.jobs.empty()) {
    return run_service(opt, config);
  }

  // Validate the input and the output before any sort work.
  std::ifstream input;
  u64 original = 0;
  u64 n = 0;
  if (opt.demo_records > 0) {
    n = perf.round_up_admissible(opt.demo_records);
    original = n;  // every generated key is real data
  } else {
    original = open_input(opt.input, input);
    // Pad to an admissible size with max-keys; they sort to the end and
    // are trimmed from the output.
    n = perf.round_up_admissible(original);
  }
  PendingOutput output(opt.output);

  // Node disks are real files: the data need not fit in RAM.
  const ScopedTempDir scratch("paladin_sort");
  config.workdir = scratch.path();

  std::cout << "sorting " << original << " keys (padded to " << n << ") on "
            << perf.node_count() << " nodes, perf " << perf.to_string()
            << ", " << config.network.name << ", algorithm "
            << core::to_string(opt.algorithm) << "\n";

  core::ParallelSortConfig psc;
  psc.algorithm = opt.algorithm;
  psc.splitter.strategy = opt.splitter;
  psc.adaptive.enabled = opt.adaptive;
  psc.sequential.memory_records = opt.memory_records;
  psc.sequential.allow_in_memory = false;
  psc.message_records = opt.message_records;

  net::Cluster cluster(config);
  struct NodeOut {
    core::ParallelSortReport report;
    Egress egress;  // only at root
    bool ok = false;
  };
  auto outcome = cluster.run([&](net::NodeContext& ctx) -> NodeOut {
    NodeOut out;
    if (ctx.rank() == 0) {
      const u64 pushed = pdm::write_file_streamed<u32>(
          ctx.disk(), "all.in", n, std::numeric_limits<u32>::max(),
          [&](pdm::BlockWriter<u32>& w) {
            if (opt.demo_records > 0) {
              push_demo_keys(w, opt, perf, n);
            } else {
              pdm::push_stream(w, input);
            }
          });
      if (pushed != original) {
        throw std::runtime_error(opt.input + " changed while being read");
      }
    }
    core::scatter_shares<u32>(ctx, perf, "all.in", "input", 0,
                              opt.message_records);

    out.report = core::parallel_external_sort<u32>(ctx, perf, psc);

    out.ok = core::verify_output_order<u32>(ctx, psc.output, out.report);

    core::collect_sorted_output<u32>(ctx, psc, out.report, "all.out", 0);
    if (ctx.rank() == 0) {
      out.egress =
          stream_egress(ctx.disk(), "all.out", original, output.stream());
    }
    return out;
  });

  metrics::TextTable t({"node", "share", "final", "total (s)"});
  std::vector<u64> finals;
  for (u32 i = 0; i < perf.node_count(); ++i) {
    const auto& r = outcome.results[i].report;
    finals.push_back(r.final_records);
    t.add_row({std::to_string(i), std::to_string(r.local_records),
               std::to_string(r.final_records),
               metrics::TextTable::fmt(r.t_total, 2)});
    if (!outcome.results[i].ok) {
      std::cerr << "verification failed on node " << i << "\n";
      return 1;
    }
  }
  if (!opt.obs_out.empty()) {
    obs::ClusterTrace trace = core::collect_cluster_trace(outcome);
    trace.set_meta("tool", "paladin_sort");
    trace.set_meta("algorithm", core::to_string(opt.algorithm));
    trace.set_meta("perf", perf.to_string());
    trace.set_meta("network", config.network.name);
    trace.set_meta("records", std::to_string(n));
    if (core::write_obs_outputs(trace, opt.obs_out)) {
      std::cout << "wrote " << opt.obs_out << ".trace.json and "
                << opt.obs_out << ".report.json\n";
    } else {
      std::cerr << "warning: failed to write --obs-out files under "
                << opt.obs_out << "\n";
    }
  }

  t.print(std::cout);
  std::cout << "simulated makespan: " << outcome.makespan
            << " s; sublist expansion: "
            << metrics::sublist_expansion(std::span<const u64>(finals), perf)
            << "\n";

  const Egress& egress = outcome.results[0].egress;
  if (egress.records != n) {
    std::cerr << "gathered output holds " << egress.records
              << " keys, expected " << n << "\n";
    return 1;
  }
  if (!egress.sorted) {
    std::cerr << "gathered output is not globally sorted\n";
    return 1;
  }
  output.commit();
  std::cout << "wrote " << original << " sorted keys to " << opt.output
            << "\n";
  return 0;
}

int main(int argc, char** argv) {
  // Flag errors exit 2 from Options::parse; anything the run itself
  // refuses (a contract the input breaks, an allocation it cannot get)
  // ends here with a message instead of an abort.
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "paladin_sort: " << e.what() << "\n";
    return 1;
  }
}
