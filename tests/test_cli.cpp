// End-to-end tests of the paladin_sort command-line tool: real key files in,
// sorted files out, compared byte for byte against std::sort of the input.
// Covers every backend, the max-key padding path, sorting in place, the
// refusals that must exit 1 without leaving an output file behind, and a
// peak-RSS guard showing that a large sort streams instead of buffering.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/temp_dir.h"
#include "base/types.h"

#ifndef PALADIN_SORT_BIN
#error "tests/CMakeLists.txt must define PALADIN_SORT_BIN"
#endif

namespace paladin {
namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  long max_rss_kb = 0;  // the child's peak resident set
  std::string log;      // its stdout and stderr
};

/// Runs paladin_sort with `args`, capturing its output in `log_path`.
RunResult run_cli(const std::vector<std::string>& args,
                  const fs::path& log_path) {
  std::vector<std::string> argv_s = {PALADIN_SORT_BIN};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  RunResult r;
  int status = 0;
  rusage usage{};
  if (pid > 0 && ::wait4(pid, &status, 0, &usage) == pid) {
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    r.max_rss_kb = usage.ru_maxrss;
  }
  std::ifstream log(log_path);
  r.log.assign(std::istreambuf_iterator<char>(log), {});
  return r;
}

void write_keys(const fs::path& path, const std::vector<u32>& keys) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(keys.data()),
            static_cast<std::streamsize>(keys.size() * sizeof(u32)));
}

std::vector<u32> read_keys(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes(std::istreambuf_iterator<char>(in), {});
  std::vector<u32> keys(bytes.size() / sizeof(u32));
  std::copy(bytes.begin(), bytes.end(), reinterpret_cast<char*>(keys.data()));
  return keys;
}

std::vector<u32> random_keys(u64 n, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<u32> keys(n);
  for (u32& k : keys) k = static_cast<u32>(rng.next());
  return keys;
}

/// Files in `dir` whose name starts with `stem` (an output or its
/// temporary sibling).
std::vector<std::string> files_named(const fs::path& dir,
                                     const std::string& stem) {
  std::vector<std::string> found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(stem, 0) == 0) found.push_back(name);
  }
  return found;
}

class CliTest : public ::testing::Test {
 protected:
  fs::path path(const std::string& name) const { return dir_.path() / name; }
  RunResult run(const std::vector<std::string>& args) {
    return run_cli(args, path("log.txt"));
  }
  ScopedTempDir dir_{"cli-test"};
};

class CliBackendTest
    : public CliTest,
      public ::testing::WithParamInterface<const char*> {};

TEST_P(CliBackendTest, SortsAFileLikeStdSort) {
  std::vector<u32> keys = random_keys(60000, 17);
  write_keys(path("in.bin"), keys);
  const RunResult r =
      run({"--input", path("in.bin"), "--output", path("out.bin"), "--perf",
           "4,2,1,1", "--memory", "2048", "--message", "512", "--algorithm",
           GetParam()});
  ASSERT_EQ(r.exit_code, 0) << r.log;
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(read_keys(path("out.bin")), keys);
  EXPECT_EQ(files_named(dir_.path(), "out.bin"),
            std::vector<std::string>{"out.bin"});
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CliBackendTest,
                         ::testing::Values("ext-psrs", "ext-distribution",
                                           "ext-overpartition",
                                           "ext-multiway"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST_F(CliTest, PadsANonAdmissibleLengthAndTrimsThePadding) {
  // 30011 keys on perf {4,2,1} is not admissible, so the tool pads with
  // max-keys; real max-keys in the input must survive the trim.
  std::vector<u32> keys = random_keys(30011, 23);
  for (u64 i = 0; i < keys.size(); i += 997) {
    keys[i] = std::numeric_limits<u32>::max();
  }
  write_keys(path("in.bin"), keys);
  const RunResult r = run({"--input", path("in.bin"), "--output",
                           path("out.bin"), "--perf", "4,2,1", "--memory",
                           "1024"});
  ASSERT_EQ(r.exit_code, 0) << r.log;
  EXPECT_NE(r.log.find("sorting 30011 keys (padded to"), std::string::npos)
      << r.log;
  EXPECT_EQ(r.log.find("padded to 30011)"), std::string::npos) << r.log;
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(read_keys(path("out.bin")), keys);
}

TEST_F(CliTest, SortsInPlace) {
  std::vector<u32> keys = random_keys(40000, 29);
  write_keys(path("data.bin"), keys);
  const RunResult r = run({"--input", path("data.bin"), "--output",
                           path("data.bin"), "--perf", "2,1,1", "--memory",
                           "2048"});
  ASSERT_EQ(r.exit_code, 0) << r.log;
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(read_keys(path("data.bin")), keys);
  EXPECT_EQ(files_named(dir_.path(), "data.bin"),
            std::vector<std::string>{"data.bin"});
}

TEST_F(CliTest, UnwritableOutputExitsOneAndLeavesNoFile) {
  const RunResult r = run({"--demo", "1000", "--output",
                           path("missing-dir/out.bin")});
  EXPECT_EQ(r.exit_code, 1) << r.log;
  EXPECT_NE(r.log.find("cannot write"), std::string::npos) << r.log;
  EXPECT_EQ(r.log.find("wrote"), std::string::npos) << r.log;
  EXPECT_FALSE(fs::exists(path("missing-dir")));

  // An existing directory is no output file either.
  fs::create_directory(path("a-dir"));
  const RunResult d = run({"--demo", "1000", "--output", path("a-dir")});
  EXPECT_EQ(d.exit_code, 1) << d.log;
  EXPECT_EQ(files_named(dir_.path(), "a-dir"),
            std::vector<std::string>{"a-dir"});
  EXPECT_TRUE(fs::is_empty(path("a-dir")));
}

TEST_F(CliTest, TornOrMissingInputExitsOne) {
  {
    std::ofstream torn(path("torn.bin"), std::ios::binary);
    torn << "abcdefg";  // 7 bytes: not a whole number of u32 keys
  }
  const RunResult torn = run({"--input", path("torn.bin"), "--output",
                              path("out.bin")});
  EXPECT_EQ(torn.exit_code, 1) << torn.log;
  EXPECT_NE(torn.log.find("not a whole number"), std::string::npos)
      << torn.log;

  const RunResult missing = run({"--input", path("missing.bin"), "--output",
                                 path("out.bin")});
  EXPECT_EQ(missing.exit_code, 1) << missing.log;
  EXPECT_NE(missing.log.find("cannot open"), std::string::npos)
      << missing.log;
  EXPECT_TRUE(files_named(dir_.path(), "out.bin").empty());
}

// A 64 MB input, 16x the aggregate memory budget, must not be held in RAM:
// the tool streams it through real-file node disks.  Sanitizer builds
// shadow every byte and unoptimised builds are slow, so only optimised,
// uninstrumented builds run this.
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
TEST_F(CliTest, PeakRssStaysBelowTheInputSize) {
  constexpr u64 kKeys = u64{1} << 24;
  constexpr long kInputKb = kKeys * sizeof(u32) / 1024;
  {
    Xoshiro256 rng(31);
    std::ofstream out(path("big.bin"), std::ios::binary);
    std::vector<u32> chunk(u64{1} << 16);
    for (u64 done = 0; done < kKeys; done += chunk.size()) {
      for (u32& k : chunk) k = static_cast<u32>(rng.next());
      out.write(reinterpret_cast<const char*>(chunk.data()),
                static_cast<std::streamsize>(chunk.size() * sizeof(u32)));
    }
  }
  const RunResult r = run({"--input", path("big.bin"), "--output",
                           path("big.bin"), "--perf", "4,4,1,1",
                           "--algorithm", "ext-psrs", "--memory", "262144"});
  ASSERT_EQ(r.exit_code, 0) << r.log;
  EXPECT_LT(r.max_rss_kb, kInputKb) << r.log;
  const std::vector<u32> sorted = read_keys(path("big.bin"));
  EXPECT_EQ(sorted.size(), kKeys);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}
#endif

}  // namespace
}  // namespace paladin
