// perfbench: the repository's benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload (workloads.cpp) and prints human-readable lines, a
// `host {...}` stamp, and as its last line one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exit code 0 when every correctness check passed, 1 when
// one failed, 2 on bad arguments or a build that must not be timed.

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

/// Why this build must not report timings, or empty.
std::string untimeable_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#ifndef NDEBUG
  return "assertions enabled (Debug build)";
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) return "Debug build";
  return {};
}

int usage() {
  std::fputs(
      "usage: perfbench --workload campaign_matrix|check_serial|"
      "check_sharded|fuzz_guided --seed N --seconds S --trace 0|1\n",
      stderr);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  const char* end = s + std::strlen(s);
  const auto res = std::from_chars(s, end, out);
  return res.ec == std::errc{} && res.ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::uint64_t seconds = 10;
  std::uint64_t trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[++i] : nullptr;
    if (val == nullptr) return usage();
    if (arg == "--workload") {
      cfg.workload = val;
    } else if (arg == "--seed") {
      if (!parse_u64(val, cfg.seed)) return usage();
    } else if (arg == "--seconds") {
      if (!parse_u64(val, seconds) || seconds == 0 || seconds > 600) {
        return usage();
      }
    } else if (arg == "--trace") {
      if (!parse_u64(val, trace) || trace > 1) return usage();
    } else {
      return usage();
    }
  }
  if (cfg.workload.empty()) return usage();
  cfg.seconds = static_cast<double>(seconds);
  cfg.trace = trace == 1;
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  cfg.host_cores = static_cast<unsigned>(std::max(1L, cores));

  if (const std::string why = untimeable_build(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s\n",
                 why.c_str());
    return 2;
  }

  perfbench::Report report;
  try {
    report = perfbench::run_workload(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  std::printf(
      "host {\"host_cores\": %u, \"compiler\": %s, \"build_type\": %s, "
      "\"threads\": %u, \"workload\": %s, \"seed\": %llu, \"trace\": %d}\n",
      cfg.host_cores, json_string(kCompiler).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), report.threads,
      json_string(cfg.workload).c_str(),
      static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0);

  std::string metrics;
  for (const perfbench::Metric& m : report.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " + number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return report.correct ? 0 : 1;
}
