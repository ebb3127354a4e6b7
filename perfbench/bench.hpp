// Shared vocabulary of the benchmark: timing, sample statistics,
// the metric table a run prints, and the per-layer probe results.
//
// The benchmark measures the program from outside: it calls only public
// library functions, times them with its own steady clock, and reads the
// program's own observers (span profiler, snapshot stats, checker and
// fuzzer results) through their public fields. Nothing here changes how
// the program runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// q-quantile of `v` (0 <= q <= 1) by linear interpolation; 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(): the contract fields of the
/// result line plus human-readable lines printed before it.
struct Report {
  bool correct = true;
  unsigned threads = 1;  ///< worker threads the workload ran
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;
  unsigned failures_logged = 0;

  /// Record a failed check; the first few are printed.
  void fail(std::string why) {
    correct = false;
    if (++failures_logged <= 10) lines.push_back("CHECK FAILED: " + std::move(why));
  }
  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics.push_back(Metric{name, value, unit});
  }
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned host_cores = 1;
};

/// A timed sample series: median latency with its sample count.
struct Latency {
  double ns = 0.0;
  std::uint64_t samples = 0;
};

/// The machine shapes the workloads run on (see workloads.cpp).
enum class Shape { Checker64, Fuzz8192, Campaign32768 };

/// Per-call work the traced run measured, so each probe times a call doing
/// the same work (frames rehashed per hash call, frames copied per
/// restore, frames owned per CoW capture).
struct ProbeWork {
  std::uint64_t frames_per_hash = 1;
  std::uint64_t frames_per_restore = 1;
  std::uint64_t frames_per_cow = 1;
};

/// Median latency of each layer's public call on one machine shape.
struct ProbeResult {
  Latency mmu_walk;        ///< sim::Mmu::walk of a guest directmap VA
  Latency mmu_update;      ///< GuestKernel::mmu_update_one (validated)
  Latency state_hash;      ///< Hypervisor::state_hash, matched dirty frames
  double frames_per_hash = 0.0;  ///< frames the probe's hash calls redid
  Latency state_hash_clean;  ///< state_hash with no frame to redo
  Latency restore_delta;   ///< Hypervisor::restore_delta(base)
  Latency delta_capture;   ///< Hypervisor::snapshot_delta
  Latency cow_capture;     ///< Hypervisor::snapshot_cow
  Latency cow_restore;     ///< Hypervisor::restore_cow
  Latency walk_system;     ///< hv::walk_system
  Latency audit;           ///< InvariantAuditor::audit over a shared walk
  Latency audit_system;    ///< hv::audit_system over a shared walk
  Latency boot;            ///< VirtualPlatform constructor
  Latency baseline;        ///< VirtualPlatform::baseline
  Latency rewind;          ///< VirtualPlatform::restore, matched frames

  /// Cost of one frame digest: the matched hash probe less the clean one.
  [[nodiscard]] double hash_frame_ns() const {
    return frames_per_hash <= 0.0
               ? 0.0
               : std::max(0.0, state_hash.ns - state_hash_clean.ns) /
                     frames_per_hash;
  }
  /// A hash call redoing `frames` frame digests.
  [[nodiscard]] double hash_ns(double frames) const {
    return state_hash_clean.ns + frames * hash_frame_ns();
  }
};

/// Time every layer probe on a fresh machine of `shape` (probes.cpp).
ProbeResult run_probes(Shape shape, const ProbeWork& work);

Report run_workload(const RunConfig& config);

}  // namespace perfbench
