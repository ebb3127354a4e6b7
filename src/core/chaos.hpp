// Deterministic chaos engine: fault injection for the injector itself.
//
// Campaign results are only meaningful if the harness tolerates faults
// without corrupting or silently dropping experiments (the same
// dependability contract classic fault injection inherits — IRIS journals
// every experiment precisely so a crash can't lose or re-randomize work,
// and ReHype shows recovery paths are exactly the code you never exercise
// until it's too late). This module drives those paths on purpose: a
// ChaosEngine holds a splitmix64-seeded plan over a registry of *named*
// chaos points threaded through the stack — cell setup allocation, journal
// writes, supervisor workers, recovery phases, the network simulator and
// the real-socket status server — and decides, deterministically, which
// occurrences of each point fail.
//
// Determinism contract: every point owns a private splitmix64 stream
// seeded from (engine seed, point name), advanced once per occurrence.
// Same seed + same plan + same execution ⇒ byte-identical fault schedule
// (schedule_log()), so every chaos run is a reproducible test case. Under
// multi-threaded execution the *decisions* per (point, occurrence index)
// are still fixed; only the attribution of occurrence indices to threads
// can vary — run single-threaded when the schedule log itself is cmp-gated
// (bench/chaos_soak.sh does).
//
// Cost model, same as TraceSink/SpanProfiler: with no engine installed a
// chaos point is one branch on an atomic load. Points are compiled in
// unconditionally — the whole value of the exercise is that production
// binaries run the exact code chaos tests.
//
// Layering: this header is self-contained (standard library only) and
// compiled into its own ii_chaos library, so src/hv and src/net can hit
// chaos points without depending on the rest of src/core.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ii::core {

// ------------------------------------------------------------- primitives

/// splitmix64 step: advances `state` and returns the next value of the
/// stream. The canonical 64-bit seeding primitive (also used by the fuzz
/// campaign's seed expansion); full 64-bit state, no truncation.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a over bytes; the journal's per-line checksum and the engine's
/// point-name seeding both use it.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

// ----------------------------------------------------------- fault model

/// A worker thread "dies" mid-cell: thrown at a worker.crash chaos point
/// inside the supervisor's cell loop and caught at the worker boundary,
/// which releases the worker's claimed use case for re-claiming and lets
/// the thread exit — the in-process analogue of a killed worker process.
struct WorkerCrash : std::runtime_error {
  WorkerCrash() : std::runtime_error{"chaos: worker crashed"} {}
};

/// The whole campaign process "dies": latched by the supervisor.kill chaos
/// point after a journal append; CampaignSupervisor::run drains its
/// workers and throws this. The journal keeps everything appended so far —
/// resuming must reproduce the uninterrupted run's report byte-for-byte.
struct CampaignKilled : std::runtime_error {
  CampaignKilled()
      : std::runtime_error{
            "chaos: campaign killed mid-run (journal intact; resume to "
            "continue)"} {}
};

// ------------------------------------------------------------------ plan

/// Per-point fault schedule: fire on a permille coin flip per occurrence,
/// at explicit occurrence indices (1-based), or both.
struct ChaosSpec {
  std::uint32_t rate_permille = 0;       ///< 0..1000 per-occurrence chance
  std::vector<std::uint64_t> fire_at;    ///< explicit occurrence indices
};

/// point name -> spec. Only registered point names are valid.
using ChaosPlan = std::map<std::string, ChaosSpec, std::less<>>;

/// Parse "point=permille,point@N,point@M" (tokens comma-separated; '='
/// sets the rate, '@' appends an explicit occurrence; repeated tokens
/// merge). Throws std::invalid_argument on syntax errors or names missing
/// from the chaos-point registry.
[[nodiscard]] ChaosPlan parse_chaos_plan(const std::string& text);

// -------------------------------------------------------------- registry

/// One row of the chaos-point registry: every name passed to chaos_fire()
/// anywhere in src/ must have a row (ii_analyze rule chaos-point-registry),
/// so the vocabulary of injectable faults is closed and documented.
struct ChaosPointEntry {
  std::string_view name;
  std::string_view description;
};

/// Registry description for `name`; empty when unregistered.
[[nodiscard]] std::string_view chaos_point_description(std::string_view name);

/// All registered point names, for tooling and tests.
[[nodiscard]] std::vector<std::string_view> registered_chaos_points();

// ---------------------------------------------------------------- engine

class ChaosEngine {
 public:
  /// Builds per-point streams: state = splitmix64 of (seed ^ fnv1a(name)).
  /// Throws std::invalid_argument when the plan names unregistered points.
  ChaosEngine(std::uint64_t seed, ChaosPlan plan);

  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;
  ~ChaosEngine();

  /// Decide whether this occurrence of `point` fails. Advances the point's
  /// occurrence counter and stream; appends to the schedule log on a hit.
  /// Points absent from the plan never fire (and keep no state).
  [[nodiscard]] bool fire(std::string_view point);

  /// Stop a point from ever firing again (the supervisor's backstop
  /// against a crash-looping plan that would otherwise starve progress).
  void disable(std::string_view point);

  [[nodiscard]] std::uint64_t fired(std::string_view point) const;
  [[nodiscard]] std::uint64_t total_fired() const;

  /// The reproducible fault schedule: a header binding seed and plan, then
  /// one line per fired fault in decision order.
  [[nodiscard]] std::string schedule_log() const;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Process-global installation (chaos points live below layers a config
  /// pointer could reach — recovery, the net simulator). Install nullptr
  /// to disarm. The caller keeps ownership; ~ChaosEngine auto-disarms
  /// itself so a dying engine can never dangle.
  static void install(ChaosEngine* engine);
  [[nodiscard]] static ChaosEngine* instance();

 private:
  struct PointState {
    ChaosSpec spec;
    std::uint64_t rng = 0;          ///< private splitmix64 stream
    std::uint64_t occurrences = 0;  ///< times this point was reached
    std::uint64_t fired = 0;
    bool disabled = false;
  };

  std::uint64_t seed_;
  std::string plan_text_;  ///< canonical re-render, for the log header
  mutable std::mutex mu_;
  std::map<std::string, PointState, std::less<>> points_;
  std::vector<std::string> log_;
  std::uint64_t total_fired_ = 0;
};

/// RAII install/disarm, for tests and CLIs.
class ChaosScope {
 public:
  explicit ChaosScope(ChaosEngine& engine) { ChaosEngine::install(&engine); }
  ~ChaosScope() { ChaosEngine::install(nullptr); }
  ChaosScope(const ChaosScope&) = delete;
  ChaosScope& operator=(const ChaosScope&) = delete;
};

/// The chaos point primitive: false (one atomic load) when no engine is
/// installed. `point` must be a registered name — ii_analyze rule
/// chaos-point-registry greps call sites against the registry table.
[[nodiscard]] bool chaos_fire(std::string_view point);

}  // namespace ii::core
