// Randomized injection campaign (paper §IV-C's fuzz-style suggestion,
// implemented as an extension experiment) plus the coverage-guided
// sequence fuzzer's performance evidence (DESIGN.md §17, BENCH_PR10.json):
//
//  1. the blind write-what-where campaign across the three releases
//     (outcome distributions): the sequence fuzzer with no feedback,
//     one-op traces and the injector's write as its only op kind;
//  2. warm-vs-cold throughput of the blind campaign — one boot plus
//     delta rewinds vs replay_trace (a fresh boot) over the same draws;
//  3. guided-vs-blind coverage at equal iteration budgets across seeds
//     (the acceptance claim: guided must reach strictly more);
//  4. the guided run's coverage growth curve per 1k iterations.
//
// Emits BENCH_JSON lines like perf_microbench so CI can collect them.
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "core/fuzz.hpp"

namespace {

using Clock = std::chrono::steady_clock;

ii::core::SeqFuzzConfig seq_config(std::uint64_t seed, unsigned iterations,
                                   bool guided) {
  ii::core::SeqFuzzConfig config;
  config.version = ii::hv::kXen46;
  config.seed = seed;
  config.iterations = iterations;
  config.guided = guided;
  config.minimize = false;  // coverage comparison, not survivor triage
  config.platform.machine_frames = 8192;
  config.platform.dom0_pages = 128;
  config.platform.guest_pages = 64;
  return config;
}

/// The §IV-C blind campaign: one injector write per iteration, no feedback.
ii::core::SeqFuzzConfig blind_config(ii::hv::XenVersion version,
                                     unsigned iterations) {
  ii::core::SeqFuzzConfig config = seq_config(7, iterations, false);
  config.version = version;
  config.max_ops = 1;
  config.injector_only = true;
  return config;
}

/// One regenerated blind-campaign draw: its target class and its op.
struct BlindDraw {
  ii::core::FuzzTarget target;
  ii::hv::GuestOp op;
};

/// The op each iteration of a blind_config run draws, regenerated from the
/// public draw helpers: an injector-only one-op trace draws its target
/// first, then the injection.
std::vector<BlindDraw> blind_draws(const ii::core::SeqFuzzConfig& config) {
  ii::guest::PlatformConfig pc = config.platform;
  pc.version = config.version;
  pc.injector_enabled = true;
  ii::guest::VirtualPlatform platform{pc};
  std::vector<BlindDraw> draws;
  for (unsigned i = 0; i < config.iterations; ++i) {
    std::mt19937_64 rng = ii::core::rng_for(config.seed, i);
    BlindDraw d{static_cast<ii::core::FuzzTarget>(
                    ii::core::draw_below(rng, ii::core::kFuzzTargetCount)),
                {}};
    d.op.caller = platform.guest(0).id();
    d.op.peer = ii::hv::kDom0;
    ii::core::draw_injection(rng, platform, d.target, &d.op.addr,
                             &d.op.value);
    draws.push_back(d);
  }
  return draws;
}

constexpr std::array<const char*, ii::core::kFuzzTargetCount> kTargetNames{
    "own L1 slot", "own L4 slot", "IDT gate bytes", "shared Xen L3 slot",
    "wild physical address"};

/// The §IV-C report: outcome histogram, then the targets drawn.
void print_blind_campaign(const ii::core::SeqFuzzConfig& config,
                          const ii::core::SeqFuzzStats& stats) {
  const auto refused = stats.outcomes.find(ii::core::FuzzOutcome::Refused);
  std::printf("randomized injections: %u (refused: %u)\n", stats.iterations,
              refused == stats.outcomes.end() ? 0u : refused->second);
  for (const auto& [outcome, count] : stats.outcomes) {
    std::printf("  %s: %u\n", ii::core::to_string(outcome).c_str(), count);
  }
  std::map<ii::core::FuzzTarget, unsigned> targets;
  for (const BlindDraw& d : blind_draws(config)) ++targets[d.target];
  std::printf("targets drawn:\n");
  for (const auto& [target, count] : targets) {
    std::printf("  %s: %u\n", kTargetNames[static_cast<std::size_t>(target)],
                count);
  }
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  using namespace ii;
  const unsigned cores = std::thread::hardware_concurrency();

  // 1. Blind campaign across releases (the original experiment).
  for (const hv::XenVersion version : {hv::kXen46, hv::kXen48, hv::kXen413}) {
    const core::SeqFuzzConfig config = blind_config(version, 60);
    const core::SeqFuzzStats stats = core::run_sequence_fuzzer(config);
    std::printf("== Xen %s ==\n", version.to_string().c_str());
    print_blind_campaign(config, stats);
    std::printf("\n");
  }

  // 2. Warm (delta rewind) vs cold (fresh boot per iteration) throughput,
  // over the same 200 draws; both must classify every draw alike.
  const core::SeqFuzzConfig timed = blind_config(hv::kXen46, 200);
  const std::vector<BlindDraw> draws = blind_draws(timed);
  std::map<core::FuzzOutcome, unsigned> warm_outcomes;
  std::map<core::FuzzOutcome, unsigned> cold_outcomes;
  for (const bool warm : {true, false}) {
    const auto t0 = Clock::now();
    if (warm) {
      warm_outcomes = core::run_sequence_fuzzer(timed).outcomes;
    } else {
      for (const BlindDraw& d : draws) {
        ++cold_outcomes[core::replay_trace(timed, {&d.op, 1}).outcome];
      }
    }
    const double ms = ms_since(t0);
    const double iters_per_sec = 200.0 / (ms / 1000.0);
    std::printf("blind campaign %s: 200 iterations in %.1f ms "
                "(%.0f iterations/sec)\n",
                warm ? "warm" : "cold", ms, iters_per_sec);
    std::printf("BENCH_JSON {\"name\":\"fuzz_blind_%s_200\","
                "\"wall_ms\":%.1f,\"iters_per_sec\":%.1f,"
                "\"host_cores\":%u}\n",
                warm ? "warm" : "cold", ms, iters_per_sec, cores);
  }
  const bool warm_matches_cold = warm_outcomes == cold_outcomes;
  if (!warm_matches_cold) {
    std::printf("blind campaign: warm and cold outcomes DIFFER\n");
  }

  // 3. Guided vs blind coverage at equal budgets. The strictly-more gate
  // applies at 1500 iterations, where the feedback loop has had time to
  // pay for its corpus warm-up; the 400-iteration cells are recorded as
  // the honest short-budget picture (guided usually ahead, not always).
  bool guided_always_ahead = true;
  for (const unsigned budget : {400u, 1500u}) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      const auto t0 = Clock::now();
      const core::SeqFuzzStats g =
          core::run_sequence_fuzzer(seq_config(seed, budget, true));
      const double guided_ms = ms_since(t0);
      const core::SeqFuzzStats b =
          core::run_sequence_fuzzer(seq_config(seed, budget, false));
      const bool ahead = g.coverage_points > b.coverage_points;
      if (budget >= 1500) guided_always_ahead = guided_always_ahead && ahead;
      std::printf("seq fuzzer seed %llu @%u: guided %zu vs blind %zu "
                  "points %s(guided: %.1f ms, %.0f iterations/sec)\n",
                  static_cast<unsigned long long>(seed), budget,
                  g.coverage_points, b.coverage_points,
                  ahead ? "" : "[GUIDED BEHIND] ", guided_ms,
                  budget / (guided_ms / 1000.0));
      std::printf("BENCH_JSON {\"name\":\"fuzz_guided_vs_blind_s%llu_i%u\","
                  "\"guided_points\":%zu,\"blind_points\":%zu,"
                  "\"guided_wall_ms\":%.1f,\"host_cores\":%u}\n",
                  static_cast<unsigned long long>(seed), budget,
                  g.coverage_points, b.coverage_points, guided_ms, cores);
    }
  }
  std::printf("guided strictly ahead on all 1500-iteration cells: %s\n",
              guided_always_ahead ? "yes" : "NO");

  // 4. Coverage growth per 1k iterations of one longer guided run.
  const core::SeqFuzzStats curve =
      core::run_sequence_fuzzer(seq_config(7, 3000, true));
  std::printf("coverage curve (seed 7, per 1k iterations):");
  for (const std::size_t points : curve.coverage_curve) {
    std::printf(" %zu", points);
  }
  std::printf(" / %zu total\n", core::CoverageMap::total_points());

  return guided_always_ahead && warm_matches_cold ? 0 : 1;
}
