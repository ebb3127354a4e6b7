// The randomized (fuzz-style) injection campaign of §IV-C: the sequence
// fuzzer with no feedback, one-op traces and the injector's write as its
// only op kind.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/fuzz.hpp"

namespace ii::core {
namespace {

SeqFuzzConfig small_config(hv::XenVersion version, unsigned iterations,
                           std::uint64_t seed) {
  SeqFuzzConfig config;
  config.version = version;
  config.iterations = iterations;
  config.seed = seed;
  config.guided = false;
  config.max_ops = 1;
  config.minimize = false;
  config.injector_only = true;
  config.platform.machine_frames = 8192;
  config.platform.dom0_pages = 128;
  config.platform.guest_pages = 64;
  return config;
}

unsigned total_outcomes(const SeqFuzzStats& stats) {
  unsigned total = 0;
  for (const auto& [outcome, count] : stats.outcomes) total += count;
  return total;
}

unsigned count(const SeqFuzzStats& stats, FuzzOutcome outcome) {
  const auto it = stats.outcomes.find(outcome);
  return it == stats.outcomes.end() ? 0 : it->second;
}

std::set<std::uint64_t> survivor_hashes(const SeqFuzzStats& stats) {
  std::set<std::uint64_t> hashes;
  for (const Survivor& s : stats.survivors) hashes.insert(s.entry.state_hash);
  return hashes;
}

/// The op each iteration of an injector-only one-op run draws, regenerated
/// with the public draw helpers: target first, then the injection.
std::vector<hv::GuestOp> blind_draws(const SeqFuzzConfig& config) {
  guest::PlatformConfig pc = config.platform;
  pc.version = config.version;
  pc.injector_enabled = true;
  guest::VirtualPlatform platform{pc};
  std::vector<hv::GuestOp> ops;
  for (unsigned i = 0; i < config.iterations; ++i) {
    std::mt19937_64 rng = rng_for(config.seed, i);
    const auto target =
        static_cast<FuzzTarget>(draw_below(rng, kFuzzTargetCount));
    hv::GuestOp op;
    op.caller = platform.guest(0).id();
    op.peer = hv::kDom0;
    draw_injection(rng, platform, target, &op.addr, &op.value);
    ops.push_back(op);
  }
  return ops;
}

TEST(FuzzCampaign, OutcomeCountsSumToIterations) {
  const SeqFuzzStats stats =
      run_sequence_fuzzer(small_config(hv::kXen46, 20, 3));
  EXPECT_EQ(stats.iterations, 20u);
  EXPECT_EQ(total_outcomes(stats), 20u);
  EXPECT_EQ(stats.ops_executed, 20u);  // one injection per iteration
}

TEST(FuzzCampaign, DeterministicForAGivenConfig) {
  const auto config = small_config(hv::kXen48, 15, 11);
  const SeqFuzzStats a = run_sequence_fuzzer(config);
  const SeqFuzzStats b = run_sequence_fuzzer(config);
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.render(), b.render());
}

TEST(FuzzCampaign, DifferentSeedsExploreDifferently) {
  const SeqFuzzStats a = run_sequence_fuzzer(small_config(hv::kXen46, 25, 1));
  const SeqFuzzStats b = run_sequence_fuzzer(small_config(hv::kXen46, 25, 2));
  ASSERT_FALSE(a.survivors.empty());
  EXPECT_NE(survivor_hashes(a), survivor_hashes(b));
}

TEST(FuzzCampaign, ZeroIterationsIsEmpty) {
  const SeqFuzzStats stats =
      run_sequence_fuzzer(small_config(hv::kXen46, 0, 1));
  EXPECT_EQ(total_outcomes(stats), 0u);
  EXPECT_EQ(count(stats, FuzzOutcome::Refused), 0u);
}

TEST(FuzzCampaign, FindsConsequencesWithEnoughIterations) {
  // Over a reasonable budget the random campaign must surface *some*
  // non-inert state.
  const SeqFuzzStats stats =
      run_sequence_fuzzer(small_config(hv::kXen46, 40, 7));
  EXPECT_LT(count(stats, FuzzOutcome::NoObservableEffect), 40u);
}

TEST(FuzzCampaign, RenderListsOutcomes) {
  const SeqFuzzStats stats =
      run_sequence_fuzzer(small_config(hv::kXen413, 10, 5));
  const std::string out = stats.render();
  EXPECT_NE(out.find("sequence fuzzer: 10 iterations, blind"),
            std::string::npos);
  EXPECT_NE(out.find("outcomes:"), std::string::npos);
}

TEST(FuzzCampaign, OutcomeNames) {
  EXPECT_EQ(to_string(FuzzOutcome::HostCrash), "HOST CRASH");
  EXPECT_EQ(to_string(FuzzOutcome::NoObservableEffect),
            "no observable effect");
}

TEST(FuzzCampaign, WarmPlatformReuseMatchesColdBoots) {
  // A rewound platform is byte-identical to a fresh boot, so the warm run
  // (one boot + baseline restores) must classify every iteration exactly
  // like replay_trace, which boots a fresh platform for each of the same
  // draws.
  const SeqFuzzConfig config = small_config(hv::kXen46, 25, 13);
  const SeqFuzzStats warm = run_sequence_fuzzer(config);
  std::map<FuzzOutcome, unsigned> cold;
  unsigned refused = 0;
  for (const hv::GuestOp& op : blind_draws(config)) {
    const TraceResult r = replay_trace(config, {&op, 1});
    ++cold[r.outcome];
    refused += r.ops_refused;
  }
  EXPECT_EQ(warm.outcomes, cold);
  EXPECT_EQ(warm.ops_refused, refused);
}

TEST(FuzzCampaign, RefusedIsItsOwnOutcomeCountedOnce) {
  // Regression: refused injections used to be counted as refused AND fall
  // through to NoObservableEffect, so the outcome histogram summed past
  // the iteration count whenever the injector pushed back. A refused
  // injection changes nothing, so it classifies as Refused and only so.
  const SeqFuzzStats stats =
      run_sequence_fuzzer(small_config(hv::kXen46, 60, 7));
  EXPECT_EQ(total_outcomes(stats), 60u);
  EXPECT_EQ(stats.ops_refused, count(stats, FuzzOutcome::Refused));
  const std::string out = stats.render();
  if (stats.ops_refused > 0) {
    EXPECT_NE(out.find("refused"), std::string::npos);
  }
}

TEST(FuzzCampaign, HighSeedBitsMatter) {
  // Regression: the old mt19937{seed * 2654435761u + iteration} seeding
  // truncated the product to 32 bits, so seeds differing only in the high
  // word drew identical streams.
  const std::uint64_t low = 9;
  const std::uint64_t high = low | (1ULL << 32);
  const SeqFuzzStats a =
      run_sequence_fuzzer(small_config(hv::kXen46, 25, low));
  const SeqFuzzStats b =
      run_sequence_fuzzer(small_config(hv::kXen46, 25, high));
  ASSERT_FALSE(a.survivors.empty());
  EXPECT_NE(survivor_hashes(a), survivor_hashes(b));
}

TEST(FuzzCampaign, Xen46HistogramAtSeed7) {
  // The §IV-C histogram of bench/fuzz_injection_campaign on 4.6. Every
  // state the audit flags violates an isolation invariant.
  const SeqFuzzStats stats =
      run_sequence_fuzzer(small_config(hv::kXen46, 60, 7));
  const std::map<FuzzOutcome, unsigned> expected{
      {FuzzOutcome::NoObservableEffect, 32},
      {FuzzOutcome::IsolationViolation, 28}};
  EXPECT_EQ(stats.outcomes, expected);
}

}  // namespace
}  // namespace ii::core
