// Campaign supervisor: per-cell fault isolation, deterministic budgets,
// retry/quarantine, and the resumable JSONL journal.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "core/chaos.hpp"
#include "core/journal.hpp"
#include "core/report.hpp"
#include "core/supervisor.hpp"
#include "xsa/usecases.hpp"

namespace ii {
namespace {

using core::CellResult;

guest::PlatformConfig small_platform() {
  guest::PlatformConfig pc{};
  pc.machine_frames = 16384;
  pc.dom0_pages = 256;
  pc.guest_pages = 128;
  return pc;
}

core::CampaignConfig small_config() {
  core::CampaignConfig config{};
  config.platform = small_platform();
  config.logical_time = true;  // byte-identical CSV across runs/threads
  return config;
}

/// Always throws from both attempt paths.
class ThrowingCase final : public core::UseCase {
 public:
  [[nodiscard]] std::string name() const override { return "THROWING"; }
  [[nodiscard]] core::IntrusionModel model() const override { return {}; }
  core::CaseOutcome run_exploit(guest::VirtualPlatform&) override {
    throw std::runtime_error{"use case blew up (exploit)"};
  }
  core::CaseOutcome run_injection(guest::VirtualPlatform&) override {
    throw std::runtime_error{"use case blew up (injection)"};
  }
  [[nodiscard]] bool erroneous_state_present(
      guest::VirtualPlatform&) const override {
    return false;
  }
  [[nodiscard]] bool security_violation(
      guest::VirtualPlatform&) const override {
    return false;
  }
};

/// Fails the first `fail_first` attempts of every cell, then succeeds.
/// Attempt state is per (version, mode): retries of one cell land on the
/// same instance (the supervisor retries inline on one worker).
class FlakyCase final : public core::UseCase {
 public:
  explicit FlakyCase(unsigned fail_first) : fail_first_{fail_first} {}
  [[nodiscard]] std::string name() const override { return "FLAKY"; }
  [[nodiscard]] core::IntrusionModel model() const override { return {}; }
  core::CaseOutcome run_exploit(guest::VirtualPlatform& p) override {
    return attempt(p);
  }
  core::CaseOutcome run_injection(guest::VirtualPlatform& p) override {
    return attempt(p);
  }
  [[nodiscard]] bool erroneous_state_present(
      guest::VirtualPlatform&) const override {
    return false;
  }
  [[nodiscard]] bool security_violation(
      guest::VirtualPlatform&) const override {
    return false;
  }

 private:
  core::CaseOutcome attempt(guest::VirtualPlatform& p) {
    const std::string key = p.config().version.to_string();
    if (attempts_[key]++ < fail_first_) {
      throw std::runtime_error{"flaky attempt failed"};
    }
    core::CaseOutcome out;
    out.completed = true;
    return out;
  }
  unsigned fail_first_;
  std::map<std::string, unsigned> attempts_;
};

/// Counts how many times any attempt path actually ran (to prove resume
/// skips journaled cells).
class CountingCase final : public core::UseCase {
 public:
  explicit CountingCase(unsigned* runs) : runs_{runs} {}
  [[nodiscard]] std::string name() const override { return "COUNTING"; }
  [[nodiscard]] core::IntrusionModel model() const override { return {}; }
  core::CaseOutcome run_exploit(guest::VirtualPlatform&) override {
    ++*runs_;
    core::CaseOutcome out;
    out.completed = true;
    return out;
  }
  core::CaseOutcome run_injection(guest::VirtualPlatform& p) override {
    return run_exploit(p);
  }
  [[nodiscard]] bool erroneous_state_present(
      guest::VirtualPlatform&) const override {
    return false;
  }
  [[nodiscard]] bool security_violation(
      guest::VirtualPlatform&) const override {
    return false;
  }

 private:
  unsigned* runs_;
};

std::string temp_journal(const std::string& name) {
  return ::testing::TempDir() + "supervisor_" + name + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

TEST(CampaignIsolation, ThrowingUseCaseDoesNotAbortTheCampaign) {
  auto config = small_config();
  const auto results = core::CampaignSupervisor{config, {}}.run([] {
    std::vector<std::unique_ptr<core::UseCase>> cases;
    cases.push_back(std::make_unique<ThrowingCase>());
    return cases;
  });
  ASSERT_EQ(results.size(), config.versions.size() * config.modes.size());
  for (const auto& cell : results) {
    EXPECT_TRUE(cell.failed());
    EXPECT_FALSE(cell.outcome.completed);
    EXPECT_NE(cell.failure.find("use case blew up"), std::string::npos);
  }
}

TEST(CampaignBudget, HypercallBudgetFailsTheCellDeterministically) {
  auto config = small_config();
  config.versions = {hv::kXen48};
  config.modes = {core::Mode::Injection};
  config.max_cell_hypercalls = 3;  // XSA-212-priv injection needs more
  const core::Campaign campaign{config};

  auto use_case = [] {
    auto cases = xsa::make_paper_use_cases();
    for (auto& c : cases) {
      if (c->name() == "XSA-212-priv") return std::move(c);
    }
    return std::unique_ptr<core::UseCase>{};
  }();
  ASSERT_NE(use_case, nullptr);

  const CellResult first =
      campaign.run_cell(*use_case, hv::kXen48, core::Mode::Injection);
  EXPECT_TRUE(first.failed());
  EXPECT_NE(first.failure.find("hypercall budget exceeded"),
            std::string::npos);

  // Deterministic watchdog: the second run trips at the same point.
  const CellResult second =
      campaign.run_cell(*use_case, hv::kXen48, core::Mode::Injection);
  EXPECT_EQ(first.failure, second.failure);
  EXPECT_EQ(first.hypercalls, second.hypercalls);
  EXPECT_EQ(first.wall_us, second.wall_us);
}

TEST(Supervisor, RetryRecordsAttemptsAndEventuallySucceeds) {
  core::SupervisorConfig supervision{};
  supervision.max_attempts = 3;
  const core::CampaignSupervisor supervisor{small_config(), supervision};

  const auto results = supervisor.run(
      [] {
        std::vector<std::unique_ptr<core::UseCase>> cases;
        cases.push_back(std::make_unique<FlakyCase>(/*fail_first=*/1));
        return cases;
      });
  ASSERT_EQ(results.size(), 6u);
  // Per version the first attempt (exploit cell) fails once, then the
  // retry succeeds; the injection cell's first attempt succeeds directly.
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].failed()) << results[i].failure;
    EXPECT_EQ(results[i].attempts, i % 2 == 0 ? 2u : 1u);
  }
}

TEST(Supervisor, QuarantineSkipsAfterConsecutiveFailures) {
  core::SupervisorConfig supervision{};
  supervision.quarantine_after = 2;
  const core::CampaignSupervisor supervisor{small_config(), supervision};

  const auto results = supervisor.run([] {
    std::vector<std::unique_ptr<core::UseCase>> cases;
    cases.push_back(std::make_unique<ThrowingCase>());
    return cases;
  });
  ASSERT_EQ(results.size(), 6u);
  EXPECT_FALSE(results[0].quarantined);
  EXPECT_FALSE(results[1].quarantined);
  for (std::size_t i = 2; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].quarantined);
    EXPECT_EQ(results[i].attempts, 0u);
    EXPECT_NE(results[i].failure.find("quarantined"), std::string::npos);
  }
}

TEST(Supervisor, FailureResultsAreIdenticalAcrossThreadCounts) {
  auto config = small_config();
  core::SupervisorConfig supervision{};
  supervision.max_attempts = 2;
  supervision.quarantine_after = 3;

  const auto factory = [] {
    std::vector<std::unique_ptr<core::UseCase>> cases;
    cases.push_back(std::make_unique<ThrowingCase>());
    cases.push_back(std::make_unique<FlakyCase>(/*fail_first=*/1));
    for (auto& real : xsa::make_paper_use_cases()) {
      if (real->name() == "XSA-212-priv") cases.push_back(std::move(real));
    }
    return cases;
  };

  supervision.threads = 1;
  const auto serial =
      core::CampaignSupervisor{config, supervision}.run(factory);
  supervision.threads = 8;
  const auto parallel =
      core::CampaignSupervisor{config, supervision}.run(factory);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].attempts, parallel[i].attempts) << i;
    EXPECT_EQ(serial[i].failure, parallel[i].failure) << i;
    EXPECT_EQ(serial[i].quarantined, parallel[i].quarantined) << i;
    EXPECT_EQ(serial[i].wall_us, parallel[i].wall_us) << i;
  }
  // The strong form: the rendered CSV reports are byte-identical.
  EXPECT_EQ(core::render_csv(serial), core::render_csv(parallel));
}

TEST(Journal, EntriesRoundTripIncludingHostileFailureText) {
  CellResult cell;
  cell.use_case = "XSA-212-priv";
  cell.version = hv::kXen413;
  cell.mode = core::Mode::Injection;
  cell.outcome.completed = false;
  cell.outcome.rc = -14;
  cell.err_state = true;
  cell.wall_us = 123456;
  cell.hypercalls = 42;
  cell.attempts = 3;
  cell.recovered = true;
  // Free text that tries to impersonate journal fields and break quoting.
  cell.failure = "line1\nline2\t\"quoted\",\"attempts\":999,\\u0000";

  const auto parsed = core::parse_journal_entry(core::journal_entry(cell));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->use_case, cell.use_case);
  EXPECT_EQ(parsed->version.to_string(), "4.13");
  EXPECT_EQ(parsed->mode, core::Mode::Injection);
  EXPECT_EQ(parsed->outcome.completed, false);
  EXPECT_EQ(parsed->outcome.rc, -14);
  EXPECT_EQ(parsed->err_state, true);
  EXPECT_EQ(parsed->wall_us, 123456u);
  EXPECT_EQ(parsed->hypercalls, 42u);
  EXPECT_EQ(parsed->attempts, 3u);
  EXPECT_EQ(parsed->recovered, true);
  EXPECT_EQ(parsed->failure, cell.failure);
}

TEST(Journal, TornLinesAreRejected) {
  CellResult cell;
  cell.use_case = "XSA-148-priv";
  cell.version = hv::kXen48;
  cell.mode = core::Mode::Exploit;
  const std::string line = core::journal_entry(cell);
  ASSERT_TRUE(core::parse_journal_entry(line).has_value());
  // Every strict prefix is a torn write and must parse to nothing.
  for (std::size_t len = 0; len < line.size(); ++len) {
    EXPECT_FALSE(core::parse_journal_entry(line.substr(0, len)).has_value())
        << "prefix length " << len;
  }
}

TEST(Supervisor, ResumeReproducesTheIdenticalReportWithoutRerunning) {
  const std::string path = temp_journal("resume");
  std::remove(path.c_str());

  auto config = small_config();
  core::SupervisorConfig supervision{};
  supervision.journal_path = path;

  unsigned full_runs = 0;
  const auto factory = [&full_runs] {
    std::vector<std::unique_ptr<core::UseCase>> cases;
    cases.push_back(std::make_unique<CountingCase>(&full_runs));
    cases.push_back(std::make_unique<ThrowingCase>());
    return cases;
  };

  // Reference run: all 12 cells, journaled.
  const auto full =
      core::CampaignSupervisor{config, supervision}.run(factory);
  const std::string full_csv = core::render_csv(full);
  ASSERT_EQ(full.size(), 12u);
  const unsigned runs_in_full = full_runs;
  ASSERT_EQ(runs_in_full, 6u);

  // Simulate a kill after 5 completed cells: keep the header + 5 entries,
  // then a torn half-line such as a dying process leaves behind.
  std::vector<std::string> lines;
  {
    std::ifstream in{path};
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 13u);  // header + 12 cells
  {
    std::ofstream out{path, std::ios::trunc};
    for (std::size_t i = 0; i < 6; ++i) out << lines[i] << '\n';
    out << lines[6].substr(0, lines[6].size() / 2);  // torn, no newline
  }

  // Resume: journaled cells are reused, the torn one and the rest re-run.
  full_runs = 0;
  supervision.resume = true;
  const auto resumed =
      core::CampaignSupervisor{config, supervision}.run(factory);
  EXPECT_EQ(core::render_csv(resumed), full_csv);
  EXPECT_LT(full_runs, runs_in_full);

  // The rewritten journal is complete again: a second resume re-runs
  // nothing at all.
  full_runs = 0;
  const auto resumed_again =
      core::CampaignSupervisor{config, supervision}.run(factory);
  EXPECT_EQ(core::render_csv(resumed_again), full_csv);
  EXPECT_EQ(full_runs, 0u);
  std::remove(path.c_str());
}

TEST(Supervisor, ResumeRefusesAForeignJournalHeader) {
  const std::string path = temp_journal("foreign");
  auto config = small_config();
  core::SupervisorConfig supervision{};
  supervision.journal_path = path;
  supervision.resume = true;

  // A journal recorded under a different campaign shape (other versions).
  auto other = config;
  other.versions = {hv::kXen46};
  {
    std::ofstream out{path, std::ios::trunc};
    out << core::journal_header(other, 1, 0) << '\n';
  }

  const core::CampaignSupervisor supervisor{config, supervision};
  EXPECT_THROW((void)supervisor.run([] {
    std::vector<std::unique_ptr<core::UseCase>> cases;
    cases.push_back(std::make_unique<ThrowingCase>());
    return cases;
  }),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(Supervisor, JournalSkippedCountSurfacesInTheMetrics) {
  const std::string path = temp_journal("skipped");
  std::remove(path.c_str());

  auto config = small_config();
  core::SupervisorConfig supervision{};
  supervision.journal_path = path;

  unsigned runs = 0;
  const auto factory = [&runs] {
    std::vector<std::unique_ptr<core::UseCase>> cases;
    cases.push_back(std::make_unique<CountingCase>(&runs));
    return cases;
  };
  (void)core::CampaignSupervisor{config, supervision}.run(factory);

  // Corrupt two journaled lines in place (bit rot, not a torn tail).
  std::vector<std::string> lines;
  {
    std::ifstream in{path};
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 7u);  // header + 6 cells
  lines[2][lines[2].find("COUNTING")] = 'X';
  lines[4][lines[4].find("COUNTING")] = 'X';
  {
    std::ofstream out{path, std::ios::trunc};
    for (const auto& line : lines) out << line << '\n';
  }

  supervision.resume = true;
  runs = 0;
  const auto resumed =
      core::CampaignSupervisor{config, supervision}.run(factory);
  ASSERT_FALSE(resumed.empty());
  EXPECT_EQ(resumed.front().metrics.counters.at("supervisor.journal_skipped"),
            2u);
  EXPECT_EQ(runs, 2u);  // only the corrupted cells re-ran
  std::remove(path.c_str());
}

// The crash-resume property: kill the campaign at a chaos-chosen journal
// append, resume, and the final report must be byte-identical to the
// uninterrupted run's — at several kill points, including one deep enough
// that a second kill hits the resumed run.
TEST(Supervisor, KilledCampaignResumesToTheIdenticalReport) {
  auto config = small_config();
  core::SupervisorConfig supervision{};

  const auto factory = [] {
    auto cases = xsa::make_paper_use_cases();
    cases.resize(2);  // 12 cells
    return cases;
  };

  // Fault-free baseline (no engine installed).
  const std::string baseline = core::render_csv(
      core::CampaignSupervisor{config, supervision}.run(factory));

  for (const std::uint64_t kill_at : {1u, 5u, 11u}) {
    const std::string path = temp_journal("kill" + std::to_string(kill_at));
    std::remove(path.c_str());
    supervision.journal_path = path;
    supervision.resume = false;

    // supervisor.kill occurrence N = the N-th fresh journal append; the
    // plan kills the first run there and, because resumed runs append
    // fewer fresh cells, later resumes run kill-free to completion.
    core::ChaosEngine engine{
        31, core::parse_chaos_plan("supervisor.kill@" +
                                   std::to_string(kill_at))};
    const core::ChaosScope scope{engine};

    EXPECT_THROW((void)(core::CampaignSupervisor{config, supervision}.run(
                     factory)),
                 core::CampaignKilled);
    EXPECT_EQ(engine.fired("supervisor.kill"), 1u);

    // Resume until the campaign gets all the way through (the kill point
    // cannot re-fire: each resume appends fewer fresh cells than the last
    // needed, and occurrence counting continues from the first run).
    supervision.resume = true;
    std::vector<core::CellResult> resumed;
    for (int tries = 0; tries < 15; ++tries) {
      try {
        resumed = core::CampaignSupervisor{config, supervision}.run(factory);
        break;
      } catch (const core::CampaignKilled&) {
        continue;
      }
    }
    ASSERT_FALSE(resumed.empty()) << "kill_at=" << kill_at;
    EXPECT_EQ(core::render_csv(resumed), baseline) << "kill_at=" << kill_at;
    std::remove(path.c_str());
  }
}

TEST(Supervisor, SupervisorCountersLandInTheMetricsSnapshot) {
  core::SupervisorConfig supervision{};
  supervision.max_attempts = 2;
  const core::CampaignSupervisor supervisor{small_config(), supervision};
  const auto results = supervisor.run([] {
    std::vector<std::unique_ptr<core::UseCase>> cases;
    cases.push_back(std::make_unique<ThrowingCase>());
    return cases;
  });
  ASSERT_FALSE(results.empty());
  const auto& counters = results[0].metrics.counters;
  EXPECT_EQ(counters.at("supervisor.attempts"), 2u);
  EXPECT_EQ(counters.at("supervisor.failed"), 1u);
  EXPECT_EQ(counters.at("supervisor.quarantined"), 0u);
}

}  // namespace
}  // namespace ii
