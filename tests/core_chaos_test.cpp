// Chaos engine: deterministic fault scheduling, plan parsing, the point
// registry, and the harness's behavior under injected faults at every
// layer — journal writes, cell setup, supervisor workers, recovery phases
// and the network simulator.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/chaos.hpp"
#include "core/journal.hpp"
#include "core/report.hpp"
#include "core/supervisor.hpp"
#include "net/network.hpp"
#include "xsa/usecases.hpp"

namespace ii {
namespace {

using core::ChaosEngine;
using core::ChaosScope;

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

std::vector<std::unique_ptr<core::UseCase>> one_real_case() {
  std::vector<std::unique_ptr<core::UseCase>> cases;
  for (auto& c : xsa::make_paper_use_cases()) {
    if (c->name() == "XSA-212-priv") cases.push_back(std::move(c));
  }
  return cases;
}

// ------------------------------------------------------------------ engine

TEST(ChaosEngine, SameSeedAndPlanProduceByteIdenticalSchedules) {
  const auto drive = [](std::uint64_t seed) {
    ChaosEngine engine{seed, core::parse_chaos_plan("journal.torn=500")};
    for (int i = 0; i < 64; ++i) (void)engine.fire("journal.torn");
    return engine.schedule_log();
  };
  const std::string a = drive(42);
  EXPECT_EQ(a, drive(42));
  EXPECT_NE(a, drive(43));
  // The schedule is non-trivial: a 500-permille coin over 64 occurrences
  // fires somewhere strictly between never and always.
  ChaosEngine probe{42, core::parse_chaos_plan("journal.torn=500")};
  for (int i = 0; i < 64; ++i) (void)probe.fire("journal.torn");
  EXPECT_GT(probe.fired("journal.torn"), 0u);
  EXPECT_LT(probe.fired("journal.torn"), 64u);
}

TEST(ChaosEngine, ExplicitOccurrencesFireExactlyThere) {
  ChaosEngine engine{7, core::parse_chaos_plan("worker.crash@2,worker.crash@5")};
  std::vector<std::uint64_t> hits;
  for (std::uint64_t occ = 1; occ <= 8; ++occ) {
    if (engine.fire("worker.crash")) hits.push_back(occ);
  }
  EXPECT_EQ(hits, (std::vector<std::uint64_t>{2, 5}));
  EXPECT_EQ(engine.fired("worker.crash"), 2u);
  EXPECT_EQ(engine.total_fired(), 2u);
}

TEST(ChaosEngine, RateZeroAndUnplannedPointsNeverFire) {
  ChaosEngine engine{1, core::parse_chaos_plan("net.drop=1000")};
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(engine.fire("net.drop"));       // rate 1000 = always
    EXPECT_FALSE(engine.fire("worker.crash"));  // not in the plan
  }
  engine.disable("net.drop");
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(engine.fire("net.drop"));
  EXPECT_EQ(engine.fired("net.drop"), 16u);
}

TEST(ChaosEngine, NoInstalledEngineMeansNoFaults) {
  ASSERT_EQ(ChaosEngine::instance(), nullptr);
  EXPECT_FALSE(core::chaos_fire("worker.crash"));
  EXPECT_FALSE(core::chaos_fire("not.even.registered"));
}

TEST(ChaosEngine, DyingEngineDisarmsItself) {
  {
    ChaosEngine engine{3, core::parse_chaos_plan("net.drop=1000")};
    ChaosEngine::install(&engine);
    EXPECT_TRUE(core::chaos_fire("net.drop"));
  }
  EXPECT_EQ(ChaosEngine::instance(), nullptr);
  EXPECT_FALSE(core::chaos_fire("net.drop"));
}

TEST(ChaosPlan, ParserRejectsGarbageAndUnknownPoints) {
  EXPECT_THROW((void)core::parse_chaos_plan("nosuch.point=10"),
               std::invalid_argument);
  EXPECT_THROW((void)core::parse_chaos_plan("worker.crash"),
               std::invalid_argument);
  EXPECT_THROW((void)core::parse_chaos_plan("worker.crash=2000"),
               std::invalid_argument);
  EXPECT_THROW((void)core::parse_chaos_plan("worker.crash@0"),
               std::invalid_argument);
  EXPECT_THROW((void)core::parse_chaos_plan("worker.crash=abc"),
               std::invalid_argument);
  // Numbers are plain digit runs: no sign, no whitespace, no overflow
  // (-1 used to wrap to occurrence 2^64-1, a point that never fires).
  for (const char* bad :
       {"journal.write_fail@-1", "worker.crash=+5", "worker.crash@ 3",
        "worker.crash= 5", "worker.crash@+3", "worker.crash=-0",
        "worker.crash@3 ", "worker.crash@", "worker.crash=",
        "worker.crash@99999999999999999999",
        "worker.crash=99999999999999999999"}) {
    EXPECT_THROW((void)core::parse_chaos_plan(bad), std::invalid_argument)
        << bad;
  }

  const auto plan =
      core::parse_chaos_plan("journal.torn=5,worker.crash@3,worker.crash@1");
  EXPECT_EQ(plan.at("journal.torn").rate_permille, 5u);
  EXPECT_EQ(plan.at("worker.crash").fire_at,
            (std::vector<std::uint64_t>{1, 3}));
}

TEST(ChaosRegistry, EveryPointIsNamedAndDescribed) {
  const auto points = core::registered_chaos_points();
  EXPECT_GE(points.size(), 11u);
  for (const auto name : points) {
    EXPECT_FALSE(core::chaos_point_description(name).empty()) << name;
  }
  EXPECT_TRUE(core::chaos_point_description("nosuch.point").empty());
}

// ----------------------------------------------------------------- journal

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "chaos_" + name + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

core::CellResult sample_cell(unsigned n) {
  core::CellResult cell;
  cell.use_case = "CASE-" + std::to_string(n);
  cell.version = hv::kXen48;
  cell.mode = core::Mode::Exploit;
  cell.outcome.completed = true;
  return cell;
}

TEST(JournalChecksum, CorruptedBytesAreDetectedAndSkipped) {
  const core::CellResult cell = sample_cell(1);
  std::string line = core::journal_line(cell);
  ASSERT_TRUE(core::parse_journal_entry(line).has_value());
  // Flip one byte inside a value: the structure still parses, the
  // checksum must not.
  const std::size_t pos = line.find("CASE-1");
  ASSERT_NE(pos, std::string::npos);
  line[pos] = 'X';
  EXPECT_FALSE(core::parse_journal_entry(line).has_value());
  // Legacy lines without a crc field still load (old journals resume).
  EXPECT_TRUE(core::parse_journal_entry(core::journal_entry(cell)).has_value());

  // Hostile numbers and versions are refused, not thrown: a resume counts
  // such a line as skipped instead of aborting.
  const std::string plain = core::journal_entry(cell);
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string edited = plain;
    const std::size_t at = edited.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return edited.replace(at, from.size(), to);
  };
  const std::vector<std::string> hostile{
      with("\"rc\":0", "\"rc\":99999999999999999999"),
      with("\"rc\":0", "\"rc\":-"),
      with("\"version\":\"4.8\"", "\"version\":\"4.6junk\""),
      with("\"version\":\"4.8\"", "\"version\":\"4.+6\""),
      with("\"version\":\"4.8\"", "\"version\":\"4.-6\""),
      with("\"version\":\"4.8\"", "\"version\":\" 4.8\""),
      with("\"use_case\":\"CASE-1", "\"use_case\":\"CASE\\uZZZZ-1"),
  };
  for (const std::string& line : hostile) {
    EXPECT_NO_THROW({
      EXPECT_FALSE(core::parse_journal_entry(line).has_value()) << line;
    });
  }
  const std::string path = temp_path("hostile");
  {
    std::ofstream out{path};
    out << "header-line\n" << core::journal_line(cell) << '\n';
    for (const std::string& line : hostile) out << line << '\n';
  }
  core::JournalLoad load;
  ASSERT_NO_THROW(load = core::load_journal(path, "header-line"));
  EXPECT_EQ(load.cells.size(), 1u);
  EXPECT_EQ(load.skipped, hostile.size());
  std::remove(path.c_str());
}

TEST(JournalWriter, ChaosWriteFaultsAreCountedAndSkippedOnLoad) {
  const std::string path = temp_path("writer");
  ChaosEngine engine{
      11, core::parse_chaos_plan("journal.write_fail@2,journal.torn@3")};
  const ChaosScope scope{engine};

  core::JournalWriter writer;
  writer.open(path, "header-line");
  ASSERT_TRUE(writer.is_open());
  // Occurrences count per point: write_fail sees every append; torn only
  // the appends write_fail let through (short-circuit), so torn@3 is the
  // third *surviving* append — append 4 here.
  EXPECT_TRUE(writer.append(sample_cell(1)));   // lands intact
  EXPECT_FALSE(writer.append(sample_cell(2)));  // lost entirely
  EXPECT_TRUE(writer.append(sample_cell(3)));   // lands intact
  EXPECT_FALSE(writer.append(sample_cell(4)));  // torn mid-line
  EXPECT_TRUE(writer.append(sample_cell(5)));   // lands intact
  EXPECT_EQ(writer.errors(), 2u);

  const core::JournalLoad load = core::load_journal(path, "header-line");
  ASSERT_EQ(load.cells.size(), 3u);
  EXPECT_EQ(load.cells[0].use_case, "CASE-1");
  EXPECT_EQ(load.cells[1].use_case, "CASE-3");
  EXPECT_EQ(load.cells[2].use_case, "CASE-5");
  EXPECT_EQ(load.skipped, 1u);  // the torn line; the lost one left no trace
  std::remove(path.c_str());
}

// -------------------------------------------------- faults under the stack

TEST(ChaosFaults, CellAllocFailureIsContainedAndRetried) {
  auto config = small_config();
  config.versions = {hv::kXen48};
  config.modes = {core::Mode::Injection};
  core::SupervisorConfig supervision{};
  supervision.max_attempts = 2;
  supervision.retry_backoff_us = 10;  // exercise the backoff path too

  // Fault-free reference first (no engine installed).
  const auto clean =
      core::CampaignSupervisor{config, supervision}.run(one_real_case);
  ASSERT_EQ(clean.size(), 1u);
  ASSERT_FALSE(clean[0].failed());

  // First attempt's allocation fails; the retry rung clears it.
  ChaosEngine engine{5, core::parse_chaos_plan("cell.alloc_fail@1")};
  const ChaosScope scope{engine};
  const auto faulted =
      core::CampaignSupervisor{config, supervision}.run(one_real_case);
  ASSERT_EQ(faulted.size(), 1u);
  EXPECT_FALSE(faulted[0].failed()) << faulted[0].failure;
  EXPECT_EQ(faulted[0].attempts, 2u);
  EXPECT_EQ(engine.fired("cell.alloc_fail"), 1u);
  // The retried cell reports the same verdict as the fault-free run.
  EXPECT_EQ(faulted[0].err_state, clean[0].err_state);
  EXPECT_EQ(faulted[0].violation, clean[0].violation);
  EXPECT_EQ(faulted[0].wall_us, clean[0].wall_us);
}

TEST(ChaosFaults, WorkerCrashReleasesTheClaimAndTheCampaignCompletes) {
  auto config = small_config();
  core::SupervisorConfig supervision{};

  const auto factory = [] {
    auto cases = xsa::make_paper_use_cases();
    cases.resize(2);  // two use cases, 12 cells
    return cases;
  };
  const auto clean =
      core::CampaignSupervisor{config, supervision}.run(factory);
  const std::string clean_csv = core::render_csv(clean);

  // Both the single worker's first two claims crash; the respawn rounds
  // must re-claim and finish every cell with identical results.
  ChaosEngine engine{9,
                     core::parse_chaos_plan("worker.crash@1,worker.crash@2")};
  const ChaosScope scope{engine};
  const auto faulted =
      core::CampaignSupervisor{config, supervision}.run(factory);
  EXPECT_EQ(engine.fired("worker.crash"), 2u);
  ASSERT_EQ(faulted.size(), clean.size());
  EXPECT_EQ(core::render_csv(faulted), clean_csv);
  EXPECT_EQ(faulted.front().metrics.counters.at("supervisor.worker_crashes"),
            2u);
}

TEST(ChaosFaults, CrashLoopingPlanStillTerminates) {
  auto config = small_config();
  config.versions = {hv::kXen48};
  core::SupervisorConfig supervision{};
  supervision.threads = 2;

  // Every claim crashes until the supervisor's backstop disables the
  // point; the campaign must still finish with correct results.
  ChaosEngine engine{13, core::parse_chaos_plan("worker.crash=1000")};
  const ChaosScope scope{engine};
  const auto results =
      core::CampaignSupervisor{config, supervision}.run(one_real_case);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& cell : results) {
    EXPECT_FALSE(cell.failed()) << cell.failure;
  }
  EXPECT_GT(engine.fired("worker.crash"), 0u);
}

TEST(ChaosFaults, WorkerStallOnlyCostsTime) {
  auto config = small_config();
  config.versions = {hv::kXen48};
  core::SupervisorConfig supervision{};
  const auto clean =
      core::CampaignSupervisor{config, supervision}.run(one_real_case);

  ChaosEngine engine{17, core::parse_chaos_plan("worker.stall@1")};
  const ChaosScope scope{engine};
  const auto stalled =
      core::CampaignSupervisor{config, supervision}.run(one_real_case);
  EXPECT_EQ(engine.fired("worker.stall"), 1u);
  EXPECT_EQ(core::render_csv(stalled), core::render_csv(clean));
}

TEST(ChaosFaults, RecoveryAbortLeavesTheCellUnrecovered) {
  auto config = small_config();
  config.versions = {hv::kXen48};
  config.modes = {core::Mode::Injection};
  config.attempt_recovery = true;
  config.max_cell_hypercalls = 3;  // trip the budget so recovery runs
  core::SupervisorConfig supervision{};

  const auto clean =
      core::CampaignSupervisor{config, supervision}.run(one_real_case);
  ASSERT_EQ(clean.size(), 1u);
  ASSERT_TRUE(clean[0].failed());
  ASSERT_TRUE(clean[0].recovered);  // recovery normally succeeds

  ChaosEngine engine{21, core::parse_chaos_plan("recover.abort@1")};
  const ChaosScope scope{engine};
  const auto aborted =
      core::CampaignSupervisor{config, supervision}.run(one_real_case);
  ASSERT_EQ(aborted.size(), 1u);
  EXPECT_EQ(engine.fired("recover.abort"), 1u);
  EXPECT_FALSE(aborted[0].recovered);
  bool noted = false;
  for (const auto& note : aborted[0].outcome.notes) {
    if (note.find("recovery failed") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);
}

TEST(ChaosFaults, SimNetworkDropAndPartition) {
  net::Network net;
  net.add_host("attacker").listen(1234);
  net.add_host("dom0");

  ChaosEngine engine{25,
                     core::parse_chaos_plan("net.drop@2,net.partition@1")};
  const ChaosScope scope{engine};

  // First connect hits the partition; the retry goes through.
  EXPECT_EQ(net.connect("dom0", "attacker", 1234), nullptr);
  const auto conn = net.connect("dom0", "attacker", 1234);
  ASSERT_NE(conn, nullptr);

  conn->send(net::Endpoint::Client, "id");     // occurrence 1: delivered
  conn->send(net::Endpoint::Client, "whoami");  // occurrence 2: dropped
  conn->send(net::Endpoint::Client, "uname");   // occurrence 3: delivered
  EXPECT_EQ(conn->pending(net::Endpoint::Server), 2u);
  EXPECT_EQ(conn->dropped(), 1u);
  EXPECT_EQ(*conn->poll(net::Endpoint::Server), "id");
  EXPECT_EQ(*conn->poll(net::Endpoint::Server), "uname");
}

}  // namespace
}  // namespace ii
