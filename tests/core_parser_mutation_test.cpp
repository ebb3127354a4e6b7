// Campaign journal lines and chaos plans are read back from disk and from
// the command line: hostile-input surfaces like the op codec of
// tests/hv_guest_op_test.cpp, with the same framing of the attack. Every
// truncation and every 0x01/0x80/0xFF single-byte mutation of a
// well-formed input must parse or be refused:
//
//  - a journal line parses to a cell or to nullopt and never throws. The
//    checksum-less line form lets the field scanner itself see each mutated
//    byte; on the checksummed form, an accepted mutant must carry exactly
//    the original cell (the checksum admits no silent corruption);
//  - a chaos plan parses to a plan within the registry's bounds or throws
//    std::invalid_argument, and nothing else.
//
// Runs in the ASan/UBSan gate (bench/run_asan.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/chaos.hpp"
#include "core/journal.hpp"

namespace ii::core {
namespace {

constexpr std::uint8_t kFlips[] = {0x01, 0x80, 0xFF};

/// A cell with every journaled field away from its default, and free text
/// that exercises each escape the writer emits.
CellResult full_cell() {
  CellResult cell;
  cell.use_case = "XSA-182 \"test\"";
  cell.version = hv::kXen413;
  cell.mode = Mode::Injection;
  cell.outcome.completed = true;
  cell.outcome.rc = -14;
  cell.err_state = true;
  cell.violation = true;
  cell.wall_us = 123456789;
  cell.hypercalls = 4242;
  cell.attempts = 3;
  cell.recovered = true;
  cell.quarantined = true;
  cell.failure = "budget\texceeded\n\\ \x01 at step 7";
  return cell;
}

/// parse_journal_entry, with an escaping exception reported as a failure
/// naming the offending input instead of aborting the sweep.
std::optional<CellResult> parse_no_throw(const std::string& line,
                                         const std::string& what) {
  try {
    return parse_journal_entry(line);
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << " threw " << e.what() << ": " << line;
  } catch (...) {
    ADD_FAILURE() << what << " threw a non-standard exception: " << line;
  }
  return std::nullopt;
}

/// Every proper prefix and every single-byte mutation of `line`, each
/// handed to `check` with a description.
template <typename Check>
void for_each_truncation_and_mutation(const std::string& line, Check check) {
  for (std::size_t n = 0; n < line.size(); ++n) {
    check(line.substr(0, n), "prefix " + std::to_string(n));
  }
  for (std::size_t pos = 0; pos < line.size(); ++pos) {
    for (const std::uint8_t flip : kFlips) {
      std::string mutated = line;
      mutated[pos] = static_cast<char>(mutated[pos] ^ flip);
      check(mutated, "byte " + std::to_string(pos) + " ^ " +
                         std::to_string(flip));
    }
  }
}

// ----------------------------------------------------------- journal line

TEST(JournalMutation, BothLineFormsRoundTrip) {
  const CellResult cell = full_cell();
  for (const std::string& line : {journal_entry(cell), journal_line(cell)}) {
    const auto got = parse_journal_entry(line);
    ASSERT_TRUE(got.has_value()) << line;
    EXPECT_EQ(journal_entry(*got), journal_entry(cell));
  }
}

TEST(JournalMutation, PlainLineTruncationsAndMutationsNeverThrow) {
  const std::string line = journal_entry(full_cell());
  std::size_t refused = 0;
  std::size_t accepted = 0;
  for_each_truncation_and_mutation(
      line, [&](const std::string& input, const std::string& what) {
        const auto got = parse_no_throw(input, what);
        if (!got) {
          ++refused;
          return;
        }
        ++accepted;
        // Whatever parses is a cell the writer could have written.
        EXPECT_TRUE(got->mode == Mode::Exploit || got->mode == Mode::Injection)
            << what;
        EXPECT_TRUE(parse_journal_entry(journal_entry(*got)).has_value())
            << what;
      });
  // Every prefix lacks the closing brace; digit and text flips parse.
  EXPECT_GE(refused, line.size());
  EXPECT_GT(accepted, 0u);
}

TEST(JournalMutation, ChecksummedLineAdmitsNoSilentCorruption) {
  const std::string expected = journal_entry(full_cell());
  const std::string line = journal_line(full_cell());
  std::size_t refused = 0;
  for_each_truncation_and_mutation(
      line, [&](const std::string& input, const std::string& what) {
        const auto got = parse_no_throw(input, what);
        if (!got) {
          ++refused;
          return;
        }
        // A mutant may only get through where the byte is not part of the
        // checksummed entry (the crc field's own framing); the cell it
        // yields is then the original.
        EXPECT_EQ(journal_entry(*got), expected) << what;
      });
  EXPECT_GE(refused, line.size());
}

// ------------------------------------------------------------- chaos plan

/// A plan touching both token forms, repeated points and the rate bound.
constexpr const char* kPlan =
    "journal.torn=5,worker.crash@3,worker.crash@1,net.drop=1000,"
    "supervisor.kill@12";

TEST(ChaosPlanMutation, TruncationsAndMutationsParseOrThrowInvalidArgument) {
  ASSERT_NO_THROW((void)parse_chaos_plan(kPlan));
  std::size_t refused = 0;
  std::size_t accepted = 0;
  for_each_truncation_and_mutation(
      kPlan, [&](const std::string& input, const std::string& what) {
        ChaosPlan plan;
        try {
          plan = parse_chaos_plan(input);
        } catch (const std::invalid_argument&) {
          ++refused;
          return;
        } catch (const std::exception& e) {
          ADD_FAILURE() << what << " threw " << e.what() << ": " << input;
          return;
        } catch (...) {
          ADD_FAILURE() << what << " threw a non-standard exception: "
                        << input;
          return;
        }
        ++accepted;
        for (const auto& [name, spec] : plan) {
          EXPECT_FALSE(chaos_point_description(name).empty()) << what;
          EXPECT_LE(spec.rate_permille, 1000u) << what;
          EXPECT_TRUE(std::is_sorted(spec.fire_at.begin(), spec.fire_at.end()))
              << what;
          EXPECT_TRUE(std::adjacent_find(spec.fire_at.begin(),
                                         spec.fire_at.end()) ==
                      spec.fire_at.end())
              << what;
          for (const std::uint64_t at : spec.fire_at) {
            EXPECT_GE(at, 1u) << what;
          }
        }
        // An accepted plan arms an engine.
        EXPECT_NO_THROW((ChaosEngine{1, plan})) << what;
      });
  EXPECT_GT(refused, 0u);
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace ii::core
