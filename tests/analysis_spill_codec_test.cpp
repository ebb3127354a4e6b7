// The model checker's spill-record codec (DESIGN.md §16). Spill files are
// read back from disk, so the decoder is a hostile-input surface: every
// truncation and every single-byte mutation of a valid record must either
// decode to a record within the declared bounds or be refused with
// std::runtime_error — never read out of bounds or allocate from an
// attacker-chosen length. Runs in the ASan/UBSan gate (bench/run_asan.sh).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/model_checker.hpp"

namespace ii::analysis {
namespace {

constexpr std::size_t kDepth = 16;

/// One op of every kind, operands chosen to exercise every encoded field.
std::vector<Op> all_kinds_prefix() {
  std::vector<Op> ops;
  for (std::uint8_t k = 0;
       k <= static_cast<std::uint8_t>(Op::Kind::GrantEndAccess); ++k) {
    Op op;
    op.kind = static_cast<Op::Kind>(k);
    op.caller = static_cast<hv::DomainId>(1 + k);
    op.ptr = 0x1000ULL * (k + 1) + (1ULL << 40);
    op.val = ~(0x1111ULL * k);
    op.mfn = sim::Mfn{100U + k};
    op.level = 1 + k % 4;
    op.pfn = sim::Pfn{200U + k};
    op.out = sim::Vaddr{0xFFFF880000000000ULL + 0x1000ULL * k};
    op.gref = 7U * k;
    op.version = 1 + k % 2;
    op.peer = static_cast<hv::DomainId>(k);
    op.label = "d1: op " + std::to_string(k);
    ops.push_back(std::move(op));
  }
  return ops;
}

void expect_same_ops(const std::vector<Op>& want, const std::vector<Op>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].kind, got[i].kind) << i;
    EXPECT_EQ(want[i].caller, got[i].caller) << i;
    EXPECT_EQ(want[i].ptr, got[i].ptr) << i;
    EXPECT_EQ(want[i].val, got[i].val) << i;
    EXPECT_EQ(want[i].mfn, got[i].mfn) << i;
    EXPECT_EQ(want[i].level, got[i].level) << i;
    EXPECT_EQ(want[i].pfn, got[i].pfn) << i;
    EXPECT_EQ(want[i].out, got[i].out) << i;
    EXPECT_EQ(want[i].gref, got[i].gref) << i;
    EXPECT_EQ(want[i].version, got[i].version) << i;
    EXPECT_EQ(want[i].peer, got[i].peer) << i;
    EXPECT_EQ(want[i].label, got[i].label) << i;
  }
}

/// Little-endian u32 overwrite at `pos`.
void poke_u32(std::vector<std::uint8_t>& bytes, std::size_t pos,
              std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes[pos + i] = (v >> (8 * i)) & 0xff;
}

/// Byte offset of op 0's label length: count (4) + kind, level (2) + six
/// u64 fields (48) + gref, version (8) + peer (8).
constexpr std::size_t kFirstLabelLen = 4 + 2 + 48 + 8 + 8;

TEST(SpillCodec, RoundTripsEveryKind) {
  const std::vector<Op> prefix = all_kinds_prefix();
  const std::vector<std::uint8_t> bytes =
      encode_spill_record(prefix, 0xDEADBEEFCAFE1234ULL);
  const SpillRecord rec = decode_spill_record(bytes, kDepth);
  expect_same_ops(prefix, rec.prefix);
  EXPECT_EQ(rec.hash, 0xDEADBEEFCAFE1234ULL);

  const SpillRecord root = decode_spill_record(encode_spill_record({}, 9), 0);
  EXPECT_TRUE(root.prefix.empty());
  EXPECT_EQ(root.hash, 9u);
}

TEST(SpillCodec, EveryTruncationIsRefused) {
  const std::vector<std::uint8_t> bytes =
      encode_spill_record(all_kinds_prefix(), 42);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW((void)decode_spill_record(std::span{bytes.data(), n}, kDepth),
                 std::runtime_error)
        << "accepted a " << n << "-byte prefix";
  }
  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW((void)decode_spill_record(trailing, kDepth), std::runtime_error);
}

TEST(SpillCodec, BoundsAreEnforcedBeforeAllocating) {
  const std::vector<Op> prefix = all_kinds_prefix();
  const std::vector<std::uint8_t> bytes = encode_spill_record(prefix, 42);

  // More ops than the run's depth bound, up to the full u32 range.
  EXPECT_THROW((void)decode_spill_record(bytes, prefix.size() - 1),
               std::runtime_error);
  std::vector<std::uint8_t> many = bytes;
  poke_u32(many, 0, 0xFFFFFFFFu);
  EXPECT_THROW((void)decode_spill_record(many, 0xFFFFFFFFu),
               std::runtime_error);

  // A label length past the cap or past the end of the record.
  for (const std::uint32_t len :
       {static_cast<std::uint32_t>(kMaxSpillLabel + 1), 0xFFFFFFFFu}) {
    std::vector<std::uint8_t> huge = bytes;
    poke_u32(huge, kFirstLabelLen, len);
    EXPECT_THROW((void)decode_spill_record(huge, kDepth), std::runtime_error)
        << len;
  }

  // An op kind or page-table level outside the alphabet.
  std::vector<std::uint8_t> kind = bytes;
  kind[4] = static_cast<std::uint8_t>(Op::Kind::GrantEndAccess) + 1;
  EXPECT_THROW((void)decode_spill_record(kind, kDepth), std::runtime_error);
  std::vector<std::uint8_t> level = bytes;
  level[5] = 5;
  EXPECT_THROW((void)decode_spill_record(level, kDepth), std::runtime_error);
}

TEST(SpillCodec, SingleByteMutationsDecodeWithinBoundsOrAreRefused) {
  const std::vector<std::uint8_t> bytes =
      encode_spill_record(all_kinds_prefix(), 42);
  std::size_t refused = 0;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xFF}) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[pos] ^= flip;
      try {
        const SpillRecord rec = decode_spill_record(mutated, kDepth);
        EXPECT_LE(rec.prefix.size(), kDepth) << pos;
        for (const Op& op : rec.prefix) {
          EXPECT_LE(static_cast<unsigned>(op.kind),
                    static_cast<unsigned>(Op::Kind::GrantEndAccess));
          EXPECT_LE(op.level, 4);
          EXPECT_LE(op.label.size(), kMaxSpillLabel);
        }
      } catch (const std::runtime_error&) {
        ++refused;
      }
    }
  }
  // Length and count fields are covered by the mutations, so some refuse.
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace ii::analysis
