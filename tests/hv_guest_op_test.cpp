// The one guest-op type (hv/guest_op.hpp).
//
// Its op-record codec is a hostile-input surface under both framings that
// carry it: the model checker's spill record and the fuzzer's IIFZ trace
// file. One table of every kind and every field runs through each framing:
// it must round-trip, every truncation must be refused, and every
// single-byte mutation must decode within the declared bounds or be
// refused — never read out of bounds or allocate from an attacker-chosen
// length. Runs in the ASan/UBSan gate (bench/run_asan.sh).
//
// Its dispatcher, hv::apply, must refuse what the codec refuses and must
// take the injector's own route to HYPERVISOR_arbitrary_access.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/model_checker.hpp"
#include "core/fuzz.hpp"
#include "core/injector.hpp"
#include "guest/platform.hpp"
#include "hv/guest_op.hpp"
#include "hv/hypercall_table.hpp"
#include "hv/hypervisor.hpp"
#include "obs/trace.hpp"

namespace ii {
namespace {

using hv::GuestOp;

constexpr std::size_t kDepth = 16;
constexpr std::uint64_t kHash = 0xDEADBEEFCAFE1234ULL;

/// One op of every kind, every field set; labels alternate with empty.
std::vector<GuestOp> every_kind_and_field() {
  std::vector<GuestOp> ops;
  for (std::size_t k = 0; k < hv::kGuestOpKindCount; ++k) {
    GuestOp op;
    op.kind = static_cast<GuestOp::Kind>(k);
    op.caller = static_cast<hv::DomainId>(1 + k);
    op.level = static_cast<std::uint8_t>(1 + k % 4);
    op.addr = 0x1000ULL * (k + 1) + (1ULL << 40);
    op.value = ~(0x1111ULL * k);
    op.mfn = 100 + k;
    op.pfn = 200 + k;
    op.out = 0xFFFF880000000000ULL + 0x1000 * k;
    op.gref = static_cast<std::uint32_t>(7 * k);
    op.version = static_cast<std::uint32_t>(1 + k % 2);
    op.peer = static_cast<hv::DomainId>(k);
    if (k % 2 == 0) op.label = "d1: op " + std::to_string(k);
    ops.push_back(op);
  }
  return ops;
}

/// A framing of the op codec: its encoder, its decoder (nullopt when the
/// bytes are refused), the table it carries and its op-count bound.
struct Framing {
  std::vector<std::uint8_t> (*encode)(const std::vector<GuestOp>&);
  std::optional<std::vector<GuestOp>> (*decode)(std::span<const std::uint8_t>);
  std::vector<GuestOp> table;
  std::size_t max_ops;
  bool allows_injector_write;
};

std::vector<std::uint8_t> spill_encode(const std::vector<GuestOp>& ops) {
  return analysis::encode_spill_record(ops, kHash);
}

std::optional<std::vector<GuestOp>> spill_decode(
    std::span<const std::uint8_t> bytes) {
  try {
    return analysis::decode_spill_record(bytes, kDepth).prefix;
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

core::CorpusEntry entry_of(const std::vector<GuestOp>& ops) {
  core::CorpusEntry entry;
  entry.ops = ops;
  entry.outcome = core::FuzzOutcome::IsolationViolation;
  entry.classes = {analysis::ErroneousStateClass::Xsa182WritableSelfMap,
                   analysis::ErroneousStateClass::Other};
  entry.state_hash = kHash;
  return entry;
}

std::vector<std::uint8_t> iifz_encode(const std::vector<GuestOp>& ops) {
  return core::serialize_trace(entry_of(ops), hv::kXen46);
}

std::optional<std::vector<GuestOp>> iifz_decode(
    std::span<const std::uint8_t> bytes) {
  auto entry = core::deserialize_trace(bytes);
  if (!entry) return std::nullopt;
  return std::move(entry->ops);
}

/// The checker's alphabet is the table without the injector's write.
Framing spill_framing() {
  std::vector<GuestOp> table;
  for (const GuestOp& op : every_kind_and_field()) {
    if (op.kind != GuestOp::Kind::ArbitraryWrite) table.push_back(op);
  }
  return {spill_encode, spill_decode, table, kDepth, false};
}

Framing iifz_framing() {
  return {iifz_encode, iifz_decode, every_kind_and_field(), 1u << 20, true};
}

void expect_round_trip(const Framing& f) {
  const auto got = f.decode(f.encode(f.table));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, f.table);
  const auto empty = f.decode(f.encode({}));
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

void expect_every_truncation_refused(const Framing& f) {
  const std::vector<std::uint8_t> bytes = f.encode(f.table);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(f.decode(std::span{bytes.data(), n}).has_value())
        << "accepted a " << n << "-byte prefix";
  }
  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(f.decode(trailing).has_value());
}

void expect_mutations_bounded(const Framing& f) {
  const std::vector<std::uint8_t> bytes = f.encode(f.table);
  std::size_t refused = 0;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xFF}) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[pos] ^= flip;
      const auto got = f.decode(mutated);
      if (!got) {
        ++refused;
        continue;
      }
      EXPECT_LE(got->size(), f.max_ops) << pos;
      for (const GuestOp& op : *got) {
        EXPECT_LT(static_cast<std::size_t>(op.kind), hv::kGuestOpKindCount)
            << pos;
        EXPECT_LE(op.level, 4) << pos;
        if (op.kind == GuestOp::Kind::Pin) {
          EXPECT_GE(op.level, 1) << pos;
        }
        if (!f.allows_injector_write) {
          EXPECT_NE(op.kind, GuestOp::Kind::ArbitraryWrite) << pos;
        }
        EXPECT_LE(op.label.size(), hv::kMaxOpLabel) << pos;
      }
    }
  }
  // Kind, level, count and length bytes are among the mutations.
  EXPECT_GT(refused, 0u);
}

/// Little-endian u32 overwrite at `pos`.
void poke_u32(std::vector<std::uint8_t>& bytes, std::size_t pos,
              std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes[pos + i] = (v >> (8 * i)) & 0xff;
}

/// Offsets into a framing's bytes: where its op count sits, where op 0's
/// kind and level sit, and where op 0's label length sits.
constexpr std::size_t kSpillCount = 0;
constexpr std::size_t kIifzCount = 4 + 1 + 2;
constexpr std::size_t kLevelInOp = 1;
constexpr std::size_t kLabelLenInOp = hv::kOpRecordFixedBytes - 4;

// ------------------------------------------------------------ spill record

TEST(SpillCodec, RoundTripsEveryKind) {
  expect_round_trip(spill_framing());
  const analysis::SpillRecord rec =
      analysis::decode_spill_record(spill_encode({}), 0);
  EXPECT_EQ(rec.hash, kHash);
}

TEST(SpillCodec, EveryTruncationIsRefused) {
  expect_every_truncation_refused(spill_framing());
}

TEST(SpillCodec, SingleByteMutationsDecodeWithinBoundsOrAreRefused) {
  expect_mutations_bounded(spill_framing());
}

TEST(SpillCodec, BoundsAreEnforcedBeforeAllocating) {
  const Framing f = spill_framing();
  const std::vector<std::uint8_t> bytes = f.encode(f.table);
  const auto refuses = [](const std::vector<std::uint8_t>& b,
                          std::size_t max_ops) {
    EXPECT_THROW((void)analysis::decode_spill_record(b, max_ops),
                 std::runtime_error);
  };

  // More ops than the run's depth bound, up to the full u32 range.
  refuses(bytes, f.table.size() - 1);
  std::vector<std::uint8_t> many = bytes;
  poke_u32(many, kSpillCount, 0xFFFFFFFFu);
  refuses(many, 0xFFFFFFFFu);

  // A label length past the cap or past the end of the record.
  for (const std::uint32_t len :
       {static_cast<std::uint32_t>(hv::kMaxOpLabel + 1), 0xFFFFFFFFu}) {
    std::vector<std::uint8_t> huge = bytes;
    poke_u32(huge, kSpillCount + 4 + kLabelLenInOp, len);
    refuses(huge, kDepth);
  }

  // An op kind past the alphabet, a level above 4, and the injector's
  // write, which the checker never enumerates.
  std::vector<std::uint8_t> kind = bytes;
  kind[4] = static_cast<std::uint8_t>(hv::kGuestOpKindCount);
  refuses(kind, kDepth);
  std::vector<std::uint8_t> level = bytes;
  level[4 + kLevelInOp] = 5;
  refuses(level, kDepth);
  GuestOp write;
  write.kind = GuestOp::Kind::ArbitraryWrite;
  refuses(spill_encode({write}), kDepth);
}

// ------------------------------------------------------------- IIFZ trace

TEST(TraceSerialization, RoundTripsEveryKindAndVersion) {
  expect_round_trip(iifz_framing());
  const core::CorpusEntry entry = entry_of(every_kind_and_field());
  for (const hv::XenVersion version : {hv::kXen46, hv::kXen48, hv::kXen413}) {
    hv::XenVersion got_version{};
    const auto got =
        core::deserialize_trace(core::serialize_trace(entry, version),
                                &got_version);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, entry);
    EXPECT_EQ(got_version.major, version.major);
    EXPECT_EQ(got_version.minor, version.minor);
  }
}

TEST(TraceSerialization, RejectsCorruption) {
  const Framing f = iifz_framing();
  expect_every_truncation_refused(f);
  const std::vector<std::uint8_t> bytes = f.encode(f.table);

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(core::deserialize_trace(bad_magic).has_value());
  // Format 1 records carried no caller, peer or label.
  std::vector<std::uint8_t> format1 = bytes;
  format1[4] = 1;
  EXPECT_FALSE(core::deserialize_trace(format1).has_value());
  // A header that claims 2^20 ops and carries none is refused before
  // anything is reserved.
  std::vector<std::uint8_t> header(bytes.begin(),
                                   bytes.begin() + kIifzCount + 4);
  poke_u32(header, kIifzCount, 1u << 20);
  EXPECT_FALSE(core::deserialize_trace(header).has_value());
}

TEST(TraceSerialization, SingleByteMutationsDecodeWithinBoundsOrAreRefused) {
  expect_mutations_bounded(iifz_framing());
}

TEST(TraceSerialization, RefusesPinLevelsOutsideOneToFour) {
  GuestOp pin;
  pin.kind = GuestOp::Kind::Pin;
  for (const std::uint8_t level : {0, 5, 6, 200}) {
    pin.level = level;
    EXPECT_FALSE(iifz_decode(iifz_encode({pin})).has_value()) << +level;
  }
  for (const std::uint8_t level : {1, 2, 3, 4}) {
    pin.level = level;
    EXPECT_TRUE(iifz_decode(iifz_encode({pin})).has_value()) << +level;
  }
  GuestOp unpin;
  unpin.kind = GuestOp::Kind::Unpin;
  unpin.level = 5;
  EXPECT_FALSE(iifz_decode(iifz_encode({unpin})).has_value());
}

TEST(TraceSerialization, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ii_fuzz_seq_rt_" + std::to_string(::getpid()) + ".trace"))
          .string();
  core::CorpusEntry entry = entry_of(every_kind_and_field());
  entry.outcome = core::FuzzOutcome::DetectedByAudit;
  ASSERT_TRUE(core::store_trace_file(path, entry, hv::kXen48));
  hv::XenVersion version{};
  const auto got = core::load_trace_file(path, &version);
  std::filesystem::remove(path);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, entry);
  EXPECT_EQ(version.major, 4);
  EXPECT_EQ(version.minor, 8);
}

// ------------------------------------------------------------- dispatcher

TEST(GuestOpApply, PinLevelOutsideOneToFourIsRefusedWithoutEffect) {
  // The model checker's machine shape.
  sim::PhysicalMemory mem{64};
  hv::Hypervisor vmm{mem, hv::VersionPolicy::for_version(hv::kXen46)};
  (void)vmm.create_domain("dom0", /*privileged=*/true, 16);
  const hv::DomainId guest = vmm.create_domain("guest1", false, 16);
  const std::uint64_t before = vmm.state_hash();

  GuestOp pin;
  pin.kind = GuestOp::Kind::Pin;
  pin.caller = guest;
  pin.mfn = vmm.domain(guest).cr3().raw();
  for (const std::uint8_t level : {0, 5, 6, 200}) {
    pin.level = level;
    EXPECT_EQ(hv::apply(vmm, pin), hv::kEINVAL) << +level;
    EXPECT_EQ(vmm.state_hash(), before) << +level;
  }
}

/// Two platforms booted alike, each with its own trace sink.
struct Twins {
  explicit Twins(hv::XenVersion version, bool injector = true) {
    guest::PlatformConfig pc;
    pc.version = version;
    pc.injector_enabled = injector;
    pc.machine_frames = 8192;
    pc.dom0_pages = 128;
    pc.guest_pages = 64;
    pc.trace_sink = &sink_a;
    a.emplace(pc);
    pc.trace_sink = &sink_b;
    b.emplace(pc);
  }

  /// The same write by both routes: hv::apply on `a`, the injector on `b`.
  void write_both(std::uint64_t addr, std::uint64_t value) {
    GuestOp op;
    op.kind = GuestOp::Kind::ArbitraryWrite;
    op.caller = a->guest(0).id();
    op.addr = addr;
    op.value = value;
    const long rc_a = hv::apply(a->hv(), op);
    core::ArbitraryAccessInjector injector{b->guest(0)};
    (void)injector.write_u64(addr, value, core::AddressMode::Physical);
    EXPECT_EQ(rc_a, injector.last_rc()) << std::hex << addr;
    EXPECT_EQ(a->hv().state_hash(), b->hv().state_hash()) << std::hex << addr;
    EXPECT_EQ(sink_a.count(obs::TraceCategory::HypercallEnter),
              sink_b.count(obs::TraceCategory::HypercallEnter));
    EXPECT_EQ(sink_a.hypercall_counts(), sink_b.hypercall_counts());
    ++writes;
    refused += rc_a != hv::kOk ? 1 : 0;
  }

  obs::TraceSink sink_a, sink_b;
  std::optional<guest::VirtualPlatform> a, b;
  unsigned writes = 0;
  unsigned refused = 0;
};

TEST(GuestOpApply, ArbitraryWriteTakesTheInjectorsRoute) {
  for (const hv::XenVersion version : {hv::kXen46, hv::kXen48, hv::kXen413}) {
    Twins t{version};
    for (unsigned i = 0; i < 40; ++i) {
      std::mt19937_64 rng = core::rng_for(13, i);
      const auto target = static_cast<core::FuzzTarget>(
          core::draw_below(rng, core::kFuzzTargetCount));
      std::uint64_t addr = 0;
      std::uint64_t value = 0;
      core::draw_injection(rng, *t.a, target, &addr, &value);
      t.write_both(addr, value);
    }
    t.write_both(t.a->memory().byte_size(), 0);  // past the end: -EFAULT
    EXPECT_EQ(t.refused, 1u) << version.to_string();
    EXPECT_EQ(t.sink_a.hypercall_count(hv::arbitrary_access_nr(version)),
              t.writes)
        << version.to_string();
  }
}

TEST(GuestOpApply, StockBuildIsEnosysOnBothRoutes) {
  Twins t{hv::kXen46, /*injector=*/false};
  t.write_both(0x1000, 0xFF);
  EXPECT_EQ(t.refused, 1u);
  GuestOp op;
  op.kind = GuestOp::Kind::ArbitraryWrite;
  op.caller = t.a->guest(0).id();
  EXPECT_EQ(hv::apply(t.a->hv(), op), hv::kENOSYS);
}

}  // namespace
}  // namespace ii
