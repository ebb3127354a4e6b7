// The one guest-issuable operation type, its dispatcher and its codec.
//
// The bounded model checker (analysis/model_checker.hpp) enumerates
// GuestOps and the sequence fuzzer (core/fuzz.hpp) generates and mutates
// them. Both apply them through hv::apply and persist them through one
// little-endian op-record codec, framed by the checker's spill record
// (DESIGN.md §16) and by the fuzzer's IIFZ trace file (§17). Operands are
// absolute (machine addresses, frame numbers and guest VAs of the
// deterministic boot layout), so an op replays against a fresh machine of
// the same configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hv/frame_table.hpp"

namespace ii::hv {

class Hypervisor;

struct GuestOp {
  /// The order is the fuzzer's coverage-context order; the byte value is
  /// the kind field of the op record.
  enum class Kind : std::uint8_t {
    ArbitraryWrite,   ///< injector write of `value` at machine byte `addr`
    MmuUpdate,        ///< validated PTE write (`addr` = slot machine address)
    Pin,              ///< pin `mfn` as an L<level> table
    Unpin,            ///< unpin `mfn`
    NewBaseptr,       ///< switch the caller's CR3 to `mfn`
    Exchange,         ///< trade `pfn`; replacement MFN written to VA `out`
    GrantSetVersion,  ///< switch the caller's grant table to `version`
    GrantAccess,      ///< grant `peer` reference `gref` over `pfn`
    GrantEndAccess,   ///< revoke reference `gref`
  };
  Kind kind = Kind::ArbitraryWrite;
  DomainId caller = 0;
  std::uint8_t level = 0;  ///< Pin: table level 1..4; never above 4
  std::uint64_t addr = 0;
  std::uint64_t value = 0;
  std::uint64_t mfn = 0;
  std::uint64_t pfn = 0;
  std::uint64_t out = 0;
  std::uint32_t gref = 0;
  std::uint32_t version = 0;
  DomainId peer = kDomInvalid;
  /// What counterexamples print, e.g. "d1: pin data mfn 0x2a as L4". The
  /// fuzzer leaves it empty.
  std::string label;

  friend bool operator==(const GuestOp&, const GuestOp&) = default;
};

inline constexpr std::size_t kGuestOpKindCount = 9;

[[nodiscard]] std::string to_string(GuestOp::Kind kind);

/// Issue `op` as its caller and return the hypercall status. ArbitraryWrite
/// dispatches HYPERVISOR_arbitrary_access through the numbered table at the
/// version's slot, the path ArbitraryAccessInjector::write_u64 takes; the
/// other kinds call the Hypervisor entry points directly. A Pin level
/// outside 1..4 is refused with -EINVAL and changes nothing.
long apply(Hypervisor& vmm, const GuestOp& op);

// ------------------------------------------------------------ op records
//
// An op record is kind, level (u8 each), caller (u64), addr, value, mfn,
// pfn, out (u64 each), gref, version (u32 each), peer (u64), then a u32
// label length and the label bytes. An op sequence is a u32 count followed
// by its records.

/// Longest label an op record may carry.
inline constexpr std::size_t kMaxOpLabel = 4096;
/// Bytes of an op record before its label.
inline constexpr std::size_t kOpRecordFixedBytes = 2 + 7 * 8 + 2 * 4 + 4;

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
/// Append the count and the records of `ops`.
void put_ops(std::vector<std::uint8_t>& out, std::span<const GuestOp> ops);

/// Bounds-checked little-endian cursor over untrusted bytes. The first
/// overrun or refusal latches ok() false and keeps its reason; every later
/// read yields 0, so a decoder checks once per field group.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_{bytes} {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  /// The next `n` bytes as a string; empty once latched.
  std::string str(std::size_t n);
  /// Latch a refusal; the first reason is kept.
  void fail(std::string why);

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::uint64_t le(std::size_t n);

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

/// Read an op sequence. The reader latches a refusal on a count above
/// `max_ops` or above what the remaining bytes can hold (both checked
/// before anything is reserved), on an unknown kind, a level above 4 or a
/// Pin level outside 1..4, a domain id wider than DomainId, or a label
/// longer than kMaxOpLabel. The result is meaningful only while ok().
[[nodiscard]] std::vector<GuestOp> get_ops(ByteReader& in,
                                           std::size_t max_ops);

}  // namespace ii::hv
