#include "hv/guest_op.hpp"

#include <limits>
#include <utility>

#include "hv/errors.hpp"
#include "hv/hypercall_table.hpp"
#include "hv/hypervisor.hpp"

namespace ii::hv {

std::string to_string(GuestOp::Kind kind) {
  switch (kind) {
    case GuestOp::Kind::ArbitraryWrite: return "arbitrary_write";
    case GuestOp::Kind::MmuUpdate: return "mmu_update";
    case GuestOp::Kind::Pin: return "pin";
    case GuestOp::Kind::Unpin: return "unpin";
    case GuestOp::Kind::NewBaseptr: return "new_baseptr";
    case GuestOp::Kind::Exchange: return "exchange";
    case GuestOp::Kind::GrantSetVersion: return "grant_set_version";
    case GuestOp::Kind::GrantAccess: return "grant_access";
    case GuestOp::Kind::GrantEndAccess: return "grant_end_access";
  }
  return "unknown";
}

long apply(Hypervisor& vmm, const GuestOp& op) {
  using Kind = GuestOp::Kind;
  switch (op.kind) {
    case Kind::ArbitraryWrite: {
      std::uint64_t value = op.value;
      HypercallPayload call = ArbitraryAccessCall{ArbitraryAccess{
          op.addr,
          {reinterpret_cast<std::uint8_t*>(&value), sizeof value},
          AccessAction::WritePhysical}};
      return dispatch_hypercall(vmm, op.caller,
                                arbitrary_access_nr(vmm.version()), call);
    }
    case Kind::MmuUpdate: {
      const MmuUpdate req{op.addr | kMmuNormalPtUpdate, op.value};
      return vmm.hypercall_mmu_update(op.caller, std::span{&req, 1});
    }
    case Kind::Pin: {
      if (op.level < 1 || op.level > 4) return kEINVAL;
      const auto cmd = static_cast<MmuExtCmd>(
          static_cast<int>(MmuExtCmd::PinL1Table) + op.level - 1);
      return vmm.hypercall_mmuext_op(op.caller,
                                     MmuExtOp{cmd, sim::Mfn{op.mfn}});
    }
    case Kind::Unpin:
      return vmm.hypercall_mmuext_op(
          op.caller, MmuExtOp{MmuExtCmd::UnpinTable, sim::Mfn{op.mfn}});
    case Kind::NewBaseptr:
      return vmm.hypercall_mmuext_op(
          op.caller, MmuExtOp{MmuExtCmd::NewBaseptr, sim::Mfn{op.mfn}});
    case Kind::Exchange: {
      MemoryExchange exch{{sim::Pfn{op.pfn}}, sim::Vaddr{op.out}, 0};
      return vmm.hypercall_memory_exchange(op.caller, exch);
    }
    case Kind::GrantSetVersion:
      return vmm.grants().set_version(op.caller, op.version);
    case Kind::GrantAccess:
      return vmm.grants().grant_access(op.caller, op.gref, op.peer,
                                       sim::Pfn{op.pfn}, /*readonly=*/false);
    case Kind::GrantEndAccess:
      return vmm.grants().end_access(op.caller, op.gref);
  }
  return kEINVAL;
}

// ------------------------------------------------------------ op records

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    put_u8(out, static_cast<std::uint8_t>(v >> 8 * i));
  }
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    put_u8(out, static_cast<std::uint8_t>(v >> 8 * i));
  }
}

void put_ops(std::vector<std::uint8_t>& out, std::span<const GuestOp> ops) {
  put_u32(out, static_cast<std::uint32_t>(ops.size()));
  for (const GuestOp& op : ops) {
    put_u8(out, static_cast<std::uint8_t>(op.kind));
    put_u8(out, op.level);
    put_u64(out, op.caller);
    put_u64(out, op.addr);
    put_u64(out, op.value);
    put_u64(out, op.mfn);
    put_u64(out, op.pfn);
    put_u64(out, op.out);
    put_u32(out, op.gref);
    put_u32(out, op.version);
    put_u64(out, op.peer);
    put_u32(out, static_cast<std::uint32_t>(op.label.size()));
    out.insert(out.end(), op.label.begin(), op.label.end());
  }
}

std::uint64_t ByteReader::le(std::size_t n) {
  if (!ok()) return 0;
  if (remaining() < n) {
    fail("truncated at byte " + std::to_string(pos_));
    return 0;
  }
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= std::uint64_t{bytes_[pos_++]} << 8 * i;
  }
  return v;
}

std::string ByteReader::str(std::size_t n) {
  if (remaining() < n) fail("truncated at byte " + std::to_string(pos_));
  if (!ok()) return {};
  pos_ += n;
  return {bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ - n),
          bytes_.begin() + static_cast<std::ptrdiff_t>(pos_)};
}

void ByteReader::fail(std::string why) {
  if (!ok_) return;
  ok_ = false;
  error_ = std::move(why);
}

namespace {

GuestOp get_op(ByteReader& in) {
  GuestOp op;
  const std::uint8_t kind = in.u8();
  op.level = in.u8();
  const std::uint64_t caller = in.u64();
  op.addr = in.u64();
  op.value = in.u64();
  op.mfn = in.u64();
  op.pfn = in.u64();
  op.out = in.u64();
  op.gref = in.u32();
  op.version = in.u32();
  const std::uint64_t peer = in.u64();
  const std::uint32_t label_len = in.u32();
  if (!in.ok()) return op;
  constexpr std::uint64_t kMaxDomain = std::numeric_limits<DomainId>::max();
  const bool pin = kind == static_cast<std::uint8_t>(GuestOp::Kind::Pin);
  if (kind >= kGuestOpKindCount) {
    in.fail("unknown op kind " + std::to_string(kind));
  } else if (op.level > 4 || (pin && op.level == 0)) {
    in.fail("page-table level " + std::to_string(op.level));
  } else if (caller > kMaxDomain || peer > kMaxDomain) {
    in.fail("domain id out of range");
  } else if (label_len > kMaxOpLabel) {
    in.fail("label of " + std::to_string(label_len) + " bytes");
  }
  if (!in.ok()) return op;
  op.kind = static_cast<GuestOp::Kind>(kind);
  op.caller = static_cast<DomainId>(caller);
  op.peer = static_cast<DomainId>(peer);
  op.label = in.str(label_len);
  return op;
}

}  // namespace

std::vector<GuestOp> get_ops(ByteReader& in, std::size_t max_ops) {
  const std::uint32_t n = in.u32();
  std::vector<GuestOp> ops;
  if (n > max_ops) {
    in.fail(std::to_string(n) + " ops exceed the bound " +
            std::to_string(max_ops));
  } else if (n > in.remaining() / kOpRecordFixedBytes) {
    in.fail("truncated: " + std::to_string(n) + " ops declared");
  }
  if (!in.ok()) return ops;
  ops.reserve(n);
  for (std::uint32_t i = 0; i < n && in.ok(); ++i) ops.push_back(get_op(in));
  return ops;
}

}  // namespace ii::hv
