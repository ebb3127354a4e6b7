// Bounded model checking over the real validation engine (see
// model_checker.hpp for the exploration model).
//
// Layout of this file:
//   - machine construction for the bounded configuration
//   - the operation alphabet (enumerated per state, deterministic order)
//   - state diffing (counterexample readability)
//   - erroneous-state classification over the shared SystemWalk
//   - the spill record (framing hv::put_ops) and spill file
//   - the exploration engine and its entry point
#include "analysis/model_checker.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

#include "analysis/visited.hpp"
#include "hv/audit.hpp"
#include "hv/errors.hpp"
#include "hv/layout.hpp"
#include "hv/snapshot.hpp"
#include "obs/span.hpp"
#include "obs/status.hpp"

namespace ii::analysis {

namespace {

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

int level_of(hv::PageType t) {
  switch (t) {
    case hv::PageType::L1: return 1;
    case hv::PageType::L2: return 2;
    case hv::PageType::L3: return 3;
    case hv::PageType::L4: return 4;
    default: return 0;
  }
}

// ------------------------------------------------------------------ machine

/// The bounded configuration under test: one machine, dom0, and the guests
/// that issue every enumerated operation.
struct Machine {
  sim::PhysicalMemory mem;
  hv::Hypervisor vmm;
  std::vector<hv::DomainId> guests;

  explicit Machine(const ModelCheckConfig& config)
      : mem{config.machine_frames},
        vmm{mem, hv::VersionPolicy::for_version(config.version)} {
    (void)vmm.create_domain("dom0", /*privileged=*/true, config.dom0_pages);
    for (unsigned i = 0; i < config.guest_domains; ++i) {
      guests.push_back(vmm.create_domain("guest" + std::to_string(i + 1),
                                         /*privileged=*/false,
                                         config.domain_pages));
    }
  }
};

// ----------------------------------------------------------------- alphabet

/// Enumerate the operation alphabet for the current state, in a fixed
/// deterministic order. The palette is curated but adversarial: for every
/// live page table it includes clears, remaps, read-only and writable
/// (self-)maps, superpage attempts, reserved-slot writes, pin/unpin and
/// baseptr switches, and exchange with benign and hostile output pointers —
/// the full guest-issuable surface the paper's three memory XSAs sit on.
std::vector<hv::GuestOp> enumerate_ops(
    const hv::Hypervisor& vmm, const ModelCheckConfig& config,
    const std::vector<hv::DomainId>& guests) {
  using Kind = hv::GuestOp::Kind;
  constexpr std::uint64_t kP = sim::Pte::kPresent;
  constexpr std::uint64_t kW = sim::Pte::kWritable;
  constexpr std::uint64_t kU = sim::Pte::kUser;
  constexpr std::uint64_t kS = sim::Pte::kPageSize;

  std::vector<hv::GuestOp> ops;
  for (const hv::DomainId id : guests) {
    const hv::Domain& dom = vmm.domain(id);
    if (dom.crashed()) continue;
    const std::string who = "d" + std::to_string(id);

    const sim::Mfn cr3 = dom.cr3();
    const auto base = dom.p2m(sim::Pfn{0});
    const auto data = dom.p2m(hv::kFirstFreePfn);
    const sim::Pfn data2_pfn{hv::kFirstFreePfn.raw() + 1};
    const sim::Pfn l1_pfn{config.domain_pages - 4};

    // Live page tables the domain owns, in MFN order.
    struct Table {
      sim::Mfn mfn;
      int level;
    };
    std::vector<Table> tables;
    for (std::uint64_t m = 0; m < vmm.frames().frame_count(); ++m) {
      const hv::PageInfo& pi = vmm.frames().info(sim::Mfn{m});
      if (pi.owner == id && hv::is_pagetable_type(pi.type) && pi.validated) {
        tables.push_back(Table{sim::Mfn{m}, level_of(pi.type)});
      }
    }

    const auto add_mmu = [&](const Table& t, unsigned slot, std::uint64_t val,
                             const std::string& what) {
      ops.push_back(hv::GuestOp{
          .kind = Kind::MmuUpdate,
          .caller = id,
          .addr = sim::mfn_to_paddr(t.mfn).raw() + 8ULL * slot,
          .value = val,
          .label = who + ": mmu_update L" + std::to_string(t.level) +
                   "[mfn " + hex(t.mfn.raw()) + "][" + std::to_string(slot) +
                   "] <- " + what});
    };
    const auto pte = [](sim::Mfn f, std::uint64_t flags) {
      return sim::Pte::make(f, flags).raw();
    };

    for (const Table& t : tables) {
      switch (t.level) {
        case 1:
          for (const unsigned slot :
               {static_cast<unsigned>(hv::kFirstFreePfn.raw()),
                static_cast<unsigned>(l1_pfn.raw())}) {
            add_mmu(t, slot, 0, "clear");
            if (data) {
              add_mmu(t, slot, pte(*data, kP | kW | kU), "rw data page");
              add_mmu(t, slot, pte(*data, kP | kU), "ro data page");
            }
            add_mmu(t, slot, pte(t.mfn, kP | kW | kU), "rw map of this L1");
            add_mmu(t, slot, pte(cr3, kP | kU), "ro map of own L4");
            add_mmu(t, slot, pte(cr3, kP | kW | kU), "rw map of own L4");
            add_mmu(t, slot, pte(sim::Mfn{0}, kP | kW | kU),
                    "rw map of xen frame 0");
          }
          break;
        case 2:
          add_mmu(t, 0, 0, "clear kernel L1 link");
          if (base) {
            add_mmu(t, 0, pte(*base, kP | kW | kU | kS),
                    "2MiB PSE superpage over own region");
          }
          if (data) {
            add_mmu(t, 0, pte(*data, kP | kU), "link data page as L1");
          }
          break;
        case 3:
          add_mmu(t, 0, 0, "clear kernel L2 link");
          if (data) {
            add_mmu(t, 0, pte(*data, kP | kU), "link data page as L2");
          }
          if (base) {
            add_mmu(t, 0, pte(*base, kP | kW | kU | kS), "1GiB PSE attempt");
          }
          break;
        case 4: {
          const unsigned kernel_slot = sim::level_index_of(
              sim::Vaddr{hv::kGuestKernelBase}, sim::PtLevel::L4);
          add_mmu(t, kernel_slot, 0, "clear kernel L3 link");
          if (data) {
            add_mmu(t, kernel_slot, pte(*data, kP | kU),
                    "link data page as L3");
          }
          add_mmu(t, hv::kLinearPtSlot, 0, "clear linear slot");
          add_mmu(t, hv::kLinearPtSlot, pte(cr3, kP | kU),
                  "ro linear self map");
          add_mmu(t, hv::kLinearPtSlot, pte(cr3, kP | kW | kU),
                  "RW linear self map (XSA-182 flip)");
          if (data) {
            add_mmu(t, hv::kLinearPtSlot, pte(*data, kP | kU),
                    "ro data page in linear slot");
          }
          add_mmu(t, hv::kXenFirstReservedSlot, pte(cr3, kP | kU),
                  "ro self map in xen text slot");
          break;
        }
        default: break;
      }
    }

    // Pin / unpin / baseptr.
    const auto add_ext = [&](Kind kind, sim::Mfn mfn, std::uint8_t level,
                             const std::string& what) {
      ops.push_back(hv::GuestOp{.kind = kind,
                                .caller = id,
                                .level = level,
                                .mfn = mfn.raw(),
                                .label = who + ": " + what});
    };
    if (data) {
      add_ext(Kind::Pin, *data, 1, "pin data mfn " + hex(data->raw()) + " as L1");
      add_ext(Kind::Pin, *data, 4, "pin data mfn " + hex(data->raw()) + " as L4");
    }
    for (const Table& t : tables) {
      if (t.level == 1) {
        add_ext(Kind::Pin, t.mfn, 1, "re-pin L1 mfn " + hex(t.mfn.raw()));
        break;
      }
    }
    std::set<std::uint64_t> pinned;
    for (const sim::Mfn m : dom.pinned_tables()) pinned.insert(m.raw());
    for (const std::uint64_t m : pinned) {
      add_ext(Kind::Unpin, sim::Mfn{m}, 0, "unpin mfn " + hex(m));
    }
    for (const Table& t : tables) {
      if (t.level == 4) {
        add_ext(Kind::NewBaseptr, t.mfn, 4,
                "new_baseptr mfn " + hex(t.mfn.raw()));
      }
    }

    // memory_exchange with benign and hostile output pointers.
    if (data) {
      const auto add_exchange = [&](sim::Vaddr out, const std::string& what) {
        ops.push_back(hv::GuestOp{
            .kind = Kind::Exchange,
            .caller = id,
            .pfn = hv::kFirstFreePfn.raw(),
            .out = out.raw(),
            .label = who + ": exchange pfn " +
                     std::to_string(hv::kFirstFreePfn.raw()) + ", out = " +
                     what});
      };
      add_exchange(hv::guest_directmap_vaddr(data2_pfn), "own data page");
      add_exchange(hv::directmap_vaddr(vmm.idt_base()),
                   "hypervisor IDT (XSA-212 target)");
      add_exchange(sim::Vaddr{hv::kXenTextBase}, "xen text");
      add_exchange(hv::guest_directmap_vaddr(l1_pfn), "own RO-mapped L1 page");
    }

    // Grant ops (gated: the v2->v1 downgrade leak is pre-4.13 by design).
    if (config.include_grant_ops) {
      const auto add_grant = [&](Kind kind, std::uint32_t version,
                                 std::uint32_t gref, const std::string& what) {
        ops.push_back(hv::GuestOp{.kind = kind,
                                  .caller = id,
                                  .pfn = hv::kFirstFreePfn.raw(),
                                  .gref = gref,
                                  .version = version,
                                  .peer = hv::kDom0,
                                  .label = who + ": " + what});
      };
      add_grant(Kind::GrantSetVersion, 2, 0, "grant set_version 2");
      add_grant(Kind::GrantSetVersion, 1, 0, "grant set_version 1");
      add_grant(Kind::GrantAccess, 0, 0, "grant ref 0 to dom0");
      add_grant(Kind::GrantEndAccess, 0, 0, "grant end_access ref 0");
    }
  }
  return ops;
}

// --------------------------------------------------------------- state diff

/// Read-only view of a CoW forest node against the shared root snapshot:
/// resolves frame bytes and PageInfo without materializing a full snapshot,
/// and exposes the node's dirty sets so two views over the same root can be
/// diffed in O(changed) instead of O(machine). Diff lines are emitted only
/// where *contents* differ, because a node's frame list is a conservative
/// superset of the frames that diverged from the root.
class StateView {
 public:
  StateView(const hv::HvSnapshot& base, const hv::HvCowState& cow)
      : base_{&base}, cow_{&cow} {
    dirty_.reserve(cow.mem_frames.size());
    for (const auto& [m, block] : cow.mem_frames) dirty_.push_back(m);
  }

  [[nodiscard]] const std::uint8_t* frame(std::uint64_t m) const {
    const auto it = std::lower_bound(dirty_.begin(), dirty_.end(), m);
    if (it != dirty_.end() && *it == m) {
      return cow_->mem_frames[std::size_t(it - dirty_.begin())]
          .second->bytes.data();
    }
    return base_->memory.data() + m * sim::kPageSize;
  }
  [[nodiscard]] std::uint64_t frame_u64(std::uint64_t m, unsigned slot) const {
    std::uint64_t v = 0;
    std::memcpy(&v, frame(m) + 8ULL * slot, sizeof v);
    return v;
  }
  [[nodiscard]] const hv::PageInfo& page_info(std::uint64_t m) const {
    const auto& fs = cow_->frames;  // ascending by mfn (capture order)
    const auto it = std::lower_bound(
        fs.begin(), fs.end(), m,
        [](const auto& entry, std::uint64_t mfn) { return entry.first < mfn; });
    if (it != fs.end() && it->first == m) return it->second;
    return base_->frames[m];
  }

  /// MFNs whose contents may differ from the shared root.
  [[nodiscard]] const std::vector<std::uint64_t>& dirty_frames() const {
    return dirty_;
  }
  /// MFNs whose PageInfo differs from the shared root.
  [[nodiscard]] std::vector<std::uint64_t> changed_page_infos() const {
    std::vector<std::uint64_t> out;
    out.reserve(cow_->frames.size());
    for (const auto& [m, pi] : cow_->frames) out.push_back(m);
    return out;
  }

  [[nodiscard]] const std::vector<hv::Domain>& domains() const {
    return cow_->domains;
  }
  [[nodiscard]] const hv::GrantOps::State& grants() const {
    return cow_->grants;
  }
  [[nodiscard]] bool crashed() const { return cow_->crashed; }
  [[nodiscard]] bool cpu_hung() const { return cow_->cpu_hung; }

 private:
  const hv::HvSnapshot* base_;
  const hv::HvCowState* cow_;
  std::vector<std::uint64_t> dirty_;  ///< cow_->mem_frames' MFNs
};

/// Ascending union of two sorted MFN lists.
std::vector<std::uint64_t> merge_sorted(const std::vector<std::uint64_t>& a,
                                        const std::vector<std::uint64_t>& b) {
  std::vector<std::uint64_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// Human-readable field-level differences between a parent state and its
/// violating successor, both expressed against the same root; capped so
/// counterexamples stay printable. Only frames in either state's dirty set
/// are examined — frames untouched by both resolve to the shared root and
/// cannot differ.
std::vector<std::string> diff_states(const StateView& before,
                                     const StateView& after) {
  constexpr std::size_t kMaxLines = 48;
  std::vector<std::string> out;
  std::uint64_t suppressed = 0;
  const auto add = [&](std::string line) {
    if (out.size() < kMaxLines) {
      out.push_back(std::move(line));
    } else {
      ++suppressed;
    }
  };

  if (before.crashed() != after.crashed()) {
    add(std::string{"hypervisor: "} +
        (after.crashed() ? "PANICKED" : "un-crashed"));
  }
  if (before.cpu_hung() != after.cpu_hung()) {
    add(std::string{"cpu0: "} + (after.cpu_hung() ? "WEDGED" : "released"));
  }

  for (const std::uint64_t m :
       merge_sorted(before.changed_page_infos(), after.changed_page_infos())) {
    const hv::PageInfo& a = before.page_info(m);
    const hv::PageInfo& b = after.page_info(m);
    std::string delta;
    if (a.owner != b.owner) {
      delta += " owner d" + std::to_string(a.owner) + " -> d" +
               std::to_string(b.owner);
    }
    if (a.type != b.type) {
      delta += " type " + hv::to_string(a.type) + " -> " + hv::to_string(b.type);
    }
    if (a.type_count != b.type_count) {
      delta += " type_count " + std::to_string(a.type_count) + " -> " +
               std::to_string(b.type_count);
    }
    if (a.ref_count != b.ref_count) {
      delta += " ref_count " + std::to_string(a.ref_count) + " -> " +
               std::to_string(b.ref_count);
    }
    if (a.validated != b.validated) {
      delta += std::string{" validated "} + (a.validated ? "yes" : "no") +
               " -> " + (b.validated ? "yes" : "no");
    }
    if (!delta.empty()) add("mfn " + hex(m) + ":" + delta);
  }

  // Memory content diffs: per-slot for frames that are (or were) page
  // tables or Xen-owned (the IDT lives there), summarized otherwise.
  for (const std::uint64_t m :
       merge_sorted(before.dirty_frames(), after.dirty_frames())) {
    const std::uint8_t* pa = before.frame(m);
    const std::uint8_t* pb = after.frame(m);
    if (std::memcmp(pa, pb, sim::kPageSize) == 0) continue;
    const bool decode = hv::is_pagetable_type(before.page_info(m).type) ||
                        hv::is_pagetable_type(after.page_info(m).type) ||
                        before.page_info(m).owner == hv::kDomXen;
    if (!decode) {
      add("mfn " + hex(m) + ": data changed");
      continue;
    }
    for (unsigned s = 0; s < sim::kPtEntries; ++s) {
      const std::uint64_t va = before.frame_u64(m, s);
      const std::uint64_t vb = after.frame_u64(m, s);
      if (va != vb) {
        add("mfn " + hex(m) + "[" + std::to_string(s) + "]: " + hex(va) +
            " -> " + hex(vb));
      }
    }
  }

  // Domain bookkeeping, matched by id.
  for (const hv::Domain& db : after.domains()) {
    const hv::Domain* da = nullptr;
    for (const hv::Domain& d : before.domains()) {
      if (d.id() == db.id()) da = &d;
    }
    const std::string who = "d" + std::to_string(db.id());
    if (da == nullptr) {
      add(who + ": created");
      continue;
    }
    if (da->cr3() != db.cr3()) {
      add(who + ": cr3 " + hex(da->cr3().raw()) + " -> " + hex(db.cr3().raw()));
    }
    if (!da->crashed() && db.crashed()) add(who + ": crashed");
    for (std::uint64_t p = 0; p < db.nr_pages(); ++p) {
      const auto ma = da->p2m(sim::Pfn{p});
      const auto mb = db.p2m(sim::Pfn{p});
      if (ma != mb) {
        add(who + ": p2m pfn " + std::to_string(p) + ": " +
            (ma ? "mfn " + hex(ma->raw()) : "-") + " -> " +
            (mb ? "mfn " + hex(mb->raw()) : "-"));
      }
    }
    std::set<std::uint64_t> pa_set, pb_set;
    for (const sim::Mfn m : da->pinned_tables()) pa_set.insert(m.raw());
    for (const sim::Mfn m : db.pinned_tables()) pb_set.insert(m.raw());
    for (const std::uint64_t m : pb_set) {
      if (pa_set.count(m) == 0) add(who + ": pinned mfn " + hex(m));
    }
    for (const std::uint64_t m : pa_set) {
      if (pb_set.count(m) == 0) add(who + ": unpinned mfn " + hex(m));
    }
  }

  // Grant-table deltas (version switches and mapping counts).
  for (const auto& [id, tb] : after.grants().tables) {
    const auto it = before.grants().tables.find(id);
    const unsigned va =
        it == before.grants().tables.end() ? 1 : it->second.version();
    if (va != tb.version()) {
      add("d" + std::to_string(id) + ": grant table v" + std::to_string(va) +
          " -> v" + std::to_string(tb.version()));
    }
  }
  if (before.grants().mappings.size() != after.grants().mappings.size()) {
    add("grant mappings: " + std::to_string(before.grants().mappings.size()) +
        " -> " + std::to_string(after.grants().mappings.size()));
  }

  if (suppressed != 0) {
    out.push_back("... (+" + std::to_string(suppressed) + " more)");
  }
  return out;
}

}  // namespace

// ----------------------------------------------------------- classification

/// Which of the paper's erroneous-state families a violating state belongs
/// to, decided over the same SystemWalk the audit used. Public so the
/// coverage-guided fuzzer shares the checker's recognizers.
std::vector<ErroneousStateClass> classify_erroneous_state(
    const hv::Hypervisor& vmm, const hv::SystemWalk& walk,
    const hv::InvariantReport& report) {
  std::set<ErroneousStateClass> classes;
  std::set<hv::Invariant> explained;

  const auto violated = report.violated_set();
  const auto is_violated = [&](hv::Invariant inv) {
    for (const hv::Invariant v : violated)
      if (v == inv) return true;
    return false;
  };

  if (is_violated(hv::Invariant::IdtIntegrity)) {
    classes.insert(ErroneousStateClass::Xsa212IdtClobber);
    explained.insert(hv::Invariant::IdtIntegrity);
  }
  if (is_violated(hv::Invariant::GrantLifecycle)) {
    classes.insert(ErroneousStateClass::Xsa387StaleGrantStatus);
    explained.insert(hv::Invariant::GrantLifecycle);
  }
  if (is_violated(hv::Invariant::FrameTypeSafety)) {
    for (const hv::DomainWalk& dw : walk) {
      for (const hv::LeafMapping& m : dw.leaves) {
        if (!m.user || !m.writable) continue;
        const std::uint64_t n_frames = m.bytes / sim::kPageSize;
        for (std::uint64_t k = 0; k < n_frames; ++k) {
          const sim::Mfn f{m.mfn.raw() + k};
          if (!vmm.memory().contains(f)) break;
          if (hv::is_writable_pagetable_mapping(
                  true, vmm.frames().info(f).type)) {
            classes.insert(m.bytes > sim::kPageSize
                               ? ErroneousStateClass::Xsa148SuperpageWindow
                               : ErroneousStateClass::Xsa182WritableSelfMap);
          }
        }
      }
    }
    explained.insert(hv::Invariant::FrameTypeSafety);
    // A writable self map necessarily tampers the reserved slot too.
    explained.insert(hv::Invariant::ReservedSlotIntegrity);
  }

  for (const hv::Invariant inv : violated) {
    if (explained.count(inv) == 0) classes.insert(ErroneousStateClass::Other);
  }
  return {classes.begin(), classes.end()};
}

std::string to_string(ErroneousStateClass c) {
  switch (c) {
    case ErroneousStateClass::Xsa148SuperpageWindow:
      return "XSA-148 superpage window";
    case ErroneousStateClass::Xsa182WritableSelfMap:
      return "XSA-182 writable self map";
    case ErroneousStateClass::Xsa212IdtClobber:
      return "XSA-212 IDT clobber";
    case ErroneousStateClass::Xsa387StaleGrantStatus:
      return "XSA-387 stale grant status";
    case ErroneousStateClass::Other: return "other invariant violation";
  }
  return "unknown";
}

std::string Counterexample::trace_string() const {
  std::string out;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i != 0) out += " ; ";
    out += ops[i].label;
  }
  return out;
}

// ------------------------------------------------------------ spill records
//
// Spill records are self-delimiting little-endian blobs: the op prefix that
// re-derives the state by replay from the root, plus the expected state
// hash (reloads self-verify). Bookkeeping like GrantTable is deliberately
// not serialized — replay through the public hypercall surface is the only
// portable encoding of hypervisor-private state (DESIGN.md §16). Records are
// read back from disk, so the decoder treats them as untrusted input.

std::vector<std::uint8_t> encode_spill_record(
    std::span<const hv::GuestOp> prefix, std::uint64_t hash) {
  std::vector<std::uint8_t> buf;
  hv::put_ops(buf, prefix);
  hv::put_u64(buf, hash);
  return buf;
}

SpillRecord decode_spill_record(std::span<const std::uint8_t> bytes,
                                std::size_t max_ops) {
  hv::ByteReader in{bytes};
  SpillRecord rec;
  rec.prefix = hv::get_ops(in, max_ops);
  for (const hv::GuestOp& op : rec.prefix) {
    if (op.kind == hv::GuestOp::Kind::ArbitraryWrite) {
      in.fail("arbitrary_write is not in the checker's alphabet");
    }
  }
  rec.hash = in.u64();
  if (in.ok() && in.remaining() != 0) {
    in.fail(std::to_string(in.remaining()) + " trailing bytes");
  }
  if (!in.ok()) {
    throw std::runtime_error{"model checker: corrupt spill record: " +
                             in.error()};
  }
  return rec;
}

namespace {

/// A run's private frontier spill file. It is created with mkstemp inside
/// the spill directory — so runs sharing a directory never touch each
/// other's records — and unlinked at once, so nothing is left behind on any
/// exit path, a crash included; the open descriptor keeps it alive until
/// the run ends. The serial settle stage is the only writer (records are
/// buffered and written out before the next produce phase); workers reload
/// with pread, which shares no file offset, so no lock is needed.
class SpillFile {
 public:
  explicit SpillFile(std::string dir) : dir_{std::move(dir)} {}
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  ~SpillFile() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Queue one record; returns its byte offset in the file.
  std::uint64_t append(const std::vector<std::uint8_t>& rec) {
    const std::uint64_t offset = bytes_ + pending_.size();
    pending_.insert(pending_.end(), rec.begin(), rec.end());
    return offset;
  }

  /// Write every queued record (workers read them next).
  void flush() {
    if (pending_.empty()) return;
    if (fd_ < 0) open();
    std::size_t done = 0;
    while (done < pending_.size()) {
      const ssize_t n =
          ::write(fd_, pending_.data() + done, pending_.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) fail("spill write failed");
      done += static_cast<std::size_t>(n);
    }
    bytes_ += pending_.size();
    pending_.clear();
  }

  /// Read the `size`-byte record at `offset`. Thread-safe.
  [[nodiscard]] std::vector<std::uint8_t> read(std::uint64_t offset,
                                               std::size_t size) const {
    std::vector<std::uint8_t> buf(size);
    std::size_t done = 0;
    while (done < size) {
      const ssize_t n = ::pread(fd_, buf.data() + done, size - done,
                                static_cast<off_t>(offset + done));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) fail("spill read failed");
      done += static_cast<std::size_t>(n);
    }
    return buf;
  }

  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_; }

 private:
  void open() {
    std::string path = dir_ + "/frontier.spill.XXXXXX";
    fd_ = ::mkstemp(path.data());
    if (fd_ < 0) fail("cannot create a spill file in " + dir_);
    ::unlink(path.c_str());
  }
  [[noreturn]] static void fail(const std::string& what) {
    throw std::runtime_error{"model checker: " + what + ": " +
                             std::strerror(errno)};
  }

  std::string dir_;
  int fd_ = -1;
  std::uint64_t bytes_ = 0;
  std::vector<std::uint8_t> pending_;
};

/// Deterministic byte accounting for one queued frontier state: a pure
/// function of the item (label bytes, owned CoW blocks, page-info
/// overrides), never of allocator or scheduling behavior — so chunking and
/// spill decisions are identical at any thread count, and peak_frontier_bytes
/// is a cmp-stable statistic.
std::uint64_t frontier_item_cost(const std::vector<hv::GuestOp>& prefix,
                                 std::uint64_t owned_frames,
                                 std::uint64_t page_infos) {
  std::uint64_t bytes = 512;
  for (const hv::GuestOp& op : prefix) bytes += 128 + op.label.size();
  return bytes + owned_frames * (sim::kPageSize + 64) + page_infos * 48;
}

// --------------------------------------------------------- exploration engine
//
// Ownership-partitioned exploration (DESIGN.md §16), the one engine at every
// thread count. The BFS frontier of one depth (or one budget-sized chunk of
// it) runs in a single expansion pass — every operation is applied exactly
// once — followed by an owner-shard admission and a serial settle:
//
//   produce (parallel)  workers pull parents from an atomic cursor, restore
//                       them (CoW restore, or replay for spilled parents),
//                       apply the whole alphabet, and record a per-parent
//                       op-outcome byte (unchanged-ok / unchanged-failed /
//                       changed). A changed successor whose hash is neither
//                       in the frozen pre-chunk visited set nor already
//                       posted by this worker in this chunk is walked,
//                       audited and classified right there, captured as a
//                       CoW forest node where a later step needs one, and
//                       posted to inbox[shard][worker] — the single-writer
//                       cell of the shard that owns its hash. A worker takes
//                       parents in ascending order, so its first posting of
//                       a hash is its own smallest (parent, op) pair.
//   admit  (parallel)   after the barrier each worker walks the shards it
//                       owns (shard % threads == worker). The owner alone
//                       decides admission: candidates sort by (hash,
//                       parent, op) and the first (parent, op) pair of each
//                       new hash — exactly the pair a serial BFS would have
//                       encountered first — is committed. No global merge,
//                       no replay of the visit order.
//   settle (serial)     admitted claims, sorted into serial (parent, op)
//                       order with the max_states cut applied, become the
//                       counters, violations, counterexamples and the next
//                       frontier, spilling states past the frontier budget.
//
// Determinism rests on: admission is a pure function of the candidate set
// (owner order can't matter — candidates carry their serial coordinates);
// op application and auditing are pure functions of the restored state;
// counters and the deterministic expand/audit spans are recomputed from the
// op-outcome arrays in serial parent order; and diff lines depend only on
// contents, for which every dirty list is a conservative superset. The
// visited partition is `hash % kDefaultShards` with a fixed shard count, so
// the committed set — and shard_occupancy — never depends on --threads.

/// One worker's private machine and root. All roots must hash identically
/// (asserted at construction time by the driver) — that is what makes a CoW
/// node captured on one worker's machine meaningful on another's.
struct ShardWorker {
  Machine machine;
  hv::HvSnapshot root;

  explicit ShardWorker(const ModelCheckConfig& config) : machine{config} {
    machine.vmm.reset_snapshot_stats();
    root = machine.vmm.snapshot();
  }
};

/// A queued state: its op prefix and its CoW forest node. A spilled item
/// keeps only its spill-file extent (plus its admission-time cost, which
/// still drives chunking) until the worker that expands it re-derives the
/// state by replaying the record's prefix from the root.
struct FrontierItem {
  std::vector<hv::GuestOp> prefix;
  hv::HvCowState cow;
  std::uint64_t hash = 0;
  std::uint64_t cost = 0;  ///< frontier_item_cost at admission
  bool spilled = false;
  std::uint64_t spill_offset = 0;
  std::size_t spill_size = 0;
};

/// A new successor, audited by its producing worker and posted to the
/// owning shard's inbox. Carries its serial coordinates (chunk-local parent
/// index, alphabet index) so admission order is scheduling-free.
struct Candidate {
  std::uint32_t parent = 0;
  std::uint32_t op = 0;
  std::uint64_t hash = 0;
  hv::GuestOp op_obj;  ///< the producing op (labels the trace)
  hv::HvCowState cow;  ///< clean states below the depth bound only
  bool violating = false;
  std::vector<hv::Invariant> violated;
  std::vector<ErroneousStateClass> classes;
  hv::InvariantReport report;           ///< while counterexample slots remain
  std::vector<std::string> state_diff;  ///< likewise
};

/// Per-parent produce-phase outcome byte, the raw material from which the
/// serial counters and the deterministic expand/audit spans are recomputed
/// — uniformly for full and truncated runs.
enum : std::uint8_t {
  kOpUnchangedOk = 0,
  kOpUnchangedFailed = 1,
  kOpChanged = 2,
};

/// Run fn(w) for w in [0, threads), worker 0 on the calling thread. A
/// worker's exception is captured and rethrown after every thread joined
/// (the others drain the shared cursor and exit).
void run_on_workers(unsigned threads, const std::function<void(unsigned)>& fn) {
  std::mutex error_mu;
  std::exception_ptr error;
  const auto wrapped = [&](unsigned w) {
    try {
      fn(w);
    } catch (...) {
      const std::lock_guard<std::mutex> lock{error_mu};
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned w = 1; w < threads; ++w) pool.emplace_back(wrapped, w);
  wrapped(0);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

void count_violation(ModelCheckResult& result,
                     const std::vector<hv::Invariant>& violated,
                     const std::vector<ErroneousStateClass>& classes) {
  ++result.violations_found;
  for (const hv::Invariant inv : violated) {
    ++result.invariant_hits[static_cast<std::size_t>(inv)];
  }
  for (const ErroneousStateClass c : classes) {
    ++result.class_hits[static_cast<std::size_t>(c)];
  }
}

ModelCheckResult explore(const ModelCheckConfig& config, unsigned threads) {
  ModelCheckResult result;
  result.config = config;
  result.threads_used = threads;

  std::vector<std::unique_ptr<ShardWorker>> workers;
  workers.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    workers.push_back(std::make_unique<ShardWorker>(config));
    if (workers[w]->root.hash != workers[0]->root.hash ||
        workers[w]->root.mem_generation != workers[0]->root.mem_generation) {
      throw std::logic_error{
          "model checker: worker machines did not boot identically"};
    }
  }
  hv::Hypervisor& vmm0 = workers[0]->machine.vmm;
  const hv::HvSnapshot& root = workers[0]->root;
  result.states_explored = 1;

  // The boot state itself must satisfy every invariant; a dirty root makes
  // everything downstream meaningless, so it is reported and terminal.
  {
    const hv::SystemWalk walk = hv::walk_system(vmm0);
    hv::InvariantReport report = hv::InvariantAuditor{vmm0}.audit(walk);
    if (!report.clean()) {
      Counterexample cx;
      cx.state_hash = root.hash;
      cx.violated = report.violated_set();
      cx.classes = classify_erroneous_state(vmm0, walk, report);
      cx.report = std::move(report);
      count_violation(result, cx.violated, cx.classes);
      if (config.max_counterexamples != 0) {
        result.counterexamples.push_back(std::move(cx));
      }
      return result;
    }
  }

  // Owner-partitioned visited set: frozen for probes during produce,
  // owner-written during admit, barrier-separated — no locks anywhere.
  ShardedVisited visited;
  const std::size_t n_shards = visited.shard_count();
  visited.owner_insert(visited.shard_of(root.hash), root.hash);

  const std::uint64_t budget = config.max_frontier_bytes;
  const bool can_spill = !config.spill_dir.empty() && budget != 0;
  SpillFile spill{config.spill_dir};

  std::vector<FrontierItem> frontier(1);
  frontier[0].cow = vmm0.snapshot_cow(root, nullptr, root.mem_generation);
  frontier[0].hash = root.hash;
  frontier[0].cost = frontier_item_cost(frontier[0].prefix, 0, 0);
  std::uint64_t resident = frontier[0].cost;
  result.peak_frontier_bytes = resident;

  // Per-worker scheduling-dependent tallies, folded after the run. Their
  // sums are deterministic (which worker did the work is not).
  std::vector<std::uint64_t> ops_executed_w(threads, 0);
  std::vector<std::uint64_t> spill_reloads_w(threads, 0);

  // Per-worker profilers (shared epoch, worker-numbered lanes) hold the
  // Sched-kind engine spans each worker records for itself; they merge
  // into the main profiler — order-independently — after the run. The
  // deterministic expand/audit spans are recomputed by the serial
  // settle from the op-outcome arrays, never recorded by workers.
  obs::SpanProfiler* const prof = config.profiler;
  std::vector<std::unique_ptr<obs::SpanProfiler>> wprofs;
  if (prof != nullptr) {
    for (unsigned w = 0; w < threads; ++w) {
      wprofs.push_back(std::make_unique<obs::SpanProfiler>(prof->epoch()));
      wprofs[w]->set_tid(w);
      wprofs[w]->set_record_events(prof->record_events());
    }
  }

  bool stop = false;
  unsigned level = 0;  // op-prefix length of the current frontier
  while (!frontier.empty() && !stop && level < config.depth) {
    const unsigned depth = level + 1;
    const std::string dname = "d" + std::to_string(depth);
    // States at the depth bound are audited but never expanded, so they
    // are neither captured nor queued.
    const bool expand_children = depth < config.depth;
    if (config.status != nullptr) {
      config.status->checker_depth(depth, frontier.size());
      config.status->checker_progress(result.states_explored,
                                      result.violations_found);
    }

    std::vector<FrontierItem> next_frontier;
    std::uint64_t next_resident = 0;

    const std::size_t n_parents = frontier.size();
    std::size_t chunk_begin = 0;
    while (chunk_begin < n_parents && !stop) {
      // ---- chunk boundary: fill up to the frontier budget, min one
      // parent. Chunk edges respect serial parent order, so per-chunk
      // admission commits are exactly the serial prefix of the depth.
      std::size_t chunk_end = n_parents;
      if (budget != 0) {
        chunk_end = chunk_begin + 1;
        std::uint64_t chunk_bytes = frontier[chunk_begin].cost;
        while (chunk_end < n_parents &&
               chunk_bytes + frontier[chunk_end].cost <= budget) {
          chunk_bytes += frontier[chunk_end].cost;
          ++chunk_end;
        }
      }
      const std::size_t chunk_n = chunk_end - chunk_begin;
      // Counterexample slots are filled in serial order by the settle, so
      // when none is left before this chunk no state of it needs a diff.
      const bool want_diffs =
          result.counterexamples.size() < config.max_counterexamples;

      // ---- produce: apply every op of every chunk parent exactly once.
      std::vector<std::vector<std::uint8_t>> op_outcome(chunk_n);
      // inbox[shard][producer]: each producer appends only to its own
      // cell, each cell is read only after the barrier — race-free by
      // layout, no locks.
      std::vector<std::vector<std::vector<Candidate>>> inbox(
          n_shards, std::vector<std::vector<Candidate>>(threads));
      std::atomic<std::size_t> next_parent{0};
      obs::ScopedSpan produce_span{prof,
                                   {obs::kSpanCheck, dname, obs::kSpanProduce},
                                   obs::SpanKind::Sched};
      run_on_workers(threads, [&](unsigned w) {
        ShardWorker& self = *workers[w];
        hv::Hypervisor& vmm = self.machine.vmm;
        obs::ScopedSpan lane{
            prof != nullptr ? wprofs[w].get() : nullptr,
            {obs::kSpanCheck, dname, obs::kSpanProduce,
             "w" + std::to_string(w)},
            obs::SpanKind::Sched};
        // Hashes this worker already posted in this chunk. A repeat comes
        // from a later (parent, op) pair of the same worker, which can
        // never win admission, so it is not audited or captured again.
        std::unordered_set<std::uint64_t> posted;
        while (true) {
          const std::size_t idx = next_parent.fetch_add(1);
          if (idx >= chunk_n) return;
          FrontierItem& item = frontier[chunk_begin + idx];
          if (item.spilled) {
            // Reload: rewind to the root, replay the recorded prefix,
            // verify the expected hash, re-capture as a parentless node.
            (void)vmm.restore_delta(self.root);
            const std::uint64_t replay_marker = vmm.memory().generation();
            SpillRecord rec = decode_spill_record(
                spill.read(item.spill_offset, item.spill_size), config.depth);
            for (const hv::GuestOp& op : rec.prefix) (void)hv::apply(vmm, op);
            ops_executed_w[w] += rec.prefix.size();
            ++spill_reloads_w[w];
            if (rec.hash != item.hash || vmm.state_hash() != rec.hash) {
              throw std::logic_error{
                  "model checker: spill replay diverged from its capture"};
            }
            item.cow = vmm.snapshot_cow(self.root, nullptr, replay_marker);
            item.prefix = std::move(rec.prefix);
          } else {
            (void)vmm.restore_cow(self.root, item.cow);
          }
          // The capture marker is re-taken after every restore: restores
          // stamp fresh generations, so "written after the marker" is
          // exactly "diverged from the restored parent".
          std::uint64_t marker = vmm.memory().generation();
          const std::vector<hv::GuestOp> alphabet =
              enumerate_ops(vmm, config, self.machine.guests);
          lane.add_steps(alphabet.size());
          ops_executed_w[w] += alphabet.size();
          std::vector<std::uint8_t>& outcome = op_outcome[idx];
          outcome.assign(alphabet.size(), kOpUnchangedOk);
          for (std::uint32_t o = 0; o < alphabet.size(); ++o) {
            const long rc = hv::apply(vmm, alphabet[o]);
            const std::uint64_t h = vmm.state_hash();
            if (h == item.hash) {
              if (rc != hv::kOk) outcome[o] = kOpUnchangedFailed;
              continue;  // nothing changed; nothing to restore
            }
            outcome[o] = kOpChanged;
            // A hash committed at an earlier depth or chunk can never be
            // admitted; same-chunk collisions across workers are the
            // owner's call.
            if (!visited.probe(h) && posted.insert(h).second) {
              Candidate c;
              c.parent = static_cast<std::uint32_t>(idx);
              c.op = o;
              c.hash = h;
              c.op_obj = alphabet[o];
              const hv::SystemWalk walk = hv::walk_system(vmm);
              hv::InvariantReport report =
                  hv::InvariantAuditor{vmm}.audit(walk);
              if (report.clean()) {
                // Violating states are terminal: only clean ones expand.
                if (expand_children) {
                  c.cow = vmm.snapshot_cow(self.root, &item.cow, marker);
                }
              } else {
                c.violating = true;
                c.violated = report.violated_set();
                c.classes = classify_erroneous_state(vmm, walk, report);
                if (want_diffs) {
                  const hv::HvCowState child =
                      vmm.snapshot_cow(self.root, &item.cow, marker);
                  c.state_diff = diff_states(StateView{self.root, item.cow},
                                             StateView{self.root, child});
                  c.report = std::move(report);
                }
              }
              inbox[visited.shard_of(h)][w].push_back(std::move(c));
            }
            (void)vmm.restore_cow(self.root, item.cow);
            marker = vmm.memory().generation();
          }
        }
      });
      produce_span.end();

      // ---- admit: each owner decides its shards, no cross-shard state.
      std::vector<std::vector<Candidate>> admitted(n_shards);
      obs::ScopedSpan admit_span{prof,
                                 {obs::kSpanCheck, dname, obs::kSpanAdmit},
                                 obs::SpanKind::Sched};
      run_on_workers(threads, [&](unsigned w) {
        obs::ScopedSpan lane{
            prof != nullptr ? wprofs[w].get() : nullptr,
            {obs::kSpanCheck, dname, obs::kSpanAdmit, "w" + std::to_string(w)},
            obs::SpanKind::Sched};
        for (std::size_t s = w; s < n_shards; s += threads) {
          std::size_t total = 0;
          for (unsigned pw = 0; pw < threads; ++pw) {
            total += inbox[s][pw].size();
          }
          if (total == 0) continue;
          lane.add_steps(total);
          std::vector<Candidate> cands;
          cands.reserve(total);
          for (unsigned pw = 0; pw < threads; ++pw) {
            for (Candidate& c : inbox[s][pw]) cands.push_back(std::move(c));
          }
          std::sort(cands.begin(), cands.end(),
                    [](const Candidate& a, const Candidate& b) {
                      if (a.hash != b.hash) return a.hash < b.hash;
                      if (a.parent != b.parent) return a.parent < b.parent;
                      return a.op < b.op;
                    });
          for (std::size_t i = 0; i < cands.size();) {
            std::size_t j = i;
            while (j < cands.size() && cands[j].hash == cands[i].hash) ++j;
            // The owner alone admits: the first (parent, op) pair of a
            // new hash is the pair the serial BFS encounters first.
            if (visited.owner_insert(s, cands[i].hash)) {
              admitted[s].push_back(std::move(cands[i]));
            }
            i = j;
          }
        }
      });
      admit_span.end();

      // ---- settle (serial): claim order, truncation cut, counters and
      // the deterministic expand/audit spans, then violations and the next
      // frontier in claim order.
      obs::ScopedSpan settle_span{prof,
                                  {obs::kSpanCheck, dname, obs::kSpanSettle},
                                  obs::SpanKind::Sched};
      std::vector<Candidate> claims;
      {
        std::size_t total = 0;
        for (std::size_t s = 0; s < n_shards; ++s) total += admitted[s].size();
        claims.reserve(total);
        for (std::size_t s = 0; s < n_shards; ++s) {
          for (Candidate& c : admitted[s]) claims.push_back(std::move(c));
        }
      }
      std::sort(claims.begin(), claims.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.parent != b.parent ? a.parent < b.parent
                                              : a.op < b.op;
                });
      // A serial BFS stops right after the admission that reaches
      // max_states; later pairs were never executed there and must not be
      // counted or queued here. (Hashes past the cut stay in the visited
      // set — visible only through shard_occupancy on truncated runs,
      // never in the report.)
      const std::uint64_t allowed = config.max_states - result.states_explored;
      if (claims.size() >= allowed) {
        claims.resize(static_cast<std::size_t>(allowed));
        result.truncated = true;
        stop = true;
      }
      const bool cut = stop;
      const std::uint32_t cut_parent = cut ? claims.back().parent : 0;
      const std::uint32_t cut_op = cut ? claims.back().op : 0;
      std::vector<std::uint64_t> audited(chunk_n, 0);
      for (const Candidate& c : claims) ++audited[c.parent];
      std::uint64_t changed_total = 0;
      for (std::size_t idx = 0; idx < chunk_n; ++idx) {
        if (cut && idx > cut_parent) break;
        const std::vector<std::uint8_t>& outcome = op_outcome[idx];
        const std::size_t n_ops = cut && idx == cut_parent
                                      ? std::size_t{cut_op} + 1
                                      : outcome.size();
        for (std::size_t o = 0; o < n_ops; ++o) {
          if (outcome[o] == kOpUnchangedFailed) ++result.failed_ops;
          if (outcome[o] == kOpChanged) ++changed_total;
        }
        result.ops_applied += n_ops;
        if (prof != nullptr && n_ops != 0) {
          prof->add({obs::kSpanCheck, dname, obs::kSpanExpand}, 1, n_ops);
          if (audited[idx] != 0) {
            prof->add({obs::kSpanCheck, dname, obs::kSpanAudit}, audited[idx],
                      audited[idx]);
          }
        }
      }
      result.states_explored += claims.size();
      result.states_deduped += changed_total - claims.size();

      std::unique_ptr<obs::ScopedSpan> spill_span;
      for (Candidate& c : claims) {
        // The op trace is built only for states that keep it.
        const auto trace_of = [&] {
          std::vector<hv::GuestOp> trace =
              frontier[chunk_begin + c.parent].prefix;
          trace.push_back(std::move(c.op_obj));
          return trace;
        };
        if (c.violating) {
          count_violation(result, c.violated, c.classes);
          if (result.counterexamples.size() < config.max_counterexamples) {
            Counterexample cx;
            cx.ops = trace_of();
            cx.depth = static_cast<unsigned>(cx.ops.size());
            cx.state_hash = c.hash;
            cx.violated = std::move(c.violated);
            cx.classes = std::move(c.classes);
            cx.state_diff = std::move(c.state_diff);
            cx.report = std::move(c.report);
            result.counterexamples.push_back(std::move(cx));
          }
          continue;
        }
        if (stop || !expand_children) continue;
        std::vector<hv::GuestOp> trace = trace_of();
        FrontierItem child;
        child.hash = c.hash;
        child.cost = frontier_item_cost(trace, c.cow.owned_frames,
                                        c.cow.frames.size());
        if (can_spill && next_resident + child.cost > budget) {
          if (spill_span == nullptr) {
            spill_span = std::make_unique<obs::ScopedSpan>(
                prof,
                std::initializer_list<std::string_view>{
                    obs::kSpanCheck, dname, obs::kSpanSpill},
                obs::SpanKind::Sched);
          }
          const std::vector<std::uint8_t> rec =
              encode_spill_record(trace, c.hash);
          child.spilled = true;
          child.spill_offset = spill.append(rec);
          child.spill_size = rec.size();
          ++result.frontier_spilled_items;
        } else {
          child.prefix = std::move(trace);
          child.cow = std::move(c.cow);
          next_resident += child.cost;
        }
        next_frontier.push_back(std::move(child));
      }
      spill.flush();  // workers read these records next depth
      result.frontier_spill_bytes = spill.bytes_written();
      spill_span.reset();
      settle_span.end();

      result.peak_frontier_bytes =
          std::max(result.peak_frontier_bytes, resident + next_resident);
      // ---- release the processed chunk: children alias the frame blocks
      // they still share; everything else frees now, so the resident
      // working set stays bounded by the budget (plus the chunk in
      // flight), not by the depth's full frontier.
      for (std::size_t idx = 0; idx < chunk_n; ++idx) {
        FrontierItem& item = frontier[chunk_begin + idx];
        if (!item.spilled) resident -= item.cost;
        item = FrontierItem{};
      }
      chunk_begin = chunk_end;
    }

    frontier = std::move(next_frontier);
    resident = next_resident;
    ++level;
  }

  if (prof != nullptr) {
    for (const auto& wp : wprofs) prof->merge(*wp);
  }

  hv::SnapshotStats total{};
  for (const auto& w : workers) total += w->machine.vmm.snapshot_stats();
  result.snapshot_frames_copied = total.frames_copied;
  result.hash_frames_rehashed = total.frames_rehashed;
  result.delta_restores = total.delta_restores;
  result.full_restores = total.full_restores;
  result.cow_captures = total.cow_captures;
  result.cow_frames_copied = total.cow_frames_copied;
  result.cow_frames_shared = total.cow_frames_shared;
  for (unsigned w = 0; w < threads; ++w) {
    result.ops_executed += ops_executed_w[w];
    result.frontier_spill_reloads += spill_reloads_w[w];
  }
  result.shard_occupancy = visited.occupancy();
  return result;
}

}  // namespace

ModelCheckResult run_model_check(const ModelCheckConfig& config) {
  unsigned threads = config.threads != 0
                         ? config.threads
                         : std::max(1u, std::thread::hardware_concurrency());
  // More workers than cores only adds machines to boot; cap generously.
  threads = std::min(threads, 32u);
  if (config.status != nullptr) config.status->checker_begin();
  ModelCheckResult result;
  {
    // Root of the deterministic span tree; per-depth children hang off it.
    obs::ScopedSpan check_span{config.profiler, obs::kSpanCheck};
    result = explore(config, threads);
  }
  if (config.status != nullptr) {
    config.status->checker_progress(result.states_explored,
                                    result.violations_found);
    config.status->checker_end();
  }
  return result;
}

// ------------------------------------------------------------------- report

std::string render_report(const ModelCheckResult& r) {
  std::string out;
  out += "model check: xen " + r.config.version.to_string() + ", depth " +
         std::to_string(r.config.depth) + ", " +
         std::to_string(r.config.guest_domains) + " guest(s) of " +
         std::to_string(r.config.domain_pages) + " pages, machine " +
         std::to_string(r.config.machine_frames) + " frames" +
         (r.config.include_grant_ops ? ", grant ops on" : "") + "\n";
  out += "  states explored: " + std::to_string(r.states_explored) +
         "  (ops applied " + std::to_string(r.ops_applied) + ", deduped " +
         std::to_string(r.states_deduped) + ", refused " +
         std::to_string(r.failed_ops) + ")" +
         (r.truncated ? "  [TRUNCATED at max_states]" : "") + "\n";
  out += "  violating states: " + std::to_string(r.violations_found) + "\n";
  out += "  erroneous-state classes:\n";
  for (std::size_t c = 0; c < kErroneousStateClassCount; ++c) {
    out += "    " + to_string(static_cast<ErroneousStateClass>(c)) + ": ";
    out += r.class_hits[c] != 0
               ? "REACHED (" + std::to_string(r.class_hits[c]) + " state(s))"
               : "not reached";
    out += "\n";
  }
  for (std::size_t i = 0; i < r.counterexamples.size(); ++i) {
    const Counterexample& cx = r.counterexamples[i];
    out += "  counterexample #" + std::to_string(i + 1) + " (depth " +
           std::to_string(cx.depth) + ", hash " + hex(cx.state_hash) + ")\n";
    for (std::size_t s = 0; s < cx.ops.size(); ++s) {
      out += "    " + std::to_string(s + 1) + ". " + cx.ops[s].label + "\n";
    }
    out += "    violates:";
    for (const hv::Invariant inv : cx.violated) out += " " + hv::to_string(inv);
    out += "\n";
    out += "    classes:";
    for (const ErroneousStateClass c : cx.classes) out += " [" + to_string(c) + "]";
    out += "\n";
    out += "    state diff vs parent:\n";
    for (const std::string& line : cx.state_diff) {
      out += "      " + line + "\n";
    }
    for (const hv::InvariantFinding& f : cx.report.findings) {
      out += "    finding: " + hv::to_string(f.invariant) + ": " + f.detail +
             "\n";
    }
  }
  return out;
}

std::string render_engine_stats(const ModelCheckResult& r) {
  std::string out =
      "snapshot engine (" + std::to_string(r.threads_used) +
      " worker(s)): " + std::to_string(r.delta_restores) + " delta + " +
      std::to_string(r.full_restores) + " full restores, frames copied " +
      std::to_string(r.snapshot_frames_copied) + ", frame digests redone " +
      std::to_string(r.hash_frames_rehashed) + "\n";
  out += "cow forest: " + std::to_string(r.cow_captures) + " captures, " +
         std::to_string(r.cow_frames_copied) + " frames owned, " +
         std::to_string(r.cow_frames_shared) + " frames shared\n";
  out += "frontier: peak " + std::to_string(r.peak_frontier_bytes) +
         " bytes, " + std::to_string(r.frontier_spilled_items) +
         " spilled (" + std::to_string(r.frontier_spill_bytes) + " bytes, " +
         std::to_string(r.frontier_spill_reloads) + " reloads), ops executed " +
         std::to_string(r.ops_executed) + "\n";
  if (!r.shard_occupancy.empty()) {
    std::uint64_t min_occ = r.shard_occupancy[0];
    std::uint64_t max_occ = r.shard_occupancy[0];
    std::uint64_t total_occ = 0;
    for (const std::uint64_t n : r.shard_occupancy) {
      min_occ = std::min(min_occ, n);
      max_occ = std::max(max_occ, n);
      total_occ += n;
    }
    out += "visited shards: " + std::to_string(r.shard_occupancy.size()) +
           ", occupancy min " + std::to_string(min_occ) + " / max " +
           std::to_string(max_occ) + " / total " + std::to_string(total_occ) +
           "\n";
  }
  return out;
}

GateVerdict evaluate_expectation(const ModelCheckResult& result,
                                 std::string_view expect,
                                 bool allow_truncated) {
  const std::string version = result.config.version.to_string();
  GateVerdict v;
  if (expect == "clean") {
    if (!result.clean()) {
      v.message = "FAIL: expected clean, found " +
                  std::to_string(result.violations_found) +
                  " violating state(s)";
      return v;
    }
    if (result.truncated && !allow_truncated) {
      // "No violation found" means nothing when the search never covered
      // the bounded space: the clipped region could hold one.
      v.message = "FAIL: expected clean, but the search was TRUNCATED at "
                  "max_states (" +
                  std::to_string(result.states_explored) +
                  " states explored); the bounded space was not covered — "
                  "raise --max-states or pass --allow-truncated";
      return v;
    }
    v.pass = true;
    v.message = result.truncated
                    ? "OK: no invariant violation in the TRUNCATED space "
                      "(xen " + version + "; coverage incomplete)"
                    : "OK: no invariant violation in the bounded space (xen " +
                          version + ")";
    return v;
  }
  bool any_xsa = false;
  for (std::size_t c = 0; c + 1 < kErroneousStateClassCount; ++c) {
    any_xsa |= result.reached(static_cast<ErroneousStateClass>(c));
  }
  if (!any_xsa) {
    v.message = "FAIL: expected an XSA erroneous state, none reached";
    return v;
  }
  v.pass = true;
  v.message = "OK: XSA erroneous state(s) reachable (xen " + version + ")";
  return v;
}

}  // namespace ii::analysis
