// Hypervisor state capture/restore and the canonical state digest
// (see snapshot.hpp for the model).
//
// The memory contribution to state_hash() is incremental: each frame's
// FNV-1a digest is cached against the frame's PhysicalMemory write
// generation, and the machine hash recombines the per-frame digests (one
// u64 each) — so a hash after k frame writes re-reads 4 KiB * k, not the
// whole machine. Delta capture/restore use the same generations to decide
// which frames to copy; no byte comparisons anywhere. CoW blocks carry their
// frame digest, so a CoW restore re-seeds the cache instead of rehashing.
#include "hv/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace ii::hv {

namespace {

/// 64-bit FNV-1a. Not cryptographic — a dedup key for the model checker's
/// visited-state set, chosen for determinism across runs and platforms.
class Fnv1a {
 public:
  void u8(std::uint8_t v) { hash_ = (hash_ ^ v) * kPrime; }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(std::span<const std::uint8_t> data) {
    // Word-at-a-time: one 8-byte load feeding eight dependent FNV steps
    // beats a byte load per step. The digest is byte-order-identical to the
    // one-byte-per-iteration loop (the chunk is consumed LSB-first, i.e. in
    // memory order on little-endian, and std::memcpy keeps it portable).
    std::size_t i = 0;
    std::uint64_t h = hash_;
    for (; i + 8 <= data.size(); i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, data.data() + i, 8);
      h = (h ^ (w & 0xFF)) * kPrime;
      h = (h ^ ((w >> 8) & 0xFF)) * kPrime;
      h = (h ^ ((w >> 16) & 0xFF)) * kPrime;
      h = (h ^ ((w >> 24) & 0xFF)) * kPrime;
      h = (h ^ ((w >> 32) & 0xFF)) * kPrime;
      h = (h ^ ((w >> 40) & 0xFF)) * kPrime;
      h = (h ^ ((w >> 48) & 0xFF)) * kPrime;
      h = (h ^ (w >> 56)) * kPrime;
    }
    hash_ = h;
    for (; i < data.size(); ++i) u8(data[i]);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::uint64_t frame_digest(const sim::PhysicalMemory& mem, sim::Mfn mfn) {
  Fnv1a h;
  h.bytes(mem.frame_bytes(mfn));
  return h.value();
}

}  // namespace

/// Thin named wrapper so hypervisor.hpp can forward-declare the hasher the
/// bookkeeping walk writes into without exposing the FNV internals.
class StateHasher : public Fnv1a {};

void Hypervisor::hash_bookkeeping(StateHasher& h) const {
  // Frame table and the allocator's observable hidden state (future
  // allocations depend on it, so it is semantically part of the state).
  for (std::uint64_t m = 0; m < frames_.frame_count(); ++m) {
    const PageInfo& pi = frames_.info(sim::Mfn{m});
    h.u64(pi.owner);
    h.u8(static_cast<std::uint8_t>(pi.type));
    h.u64(pi.type_count);
    h.u64(pi.ref_count);
    h.boolean(pi.validated);
  }
  const FrameTable::AllocatorState alloc = frames_.allocator_state();
  h.u64(alloc.bump);
  for (const std::uint64_t f : alloc.free_list) h.u64(f);

  // Domains (std::map iterates in id order). The pin list is canonicalized
  // by sorting: pin order is an artifact of operation history, not state —
  // unpin works per-mfn regardless of order.
  for (const auto& [id, dom] : domains_) {
    h.u64(id);
    h.boolean(dom->crashed());
    h.u64(dom->cr3().raw());
    h.u64(dom->start_info_mfn().raw());
    h.u64(dom->nr_pages());
    for (std::uint64_t p = 0; p < dom->nr_pages(); ++p) {
      const auto mfn = dom->p2m(sim::Pfn{p});
      h.u64(mfn ? mfn->raw() + 1 : 0);
    }
    std::vector<std::uint64_t> pins;
    for (const sim::Mfn m : dom->pinned_tables()) pins.push_back(m.raw());
    std::sort(pins.begin(), pins.end());
    for (const std::uint64_t p : pins) h.u64(p);
    for (const auto& [vector, handler] : dom->trap_table()) {
      h.u8(vector);
      h.u64(handler.raw());
    }
  }
  h.u64(next_domid_);

  // Grant state, including the guest-visible handle counter.
  const GrantOps::State grants = grants_.state();
  for (const auto& [id, table] : grants.tables) {
    h.u64(id);
    h.u64(table.version());
    for (const GrantEntry& e : table.entries()) {
      h.u64(e.peer);
      h.u64(e.pfn.raw());
      h.boolean(e.readonly);
      h.boolean(e.in_use);
      h.u64(e.maps);
    }
    for (const sim::Mfn f : table.status_frames()) h.u64(f.raw());
  }
  for (const auto& [handle, m] : grants.mappings) {
    h.u64(handle);
    h.u64(m.mapper);
    h.u64(m.granter);
    h.u64(m.ref);
    h.u64(m.frame.raw());
    h.boolean(m.readonly);
  }
  h.u64(grants.next_handle);

  // Event channels (pending/mask bits are in the memory image already).
  const EventChannelOps::State events = events_.state();
  for (const auto& [id, ports] : events.ports) {
    h.u64(id);
    for (const auto& [port, p] : ports) {
      h.u64(port);
      h.boolean(p.allocated);
      h.u64(p.remote);
      h.boolean(p.bound);
      h.u64(p.peer_domain);
      h.u64(p.peer_port);
    }
  }
  for (const auto& [id, port] : events.handlers) {
    h.u64(id);
    h.u64(port);
  }

  // Liveness flags; the console ring is log-only and excluded.
  h.boolean(crashed_);
  h.boolean(cpu_hung_);
}

std::uint64_t Hypervisor::state_hash_impl(bool use_cache) const {
  ++snap_stats_.hash_calls;
  StateHasher h;

  // Physical memory image: one cached-or-recomputed digest per frame. The
  // machine hash consumes the digests (not the raw bytes), so the combined
  // value is identical whichever frames came from the cache.
  const std::uint64_t n = mem_->frame_count();
  if (frame_digest_.size() != n) {
    frame_digest_.assign(n, 0);
    frame_digest_gen_.assign(n, 0);  // 0 never matches a live generation
  }
  for (std::uint64_t m = 0; m < n; ++m) {
    const std::uint64_t gen = mem_->frame_generation(sim::Mfn{m});
    if (!use_cache || frame_digest_gen_[m] != gen) {
      frame_digest_[m] = frame_digest(*mem_, sim::Mfn{m});
      frame_digest_gen_[m] = gen;
      ++snap_stats_.frames_rehashed;
    } else {
      ++snap_stats_.frames_hash_cached;
    }
    h.u64(frame_digest_[m]);
  }

  hash_bookkeeping(h);
  return h.value();
}

std::uint64_t Hypervisor::state_hash() const { return state_hash_impl(true); }

std::uint64_t Hypervisor::state_hash_full() const {
  return state_hash_impl(false);
}

HvSnapshot Hypervisor::snapshot() const {
  HvSnapshot snap;
  snap.memory.resize(mem_->byte_size());
  mem_->read(sim::Paddr{0}, snap.memory);
  const auto gens = mem_->frame_generations();
  snap.frame_gens.assign(gens.begin(), gens.end());
  snap.mem_generation = mem_->generation();

  snap.frames.reserve(frames_.frame_count());
  for (std::uint64_t m = 0; m < frames_.frame_count(); ++m) {
    snap.frames.push_back(frames_.info(sim::Mfn{m}));
  }
  snap.allocator = frames_.allocator_state();

  for (const auto& [id, dom] : domains_) snap.domains.push_back(*dom);
  snap.next_domid = next_domid_;

  snap.grants = grants_.state();
  snap.events = events_.state();

  snap.crashed = crashed_;
  snap.cpu_hung = cpu_hung_;
  snap.console = console_;
  snap.hash = state_hash();
  return snap;
}

void Hypervisor::restore(const HvSnapshot& snap) {
  if (snap.memory.size() != mem_->byte_size() ||
      snap.frames.size() != frames_.frame_count() ||
      snap.frame_gens.size() != frames_.frame_count()) {
    throw std::logic_error{
        "HvSnapshot::restore: snapshot shape does not match this machine"};
  }
  ++snap_stats_.full_restores;
  snap_stats_.frames_copied += mem_->frame_count();
  // Whole-image restore re-establishes the captured (generation, contents)
  // pairs, so frame digests cached at those generations stay valid.
  mem_->restore_image(snap.memory, snap.frame_gens, snap.mem_generation);
  for (std::uint64_t m = 0; m < frames_.frame_count(); ++m) {
    frames_.info(sim::Mfn{m}) = snap.frames[m];
  }
  frames_.restore_allocator(snap.allocator);

  domains_.clear();
  for (const Domain& dom : snap.domains) {
    domains_.emplace(dom.id(), std::make_unique<Domain>(dom));
  }
  next_domid_ = snap.next_domid;

  grants_.restore(snap.grants);
  events_.restore(snap.events);

  crashed_ = snap.crashed;
  cpu_hung_ = snap.cpu_hung;
  console_ = snap.console;
}

HvDelta Hypervisor::snapshot_delta(const HvSnapshot& base) const {
  if (base.frame_gens.size() != mem_->frame_count() ||
      base.frames.size() != frames_.frame_count()) {
    throw std::logic_error{
        "snapshot_delta: baseline shape does not match this machine"};
  }
  ++snap_stats_.delta_snapshots;
  HvDelta delta;
  delta.base_generation = base.mem_generation;

  for (std::uint64_t m = 0; m < mem_->frame_count(); ++m) {
    const std::uint64_t gen = mem_->frame_generation(sim::Mfn{m});
    if (gen == base.frame_gens[m]) continue;  // same generation => same bytes
    delta.mem_frames.push_back(m);
    delta.mem_frame_gens.push_back(gen);
    const auto bytes = mem_->frame_bytes(sim::Mfn{m});
    delta.mem_bytes.insert(delta.mem_bytes.end(), bytes.begin(), bytes.end());
  }
  snap_stats_.frames_delta_captured += delta.mem_frames.size();

  for (std::uint64_t m = 0; m < frames_.frame_count(); ++m) {
    const PageInfo& pi = frames_.info(sim::Mfn{m});
    if (!(pi == base.frames[m])) delta.frames.emplace_back(m, pi);
  }
  delta.allocator = frames_.allocator_state();

  for (const auto& [id, dom] : domains_) delta.domains.push_back(*dom);
  delta.next_domid = next_domid_;
  delta.grants = grants_.state();
  delta.events = events_.state();
  delta.crashed = crashed_;
  delta.cpu_hung = cpu_hung_;
  delta.console = console_;
  delta.hash = state_hash();
  return delta;
}

std::uint64_t Hypervisor::restore_delta(const HvSnapshot& base) {
  if (base.frame_gens.size() != mem_->frame_count() ||
      base.frames.size() != frames_.frame_count()) {
    throw std::logic_error{
        "restore_delta: baseline shape does not match this machine"};
  }
  ++snap_stats_.delta_restores;
  std::uint64_t copied = 0;
  for (std::uint64_t m = 0; m < mem_->frame_count(); ++m) {
    if (mem_->frame_generation(sim::Mfn{m}) == base.frame_gens[m]) continue;
    mem_->restore_frame(
        sim::Mfn{m},
        std::span{base.memory.data() + m * sim::kPageSize, sim::kPageSize},
        base.frame_gens[m]);
    ++copied;
  }
  snap_stats_.frames_copied += copied;

  for (std::uint64_t m = 0; m < frames_.frame_count(); ++m) {
    frames_.info(sim::Mfn{m}) = base.frames[m];
  }
  frames_.restore_allocator(base.allocator);
  domains_.clear();
  for (const Domain& dom : base.domains) {
    domains_.emplace(dom.id(), std::make_unique<Domain>(dom));
  }
  next_domid_ = base.next_domid;
  grants_.restore(base.grants);
  events_.restore(base.events);
  crashed_ = base.crashed;
  cpu_hung_ = base.cpu_hung;
  console_ = base.console;
  return copied;
}

HvCowState Hypervisor::snapshot_cow(const HvSnapshot& base,
                                    const HvCowState* parent,
                                    std::uint64_t gen_marker) const {
  if (base.frame_gens.size() != mem_->frame_count() ||
      base.frames.size() != frames_.frame_count()) {
    throw std::logic_error{
        "snapshot_cow: baseline shape does not match this machine"};
  }
  ++snap_stats_.cow_captures;
  HvCowState cow;

  // One ascending sweep, O(dirty) allocation: frames at their root
  // generation resolve to the shared root; frames written after the marker
  // (the op's own writes) are materialized into fresh blocks; everything
  // else diverged from the root but untouched since the parent was restored,
  // so it must be — and is — aliased from the parent node. The marker must
  // have been read right after the parent restore, before any mutation.
  std::vector<std::pair<std::uint64_t, HvFrameBlock*>> fresh;
  std::size_t p = 0;  // cursor into parent->mem_frames, ascending
  for (std::uint64_t m = 0; m < mem_->frame_count(); ++m) {
    const std::uint64_t gen = mem_->frame_generation(sim::Mfn{m});
    if (gen == base.frame_gens[m]) continue;  // same generation => same bytes
    if (gen > gen_marker) {
      auto block = std::make_shared<HvFrameBlock>();
      const auto bytes = mem_->frame_bytes(sim::Mfn{m});
      std::copy(bytes.begin(), bytes.end(), block->bytes.begin());
      fresh.emplace_back(m, block.get());
      cow.mem_frames.emplace_back(m, std::move(block));
      ++cow.owned_frames;
      ++snap_stats_.cow_frames_copied;
      continue;
    }
    if (parent != nullptr) {
      while (p < parent->mem_frames.size() &&
             parent->mem_frames[p].first < m) {
        ++p;
      }
      if (p < parent->mem_frames.size() && parent->mem_frames[p].first == m) {
        cow.mem_frames.emplace_back(m, parent->mem_frames[p].second);
        ++snap_stats_.cow_frames_shared;
        continue;
      }
    }
    throw std::logic_error{
        "snapshot_cow: frame diverged before the capture marker but is "
        "absent from the parent node"};
  }

  for (std::uint64_t m = 0; m < frames_.frame_count(); ++m) {
    const PageInfo& pi = frames_.info(sim::Mfn{m});
    if (!(pi == base.frames[m])) cow.frames.emplace_back(m, pi);
  }
  cow.allocator = frames_.allocator_state();
  for (const auto& [id, dom] : domains_) cow.domains.push_back(*dom);
  cow.next_domid = next_domid_;
  cow.grants = grants_.state();
  cow.events = events_.state();
  cow.crashed = crashed_;
  cow.cpu_hung = cpu_hung_;
  cow.console = console_;
  cow.hash = state_hash();
  // The hash just brought every frame's cached digest up to date.
  for (const auto& [m, block] : fresh) block->digest = frame_digest_[m];
  return cow;
}

std::uint64_t Hypervisor::restore_cow(const HvSnapshot& base,
                                      const HvCowState& cow) {
  if (base.frame_gens.size() != mem_->frame_count() ||
      base.frames.size() != frames_.frame_count()) {
    throw std::logic_error{
        "restore_cow: baseline shape does not match this machine"};
  }
  ++snap_stats_.cow_restores;
  std::uint64_t copied = 0;

  // One ascending sweep. Node frames go through write() (CoW nodes carry
  // no generations — they may have been captured on any identically booted
  // machine), unless the frame still holds the same block from this
  // machine's last restore; the block's digest re-seeds the hash cache at
  // the fresh generation. Frames diverged from the root that the node does
  // not carry are rewound to the root's boot-time generations.
  const std::uint64_t n = mem_->frame_count();
  if (cow_block_.size() != n) {
    cow_block_.assign(n, nullptr);
    cow_block_gen_.assign(n, 0);
  }
  if (frame_digest_.size() != n) {
    frame_digest_.assign(n, 0);
    frame_digest_gen_.assign(n, 0);
  }
  std::size_t d = 0;
  for (std::uint64_t m = 0; m < n; ++m) {
    const std::uint64_t gen = mem_->frame_generation(sim::Mfn{m});
    if (d < cow.mem_frames.size() && cow.mem_frames[d].first == m) {
      const HvFrameBlockRef& block = cow.mem_frames[d++].second;
      if (cow_block_[m] == block && cow_block_gen_[m] == gen) continue;
      mem_->write(sim::mfn_to_paddr(sim::Mfn{m}),
                  std::span<const std::uint8_t>{block->bytes});
      const std::uint64_t stamped = mem_->frame_generation(sim::Mfn{m});
      cow_block_[m] = block;
      cow_block_gen_[m] = stamped;
      frame_digest_[m] = block->digest;
      frame_digest_gen_[m] = stamped;
      ++copied;
      continue;
    }
    if (gen != base.frame_gens[m]) {
      mem_->restore_frame(
          sim::Mfn{m},
          std::span{base.memory.data() + m * sim::kPageSize, sim::kPageSize},
          base.frame_gens[m]);
      ++copied;
    }
  }
  snap_stats_.frames_copied += copied;

  for (std::uint64_t m = 0; m < frames_.frame_count(); ++m) {
    frames_.info(sim::Mfn{m}) = base.frames[m];
  }
  for (const auto& [m, pi] : cow.frames) frames_.info(sim::Mfn{m}) = pi;
  frames_.restore_allocator(cow.allocator);
  domains_.clear();
  for (const Domain& dom : cow.domains) {
    domains_.emplace(dom.id(), std::make_unique<Domain>(dom));
  }
  next_domid_ = cow.next_domid;
  grants_.restore(cow.grants);
  events_.restore(cow.events);
  crashed_ = cow.crashed;
  cpu_hung_ = cow.cpu_hung;
  console_ = cow.console;
  return copied;
}

}  // namespace ii::hv
