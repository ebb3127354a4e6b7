// Randomized properties of the incremental snapshot engine (DESIGN.md §10).
//
// Three invariants hold after *any* accepted-or-refused hypercall stream:
//   1. The dirty-frame digest cache is transparent: state_hash() (cached)
//      equals state_hash_full() (every frame rehashed).
//   2. restore_delta(base) rewinds byte-identically to the baseline — the
//      full memory image and frame generations match it.
//   3. A CoW forest node densely describes its state: restore_cow rebuilds
//      it byte-identically from any current state, on the capturing machine
//      or an identically booted twin, while skipping frames that still hold
//      the node's blocks and re-seeding the digest cache from them.
// All are fuzzed with seeded generators across the three paper versions,
// so any mutation path that skips dirty-marking shows up as a hash split.
#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "hv/hypervisor.hpp"
#include "hv/snapshot.hpp"

namespace ii::hv {
namespace {

struct Harness {
  explicit Harness(XenVersion version, unsigned seed)
      : mem{4096}, hv{mem, VersionPolicy::for_version(version)}, rng{seed} {
    dom0 = hv.create_domain("dom0", true, 64);
    guest = hv.create_domain("guest01", false, 128);
  }

  std::uint64_t rand_pfn() { return rng() % hv.domain(guest).nr_pages(); }

  /// One random mutation through a public hypercall surface. Accepted and
  /// refused requests are both interesting: refusals still write the
  /// console and must not desynchronize the digest cache either way.
  void random_op() {
    switch (rng() % 5) {
      case 0: {  // mmu_update on a random own-table slot
        const Domain& dom = hv.domain(guest);
        const std::uint64_t table_pfn = 124 + rng() % 4;
        const unsigned index = static_cast<unsigned>(rng() % sim::kPtEntries);
        std::uint64_t flags = sim::Pte::kPresent;
        if (rng() % 2) flags |= sim::Pte::kWritable;
        if (rng() % 2) flags |= sim::Pte::kUser;
        if (rng() % 8 == 0) flags |= sim::Pte::kPageSize;
        const sim::Pte entry =
            sim::Pte::make(*dom.p2m(sim::Pfn{rand_pfn()}), flags);
        const MmuUpdate req{
            sim::mfn_to_paddr(*dom.p2m(sim::Pfn{table_pfn})).raw() +
                index * 8,
            entry.raw()};
        (void)hv.hypercall_mmu_update(guest, {&req, 1});
        break;
      }
      case 1: {  // memory_exchange, mostly invalid
        MemoryExchange exch{};
        exch.in_extents = {sim::Pfn{rand_pfn()}};
        exch.out_extent_start =
            sim::Vaddr{kGuestKernelBase + (rng() % 64) * sim::kPageSize};
        (void)hv.hypercall_memory_exchange(guest, exch);
        break;
      }
      case 2:
        (void)hv.hypercall_console_io(
            guest, "probe " + std::to_string(rng() % 1000));
        break;
      case 3:
        (void)hv.hypercall_decrease_reservation(guest, sim::Pfn{rand_pfn()});
        break;
      default:
        (void)hv.hypercall_populate_physmap(guest, sim::Pfn{rand_pfn()});
        break;
    }
  }

  sim::PhysicalMemory mem;
  Hypervisor hv;
  std::mt19937 rng;
  DomainId dom0{}, guest{};
};

class SnapshotDeltaProperty
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(SnapshotDeltaProperty, IncrementalHashMatchesFullRehash) {
  const auto [minor, seed] = GetParam();
  Harness h{XenVersion{4, minor}, seed};
  ASSERT_EQ(h.hv.state_hash(), h.hv.state_hash_full());
  for (int batch = 0; batch < 12; ++batch) {
    const int ops = 1 + static_cast<int>(h.rng() % 20);
    for (int i = 0; i < ops; ++i) h.random_op();
    const std::uint64_t cached = h.hv.state_hash();
    ASSERT_EQ(cached, h.hv.state_hash_full()) << "batch " << batch;
    // A second cached call must be a pure cache hit with the same value.
    ASSERT_EQ(cached, h.hv.state_hash()) << "batch " << batch;
  }
}

TEST_P(SnapshotDeltaProperty, DeltaRestoreIsByteIdenticalToFullSnapshot) {
  const auto [minor, seed] = GetParam();
  Harness h{XenVersion{4, minor}, seed + 1000};
  const HvSnapshot base = h.hv.snapshot();

  for (int round = 0; round < 4; ++round) {
    const int ops = 1 + static_cast<int>(h.rng() % 30);
    for (int i = 0; i < ops; ++i) h.random_op();

    const HvDelta delta = h.hv.snapshot_delta(base);
    ASSERT_EQ(delta.hash, h.hv.state_hash());

    // Rewind to the baseline: byte-identical, generations included.
    h.hv.restore_delta(base);
    EXPECT_EQ(h.hv.state_hash(), base.hash) << "round " << round;
    EXPECT_EQ(h.hv.state_hash(), h.hv.state_hash_full()) << "round " << round;
    const HvSnapshot at_base = h.hv.snapshot();
    EXPECT_EQ(at_base.memory, base.memory) << "round " << round;
    EXPECT_EQ(at_base.frame_gens, base.frame_gens) << "round " << round;
    EXPECT_EQ(at_base.frames == base.frames, true) << "round " << round;
  }
}

TEST_P(SnapshotDeltaProperty, DeltaAgainstWrongBaselineIsRefused) {
  // A baseline must describe this machine: one of another shape is refused
  // by every capture and restore that works against a baseline.
  const auto [minor, seed] = GetParam();
  Harness h{XenVersion{4, minor}, seed + 2000};
  HvSnapshot other = h.hv.snapshot();
  for (int i = 0; i < 5; ++i) h.random_op();
  other.frame_gens.pop_back();
  const HvCowState node = h.hv.snapshot_cow(h.hv.snapshot(), nullptr, 0);
  EXPECT_THROW((void)h.hv.snapshot_delta(other), std::logic_error);
  EXPECT_THROW(h.hv.restore_delta(other), std::logic_error);
  EXPECT_THROW((void)h.hv.snapshot_cow(other, nullptr, 0), std::logic_error);
  EXPECT_THROW(h.hv.restore_cow(other, node), std::logic_error);
}

TEST_P(SnapshotDeltaProperty, CowRestoreIsByteIdenticalToFullSnapshot) {
  const auto [minor, seed] = GetParam();
  Harness h{XenVersion{4, minor}, seed + 3000};
  Harness twin{XenVersion{4, minor}, seed + 4000};
  const HvSnapshot base = h.hv.snapshot();
  const HvSnapshot twin_base = twin.hv.snapshot();
  ASSERT_EQ(base.hash, twin_base.hash);

  // Grow a forest: every node is captured after random ops from a restored
  // parent, so nodes share their parent's blocks for untouched frames.
  struct Node {
    HvCowState cow;
    HvSnapshot full;
  };
  std::vector<Node> nodes;
  nodes.push_back({h.hv.snapshot_cow(base, nullptr, base.mem_generation),
                   base});
  for (int round = 0; round < 10; ++round) {
    const std::size_t parent = h.rng() % nodes.size();
    h.hv.restore_cow(base, nodes[parent].cow);
    const std::uint64_t marker = h.mem.generation();
    const int ops = 1 + static_cast<int>(h.rng() % 6);
    for (int i = 0; i < ops; ++i) h.random_op();
    HvCowState cow = h.hv.snapshot_cow(base, &nodes[parent].cow, marker);
    HvSnapshot full = h.hv.snapshot();
    ASSERT_EQ(cow.hash, full.hash) << "round " << round;
    nodes.push_back({std::move(cow), std::move(full)});
  }

  // Restore random nodes — repeats included, so frames that still hold a
  // node's block are skipped — onto the capturing machine and its twin,
  // sometimes from a state mutated since the last restore.
  for (int i = 0; i < 20; ++i) {
    const bool on_twin = h.rng() % 2 == 0;
    Harness& m = on_twin ? twin : h;
    const Node& node = nodes[h.rng() % nodes.size()];
    m.hv.restore_cow(on_twin ? twin_base : base, node.cow);
    ASSERT_EQ(m.hv.state_hash(), m.hv.state_hash_full()) << "restore " << i;
    ASSERT_EQ(m.hv.state_hash(), node.full.hash) << "restore " << i;
    const HvSnapshot now = m.hv.snapshot();
    EXPECT_EQ(now.memory, node.full.memory) << "restore " << i;
    EXPECT_EQ(now.frames == node.full.frames, true) << "restore " << i;
    EXPECT_EQ(now.console, node.full.console) << "restore " << i;
    if (h.rng() % 3 == 0) m.random_op();
  }

  // Restoring the node a machine already holds copies nothing, and the
  // digests re-seeded from a node's blocks leave no frame to rehash.
  const Node& last = nodes.back();
  h.hv.restore_delta(base);
  (void)h.hv.state_hash();
  h.hv.restore_cow(base, last.cow);
  EXPECT_EQ(h.hv.restore_cow(base, last.cow), 0u);
  const std::uint64_t rehashed = h.hv.snapshot_stats().frames_rehashed;
  EXPECT_EQ(h.hv.state_hash(), last.full.hash);
  EXPECT_EQ(h.hv.snapshot_stats().frames_rehashed, rehashed);
}

INSTANTIATE_TEST_SUITE_P(
    Versions, SnapshotDeltaProperty,
    ::testing::Combine(::testing::Values(6, 8, 13),
                       ::testing::Values(1u, 7u, 42u)));

}  // namespace
}  // namespace ii::hv
