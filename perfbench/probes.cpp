// Layer probes: the latency of each layer's public call, timed in isolation
// on a machine of the workload's own shape. The traced run multiplies these
// latencies by the call counts it observed to get each layer's busy time,
// so every probe that has a per-call work size (frames rehashed, frames
// copied) is run at the size the workload's counters measured.

#include <sys/resource.h>

#include <memory>

#include "bench.hpp"
#include "guest/platform.hpp"
#include "hv/audit.hpp"
#include "hv/recovery.hpp"
#include "hv/snapshot.hpp"
#include "sim/mmu.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

using namespace ii;

guest::PlatformConfig shape_config(Shape shape) {
  guest::PlatformConfig pc;
  pc.version = hv::kXen46;
  switch (shape) {
    case Shape::Checker64:
      // The model checker's default machine: 64 frames, dom0 and one guest
      // of 16 pages each (analysis::ModelCheckConfig).
      pc.machine_frames = 64;
      pc.dom0_pages = 16;
      pc.guest_pages = 16;
      pc.n_guests = 1;
      break;
    case Shape::Fuzz8192:
      // fuzz_cli's default platform.
      pc.machine_frames = 8192;
      pc.dom0_pages = 128;
      pc.guest_pages = 64;
      break;
    case Shape::Campaign32768:
      break;  // guest::PlatformConfig defaults, as campaign_cli runs them
  }
  return pc;
}

/// Time `call` in batches of `batch` until `budget_s` is spent (at least
/// `min_samples`, at most `max_samples` batches); `prepare` runs untimed
/// before each batch. Returns the median per-call latency.
template <class Prepare, class Call>
Latency sample(Prepare prepare, Call call, unsigned batch, double budget_s,
               unsigned min_samples = 5, unsigned max_samples = 400) {
  std::vector<double> per_call_ns;
  const auto start = Clock::now();
  while (per_call_ns.size() < max_samples &&
         (per_call_ns.size() < min_samples || seconds_since(start) < budget_s)) {
    prepare();
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < batch; ++i) call();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    per_call_ns.push_back(ns / batch);
  }
  return Latency{median(per_call_ns), per_call_ns.size()};
}

/// Stamp `count` frames dirty (write generation bumped, bytes unchanged)
/// so the next hash/restore/capture redoes exactly that many frames.
void dirty_frames(sim::PhysicalMemory& mem, std::uint64_t count) {
  const std::uint64_t frames = mem.frame_count();
  count = std::min(count, frames);
  for (std::uint64_t i = 0; i < count; ++i) {
    mem.mark_dirty(sim::Mfn{(frames - 1 - i) % frames});
  }
}

}  // namespace

ProbeResult run_probes(Shape shape, const ProbeWork& work) {
  const guest::PlatformConfig pc = shape_config(shape);
  const bool big = shape == Shape::Campaign32768;
  ProbeResult r;

  // guest.platform: boot and baseline capture, each on a fresh machine.
  std::unique_ptr<guest::VirtualPlatform> platform;
  r.boot = sample([&] { platform.reset(); },
                  [&] { platform = std::make_unique<guest::VirtualPlatform>(pc); },
                  1, big ? 0.6 : 0.3, big ? 2 : 5, 40);
  guest::PlatformBaseline base;
  r.baseline = sample([] {}, [&] { base = platform->baseline(); }, 1,
                      big ? 0.4 : 0.2, big ? 2 : 5, 40);
  hv::Hypervisor& vmm = platform->hv();
  sim::PhysicalMemory& mem = platform->memory();
  guest::GuestKernel& guest = platform->guest(0);
  const hv::HvSnapshot& root = base.hv;

  // sim.mmu: audit walks of the guest's directmap through its own L4.
  {
    const sim::Mmu mmu{mem};
    const sim::Mfn l4 = guest.l4_mfn();
    const std::uint64_t pages = guest.nr_pages();
    std::uint64_t pfn = 0;
    std::uint64_t ok = 0;
    r.mmu_walk = sample([] {},
                        [&] {
                          ok += mmu.walk(l4, guest.pfn_va(sim::Pfn{pfn}))
                                    .has_value();
                          pfn = (pfn + 1) % pages;
                        },
                        64, 0.15);
    if (ok == 0) r.mmu_walk.samples = 0;  // the probe walked nothing
  }

  // hv.validate: a validated L1 rewrite (same PTE), accepted by every policy.
  r.mmu_update = sample([] {}, [&] { (void)guest.map_pfn(hv::kFirstFreePfn); },
                        16, 0.15);

  // hv.hash at the workload's frames-per-call.
  vmm.reset_snapshot_stats();
  r.state_hash = sample([&] { dirty_frames(mem, work.frames_per_hash); },
                        [&] { (void)vmm.state_hash(); }, 1, 0.15);
  {
    const hv::SnapshotStats& s = vmm.snapshot_stats();
    r.frames_per_hash = s.hash_calls == 0
                            ? 0.0
                            : static_cast<double>(s.frames_rehashed) /
                                  static_cast<double>(s.hash_calls);
  }

  r.state_hash_clean = sample([] {}, [&] { (void)vmm.state_hash(); }, 1, 0.1);

  // hv.capture: delta rewind and capture, CoW capture and CoW restore.
  hv::HvDelta delta;
  r.delta_capture = sample(
      [&] {
        (void)vmm.restore_delta(root);
        dirty_frames(mem, work.frames_per_cow);
      },
      [&] { delta = vmm.snapshot_delta(root); }, 1, 0.15);
  r.restore_delta = sample([&] { dirty_frames(mem, work.frames_per_restore); },
                           [&] { (void)vmm.restore_delta(root); }, 1, 0.15);
  hv::HvCowState cow;
  std::uint64_t marker = 0;
  r.cow_capture = sample(
      [&] {
        (void)vmm.restore_delta(root);
        marker = mem.generation();
        dirty_frames(mem, work.frames_per_cow);
      },
      [&] { cow = vmm.snapshot_cow(root, nullptr, marker); }, 1, 0.15);
  r.cow_restore = sample([&] { (void)vmm.restore_delta(root); },
                         [&] { (void)vmm.restore_cow(root, cow); }, 1, 0.15);
  (void)vmm.restore_delta(root);

  // hv.audit: one shared walk, then the checks that consume it.
  hv::SystemWalk walk;
  r.walk_system = sample([] {}, [&] { walk = hv::walk_system(vmm); }, 1, 0.15);
  std::uint64_t findings = 0;
  r.audit = sample([] {},
                   [&] {
                     findings +=
                         hv::InvariantAuditor{vmm}.audit(walk).findings.size();
                   },
                   1, 0.15);
  r.audit_system = sample(
      [] {}, [&] { findings += hv::audit_system(vmm, walk).findings.size(); },
      1, 0.15);
  (void)findings;

  // guest.platform rewind at the workload's frames-per-restore.
  r.rewind = sample([&] { dirty_frames(mem, work.frames_per_restore); },
                    [&] { (void)platform->restore(base); }, 1, 0.15);
  return r;
}

}  // namespace perfbench
