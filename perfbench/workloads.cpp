// The four workloads. Each is a closed loop in one process: the next unit
// of work starts when the previous one returns.
//
//   campaign_matrix  the 48-cell campaign matrix on one warm PlatformPool,
//                    cell order shuffled per pass from the seed;
//   check_serial     4.6, depth 4, one worker (serial engine, delta capture);
//   check_sharded    4.13, depth 5, min(4, cores) workers (sharded engine,
//                    CoW capture), the whole bounded space;
//   fuzz_guided      the guided sequence fuzzer with minimization, on
//                    fuzz_cli's 8192-frame machine, over sub-seeds drawn
//                    from the seed.
//
// An untraced run (--trace 0) measures the end-to-end metrics. A traced run
// (--trace 1) runs the same units once untraced and once with the program's
// observers attached, then times every layer's public call on the
// workload's machine shape (probes.cpp) and splits the traced wall time
// across the layers: busy time = observed call count x probe latency.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/model_checker.hpp"
#include "bench.hpp"
#include "core/campaign.hpp"
#include "core/fuzz.hpp"
#include "guest/platform.hpp"
#include "obs/span.hpp"
#include "xsa/usecases.hpp"

namespace perfbench {
namespace {

using namespace ii;

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Wall seconds of every span named `name` anywhere under `node` (span
/// wall time is inclusive, so a match's children are not added again).
double span_wall_s(const obs::SpanNode& node, std::string_view name) {
  if (node.name == name) return static_cast<double>(node.wall_ns) * 1e-9;
  double s = 0.0;
  for (const auto& [key, child] : node.children) s += span_wall_s(*child, name);
  return s;
}

/// Wall seconds of the span at `parent`/`name` below the root; 0 if absent.
double child_wall_s(const obs::SpanProfiler& prof, std::string_view parent,
                    std::string_view name) {
  const auto p = prof.root().children.find(parent);
  if (p == prof.root().children.end()) return 0.0;
  const auto c = p->second->children.find(name);
  return c == p->second->children.end()
             ? 0.0
             : static_cast<double>(c->second->wall_ns) * 1e-9;
}

// --------------------------------------------------------------- metrics

/// Every per-layer metric, in BENCHMARK.json order. A traced run prints all
/// of them on every workload; a layer the workload does not reach reads 0.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
constexpr std::array kLayerMetrics = {
    LayerMetricSpec{"sim.mmu.walk_ns", "ns"},
    LayerMetricSpec{"sim.mmu.walk_samples", "count"},
    LayerMetricSpec{"sim.mmu.busy_frac", "frac"},
    LayerMetricSpec{"hv.validate.hypercalls", "count"},
    LayerMetricSpec{"hv.validate.refused_frac", "frac"},
    LayerMetricSpec{"hv.validate.mmu_update_ns", "ns"},
    LayerMetricSpec{"hv.validate.mmu_update_samples", "count"},
    LayerMetricSpec{"hv.validate.busy_frac", "frac"},
    LayerMetricSpec{"hv.hash.calls", "count"},
    LayerMetricSpec{"hv.hash.frames_rehashed", "count"},
    LayerMetricSpec{"hv.hash.call_ns", "ns"},
    LayerMetricSpec{"hv.hash.call_samples", "count"},
    LayerMetricSpec{"hv.hash.frame_ns", "ns"},
    LayerMetricSpec{"hv.hash.busy_frac", "frac"},
    LayerMetricSpec{"hv.capture.restores", "count"},
    LayerMetricSpec{"hv.capture.frames_copied", "count"},
    LayerMetricSpec{"hv.capture.cow_captures", "count"},
    LayerMetricSpec{"hv.capture.cow_shared_frac", "frac"},
    LayerMetricSpec{"hv.capture.restore_ns", "ns"},
    LayerMetricSpec{"hv.capture.restore_samples", "count"},
    LayerMetricSpec{"hv.capture.delta_capture_ns", "ns"},
    LayerMetricSpec{"hv.capture.delta_capture_samples", "count"},
    LayerMetricSpec{"hv.capture.cow_capture_ns", "ns"},
    LayerMetricSpec{"hv.capture.cow_capture_samples", "count"},
    LayerMetricSpec{"hv.capture.cow_restore_ns", "ns"},
    LayerMetricSpec{"hv.capture.cow_restore_samples", "count"},
    LayerMetricSpec{"hv.capture.busy_frac", "frac"},
    LayerMetricSpec{"hv.audit.calls", "count"},
    LayerMetricSpec{"hv.audit.walk_ns", "ns"},
    LayerMetricSpec{"hv.audit.walk_samples", "count"},
    LayerMetricSpec{"hv.audit.audit_ns", "ns"},
    LayerMetricSpec{"hv.audit.audit_samples", "count"},
    LayerMetricSpec{"hv.audit.audit_system_ns", "ns"},
    LayerMetricSpec{"hv.audit.audit_system_samples", "count"},
    LayerMetricSpec{"hv.audit.busy_frac", "frac"},
    LayerMetricSpec{"guest.platform.boot_s", "s"},
    LayerMetricSpec{"guest.platform.boot_samples", "count"},
    LayerMetricSpec{"guest.platform.baseline_s", "s"},
    LayerMetricSpec{"guest.platform.baseline_samples", "count"},
    LayerMetricSpec{"guest.platform.rewind_ns", "ns"},
    LayerMetricSpec{"guest.platform.rewind_samples", "count"},
    LayerMetricSpec{"guest.platform.busy_frac", "frac"},
    LayerMetricSpec{"core.campaign.cells", "count"},
    LayerMetricSpec{"core.campaign.cell_p50_us", "us"},
    LayerMetricSpec{"core.campaign.cell_p99_us", "us"},
    LayerMetricSpec{"core.campaign.cell_samples", "count"},
    LayerMetricSpec{"core.campaign.restore_us", "us"},
    LayerMetricSpec{"core.campaign.inject_us", "us"},
    LayerMetricSpec{"core.campaign.monitor_us", "us"},
    LayerMetricSpec{"core.campaign.reuse_hits", "count"},
    LayerMetricSpec{"core.campaign.busy_frac", "frac"},
    LayerMetricSpec{"core.fuzz.execs", "count"},
    LayerMetricSpec{"core.fuzz.minimize_frac", "frac"},
    LayerMetricSpec{"core.fuzz.exec_s", "s"},
    LayerMetricSpec{"core.fuzz.minimize_s", "s"},
    LayerMetricSpec{"core.fuzz.busy_frac", "frac"},
    LayerMetricSpec{"analysis.checker.states", "count"},
    LayerMetricSpec{"analysis.checker.ops_executed", "count"},
    LayerMetricSpec{"analysis.checker.capture_per_state", "ratio"},
    LayerMetricSpec{"analysis.checker.dedup_frac", "frac"},
    LayerMetricSpec{"analysis.checker.peak_frontier_mb", "MB"},
    LayerMetricSpec{"analysis.checker.produce_s", "s"},
    LayerMetricSpec{"analysis.checker.admit_s", "s"},
    LayerMetricSpec{"analysis.checker.settle_s", "s"},
    LayerMetricSpec{"analysis.checker.busy_frac", "frac"},
    LayerMetricSpec{"bench.self_frac", "frac"},
    LayerMetricSpec{"obs.trace_overhead_frac", "frac"},
    LayerMetricSpec{"obs.traced_wall_s", "s"},
};

void init_layer_metrics(Report& report) {
  for (const LayerMetricSpec& spec : kLayerMetrics) {
    report.set(spec.name, 0.0, spec.unit);
  }
}

void set_probe_metrics(Report& r, const ProbeResult& p) {
  const auto ns = [&](const char* name, const char* samples, const Latency& l) {
    r.set(name, l.ns, "ns");
    r.set(samples, static_cast<double>(l.samples), "count");
  };
  ns("sim.mmu.walk_ns", "sim.mmu.walk_samples", p.mmu_walk);
  ns("hv.validate.mmu_update_ns", "hv.validate.mmu_update_samples",
     p.mmu_update);
  ns("hv.hash.call_ns", "hv.hash.call_samples", p.state_hash);
  r.set("hv.hash.frame_ns", p.hash_frame_ns(), "ns");
  ns("hv.capture.restore_ns", "hv.capture.restore_samples", p.restore_delta);
  ns("hv.capture.delta_capture_ns", "hv.capture.delta_capture_samples",
     p.delta_capture);
  ns("hv.capture.cow_capture_ns", "hv.capture.cow_capture_samples",
     p.cow_capture);
  ns("hv.capture.cow_restore_ns", "hv.capture.cow_restore_samples",
     p.cow_restore);
  ns("hv.audit.walk_ns", "hv.audit.walk_samples", p.walk_system);
  ns("hv.audit.audit_ns", "hv.audit.audit_samples", p.audit);
  ns("hv.audit.audit_system_ns", "hv.audit.audit_system_samples",
     p.audit_system);
  ns("guest.platform.rewind_ns", "guest.platform.rewind_samples", p.rewind);
  r.set("guest.platform.boot_s", p.boot.ns * 1e-9, "s");
  r.set("guest.platform.boot_samples", static_cast<double>(p.boot.samples),
        "count");
  r.set("guest.platform.baseline_s", p.baseline.ns * 1e-9, "s");
  r.set("guest.platform.baseline_samples",
        static_cast<double>(p.baseline.samples), "count");
  r.lines.push_back(
      "probes (median ns, samples): mmu.walk " +
      fmt("%.1f (%.0f)", p.mmu_walk.ns, double(p.mmu_walk.samples)) +
      ", mmu_update_one " +
      fmt("%.1f (%.0f)", p.mmu_update.ns, double(p.mmu_update.samples)) +
      ", state_hash " +
      fmt("%.1f (%.0f, %.1f frames/call)", p.state_hash.ns,
          double(p.state_hash.samples), p.frames_per_hash) +
      ", clean state_hash " +
      fmt("%.1f (%.0f)", p.state_hash_clean.ns,
          double(p.state_hash_clean.samples)) +
      ", restore_delta " +
      fmt("%.1f (%.0f)", p.restore_delta.ns, double(p.restore_delta.samples)) +
      ", snapshot_delta " +
      fmt("%.1f (%.0f)", p.delta_capture.ns, double(p.delta_capture.samples)) +
      ", snapshot_cow " +
      fmt("%.1f (%.0f)", p.cow_capture.ns, double(p.cow_capture.samples)) +
      ", restore_cow " +
      fmt("%.1f (%.0f)", p.cow_restore.ns, double(p.cow_restore.samples)) +
      ", walk_system " +
      fmt("%.1f (%.0f)", p.walk_system.ns, double(p.walk_system.samples)) +
      ", InvariantAuditor::audit " +
      fmt("%.1f (%.0f)", p.audit.ns, double(p.audit.samples)) +
      ", audit_system " +
      fmt("%.1f (%.0f)", p.audit_system.ns, double(p.audit_system.samples)) +
      ", platform boot " +
      fmt("%.0f (%.0f)", p.boot.ns, double(p.boot.samples)) +
      ", baseline " +
      fmt("%.0f (%.0f)", p.baseline.ns, double(p.baseline.samples)) +
      ", platform restore " +
      fmt("%.1f (%.0f)", p.rewind.ns, double(p.rewind.samples)));
}

/// Busy seconds of each layer over the traced phase; whatever the leaf
/// layers do not explain inside the workload's orchestration layer is that
/// layer's self time, and the traced wall time outside every program call
/// is the benchmark's own loop.
struct Attribution {
  double mmu = 0, validate = 0, hash = 0, capture = 0, audit = 0,
         platform = 0;
  double program_s = 0;  ///< wall inside the workload's program calls
  const char* orchestration = "core.campaign";
};

void set_attribution(Report& r, const Attribution& a, double traced_wall_s) {
  const double leaves =
      a.mmu + a.validate + a.hash + a.capture + a.audit + a.platform;
  const double w = traced_wall_s;
  r.set("sim.mmu.busy_frac", ratio(a.mmu, w), "frac");
  r.set("hv.validate.busy_frac", ratio(a.validate, w), "frac");
  r.set("hv.hash.busy_frac", ratio(a.hash, w), "frac");
  r.set("hv.capture.busy_frac", ratio(a.capture, w), "frac");
  r.set("hv.audit.busy_frac", ratio(a.audit, w), "frac");
  r.set("guest.platform.busy_frac", ratio(a.platform, w), "frac");
  r.set(std::string{a.orchestration} + ".busy_frac",
        ratio(a.program_s - leaves, w), "frac");
  r.set("bench.self_frac", ratio(w - a.program_s, w), "frac");
  r.set("obs.traced_wall_s", w, "s");
  r.lines.push_back(
      "attribution of " + fmt("%.3f s traced wall: ", w) + "sim.mmu " +
      fmt("%.3f, hv.validate %.3f, hv.hash %.3f", ratio(a.mmu, w),
          ratio(a.validate, w), ratio(a.hash, w)) +
      fmt(", hv.capture %.3f, hv.audit %.3f, guest.platform %.3f",
          ratio(a.capture, w), ratio(a.audit, w), ratio(a.platform, w)) +
      ", " + a.orchestration +
      fmt(" (self) %.3f, benchmark loop %.3f", ratio(a.program_s - leaves, w),
          ratio(w - a.program_s, w)));
}

/// End-to-end metrics shared by every workload's untraced run.
void set_end_to_end(Report& r, std::vector<double> setups,
                    std::vector<double> unit_us, double work_per_s,
                    const char* work_name, const char* unit_name) {
  const double setup_s = median(setups);
  r.set("setup_s", setup_s, "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.set("work_per_s", work_per_s, "1/s");
  // The highest of p99/p90 with at least ten samples beyond it; the median
  // when there are too few samples for either.
  const double n = static_cast<double>(unit_us.size());
  const double tail_q = n * 0.01 >= 10 ? 0.99 : n * 0.1 >= 10 ? 0.90 : 0.5;
  r.set("unit_p50_us", quantile(unit_us, 0.5), "us");
  r.set("unit_tail_us", quantile(unit_us, tail_q), "us");
  r.lines.push_back(
      fmt("setup_s %.4f (median of %.0f samples)", setup_s,
          double(setups.size())) +
      fmt("; work_per_s %.3f (", work_per_s) + work_name + " per second)" +
      fmt("; unit_p50_us %.1f, unit_tail_us %.1f (p", quantile(unit_us, 0.5),
          quantile(unit_us, tail_q)) +
      fmt("%.0f of %.0f ", tail_q * 100, n) + unit_name + " samples)" +
      fmt("; peak_rss_mb %.1f", peak_rss_mb()));
}

// ======================================================= campaign_matrix

/// Expected verdict per (version, mode) column, in the order 4.6 exploit,
/// 4.6 injection, 4.8 exploit, 4.8 injection, 4.13 exploit, 4.13
/// injection: 'V' erroneous state and security violation, 'H' erroneous
/// state handled by the system (no violation), '-' neither.
const std::map<std::string, std::string>& expected_verdicts() {
  static const std::map<std::string, std::string> table = {
      {"XSA-212-crash", "VV-V-V"}, {"XSA-212-priv", "VV-V-H"},
      {"XSA-148-priv", "VV-V-V"},  {"XSA-182-test", "VV-V-H"},
      {"XSA-387-keep", "VVVV-V"},  {"EVTCHN-storm", "-V-V-H"},
      {"DESTROY-leak", "VVVVHH"},  {"XSA-133-venom", "VV-V-H"},
  };
  return table;
}

class CampaignMatrix {
 public:
  explicit CampaignMatrix(std::uint64_t seed)
      : seed_{seed}, campaign_{core::CampaignConfig{}} {
    cases_ = xsa::make_paper_use_cases();
    for (auto& ext : xsa::make_extension_use_cases()) {
      cases_.push_back(std::move(ext));
    }
    const std::array versions{hv::kXen46, hv::kXen48, hv::kXen413};
    const std::array modes{core::Mode::Exploit, core::Mode::Injection};
    for (std::size_t c = 0; c < cases_.size(); ++c) {
      const auto it = expected_verdicts().find(cases_[c]->name());
      if (it == expected_verdicts().end()) {
        throw std::runtime_error{"no expected verdicts for use case " +
                                 cases_[c]->name()};
      }
      for (std::size_t v = 0; v < versions.size(); ++v) {
        for (std::size_t m = 0; m < modes.size(); ++m) {
          cells_.push_back(
              Cell{c, versions[v], modes[m], it->second[v * 2 + m]});
        }
      }
    }
  }

  /// Warm the pool: a cold boot plus a baseline per (version, mode).
  double setup() {
    pool_.reset();
    const auto t0 = Clock::now();
    pool_ = std::make_unique<core::PlatformPool>();
    for (const Cell& cell : cells_) {
      (void)pool_->lease(platform_config(cell));
    }
    return seconds_since(t0);
  }

  struct PassTrace {
    double hypercalls = 0, exits = 0, refused = 0, hash_calls = 0,
           frames_rehashed = 0, restores = 0, frames_copied = 0,
           reuse_hits = 0;
    PassTrace& operator+=(const PassTrace& o) {
      hypercalls += o.hypercalls;
      exits += o.exits;
      refused += o.refused;
      hash_calls += o.hash_calls;
      frames_rehashed += o.frames_rehashed;
      restores += o.restores;
      frames_copied += o.frames_copied;
      reuse_hits += o.reuse_hits;
      return *this;
    }
  };

  /// One pass over all 48 cells in the seed's order for `pass`. Returns the
  /// number of failed cells; appends per-cell latencies to `lat_us`.
  std::uint64_t run_pass(std::uint64_t pass, std::vector<double>* lat_us,
                         double* program_s, obs::SpanProfiler* prof,
                         PassTrace* trace, Report& report) {
    std::vector<const Cell*> order;
    for (const Cell& c : cells_) order.push_back(&c);
    std::mt19937_64 rng{splitmix64(seed_ ^ splitmix64(pass))};
    std::shuffle(order.begin(), order.end(), rng);
    const core::Campaign& campaign = prof != nullptr ? traced_ : campaign_;
    std::uint64_t failed = 0;
    for (const Cell* cell : order) {
      const auto t0 = Clock::now();
      const core::CellResult r = campaign.run_cell(
          *cases_[cell->case_index], cell->version, cell->mode, *pool_, prof);
      const double dt = seconds_since(t0);
      if (program_s != nullptr) *program_s += dt;
      if (lat_us != nullptr) lat_us->push_back(dt * 1e6);
      const char got = r.err_state ? (r.violation ? 'V' : 'H')
                                   : (r.violation ? '?' : '-');
      if (r.failed() || got != cell->expect) {
        ++failed;
        report.fail(r.use_case + "@" + r.version.to_string() + "/" +
                    core::to_string(r.mode) + " verdict " + got +
                    ", expected " + cell->expect +
                    (r.failed() ? " (" + r.failure + ")" : ""));
      }
      if (trace != nullptr) {
        const hv::SnapshotStats& s =
            pool_->lease(platform_config(*cell)).platform->hv().snapshot_stats();
        trace->hypercalls += static_cast<double>(r.hypercalls);
        trace->hash_calls += static_cast<double>(s.hash_calls);
        trace->frames_rehashed += static_cast<double>(s.frames_rehashed);
        trace->restores += static_cast<double>(s.delta_restores);
        trace->frames_copied += static_cast<double>(s.frames_copied);
        const auto hits = r.metrics.counters.find("cell.reuse_hits");
        if (hits != r.metrics.counters.end()) {
          trace->reuse_hits += static_cast<double>(hits->second);
        }
        for (const obs::TraceEvent& e : r.trace) {
          if (e.category != obs::TraceCategory::HypercallExit) continue;
          trace->exits += 1;
          trace->refused += e.rc != 0 ? 1 : 0;
        }
      }
    }
    return failed;
  }

  /// Exact-repeat counters of one pass: hypercalls issued, hash calls and
  /// frames rehashed, frames copied and reuse hits must be identical on
  /// every pass after the first (the cell order changes, the work may not).
  static std::vector<double> repeat_key(const PassTrace& t) {
    return {t.hypercalls, t.hash_calls, t.frames_rehashed, t.frames_copied,
            t.reuse_hits};
  }

  [[nodiscard]] std::size_t cells() const { return cells_.size(); }

 private:
  struct Cell {
    std::size_t case_index;
    hv::XenVersion version;
    core::Mode mode;
    char expect;
  };

  static guest::PlatformConfig platform_config(const Cell& cell) {
    guest::PlatformConfig pc = core::CampaignConfig{}.platform;
    pc.version = cell.version;
    pc.injector_enabled = cell.mode == core::Mode::Injection;
    return pc;
  }

  std::uint64_t seed_;
  core::Campaign campaign_;
  // The traced passes capture each cell's events, for the share of
  // hypercalls that returned an error.
  core::Campaign traced_{[] {
    core::CampaignConfig c;
    c.capture_trace = true;
    return c;
  }()};
  std::vector<std::unique_ptr<core::UseCase>> cases_;
  std::vector<Cell> cells_;
  std::unique_ptr<core::PlatformPool> pool_;
};

Report run_campaign(const RunConfig& cfg) {
  Report r;
  CampaignMatrix m{cfg.seed};
  std::vector<double> setups;
  for (int i = 0; i < (cfg.trace ? 1 : 3); ++i) setups.push_back(m.setup());

  // Warm-up pass: every pooled platform runs its first cell.
  std::uint64_t pass = 0;
  r.failed += m.run_pass(pass++, nullptr, nullptr, nullptr, nullptr, r);
  r.attempted += m.cells();

  if (!cfg.trace) {
    // The unit is one pass over the whole matrix: single cells are too
    // short (median ~0.3 ms, mostly memory traffic) to time steadily on a
    // shared host. The traced run reports the per-cell percentiles.
    std::vector<double> pass_us;
    double cells = 0;
    const auto t0 = Clock::now();
    while (seconds_since(t0) < cfg.seconds) {
      const auto p0 = Clock::now();
      r.failed += m.run_pass(pass++, nullptr, nullptr, nullptr, nullptr, r);
      pass_us.push_back(seconds_since(p0) * 1e6);
      r.attempted += m.cells();
      cells += static_cast<double>(m.cells());
    }
    const double wall = seconds_since(t0);
    set_end_to_end(r, setups, pass_us, ratio(cells, wall), "cells", "pass");
    return r;
  }

  init_layer_metrics(r);
  // Untraced reference, then the same passes traced.
  const std::uint64_t first = pass;
  std::vector<double> cell_us;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < cfg.seconds / 2) {
    r.failed += m.run_pass(pass++, &cell_us, nullptr, nullptr, nullptr, r);
    r.attempted += m.cells();
  }
  const double untraced_s = seconds_since(t0);
  r.set("core.campaign.cell_p50_us", quantile(cell_us, 0.5), "us");
  r.set("core.campaign.cell_p99_us", quantile(cell_us, 0.99), "us");
  r.set("core.campaign.cell_samples", static_cast<double>(cell_us.size()),
        "count");
  const std::uint64_t passes = pass - first;

  obs::SpanProfiler prof;
  double program_s = 0;
  std::vector<double> first_key;
  CampaignMatrix::PassTrace total;
  const auto t1 = Clock::now();
  for (std::uint64_t p = first; p < first + passes; ++p) {
    CampaignMatrix::PassTrace t;
    r.failed += m.run_pass(p, nullptr, &program_s, &prof, &t, r);
    r.attempted += m.cells();
    total += t;
    const std::vector<double> key = CampaignMatrix::repeat_key(t);
    if (first_key.empty()) first_key = key;
    if (key != first_key) {
      ++r.failed;
      r.fail("campaign work counters of pass " + std::to_string(p) +
             " differ from the first traced pass");
    }
  }
  const double traced_s = seconds_since(t1);

  const double np = static_cast<double>(passes);
  const double ncells = np * static_cast<double>(m.cells());
  const double restore_s = child_wall_s(prof, obs::kSpanCell, obs::kSpanRestore);
  const double inject_s = child_wall_s(prof, obs::kSpanCell, obs::kSpanInject);
  const double monitor_s = child_wall_s(prof, obs::kSpanCell, obs::kSpanMonitor);

  ProbeWork work;
  work.frames_per_restore = static_cast<std::uint64_t>(
      std::llround(ratio(total.frames_copied, total.restores)));
  work.frames_per_hash = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::llround(ratio(total.frames_rehashed, total.hash_calls))));
  work.frames_per_cow = work.frames_per_restore;
  const ProbeResult p = run_probes(Shape::Campaign32768, work);
  set_probe_metrics(r, p);

  r.set("hv.validate.hypercalls", total.hypercalls / np, "count");
  r.set("hv.validate.refused_frac", ratio(total.refused, total.exits), "frac");
  r.set("hv.hash.calls", total.hash_calls / np, "count");
  r.set("hv.hash.frames_rehashed", total.frames_rehashed / np, "count");
  r.set("hv.capture.restores", total.restores / np, "count");
  r.set("hv.capture.frames_copied", total.frames_copied / np, "count");
  r.set("hv.audit.calls", ncells / np, "count");
  r.set("core.campaign.cells", ncells / np, "count");
  r.set("core.campaign.restore_us", ratio(restore_s, ncells) * 1e6, "us");
  r.set("core.campaign.inject_us", ratio(inject_s, ncells) * 1e6, "us");
  r.set("core.campaign.monitor_us", ratio(monitor_s, ncells) * 1e6, "us");
  r.set("core.campaign.reuse_hits", total.reuse_hits / np, "count");
  r.set("obs.trace_overhead_frac", ratio(traced_s, untraced_s) - 1.0, "frac");

  Attribution a;
  a.orchestration = "core.campaign";
  a.program_s = program_s;
  // Rewinds: the hypervisor delta restore inside VirtualPlatform::restore;
  // the rest of the cell/restore span is the platform's own rewind work.
  a.capture = std::min(restore_s, total.restores * p.restore_delta.ns * 1e-9);
  a.platform = restore_s - a.capture;
  a.validate = std::min(inject_s, total.hypercalls * p.mmu_update.ns * 1e-9);
  a.hash = (total.hash_calls * p.state_hash_clean.ns +
            total.frames_rehashed * p.hash_frame_ns()) *
           1e-9;
  // The monitor phase is the use case's audit: page-table walks and IDT
  // inspection. Its MMU walks cannot be told apart from outside, so the
  // whole phase is counted as hv.audit and sim.mmu stays 0 here.
  a.audit = monitor_s;
  set_attribution(r, a, traced_s);
  r.lines.push_back(fmt("campaign: %.0f passes traced, %.0f cells per pass, ",
                        np, double(m.cells())) +
                    fmt("hv.hash.calls per pass %.0f", total.hash_calls / np));
  return r;
}

// ============================================================ the checks

struct CheckExpect {
  const char* gate;  ///< evaluate_expectation's expect argument
  std::uint64_t states = 0;
  std::uint64_t violations = 0;
  std::array<std::uint64_t, analysis::kErroneousStateClassCount> classes{};
  std::array<std::uint64_t, hv::kInvariantCount> invariants{};
};

std::string join(const auto& values) {
  std::string s;
  for (const auto v : values) {
    if (!s.empty()) s += ',';
    s += std::to_string(v);
  }
  return s;
}

Report run_check(const RunConfig& cfg, bool sharded) {
  Report r;
  analysis::ModelCheckConfig mc;
  CheckExpect expect;
  if (!sharded) {
    mc.version = hv::kXen46;
    mc.depth = 4;
    mc.threads = 1;
    expect = CheckExpect{"vulnerable", 3522, 560, {238, 93, 223, 0, 6}, {}};
    expect.invariants = {0, 331, 0, 223, 0, 99, 0, 0, 0};
  } else {
    mc.version = hv::kXen413;
    mc.depth = 5;
    mc.threads = std::min(4u, cfg.host_cores);
    expect = CheckExpect{"clean", 7571, 0, {}, {}};
  }
  r.threads = mc.threads;
  r.lines.push_back(fmt("model check: depth %.0f, %.0f worker(s)",
                        double(mc.depth), double(mc.threads)) +
                    ", version " + mc.version.to_string());

  // Set-up: the smallest check the library accepts (boot + root audit).
  std::vector<double> setups;
  {
    analysis::ModelCheckConfig tiny = mc;
    tiny.depth = 0;
    for (int i = 0; i < 41; ++i) {
      const auto t0 = Clock::now();
      const analysis::ModelCheckResult res = analysis::run_model_check(tiny);
      setups.push_back(seconds_since(t0));
      if (res.states_explored != 1) r.fail("depth-0 check explored != 1 state");
    }
  }

  // Deterministic counters that must repeat exactly. The sharded engine's
  // restore, CoW and digest counters depend on which worker expanded which
  // parent (render_engine_stats), so only the serial engine gates them.
  const auto repeat_key = [&](const analysis::ModelCheckResult& res) {
    std::vector<std::uint64_t> k{res.states_explored, res.ops_applied,
                                 res.ops_executed,    res.states_deduped,
                                 res.failed_ops,      res.violations_found};
    if (!sharded) {
      k.insert(k.end(), {res.hash_frames_rehashed, res.delta_restores,
                         res.snapshot_frames_copied});
    }
    return k;
  };
  std::vector<std::uint64_t> first_key;
  const auto check = [&](const analysis::ModelCheckResult& res) {
    ++r.attempted;
    const analysis::GateVerdict gate =
        analysis::evaluate_expectation(res, expect.gate);
    std::string why;
    if (!gate.pass) why += " gate: " + gate.message;
    if (res.truncated) why += " truncated";
    if (res.states_explored != expect.states) {
      why += " states " + std::to_string(res.states_explored);
    }
    if (res.violations_found != expect.violations) {
      why += " violations " + std::to_string(res.violations_found);
    }
    if (res.class_hits != expect.classes) {
      why += " class hits [" + join(res.class_hits) + "]";
    }
    if (res.invariant_hits != expect.invariants) {
      why += " invariant hits [" + join(res.invariant_hits) + "]";
    }
    const auto key = repeat_key(res);
    if (first_key.empty()) first_key = key;
    if (key != first_key) why += " work counters [" + join(key) + "]";
    if (!why.empty()) {
      ++r.failed;
      r.fail("check result differs:" + why);
    }
  };

  check(analysis::run_model_check(mc));  // warm-up

  if (!cfg.trace) {
    std::vector<double> lat_us;
    double states = 0;
    const auto t0 = Clock::now();
    while (seconds_since(t0) < cfg.seconds) {
      const auto c0 = Clock::now();
      const analysis::ModelCheckResult res = analysis::run_model_check(mc);
      lat_us.push_back(seconds_since(c0) * 1e6);
      check(res);
      states += static_cast<double>(res.states_explored);
    }
    const double wall = seconds_since(t0);
    set_end_to_end(r, setups, lat_us, ratio(states, wall), "unique states",
                   "check");
    return r;
  }

  init_layer_metrics(r);
  unsigned runs = 0;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < cfg.seconds / 2) {
    check(analysis::run_model_check(mc));
    ++runs;
  }
  const double untraced_s = seconds_since(t0);

  obs::SpanProfiler prof;
  analysis::ModelCheckConfig traced = mc;
  traced.profiler = &prof;
  analysis::ModelCheckResult last;
  double program_s = 0;
  const auto t1 = Clock::now();
  for (unsigned i = 0; i < runs; ++i) {
    const auto c0 = Clock::now();
    last = analysis::run_model_check(traced);
    program_s += seconds_since(c0);
    check(last);
  }
  const double traced_s = seconds_since(t1);
  const double n = runs;

  // Per-check counters from the result (identical on every run of the
  // serial engine; the sharded engine's restore/CoW counters are from the
  // last run). Hash calls: the checker hashes the state after every op
  // application and once per captured state.
  const double states = static_cast<double>(last.states_explored);
  const double ops = static_cast<double>(last.ops_executed);
  const double hash_calls = ops + states;
  const double rehashed = static_cast<double>(last.hash_frames_rehashed);
  double restores = 0, captures = 0;
  if (!sharded) {
    restores = static_cast<double>(last.delta_restores + last.full_restores);
    captures = states;  // one snapshot_delta per admitted state
  } else {
    captures = static_cast<double>(last.cow_captures);
    // One restore_cow per expanded parent plus one back to the parent
    // after every child capture.
    restores = captures + states;
  }
  const double copied = static_cast<double>(last.snapshot_frames_copied);
  const double cow_total =
      static_cast<double>(last.cow_frames_copied + last.cow_frames_shared);

  ProbeWork work;
  work.frames_per_hash = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(ratio(rehashed, hash_calls))));
  work.frames_per_restore = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(ratio(copied, restores))));
  work.frames_per_cow = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(
             sharded ? ratio(static_cast<double>(last.cow_frames_copied),
                             captures)
                     : ratio(copied, restores))));
  const ProbeResult p = run_probes(Shape::Checker64, work);
  set_probe_metrics(r, p);

  r.set("hv.validate.hypercalls", ops, "count");
  r.set("hv.validate.refused_frac",
        ratio(static_cast<double>(last.failed_ops),
              static_cast<double>(last.ops_applied)),
        "frac");
  r.set("hv.hash.calls", hash_calls, "count");
  r.set("hv.hash.frames_rehashed", rehashed, "count");
  r.set("hv.capture.restores", restores, "count");
  r.set("hv.capture.frames_copied", copied, "count");
  r.set("hv.capture.cow_captures", static_cast<double>(last.cow_captures),
        "count");
  r.set("hv.capture.cow_shared_frac",
        ratio(static_cast<double>(last.cow_frames_shared), cow_total), "frac");
  r.set("hv.audit.calls", states, "count");
  r.set("analysis.checker.states", states, "count");
  r.set("analysis.checker.ops_executed", ops, "count");
  r.set("analysis.checker.capture_per_state",
        ratio(static_cast<double>(last.cow_captures), states), "ratio");
  r.set("analysis.checker.dedup_frac",
        ratio(static_cast<double>(last.states_deduped),
              static_cast<double>(last.ops_applied)),
        "frac");
  r.set("analysis.checker.peak_frontier_mb",
        static_cast<double>(last.peak_frontier_bytes) / (1024.0 * 1024.0),
        "MB");
  const obs::SpanNode& root = prof.root();
  r.set("analysis.checker.produce_s", span_wall_s(root, obs::kSpanProduce) / n,
        "s");
  r.set("analysis.checker.admit_s", span_wall_s(root, obs::kSpanAdmit) / n,
        "s");
  r.set("analysis.checker.settle_s", span_wall_s(root, obs::kSpanSettle) / n,
        "s");
  r.set("obs.trace_overhead_frac", ratio(traced_s, untraced_s) - 1.0, "frac");

  // Layer calls run on every worker at once; their summed busy time is
  // spread over the workers to compare with wall time.
  const double spread = n / static_cast<double>(last.threads_used);
  Attribution a;
  a.orchestration = "analysis.checker";
  a.program_s = program_s;
  a.validate = spread * ops * p.mmu_update.ns * 1e-9;
  a.hash = spread *
           (hash_calls * p.state_hash_clean.ns + rehashed * p.hash_frame_ns()) *
           1e-9;
  // A capture hashes the state it captures; that hash is already counted
  // under hv.hash, so only the capture's own work is added here.
  const double capture_ns =
      std::max(0.0, (sharded ? p.cow_capture.ns : p.delta_capture.ns) -
                        p.hash_ns(static_cast<double>(work.frames_per_cow)));
  a.capture = spread *
              (restores * (sharded ? p.cow_restore.ns : p.restore_delta.ns) +
               captures * capture_ns) *
              1e-9;
  a.audit = spread * states * (p.walk_system.ns + p.audit.ns) * 1e-9;
  set_attribution(r, a, traced_s);
  return r;
}

// ============================================================ fuzz_guided

/// One fuzz campaign's cost depends strongly on its seed (how many
/// survivors it finds and minimizes), so the workload runs a panel of
/// campaigns whose seeds are drawn from the run's seed and reports the
/// median campaign. Each campaign is fuzz_cli's default run: 200 guided
/// iterations with minimization on the 8192-frame machine.
constexpr unsigned kFuzzPanel = 32;
/// Campaigns whose work counters the traced run reports (per campaign).
constexpr unsigned kFuzzTraceBlock = 8;

core::SeqFuzzConfig fuzz_config() {
  core::SeqFuzzConfig c;  // 200 iterations, guided, minimize: fuzz_cli's
  c.version = hv::kXen46;
  c.platform.machine_frames = 8192;
  c.platform.dom0_pages = 128;
  c.platform.guest_pages = 64;
  return c;
}

struct FuzzKey {
  std::size_t coverage_points = 0;
  std::map<core::FuzzOutcome, unsigned> outcomes;
  std::map<analysis::ErroneousStateClass, unsigned> class_hits;
  std::vector<unsigned> counters;  ///< ops, refused, minimizer execs, ...
  friend bool operator==(const FuzzKey&, const FuzzKey&) = default;
};

FuzzKey fuzz_key(const core::SeqFuzzStats& s) {
  return FuzzKey{s.coverage_points,
                 s.outcomes,
                 s.class_hits,
                 {s.ops_executed, s.ops_refused, s.minimizer_execs,
                  s.corpus_entries, static_cast<unsigned>(s.survivors.size())}};
}

Report run_fuzz(const RunConfig& cfg) {
  Report r;
  const core::SeqFuzzConfig base = fuzz_config();
  std::array<std::uint64_t, kFuzzPanel> seeds{};
  for (unsigned k = 0; k < kFuzzPanel; ++k) {
    seeds[k] = splitmix64(cfg.seed * kFuzzPanel + k);
  }

  // Set-up: the first boot of the fuzzer's machine and its baseline.
  std::vector<double> setups;
  {
    guest::PlatformConfig pc = base.platform;
    pc.version = base.version;
    pc.injector_enabled = true;
    for (int i = 0; i < 9; ++i) {
      const auto t0 = Clock::now();
      guest::VirtualPlatform platform{pc};
      const guest::PlatformBaseline baseline = platform.baseline();
      setups.push_back(seconds_since(t0));
    }
  }

  // Campaign i runs panel seed i % kFuzzPanel. A seed's coverage, outcome
  // histogram, class hits and work counters must repeat exactly.
  std::map<unsigned, FuzzKey> first;
  std::uint64_t repeats = 0;
  const auto run_one = [&](unsigned i, obs::SpanProfiler* prof) {
    const unsigned k = i % kFuzzPanel;
    core::SeqFuzzConfig c = base;
    c.seed = seeds[k];
    c.profiler = prof;
    core::SeqFuzzStats s = core::run_sequence_fuzzer(c);
    ++r.attempted;
    unsigned total = 0;
    for (const auto& [o, count] : s.outcomes) total += count;
    const FuzzKey key = fuzz_key(s);
    const auto [it, fresh] = first.emplace(k, key);
    repeats += fresh ? 0 : 1;
    if (total != s.iterations || s.coverage_points == 0 ||
        (!fresh && !(it->second == key))) {
      ++r.failed;
      r.fail("fuzz seed " + std::to_string(seeds[k]) +
             " did not repeat its coverage, outcomes, classes or counters");
    }
    return s;
  };

  if (!cfg.trace) {
    // At least the whole panel, then on until the time is up.
    std::vector<double> lat_us;
    std::vector<double> rates;  // iterations per second, per campaign
    double iterations = 0, execs = 0;
    unsigned i = 0;
    const auto t0 = Clock::now();
    while (i < kFuzzPanel || seconds_since(t0) < cfg.seconds) {
      const auto c0 = Clock::now();
      const core::SeqFuzzStats s = run_one(i++, nullptr);
      const double dt = seconds_since(c0);
      lat_us.push_back(dt * 1e6);
      rates.push_back(s.iterations / dt);
      iterations += s.iterations;
      execs += s.iterations + s.minimizer_execs;
    }
    const double wall = seconds_since(t0);
    if (repeats == 0) (void)run_one(0, nullptr);  // the repeat check
    // The median campaign's rate: the few seeds that find many survivors
    // run several times longer, and the panel's total would follow them.
    set_end_to_end(r, setups, lat_us, median(rates),
                   "fuzz iterations, median campaign", "fuzz campaign");
    r.lines.push_back(
        fmt("fuzz: %.0f campaigns, %.1f iterations/s and ",
            double(lat_us.size()), iterations / wall) +
        fmt("%.1f executions/s over the whole run", execs / wall));
    return r;
  }

  init_layer_metrics(r);
  unsigned campaigns = 0;
  const auto t0 = Clock::now();
  while (campaigns < kFuzzTraceBlock || seconds_since(t0) < cfg.seconds / 2) {
    (void)run_one(campaigns++, nullptr);
  }
  const double untraced_s = seconds_since(t0);

  obs::SpanProfiler prof;
  double program_s = 0;
  std::vector<core::SeqFuzzStats> stats;
  const auto t1 = Clock::now();
  for (unsigned i = 0; i < campaigns; ++i) {
    const auto c0 = Clock::now();
    stats.push_back(run_one(i, &prof));
    program_s += seconds_since(c0);
  }
  const double traced_s = seconds_since(t1);

  // Work over the whole traced phase (for busy time) and over its first
  // block of campaigns (the reported per-campaign counters, identical on
  // every run with this seed).
  // Minimizer executions replay parts of the iterations' traces: they are
  // credited with the iterations' mean op count and outcome shares.
  struct Work {
    double iterations = 0, min_execs = 0, ops = 0, refused = 0,
           unaudited = 0, violations = 0;
    [[nodiscard]] double execs() const { return iterations + min_execs; }
    [[nodiscard]] double hypercalls() const {
      return ops * ratio(execs(), iterations);
    }
    /// Executions audited: crashes and hangs skip the invariant audit.
    [[nodiscard]] double audits() const {
      return execs() * (1.0 - ratio(unaudited, iterations));
    }
    /// Audited executions without an invariant violation, which also run
    /// audit_system to tell "detected" from "no effect".
    [[nodiscard]] double system_audits() const {
      return execs() * (1.0 - ratio(unaudited + violations, iterations));
    }
  };
  const auto work_of = [&](std::size_t n) {
    Work w;
    for (std::size_t i = 0; i < n; ++i) {
      const core::SeqFuzzStats& s = stats[i];
      w.iterations += s.iterations;
      w.min_execs += s.minimizer_execs;
      w.ops += s.ops_executed;
      w.refused += s.ops_refused;
      const auto count = [&](core::FuzzOutcome o) {
        const auto it = s.outcomes.find(o);
        return it == s.outcomes.end() ? 0.0 : double(it->second);
      };
      w.unaudited += count(core::FuzzOutcome::HostCrash) +
                     count(core::FuzzOutcome::CpuHang);
      w.violations += count(core::FuzzOutcome::IsolationViolation);
    }
    return w;
  };
  const Work all = work_of(stats.size());
  const Work block = work_of(kFuzzTraceBlock);
  const double nb = kFuzzTraceBlock;
  const double nc = static_cast<double>(stats.size());

  // The fuzzer owns its platform, so its snapshot counters are not
  // reachable: each execution's footprint is estimated as the frames its
  // validated ops write (one table frame each) plus the attacker's data
  // page, rewound once and rehashed twice (after the ops, after the rewind).
  ProbeWork work;
  work.frames_per_restore = static_cast<std::uint64_t>(
                                std::llround(ratio(block.ops, block.iterations))) +
                            1;
  work.frames_per_hash = 2 * work.frames_per_restore;
  work.frames_per_cow = work.frames_per_restore;
  const ProbeResult p = run_probes(Shape::Fuzz8192, work);
  set_probe_metrics(r, p);

  r.set("hv.validate.hypercalls", block.hypercalls() / nb, "count");
  r.set("hv.validate.refused_frac", ratio(block.refused, block.ops), "frac");
  r.set("hv.hash.calls", block.execs() / nb, "count");
  r.set("hv.hash.frames_rehashed",
        block.execs() * static_cast<double>(work.frames_per_hash) / nb,
        "count");
  r.set("hv.capture.restores", block.execs() / nb, "count");
  r.set("hv.capture.frames_copied",
        block.execs() * static_cast<double>(work.frames_per_restore) / nb,
        "count");
  r.set("hv.audit.calls", block.audits() / nb, "count");
  r.set("core.fuzz.execs", block.execs() / nb, "count");
  r.set("core.fuzz.minimize_frac", ratio(block.min_execs, block.execs()),
        "frac");
  r.set("core.fuzz.exec_s",
        child_wall_s(prof, obs::kSpanFuzz, obs::kSpanFuzzExec) / nc, "s");
  r.set("core.fuzz.minimize_s",
        child_wall_s(prof, obs::kSpanFuzz, obs::kSpanFuzzMinimize) / nc, "s");
  r.set("obs.trace_overhead_frac", ratio(traced_s, untraced_s) - 1.0, "frac");

  Attribution a;
  a.orchestration = "core.fuzz";
  a.program_s = program_s;
  // The activation workload reads five guest VAs per execution.
  a.mmu = all.execs() * 5 * p.mmu_walk.ns * 1e-9;
  a.validate = all.hypercalls() * p.mmu_update.ns * 1e-9;
  a.hash = all.execs() * p.state_hash.ns * 1e-9;
  a.capture = all.execs() * p.restore_delta.ns * 1e-9;
  a.audit = (all.audits() * (p.walk_system.ns + p.audit.ns) +
             all.system_audits() * p.audit_system.ns) *
            1e-9;
  // Every campaign boots its own machine; every execution rewinds it.
  a.platform = nc * (p.boot.ns + p.baseline.ns) * 1e-9 +
               all.execs() * std::max(0.0, p.rewind.ns - p.restore_delta.ns) *
                   1e-9;
  set_attribution(r, a, traced_s);
  r.lines.push_back(
      fmt("fuzz: %.0f campaigns traced, %.0f executions per campaign, ", nc,
          all.execs() / nc) +
      fmt("minimizer share %.3f", ratio(all.min_execs, all.execs())));
  return r;
}

}  // namespace

Report run_workload(const RunConfig& config) {
  if (config.workload == "campaign_matrix") return run_campaign(config);
  if (config.workload == "check_serial") return run_check(config, false);
  if (config.workload == "check_sharded") return run_check(config, true);
  if (config.workload == "fuzz_guided") return run_fuzz(config);
  throw std::invalid_argument{"unknown workload " + config.workload};
}

}  // namespace perfbench
