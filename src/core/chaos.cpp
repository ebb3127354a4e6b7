#include "core/chaos.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <sstream>

namespace ii::core {

namespace {

// The closed vocabulary of injectable harness faults. Every chaos_fire()
// call site in src/ names a row here (ii_analyze rule chaos-point-registry);
// parse_chaos_plan rejects anything else, so a typo in a --chaos-plan is
// an error instead of a silently never-firing point.
constexpr ChaosPointEntry kChaosPointTable[] = {
    {"cell.alloc_fail",
     "platform allocation/boot fails during campaign cell setup"},
    {"journal.write_fail", "journal append writes nothing (lost line)"},
    {"journal.torn", "journal append writes a prefix only (torn line)"},
    {"journal.fsync_fail", "journal flush reports an I/O error"},
    {"worker.crash", "supervisor worker dies (WorkerCrash) before a cell"},
    {"worker.stall", "supervisor worker burns budget in a spin before a cell"},
    {"supervisor.kill", "whole campaign killed after a journal append"},
    {"recover.abort", "hypervisor recovery aborts at a phase boundary"},
    {"net.drop", "simulated network drops a sent line"},
    {"net.partition", "simulated network refuses a connection"},
    {"status.send_fail", "real-socket status response send fails"},
    {"fuzz.corpus_write_fail",
     "fuzzer corpus trace-file write refused (survivor/corpus persistence)"},
    {"fuzz.corpus_read_fail", "fuzzer corpus trace-file read refused"},
};

std::atomic<ChaosEngine*> g_engine{nullptr};

/// A plan number: a nonempty run of decimal digits that fits in 64 bits. No
/// sign, no whitespace, nothing after it.
bool parse_digits(std::string_view s, std::uint64_t* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

std::string_view chaos_point_description(std::string_view name) {
  for (const ChaosPointEntry& e : kChaosPointTable) {
    if (e.name == name) return e.description;
  }
  return {};
}

std::vector<std::string_view> registered_chaos_points() {
  std::vector<std::string_view> names;
  for (const ChaosPointEntry& e : kChaosPointTable) names.push_back(e.name);
  return names;
}

ChaosPlan parse_chaos_plan(const std::string& text) {
  ChaosPlan plan;
  std::istringstream tokens{text};
  std::string token;
  while (std::getline(tokens, token, ',')) {
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    const std::size_t at = token.find('@');
    std::string name;
    if (eq != std::string::npos && (at == std::string::npos || eq < at)) {
      name = token.substr(0, eq);
      std::uint64_t rate = 0;
      if (!parse_digits(std::string_view{token}.substr(eq + 1), &rate)) {
        throw std::invalid_argument{"chaos plan: bad rate in '" + token + "'"};
      }
      if (rate > 1000) {
        throw std::invalid_argument{"chaos plan: rate > 1000 permille in '" +
                                    token + "'"};
      }
      plan[name].rate_permille = static_cast<std::uint32_t>(rate);
    } else if (at != std::string::npos) {
      name = token.substr(0, at);
      std::uint64_t occ = 0;
      if (!parse_digits(std::string_view{token}.substr(at + 1), &occ)) {
        throw std::invalid_argument{"chaos plan: bad occurrence in '" + token +
                                    "'"};
      }
      if (occ == 0) {
        throw std::invalid_argument{
            "chaos plan: occurrences are 1-based in '" + token + "'"};
      }
      plan[name].fire_at.push_back(occ);
    } else {
      throw std::invalid_argument{
          "chaos plan: expected name=permille or name@occurrence, got '" +
          token + "'"};
    }
    if (chaos_point_description(name).empty()) {
      throw std::invalid_argument{"chaos plan: unknown chaos point '" + name +
                                  "' (see registered_chaos_points)"};
    }
  }
  for (auto& [name, spec] : plan) {
    std::sort(spec.fire_at.begin(), spec.fire_at.end());
    spec.fire_at.erase(std::unique(spec.fire_at.begin(), spec.fire_at.end()),
                       spec.fire_at.end());
  }
  return plan;
}

ChaosEngine::ChaosEngine(std::uint64_t seed, ChaosPlan plan) : seed_{seed} {
  std::ostringstream canon;
  bool first = true;
  for (auto& [name, spec] : plan) {
    if (chaos_point_description(name).empty()) {
      throw std::invalid_argument{"chaos plan: unknown chaos point '" + name +
                                  "'"};
    }
    if (spec.rate_permille > 0) {
      canon << (first ? "" : ",") << name << '=' << spec.rate_permille;
      first = false;
    }
    for (const std::uint64_t occ : spec.fire_at) {
      canon << (first ? "" : ",") << name << '@' << occ;
      first = false;
    }
    PointState state;
    state.spec = std::move(spec);
    // Stream seeding: one splitmix64 step over (seed ^ name hash) so two
    // points never share a stream even under related seeds.
    std::uint64_t s = seed ^ fnv1a64(name);
    state.rng = splitmix64_next(s);
    points_.emplace(name, std::move(state));
  }
  plan_text_ = canon.str();
}

ChaosEngine::~ChaosEngine() {
  // A dying engine disarms itself so no chaos point can dereference it.
  ChaosEngine* self = this;
  g_engine.compare_exchange_strong(self, nullptr);
}

bool ChaosEngine::fire(std::string_view point) {
  const std::lock_guard<std::mutex> lock{mu_};
  const auto it = points_.find(point);
  if (it == points_.end()) return false;
  PointState& state = it->second;
  const std::uint64_t occ = ++state.occurrences;
  // The stream always advances, hit or miss: the decision for occurrence
  // N is a pure function of (seed, name, N), independent of the plan's
  // explicit fire_at entries.
  const std::uint64_t draw = splitmix64_next(state.rng);
  if (state.disabled) return false;
  bool hit = state.spec.rate_permille > 0 &&
             draw % 1000 < state.spec.rate_permille;
  if (!hit) {
    hit = std::binary_search(state.spec.fire_at.begin(),
                             state.spec.fire_at.end(), occ);
  }
  if (hit) {
    ++state.fired;
    ++total_fired_;
    char line[128];
    std::snprintf(line, sizeof line, "%llu %.*s occurrence %llu",
                  static_cast<unsigned long long>(total_fired_),
                  static_cast<int>(it->first.size()), it->first.data(),
                  static_cast<unsigned long long>(occ));
    log_.emplace_back(line);
  }
  return hit;
}

void ChaosEngine::disable(std::string_view point) {
  const std::lock_guard<std::mutex> lock{mu_};
  if (const auto it = points_.find(point); it != points_.end()) {
    it->second.disabled = true;
  }
}

std::uint64_t ChaosEngine::fired(std::string_view point) const {
  const std::lock_guard<std::mutex> lock{mu_};
  const auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fired;
}

std::uint64_t ChaosEngine::total_fired() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return total_fired_;
}

std::string ChaosEngine::schedule_log() const {
  const std::lock_guard<std::mutex> lock{mu_};
  std::ostringstream os;
  os << "chaos-schedule seed=" << seed_ << " plan=" << plan_text_ << '\n';
  for (const std::string& line : log_) os << line << '\n';
  return os.str();
}

void ChaosEngine::install(ChaosEngine* engine) {
  g_engine.store(engine, std::memory_order_release);
}

ChaosEngine* ChaosEngine::instance() {
  return g_engine.load(std::memory_order_acquire);
}

bool chaos_fire(std::string_view point) {
  ChaosEngine* const engine = ChaosEngine::instance();
  return engine != nullptr && engine->fire(point);
}

}  // namespace ii::core
