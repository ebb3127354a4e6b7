// Multi-tenant isolation assessment across threat vectors (extension).
//
// A cloud operator's question (paper §III-C): across the intrusion models
// we know about — memory corruption, retained grant pages, interrupt
// storms, teardown leaks — how well does each hypervisor release protect
// tenant isolation once an intrusion has happened? The answer requires no
// exploit corpus: the campaign engine drives every model's erroneous state
// through the injector and scores what each release handled.
#include <cstdio>

#include "core/report.hpp"
#include "core/supervisor.hpp"
#include "xsa/usecases.hpp"

int main() {
  using namespace ii;

  // The full catalogue: the paper's four memory-corruption models plus the
  // three extension models.
  const auto catalogue = [] {
    auto cases = xsa::make_paper_use_cases();
    for (auto& extension : xsa::make_extension_use_cases()) {
      cases.push_back(std::move(extension));
    }
    return cases;
  };
  const auto cases = catalogue();

  core::CampaignConfig config{};
  config.modes = {core::Mode::Injection};
  const auto results = core::CampaignSupervisor{config, {}}.run(catalogue);

  std::puts("== Tenant-isolation assessment (injection only) ===============");
  std::puts("model catalogue:");
  for (const auto& use_case : cases) {
    std::printf("  %-14s %s\n", use_case->name().c_str(),
                core::to_string(use_case->model().functionality).c_str());
  }

  std::puts("\nscorecard (injected states handled per release):");
  for (const hv::XenVersion version : config.versions) {
    int handled = 0, violated = 0;
    for (const auto& cell : results) {
      if (cell.version != version) continue;
      if (cell.handled()) {
        ++handled;
      } else if (cell.violation) {
        ++violated;
      }
    }
    std::printf("  Xen %-5s handled %d / violated %d of %zu models\n",
                version.to_string().c_str(), handled, violated, cases.size());
  }

  std::puts("\nmachine-readable cells (CSV):");
  std::fputs(core::render_csv(results).c_str(), stdout);
  return 0;
}
