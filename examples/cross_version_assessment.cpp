// Cross-version security assessment (the paper's RQ3 / §III-C scenario:
// "cloud provider X wants to evaluate how its virtualized environment would
// be affected by a vulnerability similar to one discovered elsewhere").
//
// Runs the full injection campaign against all three simulated releases and
// derives a simple comparative score: how many of the injected erroneous
// states each version *handles* without a security violation. The point of
// the exercise — and of the paper — is that this comparison requires no
// working exploit for the version under test.
#include <cstdio>

#include "core/report.hpp"
#include "core/supervisor.hpp"
#include "xsa/usecases.hpp"

int main() {
  using namespace ii;

  core::CampaignConfig config{};
  config.modes = {core::Mode::Injection};  // no exploits needed
  const auto results =
      core::CampaignSupervisor{config, {}}.run(&xsa::make_paper_use_cases);

  std::puts("== Injection campaign across releases =========================");
  for (const hv::XenVersion version : config.versions) {
    int injected = 0, violated = 0, handled = 0;
    std::printf("\nXen %s\n", version.to_string().c_str());
    for (const auto& cell : results) {
      if (cell.version != version) continue;
      ++injected;
      if (cell.violation) {
        ++violated;
      } else if (cell.handled()) {
        ++handled;
      }
      std::printf("  %-14s %s\n", cell.use_case.c_str(),
                  cell.violation       ? "VIOLATED"
                  : cell.handled()     ? "handled by the system"
                                       : "state not induced");
    }
    std::printf("  => %d/%d injected states handled\n", handled, injected);
  }

  std::puts(
      "\nAssessment: a higher handled-count under the same injected states\n"
      "indicates stronger intrusion-handling for this threat class. The\n"
      "4.13 release handles 2/4 — the paper traces this to the post-4.9\n"
      "removal of the guest-reachable linear-page-table mapping.");
  return 0;
}
