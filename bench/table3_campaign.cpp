// Regenerates Table III: "Results of the injection campaign in
// non-vulnerable versions" (paper §VII/§VIII).
//
// Runs the four injection scripts on fresh Xen 4.8 and 4.13 platforms and
// prints the Err.State / Sec.Viol. matrix. Expected shape: every erroneous
// state injects on both versions; 4.8 suffers all four violations; 4.13
// handles XSA-212-priv and XSA-182-test ([shield] cells) because of the
// post-4.9 removal of the guest-reachable linear-page-table window.
#include <cstdio>

#include "core/report.hpp"
#include "core/supervisor.hpp"
#include "xsa/usecases.hpp"

int main() {
  ii::core::CampaignConfig config{};
  config.versions = {ii::hv::kXen48, ii::hv::kXen413};
  config.modes = {ii::core::Mode::Injection};
  const auto results = ii::core::CampaignSupervisor{config, {}}.run(
      &ii::xsa::make_paper_use_cases);

  std::puts("== Table III ===================================================");
  std::fputs(ii::core::render_table3(results).c_str(), stdout);

  std::puts("\nPer-cell detail:");
  for (const auto& cell : results) {
    std::printf("  %-14s xen %-5s err_state=%d violation=%d%s rc=%s\n",
                cell.use_case.c_str(), cell.version.to_string().c_str(),
                cell.err_state, cell.violation,
                cell.handled() ? " (handled by the system)" : "",
                ii::hv::errno_name(cell.outcome.rc));
    for (const auto& note : cell.outcome.notes) {
      std::printf("      | %s\n", note.c_str());
    }
  }
  return 0;
}
