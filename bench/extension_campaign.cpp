// Extension campaign (DESIGN.md §7): the grant-table Keep-Page-Access model
// (XSA-387 family, paper §IV-B) and the event-channel storm model (paper
// §IX-C / Table I's non-memory class), run through the same campaign engine
// as the paper's four use cases.
//
// Expected shape: both erroneous states inject on every version;
// XSA-387-keep violates confidentiality everywhere (no version re-validates
// live mappings); EVTCHN-storm wedges the CPU pre-4.13 and is absorbed
// (handled) by the hardened delivery loop. EVTCHN-storm also demonstrates
// paper capability (ii): assessment with NO public exploit available.
#include <cstdio>

#include "core/report.hpp"
#include "core/supervisor.hpp"
#include "xsa/usecases.hpp"

int main() {
  using namespace ii;
  const auto cases = xsa::make_extension_use_cases();

  std::puts("== Extension intrusion models ==================================");
  std::fputs(core::render_use_case_table(cases).c_str(), stdout);

  core::CampaignConfig config{};
  config.modes = {core::Mode::Exploit, core::Mode::Injection};
  const auto results =
      core::CampaignSupervisor{config, {}}.run(&xsa::make_extension_use_cases);

  std::puts("\nper-cell results:");
  for (const auto& cell : results) {
    std::printf("  %-13s %-9s xen %-5s completed=%d err_state=%d "
                "violation=%d%s\n",
                cell.use_case.c_str(), to_string(cell.mode).c_str(),
                cell.version.to_string().c_str(), cell.outcome.completed,
                cell.err_state, cell.violation,
                cell.handled() ? " (handled)" : "");
  }

  std::puts("\ninjection matrix (Table III layout):");
  std::fputs(core::render_table3(results).c_str(), stdout);
  return 0;
}
