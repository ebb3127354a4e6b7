// Regenerates the Fig. 4 / §VI validation experiment (RQ1) and the §VII
// exploit-failure check.
//
// Top half of Fig. 4: the third-party exploits against vulnerable Xen 4.6.
// Bottom half: the injector driving the same erroneous states. Expected
// shape: identical erroneous states and identical security violations in
// both rows for all four use cases, answering RQ1 positively; and every
// exploit failing on 4.8/4.13 (-EFAULT / -EINVAL / -EPERM), confirming the
// fixes before the Table III injection campaign is meaningful.
#include <cstdio>

#include "core/report.hpp"
#include "core/supervisor.hpp"
#include "xsa/usecases.hpp"

int main() {
  ii::core::CampaignConfig config{};  // all versions, both modes
  const auto results = ii::core::CampaignSupervisor{config, {}}.run(
      &ii::xsa::make_paper_use_cases);

  std::puts("== RQ1: exploit vs injection on vulnerable Xen 4.6 ============");
  std::fputs(ii::core::render_rq1_table(results).c_str(), stdout);

  std::puts("\n== Erroneous-state equivalence audit (the §VI-C check) ======");
  for (const auto& use_case : ii::xsa::make_paper_use_cases()) {
    ii::guest::PlatformConfig exploit_pc{};
    exploit_pc.version = ii::hv::kXen46;
    exploit_pc.injector_enabled = false;
    ii::guest::VirtualPlatform exploit_platform{exploit_pc};
    (void)use_case->run_exploit(exploit_platform);

    ii::guest::PlatformConfig inject_pc{};
    inject_pc.version = ii::hv::kXen46;
    ii::guest::VirtualPlatform inject_platform{inject_pc};
    (void)use_case->run_injection(inject_platform);

    const std::string a =
        use_case->erroneous_state_description(exploit_platform);
    const std::string b =
        use_case->erroneous_state_description(inject_platform);
    std::printf("  %-14s %s\n", use_case->name().c_str(),
                a == b && !a.empty() ? "states IDENTICAL" : "STATES DIFFER");
    std::printf("      exploit  : %s\n      injection: %s\n", a.c_str(),
                b.c_str());
  }

  std::puts("\n== Exploit attempts on fixed versions (must all fail) =======");
  std::puts("+----------------+---------+-----------+-----------+");
  std::puts("| Use Case       | Version | completed | last rc   |");
  std::puts("+----------------+---------+-----------+-----------+");
  for (const auto& cell : results) {
    if (cell.mode != ii::core::Mode::Exploit ||
        cell.version == ii::hv::kXen46) {
      continue;
    }
    std::printf("| %-14s | %-7s | %-9s | %-9s |\n", cell.use_case.c_str(),
                cell.version.to_string().c_str(),
                cell.outcome.completed ? "yes" : "no",
                ii::hv::errno_name(cell.outcome.rc));
  }
  std::puts("+----------------+---------+-----------+-----------+");

  std::puts("\n== Injection campaign, all versions (RQ2 context) ============");
  for (const auto& cell : results) {
    if (cell.mode != ii::core::Mode::Injection) continue;
    std::printf("  %-14s xen %-5s err_state=%d violation=%d%s\n",
                cell.use_case.c_str(), cell.version.to_string().c_str(),
                cell.err_state, cell.violation,
                cell.handled() ? " (handled)" : "");
  }
  return 0;
}
