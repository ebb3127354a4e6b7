// The two extension intrusion models end to end, across all versions.
#include <gtest/gtest.h>

#include "core/supervisor.hpp"
#include "xsa/usecases.hpp"

namespace ii::xsa {
namespace {

guest::VirtualPlatform make_platform(hv::XenVersion version,
                                     bool injector = true) {
  guest::PlatformConfig pc{};
  pc.version = version;
  pc.injector_enabled = injector;
  pc.machine_frames = 8192;
  pc.dom0_pages = 128;
  pc.guest_pages = 64;
  return guest::VirtualPlatform{pc};
}

TEST(ExtensionFactory, CasesWithModels) {
  const auto cases = make_extension_use_cases();
  ASSERT_EQ(cases.size(), 4u);
  EXPECT_EQ(cases[0]->name(), "XSA-387-keep");
  EXPECT_EQ(cases[0]->model().functionality,
            core::AbusiveFunctionality::KeepPageAccess);
  EXPECT_EQ(cases[0]->model().component, core::TargetComponent::GrantTables);
  EXPECT_EQ(cases[1]->name(), "EVTCHN-storm");
  EXPECT_EQ(cases[1]->model().functionality,
            core::AbusiveFunctionality::InduceHangState);
  EXPECT_EQ(cases[1]->model().interface,
            core::InteractionInterface::EventChannel);
  EXPECT_EQ(cases[2]->name(), "DESTROY-leak");
  EXPECT_EQ(cases[2]->model().functionality,
            core::AbusiveFunctionality::ReadUnauthorizedMemory);
  EXPECT_EQ(cases[2]->model().source,
            core::TriggeringSource::ManagementInterface);
  EXPECT_EQ(cases[3]->name(), "XSA-133-venom");
  EXPECT_EQ(cases[3]->model().component, core::TargetComponent::IoEmulation);
  EXPECT_EQ(cases[3]->model().interface,
            core::InteractionInterface::IoRequest);
}

// ------------------------------------------------------------ XSA-133-venom

TEST(Xsa133VenomCase, ExploitMatrixMatchesDesign) {
  // Vulnerable FDC only on 4.6; fixed controllers bound the FIFO.
  for (const auto& [version, works] :
       {std::pair{hv::kXen46, true}, {hv::kXen48, false},
        {hv::kXen413, false}}) {
    auto p = make_platform(version, false);
    Xsa133Venom uc;
    const auto out = uc.run_exploit(p);
    EXPECT_EQ(out.completed, works) << version.to_string();
    EXPECT_EQ(uc.erroneous_state_present(p), works) << version.to_string();
    EXPECT_EQ(uc.security_violation(p), works) << version.to_string();
  }
}

TEST(Xsa133VenomCase, InjectionViolatesUntilIntegrityCheck) {
  for (const auto& [version, violated] :
       {std::pair{hv::kXen46, true}, {hv::kXen48, true},
        {hv::kXen413, false}}) {
    auto p = make_platform(version);
    Xsa133Venom uc;
    const auto out = uc.run_injection(p);
    EXPECT_TRUE(out.completed) << version.to_string();
    EXPECT_TRUE(uc.erroneous_state_present(p)) << version.to_string();
    EXPECT_EQ(uc.security_violation(p), violated) << version.to_string();
  }
}

TEST(Xsa133VenomCase, PwnMarkerMatchesPaperStyleTranscript) {
  auto p = make_platform(hv::kXen48);
  Xsa133Venom uc;
  ASSERT_TRUE(uc.run_injection(p).completed);
  EXPECT_EQ(p.dom0().fs().read("/tmp/dm_pwned", 0),
            "|uid=0(root) gid=0(root) groups=0(root)|@xen-dom0");
}

// ------------------------------------------------------------ DESTROY-leak

TEST(DestroyLeakCase, BallooningHarvestsSecretsPre413) {
  for (const auto version : {hv::kXen46, hv::kXen48}) {
    auto p = make_platform(version, false);
    DestroyLeak uc;
    const auto out = uc.run_exploit(p);
    EXPECT_TRUE(out.completed) << version.to_string();
    EXPECT_TRUE(uc.erroneous_state_present(p)) << version.to_string();
    EXPECT_TRUE(uc.security_violation(p)) << version.to_string();
  }
}

TEST(DestroyLeakCase, EagerScrubbingHandles413BothModes) {
  for (const bool injection : {false, true}) {
    auto p = make_platform(hv::kXen413, injection);
    DestroyLeak uc;
    const auto out =
        injection ? uc.run_injection(p) : uc.run_exploit(p);
    EXPECT_TRUE(uc.erroneous_state_present(p)) << injection;
    EXPECT_FALSE(uc.security_violation(p)) << injection;
    (void)out;
  }
}

TEST(DestroyLeakCase, InjectionFindsSecretOnLeakyVersions) {
  auto p = make_platform(hv::kXen48);
  DestroyLeak uc;
  const auto out = uc.run_injection(p);
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(uc.security_violation(p));
  bool found_note = false;
  for (const auto& n : out.notes) {
    if (n.find("still holds tenant-B data") != std::string::npos) {
      found_note = true;
    }
  }
  EXPECT_TRUE(found_note);
}

// ------------------------------------------------------------ XSA-387-keep

TEST(Xsa387KeepCase, ExploitSucceedsOnLeakyVersions) {
  for (const auto version : {hv::kXen46, hv::kXen48}) {
    auto p = make_platform(version, false);
    Xsa387Keep uc;
    const auto out = uc.run_exploit(p);
    EXPECT_TRUE(out.completed) << version.to_string();
    EXPECT_TRUE(uc.erroneous_state_present(p)) << version.to_string();
    EXPECT_TRUE(uc.security_violation(p)) << version.to_string();
  }
}

TEST(Xsa387KeepCase, ExploitFailsOnFixedVersion) {
  auto p = make_platform(hv::kXen413, false);
  Xsa387Keep uc;
  const auto out = uc.run_exploit(p);
  EXPECT_FALSE(out.completed);
  EXPECT_FALSE(uc.erroneous_state_present(p));
  EXPECT_FALSE(uc.security_violation(p));
}

TEST(Xsa387KeepCase, InjectionReproducesStateEverywhere) {
  // RQ2 for the extension model: the injector induces Keep-Page-Access even
  // where the downgrade bug is fixed.
  for (const auto version : {hv::kXen46, hv::kXen48, hv::kXen413}) {
    auto p = make_platform(version);
    Xsa387Keep uc;
    const auto out = uc.run_injection(p);
    EXPECT_TRUE(out.completed) << version.to_string();
    EXPECT_TRUE(uc.erroneous_state_present(p)) << version.to_string();
    // No version re-validates existing mappings: the retained page stays
    // readable — a violation every time.
    EXPECT_TRUE(uc.security_violation(p)) << version.to_string();
  }
}

// ------------------------------------------------------------ EVTCHN-storm

TEST(EvtchnStormCase, NoExploitExists) {
  auto p = make_platform(hv::kXen46, false);
  EvtchnStorm uc;
  const auto out = uc.run_exploit(p);
  EXPECT_FALSE(out.completed);
  ASSERT_FALSE(out.notes.empty());
  EXPECT_NE(out.notes.front().find("no public exploit"), std::string::npos);
}

TEST(EvtchnStormCase, InjectionWedgesPre413) {
  for (const auto version : {hv::kXen46, hv::kXen48}) {
    auto p = make_platform(version);
    EvtchnStorm uc;
    const auto out = uc.run_injection(p);
    EXPECT_TRUE(out.completed) << version.to_string();
    EXPECT_TRUE(uc.erroneous_state_present(p)) << version.to_string();
    EXPECT_TRUE(uc.security_violation(p)) << version.to_string();
    EXPECT_TRUE(p.hv().cpu_hung()) << version.to_string();
  }
}

TEST(EvtchnStormCase, InjectionHandledOn413) {
  auto p = make_platform(hv::kXen413);
  EvtchnStorm uc;
  const auto out = uc.run_injection(p);
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(uc.erroneous_state_present(p));   // state was induced
  EXPECT_FALSE(uc.security_violation(p));       // ...and absorbed
  EXPECT_FALSE(p.hv().cpu_hung());
}

TEST(EvtchnStormCase, BaselineTrafficUnaffectedByHardening) {
  auto p = make_platform(hv::kXen413);
  EvtchnStorm uc;
  const auto out = uc.run_injection(p);
  bool baseline_delivered = false;
  for (const auto& note : out.notes) {
    if (note.find("baseline event delivered: 1") != std::string::npos) {
      baseline_delivered = true;
    }
  }
  EXPECT_TRUE(baseline_delivered);
}

// -------------------------------------------------- campaign compatibility

TEST(ExtensionCampaign, RunsThroughTheGenericEngine) {
  core::CampaignConfig config{};
  config.modes = {core::Mode::Injection};
  config.platform.machine_frames = 8192;
  config.platform.dom0_pages = 128;
  config.platform.guest_pages = 64;
  const auto results =
      core::CampaignSupervisor{config, {}}.run(&make_extension_use_cases);
  ASSERT_EQ(results.size(), 12u);  // 4 cases x 3 versions
  for (const auto& cell : results) {
    EXPECT_TRUE(cell.err_state) << cell.use_case << cell.version.to_string();
  }
  // The storm cell is handled exactly on 4.13.
  for (const auto& cell : results) {
    if (cell.use_case == "EVTCHN-storm") {
      EXPECT_EQ(cell.handled(), cell.version == hv::kXen413)
          << cell.version.to_string();
    }
  }
}

}  // namespace
}  // namespace ii::xsa
