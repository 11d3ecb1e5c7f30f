// Integration tests of the whole methodology (core/): the FmeaFlow on the
// frmem designs, the paper's headline numbers (v1 ~95 % SFF fails SIL3, v2
// >= 99 % passes), the criticality ranking, sensitivity stability and the
// four-step validation flow.
#include <gtest/gtest.h>

#include <sstream>

#include "core/flow_report.hpp"
#include "core/srs.hpp"
#include "core/frmem_config.hpp"
#include "core/validation.hpp"
#include "memsys/workloads.hpp"
#include "obs/telemetry.hpp"

namespace core = socfmea::core;
namespace ms = socfmea::memsys;
namespace fm = socfmea::fmea;

namespace {

// Flows are expensive to build; share them across tests.
struct Flows {
  ms::GateLevelDesign v1 = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  ms::GateLevelDesign v2 = ms::buildProtectionIp(ms::GateLevelOptions::v2());
  core::FmeaFlow flowV1{v1.nl, core::makeFrmemFlowConfig(v1)};
  core::FmeaFlow flowV2{v2.nl, core::makeFrmemFlowConfig(v2)};
};

Flows& flows() {
  static Flows f;
  return f;
}

}  // namespace

TEST(CoreFlowTest, ZoneCountInThePapersRange) {
  // The paper reports "about 170 sensible zones"; our synthesized view
  // decomposes into the same order of magnitude.
  EXPECT_GE(flows().flowV1.zones().size(), 100u);
  EXPECT_LE(flows().flowV1.zones().size(), 220u);
}

TEST(CoreFlowTest, V1FallsShortOfSil3) {
  const double sff = flows().flowV1.sff();
  EXPECT_GE(sff, 0.92);  // "around 95%"
  EXPECT_LT(sff, 0.99);  // "not enough to reach SIL3"
  EXPECT_LT(flows().flowV1.sil(), fm::Sil::Sil3);
}

TEST(CoreFlowTest, V2ReachesSil3) {
  const double sff = flows().flowV2.sff();
  EXPECT_GE(sff, 0.99);  // paper: 99.38 %
  EXPECT_EQ(flows().flowV2.sil(), fm::Sil::Sil3);
  EXPECT_GT(flows().flowV2.dc(), flows().flowV1.dc());
}

TEST(CoreFlowTest, V1RankingNamesThePapersCriticalBlocks) {
  // "the most critical blocks were the BIST control logic, the registers
  //  involved in addresses latching, most of the blocks of the decoder, the
  //  registers of the write buffer, some of the blocks of the MCE..."
  const auto rank = flows().flowV1.sheet().ranking(12);
  bool decoder = false;
  bool wbuf = false;
  bool mce = false;
  bool bistOrAddr = false;
  for (const auto& e : rank) {
    if (e.name.find("dec/") != std::string::npos) decoder = true;
    if (e.name.find("wbuf/") != std::string::npos) wbuf = true;
    if (e.name.find("mce/") != std::string::npos) mce = true;
    if (e.name.find("bist") != std::string::npos ||
        e.name.find("addr") != std::string::npos) {
      bistOrAddr = true;
    }
  }
  EXPECT_TRUE(decoder);
  EXPECT_TRUE(wbuf);
  EXPECT_TRUE(mce);
  EXPECT_TRUE(bistOrAddr);
}

TEST(CoreFlowTest, V2StrictlyReducesUndetectedRate) {
  const auto t1 = flows().flowV1.sheet().totals();
  const auto t2 = flows().flowV2.sheet().totals();
  EXPECT_LT(t2.dangerousUndetected, t1.dangerousUndetected * 0.5);
}

TEST(CoreFlowTest, SensitivityV2Stable) {
  // "The resulting SFF ... was very stable as well, i.e. changes on S,D,F
  //  and fault models didn't change the result in a sensible way."
  const auto res = flows().flowV2.sensitivity();
  EXPECT_GT(res.baselineSff, 0.99);
  EXPECT_LT(res.maxAbsDelta(), 0.02);          // within two points
  EXPECT_GT(res.minSff(), 0.975);              // never collapses
  EXPECT_EQ(res.scenarios.size(), 11u);
}

TEST(CoreFlowTest, SensitivityV1WiderThanV2) {
  const auto r1 = flows().flowV1.sensitivity();
  const auto r2 = flows().flowV2.sensitivity();
  EXPECT_GT(r1.maxAbsDelta(), r2.maxAbsDelta());
}

TEST(CoreFlowTest, EffectsModelSeparatesAlarms) {
  const auto& fx = flows().flowV2.effects();
  EXPECT_GE(fx.alarmPoints().size(), 6u);  // v2's alarm set
  EXPECT_GT(fx.functionalPoints().size(), 30u);
}

TEST(CoreFlowTest, CorrelationFindsSharedCones) {
  const auto pairs = flows().flowV2.correlation().topPairs(5);
  EXPECT_FALSE(pairs.empty());
}

TEST(CoreFlowTest, ReportAndVerdict) {
  std::ostringstream out;
  core::FlowReportOptions opt;
  opt.includeSensitivity = false;  // keep the test fast
  core::writeFlowReport(out, flows().flowV2, opt);
  const auto text = out.str();
  EXPECT_NE(text.find("sensible zones"), std::string::npos);
  EXPECT_NE(text.find("criticality ranking"), std::string::npos);
  EXPECT_NE(core::verdictLine(flows().flowV2).find("SIL3"), std::string::npos);
}

TEST(CoreFlowTest, AblationEachMeasureContributes) {
  // Dropping any single v2 measure must not increase SFF.
  const double full = flows().flowV2.sff();
  const auto drop = [&](auto mutate) {
    ms::GateLevelOptions opt = ms::GateLevelOptions::v2();
    mutate(opt);
    const auto d = ms::buildProtectionIp(opt);
    core::FmeaFlow flow(d.nl, core::makeFrmemFlowConfig(d));
    return flow.sff();
  };
  EXPECT_LE(drop([](auto& o) { o.addressInCode = false; }), full + 1e-9);
  EXPECT_LE(drop([](auto& o) { o.wbufParity = false; }), full + 1e-9);
  EXPECT_LE(drop([](auto& o) { o.redundantChecker = false; }), full + 1e-9);
  EXPECT_LE(drop([](auto& o) { o.monitoredOutputs = false; }), full + 1e-9);
}

TEST(ValidationFlowTest, AllFourStepsPassOnV2) {
  ms::ProtectionIpWorkload::Options wopt;
  wopt.cycles = 2000;
  ms::ProtectionIpWorkload workload(flows().v2, wopt);
  core::ValidationOptions vopt;
  vopt.zoneFailuresPerBit = 1;
  vopt.criticalZones = 8;
  vopt.localFaultsPerZone = 9;
  vopt.wideFaults = 32;
  const socfmea::obs::Registry& reg = socfmea::obs::Registry::global();
  const std::uint64_t goldenRuns = reg.timer("inject.record_golden").count;
  const auto rep = core::runValidationFlow(flows().flowV2, workload, vopt);
  // One golden run for the whole flow: the profile, the toggle pass and the
  // four bit-sliced campaigns read it.
  EXPECT_EQ(reg.timer("inject.record_golden").count - goldenRuns, 1u);

  EXPECT_TRUE(rep.stepAPass) << "zone-failure injection vs FMEA";
  EXPECT_TRUE(rep.stepBPass) << "toggle " << rep.toggle.onceFraction();
  EXPECT_TRUE(rep.stepCPass) << "fault-sim DC " << rep.faultSimCoverage
                             << " vs sheet " << rep.sheetPermanentDdf;
  EXPECT_TRUE(rep.stepDPass);
  EXPECT_TRUE(rep.pass());

  // Step (a) extras: full campaign completeness, consistent effects.
  EXPECT_GE(rep.campaignCompleteness, 0.95);
  EXPECT_TRUE(rep.zoneValidation.effectsConsistent);
  // Step (d): wide faults really produce multiple-zone failures (Figure 2).
  EXPECT_GT(rep.multiZoneFailures, 0u);

  std::ostringstream out;
  core::printValidationFlow(out, rep);
  EXPECT_NE(out.str().find("overall: PASS"), std::string::npos);
}

TEST(ValidationFlowTest, MeasuredSffAgreesWithSheetDirection) {
  // The experimental SFF of the v2 campaign must land clearly above v1's.
  ms::ProtectionIpWorkload::Options wopt;
  wopt.cycles = 1200;
  core::ValidationOptions vopt;
  vopt.zoneFailuresPerBit = 1;

  ms::ProtectionIpWorkload wl2(flows().v2, wopt);
  const auto rep2 = core::runValidationFlow(flows().flowV2, wl2, vopt);
  ms::ProtectionIpWorkload wl1(flows().v1, wopt);
  const auto rep1 = core::runValidationFlow(flows().flowV1, wl1, vopt);

  EXPECT_GT(rep2.zoneCampaign.measuredSff(),
            rep1.zoneCampaign.measuredSff() + 0.05);
}

TEST(SrsTest, DocumentContainsEverySection) {
  core::SrsOptions opt;
  opt.includeSensitivity = false;  // keep the test quick
  const auto doc = core::srsToString(flows().flowV2, opt);
  EXPECT_NE(doc.find("# Safety Requirements Specification"), std::string::npos);
  EXPECT_NE(doc.find("## 1. Item description"), std::string::npos);
  EXPECT_NE(doc.find("## 2. Sensible-zone decomposition"), std::string::npos);
  EXPECT_NE(doc.find("## 3. FMEA"), std::string::npos);
  EXPECT_NE(doc.find("## 4. Safety metrics"), std::string::npos);
  EXPECT_NE(doc.find("Criticality ranking"), std::string::npos);
  EXPECT_NE(doc.find("| SFF |"), std::string::npos);
  EXPECT_NE(doc.find("PFH"), std::string::npos);
  // v2 argues SIL3 successfully.
  EXPECT_NE(doc.find("**SIL3** — **PASS**"), std::string::npos);
}

TEST(SrsTest, V1DocumentFailsTheSil3Target) {
  core::SrsOptions opt;
  opt.includeSensitivity = false;
  const auto doc = core::srsToString(flows().flowV1, opt);
  EXPECT_NE(doc.find("**SIL3** — **FAIL**"), std::string::npos);
}

TEST(SrsTest, ValidationEvidenceSectionIncluded) {
  ms::ProtectionIpWorkload::Options wopt;
  wopt.cycles = 1000;
  ms::ProtectionIpWorkload workload(flows().v2, wopt);
  core::ValidationOptions vopt;
  vopt.zoneFailuresPerBit = 1;
  const auto rep = core::runValidationFlow(flows().flowV2, workload, vopt);
  core::SrsOptions opt;
  opt.includeSensitivity = false;
  const auto doc = core::srsToString(flows().flowV2, opt, &rep);
  EXPECT_NE(doc.find("## 6. Fault-injection validation"), std::string::npos);
  EXPECT_NE(doc.find("Detection latency"), std::string::npos);
}
