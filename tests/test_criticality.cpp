// Criticality attribution + transform-library suites:
//   * Count-weighting invariant: per-site and per-zone dangerous-undetected
//     contributions sum to the campaign tally's DU total — under the serial
//     reference engine and the bit-sliced engine (identical attribution);
//   * a testkit fuzz hook: the invariant holds on seeded random designs;
//   * transform soundness: every netlist transform is a pure addition
//     (netlist::diff reports added items only), policy transforms edit
//     nothing, specs survive the wire round-trip, applyTransforms uses the
//     canonical scopes a worker process reproduces.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "inject/manager.hpp"
#include "inject/profile.hpp"
#include "inject/workload.hpp"
#include "memsys/gatelevel.hpp"
#include "netlist/diff.hpp"
#include "netlist/hash.hpp"
#include "search/criticality.hpp"
#include "search/transforms.hpp"
#include "testkit/netlist_gen.hpp"
#include "testkit/seed.hpp"
#include "zones/extract.hpp"

namespace nl = socfmea::netlist;
namespace ft = socfmea::fault;
namespace fs = socfmea::faultsim;
namespace ij = socfmea::inject;
namespace zn = socfmea::zones;
namespace ms = socfmea::memsys;
namespace sr = socfmea::search;
namespace tk = socfmea::testkit;
namespace sm = socfmea::sim;

namespace {

/// Protected-register testbed with a known-blind spot: the payload register
/// is parity-checked (faults mostly detected), the spare register drives an
/// output with no checker (faults dangerous undetected).
struct Testbed {
  nl::Netlist n{"crit_tb"};
  nl::NetId rst;
  zn::ZoneDatabase db;
  zn::EffectsModel fx;

  Testbed() : db(build()), fx(db, {"alarm_"}) {}

  zn::ZoneDatabase build() {
    nl::Builder b(n);
    rst = b.input("rst");
    const auto din = b.inputBus("din", 4);
    const auto dregQ = b.registerBus("dreg", din, nl::kNoNet, rst, 0);
    const auto pQ = b.dff("preg", b.reduceXor(din), nl::kNoNet, rst, false);
    b.output("alarm_chk", b.bxor(pQ, b.reduceXor(dregQ)));
    b.outputBus("dout", dregQ);
    const auto bareQ =
        b.registerBus("bare", b.xorBus(din, dregQ), nl::kNoNet, rst, 0);
    b.outputBus("bout", bareQ);
    n.check();
    return zn::extractZones(n);
  }

  [[nodiscard]] ij::InjectionEnvironment env() const {
    return ij::EnvironmentBuilder(db, fx)
        .withDetectionWindow(4)
        .build();
  }
};

/// The invariant every weighting must satisfy: site and zone DU counts sum
/// to the tally's DU total, and shares sum to 1 whenever DU > 0.
void expectCountInvariant(const sr::CriticalityMap& crit,
                          const ij::CampaignResult& result) {
  const auto tally = result.tally();
  const std::size_t du = tally.count(ij::Outcome::DangerousUndetected);
  std::size_t siteDu = 0;
  double siteShare = 0.0;
  for (const sr::SiteCriticality& s : crit.sites()) {
    siteDu += s.dangerousUndetected;
    siteShare += s.duShare;
  }
  std::size_t zoneDu = 0;
  for (const sr::ZoneCriticality& z : crit.zones()) {
    zoneDu += z.outcomes[static_cast<std::size_t>(
        ij::Outcome::DangerousUndetected)];
  }
  EXPECT_EQ(crit.totalDu(), du);
  EXPECT_EQ(siteDu, du);
  EXPECT_EQ(zoneDu, du);
  if (du > 0) {
    EXPECT_NEAR(siteShare, 1.0, 1e-9);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// count-weighting invariant: serial / bitsliced
// ---------------------------------------------------------------------------

TEST(Criticality, SiteAndZoneDuSumToTallyAcrossEngines) {
  Testbed tb;
  ft::FaultList faults = ft::allSeuFaults(tb.n);
  ft::append(faults, ft::allStuckAtFaults(tb.n));

  ij::InjectionManager mgr(tb.env());
  ij::CampaignOptions serialOpt;
  serialOpt.engine = fs::EngineKind::Serial;
  const ij::RandomWorkload stim(tb.n, 64, 5, {{tb.rst, false}});
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  const ij::CampaignResult serial = mgr.run(golden, faults, nullptr, serialOpt);
  ASSERT_GT(serial.tally().count(ij::Outcome::DangerousUndetected), 0u);

  const auto critSerial =
      sr::CriticalityMap::fromCampaign(tb.n, tb.db, serial);
  expectCountInvariant(critSerial, serial);

  // Bit-sliced engine: records are bit-identical, so the attribution is too.
  ij::CampaignOptions slicedOpt;
  slicedOpt.engine = fs::EngineKind::Bitsliced;
  const ij::CampaignResult sliced = mgr.run(golden, faults, nullptr, slicedOpt);
  const auto critSliced =
      sr::CriticalityMap::fromCampaign(tb.n, tb.db, sliced);
  expectCountInvariant(critSliced, sliced);
  ASSERT_EQ(critSerial.sites().size(), critSliced.sites().size());
  for (std::size_t i = 0; i < critSerial.sites().size(); ++i) {
    EXPECT_EQ(critSerial.sites()[i].site, critSliced.sites()[i].site);
    EXPECT_EQ(critSerial.sites()[i].dangerousUndetected,
              critSliced.sites()[i].dangerousUndetected);
  }
}

TEST(Criticality, UncheckedRegisterRanksAboveParityProtectedOne) {
  Testbed tb;
  ij::InjectionManager mgr(tb.env());
  const ij::RandomWorkload stim(tb.n, 64, 5, {{tb.rst, false}});
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  const auto profile = ij::OperationalProfile::record(tb.db, golden);
  const ft::FaultList faults = mgr.zoneFailureFaults(profile, 2, 7);
  const ij::CampaignResult result = mgr.run(golden, faults);
  const auto crit = sr::CriticalityMap::fromCampaign(tb.n, tb.db, result);

  double bareShare = 0.0;
  double dregShare = 0.0;
  for (const sr::ZoneCriticality& z : crit.zones()) {
    if (z.name.find("bare") != std::string::npos) bareShare += z.duShare;
    if (z.name.find("dreg") != std::string::npos) dregShare += z.duShare;
  }
  // The parity-checked payload register converts most faults to detected;
  // the bare register has no checker, so it dominates the DU ranking.
  EXPECT_GT(bareShare, dregShare);
}

// ---------------------------------------------------------------------------
// testkit fuzz hook: the invariant on seeded random designs
// ---------------------------------------------------------------------------

class CriticalityFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CriticalityFuzz, CountInvariantOnRandomDesign) {
  SCOPED_TRACE(tk::seedMessage(GetParam()));
  sm::Rng rng(GetParam());
  const tk::GeneratorOptions gopt = tk::randomOptions(rng);
  const nl::Netlist n = tk::generateNetlist(gopt, rng);
  const zn::ZoneDatabase db = zn::extractZones(n);
  if (db.size() == 0) GTEST_SKIP() << "no sensible zones generated";
  const zn::EffectsModel fx(db, {});
  const auto env = ij::EnvironmentBuilder(db, fx)
                       .withDetectionWindow(4)
                       .build();
  ij::InjectionManager mgr(env);
  const ij::RandomWorkload stim(n, 48, GetParam() ^ 0x9E3779B9u, {});
  const fs::GoldenRun golden(db.compiledShared(), stim);
  ft::FaultList faults = ft::allSeuFaults(n);
  const ij::CampaignResult result = mgr.run(golden, faults);
  expectCountInvariant(
      sr::CriticalityMap::fromCampaign(n, db, result), result);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CriticalityFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// ---------------------------------------------------------------------------
// transform soundness: pure additions, canonical scopes, wire round-trip
// ---------------------------------------------------------------------------

namespace {

sr::TransformSpec spec(sr::TransformKind k, std::string target) {
  sr::TransformSpec s;
  s.kind = k;
  s.target = std::move(target);
  return s;
}

}  // namespace

TEST(Transforms, EveryKindIsAPureAddition) {
  const ms::GateLevelDesign base =
      ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const auto banks = sr::enumerateBanks(base.nl);
  ASSERT_FALSE(banks.empty());
  const std::string bank = banks.front().prefix;

  const std::vector<sr::TransformSpec> specs = {
      spec(sr::TransformKind::ParityPredict, bank),
      spec(sr::TransformKind::DuplicateCompare, bank),
      spec(sr::TransformKind::MemSignature, "mem/array"),
      spec(sr::TransformKind::StartupTests, ""),
      spec(sr::TransformKind::ScrubRate, "mem/array"),
  };
  for (const sr::TransformSpec& s : specs) {
    SCOPED_TRACE(s.id());
    nl::Netlist edited = base.nl;
    const auto applied = sr::applyTransform(edited, s, "srch0");
    ASSERT_TRUE(applied.has_value());
    EXPECT_NO_THROW(edited.check());

    const nl::NetlistDiff d = nl::diff(base.nl, edited);
    EXPECT_TRUE(d.removedCells.empty());
    EXPECT_TRUE(d.changedCells.empty());
    EXPECT_TRUE(d.removedMems.empty());
    EXPECT_TRUE(d.changedMems.empty());
    const bool policy = s.kind == sr::TransformKind::StartupTests ||
                        s.kind == sr::TransformKind::ScrubRate;
    if (policy) {
      // Policy transforms edit nothing: the claims are the whole effect.
      EXPECT_TRUE(d.identical());
      EXPECT_EQ(applied->gateCost, 0u);
      EXPECT_TRUE(applied->alarmNames.empty());
    } else {
      EXPECT_FALSE(d.addedCells.empty());
      EXPECT_GT(applied->gateCost, 0u);
      ASSERT_FALSE(applied->alarmNames.empty());
      EXPECT_EQ(applied->alarmNames.front(), "srch0/alarm");
    }
    EXPECT_FALSE(applied->claims.empty());
  }
}

TEST(Transforms, ApplyTransformsUsesCanonicalScopes) {
  const ms::GateLevelDesign base =
      ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const auto banks = sr::enumerateBanks(base.nl);
  ASSERT_GE(banks.size(), 2u);

  const std::vector<sr::TransformSpec> specs = {
      spec(sr::TransformKind::ParityPredict, banks[0].prefix),
      spec(sr::TransformKind::DuplicateCompare, banks[1].prefix),
  };
  nl::Netlist a = base.nl;
  const auto appliedA = sr::applyTransforms(a, specs);
  ASSERT_TRUE(appliedA.has_value());
  ASSERT_EQ(appliedA->size(), 2u);
  EXPECT_EQ((*appliedA)[0].alarmNames.front(), "srch0/alarm");
  EXPECT_EQ((*appliedA)[1].alarmNames.front(), "srch1/alarm");

  // A second application (the final cold re-run rebuilding the candidate
  // from its spec list) must produce the hash-identical netlist.
  nl::Netlist b = base.nl;
  ASSERT_TRUE(sr::applyTransforms(b, specs).has_value());
  EXPECT_EQ(nl::hashNetlist(a), nl::hashNetlist(b));
}

TEST(Transforms, UnknownTargetsAreRejected) {
  const ms::GateLevelDesign base =
      ms::buildProtectionIp(ms::GateLevelOptions::v1());
  nl::Netlist edited = base.nl;
  EXPECT_FALSE(
      sr::applyTransform(
          edited, spec(sr::TransformKind::ParityPredict, "no/such_bank"),
          "srch0")
          .has_value());
  EXPECT_FALSE(
      sr::applyTransform(
          edited, spec(sr::TransformKind::MemSignature, "no/such_mem"),
          "srch0")
          .has_value());
}
