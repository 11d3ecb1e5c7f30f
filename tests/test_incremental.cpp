// The incremental flow graph's contracts:
//
//   * determinism — structural hashing, zone extraction and fault
//     enumeration are pure functions of the design, and the text format is
//     a write/parse fixed point (the precondition for content addressing);
//   * the artifact store — round trips, head slots, LRU fallback to disk,
//     corrupt files degrading to a recomputable miss, the side-effect-free
//     --cache-dir probe, and race-free saves from concurrent processes;
//   * the oracle — every Section-6 v1 -> v2 architectural edit, run as a
//     delta on a store warmed with the v1 baseline, must produce campaign
//     records and an SFF bit-identical to a cold run of the edited design;
//   * the testkit fuzz hook — on random generated designs, merging cached
//     verdicts for faults outside the affected cone with re-simulated
//     verdicts inside it equals a full cold run of the mutated design.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/artifact_store.hpp"
#include "core/frmem_config.hpp"
#include "core/incremental.hpp"
#include "fault/serialize.hpp"
#include "faultsim/serial.hpp"
#include "inject/env_builder.hpp"
#include "inject/manager.hpp"
#include "inject/workload.hpp"
#include "memsys/workloads.hpp"
#include "netlist/builder.hpp"
#include "netlist/diff.hpp"
#include "netlist/hash.hpp"
#include "netlist/text_format.hpp"
#include "testkit/netlist_gen.hpp"
#include "testkit/plan.hpp"
#include "zones/serialize.hpp"

namespace core = socfmea::core;
namespace fault = socfmea::fault;
namespace faultsim = socfmea::faultsim;
namespace fs = std::filesystem;
namespace inject = socfmea::inject;
namespace ms = socfmea::memsys;
namespace nlst = socfmea::netlist;
namespace tk = socfmea::testkit;
namespace zones = socfmea::zones;

using socfmea::obs::Json;
using socfmea::sim::Rng;

namespace {

constexpr std::uint64_t kOracleCycles = 600;
constexpr std::size_t kOracleMemFaultsPerKind = 12;

ms::GateLevelOptions editedOptions(const std::string& edit) {
  ms::GateLevelOptions o = ms::GateLevelOptions::v1();
  if (edit == "wbuf-parity") o.wbufParity = true;
  if (edit == "post-coder") o.postCoderChecker = true;
  if (edit == "redundant-checker") o.redundantChecker = true;
  if (edit == "addr-in-code") o.addressInCode = true;
  return o;
}

core::IncrementalOptions oracleOptions(core::ArtifactStore* store) {
  core::IncrementalOptions iopt;
  iopt.store = store;
  iopt.workloadTag = nlst::hashString("test-oracle-workload");
  iopt.memFaultsPerKind = kOracleMemFaultsPerKind;
  return iopt;
}

core::IncrementalCampaign runOracleFlow(
    const ms::GateLevelDesign& d, core::ArtifactStore* store, double* sff,
    const inject::CampaignOptions& copt = {}) {
  core::IncrementalFlow inc(d.nl, core::makeFrmemFlowConfig(d),
                            oracleOptions(store));
  ms::ProtectionIpWorkload::Options wopt;
  wopt.cycles = kOracleCycles;
  ms::ProtectionIpWorkload wl(d, wopt);
  core::IncrementalCampaign camp =
      inc.runZoneFailureCampaign(wl, /*perBit=*/1, /*seed=*/7,
                                 /*detectionWindow=*/24, copt);
  if (sff != nullptr) *sff = inc.flow().sff();
  return camp;
}

void expectSameRecords(const inject::CampaignResult& a,
                       const inject::CampaignResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const inject::InjectionRecord& ra = a.records[i];
    const inject::InjectionRecord& rb = b.records[i];
    ASSERT_EQ(ra.zone, rb.zone) << "record " << i;
    ASSERT_EQ(ra.outcome, rb.outcome) << "record " << i;
    ASSERT_EQ(ra.obs.sens, rb.obs.sens) << "record " << i;
    ASSERT_EQ(ra.obs.sensCycle, rb.obs.sensCycle) << "record " << i;
    ASSERT_EQ(ra.obs.zonesDeviated, rb.obs.zonesDeviated) << "record " << i;
    ASSERT_EQ(ra.obs.obs, rb.obs.obs) << "record " << i;
    ASSERT_EQ(ra.obs.firstObsCycle, rb.obs.firstObsCycle) << "record " << i;
    ASSERT_EQ(ra.obs.obsDeviated, rb.obs.obsDeviated) << "record " << i;
    ASSERT_EQ(ra.obs.diag, rb.obs.diag) << "record " << i;
    ASSERT_EQ(ra.obs.diagCycle, rb.obs.diagCycle) << "record " << i;
  }
}

fs::path freshDir(const std::string& name) {
  const fs::path p = fs::path("test_incremental_work") / name;
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Determinism: the premises of content addressing.

TEST(IncrementalHashTest, IndependentBuildsCollide) {
  const ms::GateLevelDesign a = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const ms::GateLevelDesign b = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  EXPECT_EQ(nlst::hashNetlist(a.nl), nlst::hashNetlist(b.nl));

  const ms::GateLevelDesign e = ms::buildProtectionIp(editedOptions("wbuf-parity"));
  EXPECT_NE(nlst::hashNetlist(a.nl), nlst::hashNetlist(e.nl));
}

TEST(IncrementalHashTest, TextRoundTripIsAFixedPoint) {
  // One parse normalizes anonymous net names; after that, write(parse(.))
  // must be the identity on both the text and the structural hash.
  const ms::GateLevelDesign v1 = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const nlst::Netlist n2 = nlst::readNetlistString(nlst::writeNetlistString(v1.nl));
  const std::string t2 = nlst::writeNetlistString(n2);
  const nlst::Netlist n3 = nlst::readNetlistString(t2);
  EXPECT_EQ(t2, nlst::writeNetlistString(n3));
  EXPECT_EQ(nlst::hashNetlist(n2), nlst::hashNetlist(n3));
  // The round trip is also structurally silent to the diff layer.
  EXPECT_TRUE(nlst::diff(v1.nl, n2).identical());
}

TEST(IncrementalDeterminismTest, ZoneExtractionIsStable) {
  const ms::GateLevelDesign a = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const ms::GateLevelDesign b = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  core::FmeaFlow fa(a.nl, core::makeFrmemFlowConfig(a));
  core::FmeaFlow fb(b.nl, core::makeFrmemFlowConfig(b));
  EXPECT_EQ(fa.designHash(), fb.designHash());
  EXPECT_EQ(fa.zonesKey(), fb.zonesKey());
  // Full id-level artifact equality, not just zone counts: two independent
  // extractions must produce byte-identical serialized databases.
  EXPECT_EQ(zones::zonesToJson(fa.zones()).dump(),
            zones::zonesToJson(fb.zones()).dump());
}

TEST(IncrementalDeterminismTest, FaultEnumerationIsStable) {
  // Two independent builds + extractions + profile recordings must
  // enumerate the exact same fault-key sequence (the campaign cache is
  // keyed by it).
  std::vector<std::string> keys[2];
  for (std::vector<std::string>& out : keys) {
    const ms::GateLevelDesign d = ms::buildProtectionIp(ms::GateLevelOptions::v1());
    core::FmeaFlow flow(d.nl, core::makeFrmemFlowConfig(d));
    const inject::InjectionEnvironment env =
        inject::EnvironmentBuilder(flow.zones(), flow.effects())
            .withSeed(7)
            .withDetectionWindow(24)
            .build();
    inject::InjectionManager mgr(env);
    ms::ProtectionIpWorkload::Options wopt;
    wopt.cycles = 300;
    ms::ProtectionIpWorkload wl(d, wopt);
    const inject::OperationalProfile profile =
        inject::OperationalProfile::record(flow.zones(), wl);
    const fault::FaultList faults = mgr.zoneFailureFaults(profile, 1, 7);
    out.reserve(faults.size());
    for (const fault::Fault& f : faults) {
      out.push_back(fault::faultKey(d.nl, f));
    }
  }
  ASSERT_FALSE(keys[0].empty());
  EXPECT_EQ(keys[0], keys[1]);
}

// ---------------------------------------------------------------------------
// Artifact store semantics.

TEST(ArtifactStoreTest, RoundTripAndMiss) {
  core::ArtifactStore store(freshDir("roundtrip"));
  Json a = Json::object();
  a["answer"] = Json(42.0);
  store.save("stage", 0xABCDu, a);
  const auto hit = store.load("stage", 0xABCDu);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->dump(), a.dump());
  EXPECT_FALSE(store.load("stage", 0xABCEu).has_value());
  EXPECT_FALSE(store.load("other", 0xABCDu).has_value());
}

TEST(ArtifactStoreTest, HeadSlotIsMutable) {
  core::ArtifactStore store(freshDir("head"));
  EXPECT_FALSE(store.loadHead("flow").has_value());
  Json h1 = Json::object();
  h1["design_hash"] = Json("aaaa");
  store.saveHead("flow", h1);
  Json h2 = Json::object();
  h2["design_hash"] = Json("bbbb");
  store.saveHead("flow", h2);
  const auto head = store.loadHead("flow");
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->dump(), h2.dump());
}

TEST(ArtifactStoreTest, CorruptArtifactIsAMiss) {
  const fs::path dir = freshDir("corrupt");
  {
    core::ArtifactStore store(dir);
    Json a = Json::object();
    a["x"] = Json(1.0);
    store.save("stage", 0x1234u, a);
  }
  // Truncate the file behind the store's back; a fresh store (empty LRU)
  // must treat the unparsable artifact as a miss, not an error.
  const fs::path file = dir / ("stage-" + nlst::hashHex(0x1234u) + ".json");
  ASSERT_TRUE(fs::exists(file));
  std::ofstream(file) << "{ not json";
  core::ArtifactStore reopened(dir);
  EXPECT_FALSE(reopened.load("stage", 0x1234u).has_value());
}

TEST(ArtifactStoreTest, LruEvictionFallsBackToDisk) {
  core::ArtifactStore store(freshDir("lru"), /*lruCapacity=*/2);
  for (std::uint64_t k = 0; k < 3; ++k) {
    Json a = Json::object();
    a["k"] = Json(static_cast<double>(k));
    store.save("s", k, a);
  }
  // Key 0 was evicted from the two-entry LRU by keys 1 and 2; loading it
  // must fall back to the disk file, not miss.
  const auto hit = store.load("s", 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->find("k")->asDouble(), 0.0);
  EXPECT_GE(store.stats().diskHits, 1u);
  const auto again = store.load("s", 0);
  ASSERT_TRUE(again.has_value());
  EXPECT_GE(store.stats().memoryHits, 1u);
}

TEST(ArtifactStoreTest, ValidateDirDiagnosesWithoutSideEffects) {
  const fs::path ok = freshDir("validate");
  EXPECT_FALSE(core::ArtifactStore::validateDir(ok).has_value());
  EXPECT_TRUE(fs::is_empty(ok)) << "the probe must clean up after itself";

  const auto missingParent =
      core::ArtifactStore::validateDir("/no-such-parent-anywhere/store");
  ASSERT_TRUE(missingParent.has_value());
  EXPECT_NE(missingParent->find("parent"), std::string::npos);
  EXPECT_FALSE(fs::exists("/no-such-parent-anywhere"));

  const fs::path file = ok / "occupied";
  std::ofstream(file) << "not a directory";
  EXPECT_TRUE(core::ArtifactStore::validateDir(file).has_value())
      << "a regular file cannot serve as a store";
  EXPECT_TRUE(core::ArtifactStore::validateDir(file / "child").has_value())
      << "a regular file cannot be a store parent";
}

TEST(ArtifactStoreTest, TwoProcessesSavingTheSameKeyRaceFree) {
  // CI jobs and the flow / arch_search CLIs may share one store directory,
  // so saves must be atomic across processes: parent and child hammer the
  // same stage/key concurrently, and the tmp-file + rename discipline must
  // leave a complete, parseable artifact however the renames interleave.
  const fs::path dir = freshDir("race");
  Json artifact = Json::object();
  artifact["payload"] = "identical-in-both-processes";

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    core::ArtifactStore child(dir);
    for (int i = 0; i < 50; ++i) child.save("race-stage", 0xC0FFEE, artifact);
    std::_Exit(0);
  }
  {
    core::ArtifactStore parent(dir);
    for (int i = 0; i < 50; ++i) parent.save("race-stage", 0xC0FFEE, artifact);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  core::ArtifactStore fresh(dir);  // fresh LRU: forces the disk read
  const auto loaded = fresh.load("race-stage", 0xC0FFEE);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->dump(0), artifact.dump(0));
  for (const auto& e : fs::directory_iterator(dir)) {
    EXPECT_EQ(e.path().extension(), ".json")
        << "no tmp files may survive: " << e.path();
  }
}

// ---------------------------------------------------------------------------
// Serialization round trips backing the campaign artifact.

TEST(IncrementalSerializeTest, FaultRoundTripPreservesTheKey) {
  Rng rng(11);
  tk::GeneratorOptions gopt;
  gopt.memories = 1;
  const nlst::Netlist nl = tk::generateNetlist(gopt, rng);
  tk::PlanOptions popt;
  popt.memFaults = 3;
  const tk::TestPlan plan = tk::generatePlan(nl, popt, rng);
  ASSERT_FALSE(plan.faults.empty());
  for (const fault::Fault& f : plan.faults) {
    const auto back = fault::faultFromJson(nl, fault::faultToJson(nl, f));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(fault::faultKey(nl, f), fault::faultKey(nl, *back));
  }
}

namespace {

// A multi-bit SEU names its flip-flop group by cell; the serialized form and
// the fault key must carry the whole group.
nlst::Netlist multiSeuTestbed() {
  nlst::Netlist n("tb");
  nlst::Builder b(n);
  const nlst::NetId rst = b.input("rst");
  const nlst::Bus din = b.inputBus("din", 4);
  const nlst::Bus dregQ = b.registerBus("dreg", din, nlst::kNoNet, rst, 0);
  const nlst::NetId pQ =
      b.dff("preg", b.reduceXor(din), nlst::kNoNet, rst, false);
  b.output("alarm_chk", b.bxor(pQ, b.reduceXor(dregQ)));
  b.outputBus("dout", dregQ);
  (void)b.dff("spare", din[0], nlst::kNoNet, rst, false);
  n.check();
  return n;
}

}  // namespace

TEST(IncrementalSerializeTest, MultiSeuJsonRoundTripPreservesTheFault) {
  const nlst::Netlist n = multiSeuTestbed();
  fault::Fault f;
  f.kind = fault::FaultKind::MultiSeu;
  f.cells = {*n.findCell("preg"), *n.findCell("spare")};
  std::sort(f.cells.begin(), f.cells.end());
  f.cycle = 7;
  const auto back = fault::faultFromJson(n, fault::faultToJson(n, f));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(f == *back);
  EXPECT_EQ(fault::faultKey(n, f), fault::faultKey(n, *back));
}

TEST(IncrementalSerializeTest, MultiSeuKeyIsStableAcrossReparseRenumbering) {
  // The text format may renumber ids on the first round trip; the key is
  // name-based, so rebinding the fault on the reparsed design must yield
  // the identical provenance key.
  const nlst::Netlist n = multiSeuTestbed();
  fault::Fault f;
  f.kind = fault::FaultKind::MultiSeu;
  f.cells = {*n.findCell("dreg_0"), *n.findCell("preg")};
  std::sort(f.cells.begin(), f.cells.end());
  f.cycle = 4;
  const std::string key = fault::faultKey(n, f);

  const nlst::Netlist re =
      nlst::readNetlistString(nlst::writeNetlistString(n));
  const auto rebound = fault::faultFromJson(re, fault::faultToJson(n, f));
  ASSERT_TRUE(rebound.has_value());
  EXPECT_EQ(fault::faultKey(re, *rebound), key);
}

TEST(IncrementalSerializeTest, ZoneDatabaseRoundTrip) {
  const ms::GateLevelDesign v1 = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  core::FmeaFlow flow(v1.nl, core::makeFrmemFlowConfig(v1));
  const Json j = zones::zonesToJson(flow.zones());
  const auto back = zones::zonesFromJson(flow.zones().compiledShared(), j);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(zones::zonesToJson(*back).dump(), j.dump());
}

// ---------------------------------------------------------------------------
// Diff + affected cone.

TEST(NetlistDiffTest, InsertionStableNamingKeepsEditsLocal) {
  // A v2 measure only ADDS logic; with per-scope anonymous-name counters
  // the diff must not see unrelated cells as renamed (removed + added).
  const ms::GateLevelDesign a = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const ms::GateLevelDesign b = ms::buildProtectionIp(editedOptions("wbuf-parity"));
  EXPECT_TRUE(nlst::diff(a.nl, a.nl).identical());
  const nlst::NetlistDiff d = nlst::diff(a.nl, b.nl);
  EXPECT_FALSE(d.identical());
  EXPECT_GT(d.addedCells.size(), 0u);
  EXPECT_EQ(d.removedCells.size(), 0u);
  EXPECT_EQ(d.changedCells.size(), 0u);
  const nlst::CompiledDesignPtr cd = nlst::compile(b.nl);
  const nlst::AffectedCone cone = nlst::affectedCone(*cd, d);
  EXPECT_GT(cone.affectedCells, 0u);
  EXPECT_LT(cone.affectedCells, b.nl.cellCount());
}

TEST(NetlistDiffTest, ConeCoversTapFaninOnly) {
  Rng rng(5);
  tk::GeneratorOptions gopt;
  gopt.gates = 30;
  const nlst::Netlist a = tk::generateNetlist(gopt, rng);
  nlst::Netlist b = nlst::readNetlistString(nlst::writeNetlistString(a));
  // Observe two primary inputs through a new AND gate: the only affected
  // sites are the tap itself and the fan-in of its input nets.
  const nlst::NetId i0 = *b.findNet("in0");
  const nlst::NetId i1 = *b.findNet("in1");
  const nlst::NetId tap = b.addNet("tap_net");
  const nlst::CellId tapCell =
      b.addCell(nlst::CellType::And, "tap_cell", {i0, i1}, tap);
  b.addOutput("tap_out", tap);

  const nlst::NetlistDiff d = nlst::diff(a, b);
  ASSERT_EQ(d.addedCells.size(), 2u);  // the AND and the output port
  EXPECT_TRUE(d.removedCells.empty());
  EXPECT_TRUE(d.changedCells.empty());

  const nlst::CompiledDesignPtr cd = nlst::compile(b);
  const nlst::AffectedCone cone = nlst::affectedCone(*cd, d);
  EXPECT_TRUE(cone.cellAffected(tapCell));
  EXPECT_LT(cone.affectedCells, b.cellCount());
}

// ---------------------------------------------------------------------------
// The incremental-vs-cold oracle over the Section-6 architectural edits.

TEST(IncrementalOracleTest, EveryV2EditMatchesTheColdRun) {
  // Warm a store with the v1 baseline once...
  const ms::GateLevelDesign v1 = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const fs::path baseDir = freshDir("oracle_base");
  {
    core::ArtifactStore base(baseDir);
    const core::IncrementalCampaign warm = runOracleFlow(v1, &base, nullptr);
    EXPECT_FALSE(warm.fullHit);
    EXPECT_FALSE(warm.deltaRun);
  }

  const char* edits[] = {"wbuf-parity", "post-coder", "redundant-checker",
                         "addr-in-code"};
  for (const char* edit : edits) {
    SCOPED_TRACE(edit);
    const ms::GateLevelDesign dut = ms::buildProtectionIp(editedOptions(edit));

    // ...then apply each edit as a delta on its own copy of the warm store.
    const fs::path dir = freshDir(std::string("oracle_") + edit);
    fs::remove_all(dir);
    fs::copy(baseDir, dir, fs::copy_options::recursive);
    core::ArtifactStore store(dir);
    double warmSff = 0.0;
    const core::IncrementalCampaign warm = runOracleFlow(dut, &store, &warmSff);
    EXPECT_TRUE(warm.deltaRun);
    EXPECT_FALSE(warm.fullHit);
    EXPECT_GT(warm.delta.reused, 0u);
    EXPECT_LT(warm.delta.simulated, warm.delta.total);

    double coldSff = 0.0;
    const core::IncrementalCampaign cold = runOracleFlow(dut, nullptr, &coldSff);
    expectSameRecords(cold.result, warm.result);
    EXPECT_EQ(coldSff, warmSff);
  }
}

TEST(IncrementalOracleTest, SecondIdenticalRunIsAFullStoreHit) {
  const ms::GateLevelDesign v1 = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  core::ArtifactStore store(freshDir("fullhit"));
  double sffA = 0.0;
  const core::IncrementalCampaign first = runOracleFlow(v1, &store, &sffA);
  EXPECT_FALSE(first.fullHit);
  double sffB = 0.0;
  const core::IncrementalCampaign second = runOracleFlow(v1, &store, &sffB);
  EXPECT_TRUE(second.fullHit);
  EXPECT_EQ(second.delta.reused, second.delta.total);
  EXPECT_EQ(second.delta.simulated, 0u);
  expectSameRecords(first.result, second.result);
  EXPECT_EQ(sffA, sffB);
}

TEST(IncrementalOracleTest, LatentMultiSeuGroupsSplitTheCampaignKey) {
  // Two latent multi-bit upsets that differ only in their flip-flop group:
  // the second run over the same store must simulate its own campaign, not
  // reuse the first one's records.
  const ms::GateLevelDesign v1 = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const auto latentOn = [&](const char* a, const char* b) {
    fault::Fault f;
    f.kind = fault::FaultKind::MultiSeu;
    for (const char* name : {a, b}) {
      const auto cell = v1.nl.findCell(name);
      EXPECT_TRUE(cell.has_value()) << name;
      if (cell) f.cells.push_back(*cell);
    }
    std::sort(f.cells.begin(), f.cells.end());
    f.cycle = 50;
    inject::CampaignOptions copt;
    copt.preexisting = f;
    return copt;
  };
  const inject::CampaignOptions first =
      latentOn("bist/phase_0", "bist/phase_1");
  const inject::CampaignOptions second =
      latentOn("ctrl/rd_addr_1", "ctrl/rd_addr_2");

  core::ArtifactStore store(freshDir("latent_multiseu"));
  (void)runOracleFlow(v1, &store, nullptr, first);
  const core::IncrementalCampaign warm =
      runOracleFlow(v1, &store, nullptr, second);
  EXPECT_FALSE(warm.fullHit);
  const core::IncrementalCampaign cold =
      runOracleFlow(v1, nullptr, nullptr, second);
  expectSameRecords(cold.result, warm.result);
}

// ---------------------------------------------------------------------------
// Testkit fuzz hook: cone-based verdict reuse on random mutated designs.

TEST(IncrementalFuzzTest, ConeMergedVerdictsEqualColdRun) {
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    tk::GeneratorOptions gopt;
    gopt.gates = 28;
    gopt.flipFlops = 4;
    const nlst::Netlist a = tk::generateNetlist(gopt, rng);
    tk::PlanOptions popt;
    popt.cycles = 24;
    popt.stuckAt = 8;
    popt.transients = 4;
    const tk::TestPlan planA = tk::generatePlan(a, popt, rng);
    ASSERT_FALSE(planA.faults.empty());

    // The mutant: a text round trip (structurally silent) plus one random
    // tap observing two existing nets through a fresh XOR gate.
    nlst::Netlist b = nlst::readNetlistString(nlst::writeNetlistString(a));
    std::vector<nlst::NetId> taps;
    const auto nets = static_cast<nlst::NetId>(b.netCount());
    for (nlst::NetId n = 0; n < nets && taps.size() < 2; ++n) {
      if (rng.below(4) == 0) taps.push_back(n);
    }
    while (taps.size() < 2) taps.push_back(*b.findNet("in0"));
    const nlst::NetId tap = b.addNet("fuzz_tap");
    b.addCell(nlst::CellType::Xor, "fuzz_tap_cell", taps, tap);
    b.addOutput("fuzz_tap_out", tap);
    const tk::TestPlan planB = tk::rebindPlan(a, b, planA);

    // Cold truth on both designs.
    const nlst::CompiledDesignPtr cd = nlst::compile(b);
    inject::VectorWorkload wlA(planA.name, planA.inputs, planA.stimulus);
    const faultsim::FaultSimResult onA =
        faultsim::runSerialFaultSim(nlst::compile(a), wlA, planA.faults);
    inject::VectorWorkload wlB(planB.name, planB.inputs, planB.stimulus);
    const faultsim::FaultSimResult onB =
        faultsim::runSerialFaultSim(cd, wlB, planB.faults);
    ASSERT_EQ(onA.outcomes.size(), onB.outcomes.size());

    // The delta-reuse rule: faults outside the affected cone of diff(a, b)
    // keep their design-A verdict; merging must reproduce the cold B run.
    const nlst::NetlistDiff d = nlst::diff(a, b);
    ASSERT_FALSE(d.identical());
    const nlst::AffectedCone cone = nlst::affectedCone(*cd, d);
    std::size_t reused = 0;
    for (std::size_t i = 0; i < planB.faults.size(); ++i) {
      if (nlst::faultAffected(cone, *cd, planB.faults[i])) continue;
      ++reused;
      EXPECT_EQ(onA.outcomes[i], onB.outcomes[i]) << "fault " << i;
    }
    EXPECT_GT(reused, 0u);
  }
}
