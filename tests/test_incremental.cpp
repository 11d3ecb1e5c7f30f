// The incremental flow's contracts:
//
//   * determinism — structural hashing, zone extraction and fault
//     enumeration are pure functions of the design, and the text format is
//     a write/parse fixed point (the precondition for content addressing);
//   * the artifact store — round trips, head slots, LRU fallback to disk,
//     corrupt files degrading to a recomputable miss, the side-effect-free
//     --cache-dir probe, and race-free saves from concurrent processes;
//   * the oracle — every Section-6 v1 -> v2 architectural edit, run as a
//     delta on a store warmed with the v1 baseline and without the
//     revalidation sample, must produce campaign records and an SFF
//     bit-identical to a cold run of the edited design; so must a campaign
//     with a latent fault, which is keyed by name;
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
#include <iterator>
#include <string>
#include <vector>

#include "core/artifact_store.hpp"
#include "core/frmem_config.hpp"
#include "core/incremental.hpp"
#include "fault/serialize.hpp"
#include "faultsim/serial.hpp"
#include "inject/env_builder.hpp"
#include "inject/manager.hpp"
#include "memsys/workloads.hpp"
#include "netlist/builder.hpp"
#include "netlist/diff.hpp"
#include "netlist/hash.hpp"
#include "netlist/text_format.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "testkit/netlist_gen.hpp"
#include "testkit/oracle.hpp"
#include "testkit/plan.hpp"
#include "testkit/seed.hpp"

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
  // No revalidation sample: a sampled mismatch re-simulates every reused
  // fault, which would hide a cone that reuses a stale record.
  iopt.revalidateFraction = 0.0;
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

/// Campaign options carrying a latent fault of `kind` on flip-flop `ff`.
inject::CampaignOptions latentOn(const ms::GateLevelDesign& d,
                                 fault::FaultKind kind, const char* ff,
                                 std::uint64_t cycle = 0) {
  fault::Fault f;
  f.kind = kind;
  const auto cell = d.nl.findCell(ff);
  EXPECT_TRUE(cell.has_value()) << ff;
  if (cell) {
    f.cell = *cell;
    f.net = d.nl.cell(*cell).output;
  }
  f.cycle = cycle;
  inject::CampaignOptions copt;
  copt.preexisting = f;
  return copt;
}

fs::path freshDir(const std::string& name) {
  const fs::path p = fs::path("test_incremental_work") / name;
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

std::string readText(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// The store's campaign artifacts, by path.
std::vector<fs::path> campaignFiles(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().starts_with("campaign-")) {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// The key a campaign artifact is filed under ("campaign-<hex16>.json").
std::uint64_t campaignKeyOf(const fs::path& file) {
  const std::string stem = file.stem().string();
  return std::stoull(stem.substr(stem.find('-') + 1), nullptr, 16);
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
  // Two independent builds and extractions must agree id by id, not just in
  // zone counts: the fault list, and with it the campaign key, is
  // enumerated over these zones.
  const ms::GateLevelDesign a = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const ms::GateLevelDesign b = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const core::FmeaFlow fa(a.nl, core::makeFrmemFlowConfig(a));
  const core::FmeaFlow fb(b.nl, core::makeFrmemFlowConfig(b));
  const std::vector<zones::SensibleZone>& za = fa.zones().zones();
  const std::vector<zones::SensibleZone>& zb = fb.zones().zones();
  ASSERT_FALSE(za.empty());
  ASSERT_EQ(za.size(), zb.size());
  for (std::size_t i = 0; i < za.size(); ++i) {
    SCOPED_TRACE(za[i].name);
    EXPECT_EQ(za[i].id, zb[i].id);
    EXPECT_EQ(za[i].name, zb[i].name);
    EXPECT_EQ(za[i].kind, zb[i].kind);
    EXPECT_EQ(za[i].ffs, zb[i].ffs);
    EXPECT_EQ(za[i].valueNets, zb[i].valueNets);
    EXPECT_EQ(za[i].coneRoots, zb[i].coneRoots);
    EXPECT_EQ(za[i].cone.gates, zb[i].cone.gates);
    EXPECT_EQ(za[i].cone.supportFfs, zb[i].cone.supportFfs);
    EXPECT_EQ(za[i].cone.supportPis, zb[i].cone.supportPis);
    EXPECT_EQ(za[i].cone.supportMems, zb[i].cone.supportMems);
    EXPECT_EQ(za[i].cone.nets, zb[i].cone.nets);
    EXPECT_EQ(za[i].mem, zb[i].mem);
  }
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
            .withDetectionWindow(24)
            .build();
    inject::InjectionManager mgr(env);
    ms::ProtectionIpWorkload::Options wopt;
    wopt.cycles = 300;
    const ms::ProtectionIpWorkload stim(d, wopt);
    const inject::OperationalProfile profile =
        inject::OperationalProfile::record(
            flow.zones(),
            faultsim::GoldenRun(flow.zones().compiledShared(), stim));
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
  // Truncate the file behind the store's back, or nest it far deeper than
  // the parser accepts; a fresh store (empty LRU) must treat the unparsable
  // artifact as a miss, not an error.
  const fs::path file = dir / ("stage-" + nlst::hashHex(0x1234u) + ".json");
  ASSERT_TRUE(fs::exists(file));
  for (const std::string& corrupt :
       {std::string("{ not json"),
        std::string(200000, '[') + std::string(200000, ']')}) {
    std::ofstream(file) << corrupt;
    core::ArtifactStore reopened(dir);
    EXPECT_FALSE(reopened.load("stage", 0x1234u).has_value());
    EXPECT_EQ(reopened.stats().misses, 1u);
    EXPECT_EQ(reopened.stats().rejected, 1u);
  }
}

// A file that still parses but whose body no longer matches the hash saved
// with it is refused like an unparsable one, heads included; so is a file
// without a hash (the layout of stores written before the hash).
TEST(ArtifactStoreTest, AlteredFileIsRejected) {
  const fs::path dir = freshDir("altered_file");
  Json a = Json::object();
  a["answer"] = Json(42);
  {
    core::ArtifactStore store(dir);
    store.save("stage", 0x1234u, a);
    store.saveHead("flow", a);
  }
  const auto alter = [](const fs::path& file) {
    std::string text = readText(file);
    const std::string was = "\"answer\": 42";
    const std::size_t at = text.find(was);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, was.size(), "\"answer\": 43");
    std::ofstream(file, std::ios::trunc) << text;
  };
  alter(dir / ("stage-" + nlst::hashHex(0x1234u) + ".json"));
  alter(dir / "head-flow.json");
  {
    core::ArtifactStore store(dir);
    EXPECT_FALSE(store.load("stage", 0x1234u).has_value());
    EXPECT_FALSE(store.loadHead("flow").has_value());
    EXPECT_EQ(store.stats().misses, 2u);
    EXPECT_EQ(store.stats().rejected, 2u);
  }
  std::ofstream(dir / "head-flow.json", std::ios::trunc) << a.dump(2);
  core::ArtifactStore store(dir);
  EXPECT_FALSE(store.loadHead("flow").has_value());
  EXPECT_EQ(store.stats().rejected, 1u);
  store.saveHead("flow", a);
  ASSERT_TRUE(store.loadHead("flow").has_value());
  EXPECT_EQ(store.loadHead("flow")->dump(), a.dump());
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
// The name-based fault key backing the campaign artifact.

namespace {

// A multi-bit SEU names its flip-flop group by cell; the fault key must
// carry the whole group.
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

TEST(IncrementalSerializeTest, MultiSeuKeyIsStableAcrossReparseRenumbering) {
  // The text format may renumber ids on the first round trip; the key is
  // name-based, so rebinding the fault's cells by name on the reparsed
  // design must yield the identical provenance key.
  const nlst::Netlist n = multiSeuTestbed();
  fault::Fault f;
  f.kind = fault::FaultKind::MultiSeu;
  f.cells = {*n.findCell("dreg_0"), *n.findCell("preg")};
  std::sort(f.cells.begin(), f.cells.end());
  f.cycle = 4;
  const std::string key = fault::faultKey(n, f);

  const nlst::Netlist re =
      nlst::readNetlistString(nlst::writeNetlistString(n));
  const auto dreg0 = re.findCell("dreg_0");
  const auto preg = re.findCell("preg");
  ASSERT_TRUE(dreg0.has_value());
  ASSERT_TRUE(preg.has_value());
  fault::Fault rebound = f;
  rebound.cells = {*dreg0, *preg};
  std::sort(rebound.cells.begin(), rebound.cells.end());
  EXPECT_EQ(fault::faultKey(re, rebound), key);
}

// A cached cycle binds when it lies inside the workload, [0, cycles).
TEST(IncrementalSerializeTest, CachedCyclesBindInsideTheWorkloadOnly) {
  const ms::GateLevelDesign v1 = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const core::FmeaFlow flow(v1.nl, core::makeFrmemFlowConfig(v1));
  const fault::Fault f;
  for (std::uint64_t inject::CachedRecord::*cycle :
       {&inject::CachedRecord::sensCycle, &inject::CachedRecord::firstObsCycle,
        &inject::CachedRecord::diagCycle}) {
    inject::CachedRecord c;
    c.*cycle = 9;
    EXPECT_TRUE(
        inject::bindCachedRecord(c, f, flow.zones(), flow.effects(), 10));
    c.*cycle = 10;
    EXPECT_FALSE(
        inject::bindCachedRecord(c, f, flow.zones(), flow.effects(), 10));
  }

  // A stored cycle that is not a non-negative integer (or is absent) never
  // binds, however long the workload.
  const auto loaded = [](const char* key, Json value) {
    Json rec = Json::object();
    rec["key"] = "k";
    rec["outcome"] =
        std::string(inject::outcomeName(inject::Outcome::NoEffect));
    rec["sens_cycle"] = 0;
    rec["first_obs_cycle"] = 0;
    rec["diag_cycle"] = 0;
    if (value.isNull()) {
      rec.erase(key);
    } else {
      rec[key] = std::move(value);
    }
    Json art = Json::object();
    art["schema"] = "socfmea.campaign_artifact/1";
    art["records"].push_back(std::move(rec));
    return inject::CachedCampaign::fromJson(art).byKey.at("k");
  };
  const std::uint64_t huge = std::uint64_t{1} << 62;
  EXPECT_TRUE(inject::bindCachedRecord(loaded("diag_cycle", 9), f,
                                       flow.zones(), flow.effects(), huge));
  for (const char* key : {"sens_cycle", "first_obs_cycle", "diag_cycle"}) {
    SCOPED_TRACE(key);
    for (const Json& bad : {Json(-5), Json(1e300), Json(2.5), Json("7"),
                            Json()}) {
      EXPECT_FALSE(inject::bindCachedRecord(loaded(key, bad), f,
                                            flow.zones(), flow.effects(),
                                            huge));
    }
  }
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

// Each run records its golden run once and every consumer reads it: the
// profile on every path, the cold campaign, the delta's re-simulated faults.
// A full hit still records it, because the fault list (and so the campaign
// key) comes from the profile.
TEST(IncrementalOracleTest, EveryPathRecordsTheGoldenRunOnce) {
  const ms::GateLevelDesign v1 =
      ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const ms::GateLevelDesign dut =
      ms::buildProtectionIp(editedOptions("wbuf-parity"));
  core::ArtifactStore store(freshDir("golden_once"));
  const socfmea::obs::Registry& reg = socfmea::obs::Registry::global();
  const auto goldenRunsOf = [&](const ms::GateLevelDesign& d) {
    const std::uint64_t before = reg.timer("inject.record_golden").count;
    const core::IncrementalCampaign camp = runOracleFlow(d, &store, nullptr);
    return std::pair{camp, reg.timer("inject.record_golden").count - before};
  };
  const auto [cold, coldRuns] = goldenRunsOf(v1);
  EXPECT_FALSE(cold.fullHit || cold.deltaRun);
  EXPECT_EQ(coldRuns, 1u);
  const auto [delta, deltaRuns] = goldenRunsOf(dut);
  EXPECT_TRUE(delta.deltaRun);
  EXPECT_EQ(deltaRuns, 1u);
  const auto [hit, hitRuns] = goldenRunsOf(dut);
  EXPECT_TRUE(hit.fullHit);
  EXPECT_EQ(hitRuns, 1u);
}

// A primed store whose one campaign file no longer parses: the rerun misses
// it once and runs cold.  The head names the key that just missed, so there
// is no delta baseline to load a second time.
TEST(IncrementalOracleTest, UnreadableCampaignRunsColdWithOneMiss) {
  const ms::GateLevelDesign v1 = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const fs::path dir = freshDir("unreadable");
  {
    core::ArtifactStore primed(dir);
    (void)runOracleFlow(v1, &primed, nullptr);
  }
  const std::vector<fs::path> campaigns = campaignFiles(dir);
  ASSERT_EQ(campaigns.size(), 1u);
  std::ofstream(campaigns[0])
      << std::string(200000, '[') + std::string(200000, ']');

  core::ArtifactStore store(dir);
  const core::IncrementalCampaign rerun = runOracleFlow(v1, &store, nullptr);
  EXPECT_FALSE(rerun.fullHit);
  EXPECT_FALSE(rerun.deltaRun);
  EXPECT_EQ(rerun.delta.simulated, rerun.delta.total);
  EXPECT_EQ(store.stats().misses, 1u);
  expectSameRecords(runOracleFlow(v1, nullptr, nullptr).result, rerun.result);
}

// A campaign artifact whose records hold cycles no workload cycle can have:
// every detected record's diag_cycle is 1e300 (not an integer) and every
// other deviating record's sens_cycle is -5.  It is saved through the store,
// so its body hash holds and the binding alone must refuse it.  None of the
// records binds, so the full hit takes the miss path and the delta path
// re-simulates those faults; both give the cold run's records.
TEST(IncrementalOracleTest, ImpossibleCachedCyclesDoNotBind) {
  const ms::GateLevelDesign v1 = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const fs::path primed = freshDir("impossible_cycles");
  {
    core::ArtifactStore store(primed);
    (void)runOracleFlow(v1, &store, nullptr);
  }
  const std::vector<fs::path> campaigns = campaignFiles(primed);
  ASSERT_EQ(campaigns.size(), 1u);
  const std::uint64_t key = campaignKeyOf(campaigns[0]);
  Json art = *core::ArtifactStore(primed).load("campaign", key);
  Json records = Json::array();
  std::size_t tampered = 0;
  for (Json r : art.at("records").elements()) {
    if (r.at("diag").asBool()) {
      r["diag_cycle"] = Json(1e300);
      ++tampered;
    } else if (r.at("sens").asBool()) {
      r["sens_cycle"] = Json(-5);
      ++tampered;
    }
    records.push_back(std::move(r));
  }
  ASSERT_GT(tampered, 0u);
  art["records"] = std::move(records);
  core::ArtifactStore(primed).save("campaign", key, art);

  const fs::path hitDir = freshDir("impossible_cycles_hit");
  fs::copy(primed, hitDir, fs::copy_options::recursive);
  core::ArtifactStore hitStore(hitDir);
  const core::IncrementalCampaign rerun = runOracleFlow(v1, &hitStore, nullptr);
  EXPECT_FALSE(rerun.fullHit);
  expectSameRecords(runOracleFlow(v1, nullptr, nullptr).result, rerun.result);

  const ms::GateLevelDesign dut =
      ms::buildProtectionIp(editedOptions("wbuf-parity"));
  const fs::path deltaDir = freshDir("impossible_cycles_delta");
  fs::copy(primed, deltaDir, fs::copy_options::recursive);
  core::ArtifactStore deltaStore(deltaDir);
  const core::IncrementalCampaign delta =
      runOracleFlow(dut, &deltaStore, nullptr);
  EXPECT_TRUE(delta.deltaRun);
  EXPECT_GT(delta.delta.reused, 0u);
  expectSameRecords(runOracleFlow(dut, nullptr, nullptr).result,
                    delta.result);
}

namespace {

/// Moves the first detected record's diag_cycle back onto its
/// first_obs_cycle in the file's text, as a hand edit would: a cycle the
/// workload has, so the record still binds.  False when no detected record
/// has a later diag_cycle.
bool shortenFirstDetection(const fs::path& file) {
  std::string text = readText(file);
  const std::string kDiag = "\"diag\": true";
  const std::string kFirstObs = "\"first_obs_cycle\": ";
  const std::string kDiagCycle = "\"diag_cycle\": ";
  for (std::size_t at = text.find(kDiag); at != std::string::npos;
       at = text.find(kDiag, at + 1)) {
    const std::size_t obsAt = text.rfind(kFirstObs, at);
    const std::size_t cycleAt = text.find(kDiagCycle, at);
    if (obsAt == std::string::npos || cycleAt == std::string::npos) break;
    const std::size_t numAt = cycleAt + kDiagCycle.size();
    const std::size_t numEnd = text.find_first_not_of("0123456789", numAt);
    const long long firstObs =
        std::strtoll(text.c_str() + obsAt + kFirstObs.size(), nullptr, 10);
    if (std::strtoll(text.c_str() + numAt, nullptr, 10) <= firstObs) continue;
    text.replace(numAt, numEnd - numAt, std::to_string(firstObs));
    std::ofstream(file, std::ios::trunc) << text;
    return true;
  }
  return false;
}

void expectSameMetrics(const inject::CampaignResult& a,
                       const inject::CampaignResult& b) {
  EXPECT_EQ(a.measuredSff(), b.measuredSff());
  EXPECT_EQ(a.measuredDdf(), b.measuredDdf());
  EXPECT_EQ(a.meanDetectionLatency(), b.meanDetectionLatency());
  EXPECT_EQ(a.maxDetectionLatency(), b.maxDetectionLatency());
}

}  // namespace

// The store's trust in a full hit rests on the body hash: no revalidation
// sample runs there.  After v1 primes the store and the wbuf-parity edit
// runs twice (delta, then full hit), one detected record of the edit's
// artifact gets diag_cycle = first_obs_cycle by hand.  The next run refuses
// the file, recomputes and reports the clean records and latencies.
TEST(IncrementalOracleTest, AlteredArtifactIsAMiss) {
  const ms::GateLevelDesign v1 = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const ms::GateLevelDesign dut =
      ms::buildProtectionIp(editedOptions("wbuf-parity"));
  const fs::path dir = freshDir("altered_artifact");
  core::IncrementalCampaign clean;
  std::vector<fs::path> before;
  {
    core::ArtifactStore store(dir);
    (void)runOracleFlow(v1, &store, nullptr);
    before = campaignFiles(dir);
    EXPECT_TRUE(runOracleFlow(dut, &store, nullptr).deltaRun);
    clean = runOracleFlow(dut, &store, nullptr);
    ASSERT_TRUE(clean.fullHit);
  }
  std::vector<fs::path> edited;
  for (const fs::path& f : campaignFiles(dir)) {
    if (std::find(before.begin(), before.end(), f) == before.end()) {
      edited.push_back(f);
    }
  }
  ASSERT_EQ(edited.size(), 1u);
  ASSERT_TRUE(shortenFirstDetection(edited[0]));

  core::ArtifactStore store(dir);
  const core::IncrementalCampaign rerun = runOracleFlow(dut, &store, nullptr);
  EXPECT_FALSE(rerun.fullHit);
  EXPECT_EQ(store.stats().rejected, 1u);
  expectSameRecords(clean.result, rerun.result);
  expectSameMetrics(clean.result, rerun.result);
}

// Seeded mutations of the store files the wbuf-parity edit reads: the v1
// campaign artifact and the head before its delta, and its own artifact
// before its full hit.  Byte flips, truncations, dropped and duplicated
// lines and extreme numbers all leave the rerun with the clean run's
// records and metrics.
TEST(IncrementalOracleTest, MutatedStoreFilesGiveTheCleanRun) {
  const ms::GateLevelDesign v1 = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const ms::GateLevelDesign dut =
      ms::buildProtectionIp(editedOptions("wbuf-parity"));
  const core::IncrementalCampaign clean = runOracleFlow(dut, nullptr, nullptr);
  const fs::path primed = freshDir("mutated_primed");
  {
    core::ArtifactStore store(primed);
    (void)runOracleFlow(v1, &store, nullptr);
  }
  const fs::path edited = freshDir("mutated_edited");
  fs::copy(primed, edited, fs::copy_options::recursive);
  {
    core::ArtifactStore store(edited);
    (void)runOracleFlow(dut, &store, nullptr);
  }
  const std::vector<fs::path> v1Files = campaignFiles(primed);
  ASSERT_EQ(v1Files.size(), 1u);
  std::vector<fs::path> editFiles;
  for (const fs::path& f : campaignFiles(edited)) {
    if (f.filename() != v1Files[0].filename()) editFiles.push_back(f);
  }
  ASSERT_EQ(editFiles.size(), 1u);
  const struct {
    fs::path store;
    std::string file;
  } targets[] = {{primed, v1Files[0].filename().string()},
                 {primed, "head-flow.json"},
                 {edited, editFiles[0].filename().string()}};

  const std::uint64_t base = tk::testSeed(0x5704E);
  std::uint64_t k = 0;
  for (const auto& t : targets) {
    const std::string text = readText(t.store / t.file);
    for (int m = 0; m < 8; ++m, ++k) {
      const std::uint64_t seed = tk::derivedSeed(base, k);
      SCOPED_TRACE(t.file + ", " + tk::seedMessage(seed));
      const fs::path dir = freshDir("mutated_rerun");
      fs::copy(t.store, dir, fs::copy_options::recursive);
      std::ofstream(dir / t.file, std::ios::trunc)
          << tk::mutateText(text, seed);
      core::ArtifactStore store(dir);
      const core::IncrementalCampaign rerun =
          runOracleFlow(dut, &store, nullptr);
      expectSameRecords(clean.result, rerun.result);
      expectSameMetrics(clean.result, rerun.result);
    }
  }
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

TEST(IncrementalOracleTest, LatentFaultInsideTheConeReusesNothing) {
  // A latent stuck-at on a register the wbuf-parity edit reads: every faulty
  // machine carries it into the edited logic, so no v1 record may be
  // reused, wherever the injected fault itself sits.
  const ms::GateLevelDesign v1 = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const ms::GateLevelDesign dut =
      ms::buildProtectionIp(editedOptions("wbuf-parity"));
  const fault::FaultKind kind = fault::FaultKind::StuckAt1;
  const inject::CampaignOptions onDut = latentOn(dut, kind, "mce/wdata_r_3");

  core::ArtifactStore store(freshDir("latent_in_cone"));
  (void)runOracleFlow(v1, &store, nullptr, latentOn(v1, kind, "mce/wdata_r_3"));
  const core::IncrementalCampaign warm =
      runOracleFlow(dut, &store, nullptr, onDut);
  EXPECT_TRUE(warm.deltaRun);
  EXPECT_EQ(warm.delta.reused, 0u);
  const core::IncrementalCampaign cold =
      runOracleFlow(dut, nullptr, nullptr, onDut);
  expectSameRecords(cold.result, warm.result);
}

TEST(IncrementalOracleTest, LatentFaultIsKeyedByName) {
  // The wbuf-parity edit adds cells ahead of `wbuf/data_0`, so the same
  // latent upset sits on different cell ids in the two designs.  The head's
  // options key must not see the renumbering, or the edit never runs as a
  // delta.
  const ms::GateLevelDesign v1 = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const ms::GateLevelDesign dut =
      ms::buildProtectionIp(editedOptions("wbuf-parity"));
  const fault::FaultKind kind = fault::FaultKind::SeuFlip;
  const inject::CampaignOptions onV1 = latentOn(v1, kind, "wbuf/data_0", 50);
  const inject::CampaignOptions onDut = latentOn(dut, kind, "wbuf/data_0", 50);
  ASSERT_NE(onV1.preexisting->cell, onDut.preexisting->cell);

  core::ArtifactStore store(freshDir("latent_by_name"));
  const auto headOptsKey = [&store] {
    const auto head = store.loadHead("flow");
    const Json* key = head ? head->find("opts_key") : nullptr;
    return key != nullptr && key->isString() ? key->asString() : std::string();
  };
  (void)runOracleFlow(v1, &store, nullptr, onV1);
  const std::string v1Key = headOptsKey();
  const core::IncrementalCampaign warm =
      runOracleFlow(dut, &store, nullptr, onDut);
  EXPECT_FALSE(v1Key.empty());
  EXPECT_EQ(headOptsKey(), v1Key);
  EXPECT_TRUE(warm.deltaRun);
  const core::IncrementalCampaign cold =
      runOracleFlow(dut, nullptr, nullptr, onDut);
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
    const nlst::CompiledDesignPtr cdA = nlst::compile(a);
    const nlst::CompiledDesignPtr cd = nlst::compile(b);
    const auto onA = tk::serialOutputs(cdA, planA.stim, planA.faults);
    const auto onB = tk::serialOutputs(cd, planB.stim, planB.faults);
    ASSERT_EQ(onA.size(), onB.size());

    // The delta-reuse rule: faults outside the affected cone of diff(a, b)
    // keep their design-A verdict; merging must reproduce the cold B run.
    const nlst::NetlistDiff d = nlst::diff(a, b);
    ASSERT_FALSE(d.identical());
    const nlst::AffectedCone cone = nlst::affectedCone(*cd, d);
    std::size_t reused = 0;
    for (std::size_t i = 0; i < planB.faults.size(); ++i) {
      if (nlst::faultAffected(cone, *cd, planB.faults[i])) continue;
      ++reused;
      EXPECT_EQ(onA[i].obs, onB[i].obs) << "fault " << i;
    }
    EXPECT_GT(reused, 0u);
  }
}
