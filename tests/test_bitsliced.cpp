// Tests for the bit-sliced fault-parallel engine (faultsim/bitsliced.*,
// faultsim/lanes.*): the lane scheduler's permanents-first ordering and
// refill contract, the worker threads that share word groups out,
// active-list-bounded activity, per-fault-kind divergence agreement with
// the serial oracle on a design with flip-flops and a behavioural memory,
// lane retirement / refill invariants, campaign-record equality on the
// memsys protection IP (with and without a latent fault), EngineKind::Auto
// resolution, a 200-design random-property sweep over the full fault model,
// and a sweep of random designs with memories 33 to 64 bits wide.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <thread>

#include "cpu/workload.hpp"
#include "fault/collapse.hpp"
#include "fault/fault_list.hpp"
#include "faultsim/bitsliced.hpp"
#include "faultsim/lanes.hpp"
#include "faultsim/serial.hpp"
#include "inject/manager.hpp"
#include "inject/workload.hpp"
#include "memsys/gatelevel.hpp"
#include "memsys/workloads.hpp"
#include "netlist/builder.hpp"
#include "obs/telemetry.hpp"
#include "sim/rng.hpp"
#include "testkit/netlist_gen.hpp"
#include "testkit/oracle.hpp"
#include "testkit/plan.hpp"
#include "testkit/seed.hpp"
#include "zones/extract.hpp"

namespace tk = socfmea::testkit;
namespace cp = socfmea::cpu;
namespace nl = socfmea::netlist;
namespace zn = socfmea::zones;
namespace ft = socfmea::fault;
namespace fs = socfmea::faultsim;
namespace ij = socfmea::inject;
namespace sm = socfmea::sim;
namespace ms = socfmea::memsys;

namespace {

// ---------------------------------------------------------------------------
// LaneScheduler
// ---------------------------------------------------------------------------

TEST(LaneSchedulerTest, PermanentsFirstThenTransientsByCycle) {
  ft::FaultList faults;
  const auto add = [&](ft::FaultKind k, std::uint64_t cycle) {
    ft::Fault f;
    f.kind = k;
    f.net = 0;
    f.cycle = cycle;
    faults.push_back(f);
  };
  add(ft::FaultKind::SeuFlip, 30);   // 0
  add(ft::FaultKind::StuckAt0, 0);   // 1
  add(ft::FaultKind::SetPulse, 10);  // 2
  add(ft::FaultKind::StuckAt1, 0);   // 3
  add(ft::FaultKind::SeuFlip, 10);   // 4 (stable after #2 at the same cycle)

  fs::LaneScheduler sched(faults);
  EXPECT_EQ(sched.size(), 5u);
  const auto group = sched.takeGroup(3);
  ASSERT_EQ(group.size(), 3u);
  EXPECT_EQ(group[0], 1u);  // permanents first, original order
  EXPECT_EQ(group[1], 3u);
  EXPECT_EQ(group[2], 2u);  // earliest transient
  // Refill honours the minimum activation cycle.
  const auto r1 = sched.takeRefill(20);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(*r1, 0u);  // cycle-30 SEU; the cycle-10 SEU is too early
  const auto r2 = sched.takeRefill(0);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(*r2, 4u);  // the skipped-over entry stayed queued
  EXPECT_FALSE(sched.takeRefill(0).has_value());
  EXPECT_TRUE(sched.takeGroup(3).empty());
}

// ---------------------------------------------------------------------------
// shared fixtures
// ---------------------------------------------------------------------------

// A pipelined datapath: two input buses, an adder, a register, a parity
// output and a sum output.
struct DataPath {
  nl::Netlist n{"dp"};
  nl::NetId rst;
  nl::Bus a, b, q;

  DataPath() {
    nl::Builder bl(n);
    rst = bl.input("rst");
    a = bl.inputBus("a", 8);
    b = bl.inputBus("b", 8);
    const auto sum = bl.adder(a, b);
    q = bl.registerBus("r", sum, nl::kNoNet, rst, 0);
    bl.outputBus("sum", q);
    bl.output("par", bl.reduceXor(q));
    n.check();
  }
};

// A design with a behavioural memory, registers and bridging-friendly
// logic: a 3-bit-address, 2-bit-data RAM behind an input pipeline, with
// both rdata bits observable directly and through a parity tree.
struct MemDesign {
  nl::Netlist n{"md"};
  nl::NetId rst, we;
  nl::Bus addr, din;
  nl::Bus rd{};

  MemDesign() {
    nl::Builder bl(n);
    rst = bl.input("rst");
    we = bl.input("we");
    addr = bl.inputBus("addr", 3);
    din = bl.inputBus("din", 2);
    const auto addrQ = bl.registerBus("ar", addr, nl::kNoNet, rst, 0);
    nl::MemoryInst m;
    m.name = "ram";
    m.addrBits = 3;
    m.dataBits = 2;
    m.addr = {addrQ[0], addrQ[1], addrQ[2]};
    m.wdata = {din[0], din[1]};
    m.rdata = {n.addNet("rd0"), n.addNet("rd1")};
    m.writeEnable = we;
    rd.push_back(m.rdata[0]);
    rd.push_back(m.rdata[1]);
    n.addMemory(std::move(m));
    const auto q0 = bl.registerBus("oq", rd, nl::kNoNet, rst, 0);
    bl.outputBus("rd", q0);
    bl.output("par", bl.bxor(q0[0], q0[1]));
    n.check();
  }
};

/// The bit-sliced side of tk::serialOutputs: every primary output of `cd`
/// watched over the golden run of `stim`, each lane stopped under `retire`,
/// the word groups shared out to `threads` workers.
fs::BitslicedCampaign slicedRun(const nl::CompiledDesignPtr& cd,
                                const fs::StimulusTrace& stim,
                                const ft::FaultList& faults,
                                fs::RetireMode retire, unsigned threads = 1) {
  const nl::Netlist& n = cd->design();
  const fs::GoldenRun golden(cd, stim);
  return fs::runBitslicedWatch(golden, faults,
                               fs::outputWatch(n, n.primaryOutputs()),
                               std::nullopt, retire, threads);
}

void expectObservationsEqual(const nl::Netlist& n, const ft::FaultList& faults,
                             const std::vector<fs::Observation>& serial,
                             const std::vector<fs::Observation>& sliced) {
  ASSERT_EQ(serial.size(), faults.size());
  ASSERT_EQ(sliced.size(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(serial[i], sliced[i]) << faults[i].describe(n);
  }
}

std::size_t detected(const std::vector<fs::Observation>& observations) {
  return static_cast<std::size_t>(
      std::count_if(observations.begin(), observations.end(),
                    [](const fs::Observation& o) { return o.obs; }));
}

}  // namespace

// ---------------------------------------------------------------------------
// per-fault-kind divergence agreement
// ---------------------------------------------------------------------------

// Every fault kind of the model, handcrafted on the memory design, must get
// the same verdict from the bit-sliced engine and the serial oracle.
TEST(BitslicedKindTest, EveryFaultKindMatchesSerial) {
  MemDesign d;
  const ij::RandomWorkload stim(d.n, 90, tk::testSeed(21), {{d.rst, false}});

  ft::FaultList faults;
  const auto add = [&](ft::Fault f) { faults.push_back(f); };
  ft::Fault f;
  f.kind = ft::FaultKind::StuckAt0;
  f.net = d.rd[0];
  add(f);
  f.kind = ft::FaultKind::StuckAt1;
  add(f);
  f = {};
  f.kind = ft::FaultKind::SeuFlip;
  f.cell = d.n.flipFlops().front();
  f.net = d.n.cell(f.cell).output;
  f.cycle = 40;
  add(f);
  f = {};
  f.kind = ft::FaultKind::SetPulse;
  f.net = d.rd[1];
  f.cycle = 25;
  add(f);
  f = {};
  f.kind = ft::FaultKind::BridgeAnd;
  f.net = d.rd[0];
  f.net2 = d.rd[1];
  add(f);
  f.kind = ft::FaultKind::BridgeOr;
  add(f);
  f = {};
  f.kind = ft::FaultKind::DelayStale;
  f.cell = d.n.flipFlops().back();
  f.net = d.n.cell(f.cell).output;
  add(f);
  f = {};
  f.kind = ft::FaultKind::MemStuckBit;
  f.addr = 2;
  f.bit = 1;
  f.stuckValue = true;
  add(f);
  f = {};
  f.kind = ft::FaultKind::MemAddrNone;
  f.addr = 3;
  add(f);
  f = {};
  f.kind = ft::FaultKind::MemAddrWrong;
  f.addr = 1;
  f.addr2 = 5;
  add(f);
  f = {};
  f.kind = ft::FaultKind::MemAddrMulti;
  f.addr = 2;
  f.addr2 = 6;
  add(f);
  f = {};
  f.kind = ft::FaultKind::MemCoupling;
  f.addr = 0;
  f.addr2 = 4;
  f.bit = 0;
  add(f);
  f = {};
  f.kind = ft::FaultKind::MemSoftError;
  f.addr = 2;
  f.bit = 0;
  f.cycle = 50;
  add(f);

  const auto cd = nl::compile(d.n);
  const auto serial = tk::serialOutputs(cd, stim, faults);
  // Enough stimulus lands on the memory for most kinds to matter; the test
  // is only meaningful if some faults really diverge.
  EXPECT_GT(detected(serial), 4u);

  const auto sliced = slicedRun(cd, stim, faults, fs::RetireMode::DetectOnly);
  expectObservationsEqual(d.n, faults, serial, sliced.observations);
  EXPECT_GT(sliced.stats.wordCycles, 0u);
}

TEST(BitslicedKindTest, EarlyAbortOffStillMatches) {
  MemDesign d;
  const ij::RandomWorkload stim(d.n, 70, tk::testSeed(22), {{d.rst, false}});
  ft::FaultList faults = ft::allStuckAtFaults(d.n);
  ft::collapseStuckAt(d.n, faults);
  const auto cd = nl::compile(d.n);
  constexpr fs::RetireMode kFull = fs::RetireMode::WashoutOnly;
  expectObservationsEqual(d.n, faults,
                          tk::serialOutputs(cd, stim, faults, kFull),
                          slicedRun(cd, stim, faults, kFull).observations);
}

// ---------------------------------------------------------------------------
// backdoor flips
// ---------------------------------------------------------------------------

// The CPU workload loads its behavioural ROM at cycle 0 as flips over the
// all-zero array.  A soft error planted in the ROM at cycle 0 acts before
// the load, so the loaded word keeps it flipped on both engines; a load
// that overwrote the word would lose it on the serial oracle alone.
TEST(BitslicedBackdoorTest, CycleZeroRomSoftErrorsMatchSerial) {
  const cp::CpuDesign d = cp::buildTinyCpu(cp::CpuOptions::plain());
  ASSERT_TRUE(d.behaviouralRom());
  const cp::CpuWorkload stim(d, cp::selfTestProgram(), 300);
  ft::FaultList faults;
  for (std::uint64_t addr = 0; addr < 8; ++addr) {
    for (std::uint32_t bit = 0; bit < 8; ++bit) {
      ft::Fault f;
      f.kind = ft::FaultKind::MemSoftError;
      f.mem = 0;
      f.addr = addr;
      f.bit = bit;
      f.cycle = 0;
      faults.push_back(f);
    }
  }
  const auto cd = nl::compile(d.nl);
  const auto serial = tk::serialOutputs(cd, stim, faults);
  EXPECT_GT(detected(serial), 0u);
  expectObservationsEqual(
      d.nl, faults, serial,
      slicedRun(cd, stim, faults, fs::RetireMode::DetectOnly).observations);
}

// Random designs with a memory, replayed with random backdoor flips: on the
// cycle and cell of a soft error, on a stuck cell, after a soft error gave
// its lane a clone, and anywhere.  The observations of both engines must be
// identical.
TEST(BitslicedBackdoorTest, RandomFlipsOnRandomDesignsMatchSerial) {
  const std::uint64_t base = tk::testSeed(0xF11B);
  std::size_t flipsMade = 0;
  std::size_t memFaults = 0;
  for (std::uint64_t i = 0; i < 60; ++i) {
    const std::uint64_t seed = tk::derivedSeed(base, i);
    SCOPED_TRACE(tk::seedMessage(seed));
    sm::Rng rng(seed);
    tk::GeneratorOptions g = tk::randomOptions(rng);
    g.memories = 1;
    const nl::Netlist n = tk::generateNetlist(g, rng);
    tk::PlanOptions po = tk::randomPlanOptions(rng);
    po.memFaults = static_cast<std::size_t>(rng.range(4, 10));
    const tk::TestPlan plan = tk::generatePlan(n, po, rng);
    const nl::MemoryInst& mem = n.memory(0);

    std::vector<std::vector<sm::MemFlip>> flips(plan.cycles());
    const auto anyCell = [&](std::uint64_t cycle) {
      flips[cycle].push_back(
          {0, rng.below(std::uint64_t{1} << mem.addrBits),
           static_cast<std::uint32_t>(rng.below(mem.dataBits))});
    };
    for (const ft::Fault& f : plan.faults) {
      if (f.kind == ft::FaultKind::MemSoftError) {
        ++memFaults;
        if (rng.coin()) flips[f.cycle].push_back({f.mem, f.addr, f.bit});
        if (f.cycle + 1 < plan.cycles()) {
          anyCell(f.cycle + 1 + rng.below(plan.cycles() - f.cycle - 1));
        }
      } else if (f.kind == ft::FaultKind::MemStuckBit) {
        ++memFaults;
        flips[rng.below(plan.cycles())].push_back({f.mem, f.addr, f.bit});
      }
    }
    for (int k = 0; k < 3; ++k) anyCell(rng.below(plan.cycles()));
    for (const auto& row : flips) flipsMade += row.size();

    fs::StimulusTrace stim = plan.stim;
    stim.flips = std::move(flips);
    const auto cd = nl::compile(n);
    const auto serial =
        tk::serialOutputs(cd, stim, plan.faults, fs::RetireMode::WashoutOnly);
    expectObservationsEqual(
        n, plan.faults, serial,
        slicedRun(cd, stim, plan.faults, fs::RetireMode::WashoutOnly)
            .observations);
  }
  // The sweep must have exercised the flip path on real memory faults.
  EXPECT_GT(memFaults, 200u);
  EXPECT_GT(flipsMade, 300u);
}

// ---------------------------------------------------------------------------
// retirement / refill / occupancy invariants
// ---------------------------------------------------------------------------

TEST(BitslicedRetireTest, RetiresRefillsAndStaysWithinCapacity) {
  DataPath d;
  const ij::RandomWorkload stim(d.n, 120, tk::testSeed(23), {{d.rst, false}});
  // More faults than one 64-lane word: uncollapsed stuck-ats (mostly
  // detected within a few cycles -> early retirement) plus late SEUs the
  // refill path can only install mid-run.
  ft::FaultList faults = ft::allStuckAtFaults(d.n);
  const std::size_t permanents = faults.size();
  ASSERT_GT(permanents, 64u);
  for (nl::CellId ff : d.n.flipFlops()) {
    ft::Fault f;
    f.kind = ft::FaultKind::SeuFlip;
    f.cell = ff;
    f.net = d.n.cell(ff).output;
    f.cycle = 100;
    faults.push_back(f);
  }

  const auto cd = nl::compile(d.n);
  const auto serial = tk::serialOutputs(cd, stim, faults);

  const auto sliced = slicedRun(cd, stim, faults, fs::RetireMode::DetectOnly);
  expectObservationsEqual(d.n, faults, serial, sliced.observations);
  const fs::BitslicedStats& stats = sliced.stats;

  // Verdict-final lanes retired before the workload end...
  EXPECT_GT(stats.lanesRetiredEarly, 0u);
  // ...and freed lanes were re-armed with pending transients mid-run.
  EXPECT_GT(stats.lanesRefilled, 0u);
  // Occupancy is a fraction of the word capacity.
  EXPECT_GT(stats.laneOccupancy(), 0.0);
  EXPECT_LE(stats.laneOccupancy(), 1.0);
  EXPECT_LE(stats.laneCycles, stats.wordCycles * 64);
  // Early retirement makes the bit-sliced engine simulate fewer lane-cycles
  // than a full per-fault replay would.
  EXPECT_LT(stats.laneCycles, faults.size() * stim.cycles());
  EXPECT_GE(stats.wordGroups, (faults.size() + 63) / 64);
}

TEST(BitslicedRetireTest, WithoutEarlyAbortOnlyWashoutRetires) {
  DataPath d;
  const ij::RandomWorkload stim(d.n, 80, tk::testSeed(24), {{d.rst, false}});
  ft::FaultList faults = ft::allStuckAtFaults(d.n);
  ft::collapseStuckAt(d.n, faults);
  const auto cd = nl::compile(d.n);
  const fs::BitslicedStats stats =
      slicedRun(cd, stim, faults, fs::RetireMode::WashoutOnly).stats;
  // Permanent faults can never wash out, so nothing retires early.
  EXPECT_EQ(stats.lanesRetiredEarly, 0u);
  EXPECT_EQ(stats.convergedEarly, 0u);
}

TEST(BitslicedRetireTest, TransientsWashOutAndConverge) {
  DataPath d;
  const ij::RandomWorkload stim(d.n, 120, tk::testSeed(25), {{d.rst, false}});
  // SEUs on bits that are overwritten the very next cycle: the divergence
  // washes out and the lane retires long before the workload ends even
  // without a detection verdict (earlyAbort off exercises pure washout).
  ft::FaultList faults;
  for (nl::CellId ff : d.n.flipFlops()) {
    ft::Fault f;
    f.kind = ft::FaultKind::SeuFlip;
    f.cell = ff;
    f.net = d.n.cell(ff).output;
    f.cycle = 10;
    faults.push_back(f);
  }
  const auto cd = nl::compile(d.n);
  const auto sliced = slicedRun(cd, stim, faults, fs::RetireMode::WashoutOnly);
  expectObservationsEqual(
      d.n, faults,
      tk::serialOutputs(cd, stim, faults, fs::RetireMode::WashoutOnly),
      sliced.observations);
  // The register is reloaded every cycle, so every undetected SEU's
  // divergence is provably gone shortly after injection.
  EXPECT_GT(sliced.stats.convergedEarly, 0u);
}

// ---------------------------------------------------------------------------
// active-list-bounded activity
// ---------------------------------------------------------------------------

TEST(BitslicedActivityTest, DeepFaultInLongChainMatchesSerialVerdicts) {
  // A long inverter chain: a fault near the output end leaves the early
  // levels idle for the whole run, and the verdict must still match the
  // serial oracle exactly.
  nl::Netlist n{"chain"};
  nl::Builder bl(n);
  const auto rst = bl.input("rst");
  (void)rst;
  const auto a = bl.input("a");
  nl::NetId cur = a;
  std::vector<nl::NetId> taps;
  for (int i = 0; i < 40; ++i) {
    cur = bl.bnot(cur);
    taps.push_back(cur);
  }
  bl.output("o", cur);
  n.check();

  const ij::RandomWorkload stim(n, 40, tk::testSeed(26));
  ft::FaultList faults;
  ft::Fault f;
  f.kind = ft::FaultKind::StuckAt1;
  f.net = taps[35];  // deep in the chain
  faults.push_back(f);

  const auto cd = nl::compile(n);
  // WashoutOnly keeps the lane alive so every cycle sweeps.
  const auto sliced = slicedRun(cd, stim, faults, fs::RetireMode::WashoutOnly);
  expectObservationsEqual(
      n, faults,
      tk::serialOutputs(cd, stim, faults, fs::RetireMode::WashoutOnly),
      sliced.observations);
  EXPECT_EQ(detected(tk::serialOutputs(cd, stim, faults)),
            detected(sliced.observations));
}

// ---------------------------------------------------------------------------
// threads
// ---------------------------------------------------------------------------

TEST(BitslicedThreadsTest, VerdictsIdenticalAcrossThreadCounts) {
  DataPath d;
  const ij::RandomWorkload stim(d.n, 100, tk::testSeed(27), {{d.rst, false}});
  ft::FaultList faults = ft::allStuckAtFaults(d.n);
  for (nl::CellId ff : d.n.flipFlops()) {
    ft::Fault f;
    f.kind = ft::FaultKind::SeuFlip;
    f.cell = ff;
    f.net = d.n.cell(ff).output;
    f.cycle = 60;
    faults.push_back(f);
  }
  const auto cd = nl::compile(d.n);
  const auto serial = tk::serialOutputs(cd, stim, faults);
  // More faults than one word group holds, so the workers share groups out.
  ASSERT_GT(faults.size(), std::size_t{fs::kLanes});
  // 0 = one worker per hardware thread (at least one).
  const unsigned allCores = std::max(1u, std::thread::hardware_concurrency());
  for (const unsigned threads : {2u, 8u, 0u}) {
    if (threads == 0 && allCores > 8) continue;  // no test runs more than 8
    const auto sliced =
        slicedRun(cd, stim, faults, fs::RetireMode::DetectOnly, threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expectObservationsEqual(d.n, faults, serial, sliced.observations);
    EXPECT_EQ(sliced.stats.workers, threads == 0 ? allCores : threads);
  }
}

// ---------------------------------------------------------------------------
// campaign mode on the memsys protection IP
// ---------------------------------------------------------------------------

namespace {

ms::GateLevelDesign smallMemsys() {
  ms::GateLevelOptions o = ms::GateLevelOptions::v2();
  o.addrBits = 6;
  return ms::buildProtectionIp(o);
}

const std::uint64_t kWorkloadSeed = tk::testSeed(42);
const std::uint64_t kEnvSeed = tk::testSeed(7);
const std::uint64_t kFaultSeed = tk::testSeed(11);

struct MemsysBed {
  ms::GateLevelDesign design = smallMemsys();
  zn::ZoneDatabase db;
  zn::EffectsModel fx;
  ij::InjectionEnvironment env;

  MemsysBed()
      : db(zn::extractZones(design.nl)),
        fx(db, design.alarmNames),
        env(ij::EnvironmentBuilder(db, fx)
                .withDetectionWindow(24)
                .build()) {}

  /// The bed's workload over `cycles`, recorded on its design.
  [[nodiscard]] fs::StimulusTrace stimulus(std::uint64_t cycles) const;

  [[nodiscard]] ft::FaultList sampleFaults(const fs::GoldenRun& golden,
                                           std::size_t count) const {
    const auto profile = ij::OperationalProfile::record(db, golden);
    ft::FaultList candidates = ft::allStuckAtFaults(design.nl);
    ft::append(candidates, ft::allSeuFaults(design.nl));
    ij::collapseAgainstProfile(db, profile, candidates);
    return ij::randomizeFaultList(db, profile, candidates, count, kFaultSeed);
  }
};

ms::ProtectionIpWorkload::Options smallWorkload(std::uint64_t cycles) {
  ms::ProtectionIpWorkload::Options o;
  o.cycles = cycles;
  o.seed = kWorkloadSeed;
  return o;
}

fs::StimulusTrace MemsysBed::stimulus(std::uint64_t cycles) const {
  return ms::ProtectionIpWorkload(design, smallWorkload(cycles));
}

void expectRecordsEqual(const ij::CampaignResult& a,
                        const ij::CampaignResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& ra = a.records[i];
    const auto& rb = b.records[i];
    EXPECT_TRUE(ra.fault == rb.fault) << "record " << i;
    EXPECT_EQ(ra.zone, rb.zone) << "record " << i;
    EXPECT_EQ(ra.outcome, rb.outcome) << "record " << i;
    EXPECT_EQ(ra.obs.sens, rb.obs.sens) << "record " << i;
    EXPECT_EQ(ra.obs.sensCycle, rb.obs.sensCycle) << "record " << i;
    EXPECT_EQ(ra.obs.zonesDeviated, rb.obs.zonesDeviated) << "record " << i;
    EXPECT_EQ(ra.obs.obs, rb.obs.obs) << "record " << i;
    EXPECT_EQ(ra.obs.firstObsCycle, rb.obs.firstObsCycle) << "record " << i;
    EXPECT_EQ(ra.obs.obsDeviated, rb.obs.obsDeviated) << "record " << i;
    EXPECT_EQ(ra.obs.diag, rb.obs.diag) << "record " << i;
    EXPECT_EQ(ra.obs.diagCycle, rb.obs.diagCycle) << "record " << i;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// campaign records vs the serial oracle
// ---------------------------------------------------------------------------

TEST(BitslicedCampaignTest, RecordsIdenticalToSerialOracle) {
  SCOPED_TRACE(tk::seedMessage(kWorkloadSeed));
  MemsysBed bed;
  const fs::StimulusTrace stim = bed.stimulus(260);
  const fs::GoldenRun golden(bed.db.compiledShared(), stim);
  const auto faults = bed.sampleFaults(golden, 48);
  ASSERT_GT(faults.size(), 10u);

  ij::InjectionManager mgr(bed.env);

  ij::CampaignOptions serialOpt;
  serialOpt.engine = fs::EngineKind::Serial;  // the reference oracle
  ij::CoverageCollector serialCov(mgr.environment());
  const auto serial = mgr.run(golden, faults, &serialCov, serialOpt);

  for (const unsigned threads : {1u, 4u}) {
    ij::CampaignOptions opt;
    opt.engine = fs::EngineKind::Bitsliced;
    opt.threads = threads;
    ij::CoverageCollector cov(mgr.environment());
    const auto sliced = mgr.run(golden, faults, &cov, opt);
    SCOPED_TRACE("threads=" + std::to_string(threads));

    expectRecordsEqual(serial, sliced);
    EXPECT_EQ(serialCov.injections(), cov.injections());
    EXPECT_EQ(serialCov.mismatches(), cov.mismatches());
    EXPECT_EQ(serialCov.sensEvents(), cov.sensEvents());
    EXPECT_EQ(serialCov.diagEvents(), cov.diagEvents());
    EXPECT_EQ(serial.measuredSff(), sliced.measuredSff());
    EXPECT_EQ(serial.measuredDdf(), sliced.measuredDdf());
    EXPECT_EQ(serial.meanDetectionLatency(), sliced.meanDetectionLatency());
    EXPECT_EQ(serial.maxDetectionLatency(), sliced.maxDetectionLatency());
    // The metrics section of the machine-readable report is byte-identical.
    EXPECT_EQ(serial.toJson().at("metrics").dump(2),
              sliced.toJson().at("metrics").dump(2));
  }
}

// Latent (dual-point) faults: every lane carries the campaign's latent
// fault under its own.  One latent fault per way the engine overlays it — a
// permanent force on an alarm net, a transient flip, a SET pulse (alongside
// campaign SETs in the same cycle) and a memory overlay — must give the
// campaign watch's observations (what the records are mapped from)
// identical to the serial oracle at one and at four threads.  64-lane words
// and more faults than one word holds make groups refill mid-run, and late
// SEUs fill a last group whose golden machine must start over from a clean
// reset after the groups before it.
TEST(BitslicedCampaignTest, LatentFaultRecordsIdenticalToSerialOracle) {
  SCOPED_TRACE(tk::seedMessage(kWorkloadSeed));
  MemsysBed bed;
  const fs::StimulusTrace stim = bed.stimulus(200);
  const fs::GoldenRun run(bed.db.compiledShared(), stim);
  ft::FaultList faults = bed.sampleFaults(run, 96);
  const nl::NetId obsNet = bed.env.obsNets.front();
  const nl::NetId otherObsNet = bed.env.obsNets.back();
  for (const nl::NetId net : {obsNet, otherObsNet}) {
    ft::Fault set;
    set.kind = ft::FaultKind::SetPulse;
    set.net = net;
    set.cycle = 120;
    faults.push_back(set);
  }
  const auto& ffs = bed.design.nl.flipFlops();
  for (std::size_t i = 0; i < 48; ++i) {
    ft::Fault late;
    late.kind = ft::FaultKind::SeuFlip;
    late.cell = ffs[(i * 7) % ffs.size()];
    late.net = bed.design.nl.cell(late.cell).output;
    late.cycle = 150 + i;
    faults.push_back(late);
  }
  ASSERT_GT(faults.size(), 128u);

  std::vector<ft::Fault> latents;
  ft::Fault stuckAlarm;
  stuckAlarm.kind = ft::FaultKind::StuckAt0;
  stuckAlarm.net = bed.env.alarmNets.front();
  latents.push_back(stuckAlarm);
  ft::Fault seu;
  seu.kind = ft::FaultKind::SeuFlip;
  seu.cell = bed.design.nl.flipFlops()[bed.design.nl.flipFlops().size() / 2];
  seu.net = bed.design.nl.cell(seu.cell).output;
  seu.cycle = 90;
  latents.push_back(seu);
  ft::Fault set;
  set.kind = ft::FaultKind::SetPulse;
  set.net = obsNet;
  set.cycle = 120;
  latents.push_back(set);
  ft::Fault memStuck;
  memStuck.kind = ft::FaultKind::MemStuckBit;
  memStuck.mem = 0;
  memStuck.addr = 5;
  memStuck.bit = 1;
  memStuck.stuckValue = true;
  latents.push_back(memStuck);

  const ij::InjectionManager mgr(bed.env);
  const nl::CompiledDesignPtr& cd = bed.db.compiledShared();
  const fs::Watch watch = mgr.watch();
  const fs::GoldenTrace golden = fs::recordGolden(cd, stim, watch);
  for (const ft::Fault& latent : latents) {
    SCOPED_TRACE("latent " + latent.describe(bed.design.nl));
    const auto serial = fs::runSerialWatch(cd, stim, golden, faults, watch,
                                           latent, fs::RetireMode::Classify);
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      expectObservationsEqual(
          bed.design.nl, faults, serial.observations,
          fs::runBitslicedWatch(run, faults, watch, latent,
                                fs::RetireMode::Classify, threads)
              .observations);
    }
  }
}

// Every run records each of the five phase timers once, with the phase
// times it returns; at one thread they tile the worker's time, which lies
// inside the engine's own timer.
TEST(BitslicedCampaignTest, PhaseTimersAddUpInsideTheEngineTimer) {
  MemsysBed bed;
  const fs::StimulusTrace stim = bed.stimulus(160);
  const fs::GoldenRun golden(bed.db.compiledShared(), stim);
  const auto faults = bed.sampleFaults(golden, 40);
  ASSERT_FALSE(faults.empty());
  const ij::InjectionManager mgr(bed.env);
  const auto& reg = socfmea::obs::Registry::global();
  const auto phaseTimer = [&](std::string_view name) {
    return reg.timer("faultsim.bitsliced.phase." + std::string(name));
  };
  std::vector<socfmea::obs::TimerStat> before;
  for (const std::string_view name : fs::kBitslicedPhases) {
    before.push_back(phaseTimer(name));
  }
  const socfmea::obs::TimerStat engineBefore = reg.timer("faultsim.bitsliced");
  const fs::BitslicedCampaign run = fs::runBitslicedWatch(
      golden, faults, mgr.watch(), std::nullopt, fs::RetireMode::Classify);
  const double engine = reg.timer("faultsim.bitsliced").wallSeconds -
                        engineBefore.wallSeconds;
  double sum = 0.0;
  for (std::size_t p = 0; p < fs::kBitslicedPhases.size(); ++p) {
    SCOPED_TRACE(std::string(fs::kBitslicedPhases[p]));
    const socfmea::obs::TimerStat after = phaseTimer(fs::kBitslicedPhases[p]);
    EXPECT_EQ(after.count - before[p].count, 1u);
    EXPECT_GE(run.stats.phaseSeconds[p], 0.0);
    EXPECT_NEAR(after.wallSeconds - before[p].wallSeconds,
                run.stats.phaseSeconds[p], 1e-9);
    sum += run.stats.phaseSeconds[p];
  }
  EXPECT_GT(sum, 0.0);
  EXPECT_LE(sum, engine);
}

// EngineKind::Auto resolves to the bit-sliced engine at every thread count,
// and the records equal the serial oracle's.
TEST(BitslicedCampaignTest, AutoRunsBitslicedAtEveryThreadCount) {
  MemsysBed bed;
  const fs::StimulusTrace stim = bed.stimulus(80);
  const fs::GoldenRun golden(bed.db.compiledShared(), stim);
  const auto faults = bed.sampleFaults(golden, 8);
  ASSERT_FALSE(faults.empty());
  ij::InjectionManager mgr(bed.env);
  ij::CampaignOptions serialOpt;
  serialOpt.engine = fs::EngineKind::Serial;
  const auto serial = mgr.run(golden, faults, nullptr, serialOpt);

  const auto& reg = socfmea::obs::Registry::global();
  const auto slicedMachines = [&] {
    return reg.counter("faultsim.bitsliced.machines");
  };
  const auto serialCampaigns = [&] {
    return reg.timer("inject.campaign.serial").count;
  };
  for (const unsigned threads : {1u, 2u, 0u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ij::CampaignOptions opt;  // engine Auto
    opt.threads = threads;
    const std::uint64_t machines = slicedMachines();
    const std::uint64_t campaigns = serialCampaigns();
    const auto res = mgr.run(golden, faults, nullptr, opt);
    EXPECT_EQ(slicedMachines() - machines, faults.size());
    EXPECT_EQ(serialCampaigns(), campaigns);
    expectRecordsEqual(serial, res);
  }
}

// ---------------------------------------------------------------------------
// random-property sweep: 200 designs, full fault model
// ---------------------------------------------------------------------------

TEST(BitslicedPropertyTest, TwoHundredRandomDesignsBitIdenticalToSerial) {
  const std::uint64_t base = tk::testSeed(0xB5D);
  std::size_t faultsChecked = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::uint64_t seed = tk::derivedSeed(base, i);
    SCOPED_TRACE(tk::seedMessage(seed));
    sm::Rng rng(seed);
    tk::GeneratorOptions g = tk::randomOptions(rng);
    const nl::Netlist n = tk::generateNetlist(g, rng);
    tk::PlanOptions po = tk::randomPlanOptions(rng);
    const tk::TestPlan plan = tk::generatePlan(n, po, rng);
    if (plan.faults.empty()) continue;
    const fs::StimulusTrace& stim = plan.stim;

    const auto cd = nl::compile(n);
    // Every other case simulates the fault list reversed and maps the
    // records back.  The scheduler's stable sort keeps list order among
    // faults with equal activation keys, so the reversal changes which
    // faults share a word group and in which order refills happen.
    const bool reversed = i % 2 == 1;
    ft::FaultList faults = plan.faults;
    if (reversed) std::reverse(faults.begin(), faults.end());
    std::vector<fs::Observation> sliced =
        slicedRun(cd, stim, faults, fs::RetireMode::DetectOnly).observations;
    if (reversed) std::reverse(sliced.begin(), sliced.end());
    expectObservationsEqual(n, plan.faults,
                            tk::serialOutputs(cd, stim, plan.faults), sliced);
    faultsChecked += plan.faults.size();
  }
  // The sweep must have exercised a real fault population.
  EXPECT_GT(faultsChecked, 500u);
}

namespace {

/// The nets of the combinational fan-in cones of `mem`'s port pins
/// (address, write data, write and read enable), through to flip-flop Q
/// nets and primary inputs.
std::vector<nl::NetId> portCone(const nl::Netlist& n,
                                const nl::MemoryInst& mem) {
  std::vector<nl::NetId> todo = mem.addr;
  todo.insert(todo.end(), mem.wdata.begin(), mem.wdata.end());
  todo.push_back(mem.writeEnable);
  if (mem.readEnable != nl::kNoNet) todo.push_back(mem.readEnable);
  std::vector<char> seen(n.netCount(), 0);
  std::vector<nl::NetId> cone;
  while (!todo.empty()) {
    const nl::NetId net = todo.back();
    todo.pop_back();
    if (seen[net] != 0) continue;
    seen[net] = 1;
    cone.push_back(net);
    const nl::CellId drv = n.net(net).driver;
    if (drv == nl::kNoCell || n.cell(drv).type == nl::CellType::Dff) continue;
    for (const nl::NetId in : n.cell(drv).inputs) todo.push_back(in);
  }
  return cone;
}

}  // namespace

// Memories 33 to 64 bits wide, with 32 to 256 words, under faults that make
// many lanes diverge on the port in the same cycle: stuck-ats and SEUs on
// the port's fan-in cones, and every memory fault kind, high data bits
// included.  More faults than one word group holds, so the top lane takes
// part too, and the word-parallel port's transposes see every row.
TEST(BitslicedPropertyTest, WideMemoriesOnRandomDesignsMatchSerial) {
  const std::uint64_t base = tk::testSeed(0x3E3);
  std::size_t faultsChecked = 0;
  std::size_t fullWidth = 0;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const std::uint64_t seed = tk::derivedSeed(base, i);
    SCOPED_TRACE(tk::seedMessage(seed));
    sm::Rng rng(seed);
    tk::GeneratorOptions g = tk::randomOptions(rng);
    g.memories = 1;
    g.memDataBits =
        i % 4 == 0 ? 64 : static_cast<std::uint32_t>(rng.range(33, 64));
    g.memAddrBits = static_cast<std::uint32_t>(rng.range(5, 8));
    const nl::Netlist n = tk::generateNetlist(g, rng);
    const nl::MemoryInst& mem = n.memory(0);
    if (mem.dataBits == 64) ++fullWidth;
    tk::PlanOptions po = tk::randomPlanOptions(rng);
    po.cycles = rng.range(48, 96);
    po.memFaults = 0;
    tk::TestPlan plan = tk::generatePlan(n, po, rng);

    const std::vector<nl::NetId> cone = portCone(n, mem);
    const std::vector<nl::CellId> ffs = n.flipFlops();
    const auto add = [&](ft::Fault f) { plan.faults.push_back(f); };
    for (int k = 0; k < 24; ++k) {
      ft::Fault f;
      f.kind = rng.coin() ? ft::FaultKind::StuckAt1 : ft::FaultKind::StuckAt0;
      f.net = cone[rng.below(cone.size())];
      add(f);
    }
    for (int k = 0; k < 12 && !ffs.empty(); ++k) {
      ft::Fault f;
      f.kind = ft::FaultKind::SeuFlip;
      f.cell = ffs[rng.below(ffs.size())];
      f.net = n.cell(f.cell).output;
      f.cycle = rng.below(plan.cycles());
      add(f);
    }
    const std::uint64_t words = std::uint64_t{1} << mem.addrBits;
    const auto anyBit = [&] {
      // Half the draws hit the top data bit.
      return static_cast<std::uint32_t>(
          rng.coin() ? mem.dataBits - 1 : rng.below(mem.dataBits));
    };
    const auto addMem = [&](ft::FaultKind kind) {
      for (int k = 0; k < 8; ++k) {
        ft::Fault f;
        f.kind = kind;
        f.mem = 0;
        f.addr = rng.below(words);
        f.addr2 = (f.addr + 1 + rng.below(words - 1)) % words;
        f.bit = anyBit();
        f.stuckValue = rng.coin();
        if (kind == ft::FaultKind::MemSoftError) {
          f.cycle = rng.below(plan.cycles());
        }
        add(f);
      }
    };
    addMem(ft::FaultKind::MemStuckBit);
    addMem(ft::FaultKind::MemAddrNone);
    addMem(ft::FaultKind::MemAddrWrong);
    addMem(ft::FaultKind::MemAddrMulti);
    addMem(ft::FaultKind::MemCoupling);
    addMem(ft::FaultKind::MemSoftError);
    ASSERT_GT(plan.faults.size(), std::size_t{fs::kLanes});

    const auto cd = nl::compile(n);
    expectObservationsEqual(
        n, plan.faults,
        tk::serialOutputs(cd, plan.stim, plan.faults,
                          fs::RetireMode::WashoutOnly),
        slicedRun(cd, plan.stim, plan.faults, fs::RetireMode::WashoutOnly)
            .observations);
    faultsChecked += plan.faults.size();
  }
  EXPECT_GE(fullWidth, 10u);
  EXPECT_GT(faultsChecked, 3000u);
}

// Latent faults over the full fault model: every pair of fault kinds can
// share a lane, so this sweeps two-fault interactions the memsys campaign
// never draws — bridges next to stuck-at, SET and other bridges included.
TEST(BitslicedPropertyTest, LatentFaultsOnRandomDesignsMatchSerial) {
  const std::uint64_t base = tk::testSeed(0x1A7E);
  std::size_t recordsChecked = 0;
  for (std::uint64_t i = 0; i < 120; ++i) {
    const std::uint64_t seed = tk::derivedSeed(base, i);
    SCOPED_TRACE(tk::seedMessage(seed));
    sm::Rng rng(seed);
    const tk::GeneratorOptions g = tk::randomOptions(rng);
    const nl::Netlist n = tk::generateNetlist(g, rng);
    const zn::ZoneDatabase db = zn::extractZones(n);
    if (db.size() == 0) continue;
    const zn::EffectsModel fx(db, {});
    const auto env = ij::EnvironmentBuilder(db, fx)
                         .withDetectionWindow(4)
                         .build();
    const tk::TestPlan plan =
        tk::generatePlan(n, tk::randomPlanOptions(rng), rng);
    if (plan.faults.empty()) continue;
    const fs::StimulusTrace& stim = plan.stim;
    const ij::InjectionManager mgr(env);
    const nl::CompiledDesignPtr& cd = db.compiledShared();
    const fs::Watch watch = mgr.watch();
    const fs::GoldenTrace golden = fs::recordGolden(cd, stim, watch);
    const fs::GoldenRun run(cd, stim);
    for (int k = 0; k < 3; ++k) {
      const ft::Fault latent = plan.faults[rng.below(plan.faults.size())];
      SCOPED_TRACE("latent " + latent.describe(n));
      const auto serial =
          fs::runSerialWatch(cd, stim, golden, plan.faults, watch, latent,
                             fs::RetireMode::Classify);
      expectObservationsEqual(
          n, plan.faults, serial.observations,
          fs::runBitslicedWatch(run, plan.faults, watch, latent,
                                fs::RetireMode::Classify)
              .observations);
      recordsChecked += serial.observations.size();
    }
  }
  EXPECT_GT(recordsChecked, 1000u);
}
