// Tests for the bit-sliced fault-parallel engine (faultsim/bitsliced.*,
// faultsim/lanes.*) and the primitives it stands on: BitWord pack/unpack
// algebra, the lane scheduler's permanents-first ordering and refill
// contract, the thread pool that fans word groups out, active-list-bounded
// activity, per-fault-kind divergence agreement with the serial oracle on a
// design with flip-flops and a behavioural memory, lane retirement / refill
// invariants, campaign-record equality on the memsys protection IP (with
// and without a latent fault), EngineKind::Auto resolution (with its serial
// fallback when X survives reset), and a 200-design random-property sweep
// over the full fault model.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "core/thread_pool.hpp"
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
#include "testkit/plan.hpp"
#include "testkit/seed.hpp"
#include "zones/extract.hpp"

namespace tk = socfmea::testkit;
namespace nl = socfmea::netlist;
namespace zn = socfmea::zones;
namespace ft = socfmea::fault;
namespace fs = socfmea::faultsim;
namespace ij = socfmea::inject;
namespace sm = socfmea::sim;
namespace ms = socfmea::memsys;
namespace co = socfmea::core;

namespace {

// ---------------------------------------------------------------------------
// BitWord
// ---------------------------------------------------------------------------

template <typename W>
class BitWordTest : public ::testing::Test {};

using Widths = ::testing::Types<fs::BitWord<1>, fs::BitWord<2>, fs::BitWord<4>>;
TYPED_TEST_SUITE(BitWordTest, Widths);

TYPED_TEST(BitWordTest, PackUnpackRoundTrip) {
  using W = TypeParam;
  sm::Rng rng(0xB17);
  W w = W::zero();
  std::vector<bool> ref(W::kLanes, false);
  for (int step = 0; step < 400; ++step) {
    const unsigned lane = static_cast<unsigned>(rng.below(W::kLanes));
    if (rng.below(2) != 0) {
      w.setBit(lane);
      ref[lane] = true;
    } else {
      w.clearBit(lane);
      ref[lane] = false;
    }
  }
  unsigned expectPop = 0;
  for (unsigned lane = 0; lane < W::kLanes; ++lane) {
    EXPECT_EQ(w.bit(lane), ref[lane]) << "lane " << lane;
    expectPop += ref[lane] ? 1u : 0u;
  }
  EXPECT_EQ(w.popcount(), expectPop);
  EXPECT_EQ(w.any(), expectPop > 0);
}

TYPED_TEST(BitWordTest, Algebra) {
  using W = TypeParam;
  EXPECT_TRUE(W::zero().none());
  EXPECT_EQ(W::ones().popcount(), W::kLanes);
  EXPECT_EQ(W::broadcast(true), W::ones());
  EXPECT_EQ(W::broadcast(false), W::zero());
  EXPECT_EQ(~W::zero(), W::ones());
  for (unsigned lane = 0; lane < W::kLanes; lane += 7) {
    const W m = W::laneMask(lane);
    EXPECT_EQ(m.popcount(), 1u);
    EXPECT_TRUE(m.bit(lane));
    EXPECT_EQ(andnot(W::ones(), m).popcount(), W::kLanes - 1);
    EXPECT_EQ((m ^ m), W::zero());
    EXPECT_EQ((m | m), m);
    EXPECT_EQ((m & W::ones()), m);
  }
  // andnot(a, c) == a & ~c on a random pair.
  sm::Rng rng(0xA11);
  W a = W::zero(), c = W::zero();
  for (int i = 0; i < 64; ++i) {
    a.setBit(static_cast<unsigned>(rng.below(W::kLanes)));
    c.setBit(static_cast<unsigned>(rng.below(W::kLanes)));
  }
  EXPECT_EQ(andnot(a, c), (a & ~c));
}

// SOCFMEA_NO_SIMD=1 (the CI portable leg) is a global kill-switch: every
// request resolves to the 64-lane scalar width.
[[nodiscard]] bool noSimdEnv() {
  const char* v = std::getenv("SOCFMEA_NO_SIMD");
  return v != nullptr && v[0] != '\0' && std::string_view(v) != "0";
}

TEST(LaneWidthTest, ResolveRoundsDown) {
  if (noSimdEnv()) {
    for (const unsigned req : {0u, 1u, 2u, 3u, 4u, 9u})
      EXPECT_EQ(fs::resolveLaneWords(req), 1u) << "req=" << req;
    EXPECT_STREQ(fs::simdTargetName(), "portable");
    return;
  }
  EXPECT_EQ(fs::resolveLaneWords(1), 1u);
  EXPECT_EQ(fs::resolveLaneWords(2), 2u);
  EXPECT_EQ(fs::resolveLaneWords(3), 2u);
  EXPECT_EQ(fs::resolveLaneWords(4), 4u);
  EXPECT_EQ(fs::resolveLaneWords(9), 4u);
  const unsigned autoW = fs::resolveLaneWords(0);
  EXPECT_TRUE(autoW == 1 || autoW == 2 || autoW == 4);
  EXPECT_NE(fs::simdTargetName(), nullptr);
}

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
// thread pool (one word group per task)
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  co::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> seen(1000);
  pool.parallelFor(seen.size(), 7, [&](unsigned worker, std::size_t i) {
    ASSERT_LT(worker, pool.size());
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  co::ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(100, 1, [&](unsigned, std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPoolTest, PropagatesException) {
  co::ThreadPool pool(2);
  EXPECT_THROW(pool.parallelFor(10, 1,
                                [&](unsigned, std::size_t i) {
                                  if (i == 3) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool survives the throw.
  std::atomic<int> n{0};
  pool.parallelFor(8, 1, [&](unsigned, std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 8);
}

TEST(ThreadPoolTest, ZeroResolvesToHardwareConcurrency) {
  EXPECT_GE(co::resolveThreadCount(0), 1u);
  EXPECT_EQ(co::resolveThreadCount(5), 5u);
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

void expectVerdictsEqual(const nl::Netlist& n, const ft::FaultList& faults,
                         const fs::FaultSimResult& serial,
                         const fs::FaultSimResult& sliced) {
  ASSERT_EQ(serial.outcomes.size(), sliced.outcomes.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(serial.outcomes[i], sliced.outcomes[i])
        << faults[i].describe(n);
  }
  EXPECT_EQ(serial.detected, sliced.detected);
}

}  // namespace

// ---------------------------------------------------------------------------
// per-fault-kind divergence agreement
// ---------------------------------------------------------------------------

// Every fault kind of the model, handcrafted on the memory design, must get
// the same verdict from the bit-sliced engine and the serial oracle — at
// every lane width.
TEST(BitslicedKindTest, EveryFaultKindMatchesSerial) {
  MemDesign d;
  ij::RandomWorkload wl(d.n, 90, tk::testSeed(21), {{d.rst, false}});

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

  const auto serial = fs::runSerialFaultSim(d.n, wl, faults);
  // Enough stimulus lands on the memory for most kinds to matter; the test
  // is only meaningful if some faults really diverge.
  EXPECT_GT(serial.detected, 4u);

  for (const unsigned laneWords : {1u, 2u, 4u}) {
    fs::FaultSimOptions opt;
    opt.laneWords = laneWords;
    fs::BitslicedStats stats;
    const auto sliced = fs::runBitslicedFaultSim(d.n, wl, faults, opt, &stats);
    SCOPED_TRACE("laneWords=" + std::to_string(laneWords));
    expectVerdictsEqual(d.n, faults, serial, sliced);
    EXPECT_EQ(stats.laneWords, fs::resolveLaneWords(laneWords));
    EXPECT_GT(stats.wordCycles, 0u);
  }
}

TEST(BitslicedKindTest, EarlyAbortOffStillMatches) {
  MemDesign d;
  ij::RandomWorkload wl(d.n, 70, tk::testSeed(22), {{d.rst, false}});
  ft::FaultList faults = ft::allStuckAtFaults(d.n);
  ft::collapseStuckAt(d.n, faults);
  fs::FaultSimOptions full;
  full.earlyAbort = false;
  const auto serial = fs::runSerialFaultSim(d.n, wl, faults, full);
  const auto sliced = fs::runBitslicedFaultSim(d.n, wl, faults, full);
  expectVerdictsEqual(d.n, faults, serial, sliced);
}

// ---------------------------------------------------------------------------
// retirement / refill / occupancy invariants
// ---------------------------------------------------------------------------

TEST(BitslicedRetireTest, RetiresRefillsAndStaysWithinCapacity) {
  DataPath d;
  ij::RandomWorkload wl(d.n, 120, tk::testSeed(23), {{d.rst, false}});
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

  const auto serial = fs::runSerialFaultSim(d.n, wl, faults);

  fs::FaultSimOptions opt;
  opt.laneWords = 1;
  fs::BitslicedStats stats;
  const auto sliced = fs::runBitslicedFaultSim(d.n, wl, faults, opt, &stats);
  expectVerdictsEqual(d.n, faults, serial, sliced);

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
  EXPECT_LT(stats.laneCycles, faults.size() * wl.cycles());
  EXPECT_GE(stats.wordGroups, (faults.size() + 63) / 64);
}

TEST(BitslicedRetireTest, WithoutEarlyAbortOnlyWashoutRetires) {
  DataPath d;
  ij::RandomWorkload wl(d.n, 80, tk::testSeed(24), {{d.rst, false}});
  ft::FaultList faults = ft::allStuckAtFaults(d.n);
  ft::collapseStuckAt(d.n, faults);
  fs::FaultSimOptions opt;
  opt.earlyAbort = false;
  fs::BitslicedStats stats;
  const auto sliced = fs::runBitslicedFaultSim(d.n, wl, faults, opt, &stats);
  (void)sliced;
  // Permanent faults can never wash out, so nothing retires early.
  EXPECT_EQ(stats.lanesRetiredEarly, 0u);
  EXPECT_EQ(stats.convergedEarly, 0u);
}

TEST(BitslicedRetireTest, TransientsWashOutAndConverge) {
  DataPath d;
  ij::RandomWorkload wl(d.n, 120, tk::testSeed(25), {{d.rst, false}});
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
  fs::FaultSimOptions opt;
  opt.earlyAbort = false;
  const auto serial = fs::runSerialFaultSim(d.n, wl, faults, opt);
  fs::BitslicedStats stats;
  const auto sliced = fs::runBitslicedFaultSim(d.n, wl, faults, opt, &stats);
  expectVerdictsEqual(d.n, faults, serial, sliced);
  // The register is reloaded every cycle, so every undetected SEU's
  // divergence is provably gone shortly after injection.
  EXPECT_GT(stats.convergedEarly, 0u);
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

  ij::RandomWorkload wl(n, 40, tk::testSeed(26));
  ft::FaultList faults;
  ft::Fault f;
  f.kind = ft::FaultKind::StuckAt1;
  f.net = taps[35];  // deep in the chain
  faults.push_back(f);

  const auto serial = fs::runSerialFaultSim(n, wl, faults);
  fs::FaultSimOptions opt;
  opt.earlyAbort = false;  // keep the lane alive so every cycle sweeps
  const auto serialFull = fs::runSerialFaultSim(n, wl, faults, opt);
  const auto sliced = fs::runBitslicedFaultSim(n, wl, faults, opt);
  expectVerdictsEqual(n, faults, serialFull, sliced);
  EXPECT_EQ(serial.detected, sliced.detected);
}

// ---------------------------------------------------------------------------
// threads / laneWords composition
// ---------------------------------------------------------------------------

TEST(BitslicedThreadsTest, VerdictsIdenticalAcrossThreadCounts) {
  DataPath d;
  ij::RandomWorkload wl(d.n, 100, tk::testSeed(27), {{d.rst, false}});
  ft::FaultList faults = ft::allStuckAtFaults(d.n);
  for (nl::CellId ff : d.n.flipFlops()) {
    ft::Fault f;
    f.kind = ft::FaultKind::SeuFlip;
    f.cell = ff;
    f.net = d.n.cell(ff).output;
    f.cycle = 60;
    faults.push_back(f);
  }
  const auto serial = fs::runSerialFaultSim(d.n, wl, faults);
  for (const unsigned threads : {2u, 8u}) {
    fs::FaultSimOptions opt;
    opt.threads = threads;
    opt.laneWords = 1;  // several word groups -> real work sharing
    fs::BitslicedStats stats;
    const auto sliced = fs::runBitslicedFaultSim(d.n, wl, faults, opt, &stats);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expectVerdictsEqual(d.n, faults, serial, sliced);
    EXPECT_EQ(stats.workers, threads);
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
                .withSeed(kEnvSeed)
                .withDetectionWindow(24)
                .build()) {}

  [[nodiscard]] ft::FaultList sampleFaults(ms::ProtectionIpWorkload& wl,
                                           std::size_t count) const {
    const auto profile = ij::OperationalProfile::record(db, wl);
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
  ms::ProtectionIpWorkload wl(bed.design, smallWorkload(260));
  const auto faults = bed.sampleFaults(wl, 48);
  ASSERT_GT(faults.size(), 10u);

  ij::InjectionManager mgr(bed.design.nl, bed.env);

  ij::CampaignOptions serialOpt;
  serialOpt.engine = fs::EngineKind::Serial;  // the reference oracle
  ij::CoverageCollector serialCov(mgr.environment());
  const auto serial = mgr.run(wl, faults, &serialCov, serialOpt);

  for (const unsigned threads : {1u, 4u}) {
    ij::CampaignOptions opt;
    opt.engine = fs::EngineKind::Bitsliced;
    opt.threads = threads;
    ij::CoverageCollector cov(mgr.environment());
    const auto sliced = mgr.run(wl, faults, &cov, opt);
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
// campaign SETs in the same cycle) and a memory overlay — must give records
// identical to the serial oracle at one and at four threads.  64-lane words
// and more faults than one word holds make groups refill mid-run, and late
// SEUs fill a last group whose golden machine must restart from a clean
// reset after the groups before it.
TEST(BitslicedCampaignTest, LatentFaultRecordsIdenticalToSerialOracle) {
  SCOPED_TRACE(tk::seedMessage(kWorkloadSeed));
  MemsysBed bed;
  ms::ProtectionIpWorkload wl(bed.design, smallWorkload(200));
  ft::FaultList faults = bed.sampleFaults(wl, 96);
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

  ij::InjectionManager mgr(bed.design.nl, bed.env);
  for (const ft::Fault& latent : latents) {
    SCOPED_TRACE("latent " + latent.describe(bed.design.nl));
    ij::CampaignOptions serialOpt;
    serialOpt.engine = fs::EngineKind::Serial;
    serialOpt.preexisting = latent;
    const auto serial = mgr.run(wl, faults, nullptr, serialOpt);
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ij::CampaignOptions opt = serialOpt;
      opt.engine = fs::EngineKind::Bitsliced;
      opt.threads = threads;
      opt.laneWords = 1;
      const auto sliced = mgr.run(wl, faults, nullptr, opt);
      expectRecordsEqual(serial, sliced);
    }
  }
}

// EngineKind::Auto resolves to the bit-sliced engine at every thread count,
// and the records equal the serial oracle's.
TEST(BitslicedCampaignTest, AutoRunsBitslicedAtEveryThreadCount) {
  MemsysBed bed;
  ms::ProtectionIpWorkload wl(bed.design, smallWorkload(80));
  const auto faults = bed.sampleFaults(wl, 8);
  ASSERT_FALSE(faults.empty());
  ij::InjectionManager mgr(bed.design.nl, bed.env);
  ij::CampaignOptions serialOpt;
  serialOpt.engine = fs::EngineKind::Serial;
  const auto serial = mgr.run(wl, faults, nullptr, serialOpt);

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
    const auto res = mgr.run(wl, faults, nullptr, opt);
    EXPECT_EQ(slicedMachines() - machines, faults.size());
    EXPECT_EQ(serialCampaigns(), campaigns);
    expectRecordsEqual(serial, res);
  }
}

// X after reset: one flip-flop has no reset and samples an undriven net, so
// the golden machine is not two-state.  Auto falls back to the serial
// oracle, counted once per campaign; an explicit Bitsliced still throws.
TEST(BitslicedCampaignTest, AutoFallsBackToSerialWhenXSurvivesReset) {
  nl::Netlist n{"xreset"};
  nl::NetId rst;
  {
    nl::Builder bl(n);
    rst = bl.input("rst");
    const nl::Bus a = bl.inputBus("a", 4);
    const auto q = bl.registerBus("r", a, nl::kNoNet, rst, 0);
    const nl::NetId undriven = n.addNet("undriven");
    const nl::NetId u = n.addNet("u_q");
    n.addDff("u", undriven, u, nl::kNoNet, nl::kNoNet, false);
    bl.outputBus("q", q);
    bl.output("par", bl.bxor(bl.reduceXor(q), u));
  }
  EXPECT_FALSE(fs::isTwoState(sm::Simulator(n)));
  const zn::ZoneDatabase db = zn::extractZones(n);
  const zn::EffectsModel fx(db, {});
  const auto env = ij::EnvironmentBuilder(db, fx)
                       .withSeed(kEnvSeed)
                       .withDetectionWindow(4)
                       .build();
  ij::RandomWorkload wl(n, 40, tk::testSeed(31), {{rst, false}});
  const ft::FaultList faults = ft::allStuckAtFaults(n);
  ASSERT_FALSE(faults.empty());
  ij::InjectionManager mgr(n, env);

  ij::CampaignOptions serialOpt;
  serialOpt.engine = fs::EngineKind::Serial;
  const auto serial = mgr.run(wl, faults, nullptr, serialOpt);

  const auto& reg = socfmea::obs::Registry::global();
  const std::uint64_t fallbacks = reg.counter("inject.auto_serial_fallbacks");
  const auto autoRun = mgr.run(wl, faults);  // engine Auto
  EXPECT_EQ(reg.counter("inject.auto_serial_fallbacks") - fallbacks, 1u);
  expectRecordsEqual(serial, autoRun);

  ij::CampaignOptions slicedOpt;
  slicedOpt.engine = fs::EngineKind::Bitsliced;
  EXPECT_THROW((void)mgr.run(wl, faults, nullptr, slicedOpt),
               std::invalid_argument);
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
    ij::VectorWorkload wl(plan.name, plan.inputs, plan.stimulus);

    fs::FaultSimOptions o;
    const auto serial = fs::runSerialFaultSim(n, wl, plan.faults, o);
    // Rotate the lane width with the case index so every width soaks.
    o.laneWords = (i % 3 == 0) ? 1 : (i % 3 == 1) ? 2 : 4;
    const auto sliced = fs::runBitslicedFaultSim(n, wl, plan.faults, o);
    expectVerdictsEqual(n, plan.faults, serial, sliced);
    faultsChecked += plan.faults.size();
  }
  // The sweep must have exercised a real fault population.
  EXPECT_GT(faultsChecked, 500u);
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
                         .withSeed(seed)
                         .withDetectionWindow(4)
                         .build();
    const tk::TestPlan plan =
        tk::generatePlan(n, tk::randomPlanOptions(rng), rng);
    if (plan.faults.empty()) continue;
    ij::VectorWorkload wl(plan.name, plan.inputs, plan.stimulus);
    ij::InjectionManager mgr(n, env);
    for (int k = 0; k < 3; ++k) {
      ij::CampaignOptions serialOpt;
      serialOpt.engine = fs::EngineKind::Serial;
      serialOpt.preexisting = plan.faults[rng.below(plan.faults.size())];
      SCOPED_TRACE("latent " + serialOpt.preexisting->describe(n));
      const auto serial = mgr.run(wl, plan.faults, nullptr, serialOpt);
      ij::CampaignOptions opt = serialOpt;
      opt.engine = fs::EngineKind::Bitsliced;
      opt.laneWords = 1;
      expectRecordsEqual(serial, mgr.run(wl, plan.faults, nullptr, opt));
      recordsChecked += serial.records.size();
    }
  }
  EXPECT_GT(recordsChecked, 1000u);
}
