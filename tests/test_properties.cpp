// Cross-cutting property suites (TEST_P sweeps over seeds/configurations):
//   * fault-collapsing equivalence: a collapsed representative has exactly
//     the same detectability as the original fault;
//   * full-design .snl round-trip: the generated protection IP survives
//     write -> parse -> simulate identically;
//   * campaign determinism: identical seeds give identical outcomes;
//   * Hamming SEC-DED over the full single+double error space for sampled
//     data words.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/frmem_config.hpp"
#include "fault/collapse.hpp"
#include "faultsim/serial.hpp"
#include "inject/manager.hpp"
#include "inject/workload.hpp"
#include "memsys/hamming.hpp"
#include "memsys/workloads.hpp"
#include "netlist/compiled.hpp"
#include "netlist/text_format.hpp"
#include "sim/rng.hpp"
#include "testkit/oracle.hpp"
#include "testkit/seed.hpp"

namespace tk = socfmea::testkit;
namespace nl = socfmea::netlist;
namespace ft = socfmea::fault;
namespace fs = socfmea::faultsim;
namespace ij = socfmea::inject;
namespace ms = socfmea::memsys;
namespace sm = socfmea::sim;

// ---------------------------------------------------------------------------
// collapsing preserves detectability
// ---------------------------------------------------------------------------

namespace {

// Chain design with buffers/inverters so collapsing has work to do.
struct ChainDesign {
  nl::Netlist n{"chain"};
  nl::NetId rst;

  ChainDesign() {
    nl::Builder b(n);
    rst = b.input("rst");
    const auto a = b.inputBus("a", 4);
    nl::Bus x = a;
    // Alternating buffer/inverter chains into a register and outputs.
    for (int i = 0; i < 4; ++i) {
      x[static_cast<std::size_t>(i)] =
          (i % 2 == 0) ? b.bnot(b.bbuf(x[i])) : b.bbuf(b.bnot(x[i]));
    }
    const auto q = b.registerBus("r", x, nl::kNoNet, rst, 0);
    b.outputBus("y", q);
    b.output("p", b.reduceXor(q));
    n.check();
  }
};

}  // namespace

class CollapseEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CollapseEquivalence, RepresentativeHasSameDetectability) {
  SCOPED_TRACE(tk::seedMessage(GetParam()));
  ChainDesign d;
  const ij::RandomWorkload stim(d.n, 60, GetParam(), {{d.rst, false}});

  ft::FaultList original = ft::allStuckAtFaults(d.n);
  ft::FaultList collapsed = original;
  const auto stats = ft::collapseStuckAt(d.n, collapsed);
  ASSERT_LT(stats.after, stats.before);  // something actually collapsed

  const auto cd = nl::compile(d.n);
  // Each original fault must have the same verdict as its representative.
  const auto originalRes = tk::serialOutputs(cd, stim, original);
  for (std::size_t i = 0; i < original.size(); ++i) {
    ft::FaultList one{original[i]};
    ft::collapseStuckAt(d.n, one);
    const auto repRes = tk::serialOutputs(cd, stim, one);
    EXPECT_EQ(originalRes[i].obs, repRes[0].obs)
        << original[i].describe(d.n) << " vs representative "
        << one[0].describe(d.n);
  }
}

// Historical seeds by default; SOCFMEA_TEST_SEED derives a fresh sweep.
INSTANTIATE_TEST_SUITE_P(Seeds, CollapseEquivalence,
                         ::testing::Values(tk::testSeed(1), tk::testSeed(7),
                                           tk::testSeed(23)));

// ---------------------------------------------------------------------------
// full-design .snl round trip
// ---------------------------------------------------------------------------

class SnlRoundTrip : public ::testing::TestWithParam<bool> {};

TEST_P(SnlRoundTrip, ProtectionIpSimulatesIdentically) {
  const auto opt = GetParam() ? ms::GateLevelOptions::v2()
                              : ms::GateLevelOptions::v1();
  const auto design = ms::buildProtectionIp(opt);
  const auto reparsed =
      nl::readNetlistString(nl::writeNetlistString(design.nl));

  // Same golden output trace cycle by cycle on both netlists.
  ms::ProtectionIpWorkload::Options wopt;
  wopt.cycles = 400;
  const nl::CompiledDesignPtr cd = nl::compile(design.nl);
  const ms::ProtectionIpWorkload stim(design, wopt);
  // The same trace on the reparsed design, its inputs rebound by name.
  fs::StimulusTrace rebound = stim;
  for (nl::NetId& in : rebound.inputs) {
    in = *reparsed.findNet(design.nl.net(in).name);
  }

  sm::Simulator s1(cd);
  sm::Simulator s2(reparsed);
  std::vector<nl::NetId> nets1;
  std::vector<nl::NetId> nets2;
  for (nl::CellId po : design.nl.primaryOutputs()) {
    nets1.push_back(design.nl.cell(po).inputs[0]);
  }
  for (nl::CellId po : reparsed.primaryOutputs()) {
    nets2.push_back(reparsed.cell(po).inputs[0]);
  }
  ASSERT_EQ(nets1.size(), nets2.size());

  for (std::uint64_t c = 0; c < wopt.cycles; ++c) {
    stim.apply(s1, c);
    rebound.apply(s2, c);
    s1.evalComb();
    s2.evalComb();
    for (std::size_t i = 0; i < nets1.size(); ++i) {
      ASSERT_EQ(s1.value(nets1[i]), s2.value(nets2[i]))
          << "cycle " << c << " output " << i;
    }
    s1.clockEdge();
    s2.clockEdge();
  }
}

INSTANTIATE_TEST_SUITE_P(Versions, SnlRoundTrip, ::testing::Values(false, true));

// ---------------------------------------------------------------------------
// campaign determinism
// ---------------------------------------------------------------------------

TEST(DeterminismTest, IdenticalSeedsGiveIdenticalCampaigns) {
  const std::uint64_t seed = tk::testSeed(31);
  SCOPED_TRACE(tk::seedMessage(seed));
  const auto design = ms::buildProtectionIp(ms::GateLevelOptions::v2());
  socfmea::core::FmeaFlow flow(design.nl,
                               socfmea::core::makeFrmemFlowConfig(design));
  ms::ProtectionIpWorkload::Options wopt;
  wopt.cycles = 600;
  const ms::ProtectionIpWorkload stim(design, wopt);
  const fs::GoldenRun golden(flow.zones().compiledShared(), stim);

  const auto runOnce = [&] {
    const auto env =
        ij::EnvironmentBuilder(flow.zones(), flow.effects()).build();
    ij::InjectionManager mgr(env);
    const auto profile = ij::OperationalProfile::record(flow.zones(), golden);
    auto faults = mgr.zoneFailureFaults(profile, 1, seed);
    faults.resize(std::min<std::size_t>(faults.size(), 40));
    const auto res = mgr.run(golden, faults);
    std::vector<int> outcomes;
    for (const auto& r : res.records) {
      outcomes.push_back(static_cast<int>(r.outcome));
    }
    return outcomes;
  };
  EXPECT_EQ(runOnce(), runOnce());
}

// ---------------------------------------------------------------------------
// event-driven vs full-settle evaluation equivalence
// ---------------------------------------------------------------------------

// Random stimulus and random fault hooks (forces, releases, SEU flips, a
// bridging-fault window) driven through two machines over the SAME compiled
// design, one event-driven and one full-settle: every net value, flip-flop
// state, memory read register and memory content must agree every cycle.
// This is the oracle the event-driven worklist is held to.
class EvalModeEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EvalModeEquivalence, BitIdenticalUnderRandomFaultHooks) {
  SCOPED_TRACE(tk::seedMessage(GetParam()));
  const auto design = ms::buildProtectionIp(ms::GateLevelOptions::v2());
  const auto& n = design.nl;
  const auto cd = nl::compile(n);
  sm::Simulator ev(cd);
  sm::Simulator full(cd);
  full.setEvalMode(sm::EvalMode::FullSettle);
  ASSERT_EQ(ev.evalMode(), sm::EvalMode::EventDriven);
  for (nl::MemoryId m = 0; m < n.memoryCount(); ++m) {
    ev.memory(m).fillAll(0);
    full.memory(m).fillAll(0);
  }

  std::vector<nl::NetId> inputNets;
  for (nl::CellId pi : n.primaryInputs()) {
    inputNets.push_back(n.cell(pi).output);
  }
  const auto ffs = n.flipFlops();
  sm::Rng rng(GetParam());
  std::vector<nl::NetId> forced;

  constexpr std::uint64_t kCycles = 120;
  constexpr std::uint64_t kBridgeFrom = 60;
  constexpr std::uint64_t kBridgeTo = 66;
  for (std::uint64_t c = 0; c < kCycles; ++c) {
    for (nl::NetId in : inputNets) {
      const auto v = sm::fromBool((rng.next() & 1) != 0);
      ev.setInput(in, v);
      full.setInput(in, v);
    }
    // Random fault hooks, mirrored onto both machines.
    if (rng.below(8) == 0) {
      const nl::CellId ff = ffs[rng.below(ffs.size())];
      ev.flipFf(ff);
      full.flipFf(ff);
    }
    if (rng.below(8) == 0) {
      const auto net = static_cast<nl::NetId>(rng.below(n.netCount()));
      const auto v = sm::fromBool((rng.next() & 1) != 0);
      ev.forceNet(net, v);
      full.forceNet(net, v);
      forced.push_back(net);
    }
    if (!forced.empty() && rng.below(8) == 0) {
      ev.releaseNet(forced.back());
      full.releaseNet(forced.back());
      forced.pop_back();
    }
    // A bridging-fault window exercises the event machine's forced
    // fallback to whole-graph settles.
    if (c == kBridgeFrom) {
      ev.addBridge(inputNets[0], inputNets[1], sm::BridgeKind::WiredAnd);
      full.addBridge(inputNets[0], inputNets[1], sm::BridgeKind::WiredAnd);
    }
    if (c == kBridgeTo) {
      ev.clearBridges();
      full.clearBridges();
    }

    ev.evalComb();
    full.evalComb();
    for (nl::NetId net = 0; net < n.netCount(); ++net) {
      ASSERT_EQ(ev.value(net), full.value(net))
          << "cycle " << c << " net " << n.net(net).name;
    }
    // The rest of the machine state, the bridged window included.
    ASSERT_EQ(ev.cycle(), full.cycle());
    ASSERT_TRUE(std::ranges::equal(ev.ffStates(), full.ffStates()))
        << "cycle " << c;
    ASSERT_TRUE(std::ranges::equal(ev.ffPrevDs(), full.ffPrevDs()))
        << "cycle " << c;
    for (nl::MemoryId m = 0; m < n.memoryCount(); ++m) {
      ASSERT_TRUE(std::ranges::equal(ev.memReadReg(m), full.memReadReg(m)))
          << "cycle " << c << " memory " << m;
      ASSERT_TRUE(ev.memory(m).stateEquals(full.memory(m)))
          << "cycle " << c << " memory " << m;
    }

    ev.clockEdge();
    full.clockEdge();
  }
  // The event machine must actually have used its worklist path.
  EXPECT_GT(ev.perf().eventSettles, 0u);
  EXPECT_GT(full.perf().fullSettles, 0u);
  EXPECT_LT(ev.perf().cellEvals, full.perf().cellEvals);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalModeEquivalence,
                         ::testing::Values(tk::testSeed(3), tk::testSeed(17),
                                           tk::testSeed(101)));

// ---------------------------------------------------------------------------
// Hamming: exhaustive double-error space for sampled data words
// ---------------------------------------------------------------------------

class HammingDoubleSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HammingDoubleSweep, EveryDoubleDetectedEverySingleCorrected) {
  const ms::HammingCodec codec;
  const std::uint32_t data = GetParam();
  const std::uint64_t clean = codec.encode(data);
  for (std::uint32_t b1 = 0; b1 < ms::kCodeBits; ++b1) {
    // Singles.
    const auto s = codec.decode(clean ^ (std::uint64_t{1} << b1));
    EXPECT_EQ(s.data, data);
    // Doubles: every pair with b1.
    for (std::uint32_t b2 = b1 + 1; b2 < ms::kCodeBits; ++b2) {
      const auto r = codec.decode(clean ^ (std::uint64_t{1} << b1) ^
                                  (std::uint64_t{1} << b2));
      EXPECT_EQ(r.status, ms::EccStatus::DoubleError)
          << "bits " << b1 << "," << b2;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DataWords, HammingDoubleSweep,
                         ::testing::Values(0x00000000u, 0xFFFFFFFFu,
                                           0xA5A5A5A5u, 0x12345678u,
                                           0x80000001u));
