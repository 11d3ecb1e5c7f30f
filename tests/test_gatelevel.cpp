// Tests for the generated gate-level protection IP: structural sanity,
// functional behaviour under the workload, and the v1-vs-v2 safety-mechanism
// differences observed at the alarm outputs.
#include <gtest/gtest.h>

#include <set>

#include "faultsim/serial.hpp"
#include "memsys/gatelevel.hpp"
#include "memsys/hamming.hpp"
#include "memsys/workloads.hpp"
#include "netlist/stats.hpp"
#include "sim/simulator.hpp"

namespace fs = socfmea::faultsim;
namespace ms = socfmea::memsys;
namespace nl = socfmea::netlist;
namespace sm = socfmea::sim;

namespace {

// Drives one operation and waits out the pipeline.  Alarms pulse for a
// single cycle, so every step scans the alarm registers into `seen`.
struct Driver {
  ms::GateLevelDesign& d;
  sm::Simulator sim;
  std::set<std::string> seen;

  void step() {
    sim.step();
    for (const std::string& a : d.alarmNames) {
      const auto net = d.nl.findNet("out/" + a + "_r_q");
      if (net && sim.value(*net) == sm::Logic::L1) seen.insert(a);
    }
  }
  void run(int n) {
    for (int i = 0; i < n; ++i) step();
  }

  explicit Driver(ms::GateLevelDesign& design) : d(design), sim(design.nl) {
    idleInputs();
    sim.setInput(d.rst, sm::Logic::L1);
    sim.run(3);
    sim.setInput(d.rst, sm::Logic::L0);
    sim.run(1);
  }

  void idleInputs() {
    sim.setInput(d.req, sm::Logic::L0);
    sim.setInput(d.we, sm::Logic::L0);
    sim.setInput(d.priv, sm::Logic::L1);
    sim.setInputBus(d.addr, 0);
    sim.setInputBus(d.wdata, 0);
    if (isInput(d.bistEn)) sim.setInput(d.bistEn, sm::Logic::L0);
    if (isInput(d.chkTest)) sim.setInput(d.chkTest, sm::Logic::L0);
  }

  [[nodiscard]] bool isInput(nl::NetId n) const {
    const auto& net = d.nl.net(n);
    return net.driver != nl::kNoCell &&
           d.nl.cell(net.driver).type == nl::CellType::Input;
  }

  void write(std::uint64_t addr, std::uint32_t data, bool priv = true) {
    sim.setInput(d.req, sm::Logic::L1);
    sim.setInput(d.we, sm::Logic::L1);
    sim.setInput(d.priv, sm::fromBool(priv));
    sim.setInputBus(d.addr, addr);
    sim.setInputBus(d.wdata, data);
    step();
    idleInputs();
    run(3);  // drain
  }

  std::uint32_t read(std::uint64_t addr, bool priv = true) {
    sim.setInput(d.req, sm::Logic::L1);
    sim.setInput(d.we, sm::Logic::L0);
    sim.setInput(d.priv, sm::fromBool(priv));
    sim.setInputBus(d.addr, addr);
    step();
    idleInputs();
    // Wait for rvalid (a denied read never completes; alarms were scanned).
    const auto rvalid = *d.nl.findNet("out/rvalid_r_q");
    for (int i = 0; i < 8; ++i) {
      step();
      if (sim.value(rvalid) == sm::Logic::L1) break;
    }
    nl::Bus rdata(ms::kDataBits);
    for (std::uint32_t i = 0; i < ms::kDataBits; ++i) {
      rdata[i] = *d.nl.findNet("out/rdata_r_" + std::to_string(i) + "_q");
    }
    return static_cast<std::uint32_t>(sim.busValue(rdata));
  }

  [[nodiscard]] bool alarmSeen(const std::string& name, int windowCycles = 0) {
    run(windowCycles);
    return seen.contains("alarm_" + name);
  }
};

}  // namespace

TEST(GateLevelTest, BuildsAndChecksBothVersions) {
  const auto v1 = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  const auto v2 = ms::buildProtectionIp(ms::GateLevelOptions::v2());
  const auto s1 = nl::computeStats(v1.nl);
  const auto s2 = nl::computeStats(v2.nl);
  EXPECT_GT(s1.gates, 500u);
  EXPECT_GT(s1.flipFlops, 100u);
  // v2 carries the checker hardware: markedly more logic.
  EXPECT_GT(s2.gates, s1.gates + 300);
  EXPECT_GT(s2.flipFlops, s1.flipFlops);  // parity + shadow registers
  EXPECT_EQ(s1.memories, 1u);
  // v2 exposes the additional alarms.
  EXPECT_GT(v2.alarmNames.size(), v1.alarmNames.size());
}

TEST(GateLevelTest, WriteReadRoundTrip) {
  auto d = ms::buildProtectionIp(ms::GateLevelOptions::v2());
  Driver drv(d);
  drv.write(5, 0xDEADBEEF);
  EXPECT_EQ(drv.read(5), 0xDEADBEEFu);
  drv.write(6, 0x12345678);
  EXPECT_EQ(drv.read(6), 0x12345678u);
  EXPECT_EQ(drv.read(5), 0xDEADBEEFu);
}

TEST(GateLevelTest, SingleBitErrorCorrectedWithAlarm) {
  auto d = ms::buildProtectionIp(ms::GateLevelOptions::v2());
  Driver drv(d);
  drv.write(9, 0xA5A5A5A5);
  drv.sim.memory(0).flipBit(9, 7);
  EXPECT_EQ(drv.read(9), 0xA5A5A5A5u);
  EXPECT_TRUE(drv.alarmSeen("single", 2));
}

TEST(GateLevelTest, WrongAddressReadRaisesAddressAlarmInV2) {
  auto d = ms::buildProtectionIp(ms::GateLevelOptions::v2());
  Driver drv(d);
  drv.write(3, 0x01020304);
  drv.write(4, 0x05060708);
  // Addressing fault: reads of 3 return the cell of 4.
  drv.sim.memory(0).setAddressFault(3, sm::AddressFaultKind::Wrong, 4);
  (void)drv.read(3);
  EXPECT_TRUE(drv.alarmSeen("addr", 2));
}

TEST(GateLevelTest, V1AcceptsWrongAddressSilently) {
  auto d = ms::buildProtectionIp(ms::GateLevelOptions::v1());
  Driver drv(d);
  drv.write(3, 0x01020304);
  drv.write(4, 0x05060708);
  drv.sim.memory(0).setAddressFault(3, sm::AddressFaultKind::Wrong, 4);
  EXPECT_EQ(drv.read(3), 0x05060708u);  // wrong data, believed good
  EXPECT_FALSE(drv.alarmSeen("double", 2));
}

TEST(GateLevelTest, MpuViolationAlarms) {
  auto d = ms::buildProtectionIp(ms::GateLevelOptions::v2());
  Driver drv(d);
  const std::uint64_t topAddr = (std::uint64_t{1} << d.options.addrBits) - 1;
  // User-privilege access to the privileged top page.
  (void)drv.read(topAddr, /*priv=*/false);
  EXPECT_TRUE(drv.alarmSeen("mpu", 2));
}

TEST(GateLevelTest, WriteToReadOnlyPageDropped) {
  auto d = ms::buildProtectionIp(ms::GateLevelOptions::v2());
  Driver drv(d);
  const std::uint64_t topAddr = (std::uint64_t{1} << d.options.addrBits) - 1;
  drv.write(topAddr, 0x77777777);  // page 3 is read-only: dropped + alarm
  EXPECT_TRUE(drv.alarmSeen("mpu"));
  EXPECT_EQ(drv.sim.memory(0).peek(topAddr), 0u);
}

TEST(GateLevelTest, ChkTestStrobeFiresCheckerAlarms) {
  auto d = ms::buildProtectionIp(ms::GateLevelOptions::v2());
  Driver drv(d);
  drv.write(2, 0x22222222);
  // Hold the strobe across a whole read (the checker alarms are gated on a
  // valid word being in the pipeline).
  drv.sim.setInput(d.chkTest, sm::Logic::L1);
  drv.sim.setInput(d.req, sm::Logic::L1);
  drv.sim.setInput(d.we, sm::Logic::L0);
  drv.sim.setInputBus(d.addr, 2);
  drv.step();
  drv.sim.setInput(d.req, sm::Logic::L0);
  drv.run(6);  // keeps chk_test asserted while the read flows through
  EXPECT_TRUE(drv.alarmSeen("coder"));
  EXPECT_TRUE(drv.alarmSeen("pipe"));
  EXPECT_TRUE(drv.alarmSeen("out"));
  drv.sim.setInput(d.chkTest, sm::Logic::L0);
}

TEST(GateLevelTest, SeuOnOutputRegisterCaughtByMonitoredOutputs) {
  auto d = ms::buildProtectionIp(ms::GateLevelOptions::v2());
  Driver drv(d);
  drv.write(7, 0x0F0F0F0F);
  // Read, then flip the output register right before sampling the alarm.
  drv.sim.setInput(d.req, sm::Logic::L1);
  drv.sim.setInput(d.we, sm::Logic::L0);
  drv.sim.setInputBus(d.addr, 7);
  drv.sim.step();
  drv.idleInputs();
  drv.sim.run(3);  // data lands in out/rdata_r
  const auto ff = d.nl.findCell("out/rdata_r_4");
  ASSERT_TRUE(ff.has_value());
  drv.sim.flipFf(*ff);
  EXPECT_TRUE(drv.alarmSeen("out", 2));
}

TEST(GateLevelTest, BistWindowRunsCleanAndTogglesEngine) {
  auto d = ms::buildProtectionIp(ms::GateLevelOptions::v2());
  Driver drv(d);
  drv.sim.setInput(d.bistEn, sm::Logic::L1);
  bool anyUncorrectable = false;
  for (int c = 0; c < 16 * 4 * 2 + 16; ++c) {
    drv.sim.step();
    for (const char* a : {"double", "addr", "bist"}) {
      const auto net = d.nl.findNet(std::string("out/alarm_") + a + "_r_q");
      if (net && drv.sim.value(*net) == sm::Logic::L1) anyUncorrectable = true;
    }
  }
  EXPECT_FALSE(anyUncorrectable) << "clean BIST run must not alarm";
  // The pass flag must have advanced to the read phase.
  const auto pass = d.nl.findNet("bist/pass_q");
  ASSERT_TRUE(pass.has_value());
  EXPECT_EQ(drv.sim.value(*pass), sm::Logic::L1);
}

TEST(GateLevelTest, WorkloadRunsGoldenWithoutSpuriousUncorrectable) {
  auto d = ms::buildProtectionIp(ms::GateLevelOptions::v2());
  ms::ProtectionIpWorkload::Options opt;
  opt.cycles = 800;
  opt.plantEccErrors = false;  // a truly clean run
  const nl::CompiledDesignPtr cd = nl::compile(d.nl);
  const ms::ProtectionIpWorkload stim(d, opt);
  sm::Simulator sim(cd);
  std::uint64_t uncorrectable = 0;
  (void)fs::runMachine(
      sim, stim, nullptr, nullptr, [&](const sm::Simulator& s, std::uint64_t) {
        for (const char* a : {"double", "addr"}) {
          const auto net =
              d.nl.findNet(std::string("out/alarm_") + a + "_r_q");
          if (net && s.value(*net) == sm::Logic::L1) ++uncorrectable;
        }
        return false;
      });
  EXPECT_EQ(uncorrectable, 0u);
}

TEST(GateLevelTest, WorkloadDeterministicAcrossReplays) {
  auto d = ms::buildProtectionIp(ms::GateLevelOptions::v2());
  ms::ProtectionIpWorkload::Options opt;
  opt.cycles = 400;
  const ms::ProtectionIpWorkload wl(d, opt);
  const nl::CompiledDesignPtr cd = nl::compile(d.nl);
  nl::Bus rdata(ms::kDataBits);
  for (std::uint32_t i = 0; i < ms::kDataBits; ++i) {
    rdata[i] = *d.nl.findNet("out/rdata_r_" + std::to_string(i) + "_q");
  }

  // Each run replays the one workload object on a fresh machine.
  const auto runOnce = [&] {
    sm::Simulator sim(cd);
    std::vector<std::uint64_t> trace;
    (void)fs::runMachine(sim, wl, nullptr, nullptr,
                         [&](const sm::Simulator& s, std::uint64_t) {
                           trace.push_back(s.busValue(rdata));
                           return false;
                         });
    return trace;
  };
  EXPECT_EQ(runOnce(), runOnce());
}
