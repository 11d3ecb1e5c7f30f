// faultsim::GoldenRun: the fault-free record the bit-sliced word groups, the
// operational profile and the toggle pass read.  Every row is checked
// against a Simulator replayed with faultsim::runMachine over the same
// trace, on random designs, in both eval modes, the row after the final
// clock edge included; the profile and the toggle pass are checked against
// the per-cycle Simulator passes they replaced.
#include <gtest/gtest.h>

#include <span>
#include <type_traits>

#include "faultsim/golden_run.hpp"
#include "faultsim/serial.hpp"
#include "faultsim/toggle.hpp"
#include "inject/profile.hpp"
#include "inject/workload.hpp"
#include "netlist/compiled.hpp"
#include "testkit/netlist_gen.hpp"
#include "testkit/plan.hpp"
#include "testkit/seed.hpp"
#include "zones/extract.hpp"

namespace fs = socfmea::faultsim;
namespace ij = socfmea::inject;
namespace nl = socfmea::netlist;
namespace sm = socfmea::sim;
namespace tk = socfmea::testkit;
namespace zn = socfmea::zones;

// A record keeps a reference to its trace, so a temporary trace must not
// bind (a workload is a trace, so a temporary workload must not either).
static_assert(std::is_constructible_v<fs::GoldenRun, nl::CompiledDesignPtr,
                                      const fs::StimulusTrace&>);
static_assert(!std::is_constructible_v<fs::GoldenRun, nl::CompiledDesignPtr,
                                       fs::StimulusTrace>);
static_assert(!std::is_constructible_v<fs::GoldenRun, nl::CompiledDesignPtr,
                                       ij::RandomWorkload>);

namespace {

/// A random testkit design.
nl::Netlist randomDesign(sm::Rng& rng) {
  return tk::generateNetlist(tk::randomOptions(rng), rng);
}

/// Checks every row of `run` (recorded in `mode`) against a Simulator
/// replayed over its trace in the same mode.
void expectRowsMatchSimulator(const fs::GoldenRun& run, sm::EvalMode mode) {
  sm::Simulator sim(run.compiled());
  sim.setEvalMode(mode);
  std::size_t badRows = 0;
  const auto check = [&](std::span<const sm::Logic> now, std::uint64_t c) {
    for (nl::NetId n = 0; n < now.size(); ++n) {
      if (run.row(c)[n] != (now[n] == sm::Logic::L1)) {
        ++badRows;
        ADD_FAILURE() << "row " << c << " net #" << n;
        return;
      }
    }
  };
  std::uint64_t rows = 0;
  (void)fs::runMachine(sim, run.stimulus(), nullptr, nullptr,
                       [&](const sm::Simulator& s, std::uint64_t c) {
                         check(s.netValues(), c);
                         ++rows;
                         return false;
                       });
  EXPECT_EQ(rows, run.cycles());
  // The row after the final edge: the settled values, which carry every
  // flip-flop's state on its Q net and every read register on its rdata
  // nets.
  check(sim.netValues(), run.cycles());
  const nl::CompiledDesign& cd = *run.compiled();
  const fs::NetBits last = run.row(run.cycles());
  for (std::size_t i = 0; i < cd.ffs().size(); ++i) {
    const sm::Logic state = sim.ffStates()[cd.ffs()[i]];
    EXPECT_EQ(last[cd.ffOutput(i)], state == sm::Logic::L1) << "ff " << i;
  }
  for (nl::MemoryId m = 0; m < cd.design().memoryCount(); ++m) {
    const std::span<const sm::Logic> reg = sim.memReadReg(m);
    for (std::size_t b = 0; b < reg.size(); ++b) {
      EXPECT_EQ(last[cd.design().memory(m).rdata[b]], reg[b] == sm::Logic::L1)
          << "memory " << m << " bit " << b;
    }
  }
  EXPECT_EQ(badRows, 0u);
}

/// The operational profile's zone activity the way it was measured before
/// the record: one Simulator pass, counting changes from cycle 1 on.
std::vector<std::uint64_t> simulatedZoneWrites(const zn::ZoneDatabase& db,
                                               const fs::StimulusTrace& stim) {
  std::vector<std::uint64_t> writes(db.size(), 0);
  std::vector<std::vector<sm::Logic>> prev(db.size());
  for (const zn::SensibleZone& z : db.zones()) {
    prev[z.id].assign(z.valueNets.size(), sm::Logic::L0);
  }
  sm::Simulator sim(db.compiledShared());
  (void)fs::runMachine(
      sim, stim, nullptr, nullptr,
      [&](const sm::Simulator& s, std::uint64_t c) {
        for (const zn::SensibleZone& z : db.zones()) {
          bool changed = false;
          for (std::size_t i = 0; i < z.valueNets.size(); ++i) {
            const sm::Logic v = s.netValues()[z.valueNets[i]];
            if (c > 0 && v != prev[z.id][i]) changed = true;
            prev[z.id][i] = v;
          }
          if (changed) ++writes[z.id];
        }
        return false;
      });
  return writes;
}

/// Nets seen rising and falling, the way the toggle pass measured them
/// before the record: one Simulator pass, counting edges from cycle 1 on.
std::pair<std::vector<bool>, std::vector<bool>> simulatedToggles(
    const nl::CompiledDesignPtr& cd, const fs::StimulusTrace& stim) {
  const std::size_t nets = cd->netCount();
  std::vector<bool> rise(nets, false);
  std::vector<bool> fall(nets, false);
  std::vector<sm::Logic> prev(nets, sm::Logic::L0);
  sm::Simulator sim(cd);
  (void)fs::runMachine(
      sim, stim, nullptr, nullptr,
      [&](const sm::Simulator& s, std::uint64_t c) {
        for (nl::NetId n = 0; n < nets; ++n) {
          const sm::Logic v = s.netValues()[n];
          if (c > 0 && prev[n] != v) {
            (v == sm::Logic::L1 ? rise : fall)[n] = true;
          }
          prev[n] = v;
        }
        return false;
      });
  return {rise, fall};
}

}  // namespace

TEST(GoldenRunTest, RowsMatchTheSimulatorOnRandomDesigns) {
  const std::uint64_t base = tk::testSeed(0x601D);
  for (std::uint64_t i = 0; i < 60; ++i) {
    const std::uint64_t seed = tk::derivedSeed(base, i);
    SCOPED_TRACE(tk::seedMessage(seed));
    sm::Rng rng(seed);
    const nl::Netlist n = randomDesign(rng);
    const tk::TestPlan plan =
        tk::generatePlan(n, tk::randomPlanOptions(rng), rng);
    const nl::CompiledDesignPtr cd = nl::compile(n);
    const fs::GoldenRun event(cd, plan.stim);
    const fs::GoldenRun full(cd, plan.stim, sm::EvalMode::FullSettle);
    EXPECT_TRUE(event == full);
    expectRowsMatchSimulator(event, sm::EvalMode::EventDriven);
    expectRowsMatchSimulator(full, sm::EvalMode::FullSettle);
  }
}

// The profile and the toggle pass read the rows the way the Simulator
// passes they replaced read the machine: a change or an edge in cycle c
// compares it with cycle c - 1, so cycle 0 counts nothing.
TEST(GoldenRunTest, ProfileAndToggleMatchTheSimulatorPasses) {
  const std::uint64_t base = tk::testSeed(0x7065);
  for (std::uint64_t i = 0; i < 40; ++i) {
    const std::uint64_t seed = tk::derivedSeed(base, i);
    SCOPED_TRACE(tk::seedMessage(seed));
    sm::Rng rng(seed);
    const nl::Netlist n = randomDesign(rng);
    const zn::ZoneDatabase db = zn::extractZones(n);
    const tk::TestPlan plan =
        tk::generatePlan(n, tk::randomPlanOptions(rng), rng);
    const fs::GoldenRun golden(db.compiledShared(), plan.stim);

    const ij::OperationalProfile profile =
        ij::OperationalProfile::record(db, golden);
    const std::vector<std::uint64_t> writes =
        simulatedZoneWrites(db, plan.stim);
    for (const zn::SensibleZone& z : db.zones()) {
      EXPECT_EQ(profile.zone(z.id).writes, writes[z.id]) << z.name;
    }

    const fs::ToggleCoverage tc = fs::measureToggle(golden);
    const auto [rise, fall] = simulatedToggles(db.compiledShared(), plan.stim);
    const std::vector<bool> constant = fs::structurallyConstantNets(n);
    std::size_t once = 0;
    std::size_t both = 0;
    for (nl::NetId net = 0; net < n.netCount(); ++net) {
      if (constant[net]) continue;
      once += rise[net] || fall[net] ? 1 : 0;
      both += rise[net] && fall[net] ? 1 : 0;
    }
    EXPECT_EQ(tc.toggledOnce, once);
    EXPECT_EQ(tc.toggledBoth, both);
  }
}

TEST(GoldenRunTest, RecordOfAnotherDesignIsRefused) {
  sm::Rng rng(tk::testSeed(0x0DD));
  const nl::Netlist n = randomDesign(rng);
  const zn::ZoneDatabase db = zn::extractZones(n);
  const tk::TestPlan plan =
      tk::generatePlan(n, tk::randomPlanOptions(rng), rng);
  const fs::GoldenRun other(nl::compile(n), plan.stim);
  EXPECT_THROW((void)ij::OperationalProfile::record(db, other),
               std::invalid_argument);
}
