// Serial fault simulation: one faulty machine at a time, compared against a
// pre-recorded golden trace, with early abort once the verdict is final.
// Stands in for the commercial fault simulator of the paper's validation
// step (c): "the fault simulator can be used to precisely measure the fault
// coverage vs permanent faults respect the workload and the implemented
// diagnostic."  Both engines replay one StimulusTrace, watch a
// machine through the same Watch and report the same Observation per fault;
// the serial form (runSerialWatch) is the one reference oracle, for fault
// simulation (outputWatch: a fault is detected when an output deviates) and
// for the injection manager's campaigns (sensible zones, observation points
// and alarms: the SENS, OBSE and DIAG monitors of the paper's Figure 4).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "fault/fault_list.hpp"
#include "fault/harness.hpp"
#include "faultsim/stimulus.hpp"
#include "sim/simulator.hpp"

namespace socfmea::faultsim {

/// Which engine inject::InjectionManager::runWatch runs.  Both engines
/// produce bit-identical observations (CI-tested); they differ only in
/// throughput and in which execution counters they fill.
enum class EngineKind : std::uint8_t {
  /// The bit-sliced engine at every thread count
  /// (inject::InjectionManager::runWatch).
  Auto,
  /// One faulty machine at a time — the reference oracle.
  Serial,
  /// Bit-sliced fault-parallel engine: 64 faulty machines per word-lane
  /// group, evaluated in lockstep as divergence against a golden machine.
  Bitsliced,
};

[[nodiscard]] std::string_view engineKindName(EngineKind k) noexcept;
/// Inverse of engineKindName; nullopt on an unknown name.
[[nodiscard]] std::optional<EngineKind> engineKindFromName(
    std::string_view n) noexcept;

/// How a machine's verdict becomes final before the workload ends: the stop
/// rule both engines take.
enum class RetireMode : std::uint8_t {
  /// Nothing is final before the workload ends, so every deviation is
  /// recorded.  The bit-sliced engine still retires a spent transient whose
  /// divergence washed out: the rest of its run equals the golden run.
  WashoutOnly,
  DetectOnly,  ///< fault-sim early abort: final at the first point deviation
  Classify,    ///< campaign early abort: alarm fired or the window closed
};

/// What both engines compare against the golden machine every cycle, after
/// the settle and before the clock edge.
struct Watch {
  /// Net groups (the campaign's sensible zones); a group deviates the first
  /// cycle any of its nets differs from golden.
  std::vector<std::vector<netlist::NetId>> groups;
  /// Individual observation nets; each point records its own first
  /// deviation.
  std::vector<netlist::NetId> points;
  /// Alarm nets: one fires when it reads 1 where golden does not.
  std::vector<netlist::NetId> asserted;
  std::uint64_t detectionWindow = 16;
};

/// What one faulty machine showed under a Watch, with indices into its
/// groups and points (the injection manager maps them to zone and
/// observation-point ids).  groupsDeviated / pointsDeviated are ordered by
/// (first deviation cycle, index).
struct Observation {
  bool sens = false;  ///< a group deviated
  std::uint64_t sensCycle = 0;
  std::vector<std::uint32_t> groupsDeviated;
  bool obs = false;  ///< a point deviated
  std::uint64_t firstObsCycle = 0;
  std::vector<std::uint32_t> pointsDeviated;
  bool diag = false;  ///< an alarm fired
  std::uint64_t diagCycle = 0;

  [[nodiscard]] bool operator==(const Observation&) const = default;
};

/// True once `o` can no longer change under `retire` after `cycle`'s
/// compare, so its machine may stop.
[[nodiscard]] constexpr bool verdictFinal(const Observation& o,
                                          std::uint64_t cycle,
                                          RetireMode retire,
                                          std::uint64_t detectionWindow) {
  switch (retire) {
    case RetireMode::WashoutOnly: return false;
    case RetireMode::DetectOnly: return o.obs;
    case RetireMode::Classify:
      return o.obs && (o.diag || cycle > o.firstObsCycle + detectionWindow);
  }
  return false;
}

/// The fault-simulation watch: the source nets of the output ports
/// `outputs` as points, so a fault is detected when a point deviates.
[[nodiscard]] Watch outputWatch(const netlist::Netlist& nl,
                                const std::vector<netlist::CellId>& outputs);

/// Golden per-cycle values of a watch's nets.
struct GoldenTrace {
  /// The watch's groups (flattened, in order), then its points, then its
  /// asserted nets.
  std::vector<netlist::NetId> nets;
  std::vector<std::vector<sim::Logic>> values;  ///< [cycle][net]
};

/// Puts `sim` in the state every machine of a campaign starts from: reset()
/// plus fault-free memories filled with 0.  Every run starts here: runMachine
/// each fault-free and faulty machine (a fresh Simulator is in this state
/// too).
inline void resetMachine(sim::Simulator& sim) {
  sim.reset();
  for (netlist::MemoryId m = 0; m < sim.design().memoryCount(); ++m) {
    sim.memory(m).clearFaults();
    sim.memory(m).fillAll(0);
  }
}

/// One machine of the serial oracle: the fault-free machine when `f` is
/// null (GoldenRun, recordGolden), a faulty machine of runSerialWatch
/// otherwise.  Resets `sim` with resetMachine,
/// installs `latent` and then `f` (each when non-null), and replays the
/// stimulus trace cycle by cycle: SEU / soft-error flips, the inputs and
/// backdoor flips (StimulusTrace::apply), the settle, SET pulses in install
/// order (each settled before the next one reads its net),
/// `observe(sim, cycle)`, then the clock edge.  `observe` returns true to
/// stop the machine after that cycle's edge.  Removes the faults again and
/// returns the cycles simulated.  A template so the per-cycle observer
/// inlines into the campaign's hot loop.
template <typename Observe>
std::uint64_t runMachine(sim::Simulator& sim, const StimulusTrace& stim,
                         const fault::Fault* latent, const fault::Fault* f,
                         Observe&& observe) {
  // Install order: the latent fault, then `f`.
  std::array<std::optional<fault::FaultHarness>, 2> harnesses;
  if (latent != nullptr) harnesses[0].emplace(*latent);
  if (f != nullptr) harnesses[1].emplace(*f);
  resetMachine(sim);
  for (auto& h : harnesses) {
    if (h) h->install(sim);
  }

  std::uint64_t c = 0;
  while (c < stim.cycles()) {
    for (auto& h : harnesses) {
      if (h) h->beforeCycle(sim, c);
    }
    stim.apply(sim, c);
    sim.evalComb();
    for (auto& h : harnesses) {
      if (h && h->wantsPulse(c)) {
        h->applyPulse(sim);
        sim.evalComb();
      }
    }
    const bool stop = observe(sim, c);
    sim.clockEdge();
    for (auto& h : harnesses) {
      if (h) h->afterEdge(sim);
    }
    ++c;
    if (stop) break;
  }
  if (harnesses[1]) harnesses[1]->remove(sim);
  if (harnesses[0]) harnesses[0]->remove(sim);
  return c;
}

/// Records the golden trace of `watch`'s nets: the fault-free runMachine
/// over `stim`, the stimulus every faulty machine replays, on a Simulator
/// that shares `cd`.
[[nodiscard]] GoldenTrace recordGolden(
    const netlist::CompiledDesignPtr& cd, const StimulusTrace& stim,
    const Watch& watch,
    sim::EvalMode evalMode = sim::EvalMode::EventDriven);

struct SerialCampaign {
  std::vector<Observation> observations;  ///< parallel to the fault list
  std::uint64_t cycles = 0;               ///< machine-cycles simulated
  sim::Simulator::PerfCounters perf;      ///< of the faulty machines
};

/// The serial oracle over a watch: runs every fault through runMachine, on
/// top of `latent` when it is set (inject::CampaignOptions::preexisting),
/// and compares each cycle against `golden`, recorded by recordGolden for
/// the same `stim` and `watch`.  A machine stops once verdictFinal holds
/// under `retire`.  Its machines settle in `evalMode`; both modes give
/// bit-identical values, and FullSettle is the equivalence oracle the tests
/// and the testkit fuzz oracle run against EventDriven.  Throws
/// std::invalid_argument when `golden` does not match the watch or the
/// stimulus.
[[nodiscard]] SerialCampaign runSerialWatch(
    const netlist::CompiledDesignPtr& cd, const StimulusTrace& stim,
    const GoldenTrace& golden,
    const fault::FaultList& faults, const Watch& watch,
    const std::optional<fault::Fault>& latent, RetireMode retire,
    sim::EvalMode evalMode = sim::EvalMode::EventDriven);

}  // namespace socfmea::faultsim
