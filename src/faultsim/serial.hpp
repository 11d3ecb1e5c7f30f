// Serial fault simulation: one faulty machine at a time, compared against a
// pre-recorded golden trace of the primary outputs, with early abort on
// first detection.  Stands in for the commercial fault simulator of the
// paper's validation step (c): "the fault simulator can be used to precisely
// measure the fault coverage vs permanent faults respect the workload and
// the implemented diagnostic."  Its per-machine step (runMachine) is also
// the injection manager's serial campaign loop: the one reference oracle.
#pragma once

#include <iosfwd>
#include <optional>
#include <string_view>
#include <vector>

#include "fault/engine_context.hpp"
#include "fault/fault_list.hpp"
#include "fault/harness.hpp"
#include "faultsim/stimulus.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"

namespace socfmea::faultsim {

enum class FaultOutcome : std::uint8_t {
  Detected,    ///< a primary output diverged from the golden run
  Undetected,  ///< ran the full workload without divergence
};

/// Which fault-simulation engine a campaign layer dispatches to.  Both
/// engines produce bit-identical verdicts and tallies (CI-tested); they
/// differ only in throughput and in which execution counters they fill.
enum class EngineKind : std::uint8_t {
  /// The serial oracle at threads == 1, the bit-sliced engine otherwise.
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

struct FaultSimResult {
  std::size_t total = 0;
  std::size_t detected = 0;
  std::vector<FaultOutcome> outcomes;  ///< parallel to the input fault list
  std::uint64_t simulatedCycles = 0;   ///< total cycles across all machines
  /// Machines forked from a golden checkpoint later than cycle 0 and the
  /// fault-free prefix cycles that skipping saved (bit-sliced engine only;
  /// the serial oracle never checkpoints).
  std::uint64_t checkpointHits = 0;
  std::uint64_t checkpointCyclesSkipped = 0;
  /// Transient faults dropped early because the faulty machine's state
  /// reconverged with the golden run (bit-sliced engine only).
  std::uint64_t convergedEarly = 0;

  [[nodiscard]] double coverage() const noexcept {
    return total == 0 ? 1.0
                      : static_cast<double>(detected) / static_cast<double>(total);
  }
};

struct FaultSimOptions {
  /// Observe only these output ports; empty = every primary output.
  std::vector<netlist::CellId> observedOutputs;
  /// Stop a faulty machine at first divergence (classic fault-sim early
  /// abort); disable to count divergence cycles.
  bool earlyAbort = true;
  /// Bit-sliced lane width in 64-bit words per net (1/2/4 = 64/128/256
  /// lanes); 0 picks the widest the build's SIMD target supports
  /// (overridable at run time with SOCFMEA_NO_SIMD=1).  Ignored by the
  /// serial engine.
  unsigned laneWords = 0;
  /// Bit-sliced parallelism: 0 = hardware concurrency, N = N workers, one
  /// word group per pool task.  Ignored by the serial engine.  Verdicts are
  /// bit-identical regardless of the value.
  unsigned threads = 1;
  /// Combinational evaluation strategy for every machine in the campaign.
  /// Both settle to bit-identical values; FullSettle is the ablation
  /// baseline for benchmarks.
  sim::EvalMode evalMode = sim::EvalMode::EventDriven;
};

/// Golden per-cycle values of the observed outputs.
struct GoldenTrace {
  std::vector<netlist::CellId> outputs;
  std::vector<netlist::NetId> nets;            ///< source nets of the outputs
  std::vector<std::vector<sim::Logic>> values; ///< [cycle][output]
};

/// The serial oracle's per-fault step, shared by runSerialFaultSim and the
/// injection manager's serial campaign.  Resets `sim` and clears its
/// memories, installs `latent` (when non-null) and then `f`, and replays
/// the recorded stimulus plus the workload's backdoor actions cycle by
/// cycle: SEU / soft-error flips before the inputs, the settle, SET pulses
/// in install order (each settled before the next one reads its net),
/// `observe(sim, cycle)`, then the clock edge.  `observe` returns true to
/// stop the machine after that cycle's edge.  Removes both faults again and
/// returns the cycles simulated.  A template so the per-cycle observer
/// inlines into the campaign's hot loop.
template <typename Observe>
std::uint64_t runMachine(sim::Simulator& sim, sim::Workload& wl,
                         const StimulusTrace& stim, const fault::Fault* latent,
                         const fault::Fault& f, Observe&& observe) {
  std::optional<fault::FaultHarness> latentHarness;
  if (latent != nullptr) latentHarness.emplace(*latent);
  fault::FaultHarness harness(f);
  wl.restart();
  sim.reset();
  for (netlist::MemoryId m = 0; m < sim.design().memoryCount(); ++m) {
    sim.memory(m).clearFaults();
    sim.memory(m).fillAll(0);
  }
  if (latentHarness) latentHarness->install(sim);
  harness.install(sim);

  std::uint64_t c = 0;
  while (c < stim.cycles()) {
    if (latentHarness) latentHarness->beforeCycle(sim, c);
    harness.beforeCycle(sim, c);
    for (std::size_t i = 0; i < stim.inputs.size(); ++i) {
      sim.setInput(stim.inputs[i], sim::fromBool(stim.values[c][i]));
    }
    wl.backdoor(sim, c);
    sim.evalComb();
    if (latentHarness && latentHarness->wantsPulse(c)) {
      latentHarness->applyPulse(sim);
      sim.evalComb();
    }
    if (harness.wantsPulse(c)) {
      harness.applyPulse(sim);
      sim.evalComb();
    }
    const bool stop = observe(sim, c);
    sim.clockEdge();
    if (latentHarness) latentHarness->afterEdge(sim);
    harness.afterEdge(sim);
    ++c;
    if (stop) break;
  }
  harness.remove(sim);
  if (latentHarness) latentHarness->remove(sim);
  return c;
}

/// Records the golden trace by one fault-free replay of `stim`, the
/// stimulus every faulty machine replays.  The recording Simulator shares
/// the context's compiled design.
[[nodiscard]] GoldenTrace recordGolden(const fault::EngineContext& ctx,
                                       sim::Workload& wl,
                                       const StimulusTrace& stim,
                                       const FaultSimOptions& opt = {});

/// Runs the whole fault list serially: records the stimulus once, then runs
/// every fault through runMachine against the golden trace.  The Netlist
/// form compiles the design once internally; campaign layers holding an
/// EngineContext use the overload below to share the compiled form across
/// engines.
[[nodiscard]] FaultSimResult runSerialFaultSim(const netlist::Netlist& nl,
                                               sim::Workload& wl,
                                               const fault::FaultList& faults,
                                               const FaultSimOptions& opt = {});

[[nodiscard]] FaultSimResult runSerialFaultSim(const fault::EngineContext& ctx,
                                               sim::Workload& wl,
                                               const fault::FaultList& faults,
                                               const FaultSimOptions& opt = {});

void printFaultSim(std::ostream& out, const FaultSimResult& r);

}  // namespace socfmea::faultsim
