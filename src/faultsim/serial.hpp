// Serial fault simulation: one faulty machine at a time, compared against a
// pre-recorded golden trace of the primary outputs, with early abort on
// first detection.  Stands in for the commercial fault simulator of the
// paper's validation step (c): "the fault simulator can be used to precisely
// measure the fault coverage vs permanent faults respect the workload and
// the implemented diagnostic."
#pragma once

#include <iosfwd>
#include <optional>
#include <string_view>
#include <vector>

#include "fault/engine_context.hpp"
#include "fault/fault_list.hpp"
#include "fault/harness.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"

namespace socfmea::faultsim {

enum class FaultOutcome : std::uint8_t {
  Detected,    ///< a primary output diverged from the golden run
  Undetected,  ///< ran the full workload without divergence
};

/// Which fault-simulation engine a campaign layer dispatches to.  Every
/// engine produces bit-identical verdicts and tallies (CI-tested); they
/// differ only in throughput and in which execution counters they fill.
enum class EngineKind : std::uint8_t {
  /// Threaded when opt.threads != 1, otherwise the serial oracle.
  Auto,
  /// One faulty machine at a time — the reference oracle.
  Serial,
  /// Checkpoint-forking worker pool, one whole machine per fault.
  Threaded,
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
  /// fault-free prefix cycles that skipping saved (threaded engine only;
  /// the serial oracle never checkpoints).
  std::uint64_t checkpointHits = 0;
  std::uint64_t checkpointCyclesSkipped = 0;
  /// Transient faults dropped early because the faulty machine's state
  /// reconverged with the golden run (threaded engine only).
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
  /// Engine selection for runFaultSim.  Auto keeps the historical
  /// behaviour (threads decides); Bitsliced packs 64*laneWords machines
  /// per word group.  Verdicts are bit-identical across engines.
  EngineKind engine = EngineKind::Auto;
  /// Bit-sliced lane width in 64-bit words per net (1/2/4 = 64/128/256
  /// lanes); 0 picks the widest the build's SIMD target supports
  /// (overridable at run time with SOCFMEA_NO_SIMD=1).  Ignored by the
  /// other engines.
  unsigned laneWords = 0;
  /// runFaultSim parallelism: 1 = the serial engine below (the reference
  /// oracle), 0 = hardware concurrency, N = N workers.  Verdicts are
  /// bit-identical regardless of the value.
  unsigned threads = 1;
  /// Golden-checkpoint spacing for the threaded engine; 0 picks
  /// max(1, workloadCycles / 16).  Ignored when threads = 1.
  std::uint64_t checkpointInterval = 0;
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

/// Records the golden trace by one fault-free run.
[[nodiscard]] GoldenTrace recordGolden(const netlist::Netlist& nl,
                                       sim::Workload& wl,
                                       const FaultSimOptions& opt = {});

/// EngineContext form: shares a pre-compiled design (no re-levelization).
[[nodiscard]] GoldenTrace recordGolden(const fault::EngineContext& ctx,
                                       sim::Workload& wl,
                                       const FaultSimOptions& opt = {});

/// Runs the whole fault list serially.  The Netlist form compiles the
/// design once internally; campaign layers holding an EngineContext use
/// the overload below to share the compiled form across engines.
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
