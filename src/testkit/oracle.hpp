// Differential oracle: runs one (design, plan) pair through every engine x
// evaluation-mode combination and asserts identical observations.
//
//   serial    x {event-driven, full-settle}   the reference engine
//   bitsliced x {event-driven, full-settle}   SIMD word-lane divergence engine
//   campaign                                  serial vs bit-sliced watch
//
// Every arm replays the plan's stimulus trace.  The four fault-simulation arms
// run the primary-output watch (faultsim::outputWatch) with the DetectOnly
// stop rule; the serial/event-driven run is the reference, and every other
// arm must match its Observation fault for fault.  The bit-sliced engine
// covers the FULL fault model (stuck-at, transients, bridges, delay, memory
// faults), so it runs the whole plan fault list like the serial engine; its
// event-driven arm runs at OracleOptions::threads, so the fuzz keeps
// driving a multi-threaded engine.  The campaign arm runs both engines
// (faultsim::runSerialWatch, runBitslicedWatch) with the Classify stop rule
// over a watch built from the design alone — each flip-flop's Q net a
// group, the primary outputs both points and alarms, detection window 4 —
// and requires identical observations.  Each bit-sliced arm reads a golden
// run (faultsim::GoldenRun) recorded in its own eval mode.  Three extra
// properties ride along: the serial golden traces of both eval modes must
// be identical; the golden runs of both modes must be equal and read what
// the serial golden trace reads on the watched nets; and the design must
// survive a text round-trip — parse(write(nl)) re-simulated under the
// rebound plan must reproduce the reference observations.
#pragma once

#include <string>
#include <vector>

#include "faultsim/serial.hpp"
#include "netlist/netlist.hpp"
#include "testkit/plan.hpp"

namespace socfmea::testkit {

[[nodiscard]] std::string_view evalModeName(sim::EvalMode m) noexcept;

/// A deliberate, deterministic engine bug for validating the shrinker and
/// the repro pipeline: after the selected engine/mode combo runs, every
/// observation with a deviated output is cleared — the classic "engine
/// silently misses detections" failure.
/// Because only real detections flip, a failing case needs a live cone from
/// a fault site to an observed output, so the shrinker must preserve one.
struct Sabotage {
  enum class Engine : std::uint8_t { None, Serial, Bitsliced };
  Engine engine = Engine::None;
  sim::EvalMode mode = sim::EvalMode::FullSettle;

  [[nodiscard]] bool active() const noexcept { return engine != Engine::None; }
};

struct OracleOptions {
  /// Worker count of the bit-sliced event-driven arm (0 = hardware
  /// concurrency); the full-settle arm runs on one thread.
  unsigned threads = 0;
  Sabotage sabotage;
};

/// One disagreement between a combo and the reference.
struct OracleMismatch {
  std::string combo;   ///< e.g. "bitsliced/full-settle", "campaign"
  std::string detail;  ///< human-readable description
  /// Indices into the plan's fault list whose observations disagreed
  /// (empty for golden-trace or text differences).
  std::vector<std::size_t> faultIndices;
};

struct OracleReport {
  bool pass = false;
  /// Combos executed: 2 serial, plus 2 bit-sliced and the campaign arm
  /// when the plan carries at least one fault.
  std::size_t combosRun = 0;
  /// Serial / event-driven observation of each plan fault.
  std::vector<faultsim::Observation> reference;
  std::vector<OracleMismatch> mismatches;

  /// Reference observations in which an output deviated.
  [[nodiscard]] std::size_t detected() const;

  /// Union of OracleMismatch::faultIndices — the shrinker's starting set.
  [[nodiscard]] std::vector<std::size_t> suspectFaults() const;
  [[nodiscard]] std::string summary() const;
};

/// The serial oracle over every primary output of `cd`, each machine
/// stopped under `retire`: an observation per fault.  The oracle's
/// reference arm stops at the first deviation (DetectOnly).
[[nodiscard]] std::vector<faultsim::Observation> serialOutputs(
    const netlist::CompiledDesignPtr& cd, const faultsim::StimulusTrace& stim,
    const fault::FaultList& faults,
    faultsim::RetireMode retire = faultsim::RetireMode::DetectOnly,
    sim::EvalMode mode = sim::EvalMode::EventDriven);

/// Runs all combos and properties.  Throws only on malformed inputs (e.g. a
/// plan whose input list does not match the design); engine disagreements
/// are reported, not thrown.
[[nodiscard]] OracleReport runOracle(const netlist::Netlist& nl,
                                     const TestPlan& plan,
                                     const OracleOptions& opt = {});

}  // namespace socfmea::testkit
