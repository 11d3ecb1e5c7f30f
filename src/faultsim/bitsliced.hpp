// Bit-sliced fault-parallel simulation: 64 faulty machines packed into the
// bit-lanes of one 64-bit word, evaluated in lockstep over the compiled
// design's level-bucketed order with word-wide two-state boolean kernels.
// It replays the workload's StimulusTrace, watches each lane through the
// serial oracle's Watch and reports the same Observation per fault
// (faultsim/serial.hpp); fault simulation is the outputs-only watch.
//
// Representation.  Every word group reads ONE recorded golden run
// (faultsim/golden_run.hpp), cycle by cycle from reset, and stores, per
// net, only the *divergence* word
//
//   div[net] lane bit = faulty lane value XOR golden value
//
// so a net no live lane has disturbed costs nothing (div == 0, untouched).
// The full fault model is expressed as lane-masked overlays on this
// divergence state: stuck-at and SET forces are (mask, value) word pairs
// applied at every net write; bridges clear their forces, re-resolve from
// the pass-1 settled lane values and re-force per cycle (mirroring the
// scalar engine's two-pass resolve); delay faults keep a per-lane stale
// mask and previous-D word; SEU flips XOR the flip-flop divergence word at
// the scheduled cycle; memory faults give the lane a private clone of the
// golden memory (with the fault overlay installed) that replays the lane's
// own writes and the trace's backdoor flips.
//
// Soundness rests on a two-state argument: netlist::compile runs
// Netlist::check(), so every net of a compiled design has a driver, and
// after reset every golden and lane value is 0 or 1 (sim/logic4.hpp).  So
// one bit per lane holds a value and XOR divergence is exact.
//
// The golden machine's state comes from the rows: a flip-flop's state is its
// Q net (row c before the edge, row c + 1 after it), its previous D value
// the D net one row back, a memory's read register its rdata nets.  Only
// the arrays are kept live: each worker holds one fault-free MemoryModel
// per memory, zeroed at every group start, which takes the trace's backdoor
// flips (sim::MemFlip) right after the cycle's transients act and the
// golden write at the clock edge, before the lanes read.  Each cycle's
// flips act on every lane-owned clone of the flipped memory alike.
//
// Group start.  Every word group starts at cycle 0 with its lanes reset the
// way the serial oracle resets a faulty machine (resetMachine), and reads
// the record from row 0 to the workload's end (or until its last lane
// retires).
//
// Latent faults.  Campaign mode takes an optional latent fault that every
// lane carries under its own fault and the golden machine never sees: it is
// installed in each lane first, and its SEU / soft-error flip and SET pulse
// fire in each lane ahead of the lane's own (the serial machine step's
// order).  A retired lane is refilled only while the latent fault has not
// acted yet, and washes out only once both of its faults are transient and
// spent.
//
// Activity is bounded by the active lists: only cells with at least one
// touched (divergent or forced) input net re-evaluate, so a level no live
// lane has disturbed costs one emptiness check.  A lane retires
// as soon as its verdict is final — by the caller's RetireMode (detected,
// or classified) or washed out (transient spent and all divergence zero) —
// and is refilled from the pending transient queue so words stay dense.
//
// Flat kernels.  The sweep evaluates each combinational position from one
// contiguous gate record (operation, output net, input nets; any arity),
// built once per run.  A memory port is word-parallel at the clock edge:
// a lane whose port nets do not diverge takes the golden address and data,
// the diverging lanes' addresses and write data come from a 64x64 bit
// transpose of the port nets' divergence words, and the lanes' read values
// go back to the read register's divergence words through the inverse
// transpose.
//
// Threads.  A run is one fork-join: the calling thread is worker 0 and
// threads - 1 std::jthreads are the others (one thread starts none).  Every
// worker owns its engine (golden memories, divergence words, lane clones),
// reads the shared golden run and gate records, and pulls groups from the
// shared LaneScheduler until it drains.  Results land in a pre-sized vector by
// fault index, and each worker returns its counters and phase times, which
// the caller adds up after the join, so verdicts and observation records
// are bit-identical to the serial oracle for any thread count or refill
// order.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "fault/fault_list.hpp"
#include "faultsim/golden_run.hpp"
#include "faultsim/serial.hpp"

namespace socfmea::faultsim {

/// The phases of a word group, each worker's time in them exported as the
/// timer faultsim.bitsliced.phase.<name>:
///   golden   the golden memories' backdoor flips and writes (rows are read
///            in place);
///   sweep    transient activation, seed, pass-1 sweep, bridges, SET pulses;
///   observe  the watch compare;
///   edge     the lanes' clock edge and the release of SET pulses;
///   tail     retirement, washout and refill, plus each group's set-up and
///            tear-down.
inline constexpr std::array<std::string_view, 5> kBitslicedPhases = {
    "golden", "sweep", "observe", "edge", "tail"};

/// Lanes per word group: one bit of a std::uint64_t per faulty machine.
inline constexpr unsigned kLanes = 64;

/// Execution counters of one bit-sliced run (telemetry + bench reporting).
struct BitslicedStats {
  std::uint64_t wordGroups = 0;         ///< word groups launched
  std::uint64_t wordCycles = 0;         ///< group-cycles evaluated
  std::uint64_t laneCycles = 0;         ///< live-lane cycles (occupancy)
  std::uint64_t lanesRetiredEarly = 0;  ///< verdict final before workload end
  std::uint64_t lanesRefilled = 0;      ///< retired lanes re-armed with a fault
  std::uint64_t convergedEarly = 0;     ///< lanes retired by washout
  /// Gate-word evaluations of the pass-1 and event sweeps: the sweep's work.
  std::uint64_t gateEvals = 0;
  unsigned workers = 1;
  /// Seconds per phase (kBitslicedPhases order), summed over the workers.
  std::array<double, kBitslicedPhases.size()> phaseSeconds{};

  /// Mean live lanes per occupied word-cycle, over the word capacity.
  [[nodiscard]] double laneOccupancy() const noexcept {
    const double cap = static_cast<double>(wordCycles) * kLanes;
    return cap > 0 ? static_cast<double>(laneCycles) / cap : 0.0;
  }
};

struct BitslicedCampaign {
  std::vector<Observation> observations;  ///< parallel to the fault list
  BitslicedStats stats;                   ///< the run's execution counters
};

/// Runs every fault against `watch` over the golden run's stimulus trace,
/// each lane on top of `latent` when it is set
/// (inject::CampaignOptions::preexisting), comparing with the recorded
/// golden run every cycle.  A lane retires once verdictFinal holds under
/// `retire`, or once it washed out; the observations equal runSerialWatch's
/// for the same arguments.  The word groups are dealt out to `threads`
/// workers (0 = hardware concurrency); the observations do not depend on
/// the count.
[[nodiscard]] BitslicedCampaign runBitslicedWatch(
    const GoldenRun& golden, const fault::FaultList& faults,
    const Watch& watch, const std::optional<fault::Fault>& latent,
    RetireMode retire, unsigned threads = 1);

}  // namespace socfmea::faultsim
