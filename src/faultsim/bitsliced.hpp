// Bit-sliced fault-parallel simulation: up to 256 faulty machines packed
// into the bit-lanes of a SIMD word, evaluated in lockstep over the
// compiled design's level-bucketed order with word-wide two-state boolean
// kernels.
//
// Representation.  Each word group runs ONE scalar golden Simulator in
// lockstep from reset and stores, per net, only the *divergence* word
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
// own writes and the workload's backdoor deltas.
//
// Soundness rests on a two-state argument: after reset every golden and
// lane value is definite (0/1), and no engine operation can introduce X, so
// Logic collapses to one bit per lane and XOR divergence is exact.  The
// engine *verifies* the golden machine is X-free at every group start and
// throws std::invalid_argument otherwise.
//
// Workload backdoor() actions must only mutate memories, and only by bit
// flips (the in-tree workloads do); the engine replays them on the golden
// machine and mirrors the memory deltas into lane-owned clones.
//
// Group start.  Every word group starts at cycle 0: the worker resets its
// golden machine the way the serial oracle resets a faulty one
// (resetMachine) and replays the recorded stimulus from there, so each group
// carries one golden timeline from reset to the workload's end (or until its
// last lane retires).
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
// as soon as its verdict is final — detected (fault-sim mode), classified
// (campaign mode with early abort), or washed out (transient spent and all
// divergence zero) — and is refilled from the pending transient queue so
// words stay dense.
//
// Threads.  Word groups fan out over a core::ThreadPool; every worker owns
// its engine (golden Simulator, divergence words, lane clones) and pulls
// groups from the shared LaneScheduler.  Results land in a pre-sized vector
// by fault index and stats are merged once per worker under a mutex, so
// verdicts and observation records are bit-identical to the serial oracle
// for any lane width, thread count or refill order.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/engine_context.hpp"
#include "fault/fault_list.hpp"
#include "faultsim/serial.hpp"
#include "faultsim/stimulus.hpp"
#include "sim/workload.hpp"

namespace socfmea::faultsim {

/// Execution counters of one bit-sliced run (telemetry + bench reporting).
struct BitslicedStats {
  std::uint64_t wordGroups = 0;         ///< word groups launched
  std::uint64_t wordCycles = 0;         ///< group-cycles evaluated
  std::uint64_t laneCycles = 0;         ///< live-lane cycles (occupancy)
  std::uint64_t lanesRetiredEarly = 0;  ///< verdict final before workload end
  std::uint64_t lanesRefilled = 0;      ///< retired lanes re-armed with a fault
  std::uint64_t convergedEarly = 0;     ///< lanes retired by washout
  unsigned laneWords = 1;               ///< limbs per word (64 lanes each)
  unsigned workers = 1;

  /// Mean live lanes per occupied word-cycle, over the word capacity.
  [[nodiscard]] double laneOccupancy() const noexcept {
    const double cap = static_cast<double>(wordCycles) *
                       static_cast<double>(laneWords) * 64.0;
    return cap > 0 ? static_cast<double>(laneCycles) / cap : 0.0;
  }
};

/// The engine's two-state precondition: every net value, flip-flop state
/// and memory read register of `golden` is definite (0/1).  The engine
/// checks it on its golden machine at every word group's start and throws
/// std::invalid_argument when it fails; on a Simulator fresh from reset it
/// decides whether the design can run bit-sliced at all
/// (inject::InjectionManager::resolveEngine).
[[nodiscard]] bool isTwoState(const sim::Simulator& golden);

/// Fault-sim mode: same contract as runSerialFaultSim — a fault is Detected
/// when any observed output diverges from the golden trace — with verdicts
/// bit-identical to the serial oracle.  Composes with opt.threads (one word
/// group per pool task).  Throws std::invalid_argument when the golden
/// machine is not two-state (X-free) after reset.
[[nodiscard]] FaultSimResult runBitslicedFaultSim(
    const fault::EngineContext& ctx, sim::Workload& wl,
    const fault::FaultList& faults, const FaultSimOptions& opt = {},
    BitslicedStats* stats = nullptr);

[[nodiscard]] FaultSimResult runBitslicedFaultSim(
    const netlist::Netlist& nl, sim::Workload& wl,
    const fault::FaultList& faults, const FaultSimOptions& opt = {},
    BitslicedStats* stats = nullptr);

/// Campaign-mode watch specification: net groups (the campaign's sensible
/// zones), individual observation points and asserted-high alarm nets, all
/// compared against the lockstep golden machine every cycle.
struct LaneWatch {
  /// Net groups; a group "deviates" for a lane the first cycle any of its
  /// nets diverges (the zone monitors' packed-snapshot compare).
  std::vector<std::vector<netlist::NetId>> groups;
  /// Individual observation nets; each point records its own first-deviation
  /// independently.
  std::vector<netlist::NetId> points;
  /// Alarm nets: "deviates" = lane reads 1 where golden reads 0.
  std::vector<netlist::NetId> asserted;
  std::uint64_t detectionWindow = 16;
};

/// Per-fault observation, mirroring inject::InjectionObservation but with
/// indices instead of zone/obs ids (the campaign adapter maps them back).
/// groupsDeviated / pointsDeviated are ordered by (first deviation cycle,
/// index) — exactly the order the serial monitors append in.
struct LaneObservation {
  bool sens = false;
  std::uint64_t sensCycle = 0;
  std::vector<std::uint32_t> groupsDeviated;
  bool obs = false;
  std::uint64_t firstObsCycle = 0;
  std::vector<std::uint32_t> pointsDeviated;
  bool diag = false;
  std::uint64_t diagCycle = 0;
};

struct BitslicedCampaign {
  std::vector<LaneObservation> observations;  ///< parallel to the fault list
  BitslicedStats stats;                       ///< the run's execution counters
};

/// Campaign mode: runs every fault against the watch spec, each lane on top
/// of `latent` when it is set (inject::CampaignOptions::preexisting).  With
/// earlyAbort a lane retires once its classification is final (alarm fired,
/// or the detection window closed after the first functional deviation) —
/// the serial campaign's break condition; without it only washed-out
/// transients retire, so accumulated deviation sets stay identical to a
/// full serial replay.  opt.observedOutputs is ignored (the watch spec
/// decides).
[[nodiscard]] BitslicedCampaign runBitslicedWatch(
    const fault::EngineContext& ctx, sim::Workload& wl,
    const fault::FaultList& faults, const LaneWatch& watch,
    const std::optional<fault::Fault>& latent,
    const FaultSimOptions& opt = {});

}  // namespace socfmea::faultsim
