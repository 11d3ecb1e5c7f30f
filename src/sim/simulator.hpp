// Cycle-accurate simulator over the compiled design IR, with the hooks fault
// injection needs: net forcing (stuck-at / SET), flip-flop state flips (SEU),
// bridging faults, and delay faults modelled as stale sampling.
//
// A cycle is: apply inputs -> evalComb() settles all combinational nets ->
// clockEdge() captures flip-flops and services memory ports.  step() does
// both and advances the cycle counter.
//
// evalComb() is event-driven by default: a per-level dirty worklist seeded
// from changed inputs, forced/released nets, flipped flip-flops and changed
// memory read registers re-evaluates only the disturbed cone, falling back
// to a whole-graph settle on reset() and while bridging faults are installed.
// The legacy whole-graph pass is kept selectable (EvalMode::FullSettle) as
// the equivalence oracle; both produce bit-identical values.
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/builder.hpp"
#include "netlist/compiled.hpp"
#include "netlist/netlist.hpp"
#include "sim/logic4.hpp"
#include "sim/memory_model.hpp"

namespace socfmea::sim {

/// How a bridging fault resolves the two shorted nets.
enum class BridgeKind : std::uint8_t {
  WiredAnd,
  WiredOr,
  /// Dominant bridge: net A wins, net B reads A's value.
  DominantA,
};

/// Combinational evaluation strategy.  Both modes settle to bit-identical
/// values; FullSettle re-evaluates every gate per pass and exists as the
/// reference oracle / ablation baseline.
enum class EvalMode : std::uint8_t { EventDriven, FullSettle };

class Simulator {
 public:
  /// Compiles the netlist privately.  Campaign layers that fan a design out
  /// over many machines should compile once and use the shared-form ctor.
  explicit Simulator(const netlist::Netlist& nl);
  /// Shares a pre-compiled design (no per-machine re-levelization).
  explicit Simulator(netlist::CompiledDesignPtr cd);

  [[nodiscard]] const netlist::Netlist& design() const noexcept { return nl_; }
  [[nodiscard]] const netlist::CompiledDesign& compiled() const noexcept {
    return *cd_;
  }
  [[nodiscard]] std::uint64_t cycle() const noexcept { return cycle_; }

  void setEvalMode(EvalMode m) noexcept { mode_ = m; }
  [[nodiscard]] EvalMode evalMode() const noexcept { return mode_; }

  /// Lifetime activity counters (telemetry, not machine state): they are
  /// excluded from snapshots and stateEquals() ignores them.  The campaign
  /// layers aggregate them into obs::Registry after a run to report where
  /// the evaluation work went.
  struct PerfCounters {
    std::uint64_t cycles = 0;     ///< clockEdge() calls
    std::uint64_t combEvals = 0;  ///< combinational settle passes
    std::uint64_t cellEvals = 0;  ///< individual cell evaluations
    std::uint64_t fullSettles = 0;   ///< passes that walked every gate
    std::uint64_t eventSettles = 0;  ///< passes limited to the dirty cone
  };
  [[nodiscard]] const PerfCounters& perf() const noexcept { return perf_; }
  void resetPerf() noexcept { perf_ = {}; }

  /// Resets state: flip-flops to their init values, memory read registers to
  /// 0, cycle counter to 0.  Memory contents and injected faults are kept.
  void reset();

  // ---- stimulus ------------------------------------------------------------

  void setInput(netlist::NetId net, Logic v);
  void setInput(std::string_view name, bool v);
  /// Drives a bus of input nets from an integer (LSB first).
  void setInputBus(const netlist::Bus& bus, std::uint64_t value);

  // ---- evaluation ----------------------------------------------------------

  /// Settles all combinational nets from current state/inputs.
  void evalComb();
  /// Captures flip-flops and memory ports from the settled net values.
  void clockEdge();
  /// evalComb + clockEdge + cycle++.
  void step();
  /// Runs `n` cycles.
  void run(std::uint64_t n);

  // ---- observation ---------------------------------------------------------

  /// Settled value of a net.  If state changed since the last evalComb()
  /// (clock edge, input change, fault hook), the combinational network is
  /// settled transparently first.  Throws std::out_of_range on an invalid
  /// net id.
  [[nodiscard]] Logic value(netlist::NetId net) const {
    if (net >= netVal_.size()) {
      throw std::out_of_range("Simulator::value: net id " +
                              std::to_string(net) + " out of range (design '" +
                              nl_.name() + "' has " +
                              std::to_string(netVal_.size()) + " nets)");
    }
    ensureSettled();
    return netVal_[net];
  }
  [[nodiscard]] Logic value(std::string_view netName) const;
  /// Packs a bus into an integer; unknown bits read 0.
  [[nodiscard]] std::uint64_t busValue(const netlist::Bus& bus) const;
  /// Current stored state of a flip-flop.
  [[nodiscard]] Logic ffState(netlist::CellId ff) const { return ffState_.at(ff); }
  /// Bulk read-only views for lockstep engines that compare a whole machine
  /// against this one every cycle (the bit-sliced fault-parallel engine).
  /// netValues() settles first, so the view is always self-consistent.
  [[nodiscard]] std::span<const Logic> netValues() const {
    ensureSettled();
    return netVal_;
  }
  [[nodiscard]] std::span<const Logic> ffStates() const noexcept {
    return ffState_;
  }
  [[nodiscard]] std::span<const Logic> ffPrevDs() const noexcept {
    return ffPrevD_;
  }
  /// Registered read data of one memory (post clockEdge).
  [[nodiscard]] std::span<const Logic> memReadReg(netlist::MemoryId id) const {
    return memRdataReg_.at(id);
  }
  [[nodiscard]] MemoryModel& memory(netlist::MemoryId id) { return mems_.at(id); }
  [[nodiscard]] const MemoryModel& memory(netlist::MemoryId id) const {
    return mems_.at(id);
  }

  // ---- fault hooks ---------------------------------------------------------

  /// Forces a net to a value during evalComb until released (stuck-at).
  void forceNet(netlist::NetId net, Logic v);
  void releaseNet(netlist::NetId net);
  void releaseAllNets();

  /// Inverts a flip-flop's stored state now (SEU).
  void flipFf(netlist::CellId ff);
  /// Overwrites a flip-flop's stored state.
  void setFfState(netlist::CellId ff, Logic v);

  /// Installs a bridging fault between two nets; resolved after every
  /// evalComb pass with a second settle pass so downstream logic sees the
  /// bridged values.
  void addBridge(netlist::NetId a, netlist::NetId b, BridgeKind kind);
  void clearBridges();

  /// Delay-fault model: the flip-flop samples the previous cycle's D value.
  void setStaleSampling(netlist::CellId ff, bool on);
  void clearStaleSampling();

  /// Per-cycle callback invoked after evalComb, before clockEdge.  Used by
  /// monitors.
  using Observer = std::function<void(Simulator&)>;
  void addObserver(Observer obs) { observers_.push_back(std::move(obs)); }
  void clearObservers() { observers_.clear(); }

  // ---- snapshot / compare --------------------------------------------------

  /// Full machine state at an instant: cycle counter, net values, flip-flop
  /// state, input drivers, memory contents (explicit clone) and installed
  /// fault hooks (forces, bridges, stale sampling).  Observers are NOT part
  /// of the snapshot.
  ///
  /// The eval-mode equivalence tests compare an EventDriven and a
  /// FullSettle machine through it every cycle; no campaign engine uses it.
  struct Snapshot;

  /// Captures the current state (call on settled or unsettled state alike;
  /// the combinational network is settled first so the snapshot is
  /// self-consistent).
  [[nodiscard]] Snapshot snapshot() const;

  /// True when the complete machine state (cycle, flip-flops, nets, inputs,
  /// memories, fault hooks) equals the snapshot — from that point on, the
  /// two machines evolve identically under identical stimulus.  Memories
  /// with fault overlays and installed bridges conservatively compare
  /// unequal.  The eval-mode equivalence tests assert it every cycle.
  [[nodiscard]] bool stateEquals(const Snapshot& s) const;

 private:
  void initState();
  void settleFull();
  void settleEvent();
  void writeNet(netlist::NetId net, Logic v);
  /// Marks a net whose source value may have changed; its readers re-settle
  /// on the next event-driven pass.
  void markNetDirty(netlist::NetId net);
  void markCellDirty(std::uint32_t pos);
  void clearDirtyMarks();
  /// Writes `v` (under any force) to `net` and marks reading comb cells
  /// dirty on change.
  void propagateNet(netlist::NetId net, Logic v);
  /// Re-settles combinational values if state changed since evalComb().
  void ensureSettled() const {
    if (dirty_) const_cast<Simulator*>(this)->evalComb();
  }

  netlist::CompiledDesignPtr cd_;
  const netlist::Netlist& nl_;
  std::uint64_t cycle_ = 0;
  PerfCounters perf_;
  EvalMode mode_ = EvalMode::EventDriven;

  std::vector<Logic> netVal_;           // per net
  std::vector<Logic> ffState_;          // per cell (Dff only meaningful)
  std::vector<Logic> ffPrevD_;          // per cell, previous-cycle D value
  std::vector<Logic> inputVal_;         // per cell (Input only meaningful)
  std::vector<MemoryModel> mems_;       // per memory instance
  std::vector<std::vector<Logic>> memRdataReg_;  // registered read data

  std::unordered_map<netlist::NetId, Logic> forces_;
  struct Bridge {
    netlist::NetId a;
    netlist::NetId b;
    BridgeKind kind;
  };
  std::vector<Bridge> bridges_;
  std::vector<bool> stale_;  // per cell
  bool anyStale_ = false;
  mutable bool dirty_ = true;
  std::vector<Observer> observers_;

  // Event-driven worklist state.  fullDirty_ requests a whole-graph settle
  // (reset, bridge install/clear); dirtyNets_ seeds the per-level
  // buckets of disturbed combinational cells otherwise.
  bool fullDirty_ = true;
  std::vector<netlist::NetId> dirtyNets_;
  std::vector<std::uint8_t> netDirty_;   // per net
  std::vector<std::uint8_t> cellDirty_;  // per order position
  std::vector<std::vector<std::uint32_t>> levelBucket_;  // per level
  std::vector<Logic> insScratch_;
};

struct Simulator::Snapshot {
  std::uint64_t cycle = 0;
  std::vector<Logic> netVal;
  std::vector<Logic> ffState;
  std::vector<Logic> ffPrevD;
  std::vector<Logic> inputVal;
  std::vector<MemoryModel> mems;  ///< explicit clone of every memory
  std::vector<std::vector<Logic>> memRdataReg;
  std::unordered_map<netlist::NetId, Logic> forces;
  std::vector<Bridge> bridges;
  std::vector<bool> stale;
  bool anyStale = false;
};

}  // namespace socfmea::sim
