#include "faultsim/bitsliced.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/thread_pool.hpp"
#include "faultsim/lanes.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"

namespace socfmea::faultsim {

namespace {

using fault::Fault;
using fault::FaultKind;
using netlist::CellId;
using netlist::CellType;
using netlist::CompiledDesign;
using netlist::kNoCell;
using netlist::kNoNet;
using netlist::MemoryId;
using netlist::MemoryInst;
using netlist::NetId;
using sim::Logic;

constexpr std::size_t kNoFault = static_cast<std::size_t>(-1);

/// First cycle a fault can perturb a machine: transients act at their
/// scheduled cycle, permanent faults from reset.
[[nodiscard]] std::uint64_t firstActiveCycle(const Fault& f) {
  return f.transient() ? f.cycle : 0;
}

/// How a lane's verdict becomes final before the workload ends.
enum class RetireMode : std::uint8_t {
  WashoutOnly,  ///< only spent transients with zero divergence retire
  DetectOnly,   ///< fault-sim early abort: retire at the first point deviation
  Classify,     ///< campaign early abort: alarm fired or the window closed
};

/// Everything the word-group workers share read-only (plus the scheduler and
/// the result vector, which are sharded by fault index / internally locked).
struct RunShared {
  netlist::CompiledDesignPtr cdp;
  const fault::FaultList* faults = nullptr;
  /// Campaign-wide latent fault carried by every lane (null = none).
  const Fault* latent = nullptr;
  StimulusTrace stim;
  std::uint64_t cycles = 0;
  const LaneWatch* watch = nullptr;
  sim::Workload* wl = nullptr;
  sim::EvalMode evalMode = sim::EvalMode::EventDriven;
  RetireMode retire = RetireMode::WashoutOnly;
  std::uint64_t washEvery = 4;

  LaneScheduler* sched = nullptr;
  std::vector<LaneObservation>* results = nullptr;  ///< by fault index
  std::mutex* statsMu = nullptr;
  BitslicedStats* stats = nullptr;
};

/// One word group: NB*64 lanes evaluated in lockstep against a private
/// golden Simulator, storing per-net divergence words.  An engine instance
/// is owned by one worker thread and reused across groups.
template <unsigned NB>
class WordEngine {
 public:
  using Word = BitWord<NB>;
  static constexpr unsigned kLanes = Word::kLanes;

  explicit WordEngine(const RunShared& rs)
      : rs_(rs),
        cd_(*rs.cdp),
        nl_(cd_.design()),
        golden_(rs.cdp) {
    golden_.setEvalMode(rs_.evalMode);
    const std::size_t nets = cd_.netCount();
    const std::size_t combs = cd_.combCount();
    const std::size_t nffs = cd_.ffs().size();
    div_.assign(nets, Word::zero());
    forceMask_.assign(nets, Word::zero());
    forceVal_.assign(nets, Word::zero());
    touched_.assign(nets, 0);
    zeroAge_.assign(nets, 0);
    faninTouched_.assign(combs, 0);
    inActive_.assign(combs, 0);
    evDirty_.assign(combs, 0);
    kicked_.assign(combs, 0);
    activeList_.assign(cd_.levelCount(), {});
    kickBucket_.assign(cd_.levelCount(), {});
    evBucket_.assign(cd_.levelCount(), {});
    ffIndexOfCell_.assign(cd_.cellCount(), 0);
    for (std::size_t i = 0; i < nffs; ++i) {
      ffIndexOfCell_[cd_.ffs()[i]] = static_cast<std::uint32_t>(i);
    }
    ffDiv_.assign(nffs, Word::zero());
    ffStale_.assign(nffs, Word::zero());
    prevDivD_.assign(nffs, Word::zero());
    ffPin_.assign(nffs, 0);
    inFfList_.assign(nffs, 0);
    const std::size_t mems = nl_.memoryCount();
    memRegDiv_.resize(mems);
    for (MemoryId m = 0; m < mems; ++m) {
      memRegDiv_[m].assign(nl_.memory(m).dataBits, Word::zero());
    }
    memPin_.assign(mems, 0);
    inMemList_.assign(mems, 0);
    ownedMask_.assign(mems, Word::zero());
    cloneFaulty_.assign(mems, Word::zero());
    clones_.resize(mems);
    for (auto& c : clones_) c.resize(kLanes);
    laneFault_.assign(kLanes, kNoFault);
    obs_.resize(kLanes);
  }

  /// Pulls word groups from the shared scheduler until it drains.
  void runAll() {
    for (;;) {
      const std::vector<std::size_t> group = rs_.sched->takeGroup(kLanes);
      if (group.empty()) break;
      runGroup(group);
    }
    const std::lock_guard<std::mutex> lock(*rs_.statsMu);
    rs_.stats->wordGroups += stats_.wordGroups;
    rs_.stats->wordCycles += stats_.wordCycles;
    rs_.stats->laneCycles += stats_.laneCycles;
    rs_.stats->lanesRetiredEarly += stats_.lanesRetiredEarly;
    rs_.stats->lanesRefilled += stats_.lanesRefilled;
    rs_.stats->convergedEarly += stats_.convergedEarly;
  }

 private:
  struct BridgeLane {
    unsigned lane;
    NetId a;
    NetId b;
    bool wiredAnd;
    bool latent;  ///< installed from the campaign's latent fault
  };

  // ---- divergence bookkeeping ----------------------------------------------

  [[nodiscard]] Word laneWordOf(NetId n, std::span<const Logic> g) const {
    return Word::broadcast(g[n] == Logic::L1) ^ div_[n];
  }

  void addActive(std::uint32_t pos) {
    if (inActive_[pos] == 0) {
      inActive_[pos] = 1;
      activeList_[cd_.combLevel(pos)].push_back(pos);
    }
  }

  void addFfList(std::uint32_t i) {
    if (inFfList_[i] == 0) {
      inFfList_[i] = 1;
      ffList_.push_back(i);
    }
  }

  void addMemList(MemoryId m) {
    if (inMemList_[m] == 0) {
      inMemList_[m] = 1;
      memList_.push_back(m);
    }
  }

  void ensureTouched(NetId n) {
    if (touched_[n] != 0) return;
    touched_[n] = 1;
    zeroAge_[n] = 0;
    touchedList_.push_back(n);
    for (const CellId s : cd_.fanout(n)) {
      const std::uint32_t pos = cd_.posOfCell(s);
      if (pos != CompiledDesign::kNoPos) {
        ++faninTouched_[pos];
        addActive(pos);
      } else if (cd_.cellType(s) == CellType::Dff) {
        const std::uint32_t i = ffIndexOfCell_[s];
        ++ffPin_[i];
        addFfList(i);
      }
    }
    for (const MemoryId m : cd_.memWriteSinks(n)) {
      ++memPin_[m];
      addMemList(m);
    }
  }

  void untouch(NetId n) {
    touched_[n] = 0;
    zeroAge_[n] = 0;
    for (const CellId s : cd_.fanout(n)) {
      const std::uint32_t pos = cd_.posOfCell(s);
      if (pos != CompiledDesign::kNoPos) {
        --faninTouched_[pos];
      } else if (cd_.cellType(s) == CellType::Dff) {
        --ffPin_[ffIndexOfCell_[s]];
      }
    }
    for (const MemoryId m : cd_.memWriteSinks(n)) --memPin_[m];
  }

  void setDiv(NetId n, const Word& w) {
    div_[n] = w;
    if (w.any()) {
      ensureTouched(n);
      zeroAge_[n] = 0;
    }
  }

  /// Replaces the unforced lane bits of div[n] from `natural`, keeping
  /// forced bits as they are.  Forced bits are re-derived against the fresh
  /// golden value at the next seed phase before anything reads them.
  void setDivKeepForced(NetId n, const Word& natural) {
    setDiv(n, andnot(natural, forceMask_[n]) | (div_[n] & forceMask_[n]));
  }

  /// Applies the per-lane force overlay to a natural divergence word, given
  /// this cycle's settled golden values.
  [[nodiscard]] Word overlayDiv(NetId n, const Word& natural,
                                std::span<const Logic> g) const {
    const Word& m = forceMask_[n];
    if (m.none()) return natural;
    const Word forcedDiv = forceVal_[n] ^ Word::broadcast(g[n] == Logic::L1);
    return andnot(natural, m) | (forcedDiv & m);
  }

  void addForce(NetId n, unsigned lane, bool value) {
    forceMask_[n].setBit(lane);
    if (value) {
      forceVal_[n].setBit(lane);
    } else {
      forceVal_[n].clearBit(lane);
    }
    ensureTouched(n);
    if (forcedLookup_[n] == 0) {
      forcedLookup_[n] = 1;
      forcedList_.push_back(n);
    }
  }

  void clearForce(NetId n, unsigned lane) {
    forceMask_[n].clearBit(lane);
    forceVal_[n].clearBit(lane);
    // forcedList_ entries are dropped lazily at the seed phase.
  }

  // ---- word kernels --------------------------------------------------------

  [[nodiscard]] Word evalCellWord(std::uint32_t pos,
                                  std::span<const Logic> g) const {
    const std::span<const NetId> ins = cd_.combInputs(pos);
    switch (cd_.combType(pos)) {
      case CellType::Const0: return Word::zero();
      case CellType::Const1: return Word::ones();
      case CellType::Buf: return laneWordOf(ins[0], g);
      case CellType::Not: return ~laneWordOf(ins[0], g);
      case CellType::And: {
        Word w = Word::ones();
        for (const NetId in : ins) w &= laneWordOf(in, g);
        return w;
      }
      case CellType::Nand: {
        Word w = Word::ones();
        for (const NetId in : ins) w &= laneWordOf(in, g);
        return ~w;
      }
      case CellType::Or: {
        Word w = Word::zero();
        for (const NetId in : ins) w |= laneWordOf(in, g);
        return w;
      }
      case CellType::Nor: {
        Word w = Word::zero();
        for (const NetId in : ins) w |= laneWordOf(in, g);
        return ~w;
      }
      case CellType::Xor: {
        Word w = Word::zero();
        for (const NetId in : ins) w ^= laneWordOf(in, g);
        return w;
      }
      case CellType::Xnor: {
        Word w = Word::zero();
        for (const NetId in : ins) w ^= laneWordOf(in, g);
        return ~w;
      }
      case CellType::Mux2: {
        const Word s = laneWordOf(ins[0], g);
        const Word a = laneWordOf(ins[1], g);
        const Word b = laneWordOf(ins[2], g);
        return (s & b) | andnot(a, s);
      }
      default:
        return Word::broadcast(g[cd_.combOutput(pos)] == Logic::L1);
    }
  }

  void evalPass1(std::uint32_t pos, std::span<const Logic> g) {
    const NetId out = cd_.combOutput(pos);
    const Word natural =
        evalCellWord(pos, g) ^ Word::broadcast(g[out] == Logic::L1);
    setDiv(out, overlayDiv(out, natural, g));
  }

  void sweepPass1(std::span<const Logic> g) {
    const std::uint32_t levels = cd_.levelCount();
    for (std::uint32_t level = 0; level < levels; ++level) {
      auto& act = activeList_[level];
      auto& kicks = kickBucket_[level];
      // Only cells with a touched input (or a kick) are listed, so a level
      // no live lane has disturbed costs one emptiness check.
      if (act.empty() && kicks.empty()) continue;
      for (std::size_t i = 0; i < act.size();) {
        const std::uint32_t pos = act[i];
        if (faninTouched_[pos] == 0) {
          inActive_[pos] = 0;
          act[i] = act.back();
          act.pop_back();
          continue;
        }
        evalPass1(pos, g);
        ++i;
      }
      for (const std::uint32_t pos : kicks) {
        kicked_[pos] = 0;
        if (inActive_[pos] == 0 || faninTouched_[pos] == 0) evalPass1(pos, g);
      }
      kicks.clear();
    }
  }

  void kickCell(std::uint32_t pos) {
    if (kicked_[pos] == 0) {
      kicked_[pos] = 1;
      kickBucket_[cd_.combLevel(pos)].push_back(pos);
    }
  }

  // ---- within-cycle event sweep (bridge resolve, SET pulses) ---------------

  void evSeed(NetId n) {
    for (const CellId s : cd_.fanout(n)) {
      const std::uint32_t pos = cd_.posOfCell(s);
      if (pos == CompiledDesign::kNoPos) continue;
      if (evDirty_[pos] == 0) {
        evDirty_[pos] = 1;
        evBucket_[cd_.combLevel(pos)].push_back(pos);
      }
    }
  }

  void evSweep(std::span<const Logic> g) {
    for (std::uint32_t level = 0; level < cd_.levelCount(); ++level) {
      auto& bucket = evBucket_[level];
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const std::uint32_t pos = bucket[i];
        evDirty_[pos] = 0;
        const NetId out = cd_.combOutput(pos);
        const Word natural =
            evalCellWord(pos, g) ^ Word::broadcast(g[out] == Logic::L1);
        const Word nd = overlayDiv(out, natural, g);
        if (!(nd == div_[out])) {
          setDiv(out, nd);
          evSeed(out);
        }
      }
      bucket.clear();
    }
  }

  // ---- per-kind install / activation ---------------------------------------

  void ensureOwned(MemoryId m, unsigned lane) {
    if (ownedMask_[m].bit(lane)) return;
    clones_[m][lane] =
        std::make_unique<sim::MemoryModel>(golden_.memory(m));
    ownedMask_[m].setBit(lane);
    addMemList(m);
  }

  /// Arms a lane with fault `fi`, on top of the latent fault when there is
  /// one (installed first, like the serial machine step).
  void installLane(unsigned lane, std::size_t fi) {
    laneFault_[lane] = fi;
    live_.setBit(lane);
    obs_[lane] = LaneObservation{};
    if (rs_.latent != nullptr) installFault(lane, *rs_.latent);
    installFault(lane, (*rs_.faults)[fi]);
  }

  void installFault(unsigned lane, const Fault& f) {
    switch (f.kind) {
      case FaultKind::StuckAt0:
        addForce(f.net, lane, false);
        break;
      case FaultKind::StuckAt1:
        addForce(f.net, lane, true);
        break;
      case FaultKind::BridgeAnd:
      case FaultKind::BridgeOr:
        bridgeLanes_.push_back({lane, f.net, f.net2,
                                f.kind == FaultKind::BridgeAnd,
                                &f == rs_.latent});
        ensureTouched(f.net);
        ensureTouched(f.net2);
        break;
      case FaultKind::DelayStale: {
        const std::uint32_t i = ffIndexOfCell_[f.cell];
        ffStale_[i].setBit(lane);
        addFfList(i);
        break;
      }
      case FaultKind::MemStuckBit:
        ensureOwned(f.mem, lane);
        clones_[f.mem][lane]->addStuckBit(f.addr, f.bit, f.stuckValue);
        cloneFaulty_[f.mem].setBit(lane);
        break;
      case FaultKind::MemAddrNone:
        ensureOwned(f.mem, lane);
        clones_[f.mem][lane]->setAddressFault(f.addr,
                                              sim::AddressFaultKind::NoAccess);
        cloneFaulty_[f.mem].setBit(lane);
        break;
      case FaultKind::MemAddrWrong:
        ensureOwned(f.mem, lane);
        clones_[f.mem][lane]->setAddressFault(
            f.addr, sim::AddressFaultKind::Wrong, f.addr2);
        cloneFaulty_[f.mem].setBit(lane);
        break;
      case FaultKind::MemAddrMulti:
        ensureOwned(f.mem, lane);
        clones_[f.mem][lane]->setAddressFault(
            f.addr, sim::AddressFaultKind::Multiple, f.addr2);
        cloneFaulty_[f.mem].setBit(lane);
        break;
      case FaultKind::MemCoupling: {
        ensureOwned(f.mem, lane);
        sim::CouplingFault c;
        c.aggressorAddr = f.addr;
        c.aggressorBit = f.bit;
        c.victimAddr = f.addr2;
        c.victimBit = f.bit;
        c.invert = true;
        clones_[f.mem][lane]->addCoupling(c);
        cloneFaulty_[f.mem].setBit(lane);
        break;
      }
      case FaultKind::SeuFlip:
      case FaultKind::SetPulse:
      case FaultKind::MemSoftError:
      case FaultKind::MultiSeu:
        break;  // transient; activated at the scheduled cycle
    }
  }

  /// SEU flips and memory soft errors act before the cycle's inputs, exactly
  /// where FaultHarness::beforeCycle runs in the serial loop — the latent
  /// fault's first.
  void activateTransients(std::uint64_t c) {
    forEachLane(live_, [&](unsigned lane) {
      if (rs_.latent != nullptr) activateTransient(lane, *rs_.latent, c);
      activateTransient(lane, (*rs_.faults)[laneFault_[lane]], c);
    });
  }

  void activateTransient(unsigned lane, const Fault& f, std::uint64_t c) {
    if (f.cycle != c) return;
    if (f.kind == FaultKind::SeuFlip) {
      const std::uint32_t i = ffIndexOfCell_[f.cell];
      const Word mask = Word::laneMask(lane);
      ffDiv_[i] ^= mask;
      addFfList(i);
      const NetId q = cd_.cellOutput(f.cell);
      setDiv(q, div_[q] ^ mask);
    } else if (f.kind == FaultKind::MultiSeu) {
      const Word mask = Word::laneMask(lane);
      for (const netlist::CellId cell : f.cells) {
        const std::uint32_t i = ffIndexOfCell_[cell];
        ffDiv_[i] ^= mask;
        addFfList(i);
        const NetId q = cd_.cellOutput(cell);
        setDiv(q, div_[q] ^ mask);
      }
    } else if (f.kind == FaultKind::MemSoftError) {
      ensureOwned(f.mem, lane);
      clones_[f.mem][lane]->flipBit(f.addr, f.bit);
    }
  }

  // ---- seed phase ----------------------------------------------------------

  /// Natural (unforced) divergence of a source-driven net; comb-driven nets
  /// are re-derived by kicking their driver into this cycle's sweep.
  void reseedFromSource(NetId n) {
    const netlist::NetSource& src = cd_.netSource(n);
    switch (src.kind) {
      case netlist::NetSourceKind::Comb:
        kickCell(cd_.posOfCell(src.id));
        break;
      case netlist::NetSourceKind::Input:
        setDivKeepForced(n, Word::zero());
        break;
      case netlist::NetSourceKind::Ff:
        setDivKeepForced(n, ffDiv_[ffIndexOfCell_[src.id]]);
        break;
      case netlist::NetSourceKind::Memory:
        setDivKeepForced(n, memRegDiv_[src.id][src.bit]);
        break;
      case netlist::NetSourceKind::None:
        break;
    }
  }

  void seedPhase(std::span<const Logic> g) {
    // Bridges re-resolve per cycle: drop last cycle's resolved forces and
    // re-derive the nets' natural values (the serial engine's first settle).
    for (const BridgeLane& b : bridgeLanes_) releaseBridge(b);
    // Forced nets track the golden value cycle by cycle: the forced-lane
    // divergence is (forced value XOR golden), recomputed against this
    // cycle's settled golden machine.
    for (std::size_t i = 0; i < forcedList_.size();) {
      const NetId n = forcedList_[i];
      if (forceMask_[n].none()) {
        forcedLookup_[n] = 0;
        forcedList_[i] = forcedList_.back();
        forcedList_.pop_back();
        continue;
      }
      setDiv(n, overlayDiv(n, andnot(div_[n], forceMask_[n]), g));
      ++i;
    }
  }

  /// Drops a bridge's resolved forces and re-derives its nets' natural
  /// values; a net the lane holds an explicit force on keeps it.
  void releaseBridge(const BridgeLane& b) {
    for (const NetId net : {b.a, b.b}) {
      if (userForced(b.lane, net)) continue;
      clearForce(net, b.lane);
      reseedFromSource(net);
    }
  }

  /// True when the lane holds a stuck-at or an active SET force on `n`.
  /// Such an explicit force wins over a bridge's resolved value, as in the
  /// scalar engine (only a lane carrying two faults can hit this).
  [[nodiscard]] bool userForced(unsigned lane, NetId n) const {
    const auto stuckOn = [n](const Fault& f) {
      return (f.kind == FaultKind::StuckAt0 ||
              f.kind == FaultKind::StuckAt1) &&
             f.net == n;
    };
    if (rs_.latent != nullptr && stuckOn(*rs_.latent)) return true;
    if (stuckOn((*rs_.faults)[laneFault_[lane]])) return true;
    return std::find(pulseActive_.begin(), pulseActive_.end(),
                     std::pair{lane, n}) != pulseActive_.end();
  }

  /// True when the latent fault is a bridge on `n`.
  [[nodiscard]] bool onLatentBridge(NetId n) const {
    const Fault* l = rs_.latent;
    return l != nullptr &&
           (l->kind == FaultKind::BridgeAnd ||
            l->kind == FaultKind::BridgeOr) &&
           (l->net == n || l->net2 == n);
  }

  /// Resolves the bridges of `lanes` like the scalar engine's second
  /// settle: every bridge reads the same settled values, then forces both
  /// of its nets — except a net under an explicit force, or a net the
  /// latent bridge (installed first, so it wins) shares with the lane's own.
  void resolveBridges(std::span<const Logic> g, const Word& lanes) {
    if (bridgeLanes_.empty()) return;
    bridgeValue_.clear();
    for (const BridgeLane& b : bridgeLanes_) {
      const bool va = (g[b.a] == Logic::L1) != div_[b.a].bit(b.lane);
      const bool vb = (g[b.b] == Logic::L1) != div_[b.b].bit(b.lane);
      bridgeValue_.push_back(b.wiredAnd ? (va && vb) : (va || vb));
    }
    bool changed = false;
    for (std::size_t i = 0; i < bridgeLanes_.size(); ++i) {
      const BridgeLane& b = bridgeLanes_[i];
      if (!lanes.bit(b.lane) || !live_.bit(b.lane)) continue;
      const bool r = bridgeValue_[i] != 0;
      for (const NetId net : {b.a, b.b}) {
        if (userForced(b.lane, net) || (!b.latent && onLatentBridge(net))) {
          continue;
        }
        forceMask_[net].setBit(b.lane);
        if (r) {
          forceVal_[net].setBit(b.lane);
        } else {
          forceVal_[net].clearBit(b.lane);
        }
        if (forcedLookup_[net] == 0) {
          forcedLookup_[net] = 1;
          forcedList_.push_back(net);
        }
        const bool newDiv = r != (g[net] == Logic::L1);
        if (div_[net].bit(b.lane) != newDiv) {
          Word w = div_[net];
          if (newDiv) {
            w.setBit(b.lane);
          } else {
            w.clearBit(b.lane);
          }
          setDiv(net, w);
          evSeed(net);
          changed = true;
        }
      }
    }
    if (changed) evSweep(g);
  }

  /// SET pulses: the latent fault's in every live lane first, settled, then
  /// each lane's own — the serial machine step's order, in which a pulse
  /// reads the values the previous one settled.
  void applyPulses(std::uint64_t c, std::span<const Logic> g) {
    const Fault* latent = rs_.latent;
    if (latent != nullptr && latent->kind == FaultKind::SetPulse &&
        latent->cycle == c) {
      forEachLane(live_,
                  [&](unsigned lane) { pulseLane(lane, latent->net, g); });
      settlePulses(live_, g);
    }
    Word pulsed = Word::zero();
    forEachLane(live_, [&](unsigned lane) {
      const Fault& f = (*rs_.faults)[laneFault_[lane]];
      if (f.kind != FaultKind::SetPulse || f.cycle != c) return;
      pulseLane(lane, f.net, g);
      pulsed.setBit(lane);
    });
    if (pulsed.any()) settlePulses(pulsed, g);
  }

  /// Settles freshly pulsed lanes the way the scalar engine re-runs
  /// evalComb after a pulse: propagate the pulse, and in a pulsed lane that
  /// also carries a bridge, re-derive the natural values and re-resolve.
  void settlePulses(const Word& pulsed, std::span<const Logic> g) {
    evSweep(g);
    Word rebridge = Word::zero();
    for (const BridgeLane& b : bridgeLanes_) {
      if (pulsed.bit(b.lane)) rebridge.setBit(b.lane);
    }
    if (rebridge.none()) return;
    for (const BridgeLane& b : bridgeLanes_) {
      if (rebridge.bit(b.lane)) releaseBridge(b);
    }
    sweepPass1(g);
    resolveBridges(g, rebridge);
  }

  /// Inverts the lane's own settled value of `net` until releasePulses(),
  /// like FaultHarness::applyPulse.
  void pulseLane(unsigned lane, NetId net, std::span<const Logic> g) {
    const bool settled = (g[net] == Logic::L1) != div_[net].bit(lane);
    addForce(net, lane, !settled);
    Word w = div_[net];
    if (!settled != (g[net] == Logic::L1)) {
      w.setBit(lane);
    } else {
      w.clearBit(lane);
    }
    setDiv(net, w);
    evSeed(net);
    pulseActive_.push_back({lane, net});
  }

  void releasePulses() {
    for (const auto& [lane, net] : pulseActive_) {
      clearForce(net, lane);
      reseedFromSource(net);
    }
    pulseActive_.clear();
  }

  // ---- observation ---------------------------------------------------------

  template <typename Fn>
  void forEachLane(const Word& w, Fn&& fn) const {
    for (unsigned limb = 0; limb < NB; ++limb) {
      std::uint64_t bits = w.b[limb];
      while (bits != 0) {
        const unsigned lane =
            limb * 64 + static_cast<unsigned>(__builtin_ctzll(bits));
        bits &= bits - 1;
        fn(lane);
      }
    }
  }

  void observe(std::uint64_t c, std::span<const Logic> g) {
    const LaneWatch& w = *rs_.watch;
    // SENS groups, ascending index — the serial monitors' zone order.
    for (std::size_t t = 0; t < w.groups.size(); ++t) {
      Word dev = Word::zero();
      for (const NetId n : w.groups[t]) {
        if (touched_[n] != 0) dev |= div_[n];
      }
      const Word fresh = andnot(dev & live_, groupHit_[t]);
      if (fresh.none()) continue;
      groupHit_[t] |= fresh;
      forEachLane(fresh, [&](unsigned lane) {
        LaneObservation& o = obs_[lane];
        o.groupsDeviated.push_back(static_cast<std::uint32_t>(t));
        if (!o.sens) {
          o.sens = true;
          o.sensCycle = c;
        }
      });
    }
    // OBSE points, ascending index.
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      const NetId n = w.points[i];
      if (touched_[n] == 0) continue;
      const Word fresh = andnot(div_[n] & live_, pointHit_[i]);
      if (fresh.none()) continue;
      pointHit_[i] |= fresh;
      forEachLane(fresh, [&](unsigned lane) {
        LaneObservation& o = obs_[lane];
        o.pointsDeviated.push_back(static_cast<std::uint32_t>(i));
        if (!o.obs) {
          o.obs = true;
          o.firstObsCycle = c;
        }
      });
    }
    // DIAG: the lane reads 1 where the golden machine reads 0.
    if (!w.asserted.empty()) {
      Word dw = Word::zero();
      for (const NetId n : w.asserted) {
        if (touched_[n] != 0 && g[n] == Logic::L0) dw |= div_[n];
      }
      const Word fresh = andnot(dw & live_, diagDone_);
      if (fresh.any()) {
        diagDone_ |= fresh;
        forEachLane(fresh, [&](unsigned lane) {
          obs_[lane].diag = true;
          obs_[lane].diagCycle = c;
        });
      }
    }
  }

  // ---- clock edge ----------------------------------------------------------

  [[nodiscard]] std::uint64_t packGolden(const std::vector<NetId>& nets,
                                         std::span<const Logic> g) const {
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < nets.size(); ++b) {
      if (g[nets[b]] == Logic::L1) v |= std::uint64_t{1} << b;
    }
    return v;
  }

  [[nodiscard]] std::uint64_t laneXorOf(const std::vector<NetId>& nets,
                                        unsigned lane) const {
    std::uint64_t x = 0;
    for (std::size_t b = 0; b < nets.size(); ++b) {
      if (touched_[nets[b]] != 0 && div_[nets[b]].bit(lane)) {
        x |= std::uint64_t{1} << b;
      }
    }
    return x;
  }

  struct MemLaneScratch {
    unsigned lane = 0;
    bool re = false;
    std::uint64_t addr = 0;
  };

  void clockEdge(std::span<const Logic> g) {
    // --- memory ports, pre-edge: sample lane port values, clone on write
    // divergence, replay lane-local writes into owned clones.
    memScratch_.clear();
    memScratchOffset_.clear();
    gShadow_.clear();
    for (const MemoryId m : memList_) {
      const MemoryInst& mi = nl_.memory(m);
      const std::uint64_t gAddr = packGolden(mi.addr, g);
      const std::uint64_t gData = packGolden(mi.wdata, g);
      const bool gWe = g[mi.writeEnable] == Logic::L1;
      const bool gRe =
          mi.readEnable == kNoNet || g[mi.readEnable] == Logic::L1;
      Word portDiv = Word::zero();
      for (const NetId n : mi.addr) {
        if (touched_[n] != 0) portDiv |= div_[n];
      }
      for (const NetId n : mi.wdata) {
        if (touched_[n] != 0) portDiv |= div_[n];
      }
      if (touched_[mi.writeEnable] != 0) portDiv |= div_[mi.writeEnable];
      if (mi.readEnable != kNoNet && touched_[mi.readEnable] != 0) {
        portDiv |= div_[mi.readEnable];
      }
      Word regDivU = Word::zero();
      for (const Word& w : memRegDiv_[m]) regDivU |= w;
      const Word involved = live_ & (ownedMask_[m] | portDiv | regDivU);

      memScratchOffset_.push_back(memScratch_.size());
      // Golden read register before the edge (the hold value of lanes whose
      // read enable is low this cycle).
      const std::span<const Logic> shadow = golden_.memReadReg(m);
      gShadow_.emplace_back(shadow.begin(), shadow.end());

      forEachLane(involved, [&](unsigned lane) {
        const std::uint64_t laneAddr = gAddr ^ laneXorOf(mi.addr, lane);
        const std::uint64_t laneData = gData ^ laneXorOf(mi.wdata, lane);
        const bool laneWe =
            gWe != (touched_[mi.writeEnable] != 0 &&
                    div_[mi.writeEnable].bit(lane));
        const bool laneRe =
            mi.readEnable == kNoNet
                ? true
                : gRe != (touched_[mi.readEnable] != 0 &&
                          div_[mi.readEnable].bit(lane));
        // The lane's write differs in effect from the golden write: the
        // lane needs its own array from here on (cloned pre-write).
        if (laneWe != gWe ||
            (laneWe && gWe && (laneAddr != gAddr || laneData != gData))) {
          ensureOwned(m, lane);
        }
        if (ownedMask_[m].bit(lane) && laneWe) {
          clones_[m][lane]->write(laneAddr, laneData);
        }
        memScratch_.push_back({lane, laneRe, laneAddr});
      });
    }

    // --- flip-flop capture, phase A: next-state lane words from the
    // pre-edge settled values (golden captures in clockEdge below).
    ffScratch_.clear();
    for (const std::uint32_t i : ffList_) {
      const CellId cell = cd_.ffs()[i];
      const NetId dNet = cd_.ffD(i);
      const NetId enNet = cd_.ffEn(i);
      const NetId rstNet = cd_.ffRst(i);
      const Word laneD = laneWordOf(dNet, g);
      Word sampled = laneD;
      if (ffStale_[i].any()) {
        const Word lanePrev =
            Word::broadcast(golden_.ffPrevDs()[cell] == Logic::L1) ^
            prevDivD_[i];
        sampled = (ffStale_[i] & lanePrev) | andnot(laneD, ffStale_[i]);
      }
      const Word cur =
          Word::broadcast(golden_.ffStates()[cell] == Logic::L1) ^ ffDiv_[i];
      const Word enW =
          enNet == kNoNet ? Word::ones() : laneWordOf(enNet, g);
      const Word rstW =
          rstNet == kNoNet ? Word::zero() : laneWordOf(rstNet, g);
      const Word init = Word::broadcast(cd_.ffInit(i));
      const Word next =
          (rstW & init) | andnot((enW & sampled) | andnot(cur, enW), rstW);
      ffScratch_.push_back({i, next, div_[dNet]});
    }

    golden_.clockEdge();

    // --- memory ports, post-edge: lane reads against the post-write array,
    // read-register divergence, rdata net seeding.
    for (std::size_t mIdx = 0; mIdx < memList_.size(); ++mIdx) {
      const MemoryId m = memList_[mIdx];
      const MemoryInst& mi = nl_.memory(m);
      const std::span<const Logic> gRegNew = golden_.memReadReg(m);
      const std::size_t begin = memScratchOffset_[mIdx];
      const std::size_t end = mIdx + 1 < memScratchOffset_.size()
                                  ? memScratchOffset_[mIdx + 1]
                                  : memScratch_.size();
      for (std::size_t s = begin; s < end; ++s) {
        const MemLaneScratch& ls = memScratch_[s];
        std::uint64_t laneRead = 0;
        if (ls.re) {
          laneRead = ownedMask_[m].bit(ls.lane)
                         ? clones_[m][ls.lane]->read(ls.addr)
                         : golden_.memory(m).read(ls.addr);
        }
        for (std::uint32_t b = 0; b < mi.dataBits; ++b) {
          const bool laneBit =
              ls.re ? ((laneRead >> b) & 1u) != 0
                    : (gShadow_[mIdx][b] == Logic::L1) !=
                          memRegDiv_[m][b].bit(ls.lane);
          const bool gBit = gRegNew[b] == Logic::L1;
          if (laneBit != gBit) {
            memRegDiv_[m][b].setBit(ls.lane);
          } else {
            memRegDiv_[m][b].clearBit(ls.lane);
          }
        }
      }
      for (std::uint32_t b = 0; b < mi.dataBits; ++b) {
        setDivKeepForced(mi.rdata[b], memRegDiv_[m][b]);
      }
    }

    // --- flip-flop capture, phase C: divergence against the golden
    // machine's new state, Q-net seeding for the next cycle.
    for (const FfScratch& fs : ffScratch_) {
      const CellId cell = cd_.ffs()[fs.index];
      const Word nd =
          fs.next ^ Word::broadcast(golden_.ffStates()[cell] == Logic::L1);
      ffDiv_[fs.index] = nd;
      prevDivD_[fs.index] = fs.dDiv;
      setDivKeepForced(cd_.ffOutput(fs.index), nd);
    }
  }

  // ---- retirement / washout / refill ---------------------------------------

  void retireLane(unsigned lane, bool early, bool washed) {
    const std::size_t fi = laneFault_[lane];
    (*rs_.results)[fi] = obs_[lane];
    const Word keep = ~Word::laneMask(lane);
    for (const NetId n : touchedList_) {
      div_[n] &= keep;
      forceMask_[n] &= keep;
      forceVal_[n] &= keep;
    }
    for (const std::uint32_t i : ffList_) {
      ffDiv_[i] &= keep;
      ffStale_[i] &= keep;
      prevDivD_[i] &= keep;
    }
    for (const MemoryId m : memList_) {
      for (Word& w : memRegDiv_[m]) w &= keep;
      if (ownedMask_[m].bit(lane)) {
        clones_[m][lane].reset();
        ownedMask_[m].clearBit(lane);
        cloneFaulty_[m].clearBit(lane);
      }
    }
    std::erase_if(bridgeLanes_,
                  [lane](const BridgeLane& b) { return b.lane == lane; });
    std::erase_if(pulseActive_,
                  [lane](const auto& p) { return p.first == lane; });
    for (Word& w : groupHit_) w &= keep;
    for (Word& w : pointHit_) w &= keep;
    diagDone_ &= keep;
    live_.clearBit(lane);
    laneFault_[lane] = kNoFault;
    if (early) ++stats_.lanesRetiredEarly;
    if (washed) ++stats_.convergedEarly;
  }

  /// A lane whose faults are all transient and spent, whose divergence is
  /// zero everywhere and whose owned memories equal the golden arrays
  /// replays the golden run from here on — its verdict is final.
  void washoutCheck(std::uint64_t c) {
    const Fault* latent = rs_.latent;
    if (latent != nullptr && !(latent->transient() && c > latent->cycle)) {
      return;
    }
    Word candidates = Word::zero();
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      if (!live_.bit(lane)) continue;
      const Fault& f = (*rs_.faults)[laneFault_[lane]];
      if (f.transient() && c > f.cycle) candidates.setBit(lane);
    }
    if (candidates.none()) return;
    Word divUnion = Word::zero();
    for (const NetId n : touchedList_) {
      divUnion |= div_[n];
      divUnion |= forceMask_[n];
    }
    for (const std::uint32_t i : ffList_) {
      divUnion |= ffDiv_[i];
      divUnion |= ffStale_[i];
    }
    for (const MemoryId m : memList_) {
      for (const Word& w : memRegDiv_[m]) divUnion |= w;
      divUnion |= cloneFaulty_[m];
    }
    candidates = andnot(candidates, divUnion);
    if (candidates.none()) return;
    forEachLane(candidates, [&](unsigned lane) {
      for (const MemoryId m : memList_) {
        if (ownedMask_[m].bit(lane) &&
            !clones_[m][lane]->stateEquals(golden_.memory(m))) {
          return;  // stored contents still deviate; keep simulating
        }
      }
      retireLane(lane, true, true);
    });
  }

  void cleanup() {
    for (std::size_t i = 0; i < touchedList_.size();) {
      const NetId n = touchedList_[i];
      if (div_[n].any() || forceMask_[n].any()) {
        zeroAge_[n] = 0;
        ++i;
      } else if (zeroAge_[n] == 0) {
        // Keep one extra cycle: readers must re-settle to zero divergence
        // before their fanin counts may drop.
        zeroAge_[n] = 1;
        ++i;
      } else {
        untouch(n);
        touchedList_[i] = touchedList_.back();
        touchedList_.pop_back();
      }
    }
    for (std::size_t i = 0; i < ffList_.size();) {
      const std::uint32_t f = ffList_[i];
      if (ffPin_[f] == 0 && ffDiv_[f].none() && ffStale_[f].none()) {
        inFfList_[f] = 0;
        ffList_[i] = ffList_.back();
        ffList_.pop_back();
      } else {
        ++i;
      }
    }
    for (std::size_t i = 0; i < memList_.size();) {
      const MemoryId m = memList_[i];
      bool liveRegs = false;
      for (const Word& w : memRegDiv_[m]) liveRegs = liveRegs || w.any();
      if (memPin_[m] == 0 && !liveRegs && ownedMask_[m].none()) {
        inMemList_[m] = 0;
        memList_[i] = memList_.back();
        memList_.pop_back();
      } else {
        ++i;
      }
    }
  }

  void refill(std::uint64_t c) {
    if (refillExhausted_) return;
    // A refilled lane joins at cycle c + 1 from the golden state, so it can
    // only carry the latent fault while that has not acted yet.
    if (rs_.latent != nullptr && c + 1 > firstActiveCycle(*rs_.latent)) {
      refillExhausted_ = true;
      return;
    }
    while (live_.popcount() < kLanes) {
      const std::optional<std::size_t> fi = rs_.sched->takeRefill(c + 1);
      if (!fi.has_value()) {
        refillExhausted_ = true;
        return;
      }
      unsigned lane = 0;
      while (live_.bit(lane)) ++lane;
      installLane(lane, *fi);
      ++stats_.lanesRefilled;
    }
  }

  // ---- group lifecycle -----------------------------------------------------

  void resetGroupState() {
    while (!touchedList_.empty()) {
      const NetId n = touchedList_.back();
      touchedList_.pop_back();
      div_[n] = Word::zero();
      forceMask_[n] = Word::zero();
      forceVal_[n] = Word::zero();
      untouch(n);
    }
    for (const NetId n : forcedList_) forcedLookup_[n] = 0;
    forcedList_.clear();
    for (auto& act : activeList_) {
      for (const std::uint32_t pos : act) inActive_[pos] = 0;
      act.clear();
    }
    for (auto& k : kickBucket_) {
      for (const std::uint32_t pos : k) kicked_[pos] = 0;
      k.clear();
    }
    for (const std::uint32_t i : ffList_) {
      inFfList_[i] = 0;
      ffDiv_[i] = Word::zero();
      ffStale_[i] = Word::zero();
      prevDivD_[i] = Word::zero();
    }
    ffList_.clear();
    for (const MemoryId m : memList_) {
      inMemList_[m] = 0;
      for (Word& w : memRegDiv_[m]) w = Word::zero();
      ownedMask_[m] = Word::zero();
      cloneFaulty_[m] = Word::zero();
      for (auto& c : clones_[m]) c.reset();
    }
    memList_.clear();
    bridgeLanes_.clear();
    pulseActive_.clear();
    live_ = Word::zero();
    diagDone_ = Word::zero();
    laneFault_.assign(kLanes, kNoFault);
    refillExhausted_ = false;
  }

  void runGroup(const std::vector<std::size_t>& group) {
    ++stats_.wordGroups;
    if (forcedLookup_.empty()) forcedLookup_.assign(cd_.netCount(), 0);

    resetMachine(golden_);
    if (!isTwoState(golden_)) {
      throw std::invalid_argument(
          "bit-sliced engine: golden machine is not two-state (an X/Z net "
          "value, flip-flop state or memory read register survived reset)");
    }

    groupHit_.assign(rs_.watch->groups.size(), Word::zero());
    pointHit_.assign(rs_.watch->points.size(), Word::zero());
    for (std::size_t i = 0; i < group.size(); ++i) {
      installLane(static_cast<unsigned>(i), group[i]);
    }

    for (std::uint64_t c = 0; c < rs_.cycles; ++c) {
      activateTransients(c);
      for (std::size_t i = 0; i < rs_.stim.inputs.size(); ++i) {
        golden_.setInput(rs_.stim.inputs[i],
                         sim::fromBool(rs_.stim.values[c][i]));
      }
      replayBackdoor(c);
      golden_.evalComb();
      const std::span<const Logic> g = golden_.netValues();

      seedPhase(g);
      sweepPass1(g);
      resolveBridges(g, live_);
      applyPulses(c, g);
      observe(c, g);
      clockEdge(g);
      releasePulses();

      ++stats_.wordCycles;
      stats_.laneCycles += live_.popcount();

      cleanup();
      retireFinalVerdicts(c);
      if ((c + 1) % rs_.washEvery == 0) washoutCheck(c);
      refill(c);
      if (live_.none() && refillExhausted_) break;
    }

    // Lanes that ran the full workload: record and release.
    forEachLane(live_, [&](unsigned lane) {
      (*rs_.results)[laneFault_[lane]] = obs_[lane];
    });
    resetGroupState();
  }

  /// Replays the workload's deterministic backdoor actions on the golden
  /// machine and mirrors the memory deltas into every lane-owned clone.
  /// Backdoor actions must only mutate memories, and only via bit flips
  /// (XOR) — the documented Workload contract the in-tree workloads follow
  /// — so mirroring the golden XOR delta is exact for clones whose contents
  /// differ from the golden array.
  void replayBackdoor(std::uint64_t c) {
    bool anyOwned = false;
    for (const MemoryId m : memList_)
      anyOwned = anyOwned || ownedMask_[m].any();
    if (!anyOwned) {
      rs_.wl->backdoor(golden_, c);
      return;
    }
    backdoorPre_.clear();
    for (const MemoryId m : memList_) {
      if (ownedMask_[m].none()) {
        backdoorPre_.emplace_back();
        continue;
      }
      const sim::MemoryModel& gm = golden_.memory(m);
      std::vector<std::uint64_t> cells(gm.words());
      for (std::uint64_t a = 0; a < gm.words(); ++a) cells[a] = gm.peek(a);
      backdoorPre_.push_back(std::move(cells));
    }
    rs_.wl->backdoor(golden_, c);
    for (std::size_t i = 0; i < memList_.size(); ++i) {
      const MemoryId m = memList_[i];
      if (ownedMask_[m].none()) continue;
      const sim::MemoryModel& gm = golden_.memory(m);
      for (std::uint64_t a = 0; a < gm.words(); ++a) {
        const std::uint64_t delta = backdoorPre_[i][a] ^ gm.peek(a);
        if (delta == 0) continue;
        forEachLane(ownedMask_[m], [&](unsigned lane) {
          for (std::uint32_t b = 0; b < 64; ++b) {
            if ((delta >> b) & 1u) clones_[m][lane]->flipBit(a, b);
          }
        });
      }
    }
  }

  void retireFinalVerdicts(std::uint64_t c) {
    if (rs_.retire == RetireMode::WashoutOnly) return;
    Word toRetire = Word::zero();
    forEachLane(live_, [&](unsigned lane) {
      const LaneObservation& o = obs_[lane];
      if (!o.obs) return;
      if (rs_.retire == RetireMode::DetectOnly) {
        toRetire.setBit(lane);
      } else if (o.diag ||
                 c > o.firstObsCycle + rs_.watch->detectionWindow) {
        toRetire.setBit(lane);
      }
    });
    forEachLane(toRetire,
                [&](unsigned lane) { retireLane(lane, true, false); });
  }

  struct FfScratch {
    std::uint32_t index;
    Word next;
    Word dDiv;
  };

  const RunShared& rs_;
  const CompiledDesign& cd_;
  const netlist::Netlist& nl_;
  sim::Simulator golden_;
  BitslicedStats stats_;

  // Per-net divergence and force overlays.
  std::vector<Word> div_;
  std::vector<Word> forceMask_;
  std::vector<Word> forceVal_;
  std::vector<char> touched_;
  std::vector<char> zeroAge_;
  std::vector<NetId> touchedList_;
  std::vector<char> forcedLookup_;  ///< lazily sized on first group
  std::vector<NetId> forcedList_;

  // Combinational activity.
  std::vector<std::uint32_t> faninTouched_;  ///< per order position
  std::vector<char> inActive_;
  std::vector<char> evDirty_;
  std::vector<char> kicked_;
  std::vector<std::vector<std::uint32_t>> activeList_;  ///< per level
  std::vector<std::vector<std::uint32_t>> kickBucket_;
  std::vector<std::vector<std::uint32_t>> evBucket_;

  // Flip-flop state.
  std::vector<std::uint32_t> ffIndexOfCell_;
  std::vector<Word> ffDiv_;
  std::vector<Word> ffStale_;
  std::vector<Word> prevDivD_;
  std::vector<std::uint32_t> ffPin_;
  std::vector<char> inFfList_;
  std::vector<std::uint32_t> ffList_;
  std::vector<FfScratch> ffScratch_;

  // Memory state.
  std::vector<std::vector<Word>> memRegDiv_;  ///< [mem][bit]
  std::vector<std::uint32_t> memPin_;
  std::vector<char> inMemList_;
  std::vector<MemoryId> memList_;
  std::vector<Word> ownedMask_;
  std::vector<Word> cloneFaulty_;
  std::vector<std::vector<std::unique_ptr<sim::MemoryModel>>> clones_;
  std::vector<MemLaneScratch> memScratch_;
  std::vector<std::size_t> memScratchOffset_;
  std::vector<std::vector<Logic>> gShadow_;
  std::vector<std::vector<std::uint64_t>> backdoorPre_;

  // Lane bookkeeping.
  Word live_ = Word::zero();
  Word diagDone_ = Word::zero();
  std::vector<std::size_t> laneFault_;
  std::vector<LaneObservation> obs_;
  std::vector<BridgeLane> bridgeLanes_;
  std::vector<std::pair<unsigned, NetId>> pulseActive_;
  std::vector<char> bridgeValue_;  ///< resolve scratch, by bridgeLanes_ index
  std::vector<Word> groupHit_;
  std::vector<Word> pointHit_;
  bool refillExhausted_ = false;
};

template <unsigned NB>
void runWithWidth(RunShared& rs, unsigned threads) {
  core::ThreadPool pool(threads);
  std::vector<std::unique_ptr<WordEngine<NB>>> engines(pool.size());
  pool.parallelFor(pool.size(), 1, [&](unsigned w, std::size_t) {
    if (engines[w] == nullptr) {
      engines[w] = std::make_unique<WordEngine<NB>>(rs);
    }
    engines[w]->runAll();
  });
  rs.stats->workers = pool.size();
}

/// Shared driver of both entry points: records stimulus, deals faults to
/// word groups and dispatches on the resolved lane width.
BitslicedCampaign runCore(const fault::EngineContext& ctx, sim::Workload& wl,
                          const fault::FaultList& faults,
                          const LaneWatch& watch, const Fault* latent,
                          const FaultSimOptions& opt, RetireMode retire) {
  const obs::ScopedTimer timer("faultsim.bitsliced");
  RunShared rs;
  rs.cdp = ctx.compiledPtr();
  rs.faults = &faults;
  rs.latent = latent;
  rs.stim = recordStimulus(ctx, wl);
  rs.cycles = rs.stim.cycles();
  rs.watch = &watch;
  rs.wl = &wl;
  rs.evalMode = opt.evalMode;
  rs.retire = retire;
  rs.washEvery = std::max<std::uint64_t>(1, rs.cycles / 64);
  // Workers re-execute only backdoor() (thread-safe by the Workload
  // contract); restart once so any precomputed plan is armed.
  wl.restart();

  LaneScheduler sched(faults);
  rs.sched = &sched;
  std::vector<LaneObservation> results(faults.size());
  rs.results = &results;
  std::mutex statsMu;
  rs.statsMu = &statsMu;
  BitslicedStats stats;
  rs.stats = &stats;
  stats.laneWords = resolveLaneWords(opt.laneWords);

  switch (stats.laneWords) {
    case 4: runWithWidth<4>(rs, opt.threads); break;
    case 2: runWithWidth<2>(rs, opt.threads); break;
    default: runWithWidth<1>(rs, opt.threads); break;
  }

  obs::Registry& reg = obs::Registry::global();
  reg.add("faultsim.bitsliced.machines", faults.size());
  reg.add("faultsim.bitsliced.word_groups", stats.wordGroups);
  reg.add("faultsim.bitsliced.word_cycles", stats.wordCycles);
  reg.add("faultsim.bitsliced.lane_cycles", stats.laneCycles);
  reg.add("faultsim.bitsliced.lanes_retired_early", stats.lanesRetiredEarly);
  reg.add("faultsim.bitsliced.lanes_refilled", stats.lanesRefilled);
  reg.add("faultsim.bitsliced.converged_early", stats.convergedEarly);
  reg.set("faultsim.bitsliced.lane_occupancy", stats.laneOccupancy());
  reg.set("faultsim.bitsliced.simd_width",
          static_cast<double>(stats.laneWords) * 64.0);
  reg.set("faultsim.bitsliced.workers", static_cast<double>(stats.workers));

  return BitslicedCampaign{std::move(results), stats};
}

}  // namespace

bool isTwoState(const sim::Simulator& golden) {
  const auto definite = [](Logic v) {
    return v == Logic::L0 || v == Logic::L1;
  };
  const CompiledDesign& cd = golden.compiled();
  for (const Logic v : golden.netValues()) {
    if (!definite(v)) return false;
  }
  for (const CellId cell : cd.ffs()) {
    if (!definite(golden.ffStates()[cell]) ||
        !definite(golden.ffPrevDs()[cell])) {
      return false;
    }
  }
  for (MemoryId m = 0; m < cd.design().memoryCount(); ++m) {
    for (const Logic v : golden.memReadReg(m)) {
      if (!definite(v)) return false;
    }
  }
  return true;
}

FaultSimResult runBitslicedFaultSim(const netlist::Netlist& nl,
                                    sim::Workload& wl,
                                    const fault::FaultList& faults,
                                    const FaultSimOptions& opt,
                                    BitslicedStats* stats) {
  const fault::EngineContext ctx(nl);
  return runBitslicedFaultSim(ctx, wl, faults, opt, stats);
}

FaultSimResult runBitslicedFaultSim(const fault::EngineContext& ctx,
                                    sim::Workload& wl,
                                    const fault::FaultList& faults,
                                    const FaultSimOptions& opt,
                                    BitslicedStats* stats) {
  const netlist::Netlist& nl = ctx.design();
  LaneWatch watch;
  const std::vector<CellId>& outputs =
      opt.observedOutputs.empty() ? nl.primaryOutputs() : opt.observedOutputs;
  watch.points.reserve(outputs.size());
  for (const CellId po : outputs) {
    watch.points.push_back(nl.cell(po).inputs[0]);
  }
  const RetireMode retire =
      opt.earlyAbort ? RetireMode::DetectOnly : RetireMode::WashoutOnly;
  const BitslicedCampaign campaign =
      runCore(ctx, wl, faults, watch, nullptr, opt, retire);
  if (stats != nullptr) *stats = campaign.stats;

  FaultSimResult res;
  res.total = faults.size();
  res.outcomes.assign(faults.size(), FaultOutcome::Undetected);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (campaign.observations[i].obs) {
      res.outcomes[i] = FaultOutcome::Detected;
      ++res.detected;
    }
  }
  res.simulatedCycles = campaign.stats.laneCycles;
  obs::Registry::global().add("faultsim.detected", res.detected);
  return res;
}

BitslicedCampaign runBitslicedWatch(const fault::EngineContext& ctx,
                                    sim::Workload& wl,
                                    const fault::FaultList& faults,
                                    const LaneWatch& watch,
                                    const std::optional<fault::Fault>& latent,
                                    const FaultSimOptions& opt) {
  const RetireMode retire =
      opt.earlyAbort ? RetireMode::Classify : RetireMode::WashoutOnly;
  return runCore(ctx, wl, faults, watch, latent ? &*latent : nullptr, opt,
                 retire);
}

}  // namespace socfmea::faultsim
