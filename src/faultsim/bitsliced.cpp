#include "faultsim/bitsliced.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstddef>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "faultsim/lanes.hpp"
#include "obs/telemetry.hpp"

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

constexpr std::size_t kNoFault = static_cast<std::size_t>(-1);

/// First cycle a fault can perturb a machine: transients act at their
/// scheduled cycle, permanent faults from reset.
[[nodiscard]] std::uint64_t firstActiveCycle(const Fault& f) {
  return f.transient() ? f.cycle : 0;
}

// A lane word holds one bit per lane: bit `lane` of a net's word belongs to
// the faulty machine in that lane.

constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};

/// Every lane set to `v`.
[[nodiscard]] constexpr std::uint64_t broadcast(bool v) {
  return -static_cast<std::uint64_t>(v);
}

[[nodiscard]] constexpr std::uint64_t laneBit(unsigned lane) {
  return std::uint64_t{1} << lane;
}

[[nodiscard]] constexpr bool hasLane(std::uint64_t w, unsigned lane) {
  return ((w >> lane) & 1u) != 0;
}

/// Sets `lane` of `w` to `v`.
constexpr void setLane(std::uint64_t& w, unsigned lane, bool v) {
  w = (w & ~laneBit(lane)) | (static_cast<std::uint64_t>(v) << lane);
}

/// Calls fn(lane) for every lane set in `w`, ascending.
template <typename Fn>
void forEachLane(std::uint64_t w, Fn&& fn) {
  while (w != 0) {
    const unsigned lane = static_cast<unsigned>(std::countr_zero(w));
    w &= w - 1;
    fn(lane);
  }
}

/// A 64x64 bit matrix: word i is row i, bit j of it column j.
using BitMatrix = std::array<std::uint64_t, kLanes>;

/// Transposes `a` in place: bit j of row i trades places with bit i of row
/// j.  Swaps the off-diagonal blocks of each halving, 32x32 down to 1x1.
void transpose(BitMatrix& a) {
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < kLanes; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & mask;
      a[k] ^= t << j;
      a[k + j] ^= t;
    }
  }
}

/// The pins of one flip-flop.
struct FfPins {
  NetId d;
  NetId en;   ///< kNoNet: always enabled
  NetId rst;  ///< kNoNet: no reset
  NetId q;
  bool init;
};

/// The design as the word kernels read it, flattened once per run and read
/// by every worker.  Gate record `pos` (an order position) is
/// gateWords[gateAt[pos], gateAt[pos + 1]) = [operation, output net, input
/// nets...], so its length gives the gate's arity; ffs[i] holds flip-flop
/// i's pins.
struct FlatDesign {
  explicit FlatDesign(const CompiledDesign& cd) {
    gateAt.reserve(cd.combCount() + 1);
    for (std::uint32_t pos = 0; pos < cd.combCount(); ++pos) {
      gateAt.push_back(static_cast<std::uint32_t>(gateWords.size()));
      gateWords.push_back(static_cast<std::uint32_t>(cd.combType(pos)));
      gateWords.push_back(cd.combOutput(pos));
      const std::span<const NetId> ins = cd.combInputs(pos);
      gateWords.insert(gateWords.end(), ins.begin(), ins.end());
    }
    gateAt.push_back(static_cast<std::uint32_t>(gateWords.size()));
    ffs.reserve(cd.ffs().size());
    for (std::size_t i = 0; i < cd.ffs().size(); ++i) {
      ffs.push_back({cd.ffD(i), cd.ffEn(i), cd.ffRst(i), cd.ffOutput(i),
                     cd.ffInit(i)});
    }
  }

  std::vector<std::uint32_t> gateAt;
  std::vector<std::uint32_t> gateWords;
  std::vector<FfPins> ffs;
};

/// Everything the word-group workers share read-only (plus the scheduler and
/// the result vector, which are sharded by fault index / internally locked).
struct RunShared {
  const GoldenRun* golden = nullptr;
  const FlatDesign* flat = nullptr;
  const fault::FaultList* faults = nullptr;
  /// Campaign-wide latent fault carried by every lane (null = none).
  const Fault* latent = nullptr;
  const Watch* watch = nullptr;
  RetireMode retire = RetireMode::WashoutOnly;
  std::uint64_t washEvery = 4;

  LaneScheduler* sched = nullptr;
  std::vector<Observation>* results = nullptr;  ///< by fault index
};

/// Indices into BitslicedStats::phaseSeconds (kBitslicedPhases order).
enum Phase : std::size_t { kGolden, kSweep, kObserve, kEdge, kTail };

/// A worker's phase stopwatch: lap(p) books the time since the previous lap
/// to phase p, so every moment between start() and the last lap lands in
/// exactly one phase.  Owned by one engine: the hot loop takes no lock.
class PhaseClock {
 public:
  void start() { last_ = std::chrono::steady_clock::now(); }
  void lap(Phase p) {
    const auto now = std::chrono::steady_clock::now();
    spent_[p] += now - last_;
    last_ = now;
  }
  [[nodiscard]] std::array<double, kBitslicedPhases.size()> seconds() const {
    std::array<double, kBitslicedPhases.size()> s{};
    for (std::size_t p = 0; p < s.size(); ++p) {
      s[p] = std::chrono::duration<double>(spent_[p]).count();
    }
    return s;
  }

 private:
  std::chrono::steady_clock::time_point last_;
  std::array<std::chrono::steady_clock::duration, kBitslicedPhases.size()>
      spent_{};
};

/// One word group: kLanes lanes evaluated in lockstep against the recorded
/// golden run, storing per-net divergence words.  An engine instance is
/// owned by one worker thread and reused across groups.
class WordEngine {
 public:
  explicit WordEngine(const RunShared& rs)
      : rs_(rs),
        run_(*rs.golden),
        flat_(*rs.flat),
        cd_(*run_.compiled()),
        nl_(cd_.design()) {
    const std::size_t nets = cd_.netCount();
    const std::size_t combs = cd_.combCount();
    const std::size_t nffs = cd_.ffs().size();
    div_.assign(nets, 0);
    forceMask_.assign(nets, 0);
    forceVal_.assign(nets, 0);
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
    ffDiv_.assign(nffs, 0);
    ffStale_.assign(nffs, 0);
    prevDivD_.assign(nffs, 0);
    ffPin_.assign(nffs, 0);
    inFfList_.assign(nffs, 0);
    const std::size_t mems = nl_.memoryCount();
    memRegDiv_.resize(mems);
    goldenMem_.reserve(mems);
    for (MemoryId m = 0; m < mems; ++m) {
      const MemoryInst& mi = nl_.memory(m);
      memRegDiv_[m].assign(mi.dataBits, 0);
      goldenMem_.emplace_back(mi.addrBits, mi.dataBits);
    }
    ports_.resize(mems);
    memPin_.assign(mems, 0);
    inMemList_.assign(mems, 0);
    ownedMask_.assign(mems, 0);
    cloneFaulty_.assign(mems, 0);
    clones_.resize(mems);
    for (auto& c : clones_) c.resize(kLanes);
    laneFault_.assign(kLanes, kNoFault);
    obs_.resize(kLanes);
  }

  /// Pulls word groups from the shared scheduler until it drains; returns
  /// this engine's counters.
  [[nodiscard]] BitslicedStats runAll() {
    clock_.start();
    for (;;) {
      const std::vector<std::size_t> group = rs_.sched->takeGroup(kLanes);
      if (group.empty()) break;
      runGroup(group);
    }
    clock_.lap(kTail);
    stats_.phaseSeconds = clock_.seconds();
    return stats_;
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

  [[nodiscard]] std::uint64_t laneWordOf(NetId n, NetBits g) const {
    return broadcast(g[n]) ^ div_[n];
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
    if (touched_[n] == 0) touch(n);
  }

  /// Marks an untouched net touched and lists its readers.
  void touch(NetId n) {
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

  void setDiv(NetId n, std::uint64_t w) {
    div_[n] = w;
    if (w != 0) {
      if (touched_[n] == 0) touch(n);
      zeroAge_[n] = 0;
    }
  }

  /// Replaces the unforced lane bits of div[n] from `natural`, keeping
  /// forced bits as they are.  Forced bits are re-derived against the fresh
  /// golden value at the next seed phase before anything reads them.
  void setDivKeepForced(NetId n, std::uint64_t natural) {
    setDiv(n, (natural & ~forceMask_[n]) | (div_[n] & forceMask_[n]));
  }

  /// Applies the per-lane force overlay to a natural divergence word, given
  /// this cycle's settled golden values.
  [[nodiscard]] std::uint64_t overlayDiv(NetId n, std::uint64_t natural,
                                        NetBits g) const {
    const std::uint64_t m = forceMask_[n];
    if (m == 0) return natural;
    const std::uint64_t forcedDiv = forceVal_[n] ^ broadcast(g[n]);
    return (natural & ~m) | (forcedDiv & m);
  }

  void addForce(NetId n, unsigned lane, bool value) {
    forceMask_[n] |= laneBit(lane);
    setLane(forceVal_[n], lane, value);
    ensureTouched(n);
    if (forcedLookup_[n] == 0) {
      forcedLookup_[n] = 1;
      forcedList_.push_back(n);
    }
  }

  void clearForce(NetId n, unsigned lane) {
    forceMask_[n] &= ~laneBit(lane);
    forceVal_[n] &= ~laneBit(lane);
    // forcedList_ entries are dropped lazily at the seed phase.
  }

  // ---- word kernels --------------------------------------------------------

  /// A combinational gate as its record gives it.
  struct Gate {
    CellType type;
    NetId out;
    std::span<const NetId> ins;
  };

  [[nodiscard]] Gate gateOf(std::uint32_t pos) const {
    const std::uint32_t* rec = flat_.gateWords.data() + flat_.gateAt[pos];
    const std::uint32_t* end = flat_.gateWords.data() + flat_.gateAt[pos + 1];
    return {static_cast<CellType>(rec[0]), rec[1], {rec + 2, end}};
  }

  [[nodiscard]] std::uint64_t evalCellWord(const Gate& gate, NetBits g) const {
    const std::span<const NetId> ins = gate.ins;
    switch (gate.type) {
      case CellType::Const0: return 0;
      case CellType::Const1: return kAllLanes;
      case CellType::Buf: return laneWordOf(ins[0], g);
      case CellType::Not: return ~laneWordOf(ins[0], g);
      case CellType::And: {
        std::uint64_t w = kAllLanes;
        for (const NetId in : ins) w &= laneWordOf(in, g);
        return w;
      }
      case CellType::Nand: {
        std::uint64_t w = kAllLanes;
        for (const NetId in : ins) w &= laneWordOf(in, g);
        return ~w;
      }
      case CellType::Or: {
        std::uint64_t w = 0;
        for (const NetId in : ins) w |= laneWordOf(in, g);
        return w;
      }
      case CellType::Nor: {
        std::uint64_t w = 0;
        for (const NetId in : ins) w |= laneWordOf(in, g);
        return ~w;
      }
      case CellType::Xor: {
        std::uint64_t w = 0;
        for (const NetId in : ins) w ^= laneWordOf(in, g);
        return w;
      }
      case CellType::Xnor: {
        std::uint64_t w = 0;
        for (const NetId in : ins) w ^= laneWordOf(in, g);
        return ~w;
      }
      case CellType::Mux2: {
        const std::uint64_t s = laneWordOf(ins[0], g);
        const std::uint64_t a = laneWordOf(ins[1], g);
        const std::uint64_t b = laneWordOf(ins[2], g);
        return (s & b) | (a & ~s);
      }
      default:
        return broadcast(g[gate.out]);
    }
  }

  void evalPass1(std::uint32_t pos, NetBits g) {
    const Gate gate = gateOf(pos);
    const std::uint64_t natural =
        evalCellWord(gate, g) ^ broadcast(g[gate.out]);
    setDiv(gate.out, overlayDiv(gate.out, natural, g));
  }

  void sweepPass1(NetBits g) {
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
      stats_.gateEvals += act.size();
      for (const std::uint32_t pos : kicks) {
        kicked_[pos] = 0;
        if (inActive_[pos] == 0 || faninTouched_[pos] == 0) {
          evalPass1(pos, g);
          ++stats_.gateEvals;
        }
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

  void evSweep(NetBits g) {
    for (std::uint32_t level = 0; level < cd_.levelCount(); ++level) {
      auto& bucket = evBucket_[level];
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const std::uint32_t pos = bucket[i];
        evDirty_[pos] = 0;
        const Gate gate = gateOf(pos);
        const std::uint64_t natural =
            evalCellWord(gate, g) ^ broadcast(g[gate.out]);
        const std::uint64_t nd = overlayDiv(gate.out, natural, g);
        if (nd != div_[gate.out]) {
          setDiv(gate.out, nd);
          evSeed(gate.out);
        }
      }
      stats_.gateEvals += bucket.size();
      bucket.clear();
    }
  }

  // ---- per-kind install / activation ---------------------------------------

  void ensureOwned(MemoryId m, unsigned lane) {
    if (hasLane(ownedMask_[m], lane)) return;
    clones_[m][lane] = std::make_unique<sim::MemoryModel>(goldenMem_[m]);
    ownedMask_[m] |= laneBit(lane);
    addMemList(m);
  }

  /// Arms a lane with fault `fi`, on top of the latent fault when there is
  /// one (installed first, like the serial machine step).
  void installLane(unsigned lane, std::size_t fi) {
    laneFault_[lane] = fi;
    live_ |= laneBit(lane);
    obs_[lane] = Observation{};
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
        ffStale_[i] |= laneBit(lane);
        addFfList(i);
        break;
      }
      case FaultKind::MemStuckBit:
        ensureOwned(f.mem, lane);
        clones_[f.mem][lane]->addStuckBit(f.addr, f.bit, f.stuckValue);
        cloneFaulty_[f.mem] |= laneBit(lane);
        break;
      case FaultKind::MemAddrNone:
        ensureOwned(f.mem, lane);
        clones_[f.mem][lane]->setAddressFault(f.addr,
                                              sim::AddressFaultKind::NoAccess);
        cloneFaulty_[f.mem] |= laneBit(lane);
        break;
      case FaultKind::MemAddrWrong:
        ensureOwned(f.mem, lane);
        clones_[f.mem][lane]->setAddressFault(
            f.addr, sim::AddressFaultKind::Wrong, f.addr2);
        cloneFaulty_[f.mem] |= laneBit(lane);
        break;
      case FaultKind::MemAddrMulti:
        ensureOwned(f.mem, lane);
        clones_[f.mem][lane]->setAddressFault(
            f.addr, sim::AddressFaultKind::Multiple, f.addr2);
        cloneFaulty_[f.mem] |= laneBit(lane);
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
        cloneFaulty_[f.mem] |= laneBit(lane);
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
      const std::uint64_t mask = laneBit(lane);
      ffDiv_[i] ^= mask;
      addFfList(i);
      const NetId q = cd_.cellOutput(f.cell);
      setDiv(q, div_[q] ^ mask);
    } else if (f.kind == FaultKind::MultiSeu) {
      const std::uint64_t mask = laneBit(lane);
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
        setDivKeepForced(n, 0);
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

  void seedPhase(NetBits g) {
    // Bridges re-resolve per cycle: drop last cycle's resolved forces and
    // re-derive the nets' natural values (the serial engine's first settle).
    for (const BridgeLane& b : bridgeLanes_) releaseBridge(b);
    // Forced nets track the golden value cycle by cycle: the forced-lane
    // divergence is (forced value XOR golden), recomputed against this
    // cycle's golden row.
    for (std::size_t i = 0; i < forcedList_.size();) {
      const NetId n = forcedList_[i];
      if (forceMask_[n] == 0) {
        forcedLookup_[n] = 0;
        forcedList_[i] = forcedList_.back();
        forcedList_.pop_back();
        continue;
      }
      setDiv(n, overlayDiv(n, div_[n] & ~forceMask_[n], g));
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
  void resolveBridges(NetBits g, std::uint64_t lanes) {
    if (bridgeLanes_.empty()) return;
    bridgeValue_.clear();
    for (const BridgeLane& b : bridgeLanes_) {
      const bool va = g[b.a] != hasLane(div_[b.a], b.lane);
      const bool vb = g[b.b] != hasLane(div_[b.b], b.lane);
      bridgeValue_.push_back(b.wiredAnd ? (va && vb) : (va || vb));
    }
    bool changed = false;
    for (std::size_t i = 0; i < bridgeLanes_.size(); ++i) {
      const BridgeLane& b = bridgeLanes_[i];
      if (!hasLane(lanes & live_, b.lane)) continue;
      const bool r = bridgeValue_[i] != 0;
      for (const NetId net : {b.a, b.b}) {
        if (userForced(b.lane, net) || (!b.latent && onLatentBridge(net))) {
          continue;
        }
        forceMask_[net] |= laneBit(b.lane);
        setLane(forceVal_[net], b.lane, r);
        if (forcedLookup_[net] == 0) {
          forcedLookup_[net] = 1;
          forcedList_.push_back(net);
        }
        const bool newDiv = r != g[net];
        if (hasLane(div_[net], b.lane) != newDiv) {
          setDiv(net, div_[net] ^ laneBit(b.lane));
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
  void applyPulses(std::uint64_t c, NetBits g) {
    const Fault* latent = rs_.latent;
    if (latent != nullptr && latent->kind == FaultKind::SetPulse &&
        latent->cycle == c) {
      forEachLane(live_,
                  [&](unsigned lane) { pulseLane(lane, latent->net, g); });
      settlePulses(live_, g);
    }
    std::uint64_t pulsed = 0;
    forEachLane(live_, [&](unsigned lane) {
      const Fault& f = (*rs_.faults)[laneFault_[lane]];
      if (f.kind != FaultKind::SetPulse || f.cycle != c) return;
      pulseLane(lane, f.net, g);
      pulsed |= laneBit(lane);
    });
    if (pulsed != 0) settlePulses(pulsed, g);
  }

  /// Settles freshly pulsed lanes the way the scalar engine re-runs
  /// evalComb after a pulse: propagate the pulse, and in a pulsed lane that
  /// also carries a bridge, re-derive the natural values and re-resolve.
  void settlePulses(std::uint64_t pulsed, NetBits g) {
    evSweep(g);
    std::uint64_t rebridge = 0;
    for (const BridgeLane& b : bridgeLanes_) {
      rebridge |= pulsed & laneBit(b.lane);
    }
    if (rebridge == 0) return;
    for (const BridgeLane& b : bridgeLanes_) {
      if (hasLane(rebridge, b.lane)) releaseBridge(b);
    }
    sweepPass1(g);
    resolveBridges(g, rebridge);
  }

  /// Inverts the lane's own settled value of `net` until releasePulses(),
  /// like FaultHarness::applyPulse.
  void pulseLane(unsigned lane, NetId net, NetBits g) {
    const bool settled = g[net] != hasLane(div_[net], lane);
    addForce(net, lane, !settled);
    std::uint64_t w = div_[net];
    setLane(w, lane, !settled != g[net]);
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

  void observe(std::uint64_t c, NetBits g) {
    const Watch& w = *rs_.watch;
    // SENS groups, ascending index — the serial oracle's order.
    for (std::size_t t = 0; t < w.groups.size(); ++t) {
      std::uint64_t dev = 0;
      for (const NetId n : w.groups[t]) {
        if (touched_[n] != 0) dev |= div_[n];
      }
      const std::uint64_t fresh = dev & live_ & ~groupHit_[t];
      if (fresh == 0) continue;
      groupHit_[t] |= fresh;
      forEachLane(fresh, [&](unsigned lane) {
        Observation& o = obs_[lane];
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
      const std::uint64_t fresh = div_[n] & live_ & ~pointHit_[i];
      if (fresh == 0) continue;
      pointHit_[i] |= fresh;
      forEachLane(fresh, [&](unsigned lane) {
        Observation& o = obs_[lane];
        o.pointsDeviated.push_back(static_cast<std::uint32_t>(i));
        if (!o.obs) {
          o.obs = true;
          o.firstObsCycle = c;
        }
      });
    }
    // DIAG: the lane reads 1 where the golden machine reads 0.
    if (!w.asserted.empty()) {
      std::uint64_t dw = 0;
      for (const NetId n : w.asserted) {
        if (touched_[n] != 0 && !g[n]) dw |= div_[n];
      }
      const std::uint64_t fresh = dw & live_ & ~diagDone_;
      if (fresh != 0) {
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
                                         NetBits g) const {
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < nets.size(); ++b) {
      if (g[nets[b]]) v |= std::uint64_t{1} << b;
    }
    return v;
  }

  /// Lanes in which some of `nets` diverges.
  [[nodiscard]] std::uint64_t divUnion(const std::vector<NetId>& nets) const {
    std::uint64_t u = 0;
    for (const NetId n : nets) u |= div_[n];
    return u;
  }

  /// Row b of `m` takes the divergence word of nets[b] (at most 64 nets),
  /// the rest zero, and `m` is transposed: row `lane` then holds the XOR of
  /// that lane's value of the nets with the golden value.
  void laneXors(const std::vector<NetId>& nets, BitMatrix& m) const {
    for (std::size_t b = 0; b < kLanes; ++b) {
      m[b] = b < nets.size() ? div_[nets[b]] : 0;
    }
    transpose(m);
  }

  /// One memory port's lanes between the pre-edge writes and the post-edge
  /// reads.
  struct PortScratch {
    std::uint64_t involved = 0;  ///< live lanes the port concerns
    std::uint64_t reading = 0;   ///< involved lanes whose read enable is on
    std::uint64_t addrDiv = 0;   ///< lanes whose address diverges
    std::uint64_t gAddr = 0;     ///< the golden address
    BitMatrix addrX{};  ///< by lane: address XOR gAddr (when addrDiv != 0)

    [[nodiscard]] std::uint64_t laneAddr(unsigned lane) const {
      return hasLane(addrDiv, lane) ? gAddr ^ addrX[lane] : gAddr;
    }
  };

  /// Cycle c's clock edge; `g` is row c of the golden run.
  void clockEdge(std::uint64_t c, NetBits g) {
    // --- memory ports, pre-edge: which lanes the port concerns, clone on
    // write divergence, replay lane-local writes into owned clones.  A lane
    // whose port nets do not diverge takes the golden address and data.
    for (std::size_t k = 0; k < memList_.size(); ++k) {
      const MemoryId m = memList_[k];
      const MemoryInst& mi = nl_.memory(m);
      PortScratch& p = ports_[k];
      p.addrDiv = divUnion(mi.addr);
      const std::uint64_t dataDiv = divUnion(mi.wdata);
      const std::uint64_t weDiv = div_[mi.writeEnable];
      const std::uint64_t reDiv =
          mi.readEnable == kNoNet ? 0 : div_[mi.readEnable];
      const std::uint64_t portDiv = p.addrDiv | dataDiv | weDiv | reDiv;
      std::uint64_t regDiv = 0;
      for (const std::uint64_t w : memRegDiv_[m]) regDiv |= w;
      p.involved = live_ & (ownedMask_[m] | portDiv | regDiv);
      if (p.involved == 0) continue;
      const std::uint64_t gWe = broadcast(g[mi.writeEnable]);
      const std::uint64_t weW = gWe ^ weDiv;
      const bool gRe = mi.readEnable == kNoNet || g[mi.readEnable];
      p.reading = p.involved & (broadcast(gRe) ^ reDiv);
      p.gAddr = packGolden(mi.addr, g);
      // A lane whose write differs in effect from the golden write needs
      // its own array from here on (cloned pre-write).
      const std::uint64_t divergentWrite =
          weDiv | (weW & gWe & (p.addrDiv | dataDiv));
      forEachLane(p.involved & divergentWrite & ~ownedMask_[m],
                  [&](unsigned lane) { ensureOwned(m, lane); });
      const std::uint64_t writers = p.involved & ownedMask_[m] & weW;
      if ((p.addrDiv & (writers | p.reading)) != 0) laneXors(mi.addr, p.addrX);
      if (writers == 0) continue;
      const std::uint64_t gData = packGolden(mi.wdata, g);
      if ((dataDiv & writers) != 0) laneXors(mi.wdata, portRows_);
      forEachLane(writers, [&](unsigned lane) {
        clones_[m][lane]->write(
            p.laneAddr(lane),
            hasLane(dataDiv, lane) ? gData ^ portRows_[lane] : gData);
      });
    }

    // --- flip-flop capture, phase A: next-state lane words from the
    // pre-edge settled values.  The golden state is the Q net in row c; the
    // golden previous D is the D net one row back (the init value at reset).
    ffScratch_.clear();
    for (const std::uint32_t i : ffList_) {
      const FfPins& ff = flat_.ffs[i];
      const std::uint64_t laneD = laneWordOf(ff.d, g);
      std::uint64_t sampled = laneD;
      if (ffStale_[i] != 0) {
        const bool gPrev = c > 0 ? run_.row(c - 1)[ff.d] : ff.init;
        const std::uint64_t lanePrev = broadcast(gPrev) ^ prevDivD_[i];
        sampled = (ffStale_[i] & lanePrev) | (laneD & ~ffStale_[i]);
      }
      const std::uint64_t cur = broadcast(g[ff.q]) ^ ffDiv_[i];
      const std::uint64_t enW =
          ff.en == kNoNet ? kAllLanes : laneWordOf(ff.en, g);
      const std::uint64_t rstW = ff.rst == kNoNet ? 0 : laneWordOf(ff.rst, g);
      const std::uint64_t next =
          (rstW & broadcast(ff.init)) |
          (((enW & sampled) | (cur & ~enW)) & ~rstW);
      ffScratch_.push_back({i, next, div_[ff.d]});
    }

    writeGolden(g);

    // --- memory ports, post-edge: lane reads against the post-write array,
    // read-register divergence, rdata net seeding.  The golden read register
    // is the rdata nets: row c before the edge, row c + 1 after it.
    const NetBits next = run_.row(c + 1);
    for (std::size_t k = 0; k < memList_.size(); ++k) {
      const MemoryId m = memList_[k];
      const MemoryInst& mi = nl_.memory(m);
      if (ports_[k].involved != 0) readPort(m, ports_[k], g, next);
      for (std::uint32_t b = 0; b < mi.dataBits; ++b) {
        setDivKeepForced(mi.rdata[b], memRegDiv_[m][b]);
      }
    }

    // --- flip-flop capture, phase C: divergence against the golden
    // machine's new state (the Q net in row c + 1), Q-net seeding for the
    // next cycle.
    for (const FfScratch& fs : ffScratch_) {
      const NetId q = flat_.ffs[fs.index].q;
      const std::uint64_t nd = fs.next ^ broadcast(next[q]);
      ffDiv_[fs.index] = nd;
      prevDivD_[fs.index] = fs.dDiv;
      setDivKeepForced(q, nd);
    }
  }

  /// The read register of memory `m` after the edge, as divergence from the
  /// golden register (the rdata nets of row `next`): a reading lane that
  /// owns a clone or presents its own address reads on its own, the other
  /// reading lanes share the golden array's word at the golden address, and
  /// a lane that does not read keeps its register.
  void readPort(MemoryId m, const PortScratch& p, NetBits g, NetBits next) {
    const MemoryInst& mi = nl_.memory(m);
    const std::uint64_t gNext = packGolden(mi.rdata, next);
    const std::uint64_t own = p.reading & (ownedMask_[m] | p.addrDiv);
    const std::uint64_t shared = p.reading & ~own;
    const std::uint64_t held = p.involved & ~p.reading;
    const std::uint64_t sharedDiv =
        shared != 0 ? goldenMem_[m].read(p.gAddr) ^ gNext : 0;
    const std::uint64_t heldDiv = packGolden(mi.rdata, g) ^ gNext;
    // Row `lane` takes the lane's read divergence; transposed, row b holds
    // data bit b of every lane.
    if (own != 0) {
      portRows_.fill(0);
      forEachLane(own, [&](unsigned lane) {
        const sim::MemoryModel& array =
            hasLane(ownedMask_[m], lane) ? *clones_[m][lane] : goldenMem_[m];
        portRows_[lane] = gNext ^ array.read(p.laneAddr(lane));
      });
      transpose(portRows_);
    }
    for (std::uint32_t b = 0; b < mi.dataBits; ++b) {
      std::uint64_t& w = memRegDiv_[m][b];
      w = (own != 0 ? portRows_[b] : 0) |
          (shared & broadcast(hasLane(sharedDiv, b))) |
          (held & (w ^ broadcast(hasLane(heldDiv, b)))) | (w & ~p.involved);
    }
  }

  /// The golden machine's memory writes at the edge of the cycle whose row
  /// is `g`, ahead of the lanes' reads.  Timed as the golden phase.
  void writeGolden(NetBits g) {
    bool any = false;
    for (MemoryId m = 0; m < goldenMem_.size() && !any; ++m) {
      any = g[nl_.memory(m).writeEnable];
    }
    if (!any) return;
    clock_.lap(kEdge);
    for (MemoryId m = 0; m < goldenMem_.size(); ++m) {
      const MemoryInst& mi = nl_.memory(m);
      if (g[mi.writeEnable]) {
        goldenMem_[m].write(packGolden(mi.addr, g), packGolden(mi.wdata, g));
      }
    }
    clock_.lap(kGolden);
  }

  // ---- retirement / washout / refill ---------------------------------------

  void retireLane(unsigned lane, bool early, bool washed) {
    const std::size_t fi = laneFault_[lane];
    (*rs_.results)[fi] = obs_[lane];
    const std::uint64_t keep = ~laneBit(lane);
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
      for (std::uint64_t& w : memRegDiv_[m]) w &= keep;
      if (hasLane(ownedMask_[m], lane)) {
        clones_[m][lane].reset();
        ownedMask_[m] &= keep;
        cloneFaulty_[m] &= keep;
      }
    }
    std::erase_if(bridgeLanes_,
                  [lane](const BridgeLane& b) { return b.lane == lane; });
    std::erase_if(pulseActive_,
                  [lane](const auto& p) { return p.first == lane; });
    for (std::uint64_t& w : groupHit_) w &= keep;
    for (std::uint64_t& w : pointHit_) w &= keep;
    diagDone_ &= keep;
    live_ &= keep;
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
    std::uint64_t candidates = 0;
    forEachLane(live_, [&](unsigned lane) {
      const Fault& f = (*rs_.faults)[laneFault_[lane]];
      if (f.transient() && c > f.cycle) candidates |= laneBit(lane);
    });
    if (candidates == 0) return;
    std::uint64_t divUnion = 0;
    for (const NetId n : touchedList_) {
      divUnion |= div_[n];
      divUnion |= forceMask_[n];
    }
    for (const std::uint32_t i : ffList_) {
      divUnion |= ffDiv_[i];
      divUnion |= ffStale_[i];
    }
    for (const MemoryId m : memList_) {
      for (const std::uint64_t w : memRegDiv_[m]) divUnion |= w;
      divUnion |= cloneFaulty_[m];
    }
    candidates &= ~divUnion;
    if (candidates == 0) return;
    forEachLane(candidates, [&](unsigned lane) {
      for (const MemoryId m : memList_) {
        if (hasLane(ownedMask_[m], lane) &&
            !clones_[m][lane]->stateEquals(goldenMem_[m])) {
          return;  // stored contents still deviate; keep simulating
        }
      }
      retireLane(lane, true, true);
    });
  }

  void cleanup() {
    for (std::size_t i = 0; i < touchedList_.size();) {
      const NetId n = touchedList_[i];
      if (div_[n] != 0 || forceMask_[n] != 0) {
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
      if (ffPin_[f] == 0 && ffDiv_[f] == 0 && ffStale_[f] == 0) {
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
      for (const std::uint64_t w : memRegDiv_[m]) {
        liveRegs = liveRegs || w != 0;
      }
      if (memPin_[m] == 0 && !liveRegs && ownedMask_[m] == 0) {
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
    while (live_ != kAllLanes) {
      const std::optional<std::size_t> fi = rs_.sched->takeRefill(c + 1);
      if (!fi.has_value()) {
        refillExhausted_ = true;
        return;
      }
      // The lowest free lane.
      installLane(static_cast<unsigned>(std::countr_one(live_)), *fi);
      ++stats_.lanesRefilled;
    }
  }

  // ---- group lifecycle -----------------------------------------------------

  void resetGroupState() {
    while (!touchedList_.empty()) {
      const NetId n = touchedList_.back();
      touchedList_.pop_back();
      div_[n] = 0;
      forceMask_[n] = 0;
      forceVal_[n] = 0;
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
      ffDiv_[i] = 0;
      ffStale_[i] = 0;
      prevDivD_[i] = 0;
    }
    ffList_.clear();
    for (const MemoryId m : memList_) {
      inMemList_[m] = 0;
      for (std::uint64_t& w : memRegDiv_[m]) w = 0;
      ownedMask_[m] = 0;
      cloneFaulty_[m] = 0;
      for (auto& c : clones_[m]) c.reset();
    }
    memList_.clear();
    bridgeLanes_.clear();
    pulseActive_.clear();
    live_ = 0;
    diagDone_ = 0;
    laneFault_.assign(kLanes, kNoFault);
    refillExhausted_ = false;
  }

  /// Runs one word group from reset over the golden run.  Each cycle reads
  /// its row in place; the golden memories take the backdoor flips after the
  /// transients act and the golden writes at the edge, as the serial
  /// oracle's fault-free machine does.
  void runGroup(const std::vector<std::size_t>& group) {
    ++stats_.wordGroups;
    if (forcedLookup_.empty()) forcedLookup_.assign(cd_.netCount(), 0);
    for (sim::MemoryModel& m : goldenMem_) m.fillAll(0);

    groupHit_.assign(rs_.watch->groups.size(), 0);
    pointHit_.assign(rs_.watch->points.size(), 0);
    for (std::size_t i = 0; i < group.size(); ++i) {
      installLane(static_cast<unsigned>(i), group[i]);
    }
    clock_.lap(kTail);

    for (std::uint64_t c = 0; c < run_.cycles(); ++c) {
      activateTransients(c);
      applyFlips(c);
      const NetBits g = run_.row(c);

      seedPhase(g);
      sweepPass1(g);
      resolveBridges(g, live_);
      applyPulses(c, g);
      clock_.lap(kSweep);
      observe(c, g);
      clock_.lap(kObserve);
      clockEdge(c, g);
      releasePulses();
      clock_.lap(kEdge);

      ++stats_.wordCycles;
      stats_.laneCycles += static_cast<std::uint64_t>(std::popcount(live_));

      cleanup();
      retireFinalVerdicts(c);
      if ((c + 1) % rs_.washEvery == 0) washoutCheck(c);
      refill(c);
      clock_.lap(kTail);
      if (live_ == 0 && refillExhausted_) break;
    }

    // Lanes that ran the full workload: record and release.
    forEachLane(live_, [&](unsigned lane) {
      (*rs_.results)[laneFault_[lane]] = obs_[lane];
    });
    resetGroupState();
  }

  /// Applies cycle c's backdoor flips to the golden memories and to every
  /// lane-owned clone of the flipped memory.  Timed as the golden phase.
  void applyFlips(std::uint64_t c) {
    const std::span<const sim::MemFlip> flips = run_.stimulus().flipsAt(c);
    if (flips.empty()) return;
    clock_.lap(kSweep);
    for (const sim::MemFlip& f : flips) {
      goldenMem_[f.mem].flipBit(f.addr, f.bit);
      forEachLane(ownedMask_[f.mem], [&](unsigned lane) {
        clones_[f.mem][lane]->flipBit(f.addr, f.bit);
      });
    }
    clock_.lap(kGolden);
  }

  void retireFinalVerdicts(std::uint64_t c) {
    if (rs_.retire == RetireMode::WashoutOnly) return;
    std::uint64_t toRetire = 0;
    forEachLane(live_, [&](unsigned lane) {
      if (verdictFinal(obs_[lane], c, rs_.retire,
                       rs_.watch->detectionWindow)) {
        toRetire |= laneBit(lane);
      }
    });
    forEachLane(toRetire,
                [&](unsigned lane) { retireLane(lane, true, false); });
  }

  struct FfScratch {
    std::uint32_t index;
    std::uint64_t next;
    std::uint64_t dDiv;
  };

  const RunShared& rs_;
  const GoldenRun& run_;
  const FlatDesign& flat_;
  const CompiledDesign& cd_;
  const netlist::Netlist& nl_;
  BitslicedStats stats_;
  PhaseClock clock_;

  // Per-net divergence and force overlays.
  std::vector<std::uint64_t> div_;
  std::vector<std::uint64_t> forceMask_;
  std::vector<std::uint64_t> forceVal_;
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
  std::vector<std::uint64_t> ffDiv_;
  std::vector<std::uint64_t> ffStale_;
  std::vector<std::uint64_t> prevDivD_;
  std::vector<std::uint32_t> ffPin_;
  std::vector<char> inFfList_;
  std::vector<std::uint32_t> ffList_;
  std::vector<FfScratch> ffScratch_;

  // Memory state.
  std::vector<std::vector<std::uint64_t>> memRegDiv_;  ///< [mem][bit]
  std::vector<std::uint32_t> memPin_;
  std::vector<char> inMemList_;
  std::vector<MemoryId> memList_;
  std::vector<std::uint64_t> ownedMask_;
  std::vector<std::uint64_t> cloneFaulty_;
  std::vector<std::vector<std::unique_ptr<sim::MemoryModel>>> clones_;
  std::vector<PortScratch> ports_;  ///< by memList_ position, per edge
  BitMatrix portRows_{};             ///< write data / read transpose scratch
  /// The golden machine's arrays: zeroed per group, then the trace's flips
  /// and the golden writes (the lanes' clones start as copies of them).
  std::vector<sim::MemoryModel> goldenMem_;

  // Lane bookkeeping.
  std::uint64_t live_ = 0;
  std::uint64_t diagDone_ = 0;
  std::vector<std::size_t> laneFault_;
  std::vector<Observation> obs_;
  std::vector<BridgeLane> bridgeLanes_;
  std::vector<std::pair<unsigned, NetId>> pulseActive_;
  std::vector<char> bridgeValue_;  ///< resolve scratch, by bridgeLanes_ index
  std::vector<std::uint64_t> groupHit_;
  std::vector<std::uint64_t> pointHit_;
  bool refillExhausted_ = false;
};

}  // namespace

BitslicedCampaign runBitslicedWatch(const GoldenRun& golden,
                                    const fault::FaultList& faults,
                                    const Watch& watch,
                                    const std::optional<fault::Fault>& latent,
                                    RetireMode retire, unsigned threads) {
  const obs::ScopedTimer timer("faultsim.bitsliced");
  const FlatDesign flat(*golden.compiled());
  RunShared rs;
  rs.golden = &golden;
  rs.flat = &flat;
  rs.faults = &faults;
  rs.latent = latent ? &*latent : nullptr;
  rs.watch = &watch;
  rs.retire = retire;
  rs.washEvery = std::max<std::uint64_t>(1, golden.cycles() / 64);

  LaneScheduler sched(faults);
  rs.sched = &sched;
  std::vector<Observation> results(faults.size());
  rs.results = &results;

  // Fork-join over `threads` workers (0 = hardware concurrency): the caller
  // is worker 0 and threads - 1 jthreads are the rest; each runs one engine
  // until the scheduler drains.  The workers' counters are added up after
  // the join, then the first worker's exception, if any, is rethrown.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned workers = threads != 0 ? threads : hw;
  std::vector<BitslicedStats> parts(workers);
  std::vector<std::exception_ptr> errors(workers);
  const auto work = [&](unsigned w) {
    try {
      parts[w] = WordEngine(rs).runAll();
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> others;  // joined at the end of this block
    others.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) others.emplace_back(work, w);
    work(0);
  }
  BitslicedStats stats;
  for (const BitslicedStats& p : parts) {
    stats.wordGroups += p.wordGroups;
    stats.wordCycles += p.wordCycles;
    stats.laneCycles += p.laneCycles;
    stats.lanesRetiredEarly += p.lanesRetiredEarly;
    stats.lanesRefilled += p.lanesRefilled;
    stats.convergedEarly += p.convergedEarly;
    stats.gateEvals += p.gateEvals;
    for (std::size_t ph = 0; ph < p.phaseSeconds.size(); ++ph) {
      stats.phaseSeconds[ph] += p.phaseSeconds[ph];
    }
  }
  stats.workers = workers;
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  obs::Registry& reg = obs::Registry::global();
  reg.add("faultsim.bitsliced.machines", faults.size());
  reg.add("faultsim.bitsliced.word_groups", stats.wordGroups);
  reg.add("faultsim.bitsliced.word_cycles", stats.wordCycles);
  reg.add("faultsim.bitsliced.lane_cycles", stats.laneCycles);
  reg.add("faultsim.bitsliced.lanes_retired_early", stats.lanesRetiredEarly);
  reg.add("faultsim.bitsliced.lanes_refilled", stats.lanesRefilled);
  reg.add("faultsim.bitsliced.converged_early", stats.convergedEarly);
  reg.add("faultsim.bitsliced.gate_evals", stats.gateEvals);
  reg.set("faultsim.bitsliced.simd_width", kLanes);
  reg.set("faultsim.bitsliced.workers", static_cast<double>(stats.workers));
  // Summed over the workers: at N threads about N times the wall time.
  for (std::size_t p = 0; p < kBitslicedPhases.size(); ++p) {
    reg.record("faultsim.bitsliced.phase." + std::string(kBitslicedPhases[p]),
               stats.phaseSeconds[p], stats.phaseSeconds[p]);
  }

  return BitslicedCampaign{std::move(results), stats};
}

}  // namespace socfmea::faultsim
