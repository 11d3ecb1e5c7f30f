#include "faultsim/golden_run.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "faultsim/serial.hpp"
#include "obs/telemetry.hpp"

namespace socfmea::faultsim {

namespace {

/// Up to 64 values packed two ways: bit i of `ones` is set where value i
/// is L1, bit i of `unknown` where it is X or Z.
struct PackedWord {
  std::uint64_t ones = 0;
  std::uint64_t unknown = 0;
};

PackedWord packWord(std::span<const sim::Logic> values) {
  // Eight values at a time: L1 is 01 and X / Z have bit 1 set, and the
  // multiply gathers bit 0 of each byte into the top byte, in order.
  static_assert(std::endian::native == std::endian::little);
  static_assert(static_cast<int>(sim::Logic::L1) == 1 &&
                static_cast<int>(sim::Logic::LX) == 2 &&
                static_cast<int>(sim::Logic::LZ) == 3);
  constexpr std::uint64_t kLow = 0x0101010101010101u;
  constexpr std::uint64_t kGather = 0x0102040810204080u;
  PackedWord p;
  std::size_t i = 0;
  for (; i + 8 <= values.size(); i += 8) {
    std::uint64_t v = 0;
    std::memcpy(&v, values.data() + i, 8);
    p.ones |= (((v & ~(v >> 1) & kLow) * kGather) >> 56) << i;
    p.unknown |= ((((v >> 1) & kLow) * kGather) >> 56) << i;
  }
  for (; i < values.size(); ++i) {
    p.ones |= std::uint64_t{values[i] == sim::Logic::L1} << i;
    p.unknown |= std::uint64_t{sim::isUnknown(values[i])} << i;
  }
  return p;
}

}  // namespace

bool isTwoState(const sim::Simulator& sim) {
  const auto definite = [](sim::Logic v) { return !sim::isUnknown(v); };
  const netlist::CompiledDesign& cd = sim.compiled();
  const std::span<const sim::Logic> nets = sim.netValues();
  if (!std::all_of(nets.begin(), nets.end(), definite)) return false;
  for (const netlist::CellId cell : cd.ffs()) {
    if (!definite(sim.ffStates()[cell]) || !definite(sim.ffPrevDs()[cell])) {
      return false;
    }
  }
  for (netlist::MemoryId m = 0; m < cd.design().memoryCount(); ++m) {
    const std::span<const sim::Logic> reg = sim.memReadReg(m);
    if (!std::all_of(reg.begin(), reg.end(), definite)) return false;
  }
  return true;
}

GoldenRun::GoldenRun(netlist::CompiledDesignPtr cd, const StimulusTrace& stim,
                     sim::EvalMode evalMode)
    : cd_(std::move(cd)), stim_(&stim), words_((cd_->netCount() + 63) / 64) {
  const obs::ScopedTimer timer("inject.record_golden");
  sim::Simulator sim(cd_);
  sim.setEvalMode(evalMode);
  twoState_ = faultsim::isTwoState(sim);  // fresh: resetMachine's state

  bits_.reserve((stim.cycles() + 1) * words_);
  const auto keep = [&](std::span<const sim::Logic> now) {
    const std::size_t base = bits_.size();
    bits_.resize(base + words_, 0);
    if (!known_.empty()) known_.resize(base + words_, ~std::uint64_t{0});
    for (std::size_t w = 0; w < words_; ++w) {
      const std::size_t lo = w * 64;
      const PackedWord p =
          packWord(now.subspan(lo, std::min<std::size_t>(64, now.size() - lo)));
      bits_[base + w] = p.ones;
      if (p.unknown != 0) {
        // The first X of the run: every row so far was fully known.
        if (known_.empty()) known_.assign(base + words_, ~std::uint64_t{0});
        known_[base + w] &= ~p.unknown;
      }
    }
  };
  (void)runMachine(sim, stim, nullptr, nullptr,
                   [&](const sim::Simulator& s, std::uint64_t) {
                     keep(s.netValues());
                     return false;
                   });
  keep(sim.netValues());  // after the final edge
}

sim::Logic GoldenRun::value(std::uint64_t c, netlist::NetId n) const {
  if (((knownWord(c, n >> 6) >> (n & 63)) & 1u) == 0) return sim::Logic::LX;
  return sim::fromBool(row(c)[n]);
}

bool GoldenRun::operator==(const GoldenRun& o) const {
  return twoState_ == o.twoState_ && words_ == o.words_ && bits_ == o.bits_ &&
         known_ == o.known_;
}

}  // namespace socfmea::faultsim
