#include "faultsim/golden_run.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "faultsim/serial.hpp"
#include "obs/telemetry.hpp"

namespace socfmea::faultsim {

namespace {

/// Up to 64 values packed into one word: bit i is set where value i is L1.
std::uint64_t packWord(std::span<const sim::Logic> values) {
  // Eight values at a time: each byte is 0 or 1, and the multiply gathers
  // bit 0 of each byte into the top byte, in order.
  static_assert(std::endian::native == std::endian::little);
  static_assert(static_cast<int>(sim::Logic::L0) == 0 &&
                static_cast<int>(sim::Logic::L1) == 1);
  constexpr std::uint64_t kGather = 0x0102040810204080u;
  std::uint64_t ones = 0;
  std::size_t i = 0;
  for (; i + 8 <= values.size(); i += 8) {
    std::uint64_t v = 0;
    std::memcpy(&v, values.data() + i, 8);
    ones |= ((v * kGather) >> 56) << i;
  }
  for (; i < values.size(); ++i) {
    ones |= std::uint64_t{values[i] == sim::Logic::L1} << i;
  }
  return ones;
}

}  // namespace

GoldenRun::GoldenRun(netlist::CompiledDesignPtr cd, const StimulusTrace& stim,
                     sim::EvalMode evalMode)
    : cd_(std::move(cd)), stim_(&stim), words_((cd_->netCount() + 63) / 64) {
  const obs::ScopedTimer timer("inject.record_golden");
  sim::Simulator sim(cd_);
  sim.setEvalMode(evalMode);

  bits_.reserve((stim.cycles() + 1) * words_);
  const auto keep = [&](std::span<const sim::Logic> now) {
    for (std::size_t lo = 0; lo < now.size(); lo += 64) {
      const std::size_t n = std::min<std::size_t>(64, now.size() - lo);
      bits_.push_back(packWord(now.subspan(lo, n)));
    }
  };
  (void)runMachine(sim, stim, nullptr, nullptr,
                   [&](const sim::Simulator& s, std::uint64_t) {
                     keep(s.netValues());
                     return false;
                   });
  keep(sim.netValues());  // after the final edge
}

bool GoldenRun::operator==(const GoldenRun& o) const {
  return words_ == o.words_ && bits_ == o.bits_;
}

}  // namespace socfmea::faultsim
