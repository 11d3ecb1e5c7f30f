// Golden run: the fault-free machine of one (compiled design, stimulus
// trace) pair, simulated once and kept.  Section 5 of the paper compares
// every faulty run with one golden run of the workload (Figure 4); a flow
// entry records it once and hands it down, and the bit-sliced engine's word
// groups, the operational profile and the toggle pass read it instead of
// stepping a fault-free Simulator of their own.
//
// The record is the settled value of every net in every cycle, one bit per
// net (net n is bit n % 64 of the row's word n / 64):
//
//   row c, c < cycles   after cycle c's inputs and backdoor flips, before
//                       its clock edge (what runMachine's observer sees);
//   row cycles          after the final clock edge, settled again.
//
// A flip-flop's state before edge c is its Q net in row c and after it the
// Q net in row c + 1; a memory's read register is read the same way from its
// rdata nets.  Only a run in which some net reads X keeps a second plane of
// known bits; a two-state run stores nothing more.
//
// The serial oracle does not read the record: runSerialWatch keeps its own
// GoldenTrace (recordGolden), so a fault in the record cannot hide behind a
// differential test between the two engines.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "faultsim/stimulus.hpp"
#include "netlist/compiled.hpp"
#include "sim/simulator.hpp"

namespace socfmea::faultsim {

/// One packed row: bit n is net n.
struct NetBits {
  std::span<const std::uint64_t> words;

  [[nodiscard]] bool operator[](netlist::NetId n) const {
    return ((words[n >> 6] >> (n & 63)) & 1u) != 0;
  }
};

/// The bit-sliced engine's two-state precondition: every net value,
/// flip-flop state and memory read register of `sim` is definite (0/1).
/// GoldenRun asks it of the machine fresh from reset.
[[nodiscard]] bool isTwoState(const sim::Simulator& sim);

class GoldenRun {
 public:
  /// Replays `stim` on the fault-free machine (runMachine on a Simulator
  /// sharing `cd`, in `evalMode`) and keeps every row.  Keeps `cd` and a
  /// reference to `stim`, which must outlive the record.  Timed as
  /// inject.record_golden.
  GoldenRun(netlist::CompiledDesignPtr cd, const StimulusTrace& stim,
            sim::EvalMode evalMode = sim::EvalMode::EventDriven);
  /// A temporary trace would dangle.
  GoldenRun(netlist::CompiledDesignPtr cd, const StimulusTrace&& stim,
            sim::EvalMode evalMode = sim::EvalMode::EventDriven) = delete;

  [[nodiscard]] const netlist::CompiledDesignPtr& compiled() const noexcept {
    return cd_;
  }
  [[nodiscard]] const StimulusTrace& stimulus() const noexcept {
    return *stim_;
  }
  [[nodiscard]] std::uint64_t cycles() const noexcept {
    return stim_->cycles();
  }
  /// True when the machine was two-state after reset (isTwoState): the
  /// bit-sliced engine's precondition.
  [[nodiscard]] bool isTwoState() const noexcept { return twoState_; }

  /// Words per row.
  [[nodiscard]] std::size_t rowWords() const noexcept { return words_; }
  /// Row `c`, 0 <= c <= cycles(): bit n reads 1 where net n is 1.
  [[nodiscard]] NetBits row(std::uint64_t c) const {
    return {std::span(bits_).subspan(c * words_, words_)};
  }
  /// Word `w` of row `c`'s known plane: bit n reads 1 where net n is 0 or
  /// 1.  All ones when no value of the run is X.
  [[nodiscard]] std::uint64_t knownWord(std::uint64_t c,
                                        std::size_t w) const {
    return known_.empty() ? ~std::uint64_t{0} : known_[c * words_ + w];
  }
  /// Net `n`'s value in row `c`: L0, L1 or LX.
  [[nodiscard]] sim::Logic value(std::uint64_t c, netlist::NetId n) const;

  /// Equal two-state flags, rows and known planes.
  [[nodiscard]] bool operator==(const GoldenRun& o) const;

 private:
  netlist::CompiledDesignPtr cd_;
  const StimulusTrace* stim_;
  std::size_t words_ = 0;
  bool twoState_ = true;
  std::vector<std::uint64_t> bits_;   ///< [row * words_ + word]
  std::vector<std::uint64_t> known_;  ///< same layout; empty if all known
};

}  // namespace socfmea::faultsim
