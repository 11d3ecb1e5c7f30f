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
// rdata nets.  One bit per net is the whole value: every compiled design is
// two-state (sim/logic4.hpp).
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
  /// Words per row.
  [[nodiscard]] std::size_t rowWords() const noexcept { return words_; }
  /// Row `c`, 0 <= c <= cycles(): bit n reads 1 where net n is 1.
  [[nodiscard]] NetBits row(std::uint64_t c) const {
    return {std::span(bits_).subspan(c * words_, words_)};
  }

  /// Equal rows.
  [[nodiscard]] bool operator==(const GoldenRun& o) const;

 private:
  netlist::CompiledDesignPtr cd_;
  const StimulusTrace* stim_;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;  ///< [row * words_ + word]
};

}  // namespace socfmea::faultsim
