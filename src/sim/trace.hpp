// Minimal VCD (value change dump) writer for waveform inspection of
// simulations and injection campaigns.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace socfmea::sim {

/// Streams value changes of a watch list of nets to a VCD file, one sample
/// per cycle: call sample() after each evalComb.
class VcdTrace {
 public:
  VcdTrace(std::ostream& out, const Simulator& sim,
           std::vector<netlist::NetId> watch, std::string timescale = "1ns");

  /// Emits changes for the current cycle.
  void sample();

 private:
  static std::string idCode(std::size_t index);

  std::ostream& out_;
  const Simulator& sim_;
  std::vector<netlist::NetId> watch_;
  std::vector<Logic> last_;
  bool first_ = true;
};

}  // namespace socfmea::sim
