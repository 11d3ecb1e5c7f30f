#include "sim/trace.hpp"

#include <ostream>

namespace socfmea::sim {

std::string VcdTrace::idCode(std::size_t index) {
  // Printable identifier characters per the VCD spec: '!' .. '~'.
  std::string id;
  do {
    id += static_cast<char>('!' + index % 94);
    index /= 94;
  } while (index != 0);
  return id;
}

VcdTrace::VcdTrace(std::ostream& out, const Simulator& sim,
                   std::vector<netlist::NetId> watch, std::string timescale)
    : out_(out), sim_(sim), watch_(std::move(watch)) {
  last_.assign(watch_.size(), Logic::LZ);
  out_ << "$timescale " << timescale << " $end\n";
  out_ << "$scope module " << sim_.design().name() << " $end\n";
  for (std::size_t i = 0; i < watch_.size(); ++i) {
    const auto& net = sim_.design().net(watch_[i]);
    std::string name = net.name.empty() ? ("net" + std::to_string(watch_[i]))
                                        : net.name;
    for (char& c : name) {
      if (c == '/' || c == ' ') c = '.';
    }
    out_ << "$var wire 1 " << idCode(i) << " " << name << " $end\n";
  }
  out_ << "$upscope $end\n$enddefinitions $end\n";
}

void VcdTrace::sample() {
  bool headerWritten = false;
  for (std::size_t i = 0; i < watch_.size(); ++i) {
    const Logic v = sim_.value(watch_[i]);
    if (!first_ && v == last_[i]) continue;
    if (!headerWritten) {
      out_ << '#' << sim_.cycle() << '\n';
      headerWritten = true;
    }
    out_ << logicChar(v) << idCode(i) << '\n';
    last_[i] = v;
  }
  first_ = false;
}

}  // namespace socfmea::sim
