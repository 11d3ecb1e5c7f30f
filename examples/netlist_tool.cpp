// Command-line utility over the structural netlist format: generate the
// reference designs as .snl files, or analyze an existing .snl file
// (statistics, sensible zones, a default FMEA) — the "tool" face of the
// methodology, usable on netlists produced elsewhere.
//
//   netlist_tool emit v1|v2 <out.snl>     write a reference design
//   netlist_tool stats <in.snl>           design statistics
//   netlist_tool zones <in.snl>           sensible-zone inventory
//   netlist_tool fmea <in.snl> [alarm..]  default FMEA (alarm name patterns)
//   netlist_tool srs  <in.snl> [alarm..]  Safety Requirements Specification
//                                         (Markdown on stdout)
#include <fstream>
#include <iostream>

#include "core/flow_report.hpp"
#include "core/srs.hpp"
#include "memsys/gatelevel.hpp"
#include "netlist/stats.hpp"
#include "netlist/text_format.hpp"
#include "zones/extract.hpp"

using namespace socfmea;

namespace {

int usage() {
  std::cerr << "usage:\n"
               "  netlist_tool emit v1|v2 <out.snl>\n"
               "  netlist_tool stats <in.snl>\n"
               "  netlist_tool zones <in.snl>\n"
               "  netlist_tool fmea <in.snl> [alarm-pattern...]\n"
               "  netlist_tool srs <in.snl> [alarm-pattern...]\n";
  return 2;
}

netlist::Netlist load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return netlist::readNetlist(in);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "emit") {
      if (argc != 4) return usage();
      const std::string version = argv[2];
      if (version != "v1" && version != "v2") return usage();
      const auto opt = version == "v2" ? memsys::GateLevelOptions::v2()
                                       : memsys::GateLevelOptions::v1();
      const auto design = memsys::buildProtectionIp(opt);
      std::ofstream out(argv[3]);
      if (!out) {
        std::cerr << "error: cannot open " << argv[3] << " for writing\n";
        return 2;
      }
      netlist::writeNetlist(out, design.nl);
      std::cout << "wrote " << design.nl.name() << " ("
                << design.nl.gateCount() << " gates) to " << argv[3] << "\n";
      return 0;
    }
    if (cmd == "stats") {
      const auto nl = load(argv[2]);
      netlist::printStats(std::cout, nl, netlist::computeStats(nl));
      return 0;
    }
    if (cmd == "zones") {
      const auto nl = load(argv[2]);
      zones::ExtractOptions opt;
      opt.criticalNetFanout = 32;
      const auto db = zones::extractZones(nl, opt);
      std::cout << db.size() << " sensible zones:\n";
      for (const auto& z : db.zones()) {
        std::cout << "  " << z.name << " ["
                  << zones::zoneKindName(z.kind) << "] cone "
                  << z.stats.gateCount << " gates, width " << z.width()
                  << "\n";
      }
      return 0;
    }
    if (cmd == "srs") {
      const auto nl = load(argv[2]);
      core::FlowConfig cfg;
      for (int i = 3; i < argc; ++i) cfg.alarmNames.emplace_back(argv[i]);
      if (cfg.alarmNames.empty()) cfg.alarmNames = {"alarm"};
      core::FmeaFlow flow(nl, cfg);
      core::SrsOptions opt;
      core::writeSrs(std::cout, flow, opt);
      return 0;
    }
    if (cmd == "fmea") {
      const auto nl = load(argv[2]);
      core::FlowConfig cfg;
      for (int i = 3; i < argc; ++i) cfg.alarmNames.emplace_back(argv[i]);
      if (cfg.alarmNames.empty()) cfg.alarmNames = {"alarm"};
      core::FmeaFlow flow(nl, cfg);
      core::FlowReportOptions ropt;
      ropt.includeSensitivity = false;
      core::writeFlowReport(std::cout, flow, ropt);
      std::cout << "\n" << core::verdictLine(flow) << "\n";
      return 0;
    }
  } catch (const std::exception& e) {
    // A file that cannot be read or parsed, or a design the reader's
    // design-rule check refuses: bad input.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return usage();
}
