#include "core/flow_report.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "netlist/stats.hpp"

namespace socfmea::core {

namespace {

/// Zones listed in the report's criticality ranking.
constexpr std::size_t kRankingTop = 10;

}  // namespace

void writeFlowReport(std::ostream& out, const FmeaFlow& flow,
                     const FlowReportOptions& opt) {
  const auto& nl = flow.design();
  out << "==== SoC-level FMEA report: " << nl.name() << " ====\n\n";

  const auto stats = netlist::computeStats(nl);
  netlist::printStats(out, nl, stats);

  out << "\nsensible zones: " << flow.zones().size() << "\n";
  std::size_t byKind[7] = {};
  for (const auto& z : flow.zones().zones()) {
    ++byKind[static_cast<std::size_t>(z.kind)];
  }
  for (std::size_t k = 0; k < 7; ++k) {
    if (byKind[k] == 0) continue;
    out << "  " << zones::zoneKindName(static_cast<zones::ZoneKind>(k)) << ": "
        << byKind[k] << "\n";
  }
  const auto census = flow.zones().census();
  out << "fault-site census: local " << census.local << ", wide "
      << census.wide << ", global " << census.global << ", unassigned "
      << census.unassigned << "\n\n";

  fmea::printSummary(out, flow.sheet());
  out << "\n";
  fmea::printRanking(out, flow.sheet(), kRankingTop);
  out << "\n";
  flow.correlation().print(out, flow.zones(), 10);
  if (opt.includeSensitivity) {
    out << "\n";
    fmea::printSensitivity(out, flow.sensitivity());
  }
}

std::string verdictLine(const FmeaFlow& flow) {
  std::ostringstream ss;
  ss << flow.design().name() << ": SFF " << std::fixed << std::setprecision(2)
     << flow.sff() * 100.0 << "% DC " << flow.dc() * 100.0 << "% -> "
     << fmea::silName(flow.sil()) << " (HFT " << flow.sheet().config().hft
     << ")";
  return ss.str();
}

namespace {

obs::Json designStatsJson(const netlist::Netlist& nl) {
  const auto stats = netlist::computeStats(nl);
  obs::Json j = obs::Json::object();
  j["name"] = obs::Json(nl.name());
  j["nets"] = obs::Json(stats.nets);
  j["gates"] = obs::Json(stats.gates);
  j["flip_flops"] = obs::Json(stats.flipFlops);
  j["primary_inputs"] = obs::Json(stats.primaryInputs);
  j["primary_outputs"] = obs::Json(stats.primaryOutputs);
  j["memories"] = obs::Json(stats.memories);
  j["memory_bits"] = obs::Json(stats.memoryBits);
  j["max_depth"] = obs::Json(stats.maxDepth);
  j["avg_fanout"] = obs::Json(stats.avgFanout);
  j["max_fanout"] = obs::Json(stats.maxFanout);
  j["max_fanout_net"] = obs::Json(stats.maxFanoutNet);
  obs::Json byType = obs::Json::object();
  for (std::size_t t = 0; t < stats.byType.size(); ++t) {
    if (stats.byType[t] == 0) continue;
    byType[netlist::cellTypeName(static_cast<netlist::CellType>(t))] =
        obs::Json(stats.byType[t]);
  }
  j["by_type"] = std::move(byType);
  return j;
}

}  // namespace

obs::Json flowReportJson(const FmeaFlow& flow, const FlowReportOptions& opt) {
  obs::Json j = obs::Json::object();
  j["design"] = designStatsJson(flow.design());
  j["zones"] = zones::toJson(flow.zones());
  j["effects"] = flow.effects().toJson();
  j["sheet"] = flow.sheet().toJson();

  if (opt.includeSensitivity) {
    const fmea::SensitivityResult sens = flow.sensitivity();
    obs::Json s = obs::Json::object();
    s["baseline_sff"] = obs::Json(sens.baselineSff);
    s["baseline_dc"] = obs::Json(sens.baselineDc);
    s["min_sff"] = obs::Json(sens.minSff());
    s["max_sff"] = obs::Json(sens.maxSff());
    s["max_abs_delta"] = obs::Json(sens.maxAbsDelta());
    obs::Json scenarios = obs::Json::array();
    for (const fmea::SensitivityScenario& sc : sens.scenarios) {
      obs::Json e = obs::Json::object();
      e["name"] = obs::Json(sc.name);
      e["sff"] = obs::Json(sc.sff);
      e["dc"] = obs::Json(sc.dc);
      e["delta_sff"] = obs::Json(sc.deltaSff);
      scenarios.push_back(std::move(e));
    }
    s["scenarios"] = std::move(scenarios);
    j["sensitivity"] = std::move(s);
  }

  obs::Json verdict = obs::Json::object();
  verdict["sff"] = obs::Json(flow.sff());
  verdict["dc"] = obs::Json(flow.dc());
  verdict["sil"] = obs::Json(static_cast<int>(flow.sil()));
  verdict["sil_name"] = obs::Json(fmea::silName(flow.sil()));
  verdict["hft"] = obs::Json(flow.sheet().config().hft);
  verdict["line"] = obs::Json(verdictLine(flow));
  j["verdict"] = std::move(verdict);
  return j;
}

}  // namespace socfmea::core
