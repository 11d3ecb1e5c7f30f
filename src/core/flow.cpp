#include "core/flow.hpp"

namespace socfmea::core {

FmeaFlow::FmeaFlow(const netlist::Netlist& nl, FlowConfig cfg)
    : nl_(&nl), cfg_(std::move(cfg)), sheet_(cfg_.sheet) {
  netlist::CompiledDesignPtr cd;
  graph_.stage("compile", [&] { cd = netlist::compile(nl); });
  graph_.stage("zones", [&] {
    zones_ = std::make_unique<zones::ZoneDatabase>(
        zones::extractZones(cd, cfg_.extract));
  });
  effects_ = std::make_unique<zones::EffectsModel>(*zones_, cfg_.alarmNames);
  corr_ = std::make_unique<zones::CorrelationMatrix>(*zones_);
  graph_.stage("sheet", [&] { sheet_ = buildSheet(cfg_.fit); });
}

fmea::FmeaSheet FmeaFlow::buildSheet(const fmea::FitModel& fit) const {
  fmea::FmeaSheet sheet(cfg_.sheet);
  sheet.populateFromZones(*zones_, fit);
  if (cfg_.configureSheet) cfg_.configureSheet(sheet, *zones_);
  sheet.compute();
  return sheet;
}

fmea::SensitivityResult FmeaFlow::sensitivity() const {
  fmea::SensitivityAnalyzer analyzer(
      [this](const fmea::FitModel& fit) { return buildSheet(fit); }, cfg_.fit);
  return analyzer.run();
}

}  // namespace socfmea::core
