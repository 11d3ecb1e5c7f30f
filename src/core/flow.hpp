// FmeaFlow: the methodology of the paper end-to-end for one design —
// extract sensible zones from the synthesized netlist, build the FMEA
// spreadsheet (failure modes, FIT-derived λ, S/D/F factors, DDF claims),
// compute the IEC 61508 metrics (DC, SFF, SIL grant, criticality ranking),
// and span the assumptions (sensitivity).  The validation flow
// (core/validation.hpp) then cross-checks the sheet by fault injection.
//
// The flow always runs in process: compile, zone extraction and the sheet
// take milliseconds, so nothing here is cached.  Each of the three runs as a
// stage of the flow's FlowGraph, which times it; core/incremental.hpp adds
// the injection campaign, the one step worth keeping in the artifact store.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/flowgraph.hpp"
#include "fmea/report.hpp"
#include "fmea/sensitivity.hpp"
#include "fmea/sheet.hpp"
#include "zones/correlation.hpp"
#include "zones/effects.hpp"
#include "zones/extract.hpp"

namespace socfmea::core {

struct FlowConfig {
  zones::ExtractOptions extract;
  /// Substrings naming the diagnostic alarm outputs.
  std::vector<std::string> alarmNames;
  fmea::FitModel fit;
  fmea::SheetConfig sheet;
  /// Hook that enters the architecture knowledge into the sheet: component
  /// reclassifications, S/D factors, frequency classes, DDF claims.  Runs
  /// after populateFromZones(); re-run for every sensitivity scenario.
  std::function<void(fmea::FmeaSheet&, const zones::ZoneDatabase&)>
      configureSheet;
};

class FmeaFlow {
 public:
  /// Runs extraction and the nominal analysis.  `nl` must outlive the flow.
  FmeaFlow(const netlist::Netlist& nl, FlowConfig cfg);

  [[nodiscard]] const netlist::Netlist& design() const noexcept { return *nl_; }
  [[nodiscard]] const zones::ZoneDatabase& zones() const noexcept {
    return *zones_;
  }
  [[nodiscard]] const zones::EffectsModel& effects() const noexcept {
    return *effects_;
  }
  [[nodiscard]] const zones::CorrelationMatrix& correlation() const noexcept {
    return *corr_;
  }
  [[nodiscard]] const fmea::FmeaSheet& sheet() const noexcept { return sheet_; }
  [[nodiscard]] fmea::FmeaSheet& sheet() noexcept { return sheet_; }
  /// The FIT model the nominal analysis used (base for custom spans).
  [[nodiscard]] const fmea::FitModel& fitModel() const noexcept {
    return cfg_.fit;
  }

  /// The stage timer; core/incremental.hpp appends its campaign stage.
  [[nodiscard]] FlowGraph& graph() noexcept { return graph_; }
  [[nodiscard]] const FlowGraph& graph() const noexcept { return graph_; }

  [[nodiscard]] double sff() const { return sheet_.sff(); }
  [[nodiscard]] double dc() const { return sheet_.dc(); }
  [[nodiscard]] fmea::Sil sil() const { return sheet_.sil(); }

  /// Runs the standard sensitivity spans, rebuilding the sheet per scenario
  /// with the configured hook.
  [[nodiscard]] fmea::SensitivityResult sensitivity() const;

  /// Rebuilds a sheet from scratch for an alternative FIT model (used by the
  /// sensitivity analyzer and the ablation benches).
  [[nodiscard]] fmea::FmeaSheet buildSheet(const fmea::FitModel& fit) const;

 private:
  const netlist::Netlist* nl_;
  FlowConfig cfg_;
  FlowGraph graph_;
  std::unique_ptr<zones::ZoneDatabase> zones_;
  std::unique_ptr<zones::EffectsModel> effects_;
  std::unique_ptr<zones::CorrelationMatrix> corr_;
  fmea::FmeaSheet sheet_;
};

}  // namespace socfmea::core
