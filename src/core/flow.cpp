#include "core/flow.hpp"

#include "fmea/iec61508.hpp"
#include "netlist/hash.hpp"
#include "zones/serialize.hpp"

namespace socfmea::core {

using netlist::hashDouble;
using netlist::hashMix;
using netlist::hashString;

std::uint64_t extractOptionsHash(const zones::ExtractOptions& o) {
  std::uint64_t h = hashMix(0x5A0E, o.compactRegisters ? 1 : 0);
  h = hashMix(h, o.criticalNetFanout);
  for (const std::string& p : o.subBlockPrefixes) h = hashMix(h, hashString(p));
  h = hashMix(h, o.includePrimaryInputs ? 1 : 0);
  h = hashMix(h, o.includePrimaryOutputs ? 1 : 0);
  h = hashMix(h, o.includeMemories ? 1 : 0);
  for (const zones::LogicalEntitySpec& e : o.logicalEntities) {
    h = hashMix(h, hashString(e.name));
    for (const std::string& n : e.nets) h = hashMix(h, hashString(n));
  }
  return h;
}

std::uint64_t fitModelHash(const fmea::FitModel& m) {
  std::uint64_t h = hashMix(0xF17, hashDouble(m.gatePermanent));
  h = hashMix(h, hashDouble(m.gateTransient));
  h = hashMix(h, hashDouble(m.ffPermanent));
  h = hashMix(h, hashDouble(m.ffTransient));
  h = hashMix(h, hashDouble(m.memBitPermanent));
  h = hashMix(h, hashDouble(m.memBitTransient));
  h = hashMix(h, hashDouble(m.pinPermanent));
  h = hashMix(h, hashDouble(m.netPermanentPerFanout));
  return h;
}

std::uint64_t sheetConfigHash(const fmea::SheetConfig& c) {
  return hashMix(hashMix(0x5EE7, static_cast<std::uint64_t>(c.elementType)),
                 c.hft);
}

FmeaFlow::FmeaFlow(const netlist::Netlist& nl, FlowConfig cfg)
    : FmeaFlow(nl, std::move(cfg), FlowGraphOptions{}) {}

FmeaFlow::FmeaFlow(const netlist::Netlist& nl, FlowConfig cfg,
                   FlowGraphOptions graph)
    : nl_(&nl),
      cfg_(std::move(cfg)),
      graph_(std::make_unique<FlowGraph>(graph)),
      sheet_(cfg_.sheet) {
  // Stage: compile.  The compiled CSR form itself always rebuilds (it is an
  // in-memory index, cheaper to recompute than to parse); the stage pins the
  // structural hash every downstream artifact key derives from.
  designHash_ = netlist::hashNetlist(nl);
  netlist::CompiledDesignPtr cd = netlist::compile(nl);
  graph_->stage("compile", designHash_, [&] {
    obs::Json a = obs::Json::object();
    a["design"] = nl.name();
    a["design_hash"] = netlist::hashHex(designHash_);
    const auto st = cd->stats();
    a["cells"] = static_cast<long long>(nl.cellCount());
    a["nets"] = static_cast<long long>(nl.netCount());
    a["levels"] = static_cast<long long>(st.levels);
    return a;
  });

  // Stage: zone extraction.  A warm store rebuilds the database from the
  // artifact instead of re-walking every cone.
  zonesKey_ = hashMix(designHash_, extractOptionsHash(cfg_.extract));
  const obs::Json zonesArt = graph_->stage("zones", zonesKey_, [&] {
    zones_ = std::make_unique<zones::ZoneDatabase>(
        zones::extractZones(cd, cfg_.extract));
    return zones::zonesToJson(*zones_);
  });
  if (!zones_) {
    if (auto db = zones::zonesFromJson(cd, zonesArt)) {
      zones_ = std::make_unique<zones::ZoneDatabase>(std::move(*db));
    } else {
      // Corrupt / foreign artifact under a colliding key: fall back.
      zones_ = std::make_unique<zones::ZoneDatabase>(
          zones::extractZones(cd, cfg_.extract));
    }
  }
  effects_ = std::make_unique<zones::EffectsModel>(*zones_, cfg_.alarmNames);
  corr_ = std::make_unique<zones::CorrelationMatrix>(*zones_);

  // Stage: FIT/λ model applied to the zone inventory.
  const std::uint64_t fitKey = hashMix(zonesKey_, fitModelHash(cfg_.fit));
  graph_->stage("fit", fitKey, [&] {
    obs::Json a = obs::Json::object();
    obs::Json arr = obs::Json::array();
    for (const zones::SensibleZone& z : zones_->zones()) {
      const fmea::ZoneFit f = fmea::zoneFit(cfg_.fit, z, nl);
      obs::Json zj = obs::Json::object();
      zj["zone"] = z.name;
      zj["permanent_fit"] = f.permanent;
      zj["transient_fit"] = f.transient;
      arr.push_back(std::move(zj));
    }
    a["zones"] = std::move(arr);
    return a;
  });

  // Stages: FMEA sheet and SIL verdict.  The sheet object is always
  // materialized (the sensitivity spans rebuild from it); the stages pin the
  // verdict artifact so a warm re-run can assert metric identity without
  // recomputing anything downstream.
  sheet_ = buildSheet(cfg_.fit);
  const std::uint64_t sheetKey =
      hashMix(hashMix(fitKey, sheetConfigHash(cfg_.sheet)), cfg_.configTag);
  graph_->stage("sheet", sheetKey, [&] {
    obs::Json a = obs::Json::object();
    a["rows"] = static_cast<long long>(sheet_.rows().size());
    a["sff"] = sheet_.sff();
    a["dc"] = sheet_.dc();
    return a;
  });
  graph_->stage("verdict", sheetKey, [&] {
    obs::Json a = obs::Json::object();
    a["sff"] = sheet_.sff();
    a["dc"] = sheet_.dc();
    a["sil"] = static_cast<int>(sheet_.sil());
    a["sil_name"] = std::string(fmea::silName(sheet_.sil()));
    return a;
  });
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
