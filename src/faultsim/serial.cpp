#include "faultsim/serial.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace socfmea::faultsim {

std::string_view engineKindName(EngineKind k) noexcept {
  switch (k) {
    case EngineKind::Auto: return "auto";
    case EngineKind::Serial: return "serial";
    case EngineKind::Bitsliced: return "bitsliced";
  }
  return "?";
}

std::optional<EngineKind> engineKindFromName(std::string_view n) noexcept {
  for (const EngineKind k :
       {EngineKind::Auto, EngineKind::Serial, EngineKind::Bitsliced}) {
    if (engineKindName(k) == n) return k;
  }
  return std::nullopt;
}

Watch outputWatch(const netlist::Netlist& nl,
                  const std::vector<netlist::CellId>& outputs) {
  Watch watch;
  watch.points.reserve(outputs.size());
  for (const netlist::CellId po : outputs) {
    watch.points.push_back(nl.cell(po).inputs[0]);
  }
  return watch;
}

GoldenTrace recordGolden(const netlist::CompiledDesignPtr& cd,
                         const StimulusTrace& stim, const Watch& watch,
                         sim::EvalMode evalMode) {
  GoldenTrace g;
  for (const std::vector<netlist::NetId>& group : watch.groups) {
    g.nets.insert(g.nets.end(), group.begin(), group.end());
  }
  g.nets.insert(g.nets.end(), watch.points.begin(), watch.points.end());
  g.nets.insert(g.nets.end(), watch.asserted.begin(), watch.asserted.end());
  sim::Simulator sim(cd);
  sim.setEvalMode(evalMode);
  g.values.reserve(stim.cycles());
  const auto observe = [&](const sim::Simulator& s, std::uint64_t) {
    const std::span<const sim::Logic> now = s.netValues();
    std::vector<sim::Logic>& row = g.values.emplace_back();
    row.reserve(g.nets.size());
    for (netlist::NetId n : g.nets) row.push_back(now[n]);
    return false;
  };
  (void)runMachine(sim, stim, nullptr, nullptr, observe);
  return g;
}

SerialCampaign runSerialWatch(const netlist::CompiledDesignPtr& cd,
                              const StimulusTrace& stim,
                              const GoldenTrace& golden,
                              const fault::FaultList& faults,
                              const Watch& watch,
                              const std::optional<fault::Fault>& latent,
                              RetireMode retire, sim::EvalMode evalMode) {
  // Golden row column of each group's first net, of the first point and of
  // the first asserted net.
  std::vector<std::size_t> groupColumn;
  groupColumn.reserve(watch.groups.size());
  std::size_t pointColumn = 0;
  for (const std::vector<netlist::NetId>& group : watch.groups) {
    groupColumn.push_back(pointColumn);
    pointColumn += group.size();
  }
  const std::size_t assertedColumn = pointColumn + watch.points.size();
  if (golden.nets.size() != assertedColumn + watch.asserted.size() ||
      golden.values.size() != stim.cycles()) {
    throw std::invalid_argument(
        "runSerialWatch: the golden trace was not recorded for this watch "
        "and stimulus");
  }

  SerialCampaign run;
  run.observations.resize(faults.size());
  std::vector<char> groupHit(watch.groups.size());
  std::vector<char> pointHit(watch.points.size());
  sim::Simulator sim(cd);
  sim.setEvalMode(evalMode);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    Observation& o = run.observations[fi];
    std::fill(groupHit.begin(), groupHit.end(), 0);
    std::fill(pointHit.begin(), pointHit.end(), 0);
    run.cycles += runMachine(
        sim, stim, latent ? &*latent : nullptr, &faults[fi],
        [&](const sim::Simulator& s, std::uint64_t c) {
          const std::span<const sim::Logic> now = s.netValues();
          const std::vector<sim::Logic>& gold = golden.values[c];
          // SENS groups, ascending index.
          for (std::size_t t = 0; t < watch.groups.size(); ++t) {
            if (groupHit[t] != 0) continue;
            const std::vector<netlist::NetId>& nets = watch.groups[t];
            const sim::Logic* g = gold.data() + groupColumn[t];
            for (std::size_t j = 0; j < nets.size(); ++j) {
              if (now[nets[j]] == g[j]) continue;
              groupHit[t] = 1;
              o.groupsDeviated.push_back(static_cast<std::uint32_t>(t));
              if (!o.sens) {
                o.sens = true;
                o.sensCycle = c;
              }
              break;
            }
          }
          // OBSE points, ascending index.
          for (std::size_t i = 0; i < watch.points.size(); ++i) {
            if (pointHit[i] != 0 ||
                now[watch.points[i]] == gold[pointColumn + i]) {
              continue;
            }
            pointHit[i] = 1;
            o.pointsDeviated.push_back(static_cast<std::uint32_t>(i));
            if (!o.obs) {
              o.obs = true;
              o.firstObsCycle = c;
            }
          }
          // DIAG: an alarm reads 1 where golden does not.
          for (std::size_t a = 0; a < watch.asserted.size() && !o.diag; ++a) {
            if (now[watch.asserted[a]] == sim::Logic::L1 &&
                gold[assertedColumn + a] != sim::Logic::L1) {
              o.diag = true;
              o.diagCycle = c;
            }
          }
          return verdictFinal(o, c, retire, watch.detectionWindow);
        });
  }
  run.perf = sim.perf();
  return run;
}

}  // namespace socfmea::faultsim
