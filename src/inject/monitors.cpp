#include "inject/monitors.hpp"

#include <utility>

namespace socfmea::inject {

PackedSnapshot packNets(const sim::Simulator& sim,
                        const std::vector<netlist::NetId>& nets) {
  PackedSnapshot s;
  const std::size_t words = (nets.size() + 63) / 64;
  s.value.assign(words, 0);
  s.unknown.assign(words, 0);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const sim::Logic v = sim.value(nets[i]);
    if (v == sim::Logic::L1) {
      s.value[i / 64] |= std::uint64_t{1} << (i % 64);
    } else if (sim::isUnknown(v)) {
      s.unknown[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
  return s;
}

LockstepMonitors::LockstepMonitors(const InjectionEnvironment& env,
                                   const GoldenReference& golden)
    : env_(&env), golden_(&golden) {}

// The serial campaign calls this once per machine-cycle.  Pinning it to a
// cache line keeps its loops' fetch alignment independent of how much code
// the linker places before this file: shifted by unrelated edits elsewhere,
// it measured 8-14 % slower end to end on the perfbench workloads.
[[gnu::aligned(64)]] void LockstepMonitors::observe(
    const sim::Simulator& faulty, std::uint64_t cycle) {
  if (cycle >= golden_->cycles || out_ == nullptr) return;
  const auto& db = *env_->zones;

  // SENS: does any target zone deviate from its golden value?
  for (std::size_t t = 0; t < env_->targetZones.size(); ++t) {
    if (zoneHit_[t]) continue;
    const zones::SensibleZone& z = db.zone(env_->targetZones[t]);
    const PackedSnapshot now = packNets(faulty, z.valueNets);
    if (!(now == golden_->zoneSnaps[t][cycle])) {
      zoneHit_[t] = true;
      out_->zonesDeviated.push_back(z.id);
      if (!out_->sens) {
        out_->sens = true;
        out_->sensCycle = cycle;
      }
    }
  }

  // OBSE: functional observation points.
  {
    const PackedSnapshot now = packNets(faulty, env_->obsNets);
    const PackedSnapshot& gold = golden_->obsSnaps[cycle];
    for (std::size_t i = 0; i < env_->obsNets.size(); ++i) {
      const std::uint64_t bit = std::uint64_t{1} << (i % 64);
      const std::size_t w = i / 64;
      const bool differs = ((now.value[w] ^ gold.value[w]) & bit) != 0 ||
                           ((now.unknown[w] ^ gold.unknown[w]) & bit) != 0;
      if (!differs || obsHit_[i]) continue;
      obsHit_[i] = true;
      out_->obsDeviated.push_back(env_->obsIds[i]);
      if (!out_->obs) {
        out_->obs = true;
        out_->firstObsCycle = cycle;
      }
    }
  }

  // DIAG: an alarm asserted in the faulty machine that the golden machine
  // did not assert this cycle.
  if (!out_->diag) {
    const PackedSnapshot now = packNets(faulty, env_->alarmNets);
    const PackedSnapshot& gold = golden_->alarmSnaps[cycle];
    for (std::size_t w = 0; w < now.value.size(); ++w) {
      if ((now.value[w] & ~gold.value[w]) != 0) {
        out_->diag = true;
        out_->diagCycle = cycle;
        break;
      }
    }
  }
}

GoldenReference recordGoldenReference(netlist::CompiledDesignPtr cd,
                                      const InjectionEnvironment& env,
                                      sim::Workload& wl,
                                      const faultsim::StimulusTrace& stim) {
  GoldenReference g;
  g.cycles = stim.cycles();
  g.zoneSnaps.assign(env.targetZones.size(), {});
  for (auto& v : g.zoneSnaps) v.reserve(g.cycles);
  g.obsSnaps.reserve(g.cycles);
  g.alarmSnaps.reserve(g.cycles);

  sim::Simulator sim(std::move(cd));
  wl.restart();
  sim.reset();
  const auto& db = *env.zones;
  for (std::uint64_t c = 0; c < g.cycles; ++c) {
    for (std::size_t i = 0; i < stim.inputs.size(); ++i) {
      sim.setInput(stim.inputs[i], sim::fromBool(stim.values[c][i]));
    }
    wl.backdoor(sim, c);
    sim.evalComb();
    for (std::size_t t = 0; t < env.targetZones.size(); ++t) {
      g.zoneSnaps[t].push_back(
          packNets(sim, db.zone(env.targetZones[t]).valueNets));
    }
    g.obsSnaps.push_back(packNets(sim, env.obsNets));
    g.alarmSnaps.push_back(packNets(sim, env.alarmNets));
    sim.clockEdge();
  }
  return g;
}

}  // namespace socfmea::inject
