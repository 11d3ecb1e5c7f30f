#include "faultsim/serial.hpp"

#include <ostream>

#include "obs/telemetry.hpp"

namespace socfmea::faultsim {

namespace {

std::vector<netlist::CellId> resolveOutputs(const netlist::Netlist& nl,
                                            const FaultSimOptions& opt) {
  if (!opt.observedOutputs.empty()) return opt.observedOutputs;
  return nl.primaryOutputs();
}

}  // namespace

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

GoldenTrace recordGolden(const fault::EngineContext& ctx, sim::Workload& wl,
                         const StimulusTrace& stim,
                         const FaultSimOptions& opt) {
  const netlist::Netlist& nl = ctx.design();
  GoldenTrace g;
  g.outputs = resolveOutputs(nl, opt);
  for (netlist::CellId po : g.outputs) {
    g.nets.push_back(nl.cell(po).inputs[0]);
  }
  sim::Simulator sim(ctx.compiledPtr());
  sim.setEvalMode(opt.evalMode);
  wl.restart();
  sim.reset();
  g.values.reserve(stim.cycles());
  for (std::uint64_t c = 0; c < stim.cycles(); ++c) {
    for (std::size_t i = 0; i < stim.inputs.size(); ++i) {
      sim.setInput(stim.inputs[i], sim::fromBool(stim.values[c][i]));
    }
    wl.backdoor(sim, c);
    sim.evalComb();
    std::vector<sim::Logic> row;
    row.reserve(g.nets.size());
    for (netlist::NetId n : g.nets) row.push_back(sim.value(n));
    g.values.push_back(std::move(row));
    sim.clockEdge();
  }
  return g;
}

FaultSimResult runSerialFaultSim(const netlist::Netlist& nl, sim::Workload& wl,
                                 const fault::FaultList& faults,
                                 const FaultSimOptions& opt) {
  const fault::EngineContext ctx(nl);
  return runSerialFaultSim(ctx, wl, faults, opt);
}

FaultSimResult runSerialFaultSim(const fault::EngineContext& ctx,
                                 sim::Workload& wl,
                                 const fault::FaultList& faults,
                                 const FaultSimOptions& opt) {
  obs::ScopedTimer timer("faultsim.serial");
  const StimulusTrace stim = recordStimulus(ctx, wl);
  const GoldenTrace golden = recordGolden(ctx, wl, stim, opt);

  FaultSimResult res;
  res.total = faults.size();
  res.outcomes.assign(faults.size(), FaultOutcome::Undetected);

  sim::Simulator sim(ctx.compiledPtr());
  sim.setEvalMode(opt.evalMode);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    bool detected = false;
    res.simulatedCycles += runMachine(
        sim, wl, stim, nullptr, faults[fi],
        [&](const sim::Simulator& s, std::uint64_t c) {
          for (std::size_t o = 0; o < golden.nets.size() && !detected; ++o) {
            detected = s.value(golden.nets[o]) != golden.values[c][o];
          }
          return detected && opt.earlyAbort;
        });
    if (detected) {
      res.outcomes[fi] = FaultOutcome::Detected;
      ++res.detected;
    }
  }

  auto& reg = obs::Registry::global();
  reg.add("faultsim.serial.machines", res.total);
  reg.add("faultsim.serial.cycles", res.simulatedCycles);
  reg.add("faultsim.detected", res.detected);
  return res;
}

void printFaultSim(std::ostream& out, const FaultSimResult& r) {
  out << "fault simulation: " << r.detected << "/" << r.total
      << " faults detected (coverage " << r.coverage() * 100.0 << "%), "
      << r.simulatedCycles << " machine-cycles\n";
}

}  // namespace socfmea::faultsim
