#include "testkit/oracle.hpp"

#include <algorithm>
#include <sstream>

#include "faultsim/bitsliced.hpp"
#include "netlist/text_format.hpp"

namespace socfmea::testkit {

using faultsim::Observation;

std::string_view evalModeName(sim::EvalMode m) noexcept {
  return m == sim::EvalMode::EventDriven ? "event-driven" : "full-settle";
}

std::vector<std::size_t> OracleReport::suspectFaults() const {
  std::vector<std::size_t> all;
  for (const auto& m : mismatches) {
    all.insert(all.end(), m.faultIndices.begin(), m.faultIndices.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

std::size_t OracleReport::detected() const {
  return static_cast<std::size_t>(
      std::count_if(reference.begin(), reference.end(),
                    [](const Observation& o) { return o.obs; }));
}

std::string OracleReport::summary() const {
  std::ostringstream ss;
  ss << (pass ? "PASS" : "FAIL") << " (" << combosRun << " combos, "
     << reference.size() << " faults, " << detected() << " detected)";
  for (const auto& m : mismatches) {
    ss << "\n  " << m.combo << ": " << m.detail;
  }
  return ss.str();
}

namespace {

void applySabotage(const Sabotage& s, Sabotage::Engine engine,
                   sim::EvalMode mode, std::vector<Observation>& observed) {
  if (s.engine != engine || s.mode != mode) return;
  for (Observation& o : observed) {
    if (o.obs) o = Observation{};
  }
}

/// The campaign arm's watch, built from the design alone: each flip-flop's
/// Q net is one group, and the primary outputs serve as both the points and
/// the asserted nets.
faultsim::Watch campaignWatch(const netlist::Netlist& nl) {
  faultsim::Watch watch = faultsim::outputWatch(nl, nl.primaryOutputs());
  watch.asserted = watch.points;
  for (const netlist::CellId ff : nl.flipFlops()) {
    watch.groups.push_back({nl.cell(ff).output});
  }
  watch.detectionWindow = 4;
  return watch;
}

/// True when `run` reads what the serial oracle's golden trace reads on
/// every traced net in every cycle.
bool runMatchesTrace(const faultsim::GoldenRun& run,
                     const faultsim::GoldenTrace& trace) {
  if (trace.values.size() != run.cycles()) return false;
  for (std::uint64_t c = 0; c < run.cycles(); ++c) {
    for (std::size_t j = 0; j < trace.nets.size(); ++j) {
      if (run.value(c, trace.nets[j]) != trace.values[c][j]) return false;
    }
  }
  return true;
}

/// Records a mismatch for every fault whose observation differs from the
/// reference.
void compareObservations(const std::vector<Observation>& ref,
                         const std::vector<Observation>& got,
                         const std::string& combo, OracleReport& report) {
  OracleMismatch mm;
  mm.combo = combo;
  if (got.size() != ref.size()) {
    mm.detail = "ran " + std::to_string(got.size()) + " faults, expected " +
                std::to_string(ref.size());
    report.mismatches.push_back(std::move(mm));
    return;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (got[i] != ref[i]) mm.faultIndices.push_back(i);
  }
  if (!mm.faultIndices.empty()) {
    mm.detail = std::to_string(mm.faultIndices.size()) +
                " observation(s) disagree with the reference (first at "
                "fault #" +
                std::to_string(mm.faultIndices.front()) + ")";
    report.mismatches.push_back(std::move(mm));
  }
}

}  // namespace

std::vector<Observation> serialOutputs(const netlist::CompiledDesignPtr& cd,
                                       const faultsim::StimulusTrace& stim,
                                       const fault::FaultList& faults,
                                       faultsim::RetireMode retire,
                                       sim::EvalMode mode) {
  const faultsim::Watch watch =
      faultsim::outputWatch(cd->design(), cd->design().primaryOutputs());
  return faultsim::runSerialWatch(
             cd, stim, faultsim::recordGolden(cd, stim, watch, mode), faults,
             watch, std::nullopt, retire, mode)
      .observations;
}

OracleReport runOracle(const netlist::Netlist& nl, const TestPlan& plan,
                       const OracleOptions& opt) {
  const faultsim::StimulusTrace& stim = plan.stim;
  if (stim.inputs.size() != nl.primaryInputs().size()) {
    throw PlanError("plan drives " + std::to_string(stim.inputs.size()) +
                    " inputs but design '" + nl.name() + "' has " +
                    std::to_string(nl.primaryInputs().size()));
  }
  OracleReport report;
  const netlist::CompiledDesignPtr cd = netlist::compile(nl);

  const auto serialArm = [&](sim::EvalMode mode) {
    std::vector<Observation> r = serialOutputs(
        cd, stim, plan.faults, faultsim::RetireMode::DetectOnly, mode);
    applySabotage(opt.sabotage, Sabotage::Engine::Serial, mode, r);
    ++report.combosRun;
    return r;
  };

  report.reference = serialArm(sim::EvalMode::EventDriven);
  const std::vector<Observation>& ref = report.reference;

  compareObservations(ref, serialArm(sim::EvalMode::FullSettle),
                      "serial/full-settle", report);

  // Golden traces of both eval modes must be cycle-for-cycle identical.
  const faultsim::Watch watch = campaignWatch(nl);
  const faultsim::GoldenTrace golden =
      faultsim::recordGolden(cd, stim, watch);
  if (golden.values !=
      faultsim::recordGolden(cd, stim, watch, sim::EvalMode::FullSettle)
          .values) {
    report.mismatches.push_back(
        {"golden-trace", "event-driven and full-settle golden runs differ", {}});
  }

  // The bit-sliced engine's golden runs (faultsim::GoldenRun), one per eval
  // mode, must be equal and must read what the serial golden trace reads.
  const faultsim::GoldenRun eventRun(cd, stim);
  const faultsim::GoldenRun fullRun(cd, stim, sim::EvalMode::FullSettle);
  if (!(eventRun == fullRun)) {
    report.mismatches.push_back(
        {"golden-run", "event-driven and full-settle GoldenRun records differ",
         {}});
  }
  for (const faultsim::GoldenRun* run : {&eventRun, &fullRun}) {
    if (!runMatchesTrace(*run, golden)) {
      report.mismatches.push_back(
          {"golden-run", "a golden run differs from the serial golden trace",
           {}});
      break;
    }
  }

  // Bit-sliced fault-parallel engine: full fault model, full plan list.
  if (!plan.faults.empty()) {
    const faultsim::Watch outputs =
        faultsim::outputWatch(nl, nl.primaryOutputs());
    for (const auto mode :
         {sim::EvalMode::EventDriven, sim::EvalMode::FullSettle}) {
      const bool event = mode == sim::EvalMode::EventDriven;
      std::vector<Observation> r =
          faultsim::runBitslicedWatch(event ? eventRun : fullRun, plan.faults,
                                      outputs, std::nullopt,
                                      faultsim::RetireMode::DetectOnly,
                                      event ? opt.threads : 1)
              .observations;
      applySabotage(opt.sabotage, Sabotage::Engine::Bitsliced, mode, r);
      ++report.combosRun;
      compareObservations(
          ref, r, std::string("bitsliced/") + std::string(evalModeName(mode)),
          report);
    }

    // Campaign mode: both engines' observations under the campaign watch,
    // with early abort, must be identical.
    const faultsim::SerialCampaign serial = faultsim::runSerialWatch(
        cd, stim, golden, plan.faults, watch, std::nullopt,
        faultsim::RetireMode::Classify);
    const faultsim::BitslicedCampaign sliced = faultsim::runBitslicedWatch(
        eventRun, plan.faults, watch, std::nullopt,
        faultsim::RetireMode::Classify, opt.threads);
    ++report.combosRun;
    compareObservations(serial.observations, sliced.observations, "campaign",
                        report);
  }

  // Text round-trip: parse(write(nl)) must write back identically and must
  // reproduce the reference verdicts under the rebound plan.
  const std::string text = netlist::writeNetlistString(nl);
  try {
    const netlist::Netlist reparsed = netlist::readNetlistString(text);
    const std::string text2 = netlist::writeNetlistString(reparsed);
    if (text2 != text) {
      report.mismatches.push_back(
          {"round-trip", "write(parse(write(nl))) is not a fixed point", {}});
    } else {
      const TestPlan rebound = rebindPlan(nl, reparsed, plan);
      compareObservations(ref,
                          serialOutputs(netlist::compile(reparsed),
                                        rebound.stim, rebound.faults),
                          "round-trip", report);
    }
  } catch (const std::exception& e) {
    report.mismatches.push_back(
        {"round-trip", std::string("reparse failed: ") + e.what(), {}});
  }

  report.pass = report.mismatches.empty();
  return report;
}

}  // namespace socfmea::testkit
