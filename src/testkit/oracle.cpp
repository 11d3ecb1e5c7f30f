#include "testkit/oracle.hpp"

#include <algorithm>
#include <sstream>

#include "faultsim/bitsliced.hpp"
#include "inject/workload.hpp"
#include "netlist/text_format.hpp"

namespace socfmea::testkit {

using faultsim::FaultOutcome;
using faultsim::FaultSimResult;

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

std::string OracleReport::summary() const {
  std::ostringstream ss;
  ss << (pass ? "PASS" : "FAIL") << " (" << combosRun << " combos, "
     << reference.total << " faults, " << reference.detected << " detected)";
  for (const auto& m : mismatches) {
    ss << "\n  " << m.combo << ": " << m.detail;
  }
  return ss.str();
}

namespace {

void applySabotage(const Sabotage& s, Sabotage::Engine engine,
                   sim::EvalMode mode, FaultSimResult& r) {
  if (s.engine != engine || s.mode != mode) return;
  for (auto& outcome : r.outcomes) {
    if (outcome != FaultOutcome::Detected) continue;
    outcome = FaultOutcome::Undetected;
    --r.detected;
  }
}

/// The campaign arm's watch, built from the design alone: each flip-flop's
/// Q net is one group, and the primary outputs serve as both the points and
/// the asserted nets.
faultsim::Watch campaignWatch(const netlist::Netlist& nl) {
  faultsim::Watch watch = faultsim::outputWatch(nl, {});
  watch.asserted = watch.points;
  for (const netlist::CellId ff : nl.flipFlops()) {
    watch.groups.push_back({nl.cell(ff).output});
  }
  watch.detectionWindow = 4;
  return watch;
}

/// Compares a combo's verdicts against the reference at the given original
/// fault indices (identity map for full-list combos).
void compareVerdicts(const FaultSimResult& ref, const FaultSimResult& got,
                     const std::vector<std::size_t>& indexMap,
                     const std::string& combo, OracleReport& report) {
  OracleMismatch mm;
  mm.combo = combo;
  if (got.outcomes.size() != indexMap.size()) {
    mm.detail = "ran " + std::to_string(got.outcomes.size()) +
                " faults, expected " + std::to_string(indexMap.size());
    report.mismatches.push_back(std::move(mm));
    return;
  }
  for (std::size_t i = 0; i < indexMap.size(); ++i) {
    if (got.outcomes[i] != ref.outcomes[indexMap[i]]) {
      mm.faultIndices.push_back(indexMap[i]);
    }
  }
  if (!mm.faultIndices.empty()) {
    mm.detail =
        std::to_string(mm.faultIndices.size()) +
        " verdict(s) disagree with serial/event-driven (first at fault #" +
        std::to_string(mm.faultIndices.front()) + ")";
    report.mismatches.push_back(std::move(mm));
  }
}

}  // namespace

OracleReport runOracle(const netlist::Netlist& nl, const TestPlan& plan,
                       const OracleOptions& opt) {
  if (plan.inputs.size() != nl.primaryInputs().size()) {
    throw PlanError("plan drives " + std::to_string(plan.inputs.size()) +
                    " inputs but design '" + nl.name() + "' has " +
                    std::to_string(nl.primaryInputs().size()));
  }
  OracleReport report;
  const netlist::CompiledDesignPtr cd = netlist::compile(nl);
  inject::VectorWorkload wl(plan.name, plan.inputs, plan.stimulus);

  std::vector<std::size_t> identity(plan.faults.size());
  for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;

  const auto serialArm = [&](sim::EvalMode mode) {
    faultsim::FaultSimOptions o;
    o.evalMode = mode;
    auto r = faultsim::runSerialFaultSim(cd, wl, plan.faults, o);
    applySabotage(opt.sabotage, Sabotage::Engine::Serial, mode, r);
    ++report.combosRun;
    return r;
  };

  report.reference = serialArm(sim::EvalMode::EventDriven);
  const FaultSimResult& ref = report.reference;

  compareVerdicts(ref, serialArm(sim::EvalMode::FullSettle), identity,
                  "serial/full-settle", report);

  // Golden traces of both eval modes must be cycle-for-cycle identical.
  const faultsim::Watch watch = campaignWatch(nl);
  const faultsim::StimulusTrace stim = faultsim::recordStimulus(cd, wl);
  const faultsim::GoldenTrace golden =
      faultsim::recordGolden(cd, wl, stim, watch);
  if (golden.values !=
      faultsim::recordGolden(cd, wl, stim, watch, sim::EvalMode::FullSettle)
          .values) {
    report.mismatches.push_back(
        {"golden-trace", "event-driven and full-settle golden runs differ", {}});
  }

  // Bit-sliced fault-parallel engine: full fault model, full plan list.
  if (!plan.faults.empty()) {
    for (const auto mode :
         {sim::EvalMode::EventDriven, sim::EvalMode::FullSettle}) {
      faultsim::FaultSimOptions o;
      o.evalMode = mode;
      o.threads = mode == sim::EvalMode::EventDriven ? opt.threads : 1;
      auto r = faultsim::runBitslicedFaultSim(cd, wl, plan.faults, o);
      applySabotage(opt.sabotage, Sabotage::Engine::Bitsliced, mode, r);
      ++report.combosRun;
      compareVerdicts(
          ref, r, identity,
          std::string("bitsliced/") + std::string(evalModeName(mode)),
          report);
    }

    // Campaign mode: both engines' observations under the campaign watch,
    // with early abort, must be identical.
    const faultsim::SerialCampaign serial = faultsim::runSerialWatch(
        cd, wl, stim, golden, plan.faults, watch, std::nullopt,
        faultsim::RetireMode::Classify);
    faultsim::FaultSimOptions o;
    o.threads = opt.threads;
    const faultsim::BitslicedCampaign sliced = faultsim::runBitslicedWatch(
        cd, wl, plan.faults, watch, std::nullopt,
        faultsim::RetireMode::Classify, o);
    ++report.combosRun;
    OracleMismatch mm{"campaign", "", {}};
    for (std::size_t i = 0; i < plan.faults.size(); ++i) {
      if (serial.observations[i] != sliced.observations[i]) {
        mm.faultIndices.push_back(i);
      }
    }
    if (!mm.faultIndices.empty()) {
      mm.detail = std::to_string(mm.faultIndices.size()) +
                  " bit-sliced observation(s) disagree with the serial "
                  "watch (first at fault #" +
                  std::to_string(mm.faultIndices.front()) + ")";
      report.mismatches.push_back(std::move(mm));
    }
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
      inject::VectorWorkload wl2(rebound.name, rebound.inputs,
                                 rebound.stimulus);
      const auto r = faultsim::runSerialFaultSim(netlist::compile(reparsed),
                                                 wl2, rebound.faults);
      compareVerdicts(ref, r, identity, "round-trip", report);
    }
  } catch (const std::exception& e) {
    report.mismatches.push_back(
        {"round-trip", std::string("reparse failed: ") + e.what(), {}});
  }

  report.pass = report.mismatches.empty();
  return report;
}

}  // namespace socfmea::testkit
