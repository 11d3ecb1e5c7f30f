#include "testkit/oracle.hpp"

#include <algorithm>
#include <sstream>

#include "fault/engine_context.hpp"
#include "faultsim/bitsliced.hpp"
#include "faultsim/threaded.hpp"
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
  if (s.engine != engine || s.mode != mode || s.stride == 0) return;
  std::size_t nthDetected = 0;
  for (auto& outcome : r.outcomes) {
    if (outcome != FaultOutcome::Detected) continue;
    if (nthDetected >= s.offset && (nthDetected - s.offset) % s.stride == 0) {
      outcome = FaultOutcome::Undetected;
      --r.detected;
    }
    ++nthDetected;
  }
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
  const fault::EngineContext ctx(nl);
  inject::VectorWorkload wl(plan.name, plan.inputs, plan.stimulus);

  std::vector<std::size_t> identity(plan.faults.size());
  for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;

  const auto runSerial = [&](sim::EvalMode mode) {
    faultsim::FaultSimOptions o;
    o.threads = 1;
    o.evalMode = mode;
    auto r = faultsim::runSerialFaultSim(ctx, wl, plan.faults, o);
    applySabotage(opt.sabotage, Sabotage::Engine::Serial, mode, r);
    ++report.combosRun;
    return r;
  };
  const auto runThreaded = [&](sim::EvalMode mode) {
    faultsim::FaultSimOptions o;
    o.threads = opt.threads == 1 ? 2 : opt.threads;  // stay off the serial path
    o.evalMode = mode;
    auto r = faultsim::runFaultSim(ctx, wl, plan.faults, o);
    applySabotage(opt.sabotage, Sabotage::Engine::Threaded, mode, r);
    ++report.combosRun;
    return r;
  };

  report.reference = runSerial(sim::EvalMode::EventDriven);
  const FaultSimResult& ref = report.reference;

  compareVerdicts(ref, runSerial(sim::EvalMode::FullSettle), identity,
                  "serial/full-settle", report);
  compareVerdicts(ref, runThreaded(sim::EvalMode::EventDriven), identity,
                  "threaded/event-driven", report);
  compareVerdicts(ref, runThreaded(sim::EvalMode::FullSettle), identity,
                  "threaded/full-settle", report);

  // Golden traces of both eval modes must be cycle-for-cycle identical.
  {
    faultsim::FaultSimOptions ed, fs;
    ed.evalMode = sim::EvalMode::EventDriven;
    fs.evalMode = sim::EvalMode::FullSettle;
    const auto gEd = faultsim::recordGolden(ctx, wl, ed);
    const auto gFs = faultsim::recordGolden(ctx, wl, fs);
    if (gEd.values != gFs.values) {
      report.mismatches.push_back(
          {"golden-trace",
           "event-driven and full-settle golden runs differ",
           {}});
    }
  }

  // Bit-sliced fault-parallel engine: full fault model, full plan list.
  if (opt.runBitsliced && !plan.faults.empty()) {
    for (const auto mode :
         {sim::EvalMode::EventDriven, sim::EvalMode::FullSettle}) {
      faultsim::FaultSimOptions o;
      o.engine = faultsim::EngineKind::Bitsliced;
      o.evalMode = mode;
      auto r = faultsim::runBitslicedFaultSim(ctx, wl, plan.faults, o);
      applySabotage(opt.sabotage, Sabotage::Engine::Bitsliced, mode, r);
      ++report.combosRun;
      compareVerdicts(
          ref, r, identity,
          std::string("bitsliced/") + std::string(evalModeName(mode)),
          report);
    }
  }

  // Text round-trip: parse(write(nl)) must write back identically and must
  // reproduce the reference verdicts under the rebound plan.
  if (opt.roundTrip) {
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
        faultsim::FaultSimOptions o;
        o.threads = 1;
        const fault::EngineContext ctx2(reparsed);
        const auto r =
            faultsim::runSerialFaultSim(ctx2, wl2, rebound.faults, o);
        compareVerdicts(ref, r, identity, "round-trip", report);
      }
    } catch (const std::exception& e) {
      report.mismatches.push_back(
          {"round-trip", std::string("reparse failed: ") + e.what(), {}});
    }
  }

  report.pass = report.mismatches.empty();
  return report;
}

}  // namespace socfmea::testkit
