#include "core/srs.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "netlist/stats.hpp"

namespace socfmea::core {

namespace {

/// FMEA rows rendered, most critical first.
constexpr std::size_t kFmeaRows = 25;
/// Zones listed in the criticality ranking.
constexpr std::size_t kRankingTop = 10;
/// The SIL the document argues for (drives the compliance verdict).
constexpr fmea::Sil kTargetSil = fmea::Sil::Sil3;

std::string pct(double v) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(2) << v * 100.0 << " %";
  return ss.str();
}

std::string fit(double v) {
  std::ostringstream ss;
  ss << std::setprecision(4) << v << " FIT";
  return ss.str();
}

const char* passFail(bool pass) { return pass ? "**PASS**" : "**FAIL**"; }

}  // namespace

void writeSrs(std::ostream& out, const FmeaFlow& flow, const SrsOptions& opt,
              const ValidationFlowReport* validation) {
  const auto& nl = flow.design();
  const auto& sheet = flow.sheet();

  out << "# Safety Requirements Specification — " << nl.name() << "\n\n";
  out << "Prepared by: " << opt.author
      << ".  Methodology: SoC-level FMEA per Mariani/Boschi/Colucci "
         "(DATE 2007), IEC 61508.\n\n";

  // --- 1. item description ----------------------------------------------------
  const auto stats = netlist::computeStats(nl);
  out << "## 1. Item description\n\n"
      << "| property | value |\n|---|---|\n"
      << "| design | `" << nl.name() << "` |\n"
      << "| combinational gates | " << stats.gates << " |\n"
      << "| flip-flops | " << stats.flipFlops << " |\n"
      << "| memories | " << stats.memories << " (" << stats.memoryBits
      << " bits) |\n"
      << "| primary I/O | " << stats.primaryInputs << " in / "
      << stats.primaryOutputs << " out |\n"
      << "| combinational depth | " << stats.maxDepth << " levels |\n\n";

  // --- 2. sensible-zone decomposition -----------------------------------------
  out << "## 2. Sensible-zone decomposition\n\n";
  out << flow.zones().size() << " sensible zones were extracted from the "
      << "synthesized netlist.\n\n| kind | count |\n|---|---|\n";
  std::size_t byKind[8] = {};
  for (const auto& z : flow.zones().zones()) {
    ++byKind[static_cast<std::size_t>(z.kind)];
  }
  for (std::size_t k = 0; k < 8; ++k) {
    if (byKind[k] == 0) continue;
    out << "| " << zones::zoneKindName(static_cast<zones::ZoneKind>(k))
        << " | " << byKind[k] << " |\n";
  }
  const auto census = flow.zones().census();
  out << "\nPhysical fault-site locality: " << census.local << " local, "
      << census.wide << " wide, " << census.global
      << " global sites over the combinational gates.\n\n";

  // --- 3. FMEA ------------------------------------------------------------------
  out << "## 3. FMEA\n\n";
  out << "| zone | failure mode | pers. | λ | S | DDF | λDD | λDU |\n"
      << "|---|---|---|---|---|---|---|---|\n";
  // Render the most critical rows first.
  auto rows = sheet.rows();
  std::sort(rows.begin(), rows.end(),
            [](const fmea::FmeaRow& a, const fmea::FmeaRow& b) {
              return a.lambdaDU > b.lambdaDU;
            });
  for (std::size_t i = 0; i < std::min(rows.size(), kFmeaRows); ++i) {
    const fmea::FmeaRow& r = rows[i];
    out << "| " << r.zoneName << " | " << r.failureMode << " | "
        << (r.persistence == fmea::Persistence::Transient ? "T" : "P")
        << " | " << fit(r.lambda) << " | " << pct(r.safe.combined()) << " | "
        << pct(r.ddf) << " | " << fit(r.lambdaDD) << " | " << fit(r.lambdaDU)
        << " |\n";
  }
  if (rows.size() > kFmeaRows) {
    out << "\n(" << rows.size() - kFmeaRows
        << " further rows omitted; sorted by λDU, most critical first.)\n";
  }

  out << "\n### Criticality ranking\n\n";
  std::size_t rank = 1;
  for (const auto& e : sheet.ranking(kRankingTop)) {
    out << rank++ << ". **" << e.name << "** — " << fit(e.lambdaDU) << " ("
        << pct(e.share) << " of total λDU)\n";
  }

  // --- 4. safety metrics ----------------------------------------------------------
  const auto totals = sheet.totals();
  out << "\n## 4. Safety metrics\n\n"
      << "| metric | value |\n|---|---|\n"
      << "| λ total | " << fit(totals.total()) << " |\n"
      << "| λS | " << fit(totals.safe) << " |\n"
      << "| λDD | " << fit(totals.dangerousDetected) << " |\n"
      << "| λDU | " << fit(totals.dangerousUndetected) << " |\n"
      << "| DC | " << pct(sheet.dc()) << " |\n"
      << "| SFF | " << pct(sheet.sff()) << " |\n"
      << "| SIL (architectural, HFT " << sheet.config().hft << ", type "
      << (sheet.config().elementType == fmea::ElementType::TypeB ? "B" : "A")
      << ") | " << fmea::silName(sheet.sil()) << " |\n"
      << "| PFH (continuous mode) | " << sheet.pfh() << " /h |\n"
      << "| SIL (probabilistic route) | " << fmea::silName(sheet.silByPfh())
      << " |\n\n";

  const bool silOk = sheet.sil() >= kTargetSil;
  out << "Target: **" << fmea::silName(kTargetSil) << "** — "
      << passFail(silOk) << " by the architectural route (SFF "
      << pct(sheet.sff()) << " vs required "
      << pct(fmea::requiredSff(kTargetSil, sheet.config().hft,
                               sheet.config().elementType))
      << ").\n";

  // --- 5. sensitivity ----------------------------------------------------------------
  if (opt.includeSensitivity) {
    const auto res = flow.sensitivity();
    out << "\n## 5. Sensitivity of the assumptions\n\n"
        << "| span | SFF | ΔSFF |\n|---|---|---|\n";
    for (const auto& s : res.scenarios) {
      std::ostringstream d;
      d << std::showpos << std::fixed << std::setprecision(3)
        << s.deltaSff * 100.0 << " pt";
      out << "| " << s.name << " | " << pct(s.sff) << " | " << d.str()
          << " |\n";
    }
    out << "\nSpan: [" << pct(res.minSff()) << ", " << pct(res.maxSff())
        << "]; max |Δ| " << res.maxAbsDelta() * 100.0 << " pt.\n";
  }

  // --- 6. validation evidence ----------------------------------------------------------
  if (validation != nullptr) {
    const auto& v = *validation;
    out << "\n## 6. Fault-injection validation (IEC 61508 Section 5 flow)\n\n"
        << "| step | evidence | verdict |\n|---|---|---|\n"
        << "| (a) exhaustive zone-failure injection | "
        << v.zoneCampaign.records.size() << " injections, completeness "
        << pct(v.campaignCompleteness) << ", measured SFF "
        << pct(v.zoneCampaign.measuredSff()) << " | " << passFail(v.stepAPass)
        << " |\n"
        << "| (b) workload toggle coverage | " << pct(v.toggle.onceFraction())
        << " of nets | " << passFail(v.stepBPass) << " |\n"
        << "| (c) local faults on critical areas | campaign SFF "
        << pct(v.localMeasuredSff) << ", fault-sim DC "
        << pct(v.faultSimCoverage) << " vs claimed "
        << pct(v.sheetPermanentDdf) << " | " << passFail(v.stepCPass)
        << " |\n"
        << "| (d) wide/global faults | " << v.multiZoneFailures
        << " multiple-zone failures / " << v.wideCampaign.records.size()
        << " injections | " << passFail(v.stepDPass) << " |\n\n"
        << "Detection latency: mean "
        << v.zoneCampaign.meanDetectionLatency() << " cycles, max "
        << v.zoneCampaign.maxDetectionLatency()
        << " cycles.  Overall validation: " << passFail(v.pass()) << ".\n";
  }

  out << "\n---\n*Generated by the socfmea flow; see DESIGN.md and "
         "EXPERIMENTS.md for the methodology provenance.*\n";
}

std::string srsToString(const FmeaFlow& flow, const SrsOptions& opt,
                        const ValidationFlowReport* validation) {
  std::ostringstream ss;
  writeSrs(ss, flow, opt, validation);
  return ss.str();
}

}  // namespace socfmea::core
