// Extension experiment EXT-CPU-MIT: hardware versus software safety
// mechanisms on the tinycpu, measured end to end.  The scenario registry
// (src/cpu/scenarios.hpp) runs every design + workload + mitigation through
// the full flow — analytic FMEA sheet, profile-guided fault list, injection
// campaign — and this bench prints the HW-vs-SW DC/SFF comparison and
// writes BENCH_cpu_mitigations.json for the CI gate.
//
// Cross-engine verdict identity (serial vs bit-sliced) is asserted here
// before any number is reported; the hard gates are test_mitigations'
// CrossEngineVerdictIdentity (bit-sliced at two threads) and the
// differential oracle behind fuzz_diff --cpu.
#include "bench_util.hpp"
#include "cpu/scenarios.hpp"
#include "fmea/iec61508.hpp"

using namespace socfmea;
namespace sc = cpu::scenarios;

namespace {

/// Serial / bit-sliced record-for-record identity on the two alarm-bearing
/// scenario classes.  Cheap (per-bit 1) — the point is the
/// verdict stream, not the statistics.
bool crossEngineIdentical() {
  for (const char* name : {"lockstep", "dwc"}) {
    const sc::Scenario* s = sc::find(name);
    if (s == nullptr) return false;
    sc::RunOptions opt;
    opt.perBit = 1;
    opt.campaign.engine = faultsim::EngineKind::Serial;
    const sc::ScenarioResult ref = sc::runScenario(*s, opt);
    opt.campaign.engine = faultsim::EngineKind::Bitsliced;
    const sc::ScenarioResult other = sc::runScenario(*s, opt);
    if (other.campaign.merged.records.size() !=
        ref.campaign.merged.records.size()) {
      return false;
    }
    for (std::size_t i = 0; i < ref.campaign.merged.records.size(); ++i) {
      if (other.campaign.merged.records[i].outcome !=
          ref.campaign.merged.records[i].outcome) {
        return false;
      }
    }
  }
  return true;
}

void printTable() {
  benchutil::banner(
      "EXT-CPU-MIT",
      "software mitigations on tinycpu: measured HW-vs-SW DC/SFF");

  const bool identical = crossEngineIdentical();
  std::cout << (identical
                    ? "cross-engine verdicts identical "
                      "(serial = bit-sliced), reporting\n\n"
                    : "CROSS-ENGINE VERDICT MISMATCH — numbers below are "
                      "suspect\n\n");

  const sc::RunOptions opt;  // per-bit 2, seed 8
  // mDC is the measured diagnostic coverage over dangerous activations
  // (CampaignResult::measuredDdf) — the injected counterpart of aDC.
  std::cout << "  scenario          aSFF   aDC  SIL    mSFF   mDC "
               "faults  vs-base\n";
  const std::vector<sc::Scenario>& v = sc::all();
  const sc::ScenarioResult baseline = sc::runScenario(v[0], opt);

  auto jScenarios = obs::Json::array();
  bool allOk = true;
  for (const sc::Scenario& s : v) {
    const sc::ScenarioResult r =
        &s == &v[0] ? baseline : sc::runScenario(s, opt);
    const bool ok = sc::verdictOk(s, r, baseline);
    allOk = allOk && ok;
    std::printf("  %-16s %5.1f%% %5.1f%%  %-5s %5.1f%% %5.1f%% %6zu",
                s.name.c_str(), r.analysisSff * 100.0, r.analysisDc * 100.0,
                std::string(fmea::silName(r.sil)).c_str(),
                r.measuredSff * 100.0, r.measuredDdf * 100.0, r.faults);
    if (&s != &v[0]) {
      std::printf("  %+5.1f%%", (r.measuredSff - baseline.measuredSff) * 100.0);
    }
    std::printf("%s\n", ok ? "" : "  VERDICT-FAIL");
    obs::Json j = r.toJson();
    j["mitigation"] = std::string(cpu::swMitigationName(s.mitigation));
    j["verdict_ok"] = ok;
    j["min_sff_gain"] = s.minSffGain;
    j["sff_gain"] = r.measuredSff - baseline.measuredSff;
    jScenarios.push_back(std::move(j));
  }

  std::cout
      << "\nexpected shape: the hardware comparator (lockstep rows) converts\n"
         "nearly every dangerous activation into dangerous-detected —\n"
         "measured DC ~100%.  Software TMR buys a few masking points with\n"
         "no alarm; DWC trades masking for detection through the TRAP\n"
         "alarm; CFCSS detects wild control flow but its signature\n"
         "registers ADD live state, so its measured SFF sits below the\n"
         "unprotected baseline — which is exactly why software-mitigation\n"
         "DC must be measured by injection, not read from an IEC 61508\n"
         "Table A.* diagnostic-coverage claim.\n";

  // The HW-vs-SW headline: best hardware gain vs best software gain.
  const auto gainOf = [&](const char* n) {
    const sc::Scenario* s = sc::find(n);
    for (const obs::Json& j : jScenarios.elements()) {
      if (j.find("name")->asString() == s->name) {
        return j.find("sff_gain")->asDouble();
      }
    }
    return 0.0;
  };
  benchutil::JsonDump dump("BENCH_cpu_mitigations.json");
  dump.field("schema", "socfmea.bench.cpu_mitigations/1")
      .field("per_bit", static_cast<std::uint64_t>(opt.perBit))
      .field("seed", opt.seed)
      .field("cross_engine_identical", identical)
      .field("all_verdicts_ok", allOk)
      .field("baseline_measured_sff", baseline.measuredSff)
      .field("hw_best_sff_gain", gainOf("lockstep"))
      .field("sw_tmr_sff_gain", gainOf("tmr"))
      .field("sw_dwc_sff_gain", gainOf("dwc"))
      .field("sw_cfcss_sff_gain", gainOf("cfcss"))
      .field("scenarios", std::move(jScenarios));
  dump.write();
}

void BM_ScenarioCampaign(benchmark::State& state) {
  const sc::Scenario* s = sc::find(state.range(0) == 0 ? "dwc" : "lockstep");
  sc::RunOptions opt;
  opt.perBit = 1;
  for (auto _ : state) {
    const sc::ScenarioResult r = sc::runScenario(*s, opt);
    benchmark::DoNotOptimize(r.measuredSff);
    state.counters["faults/s"] = benchmark::Counter(
        static_cast<double>(r.faults), benchmark::Counter::kIsRate);
  }
}
BENCHMARK(BM_ScenarioCampaign)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_TransformProgram(benchmark::State& state) {
  const std::vector<std::uint8_t> source = sc::kernelProgram();
  for (auto _ : state) {
    const cpu::TransformedProgram t =
        cpu::transformProgram(source, cpu::SwMitigation::Tmr);
    benchmark::DoNotOptimize(t.image.data());
  }
}
BENCHMARK(BM_TransformProgram);

}  // namespace

int main(int argc, char** argv) {
  return benchutil::runBench(argc, argv, printTable);
}
