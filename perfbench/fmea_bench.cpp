// fmea_bench: the FMEA-flow benchmark harness.
//
//   fmea_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --work <dir> [--setup-only] [--emit <path>] [--perturb]
//
// Runs one named workload in-process through the library's public API, with
// the settings a bare CLI invocation uses (engine Auto, threads 1, tier
// Exact, no workers):
//
//   sil3_report     the bare `memsys_sil3_flow`: v1 and v2 analysis,
//                   sensitivity, validation steps a-d, the SRS document;
//   edit_iteration  `memsys_sil3_flow --cache-dir D --edit wbuf-parity`
//                   run twice over a store primed with the v1 baseline (a
//                   delta run, then a full store hit);
//   cpu_scenarios   the bare `cpu_mitigation_flow`: all seven scenarios.
//
// Set-up (workload preparation plus one untimed warm-up op, which carries
// every lazy one-time cost) is timed as a whole.  Then ops run closed-loop,
// one at a time, until --seconds have passed.  Each op's verdict document
// is digested and must equal the warm-up op's, whose document --emit writes
// out (perfbench/run.py checks it against the references at seed 0).  With
// --trace 1 every other op is traced: spans around the public calls plus
// telemetry deltas attribute its time to layers.
//
// The harness pins itself to one core, where a sampler thread times a fixed
// kernel every 50 ms; each op and the set-up carry the mean kernel time
// during them, from which perfbench/run.py scales times to an idle core.
//
// Progress goes to stderr; stdout gets one JSON document of raw samples,
// which perfbench/run.py turns into metrics.
#include <sched.h>

#include <algorithm>
#include <condition_variable>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_store.hpp"
#include "core/flow.hpp"
#include "core/flow_report.hpp"
#include "core/frmem_config.hpp"
#include "core/incremental.hpp"
#include "core/srs.hpp"
#include "core/validation.hpp"
#include "cpu/scenarios.hpp"
#include "faultsim/lanes.hpp"
#include "fmea/iec61508.hpp"
#include "memsys/gatelevel.hpp"
#include "memsys/workloads.hpp"
#include "netlist/hash.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace socfmea;
namespace fs = std::filesystem;
namespace sc = cpu::scenarios;
using obs::Json;

namespace {

using Clock = std::chrono::steady_clock;
using Layers = std::map<std::string, double>;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- seeds ------------------------------------------------------------------

/// Every seed a workload consumes.  Seed 0 is the shipped CLIs' defaults;
/// any other benchmark seed derives all of them from itself.
struct Seeds {
  std::uint64_t stimulus = 42;          ///< ProtectionIpWorkload::Options
  std::uint64_t validation = 7;         ///< ValidationOptions::seed
  std::uint64_t campaign = 7;           ///< incremental campaign fault sample
  std::uint64_t memFaults = 0x4D454Du;  ///< IncrementalOptions::memFaultSeed
  std::uint64_t cpu = 8;                ///< scenarios::RunOptions::seed

  [[nodiscard]] Json toJson() const {
    Json j = Json::object();
    j["stimulus"] = stimulus;
    j["validation"] = validation;
    j["campaign"] = campaign;
    j["mem_faults"] = memFaults;
    j["cpu"] = cpu;
    return j;
  }
};

Seeds seedsFor(std::uint64_t n) {
  Seeds s;
  if (n == 0) return s;
  const auto derive = [n](std::uint64_t role) {
    return netlist::hashMix(netlist::hashMix(0xBE4Cu, n), role) & 0xFFFFFFFFu;
  };
  s.stimulus = derive(1);
  s.validation = derive(2);
  s.campaign = derive(3);
  s.memFaults = derive(4);
  s.cpu = derive(5);
  return s;
}

// ---- verdict documents ------------------------------------------------------

/// Deep copy without the engine- and machine-dependent members: campaign
/// "execution" counters, telemetry, and flow-graph stage timings.
Json stripVolatile(const Json& j) {
  if (j.isObject()) {
    Json out = Json::object();
    for (const auto& [key, value] : j.items()) {
      if (key == "execution" || key == "telemetry" || key == "graph") continue;
      out[key] = stripVolatile(value);
    }
    return out;
  }
  if (j.isArray()) {
    Json out = Json::array();
    for (const Json& e : j.elements()) out.push_back(stripVolatile(e));
    return out;
  }
  return j;
}

/// Order-sensitive digest of every record's fault and outcome.
std::string recordsDigest(const inject::CampaignResult& r) {
  std::uint64_t h = netlist::hashMix(0xD16u, r.records.size());
  for (const inject::InjectionRecord& rec : r.records) {
    const fault::Fault& f = rec.fault;
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(f.kind), std::uint64_t{f.net},
          std::uint64_t{f.net2}, std::uint64_t{f.cell}, std::uint64_t{f.mem},
          f.addr, f.addr2, std::uint64_t{f.bit},
          std::uint64_t{f.stuckValue ? 1u : 0u}, f.cycle,
          static_cast<std::uint64_t>(rec.outcome)}) {
      h = netlist::hashMix(h, v);
    }
    for (const netlist::CellId c : f.cells) h = netlist::hashMix(h, c);
  }
  return netlist::hashHex(h);
}

/// The perturbation self-test: flips one verdict, which must fail the op.
void flipFirstVerdict(inject::CampaignResult& r) {
  if (r.records.empty()) return;
  inject::Outcome& o = r.records.front().outcome;
  o = o == inject::Outcome::NoEffect ? inject::Outcome::DangerousUndetected
                                     : inject::Outcome::NoEffect;
}

// ---- host-speed sampler -----------------------------------------------------

/// Samples how fast the harness's core runs while ops run.  On a shared host
/// other load on the same physical core comes and goes for seconds at a
/// time and slows an op by up to about 1.8x; other cores are not slowed at
/// the same moments.  A sampler thread, pinned to the harness's own core,
/// wakes every kPeriod and times a fixed L1-resident kernel (a levelized
/// network of two-input gates over 64-bit words, the shape of the library's
/// gate-level simulators).  The kernel is independent of the library, so a
/// change to the program does not move it.
class HostSampler {
 public:
  struct Window {
    double busy = 0.0;  ///< seconds the sampler took from the harness
    double mean = 0.0;  ///< mean kernel time, seconds
    std::size_t n = 0;  ///< samples taken
  };

  HostSampler() : in0_(kGates), in1_(kGates), op_(kGates), v_(kGates) {
    std::uint64_t x = 0x9E3779B97F4A7C15u;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (std::uint32_t i = 0; i < kGates; ++i) {
      v_[i] = next();
      if (i < kInputs) continue;
      in0_[i] = static_cast<std::uint32_t>(next() % i);
      in1_[i] = static_cast<std::uint32_t>(next() % i);
      op_[i] = static_cast<std::uint8_t>(next() % 4);
    }
    thread_ = std::thread([this] { loop(); });
  }
  ~HostSampler() {
    {
      const std::lock_guard<std::mutex> g(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  HostSampler(const HostSampler&) = delete;
  HostSampler& operator=(const HostSampler&) = delete;

  /// The samples that ended within [t0, t1].  A span shorter than kPeriod
  /// (an op on a faster engine) may hold none; the last sample before t1
  /// then gives the mean.
  Window window(Clock::time_point t0, Clock::time_point t1) {
    const std::lock_guard<std::mutex> g(mu_);
    Window w;
    const Sample* last = nullptr;
    for (const Sample& s : samples_) {
      if (s.end > t1) break;
      last = &s;
      if (s.end < t0) continue;
      w.busy += s.seconds;
      ++w.n;
    }
    if (w.n > 0) {
      w.mean = w.busy / static_cast<double>(w.n);
    } else if (last != nullptr) {
      w.mean = last->seconds;
    }
    return w;
  }

 private:
  struct Sample {
    Clock::time_point end;
    double seconds;
  };
  static constexpr std::uint32_t kGates = 2048;
  static constexpr std::uint32_t kInputs = 64;
  static constexpr int kPasses = 64;
  static constexpr auto kPeriod = std::chrono::milliseconds(50);

  void pass(int p) {
    v_[p % kInputs] += 0x9E3779B97F4A7C15u;
    for (std::uint32_t i = kInputs; i < kGates; ++i) {
      const std::uint64_t a = v_[in0_[i]];
      const std::uint64_t b = v_[in1_[i]];
      switch (op_[i]) {
        case 0: v_[i] = a & b; break;
        case 1: v_[i] = a | b; break;
        case 2: v_[i] = a ^ b; break;
        default: v_[i] = ~(a & b); break;
      }
    }
  }

  /// One sample: an untimed pass refills L1 (the op evicted the network),
  /// so the timed passes measure the core, not the op's cache footprint.
  double kernel() {
    pass(0);
    const auto t0 = Clock::now();
    for (int p = 1; p <= kPasses; ++p) pass(p);
    return since(t0);
  }

  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, kPeriod, [this] { return stop_; })) {
      lock.unlock();
      const double s = kernel();
      const Clock::time_point end = Clock::now();
      lock.lock();
      samples_.push_back({end, s});
    }
  }

  std::vector<std::uint32_t> in0_, in1_;
  std::vector<std::uint8_t> op_;
  std::vector<std::uint64_t> v_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::thread thread_;
};

/// Records what the sampler saw during [t0, t1] as `<prefix>host_kernel_s`
/// (mean kernel time) and `<prefix>host_busy_s` (time it took from the
/// harness) in `out`.
void addHostWindow(HostSampler& sampler, Clock::time_point t0,
                   Clock::time_point t1, const std::string& prefix, Json& out) {
  const HostSampler::Window w = sampler.window(t0, t1);
  out[prefix + "host_kernel_s"] = w.mean;
  out[prefix + "host_busy_s"] = w.busy;
}

/// Pins the calling thread, and the threads it starts later, to the core it
/// runs on now.
void pinToCurrentCore() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

// ---- tracing ----------------------------------------------------------------

/// Per-op span recorder.  Off, it only runs the wrapped calls.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  [[nodiscard]] bool on() const noexcept { return on_; }
  [[nodiscard]] Layers& layers() noexcept { return layers_; }

  /// Runs `f`, adding its wall time to layer `name` (and to `*seconds`).
  template <class F>
  auto span(const std::string& name, F&& f, double* seconds = nullptr) {
    const Scope s{*this, name, seconds};
    return f();
  }

  /// Telemetry snapshot (empty when tracing is off).
  [[nodiscard]] Json snapshot() const {
    return on_ ? obs::Registry::global().toJson() : Json::object();
  }

 private:
  struct Scope {
    Tracer& t;
    const std::string& name;
    double* seconds;
    Clock::time_point t0 = Clock::now();
    ~Scope() {
      if (!t.on_) return;
      const double s = since(t0);
      t.layers_[name] += s;
      if (seconds != nullptr) *seconds = s;
    }
  };

  bool on_;
  Layers layers_;
};

/// Difference of two telemetry snapshots.
class TelemetryDelta {
 public:
  TelemetryDelta(const Json& before, const Json& after)
      : before_(before), after_(after) {}

  [[nodiscard]] double counter(std::string_view name) const {
    return value(after_, "counters", name) - value(before_, "counters", name);
  }
  [[nodiscard]] double gauge(std::string_view name) const {
    return value(after_, "gauges", name);
  }
  [[nodiscard]] double entries(std::string_view timer) const {
    return field(after_, timer, "count") - field(before_, timer, "count");
  }
  [[nodiscard]] double wall(std::string_view timer) const {
    return field(after_, timer, "wall_s") - field(before_, timer, "wall_s");
  }
  /// Suffixes of the timers named `prefix`* that were entered.
  [[nodiscard]] std::vector<std::string> advanced(
      std::string_view prefix) const {
    std::vector<std::string> out;
    const Json* timers = after_.find("timers");
    if (timers == nullptr || !timers->isObject()) return out;
    for (const auto& [name, t] : timers->items()) {
      if (name.rfind(prefix, 0) == 0 && entries(name) > 0) {
        out.push_back(name.substr(prefix.size()));
      }
    }
    return out;
  }

 private:
  static double value(const Json& snap, const char* section,
                      std::string_view name) {
    const Json* s = snap.find(section);
    const Json* v = s != nullptr ? s->find(name) : nullptr;
    return v != nullptr && v->isNumber() ? v->asDouble() : 0.0;
  }
  static double field(const Json& snap, std::string_view timer,
                      const char* key) {
    const Json* s = snap.find("timers");
    const Json* t = s != nullptr ? s->find(timer) : nullptr;
    const Json* v = t != nullptr ? t->find(key) : nullptr;
    return v != nullptr && v->isNumber() ? v->asDouble() : 0.0;
  }

  const Json& before_;
  const Json& after_;
};

/// Attributes the campaign-engine and fault-simulator share of a span from
/// the telemetry it advanced.  A layer whose timer the resolved engine never
/// entered stays absent.  Returns the seconds attributed (the part of the
/// enclosing span these leaves cover).
double addEngineLayers(const Json& before, const Json& after, Layers& l) {
  const TelemetryDelta d(before, after);
  double covered = 0.0;
  const std::vector<std::string> engines = d.advanced("inject.campaign.");
  for (const std::string& engine : engines) {
    const double s = d.wall("inject.campaign." + engine);
    l["inject.campaign_s"] += s;
    covered += s;
  }
  if (!engines.empty()) {
    l["inject.faults"] += d.counter("inject.faults_simulated");
  }
  for (const char* t : {"inject.record_stimulus", "inject.record_golden"}) {
    if (d.entries(t) > 0) l["inject.record_s"] += d.wall(t);
  }
  if (d.entries("faultsim.serial") > 0) {
    const double s = d.wall("faultsim.serial");
    l["faultsim.serial_s"] += s;
    covered += s;
  }
  if (d.counter("inject.cell_evals") > 0) {
    l["sim.cell_evals"] += d.counter("inject.cell_evals");
  }
  if (d.entries("faultsim.bitsliced") > 0) {
    l["faultsim.bitsliced.lanes_retired_early"] +=
        d.counter("faultsim.bitsliced.lanes_retired_early");
    l["bitsliced.lane_cycles"] += d.counter("faultsim.bitsliced.lane_cycles");
    l["bitsliced.lane_capacity"] +=
        d.counter("faultsim.bitsliced.word_cycles") *
        d.gauge("faultsim.bitsliced.simd_width");
  }
  return covered;
}

/// Splits an FmeaFlow constructor span over the flow-graph stages it ran:
/// zone extraction, the fit/sheet/verdict stages, and the unstaged rest
/// (design hash, netlist compile, effects/correlation models, nominal sheet
/// build), which is booked as netlist.compile_s.
void addFlowStages(double ctorSeconds, const core::FlowGraph& g, Layers& l) {
  double zones = 0.0;
  double sheet = 0.0;
  for (const core::StageRecord& r : g.records()) {
    if (r.name == "zones") {
      zones += r.seconds;
    } else if (r.name == "fit" || r.name == "sheet" || r.name == "verdict") {
      sheet += r.seconds;
    }
  }
  l["zones.extract_s"] += zones;
  l["fmea.sheet_s"] += sheet;
  l["netlist.compile_s"] += ctorSeconds - zones - sheet;
}

/// The leaf layers: together they tile an op's wall time.
constexpr const char* kLeafLayers[] = {
    "memsys.build_s",     "netlist.compile_s",     "zones.extract_s",
    "fmea.sheet_s",       "fmea.sensitivity_s",    "inject.campaign_s",
    "faultsim.serial_s",  "core.validation.other_s", "core.srs_s",
    "core.incremental.other_s", "cpu.scenario.other_s",
};

/// Derived per-op layer figures: ratios and the trace coverage.
void finishLayers(double wall, Layers& l) {
  const auto capacity = l.find("bitsliced.lane_capacity");
  if (capacity != l.end()) {
    if (capacity->second > 0) {
      l["faultsim.bitsliced.lane_occupancy"] =
          l["bitsliced.lane_cycles"] / capacity->second;
    }
    l.erase("bitsliced.lane_cycles");
    l.erase("bitsliced.lane_capacity");
  }
  const auto campaign = l.find("inject.campaign_s");
  if (campaign != l.end() && campaign->second > 0) {
    l["inject.campaign_faults_per_s"] = l["inject.faults"] / campaign->second;
  }
  double covered = 0.0;
  for (const char* leaf : kLeafLayers) {
    if (const auto it = l.find(leaf); it != l.end()) covered += it->second;
  }
  l["trace.coverage"] = wall > 0 ? covered / wall : 0.0;
}

// ---- ops --------------------------------------------------------------------

struct OpResult {
  Clock::time_point start;  ///< the timed span
  Clock::time_point end;
  double wall = 0.0;        ///< its length, seconds
  std::size_t verdicts = 0; ///< fault verdicts delivered (reused ones count)
  Json doc;                 ///< verdict document (digested)
  bool invariantsOk = true; ///< seed-independent checks of this workload
};

struct Context {
  std::string workload;
  Seeds seeds;
  fs::path work;  ///< scratch directory of this run
  fs::path primed;
  fs::path store;
};

constexpr std::uint64_t kMemsysCycles = 2000;

memsys::ProtectionIpWorkload::Options memsysWorkload(const Seeds& seeds) {
  memsys::ProtectionIpWorkload::Options w;
  w.cycles = kMemsysCycles;
  w.seed = seeds.stimulus;
  return w;
}

/// One bare `memsys_sil3_flow`.
OpResult sil3ReportOp(const Context& cx, Tracer& tr, bool perturb) {
  OpResult op;
  const auto t0 = Clock::now();
  const auto build = [&](const memsys::GateLevelOptions& o) {
    return tr.span("memsys.build_s",
                   [&] { return memsys::buildProtectionIp(o); });
  };
  double ctorV1 = 0.0;
  double ctorV2 = 0.0;
  const memsys::GateLevelDesign v1 = build(memsys::GateLevelOptions::v1());
  const core::FmeaFlow flowV1 = tr.span(
      "core.flow_s",
      [&] { return core::FmeaFlow(v1.nl, core::makeFrmemFlowConfig(v1)); },
      &ctorV1);
  const memsys::GateLevelDesign v2 = build(memsys::GateLevelOptions::v2());
  const core::FmeaFlow flowV2 = tr.span(
      "core.flow_s",
      [&] { return core::FmeaFlow(v2.nl, core::makeFrmemFlowConfig(v2)); },
      &ctorV2);
  const fmea::SensitivityResult sens =
      tr.span("fmea.sensitivity_s", [&] { return flowV2.sensitivity(); });

  memsys::ProtectionIpWorkload workload = tr.span("memsys.build_s", [&] {
    return memsys::ProtectionIpWorkload(v2, memsysWorkload(cx.seeds));
  });
  core::ValidationOptions vopt;
  vopt.zoneFailuresPerBit = 1;
  vopt.seed = cx.seeds.validation;
  const Json before = tr.snapshot();
  double validation = 0.0;
  core::ValidationFlowReport rep = tr.span(
      "core.validation_s",
      [&] { return core::runValidationFlow(flowV2, workload, vopt); },
      &validation);
  const Json after = tr.snapshot();

  core::SrsOptions sopt;
  sopt.author = "memsys_sil3_flow example";
  const std::string srs = tr.span(
      "core.srs_s", [&] { return core::srsToString(flowV2, sopt, &rep); });
  op.start = t0;
  op.end = Clock::now();
  op.wall = std::chrono::duration<double>(op.end - t0).count();

  if (tr.on()) {
    Layers& l = tr.layers();
    addFlowStages(ctorV1, flowV1.graph(), l);
    addFlowStages(ctorV2, flowV2.graph(), l);
    l["core.validation.other_s"] +=
        validation - addEngineLayers(before, after, l);
  }
  if (perturb) flipFirstVerdict(rep.zoneCampaign);

  // The document `memsys_sil3_flow --json` writes, plus record digests.
  const bool sil3 = flowV2.sil() >= fmea::Sil::Sil3;
  Json report = Json::object();
  report["schema"] = "socfmea.flow_report/1";
  Json v1v = Json::object();
  v1v["sff"] = flowV1.sff();
  v1v["dc"] = flowV1.dc();
  v1v["sil"] = static_cast<int>(flowV1.sil());
  v1v["sil_name"] = fmea::silName(flowV1.sil());
  v1v["line"] = core::verdictLine(flowV1);
  report["v1_verdict"] = std::move(v1v);
  report["flow"] = core::flowReportJson(flowV2);
  report["validation"] = rep.toJson();
  report["sil3_pass"] = sil3;
  op.doc = Json::object();
  op.doc["report"] = std::move(report);
  Json records = Json::object();
  records["step_a"] = recordsDigest(rep.zoneCampaign);
  records["step_c"] = recordsDigest(rep.localCampaign);
  records["step_d"] = recordsDigest(rep.wideCampaign);
  op.doc["records"] = std::move(records);
  op.doc["sensitivity_scenarios"] = sens.scenarios.size();
  op.doc["srs_digest"] = netlist::hashHex(netlist::hashString(srs));

  // Campaign verdicts plus one fault-simulator verdict per stuck-at fault of
  // step (c), which is the list runValidationFlow fault-simulates.
  std::size_t stuck = 0;
  for (const inject::InjectionRecord& r : rep.localCampaign.records) {
    if (r.fault.kind == fault::FaultKind::StuckAt0 ||
        r.fault.kind == fault::FaultKind::StuckAt1) {
      ++stuck;
    }
  }
  op.verdicts = rep.zoneCampaign.records.size() +
                rep.localCampaign.records.size() +
                rep.wideCampaign.records.size() + stuck;
  op.invariantsOk = sil3;
  return op;
}

/// One `memsys_sil3_flow --cache-dir <dir>` evaluation; the members keep
/// what the campaign result refers to alive until the document is built.
struct Evaluation {
  std::unique_ptr<memsys::GateLevelDesign> design;
  std::unique_ptr<core::ArtifactStore> store;
  std::unique_ptr<core::IncrementalFlow> inc;
  core::IncrementalCampaign camp;
};

Evaluation evaluate(const memsys::GateLevelOptions& gopt, const fs::path& dir,
                    const Seeds& seeds, Tracer& tr, const std::string& layer) {
  Evaluation e;
  e.design = tr.span("memsys.build_s", [&] {
    return std::make_unique<memsys::GateLevelDesign>(
        memsys::buildProtectionIp(gopt));
  });
  e.store = tr.span("core.incremental.other_s", [&] {
    if (const auto why = core::ArtifactStore::validateDir(dir)) {
      throw std::runtime_error("store: " + *why);
    }
    return std::make_unique<core::ArtifactStore>(dir);
  });
  const memsys::ProtectionIpWorkload::Options wopt = memsysWorkload(seeds);
  core::IncrementalOptions iopt;
  iopt.store = e.store.get();
  iopt.workloadTag = netlist::hashMix(
      netlist::hashString("protection-ip-workload"),
      netlist::hashMix(wopt.cycles, wopt.seed));
  iopt.memFaultsPerKind = 48;
  iopt.memFaultSeed = seeds.memFaults;
  double ctor = 0.0;
  e.inc = tr.span(
      "core.flow_s",
      [&] {
        return std::make_unique<core::IncrementalFlow>(
            e.design->nl, core::makeFrmemFlowConfig(*e.design), iopt);
      },
      &ctor);
  memsys::ProtectionIpWorkload workload = tr.span("memsys.build_s", [&] {
    return memsys::ProtectionIpWorkload(*e.design, wopt);
  });
  const Json before = tr.snapshot();
  double call = 0.0;
  e.camp = tr.span(
      layer,
      [&] {
        return e.inc->runZoneFailureCampaign(workload, /*perBit=*/1,
                                             seeds.campaign,
                                             /*detectionWindow=*/24);
      },
      &call);
  if (tr.on()) {
    Layers& l = tr.layers();
    l["core.incremental.other_s"] +=
        call - addEngineLayers(before, tr.snapshot(), l);
    addFlowStages(ctor, e.inc->flow().graph(), l);
  }
  return e;
}

memsys::GateLevelOptions wbufParityEdit() {
  memsys::GateLevelOptions o = memsys::GateLevelOptions::v1();
  o.wbufParity = true;
  return o;
}

/// The stripped `--json` report of one evaluation plus its record digest.
Json evaluationDoc(const Evaluation& e) {
  Json j = stripVolatile(e.inc->report());
  j["records"] = recordsDigest(e.camp.result);
  return j;
}

/// Set-up of edit_iteration: the cold v1 baseline run that primes the store.
void primeStore(const Context& cx) {
  fs::remove_all(cx.primed);
  fs::create_directories(cx.primed);
  Tracer off(false);
  const Evaluation e = evaluate(memsys::GateLevelOptions::v1(), cx.primed,
                                cx.seeds, off, "core.incremental.cold_s");
  if (e.camp.fullHit || e.camp.deltaRun) {
    throw std::runtime_error("priming did not run the baseline cold");
  }
}

/// One designer iteration: the wbuf-parity edit evaluated twice against the
/// primed store (the store is restored before the timed span).
OpResult editIterationOp(const Context& cx, Tracer& tr, bool perturb) {
  fs::remove_all(cx.store);
  fs::copy(cx.primed, cx.store, fs::copy_options::recursive);

  OpResult op;
  const auto t0 = Clock::now();
  Evaluation delta = evaluate(wbufParityEdit(), cx.store, cx.seeds, tr,
                              "core.incremental.delta_s");
  const Evaluation hit = evaluate(wbufParityEdit(), cx.store, cx.seeds, tr,
                                  "core.incremental.hit_s");
  op.start = t0;
  op.end = Clock::now();
  op.wall = std::chrono::duration<double>(op.end - t0).count();

  const inject::DeltaStats& ds = delta.camp.delta;
  if (tr.on()) {
    Layers& l = tr.layers();
    l["core.incremental.resim_fraction"] =
        ds.total == 0 ? 0.0
                      : static_cast<double>(ds.simulated) /
                            static_cast<double>(ds.total);
    l["core.incremental.revalidated"] = static_cast<double>(ds.revalidated);
    for (const core::ArtifactStore* store :
         {delta.store.get(), hit.store.get()}) {
      const core::ArtifactStore::Stats& st = store->stats();
      l["core.store.hits"] += static_cast<double>(st.memoryHits + st.diskHits);
      l["core.store.misses"] += static_cast<double>(st.misses);
      l["core.store.stores"] += static_cast<double>(st.stores);
    }
  }
  if (perturb) flipFirstVerdict(delta.camp.result);

  op.doc = Json::object();
  op.doc["delta"] = evaluationDoc(delta);
  op.doc["hit"] = evaluationDoc(hit);
  op.verdicts = ds.total + hit.camp.delta.total;
  op.invariantsOk = delta.camp.deltaRun && hit.camp.fullHit &&
                    ds.mismatches == 0 &&
                    recordsDigest(delta.camp.result) ==
                        recordsDigest(hit.camp.result);
  return op;
}

/// One bare `cpu_mitigation_flow`: every registry scenario, default options.
OpResult cpuScenariosOp(const Context& cx, Tracer& tr, bool perturb) {
  const std::vector<sc::Scenario>& registry = sc::all();
  sc::RunOptions ro;
  ro.seed = cx.seeds.cpu;
  std::vector<sc::ScenarioResult> results;
  results.reserve(registry.size());

  OpResult op;
  const auto t0 = Clock::now();
  for (const sc::Scenario& s : registry) {
    const Json before = tr.snapshot();
    double seconds = 0.0;
    results.push_back(tr.span("cpu.scenario." + s.name + "_s",
                              [&] { return sc::runScenario(s, ro); },
                              &seconds));
    if (tr.on()) {
      Layers& l = tr.layers();
      l["cpu.scenario_s"] += seconds;
      l["cpu.scenario.other_s"] +=
          seconds - addEngineLayers(before, tr.snapshot(), l);
    }
  }
  op.start = t0;
  op.end = Clock::now();
  op.wall = std::chrono::duration<double>(op.end - t0).count();
  if (perturb) flipFirstVerdict(results.front().campaign.merged);

  // The "scenarios" section `cpu_mitigation_flow --json` writes.
  Json scenarios = Json::array();
  Json records = Json::object();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const sc::Scenario& s = registry[i];
    const sc::ScenarioResult& r = results[i];
    Json j = r.toJson();
    j["mitigation"] = std::string(cpu::swMitigationName(s.mitigation));
    j["verdict_ok"] = sc::verdictOk(s, r, results.front());
    j["min_sff_gain"] = s.minSffGain;
    scenarios.push_back(std::move(j));
    records[s.name] = recordsDigest(r.campaign.merged);
    op.verdicts += r.campaign.merged.records.size();
    op.invariantsOk =
        op.invariantsOk && r.campaign.merged.records.size() == r.faults;
  }
  op.doc = Json::object();
  op.doc["scenarios"] = std::move(scenarios);
  op.doc["records"] = std::move(records);
  return op;
}

OpResult runOp(const Context& cx, Tracer& tr, bool perturb) {
  if (cx.workload == "sil3_report") return sil3ReportOp(cx, tr, perturb);
  if (cx.workload == "edit_iteration") return editIterationOp(cx, tr, perturb);
  return cpuScenariosOp(cx, tr, perturb);
}

// ---- run --------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  fs::path work;
  bool setupOnly = false;
  std::string emitPath;
  bool perturb = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fmea_bench: " << why
            << "\nusage: fmea_bench --workload sil3_report|edit_iteration|"
               "cpu_scenarios --seed <n> --seconds <s> --trace 0|1\n"
               "                  --work <dir> [--setup-only] [--emit <path>]"
               " [--perturb]\n";
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      a.trace = value() != "0";
    } else if (arg == "--work") {
      a.work = value();
    } else if (arg == "--setup-only") {
      a.setupOnly = true;
    } else if (arg == "--emit") {
      a.emitPath = value();
    } else if (arg == "--perturb") {
      a.perturb = true;
    } else {
      usage("unknown argument '" + arg + "'");
    }
  }
  if (a.workload != "sil3_report" && a.workload != "edit_iteration" &&
      a.workload != "cpu_scenarios") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (a.work.empty()) usage("--work is required");
  return a;
}

double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

Json manifest(const Args& a, const Context& cx, const OpResult& warm,
              const Json& before, const Json& after) {
  const TelemetryDelta d(before, after);
  Json m = Json::object();
  m["workload"] = a.workload;
  m["seed"] = a.seed;
  m["seeds"] = cx.seeds.toJson();
  m["nproc"] = std::thread::hardware_concurrency();
  m["simd_target"] = faultsim::simdTargetName();
  m["lane_words"] = faultsim::resolveLaneWords(0);
  m["build_type"] = PERFBENCH_BUILD_TYPE;
  m["engine_requested"] = "auto";
  m["threads"] = 1;
  m["tier"] = "exact";
  Json cycles = Json::array();
  if (a.workload == "cpu_scenarios") {
    for (const sc::Scenario& s : sc::all()) cycles.push_back(s.cycles);
  } else {
    cycles.push_back(kMemsysCycles);
  }
  m["workload_cycles"] = std::move(cycles);
  m["faults_per_op"] = warm.verdicts;
  // The engine each campaign and fault simulation resolved to, read off the
  // bare "<prefix><engine>" timers that advanced (phase timers such as
  // faultsim.record_golden carry an underscore).
  Json engines = Json::object();
  for (const char* prefix : {"inject.campaign.", "faultsim."}) {
    Json names = Json::array();
    for (const std::string& n : d.advanced(prefix)) {
      if (n.find_first_of("._") == std::string::npos) names.push_back(n);
    }
    engines[std::string(prefix, std::strlen(prefix) - 1)] = std::move(names);
  }
  m["engines_resolved"] = std::move(engines);
  return m;
}

std::string digestOf(const Json& doc) {
  return netlist::hashHex(netlist::hashString(stripVolatile(doc).dump()));
}

int run(const Args& a) {
  Context cx;
  cx.workload = a.workload;
  cx.seeds = seedsFor(a.seed);
  cx.work = a.work;
  cx.primed = a.work / "primed";
  cx.store = a.work / "store";
  fs::create_directories(cx.work);

  Json out = Json::object();
  Json setupLayers = Json::object();

  pinToCurrentCore();
  HostSampler sampler;

  // ---- set-up: preparation + warm-up op ----
  const auto s0 = Clock::now();
  if (a.workload == "edit_iteration") {
    const auto p0 = Clock::now();
    primeStore(cx);
    setupLayers["core.store.prime_s"] = since(p0);
  } else if (a.workload == "cpu_scenarios") {
    const auto r0 = Clock::now();
    (void)sc::all();
    setupLayers["cpu.registry_s"] = since(r0);
  }
  Tracer untraced(false);
  const Json telemetry0 = obs::Registry::global().toJson();
  const OpResult warm = runOp(cx, untraced, false);
  const Json telemetry1 = obs::Registry::global().toJson();
  const auto s1 = Clock::now();
  const double setupSeconds = std::chrono::duration<double>(s1 - s0).count();
  std::cerr << "fmea_bench: " << a.workload << " seed " << a.seed
            << ": set-up " << setupSeconds << " s (warm-up op " << warm.wall
            << " s, " << warm.verdicts << " verdicts)\n";

  if (!a.emitPath.empty()) {
    std::ofstream f(a.emitPath);
    f << stripVolatile(warm.doc).dump(2) << "\n";
    if (!f) throw std::runtime_error("cannot write " + a.emitPath);
  }

  if (!warm.invariantsOk) {
    std::cerr << "fmea_bench: the warm-up op failed its invariants\n";
  }
  const std::string reference = digestOf(warm.doc);

  out["manifest"] = manifest(a, cx, warm, telemetry0, telemetry1);
  out["setup_s"] = setupSeconds;
  addHostWindow(sampler, s0, s1, "setup_", out);
  out["setup_layers"] = std::move(setupLayers);
  out["warmup_ok"] = warm.invariantsOk;

  // ---- timed ops: closed loop, one at a time ----
  Json ops = Json::array();
  if (!a.setupOnly) {
    const auto m0 = Clock::now();
    std::size_t traced = 0;
    std::size_t untracedOps = 0;
    for (std::size_t i = 0;; ++i) {
      const bool enough = since(m0) >= a.seconds && untracedOps > 0 &&
                          (!a.trace || traced > 0);
      if (enough) break;
      // Traced runs alternate traced and untraced ops (the overhead base).
      Tracer tr(a.trace && i % 2 == 0);
      bool ok = false;
      Json op = Json::object();
      try {
        OpResult r = runOp(cx, tr, a.perturb && i == 0);
        ok = warm.invariantsOk && r.invariantsOk &&
             digestOf(r.doc) == reference;
        op["wall_s"] = r.wall;
        addHostWindow(sampler, r.start, r.end, "", op);
        op["verdicts"] = r.verdicts;
        if (tr.on()) {
          finishLayers(r.wall, tr.layers());
          Json layers = Json::object();
          for (const auto& [k, v] : tr.layers()) layers[k] = v;
          op["layers"] = std::move(layers);
        }
      } catch (const std::exception& e) {
        std::cerr << "fmea_bench: op " << i << " threw: " << e.what() << "\n";
      }
      op["traced"] = tr.on();
      op["ok"] = ok;
      if (!ok) {
        std::cerr << "fmea_bench: op " << i << " FAILED its verdict check\n";
      }
      (tr.on() ? traced : untracedOps) += 1;
      ops.push_back(std::move(op));
    }
  }
  out["ops"] = std::move(ops);
  out["peak_rss_mb"] = peakRssMb();
  std::cout << out.dump() << std::endl;
  fs::remove_all(cx.work);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parseArgs(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "fmea_bench: " << e.what() << "\n";
    return 1;
  }
}
