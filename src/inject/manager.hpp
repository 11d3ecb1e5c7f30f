// Fault Injection Manager (paper, Figure 4): "this function runs all the
// injection campaign based on automatically generated fault lists and
// collects all the results."  A workload is its stimulus trace
// (faultsim::StimulusTrace, written when the workload is built); a flow
// records its golden run once (faultsim::GoldenRun) and hands that to every
// campaign it runs, and the faulty machines replay the trace (inputs plus
// backdoor flips).  The SENS, OBSE and DIAG monitors are one
// faultsim::Watch over the target zones, the observation points and the
// alarms; runWatch runs it on either engine, and one mapping turns its
// observations into classified injection records.
#pragma once

#include <array>
#include <iosfwd>
#include <optional>

#include "fault/fault.hpp"
#include "faultsim/golden_run.hpp"
#include "faultsim/serial.hpp"
#include "inject/coverage.hpp"
#include "netlist/compiled.hpp"
#include "obs/json.hpp"

namespace socfmea::inject {

/// Outcome of one injection in IEC terms.
enum class Outcome : std::uint8_t {
  NoEffect,            ///< nothing deviated anywhere (fault not activated)
  SafeMasked,          ///< the zone deviated but no functional output did
  SafeDetected,        ///< no functional deviation, but the diagnostic fired
  DangerousDetected,   ///< functional deviation, alarm within the window
  DangerousUndetected, ///< functional deviation, no (timely) alarm
};

[[nodiscard]] std::string_view outcomeName(Outcome o) noexcept;

struct InjectionRecord {
  fault::Fault fault;
  zones::ZoneId zone = zones::kNoZone;  ///< primary target zone
  Outcome outcome = Outcome::NoEffect;
  InjectionObservation obs;
};

/// All outcome counts plus the latency aggregates, computed in ONE pass over
/// the records (CampaignResult::tally).  printCampaign and the measured
/// metrics reuse a single tally instead of rescanning the record vector per
/// outcome.
struct OutcomeTally {
  std::array<std::size_t, 5> counts{};  ///< indexed by Outcome
  std::size_t total = 0;                ///< records.size()
  std::size_t diagFired = 0;            ///< records whose diagnostic fired
  std::uint64_t latencySum = 0;         ///< summed detection latency
  std::uint64_t latencyMax = 0;

  [[nodiscard]] std::size_t count(Outcome o) const noexcept {
    return counts[static_cast<std::size_t>(o)];
  }
  /// Records whose fault was activated (everything but NoEffect).
  [[nodiscard]] std::size_t activated() const noexcept {
    return total - count(Outcome::NoEffect);
  }

  /// Structured export of every count (plus the latency aggregates).
  [[nodiscard]] obs::Json toJson() const;
};

struct CampaignResult {
  std::vector<InjectionRecord> records;
  /// Machine-cycles simulated: the serial oracle's cycles summed over its
  /// machines, the bit-sliced engine's live-lane cycles.
  std::uint64_t cyclesSimulated = 0;
  /// Transient faults dropped before the workload's end because the faulty
  /// lane's divergence washed out (e.g. corrected by ECC) — the rest of the
  /// run is provably identical to the golden run, so the verdict is final.
  /// Filled by the bit-sliced engine; always 0 under the serial oracle.
  std::uint64_t convergedEarly = 0;

  /// Single-pass aggregation of every outcome count and latency statistic.
  [[nodiscard]] OutcomeTally tally() const;

  [[nodiscard]] std::size_t count(Outcome o) const;
  /// Detection latency of one record: cycles from the first observable
  /// deviation (functional or zone) to the alarm; 0 when the alarm led.
  [[nodiscard]] static std::uint64_t detectionLatency(
      const InjectionRecord& r);
  /// Mean / max detection latency over the detected records — the input to
  /// the process-safety-time argument (the diagnostic must annunciate well
  /// inside the time the system can tolerate the fault).
  [[nodiscard]] double meanDetectionLatency() const;
  [[nodiscard]] std::uint64_t maxDetectionLatency() const;
  /// Measured safe fraction over activated faults (NoEffect excluded — an
  /// unactivated fault says nothing about the architecture).
  [[nodiscard]] double measuredSafeFraction() const;
  /// Measured DDF = DD / (DD + DU).
  [[nodiscard]] double measuredDdf() const;
  /// Experimental SFF analogue: (safe + DD) / activated.
  [[nodiscard]] double measuredSff() const;

  // Tally-based forms of the metrics above: compute tally() once and derive
  // every figure from it without rescanning the records.
  [[nodiscard]] static double meanDetectionLatency(const OutcomeTally& t);
  [[nodiscard]] static double measuredSafeFraction(const OutcomeTally& t);
  [[nodiscard]] static double measuredDdf(const OutcomeTally& t);
  [[nodiscard]] static double measuredSff(const OutcomeTally& t);

  /// Structured export in two sections:
  ///   "metrics"   — outcome tally and every measured IEC figure; identical
  ///                 between the serial oracle and the bit-sliced engine for
  ///                 the same fault list (that identity is CI-tested);
  ///   "execution" — cycles simulated and the convergence counter, which
  ///                 legitimately depend on the engine and are therefore
  ///                 excluded from golden diffs.
  /// With a zone database a third section appears:
  ///   "criticality" — per-zone outcome counts and each zone's share of the
  ///                 campaign's dangerous-undetected total, descending (the
  ///                 measured input to the architecture search's ranking).
  [[nodiscard]] obs::Json toJson(
      const zones::ZoneDatabase* db = nullptr) const;
};

struct CampaignOptions {
  /// Stop a faulty machine once its classification can no longer change.
  bool earlyAbort = true;
  /// Dual-point analysis: a *latent* fault installed in every faulty
  /// machine before the campaign fault (but absent from the golden
  /// reference).  Measures how the architecture degrades when a first fault
  /// has already defeated part of the diagnostics — the reason the norm
  /// demands latent-fault tests at HFT 0.  Both engines support it: its
  /// flips and SET pulse fire in every machine ahead of the campaign
  /// fault's, in install order.
  std::optional<fault::Fault> preexisting;
  /// Campaign engine.  Auto runs the bit-sliced engine at every thread
  /// count, unless X survives reset, when it falls back to the serial
  /// oracle (InjectionManager::runWatch decides); Serial is the reference
  /// oracle; Bitsliced packs 64 faulty machines into the lanes of one 64-bit
  /// word per net (faultsim/bitsliced.hpp) and composes with threads (the
  /// workers share the word groups out).  An explicit
  /// Bitsliced throws std::invalid_argument when X survives reset.  Records
  /// and every IEC metric are bit-identical across engines; only the
  /// "execution" counters differ.  `engine` and `threads` are deliberately
  /// excluded from the incremental flow's campaign-options hash
  /// (core/incremental.cpp) — switching engines must not invalidate cached
  /// campaign records, precisely because the records are identical.
  faultsim::EngineKind engine = faultsim::EngineKind::Auto;
  /// Campaign parallelism: 0 = hardware concurrency, N = N threads.  The
  /// bit-sliced engine spreads its word groups over this many threads; the
  /// serial oracle ignores it.  Records and every IEC metric are
  /// bit-identical regardless of the value; only the "execution" counters
  /// move, because workers race for word groups and refills.
  unsigned threads = 1;
};

/// One InjectionManager::runWatch: an observation per fault plus the
/// engine's execution counters (CampaignResult's "execution" section).
struct WatchRun {
  std::vector<faultsim::Observation> observations;  ///< parallel to faults
  std::uint64_t cyclesSimulated = 0;
  std::uint64_t convergedEarly = 0;
};

class InjectionManager {
 public:
  /// Binds the campaign to the design of the environment's ZoneDatabase
  /// (env.zones must be set, as EnvironmentBuilder does): every machine the
  /// campaigns create shares its compiled design (one flattening per flow).
  explicit InjectionManager(InjectionEnvironment env);

  [[nodiscard]] const InjectionEnvironment& environment() const noexcept {
    return env_;
  }

  /// Runs the campaign over `golden`, a golden run of this design's
  /// compiled form; `coverage`, when non-null, accumulates the completeness
  /// counters once per list position.  Repeated faults are
  /// folded: each distinct fault is simulated once and its record copied to
  /// every position that holds it.  The distinct faults run once through
  /// runWatch over watch(), on top of opt.preexisting, with the Classify
  /// stop rule under opt.earlyAbort (else WashoutOnly).  Records are in
  /// fault-list order and bit-identical across engines and thread counts.
  [[nodiscard]] CampaignResult run(const faultsim::GoldenRun& golden,
                                   const fault::FaultList& faults,
                                   CoverageCollector* coverage = nullptr,
                                   const CampaignOptions& opt = {});

  /// The environment's SENS, OBSE and DIAG monitors as one watch: each
  /// target zone's value nets a group, the observation nets the points,
  /// the alarm nets the asserted nets.
  [[nodiscard]] faultsim::Watch watch() const;

  /// The one switch between the engines, for the campaigns above and for
  /// fault simulation on the same design (validation step (c)).  Runs every
  /// fault over the golden run's stimulus trace against `watch` on the
  /// engine opt.engine resolves to, each machine on top of `latent` when it
  /// is set and stopped under `retire`: the serial oracle
  /// (faultsim::runSerialWatch against a golden trace it records from the
  /// same stimulus) or the bit-sliced engine (faultsim::runBitslicedWatch
  /// over `golden` at opt.threads).  Serial and Bitsliced stand as
  /// requested; Auto is the bit-sliced engine when the golden machine was
  /// two-state after reset (GoldenRun::isTwoState), and otherwise the serial
  /// oracle, counted in the inject.auto_serial_fallbacks telemetry counter.
  /// Only opt.engine and opt.threads are read.  Throws
  /// std::invalid_argument when `golden` was recorded on another compiled
  /// design than this manager's.
  [[nodiscard]] WatchRun runWatch(const faultsim::GoldenRun& golden,
                                  const fault::FaultList& faults,
                                  const faultsim::Watch& watch,
                                  const std::optional<fault::Fault>& latent,
                                  faultsim::RetireMode retire,
                                  const CampaignOptions& opt);

  /// The paper's validation step (a): "exhaustive fault injection of
  /// sensible zone failures" — for every target zone, SEU faults on each of
  /// its flip-flops (or soft errors for memory zones) at up to `perBit`
  /// profile-sampled live cycles.
  [[nodiscard]] fault::FaultList zoneFailureFaults(
      const OperationalProfile& profile, std::size_t perBit,
      std::uint64_t seed) const;

 private:
  /// One campaign over a list of distinct faults: runs watch() through
  /// runWatch and maps the observations to InjectionRecords.
  [[nodiscard]] CampaignResult runDistinct(
      const faultsim::GoldenRun& golden, const fault::FaultList& faults,
      const CampaignOptions& opt);

  /// Exports compiled-design shape and evaluation-economy telemetry into
  /// the global registry after a campaign.
  void exportEvalTelemetry(const sim::Simulator::PerfCounters& perf) const;

  InjectionEnvironment env_;
  netlist::CompiledDesignPtr cd_;
};

void printCampaign(std::ostream& out, const CampaignResult& r);

}  // namespace socfmea::inject
