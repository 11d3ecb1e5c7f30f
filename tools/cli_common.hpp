// Shared CLI surface of the campaign tools.  memsys_sil3_flow,
// injection_campaign and arch_search share the same iteration flags
// (--json / --cache-dir / --threads / --engine) with the same
// exit-2 usage convention; this is the one spelling of that parsing.  The
// strict value parsers serve every tool's own numeric flags too.
//
// The functions are pure (no printing, no exit()) so the unit tests can
// drive them with synthetic argv arrays: a parse error comes back as a
// message for the caller to print before returning 2.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/artifact_store.hpp"
#include "faultsim/serial.hpp"

namespace socfmea::cli {

/// The iteration flags every campaign CLI shares.
struct CommonFlags {
  const char* jsonPath = nullptr;  ///< --json <path>
  const char* cacheDir = nullptr;  ///< --cache-dir <dir>
  /// --threads N: in-process campaign parallelism, copied into
  /// inject::CampaignOptions::threads (1 = one thread, 0 = hardware
  /// concurrency).
  unsigned threads = 1;
  faultsim::EngineKind engine = faultsim::EngineKind::Auto;
};

enum class FlagStatus {
  Consumed,  ///< argv[i] (and its value) belonged to the shared surface
  NotMine,   ///< not a shared flag: the caller's own parsing takes over
  Error,     ///< shared flag with a bad / missing value; see `error`
};

/// Tries to parse argv[i] as one of the shared flags, advancing `i` past
/// any consumed value.  On Error, `error` carries the diagnostic (print it
/// and return 2).
[[nodiscard]] FlagStatus parseCommonFlag(int argc, char* const* argv, int& i,
                                         CommonFlags& out,
                                         std::string& error);

/// Usage text for the shared flags: "[--json <path>] ..." on one line, then
/// one indented description line per flag.  Callers append their own flags.
[[nodiscard]] const std::string& commonUsageSynopsis();
[[nodiscard]] const std::string& commonUsageDetails();

/// Opens the artifact store behind --cache-dir (validateDir + construct).
/// Holds nullptr when the flag was absent; std::nullopt (with `error` set)
/// when the directory is unusable.
[[nodiscard]] std::optional<std::unique_ptr<core::ArtifactStore>> openStore(
    const CommonFlags& flags, std::string& error);

/// Largest --threads value any tool accepts: far above any host's core
/// count, and small enough that core::ThreadPool never asks the OS for an
/// absurd number of threads.
inline constexpr unsigned kMaxThreads = 1024;

/// The one --threads value parser (the shared flags, cpu_mitigation_flow,
/// fuzz_diff): a strict base-10 count in [0, kMaxThreads], 0 = all cores.
/// A failed parse leaves `out` untouched.
[[nodiscard]] bool parseThreadCount(const char* s, unsigned& out);

/// Strict unsigned / non-negative-fraction value parsers (whole-string,
/// base 10) shared by the tools' own flags (--max-resim, --seed, ...).  A
/// fraction must be finite: nan, inf and overflowing literals are rejected.
/// A failed parse leaves `out` untouched.
[[nodiscard]] bool parseUnsigned(const char* s, unsigned& out);
[[nodiscard]] bool parseUnsigned(const char* s, std::uint64_t& out);
[[nodiscard]] bool parseFraction(const char* s, double& out);

}  // namespace socfmea::cli
