#include "tools/cli_common.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace socfmea::cli {

namespace {

/// Fetches the value of a "--flag <value>" pair, or fails with a message.
const char* flagValue(int argc, char* const* argv, int& i,
                      std::string& error) {
  if (i + 1 >= argc) {
    error = std::string(argv[i]) + " needs a value";
    return nullptr;
  }
  return argv[++i];
}

}  // namespace

FlagStatus parseCommonFlag(int argc, char* const* argv, int& i,
                           CommonFlags& out, std::string& error) {
  const char* arg = argv[i];
  if (std::strcmp(arg, "--json") == 0) {
    const char* v = flagValue(argc, argv, i, error);
    if (v == nullptr) return FlagStatus::Error;
    out.jsonPath = v;
    return FlagStatus::Consumed;
  }
  if (std::strcmp(arg, "--cache-dir") == 0) {
    const char* v = flagValue(argc, argv, i, error);
    if (v == nullptr) return FlagStatus::Error;
    out.cacheDir = v;
    return FlagStatus::Consumed;
  }
  if (std::strcmp(arg, "--threads") == 0) {
    const char* v = flagValue(argc, argv, i, error);
    if (v == nullptr) return FlagStatus::Error;
    if (!parseThreadCount(v, out.threads)) {
      error = std::string("--threads: '") + v +
              "' is not a thread count from 0 to " +
              std::to_string(kMaxThreads);
      return FlagStatus::Error;
    }
    return FlagStatus::Consumed;
  }
  if (std::strcmp(arg, "--engine") == 0) {
    const char* v = flagValue(argc, argv, i, error);
    if (v == nullptr) return FlagStatus::Error;
    const auto k = faultsim::engineKindFromName(v);
    if (!k) {
      error = std::string("--engine: unknown engine '") + v +
              "' (serial | bitsliced | auto)";
      return FlagStatus::Error;
    }
    out.engine = *k;
    return FlagStatus::Consumed;
  }
  return FlagStatus::NotMine;
}

const std::string& commonUsageSynopsis() {
  static const std::string s =
      "[--json <path>] [--cache-dir <dir>] [--threads N] [--engine <kind>]";
  return s;
}

const std::string& commonUsageDetails() {
  static const std::string s =
      "  --json       machine-readable report path\n"
      "  --cache-dir  artifact store for the flow graph / delta campaign\n"
      "  --threads    campaign threads (default 1, 0 = all cores, at most"
      " 1024)\n"
      "  --engine     campaign engine: serial | bitsliced | auto (default;"
      " bit-sliced,\n"
      "               or the serial oracle when X survives reset)\n";
  return s;
}

std::optional<std::unique_ptr<core::ArtifactStore>> openStore(
    const CommonFlags& flags, std::string& error) {
  if (flags.cacheDir == nullptr) {
    return std::unique_ptr<core::ArtifactStore>();
  }
  if (const auto reason = core::ArtifactStore::validateDir(flags.cacheDir)) {
    error = std::string("--cache-dir: ") + *reason;
    return std::nullopt;
  }
  return std::make_unique<core::ArtifactStore>(flags.cacheDir);
}

bool parseUnsigned(const char* s, std::uint64_t& out) {
  // Strict whole-string: strtoull's leading-whitespace / sign laxity is
  // rejected up front.
  if (s == nullptr || s[0] < '0' || s[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

bool parseUnsigned(const char* s, unsigned& out) {
  std::uint64_t v = 0;
  if (!parseUnsigned(s, v) || v > std::numeric_limits<unsigned>::max()) {
    return false;
  }
  out = static_cast<unsigned>(v);
  return true;
}

bool parseThreadCount(const char* s, unsigned& out) {
  unsigned v = 0;
  if (!parseUnsigned(s, v) || v > kMaxThreads) return false;
  out = v;
  return true;
}

bool parseFraction(const char* s, double& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) || v < 0.0) return false;
  out = v;
  return true;
}

}  // namespace socfmea::cli
