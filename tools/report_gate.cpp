// report_gate: the CI metrics gate over machine-readable safety reports.
//
//   report_gate check <golden.json> <actual.json> [rtol]
//     Treats the golden document as a subset specification: every key the
//     golden contains must exist in the actual report and match.  Strings,
//     booleans and nulls compare exactly (the SIL verdict must not drift at
//     all); numbers compare with a relative tolerance (default 1e-9, an
//     ulp-level allowance for compiler differences, nowhere near the size
//     of a real metrics regression).  Keys only present in the actual
//     report are ignored, so adding new telemetry never breaks the gate.
//     Exit 0 when everything matches, 1 with one line per mismatch, 2 on a
//     usage error (an rtol that is not a finite number in [0, 1) is one).
//
//   report_gate strip <in.json> <out.json> [key...]
//     Deep-copies the document dropping every object member whose name is
//     listed (default: "telemetry").  Regenerating the golden uses this to
//     shed the timing/machine-dependent sections before check-in.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

using socfmea::obs::Json;

Json loadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "report_gate: cannot open " << path << "\n";
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    return Json::parse(ss.str());
  } catch (const std::exception& e) {
    std::cerr << "report_gate: " << path << ": " << e.what() << "\n";
    std::exit(2);
  }
}

bool numbersMatch(double golden, double actual, double rtol) {
  if (golden == actual) return true;  // covers exact ints and +-0
  const double diff = std::fabs(golden - actual);
  const double scale = std::max(std::fabs(golden), std::fabs(actual));
  // Absolute floor so golden 0.0 vs actual 1e-300 noise still passes.
  return diff <= std::max(rtol * scale, 1e-12);
}

/// Recursively checks `actual` against the `golden` subset-spec.  Returns
/// the number of mismatches, printing one line per mismatch.
std::size_t check(const Json& golden, const Json& actual,
                  const std::string& path, double rtol) {
  const auto fail = [&](const std::string& what) -> std::size_t {
    std::cerr << "MISMATCH " << (path.empty() ? "/" : path) << ": " << what
              << "\n";
    return 1;
  };

  if (golden.isNumber()) {
    if (!actual.isNumber()) return fail("expected a number");
    if (!numbersMatch(golden.asDouble(), actual.asDouble(), rtol)) {
      return fail("expected " + golden.dump() + ", got " + actual.dump());
    }
    return 0;
  }
  if (golden.kind() != actual.kind()) {
    return fail("expected " + golden.dump() + ", got " + actual.dump());
  }
  switch (golden.kind()) {
    case Json::Kind::Null:
      return 0;
    case Json::Kind::Bool:
    case Json::Kind::String:
      if (!(golden == actual)) {
        return fail("expected " + golden.dump() + ", got " + actual.dump());
      }
      return 0;
    case Json::Kind::Array: {
      if (golden.size() != actual.size()) {
        return fail("expected " + std::to_string(golden.size()) +
                    " elements, got " + std::to_string(actual.size()));
      }
      std::size_t bad = 0;
      for (std::size_t i = 0; i < golden.size(); ++i) {
        bad += check(golden.at(i), actual.at(i),
                     path + "[" + std::to_string(i) + "]", rtol);
      }
      return bad;
    }
    case Json::Kind::Object: {
      std::size_t bad = 0;
      for (const auto& [key, value] : golden.items()) {
        const Json* sub = actual.find(key);
        if (sub == nullptr) {
          std::cerr << "MISSING " << path << "/" << key << "\n";
          ++bad;
          continue;
        }
        bad += check(value, *sub, path + "/" + key, rtol);
      }
      return bad;
    }
    default:
      return 0;  // unreachable: numbers handled above
  }
}

/// Deep copy dropping every object member named in `drop`.
Json strip(const Json& j, const std::vector<std::string>& drop) {
  if (j.isObject()) {
    Json out = Json::object();
    for (const auto& [key, value] : j.items()) {
      bool dropped = false;
      for (const std::string& d : drop) {
        if (key == d) {
          dropped = true;
          break;
        }
      }
      if (!dropped) out[key] = strip(value, drop);
    }
    return out;
  }
  if (j.isArray()) {
    Json out = Json::array();
    for (const Json& e : j.elements()) out.push_back(strip(e, drop));
    return out;
  }
  return j;
}

/// Strict whole-string rtol, as cli::parseFraction reads fractions (this
/// tool links only the obs layer).  An rtol of 1 or more would accept any
/// two numbers of the same sign, so it is rejected too.
bool parseRtol(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) || v < 0.0 || v >= 1.0) {
    return false;
  }
  out = v;
  return true;
}

int usage() {
  std::cerr << "usage: report_gate check <golden.json> <actual.json> [rtol]\n"
               "       report_gate strip <in.json> <out.json> [key...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];

  if (mode == "check") {
    if (argc != 4 && argc != 5) return usage();
    double rtol = 1e-9;
    if (argc == 5 && !parseRtol(argv[4], rtol)) {
      std::cerr << "report_gate: rtol needs a finite number in [0, 1), got '"
                << argv[4] << "'\n";
      return 2;
    }
    const Json golden = loadFile(argv[2]);
    const Json actual = loadFile(argv[3]);
    const std::size_t bad = check(golden, actual, "", rtol);
    if (bad != 0) {
      std::cerr << "report_gate: " << bad << " mismatch(es) against "
                << argv[2] << "\n";
      return 1;
    }
    std::cout << "report_gate: " << argv[3] << " matches " << argv[2]
              << " (rtol " << rtol << ")\n";
    return 0;
  }

  if (mode == "strip") {
    if (argc < 4) return usage();
    std::vector<std::string> drop;
    for (int i = 4; i < argc; ++i) drop.emplace_back(argv[i]);
    if (drop.empty()) drop.emplace_back("telemetry");
    const Json out = strip(loadFile(argv[2]), drop);
    std::ofstream f(argv[3]);
    if (!f) {
      std::cerr << "report_gate: cannot open " << argv[3] << " for writing\n";
      return 2;
    }
    f << out.dump(2) << "\n";
    return 0;
  }

  return usage();
}
