#include "testkit/seed.hpp"

#include <cctype>
#include <cstdlib>
#include <vector>

#include "sim/rng.hpp"

namespace socfmea::testkit {

bool envSeed(std::uint64_t* out) noexcept {
  const char* raw = std::getenv("SOCFMEA_TEST_SEED");
  if (raw == nullptr || *raw == '\0') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 0);
  if (end == raw || (end != nullptr && *end != '\0')) return false;
  if (out != nullptr) *out = static_cast<std::uint64_t>(v);
  return true;
}

std::uint64_t derivedSeed(std::uint64_t base, std::uint64_t index) noexcept {
  std::uint64_t z = base + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t testSeed(std::uint64_t fallback) noexcept {
  std::uint64_t campaign = 0;
  if (!envSeed(&campaign)) return fallback;
  return derivedSeed(campaign, fallback);
}

std::string seedMessage(std::uint64_t seed) {
  std::uint64_t campaign = 0;
  std::string msg = "seed " + std::to_string(seed);
  if (envSeed(&campaign)) {
    msg += " (campaign SOCFMEA_TEST_SEED=" + std::to_string(campaign) + ")";
  } else {
    msg += " (override the campaign with SOCFMEA_TEST_SEED=<n>)";
  }
  return msg;
}

std::string mutateText(std::string text, std::uint64_t seed) {
  if (text.empty()) return text;
  sim::Rng rng(seed);
  // [begin, end) of a random line, its newline included.
  const auto anyLine = [&] {
    std::vector<std::size_t> starts{0};
    for (std::size_t i = 0; i + 1 < text.size(); ++i) {
      if (text[i] == '\n') starts.push_back(i + 1);
    }
    const std::size_t begin = starts[rng.below(starts.size())];
    const std::size_t nl = text.find('\n', begin);
    return std::pair{begin, nl == std::string::npos ? text.size() : nl + 1};
  };
  switch (rng.below(5)) {
    case 0: {
      const std::size_t at = rng.below(text.size());
      text[at] = static_cast<char>(text[at] ^ (1 + rng.below(255)));
      break;
    }
    case 1:
      text.resize(rng.below(text.size()));
      break;
    case 2: {
      const auto [begin, end] = anyLine();
      text.erase(begin, end - begin);
      break;
    }
    case 3: {
      const auto [begin, end] = anyLine();
      text.insert(begin, text.substr(begin, end - begin));
      break;
    }
    default: {
      std::vector<std::pair<std::size_t, std::size_t>> numbers;
      for (std::size_t i = 0; i < text.size();) {
        if (std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
          ++i;
          continue;
        }
        std::size_t end = i;
        while (end < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[end])) != 0) {
          ++end;
        }
        numbers.emplace_back(i, end - i);
        i = end;
      }
      if (numbers.empty()) break;
      constexpr const char* kExtremes[] = {"18446744073709551615",
                                           "100000000000000000000", "-1"};
      const auto [at, len] = numbers[rng.below(numbers.size())];
      text.replace(at, len, kExtremes[rng.below(3)]);
      break;
    }
  }
  return text;
}

}  // namespace socfmea::testkit
