// The obs layer: JSON document model (round trips, escaping, numeric
// fidelity, strict parsing, seeded mutants of a real report) and the
// telemetry registry (thread safety, scoped timers).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "testkit/seed.hpp"

using socfmea::obs::Json;
using socfmea::obs::Registry;
using socfmea::obs::ScopedTimer;
using socfmea::obs::TimerStat;

// ---- JSON model -------------------------------------------------------------

TEST(JsonTest, ScalarKindsAndAccessors) {
  EXPECT_TRUE(Json().isNull());
  EXPECT_TRUE(Json(nullptr).isNull());
  EXPECT_TRUE(Json(true).asBool());
  EXPECT_EQ(Json(-7).asInt(), -7);
  EXPECT_DOUBLE_EQ(Json(2.5).asDouble(), 2.5);
  EXPECT_EQ(Json("hi").asString(), "hi");
  EXPECT_THROW((void)Json(1).asString(), std::logic_error);
  EXPECT_THROW((void)Json("x").asInt(), std::logic_error);
  // Ints read as doubles (one numeric domain), not the reverse.
  EXPECT_DOUBLE_EQ(Json(3).asDouble(), 3.0);
  EXPECT_THROW((void)Json(3.5).asInt(), std::logic_error);
}

TEST(JsonTest, NonFiniteDoublesCollapseToNull) {
  EXPECT_TRUE(Json(std::numeric_limits<double>::quiet_NaN()).isNull());
  EXPECT_TRUE(Json(std::numeric_limits<double>::infinity()).isNull());
  EXPECT_TRUE(Json(-std::numeric_limits<double>::infinity()).isNull());
  // And through dump: a null, not an invalid token.
  Json j = Json::object();
  j["bad"] = Json(std::nan(""));
  EXPECT_EQ(j.dump(), "{\"bad\":null}");
}

TEST(JsonTest, ObjectsKeepInsertionOrder) {
  Json j = Json::object();
  j["zebra"] = Json(1);
  j["apple"] = Json(2);
  j["mid"] = Json(3);
  EXPECT_EQ(j.dump(), "{\"zebra\":1,\"apple\":2,\"mid\":3}");
  EXPECT_EQ(j.at("apple").asInt(), 2);
  EXPECT_EQ(j.find("nope"), nullptr);
  EXPECT_TRUE(j.erase("mid"));
  EXPECT_FALSE(j.erase("mid"));
  EXPECT_EQ(j.size(), 2u);
}

TEST(JsonTest, StringEscapingRoundTrip) {
  const std::string nasty =
      "quote\" backslash\\ newline\n tab\t ctrl\x01 utf8 \xC3\xA9";
  Json j = Json::object();
  j["s"] = Json(nasty);
  const Json back = Json::parse(j.dump(2));
  EXPECT_EQ(back.at("s").asString(), nasty);
}

TEST(JsonTest, UnicodeEscapesAndSurrogatePairs) {
  // é = é (2-byte UTF-8), 😀 = 😀 (4-byte via surrogates).
  const Json j = Json::parse(R"({"a": "é", "b": "😀"})");
  EXPECT_EQ(j.at("a").asString(), "\xC3\xA9");
  EXPECT_EQ(j.at("b").asString(), "\xF0\x9F\x98\x80");
}

TEST(JsonTest, BigIntegersStayExact) {
  const std::int64_t big = 9007199254740993;  // 2^53 + 1: breaks doubles
  Json j = Json::object();
  j["n"] = Json(big);
  const Json back = Json::parse(j.dump());
  EXPECT_TRUE(back.at("n").isInt());
  EXPECT_EQ(back.at("n").asInt(), big);
}

TEST(JsonTest, DoublesRoundTripShortest) {
  for (const double v : {0.1, 1.0 / 3.0, 99.38, 1e-300, -2.5e17}) {
    Json j = Json::object();
    j["v"] = Json(v);
    EXPECT_DOUBLE_EQ(Json::parse(j.dump()).at("v").asDouble(), v);
  }
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse(""), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{\"a\":1,}"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("[1 2]"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("nul"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("\"bad \\q escape\""), std::runtime_error);
  // Nesting past the bound is rejected, not a stack overflow; a document
  // exactly at the bound still parses.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_THROW((void)Json::parse(nested(100000)), std::runtime_error);
  EXPECT_THROW((void)Json::parse(std::string(100000, '[')),
               std::runtime_error);
  EXPECT_THROW((void)Json::parse(nested(Json::kMaxDepth + 1)),
               std::runtime_error);
  EXPECT_NO_THROW((void)Json::parse(nested(Json::kMaxDepth)));
}

// Seeded mutants of the checked-in SIL3 report (testkit::mutateText: byte
// flips, truncations, dropped and duplicated lines, extreme numbers): each
// either throws the parser's std::runtime_error or parses to a document
// that survives parse(dump()) unchanged.
TEST(JsonTest, MutatedReportsThrowOrRoundTrip) {
  std::ifstream in(SOCFMEA_GOLDEN_REPORT, std::ios::binary);
  const std::string report(std::istreambuf_iterator<char>(in), {});
  ASSERT_FALSE(report.empty()) << SOCFMEA_GOLDEN_REPORT;
  const std::uint64_t base = socfmea::testkit::testSeed(0x15A7);
  std::size_t parsed = 0;
  std::size_t thrown = 0;
  for (std::uint64_t k = 0; k < 200; ++k) {
    const std::uint64_t seed = socfmea::testkit::derivedSeed(base, k);
    SCOPED_TRACE(socfmea::testkit::seedMessage(seed));
    Json j;
    try {
      j = Json::parse(socfmea::testkit::mutateText(report, seed));
    } catch (const std::runtime_error&) {
      ++thrown;
      continue;
    }
    ++parsed;
    const std::string text = j.dump();
    const Json again = Json::parse(text);
    EXPECT_TRUE(again == j);
    EXPECT_EQ(again.dump(), text);
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(thrown, 0u);
}

TEST(JsonTest, DeepEqualityComparesNumerically) {
  EXPECT_EQ(Json(2), Json(2.0));
  const Json a = Json::parse(R"({"x":[1,2,{"y":true}]})");
  const Json b = Json::parse(R"({"x":[1,2.0,{"y":true}]})");
  EXPECT_EQ(a, b);
  const Json c = Json::parse(R"({"x":[1,2,{"y":false}]})");
  EXPECT_FALSE(a == c);
}

TEST(JsonTest, NestedAutoVivification) {
  Json j;
  j["a"]["b"] = Json(1);  // Null -> Object at both levels
  EXPECT_EQ(j.at("a").at("b").asInt(), 1);
}

// ---- telemetry registry -----------------------------------------------------

TEST(RegistryTest, CountersGaugesTimers) {
  Registry reg;
  reg.add("c");
  reg.add("c", 9);
  reg.set("g", 0.25);
  reg.set("g", 0.75);  // last write wins
  reg.record("t", 1.0, 2.0);
  reg.record("t", 0.5, 0.25);
  EXPECT_EQ(reg.counter("c"), 10u);
  EXPECT_EQ(reg.counter("absent"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("g"), 0.75);
  const TimerStat t = reg.timer("t");
  EXPECT_DOUBLE_EQ(t.wallSeconds, 1.5);
  EXPECT_DOUBLE_EQ(t.cpuSeconds, 2.25);
  EXPECT_EQ(t.count, 2u);
}

TEST(RegistryTest, ConcurrentAddsFromManyThreads) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kAdds; ++i) reg.add("hits");
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("hits"),
            static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(RegistryTest, TimerNestingAccumulates) {
  Registry reg;
  {
    ScopedTimer outer("outer", reg);
    {
      ScopedTimer inner("inner", reg);
      ScopedTimer innerSame("inner", reg);  // same-name nesting: both count
    }
    {
      ScopedTimer inner("inner", reg);
    }
  }
  EXPECT_EQ(reg.timer("outer").count, 1u);
  EXPECT_EQ(reg.timer("inner").count, 3u);
  // The outer scope encloses the inner ones, so its wall time dominates.
  EXPECT_GE(reg.timer("outer").wallSeconds, reg.timer("inner").wallSeconds);
}

TEST(RegistryTest, ScopedTimerStopIsIdempotent) {
  Registry reg;
  ScopedTimer t("t", reg);
  t.stop();
  t.stop();                       // no double record
  EXPECT_EQ(reg.timer("t").count, 1u);
  EXPECT_GE(t.elapsedWallSeconds(), 0.0);
}

TEST(RegistryTest, JsonExportShape) {
  Registry reg;
  reg.add("b.counter", 2);
  reg.add("a.counter", 1);
  reg.set("util", 0.5);
  reg.record("phase", 0.25, 0.5);
  const Json j = Json::parse(reg.toJson().dump(2));
  EXPECT_EQ(j.at("counters").at("a.counter").asInt(), 1);
  EXPECT_EQ(j.at("counters").at("b.counter").asInt(), 2);
  EXPECT_DOUBLE_EQ(j.at("gauges").at("util").asDouble(), 0.5);
  EXPECT_DOUBLE_EQ(j.at("timers").at("phase").at("wall_s").asDouble(), 0.25);
  EXPECT_EQ(j.at("timers").at("phase").at("count").asInt(), 1);
  // Keys come out sorted -> deterministic dumps.
  EXPECT_EQ(j.at("counters").items().front().first, "a.counter");
  // Empty sections are objects, not nulls.
  Registry empty;
  EXPECT_EQ(empty.toJson().dump(),
            "{\"counters\":{},\"gauges\":{},\"timers\":{}}");
}

TEST(RegistryTest, ClearEmptiesEverything) {
  Registry reg;
  reg.add("c");
  reg.set("g", 1.0);
  reg.record("t", 1.0, 1.0);
  reg.clear();
  EXPECT_EQ(reg.counter("c"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("g"), 0.0);
  EXPECT_EQ(reg.timer("t").count, 0u);
}
