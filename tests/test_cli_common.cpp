// Unit tests for the shared CLI surface (tools/cli_common) — the one
// spelling of the --json/--cache-dir/--threads/--engine/--tier parsing that
// memsys_sil3_flow, injection_campaign and arch_search share, plus the
// strict value parsers every campaign tool uses for its own flags.
// The helpers are pure (no printing, no exit()), so the tests drive them
// with synthetic argv arrays.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "tools/cli_common.hpp"

namespace cli = socfmea::cli;

namespace {

/// Runs the shared parser over a whole synthetic argv, collecting statuses.
struct ParseRun {
  cli::CommonFlags flags;
  std::vector<cli::FlagStatus> statuses;
  std::string error;
};

ParseRun parseAll(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "tool");
  ParseRun run;
  const int argc = static_cast<int>(argv.size());
  for (int i = 1; i < argc; ++i) {
    const cli::FlagStatus st = cli::parseCommonFlag(
        argc, const_cast<char* const*>(argv.data()), i, run.flags, run.error);
    run.statuses.push_back(st);
    if (st == cli::FlagStatus::Error) break;
  }
  return run;
}

TEST(CliCommon, ParsesEverydaySharedFlagSet) {
  const ParseRun run = parseAll({"--json", "out.json", "--cache-dir", "/tmp/s",
                                 "--threads", "4", "--engine", "bitsliced",
                                 "--tier", "auto"});
  for (const cli::FlagStatus st : run.statuses) {
    EXPECT_EQ(st, cli::FlagStatus::Consumed);
  }
  EXPECT_STREQ(run.flags.jsonPath, "out.json");
  EXPECT_STREQ(run.flags.cacheDir, "/tmp/s");
  EXPECT_EQ(run.flags.threads, 4u);
  EXPECT_TRUE(run.flags.threadsSet);
  EXPECT_EQ(run.flags.engine, socfmea::faultsim::EngineKind::Bitsliced);
  EXPECT_TRUE(run.flags.engineSet);
  EXPECT_EQ(run.flags.tier, socfmea::inject::TierMode::Auto);
  EXPECT_TRUE(run.flags.tierSet);
  EXPECT_TRUE(run.flags.anyIterationFlag());
}

TEST(CliCommon, JsonAloneIsNotAnIterationFlag) {
  const ParseRun run = parseAll({"--json", "out.json"});
  EXPECT_EQ(run.statuses.front(), cli::FlagStatus::Consumed);
  EXPECT_FALSE(run.flags.anyIterationFlag());
  EXPECT_EQ(run.flags.threads, 1u);  // one campaign thread unless asked
}

TEST(CliCommon, UnknownFlagIsLeftToTheCaller) {
  const ParseRun run = parseAll({"--edit", "0.1"});
  EXPECT_EQ(run.statuses.front(), cli::FlagStatus::NotMine);
  EXPECT_EQ(run.flags.jsonPath, nullptr);
}

TEST(CliCommon, MissingValueIsAnError) {
  for (const char* flag :
       {"--json", "--cache-dir", "--threads", "--engine", "--tier"}) {
    const ParseRun run = parseAll({flag});
    EXPECT_EQ(run.statuses.front(), cli::FlagStatus::Error) << flag;
    EXPECT_NE(run.error.find("needs a value"), std::string::npos) << flag;
  }
}

TEST(CliCommon, BadThreadCountIsAnError) {
  for (const char* bad : {"-1", "x", "4x", "", "4294967296"}) {
    const ParseRun run = parseAll({"--threads", bad});
    EXPECT_EQ(run.statuses.front(), cli::FlagStatus::Error) << bad;
  }
}

TEST(CliCommon, UnknownEngineAndTierAreErrors) {
  EXPECT_EQ(parseAll({"--engine", "warp"}).statuses.front(),
            cli::FlagStatus::Error);
  // `threaded` names no engine: it is rejected like any other unknown name.
  const ParseRun threaded = parseAll({"--engine", "threaded"});
  EXPECT_EQ(threaded.statuses.front(), cli::FlagStatus::Error);
  EXPECT_NE(threaded.error.find("unknown engine 'threaded'"),
            std::string::npos);
  EXPECT_EQ(parseAll({"--tier", "turbo"}).statuses.front(),
            cli::FlagStatus::Error);
}

TEST(CliCommon, UsageTextCoversEverySharedFlag) {
  for (const char* flag :
       {"--json", "--cache-dir", "--threads", "--engine", "--tier"}) {
    EXPECT_NE(cli::commonUsageSynopsis().find(flag), std::string::npos)
        << flag;
    EXPECT_NE(cli::commonUsageDetails().find(flag), std::string::npos) << flag;
  }
}

TEST(CliCommon, ParseUnsignedIsStrictWholeString) {
  unsigned v = 99;
  EXPECT_TRUE(cli::parseUnsigned("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(cli::parseUnsigned("4294967295", v));
  EXPECT_EQ(v, 4294967295u);
  for (const char* bad :
       {"", "-1", "1.5", "12abc", "abc", " 1", "4294967296", "0x10"}) {
    unsigned w = 7;
    EXPECT_FALSE(cli::parseUnsigned(bad, w)) << bad;
    EXPECT_EQ(w, 7u) << bad;  // failed parses leave the output untouched
  }
  EXPECT_FALSE(cli::parseUnsigned(nullptr, v));

  // The 64-bit overload (seeds, case counts) shares the body and the rules.
  std::uint64_t big = 99;
  EXPECT_TRUE(cli::parseUnsigned("4294967296", big));
  EXPECT_EQ(big, 4294967296u);
  EXPECT_TRUE(cli::parseUnsigned("18446744073709551615", big));
  EXPECT_EQ(big, 18446744073709551615u);
  for (const char* bad : {"", "-1", "abc", "12abc", " 1", "0x10",
                          "18446744073709551616"}) {
    std::uint64_t w = 7;
    EXPECT_FALSE(cli::parseUnsigned(bad, w)) << bad;
    EXPECT_EQ(w, 7u) << bad;
  }
  EXPECT_FALSE(cli::parseUnsigned(nullptr, big));
}

TEST(CliCommon, ParseFractionRejectsNegativeAndTrailingJunk) {
  double f = -1.0;
  EXPECT_TRUE(cli::parseFraction("0.25", f));
  EXPECT_DOUBLE_EQ(f, 0.25);
  EXPECT_TRUE(cli::parseFraction("2", f));
  EXPECT_DOUBLE_EQ(f, 2.0);
  for (const char* bad : {"", "-0.1", "0.1x", "nope"}) {
    EXPECT_FALSE(cli::parseFraction(bad, f)) << bad;
  }
  EXPECT_FALSE(cli::parseFraction(nullptr, f));
}

TEST(CliCommon, OpenStoreWithoutFlagHoldsNull) {
  cli::CommonFlags flags;
  std::string error;
  const auto store = cli::openStore(flags, error);
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(store->get(), nullptr);
  EXPECT_TRUE(error.empty());
}

TEST(CliCommon, OpenStoreCreatesAndReopensDirectory) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "socfmea-cli-store-test";
  std::filesystem::remove_all(dir);
  const std::string path = dir.string();
  cli::CommonFlags flags;
  flags.cacheDir = path.c_str();
  std::string error;
  const auto store = cli::openStore(flags, error);
  ASSERT_TRUE(store.has_value());
  EXPECT_NE(store->get(), nullptr);
  // Reopening the now-existing directory must also work.
  const auto again = cli::openStore(flags, error);
  ASSERT_TRUE(again.has_value());
  EXPECT_NE(again->get(), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(CliCommon, OpenStoreRejectsFileOccupiedPath) {
  const std::filesystem::path file =
      std::filesystem::temp_directory_path() / "socfmea-cli-store-file";
  std::ofstream(file) << "not a directory";
  const std::string path = file.string();
  cli::CommonFlags flags;
  flags.cacheDir = path.c_str();
  std::string error;
  const auto store = cli::openStore(flags, error);
  EXPECT_FALSE(store.has_value());
  EXPECT_NE(error.find("--cache-dir"), std::string::npos);
  std::filesystem::remove(file);
}

}  // namespace
