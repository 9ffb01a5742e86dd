// Harness flag parsing and the cell run loop. Ratio-valued flags
// (--cpu-ratio) must reject malformed and out-of-range input with a clear
// error instead of silently clamping a typo into a valid split, while
// accepting the whole legal range including both endpoints; integer flags
// and BIGK_SCALE must reject trailing garbage, signs, zero and overflow
// instead of truncating. Cells run in the order added, and a throwing cell
// stops the run naming itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"

namespace bigk::bench {
namespace {

TEST(HarnessFlags, ParseRatioAcceptsTheFullRange) {
  EXPECT_DOUBLE_EQ(Harness::parse_ratio("0", "--cpu-ratio"), 0.0);
  EXPECT_DOUBLE_EQ(Harness::parse_ratio("1", "--cpu-ratio"), 1.0);
  EXPECT_DOUBLE_EQ(Harness::parse_ratio("0.25", "--cpu-ratio"), 0.25);
  EXPECT_DOUBLE_EQ(Harness::parse_ratio("0.5", "--cpu-ratio"), 0.5);
  EXPECT_DOUBLE_EQ(Harness::parse_ratio("1.0", "--cpu-ratio"), 1.0);
  EXPECT_DOUBLE_EQ(Harness::parse_ratio("5e-1", "--cpu-ratio"), 0.5);
  EXPECT_DOUBLE_EQ(Harness::parse_ratio("0.0", "--cpu-ratio"), 0.0);
}

TEST(HarnessFlags, ParseRatioRejectsOutOfRange) {
  EXPECT_THROW(Harness::parse_ratio("1.5", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("-0.1", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("2", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("nan", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("inf", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("1e300", "--cpu-ratio"),
               std::invalid_argument);
}

TEST(HarnessFlags, ParseRatioRejectsMalformedInput) {
  EXPECT_THROW(Harness::parse_ratio("", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("abc", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("0.5x", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("0.2.5", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("--", "--cpu-ratio"),
               std::invalid_argument);
}

TEST(HarnessFlags, ParseRatioErrorNamesTheFlagAndValue) {
  try {
    Harness::parse_ratio("1.5", "--cpu-ratio");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("--cpu-ratio"), std::string::npos);
    EXPECT_NE(message.find("1.5"), std::string::npos);
  }
}

TEST(HarnessFlags, ParseCountAcceptsPositiveIntegers) {
  EXPECT_EQ(Harness::parse_count("7", "--prof-window"), 7u);
  EXPECT_EQ(Harness::parse_count("1", "--devices"), 1u);
  EXPECT_EQ(Harness::parse_count("4294967295", "--jobs"),
            std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(Harness::parse_count<std::uint64_t>("4294967297", "--fault-seed"),
            4294967297ull);
  EXPECT_EQ(
      Harness::parse_count<std::uint64_t>("18446744073709551615", "--fault-seed"),
      std::numeric_limits<std::uint64_t>::max());
}

TEST(HarnessFlags, ParseCountRejectsMalformedInput) {
  for (const char* value : {"", "7x", "x7", "1.5", " 7", "+7", "-1", "0",
                            "0x10", "--"}) {
    EXPECT_THROW(Harness::parse_count(value, "--prof-window"),
                 std::invalid_argument)
        << "value \"" << value << "\"";
  }
}

TEST(HarnessFlags, ParseCountRejectsOutOfRange) {
  EXPECT_THROW(Harness::parse_count("4294967296", "--jobs"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_count("4294967297", "--devices"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_count<std::uint64_t>("18446744073709551616",
                                                   "--fault-seed"),
               std::invalid_argument);
}

TEST(HarnessFlags, ParseCountErrorNamesTheFlagAndValue) {
  try {
    Harness::parse_count("7x", "--prof-window");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("--prof-window"), std::string::npos);
    EXPECT_NE(message.find("7x"), std::string::npos);
  }
}

TEST(HarnessFlags, ParseScaleAcceptsPositiveNumbers) {
  EXPECT_DOUBLE_EQ(Context::parse_scale("0.002"), 0.002);
  EXPECT_DOUBLE_EQ(Context::parse_scale("1"), 1.0);
  EXPECT_DOUBLE_EQ(Context::parse_scale("5e-3"), 0.005);
}

TEST(HarnessFlags, ParseScaleRejectsMalformedAndNonPositive) {
  for (const char* value :
       {"", "abc", "0.002x", "0", "0.0", "-0.5", "nan", "inf", "1e999"}) {
    EXPECT_THROW(Context::parse_scale(value), std::invalid_argument)
        << "value \"" << value << "\"";
  }
  try {
    Context::parse_scale("0.5x");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("BIGK_SCALE"), std::string::npos);
    EXPECT_NE(message.find("0.5x"), std::string::npos);
  }
}

schemes::RunMetrics finished_at(sim::TimePs time) {
  schemes::RunMetrics metrics;
  metrics.total_time = time;
  return metrics;
}

/// A harness over the smallest suite, with no flags.
Harness tiny_harness() {
  setenv("BIGK_SCALE", "0.0005", /*overwrite=*/1);
  static char arg0[] = "harness_flags_test";
  static char* argv[] = {arg0, nullptr};
  return Harness("harness_flags_test", 1, argv);
}

TEST(HarnessCells, RunInOrderAndStoreUnderTheirNames) {
  Harness harness = tiny_harness();
  std::vector<std::string> order;
  harness.add("b/second-name", [&] {
    order.push_back("b/second-name");
    return finished_at(5);
  });
  harness.add("a/first-name", [&] {
    order.push_back("a/first-name");
    return finished_at(7);
  });
  ASSERT_TRUE(harness.run());
  EXPECT_EQ(order, (std::vector<std::string>{"b/second-name", "a/first-name"}));
  ASSERT_EQ(harness.results.size(), 2u);
  EXPECT_EQ(harness.results.at("b/second-name").total_time, 5u);
  EXPECT_EQ(harness.results.at("a/first-name").total_time, 7u);
}

TEST(HarnessCells, AThrowingCellStopsTheRunNamingItself) {
  Harness harness = tiny_harness();
  bool ran_after = false;
  harness.add("ok", [] { return finished_at(1); });
  harness.add("App/variant", []() -> schemes::RunMetrics {
    throw std::runtime_error("requested 65536 bytes");
  });
  harness.add("after", [&] {
    ran_after = true;
    return finished_at(2);
  });
  testing::internal::CaptureStderr();
  EXPECT_FALSE(harness.run());
  const std::string stderr_text = testing::internal::GetCapturedStderr();
  EXPECT_EQ(stderr_text, "error: App/variant: requested 65536 bytes\n");
  EXPECT_FALSE(ran_after);
  EXPECT_EQ(harness.results.count("ok"), 1u);
  EXPECT_EQ(harness.results.count("App/variant"), 0u);
}

}  // namespace
}  // namespace bigk::bench
