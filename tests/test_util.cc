// Tests for the small utility layer: stats, tables, flags, stopwatch.
#include <gtest/gtest.h>

#include <sstream>

#include "util/flags.h"
#include "util/stats.h"
#include "util/table.h"
#include "obs/clock.h"

namespace pubsub {
namespace {

TEST(RunningStatsTest, WelfordMatchesClosedForm) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(3.5);
  EXPECT_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
  EXPECT_NE(s.summary().find("n=1"), std::string::npos);
}

TEST(TextTableTest, AlignsColumnsAndFormatsCells) {
  TextTable t({"name", "value"});
  t.row().cell("x").cell(42);
  t.row().cell("longer-name").cell(3.14159, 2);
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| longer-name |  3.14 |"), std::string::npos);
  EXPECT_NE(out.find("|        name | value |"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TextTableTest, RejectsWidthMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(FlagsTest, ParsesKeyValueAndBooleans) {
  const char* argv[] = {"prog", "--alpha=3", "--name=x y", "--flag",
                        "positional", "--ratio=0.5", "--no=false"};
  const Flags f(7, argv);
  EXPECT_EQ(f.program(), "prog");
  EXPECT_EQ(f.get_int("alpha", 0), 3);
  EXPECT_EQ(f.get("name", ""), "x y");
  EXPECT_TRUE(f.get_bool("flag", false));
  EXPECT_FALSE(f.get_bool("no", true));
  EXPECT_DOUBLE_EQ(f.get_double("ratio", 0.0), 0.5);
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "positional");
}

TEST(FlagsTest, DefaultsAndErrors) {
  const char* argv[] = {"prog", "--bad=maybe"};
  const Flags f(2, argv);
  EXPECT_EQ(f.get_int("missing", 7), 7);
  EXPECT_EQ(f.get("missing", "d"), "d");
  EXPECT_FALSE(f.has("missing"));
  EXPECT_TRUE(f.has("bad"));
  EXPECT_THROW(f.get_bool("bad", false), std::invalid_argument);
}

TEST(FlagsTest, MalformedNumbersFailLoudly) {
  const char* argv[] = {"prog", "--threads=abc", "--ratio=0.5x", "--n=12"};
  const Flags f(4, argv);
  // A typo like --threads=abc must not silently run with a default (or
  // abort mid-parse like raw std::stoll): it names the flag and value.
  EXPECT_THROW(f.get_int("threads", 1), std::invalid_argument);
  EXPECT_THROW(f.get_double("ratio", 0.0), std::invalid_argument);
  try {
    f.get_int("threads", 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("threads"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos);
  }
  // Trailing junk counts as malformed; a clean value still parses.
  EXPECT_THROW(f.get_double("ratio", 0.0), std::invalid_argument);
  EXPECT_EQ(f.get_int("n", 0), 12);

  // A count rejects a negative value, which a cast to std::size_t would
  // wrap to 2^64 - n, and names the flag; absent or zero it passes through.
  const char* counts[] = {"prog", "--groups=-1", "--events=0", "--subs=abc"};
  const Flags c(4, counts);
  EXPECT_EQ(c.get_int("groups", 0), -1);
  EXPECT_THROW(c.get_count("groups", 100), FlagError);
  try {
    c.get_count("groups", 100);
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    EXPECT_NE(std::string(e.what()).find("--groups"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-1"), std::string::npos);
  }
  EXPECT_THROW(c.get_count("subs", 1000), FlagError);
  EXPECT_EQ(c.get_count("events", 2000), 0u);
  EXPECT_EQ(c.get_count("cells", 6000), 6000u);
  // Every Flags error is a FlagError, so a binary can map it to a usage
  // error.
  EXPECT_THROW(f.get_int("threads", 1), FlagError);
  EXPECT_THROW(f.get_double("ratio", 0.0), FlagError);
  EXPECT_THROW(f.require_known({"threads"}), FlagError);
}

TEST(FlagsTest, UnknownFlagDetection) {
  const char* argv[] = {"prog", "--threads=4", "--thread=8", "--verbose"};
  const Flags f(4, argv);
  // A mistyped flag *name* used to vanish into the value map; the
  // registration check surfaces it.
  EXPECT_EQ(f.unknown_flags({"threads", "verbose"}),
            (std::vector<std::string>{"thread"}));
  EXPECT_TRUE(f.unknown_flags({"threads", "thread", "verbose"}).empty());
  EXPECT_NO_THROW(f.require_known({"threads", "thread", "verbose"}));
  try {
    f.require_known({"threads"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--thread"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--verbose"), std::string::npos);
    // ...but the correctly spelled flag is not reported.
    EXPECT_EQ(std::string(e.what()).find("--threads"), std::string::npos);
  }
}

TEST(StopwatchClockTest, MeasuresElapsedTime) {
  StopwatchClock w;
  // Just sanity: non-negative and monotone.
  const double a = w.elapsed_seconds();
  const double b = w.elapsed_seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  w.restart();
  EXPECT_LT(w.elapsed_ms(), 1000.0);
  // StopwatchClock is also the default trace clock: now_ms() is the same
  // reading through the Clock interface.
  Clock& as_clock = w;
  EXPECT_GE(as_clock.now_ms(), 0.0);
}

}  // namespace
}  // namespace pubsub
