// Coverage for the small common utilities: logging, timers and CLI parsing.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <thread>

#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/timer.hpp"

namespace swt {
namespace {

class LogLevelGuard {
 public:
  LogLevelGuard() : saved_(log_level()) {}
  ~LogLevelGuard() { set_log_level(saved_); }

 private:
  LogLevel saved_;
};

TEST(Log, LevelRoundTrips) {
  LogLevelGuard guard;
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError, LogLevel::kOff}) {
    set_log_level(level);
    EXPECT_EQ(log_level(), level);
  }
}

TEST(Log, EmittingBelowThresholdIsSafe) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kOff);
  // Nothing to assert beyond "does not crash / deadlock".
  log_debug("debug ", 1);
  log_info("info ", 2.5);
  log_warn("warn ", "x");
  log_error("error ", 'c');
  SUCCEED();
}

TEST(Log, ConcatBuildsMessages) {
  EXPECT_EQ(detail::concat("a", 1, "-", 2.5), "a1-2.5");
  EXPECT_EQ(detail::concat(), "");
}

TEST(Log, MessageEmissionUnderEachLevel) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kDebug);
  log_debug("visible debug line from test");
  set_log_level(LogLevel::kError);
  log_info("suppressed info line");
  SUCCEED();
}

TEST(WallTimer, IsMonotonicNonNegative) {
  WallTimer timer;
  const double t1 = timer.seconds();
  EXPECT_GE(t1, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double t2 = timer.seconds();
  EXPECT_GE(t2, t1);
  EXPECT_GT(t2, 0.0015);
}

TEST(WallTimer, ResetRestartsFromZero) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  timer.reset();
  EXPECT_LT(timer.seconds(), 0.003);
}

// ---------------------------------------------------------------------------
// Full-consumption numeric parsing (common/parse.hpp).  Regression for the
// nas_cli flags that used raw std::stod/std::stoull: "7abc" parsed as 7 and
// "abc" aborted the process with an uncaught std::invalid_argument.

TEST(Parse, LongAcceptsWholeTokensOnly) {
  EXPECT_EQ(parse_long("42"), 42);
  EXPECT_EQ(parse_long("-17"), -17);
  EXPECT_EQ(parse_long("+8"), 8);
  EXPECT_EQ(parse_long("0"), 0);
  EXPECT_EQ(parse_long("42 "), 42);  // trailing whitespace tolerated
  EXPECT_EQ(parse_long("42\n"), 42);
  EXPECT_FALSE(parse_long("").has_value());
  EXPECT_FALSE(parse_long("abc").has_value());
  EXPECT_FALSE(parse_long("7abc").has_value());  // trailing garbage
  EXPECT_FALSE(parse_long("4 2").has_value());
  EXPECT_FALSE(parse_long("1e3").has_value());
  EXPECT_FALSE(parse_long("999999999999999999999999").has_value());  // ERANGE
}

TEST(Parse, IntRejectsOutOfRange) {
  EXPECT_EQ(parse_int("123"), 123);
  EXPECT_EQ(parse_int("-2147483648"), INT32_MIN);
  EXPECT_EQ(parse_int("2147483647"), INT32_MAX);
  EXPECT_FALSE(parse_int("2147483648").has_value());
  EXPECT_FALSE(parse_int("-2147483649").has_value());
}

TEST(Parse, U64RejectsNegativeAndGarbage) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());  // ERANGE
  EXPECT_FALSE(parse_u64("-1").has_value());  // strtoull would wrap silently
  EXPECT_FALSE(parse_u64(" -1").has_value());
  EXPECT_FALSE(parse_u64("12x").has_value());
  EXPECT_FALSE(parse_u64("").has_value());
}

TEST(Parse, DoubleAcceptsFiniteNumbersOnly) {
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double("-0.25"), -0.25);
  EXPECT_EQ(parse_double("1e3"), 1000.0);
  EXPECT_EQ(parse_double("2.5 "), 2.5);
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("inf").has_value());   // no knob means infinity
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_FALSE(parse_double("1e999").has_value()); // overflow
  EXPECT_EQ(parse_double("4.9406564584124654e-324"),  // underflow to a subnormal
            std::numeric_limits<double>::denorm_min());
}

}  // namespace
}  // namespace swt
