// ArgParser: flag declaration, parsing forms, type checking, env override.
#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/require.hpp"

namespace {

using rfid::common::ArgParser;
using rfid::common::envOr;
using rfid::common::PreconditionError;

ArgParser makeParser() {
  ArgParser p("demo", "test parser");
  p.addInt("tags", 50, "number of tags")
      .addDouble("tau", 1.0, "bit time")
      .addString("scheme", "qcd", "detection scheme")
      .addBool("verbose", false, "chatty output");
  return p;
}

TEST(ArgParser, DefaultsApplyWithoutArgs) {
  ArgParser p = makeParser();
  const char* argv[] = {"demo"};
  EXPECT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.getInt("tags"), 50);
  EXPECT_DOUBLE_EQ(p.getDouble("tau"), 1.0);
  EXPECT_EQ(p.getString("scheme"), "qcd");
  EXPECT_FALSE(p.getBool("verbose"));
}

TEST(ArgParser, EqualsForm) {
  ArgParser p = makeParser();
  const char* argv[] = {"demo", "--tags=500", "--tau=0.5", "--scheme=crc",
                        "--verbose=true"};
  EXPECT_TRUE(p.parse(5, argv));
  EXPECT_EQ(p.getInt("tags"), 500);
  EXPECT_DOUBLE_EQ(p.getDouble("tau"), 0.5);
  EXPECT_EQ(p.getString("scheme"), "crc");
  EXPECT_TRUE(p.getBool("verbose"));
}

TEST(ArgParser, SpaceSeparatedForm) {
  ArgParser p = makeParser();
  const char* argv[] = {"demo", "--tags", "5000"};
  EXPECT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.getInt("tags"), 5000);
}

TEST(ArgParser, BareBoolEnables) {
  ArgParser p = makeParser();
  const char* argv[] = {"demo", "--verbose"};
  EXPECT_TRUE(p.parse(2, argv));
  EXPECT_TRUE(p.getBool("verbose"));
}

TEST(ArgParser, HelpReturnsFalse) {
  ArgParser p = makeParser();
  const char* argv[] = {"demo", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
  EXPECT_NE(p.helpText().find("--tags"), std::string::npos);
}

TEST(ArgParser, UnknownFlagThrows) {
  ArgParser p = makeParser();
  const char* argv[] = {"demo", "--bogus=1"};
  EXPECT_THROW(p.parse(2, argv), PreconditionError);
}

TEST(ArgParser, MalformedValuesThrow) {
  {
    ArgParser p = makeParser();
    const char* argv[] = {"demo", "--tags=abc"};
    EXPECT_THROW(p.parse(2, argv), PreconditionError);
  }
  {
    ArgParser p = makeParser();
    const char* argv[] = {"demo", "--verbose=maybe"};
    EXPECT_THROW(p.parse(2, argv), PreconditionError);
  }
  {
    ArgParser p = makeParser();
    const char* argv[] = {"demo", "--tags"};
    EXPECT_THROW(p.parse(2, argv), PreconditionError);
  }
}

TEST(ArgParser, TypeMismatchOnAccessThrows) {
  ArgParser p = makeParser();
  const char* argv[] = {"demo"};
  EXPECT_TRUE(p.parse(1, argv));
  EXPECT_THROW(p.getInt("scheme"), PreconditionError);
  EXPECT_THROW(p.getBool("tags"), PreconditionError);
  EXPECT_THROW(p.getInt("never-declared"), PreconditionError);
}

TEST(ArgParser, DoubleValuesRoundTripExactly) {
  // Regression: values used to pass through a default-precision
  // ostringstream, truncating to six significant digits — --c=0.123456789
  // silently became 0.123457. Parsed doubles must round-trip exactly.
  ArgParser p = makeParser();
  const char* argv[] = {"demo", "--tau=0.123456789"};
  EXPECT_TRUE(p.parse(2, argv));
  EXPECT_EQ(p.getDouble("tau"), 0.123456789);
}

TEST(ArgParser, DoubleDefaultsRoundTripExactly) {
  // Defaults travel the same format/parse path as parsed values.
  ArgParser p("demo", "test parser");
  p.addDouble("c", 0.8191726312345679, "paper constant");
  const char* argv[] = {"demo"};
  EXPECT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.getDouble("c"), 0.8191726312345679);
}

TEST(ArgParser, DoubleExtremesSurviveTheRoundTrip) {
  ArgParser p("demo", "test parser");
  p.addDouble("tiny", 0.0, "x").addDouble("huge", 0.0, "y");
  const char* argv[] = {"demo", "--tiny=4.9406564584124654e-324",
                        "--huge=1.7976931348623157e308"};
  EXPECT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.getDouble("tiny"), 4.9406564584124654e-324);
  EXPECT_EQ(p.getDouble("huge"), 1.7976931348623157e308);
}

TEST(EnvOr, ReadsAndFallsBack) {
  ::setenv("RFID_TEST_ENV", "123", 1);
  EXPECT_EQ(envOr("RFID_TEST_ENV", 7), 123u);
  ::setenv("RFID_TEST_ENV", "notanumber", 1);
  EXPECT_EQ(envOr("RFID_TEST_ENV", 7), 7u);
  // 2^64 - 1 is the largest value that reads; one past it is out of range
  // (strtoull would saturate it to 2^64 - 1) and keeps the fallback.
  ::setenv("RFID_TEST_ENV", "18446744073709551615", 1);
  EXPECT_EQ(envOr("RFID_TEST_ENV", 7), 18446744073709551615u);
  ::setenv("RFID_TEST_ENV", "18446744073709551616", 1);
  EXPECT_EQ(envOr("RFID_TEST_ENV", 7), 7u);
  ::unsetenv("RFID_TEST_ENV");
  EXPECT_EQ(envOr("RFID_TEST_ENV", 7), 7u);
}

TEST(EnvOr, RejectsNegativeInput) {
  // Regression: strtoull happily wraps "-1" to 2^64 - 1; a negative value
  // must fall back instead of becoming a huge unsigned count.
  ::setenv("RFID_TEST_ENV", "-1", 1);
  EXPECT_EQ(envOr("RFID_TEST_ENV", 7), 7u);
  ::setenv("RFID_TEST_ENV", " -5", 1);
  EXPECT_EQ(envOr("RFID_TEST_ENV", 7), 7u);
  ::unsetenv("RFID_TEST_ENV");
}

TEST(EnvOr, RejectsEmptyAndTrailingGarbage) {
  ::setenv("RFID_TEST_ENV", "", 1);
  EXPECT_EQ(envOr("RFID_TEST_ENV", 7), 7u);
  ::setenv("RFID_TEST_ENV", "12abc", 1);
  EXPECT_EQ(envOr("RFID_TEST_ENV", 7), 7u);
  ::setenv("RFID_TEST_ENV", "12 ", 1);
  EXPECT_EQ(envOr("RFID_TEST_ENV", 7), 7u);
  ::unsetenv("RFID_TEST_ENV");
}

}  // namespace
