#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace dmsim::util {
namespace {

/// parse() over {"prog", args...}.
bool parse(FlagTable& flags, std::vector<std::string> args) {
  args.insert(args.begin(), "/usr/bin/prog");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return flags.parse(static_cast<int>(argv.size()), argv.data());
}

/// The ConfigError message parse() throws for `args`.
std::string parse_error(FlagTable& flags, std::vector<std::string> args) {
  try {
    (void)parse(flags, std::move(args));
  } catch (const ConfigError& e) {
    return e.what();
  }
  ADD_FAILURE() << "parse accepted the arguments";
  return {};
}

/// One row of every destination kind.
struct AllKinds {
  bool on = false;
  std::string name;
  std::optional<std::string> maybe;
  std::vector<std::string> tags;
  std::vector<double> cuts;
  int count = 7;
  std::optional<std::size_t> threads;
  std::optional<double> every;
  std::string input;
  FlagTable flags{{"INPUT [options]"}};

  AllKinds() {
    flags.flag("--on", "a switch", on)
        .text("--name", "S", "a string", name)
        .text("--maybe", "S", "an optional string", maybe)
        .repeated("--tag", "S", "a repeatable string", tags)
        .repeated("--cut", "T", "a repeatable real", cuts)
        .integer("--count", "N", "an integer in [-2, 5]", -2, 5, count)
        .integer("--threads", "N", "a thread count", 0, kMaxThreads, threads)
        .real("--every", "X", "a finite real", every)
        .positional("INPUT", "the input", input);
  }
};

TEST(FlagTable, FillsEveryDestinationKind) {
  AllKinds k;
  EXPECT_FALSE(parse(k.flags, {"--on", "--name", "a", "--maybe", "b", "in.txt",
                               "--tag", "x", "--tag", "y", "--cut", "1.5",
                               "--cut", "2e3", "--count", "-2", "--threads",
                               "4", "--every", "0.25"}));
  EXPECT_TRUE(k.on);
  EXPECT_EQ(k.name, "a");
  EXPECT_EQ(k.maybe, "b");
  EXPECT_EQ(k.tags, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(k.cuts, (std::vector<double>{1.5, 2000.0}));
  EXPECT_EQ(k.count, -2);
  EXPECT_EQ(k.threads, 4u);
  EXPECT_EQ(k.every, 0.25);
  EXPECT_EQ(k.input, "in.txt");
}

TEST(FlagTable, AbsentFlagsKeepTheirDefaults) {
  AllKinds k;
  EXPECT_FALSE(parse(k.flags, {}));
  EXPECT_FALSE(k.on);
  EXPECT_FALSE(k.maybe.has_value());
  EXPECT_TRUE(k.tags.empty());
  EXPECT_EQ(k.count, 7);
  EXPECT_FALSE(k.threads.has_value());
  EXPECT_FALSE(k.every.has_value());
  EXPECT_TRUE(k.input.empty());
}

TEST(FlagTable, DashIsAPositional) {
  AllKinds k;
  EXPECT_FALSE(parse(k.flags, {"-"}));
  EXPECT_EQ(k.input, "-");
}

TEST(FlagTable, HelpIsReportedAfterTheWholeLine) {
  AllKinds k;
  EXPECT_TRUE(parse(k.flags, {"--on", "-h"}));
  EXPECT_TRUE(k.on);
  AllKinds l;
  EXPECT_TRUE(parse(l.flags, {"--help"}));
  AllKinds m;
  EXPECT_EQ(parse_error(m.flags, {"--help", "--bogus"}),
            "unknown argument: --bogus");
}

TEST(FlagTable, MissingValue) {
  AllKinds k;
  EXPECT_EQ(parse_error(k.flags, {"--name"}), "--name needs a value");
  AllKinds l;
  EXPECT_EQ(parse_error(l.flags, {"--on", "--count"}), "--count needs a value");
}

TEST(FlagTable, UnknownFlagAndExtraPositional) {
  AllKinds k;
  EXPECT_EQ(parse_error(k.flags, {"--thraeds", "2"}),
            "unknown argument: --thraeds");
  AllKinds l;
  EXPECT_EQ(parse_error(l.flags, {"a.txt", "b.txt"}),
            "unknown argument: b.txt");
}

TEST(FlagTable, ValueErrorsNameTheFlag) {
  AllKinds k;
  EXPECT_EQ(parse_error(k.flags, {"--count", "2x"}),
            "--count: expected an integer in [-2, 5], got '2x'");
  AllKinds l;
  EXPECT_EQ(parse_error(l.flags, {"--every", "nan"}),
            "--every: expected a finite number, got 'nan'");
  AllKinds m;
  EXPECT_EQ(parse_error(m.flags, {"--cut", "1", "--cut", "inf"}),
            "--cut: expected a finite number, got 'inf'");
}

TEST(FlagTable, IntegerBounds) {
  for (const auto& [text, ok] :
       std::vector<std::pair<std::string, bool>>{
           {"-3", false}, {"-2", true}, {"5", true}, {"6", false}}) {
    AllKinds k;
    if (ok) {
      EXPECT_FALSE(parse(k.flags, {"--count", text}));
      EXPECT_EQ(k.count, std::stoi(text));
    } else {
      EXPECT_NE(parse_error(k.flags, {"--count", text}), "") << text;
    }
  }
}

TEST(FlagTable, ThreadCountIsCappedBeforeAnyThreadStarts) {
  AllKinds k;
  EXPECT_EQ(parse_error(k.flags, {"--threads", "1025"}),
            "--threads: expected an integer in [0, 1024], got '1025'");
  AllKinds l;
  EXPECT_NE(parse_error(l.flags, {"--threads", "-1"}), "");
}

TEST(FlagTable, UsageListsEveryRow) {
  AllKinds k;
  (void)parse(k.flags, {});
  std::ostringstream os;
  k.flags.print_usage(os);
  const std::string usage = os.str();
  EXPECT_EQ(usage.rfind("usage: prog INPUT [options]\n", 0), 0u) << usage;
  for (const char* row :
       {"--on ", "--name S ", "--maybe S ", "--tag S ", "--cut T ",
        "--count N ", "--threads N ", "--every X ", "INPUT ", "--help "}) {
    EXPECT_NE(usage.find(std::string("  ") + row), std::string::npos) << row;
  }
  EXPECT_NE(usage.find("an integer in [-2, 5]"), std::string::npos);
}

TEST(ParseInteger, AcceptsWholeRealsInRange) {
  EXPECT_EQ(parse_integer("64", 0, 100, "k"), 64);
  EXPECT_EQ(parse_integer("64.0", 0, 100, "k"), 64);
  EXPECT_EQ(parse_integer("1e3", 0, 1000, "k"), 1000);
  EXPECT_EQ(parse_integer("+5", 0, 100, "k"), 5);
  EXPECT_EQ(parse_integer("-0", 0, 100, "k"), 0);
}

TEST(ParseInteger, RejectsWithTheName) {
  for (const char* text :
       {"32.7", "2x", "nan", "inf", "-inf", "", " 5", "+-5", "101", "0x10"}) {
    try {
      (void)parse_integer(text, 0, 100, "Nodes");
      ADD_FAILURE() << "accepted '" << text << "'";
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("Nodes: ", 0), 0u) << e.what();
    }
  }
}

TEST(ParseInteger, RejectsValuesPastTheTargetType) {
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  EXPECT_THROW((void)parse_integer("1e10", 1, kIntMax, "QueueDepth"),
               ConfigError);
  EXPECT_THROW((void)parse_integer("1e12", 1, kIntMax, "Nodes"), ConfigError);
  // Past the int64 range the value is rejected before any cast.
  EXPECT_THROW((void)parse_integer("1e19", 0,
                                   std::numeric_limits<std::int64_t>::max(),
                                   "k"),
               ConfigError);
  EXPECT_THROW((void)parse_integer("1e400", 0, 1, "k"), ConfigError);
}

TEST(ParseReal, AcceptsFiniteRejectsTheRest) {
  EXPECT_DOUBLE_EQ(parse_real("0.25", "x"), 0.25);
  EXPECT_DOUBLE_EQ(parse_real("-1e3", "x"), -1000.0);
  EXPECT_DOUBLE_EQ(parse_real("+2", "x"), 2.0);
  for (const char* text : {"nan", "inf", "-inf", "1e400", "", "1.5s", "abc"}) {
    EXPECT_THROW((void)parse_real(text, "x"), ConfigError) << text;
  }
}

}  // namespace
}  // namespace dmsim::util
