#include "runtime/experiment.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.h"

namespace rcbr::runtime {
namespace {

ExperimentArgs Parse(std::vector<std::string> argv) {
  std::vector<char*> raw;
  raw.reserve(argv.size() + 1);
  raw.push_back(const_cast<char*>("experiment"));
  for (std::string& a : argv) raw.push_back(a.data());
  return ParseExperimentArgs(static_cast<int>(raw.size()), raw.data());
}

TEST(ExperimentArgs, DefaultsWithNoFlags) {
  const ExperimentArgs args = Parse({});
  EXPECT_EQ(args.frames, 0);
  EXPECT_EQ(args.seed, 20260706u);
  EXPECT_EQ(args.threads, 0u);
  EXPECT_FALSE(args.quick);
  EXPECT_TRUE(args.write_json);
  EXPECT_EQ(args.json_dir, ".");
  EXPECT_TRUE(args.trace_dir.empty());
  EXPECT_TRUE(args.ts_dir.empty());
  EXPECT_EQ(args.ts_window, 1.0);
  EXPECT_EQ(args.flight_events, 0u);
  EXPECT_FALSE(args.progress);
}

TEST(ExperimentArgs, ParsesEveryFlag) {
  const ExperimentArgs args =
      Parse({"--frames=1000", "--seed=7", "--threads=4", "--quick",
             "--no-json", "--trace-events=128", "--ts-dir=.",
             "--ts-window=0.5", "--flight-events=256",
             "--progress"});
  EXPECT_EQ(args.frames, 1000);
  EXPECT_EQ(args.seed, 7u);
  EXPECT_EQ(args.threads, 4u);
  EXPECT_TRUE(args.quick);
  EXPECT_FALSE(args.write_json);
  EXPECT_EQ(args.trace_events, 128u);
  EXPECT_EQ(args.ts_dir, ".");
  EXPECT_EQ(args.ts_window, 0.5);
  EXPECT_EQ(args.flight_events, 256u);
  EXPECT_TRUE(args.progress);
}

TEST(ExperimentArgs, RejectsUnknownFlagsAndPositionals) {
  EXPECT_THROW(Parse({"--france=1000"}), InvalidArgument);
  EXPECT_THROW(Parse({"--threads"}), InvalidArgument);  // missing '='
  EXPECT_THROW(Parse({"extra"}), InvalidArgument);
  EXPECT_THROW(Parse({"--quick=1"}), InvalidArgument);
}

TEST(ExperimentArgs, RejectsNonNumericValues) {
  EXPECT_THROW(Parse({"--threads=two"}), InvalidArgument);
  EXPECT_THROW(Parse({"--seed=0x10"}), InvalidArgument);
  EXPECT_THROW(Parse({"--frames=12.5"}), InvalidArgument);
  EXPECT_THROW(Parse({"--frames="}), InvalidArgument);
  EXPECT_THROW(Parse({"--trace-events=4k"}), InvalidArgument);
}

TEST(ExperimentArgs, RejectsNegativeAndOverflowingValues) {
  EXPECT_THROW(Parse({"--threads=-1"}), InvalidArgument);
  EXPECT_THROW(Parse({"--seed=-7"}), InvalidArgument);
  EXPECT_THROW(Parse({"--frames=-1000"}), InvalidArgument);
  EXPECT_THROW(Parse({"--seed=99999999999999999999999999"}),
               InvalidArgument);
}

TEST(ExperimentArgs, ErrorNamesTheOffendingFlag) {
  try {
    Parse({"--threads=abc"});
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos);
  }
}

TEST(ExperimentArgs, RejectsMissingOutputDirectories) {
  EXPECT_THROW(Parse({"--json-dir=/nonexistent/rcbr-out"}),
               InvalidArgument);
  EXPECT_THROW(Parse({"--trace-dir=/nonexistent/rcbr-out"}),
               InvalidArgument);
  EXPECT_THROW(Parse({"--ts-dir=/nonexistent/rcbr-out"}), InvalidArgument);
  // A path that exists but is a file, not a directory.
  EXPECT_THROW(Parse({"--json-dir=/proc/version"}), InvalidArgument);
}

TEST(ExperimentArgs, TsWindowMustBeAPositiveFiniteNumber) {
  EXPECT_THROW(Parse({"--ts-window=0"}), InvalidArgument);
  EXPECT_THROW(Parse({"--ts-window=-2"}), InvalidArgument);
  EXPECT_THROW(Parse({"--ts-window=abc"}), InvalidArgument);
  EXPECT_THROW(Parse({"--ts-window="}), InvalidArgument);
  EXPECT_THROW(Parse({"--ts-window=1.5x"}), InvalidArgument);
  EXPECT_THROW(Parse({"--ts-window=inf"}), InvalidArgument);
  EXPECT_THROW(Parse({"--ts-window=nan"}), InvalidArgument);
  EXPECT_EQ(Parse({"--ts-window=0.25"}).ts_window, 0.25);
}

TEST(ExperimentArgs, TraceAndFlightEventsAreStrictIntegers) {
  EXPECT_THROW(Parse({"--trace-events=-1"}), InvalidArgument);
  EXPECT_THROW(Parse({"--trace-events=2.5"}), InvalidArgument);
  EXPECT_THROW(Parse({"--flight-events=-8"}), InvalidArgument);
  EXPECT_THROW(Parse({"--flight-events=4k"}), InvalidArgument);
  // 0 is a valid value for both: no trace head, flight recorder off.
  EXPECT_EQ(Parse({"--trace-events=0"}).trace_events, 0u);
  EXPECT_EQ(Parse({"--flight-events=0"}).flight_events, 0u);
}

TEST(ExperimentArgs, NoJsonSkipsJsonDirValidation) {
  // --no-json means the directory is never written, so a bogus --json-dir
  // must not fail the run.
  const ExperimentArgs args =
      Parse({"--json-dir=/nonexistent/rcbr-out", "--no-json"});
  EXPECT_FALSE(args.write_json);
}

TEST(ExperimentArgs, AcceptsWritableDirectories) {
  const ExperimentArgs args = Parse({"--json-dir=.", "--trace-dir=."});
  EXPECT_EQ(args.json_dir, ".");
  EXPECT_EQ(args.trace_dir, ".");
}

TEST(ExperimentArgs, ParsesLadderFlags) {
  const ExperimentArgs args =
      Parse({"--ladder-rungs=1,0.7,0.5", "--ladder-utilities=1,0.8,0.6"});
  EXPECT_EQ(args.ladder_rungs, (std::vector<double>{1.0, 0.7, 0.5}));
  EXPECT_EQ(args.ladder_utilities, (std::vector<double>{1.0, 0.8, 0.6}));
  // Default: no ladder.
  EXPECT_TRUE(Parse({}).ladder_rungs.empty());
  EXPECT_TRUE(Parse({}).ladder_utilities.empty());
}

TEST(ExperimentArgs, LadderFlagOrderDoesNotMatter) {
  // Cross-field checks run after the parse loop, so utilities may come
  // first on the command line.
  const ExperimentArgs args =
      Parse({"--ladder-utilities=1,0.8", "--ladder-rungs=1,0.7"});
  EXPECT_EQ(args.ladder_rungs, (std::vector<double>{1.0, 0.7}));
  EXPECT_EQ(args.ladder_utilities, (std::vector<double>{1.0, 0.8}));
}

TEST(ExperimentArgs, RejectsMalformedLadderLists) {
  EXPECT_THROW(Parse({"--ladder-rungs="}), InvalidArgument);  // depth 0
  EXPECT_THROW(Parse({"--ladder-rungs=1,0.7,"}), InvalidArgument);
  EXPECT_THROW(Parse({"--ladder-rungs=1,,0.5"}), InvalidArgument);
  EXPECT_THROW(Parse({"--ladder-rungs=1;0.7"}), InvalidArgument);
  EXPECT_THROW(Parse({"--ladder-rungs=1,0.7x"}), InvalidArgument);
  EXPECT_THROW(Parse({"--ladder-rungs=full,half"}), InvalidArgument);
}

TEST(ExperimentArgs, RejectsInvalidRungScales) {
  EXPECT_THROW(Parse({"--ladder-rungs=0.9,0.5"}), InvalidArgument);
  EXPECT_THROW(Parse({"--ladder-rungs=1,0.5,0.7"}), InvalidArgument);
  EXPECT_THROW(Parse({"--ladder-rungs=1,-0.5"}), InvalidArgument);
  EXPECT_THROW(Parse({"--ladder-rungs=1,0"}), InvalidArgument);
  EXPECT_THROW(Parse({"--ladder-rungs=1,nan"}), InvalidArgument);
  EXPECT_THROW(Parse({"--ladder-rungs=1,inf"}), InvalidArgument);
}

TEST(ExperimentArgs, RejectsInvalidUtilities) {
  // Utilities alone are meaningless.
  EXPECT_THROW(Parse({"--ladder-utilities=1,0.8"}), InvalidArgument);
  EXPECT_THROW(Parse({"--ladder-rungs=1,0.7", "--ladder-utilities=1"}),
               InvalidArgument);
  EXPECT_THROW(Parse({"--ladder-rungs=1,0.7", "--ladder-utilities=1,-1"}),
               InvalidArgument);
  EXPECT_THROW(
      Parse({"--ladder-rungs=1,0.7", "--ladder-utilities=1,nan"}),
      InvalidArgument);
  // Zero utility is a valid "best effort" rung.
  EXPECT_EQ(Parse({"--ladder-rungs=1,0.7", "--ladder-utilities=1,0"})
                .ladder_utilities,
            (std::vector<double>{1.0, 0.0}));
}

TEST(ExperimentArgs, ErrorNamesTheLadderFlag) {
  try {
    Parse({"--ladder-rungs=1,0.5,0.7"});
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--ladder-rungs"),
              std::string::npos);
  }
}

TEST(ExperimentArgsDeathTest, InvalidLadderExitsWithStatus2) {
  // The OrExit wrapper turns the strict-parse throw into the harness's
  // exit-2 contract.
  std::vector<char*> raw;
  raw.push_back(const_cast<char*>("experiment"));
  raw.push_back(const_cast<char*>("--ladder-rungs="));
  EXPECT_EXIT(ParseExperimentArgsOrExit(static_cast<int>(raw.size()),
                                        raw.data()),
              testing::ExitedWithCode(2), "--ladder-rungs");
}

}  // namespace
}  // namespace rcbr::runtime
