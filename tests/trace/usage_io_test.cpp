#include "trace/usage_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/google_usage.hpp"

namespace dmsim::trace {
namespace {

UsageTraceMap sample_map() {
  UsageTraceMap m;
  m.emplace(1, JobUsage{UsageTrace({{0.0, 100}, {0.5, 200}, {0.9, 50}}), {}});
  m.emplace(7, JobUsage{UsageTrace::constant(4096), {1.0, 0.75, 0.5}});
  m.emplace(3, JobUsage{UsageTrace({{0.0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}}), {}});
  return m;
}

TEST(UsageIo, WriteReadRoundTrip) {
  const UsageTraceMap original = sample_map();
  std::stringstream ss;
  write_usage_traces(ss, original);
  const UsageTraceMap back = read_usage_traces(ss);
  ASSERT_EQ(back.size(), original.size());
  for (const auto& [id, u] : original) {
    ASSERT_TRUE(back.contains(id)) << id;
    const JobUsage& b = back.at(id);
    ASSERT_EQ(b.trace.size(), u.trace.size());
    for (std::size_t i = 0; i < u.trace.size(); ++i) {
      EXPECT_DOUBLE_EQ(b.trace.points()[i].progress, u.trace.points()[i].progress);
      EXPECT_EQ(b.trace.points()[i].mem, u.trace.points()[i].mem);
    }
    EXPECT_EQ(b.node_scales, u.node_scales);
  }
}

TEST(UsageIo, OutputIsCanonicallyOrdered) {
  std::stringstream ss;
  write_usage_traces(ss, sample_map());
  const std::string text = ss.str();
  EXPECT_LT(text.find("job 1 "), text.find("job 3 "));
  EXPECT_LT(text.find("job 3 "), text.find("job 7 "));
}

TEST(UsageIo, CommentsAndBlankLinesIgnored) {
  std::istringstream in(
      "# header comment\n"
      "\n"
      "job 5 2\n"
      "0 100\n"
      "# interleaved comment\n"
      "0.5 200\n");
  const UsageTraceMap m = read_usage_traces(in);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m.at(5).trace.at(0.75), 200);
}

TEST(UsageIo, ThrowsOnTruncatedBlock) {
  std::istringstream in("job 1 3\n0 100\n0.5 200\n");
  EXPECT_THROW(read_usage_traces(in), TraceError);
}

TEST(UsageIo, ThrowsOnDuplicateJob) {
  std::istringstream in("job 1 1\n0 100\njob 1 1\n0 200\n");
  EXPECT_THROW(read_usage_traces(in), TraceError);
}

TEST(UsageIo, ThrowsOnPointOutsideBlock) {
  std::istringstream in("0.5 200\n");
  EXPECT_THROW(read_usage_traces(in), TraceError);
}

TEST(UsageIo, ThrowsOnMalformedHeader) {
  std::istringstream in("job x 2\n");
  EXPECT_THROW(read_usage_traces(in), TraceError);
}

TEST(UsageIo, ThrowsOnMissingFile) {
  EXPECT_THROW(read_usage_traces_file("/nonexistent/usage.txt"), TraceError);
}

TEST(UsageIo, CollectAndAttachRoundTrip) {
  Workload jobs;
  for (std::uint32_t i = 1; i <= 4; ++i) {
    JobSpec j;
    j.id = JobId{i};
    j.usage = UsageTrace({{0.0, static_cast<MiB>(i * 100)},
                          {0.5, static_cast<MiB>(i * 50)}});
    if (i % 2 == 0) j.node_usage_scale = {1.0, 0.6};
    jobs.push_back(std::move(j));
  }
  const UsageTraceMap collected = collect_usage_traces(jobs);
  EXPECT_EQ(collected.size(), 4u);

  // Blank the workload, then re-attach.
  Workload blank = jobs;
  for (auto& j : blank) {
    j.usage = UsageTrace::constant(1);
    j.node_usage_scale.clear();
  }
  EXPECT_EQ(attach_usage_traces(blank, collected), 4u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(blank[i].usage.peak(), jobs[i].usage.peak());
    EXPECT_EQ(blank[i].node_usage_scale, jobs[i].node_usage_scale);
  }
}

TEST(UsageIo, AttachSkipsUnknownJobs) {
  Workload jobs;
  JobSpec j;
  j.id = JobId{99};
  j.usage = UsageTrace::constant(7);
  jobs.push_back(std::move(j));
  const UsageTraceMap traces = sample_map();  // no job 99
  EXPECT_EQ(attach_usage_traces(jobs, traces), 0u);
  EXPECT_EQ(jobs[0].usage.peak(), 7);
}

TEST(UsageIo, RoundTripsGeneratedLibraryShapes) {
  // Property: shapes from the Google-style generator survive serialization.
  const auto lib =
      workload::GoogleUsageLibrary::synthetic(util::Rng(77), 16);
  UsageTraceMap m;
  for (std::size_t i = 0; i < lib.size(); ++i) {
    m.emplace(static_cast<std::uint32_t>(i + 1),
              JobUsage{lib.instantiate(i, 12345), {}});
  }
  std::stringstream ss;
  write_usage_traces(ss, m);
  const UsageTraceMap back = read_usage_traces(ss);
  ASSERT_EQ(back.size(), m.size());
  for (const auto& [id, u] : m) {
    EXPECT_EQ(back.at(id).trace.peak(), u.trace.peak());
    EXPECT_DOUBLE_EQ(back.at(id).trace.average(), u.trace.average());
  }
}

TEST(UsageIo, ScalesRoundTrip) {
  UsageTraceMap m;
  m.emplace(11, JobUsage{UsageTrace::constant(100), {1.0, 0.8, 0.55}});
  std::stringstream ss;
  write_usage_traces(ss, m);
  const UsageTraceMap back = read_usage_traces(ss);
  ASSERT_EQ(back.at(11).node_scales,
            (std::vector<double>{1.0, 0.8, 0.55}));
}

TEST(UsageIo, RejectsScalesOutOfRange) {
  std::istringstream in("job 1 1\nscales 2 1.0 1.5\n0 100\n");
  EXPECT_THROW(read_usage_traces(in), TraceError);
}

TEST(UsageIo, RejectsScalesAfterDataPoints) {
  std::istringstream in("job 1 2\n0 100\nscales 1 0.5\n0.5 50\n");
  EXPECT_THROW(read_usage_traces(in), TraceError);
}

// Bad input is a TraceError naming its line, never an abort or a
// header-sized allocation. Returns the error message ("" when none).
std::string usage_error(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)read_usage_traces(in);
  } catch (const TraceError& e) {
    return e.what();
  }
  return "";
}

TEST(UsageIo, RejectsAFirstPointAfterProgressZero) {
  EXPECT_NE(usage_error("job 1 2\n0.5 100\n0.2 50\n").find("line 2"),
            std::string::npos);
}

TEST(UsageIo, RejectsProgressThatDoesNotIncrease) {
  EXPECT_NE(usage_error("job 1 3\n0 100\n0.5 50\n0.5 60\n").find("line 4"),
            std::string::npos);
}

TEST(UsageIo, RejectsProgressBeyondOne) {
  EXPECT_NE(usage_error("job 1 2\n0 100\n1.5 50\n").find("line 3"),
            std::string::npos);
}

TEST(UsageIo, RejectsNegativeMemory) {
  EXPECT_NE(usage_error("job 1 2\n0 100\n0.5 -1\n").find("line 3"),
            std::string::npos);
}

TEST(UsageIo, HugePointCountIsAnErrorNotAnAllocation) {
  // Neither count is reserved up front: both blocks simply end early.
  EXPECT_NE(usage_error("job 1 1000000000000\n0 5\n").find("ended early"),
            std::string::npos);
  EXPECT_NE(usage_error("job 1 100000000\n0 5\n").find("ended early"),
            std::string::npos);
}

TEST(UsageIo, HugeScalesCountIsAnErrorNotAnAllocation) {
  EXPECT_NE(usage_error("job 1 1\nscales 100000000000 1\n0 5\n").find("line 2"),
            std::string::npos);
}

TEST(UsageIo, RejectsJobIdsBeyond32Bits) {
  EXPECT_NE(usage_error("job 4294967296 1\n0 5\n").find("line 1"),
            std::string::npos);
  // The all-ones id is the invalid-job sentinel.
  EXPECT_NE(usage_error("job 4294967295 1\n0 5\n").find("line 1"),
            std::string::npos);
}

}  // namespace
}  // namespace dmsim::trace
