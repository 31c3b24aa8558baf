#include "trace/swf.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "util/error.hpp"

namespace dmsim::trace {
namespace {

SwfRecord sample_record() {
  SwfRecord r;
  r.job_number = 17;
  r.submit_time = 120.5;
  r.wait_time = 30;
  r.run_time = 3600;
  r.allocated_procs = 64;
  r.used_memory_kb = 2048;
  r.requested_procs = 64;
  r.requested_time = 7200;
  r.requested_memory_kb = 4096;
  r.status = 1;
  r.user_id = 3;
  return r;
}

TEST(Swf, WriteReadRoundTrip) {
  SwfTrace trace;
  trace.header_comments = {"Computer: dmsim test", "MaxJobs: 2"};
  trace.records.push_back(sample_record());
  SwfRecord r2 = sample_record();
  r2.job_number = 18;
  trace.records.push_back(r2);

  std::stringstream ss;
  write_swf(ss, trace);
  const SwfTrace back = read_swf(ss);
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[0], trace.records[0]);
  EXPECT_EQ(back.records[1], trace.records[1]);
  ASSERT_EQ(back.header_comments.size(), 2u);
  EXPECT_EQ(back.header_comments[0], "Computer: dmsim test");
}

TEST(Swf, ParsesCommentsAndBlankLines) {
  std::istringstream in(
      "; UnixStartTime: 0\n"
      "\n"
      "  ; indented comment\n"
      "1 0 0 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  const SwfTrace t = read_swf(in);
  EXPECT_EQ(t.header_comments.size(), 2u);
  ASSERT_EQ(t.records.size(), 1u);
  EXPECT_EQ(t.records[0].job_number, 1);
  EXPECT_EQ(t.records[0].run_time, 100);
  EXPECT_EQ(t.records[0].requested_time, 200);
}

TEST(Swf, UnknownFieldsAreMinusOne) {
  std::istringstream in(
      "5 10 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1\n");
  const SwfTrace t = read_swf(in);
  ASSERT_EQ(t.records.size(), 1u);
  EXPECT_EQ(t.records[0].run_time, -1);
  EXPECT_EQ(t.records[0].requested_memory_kb, -1);
}

TEST(Swf, ThrowsOnShortLine) {
  std::istringstream in("1 2 3\n");
  EXPECT_THROW(read_swf(in), TraceError);
}

TEST(Swf, ThrowsOnMissingFile) {
  EXPECT_THROW(read_swf_file("/nonexistent/path.swf"), TraceError);
}

TEST(Swf, ToSwfConvertsNodesToProcs) {
  Workload jobs;
  JobSpec j;
  j.id = JobId{42};
  j.submit_time = 100.0;
  j.num_nodes = 4;
  j.requested_mem = 2048;  // MiB per node
  j.duration = 500.0;
  j.walltime = 600.0;
  j.usage = UsageTrace::constant(1024);
  jobs.push_back(j);

  const SwfTrace t = to_swf(jobs, 32);
  ASSERT_EQ(t.records.size(), 1u);
  const SwfRecord& r = t.records[0];
  EXPECT_EQ(r.job_number, 42);
  EXPECT_EQ(r.allocated_procs, 4 * 32);
  EXPECT_EQ(r.requested_time, 600.0);
  // 2048 MiB -> KB per processor: 2048*1024/32.
  EXPECT_EQ(r.requested_memory_kb, 2048 * 1024 / 32);
  EXPECT_EQ(r.used_memory_kb, 1024 * 1024 / 32);
}

TEST(Swf, FromSwfReconstructsJob) {
  SwfTrace t;
  SwfRecord r = sample_record();
  r.requested_procs = 96;  // 3 nodes at 32 cores
  r.requested_memory_kb = 1024;
  t.records.push_back(r);
  const Workload jobs = from_swf(t, 32);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id.get(), 17u);
  EXPECT_EQ(jobs[0].num_nodes, 3);
  EXPECT_EQ(jobs[0].duration, 3600.0);
  // 1024 KB/proc * 32 procs/node / 1024 = 32 MiB per node.
  EXPECT_EQ(jobs[0].requested_mem, 32);
  EXPECT_EQ(jobs[0].usage.peak(), 32);
}

TEST(Swf, FromSwfRoundsNodesUp) {
  SwfTrace t;
  SwfRecord r = sample_record();
  r.requested_procs = 33;  // 33 procs at 32 cores -> 2 nodes
  t.records.push_back(r);
  const Workload jobs = from_swf(t, 32);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].num_nodes, 2);
}

TEST(Swf, RoundTripThroughJobSpecs) {
  Workload jobs;
  for (std::uint32_t i = 1; i <= 5; ++i) {
    JobSpec j;
    j.id = JobId{i};
    j.submit_time = i * 10.0;
    j.num_nodes = static_cast<int>(i);
    j.requested_mem = static_cast<MiB>(i) * 1024;
    j.duration = i * 100.0;
    j.walltime = i * 150.0;
    j.usage = UsageTrace::constant(j.requested_mem);
    jobs.push_back(j);
  }
  const Workload back = from_swf(to_swf(jobs, 32), 32);
  ASSERT_EQ(back.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(back[i].id, jobs[i].id);
    EXPECT_EQ(back[i].num_nodes, jobs[i].num_nodes);
    EXPECT_DOUBLE_EQ(back[i].submit_time, jobs[i].submit_time);
    EXPECT_DOUBLE_EQ(back[i].duration, jobs[i].duration);
    EXPECT_EQ(back[i].requested_mem, jobs[i].requested_mem);
  }
}

std::string swf_line(const std::string& job, const std::string& procs,
                     const std::string& mem_kb, const std::string& preceding) {
  return job + " 0 0 100 " + procs + " -1 -1 " + procs + " 200 " + mem_kb +
         " 1 -1 -1 -1 -1 -1 " + preceding + " -1\n";
}

TEST(Swf, RejectsJobNumbersBeyond32Bits) {
  // Job ids are 32-bit; these used to be truncated to 0 and 1.
  std::istringstream job(swf_line("4294967296", "32", "1024", "-1"));
  EXPECT_THROW((void)read_swf(job), TraceError);
  std::istringstream preceding(swf_line("2", "32", "1024", "4294967297"));
  EXPECT_THROW((void)read_swf(preceding), TraceError);
}

TEST(Swf, RejectsIntegerFieldsBeyondTwoToThe53) {
  std::istringstream in(swf_line("1", "32", "1e30", "-1"));
  try {
    (void)read_swf(in);
    FAIL() << "no error";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("SWF line 1: field 10"),
              std::string::npos)
        << e.what();
  }
}

// A 1e300 s run time parsed fine and then stalled the simulation until it
// was killed. Each time field is capped at 1e9 s when the line is read, so
// no simulation ever sees it.
TEST(Swf, RejectsTimesBeyondOneBillionSeconds) {
  // Fields 3, 4, 9 and 18: wait, run, requested and think time.
  const char* const lines[] = {
      "1 0 1e300 100 32 -1 -1 32 200 1024 1 -1 -1 -1 -1 -1 -1 -1",
      "1 0 0 1e300 32 -1 -1 32 200 1024 1 -1 -1 -1 -1 -1 -1 -1",
      "1 0 0 100 32 -1 -1 32 1e300 1024 1 -1 -1 -1 -1 -1 -1 -1",
      "1 0 0 100 32 -1 -1 32 200 1024 1 -1 -1 -1 -1 -1 0 1e300",
      "1 0 0 1000000001 32 -1 -1 32 200 1024 1 -1 -1 -1 -1 -1 -1 -1",
  };
  const char* const fields[] = {"field 3", "field 4", "field 9", "field 18",
                                "field 4"};
  for (std::size_t i = 0; i < std::size(lines); ++i) {
    std::istringstream in(std::string("; header\n") + lines[i] + "\n");
    try {
      (void)read_swf(in);
      ADD_FAILURE() << "no error for: " << lines[i];
    } catch (const TraceError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("SWF line 2: ") +
                                           fields[i]),
                std::string::npos)
          << e.what();
    }
  }
  // The cap itself and SWF's -1 "unknown" still parse.
  std::istringstream ok(
      "1 0 -1 1000000000 32 -1 -1 32 1e9 1024 1 -1 -1 -1 -1 -1 -1 -1\n");
  const SwfTrace trace = read_swf(ok);
  ASSERT_EQ(trace.records.size(), 1U);
  EXPECT_EQ(trace.records[0].run_time, 1e9);
}

TEST(Swf, FromSwfSaturatesInsteadOfWrapping) {
  // 2^53 processors used to wrap num_nodes negative, and 2^53 KB per
  // processor times 2048 cores overflowed the memory product.
  std::istringstream in(swf_line("1", "9007199254740992", "9007199254740992", "-1"));
  const Workload jobs = from_swf(read_swf(in), 2048);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].num_nodes, std::numeric_limits<int>::max());
  EXPECT_EQ(jobs[0].requested_mem, std::numeric_limits<std::int64_t>::max() / 1024);
}

}  // namespace
}  // namespace dmsim::trace
