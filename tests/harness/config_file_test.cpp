#include "harness/config_file.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/error.hpp"

namespace dmsim::harness {
namespace {

TEST(ParseMemory, UnitsAndDefaults) {
  EXPECT_EQ(parse_memory("1024"), 1024);       // bare MiB
  EXPECT_EQ(parse_memory("64G"), 64 * 1024);
  EXPECT_EQ(parse_memory("64 GB"), 64 * 1024);
  EXPECT_EQ(parse_memory("2GiB"), 2048);
  EXPECT_EQ(parse_memory("1T"), 1024 * 1024);
  EXPECT_EQ(parse_memory("512M"), 512);
  EXPECT_EQ(parse_memory("2048K"), 2);
  EXPECT_EQ(parse_memory("1.5G"), 1536);
}

TEST(ParseMemory, Rejections) {
  EXPECT_THROW(parse_memory("abc"), ConfigError);
  EXPECT_THROW(parse_memory("64X"), ConfigError);
  EXPECT_THROW(parse_memory("-5G"), ConfigError);
}

TEST(ParseDuration, UnitsAndDefaults) {
  EXPECT_DOUBLE_EQ(parse_duration("300"), 300.0);  // bare seconds
  EXPECT_DOUBLE_EQ(parse_duration("30s"), 30.0);
  EXPECT_DOUBLE_EQ(parse_duration("5min"), 300.0);
  EXPECT_DOUBLE_EQ(parse_duration("5 m"), 300.0);
  EXPECT_DOUBLE_EQ(parse_duration("2h"), 7200.0);
  EXPECT_DOUBLE_EQ(parse_duration("1d"), 86400.0);
  EXPECT_DOUBLE_EQ(parse_duration("0.5h"), 1800.0);
}

TEST(ParseDuration, Rejections) {
  EXPECT_THROW(parse_duration("soon"), ConfigError);
  EXPECT_THROW(parse_duration("5 fortnights"), ConfigError);
  EXPECT_THROW(parse_duration("-3s"), ConfigError);
}

TEST(ParseBool, Variants) {
  EXPECT_TRUE(parse_bool("yes"));
  EXPECT_TRUE(parse_bool("TRUE"));
  EXPECT_TRUE(parse_bool("1"));
  EXPECT_TRUE(parse_bool("on"));
  EXPECT_FALSE(parse_bool("no"));
  EXPECT_FALSE(parse_bool("False"));
  EXPECT_FALSE(parse_bool("0"));
  EXPECT_FALSE(parse_bool("off"));
  EXPECT_THROW(parse_bool("maybe"), ConfigError);
}

TEST(ParseEnums, PolicyNames) {
  EXPECT_EQ(parse_policy("baseline"), policy::PolicyKind::Baseline);
  EXPECT_EQ(parse_policy("Static"), policy::PolicyKind::Static);
  EXPECT_EQ(parse_policy("DYNAMIC"), policy::PolicyKind::Dynamic);
  EXPECT_THROW(parse_policy("magic"), ConfigError);
}

TEST(ParseEnums, LenderAndOom) {
  EXPECT_EQ(parse_lender_policy("memory_nodes_first"),
            cluster::LenderPolicy::MemoryNodesFirst);
  EXPECT_EQ(parse_lender_policy("most_free"), cluster::LenderPolicy::MostFree);
  EXPECT_EQ(parse_lender_policy("LEAST_FREE"), cluster::LenderPolicy::LeastFree);
  EXPECT_THROW(parse_lender_policy("greedy"), ConfigError);
  EXPECT_EQ(parse_oom_handling("fail_restart"), sched::OomHandling::FailRestart);
  EXPECT_EQ(parse_oom_handling("C/R"), sched::OomHandling::CheckpointRestart);
  EXPECT_THROW(parse_oom_handling("panic"), ConfigError);
}

TEST(ParseConfig, FullExample) {
  std::istringstream in(R"(
# system
Nodes = 512
PctLargeNodes = 0.25
NormalCapacity = 64G
LargeCapacity = 128G
CoresPerNode = 36
LenderPolicy = most_free

AllocationPolicy = dynamic
SchedulerInterval = 30s
QueueDepth = 50
BackfillDepth = 80
EnableBackfill = yes
UpdateInterval = 5min
OomHandling = checkpoint_restart
GuaranteedAfterFailures = 2
PriorityBoostPerFailure = 1
MaxRestarts = 20
EnforceWalltime = no
SampleInterval = 10min

Jobs = 777            # inline comment
TargetLoad = 0.9
PctLargeJobs = 0.4
Overestimation = 0.6
MaxJobNodes = 64
Seed = 1234
)");
  const FileConfig cfg = parse_config(in);
  EXPECT_EQ(cfg.simulation.system.total_nodes, 512);
  EXPECT_DOUBLE_EQ(cfg.simulation.system.pct_large_nodes, 0.25);
  EXPECT_EQ(cfg.simulation.system.normal_capacity, 64 * 1024);
  EXPECT_EQ(cfg.simulation.system.large_capacity, 128 * 1024);
  EXPECT_EQ(cfg.simulation.system.cores_per_node, 36);
  EXPECT_EQ(cfg.simulation.system.lender_policy,
            cluster::LenderPolicy::MostFree);
  EXPECT_EQ(cfg.simulation.policy, policy::PolicyKind::Dynamic);
  EXPECT_DOUBLE_EQ(cfg.simulation.sched.sched_interval, 30.0);
  EXPECT_EQ(cfg.simulation.sched.queue_depth, 50);
  EXPECT_EQ(cfg.simulation.sched.backfill_depth, 80);
  EXPECT_TRUE(cfg.simulation.sched.enable_backfill);
  EXPECT_DOUBLE_EQ(cfg.simulation.sched.update_interval, 300.0);
  EXPECT_EQ(cfg.simulation.sched.oom_handling,
            sched::OomHandling::CheckpointRestart);
  EXPECT_EQ(cfg.simulation.sched.guaranteed_after_failures, 2);
  EXPECT_EQ(cfg.simulation.sched.priority_boost_per_failure, 1);
  EXPECT_EQ(cfg.simulation.sched.max_restarts, 20);
  EXPECT_FALSE(cfg.simulation.sched.enforce_walltime);
  EXPECT_DOUBLE_EQ(cfg.simulation.sched.sample_interval, 600.0);
  EXPECT_TRUE(cfg.has_workload);
  EXPECT_EQ(cfg.workload.cirne.num_jobs, 777u);
  EXPECT_DOUBLE_EQ(cfg.workload.cirne.target_load, 0.9);
  EXPECT_DOUBLE_EQ(cfg.workload.pct_large_jobs, 0.4);
  EXPECT_DOUBLE_EQ(cfg.workload.overestimation, 0.6);
  EXPECT_EQ(cfg.workload.cirne.max_job_nodes, 64);
  EXPECT_EQ(cfg.workload.seed, 1234u);
  // Workload classes inherit the system's node sizes.
  EXPECT_EQ(cfg.workload.normal_capacity, 64 * 1024);
  EXPECT_EQ(cfg.workload.large_capacity, 128 * 1024);
  // Workload system size follows Nodes.
  EXPECT_EQ(cfg.workload.cirne.system_nodes, 512);
}

TEST(ParseConfig, BackfillAndUpdateModes) {
  std::istringstream in(
      "BackfillMode = conservative\n"
      "UpdateMode = global_batch\n");
  const FileConfig cfg = parse_config(in);
  EXPECT_EQ(cfg.simulation.sched.backfill_mode,
            sched::BackfillMode::Conservative);
  EXPECT_EQ(cfg.simulation.sched.update_mode, sched::UpdateMode::GlobalBatch);

  std::istringstream in2("BackfillMode = off\nUpdateMode = staggered\n");
  const FileConfig cfg2 = parse_config(in2);
  EXPECT_EQ(cfg2.simulation.sched.backfill_mode, sched::BackfillMode::Off);
  EXPECT_EQ(cfg2.simulation.sched.update_mode,
            sched::UpdateMode::PerJobStaggered);

  std::istringstream bad("BackfillMode = eager\n");
  EXPECT_THROW(parse_config(bad), ConfigError);
  std::istringstream bad2("UpdateMode = psychic\n");
  EXPECT_THROW(parse_config(bad2), ConfigError);
}

TEST(ParseConfig, DefaultsWhenEmpty) {
  std::istringstream in("");
  const FileConfig cfg = parse_config(in);
  EXPECT_FALSE(cfg.has_workload);
  EXPECT_EQ(cfg.simulation.policy, policy::PolicyKind::Dynamic);
  EXPECT_EQ(cfg.simulation.sched.queue_depth, 100);
}

TEST(ParseConfig, KeysAreCaseInsensitive) {
  std::istringstream in("NODES=16\nallocationPOLICY=static\n");
  const FileConfig cfg = parse_config(in);
  EXPECT_EQ(cfg.simulation.system.total_nodes, 16);
  EXPECT_EQ(cfg.simulation.policy, policy::PolicyKind::Static);
}

TEST(ParseConfig, UnknownKeyRejected) {
  std::istringstream in("Nodse = 16\n");
  EXPECT_THROW(parse_config(in), ConfigError);
}

TEST(ParseConfig, MissingEqualsRejected) {
  std::istringstream in("Nodes 16\n");
  EXPECT_THROW(parse_config(in), ConfigError);
}

TEST(ParseConfig, EmptyValueRejected) {
  std::istringstream in("Nodes =\n");
  EXPECT_THROW(parse_config(in), ConfigError);
}

TEST(ParseConfig, MemoryTiersParse) {
  std::istringstream in(
      "Nodes = 16\n"
      "MemoryTiers = local:150:90:0.6:local, rack-cxl:450:64:0.4\n");
  const FileConfig cfg = parse_config(in);
  const auto& sys = cfg.simulation.system;
  ASSERT_EQ(sys.tiers.size(), 2u);
  EXPECT_EQ(sys.tiers[0].name, "local");
  EXPECT_DOUBLE_EQ(sys.tiers[0].latency_ns, 150.0);
  EXPECT_DOUBLE_EQ(sys.tiers[0].bandwidth_gbs, 90.0);
  EXPECT_EQ(sys.tiers[0].scope, cluster::TierScope::Local);
  EXPECT_EQ(sys.tiers[1].name, "rack-cxl");
  EXPECT_EQ(sys.tiers[1].scope, cluster::TierScope::Rack);  // default
  ASSERT_EQ(sys.tier_fractions.size(), 2u);
  EXPECT_DOUBLE_EQ(sys.tier_fractions[0], 0.6);
  // The derived cluster config assigns contiguous id blocks: 0.6 * 16 ≈ 10
  // nodes in tier 0, the rest in tier 1 (rack mirrors tier).
  const cluster::ClusterConfig cc = sys.to_cluster_config();
  ASSERT_EQ(cc.tiers.size(), 2u);
  EXPECT_EQ(cc.nodes[0].tier, 0);
  EXPECT_EQ(cc.nodes[9].tier, 0);
  EXPECT_EQ(cc.nodes[10].tier, 1);
  EXPECT_EQ(cc.nodes[15].tier, 1);
  EXPECT_EQ(cc.nodes[15].rack, 1);
}

TEST(ParseConfig, MemoryTiersRejections) {
  {  // fractions must sum to 1
    std::istringstream in("MemoryTiers = a:100:50:0.5, b:200:25:0.4\n");
    EXPECT_THROW(parse_config(in), ConfigError);
  }
  {  // too few fields
    std::istringstream in("MemoryTiers = a:100:50\n");
    EXPECT_THROW(parse_config(in), ConfigError);
  }
  {  // non-positive latency
    std::istringstream in("MemoryTiers = a:0:50:1.0\n");
    EXPECT_THROW(parse_config(in), ConfigError);
  }
  {  // unknown scope
    std::istringstream in("MemoryTiers = a:100:50:1.0:continental\n");
    EXPECT_THROW(parse_config(in), ConfigError);
  }
}

// Each out-of-range value is a ConfigError naming its key (it used to
// abort the process inside cluster, scheduler or workload construction).
void expect_rejected(const std::string& text, const std::string& key) {
  std::istringstream in(text);
  try {
    (void)parse_config(in);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
  }
}

TEST(ParseConfigRange, NodesMustBePositive) {
  expect_rejected("Nodes = 0\n", "Nodes");
  expect_rejected("Nodes = -4\n", "Nodes");
}

TEST(ParseConfigRange, CoresPerNodeMustBePositive) {
  expect_rejected("CoresPerNode = 0\n", "CoresPerNode");
  expect_rejected("CoresPerNode = -1\n", "CoresPerNode");
}

TEST(ParseConfigRange, NormalCapacityMustBePositive) {
  expect_rejected("NormalCapacity = 0\n", "NormalCapacity");
}

TEST(ParseConfigRange, PctLargeNodesIsAFraction) {
  expect_rejected("PctLargeNodes = -0.1\n", "PctLargeNodes");
  expect_rejected("PctLargeNodes = 1.5\n", "PctLargeNodes");
}

TEST(ParseConfigRange, UpdateIntervalMustBePositive) {
  expect_rejected("UpdateInterval = 0\n", "UpdateInterval");
}

TEST(ParseConfigRange, QueueDepthMustBePositive) {
  expect_rejected("QueueDepth = 0\n", "QueueDepth");
  expect_rejected("QueueDepth = -3\n", "QueueDepth");
}

TEST(ParseConfigRange, JobsMustBePositive) {
  expect_rejected("Jobs = 0\n", "Jobs");
  expect_rejected("Jobs = -10\n", "Jobs");
}

TEST(ParseConfigRange, MaxJobNodesWithinTheSystem) {
  expect_rejected("Nodes = 16\nMaxJobNodes = 0\n", "MaxJobNodes");
  expect_rejected("Nodes = 16\nMaxJobNodes = 17\n", "MaxJobNodes");
  // The default MaxJobNodes (128) does not fit a 16-node synthetic system.
  expect_rejected("Nodes = 16\nJobs = 10\n", "MaxJobNodes");
}

TEST(ParseConfigRange, TargetLoadInRange) {
  expect_rejected("TargetLoad = 0\n", "TargetLoad");
  expect_rejected("TargetLoad = 1.6\n", "TargetLoad");
}

// Integer keys take a whole number in range; the message echoes the value
// (a fraction used to be truncated, and a value past int range was an
// undefined double-to-int cast).
TEST(ParseConfigRange, IntegerKeysRejectFractionsAndOverflow) {
  expect_rejected("Nodes = 32.7\n", "Nodes: expected an integer");
  expect_rejected("QueueDepth = 1e10\n", "'1e10'");
  expect_rejected("MaxRestarts = 0\n", "MaxRestarts");
  expect_rejected("BackfillDepth = -1\n", "BackfillDepth");
  expect_rejected("ServeThreads = 1025\n", "ServeThreads");
  expect_rejected("ServePort = 80.5\n", "ServePort");
}

// Workload keys the synthetic generator used to abort on (exit 134).
constexpr const char* kSmallWorkload = "Nodes = 8\nJobs = 5\nMaxJobNodes = 4\n";

TEST(ParseConfigRange, LargeCapacityPositiveWithLargeNodes) {
  // No workload keys (an SWF run): the cluster used to abort on the
  // zero-capacity large nodes.
  expect_rejected("PctLargeNodes = 0.5\nLargeCapacity = 0\n", "LargeCapacity");
}

TEST(ParseConfigRange, LargeCapacityMustExceedNormalCapacity) {
  expect_rejected(std::string(kSmallWorkload) + "LargeCapacity = 32G\n",
                  "LargeCapacity");
  expect_rejected(std::string(kSmallWorkload) + "LargeCapacity = 64G\n",
                  "LargeCapacity");
}

TEST(ParseConfigRange, PctLargeJobsIsAFraction) {
  expect_rejected(std::string(kSmallWorkload) + "PctLargeJobs = 1.5\n",
                  "PctLargeJobs");
  expect_rejected(std::string(kSmallWorkload) + "PctLargeJobs = -0.1\n",
                  "PctLargeJobs");
}

TEST(ParseConfigRange, OverestimationIsNonNegative) {
  expect_rejected(std::string(kSmallWorkload) + "Overestimation = -1\n",
                  "Overestimation");
}

TEST(ParseConfigRange, BoundaryValuesAccepted) {
  std::istringstream in(
      "Nodes = 16\nPctLargeNodes = 1\nMaxJobNodes = 16\nTargetLoad = 1.5\n"
      "Jobs = 1\nQueueDepth = 1\nCoresPerNode = 64.0\nServeThreads = 1024\n"
      "PctLargeJobs = 1\nOverestimation = 0\n");
  const FileConfig cfg = parse_config(in);
  EXPECT_EQ(cfg.workload.cirne.max_job_nodes, 16);
  EXPECT_EQ(cfg.workload.cirne.num_jobs, 1u);
  EXPECT_EQ(cfg.simulation.system.cores_per_node, 64);
  EXPECT_EQ(cfg.serve.threads, 1024u);
}

TEST(ParseConfig, MissingFileThrows) {
  EXPECT_THROW(parse_config_file("/nonexistent/cluster.conf"), ConfigError);
}

TEST(ParseConfig, ParsedConfigRunsEndToEnd) {
  std::istringstream in(R"(
Nodes = 32
PctLargeNodes = 0.5
AllocationPolicy = dynamic
Jobs = 60
TargetLoad = 0.7
PctLargeJobs = 0.3
MaxJobNodes = 8
Seed = 5
)");
  const FileConfig cfg = parse_config(in);
  auto generated = workload::generate_synthetic(cfg.workload);
  Simulator sim(cfg.simulation, generated.jobs, &generated.apps);
  const SimulationResult r = sim.run();
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.summary.completed, 60u);
}

}  // namespace
}  // namespace dmsim::harness
