// slurm.conf-style configuration files for dmsim (paper Fig. 1b: the
// simulator is driven by a slurm.conf plus a job trace).
//
// Format: `Key=Value` lines, `#` comments, blank lines ignored. Keys are
// case-insensitive; values accept human units (memory: `64G`, `2048M`;
// durations: `30s`, `5min`, `2h`; booleans: yes/no/true/false/1/0).
//
//     # system (Table 4)
//     Nodes            = 1024
//     PctLargeNodes    = 0.25
//     NormalCapacity   = 64G
//     LargeCapacity    = 128G
//     CoresPerNode     = 32
//     LenderPolicy     = memory_nodes_first   # most_free | least_free
//
//     # scheduling
//     AllocationPolicy = dynamic               # baseline | static | dynamic
//     SchedulerInterval = 30s
//     QueueDepth       = 100
//     BackfillDepth    = 100
//     UpdateInterval   = 5min
//     Monitor          = oracle                # sampled:ERR:LAG | adaptive:MIN:MAX:ERR[:US]
//     OomHandling      = fail_restart          # checkpoint_restart
//     GuaranteedAfterFailures = 3
//     PriorityBoostPerFailure = 1
//
//     # optional synthetic workload (otherwise supply SWF + usage traces)
//     Jobs             = 1000
//     TargetLoad       = 0.85
//     PctLargeJobs     = 0.5
//     Overestimation   = 0.6
//     MaxJobNodes      = 128
//     Seed             = 42
//
//     # optional what-if serving (dmsim_serve)
//     ServeThreads     = 4        # simulation pool size (0 = hardware)
//     ServeCacheImages = 4        # warm snapshot images kept in the LRU
//     ServePort        = 0        # TCP port (0 = kernel-assigned)
#pragma once

#include <iosfwd>
#include <string>

#include "core/simulator.hpp"
#include "workload/generator.hpp"

namespace dmsim::harness {

/// dmsim_serve settings (Serve* keys). Other tools ignore them, so one
/// config file can drive a run, a sweep and the serve daemon.
struct ServeFileConfig {
  std::size_t threads = 0;       ///< simulation pool size (0 = hardware)
  std::size_t cache_images = 4;  ///< warm images kept by the LRU cache
  int port = 0;                  ///< TCP port (0 = kernel-assigned)
};

struct FileConfig {
  SimulationConfig simulation;
  workload::SyntheticWorkloadConfig workload;
  bool has_workload = false;  ///< true if any workload key was present
  ServeFileConfig serve;
};

/// Parse a configuration stream/file. Throws ConfigError on unknown keys,
/// malformed values (typos must not silently fall back to defaults) and
/// out-of-range values, naming the key.
[[nodiscard]] FileConfig parse_config(std::istream& in);
[[nodiscard]] FileConfig parse_config_file(const std::string& path);

/// Value parsing helpers (exposed for reuse and direct testing).
[[nodiscard]] MiB parse_memory(const std::string& value);        // "64G", "512M", "1024"
[[nodiscard]] Seconds parse_duration(const std::string& value);  // "30s", "5min", "2h", "300"
[[nodiscard]] bool parse_bool(const std::string& value);         // yes/no/true/false/1/0
[[nodiscard]] policy::PolicyKind parse_policy(const std::string& value);
[[nodiscard]] cluster::LenderPolicy parse_lender_policy(const std::string& value);
[[nodiscard]] sched::OomHandling parse_oom_handling(const std::string& value);
[[nodiscard]] monitor::MonitorConfig parse_monitor(const std::string& value);

}  // namespace dmsim::harness
