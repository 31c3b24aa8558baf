#include "harness/config_file.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>

#include "util/cli.hpp"
#include "util/error.hpp"

namespace dmsim::harness {

namespace {

[[nodiscard]] std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

[[nodiscard]] std::string strip(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return {};
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/// An `int` config key: an integer in [lo, INT_MAX].
[[nodiscard]] int parse_int(const std::string& value, std::int64_t lo,
                            const char* key) {
  return static_cast<int>(util::parse_integer(value, lo, kIntMax, key));
}

/// Split a "<number><suffix>" value; suffix may be empty.
[[nodiscard]] std::pair<double, std::string> split_unit(const std::string& value,
                                                        const char* what) {
  std::size_t pos = 0;
  while (pos < value.size() &&
         (std::isdigit(static_cast<unsigned char>(value[pos])) ||
          value[pos] == '.' || value[pos] == '-' || value[pos] == '+')) {
    ++pos;
  }
  if (pos == 0) {
    throw ConfigError(std::string("invalid ") + what + ": '" + value + "'");
  }
  const double number = util::parse_real(value.substr(0, pos), what);
  return {number, lower(strip(value.substr(pos)))};
}

}  // namespace

MiB parse_memory(const std::string& value) {
  const auto [number, unit] = split_unit(strip(value), "memory size");
  double mib = 0.0;
  if (unit.empty() || unit == "m" || unit == "mb" || unit == "mib") {
    mib = number;
  } else if (unit == "g" || unit == "gb" || unit == "gib") {
    mib = number * 1024.0;
  } else if (unit == "t" || unit == "tb" || unit == "tib") {
    mib = number * 1024.0 * 1024.0;
  } else if (unit == "k" || unit == "kb" || unit == "kib") {
    mib = number / 1024.0;
  } else {
    throw ConfigError("unknown memory unit: '" + unit + "'");
  }
  if (mib < 0) throw ConfigError("memory size must be non-negative: " + value);
  return static_cast<MiB>(std::llround(mib));
}

Seconds parse_duration(const std::string& value) {
  const auto [number, unit] = split_unit(strip(value), "duration");
  double seconds = 0.0;
  if (unit.empty() || unit == "s" || unit == "sec" || unit == "secs" ||
      unit == "seconds") {
    seconds = number;
  } else if (unit == "m" || unit == "min" || unit == "mins" ||
             unit == "minutes") {
    seconds = number * 60.0;
  } else if (unit == "h" || unit == "hr" || unit == "hours") {
    seconds = number * 3600.0;
  } else if (unit == "d" || unit == "days") {
    seconds = number * 86400.0;
  } else {
    throw ConfigError("unknown duration unit: '" + unit + "'");
  }
  if (seconds < 0) throw ConfigError("duration must be non-negative: " + value);
  return seconds;
}

bool parse_bool(const std::string& value) {
  const std::string v = lower(strip(value));
  if (v == "yes" || v == "true" || v == "1" || v == "on") return true;
  if (v == "no" || v == "false" || v == "0" || v == "off") return false;
  throw ConfigError("invalid boolean: '" + value + "'");
}

policy::PolicyKind parse_policy(const std::string& value) {
  const std::string v = lower(strip(value));
  if (v == "baseline") return policy::PolicyKind::Baseline;
  if (v == "static") return policy::PolicyKind::Static;
  if (v == "dynamic") return policy::PolicyKind::Dynamic;
  throw ConfigError("unknown allocation policy: '" + value + "'");
}

cluster::LenderPolicy parse_lender_policy(const std::string& value) {
  const std::string v = lower(strip(value));
  if (v == "memory_nodes_first" || v == "memorynodesfirst") {
    return cluster::LenderPolicy::MemoryNodesFirst;
  }
  if (v == "most_free" || v == "mostfree") return cluster::LenderPolicy::MostFree;
  if (v == "least_free" || v == "leastfree") {
    return cluster::LenderPolicy::LeastFree;
  }
  throw ConfigError("unknown lender policy: '" + value + "'");
}

monitor::MonitorConfig parse_monitor(const std::string& value) {
  std::vector<std::string> fields;
  std::istringstream parts(strip(value));
  std::string field;
  while (std::getline(parts, field, ':')) fields.push_back(strip(field));
  if (fields.empty()) throw ConfigError("empty Monitor value");
  const std::string kind = lower(fields[0]);

  monitor::MonitorConfig cfg;
  if (kind == "oracle") {
    if (fields.size() != 1) {
      throw ConfigError("Monitor=oracle takes no parameters: '" + value + "'");
    }
    return cfg;
  }
  if (kind == "sampled") {
    if (fields.size() != 3) {
      throw ConfigError("invalid Monitor value '" + value +
                        "' (want sampled:relative_error:staleness)");
    }
    cfg.kind = monitor::MonitorKind::Sampled;
    cfg.relative_error = util::parse_real(fields[1], "monitor relative error");
    cfg.staleness = parse_duration(fields[2]);
    if (cfg.relative_error < 0.0 || cfg.relative_error >= 1.0) {
      throw ConfigError("monitor relative error must be in [0, 1): '" + value +
                        "'");
    }
    return cfg;
  }
  if (kind == "adaptive") {
    if (fields.size() < 4 || fields.size() > 5) {
      throw ConfigError(
          "invalid Monitor value '" + value +
          "' (want adaptive:min_interval:max_interval:error_bound"
          "[:overhead_us_per_region])");
    }
    cfg.kind = monitor::MonitorKind::Adaptive;
    cfg.min_interval = parse_duration(fields[1]);
    cfg.max_interval = parse_duration(fields[2]);
    cfg.error_bound = util::parse_real(fields[3], "monitor error bound");
    if (fields.size() == 5) {
      cfg.overhead_us_per_region =
          util::parse_real(fields[4], "monitor overhead");
    }
    if (cfg.min_interval <= 0.0 || cfg.max_interval < cfg.min_interval) {
      throw ConfigError("monitor intervals must satisfy 0 < min <= max: '" +
                        value + "'");
    }
    if (cfg.error_bound <= 0.0) {
      throw ConfigError("monitor error bound must be positive: '" + value +
                        "'");
    }
    if (cfg.overhead_us_per_region < 0.0) {
      throw ConfigError("monitor overhead must be non-negative: '" + value +
                        "'");
    }
    return cfg;
  }
  throw ConfigError("unknown monitor kind: '" + fields[0] + "'");
}

sched::OomHandling parse_oom_handling(const std::string& value) {
  const std::string v = lower(strip(value));
  if (v == "fail_restart" || v == "failrestart" || v == "f/r") {
    return sched::OomHandling::FailRestart;
  }
  if (v == "checkpoint_restart" || v == "checkpointrestart" || v == "c/r") {
    return sched::OomHandling::CheckpointRestart;
  }
  throw ConfigError("unknown OOM handling: '" + value + "'");
}

namespace {

[[nodiscard]] cluster::TierScope parse_tier_scope(const std::string& value) {
  const std::string v = lower(strip(value));
  if (v == "local") return cluster::TierScope::Local;
  if (v == "rack") return cluster::TierScope::Rack;
  if (v == "crossrack" || v == "cross_rack" || v == "cross-rack") {
    return cluster::TierScope::CrossRack;
  }
  throw ConfigError("unknown tier scope: '" + value + "'");
}

/// MemoryTiers = name:latency_ns:bandwidth_gbs:fraction[:scope], ...
/// e.g. "local:150:90:0.6, rack-cxl:450:64:0.4:rack". Fractions must sum
/// to ~1; scope defaults to rack.
void parse_memory_tiers(const std::string& value, SystemConfig& sys) {
  sys.tiers.clear();
  sys.tier_fractions.clear();
  std::istringstream list(value);
  std::string entry;
  double sum = 0.0;
  while (std::getline(list, entry, ',')) {
    entry = strip(entry);
    if (entry.empty()) continue;
    std::vector<std::string> fields;
    std::istringstream parts(entry);
    std::string field;
    while (std::getline(parts, field, ':')) fields.push_back(strip(field));
    if (fields.size() < 4 || fields.size() > 5) {
      throw ConfigError(
          "invalid MemoryTiers entry '" + entry +
          "' (want name:latency_ns:bandwidth_gbs:fraction[:scope])");
    }
    cluster::MemoryTier tier;
    tier.name = fields[0];
    tier.latency_ns = util::parse_real(fields[1], "tier latency");
    tier.bandwidth_gbs = util::parse_real(fields[2], "tier bandwidth");
    const double fraction = util::parse_real(fields[3], "tier fraction");
    if (fields.size() == 5) tier.scope = parse_tier_scope(fields[4]);
    if (tier.name.empty()) {
      throw ConfigError("MemoryTiers entry needs a name: '" + entry + "'");
    }
    if (tier.latency_ns <= 0 || tier.bandwidth_gbs <= 0) {
      throw ConfigError("tier latency/bandwidth must be positive: '" + entry +
                        "'");
    }
    if (fraction <= 0.0 || fraction > 1.0) {
      throw ConfigError("tier fraction must be in (0, 1]: '" + entry + "'");
    }
    sum += fraction;
    sys.tiers.push_back(std::move(tier));
    sys.tier_fractions.push_back(fraction);
  }
  if (sys.tiers.empty()) {
    throw ConfigError("MemoryTiers must name at least one tier");
  }
  if (sys.tiers.size() > 255) {
    throw ConfigError("MemoryTiers supports at most 255 tiers");
  }
  if (std::abs(sum - 1.0) > 1e-6) {
    throw ConfigError("MemoryTiers fractions must sum to 1 (got " +
                      std::to_string(sum) + ")");
  }
}

}  // namespace

FileConfig parse_config(std::istream& in) {
  FileConfig out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip trailing comments, then whitespace.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    const std::string text = strip(line);
    if (text.empty()) continue;
    const auto eq = text.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("config line " + std::to_string(line_no) +
                        ": expected Key=Value, got '" + text + "'");
    }
    const std::string key = lower(strip(text.substr(0, eq)));
    const std::string value = strip(text.substr(eq + 1));
    if (key.empty() || value.empty()) {
      throw ConfigError("config line " + std::to_string(line_no) +
                        ": empty key or value");
    }

    auto& sys = out.simulation.system;
    auto& sch = out.simulation.sched;
    auto& wl = out.workload;

    if (key == "nodes") {
      sys.total_nodes = parse_int(value, 1, "Nodes");
      wl.cirne.system_nodes = sys.total_nodes;
    } else if (key == "pctlargenodes") {
      sys.pct_large_nodes = util::parse_real(value, "PctLargeNodes");
    } else if (key == "normalcapacity") {
      sys.normal_capacity = parse_memory(value);
    } else if (key == "largecapacity") {
      sys.large_capacity = parse_memory(value);
    } else if (key == "corespernode") {
      sys.cores_per_node = parse_int(value, 1, "CoresPerNode");
    } else if (key == "lenderpolicy") {
      sys.lender_policy = parse_lender_policy(value);
    } else if (key == "memorytiers") {
      parse_memory_tiers(value, sys);
    } else if (key == "allocationpolicy") {
      out.simulation.policy = parse_policy(value);
    } else if (key == "schedulerinterval") {
      sch.sched_interval = parse_duration(value);
    } else if (key == "queuedepth") {
      sch.queue_depth = parse_int(value, 1, "QueueDepth");
    } else if (key == "backfilldepth") {
      sch.backfill_depth = parse_int(value, 0, "BackfillDepth");
    } else if (key == "enablebackfill") {
      sch.enable_backfill = parse_bool(value);
    } else if (key == "backfillmode") {
      const std::string v = lower(strip(value));
      if (v == "off") {
        sch.backfill_mode = sched::BackfillMode::Off;
      } else if (v == "easy") {
        sch.backfill_mode = sched::BackfillMode::Easy;
      } else if (v == "conservative") {
        sch.backfill_mode = sched::BackfillMode::Conservative;
      } else {
        throw ConfigError("unknown backfill mode: '" + value + "'");
      }
    } else if (key == "updatemode") {
      const std::string v = lower(strip(value));
      if (v == "per_job" || v == "staggered" || v == "per_job_staggered") {
        sch.update_mode = sched::UpdateMode::PerJobStaggered;
      } else if (v == "global" || v == "global_batch") {
        sch.update_mode = sched::UpdateMode::GlobalBatch;
      } else {
        throw ConfigError("unknown update mode: '" + value + "'");
      }
    } else if (key == "updateinterval") {
      sch.update_interval = parse_duration(value);
    } else if (key == "monitor") {
      sch.monitor = parse_monitor(value);
    } else if (key == "oomhandling") {
      sch.oom_handling = parse_oom_handling(value);
    } else if (key == "guaranteedafterfailures") {
      sch.guaranteed_after_failures =
          parse_int(value, -kIntMax - 1, "GuaranteedAfterFailures");
    } else if (key == "priorityboostperfailure") {
      sch.priority_boost_per_failure =
          parse_int(value, -kIntMax - 1, "PriorityBoostPerFailure");
    } else if (key == "maxrestarts") {
      sch.max_restarts = parse_int(value, 1, "MaxRestarts");
    } else if (key == "enforcewalltime") {
      sch.enforce_walltime = parse_bool(value);
    } else if (key == "sampleinterval") {
      sch.sample_interval = parse_duration(value);
    } else if (key == "jobs") {
      wl.cirne.num_jobs = static_cast<std::size_t>(parse_int(value, 1, "Jobs"));
      out.has_workload = true;
    } else if (key == "targetload") {
      wl.cirne.target_load = util::parse_real(value, "TargetLoad");
      out.has_workload = true;
    } else if (key == "pctlargejobs") {
      wl.pct_large_jobs = util::parse_real(value, "PctLargeJobs");
      out.has_workload = true;
    } else if (key == "overestimation") {
      wl.overestimation = util::parse_real(value, "Overestimation");
      out.has_workload = true;
    } else if (key == "maxjobnodes") {
      wl.cirne.max_job_nodes = parse_int(value, 1, "MaxJobNodes");
      out.has_workload = true;
    } else if (key == "seed") {
      wl.seed = static_cast<std::uint64_t>(util::parse_real(value, "Seed"));
      out.has_workload = true;
    } else if (key == "servethreads") {
      out.serve.threads = static_cast<std::size_t>(
          util::parse_integer(value, 0, util::kMaxThreads, "ServeThreads"));
    } else if (key == "servecacheimages") {
      out.serve.cache_images =
          static_cast<std::size_t>(parse_int(value, 1, "ServeCacheImages"));
    } else if (key == "serveport") {
      out.serve.port =
          static_cast<int>(util::parse_integer(value, 0, 65535, "ServePort"));
    } else {
      throw ConfigError("config line " + std::to_string(line_no) +
                        ": unknown key '" + key + "'");
    }
  }
  // Range checks on the final values, each naming its key: out of range,
  // these abort deep inside cluster, scheduler or workload construction.
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw ConfigError(what);
  };
  const SystemConfig& sys = out.simulation.system;
  require(sys.normal_capacity > 0, "NormalCapacity must be positive");
  require(sys.pct_large_nodes >= 0.0 && sys.pct_large_nodes <= 1.0,
          "PctLargeNodes must be in [0, 1]");
  require(sys.pct_large_nodes == 0.0 || sys.large_capacity > 0,
          "LargeCapacity must be positive when PctLargeNodes > 0");
  require(out.simulation.sched.update_interval > 0.0,
          "UpdateInterval must be positive");
  if (out.has_workload) {
    const workload::CirneConfig& cirne = out.workload.cirne;
    require(cirne.max_job_nodes <= sys.total_nodes,
            "MaxJobNodes must be in [1, Nodes]");
    require(cirne.target_load > 0.0 && cirne.target_load <= 1.5,
            "TargetLoad must be in (0, 1.5]");
    require(sys.large_capacity > sys.normal_capacity,
            "LargeCapacity must exceed NormalCapacity");
    require(out.workload.pct_large_jobs >= 0.0 &&
                out.workload.pct_large_jobs <= 1.0,
            "PctLargeJobs must be in [0, 1]");
    require(out.workload.overestimation >= 0.0,
            "Overestimation must be non-negative");
  }
  // Memory-class boundaries of the workload follow the system's node sizes.
  out.workload.normal_capacity = out.simulation.system.normal_capacity;
  out.workload.large_capacity = out.simulation.system.large_capacity;
  return out;
}

FileConfig parse_config_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open config file: " + path);
  return parse_config(in);
}

}  // namespace dmsim::harness
