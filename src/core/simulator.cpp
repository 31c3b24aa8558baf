#include "core/simulator.hpp"

#include <utility>

#include "util/error.hpp"

namespace dmsim {

namespace {

// A registry, when supplied, always lands in the result's telemetry.
[[nodiscard]] harness::CellConfig cell_config(const SimulationConfig& config,
                                              const obs::Counters* counters) {
  harness::CellConfig cell;
  cell.system = config.system;
  cell.policy = config.policy;
  cell.sched = config.sched;
  cell.collect_telemetry = counters != nullptr;
  return cell;
}

}  // namespace

Simulator::Simulator(const SimulationConfig& config, trace::Workload workload,
                     const slowdown::AppPool* apps, obs::TraceSink* sink,
                     obs::Counters* counters)
    : cell_(cell_config(config, counters), std::move(workload), apps, sink,
            counters) {}

Simulator::Simulator(const harness::CellConfig& cell, trace::Workload workload,
                     const slowdown::AppPool* apps, obs::TraceSink* sink,
                     obs::Counters* counters,
                     const std::optional<std::string>& snapshot_path)
    : cell_(cell, std::move(workload), apps, sink, counters, snapshot_path) {}

std::unique_ptr<Simulator> Simulator::restore_from(
    const std::string& snapshot_path, const SimulationConfig& config,
    trace::Workload workload, const slowdown::AppPool* apps,
    obs::TraceSink* sink, obs::Counters* counters) {
  return std::unique_ptr<Simulator>(
      new Simulator(cell_config(config, counters), std::move(workload), apps,
                    sink, counters, snapshot_path));
}

std::unique_ptr<Simulator> Simulator::restore_from(
    std::shared_ptr<const snapshot::Image> image,
    const SimulationConfig& config, trace::Workload workload,
    const slowdown::AppPool* apps, obs::TraceSink* sink,
    obs::Counters* counters) {
  DMSIM_ASSERT(image != nullptr, "restore_from needs an image");
  harness::CellConfig cell = cell_config(config, counters);
  cell.restore_image = std::move(image);
  return std::unique_ptr<Simulator>(new Simulator(
      cell, std::move(workload), apps, sink, counters, std::nullopt));
}

SimulationResult Simulator::run(const snapshot::Plan& plan) {
  SimulationResult result;
  static_cast<harness::CellResult&>(result) = cell_.run(plan);
  result.records = cell_.scheduler().records();
  result.samples = cell_.scheduler().samples();
  return result;
}

}  // namespace dmsim
