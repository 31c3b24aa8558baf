// Outside-in layer timing: everything here wraps dmsim's public entry points
// and changes nothing inside the library.
//
//   * TimingHandler sits between dmsim::sim::Engine and the Scheduler (installed
//     with Engine::set_handler) and times each typed event it forwards —
//     engine -> scheduler dispatch, bucketed by dmsim::sim::EventType.
//   * TimedPolicy decorates a policy::AllocationPolicy and times try_start.
//     It re-reports the inner decision through granted()/denied() with the
//     inner policy's reason pointer, so the scheduler's deny-replay cache
//     sees exactly the pointers it would see without the decorator.
//   * run_traced_cell rebuilds harness::run_cell's wiring around both, so a
//     traced cell's cell_result_to_json can be compared byte-for-byte with
//     the library's own run_cell.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "policy/policy.hpp"
#include "sim/event_payload.hpp"
#include "snapshot/checkpoint.hpp"

namespace perfbench {

inline constexpr std::size_t kEventTypes = 8;  // dmsim::sim::EventType values

/// Aggregated counts and busy time per layer boundary, plus a bounded span
/// store. One LayerTrace per cell; it is not thread-safe.
class LayerTrace {
 public:
  struct Span {
    std::uint32_t name = 0;    ///< index into span_name()
    std::uint32_t parent = 0;  ///< enclosing span index + 1; 0 = none
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  /// Span names: the event types, then try_start.
  static constexpr std::uint32_t kTryStart = kEventTypes;
  [[nodiscard]] static const char* span_name(std::uint32_t name);

  /// Spans kept in memory per trace by default; aggregates keep counting
  /// past the cap.
  static constexpr std::size_t kMaxSpans = 100'000;
  explicit LayerTrace(std::size_t max_spans = kMaxSpans)
      : max_spans_(max_spans) {}

  void begin_event(std::int64_t start_ns);
  void end_event(dmsim::sim::EventType type, std::int64_t start_ns,
                 std::int64_t end_ns);
  void try_start(std::int64_t start_ns, std::int64_t end_ns, bool granted);

  struct Bucket {
    std::uint64_t n = 0;
    std::int64_t busy_ns = 0;
  };
  [[nodiscard]] const Bucket& event(dmsim::sim::EventType type) const {
    return events_[static_cast<std::size_t>(type)];
  }
  [[nodiscard]] const Bucket& try_starts() const { return try_start_; }
  [[nodiscard]] std::uint64_t grants() const { return grants_; }
  /// try_start time spent inside events of `type` (for self times).
  [[nodiscard]] std::int64_t try_start_ns_in(dmsim::sim::EventType type) const {
    return try_start_in_[static_cast<std::size_t>(type)];
  }
  [[nodiscard]] std::int64_t handler_busy_ns() const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::array<Bucket, kEventTypes> events_{};
  std::array<std::int64_t, kEventTypes> try_start_in_{};
  Bucket try_start_;
  std::uint64_t grants_ = 0;
  std::size_t max_spans_;
  std::vector<Span> spans_;
  std::uint32_t open_event_ = 0;  ///< span index + 1 of the event in flight
  std::int64_t pending_try_start_ns_ = 0;  ///< try_start time in that event
};

/// Forwards every typed event to `inner` and times it into `trace`.
class TimingHandler final : public dmsim::sim::EventHandler {
 public:
  TimingHandler(dmsim::sim::EventHandler& inner, LayerTrace& trace)
      : inner_(inner), trace_(trace) {}
  void on_event(const dmsim::sim::EventPayload& event) override;

 private:
  dmsim::sim::EventHandler& inner_;
  LayerTrace& trace_;
};

/// Forwarding decorator that times try_start.
class TimedPolicy final : public dmsim::policy::AllocationPolicy {
 public:
  TimedPolicy(std::unique_ptr<dmsim::policy::AllocationPolicy> inner,
              LayerTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  [[nodiscard]] dmsim::policy::PolicyKind kind() const noexcept override {
    return inner_->kind();
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] bool dynamic_updates() const noexcept override {
    return inner_->dynamic_updates();
  }
  [[nodiscard]] bool try_start(const dmsim::trace::JobSpec& spec,
                               dmsim::cluster::Cluster& cluster) override;
  [[nodiscard]] bool feasible(
      const dmsim::trace::JobSpec& spec,
      const dmsim::cluster::Cluster& cluster) const override {
    return inner_->feasible(spec, cluster);
  }

 private:
  std::unique_ptr<dmsim::policy::AllocationPolicy> inner_;
  LayerTrace& trace_;
};

/// One traced cell: harness::run_cell's result plus what only the traced
/// wiring can see.
struct TracedCell {
  dmsim::harness::CellResult result;
  bool slowdowns_fresh = false;  ///< Scheduler::slowdowns_fresh() after drain
  double run_seconds = 0.0;      ///< wall time of the simulate phase
};

/// harness::run_cell's wiring with the timing handler and policy decorator
/// spliced in. Supports what the benchmark's traced runs use: fresh runs,
/// periodic checkpoints (cell.checkpoint.every) and unmodified forks from a
/// warm image (cell.restore_image, no overlay).
[[nodiscard]] TracedCell run_traced_cell(const dmsim::harness::CellConfig& cell,
                                         const dmsim::trace::Workload& jobs,
                                         const dmsim::slowdown::AppPool& apps,
                                         LayerTrace& trace);

/// Write the spans of `traces` as a Chrome trace-event document (one track
/// per trace). Returns false when the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<const LayerTrace*>& traces);

}  // namespace perfbench
