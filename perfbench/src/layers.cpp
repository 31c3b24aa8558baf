#include "layers.hpp"

#include <fstream>
#include <iomanip>

#include "common.hpp"
#include "metrics/metrics.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using namespace dmsim;

const char* LayerTrace::span_name(std::uint32_t name) {
  static constexpr const char* kNames[] = {
      "None",          "JobSubmit",       "SchedPass",    "JobEnd",
      "MonitorUpdate", "GlobalBatchTick", "WalltimeKill", "TraceSample",
      "try_start"};
  return name < std::size(kNames) ? kNames[name] : "?";
}

void LayerTrace::begin_event(std::int64_t start_ns) {
  if (spans_.size() < max_spans_) {
    spans_.push_back(Span{0, 0, start_ns, start_ns});
    open_event_ = static_cast<std::uint32_t>(spans_.size());
  } else {
    open_event_ = 0;
  }
}

void LayerTrace::end_event(sim::EventType type, std::int64_t start_ns,
                           std::int64_t end_ns) {
  Bucket& b = events_[static_cast<std::size_t>(type)];
  ++b.n;
  b.busy_ns += end_ns - start_ns;
  try_start_in_[static_cast<std::size_t>(type)] += pending_try_start_ns_;
  pending_try_start_ns_ = 0;
  if (open_event_ != 0) {
    Span& s = spans_[open_event_ - 1];
    s.name = static_cast<std::uint32_t>(type);
    s.end_ns = end_ns;
  }
  open_event_ = 0;
}

void LayerTrace::try_start(std::int64_t start_ns, std::int64_t end_ns,
                           bool granted) {
  ++try_start_.n;
  try_start_.busy_ns += end_ns - start_ns;
  pending_try_start_ns_ += end_ns - start_ns;
  if (granted) ++grants_;
  if (spans_.size() < max_spans_) {
    spans_.push_back(Span{kTryStart, open_event_, start_ns, end_ns});
  }
}

std::int64_t LayerTrace::handler_busy_ns() const {
  std::int64_t total = 0;
  for (const Bucket& b : events_) total += b.busy_ns;
  return total;
}

void TimingHandler::on_event(const sim::EventPayload& event) {
  const std::int64_t start = now_ns();
  trace_.begin_event(start);
  inner_.on_event(event);
  trace_.end_event(event.type, start, now_ns());
}

bool TimedPolicy::try_start(const trace::JobSpec& spec,
                            cluster::Cluster& cluster) {
  const std::int64_t start = now_ns();
  const bool ok = inner_->try_start(spec, cluster);
  trace_.try_start(start, now_ns(), ok);
  return ok ? granted(spec) : denied(spec, inner_->last_deny_reason());
}

TracedCell run_traced_cell(const harness::CellConfig& cell,
                           const trace::Workload& jobs,
                           const slowdown::AppPool& apps, LayerTrace& trace) {
  DMSIM_ASSERT(!cell.overlay.has_value(),
               "perfbench: traced cells take no what-if overlay");
  cluster::Cluster cluster(cell.system.to_cluster_config());
  TimedPolicy policy(policy::make_policy(cell.policy), trace);
  sim::Engine engine;
  sched::Scheduler scheduler(engine, cluster, policy, &apps, cell.sched);
  TimingHandler handler(scheduler, trace);
  engine.set_handler(&handler);
  scheduler.submit_workload(jobs);

  TracedCell out;
  harness::CellResult& result = out.result;
  result.infeasible_jobs = scheduler.infeasible_count();
  result.valid = result.infeasible_jobs == 0;
  result.provisioned_memory = cluster.total_capacity();
  result.system_cost_usd = metrics::CostModel{}.system_cost(cluster);
  if (!result.valid) return out;

  const snapshot::Components components{&engine, &cluster, &scheduler,
                                        nullptr};
  if (cell.restore_image != nullptr) {
    const std::uint64_t fp =
        cell.trusted_fingerprint.has_value()
            ? *cell.trusted_fingerprint
            : snapshot::config_fingerprint(cluster, cell.sched, jobs);
    cell.restore_image->materialize_trusted(components, fp);
    ++result.checkpoint.restores;
    result.checkpoint.bytes_read += cell.restore_image->size_bytes();
  }
  const Clock::time_point start = Clock::now();
  if (cell.checkpoint.has_value() && cell.checkpoint->every > 0.0) {
    const snapshot::Plan plan{cell.checkpoint->path, cell.checkpoint->every,
                              cell.checkpoint->cuts};
    snapshot::run_with_checkpoints(components, plan, &result.checkpoint);
    scheduler.finalize();
  } else {
    scheduler.run();
  }
  out.run_seconds = seconds_since(start);
  out.slowdowns_fresh = scheduler.slowdowns_fresh();
  result.summary = metrics::summarize(scheduler.records(), scheduler.totals());
  result.totals = scheduler.totals();
  result.avg_allocated_mib = scheduler.avg_allocated_mib();
  result.avg_busy_nodes = scheduler.avg_busy_nodes();
  result.engine_events = engine.executed_events();
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<const LayerTrace*>& traces) {
  std::ofstream out(path);
  out << std::fixed << std::setprecision(3)
      << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const std::vector<LayerTrace::Span>& spans = traces[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const LayerTrace::Span& s = spans[i];
      out << (first ? "" : ",") << "\n{\"name\":\""
          << LayerTrace::span_name(s.name) << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":" << t << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"id\":" << i + 1 << ",\"parent\":" << s.parent
          << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
