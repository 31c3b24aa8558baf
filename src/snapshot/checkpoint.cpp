#include "snapshot/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <optional>
#include <span>

#include "cluster/cluster.hpp"
#include "obs/counters.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "snapshot/format.hpp"
#include "snapshot/image.hpp"
#include "snapshot/snapshot.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dmsim::snapshot {

namespace {

// Version history lives with the public constants in checkpoint.hpp.
constexpr std::uint32_t kVersion = kFormatVersion;

[[nodiscard]] double elapsed_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void check_components(const Components& c) {
  DMSIM_ASSERT(c.engine != nullptr && c.cluster != nullptr &&
                   c.scheduler != nullptr,
               "checkpoint components must name engine, cluster and scheduler");
}

/// config_fingerprint, with the hashing time charged to `stats` as save
/// time: the hash is part of what a save costs.
[[nodiscard]] std::uint64_t fingerprint_for_save(const Components& components,
                                                 Stats* stats) {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t fingerprint = config_fingerprint(components);
  if (stats != nullptr) stats->save_seconds += elapsed_since(start);
  return fingerprint;
}

}  // namespace

namespace detail {

void save_counters_section(Writer& w, const obs::Counters* counters) {
  w.section(kCountersSection);
  w.boolean(counters != nullptr);
  if (counters == nullptr) return;
  const obs::CountersSnapshot snap = counters->snapshot();
  w.u32(static_cast<std::uint32_t>(snap.counters.size()));
  for (const auto& c : snap.counters) {
    w.str(c.name);
    w.u64(c.value);
  }
  w.u32(static_cast<std::uint32_t>(snap.gauges.size()));
  for (const auto& g : snap.gauges) {
    w.str(g.name);
    w.i64(g.value);
    w.i64(g.high_water);
  }
  w.u32(static_cast<std::uint32_t>(snap.histograms.size()));
  for (const auto& h : snap.histograms) {
    w.str(h.name);
    w.u64(h.count);
    w.i64(h.sum);
    w.i64(h.min);
    w.i64(h.max);
    w.u32(static_cast<std::uint32_t>(h.buckets.size()));
    for (const auto& [bucket, n] : h.buckets) {
      w.u32(bucket);
      w.u64(n);
    }
  }
  w.u32(static_cast<std::uint32_t>(snap.series.size()));
  for (const auto& s : snap.series) {
    w.str(s.name);
    w.f64(s.window_width);
    w.u32(static_cast<std::uint32_t>(s.points.size()));
    for (const auto& p : s.points) {
      w.i64(p.window);
      w.u64(p.count);
      w.i64(p.sum);
      w.i64(p.min);
      w.i64(p.max);
    }
  }
}

void restore_counters_section(Reader& r, obs::Counters* counters) {
  r.expect_section(kCountersSection, "counters");
  const bool present = r.boolean();
  if (!present) {
    // The saving run carried no registry. Zero ours so replay-time bumps
    // (workload submission) do not linger as phantom counts.
    if (counters != nullptr) counters->restore(obs::CountersSnapshot{});
    return;
  }
  obs::CountersSnapshot snap;
  const std::uint32_t n_counters = r.u32();
  snap.counters.reserve(n_counters);
  for (std::uint32_t i = 0; i < n_counters; ++i) {
    obs::CountersSnapshot::Counter c;
    c.name = std::string(r.str());
    c.value = r.u64();
    snap.counters.push_back(std::move(c));
  }
  const std::uint32_t n_gauges = r.u32();
  snap.gauges.reserve(n_gauges);
  for (std::uint32_t i = 0; i < n_gauges; ++i) {
    obs::CountersSnapshot::GaugeEntry g;
    g.name = std::string(r.str());
    g.value = r.i64();
    g.high_water = r.i64();
    snap.gauges.push_back(std::move(g));
  }
  const std::uint32_t n_histograms = r.u32();
  snap.histograms.reserve(n_histograms);
  for (std::uint32_t i = 0; i < n_histograms; ++i) {
    obs::CountersSnapshot::HistogramEntry h;
    h.name = std::string(r.str());
    h.count = r.u64();
    h.sum = r.i64();
    h.min = r.i64();
    h.max = r.i64();
    const std::uint32_t n_buckets = r.u32();
    h.buckets.reserve(n_buckets);
    for (std::uint32_t b = 0; b < n_buckets; ++b) {
      const std::uint32_t bucket = r.u32();
      const std::uint64_t count = r.u64();
      h.buckets.emplace_back(bucket, count);
    }
    snap.histograms.push_back(std::move(h));
  }
  const std::uint32_t n_series = r.u32();
  snap.series.reserve(n_series);
  for (std::uint32_t i = 0; i < n_series; ++i) {
    obs::CountersSnapshot::SeriesEntry s;
    s.name = std::string(r.str());
    s.window_width = r.f64();
    const std::uint32_t n_points = r.u32();
    s.points.reserve(n_points);
    for (std::uint32_t p = 0; p < n_points; ++p) {
      obs::TimeSeries::Point point;
      point.window = r.i64();
      point.count = r.u64();
      point.sum = r.i64();
      point.min = r.i64();
      point.max = r.i64();
      s.points.push_back(point);
    }
    snap.series.push_back(std::move(s));
  }
  // A restore target without a registry simply drops the section.
  if (counters != nullptr) counters->restore(snap);
}

}  // namespace detail

void Stats::publish(obs::Counters& registry) const {
  registry.counter("sim.checkpoint.saves") = saves;
  registry.counter("sim.checkpoint.restores") = restores;
  registry.counter("sim.checkpoint.bytes_written") = bytes_written;
  registry.counter("sim.checkpoint.bytes_read") = bytes_read;
  // Phase timers, exported at microsecond resolution like the profiler.
  registry.counter("sim.checkpoint.save_micros") =
      static_cast<std::uint64_t>(save_seconds * 1e6);
  registry.counter("sim.checkpoint.restore_micros") =
      static_cast<std::uint64_t>(restore_seconds * 1e6);
  // Per-save high-water marks as gauges: the largest snapshot written and
  // the slowest single save, invisible in the accumulated totals above.
  registry.gauge("sim.checkpoint.bytes")
      .set(static_cast<std::int64_t>(max_save_bytes));
  registry.gauge("sim.checkpoint.save_us")
      .set(static_cast<std::int64_t>(max_save_seconds * 1e6));
}

std::uint64_t config_fingerprint(const cluster::Cluster& cl,
                                 const sched::SchedulerConfig& sc,
                                 const trace::Workload& jobs) {
  Writer w;
  // Cluster topology + lender policy. Byte-for-byte the same hash input as
  // before the columnar ledger: node count, then (capacity, cores, large)
  // per node in id order — so v2-era fingerprints keep matching. Read
  // straight from the topology columns.
  const std::span<const MiB> capacity = cl.capacity_column();
  const std::span<const std::int32_t> cores = cl.cores_column();
  const std::span<const std::uint8_t> large = cl.large_column();
  w.u32(static_cast<std::uint32_t>(cl.node_count()));
  for (std::size_t i = 0; i < capacity.size(); ++i) {
    w.i64(capacity[i]);
    w.i64(cores[i]);
    w.boolean(large[i] != 0);
  }
  w.u8(static_cast<std::uint8_t>(cl.lender_policy()));
  // Memory-tier topology — appended ONLY when non-degenerate, so every
  // fingerprint computed before tiers existed (necessarily flat) still
  // matches byte for byte and v2/v3-era snapshots keep restoring.
  if (cl.tiered()) {
    w.u32(static_cast<std::uint32_t>(cl.tiers().size()));
    for (const cluster::MemoryTier& t : cl.tiers()) {
      w.str(t.name);
      w.f64(t.latency_ns);
      w.f64(t.bandwidth_gbs);
      w.u8(static_cast<std::uint8_t>(t.scope));
    }
    w.column(cl.tier_column());
    for (const std::uint16_t rk : cl.rack_column()) w.u32(rk);
  }
  // Scheduler configuration.
  w.f64(sc.sched_interval);
  w.i64(sc.queue_depth);
  w.i64(sc.backfill_depth);
  w.boolean(sc.enable_backfill);
  w.u8(static_cast<std::uint8_t>(sc.backfill_mode));
  w.f64(sc.update_interval);
  w.u8(static_cast<std::uint8_t>(sc.update_mode));
  w.u8(static_cast<std::uint8_t>(sc.oom_handling));
  w.i64(sc.guaranteed_after_failures);
  w.i64(sc.priority_boost_per_failure);
  w.i64(sc.max_restarts);
  w.boolean(sc.enforce_walltime);
  w.f64(sc.sample_interval);
  // Monitor model — appended ONLY for non-oracle monitors, so every
  // fingerprint computed before the monitor subsystem existed (necessarily
  // oracle) still matches byte for byte and v2..v4 snapshots keep restoring.
  if (sc.monitor.kind != monitor::MonitorKind::Oracle) {
    w.u8(static_cast<std::uint8_t>(sc.monitor.kind));
    w.f64(sc.monitor.relative_error);
    w.f64(sc.monitor.staleness);
    w.f64(sc.monitor.min_interval);
    w.f64(sc.monitor.max_interval);
    w.f64(sc.monitor.error_bound);
    w.f64(sc.monitor.overhead_us_per_region);
    w.u64(sc.monitor.seed);
  }
  // The full workload: any perturbation (different seed, different trace)
  // changes every downstream decision, so it all goes into the hash.
  w.u64(jobs.size());
  for (const trace::JobSpec& spec : jobs) {
    w.u32(spec.id.get());
    w.f64(spec.submit_time);
    w.i64(spec.num_nodes);
    w.i64(spec.requested_mem);
    w.f64(spec.duration);
    w.f64(spec.walltime);
    w.u32(static_cast<std::uint32_t>(spec.usage.size()));
    for (const trace::UsagePoint& p : spec.usage.points()) {
      w.f64(p.progress);
      w.i64(p.mem);
    }
    w.u32(static_cast<std::uint32_t>(spec.node_usage_scale.size()));
    for (const double s : spec.node_usage_scale) w.f64(s);
    w.i64(spec.app_profile);
    w.u32(spec.preceding_job.get());
    w.f64(spec.think_time);
  }
  return util::fnv1a(w.buffer());
}

std::uint64_t config_fingerprint(const Components& components) {
  check_components(components);
  return config_fingerprint(*components.cluster,
                            components.scheduler->config(),
                            components.scheduler->workload());
}

std::string save_bytes(const Components& components) {
  return save_bytes(components, config_fingerprint(components));
}

namespace {

constexpr std::uint32_t kSectionCount = 5;

/// A serialised snapshot before its checksums: header and payload sections
/// in one buffer, with the payload-size field still zero. Everything in it
/// is fixed once serialise() returns, so seal() may run on another thread.
struct Unsealed {
  std::string bytes;
  std::size_t size_field = 0;
  /// Section i spans [bounds[i], bounds[i + 1]); the last one ends with the
  /// end tag.
  std::array<std::size_t, kSectionCount + 1> bounds{};
};

/// The simulation-thread half of a save: header and every section, written
/// into `buffer` (cleared first; its capacity is reused).
[[nodiscard]] Unsealed serialise(const Components& components,
                                 std::uint64_t fingerprint,
                                 std::string buffer) {
  check_components(components);
  buffer.clear();
  Writer out(std::move(buffer));
  for (const char c : detail::kMagic) out.u8(static_cast<std::uint8_t>(c));
  out.u32(kVersion);
  out.u64(fingerprint);
  Unsealed u;
  u.size_field = out.buffer().size();
  out.u64(0);
  // Section boundaries, recorded as each component writes so the trailer
  // can index the payload without re-parsing it.
  u.bounds[0] = out.buffer().size();
  components.engine->save_state(out);
  u.bounds[1] = out.buffer().size();
  components.cluster->save_state(out);
  u.bounds[2] = out.buffer().size();
  components.scheduler->save_state(out);
  u.bounds[3] = out.buffer().size();
  detail::save_counters_section(out, components.counters);
  u.bounds[4] = out.buffer().size();
  out.section(detail::kEndSection);
  u.bounds[5] = out.buffer().size();
  u.bytes = out.take();
  return u;
}

/// Append the payload checksum and the section-table trailer, and patch the
/// payload-size field: turns serialise() output into save_bytes() output.
/// Header, payload and trailer share one buffer, so the payload is never
/// copied.
[[nodiscard]] std::string seal(Unsealed u) {
  const std::array<std::size_t, kSectionCount + 1>& bounds = u.bounds;
  // One pass over the payload feeds two independent FNV-1a chains, the
  // whole-payload checksum and the current section's: the same values as
  // hashing the payload and then each section separately.
  std::uint64_t payload_checksum = util::kFnv1aBasis;
  std::array<std::uint64_t, kSectionCount> section_checksums{};
  std::array<std::uint32_t, kSectionCount> tags{};
  const char* const data = u.bytes.data();
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    tags[i] = detail::le<std::uint32_t>::load(data + bounds[i]);
    std::uint64_t section_checksum = util::kFnv1aBasis;
    for (std::size_t k = bounds[i]; k < bounds[i + 1]; ++k) {
      payload_checksum = util::fnv1a_step(payload_checksum, data[k]);
      section_checksum = util::fnv1a_step(section_checksum, data[k]);
    }
    section_checksums[i] = section_checksum;
  }

  Writer out(std::move(u.bytes));
  out.u64(payload_checksum);
  // Section table: self-checksummed trailer AFTER the payload checksum (see
  // detail::kTocSection). Readers that predate it stop at the checksum.
  const std::size_t trailer = out.buffer().size();
  out.section(detail::kTocSection);
  out.u32(kSectionCount);
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    out.u32(tags[i]);
    out.u64(bounds[i] - bounds[0]);
    out.u64(bounds[i + 1] - bounds[i]);
    out.u64(section_checksums[i]);
  }
  // Trailer checksum covers the trailer bytes only (the payload checksum
  // field precedes the trailer and already guards the payload).
  out.u64(util::fnv1a(std::string_view(out.buffer()).substr(trailer)));

  std::string bytes = out.take();
  detail::le<std::uint64_t>::store(bytes.data() + u.size_field,
                                   bounds[kSectionCount] - bounds[0]);
  return bytes;
}

/// Write-then-rename so an interrupted save never clobbers the previous
/// (complete) snapshot with a truncated one. The temp file is fsynced
/// before the rename and the directory after it — otherwise a crash right
/// after "success" can surface a renamed-but-unwritten (truncated) file.
void write_file(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      throw SnapshotError("snapshot: cannot open '" + tmp + "' for writing");
    }
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n =
          ::write(fd, bytes.data() + written, bytes.size() - written);
      if (n < 0) {
        ::close(fd);
        throw SnapshotError("snapshot: short write to '" + tmp + "'");
      }
      written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
      ::close(fd);
      throw SnapshotError("snapshot: cannot fsync '" + tmp + "'");
    }
    if (::close(fd) != 0) {
      throw SnapshotError("snapshot: short write to '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw SnapshotError("snapshot: cannot rename '" + tmp + "' to '" + path +
                        "'");
  }
  {
    // Durability of the rename itself requires fsyncing the directory.
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
      // Some filesystems reject directory fsync; the rename is still atomic
      // there, so failure downgrades durability rather than the save.
      (void)::fsync(dfd);
      ::close(dfd);
    }
  }
}

/// Count one completed save of `bytes` bytes that cost the simulation
/// thread `seconds`.
void count_save(Stats* stats, std::size_t bytes, double seconds) {
  if (stats == nullptr) return;
  ++stats->saves;
  stats->bytes_written += bytes;
  stats->save_seconds += seconds;
  stats->max_save_bytes = std::max<std::uint64_t>(stats->max_save_bytes, bytes);
  stats->max_save_seconds = std::max(stats->max_save_seconds, seconds);
}

/// The background half of run_with_checkpoints' saves: seal, write, both
/// fsyncs and the rename of at most one snapshot at a time, while the
/// simulation runs on. join() waits for the in-flight save, counts it in
/// `stats` and rethrows its SnapshotError. The destructor only waits: a run
/// that leaves by exception never leaves a write running behind it, and the
/// destructor never throws. A write error met there is not reported; the
/// exception already leaving the run is, and the failed save is not counted.
class WriteBehind {
 public:
  explicit WriteBehind(Stats* stats) : stats_(stats) {}
  WriteBehind(const WriteBehind&) = delete;
  WriteBehind& operator=(const WriteBehind&) = delete;
  ~WriteBehind() {
    if (pending_.valid()) pending_.wait();
  }

  /// Wait for the in-flight save, if any, and count it in `stats` if its
  /// write succeeded. Its simulation-thread cost is its serialisation plus
  /// this wait. Returns its buffer for reuse.
  std::string join() {
    if (!pending_.valid()) return {};
    const auto start = std::chrono::steady_clock::now();
    std::string buffer = pending_.get();  // rethrows the writer's error
    count_save(stats_, buffer.size(),
               in_flight_seconds_ + elapsed_since(start));
    return buffer;
  }

  /// Hand a serialised snapshot to the writer. The previous save must have
  /// been joined. `seconds` is what serialising it cost the caller.
  void start(std::string path, Unsealed unsealed, double seconds) {
    DMSIM_ASSERT(!pending_.valid(), "join the previous snapshot write first");
    in_flight_seconds_ = seconds;
    pending_ = std::async(std::launch::async,
                          [path = std::move(path),
                           u = std::move(unsealed)]() mutable {
                            std::string bytes = seal(std::move(u));
                            write_file(path, bytes);
                            return bytes;
                          });
  }

 private:
  Stats* stats_;
  std::future<std::string> pending_;
  double in_flight_seconds_ = 0.0;
};

}  // namespace

std::string save_bytes(const Components& components,
                       std::uint64_t fingerprint) {
  return seal(serialise(components, fingerprint, {}));
}

void restore_bytes(std::string_view bytes, const Components& components) {
  check_components(components);
  Image::from_bytes(std::string(bytes))->materialize(components);
}

void save_file(const std::string& path, const Components& components,
               Stats* stats) {
  save_file(path, components, fingerprint_for_save(components, stats), stats);
}

void save_file(const std::string& path, const Components& components,
               std::uint64_t fingerprint, Stats* stats) {
  const auto start = std::chrono::steady_clock::now();
  const std::string bytes = save_bytes(components, fingerprint);
  write_file(path, bytes);
  count_save(stats, bytes.size(), elapsed_since(start));
}

void restore_file(const std::string& path, const Components& components,
                  Stats* stats) {
  const auto start = std::chrono::steady_clock::now();
  std::string bytes = detail::read_file(path);
  const std::size_t total_bytes = bytes.size();
  try {
    check_components(components);
    Image::from_bytes(std::move(bytes))->materialize(components);
  } catch (const SnapshotError& e) {
    // Restores are usually several layers from the CLI flag that named the
    // file; without the path a "checksum mismatch" is unactionable.
    throw SnapshotError("restoring '" + path + "': " + e.what());
  }
  if (stats != nullptr) {
    ++stats->restores;
    stats->bytes_read += total_bytes;
    stats->restore_seconds += elapsed_since(start);
  }
}

void run_with_checkpoints(const Components& components, const Plan& plan,
                          Stats* stats) {
  check_components(components);
  DMSIM_ASSERT(!plan.path.empty() || !plan.active(),
               "checkpoint plan with cuts needs a path");
  constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();
  std::vector<Seconds> cuts = plan.cuts;
  std::sort(cuts.begin(), cuts.end());
  std::size_t ci = 0;
  // Cuts at or before the clock were already taken by the run this one
  // resumed from; re-saving would capture the post-restore state and, worse,
  // loop forever on a cut that no event ever advances past.
  while (ci < cuts.size() && cuts[ci] <= components.engine->now()) ++ci;
  // The configuration is fixed for the whole run, so its hash is too:
  // computed at the first save only.
  std::optional<std::uint64_t> fingerprint;
  Seconds periodic = kInf;
  if (plan.every > 0.0) {
    periodic =
        (std::floor(components.engine->now() / plan.every) + 1.0) * plan.every;
  }
  // Each save joins the previous one before serialising, so saves to one
  // path land in order, and reuses its buffer. Every return joins the last.
  WriteBehind writer(stats);
  for (;;) {
    const Seconds next_cut = ci < cuts.size() ? cuts[ci] : kInf;
    const Seconds target = std::min(next_cut, periodic);
    if (!std::isfinite(target)) {
      components.scheduler->run_ready(kInf);
      writer.join();
      return;
    }
    // run_ready leaves the clock at the last fired event (<= target), which
    // is exactly the mid-run state of an uninterrupted run — the snapshot
    // below is indistinguishable from one cut by luck at this moment.
    components.scheduler->run_ready(target);
    if (next_cut <= target) ++ci;
    while (periodic <= target) periodic += plan.every;
    if (components.engine->empty()) {  // drained: nothing to resume
      writer.join();
      return;
    }
    if (!fingerprint) fingerprint = fingerprint_for_save(components, stats);
    std::string buffer = writer.join();
    const auto start = std::chrono::steady_clock::now();
    Unsealed unsealed = serialise(components, *fingerprint, std::move(buffer));
    writer.start(plan.path, std::move(unsealed), elapsed_since(start));
  }
}

}  // namespace dmsim::snapshot
