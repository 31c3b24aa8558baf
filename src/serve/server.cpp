#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <istream>
#include <list>
#include <ostream>
#include <utility>

#include "cluster/cluster.hpp"
#include "serve/json.hpp"
#include "snapshot/checkpoint.hpp"
#include "util/error.hpp"

namespace dmsim::serve {

namespace {

[[nodiscard]] std::string hex_u64(std::uint64_t v) {
  char buf[17] = {};
  static constexpr char kHex[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[i] = kHex[v & 0xf];
    v >>= 4;
  }
  return std::string(buf, 16);
}

/// Reply prefix `{"id":...,"op":...` — the id is echoed only when given.
[[nodiscard]] std::string reply_head(const std::string& id,
                                     std::string_view op) {
  std::string head = "{";
  if (!id.empty()) {
    head += "\"id\":\"" + json_escape(id) + "\",";
  }
  head += "\"op\":\"";
  head += op;
  head += "\"";
  return head;
}

[[nodiscard]] std::string error_reply(const std::string& id,
                                      std::string_view op,
                                      std::string_view message) {
  return reply_head(id, op) + ",\"status\":\"error\",\"error\":\"" +
         json_escape(message) + "\"}";
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

[[nodiscard]] bool is_blank(const std::string& line) {
  for (const char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

/// The one reply a line over kMaxQueryLineBytes gets before its input is
/// closed.
[[nodiscard]] std::string line_too_long_reply() {
  return error_reply("", "?",
                     "query: line longer than " +
                         std::to_string(kMaxQueryLineBytes) + " bytes");
}

enum class LineRead { Line, TooLong, End };

/// std::getline capped at kMaxQueryLineBytes: reads through the next '\n'
/// (or to EOF) into `line`, newline dropped. A line over the cap reads as
/// TooLong once it passes the cap, without buffering the rest of it.
[[nodiscard]] LineRead read_query_line(std::istream& in, std::string& line) {
  line.clear();
  std::streambuf& buf = *in.rdbuf();
  bool extracted = false;
  for (;;) {
    const int c = buf.sbumpc();
    if (c == std::char_traits<char>::eof()) {
      return extracted ? LineRead::Line : LineRead::End;
    }
    extracted = true;
    if (c == '\n') return LineRead::Line;
    if (line.size() == kMaxQueryLineBytes) return LineRead::TooLong;
    line.push_back(static_cast<char>(c));
  }
}

}  // namespace

Server::Server(ServeScenario scenario, ServerOptions options)
    : scenario_(std::move(scenario)),
      options_(options),
      cache_(options.cache_images),
      runner_(options.threads) {
  DMSIM_ASSERT(scenario_.apps != nullptr, "serve scenario needs an app pool");
  DMSIM_ASSERT(!scenario_.jobs.empty(), "serve scenario needs a workload");
  // Hash the base configuration exactly once; every fork afterwards is a
  // 64-bit compare (materialize_trusted).
  const cluster::Cluster base_cluster(scenario_.system.to_cluster_config());
  base_fp_ =
      snapshot::config_fingerprint(base_cluster, scenario_.sched, scenario_.jobs);
  base_job_ids_.reserve(scenario_.jobs.size());
  for (const trace::JobSpec& job : scenario_.jobs) {
    base_job_ids_.insert(job.id.get());
  }
  dispatcher_ = std::thread(&Server::dispatcher_loop, this);
}

Server::~Server() {
  request_shutdown();
  {
    std::lock_guard<std::mutex> lock(adm_mutex_);
    stop_dispatcher_ = true;
  }
  adm_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

harness::CellConfig Server::make_fork(const Query& query) {
  const std::string& path =
      query.snapshot.empty() ? scenario_.snapshot_path : query.snapshot;
  if (path.empty()) {
    throw ServeError(
        "serve: no snapshot image (start with --snapshot or put a "
        "\"snapshot\" path in the query)");
  }
  std::shared_ptr<const snapshot::Image> image = cache_.get(path);
  if (image->fingerprint() != base_fp_) {
    throw ServeError("serve: snapshot '" + path +
                     "' was taken under a different configuration "
                     "(fingerprint " +
                     hex_u64(image->fingerprint()) + ", scenario " +
                     hex_u64(base_fp_) + ")");
  }
  harness::CellConfig cell;
  cell.system = scenario_.system;
  cell.policy = scenario_.policy;
  cell.sched = scenario_.sched;
  cell.restore_image = std::move(image);
  cell.trusted_fingerprint = base_fp_;
  if (query.sched.has_value()) {
    harness::WhatIfOverlay overlay;
    overlay.sched = query.sched;
    cell.overlay = std::move(overlay);
  }
  return cell;
}

std::vector<harness::CellResult> Server::run_batched(
    std::vector<harness::CellConfig> cells) {
  std::vector<std::future<harness::CellResult>> futures;
  futures.reserve(cells.size());
  {
    std::lock_guard<std::mutex> lock(adm_mutex_);
    if (stop_dispatcher_) throw ServeError("serve: server is shutting down");
    // One lock hold per query: a policy race's variants enter the queue
    // adjacent and land in the same dispatcher batch.
    for (harness::CellConfig& cell : cells) {
      Admission adm;
      adm.cell = std::move(cell);
      futures.push_back(adm.reply.get_future());
      admissions_.push_back(std::move(adm));
    }
  }
  adm_cv_.notify_one();
  std::vector<harness::CellResult> results;
  results.reserve(futures.size());
  for (std::future<harness::CellResult>& f : futures) {
    results.push_back(f.get());
  }
  return results;
}

void Server::dispatcher_loop() {
  for (;;) {
    std::vector<Admission> batch;
    {
      std::unique_lock<std::mutex> lock(adm_mutex_);
      adm_cv_.wait(lock,
                   [this] { return stop_dispatcher_ || !admissions_.empty(); });
      if (admissions_.empty()) return;  // stop requested, queue drained
      batch.reserve(admissions_.size());
      while (!admissions_.empty()) {
        batch.push_back(std::move(admissions_.front()));
        admissions_.pop_front();
      }
    }
    // The runner is empty between rounds, so the batch's handles are its
    // positions. Taking the results drops the cells too, so no fork's config
    // — nor the restore image it shares — outlives its reply.
    std::vector<harness::SweepCellResult> results;
    try {
      for (Admission& adm : batch) {
        (void)runner_.add(std::move(adm.cell), scenario_.jobs, *scenario_.apps);
      }
      runner_.run_all();
      results = runner_.take_results();
    } catch (...) {
      runner_.clear();
      for (Admission& adm : batch) {
        adm.reply.set_exception(std::current_exception());
      }
      continue;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].reply.set_value(std::move(results[i].cell));
    }
  }
}

std::string Server::reply_info(const Query& query) {
  const std::string& path =
      query.snapshot.empty() ? scenario_.snapshot_path : query.snapshot;
  std::string body = reply_head(query.id, "info") + ",\"status\":\"ok\"";
  body += ",\"result\":{";
  body += "\"base_fingerprint\":\"" + hex_u64(base_fp_) + "\"";
  body += ",\"policy\":\"" + std::string(policy::to_string(scenario_.policy)) +
          "\"";
  body += ",\"workload_jobs\":" + std::to_string(scenario_.jobs.size());
  if (!path.empty()) {
    const std::shared_ptr<const snapshot::Image> image = cache_.get(path);
    body += ",\"snapshot\":{";
    body += "\"path\":\"" + json_escape(path) + "\"";
    body += ",\"format_version\":" + std::to_string(image->version());
    body += ",\"fingerprint\":\"" + hex_u64(image->fingerprint()) + "\"";
    body += ",\"payload_checksum\":\"" + hex_u64(image->payload_checksum()) +
            "\"";
    body += ",\"total_bytes\":" + std::to_string(image->size_bytes());
    body += ",\"payload_bytes\":" + std::to_string(image->payload().size());
    body += ",\"sections\":[";
    bool first = true;
    for (const snapshot::SectionInfo& s : image->sections()) {
      if (!first) body += ",";
      first = false;
      body += "{\"name\":\"" + json_escape(s.name) + "\"";
      body += ",\"offset\":" + std::to_string(s.offset);
      body += ",\"size\":" + std::to_string(s.size);
      body += ",\"checksum\":\"" + hex_u64(s.checksum) + "\"}";
    }
    body += "]}";
  }
  body += "}}";
  return body;
}

std::string Server::handle_line(const std::string& line) {
  std::string id;
  std::string_view op = "?";
  try {
    Query query = parse_query(line, scenario_.sched);
    id = query.id;
    op = to_string(query.op);
    switch (query.op) {
      case QueryOp::Info:
        return reply_info(query);
      case QueryOp::Shutdown:
        request_shutdown();
        return reply_head(id, op) +
               ",\"status\":\"ok\",\"result\":{\"stopping\":true}}";
      case QueryOp::Baseline:
      case QueryOp::Submit:
      case QueryOp::Topology: {
        // Reject id collisions here with an error reply; deeper in the
        // stack they are invariant violations (submit_extra_jobs asserts).
        std::unordered_set<std::uint32_t> seen;
        for (const trace::JobSpec& job : query.extra_jobs) {
          if (base_job_ids_.contains(job.id.get()) ||
              !seen.insert(job.id.get()).second) {
            throw ServeError("query: job id " + std::to_string(job.id.get()) +
                             " collides with the base workload or the query");
          }
        }
        const std::size_t tier_count =
            scenario_.system.tiers.empty() ? 1 : scenario_.system.tiers.size();
        for (const cluster::NodeConfig& node : query.extra_nodes) {
          if (node.tier >= tier_count) {
            throw ServeError("query: node tier " + std::to_string(node.tier) +
                             " out of range (scenario has " +
                             std::to_string(tier_count) + " tier(s))");
          }
        }
        harness::CellConfig cell = make_fork(query);
        if (!query.extra_jobs.empty() || !query.extra_nodes.empty()) {
          harness::WhatIfOverlay overlay =
              cell.overlay.value_or(harness::WhatIfOverlay{});
          overlay.extra_jobs = std::move(query.extra_jobs);
          overlay.extra_nodes = std::move(query.extra_nodes);
          cell.overlay = std::move(overlay);
        }
        std::vector<harness::CellConfig> cells;
        cells.push_back(std::move(cell));
        const std::vector<harness::CellResult> results =
            run_batched(std::move(cells));
        return reply_head(id, op) + ",\"status\":\"ok\",\"result\":" +
               harness::cell_result_to_json(results.front()) + "}";
      }
      case QueryOp::Policy: {
        // Race the variants: one fork per policy, admitted as one batch so
        // they share a SweepRunner round; replies keep input order.
        std::vector<harness::CellConfig> cells;
        cells.reserve(query.policies.size());
        for (const policy::PolicyKind kind : query.policies) {
          harness::CellConfig cell = make_fork(query);
          harness::WhatIfOverlay overlay =
              cell.overlay.value_or(harness::WhatIfOverlay{});
          overlay.policy = kind;
          cell.overlay = std::move(overlay);
          cells.push_back(std::move(cell));
        }
        const std::vector<harness::CellResult> results =
            run_batched(std::move(cells));
        std::string body =
            reply_head(id, op) + ",\"status\":\"ok\",\"results\":[";
        for (std::size_t i = 0; i < results.size(); ++i) {
          if (i > 0) body += ",";
          body += "{\"policy\":\"" +
                  std::string(policy::to_string(query.policies[i])) +
                  "\",\"result\":" +
                  harness::cell_result_to_json(results[i]) + "}";
        }
        body += "]}";
        return body;
      }
    }
    return error_reply(id, op, "unhandled op");
  } catch (const Error& e) {
    return error_reply(id, op, e.what());
  } catch (const std::exception& e) {
    return error_reply(id, op, e.what());
  }
}

std::size_t Server::run_once(std::istream& in, std::ostream& out) {
  std::size_t handled = 0;
  std::string line;
  while (!shutdown_requested()) {
    const LineRead read = read_query_line(in, line);
    if (read == LineRead::End) break;
    if (read == LineRead::TooLong) {
      out << line_too_long_reply() << '\n' << std::flush;
      ++handled;
      break;
    }
    if (is_blank(line)) continue;
    out << handle_line(line) << '\n' << std::flush;
    ++handled;
  }
  return handled;
}

void Server::request_shutdown() {
  shutdown_.store(true, std::memory_order_release);
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // Unblock accept(); the serve loop sees shutdown_ and drains.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

void Server::serve_connection(int fd) {
  // `buffer` holds the bytes after the last complete line; its first
  // `scanned` bytes are known to hold no newline, so each byte is searched
  // once however many recv calls a line spans.
  std::string buffer;
  std::size_t scanned = 0;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', scanned);
      if (nl == std::string::npos) break;
      if (nl - start > kMaxQueryLineBytes) {
        (void)send_all(fd, line_too_long_reply() + "\n");
        ::close(fd);
        return;
      }
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      scanned = start;
      if (is_blank(line)) continue;
      const std::string reply = handle_line(line) + "\n";
      if (!send_all(fd, reply)) {
        ::close(fd);
        return;
      }
    }
    buffer.erase(0, start);
    scanned = buffer.size();
    if (buffer.size() > kMaxQueryLineBytes) {
      // No newline within the cap: refuse the line without buffering more.
      (void)send_all(fd, line_too_long_reply() + "\n");
      break;
    }
  }
  ::close(fd);
}

void Server::listen_and_serve(std::ostream& log) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw ServeError("serve: cannot create socket");
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw ServeError("serve: cannot bind 127.0.0.1:" +
                     std::to_string(options_.port) + " (" +
                     std::strerror(err) + ")");
  }
  socklen_t addr_len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    ::close(fd);
    throw ServeError("serve: getsockname failed");
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw ServeError("serve: listen failed");
  }
  bound_port_.store(ntohs(addr.sin_port), std::memory_order_release);
  listen_fd_.store(fd, std::memory_order_release);
  log << "dmsim_serve: listening on 127.0.0.1:" << port() << "\n"
      << std::flush;

  // A connection thread sets `done` as its last act, so the accept loop can
  // join finished ones without blocking: a long-lived daemon holds only the
  // stacks of its open connections, not of every connection it ever served.
  struct Connection {
    std::atomic<bool> done{false};
    std::thread thread;
  };
  std::list<Connection> connections;
  while (!shutdown_requested()) {
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      break;  // listen fd closed by request_shutdown (or fatal error)
    }
    connections.remove_if([](Connection& c) {
      if (!c.done.load(std::memory_order_acquire)) return false;
      c.thread.join();
      return true;
    });
    Connection& c = connections.emplace_back();
    c.thread = std::thread([this, conn, &c] {
      serve_connection(conn);
      c.done.store(true, std::memory_order_release);
    });
  }
  request_shutdown();  // closes the listen fd if still open
  for (Connection& c : connections) c.thread.join();
}

}  // namespace dmsim::serve
