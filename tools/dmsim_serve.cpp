// dmsim_serve — what-if provisioning service over a warm snapshot image.
//
// Loads the scenario (config + synthetic workload), opens the snapshot once
// as an immutable snapshot::Image, and answers newline-delimited JSON
// queries (see src/serve/query.hpp) by forking the image: extra job
// submissions, policy races, scheduler-config swaps and topology edits,
// each simulated to completion on a shared SweepRunner pool.
//
//   dmsim_serve --config cluster.conf --snapshot run.snap --once < queries
//   dmsim_serve --config cluster.conf --snapshot run.snap --port 0
//   dmsim_serve --connect 127.0.0.1:PORT --queries q.ndjson --concurrency 64
//
// The client mode exists for tests and CI: it fires every query on its own
// connection (up to --concurrency at a time) and prints the replies in
// input order, so its output is diffable against a --once run of the same
// query file regardless of scheduling.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/config_file.hpp"
#include "serve/server.hpp"
#include "slowdown/profile_io.hpp"
#include "util/cli.hpp"
#include "workload/generator.hpp"

namespace {

using namespace dmsim;

struct Options {
  std::string config_path;
  std::string snapshot_path;
  std::optional<std::string> profiles_path;
  bool once = false;
  std::optional<int> port;
  std::optional<std::size_t> threads;
  std::optional<std::size_t> cache_images;
  // Client mode.
  std::string connect;  ///< "host:port"; non-empty selects client mode
  std::string queries_path;
  std::size_t concurrency = 16;
};

[[nodiscard]] Options parse_args(int argc, char** argv) {
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  Options opt;
  util::FlagTable flags({"--config FILE --snapshot FILE [options]",
                         "--connect HOST:PORT --queries FILE [options]"});
  flags.text("--config", "FILE", "scenario configuration (required to serve)",
             opt.config_path)
      .text("--snapshot", "FILE", "default warm image queries fork (required)",
            opt.snapshot_path)
      .text("--profiles", "FILE",
            "application profiles for the slowdown model", opt.profiles_path)
      .flag("--once", "answer queries from stdin, reply on stdout, exit",
            opt.once)
      .integer("--port", "N", "TCP port (default: config ServePort; 0 = any)",
               0, 65535, opt.port)
      .integer("--threads", "N", "simulation pool size (default: ServeThreads)",
               0, util::kMaxThreads, opt.threads)
      .integer("--cache", "N", "warm images kept in the LRU (default: 4)", 1,
               kIntMax, opt.cache_images)
      .text("--connect", "H:P", "client mode: send queries to a running daemon",
            opt.connect)
      .text("--queries", "FILE", "client mode: NDJSON query file ('-' = stdin)",
            opt.queries_path)
      .integer("--concurrency", "N",
               "client mode: parallel connections (default 16)", 1,
               util::kMaxThreads, opt.concurrency);
  flags.parse_or_exit(argc, argv, [&] {
    if (!opt.connect.empty()) {
      if (opt.queries_path.empty()) {
        throw ConfigError("--connect needs --queries");
      }
      return;
    }
    if (opt.config_path.empty()) throw ConfigError("--config is required");
    if (opt.snapshot_path.empty()) {
      throw ConfigError("--snapshot is required");
    }
  });
  return opt;
}

// ---------------------------------------------------------------------------
// Client mode: one connection per query, replies printed in input order.

[[nodiscard]] int connect_to(const std::string& target) {
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    throw ConfigError("--connect expects HOST:PORT");
  }
  const std::string host = target.substr(0, colon);
  const auto port =
      util::parse_integer(target.substr(colon + 1), 1, 65535, "--connect port");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw ConfigError("client: cannot create socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw ConfigError("client: bad host '" + host + "' (IPv4 only)");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw ConfigError("client: cannot connect to " + target + " (" +
                      std::strerror(err) + ")");
  }
  return fd;
}

[[nodiscard]] std::string roundtrip(const std::string& target,
                                    const std::string& query) {
  const int fd = connect_to(target);
  const std::string out = query + "\n";
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      throw ConfigError("client: send failed");
    }
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    reply.append(chunk, static_cast<std::size_t>(n));
    if (reply.find('\n') != std::string::npos) break;
  }
  ::close(fd);
  const std::size_t nl = reply.find('\n');
  if (nl == std::string::npos) {
    throw ConfigError("client: no reply for query: " + query);
  }
  return reply.substr(0, nl);
}

int run_client(const Options& opt) {
  std::vector<std::string> queries;
  {
    std::ifstream file;
    std::istream* in = &std::cin;
    if (opt.queries_path != "-") {
      file.open(opt.queries_path);
      if (!file) throw ConfigError("cannot open " + opt.queries_path);
      in = &file;
    }
    std::string line;
    while (std::getline(*in, line)) {
      if (!line.empty()) queries.push_back(line);
    }
  }
  std::vector<std::string> replies(queries.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  const std::size_t workers_needed = std::min(opt.concurrency, queries.size());
  workers.reserve(workers_needed);
  for (std::size_t w = 0; w < workers_needed; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= queries.size()) return;
        try {
          replies[i] = roundtrip(opt.connect, queries[i]);
        } catch (const std::exception& e) {
          replies[i] = std::string("client error: ") + e.what();
          failed.store(true);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (const std::string& reply : replies) std::cout << reply << '\n';
  std::cout << std::flush;
  return failed.load() ? 1 : 0;
}

// ---------------------------------------------------------------------------

int run_server(const Options& opt) {
  const harness::FileConfig cfg = harness::parse_config_file(opt.config_path);
  if (!cfg.has_workload) {
    throw ConfigError(
        "dmsim_serve needs the config's synthetic workload keys (Jobs=...): "
        "the scenario workload must match the snapshot's saving run");
  }
  auto generated = workload::generate_synthetic(cfg.workload);
  slowdown::AppPool apps =
      opt.profiles_path ? slowdown::read_app_pool_file(*opt.profiles_path)
                        : std::move(generated.apps);

  serve::ServeScenario scenario;
  scenario.system = cfg.simulation.system;
  scenario.policy = cfg.simulation.policy;
  scenario.sched = cfg.simulation.sched;
  scenario.jobs = std::move(generated.jobs);
  scenario.apps = &apps;
  scenario.snapshot_path = opt.snapshot_path;

  serve::ServerOptions options;
  options.threads = opt.threads.value_or(cfg.serve.threads);
  options.cache_images = opt.cache_images.value_or(cfg.serve.cache_images);
  options.port = opt.port.value_or(cfg.serve.port);

  serve::Server server(std::move(scenario), options);
  if (opt.once) {
    server.run_once(std::cin, std::cout);
    return 0;
  }
  server.listen_and_serve(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    if (!opt.connect.empty()) return run_client(opt);
    return run_server(opt);
  } catch (const std::exception& e) {
    std::cerr << "dmsim_serve: " << e.what() << '\n';
    return 1;
  }
}
