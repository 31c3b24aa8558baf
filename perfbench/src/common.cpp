#include "common.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <memory_resource>
#include <new>
#include <queue>
#include <set>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double percentile_rank(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mib() {
  // VmHWM is the high-water mark of this process image only. ru_maxrss is
  // not: Linux carries it across execve, so it would report the launching
  // Python process's peak whenever that is the larger.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double host_probe_ms() {
  constexpr std::size_t kEvents = 20'000;
  constexpr std::size_t kSteps = 60'000;
  constexpr std::size_t kSlots = std::size_t{1} << 16;
  // A private mapping, unmapped on return, holds every allocation.
  constexpr std::size_t kArenaBytes = std::size_t{4} << 20;
  void* const arena = ::mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (arena == MAP_FAILED) throw std::bad_alloc();
  struct Unmap {
    void* at;
    ~Unmap() { ::munmap(at, kArenaBytes); }
  } const unmap{arena};
  std::pmr::monotonic_buffer_resource buffer(arena, kArenaBytes,
                                             std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&buffer);

  std::uint64_t x = 0x9e3779b97f4a7c15ULL;  // xorshift64: same inputs every pass
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::pmr::vector<Event> storage(&pool);
  storage.reserve(kEvents + 1);
  std::priority_queue<Event, std::pmr::vector<Event>, std::greater<>> heap(
      std::greater<>{}, std::move(storage));
  std::pmr::set<std::uint64_t> index(&pool);
  std::pmr::vector<std::uint64_t> slots(kSlots, 0, &pool);
  for (std::uint32_t i = 0; i < kEvents; ++i) {
    heap.emplace(next() >> 20, i);
    index.insert(next());
  }

  // Timed: the steady state, on memory the set-up above has just touched.
  const Clock::time_point start = Clock::now();
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < kSteps; ++i) {
    const Event top = heap.top();
    heap.pop();
    heap.emplace(top.first + (next() >> 40), top.second);
    auto it = index.lower_bound(next());
    if (it == index.end()) it = index.begin();
    acc += *it;
    index.erase(it);
    index.insert(next());
    std::uint64_t& slot = slots[(top.second * 2654435761U) & (kSlots - 1)];
    slot += acc;
    if ((slot & 1) != 0) acc ^= slot;
  }
  static std::atomic<std::uint64_t> sink;  // keeps the loop's result live
  sink.store(acc, std::memory_order_relaxed);
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

HostSampler::HostSampler() {
  int results[2];
  int control[2];
  if (::pipe(results) != 0) throw std::runtime_error("host sampler: pipe failed");
  if (::pipe(control) != 0) {
    ::close(results[0]);
    ::close(results[1]);
    throw std::runtime_error("host sampler: pipe failed");
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {results[0], results[1], control[0], control[1]}) {
      ::close(fd);
    }
    throw std::runtime_error("host sampler: fork failed");
  }
  if (pid == 0) {
    // Child: probe until the control pipe reaches end-of-file, then leave
    // with _exit so nothing of the parent's (stdio buffers) runs twice. It
    // is killed with the parent if the parent dies first.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(0);
    ::close(results[0]);
    ::close(control[1]);
    pollfd stop{control[0], POLLIN, 0};
    do {
      const double ms = host_probe_ms();
      if (::write(results[1], &ms, sizeof ms) != sizeof ms) ::_exit(1);
    } while (::poll(&stop, 1, kHostProbePauseMs) == 0);
    ::_exit(0);
  }
  ::close(results[1]);
  ::close(control[0]);
  pid_ = pid;
  results_ = results[0];
  control_ = control[1];
}

HostSampler::~HostSampler() { (void)stop(); }

std::vector<double> HostSampler::stop() {
  if (pid_ < 0) return probe_ms_;
  ::close(control_);
  double ms = 0.0;
  while (::read(results_, &ms, sizeof ms) == sizeof ms) probe_ms_.push_back(ms);
  ::close(results_);
  while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return probe_ms_;
}

std::string digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[h & 0xf];
    h >>= 4;
  }
  return out;
}

}  // namespace perfbench
