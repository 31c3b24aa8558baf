#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>

namespace dmsim::util {

namespace {

/// A finite real spelled in full by `text` (one leading '+' allowed).
[[nodiscard]] bool read_real(std::string_view text, double& out) {
  if (text.size() > 1 && text[0] == '+' && text[1] != '-' && text[1] != '+') {
    text.remove_prefix(1);
  }
  const char* end = text.data() + text.size();
  const auto res = std::from_chars(text.data(), end, out);
  return res.ec == std::errc{} && res.ptr == end && std::isfinite(out);
}

}  // namespace

std::int64_t parse_integer(std::string_view text, std::int64_t lo,
                           std::int64_t hi, std::string_view name) {
  double v = 0.0;
  // The cast is only defined inside [-2^63, 2^63).
  if (read_real(text, v) && v == std::floor(v) && v >= -0x1p63 && v < 0x1p63) {
    const auto n = static_cast<std::int64_t>(v);
    if (n >= lo && n <= hi) return n;
  }
  throw ConfigError(std::string(name) + ": expected an integer in [" +
                    std::to_string(lo) + ", " + std::to_string(hi) +
                    "], got '" + std::string(text) + "'");
}

double parse_real(std::string_view text, std::string_view name) {
  double v = 0.0;
  if (read_real(text, v)) return v;
  throw ConfigError(std::string(name) + ": expected a finite number, got '" +
                    std::string(text) + "'");
}

bool FlagTable::parse(int argc, char** argv) {
  if (argc > 0 && argv[0] != nullptr) {
    const std::string_view path = argv[0];
    program_ = std::string(path.substr(path.find_last_of('/') + 1));
  }
  bool help = false;
  std::size_t positionals = 0;  // bare arguments consumed so far
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help = true;
      continue;
    }
    const Row* row = nullptr;
    if (arg.size() > 1 && arg[0] == '-') {
      const auto it = std::find_if(rows_.begin(), rows_.end(),
                                   [&](const Row& r) { return r.name == arg; });
      if (it != rows_.end()) row = &*it;
    } else {
      std::size_t seen = 0;
      for (const Row& r : rows_) {
        if (r.name.empty() && seen++ == positionals) {
          row = &r;
          ++positionals;
          break;
        }
      }
    }
    if (row == nullptr) throw ConfigError("unknown argument: " + arg);
    if (row->name.empty() || row->metavar.empty()) {
      row->set(arg);
      continue;
    }
    if (i + 1 >= argc) throw ConfigError(arg + " needs a value");
    row->set(argv[++i]);
  }
  return help;
}

void FlagTable::parse_or_exit(int argc, char** argv,
                              const std::function<void()>& check) {
  try {
    if (parse(argc, argv)) {
      print_usage(std::cout);
      std::exit(0);
    }
    if (check) check();
  } catch (const ConfigError& e) {
    std::cerr << program_ << ": " << e.what() << '\n';
    print_usage(std::cerr);
    std::exit(1);
  }
}

void FlagTable::print_usage(std::ostream& os) const {
  for (std::size_t i = 0; i < synopsis_.size(); ++i) {
    os << (i == 0 ? "usage: " : "       ") << program_ << ' ' << synopsis_[i]
       << '\n';
  }
  const auto label = [](const Row& r) {
    if (r.name.empty()) return r.metavar;
    return r.metavar.empty() ? r.name : r.name + ' ' + r.metavar;
  };
  std::size_t width = 6;  // "--help"
  for (const Row& r : rows_) width = std::max(width, label(r).size());
  const auto line = [&](const std::string& left, const std::string& help) {
    os << "  " << left << std::string(width + 2 - left.size(), ' ') << help
       << '\n';
  };
  for (const Row& r : rows_) line(label(r), r.help);
  line("--help", "this text");
}

}  // namespace dmsim::util
