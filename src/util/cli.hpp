// Command-line flag tables, and the two number readers behind every flag and
// every numeric config key.
//
// A binary declares its flags once, as a FlagTable: each row gives the flag
// name, its metavar, one help line and a typed destination. The same table
// parses argv and prints the usage text, so the flags a binary accepts and
// the flags its --help lists cannot drift apart. Every rejected argument is
// a ConfigError that names the flag.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace dmsim::util {

/// Largest value any thread-count flag (--threads) or ServeThreads accepts.
inline constexpr std::int64_t kMaxThreads = 1024;

/// Read `text` as an integer in [lo, hi]: a finite real with no fractional
/// part ("64", "64.0" and "1e3" are integers; "32.7", "2x" and "nan" are
/// not). Throws ConfigError naming `name` (a flag or config key).
[[nodiscard]] std::int64_t parse_integer(std::string_view text,
                                         std::int64_t lo, std::int64_t hi,
                                         std::string_view name);

/// Read `text` as a finite real number. Throws ConfigError naming `name`.
[[nodiscard]] double parse_real(std::string_view text, std::string_view name);

/// One binary's flags. Rows keep references to their destinations, so the
/// destinations must outlive parse().
class FlagTable {
 public:
  /// `synopsis`: the usage lines that follow the program name.
  explicit FlagTable(std::vector<std::string> synopsis)
      : synopsis_(std::move(synopsis)) {}

  /// Switch: present sets `dest` to true.
  FlagTable& flag(std::string name, std::string help, bool& dest) {
    return add(std::move(name), {}, std::move(help),
               [&dest](const std::string&) { dest = true; });
  }
  /// String, into a std::string or a std::optional<std::string>.
  template <class Dest>
  FlagTable& text(std::string name, std::string metavar, std::string help,
                  Dest& dest) {
    return add(std::move(name), std::move(metavar), std::move(help),
               [&dest](const std::string& value) { dest = value; });
  }
  /// Finite real, into a double or a std::optional<double>.
  template <class Dest>
  FlagTable& real(std::string name, std::string metavar, std::string help,
                  Dest& dest) {
    return add(name, std::move(metavar), std::move(help),
               [&dest, name](const std::string& value) {
                 dest = parse_real(value, name);
               });
  }
  /// Repeatable value: every occurrence appends to a vector of strings or
  /// of finite reals.
  template <class T>
  FlagTable& repeated(std::string name, std::string metavar, std::string help,
                      std::vector<T>& dest) {
    return add(name, std::move(metavar), std::move(help),
               [&dest, name](const std::string& value) {
                 if constexpr (std::is_same_v<T, double>) {
                   dest.push_back(parse_real(value, name));
                 } else {
                   dest.push_back(value);
                 }
               });
  }
  /// Integer in [lo, hi] (parse_integer), into an integral type or a
  /// std::optional of one; [lo, hi] must fit that type.
  template <class Dest>
  FlagTable& integer(std::string name, std::string metavar, std::string help,
                     std::int64_t lo, std::int64_t hi, Dest& dest) {
    using T = typename Integral<Dest>::type;
    DMSIM_ASSERT(std::in_range<T>(lo) && std::in_range<T>(hi) && lo <= hi,
                 "bounds of " + name + " do not fit its destination");
    return add(name, std::move(metavar), std::move(help),
               [&dest, lo, hi, name](const std::string& value) {
                 dest = static_cast<T>(parse_integer(value, lo, hi, name));
               });
  }
  /// Bare argument, filled in declaration order ("-" is a positional too).
  FlagTable& positional(std::string metavar, std::string help,
                        std::string& dest) {
    return text({}, std::move(metavar), std::move(help), dest);
  }

  /// Fill the destinations from argv[1, argc). Returns true when --help or
  /// -h was given. Throws ConfigError on an unknown argument, a missing
  /// value or a value its destination rejects.
  bool parse(int argc, char** argv);

  /// parse(), then `check` (cross-flag rules) unless --help was given. On
  /// --help prints the usage to stdout and exits 0; on a ConfigError prints
  /// "<program>: <message>" and the usage to stderr and exits 1.
  void parse_or_exit(int argc, char** argv,
                     const std::function<void()>& check = {});

  /// "usage: <program> <synopsis>" plus one line per row. The program name
  /// is argv[0]'s basename, known once parse() has run.
  void print_usage(std::ostream& os) const;

 private:
  template <class T>
  struct Integral {
    static_assert(std::integral<T>, "integer flags need an integral type");
    using type = T;
  };
  template <class T>
  struct Integral<std::optional<T>> : Integral<T> {};

  struct Row {
    std::string name;     ///< "--flag"; empty for a positional
    std::string metavar;  ///< empty for a switch
    std::string help;
    std::function<void(const std::string&)> set;
  };

  FlagTable& add(std::string name, std::string metavar, std::string help,
                 std::function<void(const std::string&)> set) {
    rows_.push_back({std::move(name), std::move(metavar), std::move(help),
                     std::move(set)});
    return *this;
  }

  std::vector<std::string> synopsis_;
  std::vector<Row> rows_;
  std::string program_;
};

}  // namespace dmsim::util
