// Binary snapshot primitives.
//
// A snapshot is a flat byte string built from little-endian fixed-width
// scalars and length-prefixed strings. Writer appends, Reader consumes in
// the same order; every read is bounds-checked and throws SnapshotError on
// truncation, so a corrupt or mismatched file fails loudly instead of
// restoring garbage state.
//
// Doubles travel as their IEEE-754 bit pattern (std::bit_cast), never
// through text formatting — restore must be *bitwise* exact for the
// deterministic-replay guarantee, including -0.0 and subnormals.
//
// Every multi-byte scalar goes through one codec, detail::le<T>: a single
// fixed-width copy on a little-endian host, a byte loop elsewhere. Numeric
// columns (u8 / u32 / i64 per node) move as one block through
// Writer::column / Reader::column; the bytes are exactly those of the
// element-wise calls, so the format does not depend on which path wrote it.
//
// This layer depends only on util so that sim/cluster/sched can each
// implement save_state(Writer&)/restore_state(Reader&) without pulling in
// the checkpoint orchestration (snapshot/checkpoint.hpp) that stitches the
// per-component sections into a versioned, checksummed file.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/error.hpp"

namespace dmsim::snapshot {

/// Thrown on malformed, truncated, or incompatible snapshot bytes.
class SnapshotError : public Error {
 public:
  using Error::Error;
};

/// Four-character section tags make truncation/misalignment failures
/// self-describing: a reader that drifts off a section boundary reports
/// which section it expected instead of silently misparsing scalars.
[[nodiscard]] constexpr std::uint32_t section_tag(char a, char b, char c,
                                                  char d) noexcept {
  return (static_cast<std::uint32_t>(static_cast<unsigned char>(a))) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

namespace detail {

/// Little-endian store/load of one unsigned scalar — the single byte-order
/// codec behind every Writer and Reader scalar and column.
template <std::unsigned_integral T>
struct le {
  static void store(char* out, T v) noexcept {
    if constexpr (std::endian::native != std::endian::little) {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        out[i] = static_cast<char>((v >> (8 * i)) & 0xffU);
      }
    } else {
      std::memcpy(out, &v, sizeof(T));
    }
  }

  [[nodiscard]] static T load(const char* in) noexcept {
    T v = 0;
    if constexpr (std::endian::native != std::endian::little) {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(static_cast<T>(static_cast<unsigned char>(in[i]))
                            << (8 * i));
      }
    } else {
      std::memcpy(&v, in, sizeof(T));
    }
    return v;
  }
};

}  // namespace detail

/// Append-only little-endian byte builder.
class Writer {
 public:
  Writer() = default;
  /// Append to `buffer`'s bytes, reusing its capacity.
  explicit Writer(std::string buffer) noexcept : buf_(std::move(buffer)) {}

  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) { put(v); }

  void u64(std::uint64_t v) { put(v); }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// u32 byte length + raw bytes (no terminator).
  void str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size()));
    buf_.append(v.data(), v.size());
  }

  void section(std::uint32_t tag) { u32(tag); }

  /// A numeric column in one append: the same bytes as one u8 / u32 / i64
  /// call per element, with no length prefix.
  void column(std::span<const std::uint8_t> values) { put_column(values); }
  void column(std::span<const std::uint32_t> values) { put_column(values); }
  void column(std::span<const std::int64_t> values) { put_column(values); }

  [[nodiscard]] const std::string& buffer() const noexcept { return buf_; }
  [[nodiscard]] std::string take() noexcept { return std::move(buf_); }

 private:
  template <std::unsigned_integral T>
  void put(T v) {
    char bytes[sizeof(T)];
    detail::le<T>::store(bytes, v);
    buf_.append(bytes, sizeof(T));
  }

  template <typename T>
  void put_column(std::span<const T> values) {
    if constexpr (sizeof(T) == 1 ||
                  std::endian::native == std::endian::little) {
      buf_.append(reinterpret_cast<const char*>(values.data()),
                  values.size_bytes());
    } else {
      for (const T v : values) put(static_cast<std::make_unsigned_t<T>>(v));
    }
  }

  std::string buf_;
};

/// Bounds-checked reader over a snapshot byte string. The viewed bytes must
/// outlive the Reader (str() returns views into them).
class Reader {
 public:
  explicit Reader(std::string_view bytes) noexcept : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  [[nodiscard]] std::uint32_t u32() { return get<std::uint32_t>(); }

  [[nodiscard]] std::uint64_t u64() { return get<std::uint64_t>(); }

  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  [[nodiscard]] bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) {
      throw SnapshotError("snapshot: boolean field holds " +
                          std::to_string(int{v}));
    }
    return v != 0;
  }

  [[nodiscard]] std::string_view str() {
    const std::uint32_t n = u32();
    need(n);
    const std::string_view v = bytes_.substr(pos_, n);
    pos_ += n;
    return v;
  }

  /// Fill `out` from a column Writer::column wrote: one bounds check, then
  /// one block copy. On truncation it throws and consumes nothing.
  void column(std::span<std::uint8_t> out) { get_column(out); }
  void column(std::span<std::uint32_t> out) { get_column(out); }
  void column(std::span<std::int64_t> out) { get_column(out); }

  /// Consume a section tag and verify it matches; `name` labels the error.
  void expect_section(std::uint32_t tag, const char* name) {
    const std::uint32_t got = u32();
    if (got != tag) {
      throw SnapshotError(std::string("snapshot: expected section '") + name +
                          "', found tag 0x" + hex(got) + " at offset " +
                          std::to_string(pos_ - 4));
    }
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }

 private:
  template <std::unsigned_integral T>
  [[nodiscard]] T get() {
    need(sizeof(T));
    const T v = detail::le<T>::load(bytes_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  void get_column(std::span<T> out) {
    need(out.size_bytes());
    const char* in = bytes_.data() + pos_;
    if constexpr (sizeof(T) == 1 ||
                  std::endian::native == std::endian::little) {
      if (!out.empty()) std::memcpy(out.data(), in, out.size_bytes());
    } else {
      using U = std::make_unsigned_t<T>;
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = static_cast<T>(detail::le<U>::load(in + i * sizeof(T)));
      }
    }
    pos_ += out.size_bytes();
  }

  void need(std::size_t n) const {
    if (bytes_.size() - pos_ < n) {
      throw SnapshotError("snapshot: truncated — need " + std::to_string(n) +
                          " byte(s) at offset " + std::to_string(pos_) +
                          ", have " + std::to_string(bytes_.size() - pos_));
    }
  }

  [[nodiscard]] static std::string hex(std::uint32_t v) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string s(8, '0');
    for (int i = 7; i >= 0; --i) {
      s[static_cast<std::size_t>(i)] = kDigits[v & 0xfU];
      v >>= 4;
    }
    return s;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace dmsim::snapshot
