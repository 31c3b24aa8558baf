#include "snapshot/image.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "cluster/cluster.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "snapshot/format.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dmsim::snapshot {

namespace {

[[nodiscard]] std::string decode_tag(std::uint32_t tag) {
  std::string name(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xffU);
    // Keep the decoded name printable; unexpected tags stay visible as '?'.
    name[static_cast<std::size_t>(i)] =
        (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return name;
}

}  // namespace

std::string detail::read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw SnapshotError("snapshot: cannot open '" + path + "' for reading");
  }
  struct stat st {};
  const std::size_t size =
      ::fstat(fd, &st) == 0 && st.st_size > 0
          ? static_cast<std::size_t>(st.st_size)
          : 0;
  // One spare byte lets the read that sees end-of-file land without growing
  // the string; a file that grows meanwhile (or reports no size) still
  // reads whole.
  std::string bytes(size + 1, '\0');
  std::size_t got = 0;
  for (;;) {
    if (got == bytes.size()) bytes.resize(2 * bytes.size());
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      throw SnapshotError("snapshot: read error on '" + path + "'");
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  bytes.resize(got);
  return bytes;
}

std::shared_ptr<const Image> Image::open(const std::string& path) {
  std::string bytes = detail::read_file(path);
  try {
    return from_bytes(std::move(bytes));
  } catch (const SnapshotError& e) {
    throw SnapshotError("opening snapshot '" + path + "': " + e.what());
  }
}

std::shared_ptr<const Image> Image::from_bytes(std::string bytes) {
  // make_shared needs a public constructor; the factory keeps it private.
  auto image = std::shared_ptr<Image>(new Image());
  image->bytes_ = std::move(bytes);
  image->parse_envelope();
  return image;
}

void Image::parse_envelope() {
  Reader header(bytes_);
  for (const char c : detail::kMagic) {
    if (header.remaining() == 0 ||
        header.u8() != static_cast<std::uint8_t>(c)) {
      throw SnapshotError("snapshot: bad magic — not a dmsim snapshot");
    }
  }
  version_ = header.u32();
  if (version_ < kMinFormatVersion || version_ > kFormatVersion) {
    throw SnapshotError("snapshot: unsupported version " +
                        std::to_string(version_) + " (expected " +
                        std::to_string(kMinFormatVersion) + ".." +
                        std::to_string(kFormatVersion) + ")");
  }
  fingerprint_ = header.u64();
  payload_size_ = header.u64();
  if (header.remaining() < payload_size_ + 8) {
    throw SnapshotError("snapshot: truncated payload");
  }
  payload_offset_ = header.position();
  Reader tail(std::string_view(bytes_).substr(payload_offset_ + payload_size_));
  payload_checksum_ = tail.u64();
  if (payload_checksum_ != util::fnv1a(payload())) {
    throw SnapshotError("snapshot: payload checksum mismatch — corrupt file");
  }
  if (tail.at_end()) {
    // Pre-trailer file: valid, just not indexable without a full parse.
    has_toc_ = false;
    return;
  }
  // Anything after the payload checksum must be a complete, self-checksummed
  // section table; otherwise the file is corrupt (the historical behaviour
  // for unexpected trailing bytes, which a cut-off trailer also hits).
  const std::string_view trailer =
      std::string_view(bytes_).substr(payload_offset_ + payload_size_ + 8);
  try {
    Reader toc(trailer);
    toc.expect_section(detail::kTocSection, "section table");
    const std::uint32_t count = toc.u32();
    std::vector<SectionInfo> sections;
    sections.reserve(count);
    std::uint64_t expected_next = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      SectionInfo info;
      info.tag = toc.u32();
      info.offset = toc.u64();
      info.size = toc.u64();
      info.checksum = toc.u64();
      info.name = decode_tag(info.tag);
      // Entries must tile the payload exactly: contiguous, in order, ending
      // at the payload boundary.
      if (info.offset != expected_next ||
          info.size > payload_size_ - info.offset) {
        throw SnapshotError("snapshot: section table out of bounds");
      }
      expected_next = info.offset + info.size;
      sections.push_back(std::move(info));
    }
    if (expected_next != payload_size_) {
      throw SnapshotError("snapshot: section table does not cover payload");
    }
    const std::uint64_t toc_checksum =
        util::fnv1a(trailer.substr(0, toc.position()));
    if (toc.u64() != toc_checksum) {
      throw SnapshotError("snapshot: section table checksum mismatch");
    }
    if (!toc.at_end()) {
      throw SnapshotError("snapshot: bytes after section table");
    }
    sections_ = std::move(sections);
    has_toc_ = true;
  } catch (const SnapshotError&) {
    throw SnapshotError("snapshot: trailing bytes after checksum");
  }
}

void Image::restore_components(const Components& components) const {
  DMSIM_ASSERT(components.engine != nullptr && components.cluster != nullptr &&
                   components.scheduler != nullptr,
               "image restore needs engine, cluster and scheduler");
  Reader r(payload());
  components.engine->restore_state(r);
  components.cluster->restore_state(r, version_);
  components.scheduler->restore_state(r, version_);
  detail::restore_counters_section(r, components.counters);
  r.expect_section(detail::kEndSection, "end");
  if (!r.at_end()) {
    throw SnapshotError("snapshot: unconsumed payload bytes");
  }
}

void Image::check_fingerprint(std::uint64_t expected_fingerprint) const {
  if (fingerprint_ != expected_fingerprint) {
    throw SnapshotError(
        "snapshot: configuration fingerprint mismatch — the snapshot was "
        "taken under a different cluster/scheduler/workload configuration");
  }
}

void Image::materialize(const Components& components) const {
  check_fingerprint(config_fingerprint(components));
  restore_components(components);
}

void Image::materialize_trusted(const Components& components,
                                std::uint64_t expected_fingerprint) const {
  check_fingerprint(expected_fingerprint);
  restore_components(components);
}

}  // namespace dmsim::snapshot
