// Internal snapshot envelope constants and the counters-section codec,
// shared between the checkpoint orchestration (checkpoint.cpp) and the
// parsed-once image layer (image.cpp). Not part of the public snapshot API:
// tools should go through checkpoint.hpp / image.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "snapshot/snapshot.hpp"

namespace dmsim::obs {
class Counters;
}

namespace dmsim::snapshot::detail {

inline constexpr std::string_view kMagic = "DMSIMSNP";

inline constexpr std::uint32_t kCountersSection = section_tag('C', 'N', 'T', 'R');
inline constexpr std::uint32_t kEndSection = section_tag('E', 'N', 'D', '.');

/// Optional section-table trailer appended AFTER the payload checksum:
///
///   u32 'TOC.' | u32 count | count x (u32 tag, u64 offset, u64 size,
///   u64 FNV-1a(section)) | u64 FNV-1a(trailer bytes before this field)
///
/// It is self-describing and self-checksummed, so readers that predate it
/// never see it (they stop at the payload checksum) and envelope parsing can
/// tell a valid trailer from trailing garbage. Living outside the payload
/// keeps the format version at 5 and every pre-trailer file readable.
inline constexpr std::uint32_t kTocSection = section_tag('T', 'O', 'C', '.');

/// A snapshot file's bytes, read with one sized read. Throws SnapshotError
/// ("cannot open" / "read error") naming `path`.
[[nodiscard]] std::string read_file(const std::string& path);

/// Counters-registry section codec (section kCountersSection). Defined in
/// checkpoint.cpp; image.cpp reuses it for Image::materialize.
void save_counters_section(Writer& w, const obs::Counters* counters);
void restore_counters_section(Reader& r, obs::Counters* counters);

}  // namespace dmsim::snapshot::detail
