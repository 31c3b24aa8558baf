// The two-level snapshot model: immutable snapshot::Image + per-fork
// overlays. Contracts pinned here:
//   * the envelope's section table describes the payload exactly (five
//     contiguous sections with per-section checksums), at the current
//     format version — no version bump for the trailer,
//   * a file with no section table (a pre-TOC writer) still opens,
//   * corruption, truncation into the trailer, and trailing garbage are
//     rejected at parse time — before any component state is touched,
//   * a fork from a shared image reproduces the file-resumed run bit for
//     bit, and materialize_trusted refuses a wrong fingerprint,
//   * what-if overlays change exactly what they claim: extra jobs complete,
//     extra nodes raise provisioned memory, policy/sched swaps take effect
//     while the fingerprint still covers the base configuration.
#include "snapshot/image.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace dmsim {
namespace {

struct Scenario {
  workload::SyntheticWorkload generated;
  harness::CellConfig cell;
  std::string path;

  static Scenario make(const char* file_tag) {
    Scenario s;
    workload::SyntheticWorkloadConfig wcfg;
    wcfg.cirne.num_jobs = 60;
    wcfg.cirne.system_nodes = 32;
    wcfg.cirne.max_job_nodes = 8;
    wcfg.seed = 5150;
    s.generated = workload::generate_synthetic(wcfg);
    s.cell.system.total_nodes = 32;
    s.cell.system.pct_large_nodes = 0.5;
    s.cell.policy = policy::PolicyKind::Dynamic;
    s.cell.sched.sample_interval = 500.0;
    s.path = (std::filesystem::path(::testing::TempDir()) / file_tag).string();
    std::remove(s.path.c_str());
    return s;
  }

  /// Run the cell saving one snapshot at a third of the reference makespan;
  /// returns the uninterrupted result (which the save run must reproduce).
  harness::CellResult save_snapshot() {
    const harness::CellResult reference =
        harness::run_cell(cell, generated.jobs, generated.apps);
    EXPECT_TRUE(reference.valid);
    harness::CellConfig saver = cell;
    saver.checkpoint = harness::CheckpointSpec{
        path, 0.0, {reference.summary.last_end / 3.0}, false};
    const harness::CellResult saved =
        harness::run_cell(saver, generated.jobs, generated.apps);
    EXPECT_EQ(harness::cell_result_to_json(saved),
              harness::cell_result_to_json(reference));
    EXPECT_TRUE(std::filesystem::exists(path));
    return reference;
  }
};

[[nodiscard]] std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(SnapshotImage, SectionTableDescribesPayloadExactly) {
  Scenario s = Scenario::make("image_sections.snap");
  s.save_snapshot();

  const auto image = snapshot::Image::open(s.path);
  EXPECT_EQ(image->version(), snapshot::kFormatVersion);
  ASSERT_TRUE(image->has_section_table());
  const auto& sections = image->sections();
  ASSERT_EQ(sections.size(), 5U);
  EXPECT_EQ(sections[0].name, "ENGI");
  EXPECT_EQ(sections[1].name, "CLUS");
  EXPECT_EQ(sections[2].name, "SCHD");
  EXPECT_EQ(sections[3].name, "CNTR");
  EXPECT_EQ(sections[4].name, "END.");

  // Contiguous tiling of the payload, each checksum matching its bytes.
  const std::string_view payload = image->payload();
  std::uint64_t expected_offset = 0;
  for (const snapshot::SectionInfo& sec : sections) {
    EXPECT_EQ(sec.offset, expected_offset);
    EXPECT_EQ(sec.checksum, util::fnv1a(payload.substr(sec.offset, sec.size)));
    expected_offset += sec.size;
  }
  EXPECT_EQ(expected_offset, payload.size());
  EXPECT_EQ(image->payload_checksum(), util::fnv1a(payload));
  std::remove(s.path.c_str());
}

TEST(SnapshotImage, PreTocFileStillOpens) {
  Scenario s = Scenario::make("image_pretoc.snap");
  s.save_snapshot();

  // A writer from before the section table ended right after the payload
  // checksum; cutting the trailer reproduces such a file.
  const std::string bytes = slurp(s.path);
  const auto full = snapshot::Image::from_bytes(bytes);
  const std::size_t pre_toc_size =
      28 + full->payload().size() + 8;  // header + payload + checksum
  ASSERT_LT(pre_toc_size, bytes.size());
  const auto old_style = snapshot::Image::from_bytes(bytes.substr(0, pre_toc_size));
  EXPECT_FALSE(old_style->has_section_table());
  EXPECT_TRUE(old_style->sections().empty());
  EXPECT_EQ(old_style->fingerprint(), full->fingerprint());
  EXPECT_EQ(old_style->payload(), full->payload());
  std::remove(s.path.c_str());
}

TEST(SnapshotImage, CorruptionRejectedAtParseTime) {
  Scenario s = Scenario::make("image_corrupt.snap");
  s.save_snapshot();
  const std::string bytes = slurp(s.path);

  // Payload corruption: checksum mismatch.
  std::string bad = bytes;
  bad[40] ^= 0x5A;
  EXPECT_THROW((void)snapshot::Image::from_bytes(bad), snapshot::SnapshotError);

  // Truncation into the trailer: neither a clean pre-TOC file nor a valid
  // table.
  EXPECT_THROW((void)snapshot::Image::from_bytes(bytes.substr(0, bytes.size() - 4)),
               snapshot::SnapshotError);

  // Trailing garbage after a valid trailer.
  EXPECT_THROW((void)snapshot::Image::from_bytes(bytes + "junk"),
               snapshot::SnapshotError);

  // Truncated payload.
  EXPECT_THROW((void)snapshot::Image::from_bytes(bytes.substr(0, 40)),
               snapshot::SnapshotError);
  std::remove(s.path.c_str());
}

TEST(SnapshotImage, ForkMatchesFileResumeBitForBit) {
  Scenario s = Scenario::make("image_fork.snap");
  const harness::CellResult reference = s.save_snapshot();
  const std::string ref_json = harness::cell_result_to_json(reference);

  // File resume (the pre-image path).
  harness::CellConfig resume = s.cell;
  resume.checkpoint = harness::CheckpointSpec{s.path, 0.0, {}, true};
  const harness::CellResult resumed =
      harness::run_cell(resume, s.generated.jobs, s.generated.apps);
  EXPECT_EQ(harness::cell_result_to_json(resumed), ref_json);

  // Fork from the shared image, slow (recomputed) and trusted fingerprint.
  const auto image = snapshot::Image::open(s.path);
  harness::CellConfig fork = s.cell;
  fork.restore_image = image;
  const harness::CellResult forked =
      harness::run_cell(fork, s.generated.jobs, s.generated.apps);
  EXPECT_EQ(harness::cell_result_to_json(forked), ref_json);
  EXPECT_EQ(forked.checkpoint.restores, 1U);
  EXPECT_EQ(forked.checkpoint.bytes_read, image->size_bytes());

  fork.trusted_fingerprint = image->fingerprint();
  const harness::CellResult trusted =
      harness::run_cell(fork, s.generated.jobs, s.generated.apps);
  EXPECT_EQ(harness::cell_result_to_json(trusted), ref_json);
  std::remove(s.path.c_str());
}

TEST(SnapshotImage, WrongFingerprintRefusedLoudly) {
  Scenario s = Scenario::make("image_badfp.snap");
  s.save_snapshot();
  const auto image = snapshot::Image::open(s.path);

  harness::CellConfig fork = s.cell;
  fork.restore_image = image;
  fork.trusted_fingerprint = image->fingerprint() ^ 1;
  EXPECT_THROW((void)harness::run_cell(fork, s.generated.jobs, s.generated.apps),
               snapshot::SnapshotError);

  // The slow path recomputes from the cell's base config; a different
  // topology must also be refused.
  harness::CellConfig wrong = s.cell;
  wrong.system.total_nodes = 48;
  wrong.restore_image = image;
  EXPECT_THROW((void)harness::run_cell(wrong, s.generated.jobs, s.generated.apps),
               snapshot::SnapshotError);
  std::remove(s.path.c_str());
}

TEST(SnapshotImage, OverlaysApplyAfterTheRestore) {
  Scenario s = Scenario::make("image_overlay.snap");
  const harness::CellResult reference = s.save_snapshot();
  const auto image = snapshot::Image::open(s.path);

  harness::CellConfig fork = s.cell;
  fork.restore_image = image;
  fork.trusted_fingerprint = image->fingerprint();

  // Extra submission: one more job completes.
  {
    harness::CellConfig cell = fork;
    harness::WhatIfOverlay overlay;
    trace::JobSpec extra;
    extra.id = JobId{9001};
    extra.submit_time = 0.0;  // clamped to the restored clock
    extra.num_nodes = 2;
    extra.requested_mem = gib(8);
    extra.duration = 1000.0;
    extra.walltime = 4000.0;
    extra.usage = trace::UsageTrace::constant(gib(8));
    overlay.extra_jobs.push_back(extra);
    cell.overlay = overlay;
    const harness::CellResult result =
        harness::run_cell(cell, s.generated.jobs, s.generated.apps);
    ASSERT_TRUE(result.valid);
    EXPECT_EQ(result.summary.completed, reference.summary.completed + 1);
  }

  // Topology edit: provisioned memory grows by the added capacity.
  {
    harness::CellConfig cell = fork;
    harness::WhatIfOverlay overlay;
    cluster::NodeConfig node;
    node.capacity = gib(128);
    node.cores = 32;
    node.large = true;
    overlay.extra_nodes.assign(4, node);
    cell.overlay = overlay;
    const harness::CellResult result =
        harness::run_cell(cell, s.generated.jobs, s.generated.apps);
    ASSERT_TRUE(result.valid);
    EXPECT_EQ(result.provisioned_memory,
              reference.provisioned_memory + 4 * gib(128));
    EXPECT_EQ(result.summary.completed, reference.summary.completed);
  }

  // Policy swap: the fingerprint still covers the base config (PolicyKind
  // is not fingerprinted), and the swap changes scheduling behaviour.
  {
    harness::CellConfig cell = fork;
    harness::WhatIfOverlay overlay;
    overlay.policy = policy::PolicyKind::Static;
    cell.overlay = overlay;
    const harness::CellResult result =
        harness::run_cell(cell, s.generated.jobs, s.generated.apps);
    ASSERT_TRUE(result.valid);
    EXPECT_EQ(result.summary.completed, reference.summary.completed);
  }

  // Scheduler-config swap: fingerprint checked against the BASE sched.
  {
    harness::CellConfig cell = fork;
    harness::WhatIfOverlay overlay;
    sched::SchedulerConfig swapped = s.cell.sched;
    swapped.sched_interval = 60.0;
    overlay.sched = swapped;
    cell.overlay = overlay;
    const harness::CellResult result =
        harness::run_cell(cell, s.generated.jobs, s.generated.apps);
    EXPECT_TRUE(result.valid);
  }
  std::remove(s.path.c_str());
}

TEST(SnapshotImage, SaveFileSurvivesRename) {
  // save_file writes through a temp file + rename; the destination must
  // never hold a half-written envelope, and a re-save overwrites cleanly.
  Scenario s = Scenario::make("image_resave.snap");
  s.save_snapshot();
  const std::string first = slurp(s.path);
  s.save_snapshot();
  const std::string second = slurp(s.path);
  EXPECT_EQ(first, second);  // deterministic bytes, no tmp residue
  EXPECT_FALSE(std::filesystem::exists(s.path + ".tmp"));
  std::remove(s.path.c_str());
}

}  // namespace
}  // namespace dmsim
