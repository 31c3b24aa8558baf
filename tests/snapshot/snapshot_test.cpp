#include "snapshot/snapshot.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace dmsim::snapshot {
namespace {

TEST(Snapshot, ScalarRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.boolean(true);
  w.boolean(false);
  w.str("hello");
  w.str("");

  Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFU);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.at_end());
}

TEST(Snapshot, DoubleRoundTripIsBitwiseExact) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.5,
                           3600.000000000001,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  Writer w;
  for (const double v : values) w.f64(v);
  Reader r(w.buffer());
  for (const double v : values) {
    const double got = r.f64();
    // Bit-pattern equality: distinguishes -0.0 from 0.0 and handles NaN.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(v));
  }
  EXPECT_TRUE(r.at_end());
}

TEST(Snapshot, LittleEndianLayoutIsStable) {
  // The byte layout is the on-disk format; lock it.
  Writer w;
  w.u32(0x04030201U);
  const std::string& b = w.buffer();
  ASSERT_EQ(b.size(), 4U);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0x01);
  EXPECT_EQ(static_cast<unsigned char>(b[3]), 0x04);
}

TEST(Snapshot, TruncatedReadThrows) {
  Writer w;
  w.u32(7);
  Reader r(w.buffer());
  (void)r.u32();
  EXPECT_THROW((void)r.u8(), SnapshotError);
  Reader r2(w.buffer());
  EXPECT_THROW((void)r2.u64(), SnapshotError);
}

TEST(Snapshot, TruncatedStringThrows) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow; none do
  Reader r(w.buffer());
  EXPECT_THROW((void)r.str(), SnapshotError);
}

TEST(Snapshot, MalformedBooleanThrows) {
  Writer w;
  w.u8(2);
  Reader r(w.buffer());
  EXPECT_THROW((void)r.boolean(), SnapshotError);
}

TEST(Snapshot, SectionTagMismatchNamesTheSection) {
  constexpr std::uint32_t kGood = section_tag('G', 'O', 'O', 'D');
  constexpr std::uint32_t kBad = section_tag('B', 'A', 'D', '.');
  Writer w;
  w.section(kBad);
  Reader r(w.buffer());
  try {
    r.expect_section(kGood, "engine");
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("engine"), std::string::npos);
  }
}

TEST(Snapshot, ColumnBytesMatchElementWiseCalls) {
  const std::vector<std::uint8_t> u8s = {0, 1, 0x7f, 0x80, 0xff};
  const std::vector<std::uint32_t> u32s = {0, 1, 0xDEADBEEFU, 0xFFFFFFFFU};
  const std::vector<std::int64_t> i64s = {
      0, -1, 42, -42, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};

  Writer bulk;
  bulk.column(u8s);
  bulk.column(u32s);
  bulk.column(i64s);
  Writer each;
  for (const std::uint8_t v : u8s) each.u8(v);
  for (const std::uint32_t v : u32s) each.u32(v);
  for (const std::int64_t v : i64s) each.i64(v);
  EXPECT_EQ(bulk.buffer(), each.buffer());
  EXPECT_EQ(bulk.buffer().size(), 5U + 4U * 4U + 6U * 8U);
}

TEST(Snapshot, EmptyColumnWritesNothing) {
  Writer w;
  w.column(std::span<const std::uint8_t>{});
  w.column(std::span<const std::uint32_t>{});
  w.column(std::span<const std::int64_t>{});
  EXPECT_TRUE(w.buffer().empty());

  Reader r(w.buffer());
  std::vector<std::int64_t> none;
  r.column(none);
  EXPECT_TRUE(r.at_end());
}

TEST(Snapshot, ColumnRoundTrip) {
  const std::vector<std::uint8_t> u8s = {3, 0, 255};
  const std::vector<std::uint32_t> u32s = {7, 0xFFFFFFFFU};
  const std::vector<std::int64_t> i64s = {-5, 0, 1LL << 40};
  Writer w;
  w.u32(0xABCDU);  // columns read back from a non-zero offset
  w.column(u8s);
  w.column(u32s);
  w.column(i64s);

  Reader r(w.buffer());
  EXPECT_EQ(r.u32(), 0xABCDU);
  std::vector<std::uint8_t> u8_out(u8s.size());
  std::vector<std::uint32_t> u32_out(u32s.size());
  std::vector<std::int64_t> i64_out(i64s.size());
  r.column(u8_out);
  r.column(u32_out);
  r.column(i64_out);
  EXPECT_EQ(u8_out, u8s);
  EXPECT_EQ(u32_out, u32s);
  EXPECT_EQ(i64_out, i64s);
  EXPECT_TRUE(r.at_end());
}

TEST(Snapshot, TruncatedColumnThrowsAndConsumesNothing) {
  Writer w;
  w.u32(1);
  w.column(std::vector<std::int64_t>{1, 2});  // 16 bytes; the read wants 24
  Reader r(w.buffer());
  (void)r.u32();
  std::vector<std::int64_t> out(3, 99);
  EXPECT_THROW(r.column(out), SnapshotError);
  EXPECT_EQ(r.position(), 4U);
  EXPECT_EQ(r.remaining(), 16U);
  EXPECT_EQ(out, (std::vector<std::int64_t>{99, 99, 99}));
  // The bytes that are there still read element-wise.
  EXPECT_EQ(r.i64(), 1);
  EXPECT_EQ(r.i64(), 2);
}

TEST(Snapshot, PositionAndRemainingTrackConsumption) {
  Writer w;
  w.u64(1);
  w.u32(2);
  Reader r(w.buffer());
  EXPECT_EQ(r.remaining(), 12U);
  (void)r.u64();
  EXPECT_EQ(r.position(), 8U);
  EXPECT_EQ(r.remaining(), 4U);
  EXPECT_FALSE(r.at_end());
  (void)r.u32();
  EXPECT_TRUE(r.at_end());
}

}  // namespace
}  // namespace dmsim::snapshot
