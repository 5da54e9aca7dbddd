#include "store/segment.h"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

namespace capplan::store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(f.is_open()) << path;
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(f.tellg()));
  f.seekg(0);
  f.read(reinterpret_cast<char*>(bytes.data()),
         static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.is_open()) << path;
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

// A deterministic two-series fixture: one with sealed blocks + hot tail,
// one hot-only.
std::vector<SegmentSeries> Fixture() {
  std::vector<double> run1, run2;
  for (int i = 0; i < 32; ++i) run1.push_back(static_cast<double>(i));
  for (int i = 32; i < 64; ++i) run2.push_back(static_cast<double>(i) * 0.5);
  SegmentSeries a;
  a.key = "cdbm011/cpu";
  a.freq = tsa::Frequency::kHourly;
  a.blocks = {SealBlock(0, 3600, run1), SealBlock(32 * 3600, 3600, run2)};
  a.hot_start_epoch = 64 * 3600;
  a.hot = {7.25, 8.5, std::nan("")};
  SegmentSeries b;
  b.key = "cdbm012/memory";
  b.freq = tsa::Frequency::kQuarterHourly;
  b.hot_start_epoch = 900;
  b.hot = {100.0, 101.0};
  return {a, b};
}

TEST(SegmentTest, RoundTrip) {
  const std::string path = TempPath("roundtrip.capseg");
  ASSERT_TRUE(WriteSegmentFile(path, Fixture()).ok());

  SegmentOpenReport report;
  auto loaded = ReadSegmentFile(path, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.records_loaded, 4u);  // 2 sealed + 2 hot
  EXPECT_EQ(report.blocks_quarantined, 0u);
  EXPECT_FALSE(report.torn_tail);

  ASSERT_EQ(loaded->size(), 2u);  // sorted by key
  const SegmentSeries& a = (*loaded)[0];
  EXPECT_EQ(a.key, "cdbm011/cpu");
  EXPECT_EQ(a.freq, tsa::Frequency::kHourly);
  ASSERT_EQ(a.blocks.size(), 2u);
  EXPECT_EQ(a.blocks[0].start_epoch, 0);
  EXPECT_EQ(a.blocks[1].start_epoch, 32 * 3600);
  EXPECT_EQ(a.hot_start_epoch, 64 * 3600);
  ASSERT_EQ(a.hot.size(), 3u);
  EXPECT_DOUBLE_EQ(a.hot[0], 7.25);
  EXPECT_TRUE(std::isnan(a.hot[2]));
  auto decoded = DecodeBlockValues(a.blocks[1]);
  ASSERT_TRUE(decoded.ok());
  EXPECT_DOUBLE_EQ((*decoded)[0], 16.0);

  const SegmentSeries& b = (*loaded)[1];
  EXPECT_EQ(b.key, "cdbm012/memory");
  EXPECT_TRUE(b.blocks.empty());
  EXPECT_EQ(b.hot, (std::vector<double>{100.0, 101.0}));
}

TEST(SegmentTest, MissingFileIsNotFound) {
  auto loaded = ReadSegmentFile(TempPath("nope.capseg"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SegmentTest, RejectsForeignFile) {
  const std::string path = TempPath("foreign.capseg");
  WriteFileBytes(path, {'h', 'e', 'l', 'l', 'o', ' ', 'w', 'o', 'r', 'l', 'd'});
  EXPECT_FALSE(ReadSegmentFile(path).ok());
}

TEST(SegmentTest, WriteIsAtomic) {
  const std::string path = TempPath("atomic.capseg");
  ASSERT_TRUE(WriteSegmentFile(path, Fixture()).ok());
  // No .tmp residue after a successful write.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(SegmentTest, TornTailTruncatesAndKeepsSealedData) {
  const std::string path = TempPath("torn.capseg");
  // Write the hot-only series first so the file's final record is the hot
  // tail of the series that also has sealed blocks — the interesting crash.
  std::vector<SegmentSeries> fixture = Fixture();
  std::swap(fixture[0], fixture[1]);
  ASSERT_TRUE(WriteSegmentFile(path, fixture).ok());
  std::vector<std::uint8_t> bytes = ReadFileBytes(path);

  // Simulate a crash mid-append: read the trailer to find the index, then
  // cut the file inside the last record, losing index + trailer too.
  ASSERT_GE(bytes.size(), 12u);
  std::uint64_t index_offset = 0;
  for (int i = 0; i < 8; ++i) {
    index_offset |= static_cast<std::uint64_t>(bytes[bytes.size() - 12 + i])
                    << (8 * i);
  }
  ASSERT_LT(index_offset, bytes.size());
  bytes.resize(index_offset - 5);  // tears the final (hot) record
  WriteFileBytes(path, bytes);

  SegmentOpenReport report;
  auto loaded = ReadSegmentFile(path, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.records_loaded, 3u);  // everything before the tear

  // All sealed data survived.
  ASSERT_EQ(loaded->size(), 2u);
  const SegmentSeries& a = (*loaded)[0];
  ASSERT_EQ(a.blocks.size(), 2u);
  for (const SealedBlock& block : a.blocks) {
    EXPECT_TRUE(DecodeBlockValues(block).ok());
  }
  // The torn series lost only its hot tail; its end is the sealed end.
  EXPECT_FALSE(a.has_hot);
  EXPECT_TRUE(a.hot.empty());
  EXPECT_EQ(a.hot_start_epoch, 64 * 3600);  // synthesised from sealed end
  // The other series (written whole, earlier in the file) is untouched.
  const SegmentSeries& b = (*loaded)[1];
  EXPECT_TRUE(b.has_hot);
  EXPECT_EQ(b.hot, (std::vector<double>{100.0, 101.0}));

  // The file was physically truncated to the last whole record, so a
  // second open scans cleanly without a tear.
  EXPECT_EQ(std::filesystem::file_size(path), report.truncated_at);
  SegmentOpenReport second;
  ASSERT_TRUE(ReadSegmentFile(path, &second).ok());
  EXPECT_FALSE(second.torn_tail);
  EXPECT_EQ(second.records_loaded, 3u);
}

TEST(SegmentTest, CorruptPayloadQuarantinesOnlyThatBlock) {
  const std::string path = TempPath("corrupt.capseg");
  ASSERT_TRUE(WriteSegmentFile(path, Fixture()).ok());
  std::vector<std::uint8_t> bytes = ReadFileBytes(path);

  // First record starts after the 8-byte header:
  //   magic(4) meta_len(4) meta meta_crc(4) payload_len(4) payload ...
  std::uint32_t meta_len = 0;
  for (int i = 0; i < 4; ++i) {
    meta_len |= static_cast<std::uint32_t>(bytes[12 + i]) << (8 * i);
  }
  const std::size_t payload_begin = 8 + 4 + 4 + meta_len + 4 + 4;
  ASSERT_LT(payload_begin + 10, bytes.size());
  bytes[payload_begin + 10] ^= 0x40;  // bit rot inside block 0's payload
  WriteFileBytes(path, bytes);

  SegmentOpenReport report;
  auto loaded = ReadSegmentFile(path, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.blocks_quarantined, 1u);

  ASSERT_EQ(loaded->size(), 2u);
  const SegmentSeries& a = (*loaded)[0];
  ASSERT_EQ(a.blocks.size(), 2u);
  // Block 0 is quarantined but keeps its identity and grid slot.
  EXPECT_TRUE(a.blocks[0].quarantined);
  EXPECT_EQ(a.blocks[0].start_epoch, 0);
  EXPECT_EQ(a.blocks[0].count, 32u);
  auto nans = DecodeBlockValues(a.blocks[0]);
  ASSERT_TRUE(nans.ok());
  for (double v : *nans) EXPECT_TRUE(std::isnan(v));
  // Its neighbour and the other series are untouched.
  EXPECT_FALSE(a.blocks[1].quarantined);
  EXPECT_TRUE(DecodeBlockValues(a.blocks[1]).ok());
  EXPECT_EQ((*loaded)[1].hot.size(), 2u);
  EXPECT_EQ(a.hot.size(), 3u);
}

// A write carries each sealed block's CRC from its seal instead of
// re-CRCing the payload, and a reopen keeps the CRC it verified: bytes
// damaged in memory after the seal reopen quarantined, not as valid data.
TEST(SegmentTest, SealedCrcIsCarriedNotRecomputed) {
  std::vector<SegmentSeries> fixture = Fixture();
  std::vector<std::uint8_t>& payload = fixture[0].blocks[1].payload;
  ASSERT_FALSE(payload.empty());
  payload[payload.size() / 2] ^= 0x5A;
  const std::string path = TempPath("carried_crc.capseg");
  ASSERT_TRUE(WriteSegmentFile(path, fixture).ok());

  SegmentOpenReport report;
  auto loaded = ReadSegmentFile(path, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.blocks_quarantined, 1u);
  const SegmentSeries& a = (*loaded)[0];
  ASSERT_EQ(a.blocks.size(), 2u);
  EXPECT_FALSE(a.blocks[0].quarantined);
  EXPECT_EQ(a.blocks[0].crc, fixture[0].blocks[0].crc);
  EXPECT_TRUE(a.blocks[1].quarantined);
  auto nans = DecodeBlockValues(a.blocks[1]);
  ASSERT_TRUE(nans.ok());
  ASSERT_EQ(nans->size(), 32u);
  for (double v : *nans) EXPECT_TRUE(std::isnan(v));
}

TEST(SegmentTest, QuarantinedPlaceholdersDoNotPersist) {
  std::vector<double> run(16, 2.0);
  SegmentSeries s;
  s.key = "k";
  s.freq = tsa::Frequency::kHourly;
  s.blocks = {QuarantinedBlock(0, 3600, 16), SealBlock(16 * 3600, 3600, run)};
  s.hot_start_epoch = 32 * 3600;
  const std::string path = TempPath("placeholder.capseg");
  ASSERT_TRUE(WriteSegmentFile(path, {s}).ok());
  auto loaded = ReadSegmentFile(path);
  ASSERT_TRUE(loaded.ok());
  // Only the healthy block was written; the hole is implicit in the grid
  // (SeriesStore::Restore re-creates the placeholder from the gap).
  ASSERT_EQ(loaded->size(), 1u);
  ASSERT_EQ((*loaded)[0].blocks.size(), 1u);
  EXPECT_EQ((*loaded)[0].blocks[0].start_epoch, 16 * 3600);
}

// Pins the on-disk byte layout. If this test fails you have changed the
// segment format: bump kVersion in segment.cc, add migration handling, and
// re-pin these constants — never re-pin silently.
TEST(SegmentTest, GoldenByteLayout) {
  std::vector<double> run;
  for (int i = 0; i < 16; ++i) run.push_back(static_cast<double>(i + 1));
  SegmentSeries s;
  s.key = "g/cpu";
  s.freq = tsa::Frequency::kHourly;
  s.blocks = {SealBlock(0, 3600, run)};
  s.hot_start_epoch = 16 * 3600;
  s.hot = {17.5};
  const std::string path = TempPath("golden.capseg");
  ASSERT_TRUE(WriteSegmentFile(path, {s}).ok());
  const std::vector<std::uint8_t> bytes = ReadFileBytes(path);

  // Header: "CSEG", version 1, flags 0.
  ASSERT_GE(bytes.size(), 12u);
  EXPECT_EQ(bytes[0], 'C');
  EXPECT_EQ(bytes[1], 'S');
  EXPECT_EQ(bytes[2], 'E');
  EXPECT_EQ(bytes[3], 'G');
  EXPECT_EQ(bytes[4], 1u);
  EXPECT_EQ(bytes[5], 0u);
  // First record magic: "CREC".
  EXPECT_EQ(bytes[8], 'C');
  EXPECT_EQ(bytes[9], 'R');
  EXPECT_EQ(bytes[10], 'E');
  EXPECT_EQ(bytes[11], 'C');
  // Trailer magic: "CEND".
  EXPECT_EQ(bytes[bytes.size() - 4], 'C');
  EXPECT_EQ(bytes[bytes.size() - 3], 'E');
  EXPECT_EQ(bytes[bytes.size() - 2], 'N');
  EXPECT_EQ(bytes[bytes.size() - 1], 'D');

  // The pinned whole-file fingerprint: any codec or layout change lands
  // here.
  const std::size_t kGoldenSize = 192;
  const std::uint32_t kGoldenCrc = 1419808865u;
  EXPECT_EQ(bytes.size(), kGoldenSize);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), kGoldenCrc)
      << "segment byte layout changed";
}

}  // namespace
}  // namespace capplan::store
