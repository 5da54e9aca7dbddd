#ifndef CAPPLAN_STORE_SEGMENT_H_
#define CAPPLAN_STORE_SEGMENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "store/codec.h"
#include "tsa/timeseries.h"

namespace capplan::store {

// On-disk segment format (.capseg) — the persistence layer under
// TieredStore. One file holds every series of a tier: an append-only run of
// self-checking records followed by an index footer, written atomically
// (tmp + rename) so a crash leaves either the old file or the new one.
//
//   header   : "CSEG" | u16 version | u16 flags
//   records  : repeated —
//     u32 "CREC"
//     u32 meta_len   | meta bytes | u32 meta_crc   (CRC-32 of meta)
//     u32 payload_len| payload    | u32 payload_crc(CRC-32 of payload)
//   footer   : u32 "CIDX" | u32 n_records
//              n_records x { u64 offset | u32 total_len }
//              u32 index_crc | u64 index_offset | u32 "CEND"
//
//   meta     : u8 kind (0 sealed block, 1 hot tail) | u8 frequency
//              u16 key_len | key | i64 start_epoch | i64 step_seconds
//              u32 count
//   payload  : sealed — the block's codec payload (codec.h);
//              hot    — count raw little-endian doubles.
//
// All integers are little-endian. Reopen is crash-safe:
//   * a valid trailer lets the reader walk the index directly;
//   * without one (crash mid-write of an appended tail) the reader scans
//     records sequentially and truncates the torn tail at the last whole
//     record, losing only what was mid-write;
//   * a record whose payload fails its CRC (bit rot, injected corruption)
//     is quarantined alone: its identity survives via the meta, its samples
//     come back as NaN, and every other record still loads.

// One series' persisted state.
struct SegmentSeries {
  std::string key;
  tsa::Frequency freq = tsa::Frequency::kHourly;
  std::vector<SealedBlock> blocks;
  std::int64_t hot_start_epoch = 0;  // end of the sealed region
  std::vector<double> hot;
  // Whether a hot record was actually read back. A crash can tear the hot
  // record off the tail; the reader then synthesizes hot_start_epoch from
  // the sealed blocks so the series still restores (sans its hot tail).
  bool has_hot = false;
};

struct SegmentOpenReport {
  std::size_t records_loaded = 0;
  std::size_t blocks_quarantined = 0;  // payload CRC mismatches
  bool torn_tail = false;
  std::uint64_t truncated_at = 0;  // file offset of the torn tail, if any
};

// Builds one segment file record by record, straight from the caller's
// blocks, and writes it atomically (tmp file + rename) on Finish. A sealed
// record carries its block's own CRC, computed at seal and verified at
// reopen, so a payload damaged in memory since then reopens quarantined.
class SegmentWriter {
 public:
  SegmentWriter();

  // One sealed block of `key`; quarantined placeholders do not persist.
  void AddSealed(const std::string& key, tsa::Frequency freq,
                 const SealedBlock& block);
  // The hot tail of `key`, starting at `start_epoch`.
  void AddHot(const std::string& key, tsa::Frequency freq,
              std::int64_t start_epoch, const std::vector<double>& hot);
  // Appends the index footer and writes the file.
  Status Finish(const std::string& path);

 private:
  void AddRecord(const std::string& meta, const void* payload,
                 std::size_t payload_len, std::uint32_t payload_crc);

  std::string out_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> index_;
};

// Writes `series` (blocks, then the hot tail, per series) with
// SegmentWriter.
Status WriteSegmentFile(const std::string& path,
                        const std::vector<SegmentSeries>& series);

// Reads a segment back, applying the recovery rules above. When a torn
// tail is found the file is also physically truncated to the last whole
// record so a later appender starts from a clean boundary.
Result<std::vector<SegmentSeries>> ReadSegmentFile(
    const std::string& path, SegmentOpenReport* report = nullptr);

}  // namespace capplan::store

#endif  // CAPPLAN_STORE_SEGMENT_H_
