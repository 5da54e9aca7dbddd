#include "store/segment.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>

namespace capplan::store {

namespace {

constexpr std::uint32_t kHeaderMagic = 0x47455343;   // "CSEG"
constexpr std::uint32_t kRecordMagic = 0x43455243;   // "CREC"
constexpr std::uint32_t kIndexMagic = 0x58444943;    // "CIDX"
constexpr std::uint32_t kTrailerMagic = 0x444E4543;  // "CEND"
constexpr std::uint16_t kVersion = 1;

constexpr std::uint8_t kKindSealed = 0;
constexpr std::uint8_t kKindHot = 1;

void PutU16(std::string* out, std::uint16_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>(v >> 8));
}

void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutI64(std::string* out, std::int64_t v) {
  PutU64(out, static_cast<std::uint64_t>(v));
}

// Bounds-checked little-endian reads over the mapped file bytes.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size, std::size_t pos = 0)
      : data_(data), size_(size), pos_(pos) {}

  bool U16(std::uint16_t* v) {
    if (pos_ + 2 > size_) return false;
    *v = static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return true;
  }
  bool U32(std::uint32_t* v) {
    if (pos_ + 4 > size_) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool U64(std::uint64_t* v) {
    if (pos_ + 8 > size_) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool I64(std::int64_t* v) {
    std::uint64_t u = 0;
    if (!U64(&u)) return false;
    *v = static_cast<std::int64_t>(u);
    return true;
  }
  bool Bytes(std::size_t n, const std::uint8_t** out) {
    if (pos_ + n > size_) return false;
    *out = data_ + pos_;
    pos_ += n;
    return true;
  }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_;
};

std::string EncodeMeta(std::uint8_t kind, tsa::Frequency freq,
                       const std::string& key, std::int64_t start_epoch,
                       std::int64_t step_seconds, std::uint32_t count) {
  std::string meta;
  meta.push_back(static_cast<char>(kind));
  meta.push_back(static_cast<char>(freq));
  PutU16(&meta, static_cast<std::uint16_t>(key.size()));
  meta.append(key);
  PutI64(&meta, start_epoch);
  PutI64(&meta, step_seconds);
  PutU32(&meta, count);
  return meta;
}

struct ParsedRecord {
  std::uint8_t kind = 0;
  tsa::Frequency freq = tsa::Frequency::kHourly;
  std::string key;
  std::int64_t start_epoch = 0;
  std::int64_t step_seconds = 0;
  std::uint32_t count = 0;
  const std::uint8_t* payload = nullptr;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;  // as stored
  bool payload_ok = false;        // payload CRC verdict
};

enum class RecordParse { kOk, kTorn, kBadMeta };

// Parses one record at reader position. kTorn: the bytes end mid-record
// (crash tail). kBadMeta: a structurally complete record whose meta fails
// its CRC — unrecoverable identity, treated like a torn tail by callers
// because the following offsets can no longer be trusted without an index.
RecordParse ParseRecord(ByteReader* r, ParsedRecord* rec) {
  std::uint32_t magic = 0;
  if (!r->U32(&magic)) return RecordParse::kTorn;
  if (magic != kRecordMagic) return RecordParse::kTorn;
  std::uint32_t meta_len = 0;
  if (!r->U32(&meta_len)) return RecordParse::kTorn;
  const std::uint8_t* meta = nullptr;
  if (meta_len > r->remaining() || !r->Bytes(meta_len, &meta)) {
    return RecordParse::kTorn;
  }
  std::uint32_t meta_crc = 0;
  if (!r->U32(&meta_crc)) return RecordParse::kTorn;
  std::uint32_t payload_len = 0;
  if (!r->U32(&payload_len)) return RecordParse::kTorn;
  const std::uint8_t* payload = nullptr;
  if (payload_len > r->remaining() || !r->Bytes(payload_len, &payload)) {
    return RecordParse::kTorn;
  }
  std::uint32_t payload_crc = 0;
  if (!r->U32(&payload_crc)) return RecordParse::kTorn;

  if (Crc32(meta, meta_len) != meta_crc) return RecordParse::kBadMeta;

  ByteReader mr(meta, meta_len);
  std::uint16_t key_len = 0;
  std::uint8_t kind_byte = 0, freq_byte = 0;
  const std::uint8_t* kind_ptr = nullptr;
  if (!mr.Bytes(1, &kind_ptr)) return RecordParse::kBadMeta;
  kind_byte = *kind_ptr;
  const std::uint8_t* freq_ptr = nullptr;
  if (!mr.Bytes(1, &freq_ptr)) return RecordParse::kBadMeta;
  freq_byte = *freq_ptr;
  if (!mr.U16(&key_len)) return RecordParse::kBadMeta;
  const std::uint8_t* key = nullptr;
  if (!mr.Bytes(key_len, &key)) return RecordParse::kBadMeta;
  if (!mr.I64(&rec->start_epoch) || !mr.I64(&rec->step_seconds) ||
      !mr.U32(&rec->count)) {
    return RecordParse::kBadMeta;
  }
  if (freq_byte > static_cast<std::uint8_t>(tsa::Frequency::kMonthly)) {
    return RecordParse::kBadMeta;
  }
  rec->kind = kind_byte;
  rec->freq = static_cast<tsa::Frequency>(freq_byte);
  rec->key.assign(reinterpret_cast<const char*>(key), key_len);
  rec->payload = payload;
  rec->payload_len = payload_len;
  rec->payload_crc = payload_crc;
  rec->payload_ok = Crc32(payload, payload_len) == payload_crc;
  return RecordParse::kOk;
}

}  // namespace

SegmentWriter::SegmentWriter() {
  PutU32(&out_, kHeaderMagic);
  PutU16(&out_, kVersion);
  PutU16(&out_, 0);  // flags
}

void SegmentWriter::AddRecord(const std::string& meta, const void* payload,
                              std::size_t payload_len,
                              std::uint32_t payload_crc) {
  const std::uint64_t offset = out_.size();
  PutU32(&out_, kRecordMagic);
  PutU32(&out_, static_cast<std::uint32_t>(meta.size()));
  out_.append(meta);
  PutU32(&out_, Crc32(meta.data(), meta.size()));
  PutU32(&out_, static_cast<std::uint32_t>(payload_len));
  out_.append(static_cast<const char*>(payload), payload_len);
  PutU32(&out_, payload_crc);
  index_.push_back(
      {offset, static_cast<std::uint32_t>(out_.size() - offset)});
}

void SegmentWriter::AddSealed(const std::string& key, tsa::Frequency freq,
                              const SealedBlock& block) {
  if (block.quarantined) return;
  AddRecord(EncodeMeta(kKindSealed, freq, key, block.start_epoch,
                       block.step_seconds, block.count),
            block.payload.data(), block.payload.size(), block.crc);
}

void SegmentWriter::AddHot(const std::string& key, tsa::Frequency freq,
                           std::int64_t start_epoch,
                           const std::vector<double>& hot) {
  std::string payload;
  payload.reserve(hot.size() * 8);
  for (double v : hot) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    PutU64(&payload, bits);
  }
  AddRecord(EncodeMeta(kKindHot, freq, key, start_epoch,
                       tsa::FrequencySeconds(freq),
                       static_cast<std::uint32_t>(hot.size())),
            payload.data(), payload.size(),
            Crc32(payload.data(), payload.size()));
}

Status SegmentWriter::Finish(const std::string& path) {
  const std::uint64_t index_offset = out_.size();
  PutU32(&out_, kIndexMagic);
  PutU32(&out_, static_cast<std::uint32_t>(index_.size()));
  std::string entries;
  for (const auto& [offset, len] : index_) {
    PutU64(&entries, offset);
    PutU32(&entries, len);
  }
  out_.append(entries);
  PutU32(&out_, Crc32(entries.data(), entries.size()));
  PutU64(&out_, index_offset);
  PutU32(&out_, kTrailerMagic);

  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f.is_open()) {
      return Status::IoError("store: cannot open " + tmp + " for writing");
    }
    f.write(out_.data(), static_cast<std::streamsize>(out_.size()));
    if (!f.good()) return Status::IoError("store: short write to " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IoError("store: rename " + tmp + " -> " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

Status WriteSegmentFile(const std::string& path,
                        const std::vector<SegmentSeries>& series) {
  SegmentWriter writer;
  for (const SegmentSeries& s : series) {
    for (const SealedBlock& b : s.blocks) writer.AddSealed(s.key, s.freq, b);
    writer.AddHot(s.key, s.freq, s.hot_start_epoch, s.hot);
  }
  return writer.Finish(path);
}

Result<std::vector<SegmentSeries>> ReadSegmentFile(const std::string& path,
                                                   SegmentOpenReport* report) {
  SegmentOpenReport local;
  if (report == nullptr) report = &local;
  *report = SegmentOpenReport{};

  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f.is_open()) {
    return Status::NotFound("store: no segment file at " + path);
  }
  const auto size = static_cast<std::size_t>(f.tellg());
  std::vector<std::uint8_t> bytes(size);
  f.seekg(0);
  f.read(reinterpret_cast<char*>(bytes.data()),
         static_cast<std::streamsize>(size));
  if (!f.good() && size > 0) {
    return Status::IoError("store: cannot read " + path);
  }

  ByteReader header(bytes.data(), size);
  std::uint32_t magic = 0;
  std::uint16_t version = 0, flags = 0;
  if (!header.U32(&magic) || magic != kHeaderMagic) {
    return Status::IoError("store: " + path + " is not a segment file");
  }
  if (!header.U16(&version) || !header.U16(&flags)) {
    return Status::IoError("store: truncated segment header in " + path);
  }
  if (version != kVersion) {
    return Status::IoError("store: unsupported segment version " +
                           std::to_string(version));
  }

  // Fast path: a valid trailer yields the exact record offsets.
  std::vector<std::uint64_t> offsets;
  bool have_index = false;
  if (size >= header.pos() + 12) {
    ByteReader tail(bytes.data(), size, size - 12);
    std::uint64_t index_offset = 0;
    std::uint32_t trailer = 0;
    if (tail.U64(&index_offset) && tail.U32(&trailer) &&
        trailer == kTrailerMagic && index_offset >= header.pos() &&
        index_offset < size) {
      ByteReader idx(bytes.data(), size, index_offset);
      std::uint32_t idx_magic = 0, n_records = 0;
      if (idx.U32(&idx_magic) && idx_magic == kIndexMagic &&
          idx.U32(&n_records) &&
          n_records <= (size - idx.pos()) / 12) {
        const std::uint8_t* entries = nullptr;
        std::uint32_t idx_crc = 0;
        if (idx.Bytes(static_cast<std::size_t>(n_records) * 12, &entries) &&
            idx.U32(&idx_crc) &&
            Crc32(entries, static_cast<std::size_t>(n_records) * 12) ==
                idx_crc) {
          have_index = true;
          ByteReader er(entries, static_cast<std::size_t>(n_records) * 12);
          for (std::uint32_t i = 0; i < n_records; ++i) {
            std::uint64_t offset = 0;
            std::uint32_t len = 0;
            (void)er.U64(&offset);
            (void)er.U32(&len);
            offsets.push_back(offset);
          }
        }
      }
    }
  }

  std::map<std::string, SegmentSeries> series;
  auto admit = [&](const ParsedRecord& rec) {
    SegmentSeries& s = series[rec.key];
    s.key = rec.key;
    s.freq = rec.freq;
    if (rec.kind == kKindHot) {
      s.has_hot = true;
      s.hot_start_epoch = rec.start_epoch;
      s.hot.clear();
      s.hot.reserve(rec.count);
      ByteReader pr(rec.payload, rec.payload_len);
      for (std::uint32_t i = 0; i < rec.count; ++i) {
        std::uint64_t bits = 0;
        if (!pr.U64(&bits)) break;
        double v;
        std::memcpy(&v, &bits, sizeof v);
        s.hot.push_back(v);
      }
    } else {
      SealedBlock block;
      block.start_epoch = rec.start_epoch;
      block.step_seconds = rec.step_seconds;
      block.count = rec.count;
      if (rec.payload_ok) {
        block.payload.assign(rec.payload, rec.payload + rec.payload_len);
        block.crc = rec.payload_crc;  // verified by ParseRecord
      } else {
        block.quarantined = true;
        ++report->blocks_quarantined;
      }
      s.blocks.push_back(std::move(block));
    }
    ++report->records_loaded;
  };

  if (have_index) {
    for (std::uint64_t offset : offsets) {
      ByteReader r(bytes.data(), size, static_cast<std::size_t>(offset));
      ParsedRecord rec;
      if (ParseRecord(&r, &rec) != RecordParse::kOk) {
        // The index vouched for this offset; a broken record here means
        // in-place corruption of meta — quarantine by omission.
        ++report->blocks_quarantined;
        continue;
      }
      admit(rec);
    }
  } else {
    // No trusted index (torn mid-write): sequential scan, stop at the tear.
    ByteReader r(bytes.data(), size, header.pos());
    while (r.remaining() > 0) {
      const std::size_t record_start = r.pos();
      // The index footer of a whole file also ends a scan.
      ByteReader peek(bytes.data(), size, record_start);
      std::uint32_t next_magic = 0;
      if (peek.U32(&next_magic) && next_magic == kIndexMagic) break;
      ParsedRecord rec;
      const RecordParse verdict = ParseRecord(&r, &rec);
      if (verdict != RecordParse::kOk) {
        report->torn_tail = true;
        report->truncated_at = record_start;
        std::error_code ec;
        std::filesystem::resize_file(path, record_start, ec);
        break;  // truncation best-effort; the data before it is intact
      }
      admit(rec);
    }
  }

  std::vector<SegmentSeries> out;
  out.reserve(series.size());
  for (auto& [key, s] : series) {
    if (!s.has_hot) {
      // The hot record was torn off the tail: the series ends where its
      // last sealed block does.
      s.hot_start_epoch = 0;
      for (const SealedBlock& b : s.blocks) {
        const std::int64_t block_end =
            b.start_epoch + static_cast<std::int64_t>(b.count) * b.step_seconds;
        s.hot_start_epoch = std::max(s.hot_start_epoch, block_end);
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace capplan::store
