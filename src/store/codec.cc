#include "store/codec.h"

#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "store/bitstream.h"

namespace capplan::store {

namespace {

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double BitsToDouble(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::uint64_t ZigZag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t UnZigZag(std::uint64_t z) {
  return static_cast<std::int64_t>(z >> 1) ^
         -static_cast<std::int64_t>(z & 1);
}

// Gorilla-style variable-width buckets for a zigzagged delta-of-delta.
// Control prefixes: 0 | 10 | 110 | 1110 | ... | 1111111, one bucket per
// payload width below. The 16/20-bit rungs matter for high-volume counters
// (logical IOPS swings six figures per hour); without them every such delta
// pays the full 32-bit bucket.
constexpr int kDodWidths[] = {7, 9, 12, 16, 20, 32, 64};
constexpr int kDodLevels = 7;

void WriteDod(BitWriter* w, std::int64_t dod) {
  if (dod == 0) {
    w->WriteBit(false);
    return;
  }
  const std::uint64_t z = ZigZag(dod);
  for (int level = 0; level < kDodLevels; ++level) {
    const int width = kDodWidths[level];
    if (width == 64 || z < (1ull << width)) {
      // level+1 ones, then a zero terminator (omitted on the last level).
      for (int i = 0; i <= level; ++i) w->WriteBit(true);
      if (level + 1 < kDodLevels) w->WriteBit(false);
      w->WriteBits(z, width);
      return;
    }
  }
}

bool ReadDod(BitReader* r, std::int64_t* out) {
  bool bit = false;
  if (!r->ReadBit(&bit)) return false;
  if (!bit) {
    *out = 0;
    return true;
  }
  int level = 0;
  for (; level + 1 < kDodLevels; ++level) {
    if (!r->ReadBit(&bit)) return false;
    if (!bit) break;
  }
  std::uint64_t z = 0;
  if (!r->ReadBits(kDodWidths[level], &z)) return false;
  *out = UnZigZag(z);
  return true;
}

// Value-stream header. Mode lives in the low nibble of byte 0; bit 7 flags
// a presence bitmap (kInt blocks with canonical-NaN gaps). kInt is followed
// by one scale byte s: stored integers are value * 2^s.
constexpr std::uint8_t kModeConst = 0;
constexpr std::uint8_t kModeInt = 1;
constexpr std::uint8_t kModeXor = 2;
constexpr std::uint8_t kGapsFlag = 0x80;
constexpr int kMaxIntScale = 6;

const std::uint64_t kCanonicalNanBits =
    DoubleBits(std::numeric_limits<double>::quiet_NaN());

bool IsCanonicalNan(double v) { return DoubleBits(v) == kCanonicalNanBits; }

// True when v * 2^scale is an integer that reconstructs bit-exactly.
bool ScaledIntegral(double v, int scale, std::int64_t* out) {
  const double scaled = std::ldexp(v, scale);
  if (!(std::fabs(scaled) <= 9.007199254740992e15)) return false;  // 2^53
  const double rounded = std::nearbyint(scaled);
  if (rounded != scaled) return false;
  const auto m = static_cast<std::int64_t>(rounded);
  if (DoubleBits(std::ldexp(static_cast<double>(m), -scale)) != DoubleBits(v)) {
    return false;
  }
  *out = m;
  return true;
}

// Finds the smallest scale (0..kMaxIntScale) that makes every finite sample
// integral; NaN samples must be canonical to ride the presence bitmap.
bool PlanIntMode(const std::vector<double>& values, int* scale_out,
                 bool* has_gaps) {
  bool gaps = false;
  for (double v : values) {
    if (std::isnan(v)) {
      if (!IsCanonicalNan(v)) return false;  // exact payload needs kXor
      gaps = true;
    } else if (std::isinf(v)) {
      return false;
    }
  }
  for (int scale = 0; scale <= kMaxIntScale; ++scale) {
    bool ok = true;
    std::int64_t unused;
    for (double v : values) {
      if (!std::isnan(v) && !ScaledIntegral(v, scale, &unused)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      *scale_out = scale;
      *has_gaps = gaps;
      return true;
    }
  }
  return false;
}

std::vector<std::uint8_t> EncodeInt(const std::vector<double>& values,
                                    int scale, bool has_gaps) {
  BitWriter w;
  std::int64_t prev = 0;
  std::int64_t prev_delta = 0;
  bool first = true;
  for (double v : values) {
    if (has_gaps) {
      const bool present = !std::isnan(v);
      w.WriteBit(present);
      if (!present) continue;
    }
    std::int64_t m = 0;
    (void)ScaledIntegral(v, scale, &m);
    if (first) {
      w.WriteBits(static_cast<std::uint64_t>(m), 64);
      prev = m;
      first = false;
      continue;
    }
    const std::int64_t delta = m - prev;
    WriteDod(&w, delta - prev_delta);
    prev_delta = delta;
    prev = m;
  }
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(kModeInt |
                                          (has_gaps ? kGapsFlag : 0)));
  out.push_back(static_cast<std::uint8_t>(scale));
  const auto& bits = w.bytes();
  out.insert(out.end(), bits.begin(), bits.end());
  return out;
}

Result<std::vector<double>> DecodeInt(const std::uint8_t* data,
                                      std::size_t size, std::size_t count,
                                      bool has_gaps) {
  if (size < 2) return Status::IoError("codec: truncated int header");
  const int scale = data[1];
  if (scale > kMaxIntScale) {
    return Status::IoError("codec: bad int scale " + std::to_string(scale));
  }
  BitReader r(data + 2, size - 2);
  std::vector<double> out;
  out.reserve(count);
  std::uint64_t prev = 0;  // wrapping, as in DecodeTimestamps
  std::uint64_t prev_delta = 0;
  bool first = true;
  for (std::size_t i = 0; i < count; ++i) {
    if (has_gaps) {
      bool present = false;
      if (!r.ReadBit(&present)) {
        return Status::IoError("codec: truncated int presence stream");
      }
      if (!present) {
        out.push_back(std::numeric_limits<double>::quiet_NaN());
        continue;
      }
    }
    if (first) {
      if (!r.ReadBits(64, &prev)) {
        return Status::IoError("codec: truncated int stream");
      }
      first = false;
    } else {
      std::int64_t dod = 0;
      if (!ReadDod(&r, &dod)) {
        return Status::IoError("codec: truncated int stream");
      }
      prev_delta += static_cast<std::uint64_t>(dod);
      prev += prev_delta;
    }
    const auto m = static_cast<std::int64_t>(prev);
    out.push_back(std::ldexp(static_cast<double>(m), -scale));
  }
  return out;
}

std::vector<std::uint8_t> EncodeXor(const std::vector<double>& values) {
  BitWriter w;
  std::uint64_t prev = 0;
  int prev_leading = -1;   // -1: no reusable window yet
  int prev_sigbits = 0;
  bool first = true;
  for (double v : values) {
    const std::uint64_t bits = DoubleBits(v);
    if (first) {
      w.WriteBits(bits, 64);
      prev = bits;
      first = false;
      continue;
    }
    const std::uint64_t x = bits ^ prev;
    prev = bits;
    if (x == 0) {
      w.WriteBit(false);
      continue;
    }
    w.WriteBit(true);
    int leading = 0;
    std::uint64_t probe = x;
    while ((probe & (1ull << 63)) == 0) {
      ++leading;
      probe <<= 1;
    }
    if (leading > 31) leading = 31;  // 5-bit field
    int trailing = 0;
    probe = x;
    while ((probe & 1u) == 0) {
      ++trailing;
      probe >>= 1;
    }
    const int sigbits = 64 - leading - trailing;
    const int prev_trailing =
        prev_leading >= 0 ? 64 - prev_leading - prev_sigbits : 0;
    if (prev_leading >= 0 && leading >= prev_leading &&
        trailing >= prev_trailing) {
      // Fits the previous window: control '0' + the window's bits.
      w.WriteBit(false);
      w.WriteBits(x >> prev_trailing, prev_sigbits);
    } else {
      w.WriteBit(true);
      w.WriteBits(static_cast<std::uint64_t>(leading), 5);
      w.WriteBits(static_cast<std::uint64_t>(sigbits - 1), 6);
      w.WriteBits(x >> trailing, sigbits);
      prev_leading = leading;
      prev_sigbits = sigbits;
    }
  }
  std::vector<std::uint8_t> out;
  out.push_back(kModeXor);
  const auto& bits = w.bytes();
  out.insert(out.end(), bits.begin(), bits.end());
  return out;
}

Result<std::vector<double>> DecodeXor(const std::uint8_t* data,
                                      std::size_t size, std::size_t count) {
  BitReader r(data + 1, size - 1);
  std::vector<double> out;
  out.reserve(count);
  std::uint64_t prev = 0;
  int win_leading = 0;
  int win_sigbits = 0;
  bool have_window = false;
  for (std::size_t i = 0; i < count; ++i) {
    if (i == 0) {
      if (!r.ReadBits(64, &prev)) {
        return Status::IoError("codec: truncated xor stream");
      }
      out.push_back(BitsToDouble(prev));
      continue;
    }
    bool changed = false;
    if (!r.ReadBit(&changed)) {
      return Status::IoError("codec: truncated xor stream");
    }
    if (!changed) {
      out.push_back(BitsToDouble(prev));
      continue;
    }
    bool new_window = false;
    if (!r.ReadBit(&new_window)) {
      return Status::IoError("codec: truncated xor stream");
    }
    if (new_window) {
      std::uint64_t leading = 0, sigbits = 0;
      if (!r.ReadBits(5, &leading) || !r.ReadBits(6, &sigbits)) {
        return Status::IoError("codec: truncated xor stream");
      }
      win_leading = static_cast<int>(leading);
      win_sigbits = static_cast<int>(sigbits) + 1;
      have_window = true;
    } else if (!have_window) {
      return Status::IoError("codec: xor window reuse before definition");
    }
    std::uint64_t mantissa = 0;
    if (!r.ReadBits(win_sigbits, &mantissa)) {
      return Status::IoError("codec: truncated xor stream");
    }
    const int trailing = 64 - win_leading - win_sigbits;
    prev ^= mantissa << trailing;
    out.push_back(BitsToDouble(prev));
  }
  return out;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t len, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// Deltas wrap in uint64_t: the bits of int64_t arithmetic wherever that
// does not overflow, and defined where it would (any int64 timestamps, or
// a damaged stream on decode).
std::vector<std::uint8_t> EncodeTimestamps(
    const std::vector<std::int64_t>& timestamps) {
  BitWriter w;
  std::uint64_t prev = 0;
  std::uint64_t prev_delta = 0;
  for (std::size_t i = 0; i < timestamps.size(); ++i) {
    const auto t = static_cast<std::uint64_t>(timestamps[i]);
    if (i == 0) {
      w.WriteBits(t, 64);
      prev = t;
      continue;
    }
    const std::uint64_t delta = t - prev;
    WriteDod(&w, static_cast<std::int64_t>(delta - prev_delta));
    prev_delta = delta;
    prev = t;
  }
  return w.TakeBytes();
}

Result<std::vector<std::int64_t>> DecodeTimestamps(const std::uint8_t* data,
                                                   std::size_t size,
                                                   std::size_t count) {
  std::vector<std::int64_t> out;
  if (count == 0) return out;
  BitReader r(data, size);
  out.reserve(count);
  std::uint64_t first = 0;
  if (!r.ReadBits(64, &first)) {
    return Status::IoError("codec: truncated timestamp stream");
  }
  std::uint64_t prev = first;
  std::uint64_t prev_delta = 0;
  out.push_back(static_cast<std::int64_t>(prev));
  for (std::size_t i = 1; i < count; ++i) {
    std::int64_t dod = 0;
    if (!ReadDod(&r, &dod)) {
      return Status::IoError("codec: truncated timestamp stream");
    }
    prev_delta += static_cast<std::uint64_t>(dod);
    prev += prev_delta;
    out.push_back(static_cast<std::int64_t>(prev));
  }
  return out;
}

std::vector<std::uint8_t> EncodeValues(const std::vector<double>& values) {
  if (values.empty()) return {};

  // kConst: one shared bit pattern (flatlines, all-NaN outage masks).
  const std::uint64_t first_bits = DoubleBits(values[0]);
  bool all_same = true;
  for (double v : values) {
    if (DoubleBits(v) != first_bits) {
      all_same = false;
      break;
    }
  }
  if (all_same) {
    std::vector<std::uint8_t> out(1 + 8);
    out[0] = kModeConst;
    for (int i = 0; i < 8; ++i) {
      out[1 + i] = static_cast<std::uint8_t>(first_bits >> (8 * i));
    }
    return out;
  }

  int scale = 0;
  bool has_gaps = false;
  std::vector<std::uint8_t> best = EncodeXor(values);
  if (PlanIntMode(values, &scale, &has_gaps)) {
    std::vector<std::uint8_t> as_int = EncodeInt(values, scale, has_gaps);
    if (as_int.size() < best.size()) best = std::move(as_int);
  }
  return best;
}

Result<std::vector<double>> DecodeValues(const std::uint8_t* data,
                                         std::size_t size,
                                         std::size_t count) {
  if (count == 0) return std::vector<double>{};
  if (size == 0) return Status::IoError("codec: empty value stream");
  const std::uint8_t mode = data[0] & 0x0F;
  const bool has_gaps = (data[0] & kGapsFlag) != 0;
  switch (mode) {
    case kModeConst: {
      if (size < 9) return Status::IoError("codec: truncated const block");
      std::uint64_t bits = 0;
      for (int i = 0; i < 8; ++i) {
        bits |= static_cast<std::uint64_t>(data[1 + i]) << (8 * i);
      }
      return std::vector<double>(count, BitsToDouble(bits));
    }
    case kModeInt:
      return DecodeInt(data, size, count, has_gaps);
    case kModeXor:
      return DecodeXor(data, size, count);
    default:
      return Status::IoError("codec: unknown value mode " +
                             std::to_string(mode));
  }
}

SealedBlock SealBlock(std::int64_t start_epoch, std::int64_t step_seconds,
                      const std::vector<double>& values) {
  SealedBlock block;
  block.start_epoch = start_epoch;
  block.step_seconds = step_seconds;
  block.count = static_cast<std::uint32_t>(values.size());

  std::vector<std::int64_t> timestamps(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    timestamps[i] = start_epoch + static_cast<std::int64_t>(i) * step_seconds;
  }
  const std::vector<std::uint8_t> ts = EncodeTimestamps(timestamps);
  const std::vector<std::uint8_t> vals = EncodeValues(values);

  block.payload.reserve(4 + ts.size() + vals.size());
  const auto ts_len = static_cast<std::uint32_t>(ts.size());
  for (int i = 0; i < 4; ++i) {
    block.payload.push_back(static_cast<std::uint8_t>(ts_len >> (8 * i)));
  }
  block.payload.insert(block.payload.end(), ts.begin(), ts.end());
  block.payload.insert(block.payload.end(), vals.begin(), vals.end());
  block.crc = Crc32(block.payload.data(), block.payload.size());
  return block;
}

SealedBlock QuarantinedBlock(std::int64_t start_epoch,
                             std::int64_t step_seconds, std::uint32_t count) {
  SealedBlock block;
  block.start_epoch = start_epoch;
  block.step_seconds = step_seconds;
  block.count = count;
  block.quarantined = true;
  return block;
}

Result<std::vector<double>> DecodeBlockValues(const SealedBlock& block) {
  if (block.quarantined) {
    return std::vector<double>(block.count,
                               std::numeric_limits<double>::quiet_NaN());
  }
  if (Crc32(block.payload.data(), block.payload.size()) != block.crc) {
    return Status::IoError("store: block CRC mismatch at epoch " +
                           std::to_string(block.start_epoch));
  }
  if (block.payload.size() < 4) {
    return Status::IoError("store: truncated block payload");
  }
  std::uint32_t ts_len = 0;
  for (int i = 0; i < 4; ++i) {
    ts_len |= static_cast<std::uint32_t>(block.payload[i]) << (8 * i);
  }
  if (4 + static_cast<std::size_t>(ts_len) > block.payload.size()) {
    return Status::IoError("store: bad timestamp stream length");
  }
  CAPPLAN_ASSIGN_OR_RETURN(
      std::vector<std::int64_t> timestamps,
      DecodeTimestamps(block.payload.data() + 4, ts_len, block.count));
  if (!timestamps.empty() && timestamps[0] != block.start_epoch) {
    return Status::IoError("store: block timestamp stream disagrees with "
                           "header start epoch");
  }
  const std::uint8_t* values = block.payload.data() + 4 + ts_len;
  const std::size_t values_len = block.payload.size() - 4 - ts_len;
  return DecodeValues(values, values_len, block.count);
}

}  // namespace capplan::store
