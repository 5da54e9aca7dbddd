#include "store/series_store.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/fault.h"
#include "obs/event_log.h"
#include "obs/trace.h"

namespace capplan::store {

namespace {

std::size_t NextPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

SeriesStore::HotRing::HotRing(std::size_t capacity)
    : data_(NextPow2(std::max<std::size_t>(capacity, 8))) {}

void SeriesStore::HotRing::PushBack(double v) {
  if (size_ == data_.size()) Grow();
  data_[(head_ + size_) & (data_.size() - 1)] = v;
  ++size_;
}

void SeriesStore::HotRing::DropFront(std::size_t n) {
  head_ = (head_ + n) & (data_.size() - 1);
  size_ -= n;
}

void SeriesStore::HotRing::Grow() {
  std::vector<double> bigger(data_.size() * 2);
  for (std::size_t i = 0; i < size_; ++i) bigger[i] = At(i);
  data_ = std::move(bigger);
  head_ = 0;
}

SeriesStore::SeriesStore(std::int64_t start_epoch, tsa::Frequency freq,
                         SeriesStoreOptions options, StoreStats* stats)
    : base_epoch_(start_epoch),
      step_seconds_(tsa::FrequencySeconds(freq)),
      freq_(freq),
      options_(options),
      stats_(stats),
      // Twice the seal threshold: one block's worth of headroom so an
      // absorbed seal failure does not force an immediate reallocation.
      hot_(std::max<std::size_t>(options.seal_threshold, 1) * 2) {
  if (options_.seal_threshold == 0) options_.seal_threshold = 512;
}

void SeriesStore::Append(double value) {
  hot_.PushBack(value);
  if (stats_ != nullptr) stats_->hot_bytes += sizeof(double);
  ++version_;
  MaybeSeal();
}

void SeriesStore::MaybeSeal() {
  while (hot_.size() >= options_.seal_threshold) {
    if (!SealFront(options_.seal_threshold).ok()) {
      if (stats_ != nullptr) ++stats_->seal_failures;
      return;  // samples stay hot; the next append retries
    }
    EvictForRetention();
  }
}

Status SeriesStore::SealFront(std::size_t n) {
  obs::TraceSpan span("store.seal", "store");
  CAPPLAN_RETURN_NOT_OK(FaultHit("store.seal"));
  std::vector<double> run(n);
  for (std::size_t i = 0; i < n; ++i) run[i] = hot_.At(i);
  const std::int64_t block_start =
      start_epoch() + static_cast<std::int64_t>(sealed_count_) * step_seconds_;
  SealedBlock block = SealBlock(block_start, step_seconds_, run);
  hot_.DropFront(n);
  sealed_count_ += n;
  if (stats_ != nullptr) {
    stats_->hot_bytes -= n * sizeof(double);
    stats_->sealed_bytes += block.compressed_bytes();
    stats_->sealed_raw_bytes += block.raw_bytes();
    ++stats_->blocks_sealed;
  }
  const double seal_ms = span.End();
  if (stats_ != nullptr) stats_->seal_ms.Observe(seal_ms);
  obs::EventLog& events = obs::EventLog::Instance();
  if (events.enabled()) {
    obs::WideEvent ev;
    ev.kind = obs::WideEventKind::kStoreSeal;
    ev.set_key("store.seal");
    ev.set_timing(span.timing());
    ev.AddAttr("samples", static_cast<double>(n));
    ev.AddAttr("compressed_bytes",
               static_cast<double>(block.compressed_bytes()));
    events.Emit(ev);
  }
  blocks_.push_back(std::move(block));
  return Status::OK();
}

void SeriesStore::EvictForRetention() {
  if (options_.max_blocks == 0) return;
  while (blocks_.size() > options_.max_blocks) {
    const SealedBlock& oldest = blocks_.front();
    if (stats_ != nullptr) {
      stats_->sealed_bytes -= oldest.compressed_bytes();
      stats_->sealed_raw_bytes -= oldest.raw_bytes();
      ++stats_->blocks_evicted;
    }
    dropped_ += oldest.count;
    sealed_count_ -= oldest.count;
    blocks_.erase(blocks_.begin());
    ++structure_version_;
    ++version_;
  }
}

void SeriesStore::SealAll() {
  while (hot_.size() > 0) {
    const std::size_t n = std::min(hot_.size(), options_.seal_threshold);
    if (!SealFront(n).ok()) {
      if (stats_ != nullptr) ++stats_->seal_failures;
      return;
    }
    EvictForRetention();
  }
}

std::size_t SeriesStore::sealed_bytes() const {
  std::size_t total = 0;
  for (const SealedBlock& b : blocks_) total += b.compressed_bytes();
  return total;
}

SeriesStore::Cursor::Cursor(const SeriesStore* store, std::size_t begin)
    : store_(store), index_(begin) {}

bool SeriesStore::Cursor::Next(double* value) {
  if (!status_.ok()) return false;
  if (index_ >= store_->size()) return false;
  // Past the sealed region: read straight from the hot ring.
  if (index_ >= store_->sealed_count_) {
    *value = store_->hot_.At(index_ - store_->sealed_count_);
    ++index_;
    return true;
  }
  // Advance to the block covering index_, decoding it on entry.
  while (true) {
    const SealedBlock& b = store_->blocks_[block_];
    if (index_ < block_first_ + b.count) {
      if (decoded_.empty()) {
        auto run = DecodeBlockValues(b);
        if (!run.ok()) {
          status_ = run.status();
          return false;
        }
        decoded_ = std::move(run).value();
      }
      *value = decoded_[index_ - block_first_];
      ++index_;
      return true;
    }
    block_first_ += b.count;
    ++block_;
    decoded_.clear();
  }
}

Result<std::vector<double>> SeriesStore::ReadWindow(std::size_t begin,
                                                    std::size_t len) const {
  if (begin + len > size()) {
    return Status::OutOfRange(
        "store: window [" + std::to_string(begin) + ", " +
        std::to_string(begin + len) + ") exceeds series size " +
        std::to_string(size()));
  }
  std::vector<double> out;
  out.reserve(len);
  Cursor cursor = Scan(begin);
  double v = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    if (!cursor.Next(&v)) {
      return cursor.status().ok()
                 ? Status::Internal("store: cursor ended early")
                 : cursor.status();
    }
    out.push_back(v);
  }
  return out;
}

Result<tsa::TimeSeries> SeriesStore::Materialize(
    const std::string& name) const {
  CAPPLAN_ASSIGN_OR_RETURN(std::vector<double> values, ReadWindow(0, size()));
  return tsa::TimeSeries(name, start_epoch(), freq_, std::move(values));
}

Result<SeriesStore> SeriesStore::Restore(tsa::Frequency freq,
                                         std::vector<SealedBlock> blocks,
                                         std::int64_t hot_start_epoch,
                                         std::vector<double> hot,
                                         SeriesStoreOptions options,
                                         StoreStats* stats) {
  const std::int64_t step = tsa::FrequencySeconds(freq);
  std::sort(blocks.begin(), blocks.end(),
            [](const SealedBlock& a, const SealedBlock& b) {
              return a.start_epoch < b.start_epoch;
            });
  const std::int64_t start =
      blocks.empty() ? hot_start_epoch : blocks.front().start_epoch;
  SeriesStore store(start, freq, options, stats);

  // Re-admit the sealed blocks, filling any hole (a neighbour lost to
  // corruption) with a quarantined NaN placeholder so indices stay aligned
  // with the grid.
  std::int64_t expect = start;
  std::vector<SealedBlock> restored;
  for (SealedBlock& b : blocks) {
    if (b.step_seconds != step) {
      return Status::IoError("store: block step mismatch on restore");
    }
    if (b.start_epoch < expect ||
        (b.start_epoch - expect) % step != 0) {
      return Status::IoError("store: overlapping blocks on restore");
    }
    if (b.start_epoch > expect) {
      const auto missing =
          static_cast<std::uint32_t>((b.start_epoch - expect) / step);
      restored.push_back(QuarantinedBlock(expect, step, missing));
      if (stats != nullptr) ++stats->blocks_quarantined;
    }
    expect = b.start_epoch + static_cast<std::int64_t>(b.count) * step;
    restored.push_back(std::move(b));
  }
  if (!restored.empty() && hot_start_epoch != expect) {
    if (hot_start_epoch < expect ||
        (hot_start_epoch - expect) % step != 0) {
      return Status::IoError("store: hot tail misaligned on restore");
    }
    if (!hot.empty() || hot_start_epoch > expect) {
      const auto missing =
          static_cast<std::uint32_t>((hot_start_epoch - expect) / step);
      if (missing > 0) {
        restored.push_back(QuarantinedBlock(expect, step, missing));
        if (stats != nullptr) ++stats->blocks_quarantined;
      }
    }
  }
  for (SealedBlock& b : restored) {
    store.sealed_count_ += b.count;
    if (stats != nullptr) {
      stats->sealed_bytes += b.compressed_bytes();
      stats->sealed_raw_bytes += b.raw_bytes();
    }
    store.blocks_.push_back(std::move(b));
  }
  for (double v : hot) {
    store.hot_.PushBack(v);
    if (stats != nullptr) stats->hot_bytes += sizeof(double);
  }
  store.version_ = 1;
  store.structure_version_ = 1;
  return store;
}

}  // namespace capplan::store
