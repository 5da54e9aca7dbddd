#include "store/tiered_store.h"

#include <utility>

#include "common/fault.h"
#include "obs/event_log.h"
#include "obs/trace.h"

namespace capplan::store {

TieredStore::TieredStore(TieredStoreOptions options)
    : options_(options) {}

void TieredStore::BindMetrics(obs::MetricsRegistry* registry,
                              const std::string& tier,
                              const obs::LabelSet& extra_labels) {
  if (registry == nullptr) return;
  obs::LabelSet labels = {{"tier", tier}};
  labels.insert(labels.end(), extra_labels.begin(), extra_labels.end());
  hot_bytes_ = registry->GetGauge(
      "capplan_store_hot_bytes", labels,
      "Uncompressed sample bytes resident in hot ring buffers.");
  sealed_bytes_ = registry->GetGauge(
      "capplan_store_sealed_bytes", labels,
      "Compressed payload bytes resident in sealed blocks.");
  sealed_raw_bytes_ = registry->GetGauge(
      "capplan_store_sealed_raw_bytes", labels,
      "Uncompressed equivalent (8 bytes/sample) of the sealed tier.");
  compression_ratio_ = registry->GetGauge(
      "capplan_store_compression_ratio", labels,
      "Sealed-tier compression ratio: raw bytes over compressed bytes.");
  blocks_sealed_ = registry->GetCounter(
      "capplan_store_blocks_sealed_total", labels,
      "Hot runs compressed into immutable sealed blocks.");
  blocks_evicted_ = registry->GetCounter(
      "capplan_store_blocks_evicted_total", labels,
      "Sealed blocks dropped by per-series retention.");
  blocks_quarantined_ = registry->GetCounter(
      "capplan_store_blocks_quarantined_total", labels,
      "Blocks whose payload failed its CRC; samples read back as NaN.");
  seal_failures_ = registry->GetCounter(
      "capplan_store_seal_failures_total", labels,
      "Seal attempts that failed and were absorbed (samples stayed hot).");
  stats_->seal_ms = registry->GetHistogram(
      "capplan_store_seal_ms", {}, labels,
      "Latency of compressing one hot run into a sealed block.");
  flush_ms_ = registry->GetHistogram(
      "capplan_store_flush_ms", {}, labels,
      "Latency of persisting the tier to its segment file.");
  open_ms_ = registry->GetHistogram(
      "capplan_store_open_ms", {}, labels,
      "Latency of reopening the tier from its segment file.");
  metrics_bound_ = true;
  UpdateGauges();
}

void TieredStore::UpdateGauges() {
  if (!metrics_bound_) return;
  hot_bytes_.Set(static_cast<double>(stats_->hot_bytes));
  sealed_bytes_.Set(static_cast<double>(stats_->sealed_bytes));
  sealed_raw_bytes_.Set(static_cast<double>(stats_->sealed_raw_bytes));
  compression_ratio_.Set(stats_->compression_ratio());
  blocks_sealed_ = stats_->blocks_sealed;
  blocks_evicted_ = stats_->blocks_evicted;
  blocks_quarantined_ = stats_->blocks_quarantined;
  seal_failures_ = stats_->seal_failures;
}

SeriesStore& TieredStore::GetOrCreate(const std::string& key,
                                      std::int64_t start_epoch,
                                      tsa::Frequency freq) {
  auto it = series_.find(key);
  if (it == series_.end()) {
    it = series_
             .emplace(key, SeriesStore(start_epoch, freq, options_.series,
                                       stats_.get()))
             .first;
  }
  return it->second;
}

SeriesStore* TieredStore::Find(const std::string& key) {
  auto it = series_.find(key);
  return it == series_.end() ? nullptr : &it->second;
}

const SeriesStore* TieredStore::Find(const std::string& key) const {
  auto it = series_.find(key);
  return it == series_.end() ? nullptr : &it->second;
}

void TieredStore::Erase(const std::string& key) {
  auto it = series_.find(key);
  if (it == series_.end()) return;
  const SeriesStore& s = it->second;
  stats_->hot_bytes -= s.hot_bytes();
  for (const SealedBlock& b : s.blocks()) {
    stats_->sealed_bytes -= b.compressed_bytes();
    stats_->sealed_raw_bytes -= b.raw_bytes();
  }
  series_.erase(it);
  UpdateGauges();
}

void TieredStore::Clear() {
  series_.clear();
  stats_->hot_bytes = 0;
  stats_->sealed_bytes = 0;
  stats_->sealed_raw_bytes = 0;
  UpdateGauges();
}

std::vector<std::string> TieredStore::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(series_.size());
  for (const auto& [key, unused] : series_) keys.push_back(key);
  return keys;
}

void TieredStore::SealAll() {
  for (auto& [key, s] : series_) s.SealAll();
  UpdateGauges();
}

Status TieredStore::Flush(const std::string& path) const {
  obs::TraceSpan span("store.flush", "store");
  CAPPLAN_RETURN_NOT_OK(FaultHit("store.flush"));
  // Sealed records go out straight from the live blocks, with the CRC each
  // block got at seal; only the hot tail is copied out of its ring.
  SegmentWriter writer;
  std::vector<double> hot;
  for (const auto& [key, s] : series_) {
    for (const SealedBlock& b : s.blocks()) {
      writer.AddSealed(key, s.frequency(), b);
    }
    hot.clear();
    SeriesStore::Cursor cursor = s.Scan(s.size() - s.hot_size());
    double v = 0.0;
    while (cursor.Next(&v)) hot.push_back(v);
    if (hot.size() != s.hot_size()) {
      return Status::Internal("store: hot cursor ended early on flush");
    }
    writer.AddHot(key, s.frequency(),
                  s.end_epoch() -
                      static_cast<std::int64_t>(s.hot_size()) *
                          s.step_seconds(),
                  hot);
  }
  CAPPLAN_RETURN_NOT_OK(writer.Finish(path));
  flush_ms_.Observe(span.End());
  obs::EventLog& events = obs::EventLog::Instance();
  if (events.enabled()) {
    obs::WideEvent ev;
    ev.kind = obs::WideEventKind::kStoreFlush;
    ev.set_key(path);
    ev.set_timing(span.timing());
    ev.AddAttr("series", static_cast<double>(series_.size()));
    events.Emit(ev);
  }
  return Status::OK();
}

Status TieredStore::Open(const std::string& path) {
  obs::TraceSpan span("store.reopen", "store");
  Clear();
  CAPPLAN_RETURN_NOT_OK(FaultHit("store.reopen"));
  SegmentOpenReport report;
  CAPPLAN_ASSIGN_OR_RETURN(std::vector<SegmentSeries> loaded,
                           ReadSegmentFile(path, &report));
  stats_->blocks_quarantined += report.blocks_quarantined;
  for (SegmentSeries& entry : loaded) {
    CAPPLAN_ASSIGN_OR_RETURN(
        SeriesStore restored,
        SeriesStore::Restore(entry.freq, std::move(entry.blocks),
                             entry.hot_start_epoch, std::move(entry.hot),
                             options_.series, stats_.get()));
    series_.emplace(std::move(entry.key), std::move(restored));
  }
  open_ms_.Observe(span.End());
  UpdateGauges();
  return Status::OK();
}

}  // namespace capplan::store
