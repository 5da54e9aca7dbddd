#include "obs/export.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace capplan::obs {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// Prometheus exposition.

TEST(PrometheusTest, RegistryRoundTripsThroughTheTextFormat) {
  MetricsRegistry registry;
  registry.GetCounter("jobs_total", {}, "jobs processed").Inc(42);
  registry.GetGauge("queue_depth").Set(3.5);
  Histogram h = registry.GetHistogram("wait_ms", {1.0, 10.0}, {},
                                      "time spent queued");
  h.Observe(0.5);
  h.Observe(0.75);
  h.Observe(4.0);
  h.Observe(25.0);  // exact binary fractions: the sum round-trips exactly

  const std::string text = ToPrometheusText(registry.Collect());
  auto parsed = ParsePrometheusText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // Family metadata survives.
  std::map<std::string, std::string> types;
  std::map<std::string, std::string> helps;
  for (const auto& f : parsed->families) {
    types[f.name] = f.type;
    helps[f.name] = f.help;
  }
  EXPECT_EQ(types["jobs_total"], "counter");
  EXPECT_EQ(types["queue_depth"], "gauge");
  EXPECT_EQ(types["wait_ms"], "histogram");
  EXPECT_EQ(helps["jobs_total"], "jobs processed");
  EXPECT_EQ(helps["wait_ms"], "time spent queued");

  // Values survive, histograms as cumulative buckets ending at +Inf.
  std::map<std::string, double> values;
  std::map<std::string, double> le;  // le label -> cumulative count
  for (const auto& s : parsed->samples) {
    if (s.name == "wait_ms_bucket") {
      ASSERT_EQ(s.labels.size(), 1u);
      EXPECT_EQ(s.labels[0].first, "le");
      le[s.labels[0].second] = s.value;
    } else {
      values[s.name] = s.value;
    }
  }
  EXPECT_DOUBLE_EQ(values["jobs_total"], 42.0);
  EXPECT_DOUBLE_EQ(values["queue_depth"], 3.5);
  EXPECT_DOUBLE_EQ(values["wait_ms_sum"], 30.25);
  EXPECT_DOUBLE_EQ(values["wait_ms_count"], 4.0);
  ASSERT_EQ(le.size(), 3u);
  EXPECT_DOUBLE_EQ(le["1"], 2.0);
  EXPECT_DOUBLE_EQ(le["10"], 3.0);
  EXPECT_DOUBLE_EQ(le["+Inf"], 4.0);
}

TEST(PrometheusTest, LabelValuesRoundTripThroughEscaping) {
  MetricsRegistry registry;
  const std::string awkward = "a\"b\\c\nd";
  registry.GetCounter("odd_total", {{"stage", awkward}}).Inc();
  auto parsed = ParsePrometheusText(ToPrometheusText(registry.Collect()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->samples.size(), 1u);
  ASSERT_EQ(parsed->samples[0].labels.size(), 1u);
  EXPECT_EQ(parsed->samples[0].labels[0].second, awkward);
}

// Non-integral values take the shortest round-trip "%g" path; the text was
// captured from the snprintf/sscanf writer and must not change by a byte.
TEST(PrometheusTest, NonIntegralValueBytesArePinned) {
  MetricsRegistry registry;
  registry.GetGauge("ratio").Set(1.0 / 3);
  registry.GetGauge("tiny").Set(-2.5e-7);
  Histogram h = registry.GetHistogram("lag_ms", {0.0001, 0.25, 1e16});
  h.Observe(0.1);
  h.Observe(0.2);
  EXPECT_EQ(ToPrometheusText(registry.Collect()),
            "# TYPE lag_ms histogram\n"
            "lag_ms_bucket{le=\"0.0001\"} 0\n"
            "lag_ms_bucket{le=\"0.25\"} 2\n"
            "lag_ms_bucket{le=\"1e+16\"} 2\n"
            "lag_ms_bucket{le=\"+Inf\"} 2\n"
            "lag_ms_sum 0.30000000000000004\n"
            "lag_ms_count 2\n"
            "# TYPE ratio gauge\n"
            "ratio 0.3333333333333333\n"
            "# TYPE tiny gauge\n"
            "tiny -2.5e-07\n");
}

TEST(PrometheusTest, NonFiniteValuesUseTheSpecSpelling) {
  MetricsRegistry registry;
  registry.GetGauge("pos").Set(std::numeric_limits<double>::infinity());
  registry.GetGauge("neg").Set(-std::numeric_limits<double>::infinity());
  const std::string text = ToPrometheusText(registry.Collect());
  EXPECT_NE(text.find("neg -Inf\n"), std::string::npos);
  EXPECT_NE(text.find("pos +Inf\n"), std::string::npos);
  auto parsed = ParsePrometheusText(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(std::isinf(parsed->samples[0].value));
  EXPECT_TRUE(std::isinf(parsed->samples[1].value));
}

TEST(PrometheusTest, ParserRejectsMalformedLines) {
  EXPECT_FALSE(ParsePrometheusText("just_a_name_no_value\n").ok());
  EXPECT_FALSE(ParsePrometheusText("metric notanumber\n").ok());
  EXPECT_FALSE(ParsePrometheusText("metric{unclosed=\"v\n").ok());
  EXPECT_FALSE(ParsePrometheusText("metric{k=unquoted} 1\n").ok());
  EXPECT_FALSE(ParsePrometheusText("metric 1 trailing\n").ok());
  // Unknown comments are legal and skipped.
  EXPECT_TRUE(ParsePrometheusText("# EOF\nok_total 1\n").ok());
}

TEST(PrometheusTest, ExemplarsRoundTripThroughTheTextFormat) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("serve_ms", {1.0, 10.0}, {},
                                      "request latency");
  h.Observe(0.25);                               // no exemplar on this bucket
  h.ObserveWithExemplar(2.5, /*span_id=*/12, /*event_id=*/7);
  h.ObserveWithExemplar(50.0, /*span_id=*/98, /*event_id=*/0);

  const std::string text =
      ToPrometheusText(registry.Collect(), ExpositionFormat::kOpenMetrics);
  // OpenMetrics exemplar syntax: `... # {label="v",...} value`, and the
  // exposition is terminated by the mandatory `# EOF`.
  EXPECT_NE(text.find("# {span_id=\"12\",event_id=\"7\"} 2.5"),
            std::string::npos)
      << text;
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n") << text;

  auto parsed = ParsePrometheusText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  int with_exemplar = 0;
  for (const auto& s : parsed->samples) {
    if (s.name != "serve_ms_bucket") {
      EXPECT_FALSE(s.has_exemplar) << s.name;
      continue;
    }
    ASSERT_EQ(s.labels.size(), 1u);
    const std::string& le = s.labels[0].second;
    if (le == "1") {
      EXPECT_FALSE(s.has_exemplar);  // plain observation left no exemplar
    } else if (le == "10") {
      ASSERT_TRUE(s.has_exemplar);
      ++with_exemplar;
      EXPECT_DOUBLE_EQ(s.exemplar.value, 2.5);
      ASSERT_EQ(s.exemplar.labels.size(), 2u);
      EXPECT_EQ(s.exemplar.labels[0].first, "span_id");
      EXPECT_EQ(s.exemplar.labels[0].second, "12");
      EXPECT_EQ(s.exemplar.labels[1].first, "event_id");
      EXPECT_EQ(s.exemplar.labels[1].second, "7");
    } else if (le == "+Inf") {
      ASSERT_TRUE(s.has_exemplar);
      ++with_exemplar;
      EXPECT_DOUBLE_EQ(s.exemplar.value, 50.0);
      EXPECT_EQ(s.exemplar.labels[0].second, "98");
    }
  }
  EXPECT_EQ(with_exemplar, 2);
}

TEST(PrometheusTest, Prometheus004FormatOmitsExemplars) {
  // The 0.0.4 text grammar allows only a timestamp after the value; a
  // vanilla Prometheus scraper fails the whole scrape on an exemplar token,
  // so the default format (the /metrics endpoint without OpenMetrics
  // negotiation, and the textfile-collector export) must never emit one.
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("serve_ms", {1.0}, {}, "latency");
  h.ObserveWithExemplar(0.5, /*span_id=*/3, /*event_id=*/4);
  const std::string text = ToPrometheusText(registry.Collect());
  EXPECT_EQ(text.find(" # {"), std::string::npos) << text;
  EXPECT_EQ(text.find("# EOF"), std::string::npos) << text;
}

TEST(PrometheusTest, LastExemplarPerBucketWins) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("fit_ms", {100.0}, {}, "fit latency");
  h.ObserveWithExemplar(10.0, 1, 1);
  h.ObserveWithExemplar(20.0, 2, 2);  // same bucket: overwrites the slot
  auto parsed = ParsePrometheusText(
      ToPrometheusText(registry.Collect(), ExpositionFormat::kOpenMetrics));
  ASSERT_TRUE(parsed.ok());
  for (const auto& s : parsed->samples) {
    if (s.name == "fit_ms_bucket" && s.labels[0].second == "100") {
      ASSERT_TRUE(s.has_exemplar);
      EXPECT_DOUBLE_EQ(s.exemplar.value, 20.0);
      EXPECT_EQ(s.exemplar.labels[0].second, "2");
    }
  }
}

TEST(PrometheusTest, ParserRejectsMalformedExemplars) {
  EXPECT_FALSE(ParsePrometheusText("m_bucket{le=\"1\"} 1 # {x=\"1\"\n").ok());
  EXPECT_FALSE(
      ParsePrometheusText("m_bucket{le=\"1\"} 1 # {x=\"1\"} nan-ish\n").ok());
  EXPECT_FALSE(ParsePrometheusText("m_bucket{le=\"1\"} 1 # junk\n").ok());
}

TEST(PrometheusTest, WriteIsAtomicAndLeavesNoTempFile) {
  MetricsRegistry registry;
  registry.GetCounter("written_total").Inc(7);
  const std::string path = TempPath("metrics.prom");
  ASSERT_TRUE(WritePrometheusFile(registry.Collect(), path).ok());
  EXPECT_EQ(Slurp(path), ToPrometheusText(registry.Collect()));
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.is_open());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Chrome trace JSON: a minimal JSON reader plus a schema check of the trace
// event format (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool Has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& At(const std::string& key) const { return object.at(key); }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = Value(out);
    Skip();
    return ok && pos_ == text_.size();
  }

 private:
  void Skip() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool Value(JsonValue* out) {
    Skip();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object(out);
      case '[':
        return Array(out);
      case '"':
        out->kind = JsonValue::kString;
        return String(&out->str);
      case 't':
        out->kind = JsonValue::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->kind = JsonValue::kBool;
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number(out);
    }
  }
  bool Object(JsonValue* out) {
    out->kind = JsonValue::kObject;
    ++pos_;  // '{'
    Skip();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      Skip();
      std::string key;
      if (!String(&key)) return false;
      Skip();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!Value(&out->object[key])) return false;
      Skip();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Array(JsonValue* out) {
    out->kind = JsonValue::kArray;
    ++pos_;  // '['
    Skip();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      out->array.emplace_back();
      if (!Value(&out->array.back())) return false;
      Skip();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool String(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        char n = text_[pos_++];
        switch (n) {
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'r':
            out->push_back('\r');
            break;
          default:
            out->push_back(n);  // \" \\ \/ — good enough for the checker
        }
        continue;
      }
      out->push_back(c);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number(JsonValue* out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// Schema check for one complete ("X") trace event object.
void ExpectValidTraceEvent(const JsonValue& e) {
  ASSERT_EQ(e.kind, JsonValue::kObject);
  ASSERT_TRUE(e.Has("name"));
  EXPECT_EQ(e.At("name").kind, JsonValue::kString);
  EXPECT_FALSE(e.At("name").str.empty());
  ASSERT_TRUE(e.Has("cat"));
  EXPECT_EQ(e.At("cat").kind, JsonValue::kString);
  ASSERT_TRUE(e.Has("ph"));
  EXPECT_EQ(e.At("ph").str, "X");
  ASSERT_TRUE(e.Has("ts"));
  EXPECT_EQ(e.At("ts").kind, JsonValue::kNumber);
  EXPECT_GE(e.At("ts").number, 0.0);
  ASSERT_TRUE(e.Has("dur"));
  EXPECT_GE(e.At("dur").number, 0.0);
  ASSERT_TRUE(e.Has("pid"));
  EXPECT_EQ(e.At("pid").number, 1.0);
  ASSERT_TRUE(e.Has("tid"));
  EXPECT_EQ(e.At("tid").kind, JsonValue::kNumber);
  ASSERT_TRUE(e.Has("args"));
  const JsonValue& args = e.At("args");
  ASSERT_EQ(args.kind, JsonValue::kObject);
  ASSERT_TRUE(args.Has("span_id"));
  EXPECT_EQ(args.At("span_id").kind, JsonValue::kNumber);
  ASSERT_TRUE(args.Has("parent_id"));
  EXPECT_EQ(args.At("parent_id").kind, JsonValue::kNumber);
}

std::vector<TraceEvent> SampleEvents() {
  TraceEvent outer;
  outer.name = "service.tick";
  outer.category = "service";
  outer.start_ns = 5'000'000;
  outer.dur_ns = 3'000'000;
  outer.span_id = 1;
  outer.tid = 1;
  TraceEvent inner;
  inner.name = "selector.candidate";
  inner.category = "selector";
  inner.tag = "pruned";
  inner.start_ns = 6'000'000;
  inner.dur_ns = 500'000;
  inner.span_id = 2;
  inner.parent_id = 1;
  inner.tid = 2;
  return {outer, inner};
}

TEST(ChromeTraceTest, EmitsSchemaValidCompleteEvents) {
  const std::string json = ToChromeTraceJson(SampleEvents());
  JsonValue root;
  ASSERT_TRUE(JsonReader(json).Parse(&root)) << json;
  ASSERT_EQ(root.kind, JsonValue::kObject);
  ASSERT_TRUE(root.Has("traceEvents"));
  EXPECT_EQ(root.At("displayTimeUnit").str, "ms");
  const JsonValue& events = root.At("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::kArray);
  ASSERT_EQ(events.array.size(), 2u);
  for (const JsonValue& e : events.array) ExpectValidTraceEvent(e);

  // Timestamps are rebased to the earliest event and scaled to µs.
  EXPECT_DOUBLE_EQ(events.array[0].At("ts").number, 0.0);
  EXPECT_DOUBLE_EQ(events.array[0].At("dur").number, 3000.0);
  EXPECT_DOUBLE_EQ(events.array[1].At("ts").number, 1000.0);
  EXPECT_DOUBLE_EQ(events.array[1].At("dur").number, 500.0);
  // The span/parent correlation ids ride in args; tags only when set.
  EXPECT_DOUBLE_EQ(events.array[1].At("args").At("parent_id").number, 1.0);
  EXPECT_EQ(events.array[1].At("args").At("tag").str, "pruned");
  EXPECT_FALSE(events.array[0].At("args").Has("tag"));
}

TEST(ChromeTraceTest, EmptyTimelineIsStillValidJson) {
  JsonValue root;
  ASSERT_TRUE(JsonReader(ToChromeTraceJson({})).Parse(&root));
  EXPECT_TRUE(root.At("traceEvents").array.empty());
}

TEST(ChromeTraceTest, LiveTracerDumpPassesTheSchemaCheck) {
  Tracer& tracer = Tracer::Instance();
  tracer.Disable();
  tracer.Clear();
  tracer.Enable();
  {
    TraceSpan tick("service.tick", "service");
    TraceSpan fit("pipeline.run", "pipeline");
    fit.set_tag("degraded");
  }
  tracer.Disable();
  const std::string path = TempPath("trace.json");
  ASSERT_TRUE(WriteChromeTraceFile(tracer.Drain(), path).ok());
  JsonValue root;
  ASSERT_TRUE(JsonReader(Slurp(path)).Parse(&root));
  const JsonValue& events = root.At("traceEvents");
  ASSERT_EQ(events.array.size(), 2u);
  for (const JsonValue& e : events.array) ExpectValidTraceEvent(e);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace capplan::obs
