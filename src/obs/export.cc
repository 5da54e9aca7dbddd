#include "obs/export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/json_writer.h"
#include "common/number_format.h"

namespace capplan::obs {

namespace {

// Prometheus value formatting: the JSON writer's shortest round-trip decimal,
// infinities spelled per the exposition format.
std::string FormatPromValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::string out;
  AppendShortestDouble(&out, v);
  return out;
}

void AppendLabelValue(std::string* out, const std::string& v) {
  for (char c : v) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '"':
        *out += "\\\"";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        *out += c;
    }
  }
}

// Renders `{k1="v1",k2="v2"}`; `extra` appends one more pair (used for
// histogram `le`). Empty label sets render as nothing.
std::string RenderLabels(const LabelSet& labels, const char* extra_key = nullptr,
                         const std::string& extra_value = "") {
  if (labels.empty() && extra_key == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    AppendLabelValue(&out, v);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    AppendLabelValue(&out, extra_value);
    out += '"';
  }
  out += '}';
  return out;
}

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

Status AtomicWrite(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out.is_open()) {
      return Status::IoError("cannot open for write: " + tmp);
    }
    out << content;
    out.flush();
    if (!out.good()) {
      return Status::IoError("short write: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failed: " + tmp + " -> " + path);
  }
  return Status::OK();
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot,
                             ExpositionFormat format) {
  const bool with_exemplars = format == ExpositionFormat::kOpenMetrics;
  std::string out;
  std::string last_family;
  for (const MetricSample& s : snapshot.samples) {
    if (s.name != last_family) {
      last_family = s.name;
      if (!s.help.empty()) {
        out += "# HELP " + s.name + " " + s.help + "\n";
      }
      out += "# TYPE " + s.name + " ";
      out += TypeName(s.type);
      out += '\n';
    }
    switch (s.type) {
      case MetricType::kCounter:
      case MetricType::kGauge:
        out += s.name + RenderLabels(s.labels) + " " + FormatPromValue(s.value) +
               "\n";
        break;
      case MetricType::kHistogram: {
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
          cum += s.bucket_counts[i];
          const std::string le =
              i < s.bounds.size() ? FormatPromValue(s.bounds[i]) : "+Inf";
          out += s.name + "_bucket" + RenderLabels(s.labels, "le", le) + " " +
                 std::to_string(cum);
          if (with_exemplars && i < s.exemplars.size() && s.exemplars[i].valid) {
            const Exemplar& e = s.exemplars[i];
            out += " # {span_id=\"" + std::to_string(e.span_id) +
                   "\",event_id=\"" + std::to_string(e.event_id) + "\"} " +
                   FormatPromValue(e.value);
          }
          out += "\n";
        }
        out += s.name + "_sum" + RenderLabels(s.labels) + " " +
               FormatPromValue(s.sum) + "\n";
        out += s.name + "_count" + RenderLabels(s.labels) + " " +
               std::to_string(s.count) + "\n";
        break;
      }
    }
  }
  if (format == ExpositionFormat::kOpenMetrics) out += "# EOF\n";
  return out;
}

Status WritePrometheusFile(const MetricsSnapshot& snapshot,
                           const std::string& path) {
  return AtomicWrite(path, ToPrometheusText(snapshot));
}

namespace {

// Parses a `{k="v",...}` block starting at *pos (which must point at the
// opening brace); advances *pos past the closing brace.
bool ParseLabelBlock(const std::string& line, std::size_t* pos,
                     LabelSet* labels) {
  std::size_t i = *pos + 1;
  while (i < line.size() && line[i] != '}') {
    std::size_t eq = line.find('=', i);
    if (eq == std::string::npos || eq + 1 >= line.size() ||
        line[eq + 1] != '"') {
      return false;
    }
    std::string key = line.substr(i, eq - i);
    std::string value;
    std::size_t j = eq + 2;
    bool closed = false;
    while (j < line.size()) {
      char c = line[j];
      if (c == '\\' && j + 1 < line.size()) {
        char n = line[j + 1];
        value += n == 'n' ? '\n' : n;
        j += 2;
        continue;
      }
      if (c == '"') {
        closed = true;
        ++j;
        break;
      }
      value += c;
      ++j;
    }
    if (!closed) return false;
    labels->emplace_back(std::move(key), std::move(value));
    if (j < line.size() && line[j] == ',') ++j;
    i = j;
  }
  if (i >= line.size() || line[i] != '}') return false;
  *pos = i + 1;
  return true;
}

bool ParseValueToken(const std::string& token, double* out) {
  if (token == "+Inf" || token == "Inf") {
    *out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (token == "-Inf") {
    *out = -std::numeric_limits<double>::infinity();
    return true;
  }
  if (token == "NaN") {
    *out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  return ParseDouble(token, out);
}

// Parses `name{k="v",...} value [# {k="v",...} value]`, leaving `labels`
// empty when there is no label block. The optional `#` suffix is an
// OpenMetrics exemplar (no timestamp support). Returns false on malformed
// input.
bool ParseSampleLine(const std::string& line, PrometheusSample* out) {
  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  if (i == 0) return false;
  out->name = line.substr(0, i);
  out->labels.clear();
  out->has_exemplar = false;
  out->exemplar = PrometheusExemplar{};
  if (i < line.size() && line[i] == '{') {
    if (!ParseLabelBlock(line, &i, &out->labels)) return false;
  }
  while (i < line.size() && line[i] == ' ') ++i;
  std::size_t vend = i;
  while (vend < line.size() && line[vend] != ' ') ++vend;
  if (vend == i) return false;
  if (!ParseValueToken(line.substr(i, vend - i), &out->value)) return false;
  i = vend;
  while (i < line.size() && line[i] == ' ') ++i;
  if (i >= line.size()) return true;
  if (line[i] != '#') return false;
  ++i;
  while (i < line.size() && line[i] == ' ') ++i;
  if (i >= line.size() || line[i] != '{') return false;
  if (!ParseLabelBlock(line, &i, &out->exemplar.labels)) return false;
  while (i < line.size() && line[i] == ' ') ++i;
  vend = i;
  while (vend < line.size() && line[vend] != ' ') ++vend;
  if (vend == i) return false;
  if (!ParseValueToken(line.substr(i, vend - i), &out->exemplar.value)) {
    return false;
  }
  i = vend;
  while (i < line.size() && line[i] == ' ') ++i;
  if (i != line.size()) return false;
  out->has_exemplar = true;
  return true;
}

}  // namespace

Result<PrometheusText> ParsePrometheusText(const std::string& text) {
  PrometheusText parsed;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream meta(line);
      std::string hash, kind, name;
      meta >> hash >> kind >> name;
      if (kind == "HELP" || kind == "TYPE") {
        PrometheusFamily* family = nullptr;
        for (auto& f : parsed.families) {
          if (f.name == name) family = &f;
        }
        if (family == nullptr) {
          parsed.families.push_back({name, "", "untyped"});
          family = &parsed.families.back();
        }
        std::string rest;
        std::getline(meta, rest);
        while (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
        if (kind == "HELP") {
          family->help = rest;
        } else {
          family->type = rest;
        }
      }
      continue;  // other comments are legal and ignored
    }
    PrometheusSample sample;
    if (!ParseSampleLine(line, &sample)) {
      return Status::InvalidArgument("malformed exposition line " +
                                     std::to_string(line_no) + ": " + line);
    }
    parsed.samples.push_back(std::move(sample));
  }
  return parsed;
}

std::string ToChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::uint64_t base_ns = std::numeric_limits<std::uint64_t>::max();
  for (const TraceEvent& e : events) base_ns = std::min(base_ns, e.start_ns);
  if (events.empty()) base_ns = 0;

  JsonWriter w(/*pretty=*/false);
  w.BeginObject();
  w.BeginArray("traceEvents");
  for (const TraceEvent& e : events) {
    w.BeginObject();
    w.String("name", e.name);
    w.String("cat", e.category);
    w.String("ph", "X");
    w.Number("ts", static_cast<double>(e.start_ns - base_ns) / 1000.0);
    w.Number("dur", static_cast<double>(e.dur_ns) / 1000.0);
    w.Integer("pid", 1);
    w.Integer("tid", static_cast<long long>(e.tid));
    w.Key("args");
    w.BeginObject();
    w.Integer("span_id", static_cast<long long>(e.span_id));
    w.Integer("parent_id", static_cast<long long>(e.parent_id));
    if (e.tag != nullptr) w.String("tag", e.tag);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.String("displayTimeUnit", "ms");
  w.EndObject();
  return w.Take();
}

Status WriteChromeTraceFile(const std::vector<TraceEvent>& events,
                            const std::string& path) {
  return AtomicWrite(path, ToChromeTraceJson(events));
}

}  // namespace capplan::obs
