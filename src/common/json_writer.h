#ifndef CAPPLAN_COMMON_JSON_WRITER_H_
#define CAPPLAN_COMMON_JSON_WRITER_H_

#include <charconv>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/number_format.h"

namespace capplan {

// Minimal JSON writer shared by the report and telemetry serializers:
// supports objects, arrays, strings, numbers, bools. Strings are escaped per
// RFC 8259. Doubles use the shortest round-trip "%g" (integral values below
// 1e15 as "%.0f"; AppendShortestDouble in common/number_format.h), the same
// contract as the Prometheus exposition; NaN/Inf are emitted as null.
// Journal, snapshot and CSV writers use "%.17g" instead. No output depends
// on the C or C++ locale.
class JsonWriter {
 public:
  explicit JsonWriter(bool pretty) : pretty_(pretty) {}

  void BeginObject() {
    Prefix();
    out_ += '{';
    stack_.push_back('}');
    first_ = true;
    pending_key_ = false;
  }
  void EndObject() { End(); }
  void BeginArray(const std::string& key) {
    Key(key);
    out_ += '[';
    stack_.push_back(']');
    first_ = true;
    pending_key_ = false;
  }
  void EndArray() { End(); }

  void Key(const std::string& key) {
    Prefix();
    WriteString(key);
    out_ += pretty_ ? ": " : ":";
    pending_key_ = true;
  }

  void String(const std::string& key, const std::string& value) {
    Key(key);
    WriteString(value);
    pending_key_ = false;
  }
  void Number(const std::string& key, double value) {
    Key(key);
    WriteNumber(value);
    pending_key_ = false;
  }
  void Integer(const std::string& key, long long value) {
    Key(key);
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof(buf), value);
    out_.append(buf, static_cast<std::size_t>(r.ptr - buf));
    pending_key_ = false;
  }
  void Bool(const std::string& key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
    pending_key_ = false;
  }
  void ArrayNumber(double value) {
    Prefix();
    WriteNumber(value);
  }

  std::string Take() { return std::move(out_); }

 private:
  void Prefix() {
    if (pending_key_) return;  // value follows its key directly
    if (!stack_.empty()) {
      if (!first_) out_ += ',';
      if (pretty_) {
        out_ += '\n';
        out_.append(2 * stack_.size(), ' ');
      }
    }
    first_ = false;
  }
  void End() {
    const char close = stack_.back();
    stack_.pop_back();
    if (pretty_) {
      out_ += '\n';
      out_.append(2 * stack_.size(), ' ');
    }
    out_ += close;
    first_ = false;
    pending_key_ = false;
  }
  void WriteString(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"':
          out_ += "\\\"";
          break;
        case '\\':
          out_ += "\\\\";
          break;
        case '\n':
          out_ += "\\n";
          break;
        case '\r':
          out_ += "\\r";
          break;
        case '\t':
          out_ += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            static constexpr char kHex[] = "0123456789abcdef";
            out_ += "\\u00";
            out_ += kHex[(c >> 4) & 0xf];
            out_ += kHex[c & 0xf];
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }
  void WriteNumber(double v) {
    if (std::isnan(v) || std::isinf(v)) {
      out_ += "null";
      return;
    }
    AppendShortestDouble(&out_, v);
  }

  std::string out_;
  std::vector<char> stack_;
  bool first_ = true;
  bool pending_key_ = false;
  bool pretty_;
};

}  // namespace capplan

#endif  // CAPPLAN_COMMON_JSON_WRITER_H_
