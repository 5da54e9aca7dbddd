#include "serve/http.h"

#include <algorithm>
#include <cctype>

namespace capplan::serve {

namespace {

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

bool IsTokenChar(char c) {
  // RFC 7230 token charset, enough to validate method and header names.
  return std::isalnum(static_cast<unsigned char>(c)) != 0 ||
         std::string("!#$%&'*+-.^_`|~").find(c) != std::string::npos;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

const std::string* HttpRequest::FindHeader(const std::string& name) const {
  for (const auto& [k, v] : headers) {
    if (k == name) return &v;
  }
  return nullptr;
}

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 414: return "URI Too Long";
    case 422: return "Unprocessable Entity";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive,
                              bool head_only) {
  std::string out;
  out.reserve(128 + (head_only ? 0 : response.body.size()));
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += StatusReason(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  out += "\r\n";
  for (const auto& [k, v] : response.headers) {
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
  }
  out += "\r\n";
  if (!head_only) out += response.body;
  return out;
}

std::string UrlDecode(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '+') {
      out += ' ';
    } else if (in[i] == '%' && i + 2 < in.size() &&
               HexDigit(in[i + 1]) >= 0 && HexDigit(in[i + 2]) >= 0) {
      out += static_cast<char>(HexDigit(in[i + 1]) * 16 + HexDigit(in[i + 2]));
      i += 2;
    } else {
      out += in[i];
    }
  }
  return out;
}

RequestParser::RequestParser(ParserLimits limits) : limits_(limits) {}

void RequestParser::Fail(int status, std::string message) {
  state_ = State::kError;
  error_status_ = status;
  error_ = std::move(message);
}

RequestParser::State RequestParser::Feed(const char* data, std::size_t n) {
  if (state_ == State::kError) return state_;
  buffer_.append(data, n);
  if (state_ == State::kComplete) return state_;  // waiting for TakeRequest
  Advance();
  return state_;
}

HttpRequest RequestParser::TakeRequest() {
  HttpRequest out = std::move(request_);
  request_ = HttpRequest();
  buffer_.erase(0, consumed_);
  consumed_ = 0;
  phase_ = Phase::kRequestLine;
  header_bytes_ = 0;
  body_expected_ = 0;
  state_ = State::kNeedMore;
  Advance();  // pipelined bytes may already hold the next message
  return out;
}

void RequestParser::Advance() {
  while (state_ == State::kNeedMore) {
    if (phase_ == Phase::kBody) {
      if (buffer_.size() - consumed_ < body_expected_) return;
      request_.body = buffer_.substr(consumed_, body_expected_);
      consumed_ += body_expected_;
      state_ = State::kComplete;
      return;
    }
    const std::size_t eol = buffer_.find("\r\n", consumed_);
    if (eol == std::string::npos) {
      // Enforce limits on the unterminated tail too, so an attacker cannot
      // grow the buffer forever by never sending CRLF. A trailing CR may
      // begin the line's CRLF, so it does not count toward the line yet.
      std::size_t pending = buffer_.size() - consumed_;
      if (pending > 0 && buffer_.back() == '\r') --pending;
      if (phase_ == Phase::kRequestLine && pending > limits_.max_request_line) {
        Fail(414, "request line exceeds limit");
      } else if (phase_ == Phase::kHeaders &&
                 header_bytes_ + pending > limits_.max_header_bytes) {
        Fail(431, "header block exceeds limit");
      }
      return;
    }
    const std::string line = buffer_.substr(consumed_, eol - consumed_);
    consumed_ = eol + 2;
    if (phase_ == Phase::kRequestLine) {
      if (line.empty()) continue;  // tolerate leading blank lines (RFC 7230)
      if (line.size() > limits_.max_request_line) {
        Fail(414, "request line exceeds limit");
        return;
      }
      if (!ParseRequestLine(line)) return;
      phase_ = Phase::kHeaders;
    } else {  // Phase::kHeaders
      header_bytes_ += line.size() + 2;
      if (header_bytes_ > limits_.max_header_bytes) {
        Fail(431, "header block exceeds limit");
        return;
      }
      if (line.empty()) {
        FinishHeaders();
        continue;
      }
      if (!ParseHeaderLine(line)) return;
    }
  }
}

bool RequestParser::ParseRequestLine(const std::string& line) {
  for (char c : line) {
    if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) {
      Fail(400, "control character in request line");
      return false;
    }
  }
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    Fail(400, "malformed request line");
    return false;
  }
  request_.method = line.substr(0, sp1);
  if (request_.method.empty() ||
      !std::all_of(request_.method.begin(), request_.method.end(),
                   [](char c) { return IsTokenChar(c) && std::isupper(
                                    static_cast<unsigned char>(c)); })) {
    Fail(400, "malformed method");
    return false;
  }
  if (request_.method != "GET" && request_.method != "HEAD" &&
      request_.method != "POST") {
    Fail(501, "method not implemented: " + request_.method);
    return false;
  }
  request_.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (request_.target.empty() || request_.target[0] != '/' ||
      request_.target.find(' ') != std::string::npos) {
    Fail(400, "malformed request target");
    return false;
  }
  const std::string version = line.substr(sp2 + 1);
  if (version == "HTTP/1.1") {
    request_.version_minor = 1;
  } else if (version == "HTTP/1.0") {
    request_.version_minor = 0;
  } else if (version.rfind("HTTP/", 0) == 0) {
    Fail(505, "unsupported HTTP version " + version);
    return false;
  } else {
    Fail(400, "malformed HTTP version");
    return false;
  }
  // Split target into decoded path + query map.
  const std::size_t qpos = request_.target.find('?');
  request_.path = UrlDecode(request_.target.substr(0, qpos));
  if (qpos != std::string::npos) {
    const std::string qs = request_.target.substr(qpos + 1);
    std::size_t begin = 0;
    while (begin <= qs.size()) {
      std::size_t end = qs.find('&', begin);
      if (end == std::string::npos) end = qs.size();
      const std::string pair = qs.substr(begin, end - begin);
      if (!pair.empty()) {
        const std::size_t eq = pair.find('=');
        const std::string key = UrlDecode(pair.substr(0, eq));
        const std::string value =
            eq == std::string::npos ? "" : UrlDecode(pair.substr(eq + 1));
        if (!key.empty()) request_.query[key] = value;
      }
      begin = end + 1;
    }
  }
  return true;
}

bool RequestParser::ParseHeaderLine(const std::string& line) {
  const std::size_t colon = line.find(':');
  if (colon == std::string::npos || colon == 0) {
    Fail(400, "malformed header line");
    return false;
  }
  std::string name = line.substr(0, colon);
  if (!std::all_of(name.begin(), name.end(), IsTokenChar)) {
    Fail(400, "malformed header name");
    return false;
  }
  std::size_t vbegin = colon + 1;
  while (vbegin < line.size() &&
         (line[vbegin] == ' ' || line[vbegin] == '\t')) {
    ++vbegin;
  }
  std::size_t vend = line.size();
  while (vend > vbegin && (line[vend - 1] == ' ' || line[vend - 1] == '\t')) {
    --vend;
  }
  request_.headers.emplace_back(ToLower(std::move(name)),
                                line.substr(vbegin, vend - vbegin));
  return true;
}

void RequestParser::FinishHeaders() {
  // Keep-alive: HTTP/1.1 defaults on, 1.0 defaults off; the Connection
  // header overrides either way.
  request_.keep_alive = request_.version_minor >= 1;
  if (const std::string* conn = request_.FindHeader("connection")) {
    const std::string v = ToLower(*conn);
    if (v == "close") request_.keep_alive = false;
    if (v == "keep-alive") request_.keep_alive = true;
  }
  if (request_.FindHeader("transfer-encoding") != nullptr) {
    Fail(501, "transfer-encoding not supported");
    return;
  }
  body_expected_ = 0;
  if (const std::string* cl = request_.FindHeader("content-length")) {
    if (cl->empty() || !std::all_of(cl->begin(), cl->end(), [](char c) {
          return std::isdigit(static_cast<unsigned char>(c)) != 0;
        })) {
      Fail(400, "malformed Content-Length");
      return;
    }
    // Reject lengths that would overflow before comparing to the limit.
    if (cl->size() > 12) {
      Fail(413, "body exceeds limit");
      return;
    }
    body_expected_ = static_cast<std::size_t>(std::stoull(*cl));
    if (body_expected_ > limits_.max_body_bytes) {
      Fail(413, "body exceeds limit");
      return;
    }
  }
  phase_ = Phase::kBody;
  if (body_expected_ == 0) state_ = State::kComplete;
}

}  // namespace capplan::serve
