#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/http.h"

namespace capplan::serve {
namespace {

using State = RequestParser::State;

State FeedAll(RequestParser* p, const std::string& bytes) {
  return p->Feed(bytes.data(), bytes.size());
}

// Byte-at-a-time feeding must land in exactly the same state as one big
// feed — the event loop delivers arbitrary fragmentation.
State FeedByByte(RequestParser* p, const std::string& bytes) {
  State s = p->state();
  for (char c : bytes) s = p->Feed(&c, 1);
  return s;
}

TEST(HttpParserTest, ParsesSimpleGet) {
  RequestParser p;
  ASSERT_EQ(FeedAll(&p, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"),
            State::kComplete);
  HttpRequest req = p.TakeRequest();
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/healthz");
  EXPECT_EQ(req.path, "/healthz");
  EXPECT_TRUE(req.query.empty());
  EXPECT_EQ(req.version_minor, 1);
  EXPECT_TRUE(req.keep_alive);
  ASSERT_NE(req.FindHeader("host"), nullptr);
  EXPECT_EQ(*req.FindHeader("host"), "x");
}

TEST(HttpParserTest, ByteAtATimeMatchesBulk) {
  const std::string raw =
      "GET /v1/forecast?instance=cdbm011&metric=cpu&horizon=24 HTTP/1.1\r\n"
      "Host: localhost\r\nAccept: */*\r\n\r\n";
  RequestParser bulk;
  RequestParser dribble;
  ASSERT_EQ(FeedAll(&bulk, raw), State::kComplete);
  ASSERT_EQ(FeedByByte(&dribble, raw), State::kComplete);
  const HttpRequest a = bulk.TakeRequest();
  const HttpRequest b = dribble.TakeRequest();
  EXPECT_EQ(a.path, b.path);
  EXPECT_EQ(a.query, b.query);
  EXPECT_EQ(a.headers, b.headers);
}

TEST(HttpParserTest, QueryDecodedAndSorted) {
  RequestParser p;
  ASSERT_EQ(FeedAll(&p,
                    "GET /v1/x?zeta=3&alpha=a%20b&mid=c+d HTTP/1.1\r\n\r\n"),
            State::kComplete);
  HttpRequest req = p.TakeRequest();
  ASSERT_EQ(req.query.size(), 3u);
  EXPECT_EQ(req.query["alpha"], "a b");
  EXPECT_EQ(req.query["mid"], "c d");
  EXPECT_EQ(req.query["zeta"], "3");
  // std::map iterates sorted — the answer cache relies on this canon.
  EXPECT_EQ(req.query.begin()->first, "alpha");
}

TEST(HttpParserTest, PostBodyByContentLength) {
  RequestParser p;
  ASSERT_EQ(FeedAll(&p,
                    "POST /v1/x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"),
            State::kComplete);
  HttpRequest req = p.TakeRequest();
  EXPECT_EQ(req.body, "hello");
}

TEST(HttpParserTest, PipelinedKeepAliveSurfacesBoth) {
  RequestParser p;
  const std::string two =
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(FeedAll(&p, two), State::kComplete);
  HttpRequest first = p.TakeRequest();
  EXPECT_EQ(first.path, "/a");
  EXPECT_TRUE(first.keep_alive);
  // TakeRequest re-parses the buffered tail immediately.
  ASSERT_EQ(p.state(), State::kComplete);
  HttpRequest second = p.TakeRequest();
  EXPECT_EQ(second.path, "/b");
  EXPECT_FALSE(second.keep_alive);
  EXPECT_EQ(p.state(), State::kNeedMore);
  EXPECT_EQ(p.buffered_bytes(), 0u);
}

TEST(HttpParserTest, Http10DefaultsToClose) {
  RequestParser p;
  ASSERT_EQ(FeedAll(&p, "GET / HTTP/1.0\r\n\r\n"), State::kComplete);
  EXPECT_FALSE(p.TakeRequest().keep_alive);
  RequestParser q;
  ASSERT_EQ(FeedAll(&q, "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
            State::kComplete);
  EXPECT_TRUE(q.TakeRequest().keep_alive);
}

TEST(HttpParserTest, TruncatedRequestStaysIncomplete) {
  const std::vector<std::string> prefixes = {
      "GET",
      "GET /v1/forecast HTTP/1.1",
      "GET /v1/forecast HTTP/1.1\r\nHost: x",
      "GET /v1/forecast HTTP/1.1\r\nHost: x\r\n",
      "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhal",  // truncated body
  };
  for (const std::string& prefix : prefixes) {
    RequestParser p;
    EXPECT_EQ(FeedAll(&p, prefix), State::kNeedMore) << prefix;
  }
}

struct MalformedCase {
  const char* name;
  std::string raw;
  int expected_status;
};

class HttpParserMalformedTest
    : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(HttpParserMalformedTest, RejectsWithMappedStatus) {
  const MalformedCase& c = GetParam();
  RequestParser p;
  EXPECT_EQ(FeedAll(&p, c.raw), State::kError) << c.name;
  EXPECT_EQ(p.error_status(), c.expected_status) << c.name;
  EXPECT_FALSE(p.error().empty());
  // Byte-at-a-time delivery reaches the same verdict.
  RequestParser dribble;
  EXPECT_EQ(FeedByByte(&dribble, c.raw), State::kError) << c.name;
  EXPECT_EQ(dribble.error_status(), c.expected_status) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, HttpParserMalformedTest,
    ::testing::Values(
        MalformedCase{"bare_lf_line", "GET / HTTP/1.1\nHost: x\r\n\r\n", 400},
        MalformedCase{"missing_target", "GET HTTP/1.1\r\n\r\n", 400},
        MalformedCase{"relative_target", "GET v1/x HTTP/1.1\r\n\r\n", 400},
        MalformedCase{"lowercase_method", "get / HTTP/1.1\r\n\r\n", 400},
        MalformedCase{"bad_protocol", "GET / HTCPCP/1.0\r\n\r\n", 400},
        MalformedCase{"http2_version", "GET / HTTP/2.0\r\n\r\n", 505},
        MalformedCase{"header_no_colon", "GET / HTTP/1.1\r\nHost\r\n\r\n",
                      400},
        MalformedCase{"header_space_in_name",
                      "GET / HTTP/1.1\r\nBad Name: x\r\n\r\n", 400},
        MalformedCase{"negative_content_length",
                      "POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400},
        MalformedCase{"non_numeric_content_length",
                      "POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400},
        MalformedCase{"chunked_unsupported",
                      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                      501},
        MalformedCase{"null_byte_in_line", std::string("GET /\0 HTTP/1.1",
                                                       15) +
                                               "\r\n\r\n",
                      400}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) {
      return info.param.name;
    });

TEST(HttpParserTest, OversizedRequestLineIs414) {
  ParserLimits limits;
  limits.max_request_line = 64;
  RequestParser p(limits);
  const std::string line =
      "GET /" + std::string(200, 'a') + " HTTP/1.1\r\n\r\n";
  EXPECT_EQ(FeedAll(&p, line), State::kError);
  EXPECT_EQ(p.error_status(), 414);
}

TEST(HttpParserTest, OversizedRequestLineCaughtWithoutTerminator) {
  // An attacker streaming an endless first line must be cut off at the
  // limit, not buffered until memory runs out.
  ParserLimits limits;
  limits.max_request_line = 64;
  RequestParser p(limits);
  const std::string endless(1024, 'a');  // no CRLF anywhere
  EXPECT_EQ(FeedAll(&p, endless), State::kError);
  EXPECT_EQ(p.error_status(), 414);
}

TEST(HttpParserTest, RequestLineAtTheLimitMaySplitInsideItsCrlf) {
  ParserLimits limits;
  limits.max_request_line = 24;
  const std::string line = "GET /" + std::string(10, 'a') + " HTTP/1.1";
  ASSERT_EQ(line.size(), limits.max_request_line);
  RequestParser p(limits);
  ASSERT_EQ(FeedAll(&p, line + "\r"), State::kNeedMore);
  EXPECT_EQ(FeedAll(&p, "\n\r\n"), State::kComplete);
}

TEST(HttpParserTest, OversizedHeadersAre431) {
  ParserLimits limits;
  limits.max_header_bytes = 128;
  RequestParser p(limits);
  std::string raw = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 16; ++i) {
    raw += "X-Pad-" + std::to_string(i) + ": " + std::string(32, 'y') +
           "\r\n";
  }
  raw += "\r\n";
  EXPECT_EQ(FeedAll(&p, raw), State::kError);
  EXPECT_EQ(p.error_status(), 431);
}

TEST(HttpParserTest, OversizedBodyIs413) {
  ParserLimits limits;
  limits.max_body_bytes = 16;
  RequestParser p(limits);
  EXPECT_EQ(FeedAll(&p, "POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n"),
            State::kError);
  EXPECT_EQ(p.error_status(), 413);
}

TEST(HttpParserTest, UnknownMethodIs501) {
  RequestParser p;
  EXPECT_EQ(FeedAll(&p, "BREW /coffee HTTP/1.1\r\n\r\n"), State::kError);
  EXPECT_EQ(p.error_status(), 501);
}

TEST(HttpParserTest, UrlDecodeKeepsInvalidEscapes) {
  EXPECT_EQ(UrlDecode("a%20b"), "a b");
  EXPECT_EQ(UrlDecode("a%2Gb"), "a%2Gb");  // invalid hex kept verbatim
  EXPECT_EQ(UrlDecode("a%2"), "a%2");      // truncated escape kept verbatim
  EXPECT_EQ(UrlDecode("%41%42"), "AB");
}

TEST(HttpSerializeTest, ResponseWireFormat) {
  HttpResponse resp = HttpResponse::Json(200, "{\"ok\":true}");
  const std::string wire = SerializeResponse(resp, /*keep_alive=*/true);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 11), "{\"ok\":true}");
}

TEST(HttpSerializeTest, HeadOmitsBodyKeepsLength) {
  HttpResponse resp = HttpResponse::Json(200, "{\"ok\":true}");
  const std::string wire =
      SerializeResponse(resp, /*keep_alive=*/false, /*head_only=*/true);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 4), "\r\n\r\n");  // no body bytes
}

TEST(HttpSerializeTest, ExtraHeadersIncluded) {
  HttpResponse resp = HttpResponse::Json(429, "{}");
  resp.headers.emplace_back("Retry-After", "1");
  const std::string wire = SerializeResponse(resp, true);
  EXPECT_NE(wire.find("HTTP/1.1 429 Too Many Requests\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 1\r\n"), std::string::npos);
}

// Seeded mutational fuzzing of the request parser, which reads socket
// bytes. Valid GET, HEAD and POST requests, pipelined and keep-alive, are
// mutated with byte flips, truncation, CRLF inserts and deletes, huge
// Content-Length digits and header floods past the limits. Each input is
// fed once whole and once in random chunks: both feeds must surface the
// same requests and end in the same state, and a rejection carries one of
// the statuses the server maps parse errors to.
class RequestMutator {
 public:
  explicit RequestMutator(std::uint64_t seed) : rng_(seed) {}

  std::string Mutate(std::string s) {
    const int n = 1 + static_cast<int>(Below(3));
    for (int i = 0; i < n; ++i) MutateOnce(&s);
    return s;
  }

  std::size_t Below(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

 private:
  void MutateOnce(std::string* s) {
    const std::size_t at = Below(s->size() + 1);
    switch (Below(6)) {
      case 0:  // byte flip
        if (!s->empty()) {
          (*s)[Below(s->size())] ^= static_cast<char>(1 << Below(8));
        }
        break;
      case 1:  // truncation
        s->resize(at);
        break;
      case 2:  // CRLF insert
        s->insert(at, "\r\n");
        break;
      case 3: {  // CRLF delete
        const std::size_t pos = s->find("\r\n", at);
        if (pos != std::string::npos) s->erase(pos, 2);
        break;
      }
      case 4: {  // Content-Length with a run of digits, after the first line
        std::string digits(1 + Below(30), '0');
        for (char& c : digits) c = static_cast<char>('0' + Below(10));
        const std::size_t eol = s->find("\r\n");
        s->insert(eol == std::string::npos ? at : eol + 2,
                  "Content-Length: " + digits + "\r\n");
        break;
      }
      default: {  // header flood, or a padded request target
        if (Below(2) == 0) {
          std::string flood;
          for (std::size_t k = 0, n = 1 + Below(40); k < n; ++k) {
            flood += "X-Flood-" + std::to_string(k) + ": " +
                     std::string(Below(64), 'v') + "\r\n";
          }
          const std::size_t eol = s->find("\r\n");
          s->insert(eol == std::string::npos ? at : eol + 2, flood);
        } else {
          const std::size_t slash = s->find('/');
          s->insert(slash == std::string::npos ? at : slash + 1,
                    std::string(Below(200), 'p'));
        }
        break;
      }
    }
  }

  std::mt19937_64 rng_;
};

// Everything a feed surfaced: each request's fields, then the end state.
std::vector<std::string> Outcome(RequestParser* p, const std::string& bytes,
                                 RequestMutator* chunker) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t n =
        chunker == nullptr ? bytes.size() : 1 + chunker->Below(16);
    const std::size_t take = std::min(n, bytes.size() - pos);
    p->Feed(bytes.data() + pos, take);
    pos += take;
    while (p->state() == State::kComplete) {
      const HttpRequest r = p->TakeRequest();
      std::string fields = r.method + ' ' + r.target + ' ' + r.path + ' ' +
                           std::to_string(r.version_minor) +
                           (r.keep_alive ? " keep-alive" : " close");
      for (const auto& [k, v] : r.query) fields += " q:" + k + '=' + v;
      for (const auto& [k, v] : r.headers) fields += " h:" + k + ':' + v;
      out.push_back(fields + " body:" + r.body);
    }
  }
  if (p->state() == State::kError) {
    out.push_back("error " + std::to_string(p->error_status()));
  } else {
    out.push_back("need-more " + std::to_string(p->buffered_bytes()));
  }
  return out;
}

TEST(RequestParserFuzzTest, WholeAndChunkedFeedsAgree) {
  const std::vector<std::string> seeds = {
      "GET /v1/forecast?key=cdbm011%2Fcpu&horizon=24 HTTP/1.1\r\n"
      "Host: localhost\r\nAccept: */*\r\n\r\n",
      "HEAD /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
      "POST /v1/estate HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
      "GET /v1/breach?key=a HTTP/1.1\r\n\r\n"
      "POST /v1/x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
      "HEAD /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n",
  };
  ParserLimits small;
  small.max_request_line = 96;
  small.max_header_bytes = 256;
  small.max_body_bytes = 64;
  const std::set<int> mapped = {400, 413, 414, 431, 501, 505};

  RequestMutator mutator(20261019);
  std::size_t complete = 0;
  std::size_t rejected = 0;
  constexpr int kInputs = 20000;
  for (int i = 0; i < kInputs; ++i) {
    const std::string input =
        mutator.Mutate(seeds[mutator.Below(seeds.size())]);
    const ParserLimits limits = mutator.Below(2) ? small : ParserLimits{};
    RequestParser whole(limits);
    RequestParser chunked(limits);
    const std::vector<std::string> a = Outcome(&whole, input, nullptr);
    const std::vector<std::string> b = Outcome(&chunked, input, &mutator);
    ASSERT_EQ(a, b) << "input: " << input;
    if (whole.state() == State::kError) {
      ++rejected;
      ASSERT_EQ(mapped.count(whole.error_status()), 1u)
          << whole.error_status() << " for input: " << input;
      EXPECT_FALSE(whole.error().empty());
    } else if (a.size() > 1) {
      ++complete;
    }
  }
  // The mutations must leave requests intact as well as break them.
  EXPECT_GT(complete, static_cast<std::size_t>(kInputs / 10));
  EXPECT_GT(rejected, static_cast<std::size_t>(kInputs / 10));
}

}  // namespace
}  // namespace capplan::serve
