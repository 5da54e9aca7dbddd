#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace capbench {

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool HttpClient::Connect(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A wedged server must fail the request, not hang the benchmark.
  timeval timeout{10, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool HttpClient::ReadMore() {
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer closed, timeout or error
  }
}

bool HttpClient::Get(const std::string& target, Response* out) {
  if (fd_ < 0) return false;
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }

  std::size_t header_end;
  while ((header_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (buf_.size() > (1u << 16) || !ReadMore()) {
      Close();
      return false;
    }
  }
  // Status line: "HTTP/1.1 200 OK".
  const std::size_t sp = buf_.find(' ');
  if (sp == std::string::npos || sp > header_end) {
    Close();
    return false;
  }
  out->status = std::atoi(buf_.c_str() + sp + 1);
  std::size_t content_length = 0;
  bool have_length = false;
  std::size_t line = buf_.find("\r\n") + 2;
  while (line < header_end) {
    const std::size_t eol = buf_.find("\r\n", line);
    const std::size_t colon = buf_.find(':', line);
    if (colon != std::string::npos && colon < eol &&
        strncasecmp(buf_.c_str() + line, "content-length", colon - line) == 0 &&
        colon - line == std::strlen("content-length")) {
      content_length = std::strtoul(buf_.c_str() + colon + 1, nullptr, 10);
      have_length = true;
    }
    line = eol + 2;
  }
  if (!have_length || content_length > (64u << 20)) {
    Close();
    return false;
  }
  const std::size_t body_start = header_end + 4;
  while (buf_.size() < body_start + content_length) {
    if (!ReadMore()) {
      Close();
      return false;
    }
  }
  out->body.assign(buf_, body_start, content_length);
  buf_.erase(0, body_start + content_length);
  return true;
}

long long JsonIntField(const std::string& body, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return -1;
  const char* p = body.c_str() + at + needle.size();
  char* end = nullptr;
  const long long v = std::strtoll(p, &end, 10);
  return end == p ? -1 : v;
}

}  // namespace capbench
