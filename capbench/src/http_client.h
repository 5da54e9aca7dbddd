#ifndef CAPBENCH_HTTP_CLIENT_H_
#define CAPBENCH_HTTP_CLIENT_H_

#include <string>

namespace capbench {

// Minimal blocking keep-alive HTTP/1.1 client for the load generator: one
// loopback connection, GET only, Content-Length bodies only (which is all the
// capacity query server sends). It lives in the benchmark so the load path
// does not depend on the library's test helpers.
class HttpClient {
 public:
  struct Response {
    int status = 0;
    std::string body;
  };

  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // Connects to 127.0.0.1:`port`; false on failure.
  bool Connect(int port);
  // Sends one GET and reads its response. False on any transport or framing
  // error, after which the connection is closed.
  bool Get(const std::string& target, Response* out);
  void Close();

 private:
  bool ReadMore();

  int fd_ = -1;
  std::string buf_;
};

// Parses the integer after `"name":` in a flat JSON body; -1 when absent.
long long JsonIntField(const std::string& body, const std::string& name);

}  // namespace capbench

#endif  // CAPBENCH_HTTP_CLIENT_H_
