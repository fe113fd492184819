// Blocking HTTP/1.1 client for the serve workload: one request per
// connection, matching the server's `Connection: close` contract.
#pragma once

#include <string>

namespace perfbench {

struct HttpReply {
  int status = 0;  // 0 = transport failure (see body for the reason)
  std::string body;
};

HttpReply http_request(int port, const std::string& method,
                       const std::string& target,
                       const std::string& body = "");

}  // namespace perfbench
