#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

// Closes the socket on every path out of http_request.
struct Fd {
  int fd;
  ~Fd() {
    if (fd >= 0) close(fd);
  }
};

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

HttpReply http_request(int port, const std::string& method,
                       const std::string& target, const std::string& body) {
  HttpReply reply;
  const Fd sock{socket(AF_INET, SOCK_STREAM, 0)};
  if (sock.fd < 0) {
    reply.body = std::string("socket: ") + std::strerror(errno);
    return reply;
  }
  const int one = 1;
  setsockopt(sock.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(sock.fd, reinterpret_cast<const sockaddr*>(&addr),
              sizeof addr) != 0) {
    reply.body = std::string("connect: ") + std::strerror(errno);
    return reply;
  }
  std::string request = method + " " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n";
  if (!body.empty()) {
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n" + body;
  if (!send_all(sock.fd, request)) {
    reply.body = "send failed";
    return reply;
  }
  std::string raw;
  char buf[16384];
  for (;;) {
    const ssize_t n = recv(sock.fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  // "HTTP/1.1 200 OK\r\n...headers...\r\n\r\nbody"; the server closes the
  // connection after the body, so everything after the blank line is it.
  const std::size_t space = raw.find(' ');
  const std::size_t blank = raw.find("\r\n\r\n");
  if (raw.compare(0, 5, "HTTP/") != 0 || space == std::string::npos ||
      blank == std::string::npos) {
    reply.body = "malformed response";
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + space + 1);
  reply.body = raw.substr(blank + 4);
  return reply;
}

}  // namespace perfbench
