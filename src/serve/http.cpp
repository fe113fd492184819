#include "serve/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace t1000::serve {
namespace {

// Listen-queue length handed to listen(2).
constexpr int kBacklog = 64;
// Per-socket receive timeout: a client that connects and never sends a
// complete request is dropped after this long, so a stalled peer can never
// pin a handler thread.
constexpr int kRecvTimeoutMs = 5000;
// Requests with a larger declared or received body are answered 413.
constexpr std::size_t kMaxBodyBytes = 8u << 20;
// Accepted-but-not-yet-handled connection queue bound; overflow is answered
// 503 by the accept thread.
constexpr std::size_t kPendingConnections = 64;

// Sends the whole buffer, tolerating short writes; returns false once the
// peer is gone (the chunked streamer uses that to stop). MSG_NOSIGNAL
// turns a peer that hung up into EPIPE instead of a process-killing
// SIGPIPE.
bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // peer gone; nothing useful to do with a response
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void send_response(int fd, const HttpResponse& response) {
  send_all(fd, render_http_response(response));
}

// ASCII case-insensitive prefix match for header names.
bool iprefix(const std::string& line, std::string_view prefix) {
  if (line.size() < prefix.size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(line[i])) !=
        std::tolower(static_cast<unsigned char>(prefix[i]))) {
      return false;
    }
  }
  return true;
}

// Reads one request off the socket. Returns the status to fail with (0 =
// success): 400 malformed, 408 timed out / disconnected mid-request, 413
// too large.
int read_request(int fd, HttpRequest* out) {
  std::string buf;
  std::size_t header_end = std::string::npos;
  char chunk[4096];
  while (header_end == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return 408;
    buf.append(chunk, static_cast<std::size_t>(n));
    header_end = buf.find("\r\n\r\n");
    if (header_end == std::string::npos && buf.size() > kMaxBodyBytes) {
      return 413;
    }
  }

  // Request line: METHOD SP TARGET SP VERSION.
  const std::size_t line_end = buf.find("\r\n");
  const std::string request_line = buf.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return 400;
  out->method = request_line.substr(0, sp1);
  out->target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (out->method.empty() || out->target.empty() ||
      out->target[0] != '/') {
    return 400;
  }

  // Headers: Content-Length drives framing; everything else is kept for
  // the handler (the API negotiates on Accept), names lowercased.
  std::size_t content_length = 0;
  std::size_t pos = line_end + 2;
  while (pos < header_end) {
    std::size_t eol = buf.find("\r\n", pos);
    if (eol == std::string::npos || eol > header_end) eol = header_end;
    const std::string line = buf.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string name = line.substr(0, colon);
      for (char& c : name) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      std::size_t value_begin = colon + 1;
      while (value_begin < line.size() && line[value_begin] == ' ') {
        ++value_begin;
      }
      out->headers.emplace_back(std::move(name), line.substr(value_begin));
    }
    if (iprefix(line, "content-length:")) {
      errno = 0;
      char* end = nullptr;
      const unsigned long long v =
          std::strtoull(line.c_str() + 15, &end, 10);
      while (end != nullptr && *end == ' ') ++end;
      if (errno != 0 || end == nullptr || *end != '\0') return 400;
      content_length = static_cast<std::size_t>(v);
    }
  }
  if (content_length > kMaxBodyBytes) return 413;

  out->body = buf.substr(header_end + 4);
  while (out->body.size() < content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return 408;
    out->body.append(chunk, static_cast<std::size_t>(n));
    if (out->body.size() > kMaxBodyBytes) return 413;
  }
  out->body.resize(content_length);
  return 0;
}

HttpResponse error_response(int status, std::string_view message) {
  HttpResponse r;
  r.status = status;
  r.body = "{\"error\": \"";
  r.body += message;
  r.body += "\"}\n";
  return r;
}

// Streams a response that carries a `streamer`: status line + headers
// with Transfer-Encoding: chunked, then one HTTP chunk per ChunkWriter
// call, then the terminating zero chunk. A failed send latches — the
// streamer sees `false` and is expected to wind down.
void send_streaming_response(int fd, const HttpResponse& response) {
  std::string head = "HTTP/1.1 ";
  head += std::to_string(response.status);
  head += ' ';
  head += http_status_reason(response.status);
  head += "\r\nContent-Type: ";
  head += response.content_type;
  head += "\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
  bool alive = send_all(fd, head);
  const ChunkWriter write = [fd, &alive](std::string_view data) {
    if (!alive) return false;
    if (data.empty()) return true;  // a zero-size chunk would end the stream
    char size_line[32];
    std::snprintf(size_line, sizeof(size_line), "%zx\r\n", data.size());
    std::string chunk = size_line;
    chunk += data;
    chunk += "\r\n";
    alive = send_all(fd, chunk);
    return alive;
  };
  response.streamer(write);
  if (alive) send_all(fd, "0\r\n\r\n");
}

}  // namespace

std::string_view HttpRequest::header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return {};
}

std::string_view http_status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 410: return "Gone";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string render_http_response(const HttpResponse& response) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += http_status_reason(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += response.body;
  return out;
}

struct HttpServer::Impl {
  Options options;
  HttpHandler handler;

  // Atomic: the accept thread reads it on every loop while stop() closes
  // and clears it from another thread.
  std::atomic<int> listen_fd{-1};
  std::thread accept_thread;
  std::vector<std::thread> handlers;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> pending;  // accepted connection fds awaiting a handler
  bool stopping = false;

  void handle_connection(int fd) {
    HttpRequest request;
    const int fail = read_request(fd, &request);
    if (fail != 0) {
      // 408 from a peer that sent nothing at all is just a dropped
      // connection; answering is best-effort either way.
      send_response(fd, error_response(fail, http_status_reason(fail)));
    } else {
      const HttpResponse response = handler(request);
      if (response.streamer) {
        send_streaming_response(fd, response);
      } else {
        send_response(fd, response);
      }
    }
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }

  void handler_main() {
    for (;;) {
      int fd = -1;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stopping || !pending.empty(); });
        if (pending.empty()) return;  // stopping and drained
        fd = pending.front();
        pending.pop_front();
      }
      handle_connection(fd);
    }
  }

  void accept_main() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        // Transient conditions (interrupts, peers that reset before we
        // accepted, fd-limit pressure) must not kill the accept loop;
        // only stop() closing the listen socket should.
        if (errno == EINTR || errno == ECONNABORTED || errno == EMFILE ||
            errno == ENFILE) {
          continue;
        }
        return;  // listen socket closed by stop()
      }
      // On the *accepted* socket only: SO_RCVTIMEO on the listening
      // socket would also time out accept() itself and feed this loop
      // spurious EAGAINs.
      struct timeval tv;
      tv.tv_sec = kRecvTimeoutMs / 1000;
      tv.tv_usec = (kRecvTimeoutMs % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      {
        std::lock_guard<std::mutex> lock(mu);
        if (stopping) {
          ::close(fd);
          return;
        }
        if (pending.size() < kPendingConnections) {
          pending.push_back(fd);
          cv.notify_one();
          continue;
        }
      }
      // Queue full: reject inline on the accept thread. Deliberately not
      // queued — the whole point is that overload answers immediately.
      send_response(fd, error_response(503, "connection queue full"));
      ::close(fd);
    }
  }
};

HttpServer::HttpServer(Options options, HttpHandler handler)
    : impl_(new Impl) {
  impl_->options = std::move(options);
  impl_->handler = std::move(handler);
}

HttpServer::~HttpServer() {
  stop();
  delete impl_;
}

bool HttpServer::start(std::string* error) {
  const Options& opt = impl_->options;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = "socket: " + std::string(strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opt.port));
  if (::inet_pton(AF_INET, opt.host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad host address: " + opt.host;
    ::close(fd);
    return false;
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (error != nullptr) {
      *error = "bind " + opt.host + ":" + std::to_string(opt.port) + ": " +
               strerror(errno);
    }
    ::close(fd);
    return false;
  }
  if (::listen(fd, kBacklog) < 0) {
    if (error != nullptr) *error = "listen: " + std::string(strerror(errno));
    ::close(fd);
    return false;
  }

  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  impl_->listen_fd = fd;
  const int threads = opt.handler_threads < 1 ? 1 : opt.handler_threads;
  impl_->handlers.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    impl_->handlers.emplace_back([this] { impl_->handler_main(); });
  }
  impl_->accept_thread = std::thread([this] { impl_->accept_main(); });
  return true;
}

void HttpServer::stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->stopping) return;
    impl_->stopping = true;
  }
  // Closing the listen socket makes the blocked accept() return; handlers
  // drain whatever was already queued, then see `stopping` and exit.
  if (impl_->listen_fd >= 0) {
    ::shutdown(impl_->listen_fd, SHUT_RDWR);
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
  }
  impl_->cv.notify_all();
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  for (std::thread& t : impl_->handlers) {
    if (t.joinable()) t.join();
  }
  for (const int fd : impl_->pending) ::close(fd);
  impl_->pending.clear();
}

}  // namespace t1000::serve
