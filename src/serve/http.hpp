// Minimal HTTP/1.1 server for the t1000-serve daemon.
//
// The toolchain has no HTTP dependency and the serve API does not need
// one: requests are small JSON documents, responses are JSON or trace
// dumps, and every exchange is one request/one response on a short-lived
// connection (the server always answers `Connection: close`). This file
// implements exactly that subset over POSIX sockets — request line,
// headers, Content-Length-delimited body — plus one addition the
// streaming job-events route needs: a response may carry a `streamer`
// instead of a body, in which case the server answers with
// `Transfer-Encoding: chunked` and the streamer pushes chunks until it
// returns or the peer disconnects. Still no keep-alive, no TLS, and no
// chunked *requests*.
//
// Concurrency model: one accept thread feeds a *bounded* queue of
// connection fds drained by a small handler pool. Admission control lives
// at this boundary — when the queue is full the accept thread answers 503
// inline and closes, so a burst of clients degrades to fast rejections
// instead of unbounded memory growth or an accept backlog stall. The
// handler callback itself must be thread-safe (SimService's is).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace t1000::serve {

struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string target;  // request path, e.g. "/v1/jobs/3/results"
  std::string body;
  // Every request header, in wire order, names lowercased (values
  // untouched beyond trimming the leading space). The API reads these for
  // content negotiation (GET /metrics honors Accept).
  std::vector<std::pair<std::string, std::string>> headers;

  // First value of `name` (lowercase), or "" when absent.
  std::string_view header(std::string_view name) const;
};

// Pushes one chunk to the client; returns false once the peer is gone
// (the streamer should stop — further writes are dropped).
using ChunkWriter = std::function<bool(std::string_view)>;

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  // Streaming alternative to `body`: when set, the server sends the
  // status line + headers with `Transfer-Encoding: chunked`, invokes the
  // streamer with a ChunkWriter, and closes the stream when it returns.
  // The streamer runs on the handler thread, so a long-lived stream
  // occupies one handler slot for its duration; `body` is ignored.
  std::function<void(const ChunkWriter&)> streamer;
};

// Standard reason phrase for the handful of statuses the API uses.
std::string_view http_status_reason(int status);

// Serializes status line + headers + body, ready to write to a socket.
std::string render_http_response(const HttpResponse& response);

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  // 0 = ephemeral; the bound port is port() after start
    int handler_threads = 4;
  };

  HttpServer(Options options, HttpHandler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds, listens, and launches the accept/handler threads. Returns false
  // (with a diagnostic in `*error`) when the socket cannot be bound.
  bool start(std::string* error);
  // Stops accepting, drains the handler pool, closes every queued
  // connection. Idempotent; the destructor calls it.
  void stop();

  // Port actually bound (resolves an ephemeral request); valid after a
  // successful start().
  int port() const { return port_; }

 private:
  struct Impl;
  Impl* impl_;
  int port_ = 0;
};

}  // namespace t1000::serve
