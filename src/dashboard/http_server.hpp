#pragma once
// Minimal embedded HTTP/1.1 server — the substrate for the "very
// lightweight performance dashboard ... based on an embedded web server"
// (paper §IV-F; theirs was Python, ours is an epoll reactor).
//
// Runs on the same net::EventLoop core as the bus server (DESIGN.md
// §12): one loop thread accepts (net::Listener, which also pauses
// accepting on fd exhaustion) and serves every connection, so a
// trickling client no longer serializes the whole server — it just
// parks a buffer and a deadline timer.
//
// Hardened against trickle-feed (slowloris-style) clients: a request
// must arrive whole within `read_timeout_ms` and fit in
// `max_request_bytes`, else the server answers 408 / 431 and closes.
// Rejections are counted in stampede_http_rejected_total{reason=...}.

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/socket.hpp"
#include "net/event_loop.hpp"
#include "net/listener.hpp"

namespace stampede::net {
class Connection;
}

namespace stampede::dash {

struct HttpRequest {
  std::string method;
  std::string path;                 ///< Path without query string.
  std::string query;                ///< Raw query string (may be empty).
  std::vector<std::string> params;  ///< Captures from route placeholders.
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;

  static HttpResponse json(std::string body) {
    return HttpResponse{200, "application/json", std::move(body)};
  }
  static HttpResponse text(std::string body) {
    return HttpResponse{200, "text/plain", std::move(body)};
  }
  static HttpResponse not_found(std::string why = "not found") {
    return HttpResponse{404, "text/plain", std::move(why)};
  }
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Completion handle for route_async(). Thread-safe and once-only:
/// the first respond() wins, later calls (and calls after the server
/// stopped or the client vanished) are silently dropped. The actual
/// write always happens on the server's loop thread.
class HttpResponder {
 public:
  void respond(HttpResponse response) const;

 private:
  friend class HttpServer;
  struct State;
  std::shared_ptr<State> state_;
};

/// Handler that completes later (long-poll, subscription): it receives
/// the parsed request plus a responder it may hand to another thread.
/// The slowloris deadline is cancelled once the handler takes over —
/// the request has fully arrived; holding the connection open is the
/// point.
using AsyncHttpHandler =
    std::function<void(const HttpRequest&, HttpResponder)>;

struct HttpServerOptions {
  /// A connection that has not delivered a complete request header
  /// block within this window gets 408 Request Timeout.
  int read_timeout_ms = 5000;
  /// A request exceeding this size gets 431 Request Header Fields Too
  /// Large.
  std::size_t max_request_bytes = 64 * 1024;
};

class HttpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = pick an ephemeral port). Throws
  /// std::runtime_error when binding fails.
  explicit HttpServer(int port = 0, HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a GET route. Pattern segments of the form "{x}" capture
  /// one path segment into HttpRequest::params, e.g.
  /// "/workflow/{uuid}/summary".
  void route(const std::string& pattern, HttpHandler handler);

  /// Registers a GET route whose handler responds asynchronously via
  /// the provided HttpResponder (same pattern syntax as route()).
  void route_async(const std::string& pattern, AsyncHttpHandler handler);

  /// Starts the event loop and begins accepting.
  void start();

  /// Drops every connection, stops the loop and joins. Idempotent; the
  /// destructor calls it.
  void stop();

  [[nodiscard]] int port() const noexcept { return listener_.port(); }

 private:
  friend class HttpResponder;

  struct Route {
    std::vector<std::string> segments;
    HttpHandler handler;
    AsyncHttpHandler async;  ///< Set for route_async registrations.
  };
  /// Per-connection serving state (loop thread only).
  struct Pending {
    std::shared_ptr<net::Connection> conn;
    net::EventLoop::TimerId deadline = 0;
    bool responded = false;
    bool async_in_flight = false;  ///< Awaiting an HttpResponder.
  };
  /// Shared liveness latch between the server and outstanding
  /// responders: stop() nulls `server` so a responder firing from a
  /// foreign thread after shutdown becomes a no-op instead of a
  /// use-after-free.
  struct AsyncGate {
    std::mutex mu;
    HttpServer* server = nullptr;
  };

  /// Loop thread: starts serving one accepted socket.
  void accept(common::SocketFd client);
  /// Consumes buffered request bytes; returns bytes eaten.
  std::size_t on_data(const std::shared_ptr<Pending>& pending,
                      std::string_view data);
  void respond(const std::shared_ptr<Pending>& pending,
               const HttpResponse& response);
  [[nodiscard]] const Route* match_route(
      const std::string& path, std::vector<std::string>* params) const;

  HttpServerOptions options_;
  net::Listener listener_;
  std::vector<Route> routes_;
  net::EventLoop loop_;
  std::atomic<bool> running_{false};
  std::shared_ptr<AsyncGate> gate_ = std::make_shared<AsyncGate>();
  /// Live connections (loop thread only); drained by stop().
  std::map<const net::Connection*, std::shared_ptr<Pending>> conns_;
};

/// One-shot HTTP GET against 127.0.0.1 (test/client helper). Returns the
/// response body; `status_out` receives the status code. Throws
/// std::runtime_error on connection failure.
[[nodiscard]] std::string http_get(int port, const std::string& path,
                                   int* status_out = nullptr);

}  // namespace stampede::dash
