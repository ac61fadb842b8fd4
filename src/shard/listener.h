// TCP front end for the shard supervisor (DESIGN.md §12): a poll-based,
// single-threaded event loop that accepts loopback connections speaking the
// length-prefixed frame protocol (shard/frame.h) and bridges them to a
// ShardSupervisor.
//
// Keep-alive: a connection carries any number of request frames; responses
// are written back on the same connection as their verdicts complete (in
// completion order, correlated by the payload's "id" field — the server
// does not promise per-connection response ordering under redispatch).
//
// Quota identity: the payload's optional "client" field keys the token
// bucket; absent, the peer address:port does. The frame header's
// deadline_ms rides through admission to the shard's serve queue.
//
// Robustness contract (tested by shard_test): a malformed payload earns one
// `{"error":...}` response and the connection lives on; an unsyncable frame
// (bad length prefix) earns one error response and closes only that
// connection; the accept loop survives both. Shed requests get
// `{"error":"overloaded","retry_after_ms":...}`.
//
// Single-threaded: run() owns the thread it is called on. Because shard
// restarts fork, the process should keep this the only running thread
// (the CLI does).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "shard/frame.h"

namespace clpp {
class Json;
}

namespace clpp::shard {

class ShardSupervisor;

struct ListenerConfig {
  /// Port to bind on 127.0.0.1 (0 = ephemeral; read back via port()).
  std::uint16_t port = 0;
  /// Concurrent connections; further accepts get one "overloaded" error
  /// frame and an immediate close.
  std::size_t max_connections = 256;
  /// When non-empty, the bound port is written here after listen() — how
  /// scripts discover an ephemeral port.
  std::string port_file;
};

class SocketListener {
 public:
  /// `supervisor` must outlive the listener and must not be started yet
  /// when using restarts: call listener.start() first, so the listen fd is
  /// registered with also_close_in_child() before the first fork.
  SocketListener(ShardSupervisor& supervisor, ListenerConfig config);
  ~SocketListener();

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// Binds and listens on 127.0.0.1, installs the supervisor response
  /// callback, registers the listen fd for child-side close, and writes
  /// the port file. Throws IoError on bind/listen failure.
  void start();

  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  /// Event loop: accept, read frames, admit/dispatch, deliver responses,
  /// drive supervisor restarts. Returns when stop() was called.
  void run();

  /// One loop turn with the given poll timeout; returns the number of
  /// response frames written to clients. With no request in flight the
  /// turn first polls without blocking for up to 200 µs (listener.cpp
  /// says why). Test hook — run() is this in a loop.
  std::size_t poll_once(int timeout_ms);

  /// Stop flag, checked once per loop turn. Atomic (and lock-free on every
  /// supported platform) so the CLI's SIGINT/SIGTERM handler may call this.
  void stop() { stop_.store(true, std::memory_order_relaxed); }

  std::size_t active_connections() const { return conns_.size(); }

 private:
  struct Connection {
    int fd = -1;
    FrameDecoder decoder;
    std::string peer;  // "addr:port", the default quota key
  };

  void accept_ready();
  /// Reads everything available; returns false when the connection closed.
  bool read_ready(std::uint64_t conn_id);
  void handle_frame(std::uint64_t conn_id, Frame frame);
  void on_response(std::uint64_t ticket, std::string payload);
  bool send_json(std::uint64_t conn_id, const Json& body);
  void close_conn(std::uint64_t conn_id);

  ShardSupervisor& supervisor_;
  ListenerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, Connection> conns_;
  std::map<std::uint64_t, std::uint64_t> ticket_conn_;
  std::size_t responses_written_in_turn_ = 0;

  // Listener-side counters surfaced in the admin stats reply.
  std::uint64_t accepted_conns_ = 0;
  std::uint64_t refused_conns_ = 0;
  std::uint64_t bad_frames_ = 0;
  std::uint64_t bad_payloads_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t orphan_responses_ = 0;  // response after its conn closed
};

}  // namespace clpp::shard
