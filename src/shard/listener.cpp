#include "shard/listener.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "shard/supervisor.h"
#include "shard/worker.h"
#include "support/error.h"
#include "support/json.h"

namespace clpp::shard {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::string peer_name(const struct sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = "?";
  ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof ip);
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

// While no request is in flight, a loop turn polls without blocking for
// this long before it sleeps in poll(). A closed-loop client's next
// request, or a cache hit's whole round trip, usually falls inside it, so
// the loop's CPU stays awake between requests. On a VM an idle vCPU halts
// and takes as long to wake as the host makes it: without the spin, the
// cache-hit latency of a closed-loop client on a 4-vCPU VM moved by a
// third between runs, with whether the scheduler had put the client on the
// loop's vCPU (EXPERIMENTS.md "Steady cache hits"). With a request at a
// shard the reply is milliseconds off, so the loop sleeps at once. An idle
// loop turns every 200 ms, so the spin costs it 0.1% of a core.
constexpr auto kBusyPoll = std::chrono::microseconds(200);

}  // namespace

SocketListener::SocketListener(ShardSupervisor& supervisor,
                               ListenerConfig config)
    : supervisor_(supervisor), config_(std::move(config)) {}

SocketListener::~SocketListener() {
  for (auto& [id, conn] : conns_)
    if (conn.fd != -1) ::close(conn.fd);
  if (listen_fd_ != -1) ::close(listen_fd_);
}

void SocketListener::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw IoError(std::string("socket failed: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof addr) != 0)
    throw IoError(std::string("bind failed: ") + std::strerror(errno));
  if (::listen(listen_fd_, 64) != 0)
    throw IoError(std::string("listen failed: ") + std::strerror(errno));
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);
  supervisor_.also_close_in_child(listen_fd_);
  supervisor_.set_on_response([this](std::uint64_t ticket,
                                     std::string payload) {
    on_response(ticket, std::move(payload));
  });
  if (!config_.port_file.empty()) {
    if (std::FILE* f = std::fopen(config_.port_file.c_str(), "w")) {
      std::fprintf(f, "%u\n", static_cast<unsigned>(port_));
      std::fclose(f);
    }
  }
  obs::log_info("shard", "listening", [&] {
    Json f = Json::object();
    f["port"] = static_cast<std::int64_t>(port_);
    return f;
  }());
}

void SocketListener::run() {
  while (!stop_.load(std::memory_order_relaxed)) poll_once(200);
}

std::size_t SocketListener::poll_once(int timeout_ms) {
  responses_written_in_turn_ = 0;

  std::vector<struct pollfd> fds;
  std::vector<std::uint64_t> conn_of;  // parallel to fds; 0 = not a conn
  fds.push_back({listen_fd_, POLLIN, 0});
  conn_of.push_back(0);
  for (const auto& [id, conn] : conns_) {
    fds.push_back({conn.fd, POLLIN, 0});
    conn_of.push_back(id);
  }
  for (int fd : supervisor_.pipe_fds()) {
    fds.push_back({fd, POLLIN, 0});
    conn_of.push_back(0);
  }
  // Never outwait a due restart; recovery beats idling.
  const int restart_ms = supervisor_.next_restart_ms();
  int wait_ms = timeout_ms;
  if (restart_ms >= 0 && (wait_ms < 0 || restart_ms < wait_ms))
    wait_ms = restart_ms;

  int rc = 0;
  if (wait_ms != 0 && supervisor_.inflight() == 0) {
    const auto until = std::chrono::steady_clock::now() + kBusyPoll;
    while ((rc = ::poll(fds.data(), fds.size(), 0)) == 0 &&
           std::chrono::steady_clock::now() < until) {
    }
  }
  if (rc == 0) rc = ::poll(fds.data(), fds.size(), wait_ms);
  if (rc > 0) {
    if (fds[0].revents & POLLIN) accept_ready();
    // Collect ready connection ids first: read_ready can close a
    // connection, invalidating conns_ iterators.
    std::vector<std::uint64_t> ready;
    for (std::size_t i = 1; i < fds.size(); ++i)
      if (conn_of[i] != 0 && (fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
        ready.push_back(conn_of[i]);
    for (std::uint64_t id : ready)
      if (conns_.count(id) && !read_ready(id)) close_conn(id);
  }
  // Always pump: it handles responses, deaths, and due restarts, and with
  // timeout 0 it costs one poll of the pipes when nothing happened.
  supervisor_.pump(0);
  return responses_written_in_turn_;
}

void SocketListener::accept_ready() {
  for (;;) {
    struct sockaddr_in addr;
    socklen_t len = sizeof addr;
    const int fd = ::accept(
        listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept error: try again next turn
    }
    if (conns_.size() >= config_.max_connections) {
      ++refused_conns_;
      Frame frame;
      Json body = Json::object();
      body["error"] = "overloaded";
      body["retry_after_ms"] = 100;
      frame.payload = body.dump();
      write_frame_fd(fd, frame);
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    const std::uint64_t id = next_conn_id_++;
    Connection conn;
    conn.fd = fd;
    conn.peer = peer_name(addr);
    conns_.emplace(id, std::move(conn));
    ++accepted_conns_;
  }
}

bool SocketListener::read_ready(std::uint64_t conn_id) {
  char buf[16 * 1024];
  for (;;) {
    const auto it = conns_.find(conn_id);
    if (it == conns_.end()) return true;  // closed by a handler
    const ssize_t rc = ::read(it->second.fd, buf, sizeof buf);
    if (rc > 0) {
      it->second.decoder.feed(buf, static_cast<std::size_t>(rc));
      // Drain decoded frames. handle_frame can close this connection (a
      // reply write may hit EPIPE), erasing the Connection and its decoder,
      // so re-look the connection up before every next() — never hold a
      // reference across handle_frame.
      for (;;) {
        const auto cur = conns_.find(conn_id);
        if (cur == conns_.end()) return true;  // closed by a handler
        Frame frame;
        std::string error;
        const FrameDecoder::Result result =
            cur->second.decoder.next(&frame, &error);
        if (result == FrameDecoder::Result::kFrame) {
          handle_frame(conn_id, std::move(frame));
          continue;
        }
        if (result == FrameDecoder::Result::kBadFrame) {
          // The stream cannot resync after a garbage length prefix: answer
          // once, then drop only this connection — the accept loop lives on.
          ++bad_frames_;
          Json body = Json::object();
          body["error"] = "bad_frame: " + error;
          send_json(conn_id, body);
          return false;
        }
        break;  // kNeedMore: read again
      }
      continue;
    }
    if (rc == 0) return false;  // peer closed
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
}

void SocketListener::handle_frame(std::uint64_t conn_id, Frame frame) {
  Json request;
  try {
    request = Json::parse(frame.payload);
  } catch (const std::exception& e) {
    // Framing was intact, the payload was not: one error, keep the
    // connection — the next frame may be fine.
    ++bad_payloads_;
    Json body = Json::object();
    body["error"] = std::string("bad_request: ") + e.what();
    send_json(conn_id, body);
    return;
  }
  const std::int64_t id = request.get_int("id", -1);
  if (request.get_string("cmd", "") == "stats") {
    // Front-end admin verb: supervisor-level stats (per-shard liveness,
    // restarts, quota rejections), not one shard's server internals.
    Json body = Json::object();
    body["id"] = id;
    Json stats = supervisor_.stats_json();
    Json listener = Json::object();
    listener["accepted_conns"] = accepted_conns_;
    listener["refused_conns"] = refused_conns_;
    listener["active_conns"] = conns_.size();
    listener["bad_frames"] = bad_frames_;
    listener["bad_payloads"] = bad_payloads_;
    listener["shed"] = shed_;
    listener["orphan_responses"] = orphan_responses_;
    stats["listener"] = std::move(listener);
    body["stats"] = std::move(stats);
    send_json(conn_id, body);
    return;
  }

  const std::string client =
      request.get_string("client", conns_.at(conn_id).peer);
  // Register the ticket via on_accept, which fires before the supervisor
  // routes: routing can complete synchronously (all shards retired, expired
  // deadline), and on_response must find the mapping then — otherwise the
  // reply is dropped as an orphan and the client hangs forever.
  const AdmissionDecision decision = supervisor_.submit(
      frame.payload, client, frame.deadline_ms, /*ticket_out=*/nullptr,
      [this, conn_id](std::uint64_t ticket) {
        ticket_conn_[ticket] = conn_id;
      });
  if (decision.verdict == Admit::kOverQuota ||
      decision.verdict == Admit::kOverloaded) {
    ++shed_;
    Json body = Json::object();
    if (id >= 0) body["id"] = id;
    body["error"] = "overloaded";
    body["reason"] =
        decision.verdict == Admit::kOverQuota ? "quota" : "inflight";
    body["retry_after_ms"] =
        static_cast<std::int64_t>(decision.retry_after_ms);
    send_json(conn_id, body);
    return;
  }
}

void SocketListener::on_response(std::uint64_t ticket, std::string payload) {
  const auto it = ticket_conn_.find(ticket);
  if (it == ticket_conn_.end()) {
    ++orphan_responses_;
    return;
  }
  const std::uint64_t conn_id = it->second;
  ticket_conn_.erase(it);
  const auto conn_it = conns_.find(conn_id);
  if (conn_it == conns_.end()) {
    ++orphan_responses_;  // client went away before its verdict landed
    return;
  }
  Frame frame;
  frame.payload = std::move(payload);
  if (!write_frame_fd(conn_it->second.fd, frame)) {
    close_conn(conn_id);
    return;
  }
  ++responses_written_in_turn_;
}

bool SocketListener::send_json(std::uint64_t conn_id, const Json& body) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return false;
  Frame frame;
  frame.payload = body.dump();
  if (!write_frame_fd(it->second.fd, frame)) {
    close_conn(conn_id);
    return false;
  }
  ++responses_written_in_turn_;
  return true;
}

void SocketListener::close_conn(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  if (it->second.fd != -1) ::close(it->second.fd);
  conns_.erase(it);
}

}  // namespace clpp::shard
