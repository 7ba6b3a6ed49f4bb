#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

#include "obs/export.hpp"

namespace tinyevm::net {

// ---- Acceptor ----

void Acceptor::listen(const std::string& address, std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd) {
    throw std::system_error(errno, std::generic_category(), "socket");
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    throw std::system_error(EINVAL, std::generic_category(),
                            "inet_pton " + address);
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw std::system_error(errno, std::generic_category(), "bind");
  }
  if (::listen(fd.get(), 1024) != 0) {
    throw std::system_error(errno, std::generic_category(), "listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    throw std::system_error(errno, std::generic_category(), "getsockname");
  }
  port_ = ntohs(bound.sin_port);
  fd_ = std::move(fd);
}

int Acceptor::accept_one() {
  const int fd =
      ::accept4(fd_.get(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd >= 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

// ---- HubServer ----

HubServer::HubServer(channel::ChannelHub& hub, Config config)
    : hub_(hub), config_(std::move(config)) {
  obs_collector_ = obs::Registry::instance().add_collector(
      [this](obs::Collection& out) {
        const Stats s = stats();
        const obs::LabelSet server{{"server", config_.name}};
        out.gauge("tinyevm_net_connections", "Connections currently open",
                  server, static_cast<double>(s.open_connections));
        out.counter("tinyevm_net_accepted_total", "Connections accepted",
                    server, static_cast<double>(s.accepted));
        out.counter("tinyevm_net_rx_bytes_total", "Bytes received", server,
                    static_cast<double>(s.rx_bytes));
        out.counter("tinyevm_net_tx_bytes_total", "Bytes sent", server,
                    static_cast<double>(s.tx_bytes));
        out.counter("tinyevm_net_frames_in_total", "Frames decoded", server,
                    static_cast<double>(s.frames_in));
        out.counter("tinyevm_net_frames_out_total", "Frames written", server,
                    static_cast<double>(s.frames_out));
        out.counter("tinyevm_net_busy_total",
                    "Requests shed with Busy (backpressure)", server,
                    static_cast<double>(s.busy_rejections));
        out.counter("tinyevm_net_protocol_errors_total",
                    "Connections closed on a malformed frame", server,
                    static_cast<double>(s.protocol_errors));
        out.counter("tinyevm_net_slow_reader_closed_total",
                    "Connections closed over the write-queue cap", server,
                    static_cast<double>(s.slow_reader_closed));
        out.counter("tinyevm_net_batches_total",
                    "Hub pick-ups (mailbox runs, inline ones included)",
                    server,
                    static_cast<double>(s.batches));
      });
}

std::uint16_t HubServer::bind() {
  acceptor_.listen(config_.bind_address, config_.port);
  return acceptor_.port();
}

void HubServer::serve() {
  if (acceptor_.fd() < 0) bind();
  loop_.add(acceptor_.fd(), EPOLLIN, [this](std::uint32_t) {
    on_acceptable();
  });
  // A stop requested before this point is kept by the loop and seen here.
  while (!loop_.stop_requested()) {
    loop_.poll(-1);
    route_decoded();
  }
  graceful_drain();
}

void HubServer::hold_requests(bool hold) {
  holding_.store(hold, std::memory_order_relaxed);
  if (!hold) loop_.defer([this] { route_decoded(); });
}

HubServer::Stats HubServer::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.open_connections = open_connections_.load(std::memory_order_relaxed);
  s.rx_bytes = rx_bytes_.load(std::memory_order_relaxed);
  s.tx_bytes = tx_bytes_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.frames_out = frames_out_.load(std::memory_order_relaxed);
  s.busy_rejections = busy_rejections_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.slow_reader_closed = slow_reader_closed_.load(std::memory_order_relaxed);
  s.batches = hub_.pickups();
  return s;
}

void HubServer::on_acceptable() {
  for (;;) {
    const int fd = acceptor_.accept_one();
    if (fd < 0) return;  // EAGAIN or transient accept failure
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(config_.max_frame_bytes);
    conn->id = id;
    conn->fd.reset(fd);
    loop_.add(fd, EPOLLIN, [this, id](std::uint32_t events) {
      on_connection_event(id, events);
    });
    conns_.emplace(id, std::move(conn));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void HubServer::on_connection_event(std::uint64_t id, std::uint32_t events) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    close_connection(id);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    flush_writes(conn);
    if (conns_.find(id) == conns_.end()) return;  // closed as slow reader
  }
  if ((events & EPOLLIN) != 0) on_readable(conn);
}

void HubServer::on_readable(Connection& conn) {
  const std::uint64_t id = conn.id;
  std::array<std::uint8_t, 64 * 1024> chunk;  // read() fills what it returns
  for (;;) {
    const ssize_t n = ::read(conn.fd.get(), chunk.data(), chunk.size());
    if (n > 0) {
      rx_bytes_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
      conn.reader.feed({chunk.data(), static_cast<std::size_t>(n)});
      if (!drain_frames(conn)) return;  // closed on protocol error
      // A short read emptied the socket. Epoll is level-triggered, so
      // bytes that arrive later raise a new event; reading again now
      // would only fail with EAGAIN.
      if (static_cast<std::size_t>(n) < chunk.size()) return;
      continue;
    }
    if (n == 0) {  // peer closed
      close_connection(id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_connection(id);
    return;
  }
}

bool HubServer::drain_frames(Connection& conn) {
  const std::uint64_t id = conn.id;
  while (auto frame = conn.reader.next()) {
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    if (frame->kind == FrameKind::StatsRequest) {
      const auto req = decode_stats_request(*frame);
      if (!req) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        close_connection(id);
        return false;
      }
      const std::string text = req->format == StatsRequest::Format::Json
                                   ? obs::json_scrape()
                                   : obs::prometheus_scrape();
      queue_write(conn, encode_stats_response(text, frame->seq));
      if (conns_.find(id) == conns_.end()) return false;
      continue;
    }
    if (!is_request_kind(frame->kind)) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      close_connection(id);
      return false;
    }
    auto request = decode_request(*frame);
    if (!request) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      close_connection(id);
      return false;
    }
    if (draining_ || conn.inflight >= config_.inflight_budget) {
      busy_rejections_.fetch_add(1, std::memory_order_relaxed);
      queue_write(conn,
                  encode_response(channel::busy_response(*request),
                                  frame->seq));
      if (conns_.find(id) == conns_.end()) return false;
      continue;
    }
    ++conn.inflight;
    decoded_.push_back(Decoded{id, frame->seq, std::move(*request)});
  }
  if (conn.reader.error() != FrameError::None) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    close_connection(id);
    return false;
  }
  return true;
}

void HubServer::queue_write(Connection& conn, const Bytes& bytes) {
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  conn.write_buf.insert(conn.write_buf.end(), bytes.begin(), bytes.end());
  flush_writes(conn);
}

void HubServer::flush_writes(Connection& conn) {
  while (conn.write_pos < conn.write_buf.size()) {
    // MSG_NOSIGNAL: a client may hang up with responses still queued;
    // that must surface as EPIPE here, not kill the server with SIGPIPE.
    const ssize_t n =
        ::send(conn.fd.get(), conn.write_buf.data() + conn.write_pos,
               conn.write_buf.size() - conn.write_pos, MSG_NOSIGNAL);
    if (n > 0) {
      tx_bytes_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
      conn.write_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_connection(conn.id);
    return;
  }
  if (conn.write_pos == conn.write_buf.size()) {
    conn.write_buf.clear();
    conn.write_pos = 0;
  } else if (conn.write_pos > (64u << 10)) {
    // Compact the consumed prefix so a long-lived slow peer doesn't grow
    // the buffer without bound below the cap.
    conn.write_buf.erase(conn.write_buf.begin(),
                         conn.write_buf.begin() +
                             static_cast<std::ptrdiff_t>(conn.write_pos));
    conn.write_pos = 0;
  }
  if (conn.queued_bytes() > config_.max_write_queue_bytes) {
    slow_reader_closed_.fetch_add(1, std::memory_order_relaxed);
    close_connection(conn.id);
    return;
  }
  update_interest(conn);
}

void HubServer::update_interest(Connection& conn) {
  const bool want = conn.queued_bytes() > 0;
  if (want == conn.want_write) return;
  conn.want_write = want;
  loop_.modify(conn.fd.get(),
               want ? (EPOLLIN | EPOLLOUT) : static_cast<std::uint32_t>(
                                                 EPOLLIN));
}

void HubServer::close_connection(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  loop_.remove(it->second->fd.get());
  conns_.erase(it);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
}

void HubServer::route_decoded() {
  if (decoded_.empty() || holding_.load(std::memory_order_relaxed)) return;
  // A lone request on an idle hub is served right here, and its response
  // is queued at once: no worker wakes, and no eventfd write wakes this
  // thread again for the reply.
  if (decoded_.size() == 1) {
    const Decoded& only = decoded_.front();
    if (hub_.try_serve_here(
            only.request, [this, conn_id = only.conn_id,
                           seq = only.seq](channel::HubResponse response) {
              deliver(conn_id, encode_response(response, seq));
            })) {
      decoded_.clear();
      return;
    }
  }
  for (Decoded& d : decoded_) {
    ++outstanding_;
    hub_.submit(std::move(d.request),
                [this, conn_id = d.conn_id,
                 seq = d.seq](channel::HubResponse response) {
                  loop_.defer([this, conn_id,
                               encoded = encode_response(response, seq)] {
                    --outstanding_;
                    deliver(conn_id, encoded);
                  });
                });
  }
  decoded_.clear();
}

void HubServer::deliver(std::uint64_t conn_id, const Bytes& encoded) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // connection died while in the hub
  Connection& conn = *it->second;
  if (conn.inflight > 0) --conn.inflight;
  queue_write(conn, encoded);
}

void HubServer::graceful_drain() {
  const auto deadline =
      std::chrono::steady_clock::now() + config_.drain_deadline;
  // Stop accepting; mark draining so requests decoded from residual bytes
  // are shed with Busy instead of entering the queue.
  loop_.remove(acceptor_.fd());
  acceptor_.close();
  draining_ = true;
  // Phase 1: every decoded request is answered, held ones included (a
  // holding server must still drain). Replies from the pool arrive through
  // defer(), so the loop keeps polling; they point into this server, so
  // no deadline cuts this wait short.
  holding_.store(false, std::memory_order_relaxed);
  route_decoded();
  while (outstanding_ > 0) loop_.poll(10);
  // Phase 2: flush every write queue until empty or the deadline passes.
  const auto flushed = [this] {
    for (const auto& [id, conn] : conns_) {
      if (conn->queued_bytes() > 0) return false;
    }
    return true;
  };
  while (!flushed() && std::chrono::steady_clock::now() < deadline) {
    loop_.poll(10);
  }
  // Teardown: close every connection.
  while (!conns_.empty()) close_connection(conns_.begin()->first);
  loop_.clear_stop();
}

}  // namespace tinyevm::net
