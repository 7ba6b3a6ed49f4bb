// The networked hub front-end: a TCP server that speaks the src/net frame
// protocol and feeds decoded requests to a ChannelHub.
//
// Threading model — the server owns one thread, the I/O thread (whoever
// calls serve()). It polls the EventLoop: it accepts, reads, decodes
// frames, writes responses, and owns every Connection outright. The
// requests decoded in one poll round are routed together once the round
// ends:
//
//   * a round with exactly one request goes to ChannelHub::try_serve_here
//     first. When the hub is idle (no mailbox queued or running), the I/O
//     thread serves it itself and queues the response directly: no worker
//     wakes and no eventfd round trip brings the reply back;
//   * every other request goes to ChannelHub::submit, in arrival order,
//     which queues it on its channel's mailbox on the hub's worker pool.
//     The worker that serves it encodes the response and hands the bytes
//     back to the I/O thread via EventLoop::defer, so a response leaves as
//     soon as it is ready, independent of other channels' work.
//
// Backpressure is per connection and two-sided:
//
//   * inflight budget — a connection may have at most
//     Config::inflight_budget requests decoded-but-unanswered; requests
//     beyond that are answered `HubStatus::Busy` immediately by the I/O
//     thread (bounded queueing, the client backs off and retries);
//   * write-queue cap — a peer that stops reading accumulates bytes in its
//     write queue; past Config::max_write_queue_bytes the connection is
//     closed (a slow reader must not hold response memory hostage).
//
// Stream corruption (bad checksum/version/length, malformed RLP body, a
// response kind arriving from a client) closes the connection: framing is
// unrecoverable after the first bad frame.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "channel/hub.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"

namespace tinyevm::net {

/// Listening socket: binds, listens, and accepts nonblocking connections.
class Acceptor {
 public:
  /// Binds `address:port` (port 0 picks an ephemeral port) and listens.
  /// Throws std::system_error on failure.
  void listen(const std::string& address, std::uint16_t port);
  /// The bound port (resolves an ephemeral request).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int fd() const { return fd_.get(); }
  /// One accepted nonblocking connection fd, or -1 when none is pending.
  [[nodiscard]] int accept_one();
  void close() { fd_.reset(); }

 private:
  Fd fd_;
  std::uint16_t port_ = 0;
};

/// One client connection, owned and touched only by the I/O thread.
struct Connection {
  std::uint64_t id = 0;
  Fd fd;
  FrameReader reader;
  Bytes write_buf;          ///< unsent response bytes
  std::size_t write_pos = 0;
  std::size_t inflight = 0;  ///< decoded requests not yet answered
  bool want_write = false;   ///< EPOLLOUT currently armed

  explicit Connection(std::size_t max_frame_bytes)
      : reader(max_frame_bytes) {}
  [[nodiscard]] std::size_t queued_bytes() const {
    return write_buf.size() - write_pos;
  }
};

class HubServer {
 public:
  struct Config {
    std::string name = "hubd";           ///< obs label
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;              ///< 0 = ephemeral
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
    std::size_t inflight_budget = 64;    ///< per-connection, then Busy
    std::size_t max_write_queue_bytes = 1u << 20;  ///< then close
    /// Graceful-drain bound: after request_stop(), serve() waits for every
    /// submitted request's response (their replies point into this
    /// server, so that wait is not cut short), then flushes write queues
    /// for what is left of this long.
    std::chrono::milliseconds drain_deadline{2000};
  };

  /// Counter/gauge snapshot (all monotonic except open_connections).
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t open_connections = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t busy_rejections = 0;
    std::uint64_t protocol_errors = 0;
    std::uint64_t slow_reader_closed = 0;
    std::uint64_t batches = 0;  ///< the hub's pick-ups, inline ones too
  };

  HubServer(channel::ChannelHub& hub, Config config);
  HubServer(const HubServer&) = delete;
  HubServer& operator=(const HubServer&) = delete;

  /// Binds and listens; returns the actual port. Call before serve().
  std::uint16_t bind();
  [[nodiscard]] std::uint16_t port() const { return acceptor_.port(); }

  /// Serves on the calling thread until request_stop(), then performs the
  /// graceful drain (answer every submitted request, flush write queues)
  /// and returns.
  void serve();

  /// Stops a serve() in progress. Async-signal-safe.
  void request_stop() { loop_.request_stop(); }

  /// Test hook: while holding, decoded requests stay on the I/O thread
  /// instead of being routed to the hub, so they pile up against the
  /// inflight budget deterministically. Releasing routes them in arrival
  /// order.
  void hold_requests(bool hold);

  [[nodiscard]] Stats stats() const;

 private:
  /// A decoded request not yet routed to the hub.
  struct Decoded {
    std::uint64_t conn_id = 0;
    std::uint32_t seq = 0;
    channel::HubRequest request;
  };

  void on_acceptable();
  void on_connection_event(std::uint64_t id, std::uint32_t events);
  void on_readable(Connection& conn);
  /// Decodes and routes every complete frame buffered on `conn`. Returns
  /// false when the connection was closed (protocol error).
  bool drain_frames(Connection& conn);
  void queue_write(Connection& conn, const Bytes& bytes);
  void flush_writes(Connection& conn);
  void update_interest(Connection& conn);
  void close_connection(std::uint64_t id);
  /// Hands every decoded request to the hub, in arrival order (unless
  /// holding): a lone one to try_serve_here, whose reply delivers at once,
  /// the rest to submit, whose replies defer deliver().
  void route_decoded();
  void deliver(std::uint64_t conn_id, const Bytes& encoded);
  void graceful_drain();

  channel::ChannelHub& hub_;
  Config config_;
  EventLoop loop_;
  Acceptor acceptor_;
  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  bool draining_ = false;  ///< I/O thread only: reject new work, flush out
  /// I/O thread only: submitted requests whose response is not delivered.
  std::size_t outstanding_ = 0;
  std::atomic<bool> holding_{false};
  std::vector<Decoded> decoded_;  ///< I/O thread only, in arrival order

  // Telemetry (plain counters; read from any thread).
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> open_connections_{0};
  std::atomic<std::uint64_t> rx_bytes_{0};
  std::atomic<std::uint64_t> tx_bytes_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> busy_rejections_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> slow_reader_closed_{0};
  obs::CollectorHandle obs_collector_;
};

}  // namespace tinyevm::net
