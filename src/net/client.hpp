// Client side of the networked hub: a small blocking client for tests and
// tooling, and a multiplexed load generator that drives thousands of
// concurrent payment-channel sessions over real sockets.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "channel/hub.hpp"
#include "channel/manager.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"

namespace tinyevm::net {

/// Blocking frame client: one socket, sequential or pipelined calls.
/// Intended for tests and CLI tooling, not high connection counts.
class HubClient {
 public:
  /// Connects to host:port; false on failure (errno describes why).
  bool connect(const std::string& host, std::uint16_t port);
  void close() { fd_.reset(); }
  [[nodiscard]] bool connected() const { return static_cast<bool>(fd_); }
  [[nodiscard]] int fd() const { return fd_.get(); }

  /// Sends one request frame; returns its correlation seq.
  std::uint32_t send(const channel::HubRequest& request);
  /// Sends raw bytes verbatim (malformed-frame tests).
  bool send_raw(std::span<const std::uint8_t> bytes);

  /// Blocks for the next response frame (any kind the hub sends). nullopt
  /// on EOF, read error, or a frame that fails to decode.
  std::optional<std::pair<std::uint32_t, channel::HubResponse>> recv();

  /// send() + recv() until the matching seq arrives.
  std::optional<channel::HubResponse> call(
      const channel::HubRequest& request);

  /// Remote metrics scrape over the same port.
  std::optional<std::string> scrape(
      StatsRequest::Format format = StatsRequest::Format::Prometheus);

 private:
  /// Blocks until a complete frame is buffered; nullopt on EOF/error.
  std::optional<Frame> recv_frame();

  Fd fd_;
  FrameReader reader_;
  std::uint32_t next_seq_ = 1;
};

/// Drives N concurrent sessions against a hub server, each running the
/// deterministic open → R payments → close script (identical to the
/// in-process exchange the differential test replays), with one request in
/// flight per connection: each payment chains onto the previous response.
class LoadGenerator {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::size_t connections = 8;
    std::size_t rounds = 16;      ///< payment rounds per connection
    std::size_t threads = 1;      ///< client I/O threads
    std::size_t connect_burst = 256;  ///< nonblocking connects in flight
    bool close_channels = true;
    /// Endpoint i uses PrivateKey::from_seed(key_seed + i), channel id
    /// channel_id_base + i, and payment units (r + i) % 4 + 1 — the same
    /// script as the in-process reference exchange.
    std::string key_seed = "car-key-";
    std::size_t channel_id_base = 1;
    U256 rate{10};
    std::uint32_t sensor_device = 7;
    U256 sensor_reading{22};
    Hash256 onchain_root{};
    std::string engine;  ///< endpoint Vm engine; empty = profile default
  };

  struct Report {
    std::size_t connections_done = 0;
    std::size_t rounds_done = 0;   ///< successful payment rounds
    std::size_t busy_retries = 0;  ///< Busy responses (request re-sent)
    std::size_t failures = 0;      ///< rejected requests / apply failures
    std::size_t connect_failures = 0;
    double elapsed_s = 0;
    /// Per payment round, microseconds: end-to-end (send → response) and
    /// the hub-reported service time of that round.
    std::vector<std::uint32_t> e2e_us;
    std::vector<std::uint32_t> service_us;
  };

  explicit LoadGenerator(Config config) : config_(std::move(config)) {}

  /// Runs the whole load to completion and returns the merged report.
  Report run();

 private:
  Config config_;
};

}  // namespace tinyevm::net
