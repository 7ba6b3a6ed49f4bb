#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <variant>

namespace tinyevm::net {

namespace {

int open_tcp_socket(const std::string& host, std::uint16_t port,
                    bool nonblocking, sockaddr_in* out_addr) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return -1;
  }
  int flags = SOCK_STREAM | SOCK_CLOEXEC;
  if (nonblocking) flags |= SOCK_NONBLOCK;
  const int fd = ::socket(AF_INET, flags, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (out_addr != nullptr) *out_addr = addr;
  return fd;
}

bool write_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: a hung-up peer must surface as EPIPE, not kill
    // the process with SIGPIPE.
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

// ---- HubClient ----

bool HubClient::connect(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  const int fd = open_tcp_socket(host, port, /*nonblocking=*/false, &addr);
  if (fd < 0) return false;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  fd_.reset(fd);
  reader_ = FrameReader();
  return true;
}

std::uint32_t HubClient::send(const channel::HubRequest& request) {
  const std::uint32_t seq = next_seq_++;
  if (!write_all(fd_.get(), encode_request(request, seq))) close();
  return seq;
}

bool HubClient::send_raw(std::span<const std::uint8_t> bytes) {
  if (!connected()) return false;
  if (!write_all(fd_.get(), bytes)) {
    close();
    return false;
  }
  return true;
}

std::optional<Frame> HubClient::recv_frame() {
  if (!connected()) return std::nullopt;
  std::array<std::uint8_t, 64 * 1024> chunk;  // read() fills what it returns
  for (;;) {
    if (auto frame = reader_.next()) return frame;
    if (reader_.error() != FrameError::None) return std::nullopt;
    const ssize_t n = ::read(fd_.get(), chunk.data(), chunk.size());
    if (n > 0) {
      reader_.feed({chunk.data(), static_cast<std::size_t>(n)});
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return std::nullopt;  // EOF or read error
  }
}

std::optional<std::pair<std::uint32_t, channel::HubResponse>>
HubClient::recv() {
  const auto frame = recv_frame();
  if (!frame || frame->kind != FrameKind::Response) return std::nullopt;
  auto response = decode_response(*frame);
  if (!response) return std::nullopt;
  return std::make_pair(frame->seq, std::move(*response));
}

std::optional<channel::HubResponse> HubClient::call(
    const channel::HubRequest& request) {
  const std::uint32_t seq = send(request);
  for (;;) {
    auto next = recv();
    if (!next) return std::nullopt;
    if (next->first == seq) return std::move(next->second);
  }
}

std::optional<std::string> HubClient::scrape(StatsRequest::Format format) {
  if (!connected()) return std::nullopt;
  const std::uint32_t seq = next_seq_++;
  if (!write_all(fd_.get(),
                 encode_stats_request(StatsRequest{format}, seq))) {
    close();
    return std::nullopt;
  }
  for (;;) {
    const auto frame = recv_frame();
    if (!frame) return std::nullopt;
    if (frame->kind != FrameKind::StatsResponse) continue;
    return decode_stats_response(*frame);
  }
}

// ---- LoadGenerator ----

namespace {

using channel::ChannelEndpoint;
using channel::HubResponse;
using channel::HubStatus;
using secp256k1::PrivateKey;

/// One scripted session: open → rounds payments → close, lockstep (a
/// single request in flight), driven by nonblocking socket events.
struct Session {
  enum class Phase : std::uint8_t {
    Unstarted,
    Connecting,
    AwaitOpen,
    AwaitPay,
    AwaitClose,
    Done,
    Failed,
  };

  std::size_t index = 0;  ///< global connection index (keys, channel id)
  Phase phase = Phase::Unstarted;
  Fd fd;
  FrameReader reader;
  Bytes out;
  std::size_t out_pos = 0;
  bool want_write = false;
  std::unique_ptr<ChannelEndpoint> endpoint;
  Bytes last_frame;  ///< encoded request, re-sent verbatim on Busy
  std::size_t round = 0;
  std::chrono::steady_clock::time_point sent_at;
};

/// Per-thread shard runner; sessions [begin, end) of the global range.
class ShardRunner {
 public:
  ShardRunner(const LoadGenerator::Config& config, std::size_t begin,
              std::size_t end)
      : config_(config), begin_(begin) {
    epoll_.reset(::epoll_create1(EPOLL_CLOEXEC));
    sessions_.resize(end - begin);
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      sessions_[i].index = begin + i;
    }
  }

  LoadGenerator::Report run() {
    start_more();
    std::array<epoll_event, 128> events{};
    while (finished_ < sessions_.size()) {
      const int n = ::epoll_wait(epoll_.get(), events.data(),
                                 static_cast<int>(events.size()), 1000);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        const auto& ev = events[static_cast<std::size_t>(i)];
        handle_event(ev.data.u64, ev.events);
      }
      start_more();
    }
    return std::move(report_);
  }

 private:
  [[nodiscard]] U256 units_for(std::size_t round, std::size_t index) const {
    return U256{(round + index) % 4 + 1};
  }

  void start_more() {
    while (connecting_ < config_.connect_burst &&
           next_unstarted_ < sessions_.size()) {
      start_session(sessions_[next_unstarted_++]);
    }
  }

  void start_session(Session& s) {
    sockaddr_in addr{};
    const int fd = open_tcp_socket(config_.host, config_.port,
                                   /*nonblocking=*/true, &addr);
    if (fd < 0) {
      fail_connect(s);
      return;
    }
    s.fd.reset(fd);
    const int rc = ::connect(
        fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      fail_connect(s);
      return;
    }
    s.phase = Session::Phase::Connecting;
    ++connecting_;
    epoll_event ev{};
    ev.events = EPOLLOUT;
    ev.data.u64 = s.index - begin_;
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev);
  }

  void fail_connect(Session& s) {
    ++report_.connect_failures;
    finish(s, /*success=*/false);
  }

  void finish(Session& s, bool success) {
    if (s.phase == Session::Phase::Connecting) --connecting_;
    if (s.fd) {
      ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, s.fd.get(), nullptr);
      s.fd.reset();
    }
    s.phase = success ? Session::Phase::Done : Session::Phase::Failed;
    if (success) ++report_.connections_done;
    ++finished_;
  }

  void set_interest(Session& s) {
    const bool want = s.out_pos < s.out.size();
    if (want == s.want_write) return;
    s.want_write = want;
    epoll_event ev{};
    ev.events = want ? (EPOLLIN | EPOLLOUT)
                     : static_cast<std::uint32_t>(EPOLLIN);
    ev.data.u64 = s.index - begin_;
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, s.fd.get(), &ev);
  }

  void send_frame(Session& s, Bytes frame) {
    s.last_frame = std::move(frame);
    s.out.insert(s.out.end(), s.last_frame.begin(), s.last_frame.end());
    s.sent_at = std::chrono::steady_clock::now();
    flush(s);
  }

  void resend_last(Session& s) {
    ++report_.busy_retries;
    s.out.insert(s.out.end(), s.last_frame.begin(), s.last_frame.end());
    s.sent_at = std::chrono::steady_clock::now();
    flush(s);
  }

  void flush(Session& s) {
    while (s.out_pos < s.out.size()) {
      const ssize_t n = ::send(s.fd.get(), s.out.data() + s.out_pos,
                               s.out.size() - s.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        s.out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      ++report_.failures;
      finish(s, /*success=*/false);
      return;
    }
    if (s.out_pos == s.out.size()) {
      s.out.clear();
      s.out_pos = 0;
    }
    set_interest(s);
  }

  void on_connected(Session& s) {
    --connecting_;
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(s.fd.get(), SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      s.phase = Session::Phase::AwaitOpen;  // leave Connecting for finish()
      ++report_.connect_failures;
      finish(s, /*success=*/false);
      return;
    }
    // Re-arm from the connect-only EPOLLOUT mask to the steady-state
    // read interest (flush() adds EPOLLOUT back while bytes are queued).
    s.want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = s.index - begin_;
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, s.fd.get(), &ev);
    // The endpoint mirrors the in-process reference exchange exactly:
    // seeded key, seeded sensor reading, deterministic channel id.
    s.endpoint = std::make_unique<ChannelEndpoint>(
        "car-" + std::to_string(s.index),
        PrivateKey::from_seed(config_.key_seed + std::to_string(s.index)),
        config_.onchain_root, config_.engine);
    s.endpoint->sensors().set_reading(config_.sensor_device,
                                      config_.sensor_reading);
    const U256 channel_id{config_.channel_id_base + s.index};
    const auto open = s.endpoint->open_request(channel_id, config_.rate,
                                               config_.sensor_device);
    if (!open) {
      ++report_.failures;
      finish(s, /*success=*/false);
      return;
    }
    s.phase = Session::Phase::AwaitOpen;
    send_frame(s, encode_request(channel::HubRequest{*open}, next_seq_++));
  }

  /// Advances the script after a successful (non-Busy) response.
  void advance(Session& s, const HubResponse& response) {
    if (response.status != HubStatus::Ok) {
      ++report_.failures;
      finish(s, /*success=*/false);
      return;
    }
    if (!s.endpoint->apply(response)) {
      ++report_.failures;
      finish(s, /*success=*/false);
      return;
    }
    if (s.phase == Session::Phase::AwaitPay) {
      const auto now = std::chrono::steady_clock::now();
      report_.e2e_us.push_back(static_cast<std::uint32_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                                s.sent_at)
              .count()));
      report_.service_us.push_back(response.service_us);
      ++report_.rounds_done;
      ++s.round;
    }
    if (s.round < config_.rounds) {
      const auto update =
          s.endpoint->propose_payment(units_for(s.round, s.index));
      if (!update) {
        ++report_.failures;
        finish(s, /*success=*/false);
        return;
      }
      s.phase = Session::Phase::AwaitPay;
      send_frame(s,
                 encode_request(channel::HubRequest{*update}, next_seq_++));
      return;
    }
    if (s.phase != Session::Phase::AwaitClose && config_.close_channels) {
      s.phase = Session::Phase::AwaitClose;
      send_frame(s, encode_request(
                        channel::HubRequest{s.endpoint->close_request()},
                        next_seq_++));
      return;
    }
    finish(s, /*success=*/true);
  }

  void on_readable(Session& s) {
    std::array<std::uint8_t, 64 * 1024> chunk;  // filled by read()
    for (;;) {
      const ssize_t n = ::read(s.fd.get(), chunk.data(), chunk.size());
      if (n > 0) {
        s.reader.feed({chunk.data(), static_cast<std::size_t>(n)});
        // A short read emptied the socket; level-triggered epoll reports
        // whatever arrives later.
        if (static_cast<std::size_t>(n) < chunk.size()) break;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // EOF or hard error with the script unfinished.
      ++report_.failures;
      finish(s, /*success=*/false);
      return;
    }
    while (auto frame = s.reader.next()) {
      if (frame->kind != FrameKind::Response) {
        ++report_.failures;
        finish(s, /*success=*/false);
        return;
      }
      auto response = decode_response(*frame);
      if (!response) {
        ++report_.failures;
        finish(s, /*success=*/false);
        return;
      }
      if (response->status == HubStatus::Busy) {
        resend_last(s);
      } else {
        advance(s, *response);
      }
      if (s.phase == Session::Phase::Done ||
          s.phase == Session::Phase::Failed) {
        return;
      }
    }
    if (s.reader.error() != FrameError::None) {
      ++report_.failures;
      finish(s, /*success=*/false);
    }
  }

  void handle_event(std::uint64_t slot, std::uint32_t events) {
    Session& s = sessions_[static_cast<std::size_t>(slot)];
    if (s.phase == Session::Phase::Done || s.phase == Session::Phase::Failed) {
      return;
    }
    if (s.phase == Session::Phase::Connecting) {
      if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
        --connecting_;
        s.phase = Session::Phase::AwaitOpen;
        ++report_.connect_failures;
        finish(s, /*success=*/false);
        return;
      }
      if ((events & EPOLLOUT) != 0) on_connected(s);
      return;
    }
    if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
      ++report_.failures;
      finish(s, /*success=*/false);
      return;
    }
    if ((events & EPOLLOUT) != 0) {
      flush(s);
      if (s.phase == Session::Phase::Done ||
          s.phase == Session::Phase::Failed) {
        return;
      }
    }
    if ((events & EPOLLIN) != 0) on_readable(s);
  }

  const LoadGenerator::Config& config_;
  std::size_t begin_;
  Fd epoll_;
  std::vector<Session> sessions_;
  std::size_t next_unstarted_ = 0;
  std::size_t connecting_ = 0;
  std::size_t finished_ = 0;
  std::uint32_t next_seq_ = 1;
  LoadGenerator::Report report_;
};

}  // namespace

LoadGenerator::Report LoadGenerator::run() {
  const std::size_t threads =
      std::max<std::size_t>(1, std::min(config_.threads, config_.connections));
  std::vector<Report> reports(threads);
  const auto start = std::chrono::steady_clock::now();
  if (threads == 1) {
    ShardRunner runner(config_, 0, config_.connections);
    reports[0] = runner.run();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    const std::size_t per = (config_.connections + threads - 1) / threads;
    for (std::size_t t = 0; t < threads; ++t) {
      const std::size_t begin = t * per;
      const std::size_t end = std::min(config_.connections, begin + per);
      if (begin >= end) break;
      pool.emplace_back([this, t, begin, end, &reports] {
        ShardRunner runner(config_, begin, end);
        reports[t] = runner.run();
      });
    }
    for (auto& th : pool) th.join();
  }
  Report merged;
  for (auto& r : reports) {
    merged.connections_done += r.connections_done;
    merged.rounds_done += r.rounds_done;
    merged.busy_retries += r.busy_retries;
    merged.failures += r.failures;
    merged.connect_failures += r.connect_failures;
    merged.e2e_us.insert(merged.e2e_us.end(), r.e2e_us.begin(),
                         r.e2e_us.end());
    merged.service_us.insert(merged.service_us.end(), r.service_us.begin(),
                             r.service_us.end());
  }
  merged.elapsed_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start)
          .count();
  return merged;
}

}  // namespace tinyevm::net
