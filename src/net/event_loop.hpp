// A minimal epoll event loop for the networked hub front-end.
//
// One loop == one thread: every fd registered with add() has its callback
// invoked on the thread running run()/poll(), so connection state needs no
// locking as long as it is only touched from callbacks (or from closures
// handed to defer(), which are executed on the loop thread too). The only
// cross-thread entry points are defer() and request_stop(); the latter is
// async-signal-safe so a SIGINT handler can stop a serving loop directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace tinyevm::net {

/// Owning file-descriptor handle: closes on destruction, move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset(other.fd_);
      other.fd_ = -1;
    }
    return *this;
  }

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] explicit operator bool() const { return fd_ >= 0; }
  /// Closes the current fd (if any) and takes ownership of `fd`.
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

class EventLoop {
 public:
  /// Invoked with the ready epoll event mask (EPOLLIN/EPOLLOUT/...).
  using Callback = std::function<void(std::uint32_t events)>;

  /// Throws std::system_error when epoll/eventfd creation fails.
  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for `events`; `callback` runs on the loop thread.
  void add(int fd, std::uint32_t events, Callback callback);
  /// Changes the interest mask of a registered fd.
  void modify(int fd, std::uint32_t events);
  /// Deregisters; safe to call from inside the fd's own callback (any
  /// events already harvested for it this poll round are dropped).
  void remove(int fd);

  /// One epoll pass: waits up to `timeout_ms` (-1 = indefinitely), then
  /// runs ready callbacks and any deferred closures. Returns the number of
  /// fd events dispatched.
  std::size_t poll(int timeout_ms);

  /// poll(-1) until request_stop(). Deferred closures still run between
  /// passes, so a stopping loop never strands queued work submitted before
  /// the stop.
  void run();

  /// Wakes the loop and makes run() return after the current pass.
  /// Async-signal-safe (an atomic store plus an eventfd write).
  void request_stop();
  [[nodiscard]] bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }
  /// Re-arms a loop whose run() returned so it can be run again (drain
  /// phases call poll() after the main run).
  void clear_stop() { stop_.store(false, std::memory_order_release); }

  /// Queues `fn` to run on the loop thread at the end of the next poll
  /// pass and wakes the loop. Callable from any thread. Only the closure
  /// that finds the queue empty writes the wake eventfd: the ones behind
  /// it ride the same wake.
  void defer(std::function<void()> fn);

 private:
  void drain_wake();

  Fd epoll_;
  Fd wake_;  ///< eventfd: defer()/request_stop() wakeups
  std::atomic<bool> stop_{false};
  // shared_ptr so a callback that remove()s its own fd (or a sibling's)
  // mid-dispatch cannot free the std::function currently executing.
  std::unordered_map<int, std::shared_ptr<Callback>> callbacks_;
  std::mutex deferred_mu_;
  std::vector<std::function<void()>> deferred_;
};

}  // namespace tinyevm::net
