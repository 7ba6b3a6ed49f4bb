#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

namespace tinyevm::net {

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

EventLoop::EventLoop() {
  epoll_.reset(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_) {
    throw std::system_error(errno, std::generic_category(), "epoll_create1");
  }
  wake_.reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wake_) {
    throw std::system_error(errno, std::generic_category(), "eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_.get(), &ev) != 0) {
    throw std::system_error(errno, std::generic_category(), "epoll_ctl wake");
  }
}

EventLoop::~EventLoop() = default;

void EventLoop::add(int fd, std::uint32_t events, Callback callback) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw std::system_error(errno, std::generic_category(), "epoll_ctl add");
  }
  callbacks_[fd] = std::make_shared<Callback>(std::move(callback));
}

void EventLoop::modify(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw std::system_error(errno, std::generic_category(), "epoll_ctl mod");
  }
}

void EventLoop::remove(int fd) {
  // The fd may already be closed by the caller; EPOLL_CTL_DEL failing with
  // EBADF/ENOENT is then expected, so errors are ignored.
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
  callbacks_.erase(fd);
}

void EventLoop::drain_wake() {
  std::uint64_t counter = 0;
  while (::read(wake_.get(), &counter, sizeof(counter)) > 0) {
  }
}

std::size_t EventLoop::poll(int timeout_ms) {
  std::array<epoll_event, 128> events{};
  int n = ::epoll_wait(epoll_.get(), events.data(),
                       static_cast<int>(events.size()), timeout_ms);
  if (n < 0) {
    if (errno == EINTR) n = 0;
    else
      throw std::system_error(errno, std::generic_category(), "epoll_wait");
  }
  std::size_t dispatched = 0;
  for (int i = 0; i < n; ++i) {
    const int fd = events[static_cast<std::size_t>(i)].data.fd;
    if (fd == wake_.get()) {
      drain_wake();
      continue;
    }
    // Look the callback up per event: an earlier callback in this batch
    // may have removed this fd (e.g. closed a sibling connection).
    const auto it = callbacks_.find(fd);
    if (it == callbacks_.end()) continue;
    const std::shared_ptr<Callback> cb = it->second;
    (*cb)(events[static_cast<std::size_t>(i)].events);
    ++dispatched;
  }
  std::vector<std::function<void()>> deferred;
  {
    std::lock_guard lock(deferred_mu_);
    deferred.swap(deferred_);
  }
  for (auto& fn : deferred) fn();
  return dispatched;
}

void EventLoop::run() {
  while (!stop_requested()) poll(-1);
}

void EventLoop::request_stop() {
  stop_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  // write(2) is async-signal-safe; short writes cannot happen for 8 bytes
  // on an eventfd. The result only matters insofar as the loop wakes, and
  // a full eventfd counter (EAGAIN) means a wake is already pending.
  [[maybe_unused]] const ssize_t rc =
      ::write(wake_.get(), &one, sizeof(one));
}

void EventLoop::defer(std::function<void()> fn) {
  std::lock_guard lock(deferred_mu_);
  deferred_.push_back(std::move(fn));
  if (deferred_.size() > 1) return;  // a wake is already pending
  // Written under the lock: once poll() has taken this closure, the
  // caller no longer touches the loop, so its owner may destroy it.
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t rc =
      ::write(wake_.get(), &one, sizeof(one));
}

}  // namespace tinyevm::net
