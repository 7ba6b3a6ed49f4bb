// The three hub workloads: tinyevm_hubd in its own process, driven over
// loopback TCP by one load thread (this one) on nproc sockets.
//
// A run is: build and sign every input; set hubd up `setups` times (spawn,
// port bound, connections up, the workload's channels opened) and keep the
// last; scrape; drive the window; scrape; stop hubd and require a clean
// drain; then check every response on every core. fleet_join's window is
// several such rounds, each on a fresh hubd. With --trace 1 a second,
// traced round runs against a fresh hubd, followed by the layer replay.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "net/client.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace tinyevm::e2e {

namespace {

using channel::HubResponse;
using channel::HubResponseKind;
using channel::HubStatus;

/// Responses slower than this count against pay_steady's latency limit.
constexpr double kSloMs = 50;

std::int64_t since_ns(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

/// One tinyevm_hubd child. The destructor kills and reaps it, so no path
/// out of a run leaves a daemon behind.
class Hubd {
 public:
  /// Spawns hubd on an ephemeral port and waits until it is bound. Throws
  /// std::runtime_error; a child that did start is killed on the way out.
  static std::unique_ptr<Hubd> start(const std::string& path,
                                     std::size_t workers,
                                     const std::string& port_file) {
    std::unique_ptr<Hubd> hubd(new Hubd(path, workers, port_file));
    hubd->wait_for_port(path, port_file);
    return hubd;
  }

  ~Hubd() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Hubd(const Hubd&) = delete;
  Hubd& operator=(const Hubd&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// SIGTERM, then wait for the graceful drain. True when hubd exited 0.
  bool stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  /// utime + stime of every hubd thread, seconds.
  [[nodiscard]] double cpu_s() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::istringstream fields(stat.substr(stat.rfind(')') + 2));
    std::string field;
    double ticks = 0;
    // After "pid (comm) ", utime and stime are the 12th and 13th fields.
    for (int i = 1; i <= 13 && fields >> field; ++i) {
      if (i >= 12) ticks += std::stod(field);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// A "Vm...:" line of /proc/<pid>/status, kB.
  [[nodiscard]] double status_kb(const std::string& key) const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.starts_with(key)) return std::stod(line.substr(key.size()));
    }
    return 0;
  }

 private:
  Hubd(const std::string& path, std::size_t workers,
       const std::string& port_file) {
    ::unlink(port_file.c_str());
    const std::string workers_arg = std::to_string(workers);
    std::vector<const char*> argv{path.c_str(),         "--port",
                                  "0",                  "--port-file",
                                  port_file.c_str(),    "--workers",
                                  workers_arg.c_str(),  nullptr};
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Only async-signal-safe calls until exec. hubd's stdout goes to our
      // stderr so the last line of our stdout stays the result.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(STDERR_FILENO, STDOUT_FILENO);
      ::execv(path.c_str(), const_cast<char* const*>(argv.data()));
      ::_exit(127);
    }
  }

  void wait_for_port(const std::string& path, const std::string& port_file) {
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    for (;;) {
      std::ifstream in(port_file);
      std::string line;
      if (std::getline(in, line) && !in.eof()) {
        port_ = static_cast<std::uint16_t>(std::stoul(line));
        ::unlink(port_file.c_str());
        return;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("tinyevm_hubd exited during startup: " +
                                 path);
      }
      if (Clock::now() > deadline) {
        throw std::runtime_error("tinyevm_hubd did not bind within 10 s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// One nonblocking load connection.
struct Conn {
  net::Fd fd;
  net::FrameReader reader;
  net::Bytes out;
  std::size_t out_pos = 0;
  std::size_t outstanding = 0;
};

Conn connect_to(std::uint16_t port) {
  Conn conn;
  conn.fd.reset(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!conn.fd) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(conn.fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    throw std::runtime_error("connect to tinyevm_hubd failed");
  }
  const int one = 1;
  ::setsockopt(conn.fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(conn.fd.get(), F_SETFL, ::fcntl(conn.fd.get(), F_GETFL) | O_NONBLOCK);
  return conn;
}

/// Per-op timing, indexed by seq. Times are ns from the window start.
struct OpRecord {
  std::int64_t start_ns = -1;  ///< due time (open loop) or send time
  std::int64_t sent_ns = -1;
  std::int64_t done_ns = -1;   ///< -1: never answered
  std::uint32_t queue_us = 0;
  std::uint32_t service_us = 0;
  HubStatus status = HubStatus::Busy;
};

struct DriveResult {
  std::vector<OpRecord> ops;
  std::size_t issued = 0;
  std::int64_t end_ns = 0;   ///< last response
  double load_cpu_s = 0;     ///< this thread's CPU over the drive
  std::string error;         ///< transport or protocol failure
};

using OnResponse = std::function<void(std::size_t op, HubResponse&&)>;

/// A drive that has not finished by then has a wedged or crawling hub.
constexpr std::int64_t kDriveLimitNs = 120'000'000'000;

/// The load loop. Closed loop (`due` null): each connection keeps `window`
/// requests in flight until all of its ops are sent. Open loop: op i is
/// sent at due[i]. Either way op i travels on connection
/// (i mod key_period) mod connections, so every request of one channel
/// shares a connection and arrives in order.
DriveResult drive(std::vector<Conn>& conns, const FrameBuffer& frames,
                  std::size_t key_period, const std::vector<std::int64_t>* due,
                  std::size_t window, const OnResponse& on_response) {
  DriveResult r;
  const std::size_t n = due != nullptr ? due->size() : frames.size();
  const std::size_t nconn = conns.size();
  r.ops.resize(n);
  const auto conn_of = [&](std::size_t i) { return (i % key_period) % nconn; };
  std::vector<std::vector<std::uint32_t>> queue(nconn);
  std::vector<std::size_t> cursor(nconn, 0);
  if (due == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      queue[conn_of(i)].push_back(static_cast<std::uint32_t>(i));
    }
  }
  const double cpu0 = thread_cpu_s();
  const auto t0 = Clock::now();
  std::size_t outstanding = 0;
  std::size_t next_due = 0;
  bool issuing = true;

  const auto flush = [&](Conn& c) {
    while (c.out_pos < c.out.size()) {
      const ssize_t k = ::send(c.fd.get(), c.out.data() + c.out_pos,
                               c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (k > 0) {
        c.out_pos += static_cast<std::size_t>(k);
      } else if (k < 0 && errno == EINTR) {
        continue;
      } else if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else {
        r.error = "send failed";
        return;
      }
    }
    c.out.clear();
    c.out_pos = 0;
  };
  const auto issue = [&](std::size_t i, std::int64_t start_ns) {
    obs::Span span("bench.net.send", "bench");
    span.set_arg(i);
    Conn& c = conns[conn_of(i)];
    const auto frame = frames.frame(i);
    c.out.insert(c.out.end(), frame.begin(), frame.end());
    r.ops[i].sent_ns = since_ns(t0);
    r.ops[i].start_ns = start_ns < 0 ? r.ops[i].sent_ns : start_ns;
    ++c.outstanding;
    ++outstanding;
    ++r.issued;
    flush(c);
  };
  const auto refill = [&](std::size_t ci) {
    while (issuing && conns[ci].outstanding < window &&
           cursor[ci] < queue[ci].size()) {
      issue(queue[ci][cursor[ci]++], -1);
    }
  };
  const auto on_readable = [&](std::size_t ci) {
    Conn& c = conns[ci];
    std::array<std::uint8_t, 64 * 1024> chunk{};
    {
      obs::Span span("bench.net.recv", "bench");
      for (;;) {
        const ssize_t k = ::read(c.fd.get(), chunk.data(), chunk.size());
        if (k > 0) {
          c.reader.feed({chunk.data(), static_cast<std::size_t>(k)});
          continue;
        }
        if (k < 0 && errno == EINTR) continue;
        if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        r.error = "tinyevm_hubd closed a load connection";
        return;
      }
    }
    while (auto frame = c.reader.next()) {
      obs::Span span("bench.net.decode_response", "bench");
      span.set_arg(frame->seq);
      auto response = frame->kind == net::FrameKind::Response
                          ? net::decode_response(*frame)
                          : std::nullopt;
      const std::size_t seq = frame->seq;
      if (!response || seq >= n || r.ops[seq].sent_ns < 0 ||
          r.ops[seq].done_ns >= 0) {
        r.error = "malformed or unexpected response frame";
        return;
      }
      OpRecord& op = r.ops[seq];
      op.done_ns = since_ns(t0);
      op.queue_us = response->queue_us;
      op.service_us = response->service_us;
      op.status = response->status;
      r.end_ns = std::max(r.end_ns, op.done_ns);
      --c.outstanding;
      --outstanding;
      on_response(seq, std::move(*response));
    }
    if (c.reader.error() != net::FrameError::None) {
      r.error = "corrupt response stream";
    }
  };

  if (due == nullptr) {
    for (std::size_t ci = 0; ci < nconn; ++ci) refill(ci);
  }
  std::vector<pollfd> fds(nconn);
  while (r.error.empty()) {
    const std::int64_t now = since_ns(t0);
    if (due != nullptr) {
      while (next_due < n && (*due)[next_due] <= now) {
        issue(next_due, (*due)[next_due]);
        ++next_due;
      }
      issuing = next_due < n;
    } else if (issuing) {
      issuing = false;
      for (std::size_t ci = 0; ci < nconn; ++ci) {
        issuing = issuing || cursor[ci] < queue[ci].size();
      }
    }
    if (!issuing && outstanding == 0) break;
    if (now > kDriveLimitNs) {
      r.error = "the hub had not answered every request after 120 s";
      break;
    }
    std::int64_t wait_ns = 50'000'000;
    if (due != nullptr && next_due < n) {
      wait_ns = std::max<std::int64_t>(0, (*due)[next_due] - now);
    }
    for (std::size_t ci = 0; ci < nconn; ++ci) {
      fds[ci].fd = conns[ci].fd.get();
      fds[ci].events = static_cast<short>(
          POLLIN | (conns[ci].out_pos < conns[ci].out.size() ? POLLOUT : 0));
      fds[ci].revents = 0;
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), nconn, &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      r.error = "ppoll failed";
      break;
    }
    for (std::size_t ci = 0; ci < nconn && ready > 0 && r.error.empty();
         ++ci) {
      const short ev = fds[ci].revents;
      if ((ev & (POLLERR | POLLNVAL)) != 0) {
        r.error = "load connection error";
      } else {
        if ((ev & POLLOUT) != 0) flush(conns[ci]);
        if ((ev & (POLLIN | POLLHUP)) != 0) on_readable(ci);
      }
    }
    if (due == nullptr) {
      for (std::size_t ci = 0; ci < nconn; ++ci) refill(ci);
    }
  }
  r.load_cpu_s = thread_cpu_s() - cpu0;
  return r;
}

/// What the check phase needs of each response, kept compactly: fleet
/// runs answer a quarter million opens.
struct Answers {
  std::vector<HubResponseKind> kind;
  std::vector<U256> channel_id;
  std::vector<std::optional<channel::SignedState>> state;  // payments
  std::vector<std::optional<evm::Address>> contract;       // opens
};

evm::Address expected_contract(const U256& channel_id) {
  evm::Address addr{};
  addr[0] = 0xCC;  // ChannelSession::open's device-local address scheme
  const auto word = channel_id.to_word();
  std::memcpy(addr.data() + 12, word.data() + 24, 8);
  return addr;
}

/// A hubd with its load connections and a separate scrape connection.
struct Hub {
  std::unique_ptr<Hubd> hubd;
  std::vector<Conn> conns;
  net::HubClient scraper;
  double baseline_rss_kb = 0;  ///< right after bind, before any session
};

/// Spawns hubd, connects, and opens `opens` (setup_s covers exactly this).
/// Returns nullopt with `error` set when the setup itself failed.
///
/// hubd writes its port file before it installs its SIGTERM handler, so a
/// hub that is stopped before it has answered anything may die of the
/// signal instead of draining. With no channels to open, one stats round
/// trip shows it is serving.
std::optional<Hub> set_up(const RunOptions& o, const FrameBuffer& opens,
                          std::size_t key_period, std::string& error) {
  Hub hub;
  static std::atomic<int> serial{0};
  const std::string port_file = o.run_dir + "/hubd-" +
                                std::to_string(::getpid()) + "-" +
                                std::to_string(serial++) + ".port";
  try {
    hub.hubd = Hubd::start(o.hubd_path, hub_workers(), port_file);
    hub.baseline_rss_kb = hub.hubd->status_kb("VmRSS:");
    for (std::size_t c = 0; c < nproc(); ++c) {
      hub.conns.push_back(connect_to(hub.hubd->port()));
    }
  } catch (const std::exception& e) {
    error = e.what();
    return std::nullopt;
  }
  if (!hub.scraper.connect("127.0.0.1", hub.hubd->port())) {
    error = "scrape connection failed";
    return std::nullopt;
  }
  if (opens.size() == 0 && !hub.scraper.scrape()) {
    error = "tinyevm_hubd did not answer a stats request";
    return std::nullopt;
  }
  if (opens.size() > 0) {
    std::size_t refused = 0;
    const DriveResult d =
        drive(hub.conns, opens, key_period, nullptr, kWindowPerConn,
              [&](std::size_t, HubResponse&& resp) {
                if (!resp.ok() || !resp.contract) ++refused;
              });
    if (!d.error.empty() || refused != 0 || d.issued != opens.size()) {
      error = "setup opens failed: " +
              (d.error.empty() ? std::to_string(refused) + " refused"
                               : d.error);
      return std::nullopt;
    }
  }
  return hub;
}

/// Scrape text and the bytes its request/response pair put on the wire
/// (subtracted from the hub's rx/tx counters).
struct Scrape {
  std::string text;
  double rx_bytes = 0;
  double tx_bytes = 0;
};

std::optional<Scrape> scrape(net::HubClient& client) {
  auto text = client.scrape();
  if (!text) return std::nullopt;
  Scrape s;
  s.rx_bytes = static_cast<double>(
      net::encode_stats_request(net::StatsRequest{}, 0).size());
  s.tx_bytes = static_cast<double>(net::encode_stats_response(*text, 0).size());
  s.text = std::move(*text);
  return s;
}

/// One measured window against a set-up hub.
struct Window {
  DriveResult drive;
  Answers answers;
  Scrape before;
  Scrape after;
  double hub_cpu_s = 0;
  double peak_rss_kb = 0;
  double rss_kb = 0;
  bool clean_exit = false;
};

std::optional<Window> measure(const RunOptions& o, Hub& hub,
                              const FrameBuffer& frames,
                              std::size_t key_period,
                              const std::vector<std::int64_t>* due,
                              RunResult& result) {
  Window w;
  const std::size_t n = due != nullptr ? due->size() : frames.size();
  const bool payments = o.workload != Workload::FleetJoin;
  w.answers.kind.resize(n);
  w.answers.channel_id.resize(n);
  if (payments) {
    w.answers.state.resize(n);
  } else {
    w.answers.contract.resize(n);
  }
  auto before = scrape(hub.scraper);
  const double cpu0 = hub.hubd->cpu_s();
  w.drive = drive(hub.conns, frames, key_period, due, kWindowPerConn,
                  [&](std::size_t i, HubResponse&& resp) {
                    w.answers.kind[i] = resp.kind;
                    w.answers.channel_id[i] = resp.channel_id;
                    if (payments) {
                      w.answers.state[i] = std::move(resp.state);
                    } else {
                      w.answers.contract[i] = resp.contract;
                    }
                  });
  w.hub_cpu_s = hub.hubd->cpu_s() - cpu0;
  auto after = scrape(hub.scraper);
  w.peak_rss_kb = hub.hubd->status_kb("VmHWM:");
  w.rss_kb = hub.hubd->status_kb("VmRSS:");
  hub.scraper.close();
  hub.conns.clear();
  w.clean_exit = hub.hubd->stop();
  if (!w.drive.error.empty()) result.fail(w.drive.error);
  if (!before || !after) result.fail("stats scrape failed");
  if (!w.clean_exit) result.fail("tinyevm_hubd did not drain and exit 0");
  if (!result.correct) return std::nullopt;
  w.before = std::move(*before);
  w.after = std::move(*after);
  return w;
}

/// Checks every response of the window on every core. Returns the
/// failures; `why` tallies them by cause.
std::uint64_t check_responses(const Window& w, const PayScript* script,
                              const std::vector<channel::OpenRequest>* opens,
                              std::string& why) {
  const channel::Address hub_address = hub_key().address();
  // Index = HubStatus; one past the last = answered Ok but unverified.
  constexpr std::size_t kUnverified =
      static_cast<std::size_t>(HubStatus::Busy) + 1;
  std::array<std::atomic<std::uint64_t>, kUnverified + 1> causes{};
  runtime::ThreadPool pool{nproc()};
  runtime::parallel_for(pool, w.drive.ops.size(), 64, [&](std::size_t i) {
    const OpRecord& op = w.drive.ops[i];
    if (op.status != HubStatus::Ok) {
      causes[static_cast<std::size_t>(op.status)].fetch_add(1);
      return;
    }
    bool ok = true;
    if (script != nullptr) {
      const channel::PaymentUpdate& sent = script->payments[i];
      const auto& got = w.answers.state[i];
      ok = w.answers.kind[i] == HubResponseKind::Payment &&
           w.answers.channel_id[i] == sent.channel_id && got &&
           got->state == sent.proposal.state &&
           got->sender_sig == sent.proposal.sender_sig &&
           secp256k1::recover_address(got->state.digest(),
                                      got->receiver_sig) == hub_address;
    } else if (opens != nullptr) {
      const channel::OpenRequest& sent = (*opens)[i];
      ok = w.answers.kind[i] == HubResponseKind::Open &&
           w.answers.channel_id[i] == sent.channel_id &&
           w.answers.contract[i] == expected_contract(sent.channel_id);
    }
    if (!ok) causes[kUnverified].fetch_add(1);
  });
  std::uint64_t failed = 0;
  for (std::size_t c = 0; c < causes.size(); ++c) {
    const std::uint64_t k = causes[c].load();
    if (k == 0) continue;
    failed += k;
    why += (why.empty() ? "" : ", ") + std::to_string(k) + " " +
           (c == kUnverified
                ? std::string("unverified")
                : std::string(to_string(static_cast<HubStatus>(c))));
  }
  return failed;
}

double delta(const Window& w, std::string_view name) {
  return scrape_sum(w.after.text, name) - scrape_sum(w.before.text, name);
}

/// Appends each answered op's latency to `out`.
void add_latencies_ms(const DriveResult& d, std::vector<double>& out) {
  for (const OpRecord& op : d.ops) {
    if (op.done_ns >= 0) out.push_back((op.done_ns - op.start_ns) * 1e-6);
  }
}

}  // namespace

void add_scrape_layers(std::string_view before, std::string_view after,
                       double ops, std::vector<Metric>& out) {
  const auto d = [&](std::string_view name) {
    return scrape_sum(after, name) - scrape_sum(before, name);
  };
  const auto per_op = [&](double v) { return ops > 0 ? v / ops : 0.0; };
  const double service = d("tinyevm_hub_service_us_sum");
  const double crypto =
      d("tinyevm_crypto_sign_us_sum") + d("tinyevm_crypto_recover_us_sum");
  const double hits = d("tinyevm_cache_hits_total");
  const double lookups = hits + d("tinyevm_cache_misses_total");
  const auto n = static_cast<std::size_t>(ops);
  out.push_back({"crypto.signs_per_op",
                 per_op(d("tinyevm_crypto_sign_us_count")), "count", n});
  out.push_back({"crypto.recovers_per_op",
                 per_op(d("tinyevm_crypto_recover_us_count")), "count", n});
  out.push_back({"crypto.share_of_service",
                 service > 0 ? crypto / service : 0.0, "ratio", n});
  out.push_back({"evm.executions_per_op",
                 per_op(d("tinyevm_vm_executions_total")), "count", n});
  out.push_back({"evm.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
                 "ratio", static_cast<std::size_t>(lookups)});
  out.push_back({"evm.translations_per_op",
                 per_op(d("tinyevm_cache_misses_total")), "count", n});
  out.push_back({"evm.evictions_per_op",
                 per_op(d("tinyevm_cache_evictions_total")), "count", n});
  out.push_back({"evm.cache_lock_contentions",
                 d("tinyevm_cache_lock_contentions_total"), "count", n});
}

RunResult run_hub_workload(const RunOptions& o) {
  RunResult result;
  const Sizes& s = o.sizes;

  HubInputs in = make_hub_inputs(o.workload, o.seed, s);
  PayScript& script = in.script;
  const std::vector<channel::OpenRequest>& fleet = in.fleet;
  const FrameBuffer& setup_opens = in.setup;
  const FrameBuffer& frames = in.frames;
  const std::size_t key_period = in.key_period;
  const std::vector<std::int64_t>* schedule =
      in.due.empty() ? nullptr : &in.due;

  // ---- set-up, repeated; the last hub serves the first round ----
  std::vector<double> setup_times;
  std::optional<Hub> hub;
  warm_up_cores(s.warm_up_s);
  for (std::size_t k = 0; k < s.setups; ++k) {
    if (hub && !hub->hubd->stop()) {
      result.fail("tinyevm_hubd did not drain and exit 0 after a setup");
      return result;
    }
    std::string error;
    const auto t0 = Clock::now();
    hub = set_up(o, setup_opens, key_period, error);
    setup_times.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    if (!hub) {
      result.fail(error);
      return result;
    }
  }

  // ---- the window: fleet_join's fleet joins once per round, each time a
  // fresh hubd (a restarted gateway); every other workload is one round ----
  const std::size_t rounds = fleet.empty() ? 1 : s.fleet_rounds;
  std::vector<Window> windows;
  std::string why;
  for (std::size_t r = 0; r < rounds && result.correct; ++r) {
    if (r > 0) {
      std::string error;
      hub = set_up(o, setup_opens, key_period, error);
      if (!hub) {
        result.fail(error);
        return result;
      }
    }
    auto window = measure(o, *hub, frames, key_period, schedule, result);
    if (!window) return result;
    const std::size_t issued = window->drive.issued;
    result.attempted += issued;
    result.failed +=
        check_responses(*window, fleet.empty() ? &script : nullptr,
                        fleet.empty() ? nullptr : &fleet, why);
    const double served =
        delta(*window, fleet.empty() ? "tinyevm_hub_payments_total"
                                     : "tinyevm_hub_opens_total");
    if (served != static_cast<double>(issued)) {
      result.fail("hub counters disagree with the requests sent: " +
                  std::to_string(served) + " served, " +
                  std::to_string(issued) + " sent");
    }
    if (issued == 0) result.fail("no requests were sent");
    window->answers = {};  // checked; only the timings are used from here
    windows.push_back(std::move(*window));
  }
  if (result.failed != 0) result.fail("failed responses: " + why);
  if (!result.correct) return result;

  // ---- end-to-end: each the median over the rounds, so a burst of host
  // noise that slows one round does not move it ----
  const auto n = static_cast<std::size_t>(result.attempted);
  const double ops = static_cast<double>(result.attempted);
  double window_s = 0;
  double hub_cpu_s = 0;
  double load_cpu_s = 0;
  double slo_misses = 0;
  std::vector<double> throughput;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> cpu_ms;
  std::vector<double> rss_mb;
  for (const Window& w : windows) {
    const auto issued = static_cast<double>(w.drive.issued);
    const double seconds = static_cast<double>(w.drive.end_ns) * 1e-9;
    std::vector<double> round_lat;
    add_latencies_ms(w.drive, round_lat);
    throughput.push_back(issued / seconds);
    p50.push_back(quantile(round_lat, 0.50));
    p99.push_back(sliced_p99(round_lat));
    cpu_ms.push_back(w.hub_cpu_s * 1e3 / issued);
    rss_mb.push_back(w.peak_rss_kb / 1024);
    window_s += seconds;
    hub_cpu_s += w.hub_cpu_s;
    load_cpu_s += w.drive.load_cpu_s;
    slo_misses += static_cast<double>(
        std::count_if(round_lat.begin(), round_lat.end(),
                      [](double ms) { return ms > kSloMs; }));
  }
  result.end_to_end = {
      {"throughput_ops_s", median(throughput), "ops/s", n},
      {"latency_p50_ms", median(p50), "ms", n},
      {"latency_p99_ms", median(p99), "ms", n},
      {"cpu_ms_per_op", median(cpu_ms), "ms", n},
      {"peak_rss_mb", median(rss_mb), "MB", windows.size()},
      {"setup_s", median(setup_times), "s", setup_times.size()},
  };
  result.report_only = {
      {"error_rate", static_cast<double>(result.failed) / ops, "ratio", n}};
  if (o.workload == Workload::PaySteady) {
    result.report_only.push_back(
        {"slo_miss_rate",
         (static_cast<double>(result.failed) + slo_misses) / ops, "ratio", n});
  }
  if (!o.trace) return result;

  // ---- per layer, from the untraced window; scrape deltas and RSS from
  // its last round, whose hubd is `hub` ----
  std::vector<double> queue;
  std::vector<double> service;
  std::vector<double> residual;
  std::vector<double> late;
  for (const Window& w : windows) {
    for (const OpRecord& op : w.drive.ops) {
      if (op.done_ns < 0) continue;
      queue.push_back(op.queue_us);
      service.push_back(op.service_us);
      residual.push_back((op.done_ns - op.sent_ns) * 1e-3 - op.queue_us -
                         op.service_us);
      late.push_back((op.sent_ns - op.start_ns) * 1e-3);
    }
  }
  const Window& last = windows.back();
  const double last_ops = static_cast<double>(last.drive.issued);
  // A scrape is collected after its request is counted and before its
  // response is: the deltas include the second request and the first
  // response, neither of which is load.
  const double rx =
      delta(last, "tinyevm_net_rx_bytes_total") - last.after.rx_bytes;
  const double tx =
      delta(last, "tinyevm_net_tx_bytes_total") - last.before.tx_bytes;
  const double frames_in = delta(last, "tinyevm_net_frames_in_total") - 1;
  const double batches = delta(last, "tinyevm_net_batches_total");
  const double sessions = scrape_sum(last.after.text, "tinyevm_hub_sessions");
  auto& layers = result.per_layer;
  layers = {
      {"net.wire_bytes_per_op", (rx + tx) / last_ops, "bytes",
       last.drive.issued},
      {"net.batch_size_mean", batches > 0 ? frames_in / batches : 0.0, "count",
       static_cast<std::size_t>(batches)},
      {"runtime.worker_busy_ratio",
       hub_cpu_s / (static_cast<double>(hub_workers()) * window_s), "ratio",
       1},
      {"channel.rss_kb_per_session",
       sessions > 0 ? (last.rss_kb - hub->baseline_rss_kb) / sessions : 0.0,
       "KB", static_cast<std::size_t>(sessions)},
      {"loadgen.cpu_ms_per_op", load_cpu_s * 1e3 / ops, "ms", n},
  };
  add_scrape_layers(last.before.text, last.after.text, last_ops, layers);
  result.report_only.insert(
      result.report_only.end(),
      {
          {"net.rtt_residual_us_p50", quantile(residual, 0.5), "us", n},
          {"net.busy_per_op", delta(last, "tinyevm_net_busy_total") / last_ops,
           "ratio", last.drive.issued},
          {"runtime.queue_us_p50", quantile(queue, 0.5), "us", n},
          {"runtime.queue_us_p99", quantile(queue, 0.99), "us", n},
          {"channel.service_us_p50", quantile(service, 0.5), "us", n},
          {"channel.service_us_p99", quantile(service, 0.99), "us", n},
          {"loadgen.late_us_p99", quantile(late, 0.99), "us", n},
      });

  // ---- traced window on a fresh hub, then the layer replay ----
  obs::Tracer::instance().enable(1u << 17);
  std::string error;
  auto traced_hub = set_up(o, setup_opens, key_period, error);
  if (!traced_hub) {
    result.fail("traced setup: " + error);
    return result;
  }
  RunResult traced_result;
  const auto traced = measure(o, *traced_hub, frames, key_period, schedule,
                              traced_result);
  if (!traced) {
    for (auto& e : traced_result.errors) result.fail("traced run: " + e);
    return result;
  }
  // One round is traced; its p50 is set against the untraced rounds'.
  std::vector<double> traced_lat;
  add_latencies_ms(traced->drive, traced_lat);
  layers.push_back({"trace.overhead_pct",
                    percent_change(median(p50), quantile(traced_lat, 0.5)),
                    "%", traced->drive.issued});
  const auto replay = layer_replay(o.seed, s, script);
  layers.insert(layers.end(), replay.begin(), replay.end());
  return result;
}

}  // namespace tinyevm::e2e
