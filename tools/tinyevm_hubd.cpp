// tinyevm-hubd — the networked channel hub daemon. Binds a TCP port,
// speaks the src/net frame protocol (RLP message bodies, version byte,
// per-frame CRC), and submits each decoded request to an in-process
// ChannelHub, whose workers serve every channel's requests in order from
// its mailbox, up to --batch-max per pick-up. A request that arrives alone
// while every worker is idle is served on the I/O thread instead. SIGINT/SIGTERM trigger a
// graceful drain: every submitted request is answered, write queues flush
// (bounded by --drain-ms), then the process exits 0. A numeric option that
// is not a whole number in range exits 2 before anything binds.
//
//   tinyevm-hubd --port 9545 --workers 4
//   tinyevm-hubd --port 0 --port-file /tmp/hubd.port   # ephemeral port
//   tinyevm-hubload --port-file /tmp/hubd.port ...     # companion client
#include <charconv>
#include <csignal>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

#include "channel/hub.hpp"
#include "evm/code_cache.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"

using namespace tinyevm;
using namespace tinyevm::channel;

namespace {

net::HubServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

/// Writes the port through a temp file and rename(), so a poller never
/// reads a partly written file.
bool write_port_file(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool written = std::fprintf(f, "%u\n", port) > 0;
  if (std::fclose(f) != 0 || !written) return false;
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/// Parses the whole of `value` as a decimal integer in [min, max of T];
/// otherwise says why on stderr and returns false. Unsigned T rejects a
/// sign, so a negative value never wraps into a huge count.
template <typename T>
bool parse_number(const char* flag, std::string_view value, T& out,
                  T min = 0) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc{} || ptr != end || parsed < min) {
    std::fprintf(stderr, "bad %s '%.*s' (want an integer in [%llu, %llu])\n",
                 flag, static_cast<int>(value.size()), value.data(),
                 static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(
                     std::numeric_limits<T>::max()));
    return false;
  }
  out = parsed;
  return true;
}

void usage() {
  std::printf(
      "usage: tinyevm-hubd [options]\n"
      "  --port <n>            TCP port (0 = ephemeral; default 9545)\n"
      "  --bind <addr>         bind address (default 127.0.0.1)\n"
      "  --port-file <path>    write the bound port to this file\n"
      "  --workers <n>         hub worker threads (default 2); the I/O "
      "thread\n"
      "                        serves a lone request itself when every "
      "worker is\n"
      "                        idle\n"
      "  --engine <name>       hub execution engine (default: profile)\n"
      "  --sensor <dev>=<val>  hub-side sensor default (default 7=21)\n"
      "  --inflight <n>        per-connection request budget (default 64)\n"
      "  --batch-max <n>       max requests a worker serves from one "
      "channel per\n"
      "                        pick-up (default 256)\n"
      "  --drain-ms <n>        graceful-drain deadline (default 2000)\n"
      "  --key-seed <s>        hub key seed (default hub-key)\n"
      "  --anchor <s>          on-chain anchor preimage (default "
      "hub-anchor)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 9545;
  std::size_t batch_max = ChannelHub::Config{}.batch_max;
  std::uint32_t drain_ms = 2000;
  std::string bind_address = "127.0.0.1";
  std::string port_file;
  std::size_t workers = 2;
  std::string engine;
  std::string key_seed = "hub-key";
  std::string anchor = "hub-anchor";
  net::HubServer::Config server_config;
  bool sensor_set = false;
  std::uint32_t sensor_dev = 7;
  std::uint64_t sensor_val = 21;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
    if (arg == "--port" && i + 1 < argc) {
      if (!parse_number("--port", argv[++i], port)) return 2;
      continue;
    }
    if (arg == "--bind" && i + 1 < argc) {
      bind_address = argv[++i];
      continue;
    }
    if (arg == "--port-file" && i + 1 < argc) {
      port_file = argv[++i];
      continue;
    }
    if (arg == "--workers" && i + 1 < argc) {
      if (!parse_number("--workers", argv[++i], workers)) return 2;
      continue;
    }
    if (arg == "--engine" && i + 1 < argc) {
      engine = argv[++i];
      continue;
    }
    if (arg == "--sensor" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const auto eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "bad --sensor '%s' (want dev=value)\n",
                     spec.c_str());
        return 2;
      }
      const std::string_view view = spec;
      if (!parse_number("--sensor device", view.substr(0, eq), sensor_dev) ||
          !parse_number("--sensor value", view.substr(eq + 1), sensor_val)) {
        return 2;
      }
      sensor_set = true;
      continue;
    }
    if (arg == "--inflight" && i + 1 < argc) {
      if (!parse_number("--inflight", argv[++i],
                        server_config.inflight_budget)) {
        return 2;
      }
      continue;
    }
    if (arg == "--batch-max" && i + 1 < argc) {
      if (!parse_number("--batch-max", argv[++i], batch_max,
                        std::size_t{1})) {
        return 2;
      }
      continue;
    }
    if (arg == "--drain-ms" && i + 1 < argc) {
      if (!parse_number("--drain-ms", argv[++i], drain_ms)) return 2;
      continue;
    }
    if (arg == "--key-seed" && i + 1 < argc) {
      key_seed = argv[++i];
      continue;
    }
    if (arg == "--anchor" && i + 1 < argc) {
      anchor = argv[++i];
      continue;
    }
    std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
    usage();
    return 2;
  }

  // Metrics always on: the StatsRequest frame kind serves remote scrapes.
  obs::set_metrics_enabled(true);

  ChannelHub::Config hub_config;
  hub_config.workers = workers;
  hub_config.vm_config.engine = engine;
  hub_config.batch_max = batch_max;
  // An unknown --engine throws here, before anything binds.
  std::optional<ChannelHub> hub_slot;
  try {
    hub_slot.emplace("hubd", PrivateKey::from_seed(key_seed),
                     keccak256(anchor), hub_config);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  ChannelHub& hub = *hub_slot;
  hub.set_sensor_default(sensor_dev, U256{sensor_val});
  if (!sensor_set) hub.set_sensor_default(7, U256{21});

  server_config.bind_address = bind_address;
  server_config.port = port;
  server_config.drain_deadline = std::chrono::milliseconds(drain_ms);
  net::HubServer server(hub, server_config);
  // Handlers go in before bind(): once the port file exists a client may
  // signal at once, and a stop requested before serve() is kept by the
  // event loop until serve() checks it.
  g_server = &server;
  struct sigaction sa{};
  sa.sa_handler = handle_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::uint16_t bound = 0;
  try {
    bound = server.bind();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot bind %s:%u: %s\n", bind_address.c_str(),
                 port, e.what());
    return 1;
  }
  if (!port_file.empty() && !write_port_file(port_file, bound)) {
    std::fprintf(stderr, "cannot write port file '%s'\n", port_file.c_str());
    return 1;
  }
  std::printf("tinyevm-hubd listening on %s:%u (%zu workers)\n",
              bind_address.c_str(), bound, hub.worker_count());
  std::fflush(stdout);

  server.serve();

  const auto s = server.stats();
  const auto h = hub.stats();
  std::printf(
      "drained: conns=%llu frames_in=%llu frames_out=%llu busy=%llu "
      "protocol_errors=%llu opens=%llu payments=%llu closes=%llu "
      "served_inline=%llu\n",
      static_cast<unsigned long long>(s.accepted),
      static_cast<unsigned long long>(s.frames_in),
      static_cast<unsigned long long>(s.frames_out),
      static_cast<unsigned long long>(s.busy_rejections),
      static_cast<unsigned long long>(s.protocol_errors),
      static_cast<unsigned long long>(h.opens),
      static_cast<unsigned long long>(h.payments),
      static_cast<unsigned long long>(h.closes),
      static_cast<unsigned long long>(hub.served_inline()));
  return 0;
}
