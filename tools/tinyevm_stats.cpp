// tinyevm-stats — exercise the full hub/VM/crypto stack and emit the
// process-wide telemetry scrape. The smallest end-to-end demonstration of
// the observability layer: it opens N payment channels against an
// in-process ChannelHub, drives R signed payment rounds through each,
// closes them, and prints every registered metric (Prometheus text or
// JSON). With --trace-out it also writes a Chrome trace-event file of the
// run, loadable in chrome://tracing or Perfetto.
//
// With --connect it instead scrapes a running tinyevm-hubd over its
// StatsRequest frame kind — live-hub monitoring with no sidecar.
//
//   tinyevm-stats                          # 8 sessions x 2 rounds, text
//   tinyevm-stats --sessions 100 --rounds 4 --workers 4
//   tinyevm-stats --format json
//   tinyevm-stats --trace-out run.trace.json
//   tinyevm-stats --connect 127.0.0.1:9545 # scrape a live hubd
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/manager.hpp"
#include "evm/code_cache.hpp"
#include "net/client.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace tinyevm;
using namespace tinyevm::channel;

namespace {

constexpr std::uint32_t kDev = 7;

void usage() {
  std::printf(
      "usage: tinyevm-stats [options]\n"
      "  --sessions <n>      channels to open (default 8)\n"
      "  --rounds <n>        signed payment rounds per channel (default 2)\n"
      "  --workers <n>       hub worker threads (default 2)\n"
      "  --engine <name>     hub execution engine (default: config default)\n"
      "  --format prom|json  scrape format (default prom)\n"
      "  --trace-out <path>  write a Chrome trace of the workload\n"
      "  --connect <host:port>  scrape a live tinyevm-hubd instead of\n"
      "                      running the in-process workload\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t sessions = 8;
  std::size_t rounds = 2;
  std::size_t workers = 2;
  std::string engine;
  std::string format = "prom";
  std::string trace_out;
  std::string connect;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
    if (arg == "--sessions" && i + 1 < argc) {
      sessions = static_cast<std::size_t>(std::atol(argv[++i]));
      continue;
    }
    if (arg == "--rounds" && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::atol(argv[++i]));
      continue;
    }
    if (arg == "--workers" && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::atol(argv[++i]));
      continue;
    }
    if (arg == "--engine" && i + 1 < argc) {
      engine = argv[++i];
      continue;
    }
    if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
      if (format != "prom" && format != "json") {
        std::fprintf(stderr, "unknown format '%s' (want prom|json)\n",
                     format.c_str());
        return 2;
      }
      continue;
    }
    if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
      continue;
    }
    if (arg == "--connect" && i + 1 < argc) {
      connect = argv[++i];
      continue;
    }
    std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
    usage();
    return 2;
  }
  if (sessions == 0) sessions = 1;

  if (!connect.empty()) {
    const auto colon = connect.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "bad --connect '%s' (want host:port)\n",
                   connect.c_str());
      return 2;
    }
    const std::string host = connect.substr(0, colon);
    const int port = std::atoi(connect.substr(colon + 1).c_str());
    net::HubClient client;
    if (port <= 0 || port > 65535 ||
        !client.connect(host, static_cast<std::uint16_t>(port))) {
      std::fprintf(stderr, "cannot connect to %s\n", connect.c_str());
      return 1;
    }
    const auto scrape = client.scrape(
        format == "json" ? net::StatsRequest::Format::Json
                         : net::StatsRequest::Format::Prometheus);
    if (!scrape) {
      std::fprintf(stderr, "scrape of %s failed\n", connect.c_str());
      return 1;
    }
    std::fputs(scrape->c_str(), stdout);
    return 0;
  }

  obs::set_metrics_enabled(true);
  if (!trace_out.empty()) obs::Tracer::instance().enable();

  ChannelHub::Config config;
  config.workers = workers;
  config.vm_config.engine = engine;
  std::optional<ChannelHub> hub_slot;
  try {
    hub_slot.emplace("stats", PrivateKey::from_seed("stats-hub-key"),
                     keccak256("stats-anchor"), config);
  } catch (const std::invalid_argument& e) {  // unknown --engine
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  ChannelHub& hub = *hub_slot;
  hub.set_sensor_default(kDev, U256{21});

  std::vector<ChannelEndpoint> cars;
  cars.reserve(sessions);
  std::vector<HubRequest> opens;
  opens.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    cars.emplace_back("car-" + std::to_string(i),
                      PrivateKey::from_seed("stats-car-" + std::to_string(i)),
                      keccak256("stats-anchor"));
    cars.back().sensors().set_reading(kDev, U256{22});
    const auto open = cars.back().open_request(U256{i + 1}, U256{10}, kDev);
    if (!open) {
      std::fprintf(stderr, "endpoint %zu failed to build its open\n", i);
      return 1;
    }
    opens.push_back(*open);
  }
  for (const auto& response : hub.handle_batch(opens)) {
    if (!response.ok()) {
      std::fprintf(stderr, "open rejected: %s\n",
                   std::string(to_string(response.status)).c_str());
      return 1;
    }
  }

  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<HubRequest> updates;
    updates.reserve(sessions);
    for (auto& car : cars) {
      auto update = car.propose_payment(U256{r + 1});
      if (!update) {
        std::fprintf(stderr, "payment proposal failed in round %zu\n", r);
        return 1;
      }
      updates.push_back(std::move(*update));
    }
    const auto responses = hub.handle_batch(updates);
    for (std::size_t i = 0; i < sessions; ++i) {
      if (!responses[i].ok() || !cars[i].apply(responses[i])) {
        std::fprintf(stderr, "payment %zu rejected in round %zu\n", i, r);
        return 1;
      }
    }
  }

  std::vector<HubRequest> closes;
  closes.reserve(sessions);
  for (auto& car : cars) closes.push_back(car.close_request());
  for (const auto& response : hub.handle_batch(closes)) {
    if (!response.ok()) {
      std::fprintf(stderr, "close rejected: %s\n",
                   std::string(to_string(response.status)).c_str());
      return 1;
    }
  }
  if (!hub.audit_all()) {
    std::fprintf(stderr, "side-chain audit failed\n");
    return 1;
  }

  if (!trace_out.empty() &&
      !obs::Tracer::instance().write_chrome_trace(trace_out)) {
    std::fprintf(stderr, "cannot write trace to '%s'\n", trace_out.c_str());
    return 2;
  }
  // Scrape last, so it reflects the whole workload (and the collectors
  // see the hub still alive).
  std::fputs((format == "json" ? obs::json_scrape()
                               : obs::prometheus_scrape())
                 .c_str(),
             stdout);
  return 0;
}
