// Shared types of tinyevm_benchmark, the end-to-end benchmark driver.
//
// The driver measures the two things the paper's users wait on: a hub
// operator's tinyevm_hubd serving off-chain payment channels over TCP, and
// the contract-deployment experiment (Fig. 3) run through
// corpus::deploy_corpus_parallel. Every input is generated from --seed
// before a timed window starts; every output is checked after it ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "channel/hub.hpp"
#include "corpus/corpus.hpp"
#include "net/frame.hpp"

namespace tinyevm::e2e {

using Clock = std::chrono::steady_clock;

enum class Workload : std::uint8_t {
  PaySteady,     ///< open loop, Poisson arrivals at a fixed rate
  PaySaturate,   ///< closed loop, every connection's window full
  FleetJoin,     ///< closed loop of OpenRequests: no ECDSA on the hub
  CorpusDeploy,  ///< in-process deploy_corpus_parallel, cache-miss path
};

inline constexpr Workload kAllWorkloads[] = {
    Workload::CorpusDeploy, Workload::PaySteady, Workload::PaySaturate,
    Workload::FleetJoin};

[[nodiscard]] const char* name_of(Workload w);
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] inline bool is_hub(Workload w) {
  return w != Workload::CorpusDeploy;
}

/// Every workload but the open loop does a fixed amount of work that scales
/// with --seconds (at 20 s: the 1024 x 6 payment script, five rounds of a
/// 64,000-device fleet, and 250,000 contracts, each ~20-25 s on a 4-core
/// machine today). Fixed work, not a fixed time, keeps peak_rss_mb
/// comparable between a slow and a fast program.
inline constexpr double kSaturateRate = 300;   ///< payments/s
inline constexpr double kFleetRate = 16'000;   ///< opens/s
inline constexpr double kCorpusRate = 12'500;  ///< contracts/s
/// The largest fleet one hubd serves; longer runs repeat rounds of it, so
/// hubd's memory does not grow with --seconds.
inline constexpr std::size_t kFleetRoundMax = 64'000;

inline constexpr double kSteadyRate = 100;     ///< pay_steady payments/s
/// Closed-loop requests in flight per connection; hubd's budget is 64.
inline constexpr std::size_t kWindowPerConn = 32;
/// Every this-many-th corpus contract is cross-checked on the raw engine.
inline constexpr std::size_t kCorpusCheckEvery = 64;

/// Everything that scales a run. full() is the benchmark; smoke() the
/// seconds-long self-check.
struct Sizes {
  double seconds = 20;               ///< pay_steady window
  std::size_t channels = 1024;       ///< width of the shared payment script
  std::size_t saturate_payments = 6144;  ///< whole rounds of the script
  std::size_t fleet_opens = 64'000;      ///< devices in the fleet
  std::size_t fleet_rounds = 5;          ///< fleet joins, each to a fresh hubd
  std::size_t corpus_batch = 128;      ///< contracts per deploy call
  std::size_t corpus_batches = 1954;   ///< 250,112 contracts
  std::size_t setups = 15;             ///< setups per run; setup_s = median
  double warm_up_s = 1.5;              ///< warm_up_cores() before the setups
  std::size_t replay_payments = 512;
  std::size_t replay_opens = 4096;
  std::size_t replay_contracts = 2048;
  std::size_t replay_crypto = 128;

  static Sizes full(double seconds);
  static Sizes smoke();
};

/// One reported number. `samples` is how many measurements it summarizes.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

/// What one workload run yields.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;  ///< tracing off
  std::vector<Metric> per_layer;   ///< --trace 1 only
  /// Printed and written to the result file, not to the last line: rates
  /// that are 0 on a healthy run, and the hub-only layer timings the corpus
  /// workload has no counterpart for.
  std::vector<Metric> report_only;
  std::vector<std::string> errors;

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

struct RunOptions {
  Workload workload = Workload::PaySteady;
  std::uint64_t seed = 1;
  bool trace = false;
  Sizes sizes;
  std::string hubd_path;
  std::string run_dir;     ///< scratch files (port files, traces)
};

// ---- inputs (inputs.cpp) ----------------------------------------------------

/// Concatenated pre-encoded frames; frame i carries seq i.
class FrameBuffer {
 public:
  void add(const net::Bytes& frame);
  [[nodiscard]] std::size_t size() const { return offsets_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> frame(std::size_t i) const;
  [[nodiscard]] const net::Bytes& bytes() const { return bytes_; }

 private:
  net::Bytes bytes_;
  std::vector<std::size_t> offsets_;
};

/// The hub identity and anchor tinyevm_hubd runs with by default.
[[nodiscard]] const channel::PrivateKey& hub_key();
[[nodiscard]] const Hash256& hub_anchor();
/// The sensor every open samples; hubd's default reading covers it.
inline constexpr std::uint32_t kSensorDevice = 7;

/// The shared payment script: `channels` channels, payment k of channel c
/// at index (k-1)*channels + c (round-major), each a device-signed state
/// hash-linked to the channel's previous one.
struct PayScript {
  std::vector<channel::OpenRequest> opens;
  std::vector<channel::PaymentUpdate> payments;
  std::vector<channel::PrivateKey> keys;     ///< per-channel device key
};

/// Builds the channels of the script (keys, rates, opens); no payments.
[[nodiscard]] PayScript make_pay_script(std::uint64_t seed,
                                        std::size_t channels);
/// Extends the script to `count` payments, signing on every core.
void extend_pay_script(PayScript& script, std::uint64_t seed,
                       std::size_t count);

/// fleet_join's OpenRequests: distinct channel ids, seeded rates.
[[nodiscard]] std::vector<channel::OpenRequest> make_fleet_opens(
    std::uint64_t seed, std::size_t count);

/// rate * seconds Poisson arrival offsets in ns, sorted, over [0, seconds).
[[nodiscard]] std::vector<std::int64_t> make_arrivals(std::uint64_t seed,
                                                      double rate,
                                                      double seconds);

/// The generator of corpus batch `batch`.
[[nodiscard]] corpus::Generator corpus_batch(std::uint64_t seed,
                                             std::size_t batch,
                                             std::size_t count);

/// Frames for requests [0, n): frame i has seq i.
template <typename Request>
FrameBuffer encode_all(const std::vector<Request>& requests, std::size_t n) {
  FrameBuffer frames;
  for (std::size_t i = 0; i < n; ++i) {
    frames.add(net::encode_request(channel::HubRequest{requests[i]},
                                   static_cast<std::uint32_t>(i)));
  }
  return frames;
}

/// Everything a hub workload sends, built before any timing.
struct HubInputs {
  PayScript script;                         ///< pay_* workloads
  std::vector<channel::OpenRequest> fleet;  ///< fleet_join
  FrameBuffer setup;    ///< channel opens sent during set-up
  FrameBuffer frames;   ///< the window's requests; frame i has seq i
  std::vector<std::int64_t> due;  ///< pay_steady's send schedule, ns
  std::size_t key_period = 1;     ///< ops i and i + key_period share a channel
};
[[nodiscard]] HubInputs make_hub_inputs(Workload w, std::uint64_t seed,
                                        const Sizes& sizes);

/// keccak256 over a workload's generated inputs, for --print-input-digest.
[[nodiscard]] Hash256 input_digest(Workload w, std::uint64_t seed,
                                   const Sizes& sizes);

// ---- workloads --------------------------------------------------------------

RunResult run_hub_workload(const RunOptions& options);
RunResult run_corpus_workload(const RunOptions& options);

/// Single-threaded in-process timing of each layer's public calls on a
/// sample of the seed's inputs (identical for every workload of a seed).
/// Reuses `script`'s signed payments, extending or building it as needed.
/// Throws std::runtime_error when a replayed call fails.
std::vector<Metric> layer_replay(std::uint64_t seed, const Sizes& sizes,
                                 PayScript& script);

/// Per-op ECDSA and EVM counts between two Prometheus scrapes of the
/// program under test (hubd over the wire, or this process).
void add_scrape_layers(std::string_view before, std::string_view after,
                       double ops, std::vector<Metric>& out);

// ---- small shared helpers (inputs.cpp) --------------------------------------

/// Keeps every core busy for `seconds`. On a shared 4-vCPU KVM guest, a
/// process that wakes all cores after three or more idle seconds got about
/// one core's worth of CPU for the first ~1.2 s; a window must not start in
/// that state.
void warm_up_cores(double seconds);

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// latency_p99_ms of one window: `values` in op order are cut into
/// kP99Slices equal slices, and this is the median of the slices' p99s. A
/// pooled p99 is set by whichever stretch of the window the host stalled
/// longest; this is the p99 of a typical stretch.
inline constexpr std::size_t kP99Slices = 16;
[[nodiscard]] double sliced_p99(const std::vector<double>& values);
[[nodiscard]] double mean(const std::vector<double>& values);
[[nodiscard]] double median(std::vector<double> values);
/// 100 * (now / base - 1); 0 when base is 0.
[[nodiscard]] double percent_change(double base, double now);
[[nodiscard]] std::size_t nproc();
/// tinyevm_hubd's --workers: nproc - 1, leaving a core to hubd's I/O thread
/// and the load thread. With a worker on every core, fleet_join and
/// pay_saturate spread ~1.5x wider from run to run.
[[nodiscard]] std::size_t hub_workers();
/// CPU time of the calling thread, seconds.
[[nodiscard]] double thread_cpu_s();
/// Sum of every sample of `name` in a Prometheus text scrape.
[[nodiscard]] double scrape_sum(std::string_view text, std::string_view name);

}  // namespace tinyevm::e2e
