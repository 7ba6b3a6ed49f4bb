// Seeded input generation and the small numeric helpers the workloads
// share. Every input is a pure function of (seed, index): a payment's
// signature, a fleet open's rate, a corpus batch's generator seed.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <random>
#include <string>
#include <thread>

#include "common.hpp"
#include "runtime/thread_pool.hpp"

namespace tinyevm::e2e {

namespace {

constexpr std::uint64_t kPayTag = 1;
constexpr std::uint64_t kFleetTag = 2;
constexpr std::uint64_t kArrivalTag = 3;
constexpr std::uint64_t kCorpusTag = 4;
constexpr std::uint64_t kUnitsTag = 5;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t tag, std::uint64_t i = 0) {
  return splitmix(splitmix(splitmix(seed) ^ tag) ^ i);
}

}  // namespace

const char* name_of(Workload w) {
  switch (w) {
    case Workload::PaySteady: return "pay_steady";
    case Workload::PaySaturate: return "pay_saturate";
    case Workload::FleetJoin: return "fleet_join";
    case Workload::CorpusDeploy: return "corpus_deploy";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : kAllWorkloads) {
    if (name == name_of(w)) return w;
  }
  return std::nullopt;
}

Sizes Sizes::full(double seconds) {
  Sizes s;
  s.seconds = seconds;
  s.saturate_payments =
      s.channels * std::max<std::size_t>(
                       1, static_cast<std::size_t>(std::lround(
                              seconds * kSaturateRate /
                              static_cast<double>(s.channels))));
  const double fleet_total = std::max(1.0, seconds * kFleetRate);
  s.fleet_opens = std::min(kFleetRoundMax,
                           static_cast<std::size_t>(fleet_total));
  s.fleet_rounds = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(
             fleet_total / static_cast<double>(s.fleet_opens))));
  s.corpus_batches = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(
             seconds * kCorpusRate / static_cast<double>(s.corpus_batch))));
  return s;
}

Sizes Sizes::smoke() {
  Sizes s;
  s.seconds = 1;
  s.channels = 32;
  s.saturate_payments = 256;
  s.fleet_opens = 2000;
  s.fleet_rounds = 2;
  s.corpus_batch = 32;
  s.corpus_batches = 8;
  s.setups = 2;
  s.warm_up_s = 0.1;
  s.replay_payments = 16;
  s.replay_opens = 64;
  s.replay_contracts = 64;
  s.replay_crypto = 8;
  return s;
}

// ---- FrameBuffer ----

void FrameBuffer::add(const net::Bytes& frame) {
  offsets_.push_back(bytes_.size());
  bytes_.insert(bytes_.end(), frame.begin(), frame.end());
}

std::span<const std::uint8_t> FrameBuffer::frame(std::size_t i) const {
  const std::size_t begin = offsets_[i];
  const std::size_t end =
      i + 1 < offsets_.size() ? offsets_[i + 1] : bytes_.size();
  return {bytes_.data() + begin, end - begin};
}

// ---- inputs ----

const channel::PrivateKey& hub_key() {
  static const auto key = channel::PrivateKey::from_seed("hub-key");
  return key;
}

const Hash256& hub_anchor() {
  static const Hash256 anchor = keccak256("hub-anchor");
  return anchor;
}

PayScript make_pay_script(std::uint64_t seed, std::size_t channels) {
  PayScript script;
  std::mt19937_64 rng(mix(seed, kPayTag));
  script.opens.reserve(channels);
  script.keys.reserve(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    script.keys.push_back(channel::PrivateKey::from_seed(
        "e2e-device-" + std::to_string(seed) + "-" + std::to_string(c)));
    channel::OpenRequest open;
    open.channel_id = U256{0, kPayTag, seed, c + 1};
    open.rate = U256{1 + rng() % 50};
    open.sensor_device = kSensorDevice;
    script.opens.push_back(open);
  }
  return script;
}

void extend_pay_script(PayScript& script, std::uint64_t seed,
                       std::size_t count) {
  const std::size_t channels = script.opens.size();
  const std::size_t first = script.payments.size();
  if (count <= first) return;
  // States are hash-linked per channel, so they are built in index order
  // (payment i - channels is i's predecessor); only signing fans out.
  std::vector<Hash256> digests;
  digests.reserve(count - first);
  for (std::size_t i = first; i < count; ++i) {
    const std::size_t c = i % channels;
    const U256 paid =
        U256{1 + mix(seed, kUnitsTag, i) % 4} * script.opens[c].rate;
    channel::PaymentUpdate update;
    update.channel_id = script.opens[c].channel_id;
    channel::ChannelState& state = update.proposal.state;
    state.channel_id = update.channel_id;
    state.sensor_data = U256{1 + mix(seed, kPayTag, c) % 100};
    if (i < channels) {
      state.sequence = 1;
      state.paid_total = paid;
      state.prev_hash = hub_anchor();
    } else {
      const channel::ChannelState& prev =
          script.payments[i - channels].proposal.state;
      state.sequence = prev.sequence + 1;
      state.paid_total = prev.paid_total + paid;
      state.prev_hash = prev.digest();
    }
    digests.push_back(state.digest());
    script.payments.push_back(std::move(update));
  }
  runtime::ThreadPool pool{nproc()};
  runtime::parallel_for(pool, count - first, 16, [&](std::size_t k) {
    const std::size_t i = first + k;
    script.payments[i].proposal.sender_sig =
        secp256k1::sign(digests[k], script.keys[i % channels]);
  });
}

std::vector<channel::OpenRequest> make_fleet_opens(std::uint64_t seed,
                                                   std::size_t count) {
  std::mt19937_64 rng(mix(seed, kFleetTag));
  std::vector<channel::OpenRequest> opens(count);
  for (std::size_t i = 0; i < count; ++i) {
    opens[i].channel_id = U256{0, kFleetTag, seed, i + 1};
    opens[i].rate = U256{1 + rng() % 50};
    opens[i].sensor_device = kSensorDevice;
  }
  return opens;
}

std::vector<std::int64_t> make_arrivals(std::uint64_t seed, double rate,
                                        double seconds) {
  // A Poisson process conditioned on its count: exactly rate * seconds
  // arrivals, each uniform over the window, so the offered load is the
  // same on every seed and only the clumping varies.
  std::mt19937_64 rng(mix(seed, kArrivalTag));
  std::vector<std::int64_t> due(static_cast<std::size_t>(rate * seconds));
  for (auto& t : due) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    t = static_cast<std::int64_t>(u * seconds * 1e9);
  }
  std::sort(due.begin(), due.end());
  return due;
}

corpus::Generator corpus_batch(std::uint64_t seed, std::size_t batch,
                               std::size_t count) {
  corpus::GeneratorConfig config;
  config.seed = mix(seed, kCorpusTag, batch);
  config.count = count;
  return corpus::Generator{config};
}

HubInputs make_hub_inputs(Workload w, std::uint64_t seed, const Sizes& s) {
  HubInputs in;
  if (w == Workload::FleetJoin) {
    in.fleet = make_fleet_opens(seed, s.fleet_opens);
    in.frames = encode_all(in.fleet, in.fleet.size());
    in.key_period = in.fleet.size();
    return in;
  }
  in.script = make_pay_script(seed, s.channels);
  in.setup = encode_all(in.script.opens, in.script.opens.size());
  in.key_period = s.channels;
  std::size_t count = s.saturate_payments;
  if (w == Workload::PaySteady) {
    in.due = make_arrivals(seed, kSteadyRate, s.seconds);
    count = in.due.size();
  }
  extend_pay_script(in.script, seed, count);
  in.frames = encode_all(in.script.payments, count);
  return in;
}

Hash256 input_digest(Workload w, std::uint64_t seed, const Sizes& sizes) {
  net::Bytes all;
  const auto append = [&all](std::span<const std::uint8_t> bytes) {
    all.insert(all.end(), bytes.begin(), bytes.end());
  };
  if (is_hub(w)) {
    const HubInputs in = make_hub_inputs(w, seed, sizes);
    append(in.setup.bytes());
    append(in.frames.bytes());
    for (const std::int64_t t : in.due) {
      append(U256{static_cast<std::uint64_t>(t)}.to_word());
    }
  } else {
    // Generating all of the window's contracts takes seconds; every batch
    // is seeded the same way, so the first two stand for the rest.
    for (std::size_t b = 0; b < 2; ++b) {
      const corpus::Generator gen = corpus_batch(seed, b, sizes.corpus_batch);
      for (std::size_t i = 0; i < sizes.corpus_batch; ++i) {
        append(gen.make(i).init_code_hash);
      }
    }
  }
  return keccak256(all);
}

// ---- helpers ----

void warm_up_cores(double seconds) {
  const auto until = Clock::now() + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < nproc(); ++t) {
    threads.emplace_back([until] {
      std::uint64_t x = 1;
      while (Clock::now() < until) {
        for (int i = 0; i < 4096; ++i) x = splitmix(x);
      }
      volatile std::uint64_t sink = x;
      (void)sink;
    });
  }
  for (std::thread& t : threads) t.join();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double sliced_p99(const std::vector<double>& values) {
  const std::size_t slices = std::min(kP99Slices, values.size());
  std::vector<double> p99s;
  const auto slice_start = [&](std::size_t k) {
    return values.begin() +
           static_cast<std::ptrdiff_t>(k * values.size() / slices);
  };
  for (std::size_t k = 0; k < slices; ++k) {
    p99s.push_back(quantile({slice_start(k), slice_start(k + 1)}, 0.99));
  }
  return median(std::move(p99s));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double percent_change(double base, double now) {
  return base > 0 ? 100 * (now / base - 1) : 0.0;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t hub_workers() { return std::max<std::size_t>(1, nproc() - 1); }

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double scrape_sum(std::string_view text, std::string_view name) {
  double sum = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.size() <= name.size() || !line.starts_with(name)) continue;
    const char next = line[name.size()];
    if (next != '{' && next != ' ') continue;
    const std::size_t space = line.rfind(' ');
    sum += std::strtod(std::string(line.substr(space + 1)).c_str(), nullptr);
  }
  return sum;
}

}  // namespace tinyevm::e2e
