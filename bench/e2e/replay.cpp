// The layer replay: one thread, one call at a time, each public call of
// each layer timed on a sample of the seed's own inputs. Live windows
// overlap layers across threads and processes; the replay isolates them,
// so a change to one layer moves exactly its own row here.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "channel/template_bytecode.hpp"
#include "common.hpp"
#include "evm/code_cache.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace tinyevm::e2e {

namespace {

/// Runs `fn` under a bench span and returns its wall time in µs. The span
/// brackets the clock reads, so its own cost is not in the number.
template <typename Fn>
double timed_us(const char* span_name, std::uint64_t arg, Fn&& fn) {
  obs::Span span(span_name, "bench");
  span.set_arg(arg);
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

net::Frame parse_frame(const net::Bytes& bytes) {
  net::FrameReader reader;
  reader.feed(bytes);
  auto frame = reader.next();
  if (!frame) throw std::runtime_error("replay: frame did not parse");
  return std::move(*frame);
}

/// Per-call µs of the four wire codecs.
struct CodecTimes {
  std::vector<double> encode_request;
  std::vector<double> decode_request;
  std::vector<double> encode_response;
  std::vector<double> decode_response;
};

/// Codec round trip of one request through ChannelHub::handle, timing each
/// call. Returns the response.
channel::HubResponse round_trip(channel::ChannelHub& hub,
                                const channel::HubRequest& request,
                                std::uint32_t seq, CodecTimes& codec,
                                std::vector<double>* handle_us) {
  net::Bytes wire;
  codec.encode_request.push_back(
      timed_us("bench.net.encode_request", seq,
               [&] { wire = net::encode_request(request, seq); }));
  std::optional<channel::HubRequest> decoded;
  codec.decode_request.push_back(
      timed_us("bench.net.decode_request", seq,
               [&] { decoded = net::decode_request(parse_frame(wire)); }));
  if (!decoded) throw std::runtime_error("replay: request did not decode");
  channel::HubResponse response;
  const double us = timed_us("bench.channel.handle", seq,
                             [&] { response = hub.handle(*decoded); });
  if (handle_us != nullptr) handle_us->push_back(us);
  if (!response.ok()) {
    throw std::runtime_error("replay: hub refused a request");
  }
  codec.encode_response.push_back(
      timed_us("bench.net.encode_response", seq,
               [&] { wire = net::encode_response(response, seq); }));
  std::optional<channel::HubResponse> back;
  codec.decode_response.push_back(
      timed_us("bench.net.decode_response", seq,
               [&] { back = net::decode_response(parse_frame(wire)); }));
  if (!back) throw std::runtime_error("replay: response did not decode");
  return response;
}

}  // namespace

std::vector<Metric> layer_replay(std::uint64_t seed, const Sizes& s,
                                 PayScript& script) {
  if (script.opens.empty()) script = make_pay_script(seed, s.channels);
  extend_pay_script(script, seed, s.replay_payments);
  const auto opens = make_fleet_opens(seed, s.replay_opens);
  std::vector<corpus::Contract> contracts;
  for (std::size_t b = 0; contracts.size() < s.replay_contracts; ++b) {
    const corpus::Generator gen = corpus_batch(seed, b, s.corpus_batch);
    for (std::size_t i = 0;
         i < s.corpus_batch && contracts.size() < s.replay_contracts; ++i) {
      contracts.push_back(gen.make(i));
    }
  }

  // A hub configured like tinyevm_hubd: same key, anchor, sensor default,
  // worker count, and a cache of its own.
  channel::ChannelHub::Config config;
  config.workers = hub_workers();
  config.code_cache = std::make_shared<evm::CodeCache>();
  channel::ChannelHub hub("e2e-replay", hub_key(), hub_anchor(), config);
  hub.set_sensor_default(kSensorDevice, U256{21});
  for (const auto& open : script.opens) {
    if (!hub.handle(open).ok()) throw std::runtime_error("replay: open failed");
  }

  CodecTimes codec;
  std::vector<double> handle_us;
  std::vector<channel::SignedState> countersigned;
  obs::set_metrics_enabled(true);
  const std::string before = obs::prometheus_scrape();
  for (std::size_t i = 0; i < s.replay_payments; ++i) {
    auto response =
        round_trip(hub, channel::HubRequest{script.payments[i]},
                   static_cast<std::uint32_t>(i), codec, &handle_us);
    countersigned.push_back(std::move(*response.state));
  }
  const std::string after = obs::prometheus_scrape();
  obs::set_metrics_enabled(false);
  for (std::size_t i = 0; i < opens.size(); ++i) {
    round_trip(hub, channel::HubRequest{opens[i]},
               static_cast<std::uint32_t>(i), codec, nullptr);
  }

  std::vector<double> digest_us;
  std::vector<double> keccak_us;
  std::vector<double> append_us;
  for (std::size_t i = 0; i < countersigned.size(); ++i) {
    const channel::SignedState& signed_state = countersigned[i];
    digest_us.push_back(timed_us("bench.channel.digest", i, [&] {
      (void)signed_state.state.digest();
    }));
    const rlp::Bytes encoded = signed_state.state.encode();
    keccak_us.push_back(
        timed_us("bench.crypto.keccak", i, [&] { (void)keccak256(encoded); }));
    channel::SideChainLog log(signed_state.state.prev_hash);
    bool appended = false;
    append_us.push_back(timed_us("bench.channel.log_append", i, [&] {
      appended = log.append(signed_state);
    }));
    if (!appended) throw std::runtime_error("replay: log append refused");
  }

  std::vector<double> sign_us;
  std::vector<double> recover_us;
  for (std::size_t i = 0; i < std::min(s.replay_crypto, countersigned.size());
       ++i) {
    const Hash256 digest = countersigned[i].state.digest();
    sign_us.push_back(timed_us("bench.crypto.sign", i, [&] {
      (void)secp256k1::sign(digest, hub_key());
    }));
    std::optional<channel::Address> signer;
    recover_us.push_back(timed_us("bench.crypto.recover", i, [&] {
      signer = secp256k1::recover_address(digest, countersigned[i].sender_sig);
    }));
    if (!signer) throw std::runtime_error("replay: recover failed");
  }

  // The template constructor exactly as ChannelSession::open runs it.
  std::vector<double> execute_us;
  const evm::VmConfig vm_config = evm::VmConfig::tiny();
  const evm::Vm vm(vm_config, std::make_shared<evm::CodeCache>());
  const evm::Bytes init_code =
      channel::payment_channel_init_code(kSensorDevice);
  for (std::size_t i = 0; i < opens.size(); ++i) {
    channel::SensorBank sensors;
    sensors.set_reading(kSensorDevice, U256{21});
    channel::DeviceHost host(sensors, vm_config);
    evm::Message msg;
    msg.self[0] = 0xCC;
    msg.code = init_code;
    const auto rate = opens[i].rate.to_word();
    msg.data.assign(rate.begin(), rate.end());
    msg.gas = 10'000'000;
    evm::ExecResult result;
    execute_us.push_back(timed_us("bench.evm.execute", i,
                                  [&] { result = vm.execute(host, msg); }));
    if (!result.ok()) throw std::runtime_error("replay: constructor failed");
  }

  std::vector<double> deploy_us;
  std::size_t deployed = 0;
  corpus::DeviceDeployer deployer(vm_config,
                                  std::make_shared<evm::CodeCache>());
  for (std::size_t i = 0; i < contracts.size(); ++i) {
    deploy_us.push_back(timed_us("bench.corpus.deploy", i, [&] {
      deployed += deployer.deploy(contracts[i]).success;
    }));
  }

  // Self time of handle: what is left after the program's own ECDSA
  // instruments account for the signs and recoveries inside it (a payment
  // runs no EVM).
  const double crypto_us =
      (scrape_sum(after, "tinyevm_crypto_sign_us_sum") -
       scrape_sum(before, "tinyevm_crypto_sign_us_sum") +
       scrape_sum(after, "tinyevm_crypto_recover_us_sum") -
       scrape_sum(before, "tinyevm_crypto_recover_us_sum")) /
      static_cast<double>(handle_us.size());
  const std::size_t requests = codec.encode_request.size();
  const std::size_t pays = handle_us.size();
  return {
      {"net.encode_request_us", mean(codec.encode_request), "us", requests},
      {"net.decode_request_us", mean(codec.decode_request), "us", requests},
      {"net.encode_response_us", mean(codec.encode_response), "us", requests},
      {"net.decode_response_us", mean(codec.decode_response), "us", requests},
      {"channel.handle_us_p50", median(handle_us), "us", pays},
      {"channel.digest_us", mean(digest_us), "us", pays},
      {"channel.log_append_us", mean(append_us), "us", pays},
      {"channel.self_us", mean(handle_us) - crypto_us, "us", pays},
      {"crypto.sign_us", mean(sign_us), "us", sign_us.size()},
      {"crypto.recover_us", mean(recover_us), "us", recover_us.size()},
      {"crypto.keccak_us", mean(keccak_us), "us", keccak_us.size()},
      {"evm.execute_us_p50", median(execute_us), "us", execute_us.size()},
      {"corpus.deploy_us_p50", quantile(deploy_us, 0.50), "us",
       deploy_us.size()},
      {"corpus.deploy_us_p99", quantile(deploy_us, 0.99), "us",
       deploy_us.size()},
      {"corpus.success_ratio",
       static_cast<double>(deployed) / static_cast<double>(contracts.size()),
       "ratio", contracts.size()},
  };
}

}  // namespace tinyevm::e2e
