// The networked hub front-end (src/net). Four suites:
//
//   * NetFrame — the wire codec in isolation: round trips for every frame
//     kind, checksum/version/length rejection, byte-at-a-time reassembly,
//     and the sticky-error contract after stream corruption.
//   * NetHubLoopback — HubServer + HubClient over a real localhost socket:
//     open/pay/close round trips, pipelined correlation, malformed and
//     oversized frames closing the connection, deterministic backpressure
//     Busy behavior, a late payment not held behind another channel's
//     burst, the remote stats scrape, and graceful-drain delivery. Runs
//     under TSan in CI (the I/O thread, the hub's workers and the test
//     thread).
//   * NetHubShutdown — ChannelHub destruction racing a live handle_batch:
//     the lifecycle gate must drain the batch before teardown (TSan).
//   * NetHubDifferential — the acceptance bar: 1,000 sessions driven over
//     real sockets by the LoadGenerator produce hub-side SignedState logs
//     bit-identical (states and both signatures) to the same exchange run
//     in-process through handle_batch, at 1 and 2 workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "channel/hub.hpp"
#include "channel/manager.hpp"
#include "evm/code_cache.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"

namespace tinyevm::net {
namespace {

using channel::ChannelEndpoint;
using channel::ChannelHub;
using channel::CloseRequest;
using channel::HubRequest;
using channel::HubResponse;
using channel::HubResponseKind;
using channel::HubStatus;
using channel::OpenRequest;
using channel::PaymentUpdate;
using channel::PrivateKey;
using channel::SideChainLog;
using channel::SignedState;

constexpr std::uint32_t kDev = 7;
const U256 kRate{10};

PrivateKey hub_key() { return PrivateKey::from_seed("hub-key"); }
Hash256 anchor() { return keccak256("hub-anchor"); }

std::unique_ptr<ChannelHub> make_hub(std::size_t workers) {
  ChannelHub::Config config;
  config.workers = workers;
  config.code_cache = std::make_shared<evm::CodeCache>();
  auto hub =
      std::make_unique<ChannelHub>("net-hub", hub_key(), anchor(), config);
  hub->set_sensor_default(kDev, U256{21});
  return hub;
}

ChannelEndpoint make_car(std::size_t i = 0) {
  ChannelEndpoint car("car-" + std::to_string(i),
                      PrivateKey::from_seed("car-key-" + std::to_string(i)),
                      anchor());
  car.sensors().set_reading(kDev, U256{22});
  return car;
}

void expect_logs_equal(const SideChainLog& socket_log,
                       const SideChainLog& reference) {
  ASSERT_EQ(socket_log.size(), reference.size());
  EXPECT_EQ(socket_log.head(), reference.head());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_TRUE(socket_log.entries()[i] == reference.entries()[i]) << i;
  }
}

/// A half-signed payment proposal for tests that need a real wire payload.
PaymentUpdate make_update(ChannelEndpoint& car, const U256& units) {
  auto update = car.propose_payment(units);
  EXPECT_TRUE(update.has_value());
  return *update;
}

/// `count` chained payments on `car`'s channel `id`, each countersigned
/// offline by a serial stand-in holding the hub's key, so all of them can
/// be pipelined without waiting on the hub. Every one is valid in turn.
std::vector<PaymentUpdate> chained_payments(ChannelEndpoint& car,
                                            const U256& id,
                                            std::size_t count) {
  ChannelEndpoint lot("lot", hub_key(), anchor());
  lot.sensors().set_reading(kDev, U256{21});
  EXPECT_TRUE(lot.open_channel(id, kRate, kDev).has_value());
  std::vector<PaymentUpdate> updates;
  for (std::size_t i = 0; i < count; ++i) {
    auto update = make_update(car, U256{1});
    const auto counter = lot.countersign(update.proposal.state);
    EXPECT_TRUE(counter.has_value()) << i;
    SignedState full = update.proposal;
    full.receiver_sig = *counter;
    EXPECT_TRUE(lot.accept(full)) << i;
    EXPECT_TRUE(car.accept(full)) << i;
    updates.push_back(std::move(update));
  }
  return updates;
}

// ---------------------------------------------------------------------------
// NetFrame: the codec in isolation
// ---------------------------------------------------------------------------

TEST(NetFrame, Crc32KnownValue) {
  // The CRC-32/IEEE check value: crc of the ASCII digits "123456789".
  const std::string digits = "123456789";
  const auto crc = crc32({reinterpret_cast<const std::uint8_t*>(digits.data()),
                          digits.size()});
  EXPECT_EQ(crc, 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(NetFrame, RoundTripsEveryRequestKind) {
  auto car = make_car();
  const auto open = car.open_request(U256{9}, kRate, kDev);
  ASSERT_TRUE(open.has_value());
  const std::vector<HubRequest> requests = {
      HubRequest{*open},
      HubRequest{PaymentUpdate{U256{9}, SignedState{}}},
      HubRequest{CloseRequest{U256{9}}},
  };
  std::uint32_t seq = 7;
  for (const auto& request : requests) {
    FrameReader reader;
    reader.feed(encode_request(request, seq));
    const auto frame = reader.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->seq, seq);
    const auto back = decode_request(*frame);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(*back == request);
    EXPECT_EQ(reader.buffered(), 0u);
    ++seq;
  }
}

TEST(NetFrame, RoundTripsResponses) {
  auto hub = make_hub(1);
  auto car = make_car();
  const auto open = car.open_request(U256{1}, kRate, kDev);
  ASSERT_TRUE(open.has_value());
  const auto opened = hub->handle(*open);
  ASSERT_TRUE(opened.ok());
  const auto paid = hub->handle(make_update(car, U256{3}));
  ASSERT_TRUE(paid.ok());

  for (const auto& response : {opened, paid}) {
    FrameReader reader;
    reader.feed(encode_response(response, 42));
    const auto frame = reader.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->kind, FrameKind::Response);
    const auto back = decode_response(*frame);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->status, response.status);
    EXPECT_EQ(back->kind, response.kind);
    EXPECT_EQ(back->channel_id, response.channel_id);
    EXPECT_EQ(back->contract, response.contract);
    EXPECT_TRUE(back->state == response.state);
    EXPECT_EQ(back->queue_us, response.queue_us);
    EXPECT_EQ(back->service_us, response.service_us);
  }
}

TEST(NetFrame, RoundTripsStatsMessages) {
  FrameReader reader;
  reader.feed(encode_stats_request(StatsRequest{StatsRequest::Format::Json},
                                   3));
  auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  const auto request = decode_stats_request(*frame);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->format, StatsRequest::Format::Json);

  const std::string text = "# TYPE tinyevm_hub_requests_total counter\n";
  reader.feed(encode_stats_response(text, 3));
  frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, FrameKind::StatsResponse);
  const auto back = decode_stats_response(*frame);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, text);
}

TEST(NetFrame, ReassemblesByteAtATime) {
  auto car = make_car();
  ASSERT_TRUE(car.open_request(U256{1}, kRate, kDev).has_value());
  const auto update = make_update(car, U256{2});
  const auto bytes = encode_request(HubRequest{update}, 11);
  FrameReader reader;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_FALSE(reader.next().has_value());
    reader.feed({&bytes[i], 1});
  }
  const auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  const auto back = decode_request(*frame);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(*back == HubRequest{update});
}

TEST(NetFrame, DrainsMultipleFramesFromOneFeed) {
  Bytes stream;
  for (std::uint32_t seq = 1; seq <= 3; ++seq) {
    const auto bytes =
        encode_request(HubRequest{CloseRequest{U256{seq}}}, seq);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  FrameReader reader;
  reader.feed(stream);
  for (std::uint32_t seq = 1; seq <= 3; ++seq) {
    const auto frame = reader.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->seq, seq);
  }
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), FrameError::None);
}

TEST(NetFrame, RejectsFlippedChecksumAndStaysDead) {
  auto bytes = encode_request(HubRequest{CloseRequest{U256{1}}}, 1);
  bytes.back() ^= 0x01;
  FrameReader reader;
  reader.feed(bytes);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), FrameError::BadChecksum);
  // Sticky: a healthy frame after the corruption is never surfaced.
  reader.feed(encode_request(HubRequest{CloseRequest{U256{2}}}, 2));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), FrameError::BadChecksum);
}

TEST(NetFrame, RejectsWrongVersion) {
  auto bytes = encode_request(HubRequest{CloseRequest{U256{1}}}, 1);
  bytes[4] = kProtocolVersion + 1;  // version byte sits after the length
  // Re-seal the checksum (it covers version..body) so the version check —
  // not the CRC — is what convicts the frame.
  const auto crc = crc32({bytes.data() + 4, bytes.size() - 8});
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (24 - 8 * i));
  }
  FrameReader reader;
  reader.feed(bytes);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), FrameError::BadVersion);
}

TEST(NetFrame, RejectsShortDeclaredLength) {
  // length = 9 < the 10-byte fixed minimum (version..crc).
  const Bytes bytes = {0x00, 0x00, 0x00, 0x09};
  FrameReader reader;
  reader.feed(bytes);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), FrameError::BadLength);
}

TEST(NetFrame, RejectsOversizedDeclaredLength) {
  FrameReader reader(/*max_frame_bytes=*/64);
  const Bytes bytes = {0x00, 0x00, 0x01, 0x00};  // 256 > 64 cap
  reader.feed(bytes);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), FrameError::Oversized);
  // The same declared length is fine under the default cap.
  FrameReader wide;
  wide.feed(bytes);
  EXPECT_FALSE(wide.next().has_value());
  EXPECT_EQ(wide.error(), FrameError::None);
}

TEST(NetFrame, DecodeRejectsShapeMismatch) {
  // A Close body decoded as a Payment (and vice versa) must come back
  // empty, not crash or mis-decode.
  const auto close_bytes = encode_request(HubRequest{CloseRequest{U256{1}}}, 1);
  FrameReader reader;
  reader.feed(close_bytes);
  auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  frame->kind = FrameKind::Payment;
  EXPECT_FALSE(decode_request(*frame).has_value());
  frame->kind = FrameKind::Response;
  EXPECT_FALSE(decode_response(*frame).has_value());
  frame->kind = FrameKind::Close;
  EXPECT_TRUE(decode_request(*frame).has_value());
}

// ---------------------------------------------------------------------------
// NetHubLoopback: server + client over localhost
// ---------------------------------------------------------------------------

class NetHubLoopback : public ::testing::Test {
 protected:
  void start(HubServer::Config config = {}, std::size_t workers = 2) {
    obs::set_metrics_enabled(true);
    config.name = "net-test";
    hub_ = make_hub(workers);
    server_ = std::make_unique<HubServer>(*hub_, config);
    port_ = server_->bind();
    serve_thread_ = std::thread([this] { server_->serve(); });
  }

  void stop() {
    if (serve_thread_.joinable()) {
      server_->request_stop();
      serve_thread_.join();
    }
  }

  void TearDown() override {
    stop();
    server_.reset();
    hub_.reset();
  }

  HubClient connect() {
    HubClient client;
    EXPECT_TRUE(client.connect("127.0.0.1", port_));
    return client;
  }

  std::unique_ptr<ChannelHub> hub_;
  std::unique_ptr<HubServer> server_;
  std::uint16_t port_ = 0;
  std::thread serve_thread_;
};

TEST_F(NetHubLoopback, OpenPayCloseRoundTrip) {
  start();
  auto client = connect();
  auto car = make_car();

  const auto open = car.open_request(U256{1}, kRate, kDev);
  ASSERT_TRUE(open.has_value());
  const auto opened = client.call(HubRequest{*open});
  ASSERT_TRUE(opened.has_value());
  ASSERT_EQ(opened->status, HubStatus::Ok) << to_string(opened->status);
  ASSERT_TRUE(opened->contract.has_value());
  EXPECT_TRUE(car.apply(*opened));

  const auto paid = client.call(HubRequest{make_update(car, U256{3})});
  ASSERT_TRUE(paid.has_value());
  ASSERT_EQ(paid->status, HubStatus::Ok);
  ASSERT_TRUE(paid->state.has_value());
  EXPECT_EQ(paid->state->state.paid_total, U256{30});
  EXPECT_TRUE(car.apply(*paid));

  const auto closed = client.call(HubRequest{car.close_request()});
  ASSERT_TRUE(closed.has_value());
  EXPECT_EQ(closed->status, HubStatus::Ok);
  EXPECT_EQ(closed->kind, HubResponseKind::Close);

  // What crossed the wire is what the hub recorded.
  const auto log = hub_->session_log(U256{1});
  ASSERT_TRUE(log.has_value());
  EXPECT_EQ(log->size(), 1u);
  EXPECT_TRUE(log->entries()[0] == paid->state);

  const auto stats = server_->stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_GE(stats.frames_in, 3u);
  EXPECT_GE(stats.frames_out, 3u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.busy_rejections, 0u);
}

TEST_F(NetHubLoopback, PipelinedRequestsEchoTheirSeqs) {
  start();
  auto client = connect();
  auto car_a = make_car(0);
  auto car_b = make_car(1);
  const auto open_a = car_a.open_request(U256{1}, kRate, kDev);
  const auto open_b = car_b.open_request(U256{2}, kRate, kDev);
  ASSERT_TRUE(open_a.has_value());
  ASSERT_TRUE(open_b.has_value());

  // Two opens on the wire before any response is read.
  ASSERT_TRUE(client.send_raw(encode_request(HubRequest{*open_a}, 101)));
  ASSERT_TRUE(client.send_raw(encode_request(HubRequest{*open_b}, 102)));

  std::size_t matched = 0;
  for (int i = 0; i < 2; ++i) {
    const auto reply = client.recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->second.status, HubStatus::Ok);
    if (reply->first == 101) {
      EXPECT_EQ(reply->second.channel_id, U256{1});
      ++matched;
    } else if (reply->first == 102) {
      EXPECT_EQ(reply->second.channel_id, U256{2});
      ++matched;
    }
  }
  EXPECT_EQ(matched, 2u);
}

TEST_F(NetHubLoopback, ServerReassemblesDribbledFrames) {
  start();
  auto client = connect();
  auto car = make_car();
  const auto open = car.open_request(U256{1}, kRate, kDev);
  ASSERT_TRUE(open.has_value());
  const auto bytes = encode_request(HubRequest{*open}, 5);
  // Trickle the frame a few bytes per write so the server sees partial
  // reads and must reassemble across them.
  const std::size_t step = 3;
  for (std::size_t i = 0; i < bytes.size(); i += step) {
    const std::size_t n = std::min(step, bytes.size() - i);
    ASSERT_TRUE(client.send_raw({&bytes[i], n}));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto reply = client.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->first, 5u);
  EXPECT_EQ(reply->second.status, HubStatus::Ok);
}

TEST_F(NetHubLoopback, MalformedFrameClosesConnection) {
  start();
  auto client = connect();
  auto bytes = encode_request(HubRequest{CloseRequest{U256{1}}}, 1);
  bytes.back() ^= 0xFF;  // corrupt the checksum
  ASSERT_TRUE(client.send_raw(bytes));
  EXPECT_FALSE(client.recv().has_value());  // EOF: the server hung up
  EXPECT_GE(server_->stats().protocol_errors, 1u);

  // The server survives and serves the next connection normally.
  auto again = connect();
  auto car = make_car();
  const auto open = car.open_request(U256{1}, kRate, kDev);
  ASSERT_TRUE(open.has_value());
  const auto opened = again.call(HubRequest{*open});
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->status, HubStatus::Ok);
}

TEST_F(NetHubLoopback, OversizedFrameClosesConnection) {
  HubServer::Config config;
  config.max_frame_bytes = 512;
  start(config);
  auto client = connect();
  // Declared length 1024 > the 512 cap; no body needed — the length
  // prefix alone convicts the stream.
  ASSERT_TRUE(client.send_raw(Bytes{0x00, 0x00, 0x04, 0x00}));
  EXPECT_FALSE(client.recv().has_value());
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(NetHubLoopback, ResponseKindFromClientClosesConnection) {
  start();
  auto client = connect();
  ASSERT_TRUE(client.send_raw(encode_response(HubResponse{}, 1)));
  EXPECT_FALSE(client.recv().has_value());
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(NetHubLoopback, BackpressureAnswersBusyPastTheBudget) {
  HubServer::Config config;
  config.inflight_budget = 4;
  start(config);
  auto client = connect();
  auto car = make_car();
  const auto open = car.open_request(U256{1}, kRate, kDev);
  ASSERT_TRUE(open.has_value());
  const auto opened = client.call(HubRequest{*open});
  ASSERT_TRUE(opened.has_value());
  ASSERT_EQ(opened->status, HubStatus::Ok);

  // Hold decoded requests on the I/O thread so they pile up against the
  // inflight budget instead of being answered as fast as they arrive.
  server_->hold_requests(true);
  const auto update = make_update(car, U256{2});
  for (std::uint32_t seq = 201; seq <= 208; ++seq) {
    ASSERT_TRUE(client.send_raw(encode_request(HubRequest{update}, seq)));
  }

  // 8 pipelined requests against a budget of 4: exactly 4 immediate Busy
  // rejections from the I/O thread, then — once the held requests are
  // released to the hub — the 4 queued requests are served (one applies;
  // the identical replays fail log validation).
  std::size_t busy = 0;
  std::size_t ok = 0;
  std::size_t bad_state = 0;
  for (int i = 0; i < 8; ++i) {
    if (i == 4) {
      EXPECT_EQ(busy, 4u);  // the Busy frames never waited on the hold
      server_->hold_requests(false);
    }
    const auto reply = client.recv();
    ASSERT_TRUE(reply.has_value()) << i;
    switch (reply->second.status) {
      case HubStatus::Busy: ++busy; break;
      case HubStatus::Ok: ++ok; break;
      case HubStatus::BadState: ++bad_state; break;
      default: FAIL() << to_string(reply->second.status);
    }
  }
  EXPECT_EQ(busy, 4u);
  EXPECT_EQ(ok, 1u);
  EXPECT_EQ(bad_state, 3u);
  EXPECT_EQ(server_->stats().busy_rejections, 4u);
}

TEST_F(NetHubLoopback, LatePaymentIsNotHeldBehindABusySession) {
  // Two workers: channel A's pipelined payments keep one busy, so a
  // payment for channel B that arrives meanwhile must be served by the
  // other at once, not after A's whole run. A payment costs the hub a few
  // hundred microseconds of ECDSA, so the burst is as long as the inflight
  // budget allows: A's run then outlasts B's round trip by a wide margin
  // even when the test shares a loaded machine.
  constexpr std::size_t kBurst = 64;
  start({}, /*workers=*/2);
  auto conn_a = connect();
  auto conn_b = connect();
  auto car_a = make_car(0);
  auto car_b = make_car(1);
  for (auto [client, car, id] : {std::tuple{&conn_a, &car_a, U256{1}},
                                 std::tuple{&conn_b, &car_b, U256{2}}}) {
    const auto open = car->open_request(id, kRate, kDev);
    ASSERT_TRUE(open.has_value());
    const auto opened = client->call(HubRequest{*open});
    ASSERT_TRUE(opened.has_value());
    ASSERT_EQ(opened->status, HubStatus::Ok);
  }
  const auto burst = chained_payments(car_a, U256{1}, kBurst);
  const auto late = make_update(car_b, U256{1});

  using Clock = std::chrono::steady_clock;
  std::array<Clock::time_point, kBurst> a_arrived{};
  std::atomic<std::size_t> a_done{0};
  std::atomic<bool> a_ok{true};
  for (std::uint32_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(conn_a.send_raw(encode_request(HubRequest{burst[i]}, i + 1)));
  }
  std::thread reader([&] {
    for (std::size_t i = 0; i < kBurst; ++i) {
      const auto reply = conn_a.recv();
      a_arrived[i] = Clock::now();
      if (!reply.has_value() || reply->first != i + 1 ||
          reply->second.status != HubStatus::Ok) {
        a_ok = false;
      }
      a_done.store(i + 1, std::memory_order_release);
      if (!reply.has_value()) return;
    }
  });
  while (a_done.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  const auto b_reply = conn_b.call(HubRequest{late});
  const auto b_arrived = Clock::now();
  reader.join();

  ASSERT_TRUE(a_ok);
  ASSERT_EQ(a_done.load(), kBurst);
  ASSERT_TRUE(b_reply.has_value());
  EXPECT_EQ(b_reply->status, HubStatus::Ok);
  EXPECT_LT(b_arrived, a_arrived[kBurst - 1])
      << "channel B's payment waited for channel A's whole burst";
}

TEST_F(NetHubLoopback, StatsRequestScrapesOverTheSamePort) {
  start();
  auto client = connect();
  auto car = make_car();
  const auto open = car.open_request(U256{1}, kRate, kDev);
  ASSERT_TRUE(open.has_value());
  ASSERT_TRUE(client.call(HubRequest{*open}).has_value());

  const auto prom = client.scrape(StatsRequest::Format::Prometheus);
  ASSERT_TRUE(prom.has_value());
  EXPECT_NE(prom->find("tinyevm_net_connections"), std::string::npos);
  EXPECT_NE(prom->find("tinyevm_net_frames_in_total"), std::string::npos);
  EXPECT_NE(prom->find("tinyevm_hub_requests_total"), std::string::npos);

  const auto json = client.scrape(StatsRequest::Format::Json);
  ASSERT_TRUE(json.has_value());
  EXPECT_NE(json->find("\"metrics\""), std::string::npos);
  EXPECT_NE(json->find("tinyevm_net_accepted_total"), std::string::npos);
}

TEST_F(NetHubLoopback, GracefulDrainDeliversQueuedResponses) {
  start();
  auto client = connect();
  auto car = make_car();
  const auto open = car.open_request(U256{1}, kRate, kDev);
  ASSERT_TRUE(open.has_value());

  // Hold the request on the I/O thread, then stop the server: the
  // graceful drain must submit it, wait for its answer and flush the
  // response before tearing the connection down.
  server_->hold_requests(true);
  ASSERT_TRUE(client.send_raw(encode_request(HubRequest{*open}, 31)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop();

  const auto reply = client.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->first, 31u);
  EXPECT_EQ(reply->second.status, HubStatus::Ok);
}

TEST_F(NetHubLoopback, DrainShedsNewRequestsWithBusy) {
  start();
  auto client = connect();
  auto car = make_car();
  const auto open = car.open_request(U256{1}, kRate, kDev);
  ASSERT_TRUE(open.has_value());
  // Opened normally first so the shed below is unambiguous.
  ASSERT_TRUE(client.call(HubRequest{*open}).has_value());

  stop();  // serve() has returned; the drain already ran

  // A request that raced the drain window was either answered or the
  // connection is gone — both are valid; what must never happen is a
  // hang. Requests sent after serve() returned see a closed socket.
  const auto update = make_update(car, U256{1});
  client.send_raw(encode_request(HubRequest{update}, 99));
  const auto reply = client.recv();
  if (reply.has_value()) {
    EXPECT_EQ(reply->second.status, HubStatus::Busy);
  }
}

// ---------------------------------------------------------------------------
// NetHubShutdown: hub destruction vs in-flight batches (TSan)
// ---------------------------------------------------------------------------

TEST(NetHubShutdown, DestructionDrainsActiveBatch) {
  constexpr std::size_t kSessions = 256;
  auto hub = make_hub(2);

  std::vector<ChannelEndpoint> cars;
  cars.reserve(kSessions);
  std::vector<HubRequest> opens;
  opens.reserve(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    cars.push_back(make_car(i));
    const auto open = cars.back().open_request(U256{i + 1}, kRate, kDev);
    ASSERT_TRUE(open.has_value());
    opens.push_back(*open);
  }

  std::vector<HubResponse> responses;
  ChannelHub* raw = hub.get();  // the thread must not touch the unique_ptr
  std::thread batch([&responses, raw, &opens] {
    responses = raw->handle_batch(opens);
  });
  // Wait until the hub's own counters prove the batch is admitted and
  // mid-flight, then land the destructor on it: the lifecycle gate must
  // block teardown until the batch has fully drained.
  while (hub->stats().opens == 0) std::this_thread::yield();
  hub.reset();
  batch.join();

  // The batch was in flight when destruction began, so it ran to
  // completion against a live session table — every open succeeded.
  ASSERT_EQ(responses.size(), kSessions);
  for (const auto& response : responses) {
    EXPECT_EQ(response.status, HubStatus::Ok);
  }
}

TEST(NetHubShutdown, ConcurrentBatchesDrainIndependently) {
  auto hub = make_hub(2);
  constexpr std::size_t kPerBatch = 64;

  std::vector<ChannelEndpoint> cars;
  cars.reserve(2 * kPerBatch);
  std::vector<std::vector<HubRequest>> batches(2);
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t i = 0; i < kPerBatch; ++i) {
      const std::size_t id = b * kPerBatch + i;
      cars.push_back(make_car(id));
      const auto open = cars.back().open_request(U256{id + 1}, kRate, kDev);
      ASSERT_TRUE(open.has_value());
      batches[b].push_back(*open);
    }
  }

  std::vector<std::vector<HubResponse>> responses(2);
  std::vector<std::thread> threads;
  ChannelHub* raw = hub.get();  // threads must not touch the unique_ptr
  for (std::size_t b = 0; b < 2; ++b) {
    threads.emplace_back([&responses, raw, &batches, b] {
      responses[b] = raw->handle_batch(batches[b]);
    });
  }
  // Each batch's first channel appearing in the session table proves that
  // batch is admitted and mid-flight; then destroy under both.
  while (!hub->session_log(U256{1}).has_value() ||
         !hub->session_log(U256{kPerBatch + 1}).has_value()) {
    std::this_thread::yield();
  }
  hub.reset();
  for (auto& t : threads) t.join();

  for (const auto& batch : responses) {
    ASSERT_EQ(batch.size(), kPerBatch);
    for (const auto& response : batch) {
      EXPECT_EQ(response.status, HubStatus::Ok);
    }
  }
}

// ---------------------------------------------------------------------------
// NetHubDifferential: socket exchange ≡ in-process exchange
// ---------------------------------------------------------------------------

/// Runs `sessions` channels × `rounds` payment rounds twice — once over
/// real sockets through HubServer/LoadGenerator, once in-process through
/// handle_batch with identically-seeded endpoints — and requires the two
/// hubs' per-channel SignedState logs to match bit-for-bit (states and
/// both signatures; RFC-6979 deterministic ECDSA makes that exact).
void run_differential(std::size_t sessions, std::size_t rounds,
                      std::size_t workers) {
  // --- socket side ---------------------------------------------------------
  auto socket_hub = make_hub(workers);
  HubServer::Config server_config;
  server_config.name = "net-diff";
  HubServer server(*socket_hub, server_config);
  const auto port = server.bind();
  std::thread serve_thread([&] { server.serve(); });

  LoadGenerator::Config load;
  load.port = port;
  load.connections = sessions;
  load.rounds = rounds;
  load.onchain_root = anchor();
  const auto report = LoadGenerator(load).run();

  EXPECT_EQ(report.connections_done, sessions);
  EXPECT_EQ(report.rounds_done, sessions * rounds);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.connect_failures, 0u);
  // Lockstep clients below the budget: steady state sheds nothing.
  EXPECT_EQ(report.busy_retries, 0u);

  server.request_stop();
  serve_thread.join();
  EXPECT_EQ(server.stats().protocol_errors, 0u);
  EXPECT_EQ(server.stats().busy_rejections, 0u);

  // --- in-process reference ------------------------------------------------
  auto reference_hub = make_hub(workers);
  std::vector<ChannelEndpoint> cars;
  cars.reserve(sessions);
  std::vector<HubRequest> opens;
  opens.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    cars.push_back(make_car(i));
    const auto open = cars.back().open_request(U256{i + 1}, kRate, kDev);
    ASSERT_TRUE(open.has_value());
    opens.push_back(*open);
  }
  for (std::size_t i = 0;
       const auto& response : reference_hub->handle_batch(opens)) {
    ASSERT_TRUE(response.ok()) << to_string(response.status);
    ASSERT_TRUE(cars[i++].apply(response));
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<HubRequest> updates;
    updates.reserve(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
      // The LoadGenerator's deterministic script: units (r + i) % 4 + 1.
      auto update = cars[i].propose_payment(U256{(r + i) % 4 + 1});
      ASSERT_TRUE(update.has_value());
      updates.push_back(std::move(*update));
    }
    for (std::size_t i = 0;
         const auto& response : reference_hub->handle_batch(updates)) {
      ASSERT_TRUE(response.ok()) << to_string(response.status);
      ASSERT_TRUE(cars[i++].apply(response));
    }
  }
  std::vector<HubRequest> closes;
  closes.reserve(sessions);
  for (auto& car : cars) closes.push_back(car.close_request());
  for (const auto& response : reference_hub->handle_batch(closes)) {
    ASSERT_TRUE(response.ok()) << to_string(response.status);
  }

  // --- the bar: bit-identical per-channel logs -----------------------------
  ASSERT_EQ(socket_hub->session_count(), reference_hub->session_count());
  for (std::size_t i = 0; i < sessions; ++i) {
    const auto socket_log = socket_hub->session_log(U256{i + 1});
    const auto reference_log = reference_hub->session_log(U256{i + 1});
    ASSERT_TRUE(socket_log.has_value()) << i;
    ASSERT_TRUE(reference_log.has_value()) << i;
    expect_logs_equal(*socket_log, *reference_log);
  }
  EXPECT_TRUE(socket_hub->audit_all());
  EXPECT_TRUE(reference_hub->audit_all());
}

TEST(NetHubDifferential, ThousandSessionsOneWorker) {
  run_differential(/*sessions=*/1000, /*rounds=*/1, /*workers=*/1);
}

TEST(NetHubDifferential, ThousandSessionsTwoWorkers) {
  run_differential(/*sessions=*/1000, /*rounds=*/1, /*workers=*/2);
}

TEST(NetHubDifferential, MultiRoundTwoWorkers) {
  run_differential(/*sessions=*/64, /*rounds=*/3, /*workers=*/2);
}

}  // namespace
}  // namespace tinyevm::net
