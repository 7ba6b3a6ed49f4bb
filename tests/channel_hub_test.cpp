// ChannelHub: the session-centric channel server. Covers the message API
// (open/payment/close round trips), rejection paths, batch determinism,
// concurrency (suite ChannelHubConcurrency runs under TSan in CI), and the
// acceptance differential: hub-side SignedState logs must be bit-identical
// to the equivalent serial ChannelEndpoint exchange at 1/2/8 workers —
// including at 1,000 concurrent sessions (suite ChannelHubScale).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "channel/hub.hpp"
#include "channel/manager.hpp"
#include "evm/code_cache.hpp"
#include "obs/metrics.hpp"

namespace tinyevm::channel {
namespace {

constexpr std::uint32_t kDev = 7;
const U256 kRate{10};

PrivateKey hub_key() { return PrivateKey::from_seed("hub-key"); }
Hash256 anchor() { return keccak256("hub-anchor"); }

std::unique_ptr<ChannelHub> make_hub(std::size_t workers) {
  ChannelHub::Config config;
  config.workers = workers;
  config.code_cache = std::make_shared<evm::CodeCache>();
  auto hub = std::make_unique<ChannelHub>("hub", hub_key(), anchor(), config);
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

void expect_logs_equal(const SideChainLog& hub_log,
                       const SideChainLog& reference) {
  ASSERT_EQ(hub_log.size(), reference.size());
  EXPECT_EQ(hub_log.head(), reference.head());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_TRUE(hub_log.entries()[i] == reference.entries()[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// Message API round trips
// ---------------------------------------------------------------------------

TEST(ChannelHub, OpenPaymentCloseRoundTrip) {
  auto hub = make_hub(2);
  auto car = make_car();

  const auto open = car.open_request(U256{1}, kRate, kDev);
  ASSERT_TRUE(open.has_value());
  const auto opened = hub->handle(*open);
  ASSERT_EQ(opened.status, HubStatus::Ok) << to_string(opened.status);
  ASSERT_TRUE(opened.contract.has_value());
  EXPECT_TRUE(car.apply(opened));
  EXPECT_EQ(hub->session_stored(U256{1}, TemplateSlots::kRate), kRate);
  EXPECT_EQ(hub->session_stored(U256{1}, TemplateSlots::kSensor), U256{21});

  const auto update = car.propose_payment(U256{3});
  ASSERT_TRUE(update.has_value());
  const auto paid = hub->handle(*update);
  ASSERT_EQ(paid.status, HubStatus::Ok);
  ASSERT_TRUE(paid.state.has_value());
  EXPECT_EQ(paid.state->state.paid_total, U256{30});
  EXPECT_EQ(paid.state->state.sequence, 1u);
  // The returned artifact is fully signed: car + hub.
  EXPECT_TRUE(paid.state->verify(car.address(), hub->address()));
  // The endpoint ingests it into its own log.
  EXPECT_TRUE(car.apply(paid));
  EXPECT_EQ(car.log().size(), 1u);

  const auto closed = hub->handle(car.close_request());
  ASSERT_EQ(closed.status, HubStatus::Ok);
  ASSERT_TRUE(closed.state.has_value());
  // Like a serial receiving endpoint, the hub never executes pay() on its
  // own contract — the countersigned log is the billing artifact — so its
  // close state reports the local contract's (zero) counter while chaining
  // onto the log that holds the real total.
  EXPECT_EQ(closed.state->state.paid_total, U256{});
  EXPECT_EQ(closed.state->state.prev_hash, paid.state->state.digest());
  EXPECT_TRUE(car.apply(closed));  // hub-final artifact, informational

  const auto stats = hub->stats();
  EXPECT_EQ(stats.opens, 1u);
  EXPECT_EQ(stats.payments, 1u);
  EXPECT_EQ(stats.closes, 1u);
  EXPECT_EQ(stats.sessions, 1u);
  EXPECT_EQ(stats.open_sessions, 0u);
}

TEST(ChannelHub, DuplicateOpenRejected) {
  auto hub = make_hub(1);
  EXPECT_EQ(hub->handle(OpenRequest{U256{5}, kRate, kDev}).status,
            HubStatus::Ok);
  const auto dup = hub->handle(OpenRequest{U256{5}, kRate, kDev});
  EXPECT_EQ(dup.status, HubStatus::DuplicateChannel);
  EXPECT_EQ(hub->stats().rejected, 1u);
}

TEST(ChannelHub, UnknownChannelRejected) {
  auto hub = make_hub(1);
  auto car = make_car();
  ASSERT_TRUE(car.open_request(U256{1}, kRate, kDev).has_value());
  const auto update = car.propose_payment(U256{1});
  ASSERT_TRUE(update.has_value());
  EXPECT_EQ(hub->handle(*update).status, HubStatus::UnknownChannel);
  EXPECT_EQ(hub->handle(CloseRequest{U256{1}}).status,
            HubStatus::UnknownChannel);
  EXPECT_FALSE(car.apply(hub->handle(*update)));
}

TEST(ChannelHub, OpenFailsWithoutSensorAndAllowsRetry) {
  auto hub = make_hub(1);
  // Device 99 has no default reading: the constructor's 0x0c aborts.
  EXPECT_EQ(hub->handle(OpenRequest{U256{9}, kRate, 99}).status,
            HubStatus::VmFailure);
  EXPECT_EQ(hub->session_count(), 0u);
  // The placeholder is gone, so the endpoint can retry once the sensor
  // exists.
  hub->set_sensor_default(99, U256{5});
  EXPECT_EQ(hub->handle(OpenRequest{U256{9}, kRate, 99}).status,
            HubStatus::Ok);
}

TEST(ChannelHub, ReplayedPaymentRejected) {
  auto hub = make_hub(1);
  auto car = make_car();
  ASSERT_TRUE(car.open_request(U256{1}, kRate, kDev).has_value());
  ASSERT_EQ(hub->handle(OpenRequest{U256{1}, kRate, kDev}).status,
            HubStatus::Ok);
  const auto update = car.propose_payment(U256{2});
  ASSERT_TRUE(update.has_value());
  ASSERT_EQ(hub->handle(*update).status, HubStatus::Ok);
  // Same state again: the hash link no longer extends the hub's log head.
  EXPECT_EQ(hub->handle(*update).status, HubStatus::BadState);
}

TEST(ChannelHub, NeverSignsAnUnrecoverableSenderSignature) {
  auto hub = make_hub(1);
  auto car = make_car();
  const auto open = car.open_request(U256{1}, kRate, kDev);
  ASSERT_TRUE(open.has_value());
  ASSERT_EQ(hub->handle(*open).status, HubStatus::Ok);
  auto update = car.propose_payment(U256{2});
  ASSERT_TRUE(update.has_value());
  const SignedState honest = update->proposal;
  update->proposal.sender_sig = Signature{};  // r = s = 0: recovers nothing

  const auto before = hub->stats();
  EXPECT_EQ(hub->handle(*update).status, HubStatus::BadSignature);
  EXPECT_EQ(hub->session_log(U256{1})->size(), 0u);
  EXPECT_EQ(hub->stats().signatures, before.signatures);

  // The refusal left the session as it was: the honest proposal of the
  // same state still goes through.
  update->proposal = honest;
  EXPECT_EQ(hub->handle(*update).status, HubStatus::Ok);
  EXPECT_EQ(hub->session_log(U256{1})->size(), 1u);
}

TEST(ChannelHub, PaymentAndCloseAfterCloseRejected) {
  auto hub = make_hub(1);
  auto car = make_car();
  ASSERT_TRUE(car.open_request(U256{1}, kRate, kDev).has_value());
  ASSERT_EQ(hub->handle(OpenRequest{U256{1}, kRate, kDev}).status,
            HubStatus::Ok);
  ASSERT_EQ(hub->handle(CloseRequest{U256{1}}).status, HubStatus::Ok);
  const auto update = car.propose_payment(U256{1});
  ASSERT_TRUE(update.has_value());
  EXPECT_EQ(hub->handle(*update).status, HubStatus::ChannelClosed);
  EXPECT_EQ(hub->handle(CloseRequest{U256{1}}).status,
            HubStatus::ChannelClosed);
  // And the channel id stays reserved: re-open is a duplicate.
  EXPECT_EQ(hub->handle(OpenRequest{U256{1}, kRate, kDev}).status,
            HubStatus::DuplicateChannel);
}

TEST(ChannelHub, RegisteredActuatorDefaultsReachSessions) {
  auto hub = make_hub(1);
  hub->register_actuator_default(40);
  ASSERT_EQ(hub->handle(OpenRequest{U256{1}, kRate, kDev}).status,
            HubStatus::Ok);
  // The hub session's peripherals accepted the registration: probing the
  // stored slots shows the session exists; actuator wiring is covered at
  // the SensorBank/DeviceHost layer (channel_endpoint_test).
  EXPECT_EQ(hub->session_stored(U256{1}, TemplateSlots::kSensor), U256{21});
}

TEST(ChannelHub, MixedBatchKeepsPerChannelOrder) {
  auto hub = make_hub(4);
  auto car = make_car();
  const auto open = car.open_request(U256{3}, kRate, kDev);
  ASSERT_TRUE(open.has_value());
  const auto u1 = car.propose_payment(U256{1});
  ASSERT_TRUE(u1.has_value());
  // Open, payment, and close for one channel inside a single batch: the
  // hub must serialize them in batch order on one worker.
  std::vector<HubRequest> batch{*open, *u1, car.close_request()};
  const auto responses = hub->handle_batch(batch);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status, HubStatus::Ok);
  EXPECT_EQ(responses[1].status, HubStatus::Ok);
  EXPECT_EQ(responses[2].status, HubStatus::Ok);
  ASSERT_TRUE(responses[1].state.has_value());
  EXPECT_EQ(responses[1].state->state.paid_total, U256{10});
  EXPECT_TRUE(hub->audit_all());
}

TEST(ChannelHub, EmptyBatchIsANoOp) {
  auto hub = make_hub(2);
  EXPECT_TRUE(hub->handle_batch({}).empty());
  EXPECT_EQ(hub->session_count(), 0u);
}

TEST(ChannelHub, BoundedVmSetMatchesWorkerCount) {
  auto hub = make_hub(3);
  EXPECT_EQ(hub->worker_count(), 3u);
  auto single = make_hub(1);
  EXPECT_EQ(single->worker_count(), 1u);
}

TEST(ChannelHub, LoneRequestOnAnIdleHubRunsOnTheCaller) {
  auto hub = make_hub(2);
  auto car = make_car();
  const auto open = car.open_request(U256{1}, kRate, kDev);
  ASSERT_TRUE(open.has_value());

  // handle() on an idle hub serves the request itself: no queue wait, one
  // inline pick-up.
  const auto inline_before = hub->served_inline();
  const auto pickups_before = hub->pickups();
  const auto opened = hub->handle(*open);
  ASSERT_EQ(opened.status, HubStatus::Ok);
  EXPECT_TRUE(car.apply(opened));
  EXPECT_EQ(opened.queue_us, 0u);
  EXPECT_EQ(hub->served_inline(), inline_before + 1);
  EXPECT_EQ(hub->pickups(), pickups_before + 1);

  // The reply runs on the calling thread, before try_serve_here returns.
  const auto update = car.propose_payment(U256{2});
  ASSERT_TRUE(update.has_value());
  std::thread::id replied_on;
  HubResponse paid;
  ASSERT_TRUE(hub->try_serve_here(*update, [&](HubResponse response) {
    replied_on = std::this_thread::get_id();
    paid = std::move(response);
  }));
  EXPECT_EQ(replied_on, std::this_thread::get_id());
  ASSERT_EQ(paid.status, HubStatus::Ok);
  EXPECT_EQ(paid.queue_us, 0u);
  EXPECT_TRUE(car.apply(paid));
  EXPECT_EQ(hub->served_inline(), inline_before + 2);

  // handle_batch() never serves inline, even a batch of one.
  const HubRequest close = car.close_request();
  ASSERT_EQ(hub->handle_batch({&close, 1})[0].status, HubStatus::Ok);
  EXPECT_EQ(hub->served_inline(), inline_before + 2);
  EXPECT_TRUE(hub->audit_all());
}

// ---------------------------------------------------------------------------
// Concurrency (runs under TSan in CI)
// ---------------------------------------------------------------------------

TEST(ChannelHubConcurrency, ParallelSessionsStayConsistent) {
  constexpr std::size_t kSessions = 24;
  auto hub = make_hub(4);

  std::vector<ChannelEndpoint> cars;
  cars.reserve(kSessions);
  std::vector<HubRequest> opens;
  for (std::size_t i = 0; i < kSessions; ++i) {
    cars.push_back(make_car(i));
    const auto open = cars.back().open_request(U256{i + 1}, kRate, kDev);
    ASSERT_TRUE(open.has_value()) << i;
    opens.push_back(*open);
  }
  for (const auto& response : hub->handle_batch(opens)) {
    ASSERT_EQ(response.status, HubStatus::Ok);
  }

  std::vector<HubRequest> updates;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto update = cars[i].propose_payment(U256{i % 3 + 1});
    ASSERT_TRUE(update.has_value()) << i;
    updates.push_back(*update);
  }
  const auto responses = hub->handle_batch(updates);
  for (std::size_t i = 0; i < kSessions; ++i) {
    ASSERT_EQ(responses[i].status, HubStatus::Ok) << i;
    ASSERT_TRUE(responses[i].state.has_value());
    EXPECT_TRUE(cars[i].apply(responses[i])) << i;
  }

  EXPECT_TRUE(hub->audit_all());
  const auto stats = hub->stats();
  EXPECT_EQ(stats.opens, kSessions);
  EXPECT_EQ(stats.payments, kSessions);
  EXPECT_EQ(stats.open_sessions, kSessions);
  EXPECT_EQ(stats.signatures, kSessions);     // one countersign each
  EXPECT_EQ(stats.verifications, kSessions);  // one sender recover each

  std::vector<HubRequest> closes;
  for (std::size_t i = 0; i < kSessions; ++i) {
    closes.push_back(cars[i].close_request());
  }
  for (const auto& response : hub->handle_batch(closes)) {
    ASSERT_EQ(response.status, HubStatus::Ok);
  }
  EXPECT_EQ(hub->stats().open_sessions, 0u);
}

TEST(ChannelHubConcurrency, ConcurrentDirectHandlesShareTheVmSet) {
  constexpr std::size_t kThreads = 8;
  auto hub = make_hub(2);  // 3 Vms, 8 caller threads: leases must queue
  std::vector<std::thread> threads;
  std::array<HubResponse, kThreads> responses;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      responses[t] = hub->handle(OpenRequest{U256{t + 1}, kRate, kDev});
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& response : responses) {
    EXPECT_EQ(response.status, HubStatus::Ok);
  }
  EXPECT_EQ(hub->session_count(), kThreads);
  EXPECT_TRUE(hub->audit_all());
}

// ---------------------------------------------------------------------------
// Differential: hub exchange ≡ serial endpoint exchange, bit for bit
// ---------------------------------------------------------------------------

/// Precomputed client-side traffic plus the serial reference produced by
/// plain two-party ChannelEndpoint exchanges with an endpoint holding the
/// hub's key. The same requests are replayed against hubs at several
/// worker counts; every hub session log must equal the serial log bit for
/// bit (states and both signatures).
struct Exchange {
  std::vector<U256> ids;
  std::vector<HubRequest> opens;
  std::vector<std::vector<HubRequest>> rounds;  // [round][session]
  std::vector<SideChainLog> reference_logs;
};

Exchange build_exchange(std::size_t sessions, std::size_t round_count) {
  Exchange ex;
  std::vector<ChannelEndpoint> cars;
  std::vector<ChannelEndpoint> lots;  // serial stand-ins for the hub
  cars.reserve(sessions);
  lots.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    const U256 id{i + 1};
    ex.ids.push_back(id);
    cars.push_back(make_car(i));
    lots.emplace_back("lot", hub_key(), anchor());
    lots.back().sensors().set_reading(kDev, U256{21});
    const auto open = cars.back().open_request(id, kRate, kDev);
    EXPECT_TRUE(open.has_value()) << i;
    ex.opens.push_back(*open);
    EXPECT_TRUE(lots.back().open_channel(id, kRate, kDev).has_value()) << i;
  }
  ex.rounds.resize(round_count);
  for (std::size_t r = 0; r < round_count; ++r) {
    for (std::size_t i = 0; i < sessions; ++i) {
      auto update = cars[i].propose_payment(U256{(r + i) % 4 + 1});
      EXPECT_TRUE(update.has_value()) << r << ":" << i;
      // Serial reference: the lot countersigns and records, the car
      // ingests the fully-signed state so its next round chains onto it.
      const auto counter = lots[i].countersign(update->proposal.state);
      EXPECT_TRUE(counter.has_value()) << r << ":" << i;
      SignedState full = update->proposal;
      full.receiver_sig = *counter;
      EXPECT_TRUE(lots[i].accept(full)) << r << ":" << i;
      EXPECT_TRUE(cars[i].accept(full)) << r << ":" << i;
      ex.rounds[r].push_back(std::move(*update));
    }
  }
  for (std::size_t i = 0; i < sessions; ++i) {
    ex.reference_logs.push_back(lots[i].log());
  }
  return ex;
}

void run_hub_and_compare(const Exchange& ex, std::size_t workers) {
  SCOPED_TRACE("workers=" + std::to_string(workers));
  auto hub = make_hub(workers);
  for (const auto& response : hub->handle_batch(ex.opens)) {
    ASSERT_EQ(response.status, HubStatus::Ok);
  }
  for (const auto& round : ex.rounds) {
    for (const auto& response : hub->handle_batch(round)) {
      ASSERT_EQ(response.status, HubStatus::Ok);
    }
  }
  ASSERT_EQ(hub->session_count(), ex.ids.size());
  for (std::size_t i = 0; i < ex.ids.size(); ++i) {
    const auto log = hub->session_log(ex.ids[i]);
    ASSERT_TRUE(log.has_value()) << i;
    expect_logs_equal(*log, ex.reference_logs[i]);
  }
  EXPECT_TRUE(hub->audit_all());
}

TEST(ChannelHubDifferential, BitIdenticalLogsAcrossWorkerCounts) {
  const Exchange ex = build_exchange(48, 2);
  if (::testing::Test::HasFailure()) return;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    run_hub_and_compare(ex, workers);
  }
}

TEST(ChannelHubDifferential, MultiRoundSingleBatchMatchesSerial) {
  // Both rounds of every session in ONE batch: per-channel grouping must
  // serialize them in order, still reproducing the serial logs exactly.
  const Exchange ex = build_exchange(16, 2);
  if (::testing::Test::HasFailure()) return;
  auto hub = make_hub(4);
  for (const auto& response : hub->handle_batch(ex.opens)) {
    ASSERT_EQ(response.status, HubStatus::Ok);
  }
  std::vector<HubRequest> all_rounds;
  for (const auto& round : ex.rounds) {
    all_rounds.insert(all_rounds.end(), round.begin(), round.end());
  }
  for (const auto& response : hub->handle_batch(all_rounds)) {
    ASSERT_EQ(response.status, HubStatus::Ok);
  }
  for (std::size_t i = 0; i < ex.ids.size(); ++i) {
    const auto log = hub->session_log(ex.ids[i]);
    ASSERT_TRUE(log.has_value()) << i;
    expect_logs_equal(*log, ex.reference_logs[i]);
  }
}

TEST(ChannelHubConcurrency, SubmitKeepsPerChannelOrderAcrossThreads) {
  // Eight threads, each submitting one channel's whole script without
  // waiting in between: open -> pay x8 -> close. The hub must serve each
  // channel in submit order while the channels interleave on the pool.
  constexpr std::size_t kChannels = 8;
  constexpr std::size_t kRounds = 8;
  const Exchange ex = build_exchange(kChannels, kRounds);
  if (::testing::Test::HasFailure()) return;
  auto hub = make_hub(4);

  struct Record {
    std::mutex mu;
    std::condition_variable done;
    std::vector<HubResponse> responses;
  };
  std::array<Record, kChannels> records;
  constexpr std::size_t kScript = kRounds + 2;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kChannels; ++c) {
    threads.emplace_back([&, c] {
      Record& record = records[c];
      const auto collect = [&record](HubResponse response) {
        std::lock_guard lock(record.mu);
        record.responses.push_back(std::move(response));
        if (record.responses.size() == kScript) record.done.notify_all();
      };
      hub->submit(ex.opens[c], collect);
      for (std::size_t r = 0; r < kRounds; ++r) {
        hub->submit(ex.rounds[r][c], collect);
      }
      hub->submit(CloseRequest{ex.ids[c]}, collect);
      std::unique_lock lock(record.mu);
      record.done.wait(lock,
                       [&] { return record.responses.size() == kScript; });
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t c = 0; c < kChannels; ++c) {
    SCOPED_TRACE("channel " + std::to_string(c));
    const auto& responses = records[c].responses;
    ASSERT_EQ(responses.size(), kScript);
    for (const auto& response : responses) {
      ASSERT_EQ(response.status, HubStatus::Ok) << to_string(response.status);
      EXPECT_EQ(response.channel_id, ex.ids[c]);
    }
    EXPECT_EQ(responses.front().kind, HubResponseKind::Open);
    for (std::size_t r = 0; r < kRounds; ++r) {
      ASSERT_EQ(responses[r + 1].kind, HubResponseKind::Payment);
      EXPECT_TRUE(*responses[r + 1].state ==
                  ex.reference_logs[c].entries()[r]);
    }
    EXPECT_EQ(responses.back().kind, HubResponseKind::Close);
    const auto log = hub->session_log(ex.ids[c]);
    ASSERT_TRUE(log.has_value());
    expect_logs_equal(*log, ex.reference_logs[c]);
  }
  EXPECT_TRUE(hub->audit_all());
  EXPECT_EQ(hub->stats().open_sessions, 0u);
}

TEST(ChannelHubConcurrency, InlineRunKeepsPerChannelOrder) {
  // One worker. Channel X's first payment runs inline on its own thread
  // and is held inside its reply. Meanwhile another thread submits X's
  // second payment and channel Y's first. The pool's one worker must serve
  // Y while X's inline run still holds a Vm (the set is workers + 1), and
  // X's second payment must wait for its first, then run on the pool.
  const Exchange ex = build_exchange(2, 2);
  if (::testing::Test::HasFailure()) return;
  constexpr std::size_t kX = 0;
  constexpr std::size_t kY = 1;
  auto hub = make_hub(1);
  for (const auto& response : hub->handle_batch(ex.opens)) {
    ASSERT_EQ(response.status, HubStatus::Ok);
  }

  struct Answer {
    HubResponse response;
    std::thread::id thread;
    bool done = false;
  };
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::array<Answer, 3> answers;  // X's first, X's second, Y's first
  const auto record = [&](std::size_t i, HubResponse response) {
    std::lock_guard lock(mu);
    answers[i] = Answer{std::move(response), std::this_thread::get_id(), true};
    cv.notify_all();
  };

  const ChannelHub::Reply hold_x_first = [&](HubResponse r) {
    record(0, std::move(r));
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  std::thread inline_run([&] {
    // handle_batch() returns once the replies are out, and the worker may
    // still be closing its pick-up: wait for the hub to go idle.
    while (!hub->try_serve_here(ex.rounds[0][kX], hold_x_first)) {
      std::this_thread::yield();
    }
  });
  const std::thread::id inline_thread = inline_run.get_id();
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return answers[0].done; });
  }
  // The hub is not idle now: a second inline run is refused untouched.
  const auto inline_count = hub->served_inline();
  EXPECT_FALSE(hub->try_serve_here(ex.rounds[0][kY], [](HubResponse) {
    ADD_FAILURE() << "a refused request was answered";
  }));
  EXPECT_EQ(hub->served_inline(), inline_count);

  std::thread submitter([&] {
    hub->submit(ex.rounds[1][kX], [&](HubResponse r) { record(1, r); });
    hub->submit(ex.rounds[0][kY], [&](HubResponse r) { record(2, r); });
  });
  submitter.join();
  bool y_served_while_held = false;
  bool x_second_done_while_held = true;
  {
    std::unique_lock lock(mu);
    y_served_while_held = cv.wait_for(lock, std::chrono::seconds(60),
                                      [&] { return answers[2].done; });
    x_second_done_while_held = answers[1].done;
    release = true;
    cv.notify_all();
  }
  inline_run.join();
  EXPECT_TRUE(y_served_while_held);
  EXPECT_FALSE(x_second_done_while_held);
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return answers[1].done && answers[2].done; });
  }

  for (const auto& answer : answers) {
    ASSERT_EQ(answer.response.status, HubStatus::Ok)
        << to_string(answer.response.status);
  }
  EXPECT_EQ(answers[0].thread, inline_thread);
  EXPECT_EQ(answers[0].response.queue_us, 0u);
  EXPECT_NE(answers[1].thread, inline_thread);  // back on the pool
  EXPECT_NE(answers[2].thread, inline_thread);
  EXPECT_TRUE(*answers[0].response.state == ex.reference_logs[kX].entries()[0]);
  EXPECT_TRUE(*answers[1].response.state == ex.reference_logs[kX].entries()[1]);
  EXPECT_TRUE(*answers[2].response.state == ex.reference_logs[kY].entries()[0]);

  ASSERT_EQ(hub->handle(ex.rounds[1][kY]).status, HubStatus::Ok);
  for (const std::size_t c : {kX, kY}) {
    const auto log = hub->session_log(ex.ids[c]);
    ASSERT_TRUE(log.has_value()) << c;
    expect_logs_equal(*log, ex.reference_logs[c]);
  }
  EXPECT_TRUE(hub->audit_all());
}

// The acceptance criterion: >= 1,000 concurrent sessions, bit-identical
// logs at 1/2/8 workers. ECDSA-heavy (~5k signs + ~7k recovers), so this
// is the slowest test in the tree — still well inside the 300 s ctest
// timeout on the baseline container.
TEST(ChannelHubScale, Serves1000SessionsBitIdentically) {
  constexpr std::size_t kSessions = 1000;
  const Exchange ex = build_exchange(kSessions, 1);
  if (::testing::Test::HasFailure()) return;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    run_hub_and_compare(ex, workers);
  }
}

// ---------------------------------------------------------------------------
// Telemetry: the queue/service split on HubResponse and the registry
// counters (suite ChannelHubTelemetry also runs under TSan in CI).
// ---------------------------------------------------------------------------

TEST(ChannelHubTelemetry, BatchSplitsQueueWaitFromServiceTime) {
  // One worker serializes the batch, so every later request's queue wait
  // covers at least one earlier request's full service time.
  constexpr std::size_t kSessions = 4;
  auto hub = make_hub(1);
  std::vector<ChannelEndpoint> cars;
  std::vector<HubRequest> opens;
  for (std::size_t i = 0; i < kSessions; ++i) {
    cars.push_back(make_car(i));
    const auto open = cars.back().open_request(U256{i + 1}, kRate, kDev);
    ASSERT_TRUE(open.has_value()) << i;
    opens.push_back(*open);
  }
  for (const auto& response : hub->handle_batch(opens)) {
    ASSERT_EQ(response.status, HubStatus::Ok);
  }

  std::vector<HubRequest> updates;
  for (auto& car : cars) {
    auto update = car.propose_payment(U256{1});
    ASSERT_TRUE(update.has_value());
    updates.push_back(std::move(*update));
  }
  // The first payment's reply holds the only worker until every payment is
  // queued, so the rest queue behind it whatever the scheduler does: a
  // waking worker may otherwise finish one payment before the submitting
  // thread runs again.
  std::vector<HubResponse> responses(kSessions);
  std::mutex mu;
  std::condition_variable cv;
  bool all_queued = false;
  std::size_t replied = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    hub->submit(updates[i], [&, i](HubResponse response) {
      std::unique_lock lock(mu);
      responses[i] = std::move(response);
      cv.wait(lock, [&] { return all_queued; });
      ++replied;
      cv.notify_all();
    });
  }
  {
    std::unique_lock lock(mu);
    all_queued = true;
    cv.notify_all();
    cv.wait(lock, [&] { return replied == kSessions; });
  }
  std::uint32_t max_queue = 0;
  std::uint32_t min_service = ~std::uint32_t{0};
  for (const auto& response : responses) {
    ASSERT_EQ(response.status, HubStatus::Ok);
    max_queue = std::max(max_queue, response.queue_us);
    min_service = std::min(min_service, response.service_us);
  }
  // Signed payments spend real time in ECDSA, so the service clock ticks...
  EXPECT_GE(min_service, 1u);
  // ...and with one worker, the last-dispatched payment queued behind at
  // least one full service slice (+2 us covers independent rounding of the
  // two measurements).
  EXPECT_GE(max_queue + 2, min_service);
}

TEST(ChannelHubTelemetry, DirectHandleReportsServiceTime) {
  auto hub = make_hub(2);
  auto car = make_car();
  const auto open = car.open_request(U256{1}, kRate, kDev);
  ASSERT_TRUE(open.has_value());
  const auto opened = hub->handle(*open);
  ASSERT_EQ(opened.status, HubStatus::Ok);
  // Template deployment runs the VM: measurable service, and with both
  // Vms free the lease wait stays far below the service time.
  EXPECT_GE(opened.service_us, 1u);
  EXPECT_LE(opened.queue_us, opened.service_us * 100 + 1000);
}

TEST(ChannelHubTelemetry, RegistryCountersTrackTheWorkload) {
#ifdef TINYEVM_OBS_DISABLED
  GTEST_SKIP() << "telemetry compiled out (-DTINYEVM_OBS=OFF)";
#endif
  obs::set_metrics_enabled(true);
  {
    // A unique hub name keeps this test's series out of the ones the other
    // suites' hubs (all named "hub") feed while metrics are enabled. The
    // registry is process-global and its interned counters outlive the hub,
    // so a repeated run (--gtest_repeat) starts from the previous run's
    // totals: every check below is a delta across the workload.
    ChannelHub::Config config;
    config.workers = 1;
    config.code_cache = std::make_shared<evm::CodeCache>();
    ChannelHub hub("hub-telemetry", hub_key(), anchor(), config);
    hub.set_sensor_default(kDev, U256{21});
    auto car = make_car();

    // Value of one series, or of a histogram's sample count; 0 while absent.
    auto series_value = [](const std::string& name,
                           const obs::LabelSet& labels) -> double {
      for (const auto& family : obs::Registry::instance().collect()) {
        if (family.name != name) continue;
        for (const auto& sample : family.samples) {
          if (sample.labels != labels) continue;
          return family.type == obs::MetricType::Histogram
                     ? static_cast<double>(sample.histogram.count)
                     : sample.value;
        }
      }
      return 0.0;
    };
    const std::vector<std::pair<std::string, obs::LabelSet>> series{
        {"tinyevm_hub_requests_total",
         {{"hub", "hub-telemetry"}, {"kind", "open"}, {"status", "ok"}}},
        {"tinyevm_hub_requests_total",
         {{"hub", "hub-telemetry"}, {"kind", "payment"}, {"status", "ok"}}},
        {"tinyevm_hub_requests_total",
         {{"hub", "hub-telemetry"}, {"kind", "close"}, {"status", "ok"}}},
        {"tinyevm_hub_requests_total",
         {{"hub", "hub-telemetry"},
          {"kind", "open"},
          {"status", "duplicate-channel"}}},
        // The collector publishes the hub's lifetime stats while it is
        // alive.
        {"tinyevm_hub_opens_total", {{"hub", "hub-telemetry"}}},
        {"tinyevm_hub_payments_total", {{"hub", "hub-telemetry"}}},
        // The per-kind service histogram saw exactly one ok payment.
        {"tinyevm_hub_service_us",
         {{"hub", "hub-telemetry"}, {"kind", "payment"}}},
    };
    std::vector<double> before;
    for (const auto& [name, labels] : series) {
      before.push_back(series_value(name, labels));
    }

    const auto open = car.open_request(U256{1}, kRate, kDev);
    ASSERT_TRUE(open.has_value());
    ASSERT_EQ(hub.handle(*open).status, HubStatus::Ok);
    auto update = car.propose_payment(U256{2});
    ASSERT_TRUE(update.has_value());
    const auto paid = hub.handle(*update);
    ASSERT_EQ(paid.status, HubStatus::Ok);
    ASSERT_TRUE(car.apply(paid));
    ASSERT_EQ(hub.handle(car.close_request()).status, HubStatus::Ok);
    // A rejection lands under its own status label.
    EXPECT_NE(hub.handle(OpenRequest{U256{1}, kRate, kDev}).status,
              HubStatus::Ok);

    for (std::size_t i = 0; i < series.size(); ++i) {
      EXPECT_EQ(series_value(series[i].first, series[i].second) - before[i],
                1.0)
          << series[i].first;
    }
  }
  obs::set_metrics_enabled(false);
  // The hub is gone: its collector must have unregistered, so a scrape
  // no longer shows its lifetime stats (the interned request counters are
  // process-lifetime instruments and legitimately remain).
  for (const auto& family : obs::Registry::instance().collect()) {
    if (family.name != "tinyevm_hub_opens_total") continue;
    for (const auto& sample : family.samples) {
      for (const auto& [key, value] : sample.labels) {
        EXPECT_FALSE(key == "hub" && value == "hub-telemetry");
      }
    }
  }
}

}  // namespace
}  // namespace tinyevm::channel
