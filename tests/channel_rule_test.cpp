// The channel transition rule, channel::step, and every caller that
// applies it. Each rejection case runs through the hub, the device-side
// countersign, the side-chain log, and the on-chain commit and challenge;
// each caller answers with the status the case's row lists. Every caller
// that knows a rule rejects its case: only the chain skips the hash link,
// and only the chain knows the deposit.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <ostream>
#include <string>

#include "chain/template_contract.hpp"
#include "channel/hub.hpp"
#include "channel/manager.hpp"
#include "channel/state.hpp"
#include "evm/code_cache.hpp"

namespace tinyevm::channel {
namespace {

using chain::TemplateStatus;

constexpr std::uint32_t kDev = 7;
const U256 kRate{10};
const U256 kChannel{1};  // the chain mints id 1 first

ChannelState state(std::uint64_t seq, std::uint64_t paid,
                   const Hash256& prev) {
  ChannelState s;
  s.channel_id = kChannel;
  s.sequence = seq;
  s.paid_total = U256{paid};
  s.sensor_data = U256{22};
  s.prev_hash = prev;
  return s;
}

// ---------------------------------------------------------------------------
// step on its own: the order of its checks
// ---------------------------------------------------------------------------

TEST(ChannelStep, ChecksChannelLinkSequenceTotalCapInOrder) {
  const Head head{.channel_id = kChannel,
                  .sequence = 5,
                  .paid_total = U256{50},
                  .link = keccak256("head"),
                  .cap = U256{100}};
  // Wrong on every count; fixing one field at a time walks the order.
  ChannelState next = state(5, 10, keccak256("elsewhere"));
  next.channel_id = U256{2};
  EXPECT_EQ(step(head, next), StepStatus::WrongChannel);
  next.channel_id = kChannel;
  EXPECT_EQ(step(head, next), StepStatus::BrokenLink);
  next.prev_hash = keccak256("head");
  EXPECT_EQ(step(head, next), StepStatus::StaleSequence);
  next.sequence = 6;
  EXPECT_EQ(step(head, next), StepStatus::ShrinkingTotal);
  next.paid_total = U256{101};
  EXPECT_EQ(step(head, next), StepStatus::OverCap);
  next.paid_total = U256{100};
  EXPECT_EQ(step(head, next), StepStatus::Ok);
}

// ---------------------------------------------------------------------------
// One table, five callers
// ---------------------------------------------------------------------------

/// A rejection case: the prior state (none on a fresh channel), the
/// candidate successor, and what each caller must answer.
struct Case {
  const char* name;
  bool fresh;                    ///< no state in the channel yet
  void (*mutate)(ChannelState&);  ///< turns the valid successor into the case
  HubStatus hub;                 ///< ChannelHub::handle(PaymentUpdate)
  bool countersigned;            ///< ChannelEndpoint::countersign
  bool appended;                 ///< SideChainLog::append
  TemplateStatus commit;         ///< TemplateContract::on_chain_commit
  TemplateStatus challenge;      ///< TemplateContract::challenge
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

const Case kCases[] = {
    {"Valid", false, [](ChannelState&) {}, HubStatus::Ok, true, true,
     TemplateStatus::Ok, TemplateStatus::Ok},
    // The log holds channels in turn, so another channel's state is just
    // that channel's first; the chain judges it as that (unknown) channel.
    {"WrongChannel", false, [](ChannelState& s) { s.channel_id = U256{2}; },
     HubStatus::BadState, false, true, TemplateStatus::UnknownChannel,
     TemplateStatus::UnknownChannel},
    {"BrokenLink", false,
     [](ChannelState& s) { s.prev_hash = keccak256("elsewhere"); },
     HubStatus::BadState, false, false, TemplateStatus::Ok,
     TemplateStatus::Ok},
    {"EqualSequence", false, [](ChannelState& s) { s.sequence = 3; },
     HubStatus::BadState, false, false, TemplateStatus::StaleSequence,
     TemplateStatus::StaleSequence},
    {"LowerSequence", false, [](ChannelState& s) { s.sequence = 2; },
     HubStatus::BadState, false, false, TemplateStatus::StaleSequence,
     TemplateStatus::StaleSequence},
    {"SequenceZeroOnFreshChannel", true,
     [](ChannelState& s) { s.sequence = 0; }, HubStatus::BadState, false,
     false, TemplateStatus::StaleSequence, TemplateStatus::StaleSequence},
    {"ShrinkingTotal", false, [](ChannelState& s) { s.paid_total = U256{20}; },
     HubStatus::BadState, false, false, TemplateStatus::OverLockedFunds,
     TemplateStatus::OverLockedFunds},
    // 1000 deposited with 100 of insurance: 900 is locked for the channel.
    {"OverDeposit", false, [](ChannelState& s) { s.paid_total = U256{901}; },
     HubStatus::Ok, true, true, TemplateStatus::OverLockedFunds,
     TemplateStatus::OverLockedFunds},
};

class EveryCaller : public ::testing::TestWithParam<Case> {
 protected:
  const PrivateKey car_ = PrivateKey::from_seed("rule-car");
  const PrivateKey lot_ = PrivateKey::from_seed("rule-lot");
  const Hash256 anchor_ = keccak256("rule-anchor");

  /// The channel's one state before the candidate (sequence 3, total 30),
  /// or nothing on a fresh channel.
  std::optional<SignedState> prior() const {
    if (GetParam().fresh) return std::nullopt;
    return sign(state(3, 30, anchor_));
  }

  /// The case's candidate: the valid successor of prior(), mutated.
  SignedState candidate() const {
    const auto p = prior();
    ChannelState next = p ? state(4, 40, p->state.digest())
                          : state(1, 10, anchor_);
    GetParam().mutate(next);
    return sign(next);
  }

  /// Signed by both parties: the car pays, the lot receives.
  SignedState sign(const ChannelState& s) const {
    SignedState out;
    out.state = s;
    out.sender_sig = secp256k1::sign(s.digest(), car_);
    out.receiver_sig = secp256k1::sign(s.digest(), lot_);
    return out;
  }

  /// A template whose channel kChannel runs between car and lot, with
  /// prior() committed when there is one.
  struct Chain {
    chain::Blockchain chain;
    chain::TemplateContract* contract = nullptr;
  };
  std::unique_ptr<Chain> make_chain() const {
    auto c = std::make_unique<Chain>();
    chain::Address self{};
    self[19] = 0xAB;
    auto owned = std::make_unique<chain::TemplateContract>(
        c->chain, self, lot_.address(), /*challenge_period=*/10);
    c->contract = owned.get();
    c->chain.register_native(self, std::move(owned));
    c->chain.credit(car_.address(), U256{1'000'000});
    EXPECT_EQ(c->contract->deposit(car_.address(), U256{1000}, U256{100}),
              TemplateStatus::Ok);
    EXPECT_EQ(c->contract->create_payment_channel(car_.address()), kChannel);
    if (const auto p = prior()) {
      EXPECT_EQ(c->contract->on_chain_commit(*p), TemplateStatus::Ok);
    }
    return c;
  }
};

TEST_P(EveryCaller, AnswersAsTheTableSays) {
  const Case& c = GetParam();
  const auto p = prior();
  const SignedState next = candidate();

  {
    ChannelHub::Config config;
    config.workers = 1;
    config.code_cache = std::make_shared<evm::CodeCache>();
    ChannelHub hub("rule-hub", PrivateKey::from_seed("rule-hub"), anchor_,
                   config);
    hub.set_sensor_default(kDev, U256{21});
    ASSERT_EQ(hub.handle(OpenRequest{kChannel, kRate, kDev}).status,
              HubStatus::Ok);
    if (p) {
      ASSERT_EQ(hub.handle(PaymentUpdate{kChannel, *p}).status,
                HubStatus::Ok);
    }
    EXPECT_EQ(hub.handle(PaymentUpdate{kChannel, next}).status, c.hub)
        << "ChannelHub::handle";
  }
  {
    ChannelEndpoint lot("lot", lot_, anchor_);
    lot.sensors().set_reading(kDev, U256{22});
    ASSERT_TRUE(lot.open_channel(kChannel, kRate, kDev).has_value());
    if (p) {
      ASSERT_TRUE(lot.countersign(p->state).has_value());
      ASSERT_TRUE(lot.accept(*p));
    }
    EXPECT_EQ(lot.countersign(next.state).has_value(), c.countersigned)
        << "ChannelEndpoint::countersign";
  }
  {
    SideChainLog log(anchor_);
    if (p) {
      ASSERT_TRUE(log.append(*p));
    }
    EXPECT_EQ(log.append(next), c.appended) << "SideChainLog::append";
    EXPECT_EQ(log.size(), (p ? 1u : 0u) + (c.appended ? 1u : 0u));
  }
  {
    const auto chain = make_chain();
    EXPECT_EQ(chain->contract->on_chain_commit(next), c.commit)
        << "TemplateContract::on_chain_commit";
  }
  {
    const auto chain = make_chain();
    ASSERT_EQ(chain->contract->request_exit(car_.address(), kChannel),
              TemplateStatus::Ok);
    EXPECT_EQ(chain->contract->challenge(lot_.address(), next), c.challenge)
        << "TemplateContract::challenge";
  }
}

INSTANTIATE_TEST_SUITE_P(ChannelRule, EveryCaller, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace tinyevm::channel
