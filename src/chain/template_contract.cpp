#include "chain/template_contract.hpp"

#include "abi/abi.hpp"

namespace tinyevm::chain {

std::string_view to_string(TemplateStatus s) {
  switch (s) {
    case TemplateStatus::Ok: return "ok";
    case TemplateStatus::UnknownChannel: return "unknown channel";
    case TemplateStatus::BadSignature: return "bad signature";
    case TemplateStatus::StaleSequence: return "stale sequence";
    case TemplateStatus::OverLockedFunds: return "over locked funds";
    case TemplateStatus::ChannelClosed: return "channel closed";
    case TemplateStatus::NotInChallenge: return "not in challenge window";
    case TemplateStatus::ChallengeActive: return "challenge window active";
    case TemplateStatus::InsufficientDeposit: return "insufficient deposit";
    case TemplateStatus::NotParticipant: return "not a participant";
  }
  return "unknown";
}

TemplateContract::TemplateContract(Blockchain& chain, Address self,
                                   Address receiver,
                                   std::uint64_t challenge_period)
    : chain_(chain),
      self_(self),
      receiver_(receiver),
      challenge_period_(challenge_period) {}

Hash256 TemplateContract::genesis_anchor() const {
  // Binds the off-chain logs to this specific template instance.
  std::array<std::uint8_t, 40> seed{};
  std::copy(self_.begin(), self_.end(), seed.begin());
  std::copy(receiver_.begin(), receiver_.end(), seed.begin() + 20);
  return keccak256(seed);
}

TemplateStatus TemplateContract::deposit(const Address& payer,
                                         const U256& amount,
                                         const U256& insurance) {
  if (insurance > amount) return TemplateStatus::InsufficientDeposit;
  if (!chain_.transfer(payer, self_, amount)) {
    return TemplateStatus::InsufficientDeposit;
  }
  locked_[payer] += amount - insurance;
  insurance_[payer] += insurance;
  return TemplateStatus::Ok;
}

std::optional<U256> TemplateContract::create_payment_channel(
    const Address& payer) {
  const auto it = locked_.find(payer);
  if (it == locked_.end() || it->second.is_zero()) return std::nullopt;

  logical_clock_ += 1;  // Listing 1: Logical-Clock += 1
  const U256 id{logical_clock_};
  ChannelRecord rec;
  rec.sender = payer;
  rec.receiver = receiver_;
  rec.deposit = it->second;
  rec.insurance = insurance_[payer];
  channels_[id] = rec;
  return id;
}

TemplateStatus TemplateContract::validate_commit(
    const channel::SignedState& state, const ChannelRecord& rec) const {
  if (rec.closed) return TemplateStatus::ChannelClosed;
  // Both parties must have signed exactly this digest.
  if (!state.verify(rec.sender, rec.receiver)) {
    return TemplateStatus::BadSignature;
  }
  // The off-chain transition rule against the best commit, without the
  // hash link (a commit may skip states) and capped by the deposit.
  const channel::Head head{.channel_id = state.state.channel_id,
                           .sequence = rec.highest_sequence,
                           .paid_total = rec.committed_total,
                           .link = std::nullopt,
                           .cap = rec.deposit};
  const channel::StepStatus status = channel::step(head, state.state);
  if (status == channel::StepStatus::StaleSequence) {
    return TemplateStatus::StaleSequence;
  }
  // A shrinking total or one over the deposit: the sum audit fails.
  if (status != channel::StepStatus::Ok) {
    return TemplateStatus::OverLockedFunds;
  }
  return TemplateStatus::Ok;
}

void TemplateContract::record_commit(const channel::SignedState& state,
                                     ChannelRecord& rec) {
  // "Reporting a state with a higher sequence number accumulates the
  // changes of the previous states" — the delta joins the sum tree so the
  // root always carries the total committed value.
  const Hash256 digest = state.state.digest();
  const U256 delta = state.state.paid_total - rec.committed_total;
  rec.latest_leaf = tree_.append(delta, digest);
  rec.committed_delta = delta;
  rec.highest_sequence = state.state.sequence;
  rec.committed_total = state.state.paid_total;
  rec.committed_digest = digest;
}

TemplateStatus TemplateContract::on_chain_commit(
    const channel::SignedState& state) {
  const auto it = channels_.find(state.state.channel_id);
  if (it == channels_.end()) return TemplateStatus::UnknownChannel;
  ChannelRecord& rec = it->second;

  const TemplateStatus status = validate_commit(state, rec);
  if (status != TemplateStatus::Ok) return status;
  record_commit(state, rec);
  return TemplateStatus::Ok;
}

std::optional<CommitReceipt> TemplateContract::prove_latest_commit(
    const U256& channel_id) const {
  const auto it = channels_.find(channel_id);
  if (it == channels_.end() || !it->second.latest_leaf) return std::nullopt;
  const ChannelRecord& rec = it->second;
  auto proof = tree_.prove(*rec.latest_leaf);
  if (!proof) return std::nullopt;
  CommitReceipt receipt;
  receipt.leaf_index = *rec.latest_leaf;
  receipt.leaf_value = rec.committed_delta;
  receipt.leaf_digest = rec.committed_digest;
  receipt.proof = std::move(*proof);
  receipt.root = tree_.root();
  // The audit cap is the total value locked across the template: the sum
  // of every channel's committed value may never exceed the escrowed
  // deposits held by this contract.
  receipt.cap = chain_.balance_of(self_);
  return receipt;
}

TemplateStatus TemplateContract::challenge(
    const Address& challenger, const channel::SignedState& newer_state) {
  const auto it = channels_.find(newer_state.state.channel_id);
  if (it == channels_.end()) return TemplateStatus::UnknownChannel;
  ChannelRecord& rec = it->second;

  if (challenger != rec.sender && challenger != rec.receiver) {
    return TemplateStatus::NotParticipant;
  }
  if (!rec.exit_requested || rec.closed) {
    return TemplateStatus::NotInChallenge;
  }
  if (chain_.height() > rec.challenge_deadline) {
    return TemplateStatus::NotInChallenge;
  }
  const TemplateStatus status = validate_commit(newer_state, rec);
  if (status != TemplateStatus::Ok) return status;

  // Fraud proven: the party that tried to settle on the stale state loses.
  // Only the payer posts insurance in this template (Listing 1), so the
  // bond is slashed to the challenger when the payer cheated; a cheating
  // receiver simply loses the stale claim. Either way the newer state wins.
  const Address cheat = challenger == rec.sender ? rec.receiver : rec.sender;
  if (cheat == rec.sender) {
    U256& bond = insurance_[rec.sender];
    if (!bond.is_zero()) {
      chain_.transfer(self_, challenger, bond);
      bond = U256{};
      rec.insurance = U256{};
    }
  }

  record_commit(newer_state, rec);
  return TemplateStatus::Ok;
}

TemplateStatus TemplateContract::request_exit(const Address& requester,
                                              const U256& channel_id) {
  const auto it = channels_.find(channel_id);
  if (it == channels_.end()) return TemplateStatus::UnknownChannel;
  ChannelRecord& rec = it->second;
  if (rec.closed) return TemplateStatus::ChannelClosed;
  if (requester != rec.sender && requester != rec.receiver) {
    return TemplateStatus::NotParticipant;
  }
  rec.exit_requested = true;
  rec.challenge_deadline = chain_.height() + challenge_period_;
  return TemplateStatus::Ok;
}

TemplateStatus TemplateContract::finalize(const U256& channel_id) {
  const auto it = channels_.find(channel_id);
  if (it == channels_.end()) return TemplateStatus::UnknownChannel;
  ChannelRecord& rec = it->second;
  if (rec.closed) return TemplateStatus::ChannelClosed;
  if (!rec.exit_requested) return TemplateStatus::NotInChallenge;
  if (chain_.height() <= rec.challenge_deadline) {
    return TemplateStatus::ChallengeActive;
  }

  // Settle: receiver gets the committed total, sender the remainder plus
  // any surviving insurance.
  chain_.transfer(self_, rec.receiver, rec.committed_total);
  const U256 refund = rec.deposit - rec.committed_total;
  U256& bond = insurance_[rec.sender];
  chain_.transfer(self_, rec.sender, refund + bond);
  locked_[rec.sender] -= rec.deposit;
  bond = U256{};
  rec.closed = true;
  return TemplateStatus::Ok;
}

const ChannelRecord* TemplateContract::channel(const U256& id) const {
  const auto it = channels_.find(id);
  return it == channels_.end() ? nullptr : &it->second;
}

U256 TemplateContract::locked_of(const Address& payer) const {
  const auto it = locked_.find(payer);
  return it == locked_.end() ? U256{} : it->second;
}

// ---- ABI dispatch ----
//
// Wire interface used when motes interact via signed transactions:
//   deposit(uint256 insurance)                      payable
//   createPaymentChannel()                          -> uint256 id
//   commit(bytes state, bytes sigS, bytes sigR)
//   challenge(bytes state, bytes sigS, bytes sigR)
//   exit(uint256 id)
//   finalize(uint256 id)
//   logicalClock()                                  -> uint256

std::pair<bool, evm::Bytes> TemplateContract::invoke(
    const Address& caller, const U256& value,
    std::span<const std::uint8_t> data) {
  if (data.size() < 4) return {false, {}};
  const std::array<std::uint8_t, 4> sel{data[0], data[1], data[2], data[3]};
  abi::Decoder args(data.subspan(4));

  auto ok_uint = [](const U256& v) {
    const auto w = v.to_word();
    return std::make_pair(true, evm::Bytes{w.begin(), w.end()});
  };
  auto status_result = [](TemplateStatus s) {
    const auto w = U256{static_cast<std::uint64_t>(s)}.to_word();
    return std::make_pair(s == TemplateStatus::Ok,
                          evm::Bytes{w.begin(), w.end()});
  };
  auto parse_signed_state =
      [&args]() -> std::optional<channel::SignedState> {
    const auto state_bytes = args.read_bytes();
    const auto sig_s = args.read_bytes();
    const auto sig_r = args.read_bytes();
    if (!state_bytes || !sig_s || !sig_r) return std::nullopt;
    const auto state = channel::ChannelState::decode(*state_bytes);
    const auto sender_sig = secp256k1::Signature::deserialize(*sig_s);
    const auto receiver_sig = secp256k1::Signature::deserialize(*sig_r);
    if (!state || !sender_sig || !receiver_sig) return std::nullopt;
    return channel::SignedState{*state, *sender_sig, *receiver_sig};
  };

  if (sel == abi::selector("deposit(uint256)")) {
    const auto insurance = args.read_uint();
    if (!insurance) return {false, {}};
    // `value` was already credited to this contract by the chain; record it.
    if (*insurance > value) return {false, {}};
    locked_[caller] += value - *insurance;
    insurance_[caller] += *insurance;
    return {true, {}};
  }
  if (sel == abi::selector("createPaymentChannel()")) {
    const auto id = create_payment_channel(caller);
    if (!id) return {false, {}};
    return ok_uint(*id);
  }
  if (sel == abi::selector("commit(bytes,bytes,bytes)")) {
    const auto state = parse_signed_state();
    if (!state) return {false, {}};
    return status_result(on_chain_commit(*state));
  }
  if (sel == abi::selector("challenge(bytes,bytes,bytes)")) {
    const auto state = parse_signed_state();
    if (!state) return {false, {}};
    return status_result(challenge(caller, *state));
  }
  if (sel == abi::selector("exit(uint256)")) {
    const auto id = args.read_uint();
    if (!id) return {false, {}};
    return status_result(request_exit(caller, *id));
  }
  if (sel == abi::selector("finalize(uint256)")) {
    const auto id = args.read_uint();
    if (!id) return {false, {}};
    return status_result(finalize(*id));
  }
  if (sel == abi::selector("logicalClock()")) {
    return ok_uint(U256{logical_clock_});
  }
  return {false, {}};
}

}  // namespace tinyevm::chain
