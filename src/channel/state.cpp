#include "channel/state.hpp"

#include <algorithm>
#include <stdexcept>

namespace tinyevm::channel {

rlp::Bytes ChannelState::encode() const {
  return rlp::encode(rlp::Item::list({
      rlp::Item::quantity(channel_id),
      rlp::Item::quantity(U256{sequence}),
      rlp::Item::quantity(paid_total),
      rlp::Item::quantity(sensor_data),
      rlp::Item::bytes(prev_hash),
  }));
}

std::optional<ChannelState> ChannelState::decode(
    std::span<const std::uint8_t> data) {
  const auto item = rlp::decode(data);
  if (!item || !item->is_list()) return std::nullopt;
  const auto& fields = item->as_list();
  if (fields.size() != 5) return std::nullopt;
  for (unsigned i = 0; i < 4; ++i) {
    if (fields[i].is_list()) return std::nullopt;
  }
  if (fields[4].is_list() || fields[4].as_bytes().size() != 32) {
    return std::nullopt;
  }
  try {
    ChannelState out;
    out.channel_id = fields[0].as_quantity();
    const U256 seq = fields[1].as_quantity();
    if (!seq.fits_u64()) return std::nullopt;
    out.sequence = seq.as_u64();
    out.paid_total = fields[2].as_quantity();
    out.sensor_data = fields[3].as_quantity();
    std::copy(fields[4].as_bytes().begin(), fields[4].as_bytes().end(),
              out.prev_hash.begin());
    return out;
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

Hash256 ChannelState::digest() const { return keccak256(encode()); }

std::optional<SignedState::Signers> SignedState::recover_signers() const {
  const Hash256 d = state.digest();
  const auto sender = secp256k1::recover_address(d, sender_sig);
  const auto receiver = secp256k1::recover_address(d, receiver_sig);
  if (!sender || !receiver) return std::nullopt;
  return Signers{*sender, *receiver};
}

bool SignedState::verify(const Address& sender,
                         const Address& receiver) const {
  const auto signers = recover_signers();
  return signers && signers->sender == sender &&
         signers->receiver == receiver;
}

StepStatus step(const Head& head, const ChannelState& next) {
  if (next.channel_id != head.channel_id) return StepStatus::WrongChannel;
  if (head.link && next.prev_hash != *head.link) return StepStatus::BrokenLink;
  if (next.sequence <= head.sequence) return StepStatus::StaleSequence;
  if (next.paid_total < head.paid_total) return StepStatus::ShrinkingTotal;
  if (head.cap && next.paid_total > *head.cap) return StepStatus::OverCap;
  return StepStatus::Ok;
}

Head SideChainLog::head_of(const U256& channel_id) const {
  Head head;
  head.channel_id = channel_id;
  head.link = head_;
  // Sequence numbers are per-channel logical clocks: a fresh channel
  // restarts at 1 ("the nodes can open and close an arbitrary number of
  // payment channels", §IV-A).
  const auto latest = std::find_if(
      entries_.rbegin(), entries_.rend(),
      [&](const SignedState& e) { return e.state.channel_id == channel_id; });
  if (latest != entries_.rend()) {
    head.sequence = latest->state.sequence;
    head.paid_total = latest->state.paid_total;
  }
  return head;
}

bool SideChainLog::append(const SignedState& signed_state) {
  const ChannelState& state = signed_state.state;
  if (step(head_of(state.channel_id), state) != StepStatus::Ok) return false;
  head_ = state.digest();
  entries_.push_back(signed_state);
  return true;
}

bool SideChainLog::audit(const Hash256& genesis) const {
  SideChainLog replay(genesis);
  for (const SignedState& entry : entries_) {
    if (!replay.append(entry)) return false;
  }
  return replay.head() == head_;
}

}  // namespace tinyevm::channel
