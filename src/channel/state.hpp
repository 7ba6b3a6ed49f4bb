// Off-chain channel state and signed payment messages.
//
// A payment is a "stand-alone artifact that can claim money from the
// main-chain" (paper §IV-D): it binds the channel id, a monotone sequence
// number (the logical clock), the cumulative amount paid, and the sensor
// data the price was derived from, all under both parties' ECDSA
// signatures. Sequence numbers give causal order without synchronized time.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/hash.hpp"
#include "crypto/secp256k1.hpp"
#include "rlp/rlp.hpp"
#include "u256/u256.hpp"

namespace tinyevm::channel {

using secp256k1::Address;
using secp256k1::PrivateKey;
using secp256k1::Signature;

/// One off-chain channel state (also the payment message format — each
/// payment is the next state of the channel).
struct ChannelState {
  U256 channel_id;
  std::uint64_t sequence = 0;  ///< logical clock; strictly increasing
  U256 paid_total;             ///< cumulative, never decreasing
  U256 sensor_data;            ///< reading the price was computed from
  Hash256 prev_hash{};         ///< hash link to the previous state

  /// Canonical RLP encoding (stable across devices).
  [[nodiscard]] rlp::Bytes encode() const;
  static std::optional<ChannelState> decode(
      std::span<const std::uint8_t> data);

  /// keccak256 of the canonical encoding — what both parties sign.
  [[nodiscard]] Hash256 digest() const;

  friend bool operator==(const ChannelState& a,
                         const ChannelState& b) = default;
};

/// A channel state plus the signatures that make it enforceable on-chain.
struct SignedState {
  ChannelState state;
  Signature sender_sig;
  Signature receiver_sig;

  /// Recovers both signer addresses from the state digest; nullopt when
  /// either signature is malformed.
  struct Signers {
    Address sender;
    Address receiver;
  };
  [[nodiscard]] std::optional<Signers> recover_signers() const;

  /// True when the signatures recover exactly (sender, receiver).
  [[nodiscard]] bool verify(const Address& sender,
                            const Address& receiver) const;

  /// Bit-identical comparison (state fields and both signatures) — what
  /// the hub-vs-serial differential tests assert log entry by log entry.
  friend bool operator==(const SignedState& a, const SignedState& b) = default;
};

/// What a channel has agreed so far — the state its next state must
/// succeed. Off chain the link is the log head; on chain it is absent
/// (commits may skip states) and the deposit caps the total instead.
struct Head {
  U256 channel_id;
  std::uint64_t sequence = 0;    ///< 0 = no state yet
  U256 paid_total;
  std::optional<Hash256> link;   ///< expected prev_hash; absent on chain
  std::optional<U256> cap;       ///< the deposit; present only on chain
};

/// Why `step` refused a state, in the order it checks.
enum class StepStatus : std::uint8_t {
  Ok,
  WrongChannel,    ///< state names another channel
  BrokenLink,      ///< prev_hash does not extend the head
  StaleSequence,   ///< sequence does not advance the logical clock
  ShrinkingTotal,  ///< paid_total below the head's
  OverCap,         ///< paid_total above the deposit
};

/// The channel transition rule, the one place it is written: `next` may
/// follow `head` when it names the same channel, extends the link (when
/// the caller tracks one), advances the sequence, never pays less, and
/// stays within the cap (when the caller knows one). Pure: no ECDSA.
[[nodiscard]] StepStatus step(const Head& head, const ChannelState& next);

/// Device-local, hash-linked side-chain log: "each execution of the payment
/// channel extends the local (side-chain) log of the node, which links each
/// state with the previous" (§IV-D). One log may hold several channels in
/// turn; each keeps its own logical clock.
class SideChainLog {
 public:
  /// The genesis link anchors at the on-chain root published with the
  /// template, binding the log to the main chain.
  explicit SideChainLog(const Hash256& genesis) : head_(genesis) {}

  /// Hash expected in the next state's prev_hash field.
  [[nodiscard]] const Hash256& head() const { return head_; }

  /// `channel_id`'s head in this log: its latest state's sequence and
  /// total (zero when it has none), linked to the log head.
  [[nodiscard]] Head head_of(const U256& channel_id) const;

  /// Appends when `step` accepts the state against its channel's head;
  /// false otherwise. Signatures are the caller's concern.
  bool append(const SignedState& signed_state);

  [[nodiscard]] const std::vector<SignedState>& entries() const {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::optional<SignedState> latest() const {
    if (entries_.empty()) return std::nullopt;
    return entries_.back();
  }

  /// Replays the log from the genesis anchor through `step` — "ensures
  /// that no transactions are omitted".
  [[nodiscard]] bool audit(const Hash256& genesis) const;

 private:
  Hash256 head_;
  std::vector<SignedState> entries_;
};

}  // namespace tinyevm::channel
