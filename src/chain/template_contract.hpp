// The on-chain Template contract (paper §IV-A/C/E, Listing 1).
//
// Published once by the service provider, it bridges the main chain and the
// off-chain payment channels:
//   * the payer locks a deposit (the channel budget + insurance),
//   * CreatePaymentChannel mints channel ids from a monotonic logical clock,
//   * OnChainCommit accepts doubly-signed channel states, validates the
//     sequence number against the highest seen, audits the cumulative sum
//     against the locked funds, and appends the state to a Merkle-Sum-Tree,
//   * Challenge lets the counterparty override a stale commit with a
//     higher-sequence signed state and claim the insurance,
//   * Exit starts the challenge period; Finalize (after it expires) settles
//     balances and dissolves the channel.
//
// All timing is logical: block height drives the challenge period, sequence
// numbers drive state ordering — no synchronized clocks anywhere.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "chain/chain.hpp"
#include "channel/merkle_sum_tree.hpp"
#include "channel/state.hpp"

namespace tinyevm::chain {

/// Result codes surfaced to callers (and the tests).
enum class TemplateStatus : std::uint8_t {
  Ok,
  UnknownChannel,
  BadSignature,        ///< signer pair does not match the channel parties
  StaleSequence,       ///< sequence not above the highest committed
  OverLockedFunds,     ///< cumulative sum exceeds the deposit (fraud)
  ChannelClosed,
  NotInChallenge,      ///< challenge/finalize outside the window
  ChallengeActive,     ///< finalize before the window expired
  InsufficientDeposit,
  NotParticipant,
};

[[nodiscard]] std::string_view to_string(TemplateStatus s);

struct ChannelRecord {
  Address sender{};    ///< payer (the car)
  Address receiver{};  ///< payee (the parking service)
  U256 deposit;        ///< locked channel budget
  U256 insurance;      ///< slashable bond, part of the deposit
  std::uint64_t highest_sequence = 0;
  U256 committed_total;        ///< paid_total of the best commit
  Hash256 committed_digest{};  ///< digest of the best committed state
  U256 committed_delta;        ///< value carried by the latest tree leaf
  std::optional<std::size_t> latest_leaf;  ///< index in the sum tree
  bool exit_requested = false;
  std::uint64_t challenge_deadline = 0;  ///< block height
  bool closed = false;
};

/// A verifiable receipt for one on-chain commit: the leaf the state landed
/// in, its membership proof, and the root/cap to audit against. Nodes use
/// this to confirm their payment is in the tree and the sum condition
/// holds ("the sum value is used as a validation condition along with the
/// hash value", §IV-E).
struct CommitReceipt {
  std::size_t leaf_index = 0;
  U256 leaf_value;       ///< delta this commit added
  Hash256 leaf_digest{}; ///< the committed state's digest
  channel::Proof proof;
  channel::SumNode root;
  U256 cap;  ///< the channel's locked funds

  [[nodiscard]] bool verify() const {
    return channel::MerkleSumTree::verify(root, leaf_value, leaf_digest,
                                          proof, cap);
  }
};

/// Native implementation of the factory/template contract. Registered on
/// the simulated chain at a fixed address; motes interact with it through
/// signed transactions exactly as they would with deployed Solidity.
class TemplateContract : public NativeContract {
 public:
  /// `challenge_period` in blocks ("in order of days" on mainnet; the
  /// simulation uses block counts directly).
  TemplateContract(Blockchain& chain, Address self, Address receiver,
                   std::uint64_t challenge_period);

  // ---- direct (typed) interface, used by tests and the device runtime ----

  /// Locks `amount` of `payer`'s on-chain funds into the contract;
  /// `insurance` of it is the slashable bond.
  TemplateStatus deposit(const Address& payer, const U256& amount,
                         const U256& insurance);

  /// Mints the next channel id from the logical clock.
  std::optional<U256> create_payment_channel(const Address& payer);

  /// Commits a doubly-signed off-chain state.
  TemplateStatus on_chain_commit(const channel::SignedState& state);

  /// Counterparty disputes with a strictly newer signed state during the
  /// challenge window; success slashes the misbehaving party's insurance to
  /// the challenger.
  TemplateStatus challenge(const Address& challenger,
                           const channel::SignedState& newer_state);

  /// Starts the challenge window for a channel (either party).
  TemplateStatus request_exit(const Address& requester, const U256& channel_id);

  /// After the window: pays the receiver the committed total, refunds the
  /// remainder (and unclaimed insurance) to the sender, closes the channel.
  TemplateStatus finalize(const U256& channel_id);

  // ---- views ----
  /// Membership receipt for a channel's latest commit; nullopt when the
  /// channel has no commit yet.
  [[nodiscard]] std::optional<CommitReceipt> prove_latest_commit(
      const U256& channel_id) const;

  [[nodiscard]] const ChannelRecord* channel(const U256& id) const;
  [[nodiscard]] std::uint64_t logical_clock() const { return logical_clock_; }
  [[nodiscard]] channel::SumNode side_chain_root() const {
    return tree_.root();
  }
  [[nodiscard]] U256 locked_of(const Address& payer) const;
  [[nodiscard]] const Address& receiver() const { return receiver_; }
  [[nodiscard]] const Address& address() const { return self_; }
  /// Root hash published with the template; anchors every mote's
  /// side-chain log (genesis link).
  [[nodiscard]] Hash256 genesis_anchor() const;

  // ---- NativeContract (ABI) interface ----
  std::pair<bool, evm::Bytes> invoke(const Address& caller, const U256& value,
                                     std::span<const std::uint8_t>
                                         data) override;

 private:
  /// Signatures, then channel::step against the channel's best commit.
  TemplateStatus validate_commit(const channel::SignedState& state,
                                 const ChannelRecord& rec) const;
  /// Appends a validated state's delta to the sum tree and makes it the
  /// channel's best commit.
  void record_commit(const channel::SignedState& state, ChannelRecord& rec);

  Blockchain& chain_;
  Address self_;
  Address receiver_;
  std::uint64_t challenge_period_;
  std::uint64_t logical_clock_ = 0;
  std::map<U256, ChannelRecord> channels_;
  std::map<Address, U256> locked_;     ///< per-payer escrow not yet assigned
  std::map<Address, U256> insurance_;  ///< per-payer slashable bond
  channel::MerkleSumTree tree_;
};

}  // namespace tinyevm::chain
