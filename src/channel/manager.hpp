// Device-side payment-channel endpoint.
//
// Each mote runs a ChannelEndpoint: a name, an ECDSA key, one local
// TinyEVM interpreter, and one ChannelSession (hub.hpp) holding the
// deployed template contract and the hash-linked side-chain log. The
// session machine itself lives in hub.hpp — the same state machine a
// ChannelHub runs thousands of times over — and the endpoint methods are
// thin adapters binding it to this device's key and Vm.
//
// Two ways to talk to a peer:
//   * the classic two-party calls (make_payment / countersign / accept),
//     which the Table IV / Figure 5 benches and the mote examples drive;
//   * the hub message API (open_request / propose_payment / close_request
//     → ChannelHub::handle → apply), where the endpoint exchanges only
//     serialized SignedState artifacts with a channel server.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "channel/hub.hpp"
#include "channel/state.hpp"
#include "channel/template_bytecode.hpp"
#include "evm/host.hpp"
#include "evm/vm.hpp"

namespace tinyevm::channel {

/// One side of a payment channel (e.g. the smart car, or the parking
/// sensor). Owns a key, a local TinyEVM, and the side-chain log.
class ChannelEndpoint {
 public:
  /// `engine` picks the local Vm's execution engine (EngineRegistry name);
  /// empty keeps the TinyEVM profile's default. Unknown names throw
  /// std::invalid_argument (from the Vm constructor).
  ChannelEndpoint(std::string name, const PrivateKey& key,
                  const Hash256& onchain_root, std::string engine = {});

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Address address() const { return key_.address(); }
  /// The registry name of the engine the local Vm resolved.
  [[nodiscard]] std::string_view engine_name() const {
    return vm_.engine_name();
  }
  [[nodiscard]] SensorBank& sensors() { return session_->sensors(); }
  [[nodiscard]] const SideChainLog& log() const { return session_->log(); }
  [[nodiscard]] const EndpointStats& stats() const {
    return session_->stats();
  }
  [[nodiscard]] const DeviceHost& host() const { return session_->host(); }
  [[nodiscard]] const U256& channel_id() const {
    return session_->channel_id();
  }

  /// Phase-2 step 1: execute the template bytecode locally to open the
  /// channel (constructor samples `sensor_device`). Returns the deployed
  /// contract address; nullopt when the VM run fails.
  std::optional<evm::Address> open_channel(const U256& channel_id,
                                           const U256& rate,
                                           std::uint32_t sensor_device);

  /// Phase-2 step 2 (payer side): run pay(units) on the local contract,
  /// then build and sign the next channel state. The peer countersigns.
  std::optional<SignedState> make_payment(const U256& units);

  /// Countersigns a peer-proposed state when channel::step accepts it
  /// against this channel's head in the local log (same channel, extends
  /// the log head, advances the sequence, never pays less).
  std::optional<Signature> countersign(const ChannelState& state);

  /// Records a fully-signed state into the local side-chain log: both
  /// signatures must recover and channel::step must accept the state.
  bool accept(const SignedState& signed_state);

  /// Runs close() on the local contract and returns the final state to be
  /// submitted on-chain.
  std::optional<SignedState> close_channel();

  /// Latest fully-signed state (what this node would submit on-chain).
  [[nodiscard]] std::optional<SignedState> final_state() const {
    return session_->log().latest();
  }

  /// The negotiated per-unit rate currently stored in the local contract.
  [[nodiscard]] U256 stored(std::uint8_t slot) const {
    return session_->stored(slot);
  }

  // -- Hub message API ------------------------------------------------------

  /// Opens the channel locally and emits the wire request for the hub to
  /// open its side; nullopt when the local open fails.
  std::optional<OpenRequest> open_request(const U256& channel_id,
                                          const U256& rate,
                                          std::uint32_t sensor_device);

  /// Runs one payment locally and wraps the half-signed state for the hub
  /// to countersign.
  std::optional<PaymentUpdate> propose_payment(const U256& units);

  /// The wire request closing this endpoint's current channel on the hub.
  [[nodiscard]] CloseRequest close_request() const {
    return CloseRequest{session_->channel_id()};
  }

  /// Ingests a hub response for this endpoint's channel, switching on the
  /// response kind: a countersigned payment state goes through accept()
  /// (both signatures recover, channel::step accepts it against the local
  /// log); open acknowledgements and hub-final close artifacts (hub
  /// signature only) just report success. False when the hub rejected the
  /// request, the channel id is not this endpoint's, or accept() refuses
  /// the state. The hub's signature is recovered, not yet checked against
  /// a known hub address.
  bool apply(const HubResponse& response);

 private:
  std::string name_;
  PrivateKey key_;
  evm::VmConfig config_;
  evm::Vm vm_;
  /// Behind unique_ptr so the endpoint stays movable: the session pins the
  /// SensorBank its DeviceHost references.
  std::unique_ptr<ChannelSession> session_;
};

}  // namespace tinyevm::channel
