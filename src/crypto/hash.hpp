// Hash primitives used throughout TinyEVM.
//
// Keccak-256 uses the original Keccak padding (0x01) as Ethereum does — the
// paper implements it in software on the MCU because the CC2538 crypto engine
// lacks it (Table V). SHA-256 matches FIPS 180-4 and backs HMAC/RFC-6979.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace tinyevm {

using Hash256 = std::array<std::uint8_t, 32>;

/// Ethereum-style Keccak-256 (original Keccak submission padding, not the
/// NIST SHA3-256 variant).
[[nodiscard]] Hash256 keccak256(std::span<const std::uint8_t> data);
[[nodiscard]] Hash256 keccak256(std::string_view data);

/// FIPS 180-4 SHA-256.
[[nodiscard]] Hash256 sha256(std::span<const std::uint8_t> data);
[[nodiscard]] Hash256 sha256(std::string_view data);

/// HMAC-SHA-256 (RFC 2104), used by the RFC-6979 deterministic nonce
/// generator in the ECDSA signer.
[[nodiscard]] Hash256 hmac_sha256(std::span<const std::uint8_t> key,
                                  std::span<const std::uint8_t> message);

/// Incremental SHA-256, needed by HMAC and available for streaming use.
class Sha256 {
 public:
  Sha256();
  void update(std::span<const std::uint8_t> data);
  [[nodiscard]] Hash256 finalize();

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
};

/// HMAC-SHA-256 under one key, for many messages: the key's padded blocks
/// are hashed once, and each mac() starts from those two states.
class HmacSha256 {
 public:
  explicit HmacSha256(std::span<const std::uint8_t> key);
  [[nodiscard]] Hash256 mac(std::span<const std::uint8_t> message) const;

 private:
  Sha256 inner_;  // after the key XOR ipad block
  Sha256 outer_;  // after the key XOR opad block
};

/// Hex rendering for diagnostics and test vectors ("deadbeef", no prefix).
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> data);
/// Parses bare hex ("0x" prefix allowed); throws std::invalid_argument on
/// malformed input.
[[nodiscard]] std::vector<std::uint8_t> from_hex(std::string_view hex);

}  // namespace tinyevm
