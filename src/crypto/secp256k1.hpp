// secp256k1 elliptic-curve arithmetic and ECDSA, implemented from scratch.
//
// TinyEVM's off-chain payments are "stand-alone artifacts that can claim
// money from the main-chain" (paper §IV-D) — their security is entirely the
// ECDSA signatures exchanged between the two motes, so this repo implements
// real signatures rather than stubs. The curve is Ethereum's secp256k1
// (y^2 = x^3 + 7 over F_p, p = 2^256 - 2^32 - 977); signing uses RFC-6979
// deterministic nonces and Ethereum's low-s normalization, and public-key
// recovery gives the ecrecover semantics used to verify payments by address.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "crypto/hash.hpp"
#include "u256/u256.hpp"

namespace tinyevm::secp256k1 {

/// Field prime p = 2^256 - 2^32 - 977.
U256 field_prime();
/// Group order n.
U256 group_order();

/// Element of F_p, always fully reduced (< p), in four 64-bit limbs.
/// Products are schoolbook 4x4 limb multiplies (squares take 10 limb
/// multiplies, not 16) whose high half folds back limb by limb through
/// 2^256 ≡ 2^32 + 977. Add, subtract, negate, multiply, square and inverse
/// run without data-dependent branches.
class Fe {
 public:
  constexpr Fe() = default;
  /// Value must already be < p (checked by assert in debug builds).
  explicit Fe(const U256& v);
  static Fe from_reduced(const U256& v);  ///< reduces v mod p first

  [[nodiscard]] const U256& value() const { return v_; }
  [[nodiscard]] bool is_zero() const { return v_.is_zero(); }

  friend Fe operator+(const Fe& a, const Fe& b);
  friend Fe operator-(const Fe& a, const Fe& b);
  friend Fe operator*(const Fe& a, const Fe& b);
  friend bool operator==(const Fe& a, const Fe& b) = default;

  [[nodiscard]] Fe square() const;
  /// Multiplicative inverse a^(p-2) by the standard secp256k1 addition
  /// chain (255 squarings, 15 multiplies); inverse of 0 is 0.
  [[nodiscard]] Fe inverse() const;
  /// Square root if it exists: p ≡ 3 mod 4, so a^((p+1)/4), by the matching
  /// addition chain (253 squarings, 13 multiplies).
  [[nodiscard]] std::optional<Fe> sqrt() const;
  [[nodiscard]] Fe negate() const;

 private:
  U256 v_;
};

/// Affine point; `infinity` flag models the identity.
struct AffinePoint {
  Fe x;
  Fe y;
  bool infinity = true;

  [[nodiscard]] bool on_curve() const;
  friend bool operator==(const AffinePoint& a, const AffinePoint& b) = default;
};

/// Jacobian projective point (X/Z^2, Y/Z^3) for add/double without per-op
/// inversions.
struct JacobianPoint {
  Fe x;
  Fe y;
  Fe z;  // z == 0 encodes infinity

  static JacobianPoint infinity();
  static JacobianPoint from_affine(const AffinePoint& p);
  [[nodiscard]] AffinePoint to_affine() const;
};

/// Curve generator G.
AffinePoint generator();

JacobianPoint add(const JacobianPoint& p, const JacobianPoint& q);
JacobianPoint double_point(const JacobianPoint& p);
/// Scalar multiplication k*P for any 256-bit k. For P = G it is a
/// fixed-base comb over a 60 KB table of j·16^i·G (built on first use):
/// 64 mixed additions, constant-time in k, which is what key derivation and
/// signing use. Any other P takes shamir_mul's variable-time path, so pass
/// it only public scalars.
JacobianPoint scalar_mul(const U256& k, const AffinePoint& p);
/// k1*G + k2*P in one pass: an interleaved wNAF multiply sharing one chain
/// of doublings, with window 8 over a static table of odd multiples of G
/// (4 KB) and window 5 over odd multiples of P computed per call. Variable
/// time: it serves verify and recover, whose scalars are public.
JacobianPoint shamir_mul(const U256& k1, const U256& k2, const AffinePoint& p);

/// Scalar-field product a*b mod n (specialised folding reduction through
/// 2^256 - n < 2^129; branch-free).
U256 mul_mod_n(const U256& a, const U256& b);
/// Scalar-field inverse a^(n-2) mod n (Fermat, fixed 4-bit window over the
/// public exponent; inverse of 0 is 0).
U256 inv_mod_n(const U256& a);

/// 20-byte Ethereum address.
using Address = std::array<std::uint8_t, 20>;

struct PublicKey {
  AffinePoint point;

  /// 64-byte uncompressed X||Y (no 0x04 tag — Ethereum convention for
  /// address derivation).
  [[nodiscard]] std::array<std::uint8_t, 64> serialize() const;
  /// keccak256(X||Y)[12..31].
  [[nodiscard]] Address address() const;

  friend bool operator==(const PublicKey& a, const PublicKey& b) = default;
};

class PrivateKey {
 public:
  /// Key must be in [1, n-1]; returns nullopt otherwise.
  static std::optional<PrivateKey> from_bytes(const Hash256& bytes);
  static std::optional<PrivateKey> from_scalar(const U256& k);
  /// Deterministic test/demo key derived by hashing a seed string until a
  /// valid scalar appears (not for production use, stated in README).
  static PrivateKey from_seed(std::string_view seed);

  [[nodiscard]] const U256& scalar() const { return d_; }
  [[nodiscard]] PublicKey public_key() const;
  [[nodiscard]] Address address() const { return public_key().address(); }

 private:
  explicit PrivateKey(const U256& d) : d_(d) {}
  U256 d_;
};

struct Signature {
  U256 r;
  U256 s;
  /// Recovery id (0 or 1): parity of R.y after low-s normalization, as in
  /// Ethereum's `v = 27 + recovery_id`.
  std::uint8_t recovery_id = 0;

  /// 65-byte r||s||v wire form used in the channel messages.
  [[nodiscard]] std::array<std::uint8_t, 65> serialize() const;
  static std::optional<Signature> deserialize(
      std::span<const std::uint8_t> bytes);

  friend bool operator==(const Signature& a, const Signature& b) = default;
};

/// ECDSA over a 32-byte digest with an RFC-6979 deterministic nonce.
/// The returned signature is low-s normalized.
Signature sign(const Hash256& digest, const PrivateKey& key);

/// Standard ECDSA verification (accepts any s, not just low-s).
bool verify(const Hash256& digest, const Signature& sig, const PublicKey& pub);

/// Recovers the signing public key (ecrecover); nullopt when the signature
/// does not correspond to a valid curve point.
std::optional<PublicKey> recover(const Hash256& digest, const Signature& sig);

/// Convenience: recover + address extraction; zero address on failure is
/// never returned (nullopt instead).
std::optional<Address> recover_address(const Hash256& digest,
                                       const Signature& sig);

/// RFC-6979 nonce for (key, digest) — exposed for test vectors.
U256 rfc6979_nonce(const U256& key, const Hash256& digest);

}  // namespace tinyevm::secp256k1
