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
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>

#include "crypto/hash.hpp"
#include "crypto/secp256k1_field.hpp"
#include "u256/u256.hpp"

namespace tinyevm::secp256k1 {

/// Field prime p = 2^256 - 2^32 - 977.
U256 field_prime();
/// Group order n.
U256 group_order();

/// Element of F_p in five limbs of 52 bits, value Σ n[i]·2^(52·i), with
/// lazy reduction. A normalised element is fully reduced (< p): limbs below
/// 2^52 and the top one below 2^48. Otherwise it carries a magnitude m,
/// meaning limb i ≤ 2·m·(2^52 − 1) (the top one ≤ 2·m·(2^48 − 1)), and the
/// value is only known mod p. Add, subtract, negate, mul_small and half
/// add magnitudes and never carry or reduce; multiply and square take
/// inputs of magnitude ≤ 8 and reduce through 2^256 ≡ 2^32 + 977 to
/// magnitude 1. value(), ==, is_zero() and normalized() fully reduce. Debug
/// builds track each element's magnitude and assert these bounds; release
/// builds carry only the limbs (40 bytes). Nothing here branches on data.
class Fe {
 public:
  using Limbs = std::array<std::uint64_t, 5>;

  constexpr Fe() = default;  ///< zero
  /// Value must already be < p (checked by assert in debug builds).
  explicit Fe(const U256& v);
  static Fe from_reduced(const U256& v);  ///< reduces v mod p first
  /// Raw limbs, which must satisfy the bounds of `magnitude` (tests and
  /// table scans build elements from limbs; release builds trust the
  /// bound).
  static Fe from_limbs(const Limbs& limbs, int magnitude);

  [[nodiscard]] const Limbs& limbs() const { return n_; }
  /// The fully reduced value.
  [[nodiscard]] U256 value() const;
  /// Variable time: almost every nonzero element is told apart from its
  /// lowest limb.
  [[nodiscard]] bool is_zero() const;
  /// The same element with canonical limbs (magnitude 1).
  [[nodiscard]] Fe normalized() const;

  friend Fe operator+(const Fe& a, const Fe& b);
  /// a − b for b of magnitude ≤ 1 (a product, a square or a normalised
  /// value); use a + b.negate(m) for larger b.
  friend Fe operator-(const Fe& a, const Fe& b);
  friend Fe operator*(const Fe& a, const Fe& b) {
    assert(a.magnitude() <= 8 && b.magnitude() <= 8);
    Fe r;
    field::mul_limbs(r.n_.data(), a.n_.data(), b.n_.data());
    r.set_magnitude(1);
    return r;
  }
  /// Compares the reduced values.
  friend bool operator==(const Fe& a, const Fe& b);

  [[nodiscard]] Fe square() const {
    assert(magnitude() <= 8);
    Fe r;
    field::sqr_limbs(r.n_.data(), n_.data());
    r.set_magnitude(1);
    return r;
  }
  /// −a for a of magnitude ≤ m: 2(m + 1)·p − a, of magnitude m + 1.
  [[nodiscard]] Fe negate(int m = 1) const;
  /// k·a for a small k (magnitude times k).
  [[nodiscard]] Fe mul_small(std::uint32_t k) const;
  /// a/2: adds p when a is odd, then shifts (magnitude m → m/2 + 1).
  [[nodiscard]] Fe half() const;
  /// mask ? a : b, limb by limb; mask is all ones or zero.
  static Fe select(std::uint64_t mask, const Fe& a, const Fe& b);
  /// Multiplicative inverse by the constant-time safegcd shared with
  /// inv_mod_n; inverse of 0 is 0.
  [[nodiscard]] Fe inverse() const;
  /// Square root if it exists: p ≡ 3 mod 4, so a^((p+1)/4), by the standard
  /// addition chain (253 squarings, 13 multiplies).
  [[nodiscard]] std::optional<Fe> sqrt() const;

 private:
#ifndef NDEBUG
  [[nodiscard]] int magnitude() const { return magnitude_; }
  void set_magnitude(int m);
#else
  [[nodiscard]] static int magnitude() { return 0; }
  static void set_magnitude(int) {}
#endif

  Limbs n_{};
#ifndef NDEBUG
  int magnitude_ = 0;
#endif
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
/// fixed-base comb over signed 5-bit digits of k and a 52 KB table of
/// j·32^i·G (52 windows of 16 affine entries, built on first use): 52 mixed
/// additions, constant-time in k, which is what key derivation and signing
/// use. Any other P takes shamir_mul's variable-time path, so pass it only
/// public scalars.
JacobianPoint scalar_mul(const U256& k, const AffinePoint& p);
/// k1*G + k2*P in one pass. Each scalar is split by the GLV endomorphism
/// (λ·(x, y) = (β·x, y)) into two halves below 2^129, and one chain of
/// ~130 doublings serves a 4-way interleaved wNAF: window 8 over static
/// tables of the odd multiples of G and of λG up to 127 (64 affine entries,
/// 5 KB each, built on first use), and window 5 over Q, 3Q, ..., 15Q and
/// their λ images, computed per call. Variable time: it serves verify and
/// recover, whose scalars are public.
JacobianPoint shamir_mul(const U256& k1, const U256& k2, const AffinePoint& p);

/// GLV split of k mod n: k ≡ k1 + λ·k2 (mod n), with k1 and k2 returned
/// mod n and each within 2^129 of zero (below 2^129, or above n − 2^129
/// for a negative half). Uses libsecp256k1's rounded g1/g2 lattice split.
struct LambdaSplit {
  U256 k1;
  U256 k2;
};
LambdaSplit split_lambda(const U256& k);
/// λ, the cube root of unity mod n that acts on points as (x, y) → (β·x, y).
U256 glv_lambda();

/// Scalar-field product a*b mod n (specialised folding reduction through
/// 2^256 - n < 2^129; branch-free).
U256 mul_mod_n(const U256& a, const U256& b);
/// Scalar-field inverse mod n (inverse of 0 is 0). Bernstein–Yang safegcd:
/// ten batches of 62 divsteps, a fixed count above the 590 that 256-bit
/// inputs need, over signed 62-bit limbs. Constant-time; the same routine
/// serves Fe::inverse.
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
