#include "crypto/secp256k1.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/hash.hpp"

namespace tinyevm::secp256k1 {
namespace {

U256 hex(std::string_view h) { return *U256::from_hex(h); }

TEST(Field, PrimeAndOrderSanity) {
  // p and n are both just below 2^256 and differ.
  EXPECT_EQ(field_prime().bit_length(), 256u);
  EXPECT_EQ(group_order().bit_length(), 256u);
  EXPECT_NE(field_prime(), group_order());
  // p = 2^256 - 2^32 - 977.
  EXPECT_EQ(U256::max() - field_prime(), (U256{1} << 32) + U256{977} - U256{1});
}

TEST(Field, AddSubInverse) {
  const Fe a{hex("1234567890abcdef")};
  const Fe b{hex("fedcba0987654321")};
  EXPECT_EQ((a + b) - b, a);
  EXPECT_EQ(a - a, Fe{U256{0}});
}

TEST(Field, AddWrapsModP) {
  const Fe pm1{field_prime() - U256{1}};
  EXPECT_EQ(pm1 + Fe{U256{1}}, Fe{U256{0}});
  EXPECT_EQ(pm1 + pm1, Fe{field_prime() - U256{2}});
}

TEST(Field, MulMatchesGenericModMul) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 50; ++i) {
    const U256 a{rng(), rng(), rng(), rng()};
    const U256 b{rng(), rng(), rng(), rng()};
    const U256 ra = a % field_prime();
    const U256 rb = b % field_prime();
    EXPECT_EQ((Fe{ra} * Fe{rb}).value(), U256::mulmod(ra, rb, field_prime()));
  }
}

TEST(Field, InverseProperty) {
  std::mt19937_64 rng(11);
  for (int i = 0; i < 10; ++i) {
    const U256 raw{rng(), rng(), rng(), rng()};
    const Fe a = Fe::from_reduced(raw);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.inverse(), Fe{U256{1}});
  }
}

TEST(Field, InverseOfZeroIsZero) {
  EXPECT_EQ(Fe{U256{0}}.inverse(), Fe{U256{0}});
}

TEST(Field, SqrtRoundTrip) {
  std::mt19937_64 rng(13);
  for (int i = 0; i < 10; ++i) {
    const Fe a = Fe::from_reduced(U256{rng(), rng(), rng(), rng()});
    const Fe square = a.square();
    const auto root = square.sqrt();
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(*root == a || *root == a.negate());
  }
}

TEST(Field, SqrtOfNonResidueFails) {
  // -1 is a non-residue mod p (p ≡ 3 mod 4).
  const Fe minus_one{field_prime() - U256{1}};
  EXPECT_FALSE(minus_one.sqrt().has_value());
}

TEST(Curve, GeneratorOnCurve) {
  EXPECT_TRUE(generator().on_curve());
}

TEST(Curve, KnownDoubleOfG) {
  // 2G has well-known coordinates.
  const auto two_g =
      scalar_mul(U256{2}, generator()).to_affine();
  EXPECT_EQ(two_g.x.value(),
            hex("c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709e"
                "e5"));
  EXPECT_EQ(two_g.y.value(),
            hex("1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe5"
                "2a"));
  EXPECT_TRUE(two_g.on_curve());
}

TEST(Curve, AddMatchesDouble) {
  const auto g = JacobianPoint::from_affine(generator());
  EXPECT_EQ(add(g, g).to_affine(), double_point(g).to_affine());
}

TEST(Curve, AdditionIsCommutativeAndAssociative) {
  const auto g = JacobianPoint::from_affine(generator());
  const auto g2 = double_point(g);
  const auto g3a = add(add(g, g), g).to_affine();
  const auto g3b = add(g, g2).to_affine();
  const auto g3c = add(g2, g).to_affine();
  EXPECT_EQ(g3a, g3b);
  EXPECT_EQ(g3b, g3c);
  EXPECT_TRUE(g3a.on_curve());
}

TEST(Curve, InfinityIsIdentity) {
  const auto g = JacobianPoint::from_affine(generator());
  EXPECT_EQ(add(g, JacobianPoint::infinity()).to_affine(), generator());
  EXPECT_EQ(add(JacobianPoint::infinity(), g).to_affine(), generator());
  EXPECT_TRUE(JacobianPoint::infinity().to_affine().infinity);
}

TEST(Curve, PointPlusNegationIsInfinity) {
  const auto g = generator();
  const AffinePoint neg_g{g.x, g.y.negate(), false};
  const auto sum = add(JacobianPoint::from_affine(g),
                       JacobianPoint::from_affine(neg_g));
  EXPECT_TRUE(sum.to_affine().infinity);
}

TEST(Curve, OrderTimesGIsInfinity) {
  EXPECT_TRUE(scalar_mul(group_order(), generator()).to_affine().infinity);
}

TEST(Curve, ScalarMulDistributes) {
  // (a+b)G == aG + bG for random small scalars.
  std::mt19937_64 rng(17);
  for (int i = 0; i < 5; ++i) {
    const U256 a{rng()};
    const U256 b{rng()};
    const auto lhs = scalar_mul(a + b, generator()).to_affine();
    const auto rhs = add(scalar_mul(a, generator()),
                         scalar_mul(b, generator()))
                         .to_affine();
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(Curve, ShamirMatchesSeparateMuls) {
  std::mt19937_64 rng(23);
  const auto p = scalar_mul(U256{12345}, generator()).to_affine();
  for (int i = 0; i < 5; ++i) {
    const U256 k1{rng(), 0, rng(), rng()};
    const U256 k2{0, rng(), rng(), rng()};
    const auto expected =
        add(scalar_mul(k1, generator()), scalar_mul(k2, p)).to_affine();
    EXPECT_EQ(shamir_mul(k1, k2, p).to_affine(), expected);
  }
}

TEST(Keys, WellKnownAddressOfKeyOne) {
  const auto key = PrivateKey::from_scalar(U256{1});
  ASSERT_TRUE(key.has_value());
  // Public key of d=1 is G itself.
  EXPECT_EQ(key->public_key().point, generator());
  EXPECT_EQ("0x" + to_hex(key->address()),
            "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf");
}

TEST(Keys, WellKnownAddressOfKeyTwo) {
  const auto key = PrivateKey::from_scalar(U256{2});
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ("0x" + to_hex(key->address()),
            "0x2b5ad5c4795c026514f8317c7a215e218dccd6cf");
}

TEST(Keys, RejectsZeroAndOrder) {
  EXPECT_FALSE(PrivateKey::from_scalar(U256{0}).has_value());
  EXPECT_FALSE(PrivateKey::from_scalar(group_order()).has_value());
  EXPECT_TRUE(PrivateKey::from_scalar(group_order() - U256{1}).has_value());
}

TEST(Keys, SeedDerivationIsDeterministic) {
  const auto a = PrivateKey::from_seed("parking-sensor");
  const auto b = PrivateKey::from_seed("parking-sensor");
  const auto c = PrivateKey::from_seed("smart-car");
  EXPECT_EQ(a.scalar(), b.scalar());
  EXPECT_NE(a.scalar(), c.scalar());
}

// RFC 6979 deterministic-nonce vectors for secp256k1 with SHA-256
// (the de-facto standard set used by trezor/bitcoin-core test suites).
struct Rfc6979Vector {
  const char* name;
  const char* key_hex;
  const char* message;
  const char* k_hex;
  const char* r_hex;
  const char* s_hex;
};

// Without a printer gtest dumps the struct's raw bytes (pointers) into the
// test's listed parameter, and the ctest name changes per build.
void PrintTo(const Rfc6979Vector& v, std::ostream* os) { *os << v.name; }

class Rfc6979Test : public ::testing::TestWithParam<Rfc6979Vector> {};

TEST_P(Rfc6979Test, NonceMatchesVector) {
  const auto& v = GetParam();
  const auto digest = sha256(v.message);
  EXPECT_EQ(rfc6979_nonce(hex(v.key_hex), digest), hex(v.k_hex));
}

TEST_P(Rfc6979Test, SignatureMatchesVector) {
  const auto& v = GetParam();
  const auto key = PrivateKey::from_scalar(hex(v.key_hex));
  ASSERT_TRUE(key.has_value());
  const auto digest = sha256(v.message);
  const Signature sig = sign(digest, *key);
  EXPECT_EQ(sig.r, hex(v.r_hex));
  EXPECT_EQ(sig.s, hex(v.s_hex));
  EXPECT_TRUE(verify(digest, sig, key->public_key()));
}

INSTANTIATE_TEST_SUITE_P(
    StandardVectors, Rfc6979Test,
    ::testing::Values(
        Rfc6979Vector{
            "key1_satoshi",
            "0000000000000000000000000000000000000000000000000000000000000001",
            "Satoshi Nakamoto",
            "8f8a276c19f4149656b280621e358cce24f5f52542772691ee69063b74f15d15",
            "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8",
            "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5"},
        Rfc6979Vector{
            "key1_tears_in_rain",
            "0000000000000000000000000000000000000000000000000000000000000001",
            "All those moments will be lost in time, like tears in rain. Time"
            " to die...",
            "38aa22d72376b4dbc472e06c3ba403ee0a394da63fc58d88686c611aba98d6b3",
            "8600dbd41e348fe5c9465ab92d23e3db8b98b873beecd930736488696438cb6b",
            "547fe64427496db33bf66019dacbf0039c04199abb0122918601db38a72cfc21"},
        Rfc6979Vector{
            "keyNminus1_satoshi",
            "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140",
            "Satoshi Nakamoto",
            "33a19b60e25fb6f4435af53a3d42d493644827367e6453928554f43e49aa6f90",
            "fd567d121db66e382991534ada77a6bd3106f0a1098c231e47993447cd6af2d0",
            "6b39cd0eb1bc8603e159ef5c20a5c8ad685a45b06ce9bebed3f153d10d93bed5"}));

TEST(Ecdsa, SignVerifyRoundTrip) {
  const auto key = PrivateKey::from_seed("round-trip");
  const auto digest = keccak256("payment #1: 50 wei");
  const Signature sig = sign(digest, key);
  EXPECT_TRUE(verify(digest, sig, key.public_key()));
}

TEST(Ecdsa, VerifyRejectsWrongDigest) {
  const auto key = PrivateKey::from_seed("tamper");
  const Signature sig = sign(keccak256("amount=5"), key);
  EXPECT_FALSE(verify(keccak256("amount=500"), sig, key.public_key()));
}

TEST(Ecdsa, VerifyRejectsWrongKey) {
  const auto alice = PrivateKey::from_seed("alice");
  const auto bob = PrivateKey::from_seed("bob");
  const auto digest = keccak256("msg");
  EXPECT_FALSE(verify(digest, sign(digest, alice), bob.public_key()));
}

TEST(Ecdsa, VerifyRejectsZeroOrOutOfRangeComponents) {
  const auto key = PrivateKey::from_seed("ranges");
  const auto digest = keccak256("msg");
  Signature sig = sign(digest, key);
  Signature bad = sig;
  bad.r = U256{0};
  EXPECT_FALSE(verify(digest, bad, key.public_key()));
  bad = sig;
  bad.s = U256{0};
  EXPECT_FALSE(verify(digest, bad, key.public_key()));
  bad = sig;
  bad.r = group_order();
  EXPECT_FALSE(verify(digest, bad, key.public_key()));
  bad = sig;
  bad.s = group_order() + U256{5};
  EXPECT_FALSE(verify(digest, bad, key.public_key()));
}

TEST(Ecdsa, SignaturesAreLowS) {
  for (const char* seed : {"a", "b", "c", "d", "e"}) {
    const auto key = PrivateKey::from_seed(seed);
    const Signature sig = sign(keccak256(seed), key);
    EXPECT_LE(sig.s, group_order() >> 1);
  }
}

TEST(Ecdsa, HighSVariantStillVerifiesButIsNotProduced) {
  const auto key = PrivateKey::from_seed("malleability");
  const auto digest = keccak256("msg");
  const Signature sig = sign(digest, key);
  Signature high = sig;
  high.s = group_order() - sig.s;
  // Classic ECDSA accepts the malleated twin; recovery distinguishes them
  // via the recovery id (checked in Recovery tests).
  EXPECT_TRUE(verify(digest, high, key.public_key()));
  EXPECT_NE(high.s, sig.s);
}

TEST(Recovery, RecoversSigningKey) {
  const auto key = PrivateKey::from_seed("recover-me");
  const auto digest = keccak256("channel state #7");
  const Signature sig = sign(digest, key);
  const auto recovered = recover(digest, sig);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, key.public_key());
}

TEST(Recovery, AddressRecoveryMatches) {
  for (const char* seed : {"car", "parking", "hub"}) {
    const auto key = PrivateKey::from_seed(seed);
    const auto digest = keccak256(std::string("payment from ") + seed);
    const auto addr = recover_address(digest, sign(digest, key));
    ASSERT_TRUE(addr.has_value());
    EXPECT_EQ(*addr, key.address());
  }
}

TEST(Recovery, WrongRecoveryIdGivesDifferentKey) {
  const auto key = PrivateKey::from_seed("flip-v");
  const auto digest = keccak256("msg");
  Signature sig = sign(digest, key);
  sig.recovery_id ^= 1;
  const auto recovered = recover(digest, sig);
  if (recovered.has_value()) {
    EXPECT_NE(*recovered, key.public_key());
  }
}

TEST(Recovery, RejectsInvalidComponents) {
  const auto digest = keccak256("msg");
  EXPECT_FALSE(recover(digest, Signature{U256{0}, U256{1}, 0}).has_value());
  EXPECT_FALSE(recover(digest, Signature{U256{1}, U256{0}, 0}).has_value());
  EXPECT_FALSE(
      recover(digest, Signature{group_order(), U256{1}, 0}).has_value());
}

TEST(Signature, SerializeRoundTrip) {
  const auto key = PrivateKey::from_seed("wire");
  const Signature sig = sign(keccak256("wire-format"), key);
  const auto bytes = sig.serialize();
  EXPECT_EQ(bytes[64], 27 + sig.recovery_id);
  const auto parsed = Signature::deserialize(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, sig);
}

TEST(Signature, DeserializeRejectsBadLengthAndV) {
  std::array<std::uint8_t, 64> short_buf{};
  EXPECT_FALSE(Signature::deserialize(short_buf).has_value());
  std::array<std::uint8_t, 65> bad_v{};
  bad_v[64] = 99;
  EXPECT_FALSE(Signature::deserialize(bad_v).has_value());
}

TEST(Signature, DeserializeAcceptsRawRecoveryId) {
  std::array<std::uint8_t, 65> buf{};
  buf[31] = 1;  // r = 1
  buf[63] = 1;  // s = 1
  buf[64] = 1;  // v = 1 (raw form)
  const auto parsed = Signature::deserialize(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->recovery_id, 1);
}


// ---------------------------------------------------------------------------
// Reference implementation: the original bit-serial code, kept as an oracle
// for the optimised one. Field products fold the high half with a second
// U512::mul, field inverses and square roots are Fermat ladders, k·P is
// double-and-add from the top bit, the joint multiply is bit-serial
// Shamir, and verify converts to affine before comparing. Scalar products
// use the generic U256::mulmod. The scalar inverse keeps the bit-serial
// Fermat ladder but multiplies with mul_mod_n (checked against
// U256::mulmod below): U256::mulmod's bit-serial division would make each
// inverse cost milliseconds and the randomized differential minutes.
namespace ref {

const U256 kP = field_prime();
const U256 kN = group_order();

U256 mul_p(const U256& a, const U256& b) {
  const U512 wide = U512::mul(a, b);
  const U256 lo{wide.limb(3), wide.limb(2), wide.limb(1), wide.limb(0)};
  const U256 hi{wide.limb(7), wide.limb(6), wide.limb(5), wide.limb(4)};
  // 2^256 ≡ 2^32 + 977 (mod p).
  const U256 c{0x1000003D1ULL};
  const U512 hi_c = U512::mul(hi, c);
  const U256 hi_c_lo{hi_c.limb(3), hi_c.limb(2), hi_c.limb(1), hi_c.limb(0)};
  U256 r = lo + hi_c_lo;
  const std::uint64_t carry = (r < lo ? 1 : 0) + hi_c.limb(4);
  const U256 fold = U256{carry} * c;
  const U256 sum = r + fold;
  r = sum < r ? sum + c : sum;
  while (r >= kP) r -= kP;
  return r;
}

U256 add_p(const U256& a, const U256& b) {
  U256 r = a + b;
  if (r < a || r >= kP) r -= kP;
  return r;
}

U256 sub_p(const U256& a, const U256& b) {
  return a >= b ? a - b : a + (kP - b);
}

/// base^e mod p, square-and-multiply from the low bit.
U256 pow_p(U256 base, const U256& e) {
  U256 result{1};
  for (unsigned i = 0; i < e.bit_length(); ++i) {
    if (e.bit(i)) result = mul_p(result, base);
    base = mul_p(base, base);
  }
  return result;
}

U256 inv_p(const U256& a) { return pow_p(a, kP - U256{2}); }

std::optional<U256> sqrt_p(const U256& a) {
  const U256 r = pow_p(a, (kP + U256{1}) >> 2);
  if (mul_p(r, r) == a) return r;
  return std::nullopt;
}

/// Fermat inverse mod n over the generic U256::mulmod.
U256 inv_n_mulmod(const U256& a) {
  U256 result{1};
  U256 base = a % kN;
  const U256 e = kN - U256{2};
  for (unsigned i = 0; i < e.bit_length(); ++i) {
    if (e.bit(i)) result = U256::mulmod(result, base, kN);
    base = U256::mulmod(base, base, kN);
  }
  return result;
}

/// Fermat inverse mod n, bit-serial, over mul_mod_n.
U256 inv_n(const U256& a) {
  U256 result{1};
  U256 base = a % kN;
  const U256 e = kN - U256{2};
  for (unsigned i = 0; i < e.bit_length(); ++i) {
    if (e.bit(i)) result = mul_mod_n(result, base);
    base = mul_mod_n(base, base);
  }
  return result;
}

/// Jacobian point; z == 0 is the identity.
struct Point {
  U256 x{1};
  U256 y{1};
  U256 z{0};
};

Point from_affine(const AffinePoint& p) {
  if (p.infinity) return Point{};
  return {p.x.value(), p.y.value(), U256{1}};
}

AffinePoint to_affine(const Point& p) {
  if (p.z.is_zero()) return AffinePoint{};
  const U256 zi = inv_p(p.z);
  const U256 zi2 = mul_p(zi, zi);
  return AffinePoint{Fe{mul_p(p.x, zi2)}, Fe{mul_p(mul_p(p.y, zi2), zi)},
                     false};
}

Point dbl(const Point& p) {
  if (p.z.is_zero() || p.y.is_zero()) return Point{};
  const U256 a = mul_p(p.x, p.x);
  const U256 b = mul_p(p.y, p.y);
  const U256 c = mul_p(b, b);
  const U256 xb = add_p(p.x, b);
  U256 d = sub_p(sub_p(mul_p(xb, xb), a), c);
  d = add_p(d, d);
  const U256 e = add_p(add_p(a, a), a);
  const U256 x3 = sub_p(mul_p(e, e), add_p(d, d));
  U256 c8 = add_p(c, c);
  c8 = add_p(c8, c8);
  c8 = add_p(c8, c8);
  const U256 y3 = sub_p(mul_p(e, sub_p(d, x3)), c8);
  const U256 yz = mul_p(p.y, p.z);
  return {x3, y3, add_p(yz, yz)};
}

Point add(const Point& p, const Point& q) {
  if (p.z.is_zero()) return q;
  if (q.z.is_zero()) return p;
  const U256 z1z1 = mul_p(p.z, p.z);
  const U256 z2z2 = mul_p(q.z, q.z);
  const U256 u1 = mul_p(p.x, z2z2);
  const U256 u2 = mul_p(q.x, z1z1);
  const U256 s1 = mul_p(mul_p(p.y, q.z), z2z2);
  const U256 s2 = mul_p(mul_p(q.y, p.z), z1z1);
  if (u1 == u2) return s1 == s2 ? dbl(p) : Point{};
  const U256 h = sub_p(u2, u1);
  const U256 i = mul_p(add_p(h, h), add_p(h, h));
  const U256 j = mul_p(h, i);
  const U256 r = add_p(sub_p(s2, s1), sub_p(s2, s1));
  const U256 v = mul_p(u1, i);
  const U256 x3 = sub_p(sub_p(mul_p(r, r), j), add_p(v, v));
  const U256 s1j = mul_p(s1, j);
  const U256 y3 = sub_p(mul_p(r, sub_p(v, x3)), add_p(s1j, s1j));
  const U256 zz = add_p(p.z, q.z);
  const U256 z3 = mul_p(sub_p(sub_p(mul_p(zz, zz), z1z1), z2z2), h);
  return {x3, y3, z3};
}

/// k·P, double-and-add from the top bit.
AffinePoint mul(const U256& k, const AffinePoint& p) {
  Point acc;
  const Point base = from_affine(p);
  for (int i = static_cast<int>(k.bit_length()) - 1; i >= 0; --i) {
    acc = dbl(acc);
    if (k.bit(static_cast<unsigned>(i))) acc = add(acc, base);
  }
  return to_affine(acc);
}

/// k1·G + k2·P, bit-serial Shamir.
AffinePoint shamir(const U256& k1, const U256& k2, const AffinePoint& p) {
  const Point g = from_affine(generator());
  const Point q = from_affine(p);
  const Point gq = add(g, q);
  Point acc;
  const unsigned bits = std::max(k1.bit_length(), k2.bit_length());
  for (int i = static_cast<int>(bits) - 1; i >= 0; --i) {
    acc = dbl(acc);
    const bool b1 = k1.bit(static_cast<unsigned>(i));
    const bool b2 = k2.bit(static_cast<unsigned>(i));
    if (b1 && b2) {
      acc = add(acc, gq);
    } else if (b1) {
      acc = add(acc, g);
    } else if (b2) {
      acc = add(acc, q);
    }
  }
  return to_affine(acc);
}

Signature sign(const Hash256& digest, const PrivateKey& key) {
  const U256 z = U256::from_bytes(digest) % kN;
  U256 k = rfc6979_nonce(key.scalar(), digest);
  for (;;) {
    const AffinePoint rp = mul(k, generator());
    const U256 r = rp.x.value() % kN;
    if (r.is_zero()) {
      k = U256::addmod(k, U256{1}, kN);
      continue;
    }
    U256 s = U256::mulmod(
        inv_n(k),
        U256::addmod(z, U256::mulmod(r, key.scalar(), kN), kN), kN);
    if (s.is_zero()) {
      k = U256::addmod(k, U256{1}, kN);
      continue;
    }
    std::uint8_t rec = rp.y.value().bit(0) ? 1 : 0;
    if (s > (kN >> 1)) {
      s = kN - s;
      rec ^= 1;
    }
    return Signature{r, s, rec};
  }
}

bool verify(const Hash256& digest, const Signature& sig,
            const PublicKey& pub) {
  if (sig.r.is_zero() || sig.r >= kN || sig.s.is_zero() || sig.s >= kN) {
    return false;
  }
  if (pub.point.infinity || !pub.point.on_curve()) return false;
  const U256 z = U256::from_bytes(digest) % kN;
  const U256 s_inv = inv_n(sig.s);
  const AffinePoint rp = shamir(U256::mulmod(z, s_inv, kN),
                                U256::mulmod(sig.r, s_inv, kN), pub.point);
  if (rp.infinity) return false;
  return rp.x.value() % kN == sig.r;
}

std::optional<PublicKey> recover(const Hash256& digest, const Signature& sig) {
  if (sig.r.is_zero() || sig.r >= kN || sig.s.is_zero() || sig.s >= kN) {
    return std::nullopt;
  }
  const U256 y2 = add_p(mul_p(mul_p(sig.r, sig.r), sig.r), U256{7});
  const auto root = sqrt_p(y2);
  if (!root) return std::nullopt;
  U256 y = *root;
  if (y.bit(0) != (sig.recovery_id == 1)) y = sub_p(U256{0}, y);
  const AffinePoint rp{Fe{sig.r}, Fe{y}, false};
  const U256 r_inv = inv_n(sig.r);
  const U256 z = U256::from_bytes(digest) % kN;
  const U256 u1 = U256::mulmod(kN - z, r_inv, kN);
  const U256 u2 = U256::mulmod(sig.s, r_inv, kN);
  const AffinePoint q = shamir(u1, u2, rp);
  if (q.infinity) return std::nullopt;
  return PublicKey{q};
}

}  // namespace ref

U256 random_u256(std::mt19937_64& rng) {
  return U256{rng(), rng(), rng(), rng()};
}

/// Scalars at the edges of the comb's windows and the wNAF recoding.
std::vector<U256> edge_scalars() {
  const U256 n = group_order();
  return {U256{0},     U256{1},           U256{2},
          n - U256{1}, n - U256{2},       U256{1} << 255,
          (U256{1} << 255) - U256{1},     n, U256::max()};
}

TEST(Secp256k1Reference, ScalarProductMatchesGenericMulmod) {
  std::mt19937_64 rng(29);
  const U256 n = group_order();
  std::vector<std::pair<U256, U256>> cases;
  for (const U256& a : edge_scalars()) {
    for (const U256& b : edge_scalars()) cases.emplace_back(a, b);
  }
  for (int i = 0; i < 1000; ++i) {
    cases.emplace_back(random_u256(rng), random_u256(rng) % n);
  }
  for (const auto& [a, b] : cases) {
    EXPECT_EQ(mul_mod_n(a, b), U256::mulmod(a, b, n))
        << a.to_hex() << " * " << b.to_hex();
  }
}

TEST(Secp256k1Reference, ScalarInverseMatchesFermat) {
  std::mt19937_64 rng(31);
  const U256 n = group_order();
  std::vector<U256> values{U256{1}, n - U256{1}, U256{2}, n - U256{2}};
  for (int i = 0; i < 4; ++i) values.push_back(random_u256(rng) % n);
  for (const U256& v : values) {
    const U256 inv = inv_mod_n(v);
    EXPECT_EQ(inv, ref::inv_n_mulmod(v)) << v.to_hex();
    EXPECT_EQ(U256::mulmod(inv, v, n), U256{1}) << v.to_hex();
  }
}

TEST(Secp256k1Reference, FieldInverseAndSqrtMatchFermat) {
  std::mt19937_64 rng(37);
  const U256 p = field_prime();
  std::vector<U256> values{U256{0}, U256{1}, p - U256{1}, U256{2},
                           U256{4}, p - U256{4}};
  for (int i = 0; i < 200; ++i) values.push_back(random_u256(rng) % p);
  int roots = 0;
  for (const U256& v : values) {
    const Fe a{v};
    EXPECT_EQ(a.inverse().value(), ref::inv_p(v)) << v.to_hex();
    EXPECT_EQ(a.square().value(), ref::mul_p(v, v)) << v.to_hex();
    const auto root = a.sqrt();
    const auto want = ref::sqrt_p(v);
    ASSERT_EQ(root.has_value(), want.has_value()) << v.to_hex();
    if (root) {
      EXPECT_EQ(root->value(), *want) << v.to_hex();
      ++roots;
    }
  }
  // About half of the random values are squares; the edges add 0, 1, 4.
  EXPECT_GT(roots, 50);
}

TEST(Secp256k1Reference, FieldProductWhoseFoldCarriesPast2To256) {
  // For 2^240 * b the high half times 2^32 + 977 plus the low half lands
  // just below 2^257, so folding that sum's carry limb carries past 2^256
  // once more: the rare case of the reduction, which random operands reach
  // with probability ~2^-188.
  const U256 a = U256{1} << 240;
  const U256 b =
      hex("1fffff85e001d214190d414c6469cb74c83e874fc95d988081ccfd90a0000");
  EXPECT_EQ((Fe{a} * Fe{b}).value(), hex("1f53b56cc"));
  EXPECT_EQ((Fe{a} * Fe{b}).value(), ref::mul_p(a, b));
}

/// The value of raw limbs, Σ limbs[i]·2^(52·i), reduced mod p with the
/// generic U256 arithmetic.
U256 limbs_mod_p(const Fe::Limbs& limbs) {
  const U256 p = field_prime();
  const U256 radix = U256{1} << 52;
  U256 acc{0};
  for (int i = 4; i >= 0; --i) {
    acc = U256::addmod(U256::mulmod(acc, radix, p),
                       U256{limbs[static_cast<std::size_t>(i)]}, p);
  }
  return acc;
}

/// Limbs at the bound of magnitude m: 2m·(2^52 − 1), the top one
/// 2m·(2^48 − 1).
Fe::Limbs max_limbs(int m) {
  const auto k = 2 * static_cast<std::uint64_t>(m);
  const std::uint64_t m52 = (std::uint64_t{1} << 52) - 1;
  const std::uint64_t m48 = (std::uint64_t{1} << 48) - 1;
  return {k * m52, k * m52, k * m52, k * m52, k * m48};
}

/// Random limbs within the bound of magnitude m.
Fe::Limbs random_limbs(std::mt19937_64& rng, int m) {
  Fe::Limbs bound = max_limbs(m);
  for (auto& limb : bound) limb = rng() % (limb + 1);
  return bound;
}

TEST(Secp256k1Reference, LazyReductionAtTheLargestMagnitudes) {
  // The point formulas feed multiplies with magnitudes up to 8 and never
  // normalise in between; the kernels must reduce anything within that
  // bound. Limbs at each bound, all-ones 52-bit limbs (2^256 − 1, above p
  // at magnitude 1) and random limbs up to the bound.
  std::mt19937_64 rng(43);
  const U256 p = field_prime();
  std::vector<std::pair<Fe::Limbs, int>> inputs;
  for (int m : {1, 2, 4, 8}) inputs.emplace_back(max_limbs(m), m);
  inputs.emplace_back(Fe::Limbs{}, 8);
  for (int i = 0; i < 200; ++i) inputs.emplace_back(random_limbs(rng, 8), 8);
  for (const auto& [la, ma] : inputs) {
    const Fe a = Fe::from_limbs(la, ma);
    const U256 va = limbs_mod_p(la);
    ASSERT_EQ(a.value(), va);
    EXPECT_EQ(a.square().value(), U256::mulmod(va, va, p));
    EXPECT_EQ(a.negate(ma).value(), U256::addmod(p - va, U256{0}, p));
    EXPECT_EQ(a.half().value(),
              U256::mulmod(va, (p + U256{1}) >> 1, p));
    EXPECT_EQ(a.mul_small(3).value(), U256::mulmod(va, U256{3}, p));
    for (const auto& lb : {max_limbs(8), random_limbs(rng, 8)}) {
      const Fe b = Fe::from_limbs(lb, 8);
      const U256 vb = limbs_mod_p(lb);
      EXPECT_EQ((a * b).value(), U256::mulmod(va, vb, p));
      EXPECT_EQ((a + b).value(), U256::addmod(va, vb, p));
      EXPECT_EQ((a + b.negate(8)).value(),
                U256::addmod(va, (p - vb) % p, p));
    }
  }
}

TEST(Secp256k1Reference, LambdaSplitRecombinesIntoShortHalves) {
  // k ≡ k1 + λ·k2 (mod n) with both halves within 2^129 of zero.
  const U256 n = group_order();
  const U256 lambda = glv_lambda();
  EXPECT_EQ(U256::mulmod(U256::mulmod(lambda, lambda, n), lambda, n), U256{1});
  const AffinePoint lambda_g = ref::mul(lambda, generator());
  const Fe beta = lambda_g.x * generator().x.inverse();
  EXPECT_EQ(lambda_g.y, generator().y);
  EXPECT_EQ(beta * beta * beta, Fe{U256{1}});

  std::mt19937_64 rng(47);
  std::vector<U256> scalars{U256{0}, U256{1},      U256{2},
                            lambda,  n - lambda,   n - U256{1},
                            U256{1} << 255,        U256::max()};
  for (int i = 0; i < 1000; ++i) scalars.push_back(random_u256(rng));
  const U256 half_bound = U256{1} << 129;
  auto magnitude = [&](const U256& x) { return std::min(x, n - x); };
  for (const U256& k : scalars) {
    const LambdaSplit s = split_lambda(k);
    ASSERT_LT(s.k1, n) << k.to_hex();
    ASSERT_LT(s.k2, n) << k.to_hex();
    EXPECT_EQ(U256::addmod(s.k1, U256::mulmod(lambda, s.k2, n), n), k % n)
        << k.to_hex();
    EXPECT_LT(magnitude(s.k1), half_bound) << k.to_hex();
    EXPECT_LT(magnitude(s.k2), half_bound) << k.to_hex();
  }
}

TEST(Secp256k1Reference, SafegcdInversesMatchFermat) {
  // One constant-time safegcd serves both moduli; Fermat's a^(m−2) is the
  // oracle, which also maps 0 to 0.
  std::mt19937_64 rng(53);
  const U256 p = field_prime();
  const U256 n = group_order();
  std::vector<U256> field{U256{0}, U256{1}, U256{2}, p - U256{1}};
  std::vector<U256> scalars{U256{0}, U256{1}, U256{2}, n - U256{1}};
  for (int i = 0; i < 1000; ++i) {
    field.push_back(random_u256(rng) % p);
    scalars.push_back(random_u256(rng) % n);
  }
  for (const U256& v : field) {
    EXPECT_EQ(Fe{v}.inverse().value(), ref::inv_p(v)) << v.to_hex();
  }
  for (const U256& v : scalars) {
    EXPECT_EQ(inv_mod_n(v), ref::inv_n(v)) << v.to_hex();
  }
}

TEST(Secp256k1Reference, EdgeScalarsThroughFixedBaseAndJointMultiply) {
  const AffinePoint q = PrivateKey::from_seed("edge").public_key().point;
  for (const U256& k : edge_scalars()) {
    EXPECT_EQ(scalar_mul(k, generator()).to_affine(),
              ref::mul(k, generator()))
        << "fixed base, k = " << k.to_hex();
    EXPECT_EQ(scalar_mul(k, q).to_affine(), ref::mul(k, q))
        << "variable base, k = " << k.to_hex();
    for (const U256& k2 : edge_scalars()) {
      EXPECT_EQ(shamir_mul(k, k2, q).to_affine(), ref::shamir(k, k2, q))
          << "joint, k1 = " << k.to_hex() << ", k2 = " << k2.to_hex();
    }
  }
}

TEST(Secp256k1Reference, MultipliesMatchOnRandomScalars) {
  std::mt19937_64 rng(41);
  const AffinePoint q =
      PrivateKey::from_seed("random-point").public_key().point;
  for (int i = 0; i < 20; ++i) {
    const U256 k1 = random_u256(rng);
    const U256 k2 = random_u256(rng);
    EXPECT_EQ(scalar_mul(k1, generator()).to_affine(),
              ref::mul(k1, generator()));
    EXPECT_EQ(shamir_mul(k1, k2, q).to_affine(), ref::shamir(k1, k2, q));
  }
}

// ≥1,000 seeded (key, digest) pairs, in shards so ctest can spread them.
constexpr int kDifferentialShards = 8;
constexpr int kPairsPerShard = 125;

class Secp256k1Differential : public ::testing::TestWithParam<int> {};

TEST_P(Secp256k1Differential, SignVerifyRecoverMatchReference) {
  std::mt19937_64 rng(1000 + static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < kPairsPerShard; ++i) {
    Hash256 seed{};
    for (auto& byte : seed) byte = static_cast<std::uint8_t>(rng());
    const auto key = PrivateKey::from_bytes(seed);
    if (!key) continue;  // outside [1, n-1]: probability ~2^-128
    Hash256 digest{};
    for (auto& byte : digest) byte = static_cast<std::uint8_t>(rng());
    SCOPED_TRACE("pair " + std::to_string(i) + ", key " +
                 key->scalar().to_hex());

    const Signature sig = sign(digest, *key);
    ASSERT_EQ(sig.serialize(), ref::sign(digest, *key).serialize());
    const PublicKey pub = key->public_key();
    EXPECT_EQ(pub.point, ref::mul(key->scalar(), generator()));

    Hash256 flipped = digest;
    flipped[static_cast<std::size_t>(rng() % 32)] ^=
        static_cast<std::uint8_t>(1u << (rng() % 8));
    Signature wrong_id = sig;
    wrong_id.recovery_id ^= 1;

    EXPECT_TRUE(verify(digest, sig, pub));
    EXPECT_EQ(verify(digest, sig, pub), ref::verify(digest, sig, pub));
    EXPECT_EQ(verify(flipped, sig, pub), ref::verify(flipped, sig, pub));
    EXPECT_EQ(recover(digest, sig), ref::recover(digest, sig));
    EXPECT_EQ(recover(flipped, sig), ref::recover(flipped, sig));
    EXPECT_EQ(recover(digest, wrong_id), ref::recover(digest, wrong_id));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeded, Secp256k1Differential,
                         ::testing::Range(0, kDifferentialShards));

// The comb table and the joint multiply's G and λG tables are built on
// first use behind function-local statics. ctest runs every test in its own
// process, so here the eight threads race to those first uses (the comb in
// sign, the G tables in verify and recover); the results must equal a
// serial rerun.
TEST(Secp256k1Concurrency, FirstUseFromManyThreads) {
  constexpr int kThreads = 8;
  std::vector<PrivateKey> keys;
  std::vector<Hash256> digests;
  for (int t = 0; t < kThreads; ++t) {
    keys.push_back(PrivateKey::from_seed("thread-" + std::to_string(t)));
    digests.push_back(keccak256("payment from thread " + std::to_string(t)));
  }
  std::vector<Signature> sigs(kThreads);
  std::vector<char> verified(kThreads);
  std::vector<std::optional<PublicKey>> recovered(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      sigs[t] = sign(digests[t], keys[t]);
      verified[t] = verify(digests[t], sigs[t], keys[t].public_key());
      recovered[t] = recover(digests[t], sigs[t]);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sigs[t], sign(digests[t], keys[t]));
    EXPECT_TRUE(verified[t]);
    EXPECT_EQ(recovered[t], recover(digests[t], sigs[t]));
    ASSERT_TRUE(recovered[t].has_value());
    EXPECT_EQ(*recovered[t], keys[t].public_key());
  }
}

}  // namespace
}  // namespace tinyevm::secp256k1
