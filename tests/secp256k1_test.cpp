#include "crypto/secp256k1.hpp"

#include <gtest/gtest.h>

#include <random>

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

}  // namespace
}  // namespace tinyevm::secp256k1
