#include "crypto/hash.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace tinyevm {
namespace {

TEST(Keccak256, EmptyInput) {
  // Canonical Ethereum empty-string hash.
  EXPECT_EQ(to_hex(keccak256("")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
}

TEST(Keccak256, Abc) {
  EXPECT_EQ(to_hex(keccak256("abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(Keccak256, HelloEthereumStyle) {
  // keccak256("hello") as produced by web3/solidity tooling.
  EXPECT_EQ(to_hex(keccak256("hello")),
            "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8");
}

TEST(Keccak256, FunctionSelectorTransfer) {
  // The well-known ERC-20 transfer selector is the first 4 bytes.
  const auto h = keccak256("transfer(address,uint256)");
  EXPECT_EQ(h[0], 0xa9);
  EXPECT_EQ(h[1], 0x05);
  EXPECT_EQ(h[2], 0x9c);
  EXPECT_EQ(h[3], 0xbb);
}

TEST(Keccak256, ExactRateBlockBoundary) {
  // 136 bytes == one full sponge block; exercises the empty final block
  // with padding only.
  const std::string block(136, 'a');
  const std::string block_plus(137, 'a');
  EXPECT_NE(to_hex(keccak256(block)), to_hex(keccak256(block_plus)));
  // Self-generated golden value pinned for regression (primitive itself is
  // validated by the Ethereum vectors above).
  EXPECT_EQ(to_hex(keccak256(block)),
            "a6c4d403279fe3e0af03729caada8374b5ca54d8065329a3ebcaeb4b60aa386e");
}

TEST(Keccak256, MultiBlockInput) {
  const std::string long_input(1000, 'x');
  const auto h1 = keccak256(long_input);
  const auto h2 = keccak256(long_input);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(to_hex(h1), to_hex(keccak256(std::string(999, 'x'))));
}

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(to_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  // FIPS 180-4 test vector.
  EXPECT_EQ(to_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  // FIPS 180-4 two-block test vector.
  EXPECT_EQ(to_hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomno"
                          "pnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  // FIPS 180-4 long test vector; also exercises streaming updates.
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.update({reinterpret_cast<const std::uint8_t*>(chunk.data()),
              chunk.size()});
  }
  EXPECT_EQ(to_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const std::string data(300, 'q');
  Sha256 h;
  for (char c : data) {
    const auto b = static_cast<std::uint8_t>(c);
    h.update({&b, 1});
  }
  EXPECT_EQ(h.finalize(), sha256(data));
}

TEST(Sha256, BoundaryLengths) {
  // 55/56/64 bytes straddle the padding boundary.
  for (std::size_t n : {55u, 56u, 63u, 64u, 65u}) {
    const std::string a(n, 'z');
    EXPECT_EQ(sha256(a), sha256(a)) << n;
    EXPECT_NE(to_hex(sha256(a)), to_hex(sha256(a + "z"))) << n;
  }
}

TEST(Sha256, BoundaryVectors) {
  // n bytes of 'z' at each edge of the padding: 55 and 119 leave exactly
  // room for the 0x80 and the length; 56, 63 and 120 push them into one
  // more block; 64 fills its block, so the padding takes a block of its
  // own. Digests from Python's hashlib.
  const std::pair<std::size_t, const char*> cases[] = {
      {55u, "5a383411d906da80612f366cb9b90ae54bcf6e7743b4117ace0884d98cd159ca"},
      {56u, "c66a5b692b9a20229733ef8b87cfec52679c86a0c0245643484c46d4dcd82afa"},
      {63u, "85021e4907c21645631d596eee989bf43c2cd56b074175d5393804dbf1744412"},
      {64u, "72996563049cc84daa2c3f31fd5c3d10770e69d6ebbb8da5b6d76db303dbae43"},
      {119u,
       "de05957e72aca438f9b0c770cb2ee7fa0e58e08eb54536478db136d54c097abb"},
      {120u,
       "46a063da7dc0c878899dfc50adf2558256652c05dd1afc0b1341f7608c7a4776"},
  };
  for (const auto& [n, want] : cases) {
    EXPECT_EQ(to_hex(sha256(std::string(n, 'z'))), want) << n;
  }
}

TEST(HmacSha256, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const std::string msg = "Hi There";
  const auto mac = hmac_sha256(
      key, {reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()});
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const auto mac = hmac_sha256(
      {reinterpret_cast<const std::uint8_t*>(key.data()), key.size()},
      {reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()});
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const std::vector<std::uint8_t> key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const auto mac = hmac_sha256(
      key, {reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()});
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HexCodec, RoundTrip) {
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xAB, 0xFF};
  EXPECT_EQ(to_hex(data), "0001abff");
  EXPECT_EQ(from_hex("0001abff"), data);
  EXPECT_EQ(from_hex("0x0001ABFF"), data);
}

TEST(HexCodec, RejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(HexCodec, EmptyInput) {
  EXPECT_TRUE(from_hex("").empty());
  EXPECT_EQ(to_hex(std::vector<std::uint8_t>{}), "");
}

}  // namespace
}  // namespace tinyevm
