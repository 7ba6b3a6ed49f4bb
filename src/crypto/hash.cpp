#include "crypto/hash.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

namespace tinyevm {
namespace {

// ---- Keccak-f[1600] ----

constexpr std::array<std::uint64_t, 24> kKeccakRoundConstants = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL};

constexpr std::array<unsigned, 25> kRotationOffsets = {
    0,  1,  62, 28, 27,  // x=0..4, y=0
    36, 44, 6,  55, 20,  // y=1
    3,  10, 43, 25, 39,  // y=2
    41, 45, 15, 21, 8,   // y=3
    18, 2,  61, 56, 14,  // y=4
};

void keccak_f1600(std::array<std::uint64_t, 25>& a) {
  for (unsigned round = 0; round < 24; ++round) {
    // Theta
    std::array<std::uint64_t, 5> c{};
    for (unsigned x = 0; x < 5; ++x) {
      c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
    }
    for (unsigned x = 0; x < 5; ++x) {
      const std::uint64_t d = c[(x + 4) % 5] ^ std::rotl(c[(x + 1) % 5], 1);
      for (unsigned y = 0; y < 5; ++y) a[x + 5 * y] ^= d;
    }
    // Rho + Pi
    std::array<std::uint64_t, 25> b{};
    for (unsigned x = 0; x < 5; ++x) {
      for (unsigned y = 0; y < 5; ++y) {
        const unsigned src = x + 5 * y;
        const unsigned dst = y + 5 * ((2 * x + 3 * y) % 5);
        b[dst] = std::rotl(a[src], static_cast<int>(kRotationOffsets[src]));
      }
    }
    // Chi
    for (unsigned y = 0; y < 5; ++y) {
      for (unsigned x = 0; x < 5; ++x) {
        a[x + 5 * y] =
            b[x + 5 * y] ^ (~b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
      }
    }
    // Iota
    a[0] ^= kKeccakRoundConstants[round];
  }
}

Hash256 keccak256_impl(std::span<const std::uint8_t> data) {
  constexpr std::size_t kRate = 136;  // (1600 - 2*256) / 8
  std::array<std::uint64_t, 25> state{};

  // Absorb full blocks.
  std::size_t offset = 0;
  while (data.size() - offset >= kRate) {
    for (std::size_t i = 0; i < kRate / 8; ++i) {
      std::uint64_t lane;
      std::memcpy(&lane, data.data() + offset + i * 8, 8);
      state[i] ^= lane;  // little-endian host assumed (x86-64/ARM64)
    }
    keccak_f1600(state);
    offset += kRate;
  }

  // Final partial block with 0x01 ... 0x80 padding (original Keccak).
  std::array<std::uint8_t, kRate> block{};
  const std::size_t remaining = data.size() - offset;
  // Empty input has a null data(); memcpy's arguments are declared
  // nonnull even for zero sizes (UBSan flags it).
  if (remaining != 0) {
    std::memcpy(block.data(), data.data() + offset, remaining);
  }
  block[remaining] = 0x01;
  block[kRate - 1] |= 0x80;
  for (std::size_t i = 0; i < kRate / 8; ++i) {
    std::uint64_t lane;
    std::memcpy(&lane, block.data() + i * 8, 8);
    state[i] ^= lane;
  }
  keccak_f1600(state);

  Hash256 out;
  std::memcpy(out.data(), state.data(), 32);
  return out;
}

// ---- SHA-256 constants ----

constexpr std::array<std::uint32_t, 64> kSha256K = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

}  // namespace

Hash256 keccak256(std::span<const std::uint8_t> data) {
  return keccak256_impl(data);
}

Hash256 keccak256(std::string_view data) {
  return keccak256_impl(
      {reinterpret_cast<const std::uint8_t*>(data.data()), data.size()});
}

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::process_block(const std::uint8_t* block) {
  std::array<std::uint32_t, 64> w;
  for (unsigned i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (unsigned i = 16; i < 64; ++i) {
    const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^
                             (w[i - 15] >> 3);
    const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^
                             (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  auto [a, b, c, d, e, f, g, h] = state_;
  for (unsigned i = 0; i < 64; ++i) {
    const std::uint32_t s1 =
        std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kSha256K[i] + w[i];
    const std::uint32_t s0 =
        std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return;  // empty spans have a null data() (UB in memcpy)
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (data.size() - offset >= 64) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Hash256 Sha256::finalize() {
  const std::uint64_t bit_len = total_len_ * 8;
  // Pad in place: 0x80, zeros up to byte 56 of a block (spilling into a
  // second block when fewer than 9 bytes are left), then the bit length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (unsigned i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> ((7 - i) * 8));
  }
  process_block(buffer_.data());

  Hash256 out;
  for (unsigned i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Hash256 sha256(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Hash256 sha256(std::string_view data) {
  return sha256(
      std::span{reinterpret_cast<const std::uint8_t*>(data.data()), data.size()});
}

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 64> block_key{};
  if (key.size() > 64) {
    const Hash256 hashed = sha256(key);
    std::memcpy(block_key.data(), hashed.data(), hashed.size());
  } else if (!key.empty()) {
    std::memcpy(block_key.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, 64> ipad;
  std::array<std::uint8_t, 64> opad;
  for (unsigned i = 0; i < 64; ++i) {
    ipad[i] = block_key[i] ^ 0x36;
    opad[i] = block_key[i] ^ 0x5c;
  }
  inner_.update(ipad);
  outer_.update(opad);
}

Hash256 HmacSha256::mac(std::span<const std::uint8_t> message) const {
  Sha256 inner = inner_;
  inner.update(message);
  const Hash256 inner_hash = inner.finalize();
  Sha256 outer = outer_;
  outer.update(inner_hash);
  return outer.finalize();
}

Hash256 hmac_sha256(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> message) {
  return HmacSha256(key).mac(message);
}

std::string to_hex(std::span<const std::uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  if (hex.starts_with("0x") || hex.starts_with("0X")) hex.remove_prefix(2);
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length input");
  }
  auto digit = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = digit(hex[i]);
    const int lo = digit(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw std::invalid_argument("from_hex: non-hex character");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

}  // namespace tinyevm
