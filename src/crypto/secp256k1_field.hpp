// Multiply and square kernels for secp256k1's field element `Fe`, on five
// 52-bit limbs. They live in a header so that `Fe`'s operators inline into
// every caller; everything else about the field is in secp256k1.cpp.
#pragma once

#include <cstdint>

namespace tinyevm::secp256k1::field {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr u64 kM52 = 0xFFFFFFFFFFFFFULL;
constexpr u64 kM48 = 0xFFFFFFFFFFFFULL;
// 2^256 ≡ 2^32 + 977 (mod p), and so 2^260 ≡ (2^32 + 977)·2^4.
constexpr u64 kFold = 0x1000003D1ULL;
constexpr u64 kFold260 = kFold << 4;

// Both kernels share one schedule. The high product columns 5 to 8 (at
// 2^260 and above) are summed first and on their own, so they are ready
// early; each folds back through 2^260 ≡ kFold260, its low 64 bits into
// the column 5 places down and its high bits (times 2^64 = 2^(52 + 12))
// into the one after, times kFold260·2^12. Columns 3 and 4 go first and
// are held aside (t3, t4), so that their bits at and above 2^256 fold into
// column 0 through kFold; the carry chain then runs once, from column 0 up
// to 3, and ends in t4. Inputs need magnitude ≤ 8 (limbs below 2^56, the
// top one below 2^52); every column sum then stays below 2^115, and the
// result has magnitude 1.
constexpr u64 kFold272 = kFold260 << 12;

/// r = a·b mod p.
[[gnu::always_inline]] inline void mul_limbs(u64* r, const u64* a,
                                             const u64* b) {
  using W = u128;
  const u64 a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
  const W p5 = W{a1} * b[4] + W{a2} * b[3] + W{a3} * b[2] + W{a4} * b[1];
  const W p6 = W{a2} * b[4] + W{a3} * b[3] + W{a4} * b[2];
  const W p7 = W{a3} * b[4] + W{a4} * b[3];
  const W p8 = W{a4} * b[4];
  W d = W{a0} * b[3] + W{a1} * b[2] + W{a2} * b[1] + W{a3} * b[0] +
        W{kFold272} * static_cast<u64>(p7 >> 64) +
        W{kFold260} * static_cast<u64>(p8);
  const u64 t3 = static_cast<u64>(d) & kM52;
  d >>= 52;
  d += W{a0} * b[4] + W{a1} * b[3] + W{a2} * b[2] + W{a3} * b[1] +
       W{a4} * b[0] + W{kFold272} * static_cast<u64>(p8 >> 64);
  const u64 t4 = static_cast<u64>(d) & kM48;
  d >>= 48;  // the bits at and above 2^256, below 2^67
  W c = W{a0} * b[0] + W{kFold260} * static_cast<u64>(p5) +
        W{kFold} * static_cast<u64>(d) +
        (W{kFold * static_cast<u64>(d >> 64)} << 64);
  r[0] = static_cast<u64>(c) & kM52;
  c >>= 52;
  c += W{a0} * b[1] + W{a1} * b[0] + W{kFold272} * static_cast<u64>(p5 >> 64) +
       W{kFold260} * static_cast<u64>(p6);
  r[1] = static_cast<u64>(c) & kM52;
  c >>= 52;
  c += W{a0} * b[2] + W{a1} * b[1] + W{a2} * b[0] +
       W{kFold272} * static_cast<u64>(p6 >> 64) +
       W{kFold260} * static_cast<u64>(p7);
  r[2] = static_cast<u64>(c) & kM52;
  c >>= 52;
  c += t3;
  r[3] = static_cast<u64>(c) & kM52;
  c >>= 52;
  r[4] = static_cast<u64>(c) + t4;
}

/// r = a^2 mod p: mul_limbs with each cross product taken once and
/// doubled (15 limb products instead of 25).
[[gnu::always_inline]] inline void sqr_limbs(u64* r, const u64* a) {
  using W = u128;
  const u64 a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
  const u64 a0x2 = a0 * 2, a1x2 = a1 * 2, a2x2 = a2 * 2, a3x2 = a3 * 2;
  const W p5 = W{a1x2} * a4 + W{a2x2} * a3;
  const W p6 = W{a2x2} * a4 + W{a3} * a3;
  const W p7 = W{a3x2} * a4;
  const W p8 = W{a4} * a4;
  W d = W{a0x2} * a3 + W{a1x2} * a2 +
        W{kFold272} * static_cast<u64>(p7 >> 64) +
        W{kFold260} * static_cast<u64>(p8);
  const u64 t3 = static_cast<u64>(d) & kM52;
  d >>= 52;
  d += W{a0x2} * a4 + W{a1x2} * a3 + W{a2} * a2 +
       W{kFold272} * static_cast<u64>(p8 >> 64);
  const u64 t4 = static_cast<u64>(d) & kM48;
  d >>= 48;
  W c = W{a0} * a0 + W{kFold260} * static_cast<u64>(p5) +
        W{kFold} * static_cast<u64>(d) +
        (W{kFold * static_cast<u64>(d >> 64)} << 64);
  r[0] = static_cast<u64>(c) & kM52;
  c >>= 52;
  c += W{a0x2} * a1 + W{kFold272} * static_cast<u64>(p5 >> 64) +
       W{kFold260} * static_cast<u64>(p6);
  r[1] = static_cast<u64>(c) & kM52;
  c >>= 52;
  c += W{a0x2} * a2 + W{a1} * a1 + W{kFold272} * static_cast<u64>(p6 >> 64) +
       W{kFold260} * static_cast<u64>(p7);
  r[2] = static_cast<u64>(c) & kM52;
  c >>= 52;
  c += t3;
  r[3] = static_cast<u64>(c) & kM52;
  c >>= 52;
  r[4] = static_cast<u64>(c) + t4;
}

}  // namespace tinyevm::secp256k1::field
