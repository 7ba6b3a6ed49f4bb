#include "crypto/secp256k1.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tinyevm::secp256k1 {
namespace {

/// RAII latency sample for one ECDSA primitive: records elapsed µs into the
/// histogram `series()` returns, on scope exit. Each call site interns its
/// histogram once in a function-local static, so an enabled sample costs
/// two clock reads and a relaxed add, and a disabled one costs nothing.
class CryptoSample {
 public:
  using Series = obs::Histogram& (*)();

  explicit CryptoSample(Series series) noexcept {
    if (!obs::metrics_enabled()) return;
    series_ = series;
    start_ = std::chrono::steady_clock::now();
  }
  CryptoSample(const CryptoSample&) = delete;
  CryptoSample& operator=(const CryptoSample&) = delete;
  ~CryptoSample() {
    if (series_ == nullptr || !obs::metrics_enabled()) return;
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    series_().record(static_cast<std::uint64_t>(us));
  }

 private:
  Series series_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// p = 2^256 - 2^32 - 977
constexpr U256 kP{0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL,
                  0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFEFFFFFC2FULL};
// n (group order)
constexpr U256 kN{0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFEULL,
                  0xBAAEDCE6AF48A03BULL, 0xBFD25E8CD0364141ULL};
// Generator coordinates.
constexpr U256 kGx{0x79BE667EF9DCBBACULL, 0x55A06295CE870B07ULL,
                   0x029BFCDB2DCE28D9ULL, 0x59F2815B16F81798ULL};
constexpr U256 kGy{0x483ADA7726A3C465ULL, 0x5DA4FBFC0E1108A8ULL,
                   0xFD17B448A6855419ULL, 0x9C47D08FFB10D4B8ULL};

// 2^256 - p = 2^32 + 977: one limb, so the high half of a product folds
// back limb by limb.
constexpr u64 kPComplement = 0x1000003D1ULL;
// 2^256 - n < 2^129, little-endian limbs.
constexpr u64 kNComplement[3] = {0x402DA1732FC9BEBFULL, 0x4551231950B75FC4ULL,
                                 1};

using Wide = std::array<u64, 8>;  // 512-bit product, little-endian limbs

// The limb helpers below are forced inline: the point formulas run them
// hundreds of times per multiply, and a call would pass every intermediate
// through memory.

/// Hides `x` from the optimiser so mask arithmetic is not turned back into
/// a branch.
[[gnu::always_inline]] inline u64 opaque(u64 x) {
  __asm__("" : "+r"(x));
  return x;
}

/// All ones when x == 0, else zero; branch-free.
[[gnu::always_inline]] inline u64 zero_mask(u64 x) {
  return opaque(((x | (0 - x)) >> 63) - 1);
}

/// mask ? a : b, limb by limb.
[[gnu::always_inline]] inline U256 select(u64 mask, const U256& a,
                                          const U256& b) {
  auto pick = [&](unsigned i) {
    return b.limb(i) ^ ((a.limb(i) ^ b.limb(i)) & mask);
  };
  return U256{pick(3), pick(2), pick(1), pick(0)};
}

/// hi·2^256 + lo, minus m when that is >= m; the value must be below 2m.
/// Branch-free.
[[gnu::always_inline]] inline U256 sub_if_ge(u64 l0, u64 l1, u64 l2, u64 l3,
                                             u64 hi, const U256& m) {
  u64 borrow = 0;
  const u64 d0 = detail::subb(l0, m.limb(0), borrow);
  const u64 d1 = detail::subb(l1, m.limb(1), borrow);
  const u64 d2 = detail::subb(l2, m.limb(2), borrow);
  const u64 d3 = detail::subb(l3, m.limb(3), borrow);
  // Keep lo only when the value is below m: no high bit and a borrow out.
  const u64 keep = opaque(0 - (borrow & (hi ^ 1)));
  return select(keep, U256{l3, l2, l1, l0}, U256{d3, d2, d1, d0});
}

/// (a + b) mod m for a, b < m.
[[gnu::always_inline]] inline U256 add_mod(const U256& a, const U256& b,
                                           const U256& m) {
  u64 carry = 0;
  const u64 s0 = detail::addc(a.limb(0), b.limb(0), carry);
  const u64 s1 = detail::addc(a.limb(1), b.limb(1), carry);
  const u64 s2 = detail::addc(a.limb(2), b.limb(2), carry);
  const u64 s3 = detail::addc(a.limb(3), b.limb(3), carry);
  return sub_if_ge(s0, s1, s2, s3, carry, m);
}

/// (a - b) mod m for a, b < m.
[[gnu::always_inline]] inline U256 sub_mod(const U256& a, const U256& b,
                                           const U256& m) {
  u64 borrow = 0;
  const u64 d0 = detail::subb(a.limb(0), b.limb(0), borrow);
  const u64 d1 = detail::subb(a.limb(1), b.limb(1), borrow);
  const u64 d2 = detail::subb(a.limb(2), b.limb(2), borrow);
  const u64 d3 = detail::subb(a.limb(3), b.limb(3), borrow);
  const u64 mask = opaque(0 - borrow);
  u64 carry = 0;
  const u64 r0 = detail::addc(d0, m.limb(0) & mask, carry);
  const u64 r1 = detail::addc(d1, m.limb(1) & mask, carry);
  const u64 r2 = detail::addc(d2, m.limb(2) & mask, carry);
  const u64 r3 = detail::addc(d3, m.limb(3) & mask, carry);
  return U256{r3, r2, r1, r0};
}

/// x mod n for any 256-bit x (x < 2^256 < 2n): one conditional subtraction.
U256 reduce_once_n(const U256& x) {
  return sub_if_ge(x.limb(0), x.limb(1), x.limb(2), x.limb(3), 0, kN);
}

/// Column accumulator for product scanning: a 192-bit running sum that
/// hands out one finished limb at a time.
struct Column {
  u64 c0 = 0;
  u64 c1 = 0;
  u64 c2 = 0;
  [[gnu::always_inline]] void add(u64 a, u64 b) {
    const u128 t = static_cast<u128>(a) * b;
    const u64 lo = static_cast<u64>(t);
    u64 hi = static_cast<u64>(t >> 64);
    c0 += lo;
    hi += c0 < lo ? 1 : 0;
    c1 += hi;
    c2 += c1 < hi ? 1 : 0;
  }
  [[gnu::always_inline]] u64 take() {
    const u64 limb = c0;
    c0 = c1;
    c1 = c2;
    c2 = 0;
    return limb;
  }
};

[[gnu::always_inline]] inline Wide mul_wide(const U256& a, const U256& b) {
  Wide w{};
  Column c;
#pragma GCC unroll 8
  for (unsigned col = 0; col < 7; ++col) {
#pragma GCC unroll 4
    for (unsigned i = col < 4 ? 0 : col - 3; i <= std::min(col, 3u); ++i) {
      c.add(a.limb(i), b.limb(col - i));
    }
    w[col] = c.take();
  }
  w[7] = c.take();
  return w;
}

/// a^2 in 10 limb multiplies instead of 16: each off-diagonal product is
/// computed once and added twice.
[[gnu::always_inline]] inline Wide sqr_wide(const U256& a) {
  Wide w{};
  Column c;
#pragma GCC unroll 8
  for (unsigned col = 0; col < 7; ++col) {
#pragma GCC unroll 4
    for (unsigned i = col < 4 ? 0 : col - 3; 2 * i < col; ++i) {
      c.add(a.limb(i), a.limb(col - i));
      c.add(a.limb(i), a.limb(col - i));
    }
    if (col % 2 == 0) c.add(a.limb(col / 2), a.limb(col / 2));
    w[col] = c.take();
  }
  w[7] = c.take();
  return w;
}

/// top·2^256 + r mod p for top < 2^35: top folds in as top·(2^32 + 977),
/// which leaves a value below 2^256 + 2^68 < 2p for one conditional
/// subtraction. Branch-free.
[[gnu::always_inline]] inline U256 fold_p(u64 (&r)[4], u64 top) {
  u128 acc = static_cast<u128>(top) * kPComplement;
  for (unsigned i = 0; i < 4; ++i) {
    acc += r[i];
    r[i] = static_cast<u64>(acc);
    acc >>= 64;
  }
  return sub_if_ge(r[0], r[1], r[2], r[3], static_cast<u64>(acc), kP);
}

/// w mod p: the high half folds in limb by limb, times 2^32 + 977.
[[gnu::always_inline]] inline U256 reduce_p(const Wide& w) {
  u64 r[4] = {};
  u128 acc = 0;
  for (unsigned i = 0; i < 4; ++i) {
    acc += static_cast<u128>(w[i + 4]) * kPComplement + w[i];
    r[i] = static_cast<u64>(acc);
    acc >>= 64;
  }
  return fold_p(r, static_cast<u64>(acc));
}

/// acc[0, len) += a[0, na) · b[0, nb); the sum must fit in len limbs.
[[gnu::always_inline]] inline void mul_add(u64* acc, unsigned len,
                                           const u64* a, unsigned na,
                                           const u64* b, unsigned nb) {
  for (unsigned i = 0; i < na; ++i) {
    u64 carry = 0;
    for (unsigned j = 0; j < nb; ++j) {
      const u128 t = static_cast<u128>(a[i]) * b[j] + acc[i + j] + carry;
      acc[i + j] = static_cast<u64>(t);
      carry = static_cast<u64>(t >> 64);
    }
    for (unsigned k = i + nb; k < len; ++k) {
      acc[k] = detail::addc(acc[k], 0, carry);
    }
  }
}

/// w mod n with 2^256 ≡ c = 2^256 - n (< 2^129). Two folds take the
/// product from 512 to 386 and then 260 bits; a last small fold and one
/// conditional subtraction finish. Branch-free.
[[gnu::always_inline]] inline U256 reduce_n(const Wide& w) {
  u64 m[7] = {w[0], w[1], w[2], w[3], 0, 0, 0};
  mul_add(m, 7, w.data() + 4, 4, kNComplement, 3);  // < 2^386
  u64 r[5] = {m[0], m[1], m[2], m[3], 0};
  mul_add(r, 5, m + 4, 3, kNComplement, 3);  // < 2^260
  u64 t[5] = {r[0], r[1], r[2], r[3], 0};
  mul_add(t, 5, r + 4, 1, kNComplement, 3);  // < 2^256 + 2^133 < 2n
  return sub_if_ge(t[0], t[1], t[2], t[3], t[4], kN);
}

U256 sqr_mod_n(const U256& a) { return reduce_n(sqr_wide(a)); }

/// a·k mod p for a small k (< 2^30).
Fe mul_small(const Fe& a, u64 k) {
  u64 r[4] = {};
  u128 acc = 0;
  for (unsigned i = 0; i < 4; ++i) {
    acc += static_cast<u128>(a.value().limb(i)) * k;
    r[i] = static_cast<u64>(acc);
    acc >>= 64;
  }
  return Fe{fold_p(r, static_cast<u64>(acc))};
}

Fe fe_select(u64 mask, const Fe& a, const Fe& b) {
  return Fe{select(mask, a.value(), b.value())};
}

u64 fe_zero_mask(const Fe& a) {
  const U256& v = a.value();
  return zero_mask(v.limb(0) | v.limb(1) | v.limb(2) | v.limb(3));
}

/// a^(2^n).
Fe sqr_n(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = a.square();
  return a;
}

/// The blocks of ones that both exponent chains below start from:
/// a^(2^223 - 1), a^(2^22 - 1) and a^(2^2 - 1) (see libsecp256k1).
struct OnesChain {
  Fe x2, x22, x223;
  explicit OnesChain(const Fe& a) {
    x2 = a.square() * a;
    const Fe x3 = x2.square() * a;
    const Fe x6 = sqr_n(x3, 3) * x3;
    const Fe x9 = sqr_n(x6, 3) * x3;
    const Fe x11 = sqr_n(x9, 2) * x2;
    x22 = sqr_n(x11, 11) * x11;
    const Fe x44 = sqr_n(x22, 22) * x22;
    const Fe x88 = sqr_n(x44, 44) * x44;
    const Fe x176 = sqr_n(x88, 88) * x88;
    const Fe x220 = sqr_n(x176, 44) * x44;
    x223 = sqr_n(x220, 3) * x3;
  }
};

/// Branch-free doubling (dbl-2009-l for a = 0, with D = 4·X·Y^2 taken as
/// one multiply): 3M + 4S. The identity (Z = 0) maps to Z = 0; no point of
/// secp256k1 has Y = 0.
JacobianPoint dbl(const JacobianPoint& p) {
  const Fe a = p.x.square();
  const Fe b = p.y.square();
  const Fe d = mul_small(p.x * b, 4);
  const Fe e = mul_small(a, 3);
  const Fe x3 = e.square() - (d + d);
  const Fe y3 = e * (d - x3) - mul_small(b.square(), 8);
  const Fe yz = p.y * p.z;
  return {x3, y3, yz + yz};
}

/// Generic mixed sum p + (qx, qy, 1) by add-2007-bl (7M + 4S), valid when
/// neither operand is the identity and p != q. Also returns
/// H = qx·Z^2 - X, zero exactly when p == ±q, and R = 2(qy·Z^3 - Y), zero
/// when additionally p == q. For p == -q the result has Z3 = 2·Z·H = 0,
/// which is the identity.
JacobianPoint madd(const JacobianPoint& p, const Fe& qx, const Fe& qy, Fe& h,
                   Fe& r) {
  const Fe z1z1 = p.z.square();
  h = qx * z1z1 - p.x;
  const Fe hh = h.square();
  const Fe i = mul_small(hh, 4);
  const Fe j = h * i;
  r = qy * p.z * z1z1 - p.y;
  r = r + r;
  const Fe v = p.x * i;
  const Fe x3 = r.square() - j - (v + v);
  const Fe yj = p.y * j;
  const Fe y3 = r * (v - x3) - (yj + yj);
  const Fe z3 = (p.z + h).square() - z1z1 - hh;
  return {x3, y3, z3};
}

/// p + (qx, qy) for any p; variable time (public operands only).
JacobianPoint add_mixed(const JacobianPoint& p, const Fe& qx, const Fe& qy) {
  if (p.z.is_zero()) return {qx, qy, Fe{U256{1}}};
  Fe h;
  Fe r;
  const JacobianPoint sum = madd(p, qx, qy, h, r);
  if (h.is_zero()) return r.is_zero() ? dbl(p) : JacobianPoint::infinity();
  return sum;
}

JacobianPoint select(u64 mask, const JacobianPoint& a, const JacobianPoint& b) {
  return {fe_select(mask, a.x, b.x), fe_select(mask, a.y, b.y),
          fe_select(mask, a.z, b.z)};
}

/// Comb step: p + q for affine q (the identity when `q_is_identity` is all
/// ones), branch-free. After w windows the comb's accumulator is
/// (k mod 16^w)·G and it adds d·16^w·G with d in [1, 15]; both multipliers
/// lie in [0, n) and differ, so the points never coincide, and they are
/// opposite only when k == n at the last window, where madd already yields
/// the identity. So the identity operands are the only special cases, and
/// masks pick them.
JacobianPoint add_mixed_ct(const JacobianPoint& p, const Fe& qx, const Fe& qy,
                           u64 q_is_identity) {
  Fe h;
  Fe r;
  const JacobianPoint sum = madd(p, qx, qy, h, r);
  const JacobianPoint out =
      select(fe_zero_mask(p.z), JacobianPoint{qx, qy, Fe{U256{1}}}, sum);
  return select(q_is_identity, p, out);
}

/// Affine x, y without the is-it-the-identity branch of to_affine(), for
/// k·G with k in [1, n-1] (never the identity).
AffinePoint to_affine_ct(const JacobianPoint& p) {
  const Fe z_inv = p.z.inverse();
  const Fe z_inv2 = z_inv.square();
  return AffinePoint{p.x * z_inv2, p.y * z_inv2 * z_inv, false};
}

/// Affine coordinates as bare field values: 64 bytes an entry.
struct TableEntry {
  Fe x;
  Fe y;
};

/// Jacobian points (none the identity) to affine with one field inversion
/// (Montgomery's trick).
std::vector<TableEntry> batch_to_affine(const std::vector<JacobianPoint>& in) {
  std::vector<Fe> prefix(in.size());
  Fe acc{U256{1}};
  for (std::size_t i = 0; i < in.size(); ++i) {
    prefix[i] = acc;
    acc = acc * in[i].z;
  }
  Fe inv = acc.inverse();
  std::vector<TableEntry> out(in.size());
  for (std::size_t i = in.size(); i-- > 0;) {
    const Fe z_inv = inv * prefix[i];
    inv = inv * in[i].z;
    const Fe z_inv2 = z_inv.square();
    out[i] = {in[i].x * z_inv2, in[i].y * z_inv2 * z_inv};
  }
  return out;
}

// Fixed-base comb for G: window w holds j·16^w·G for j = 1..15, and 64
// windows cover all 256 scalar bits, so k·G is one table addition per
// window and no doublings. 64 × 15 entries × 64 B = 60 KB.
constexpr std::size_t kCombWindows = 64;
constexpr std::size_t kCombEntries = 15;
using CombTable =
    std::array<std::array<TableEntry, kCombEntries>, kCombWindows>;

const CombTable& comb_table() {
  // Built on the first signature or key derivation, never at start-up. It
  // lives on the heap, so a process that never signs carries only a pointer.
  static const CombTable* const table = [] {
    std::vector<JacobianPoint> jac;
    jac.reserve(kCombWindows * kCombEntries);
    JacobianPoint base = JacobianPoint::from_affine(generator());
    for (std::size_t w = 0; w < kCombWindows; ++w) {
      JacobianPoint multiple = base;
      for (std::size_t j = 0; j < kCombEntries; ++j) {
        jac.push_back(multiple);
        multiple = add(multiple, base);
      }
      base = multiple;  // 16·base
    }
    const auto affine = batch_to_affine(jac);
    auto* t = new CombTable;
    for (std::size_t w = 0; w < kCombWindows; ++w) {
      std::copy_n(affine.begin() + w * kCombEntries, kCombEntries,
                  (*t)[w].begin());
    }
    return t;
  }();
  return *table;
}

/// k·G for any 256-bit k, constant-time in k.
JacobianPoint comb_mul(const U256& k) {
  const CombTable& table = comb_table();
  JacobianPoint acc = JacobianPoint::infinity();
  for (std::size_t w = 0; w < kCombWindows; ++w) {
    const u64 digit = (k.limb(w / 16) >> (4 * (w % 16))) & 0xF;
    // Constant time in the secret scalar: every entry of the window is
    // read, and the one matching the digit is kept with a mask computed
    // arithmetically. Nothing branches on the digit or indexes memory by
    // it; add_mixed_ct then does the same work whatever the digit was.
    u64 x[4] = {};
    u64 y[4] = {};
    for (std::size_t j = 0; j < kCombEntries; ++j) {
      const u64 keep = zero_mask(digit ^ (j + 1));
      const TableEntry& e = table[w][j];
      for (unsigned l = 0; l < 4; ++l) {
        x[l] |= e.x.value().limb(l) & keep;
        y[l] |= e.y.value().limb(l) & keep;
      }
    }
    acc = add_mixed_ct(acc, Fe{U256{x[3], x[2], x[1], x[0]}},
                       Fe{U256{y[3], y[2], y[1], y[0]}}, zero_mask(digit));
  }
  return acc;
}

// Joint multiplication windows: odd multiples of G up to 127·G in a static
// table (64 entries, 4 KB), odd multiples of Q up to 15·Q per call.
constexpr int kWindowG = 8;
constexpr int kWindowQ = 5;
constexpr std::size_t kOddG = std::size_t{1} << (kWindowG - 2);
using OddGTable = std::array<TableEntry, kOddG>;

const OddGTable& odd_g_table() {
  static const OddGTable table = [] {
    const JacobianPoint g = JacobianPoint::from_affine(generator());
    const JacobianPoint g2 = dbl(g);
    std::vector<JacobianPoint> jac{g};
    while (jac.size() < kOddG) jac.push_back(add(jac.back(), g2));
    const auto affine = batch_to_affine(jac);
    OddGTable t;
    std::copy(affine.begin(), affine.end(), t.begin());
    return t;
  }();
  return table;
}

/// Width-w NAF of k: nonzero digits are odd, below 2^(w-1) in magnitude and
/// at least w apart. 257 positions hold any k < 2^256. Returns one past the
/// highest nonzero digit.
using Naf = std::array<int, 257>;
int wnaf(const U256& k, int w, Naf& out) {
  out.fill(0);
  int carry = 0;
  int len = 0;
  for (int bit = 0; bit < 257;) {
    if (static_cast<int>(k.bit(static_cast<unsigned>(bit))) == carry) {
      ++bit;
      continue;
    }
    const int now = std::min(w, 257 - bit);
    // Bits [bit, bit + now) of k, reading zeros above bit 255.
    u64 word = 0;
    const unsigned limb = static_cast<unsigned>(bit) / 64;
    const unsigned shift = static_cast<unsigned>(bit) % 64;
    if (limb < 4) {
      word = k.limb(limb) >> shift;
      if (shift + static_cast<unsigned>(now) > 64 && limb < 3) {
        word |= k.limb(limb + 1) << (64 - shift);
      }
    }
    int digit = static_cast<int>(word & ((1u << now) - 1)) + carry;
    carry = (digit >> (w - 1)) & 1;
    digit -= carry << w;
    out[static_cast<std::size_t>(bit)] = digit;
    len = bit + 1;
    bit += now;
  }
  return len;
}

}  // namespace

U256 field_prime() { return kP; }
U256 group_order() { return kN; }

U256 mul_mod_n(const U256& a, const U256& b) {
  return reduce_n(mul_wide(a, b));
}

U256 inv_mod_n(const U256& a) {
  // a^(n-2) with a fixed 4-bit window: 14 multiplies for a^2..a^15, then
  // 252 squarings and 63 multiplies by a^digit. The exponent is public, so
  // which power each window multiplies by reveals nothing about a.
  std::array<U256, 16> power;
  power[0] = U256{1};
  for (unsigned i = 1; i < 16; ++i) power[i] = mul_mod_n(power[i - 1], a);
  const U256 e = kN - U256{2};
  auto digit = [&](unsigned w) {
    return (e.limb(w / 16) >> (4 * (w % 16))) & 0xF;
  };
  U256 r = power[digit(63)];
  for (unsigned w = 63; w-- > 0;) {
    for (int i = 0; i < 4; ++i) r = sqr_mod_n(r);
    r = mul_mod_n(r, power[digit(w)]);
  }
  return r;
}

Fe::Fe(const U256& v) : v_(v) { assert(v < kP); }

Fe Fe::from_reduced(const U256& v) {
  Fe out;
  out.v_ = v % kP;
  return out;
}

Fe operator+(const Fe& a, const Fe& b) { return Fe{add_mod(a.v_, b.v_, kP)}; }
Fe operator-(const Fe& a, const Fe& b) { return Fe{sub_mod(a.v_, b.v_, kP)}; }
Fe operator*(const Fe& a, const Fe& b) {
  return Fe{reduce_p(mul_wide(a.v_, b.v_))};
}

Fe Fe::square() const { return Fe{reduce_p(sqr_wide(v_))}; }

Fe Fe::inverse() const {
  // a^(p-2): p - 2 is ones in blocks of 223, 22, 1, 2 and 1 (with zeros
  // between), assembled from the shared chain.
  const OnesChain c(*this);
  Fe t = sqr_n(c.x223, 23) * c.x22;
  t = sqr_n(t, 5) * *this;
  t = sqr_n(t, 3) * c.x2;
  return sqr_n(t, 2) * *this;
}

std::optional<Fe> Fe::sqrt() const {
  // p ≡ 3 (mod 4): sqrt(a) = a^((p+1)/4) when a is a QR; (p+1)/4 is ones
  // in blocks of 223, 22 and 2.
  const OnesChain c(*this);
  Fe t = sqr_n(c.x223, 23) * c.x22;
  t = sqr_n(t, 6) * c.x2;
  const Fe root = sqr_n(t, 2);
  if (root.square() == *this) return root;
  return std::nullopt;
}

Fe Fe::negate() const { return Fe{sub_mod(U256{0}, v_, kP)}; }

bool AffinePoint::on_curve() const {
  if (infinity) return true;
  const Fe seven{U256{7}};
  return y.square() == x.square() * x + seven;
}

JacobianPoint JacobianPoint::infinity() {
  return {Fe{U256{1}}, Fe{U256{1}}, Fe{U256{0}}};
}

JacobianPoint JacobianPoint::from_affine(const AffinePoint& p) {
  if (p.infinity) return infinity();
  return {p.x, p.y, Fe{U256{1}}};
}

AffinePoint JacobianPoint::to_affine() const {
  if (z.is_zero()) return AffinePoint{};
  return to_affine_ct(*this);
}

AffinePoint generator() { return AffinePoint{Fe{kGx}, Fe{kGy}, false}; }

JacobianPoint double_point(const JacobianPoint& p) {
  if (p.z.is_zero()) return JacobianPoint::infinity();
  return dbl(p);
}

JacobianPoint add(const JacobianPoint& p, const JacobianPoint& q) {
  if (p.z.is_zero()) return q;
  if (q.z.is_zero()) return p;
  // add-2007-bl.
  const Fe z1z1 = p.z.square();
  const Fe z2z2 = q.z.square();
  const Fe u1 = p.x * z2z2;
  const Fe u2 = q.x * z1z1;
  const Fe s1 = p.y * q.z * z2z2;
  const Fe s2 = q.y * p.z * z1z1;
  if (u1 == u2) {
    if (s1 == s2) return dbl(p);
    return JacobianPoint::infinity();
  }
  const Fe h = u2 - u1;
  Fe i = h + h;
  i = i.square();
  const Fe j = h * i;
  Fe r = s2 - s1;
  r = r + r;
  const Fe v = u1 * i;
  const Fe x3 = r.square() - j - (v + v);
  Fe s1j = s1 * j;
  const Fe y3 = r * (v - x3) - (s1j + s1j);
  const Fe z3 = ((p.z + q.z).square() - z1z1 - z2z2) * h;
  return {x3, y3, z3};
}

JacobianPoint scalar_mul(const U256& k, const AffinePoint& p) {
  if (p == generator()) return comb_mul(k);
  return shamir_mul(U256{0}, k, p);
}

JacobianPoint shamir_mul(const U256& k1, const U256& k2,
                         const AffinePoint& p) {
  Naf naf_g;
  Naf naf_q;
  const int len_g = wnaf(k1, kWindowG, naf_g);
  const int len_q = p.infinity ? 0 : wnaf(k2, kWindowQ, naf_q);
  // Q, 3Q, ..., 15Q.
  std::array<JacobianPoint, 1u << (kWindowQ - 2)> odd_q;
  if (len_q > 0) {
    odd_q[0] = JacobianPoint::from_affine(p);
    const JacobianPoint q2 = dbl(odd_q[0]);
    for (std::size_t i = 1; i < odd_q.size(); ++i) {
      odd_q[i] = add(odd_q[i - 1], q2);
    }
  }
  const OddGTable* odd_g = len_g > 0 ? &odd_g_table() : nullptr;
  JacobianPoint acc = JacobianPoint::infinity();
  for (int i = std::max(len_g, len_q) - 1; i >= 0; --i) {
    acc = double_point(acc);
    const auto at = static_cast<std::size_t>(i);
    if (const int d = len_q > 0 ? naf_q[at] : 0; d != 0) {
      JacobianPoint t = odd_q[static_cast<std::size_t>(std::abs(d) / 2)];
      if (d < 0) t.y = t.y.negate();
      acc = add(acc, t);
    }
    if (const int d = naf_g[at]; d != 0) {
      const TableEntry& e = (*odd_g)[static_cast<std::size_t>(std::abs(d) / 2)];
      acc = add_mixed(acc, e.x, d < 0 ? e.y.negate() : e.y);
    }
  }
  return acc;
}

std::array<std::uint8_t, 64> PublicKey::serialize() const {
  std::array<std::uint8_t, 64> out;
  const auto xw = point.x.value().to_word();
  const auto yw = point.y.value().to_word();
  std::memcpy(out.data(), xw.data(), 32);
  std::memcpy(out.data() + 32, yw.data(), 32);
  return out;
}

Address PublicKey::address() const {
  const auto ser = serialize();
  const Hash256 h = keccak256(ser);
  Address out;
  std::memcpy(out.data(), h.data() + 12, 20);
  return out;
}

std::optional<PrivateKey> PrivateKey::from_scalar(const U256& k) {
  if (k.is_zero() || k >= kN) return std::nullopt;
  return PrivateKey{k};
}

std::optional<PrivateKey> PrivateKey::from_bytes(const Hash256& bytes) {
  return from_scalar(U256::from_bytes(bytes));
}

PrivateKey PrivateKey::from_seed(std::string_view seed) {
  Hash256 h = keccak256(seed);
  for (;;) {
    if (auto key = from_bytes(h)) return *key;
    h = keccak256(h);
  }
}

PublicKey PrivateKey::public_key() const {
  return PublicKey{to_affine_ct(comb_mul(d_))};
}

std::array<std::uint8_t, 65> Signature::serialize() const {
  std::array<std::uint8_t, 65> out;
  const auto rw = r.to_word();
  const auto sw = s.to_word();
  std::memcpy(out.data(), rw.data(), 32);
  std::memcpy(out.data() + 32, sw.data(), 32);
  out[64] = static_cast<std::uint8_t>(27 + recovery_id);
  return out;
}

std::optional<Signature> Signature::deserialize(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() != 65) return std::nullopt;
  Signature sig;
  sig.r = U256::from_bytes(bytes.subspan(0, 32));
  sig.s = U256::from_bytes(bytes.subspan(32, 32));
  const std::uint8_t v = bytes[64];
  if (v != 27 && v != 28 && v != 0 && v != 1) return std::nullopt;
  sig.recovery_id = static_cast<std::uint8_t>(v >= 27 ? v - 27 : v);
  return sig;
}

U256 rfc6979_nonce(const U256& key, const Hash256& digest) {
  // RFC 6979 §3.2 with SHA-256; qlen == hlen == 256 so bits2octets is a
  // plain reduction mod n.
  const auto key_word = key.to_word();
  const U256 h_reduced = reduce_once_n(U256::from_bytes(digest));
  const auto h_word = h_reduced.to_word();

  std::array<std::uint8_t, 32> v;
  std::array<std::uint8_t, 32> k;
  v.fill(0x01);
  k.fill(0x00);

  auto hmac_concat = [&](std::uint8_t sep_byte, bool include_material) {
    std::vector<std::uint8_t> msg(v.begin(), v.end());
    msg.push_back(sep_byte);
    if (include_material) {
      msg.insert(msg.end(), key_word.begin(), key_word.end());
      msg.insert(msg.end(), h_word.begin(), h_word.end());
    }
    return hmac_sha256(k, msg);
  };

  Hash256 t = hmac_concat(0x00, true);
  std::memcpy(k.data(), t.data(), 32);
  t = hmac_sha256(k, v);
  std::memcpy(v.data(), t.data(), 32);
  t = hmac_concat(0x01, true);
  std::memcpy(k.data(), t.data(), 32);
  t = hmac_sha256(k, v);
  std::memcpy(v.data(), t.data(), 32);

  for (;;) {
    t = hmac_sha256(k, v);
    std::memcpy(v.data(), t.data(), 32);
    const U256 candidate = U256::from_bytes(v);
    if (!candidate.is_zero() && candidate < kN) return candidate;
    // Retry path: K = HMAC(K, V || 0x00); V = HMAC(K, V).
    std::vector<std::uint8_t> msg(v.begin(), v.end());
    msg.push_back(0x00);
    t = hmac_sha256(k, msg);
    std::memcpy(k.data(), t.data(), 32);
    t = hmac_sha256(k, v);
    std::memcpy(v.data(), t.data(), 32);
  }
}

Signature sign(const Hash256& digest, const PrivateKey& key) {
  obs::Span span("crypto.sign", "crypto");
  CryptoSample sample([]() -> obs::Histogram& {
    static obs::Histogram& series = obs::Registry::instance().histogram(
        "tinyevm_crypto_sign_us", "ECDSA sign latency in microseconds");
    return series;
  });
  const U256 z = reduce_once_n(U256::from_bytes(digest));
  U256 k = rfc6979_nonce(key.scalar(), digest);
  for (;;) {
    // Nothing from here to the branches on r and s depends on the nonce or
    // the key for its control flow or memory addresses: the comb, the
    // inversions and the scalar arithmetic are all branch-free. Those
    // branches, and R.y's parity, test values the signature publishes.
    const AffinePoint rp = to_affine_ct(comb_mul(k));
    const U256 r = reduce_once_n(rp.x.value());
    if (r.is_zero()) {
      k = add_mod(k, U256{1}, kN);
      continue;
    }
    const U256 k_inv = inv_mod_n(k);
    U256 s = mul_mod_n(k_inv, add_mod(z, mul_mod_n(r, key.scalar()), kN));
    if (s.is_zero()) {
      k = add_mod(k, U256{1}, kN);
      continue;
    }
    std::uint8_t rec = rp.y.value().bit(0) ? 1 : 0;
    // Low-s normalization (Ethereum/BIP-62): s' = n - s flips R.y parity.
    if (s > (kN >> 1)) {
      s = kN - s;
      rec ^= 1;
    }
    return Signature{r, s, rec};
  }
}

bool verify(const Hash256& digest, const Signature& sig,
            const PublicKey& pub) {
  obs::Span span("crypto.verify", "crypto");
  CryptoSample sample([]() -> obs::Histogram& {
    static obs::Histogram& series = obs::Registry::instance().histogram(
        "tinyevm_crypto_verify_us", "ECDSA verify latency in microseconds");
    return series;
  });
  if (sig.r.is_zero() || sig.r >= kN || sig.s.is_zero() || sig.s >= kN) {
    return false;
  }
  if (pub.point.infinity || !pub.point.on_curve()) return false;
  const U256 z = reduce_once_n(U256::from_bytes(digest));
  const U256 s_inv = inv_mod_n(sig.s);
  const U256 u1 = mul_mod_n(z, s_inv);
  const U256 u2 = mul_mod_n(sig.r, s_inv);
  const JacobianPoint rj = shamir_mul(u1, u2, pub.point);
  if (rj.z.is_zero()) return false;
  // R.x mod n == r, checked without leaving Jacobian coordinates: the affine
  // x is X/Z^2 < p, so it is r or, when r + n < p, r + n.
  const Fe zz = rj.z.square();
  if (Fe{sig.r} * zz == rj.x) return true;
  const U256 r_plus_n = sig.r + kN;
  return r_plus_n > sig.r && r_plus_n < kP && Fe{r_plus_n} * zz == rj.x;
}

std::optional<PublicKey> recover(const Hash256& digest, const Signature& sig) {
  obs::Span span("crypto.recover", "crypto");
  CryptoSample sample([]() -> obs::Histogram& {
    static obs::Histogram& series = obs::Registry::instance().histogram(
        "tinyevm_crypto_recover_us", "ECDSA recover latency in microseconds");
    return series;
  });
  if (sig.r.is_zero() || sig.r >= kN || sig.s.is_zero() || sig.s >= kN) {
    return std::nullopt;
  }
  // R.x = r (we ignore the r + n overflow case: probability ~2^-128 and
  // Ethereum tooling does the same for channel messages).
  if (sig.r >= kP) return std::nullopt;
  const Fe x{sig.r};
  const Fe y2 = x.square() * x + Fe{U256{7}};
  const auto y_opt = y2.sqrt();
  if (!y_opt) return std::nullopt;
  Fe y = *y_opt;
  const bool y_is_odd = y.value().bit(0);
  if (y_is_odd != (sig.recovery_id == 1)) y = y.negate();

  const AffinePoint r_point{x, y, false};
  // Q = r^{-1} (s*R - z*G)
  const U256 r_inv = inv_mod_n(sig.r);
  const U256 z = reduce_once_n(U256::from_bytes(digest));
  const U256 u1 = mul_mod_n(sub_mod(U256{0}, z, kN), r_inv);  // -z * r^-1
  const U256 u2 = mul_mod_n(sig.s, r_inv);
  const AffinePoint q = shamir_mul(u1, u2, r_point).to_affine();
  if (q.infinity) return std::nullopt;
  return PublicKey{q};
}

std::optional<Address> recover_address(const Hash256& digest,
                                       const Signature& sig) {
  const auto pub = recover(digest, sig);
  if (!pub) return std::nullopt;
  return pub->address();
}

}  // namespace tinyevm::secp256k1
