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


// GLV endomorphism: λ·(x, y) = (β·x, y), with λ^3 ≡ 1 (mod n) and
// β^3 ≡ 1 (mod p).
constexpr U256 kLambda{0x5363AD4CC05C30E0ULL, 0xA5261C028812645AULL,
                       0x122E22EA20816678ULL, 0xDF02967C1B23BD72ULL};
constexpr U256 kMinusLambda{0xAC9C52B33FA3CF1FULL, 0x5AD9E3FD77ED9BA4ULL,
                            0xA880B9FC8EC739C2ULL, 0xE0CFC810B51283CFULL};
constexpr U256 kBeta{0x7AE96A2B657C0710ULL, 0x6E64479EAC3434E9ULL,
                     0x9CF0497512F58995ULL, 0xC1396C28719501EEULL};
// The split's lattice: (a1, b1) and (a2, b2) span the scalars k with
// k + λ·0 ≡ 0, and g1 = round(2^384·b2/n), g2 = round(2^384·(−b1)/n).
constexpr U256 kG1{0x3086D221A7D46BCDULL, 0xE86C90E49284EB15ULL,
                   0x3DAA8A1471E8CA7FULL, 0xE893209A45DBB031ULL};
constexpr U256 kG2{0xE4437ED6010E8828ULL, 0x6F547FA90ABFE4C4ULL,
                   0x221208AC9DF506C6ULL, 0x1571B4AE8AC47F71ULL};
constexpr U256 kMinusB1{0, 0, 0xE4437ED6010E8828ULL, 0x6F547FA90ABFE4C3ULL};
constexpr U256 kMinusB2{0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFEULL,
                        0x8A280AC50774346DULL, 0xD765CDA83DB1562CULL};

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

/// All ones when a < b, else zero; branch-free.
[[gnu::always_inline]] inline u64 less_mask(const U256& a, const U256& b) {
  u64 borrow = 0;
  for (unsigned i = 0; i < 4; ++i) detail::subb(a.limb(i), b.limb(i), borrow);
  return opaque(0 - borrow);
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

/// The full 512-bit product a·b.
[[gnu::always_inline]] inline Wide product(const U256& a, const U256& b) {
  const u64 x[4] = {a.limb(0), a.limb(1), a.limb(2), a.limb(3)};
  const u64 y[4] = {b.limb(0), b.limb(1), b.limb(2), b.limb(3)};
  Wide w{};
  mul_add(w.data(), 8, x, 4, y, 4);
  return w;
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

// ---- Field arithmetic on 5×52-bit limbs ----

using field::kFold;
using field::kM48;
using field::kM52;
// p's normalised limbs are p0, then 2^52 - 1 three times, then 2^48 - 1.
constexpr u64 kP0 = kM52 + 1 - kFold;

/// Fully reduces limbs of magnitude ≤ 32 to the canonical value < p.
/// Branch-free.
[[gnu::always_inline]] inline Fe::Limbs normalize_limbs(const Fe::Limbs& n) {
  u64 t0 = n[0], t1 = n[1], t2 = n[2], t3 = n[3], t4 = n[4];
  // Fold the bits at and above 2^256 first, so that one carry pass leaves
  // at most bit 256 set above the low 256 bits.
  u64 x = t4 >> 48;
  t4 &= kM48;
  t0 += x * kFold;
  t1 += t0 >> 52;
  t0 &= kM52;
  t2 += t1 >> 52;
  t1 &= kM52;
  t3 += t2 >> 52;
  t2 &= kM52;
  t4 += t3 >> 52;
  t3 &= kM52;
  // Subtract p (add 2^256 − p and drop bit 256) when the value carried into
  // bit 256, or when it is at least p with no carry: every upper limb at
  // its maximum and t0 ≥ p0.
  const u64 top_max = zero_mask(t4 ^ kM48) & zero_mask((t1 & t2 & t3) ^ kM52);
  const u64 low_ge = ((t0 - kP0) >> 63) ^ 1;
  x = (t4 >> 48) | (top_max & low_ge);
  t0 += x * kFold;
  t1 += t0 >> 52;
  t0 &= kM52;
  t2 += t1 >> 52;
  t1 &= kM52;
  t3 += t2 >> 52;
  t2 &= kM52;
  t4 += t3 >> 52;
  t3 &= kM52;
  return {t0, t1, t2, t3, t4 & kM48};
}

}  // namespace

#ifndef NDEBUG
void Fe::set_magnitude(int m) {
  magnitude_ = m;
  const u64 bound = 2 * static_cast<u64>(m);
  for (unsigned i = 0; i < 4; ++i) assert(n_[i] <= bound * kM52);
  assert(n_[4] <= bound * kM48);
}
#endif

namespace {

/// The 52-bit limbs of a 256-bit value.
Fe::Limbs split_52(const U256& v) {
  const u64 l0 = v.limb(0), l1 = v.limb(1), l2 = v.limb(2), l3 = v.limb(3);
  return {l0 & kM52, ((l0 >> 52) | (l1 << 12)) & kM52,
          ((l1 >> 40) | (l2 << 24)) & kM52, ((l2 >> 28) | (l3 << 36)) & kM52,
          l3 >> 16};
}

}  // namespace

Fe::Fe(const U256& v) : n_(split_52(v)) {
  assert(v < kP);
  set_magnitude(1);
}

Fe Fe::from_reduced(const U256& v) {
  // Any 256-bit value is below 2p: its limbs have magnitude 1.
  return from_limbs(split_52(v), 1).normalized();
}

Fe Fe::from_limbs(const Limbs& limbs, int magnitude) {
  Fe r;
  r.n_ = limbs;
  r.set_magnitude(magnitude);
  return r;
}

Fe Fe::normalized() const { return from_limbs(normalize_limbs(n_), 1); }

U256 Fe::value() const {
  const Limbs t = normalize_limbs(n_);
  return U256{(t[3] >> 36) | (t[4] << 16), (t[2] >> 24) | (t[3] << 28),
              (t[1] >> 12) | (t[2] << 40), t[0] | (t[1] << 52)};
}

bool Fe::is_zero() const {
  // After folding the top limb's excess, an element ≡ 0 has a low limb of
  // 0 or p0, and a carry pass cannot change those 52 bits.
  const u64 low = (n_[0] + (n_[4] >> 48) * kFold) & kM52;
  if (low != 0 && low != kP0) return false;
  const Limbs t = normalize_limbs(n_);
  return (t[0] | t[1] | t[2] | t[3] | t[4]) == 0;
}

bool operator==(const Fe& a, const Fe& b) {
  return normalize_limbs(a.n_) == normalize_limbs(b.n_);
}

Fe operator+(const Fe& a, const Fe& b) {
  Fe r;
  for (unsigned i = 0; i < 5; ++i) r.n_[i] = a.n_[i] + b.n_[i];
  r.set_magnitude(a.magnitude() + b.magnitude());
  return r;
}

Fe operator-(const Fe& a, const Fe& b) {
  assert(b.magnitude() <= 1);
  return a + b.negate(1);
}

Fe Fe::negate(int m) const {
  assert(magnitude() <= m);
  const u64 k = 2 * (static_cast<u64>(m) + 1);
  Fe r;
  r.n_ = {kP0 * k - n_[0], kM52 * k - n_[1], kM52 * k - n_[2],
          kM52 * k - n_[3], kM48 * k - n_[4]};
  r.set_magnitude(m + 1);
  return r;
}

Fe Fe::mul_small(std::uint32_t k) const {
  Fe r;
  for (unsigned i = 0; i < 5; ++i) r.n_[i] = n_[i] * k;
  r.set_magnitude(magnitude() * static_cast<int>(k));
  return r;
}

Fe Fe::half() const {
  // Add p when odd (mask is 2^52 - 1 then), making the value even; then
  // shift right across the limbs.
  const u64 mask = (0 - (n_[0] & 1)) >> 12;
  const u64 t0 = n_[0] + (kP0 & mask), t1 = n_[1] + mask, t2 = n_[2] + mask,
            t3 = n_[3] + mask, t4 = n_[4] + (mask >> 4);
  Fe r;
  r.n_ = {(t0 >> 1) + ((t1 & 1) << 51), (t1 >> 1) + ((t2 & 1) << 51),
          (t2 >> 1) + ((t3 & 1) << 51), (t3 >> 1) + ((t4 & 1) << 51),
          t4 >> 1};
  r.set_magnitude(magnitude() / 2 + 1);
  return r;
}

Fe Fe::select(std::uint64_t mask, const Fe& a, const Fe& b) {
  Fe r;
  for (unsigned i = 0; i < 5; ++i) {
    r.n_[i] = b.n_[i] ^ ((a.n_[i] ^ b.n_[i]) & mask);
  }
  r.set_magnitude(std::max(a.magnitude(), b.magnitude()));
  return r;
}

namespace {

// ---- Modular inverse: Bernstein–Yang safegcd ----
//
// One constant-time routine for both moduli. Values are five signed 62-bit
// limbs (the low four in [0, 2^62), the top one signed). Each batch runs 62
// divsteps on the low limbs of f and g alone, collecting them in a 2×2
// matrix scaled by 2^62, then applies the matrix to the full f, g and to
// the Bézout tracks d, e, dividing by 2^62 (exactly for f, g; mod the
// modulus for d, e). Ten batches, 620 divsteps, exceed the 590 that any
// 256-bit input needs with the half-delta divstep (Bernstein–Yang 2019,
// and libsecp256k1's bound), so the count is fixed and nothing branches on
// the value.

using i64 = std::int64_t;
using i128 = __int128;

constexpr u64 kM62 = ~u64{0} >> 2;

struct Signed62 {
  std::array<i64, 5> v{};
};

struct Modulus62 {
  Signed62 m;
  u64 inv62 = 0;  // m^-1 mod 2^62
};

/// u·f0 + v·g0 = f·2^62 and q·f0 + r·g0 = g·2^62 after a batch.
struct Trans2x2 {
  i64 u, v, q, r;
};

constexpr Signed62 to_signed62(const U256& a) {
  const u64 l0 = a.limb(0), l1 = a.limb(1), l2 = a.limb(2), l3 = a.limb(3);
  return {{static_cast<i64>(l0 & kM62),
           static_cast<i64>(((l0 >> 62) | (l1 << 2)) & kM62),
           static_cast<i64>(((l1 >> 60) | (l2 << 4)) & kM62),
           static_cast<i64>(((l2 >> 58) | (l3 << 6)) & kM62),
           static_cast<i64>(l3 >> 56)}};
}

/// For a value in [0, 2^256) with limbs in range.
U256 from_signed62(const Signed62& a) {
  const auto l = [&](unsigned i) { return static_cast<u64>(a.v[i]); };
  return U256{(l(3) >> 6) | (l(4) << 56), (l(2) >> 4) | (l(3) << 58),
              (l(1) >> 2) | (l(2) << 60), l(0) | (l(1) << 62)};
}

constexpr Modulus62 make_modulus(const U256& m) {
  // Newton's iteration doubles the correct low bits: 3 → 6 → ... → 96.
  u64 inv = m.limb(0);
  for (int i = 0; i < 5; ++i) inv *= 2 - m.limb(0) * inv;
  return {to_signed62(m), inv & kM62};
}

constexpr Modulus62 kModP = make_modulus(kP);
constexpr Modulus62 kModN = make_modulus(kN);

/// 62 half-delta divsteps on the low bits of f and g, as masks. zeta is
/// −(delta + 1/2); the step that swaps f and g is taken when zeta < 0 and
/// g is odd.
i64 divsteps_62(i64 zeta, u64 f, u64 g, Trans2x2& t) {
  u64 u = 1, v = 0, q = 0, r = 1;
  for (int i = 0; i < 62; ++i) {
    const u64 neg = opaque(static_cast<u64>(zeta >> 63));  // zeta < 0
    const u64 odd = opaque(0 - (g & 1));
    // g += ±f (−f when swapping), and likewise its matrix row.
    g += ((f ^ neg) - neg) & odd;
    q += ((u ^ neg) - neg) & odd;
    r += ((v ^ neg) - neg) & odd;
    const u64 swap = neg & odd;
    zeta = (zeta ^ static_cast<i64>(swap)) - 1;  // −zeta − 2 or zeta − 1
    // On a swap f becomes the old g (f + (g − f)).
    f += g & swap;
    u += q & swap;
    v += r & swap;
    g >>= 1;
    u <<= 1;
    v <<= 1;
  }
  t = {static_cast<i64>(u), static_cast<i64>(v), static_cast<i64>(q),
       static_cast<i64>(r)};
  return zeta;
}

/// [d, e] = t·[d, e] / 2^62 mod m, keeping both in (−2m, m).
void update_de(Signed62& d, Signed62& e, const Trans2x2& t,
               const Modulus62& mod) {
  const i64 sd = d.v[4] >> 63;
  const i64 se = e.v[4] >> 63;
  // Start with u·m (q·m) if d < 0 and v·m (r·m) if e < 0, which keeps the
  // result above −2m, then adjust so the low 62 bits cancel.
  i64 md = (t.u & sd) + (t.v & se);
  i64 me = (t.q & sd) + (t.r & se);
  i128 cd = i128{t.u} * d.v[0] + i128{t.v} * e.v[0];
  i128 ce = i128{t.q} * d.v[0] + i128{t.r} * e.v[0];
  md -= static_cast<i64>(
      (mod.inv62 * static_cast<u64>(cd) + static_cast<u64>(md)) & kM62);
  me -= static_cast<i64>(
      (mod.inv62 * static_cast<u64>(ce) + static_cast<u64>(me)) & kM62);
  cd += i128{mod.m.v[0]} * md;
  ce += i128{mod.m.v[0]} * me;
  cd >>= 62;
  ce >>= 62;
  for (unsigned i = 1; i < 5; ++i) {
    cd += i128{t.u} * d.v[i] + i128{t.v} * e.v[i] + i128{mod.m.v[i]} * md;
    ce += i128{t.q} * d.v[i] + i128{t.r} * e.v[i] + i128{mod.m.v[i]} * me;
    d.v[i - 1] = static_cast<i64>(static_cast<u64>(cd) & kM62);
    e.v[i - 1] = static_cast<i64>(static_cast<u64>(ce) & kM62);
    cd >>= 62;
    ce >>= 62;
  }
  d.v[4] = static_cast<i64>(cd);
  e.v[4] = static_cast<i64>(ce);
}

/// [f, g] = t·[f, g] / 2^62, exactly.
void update_fg(Signed62& f, Signed62& g, const Trans2x2& t) {
  i128 cf = i128{t.u} * f.v[0] + i128{t.v} * g.v[0];
  i128 cg = i128{t.q} * f.v[0] + i128{t.r} * g.v[0];
  cf >>= 62;
  cg >>= 62;
  for (unsigned i = 1; i < 5; ++i) {
    cf += i128{t.u} * f.v[i] + i128{t.v} * g.v[i];
    cg += i128{t.q} * f.v[i] + i128{t.r} * g.v[i];
    f.v[i - 1] = static_cast<i64>(static_cast<u64>(cf) & kM62);
    g.v[i - 1] = static_cast<i64>(static_cast<u64>(cg) & kM62);
    cf >>= 62;
    cg >>= 62;
  }
  f.v[4] = static_cast<i64>(cf);
  g.v[4] = static_cast<i64>(cg);
}

/// x + m when x is negative, read from the sign of the top limb.
void add_modulus_if_negative(Signed62& x, const Modulus62& mod) {
  const i64 neg = static_cast<i64>(opaque(static_cast<u64>(x.v[4] >> 63)));
  for (unsigned i = 0; i < 5; ++i) x.v[i] += mod.m.v[i] & neg;
}

/// Carries the low limbs back into [0, 2^62), so the top limb holds the
/// sign.
void carry_62(Signed62& x) {
  for (unsigned i = 0; i < 4; ++i) {
    x.v[i + 1] += x.v[i] >> 62;
    x.v[i] &= static_cast<i64>(kM62);
  }
}

/// x^-1 mod m for x < m (0 for x = 0), constant-time.
U256 inverse_mod(const U256& x, const Modulus62& mod) {
  Signed62 d;
  Signed62 e{{1, 0, 0, 0, 0}};
  Signed62 f = mod.m;
  Signed62 g = to_signed62(x);
  i64 zeta = -1;  // delta = 1/2
  for (int batch = 0; batch < 10; ++batch) {
    Trans2x2 t;
    zeta = divsteps_62(zeta, static_cast<u64>(f.v[0]),
                       static_cast<u64>(g.v[0]), t);
    update_de(d, e, t, mod);
    update_fg(f, g, t);
  }
  // Now g = 0 and f = ±1 with d·x ≡ f: d, or −d, in (−2m, m) is the
  // inverse. Bring it into (−m, m), negate when f = −1, then into [0, m).
  add_modulus_if_negative(d, mod);
  const i64 flip = static_cast<i64>(opaque(static_cast<u64>(f.v[4] >> 63)));
  for (auto& limb : d.v) limb = (limb ^ flip) - flip;
  carry_62(d);
  add_modulus_if_negative(d, mod);
  carry_62(d);
  return from_signed62(d);
}

// ---- Points ----
//
// Jacobian coordinates keep X and Y at magnitude ≤ 4 and Z at 1; the
// formulas below are written so every multiply input stays ≤ 8.
constexpr int kMaxMagX = 4;

/// a^(2^n). Not inlined: the square-root chain calls it with constant
/// counts, and unrolling each of those loops adds ~20 KB of code.
[[gnu::noinline]] Fe sqr_n(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = a.square();
  return a;
}

/// Doubling for a = 0 with L = 3X²/2 (libsecp256k1's form): 3M + 4S.
/// X3 = L² − 2XY², Y3 = L(XY² − X3) − Y⁴, Z3 = YZ. The identity (Z = 0)
/// maps to Z = 0; no point of secp256k1 has Y = 0.
[[gnu::flatten]] JacobianPoint dbl(const JacobianPoint& p) {
  const Fe s = p.y.square();                      // 1
  const Fe l = p.x.square().mul_small(3).half();  // 2
  const Fe t = s.negate(1) * p.x;                 // −XY², 1
  const Fe x3 = l.square() + t + t;               // 3
  const Fe y3 = ((t + x3) * l + s.square()).negate(2);  // 3
  return {x3, y3, p.y * p.z};
}

/// The common tail of both additions, given p's coordinates scaled to q's
/// Z (u1 = X1·Z2², s1 = Y1·Z2³), q's scaled to p's (u2, s2) and z = Z1·Z2:
/// 5M + 2S. Also returns H = u2 − u1, zero exactly when p == ±q, and
/// I = s1 − s2, zero when additionally p == q. For p == −q the result has
/// Z3 = z·H = 0, which is the identity.
[[gnu::flatten]] JacobianPoint add_tail(const Fe& u1, const Fe& s1,
                                        const Fe& u2, const Fe& s2,
                                        const Fe& z, Fe& h, Fe& i) {
  h = u2 + u1.negate(kMaxMagX);               // 6
  i = s1 - s2;                                // 6
  const Fe h2_neg = h.square().negate(1);     // −H², 2
  const Fe h3_neg = h2_neg * h;               // −H³, 1
  const Fe t = u1 * h2_neg;                   // −U1·H², 1
  const Fe x3 = i.square() + h3_neg + t + t;  // I² − H³ − 2U1H², 4
  const Fe y3 = (t + x3) * i + h3_neg * s1;   // I(X3 − U1H²) − H³S1, 2
  return {x3, y3, z * h};
}

/// p + (qx, qy, 1), valid when neither operand is the identity and
/// p != q: 8M + 3S. h and i as in add_tail.
[[gnu::flatten]] JacobianPoint madd(const JacobianPoint& p, const Fe& qx,
                                    const Fe& qy, Fe& h, Fe& i) {
  const Fe z1z1 = p.z.square();
  return add_tail(p.x, p.y, qx * z1z1, qy * z1z1 * p.z, p.z, h, i);
}

/// p + (qx, qy) for any p; variable time (public operands only).
JacobianPoint add_mixed(const JacobianPoint& p, const Fe& qx, const Fe& qy) {
  if (p.z.is_zero()) return {qx, qy, Fe{U256{1}}};
  Fe h;
  Fe i;
  const JacobianPoint sum = madd(p, qx, qy, h, i);
  if (h.is_zero()) return i.is_zero() ? dbl(p) : JacobianPoint::infinity();
  return sum;
}

JacobianPoint select(u64 mask, const JacobianPoint& a, const JacobianPoint& b) {
  return {Fe::select(mask, a.x, b.x), Fe::select(mask, a.y, b.y),
          Fe::select(mask, a.z, b.z)};
}

/// Comb step: p + q for affine q (the identity when `q_is_identity` is all
/// ones), branch-free. After w windows the comb's accumulator is a·G with
/// |a| < 32^w / 1.9, and it adds d·32^w·G with 1 ≤ |d| ≤ 16. The two
/// multipliers differ by less than n in absolute value and are unequal, so
/// the points never coincide (at the last window, a ≡ d·2^255 would need
/// k ≥ 2^256); they are opposite only when k == n, where madd already
/// yields the identity. So the identity operands are the only special
/// cases, and masks pick them.
JacobianPoint add_mixed_ct(const JacobianPoint& p, const Fe& qx, const Fe& qy,
                           u64 q_is_identity) {
  Fe h;
  Fe i;
  const JacobianPoint sum = madd(p, qx, qy, h, i);
  const Fe z = p.z.normalized();
  const Fe::Limbs& zl = z.limbs();
  const u64 p_is_identity =
      zero_mask(zl[0] | zl[1] | zl[2] | zl[3] | zl[4]);
  const JacobianPoint out =
      select(p_is_identity, JacobianPoint{qx, qy, Fe{U256{1}}}, sum);
  return select(q_is_identity, p, out);
}

/// Affine x, y without the is-it-the-identity branch of to_affine(), for
/// k·G with k in [1, n-1] (never the identity).
AffinePoint to_affine_ct(const JacobianPoint& p) {
  const Fe z_inv = p.z.inverse();
  const Fe z_inv2 = z_inv.square();
  return AffinePoint{(p.x * z_inv2).normalized(),
                     (p.y * z_inv2 * z_inv).normalized(), false};
}

/// Affine coordinates as bare field values, normalised.
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
    out[i] = {(in[i].x * z_inv2).normalized(),
              (in[i].y * z_inv2 * z_inv).normalized()};
  }
  return out;
}

// Fixed-base comb for G over signed 5-bit digits: k = Σ d_w·32^w with d_w
// in [−16, 15], and window w holds j·32^w·G for j = 1..16, so k·G is one
// table addition per window and no doublings. 52 windows cover 256 bits
// and the last carry; a negative digit negates the entry's y. Entries keep
// their coordinates in 64-bit words, 64 B each: 52 × 16 × 64 B = 52 KB.
constexpr std::size_t kCombWindows = 52;
constexpr std::size_t kCombEntries = 16;
struct CombEntry {
  U256 x;
  U256 y;
};
using CombTable =
    std::array<std::array<CombEntry, kCombEntries>, kCombWindows>;

const CombTable& comb_table() {
  // Built on the first signature or key derivation, never at start-up. It
  // lives on the heap, so a process that never signs carries only a pointer.
  static const CombTable* const table = [] {
    std::vector<JacobianPoint> jac;
    jac.reserve(kCombWindows * kCombEntries);
    JacobianPoint base = JacobianPoint::from_affine(generator());
    for (std::size_t w = 0; w < kCombWindows; ++w) {
      jac.push_back(base);
      for (std::size_t j = 1; j < kCombEntries; ++j) {
        jac.push_back(add(jac.back(), base));
      }
      base = dbl(jac.back());  // 32·base
    }
    const auto affine = batch_to_affine(jac);
    auto* t = new CombTable;
    for (std::size_t i = 0; i < affine.size(); ++i) {
      (*t)[i / kCombEntries][i % kCombEntries] = {affine[i].x.value(),
                                                  affine[i].y.value()};
    }
    return t;
  }();
  return *table;
}

/// k·G for any 256-bit k, constant-time in k.
JacobianPoint comb_mul(const U256& k) {
  const CombTable& table = comb_table();
  JacobianPoint acc = JacobianPoint::infinity();
  u64 carry = 0;
  for (std::size_t w = 0; w < kCombWindows; ++w) {
    // Bits [5w, 5w + 5) of k plus the carry, in [0, 32], recoded into a
    // signed digit in [−16, 15] and a carry into the next window. The top
    // window holds bit 255 and a carry, at most 2, so nothing is left over.
    const std::size_t bit = 5 * w;
    u64 word = k.limb(bit / 64) >> (bit % 64);
    if (bit % 64 > 59 && bit / 64 < 3) {
      word |= k.limb(bit / 64 + 1) << (64 - bit % 64);
    }
    const u64 d = (word & 31) + carry;
    carry = (d + 16) >> 5;                       // d ≥ 16
    const u64 sd = d - (carry << 5);             // two's complement
    const u64 neg = opaque(0 - (sd >> 63));      // sd < 0
    const u64 digit = (sd ^ neg) - neg;          // |sd|, in [0, 16]
    // Constant time in the secret scalar: every entry of the window is
    // read, and the one matching |digit| is kept with a mask computed
    // arithmetically. Nothing branches on the digit or indexes memory by
    // it; the sign is a masked negation, and add_mixed_ct then does the
    // same work whatever the digit was.
    u64 x[4] = {};
    u64 y[4] = {};
    for (std::size_t j = 0; j < kCombEntries; ++j) {
      const u64 keep = zero_mask(digit ^ (j + 1));
      const CombEntry& e = table[w][j];
      for (unsigned l = 0; l < 4; ++l) {
        x[l] |= e.x.limb(l) & keep;
        y[l] |= e.y.limb(l) & keep;
      }
    }
    const Fe ex{U256{x[3], x[2], x[1], x[0]}};
    const Fe ey{U256{y[3], y[2], y[1], y[0]}};
    acc = add_mixed_ct(acc, ex, Fe::select(neg, ey.negate(1), ey),
                       zero_mask(digit));
  }
  return acc;
}

// Joint multiplication windows: odd multiples of G and of λG up to 127 in
// static tables (64 entries, 5 KB each), odd multiples of Q and λQ up to 15
// per call.
constexpr int kWindowG = 8;
constexpr int kWindowQ = 5;
constexpr std::size_t kOddG = std::size_t{1} << (kWindowG - 2);
constexpr std::size_t kOddQ = std::size_t{1} << (kWindowQ - 2);
using OddGTable = std::array<TableEntry, kOddG>;

// Both tables live on the heap, like the comb's: in .bss they would shift
// the static data of every other module, which a process that never
// verifies, such as a deployment worker, would pay for.
const OddGTable& odd_g_table() {
  static const OddGTable* const table = [] {
    const JacobianPoint g = JacobianPoint::from_affine(generator());
    const JacobianPoint g2 = dbl(g);
    std::vector<JacobianPoint> jac{g};
    while (jac.size() < kOddG) jac.push_back(add(jac.back(), g2));
    const auto affine = batch_to_affine(jac);
    auto* t = new OddGTable;
    std::copy(affine.begin(), affine.end(), t->begin());
    return t;
  }();
  return *table;
}

/// λ times each odd multiple of G: (β·x, y), one multiply an entry.
const OddGTable& odd_lambda_g_table() {
  static const OddGTable* const table = [] {
    const Fe beta{kBeta};
    auto* t = new OddGTable(odd_g_table());
    for (TableEntry& e : *t) e.x = (e.x * beta).normalized();
    return t;
  }();
  return *table;
}

/// Width-w NAF of a scalar below 2^129: nonzero digits are odd, below
/// 2^(w-1) in magnitude and at least w apart. 130 positions hold any such
/// scalar. Returns one past the highest nonzero digit.
constexpr int kNafLen = 130;
using Naf = std::array<int, kNafLen>;
int wnaf(const U256& k, int w, Naf& out) {
  assert(k.bit_length() < kNafLen);
  out.fill(0);
  int carry = 0;
  int len = 0;
  for (int bit = 0; bit < kNafLen;) {
    if (static_cast<int>(k.bit(static_cast<unsigned>(bit))) == carry) {
      ++bit;
      continue;
    }
    const int now = std::min(w, kNafLen - bit);
    // Bits [bit, bit + now) of k.
    const unsigned limb = static_cast<unsigned>(bit) / 64;
    const unsigned shift = static_cast<unsigned>(bit) % 64;
    u64 word = k.limb(limb) >> shift;
    if (shift + static_cast<unsigned>(now) > 64) {
      word |= k.limb(limb + 1) << (64 - shift);
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

/// wNAF of a split half, read as the signed value s or s − n, whichever
/// is smaller in magnitude (below 2^129 either way).
int wnaf_signed(const U256& s, int w, Naf& out) {
  if (s <= (kN >> 1)) return wnaf(s, w, out);
  const int len = wnaf(kN - s, w, out);
  for (int& digit : out) digit = -digit;
  return len;
}

/// round(k·g / 2^384).
U256 mul_shift_384(const U256& k, const U256& g) {
  const Wide w = product(k, g);
  return U256{0, 0, w[7], w[6]} + U256{w[5] >> 63};
}

}  // namespace

U256 field_prime() { return kP; }
U256 group_order() { return kN; }
U256 glv_lambda() { return kLambda; }

U256 mul_mod_n(const U256& a, const U256& b) {
  return reduce_n(product(a, b));
}

U256 inv_mod_n(const U256& a) { return inverse_mod(reduce_once_n(a), kModN); }

LambdaSplit split_lambda(const U256& k) {
  const U256 kr = reduce_once_n(k);
  const U256 c1 = mul_shift_384(kr, kG1);
  const U256 c2 = mul_shift_384(kr, kG2);
  const U256 k2 =
      add_mod(mul_mod_n(c1, kMinusB1), mul_mod_n(c2, kMinusB2), kN);
  const U256 k1 = add_mod(mul_mod_n(k2, kMinusLambda), kr, kN);
  return {k1, k2};
}

Fe Fe::inverse() const { return Fe{inverse_mod(value(), kModP)}; }

std::optional<Fe> Fe::sqrt() const {
  // p ≡ 3 (mod 4): sqrt(a) = a^((p+1)/4) when a is a QR; (p+1)/4 is ones
  // in blocks of 223, 22 and 2, built from a^(2^k - 1) (see libsecp256k1).
  const Fe& a = *this;
  const Fe x2 = a.square() * a;
  const Fe x3 = x2.square() * a;
  const Fe x6 = sqr_n(x3, 3) * x3;
  const Fe x9 = sqr_n(x6, 3) * x3;
  const Fe x11 = sqr_n(x9, 2) * x2;
  const Fe x22 = sqr_n(x11, 11) * x11;
  const Fe x44 = sqr_n(x22, 22) * x22;
  const Fe x88 = sqr_n(x44, 44) * x44;
  const Fe x176 = sqr_n(x88, 88) * x88;
  const Fe x220 = sqr_n(x176, 44) * x44;
  const Fe x223 = sqr_n(x220, 3) * x3;
  Fe t = sqr_n(x223, 23) * x22;
  t = sqr_n(t, 6) * x2;
  const Fe root = sqr_n(t, 2);
  if (root.square() == a) return root;
  return std::nullopt;
}

bool AffinePoint::on_curve() const {
  if (infinity) return true;
  const Fe seven{U256{7}};
  return y.square() == x.square() * x + seven;
}

JacobianPoint JacobianPoint::infinity() {
  return {Fe{U256{1}}, Fe{U256{1}}, Fe{}};
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
  const Fe z1z1 = p.z.square();
  const Fe z2z2 = q.z.square();
  Fe h;
  Fe i;
  const JacobianPoint sum =
      add_tail(p.x * z2z2, p.y * z2z2 * q.z, q.x * z1z1, q.y * z1z1 * p.z,
               p.z * q.z, h, i);
  if (h.is_zero()) return i.is_zero() ? dbl(p) : JacobianPoint::infinity();
  return sum;
}

JacobianPoint scalar_mul(const U256& k, const AffinePoint& p) {
  if (p == generator()) return comb_mul(k);
  return shamir_mul(U256{0}, k, p);
}

JacobianPoint shamir_mul(const U256& k1, const U256& k2,
                         const AffinePoint& p) {
  // k1·G = a·G + b·λG and k2·P = c·P + d·λP, each half below 2^129.
  Naf naf_g{};
  Naf naf_lg{};
  Naf naf_q{};
  Naf naf_lq{};
  const LambdaSplit sg = split_lambda(k1);
  int len = std::max(wnaf_signed(sg.k1, kWindowG, naf_g),
                     wnaf_signed(sg.k2, kWindowG, naf_lg));
  const bool use_g = len > 0;
  // Q, 3Q, ..., 15Q and λ times each: (β·X, Y, Z).
  std::array<JacobianPoint, kOddQ> odd_q;
  std::array<JacobianPoint, kOddQ> odd_lq;
  if (!p.infinity) {
    const LambdaSplit sq = split_lambda(k2);
    const int len_q = std::max(wnaf_signed(sq.k1, kWindowQ, naf_q),
                               wnaf_signed(sq.k2, kWindowQ, naf_lq));
    if (len_q > 0) {
      const Fe beta{kBeta};
      odd_q[0] = JacobianPoint::from_affine(p);
      const JacobianPoint q2 = dbl(odd_q[0]);
      for (std::size_t i = 1; i < kOddQ; ++i) {
        odd_q[i] = add(odd_q[i - 1], q2);
      }
      for (std::size_t i = 0; i < kOddQ; ++i) {
        const JacobianPoint& e = odd_q[i];
        odd_q[i] = {e.x.normalized(), e.y.normalized(), e.z};
        odd_lq[i] = {e.x * beta, odd_q[i].y, e.z};
      }
    }
    len = std::max(len, len_q);
  }
  const OddGTable* odd_g = use_g ? &odd_g_table() : nullptr;
  const OddGTable* odd_lg = use_g ? &odd_lambda_g_table() : nullptr;
  auto add_q = [](JacobianPoint& acc, const std::array<JacobianPoint, kOddQ>& t,
                  int d) {
    if (d == 0) return;
    JacobianPoint e = t[static_cast<std::size_t>(std::abs(d) / 2)];
    if (d < 0) e.y = e.y.negate();
    acc = add(acc, e);
  };
  auto add_g = [](JacobianPoint& acc, const OddGTable& t, int d) {
    if (d == 0) return;
    const TableEntry& e = t[static_cast<std::size_t>(std::abs(d) / 2)];
    acc = add_mixed(acc, e.x, d < 0 ? e.y.negate() : e.y);
  };
  JacobianPoint acc = JacobianPoint::infinity();
  for (int i = len - 1; i >= 0; --i) {
    acc = dbl(acc);
    const auto at = static_cast<std::size_t>(i);
    add_q(acc, odd_q, naf_q[at]);
    add_q(acc, odd_lq, naf_lq[at]);
    if (use_g) {
      add_g(acc, *odd_g, naf_g[at]);
      add_g(acc, *odd_lg, naf_lg[at]);
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

  // V starts at 0x01...01 and K at 0x00...00; each HMAC key's padded
  // blocks are hashed once, since every K serves two messages.
  Hash256 v;
  v.fill(0x01);
  HmacSha256 mac{Hash256{}};

  // K = HMAC(K, V || sep || key || h), in one stack buffer.
  std::array<std::uint8_t, 97> material;
  std::memcpy(material.data() + 33, key_word.data(), 32);
  std::memcpy(material.data() + 65, h_word.data(), 32);
  auto rekey = [&](std::uint8_t sep) {
    std::memcpy(material.data(), v.data(), 32);
    material[32] = sep;
    mac = HmacSha256{mac.mac(material)};
  };

  rekey(0x00);
  v = mac.mac(v);
  rekey(0x01);
  v = mac.mac(v);

  for (;;) {
    v = mac.mac(v);
    const U256 candidate = U256::from_bytes(v);
    if (!candidate.is_zero() && candidate < kN) return candidate;
    // Retry path: K = HMAC(K, V || 0x00); V = HMAC(K, V).
    std::array<std::uint8_t, 33> retry;
    std::memcpy(retry.data(), v.data(), 32);
    retry[32] = 0x00;
    mac = HmacSha256{mac.mac(retry)};
    v = mac.mac(v);
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
    // Low-s normalization (Ethereum/BIP-62): s' = n - s flips R.y parity.
    // Masked, since s depends on the nonce and the key.
    const u64 high = less_mask(kN >> 1, s);
    s = select(high, kN - s, s);
    const auto rec =
        static_cast<std::uint8_t>((rp.y.value().limb(0) ^ high) & 1);
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
