// Table V: performance of the cryptographic operations.
//
// Two views are reported:
//   1. The device model's per-operation latencies (what the CC2538 crypto
//      engine at 250 MHz / software keccak cost on the mote — the numbers
//      the paper's table contains).
//   2. Host-side google-benchmark measurements of this repository's real
//      from-scratch primitives (the artifacts are genuine; only their
//      device-side *timing* is modeled).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "crypto/hash.hpp"
#include "crypto/secp256k1.hpp"
#include "device/cc2538.hpp"

namespace {

using namespace tinyevm;

void BM_EcdsaSign(benchmark::State& state) {
  const auto key = secp256k1::PrivateKey::from_seed("bench");
  const auto digest = keccak256("payment #1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(secp256k1::sign(digest, key));
  }
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  const auto key = secp256k1::PrivateKey::from_seed("bench");
  const auto digest = keccak256("payment #1");
  const auto sig = secp256k1::sign(digest, key);
  const auto pub = key.public_key();
  for (auto _ : state) {
    benchmark::DoNotOptimize(secp256k1::verify(digest, sig, pub));
  }
}
BENCHMARK(BM_EcdsaVerify);

void BM_EcdsaRecover(benchmark::State& state) {
  const auto key = secp256k1::PrivateKey::from_seed("bench");
  const auto digest = keccak256("payment #1");
  const auto sig = secp256k1::sign(digest, key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(secp256k1::recover(digest, sig));
  }
}
BENCHMARK(BM_EcdsaRecover);

// Per-primitive rows: what one sign, verify or recover is built from.
secp256k1::Fe bench_fe(std::string_view seed) {
  return secp256k1::Fe::from_reduced(U256::from_bytes(keccak256(seed)));
}

void BM_FieldMul(benchmark::State& state) {
  auto a = bench_fe("a");
  const auto b = bench_fe("b");
  for (auto _ : state) {
    a = a * b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMul);

void BM_FieldSquare(benchmark::State& state) {
  auto a = bench_fe("a");
  for (auto _ : state) {
    a = a.square();
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldSquare);

void BM_FieldInverse(benchmark::State& state) {
  const auto a = bench_fe("a");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.inverse());
  }
}
BENCHMARK(BM_FieldInverse);

void BM_ScalarInverse(benchmark::State& state) {
  const auto k = secp256k1::PrivateKey::from_seed("bench").scalar();
  for (auto _ : state) {
    benchmark::DoNotOptimize(secp256k1::inv_mod_n(k));
  }
}
BENCHMARK(BM_ScalarInverse);

void BM_FixedBaseMul(benchmark::State& state) {
  const auto k = secp256k1::PrivateKey::from_seed("bench").scalar();
  const auto g = secp256k1::generator();
  for (auto _ : state) {
    benchmark::DoNotOptimize(secp256k1::scalar_mul(k, g));
  }
}
BENCHMARK(BM_FixedBaseMul);

void BM_JointMul(benchmark::State& state) {
  const auto k1 = U256::from_bytes(keccak256("k1"));
  const auto k2 = U256::from_bytes(keccak256("k2"));
  const auto q = secp256k1::PrivateKey::from_seed("bench").public_key().point;
  for (auto _ : state) {
    benchmark::DoNotOptimize(secp256k1::shamir_mul(k1, k2, q));
  }
}
BENCHMARK(BM_JointMul);

void BM_Sha256_64B(benchmark::State& state) {
  const std::vector<std::uint8_t> data(64, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
}
BENCHMARK(BM_Sha256_64B);

void BM_Keccak256_64B(benchmark::State& state) {
  const std::vector<std::uint8_t> data(64, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(keccak256(data));
  }
}
BENCHMARK(BM_Keccak256_64B);

void BM_Keccak256_4K(benchmark::State& state) {
  const std::vector<std::uint8_t> data(4096, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(keccak256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_Keccak256_4K);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=========================================================\n");
  std::printf("Table V: cryptographic operation performance\n");
  std::printf("=========================================================\n\n");
  std::printf("  device model (CC2538, crypto engine @ 250 MHz):\n");
  std::printf("  %-32s %-6s %10s\n", "Operation type", "Mode", "Time");
  std::printf("  %-32s %-6s %7.0f ms   (paper: 350 ms)\n",
              "ECDSA - Signature", "HW",
              device::CryptoLatency::kEcdsaSignUs / 1000.0);
  std::printf("  %-32s %-6s %7.0f ms   (paper: 1 ms)\n",
              "SHA256 - Hash function", "HW",
              device::CryptoLatency::kSha256Us / 1000.0);
  std::printf("  %-32s %-6s %7.0f ms   (paper: 5 ms)\n",
              "Keccak256 - Hash function", "SW",
              device::CryptoLatency::kKeccak256Us / 1000.0);
  std::printf("  %-32s %-6s %7.0f ms   (paper: 356 ms)\n", "Total", "",
              (device::CryptoLatency::kEcdsaSignUs +
               device::CryptoLatency::kSha256Us +
               device::CryptoLatency::kKeccak256Us) /
                  1000.0);
  std::printf("\n  host-side measurements of the real primitives follow:\n\n");

#ifdef TINYEVM_BUILD_TYPE
  // The project's build type, not libbenchmark's (see bench_ablation_vm).
  benchmark::AddCustomContext("tinyevm_build_type", TINYEVM_BUILD_TYPE);
#endif
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
