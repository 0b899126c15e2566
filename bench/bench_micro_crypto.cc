// Microbenchmarks for the crypto substrate (google-benchmark): AES-128
// block/CTR throughput, SHA-256, CMAC memory-MAC, and the public-key
// operations behind InitSession/SignOutput.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/drbg.h"
#include "crypto/ecdh.h"
#include "crypto/ecdsa.h"
#include "crypto/mem_mac.h"
#include "crypto/sha256.h"

namespace guardnn::crypto {
namespace {

Aes128 bench_aes() {
  AesKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<u8>(i);
  return Aes128(key);
}

void BM_AesBlockEncrypt(benchmark::State& state) {
  const Aes128 aes = bench_aes();
  AesBlock block{};
  for (auto _ : state) {
    aes.encrypt_block(block.data());
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 16);
}
BENCHMARK(BM_AesBlockEncrypt);

void BM_AesEncryptBlocks(benchmark::State& state) {
  const Aes128 aes = bench_aes();
  const std::size_t n_blocks = static_cast<std::size_t>(state.range(0));
  Bytes data(n_blocks * kAesBlockBytes);
  for (auto _ : state) {
    aes.encrypt_blocks(data.data(), data.data(), n_blocks);
    benchmark::DoNotOptimize(data);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n_blocks * kAesBlockBytes));
}
BENCHMARK(BM_AesEncryptBlocks)->Arg(8)->Arg(64);

void BM_AesCtr(benchmark::State& state) {
  const Aes128 aes = bench_aes();
  Bytes data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ctr_xcrypt(aes, make_counter_block(0, 1), data);
    benchmark::DoNotOptimize(data);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AesCtr)->Arg(512)->Arg(4096)->Arg(65536);

void BM_MemoryXcrypt(benchmark::State& state) {
  const Aes128 aes = bench_aes();
  Bytes data(static_cast<std::size_t>(state.range(0)));
  u64 version = 0;
  for (auto _ : state) {
    memory_xcrypt(aes, 0x4000, ++version, data);
    benchmark::DoNotOptimize(data);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MemoryXcrypt)->Arg(512)->Arg(65536);

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)));
  Xoshiro256 rng(1);
  rng.fill(data);
  for (auto _ : state) {
    auto digest = Sha256::hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void BM_MemoryMac512B(benchmark::State& state) {
  const Aes128 aes = bench_aes();
  const CmacSubkeys subkeys = cmac_derive_subkeys(aes);
  Bytes chunk(512);
  Xoshiro256 rng(2);
  rng.fill(chunk);
  u64 version = 0;
  for (auto _ : state) {
    const u64 tag = memory_mac(aes, subkeys, 0x1000, ++version, chunk);
    benchmark::DoNotOptimize(tag);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 512);
}
BENCHMARK(BM_MemoryMac512B);

void BM_CmacStream(benchmark::State& state) {
  const Aes128 aes = bench_aes();
  const CmacSubkeys subkeys = cmac_derive_subkeys(aes);
  Bytes data(static_cast<std::size_t>(state.range(0)));
  Xoshiro256 rng(3);
  rng.fill(data);
  for (auto _ : state) {
    CmacState st(aes, subkeys);
    st.update(data);
    const AesBlock tag = st.finish();
    benchmark::DoNotOptimize(tag);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_CmacStream)->Arg(4096);

/// The fused seal pipeline's MAC kernel: 512 B protection-chunk MACs run
/// kCmacLanes CBC chains in lockstep (compare against BM_MemoryMac512B for
/// the serial-chain rate).
void BM_MemoryMacLanes512B(benchmark::State& state) {
  const Aes128 aes = bench_aes();
  const CmacSubkeys subkeys = cmac_derive_subkeys(aes);
  constexpr std::size_t kChunks = 128;
  Bytes region(kChunks * 512);
  Xoshiro256 rng(4);
  rng.fill(region);
  u64 tags[kChunks];
  u64 version = 0;
  for (auto _ : state) {
    memory_mac_many(aes, subkeys, 0x1000, ++version, 512, region, tags, kChunks);
    benchmark::DoNotOptimize(tags);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(region.size()));
}
BENCHMARK(BM_MemoryMacLanes512B);

/// SealedBlob-geometry batch CMAC: 64 KiB chunks with an 8-byte index
/// prefix, lane-interleaved.
void BM_CmacMany64KiB(benchmark::State& state) {
  const Aes128 aes = bench_aes();
  const CmacSubkeys subkeys = cmac_derive_subkeys(aes);
  constexpr std::size_t kChunks = 32;
  constexpr std::size_t kChunkBytes = 64 * 1024;
  Bytes region(kChunks * kChunkBytes);
  Xoshiro256 rng(5);
  rng.fill(region);
  u8 indices[kChunks][8];
  CmacMessage msgs[kChunks];
  for (std::size_t i = 0; i < kChunks; ++i) {
    store_be64(indices[i], i);
    msgs[i].prefix = BytesView(indices[i], 8);
    msgs[i].body = BytesView(region.data() + i * kChunkBytes, kChunkBytes);
  }
  AesBlock tags[kChunks];
  for (auto _ : state) {
    cmac_many(aes, subkeys, msgs, kChunks, tags);
    benchmark::DoNotOptimize(tags);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(region.size()));
}
BENCHMARK(BM_CmacMany64KiB);

void BM_EcdsaSign(benchmark::State& state) {
  HmacDrbg drbg(Bytes{1, 2, 3});
  const EcdsaKeyPair kp = ecdsa_generate_key(drbg);
  const Bytes message = {'r', 'e', 'p', 'o', 'r', 't'};
  for (auto _ : state) {
    auto sig = ecdsa_sign(kp.private_key, message);
    benchmark::DoNotOptimize(sig);
  }
}
BENCHMARK(BM_EcdsaSign)->Unit(benchmark::kMillisecond);

void BM_EcdsaVerify(benchmark::State& state) {
  HmacDrbg drbg(Bytes{4, 5});
  const EcdsaKeyPair kp = ecdsa_generate_key(drbg);
  const Bytes message = {'r', 'e', 'p', 'o', 'r', 't'};
  const EcdsaSignature sig = ecdsa_sign(kp.private_key, message);
  for (auto _ : state) {
    const bool ok = ecdsa_verify(kp.public_key, message, sig);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_EcdsaVerify)->Unit(benchmark::kMillisecond);

void BM_EcdhAgreement(benchmark::State& state) {
  HmacDrbg drbg(Bytes{6});
  const EcdhKeyPair a = ecdh_generate_key(drbg);
  const EcdhKeyPair b = ecdh_generate_key(drbg);
  for (auto _ : state) {
    auto secret = ecdh_shared_secret(a.private_key, b.public_key);
    benchmark::DoNotOptimize(secret);
  }
}
BENCHMARK(BM_EcdhAgreement)->Unit(benchmark::kMillisecond);

// The two scalar-multiplication paths every EC operation above runs on:
// fixed-base k*G (key generation, the ECDSA nonce, verify's u1) and
// variable-base k*Q (ECDH, verify's u2).
void BM_P256BaseMult(benchmark::State& state) {
  HmacDrbg drbg(Bytes{7});
  const U256 k = ecdsa_generate_key(drbg).private_key;
  for (auto _ : state) {
    auto point = ec_scalar_base_mult(k);
    benchmark::DoNotOptimize(point);
  }
}
BENCHMARK(BM_P256BaseMult)->Unit(benchmark::kMillisecond);

void BM_P256ScalarMult(benchmark::State& state) {
  HmacDrbg drbg(Bytes{8});
  const U256 k = ecdsa_generate_key(drbg).private_key;
  const AffinePoint q = ecdsa_generate_key(drbg).public_key;
  for (auto _ : state) {
    auto point = ec_scalar_mult(k, q);
    benchmark::DoNotOptimize(point);
  }
}
BENCHMARK(BM_P256ScalarMult)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace guardnn::crypto

// Custom main so the active AES backend lands in the JSON context — the
// bench-baseline diff needs to know whether numbers came from the T-table or
// a native backend.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext(
      "aes_backend",
      guardnn::crypto::aes_backend_name(guardnn::crypto::aes_active_backend()));
  benchmark::AddCustomContext(
      "sha256_backend",
      guardnn::crypto::sha256_backend_name(
          guardnn::crypto::sha256_active_backend()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
