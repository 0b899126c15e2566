#include "layers.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <unordered_map>

#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/ecdh.h"
#include "crypto/ecdsa.h"
#include "crypto/mem_mac.h"

namespace fleetbench {

namespace {

constexpr int kChainKinds = static_cast<int>(obs::SpanKind::kResolve) + 1;
constexpr unsigned kCompleteChain = (1u << kChainKinds) - 1;

struct Chain {
  std::array<long long, kChainKinds> t{};
  unsigned seen = 0;
  u64 tenant = 0;
  u8 admit_code = 0;
};

long long at(const Chain& chain, obs::SpanKind kind) {
  return chain.t[static_cast<std::size_t>(kind)];
}

template <typename F>
double median_ms(int reps, F&& call) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const long long start = now_ns();
    call();
    samples.push_back(ms_between(start, now_ns()));
  }
  return median(std::move(samples));
}

}  // namespace

std::array<double, kStageCount> StageSamples::median_attribution() const {
  std::array<double, kStageCount> mean{};
  if (total_ms.empty()) return mean;
  const double lo = quantile(total_ms, 0.45);
  const double hi = quantile(total_ms, 0.55);
  std::size_t n = 0;
  for (std::size_t i = 0; i < total_ms.size(); ++i) {
    if (total_ms[i] < lo || total_ms[i] > hi) continue;
    for (int s = 0; s < kStageCount; ++s) mean[s] += stage_ms[i][s];
    ++n;
  }
  for (double& m : mean) m /= static_cast<double>(std::max<std::size_t>(n, 1));
  return mean;
}

StageSamples stage_breakdown(const std::vector<RequestRecord>& records,
                             const std::vector<obs::SpanRecord>& spans,
                             const std::vector<Client>& clients) {
  std::unordered_map<u64, Chain> chains;
  for (const obs::SpanRecord& span : spans) {
    const int kind = static_cast<int>(span.kind);
    if (kind >= kChainKinds) continue;  // control-plane spans
    Chain& chain = chains[span.trace_id];
    chain.t[static_cast<std::size_t>(kind)] = static_cast<long long>(span.t_ns);
    chain.seen |= 1u << kind;
    if (span.kind == obs::SpanKind::kSubmit) chain.tenant = span.tenant;
    if (span.kind == obs::SpanKind::kAdmit) chain.admit_code = span.code;
  }
  // Trace ids are minted in submit order, so sorting a tenant's ids puts its
  // chains in the order its requests were submitted.
  // Refused attempts (a nonzero admission code) are retried under a new id.
  std::unordered_map<u64, std::vector<u64>> ids_by_tenant;
  for (const auto& [id, chain] : chains)
    if ((chain.seen & 1u) && chain.admit_code == 0)
      ids_by_tenant[chain.tenant].push_back(id);
  std::vector<std::vector<const RequestRecord*>> by_client(clients.size());
  for (const RequestRecord& record : records)
    by_client[record.client].push_back(&record);

  std::vector<std::pair<const RequestRecord*, const Chain*>> pairs;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    std::vector<u64>& ids = ids_by_tenant[clients[c].tenant];
    if (ids.size() != by_client[c].size()) {
      std::fprintf(stderr,
                   "tenant %llu: %zu traced submits, %zu spans; skipped\n",
                   static_cast<unsigned long long>(clients[c].tenant),
                   by_client[c].size(), ids.size());
      continue;
    }
    std::sort(ids.begin(), ids.end());
    for (std::size_t k = 0; k < ids.size(); ++k)
      pairs.emplace_back(by_client[c][k], &chains[ids[k]]);
  }

  StageSamples out;
  long long lo = std::numeric_limits<long long>::min();
  long long hi = std::numeric_limits<long long>::max();
  for (const auto& [record, chain] : pairs) {
    const long long submit = at(*chain, obs::SpanKind::kSubmit);
    lo = std::max(lo, record->sub0 - submit);
    hi = std::min(hi, record->sub1 - submit);
  }
  if (pairs.empty()) return out;
  if (lo > hi) std::fprintf(stderr, "clock alignment interval is empty\n");
  out.epoch_ns = lo + (hi - lo) / 2;
  const long long e = out.epoch_ns;
  using obs::SpanKind;
  for (const auto& [r, chain] : pairs) {
    if (chain->seen != kCompleteChain || r->done == 0) continue;
    const auto span = [&](SpanKind kind) { return at(*chain, kind) + e; };
    out.stage_ms.push_back({
        ms_between(r->sched, r->seal0),
        ms_between(r->seal0, r->seal1),
        ms_between(r->seal1, span(SpanKind::kAdmit)),
        ms_between(span(SpanKind::kAdmit), span(SpanKind::kPickup)),
        ms_between(span(SpanKind::kPickup), span(SpanKind::kUnseal)),
        ms_between(span(SpanKind::kUnseal), span(SpanKind::kDevice)),
        ms_between(span(SpanKind::kDevice), span(SpanKind::kSeal)),
        ms_between(span(SpanKind::kSeal), span(SpanKind::kResolve)),
        ms_between(span(SpanKind::kResolve), r->ready),
        ms_between(r->ready, r->done),
    });
    out.total_ms.push_back(ms_between(r->sched, r->done));
    out.seal_call_us.push_back(ms_between(r->seal0, r->seal1) * 1e3);
    out.submit_call_us.push_back(ms_between(r->sub0, r->sub1) * 1e3);
    out.open_call_us.push_back(ms_between(r->open0, r->open1) * 1e3);
  }
  return out;
}

CryptoFloor measure_crypto(const World& world) {
  constexpr int kEcReps = 7;
  constexpr int kBulkReps = 5;
  constexpr std::size_t kBulkBytes = 8u << 20;
  constexpr std::size_t kChunk = 512;

  CryptoFloor out;
  crypto::HmacDrbg drbg(world.entropy(kCryptoStream, 0));
  const crypto::EcdsaKeyPair signer = crypto::ecdsa_generate_key(drbg);
  const Bytes message = world.entropy(kCryptoStream, 1);
  crypto::EcdsaSignature signature =
      crypto::ecdsa_sign(signer.private_key, message);
  out.ecdsa_sign_ms = median_ms(kEcReps, [&] {
    signature = crypto::ecdsa_sign(signer.private_key, message);
  });
  bool verified = true;
  out.ecdsa_verify_ms = median_ms(kEcReps, [&] {
    verified = verified &&
               crypto::ecdsa_verify(signer.public_key, message, signature);
  });
  if (!verified)
    std::fprintf(stderr, "ecdsa_verify rejected a valid signature\n");
  const crypto::EcdhKeyPair own = crypto::ecdh_generate_key(drbg);
  const crypto::EcdhKeyPair peer = crypto::ecdh_generate_key(drbg);
  crypto::U256 shared =
      crypto::ecdh_shared_secret(own.private_key, peer.public_key);
  out.ecdh_ms = median_ms(kEcReps, [&] {
    shared = crypto::ecdh_shared_secret(own.private_key, peer.public_key);
  });

  crypto::AesKey key{};
  const Bytes key_bytes = world.entropy(kCryptoStream, 2);
  std::copy_n(key_bytes.begin(), key.size(), key.begin());
  const crypto::Aes128 aes(key);
  Bytes buffer(kBulkBytes);
  Xoshiro256 rng(world.sub_seed(kCryptoStream, 3));
  rng.fill(buffer);
  const auto gbps = [&](double ms) {
    return static_cast<double>(kBulkBytes) / (ms * 1e-3) / 1e9;
  };
  crypto::memory_xcrypt(aes, 0, 1, buffer);  // first touch
  out.xcrypt_gbps = gbps(median_ms(
      kBulkReps, [&] { crypto::memory_xcrypt(aes, 0, 1, buffer); }));
  const crypto::CmacSubkeys subkeys = crypto::cmac_derive_subkeys(aes);
  std::vector<u64> tags(kBulkBytes / kChunk);
  out.cmac_gbps = gbps(median_ms(kBulkReps, [&] {
    crypto::memory_mac_many(aes, subkeys, 0, 1, kChunk, buffer, tags.data(),
                            tags.size());
  }));
  return out;
}

}  // namespace fleetbench
