// Sealed model store tests: blob format round trips and hostile-input
// rejection (bit flips, truncation, wrong device, version downgrade), the
// content-addressed ModelStore with both backends, device-side
// SealModel/UnsealModel, the cross-device provisioning re-wrap, and the
// training checkpoint/restore path — every acceptance path ends in a
// bit-identical comparison against a plaintext golden run. This suite is
// also a ThreadSanitizer target (concurrent store/replication traffic).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/rng.h"
#include "functional/train_ops.h"
#include "host/model_codec.h"
#include "host/scheduler.h"
#include "host/user_client.h"
#include "serving/inference_server.h"
#include "store/model_package.h"
#include "store/model_store.h"

namespace guardnn::store {
namespace {

using accel::DeviceStatus;
using accel::ForwardOp;
using host::FuncLayer;
using host::FuncNetwork;
using host::RemoteUser;

Bytes random_bytes(std::size_t n, u64 seed) {
  Xoshiro256 rng(seed);
  Bytes out(n);
  rng.fill(out);
  return out;
}

Bytes random_weights(std::size_t n, u64 seed) {
  Xoshiro256 rng(seed);
  Bytes out(n);
  for (auto& b : out)
    b = static_cast<u8>(static_cast<i8>(static_cast<int>(rng.next_below(256)) - 128));
  return out;
}

FuncNetwork small_cnn(u64 seed = 42) {
  FuncNetwork net;
  net.in_c = 3;
  net.in_h = 8;
  net.in_w = 8;
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kConv, 4, 3, 1, 1, 4,
                                 random_weights(4 * 3 * 3 * 3, seed)});
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kRelu, 0, 0, 1, 0, 0, {}});
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kMaxPool, 0, 2, 2, 0, 0, {}});
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kFc, 10, 0, 1, 0, 5,
                                 random_weights(10 * 4 * 4 * 4, seed + 1)});
  return net;
}

functional::Tensor random_input(const FuncNetwork& net, u64 seed) {
  functional::Tensor input(net.in_c, net.in_h, net.in_w, net.bits);
  Xoshiro256 rng(seed);
  for (auto& v : input.data())
    v = static_cast<i8>(static_cast<int>(rng.next_below(256)) - 128);
  return input;
}

crypto::AesKey test_key(u8 fill) {
  crypto::AesKey key{};
  key.fill(fill);
  return key;
}

BindingId test_binding(u8 fill) {
  BindingId binding{};
  binding.fill(fill);
  return binding;
}

crypto::AesBlock test_nonce(u64 seed) {
  crypto::AesBlock nonce{};
  const Bytes raw = random_bytes(nonce.size(), seed);
  std::copy(raw.begin(), raw.end(), nonce.begin());
  return nonce;
}

/// SHA-256(be64 descriptor length || descriptor || tail), computed here
/// without store::package_content_id: with tail = SHA-256(weights) it is the
/// content id, with tail = the weights the version-1 rule.
crypto::Sha256Digest descriptor_prefixed_hash(BytesView descriptor,
                                              BytesView tail) {
  crypto::Sha256 hasher;
  u8 length[8];
  store_be64(length, descriptor.size());
  hasher.update(BytesView(length, 8));
  hasher.update(descriptor);
  hasher.update(tail);
  return hasher.finalize();
}

/// True when a 24-byte window of `secret` appears anywhere in `haystack`.
bool contains_window(BytesView haystack, BytesView secret) {
  if (secret.size() < 24) return false;
  return std::search(haystack.begin(), haystack.end(), secret.begin(),
                     secret.begin() + 24) != haystack.end();
}

// --- SealedBlob format -------------------------------------------------------

TEST(SealedBlobFormat, RoundTripSingleChunk) {
  const Bytes payload = random_bytes(1000, 1);
  const SealedBlob blob =
      seal_blob(test_key(0x11), test_binding(0x22), test_nonce(2), payload,
                crypto::Sha256::hash(payload));
  EXPECT_EQ(blob.header.plaintext_bytes, payload.size());
  EXPECT_EQ(blob.header.chunk_count(), 1u);
  EXPECT_EQ(blob.chunk_macs.size(), 1u);
  EXPECT_EQ(blob.header.content_id, crypto::Sha256::hash(payload));

  Bytes opened;
  EXPECT_EQ(unseal_blob(test_key(0x11), test_binding(0x22), blob, opened),
            SealStatus::kOk);
  EXPECT_EQ(opened, payload);
  // Ciphertext is not the plaintext.
  EXPECT_FALSE(contains_window(blob.ciphertext, payload));
}

TEST(SealedBlobFormat, RoundTripMultiChunk) {
  // 3 full chunks + a 1000-byte tail -> 4 chunks.
  const Bytes payload = random_bytes(3 * kSealChunkBytes + 1000, 3);
  const SealedBlob blob =
      seal_blob(test_key(0x33), test_binding(0x44), test_nonce(4), payload,
                crypto::Sha256::hash(payload));
  EXPECT_EQ(blob.header.chunk_count(), 4u);
  EXPECT_EQ(blob.chunk_macs.size(), 4u);

  Bytes opened;
  ASSERT_EQ(unseal_blob(test_key(0x33), test_binding(0x44), blob, opened),
            SealStatus::kOk);
  EXPECT_EQ(opened, payload);

  // Wire round trip preserves everything.
  const std::optional<SealedBlob> parsed = SealedBlob::deserialize(blob.serialize());
  ASSERT_TRUE(parsed.has_value());
  Bytes reopened;
  ASSERT_EQ(unseal_blob(test_key(0x33), test_binding(0x44), *parsed, reopened),
            SealStatus::kOk);
  EXPECT_EQ(reopened, payload);
}

TEST(SealedBlobFormat, DistinctNoncesGiveDistinctCiphertext) {
  // No keystream reuse across blobs under one root key: same payload, two
  // nonces, unrelated ciphertext (XOR of the two would otherwise be zero).
  const Bytes payload = random_bytes(4096, 5);
  const SealedBlob a =
      seal_blob(test_key(0x55), test_binding(0x66), test_nonce(6), payload,
                crypto::Sha256::hash(payload));
  const SealedBlob b =
      seal_blob(test_key(0x55), test_binding(0x66), test_nonce(7), payload,
                crypto::Sha256::hash(payload));
  EXPECT_NE(a.ciphertext, b.ciphertext);
  EXPECT_EQ(a.header.content_id, b.header.content_id);  // same logical model
}

TEST(SealedBlobFormat, TruncationAtEveryChunkBoundaryRejected) {
  const Bytes payload = random_bytes(3 * kSealChunkBytes + 512, 8);
  const SealedBlob blob =
      seal_blob(test_key(0x77), test_binding(0x88), test_nonce(9), payload,
                crypto::Sha256::hash(payload));
  const Bytes wire = blob.serialize();
  const std::size_t header_bytes = blob.header.serialize().size();

  std::vector<std::size_t> cuts = {0, 1, header_bytes - 1, header_bytes,
                                   wire.size() - 1};
  for (u64 chunk = 0; chunk <= blob.header.chunk_count(); ++chunk)
    cuts.push_back(header_bytes +
                   std::min<u64>(chunk * kSealChunkBytes, payload.size()));
  // MAC-list truncations: drop trailing chunk MACs / the chain MAC.
  for (u64 i = 0; i <= blob.chunk_macs.size(); ++i)
    cuts.push_back(wire.size() - (i + 1) * crypto::kAesBlockBytes);

  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, wire.size());
    EXPECT_FALSE(SealedBlob::deserialize(BytesView(wire.data(), cut)).has_value())
        << "truncation at " << cut << " must not parse";
  }
  // Trailing garbage is rejected too.
  Bytes extended = wire;
  extended.push_back(0);
  EXPECT_FALSE(SealedBlob::deserialize(extended).has_value());
  // And the untruncated wire still parses.
  EXPECT_TRUE(SealedBlob::deserialize(wire).has_value());
}

TEST(SealedBlobFormat, OverflowingLengthFieldsRejected) {
  // A header-only file whose near-2^64 plaintext_bytes would wrap the
  // exact-length arithmetic (chunk_count -> 0, expected -> header size) and
  // drive a wild-length ciphertext copy if lengths were trusted unbounded.
  // Header layout: magic(4) ver+reserved(4) binding(32) content(32)
  // nonce(16) plaintext(8) chunk_bytes(8) n_chunks(8) = 112 bytes.
  Bytes hostile(112, 0);
  store_be32(hostile.data(), kSealedBlobMagic);
  hostile[5] = static_cast<u8>(kSealedBlobVersion);
  store_be64(hostile.data() + 88, 0xFFFF'FFFF'FFFF'FFF0ull);  // plaintext
  store_be64(hostile.data() + 96, kSealChunkBytes);
  store_be64(hostile.data() + 104, 0);  // wrapped chunk count
  EXPECT_FALSE(SealedBlob::deserialize(hostile).has_value());

  // Same shape with a "plausible" chunk count is rejected too.
  store_be64(hostile.data() + 104, 1);
  EXPECT_FALSE(SealedBlob::deserialize(hostile).has_value());
}

TEST(SealedBlobFormat, HeaderBitFlipsFailClosed) {
  const Bytes payload = random_bytes(kSealChunkBytes + 100, 10);
  const SealedBlob blob =
      seal_blob(test_key(0x99), test_binding(0xaa), test_nonce(11), payload,
                crypto::Sha256::hash(payload));
  const Bytes wire = blob.serialize();
  const std::size_t header_bytes = blob.header.serialize().size();

  for (std::size_t i = 0; i < header_bytes; ++i) {
    Bytes mutated = wire;
    mutated[i] ^= 0x40;
    const std::optional<SealedBlob> parsed = SealedBlob::deserialize(mutated);
    if (!parsed) continue;  // structural rejection is fine
    Bytes opened;
    const SealStatus status =
        unseal_blob(test_key(0x99), test_binding(0xaa), *parsed, opened);
    EXPECT_NE(status, SealStatus::kOk) << "header byte " << i;
    EXPECT_TRUE(opened.empty()) << "no plaintext may escape a failed unseal";
  }
}

TEST(SealedBlobFormat, ChunkAndMacBitFlipsRejected) {
  const Bytes payload = random_bytes(2 * kSealChunkBytes + 333, 12);
  SealedBlob blob =
      seal_blob(test_key(0xbb), test_binding(0xcc), test_nonce(13), payload,
                crypto::Sha256::hash(payload));

  // A flip in every chunk's ciphertext (first, middle and last byte).
  for (u64 chunk = 0; chunk < blob.header.chunk_count(); ++chunk) {
    const u64 base = chunk * kSealChunkBytes;
    const u64 len =
        std::min<u64>(kSealChunkBytes, blob.ciphertext.size() - base);
    for (const u64 offset : {base, base + len / 2, base + len - 1}) {
      SealedBlob mutated = blob;
      mutated.ciphertext[offset] ^= 0x01;
      Bytes opened;
      EXPECT_EQ(unseal_blob(test_key(0xbb), test_binding(0xcc), mutated, opened),
                SealStatus::kBadBlob);
      EXPECT_TRUE(opened.empty());
    }
  }
  // A flip in every chunk MAC.
  for (u64 chunk = 0; chunk < blob.header.chunk_count(); ++chunk) {
    SealedBlob mutated = blob;
    mutated.chunk_macs[chunk][5] ^= 0x80;
    Bytes opened;
    EXPECT_EQ(unseal_blob(test_key(0xbb), test_binding(0xcc), mutated, opened),
              SealStatus::kBadBlob);
  }
  // A flip in the chain MAC.
  {
    SealedBlob mutated = blob;
    mutated.chain_mac[0] ^= 0x01;
    Bytes opened;
    EXPECT_EQ(unseal_blob(test_key(0xbb), test_binding(0xcc), mutated, opened),
              SealStatus::kBadBlob);
  }
  // Swapping two chunk MACs (consistent list, wrong order) is caught by the
  // per-chunk index binding.
  {
    SealedBlob mutated = blob;
    const crypto::AesBlock mac0 = mutated.chunk_macs[0];
    mutated.chunk_macs[0] = mutated.chunk_macs[1];
    mutated.chunk_macs[1] = mac0;
    Bytes opened;
    EXPECT_EQ(unseal_blob(test_key(0xbb), test_binding(0xcc), mutated, opened),
              SealStatus::kBadBlob);
  }
}

TEST(SealedBlobFormat, VersionDowngradeRejected) {
  const Bytes payload = random_bytes(600, 14);
  SealedBlob blob =
      seal_blob(test_key(0xdd), test_binding(0xee), test_nonce(15), payload,
                crypto::Sha256::hash(payload));
  blob.header.version = 1;  // retired format
  Bytes opened;
  EXPECT_EQ(unseal_blob(test_key(0xdd), test_binding(0xee), blob, opened),
            SealStatus::kBadVersion);
  EXPECT_TRUE(opened.empty());

  // Even with the version "fixed up" on the wire, the chain MAC was computed
  // over the original header, so a re-serialized downgrade cannot verify.
  blob.header.version = 3;
  EXPECT_EQ(unseal_blob(test_key(0xdd), test_binding(0xee), blob, opened),
            SealStatus::kBadVersion);
}

TEST(SealedBlobFormat, WrongDeviceAndWrongKeyRejected) {
  const Bytes payload = random_bytes(2048, 16);
  const SealedBlob blob =
      seal_blob(test_key(0x10), test_binding(0x20), test_nonce(17), payload,
                crypto::Sha256::hash(payload));
  Bytes opened;
  // Another device's binding: clean wrong-device answer.
  EXPECT_EQ(unseal_blob(test_key(0x10), test_binding(0x21), blob, opened),
            SealStatus::kWrongDevice);
  // Right binding claim, wrong root key (a device lying about its identity):
  // MAC chain fails.
  EXPECT_EQ(unseal_blob(test_key(0x12), test_binding(0x20), blob, opened),
            SealStatus::kBadBlob);
  EXPECT_TRUE(opened.empty());
}

// --- ModelPackage ------------------------------------------------------------

// --- Fused seal pipeline (SealedBlobWriter / SealedBlobReader) ---------------
//
// The fused path must be wire-compatible with seal_blob/unseal_blob in both
// directions: a writer-produced blob is byte-identical to a seal_blob()
// blob of the same inputs (CTR and CMAC are deterministic), old-path blobs
// open on the fused reader, fused blobs open on the old path, and the
// hostile-input sweep rejects exactly the same mutations.

SealedBlob fused_seal(const crypto::AesKey& key, const BindingId& binding,
                      const crypto::AesBlock& nonce, BytesView payload,
                      const ContentId& content_id) {
  SealedBlobWriter writer(key, binding, nonce, payload.size());
  std::copy(payload.begin(), payload.end(), writer.payload().begin());
  return writer.finish(content_id);
}

/// Payload sizes around every interesting boundary: sub-chunk, exact chunk
/// multiples, one byte either side, and a multi-chunk size one byte past
/// 8 MiB (the bench's model size).
const std::size_t kBoundaryPayloadSizes[] = {
    1,          512,           kSealChunkBytes - 1,
    kSealChunkBytes,           kSealChunkBytes + 1,
    3 * kSealChunkBytes + 17,  (8u << 20) + 1};

TEST(FusedSealPipeline, WriterOutputByteIdenticalToSealBlob) {
  for (const std::size_t n : kBoundaryPayloadSizes) {
    const Bytes payload = random_bytes(n, 0x900 + n);
    const ContentId cid = crypto::Sha256::hash(payload);
    const SealedBlob old_path =
        seal_blob(test_key(0x21), test_binding(0x22), test_nonce(23), payload, cid);
    const SealedBlob fused =
        fused_seal(test_key(0x21), test_binding(0x22), test_nonce(23), payload, cid);
    EXPECT_EQ(old_path.serialize(), fused.serialize())
        << "wire divergence at payload size " << n;
  }
}

TEST(FusedSealPipeline, ChunkViewsTileThePayloadAndProduceTheSameBlob) {
  // Producing the payload through the per-chunk views must tile it exactly
  // and yield the identical wire blob as the whole-payload fill.
  const Bytes payload = random_bytes(2 * kSealChunkBytes + 777, 0x51);
  const ContentId cid = crypto::Sha256::hash(payload);

  SealedBlobWriter writer(test_key(0x52), test_binding(0x53), test_nonce(54),
                          payload.size());
  u64 tiled = 0;
  for (u64 c = 0; c < writer.chunk_count(); ++c) {
    const MutBytesView view = writer.chunk(c);
    ASSERT_EQ(view.data(), writer.payload().data() + c * kSealChunkBytes);
    std::copy(payload.begin() + static_cast<long>(tiled),
              payload.begin() + static_cast<long>(tiled + view.size()),
              view.begin());
    tiled += view.size();
  }
  EXPECT_EQ(tiled, payload.size());
  EXPECT_THROW(writer.chunk(writer.chunk_count()), std::invalid_argument);

  const SealedBlob via_chunks = writer.finish(cid);
  const SealedBlob via_payload =
      fused_seal(test_key(0x52), test_binding(0x53), test_nonce(54), payload, cid);
  EXPECT_EQ(via_chunks.serialize(), via_payload.serialize());
}

TEST(FusedSealPipeline, EmptyPayloadRejectedOnBothPaths) {
  const ContentId cid{};
  EXPECT_THROW(seal_blob(test_key(1), test_binding(2), test_nonce(3),
                         BytesView(), cid),
               std::invalid_argument);
  EXPECT_THROW(SealedBlobWriter(test_key(1), test_binding(2), test_nonce(3), 0),
               std::invalid_argument);
}

TEST(FusedSealPipeline, CrossPathCompatBothDirections) {
  for (const std::size_t n : kBoundaryPayloadSizes) {
    const Bytes payload = random_bytes(n, 0xa00 + n);
    const ContentId cid = crypto::Sha256::hash(payload);

    // Old-path blob → fused reader.
    const SealedBlob old_path =
        seal_blob(test_key(0x31), test_binding(0x32), test_nonce(33), payload, cid);
    SealedBlobReader reader(test_key(0x31), test_binding(0x32), old_path);
    ASSERT_EQ(reader.status(), SealStatus::kOk) << "size " << n;
    Bytes via_reader(reader.plaintext_bytes());
    reader.read_all(via_reader);
    EXPECT_EQ(via_reader, payload);

    // Fused blob → old unseal path.
    const SealedBlob fused =
        fused_seal(test_key(0x31), test_binding(0x32), test_nonce(34), payload, cid);
    Bytes via_old;
    ASSERT_EQ(unseal_blob(test_key(0x31), test_binding(0x32), fused, via_old),
              SealStatus::kOk);
    EXPECT_EQ(via_old, payload);

    // Chunk-at-a-time reads tile the payload exactly.
    Bytes via_chunks(reader.plaintext_bytes());
    for (u64 c = 0; c < reader.chunk_count(); ++c)
      reader.read_chunk(c, MutBytesView(via_chunks.data() + c * kSealChunkBytes,
                                        reader.chunk_bytes(c)));
    EXPECT_EQ(via_chunks, payload);
  }
}

TEST(FusedSealPipeline, ReaderHostileBitFlipSweep) {
  // The PR 4 hostile sweep, re-run against the fused reader: a flip in any
  // chunk's ciphertext, any chunk MAC, the chain MAC, a swapped MAC pair, a
  // version downgrade, the wrong binding and the wrong root key must all
  // fail closed with the same statuses unseal_blob answers.
  const Bytes payload = random_bytes(2 * kSealChunkBytes + 333, 0x41);
  const SealedBlob blob = fused_seal(test_key(0x42), test_binding(0x43),
                                     test_nonce(44), payload,
                                     crypto::Sha256::hash(payload));

  const auto fused_status = [](const crypto::AesKey& key,
                               const BindingId& binding,
                               const SealedBlob& candidate) {
    SealedBlobReader reader(key, binding, candidate);
    return reader.status();
  };

  for (u64 chunk = 0; chunk < blob.header.chunk_count(); ++chunk) {
    const u64 base = chunk * kSealChunkBytes;
    const u64 len = std::min<u64>(kSealChunkBytes, blob.ciphertext.size() - base);
    for (const u64 offset : {base, base + len / 2, base + len - 1}) {
      SealedBlob mutated = blob;
      mutated.ciphertext[offset] ^= 0x01;
      EXPECT_EQ(fused_status(test_key(0x42), test_binding(0x43), mutated),
                SealStatus::kBadBlob);
    }
    SealedBlob mac_flip = blob;
    mac_flip.chunk_macs[chunk][5] ^= 0x80;
    EXPECT_EQ(fused_status(test_key(0x42), test_binding(0x43), mac_flip),
              SealStatus::kBadBlob);
  }
  {
    SealedBlob mutated = blob;
    mutated.chain_mac[0] ^= 0x01;
    EXPECT_EQ(fused_status(test_key(0x42), test_binding(0x43), mutated),
              SealStatus::kBadBlob);
  }
  {
    SealedBlob mutated = blob;
    std::swap(mutated.chunk_macs[0], mutated.chunk_macs[1]);
    EXPECT_EQ(fused_status(test_key(0x42), test_binding(0x43), mutated),
              SealStatus::kBadBlob);
  }
  {
    SealedBlob mutated = blob;
    mutated.header.version = 1;
    EXPECT_EQ(fused_status(test_key(0x42), test_binding(0x43), mutated),
              SealStatus::kBadVersion);
  }
  EXPECT_EQ(fused_status(test_key(0x42), test_binding(0x77), blob),
            SealStatus::kWrongDevice);
  EXPECT_EQ(fused_status(test_key(0x77), test_binding(0x43), blob),
            SealStatus::kBadBlob);

  // A rejected reader never yields plaintext.
  SealedBlob mutated = blob;
  mutated.ciphertext[0] ^= 0x01;
  SealedBlobReader rejected(test_key(0x42), test_binding(0x43), mutated);
  ASSERT_NE(rejected.status(), SealStatus::kOk);
  Bytes sink(payload.size());
  EXPECT_THROW(rejected.read_all(sink), std::logic_error);
}

TEST(FusedSealPipeline, DeviceSealCacheTracksRegionMutations) {
  // A seal of the region the last SetWeight hashed takes its content id
  // from the attested weight hash; a feature write overlapping that region
  // must end the reuse. Run without integrity (GuardNN_C) so overwriting the
  // weight region with feature-keyed data changes what a weight-VN read
  // returns instead of failing it — exactly the case where only the overlap
  // rule keeps the id honest.
  crypto::HmacDrbg ca_drbg(Bytes{0x61});
  crypto::ManufacturerCa ca(ca_drbg);
  accel::UntrustedMemory mem;
  accel::GuardNnDevice device("cache-dev", ca, mem, Bytes{0x62});
  RemoteUser user(ca.public_key(), Bytes{0x63});
  ASSERT_TRUE(user.attest_device(device.get_pk()));
  ASSERT_TRUE(user.complete_session(
      device.init_session(user.begin_session(), /*integrity=*/false)));
  const accel::SessionId sid = user.session_id();

  const Bytes weights = random_bytes(4096, 0x64);
  ASSERT_EQ(device.set_weight(sid, user.seal(weights), 0), DeviceStatus::kOk);
  const Bytes descriptor{'c', 'a', 'c', 'h', 'e'};

  SealedBlob first;
  ASSERT_EQ(device.seal_model(sid, 0, weights.size(), descriptor, first),
            DeviceStatus::kOk);
  SealedBlob repeat;
  ASSERT_EQ(device.seal_model(sid, 0, weights.size(), descriptor, repeat),
            DeviceStatus::kOk);
  EXPECT_EQ(first.header.content_id, repeat.header.content_id)
      << "repeat seal of an untouched region must reuse the same identity";

  // A different descriptor names a different model.
  SealedBlob other_desc;
  ASSERT_EQ(device.seal_model(sid, 0, weights.size(), Bytes{'x'}, other_desc),
            DeviceStatus::kOk);
  EXPECT_NE(other_desc.header.content_id, first.header.content_id);

  // A feature write landing inside the region ends the weight-hash reuse.
  ASSERT_EQ(device.set_input(sid, user.seal(random_bytes(512, 0x65)), 0),
            DeviceStatus::kOk);
  SealedBlob after_overlap;
  ASSERT_EQ(device.seal_model(sid, 0, weights.size(), descriptor, after_overlap),
            DeviceStatus::kOk);
  EXPECT_NE(after_overlap.header.content_id, first.header.content_id)
      << "stale content id served after an overlapping write";

  // Re-importing the weights gives the original identity back (fresh CTR_W,
  // fresh hash over the same bytes).
  ASSERT_EQ(device.set_weight(sid, user.seal(weights), 0), DeviceStatus::kOk);
  SealedBlob restored;
  ASSERT_EQ(device.seal_model(sid, 0, weights.size(), descriptor, restored),
            DeviceStatus::kOk);
  EXPECT_EQ(restored.header.content_id, first.header.content_id);
}

TEST(FusedSealPipeline, RepeatedUnsealKeepsAttestationHashHonest) {
  // Every unseal hashes the weights once, for both the content-id re-check
  // and the attestation weight hash, and records the loaded region as the
  // one that hash covers; the attested weight hash must be exactly SHA-256
  // of the weights on every load, and tampering between loads must fail.
  crypto::HmacDrbg ca_drbg(Bytes{0x71});
  crypto::ManufacturerCa ca(ca_drbg);
  accel::UntrustedMemory mem;
  accel::GuardNnDevice device("memo-dev", ca, mem, Bytes{0x72});
  RemoteUser user(ca.public_key(), Bytes{0x73});
  ASSERT_TRUE(user.attest_device(device.get_pk()));
  ASSERT_TRUE(user.complete_session(
      device.init_session(user.begin_session(), true)));
  const accel::SessionId sid = user.session_id();

  const Bytes weights = random_bytes(3 * kSealChunkBytes + 99, 0x74);
  ASSERT_EQ(device.set_weight(sid, user.seal(weights), 0), DeviceStatus::kOk);
  SealedBlob blob;
  ASSERT_EQ(device.seal_model(sid, 0, weights.size(), Bytes{'m'}, blob),
            DeviceStatus::kOk);

  const crypto::Sha256Digest expected = crypto::Sha256::hash(weights);
  for (int round = 0; round < 3; ++round) {
    Bytes descriptor_out;
    ASSERT_EQ(device.unseal_model(sid, blob, 0, descriptor_out),
              DeviceStatus::kOk);
    accel::SignOutputResponse report;
    ASSERT_EQ(device.sign_output(sid, report), DeviceStatus::kOk);
    EXPECT_EQ(report.weight_hash, expected) << "round " << round;
  }

  // A tampered copy of the blob must still be rejected: a repeat load never
  // bypasses MAC verification.
  SealedBlob tampered = blob;
  tampered.ciphertext[kSealChunkBytes + 7] ^= 0x04;
  Bytes descriptor_out;
  EXPECT_EQ(device.unseal_model(sid, tampered, 0, descriptor_out),
            DeviceStatus::kBadRecord);
}

TEST(FusedSealPipeline, ForwardOutputOntoWeightRegionEndsWeightHashReuse) {
  // With integrity on, a VN collision can make a feature write pass as
  // weights: before the first SetInput, feature_write_vn() = CTR_IN << 32 |
  // CTR_F,W reaches 1 == CTR_W after one Forward. The second ReLU below
  // writes relu(W) onto the weight region under that VN, so the seal's
  // weight-VN export verifies and packages relu(W); its content id must
  // name relu(W), not the W that SetWeight hashed, or the blob never
  // unseals.
  crypto::HmacDrbg ca_drbg(Bytes{0xc1});
  crypto::ManufacturerCa ca(ca_drbg);
  accel::UntrustedMemory mem;
  accel::GuardNnDevice device("relu-dev", ca, mem, Bytes{0xc2});
  RemoteUser user(ca.public_key(), Bytes{0xc3});
  ASSERT_TRUE(user.attest_device(device.get_pk()));
  ASSERT_TRUE(user.complete_session(
      device.init_session(user.begin_session(), /*integrity=*/true)));
  const accel::SessionId sid = user.session_id();

  const Bytes weights = random_bytes(1024, 0xc4);
  ASSERT_EQ(device.set_weight(sid, user.seal(weights), 0), DeviceStatus::kOk);
  ForwardOp relu;
  relu.kind = ForwardOp::Kind::kRelu;
  relu.in_c = 1;
  relu.in_h = 1;
  relu.in_w = static_cast<int>(weights.size());
  // ReLU 0 -> 0 reading W under CTR_W, written under feature VN 0 ...
  ASSERT_EQ(device.set_read_ctr(sid, 0, weights.size(), 1), DeviceStatus::kOk);
  ASSERT_EQ(device.forward(sid, relu), DeviceStatus::kOk);
  // ... then ReLU 0 -> 0 again, written under feature VN 1 == CTR_W.
  ASSERT_EQ(device.set_read_ctr(sid, 0, weights.size(), 0), DeviceStatus::kOk);
  ASSERT_EQ(device.forward(sid, relu), DeviceStatus::kOk);
  ASSERT_EQ(device.vn_generator(sid).ctr_w(), 1u);
  ASSERT_EQ(device.vn_generator(sid).feature_write_vn(), 2u);

  Bytes relu_weights = weights;
  for (u8& b : relu_weights)
    if (static_cast<i8>(b) < 0) b = 0;
  const Bytes descriptor{'r', 'e', 'l', 'u'};
  SealedBlob blob;
  ASSERT_EQ(device.seal_model(sid, 0, weights.size(), descriptor, blob),
            DeviceStatus::kOk);
  EXPECT_EQ(blob.header.content_id,
            package_content_id(descriptor, crypto::Sha256::hash(relu_weights)));
  EXPECT_NE(blob.header.content_id,
            package_content_id(descriptor, crypto::Sha256::hash(weights)));
  Bytes descriptor_out;
  EXPECT_EQ(device.unseal_model(sid, blob, 0, descriptor_out),
            DeviceStatus::kOk);
  accel::SignOutputResponse report;
  ASSERT_EQ(device.sign_output(sid, report), DeviceStatus::kOk);
  EXPECT_EQ(report.weight_hash, crypto::Sha256::hash(relu_weights));
}

TEST(FusedSealPipeline, GoldenRepeatSealUnsealPinned) {
  // Pins a repeat seal of an untouched region and a repeat unseal of one
  // blob on one device to recorded values: the content ids, each blob's
  // wire image, the session's MPU access trace and byte counters, the
  // modeled latency and the attested weight hash. Both seals name the region
  // from the weight hash SetWeight attested and every unseal re-checks the
  // id, so a repeat must reproduce exactly what the first call produced and
  // left behind.
  crypto::HmacDrbg ca_drbg(Bytes{0x81});
  crypto::ManufacturerCa ca(ca_drbg);
  accel::UntrustedMemory mem;
  accel::GuardNnDevice device("golden-dev", ca, mem, Bytes{0x82});
  RemoteUser user(ca.public_key(), Bytes{0x83});
  ASSERT_TRUE(user.attest_device(device.get_pk()));
  ASSERT_TRUE(user.complete_session(
      device.init_session(user.begin_session(), /*integrity=*/true)));
  const accel::SessionId sid = user.session_id();

  const Bytes weights = random_bytes(3 * kSealChunkBytes + 99, 0x84);
  ASSERT_EQ(device.set_weight(sid, user.seal(weights), 0), DeviceStatus::kOk);
  const Bytes descriptor{'g', 'o', 'l', 'd', 'e', 'n'};

  SealedBlob first;
  ASSERT_EQ(device.seal_model(sid, 0, weights.size(), descriptor, first),
            DeviceStatus::kOk);
  SealedBlob repeat;
  ASSERT_EQ(device.seal_model(sid, 0, weights.size(), descriptor, repeat),
            DeviceStatus::kOk);
  EXPECT_EQ(first.header.content_id, repeat.header.content_id);
  EXPECT_EQ(to_hex(first.header.content_id),
            "3df165b330a485e1f25e7cac9c88cb0cf0a040da5f0fae576990fdefbe5314d2");
  EXPECT_EQ(to_hex(crypto::Sha256::hash(first.serialize())),
            "c69a71b4e22263e89e534ed5bcbfd0b830ed3bed5487da143a6203cf5deb3f37");
  EXPECT_EQ(to_hex(crypto::Sha256::hash(repeat.serialize())),
            "cbe86fb9519e2fa9082c09ffff7fd38b6f9b775b77bc567554adffda073486f9");

  for (int round = 0; round < 2; ++round) {
    Bytes descriptor_out;
    ASSERT_EQ(device.unseal_model(sid, first, 0, descriptor_out),
              DeviceStatus::kOk);
    EXPECT_EQ(descriptor_out, descriptor) << "round " << round;
  }
  accel::SignOutputResponse report;
  ASSERT_EQ(device.sign_output(sid, report), DeviceStatus::kOk);
  EXPECT_EQ(report.weight_hash, crypto::Sha256::hash(weights));
  EXPECT_EQ(to_hex(report.weight_hash),
            "20413d315d565f3e92d12662f72488bdaa3d7d9d4d34268ea42d87af2a2c9622");
  // The content id follows from the attested weight hash and the public
  // descriptor alone: SHA-256(be64(6) || "golden" || weight_hash).
  EXPECT_EQ(descriptor_prefixed_hash(descriptor, report.weight_hash),
            first.header.content_id);

  const auto& trace = device.access_trace(sid);
  crypto::Sha256 trace_hash;
  for (const auto& [address, is_write] : trace) {
    u8 entry[9];
    store_be64(entry, address);
    entry[8] = is_write ? 1 : 0;
    trace_hash.update(BytesView(entry, sizeof(entry)));
  }
  EXPECT_EQ(trace.size(), 1930u);
  EXPECT_EQ(to_hex(trace_hash.finalize()),
            "982374e4aa26b834d4f56e34fbca457a38844f8252e87994aca4f09271bdfffa");

  const accel::MpuByteCounters& counters = device.mpu_byte_counters();
  EXPECT_EQ(counters.bytes_encrypted.load(), 985600u);
  EXPECT_EQ(counters.bytes_macd.load(), 985600u);
  EXPECT_DOUBLE_EQ(device.elapsed_ms(), 28.267507500000004);
}

TEST(ModelPackageCodec, RoundTrip) {
  ModelPackage package;
  package.descriptor = random_bytes(77, 18);
  package.weights = random_bytes(3000, 19);
  package.weight_vn = 42;
  const Bytes wire = package.serialize();
  const std::optional<ModelPackage> parsed = ModelPackage::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->descriptor, package.descriptor);
  EXPECT_EQ(parsed->weights, package.weights);
  EXPECT_EQ(parsed->weight_vn, 42u);

  // Truncations and garbage are rejected.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{10}, wire.size() - 1})
    EXPECT_FALSE(ModelPackage::parse(BytesView(wire.data(), cut)).has_value());
  EXPECT_FALSE(ModelPackage::parse(random_bytes(64, 20)).has_value());
}

TEST(ModelPackageCodec, OtherVersionsRejected) {
  // Version 2 changed what the content id hashes; a package carrying any
  // other version number must not parse, so an old blob cannot be opened
  // and re-checked under the wrong rule.
  ModelPackage package;
  package.descriptor = random_bytes(9, 0xd1);
  package.weights = random_bytes(600, 0xd2);
  Bytes wire = package.serialize();
  ASSERT_EQ(load_be32(wire.data()), kModelPackageMagic);
  ASSERT_EQ(wire[4], 0);
  ASSERT_EQ(wire[5], kModelPackageVersion);
  ASSERT_TRUE(ModelPackageView::parse(wire).has_value());
  ASSERT_TRUE(ModelPackage::parse(wire).has_value());
  for (const u16 version : {u16{1}, u16{3}}) {
    wire[4] = static_cast<u8>(version >> 8);
    wire[5] = static_cast<u8>(version);
    EXPECT_FALSE(ModelPackageView::parse(wire).has_value()) << version;
    EXPECT_FALSE(ModelPackage::parse(wire).has_value()) << version;
  }
}

// --- Model descriptor codec --------------------------------------------------

TEST(ModelCodec, DescriptorRoundTripAndNetworkRebuild) {
  const FuncNetwork net = small_cnn(77);
  const Bytes descriptor = host::serialize_descriptor(net, /*train_step=*/9);
  const auto parsed = host::parse_descriptor(descriptor);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->train_step, 9u);
  ASSERT_EQ(parsed->net.layers.size(), net.layers.size());
  EXPECT_EQ(parsed->net.in_c, net.in_c);
  EXPECT_EQ(parsed->net.bits, net.bits);
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    EXPECT_EQ(parsed->net.layers[i].kind, net.layers[i].kind);
    EXPECT_EQ(parsed->net.layers[i].out_c, net.layers[i].out_c);
    EXPECT_TRUE(parsed->net.layers[i].weights.empty());
  }

  // Rebuilding from (descriptor, packed blob) restores a network whose
  // reference run matches the original bit-for-bit.
  const host::ExecutionPlan plan = host::HostScheduler::compile(net);
  const auto rebuilt = host::network_from_package(descriptor, plan.weight_blob);
  ASSERT_TRUE(rebuilt.has_value());
  for (std::size_t i = 0; i < net.layers.size(); ++i)
    EXPECT_EQ(rebuilt->layers[i].weights, net.layers[i].weights) << "layer " << i;
  const functional::Tensor input = random_input(net, 21);
  EXPECT_EQ(host::reference_run(*rebuilt, input), host::reference_run(net, input));

  // Hostile descriptors are rejected, not trusted.
  EXPECT_FALSE(host::parse_descriptor(random_bytes(40, 22)).has_value());
  Bytes bad_kind = descriptor;
  bad_kind[40] = 0xff;  // first layer's kind byte (after the 40-byte prefix)
  EXPECT_FALSE(host::parse_descriptor(bad_kind).has_value());
  // stride 0 on a stride-dividing kind would SIGFPE in out_dim downstream.
  FuncNetwork zero_stride = small_cnn(77);
  zero_stride.layers[2].stride = 0;  // the maxpool layer
  EXPECT_FALSE(
      host::parse_descriptor(host::serialize_descriptor(zero_stride)).has_value());
  // A residual referencing the current/later layer would index
  // reference_run's intermediates out of bounds.
  FuncNetwork forward_add = small_cnn(77);
  forward_add.layers[1].kind = ForwardOp::Kind::kAdd;
  forward_add.layers[1].input2_layer = 3;
  EXPECT_FALSE(
      host::parse_descriptor(host::serialize_descriptor(forward_add)).has_value());
  // Blob too short for the descriptor's layers.
  EXPECT_FALSE(host::network_from_package(
                   descriptor, BytesView(plan.weight_blob.data(), 64))
                   .has_value());
}

// --- ModelStore --------------------------------------------------------------

TEST(ModelPackageCodec, ViewParseMatchesOwningParseAndLayout) {
  ModelPackage package;
  package.descriptor = random_bytes(77, 0xb1);
  package.weights = random_bytes(4096 + 13, 0xb2);
  package.weight_vn = 0x1234'5678'9abcULL;
  const Bytes wire = package.serialize();

  // layout_package writes the identical wire bytes.
  Bytes laid(store::serialized_package_bytes(package.descriptor.size(),
                                             package.weights.size()));
  const MutBytesView weight_area = store::layout_package(
      laid, package.descriptor, package.weights.size(), package.weight_vn);
  std::copy(package.weights.begin(), package.weights.end(), weight_area.begin());
  EXPECT_EQ(laid, wire);

  // The zero-copy view parses to the same fields and identity.
  const auto view = ModelPackageView::parse(wire);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(std::equal(view->descriptor.begin(), view->descriptor.end(),
                         package.descriptor.begin(), package.descriptor.end()));
  EXPECT_TRUE(std::equal(view->weights.begin(), view->weights.end(),
                         package.weights.begin(), package.weights.end()));
  EXPECT_EQ(view->weight_vn, package.weight_vn);
  EXPECT_EQ(view->content_id(), package.content_id());

  // Same rejects as the owning parser.
  for (const auto mutate : {std::size_t{0}, wire.size() - 1}) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(mutate));
    EXPECT_EQ(ModelPackageView::parse(truncated).has_value(),
              ModelPackage::parse(truncated).has_value());
  }
  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_FALSE(ModelPackageView::parse(trailing).has_value());
}

TEST(ModelStoreTest, DirectoryBackendIgnoresOrphanTempFiles) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "guardnn_store_tmp_skip_test";
  fs::remove_all(dir);

  const Bytes payload = random_bytes(2048, 0xc1);
  const SealedBlob blob = seal_blob(test_key(0xc2), test_binding(0xc3),
                                    test_nonce(0xc4), payload,
                                    crypto::Sha256::hash(payload));
  {
    ModelStore store(std::make_unique<DirectoryBackend>(dir.string()));
    ASSERT_TRUE(store.put(blob).has_value());
  }
  // A crash between write and rename leaves a .tmp orphan — even one whose
  // contents are a fully valid blob must never be indexed as a replica.
  {
    std::ofstream orphan(dir / "crashed-checkpoint.gnnblob.tmp",
                         std::ios::binary);
    const Bytes valid = blob.serialize();
    orphan.write(reinterpret_cast<const char*>(valid.data()),
                 static_cast<std::streamsize>(valid.size()));
  }
  ModelStore reopened(std::make_unique<DirectoryBackend>(dir.string()));
  EXPECT_EQ(reopened.replica_count(), 1u);
  EXPECT_TRUE(
      reopened.get(blob.header.content_id, blob.header.binding_id).has_value());
  fs::remove_all(dir);
}

TEST(ModelStoreTest, PutGetDedupAndReplicas) {
  ModelStore store;
  const Bytes payload = random_bytes(5000, 23);
  const SealedBlob replica_a =
      seal_blob(test_key(0x31), test_binding(0x41), test_nonce(24), payload,
                crypto::Sha256::hash(payload));
  const SealedBlob replica_b =
      seal_blob(test_key(0x32), test_binding(0x42), test_nonce(25), payload,
                crypto::Sha256::hash(payload));

  const auto content = store.put(replica_a);
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*content, crypto::Sha256::hash(payload));
  // Same (content, binding): deduplicated.
  EXPECT_EQ(store.put(replica_a), content);
  EXPECT_EQ(store.stats().puts, 1u);
  EXPECT_EQ(store.stats().dedup_hits, 1u);
  EXPECT_EQ(store.replica_count(), 1u);

  // Same content, second device binding: a second replica of one model.
  EXPECT_EQ(store.put(replica_b), content);
  EXPECT_EQ(store.replica_count(), 2u);
  EXPECT_EQ(store.bindings(*content).size(), 2u);
  EXPECT_EQ(store.contents().size(), 1u);

  const auto fetched = store.get(*content, test_binding(0x41));
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->serialize(), replica_a.serialize());
  EXPECT_FALSE(store.get(*content, test_binding(0x43)).has_value());

  const u64 bytes_before_erase = store.stats().bytes_stored;
  EXPECT_TRUE(store.erase(*content, test_binding(0x41)));
  EXPECT_FALSE(store.contains(*content, test_binding(0x41)));
  EXPECT_TRUE(store.contains(*content, test_binding(0x42)));
  EXPECT_LT(store.stats().bytes_stored, bytes_before_erase)
      << "erase must release the replica's accounted bytes";
}

TEST(ModelStoreTest, DirectoryBackendPersistsAcrossReopen) {
  const std::filesystem::path dir =
      std::filesystem::current_path() / "store_test_blobs";
  std::filesystem::remove_all(dir);

  const Bytes payload = random_bytes(kSealChunkBytes + 17, 26);
  const SealedBlob blob =
      seal_blob(test_key(0x51), test_binding(0x61), test_nonce(27), payload,
                crypto::Sha256::hash(payload));
  ContentId content{};
  {
    ModelStore store(std::make_unique<DirectoryBackend>(dir.string()));
    const auto id = store.put(blob);
    ASSERT_TRUE(id.has_value());
    content = *id;
  }
  {
    // A fresh store over the same directory re-indexes the persisted blob
    // and the payload still unseals bit-identically.
    ModelStore store(std::make_unique<DirectoryBackend>(dir.string()));
    EXPECT_EQ(store.replica_count(), 1u);
    const auto fetched = store.get(content, test_binding(0x61));
    ASSERT_TRUE(fetched.has_value());
    Bytes opened;
    ASSERT_EQ(unseal_blob(test_key(0x51), test_binding(0x61), *fetched, opened),
              SealStatus::kOk);
    EXPECT_EQ(opened, payload);
  }
  {
    // Truncate the persisted file: reopen skips it (untrusted storage is
    // never trusted to parse, let alone verify).
    for (const auto& entry : std::filesystem::directory_iterator(dir))
      std::filesystem::resize_file(entry.path(), 10);
    ModelStore store(std::make_unique<DirectoryBackend>(dir.string()));
    EXPECT_EQ(store.replica_count(), 0u);
  }
  std::filesystem::remove_all(dir);
}

// --- Device SealModel / UnsealModel ------------------------------------------

struct DeviceRig {
  accel::UntrustedMemory memory;
  crypto::HmacDrbg ca_drbg{Bytes{0xd1}};
  crypto::ManufacturerCa ca{ca_drbg};
  accel::GuardNnDevice device{"store-dev-a", ca, memory, Bytes{0xd2}};

  /// Opens a session for a fresh user; returns (user, session id).
  std::unique_ptr<RemoteUser> open(accel::SessionId& sid, u8 seed,
                                   bool integrity = true) {
    auto user = std::make_unique<RemoteUser>(ca.public_key(), Bytes{seed, 0x07});
    if (!user->attest_device(device.get_pk())) return nullptr;
    if (!user->complete_session(
            device.init_session(user->begin_session(), integrity)))
      return nullptr;
    sid = user->session_id();
    return user;
  }
};

/// Runs the compiled plan in `sid` with a fresh input import and returns the
/// decrypted output.
std::optional<Bytes> run_inference(accel::GuardNnDevice& device, RemoteUser& user,
                                   accel::SessionId sid,
                                   const host::ExecutionPlan& plan,
                                   const functional::Tensor& input) {
  host::HostScheduler scheduler(device, sid);
  const Bytes input_bytes(input.bytes().begin(), input.bytes().end());
  if (device.set_input(sid, user.seal(input_bytes), plan.input_addr) !=
      DeviceStatus::kOk)
    return std::nullopt;
  scheduler.note_input();
  if (scheduler.execute(plan) != DeviceStatus::kOk) return std::nullopt;
  crypto::SealedRecord sealed;
  if (device.export_output(sid, plan.output_addr, plan.output_bytes, sealed) !=
      DeviceStatus::kOk)
    return std::nullopt;
  return user.open_output(sealed);
}

TEST(DeviceSealUnseal, SecondSessionRunsBitIdentical) {
  DeviceRig rig;
  const FuncNetwork net = small_cnn(91);
  const host::ExecutionPlan plan = host::HostScheduler::compile(net);
  const functional::Tensor input = random_input(net, 92);

  // Session 1: user loads the model over the secure channel, runs golden.
  accel::SessionId sid1 = accel::kInvalidSession;
  auto user1 = rig.open(sid1, 0x31);
  ASSERT_TRUE(user1);
  ASSERT_EQ(rig.device.set_weight(sid1, user1->seal(plan.weight_blob),
                                  plan.weight_base),
            DeviceStatus::kOk);
  const auto golden = run_inference(rig.device, *user1, sid1, plan, input);
  ASSERT_TRUE(golden.has_value());

  // SealModel: host gets only ciphertext (no weight window in the blob).
  const Bytes descriptor = host::serialize_descriptor(net);
  SealedBlob blob;
  ASSERT_EQ(rig.device.seal_model(sid1, plan.weight_base,
                                  plan.weight_blob.size(), descriptor, blob),
            DeviceStatus::kOk);
  EXPECT_EQ(blob.header.binding_id, rig.device.store_binding());
  EXPECT_FALSE(contains_window(blob.serialize(), plan.weight_blob));

  // Session 2 (fresh keys, fresh partition counters): UnsealModel restores
  // the weights without any user upload; inference is bit-identical.
  accel::SessionId sid2 = accel::kInvalidSession;
  auto user2 = rig.open(sid2, 0x32);
  ASSERT_TRUE(user2);
  Bytes descriptor_out;
  u64 checkpoint_vn = 0;
  ASSERT_EQ(rig.device.unseal_model(sid2, blob, plan.weight_base, descriptor_out,
                                    &checkpoint_vn),
            DeviceStatus::kOk);
  EXPECT_EQ(descriptor_out, descriptor);
  EXPECT_EQ(checkpoint_vn, 1u);  // CTR_W when session 1 sealed
  EXPECT_EQ(rig.device.vn_generator(sid2).ctr_w(), 1u);

  const auto replay = run_inference(rig.device, *user2, sid2, plan, input);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(*replay, *golden) << "unsealed model must reproduce the golden run";
}

TEST(DeviceSealUnseal, TamperedBlobRejectedWithoutStateChange) {
  DeviceRig rig;
  const FuncNetwork net = small_cnn(93);
  const host::ExecutionPlan plan = host::HostScheduler::compile(net);

  accel::SessionId sid = accel::kInvalidSession;
  auto user = rig.open(sid, 0x33);
  ASSERT_TRUE(user);
  ASSERT_EQ(rig.device.set_weight(sid, user->seal(plan.weight_blob),
                                  plan.weight_base),
            DeviceStatus::kOk);
  SealedBlob blob;
  ASSERT_EQ(rig.device.seal_model(sid, plan.weight_base, plan.weight_blob.size(),
                                  host::serialize_descriptor(net), blob),
            DeviceStatus::kOk);

  accel::SessionId sid2 = accel::kInvalidSession;
  auto user2 = rig.open(sid2, 0x34);
  ASSERT_TRUE(user2);
  const u64 ctr_w_before = rig.device.vn_generator(sid2).ctr_w();

  Bytes descriptor_out;
  SealedBlob tampered = blob;
  tampered.ciphertext[100] ^= 0x04;
  EXPECT_EQ(rig.device.unseal_model(sid2, tampered, plan.weight_base,
                                    descriptor_out),
            DeviceStatus::kBadRecord);
  tampered = blob;
  tampered.header.version = 1;
  EXPECT_EQ(rig.device.unseal_model(sid2, tampered, plan.weight_base,
                                    descriptor_out),
            DeviceStatus::kBadRecord);
  EXPECT_TRUE(descriptor_out.empty());
  // Failed unseals advance nothing: an adversarial host cannot desync VNs.
  EXPECT_EQ(rig.device.vn_generator(sid2).ctr_w(), ctr_w_before);
  // Stale/forged session ids answer kNoSession, coarse as ever.
  EXPECT_EQ(rig.device.unseal_model(0xdead, blob, plan.weight_base,
                                    descriptor_out),
            DeviceStatus::kNoSession);
}

/// Wire image of a blob sealed by the version-1 package format: device
/// "v1-dev" (CA entropy {0x91}, device entropy {0x92}), user entropy {0x93},
/// integrity on, SetWeight of random_bytes(512, 0x94) at 0, then
/// seal_model(sid, 0, 512, "v1", blob) and blob.serialize(). Its package
/// carries version 1, whose content id hashed the weights themselves.
constexpr char kVersionOneBlobHex[] =
    "474e534200020000b65375b53d13c82da809fda9176afdd63f0e722fbb63d54d0b3d"
    "9d0e71c19c103531afc3399b9d6777865fcf8935f5eb413d598a895a95be239ddf24"
    "7d2a8ca41711b01a728097170008862eb7560bfc0000000000000222000000000001"
    "000000000000000000019007993bdf80aada647f9a83b331b660d99a3de7f6379048"
    "50930da65ced559dca3d3bec1cfe6c0ad500b03f1baa38035ab20a11eb62055676d5"
    "82b1caa3080b317b607f0040748bfd769c5680665cb23a668074be32d906751da3a7"
    "c64a5c250a8e23d21a56552d287b894d0ff89add6ada3a3b4b16e7b3ab3d17ae01e7"
    "3037d7083520d9778a3abb41bc2b282a8296de300e0da2876413a97d9ed4833f692d"
    "3d1b9ff3d7f79af6b1ffc0ef11be27c1a69ddd930251409f1ae5b32aa810dd0dfc77"
    "fb82fb0a2ce8721b5e8af211cd60b85d3fcf70f884a65fe0c3570c1faa2aefea356d"
    "a87be2f0812555ce9342c69a94b3bcefbdad8fa4090f89201eed64b76f799e6dfe2a"
    "367eb0a8dc1e2c842587a0a7dfeac2199b51b0b1d0bc0f613095cf15200e81e99bcc"
    "33ee829cbd1fc9cdfc4ffbaad62599e3bd0d1411d57bac617e6822a97bf405aa80af"
    "a7bb3cb05333ea495b9434aa223158b4882caff5303a0fbab1e7b831bffbb662fa07"
    "4cd18e2e98a1d59f0d3cfeb5f7614a42a39ee6b33d93f4f09b1a7b5e0f42affeb19b"
    "657ca5d0a050c4ea85d5ada9d9652baa1772aa1e8a6e94101524f444868c2c76e227"
    "ee39a1f7456c15ed238502b29b0f65f5a58c13c033bbdb928e5529a13246653eec06"
    "ca4427f54c37a698d52066d78e229f87b183e5a6dc4c68aac5f81eda4befab894a9b"
    "57a543260bc92ff9a1f6f3072c2a59376133be75038cc14dd208902efce316b63c47"
    "dc172103bffac55986dd498ccceca55744d4d2b8a574a1a92d2cc0601d358058e678"
    "b279b659af8103c3e2f5";

TEST(DeviceSealUnseal, VersionOnePackageRejectedWithoutStateChange) {
  crypto::HmacDrbg ca_drbg(Bytes{0x91});
  crypto::ManufacturerCa ca(ca_drbg);
  accel::UntrustedMemory mem;
  accel::GuardNnDevice device("v1-dev", ca, mem, Bytes{0x92});
  RemoteUser user(ca.public_key(), Bytes{0x93});
  ASSERT_TRUE(user.attest_device(device.get_pk()));
  ASSERT_TRUE(user.complete_session(
      device.init_session(user.begin_session(), /*integrity=*/true)));
  const accel::SessionId sid = user.session_id();

  // The fixture is authentic for this device and names its model by the
  // version-1 rule: SHA-256(be64(2) || "v1" || weights).
  const std::optional<SealedBlob> old =
      SealedBlob::deserialize(from_hex(kVersionOneBlobHex));
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->header.binding_id, device.store_binding());
  EXPECT_EQ(descriptor_prefixed_hash(Bytes{'v', '1'}, random_bytes(512, 0x94)),
            old->header.content_id);

  const Bytes live = random_bytes(1024, 0x95);
  ASSERT_EQ(device.set_weight(sid, user.seal(live), 0), DeviceStatus::kOk);
  Bytes descriptor_out;
  u64 checkpoint_vn = 77;
  EXPECT_EQ(device.unseal_model(sid, *old, 0, descriptor_out, &checkpoint_vn),
            DeviceStatus::kBadRecord);
  EXPECT_TRUE(descriptor_out.empty());
  EXPECT_EQ(checkpoint_vn, 77u);
  EXPECT_EQ(device.vn_generator(sid).ctr_w(), 1u);
  accel::SignOutputResponse report;
  ASSERT_EQ(device.sign_output(sid, report), DeviceStatus::kOk);
  EXPECT_EQ(report.weight_hash, crypto::Sha256::hash(live));

  // The session stays usable: the live weights seal and load again.
  const Bytes descriptor{'v', '2'};
  SealedBlob fresh;
  ASSERT_EQ(device.seal_model(sid, 0, live.size(), descriptor, fresh),
            DeviceStatus::kOk);
  EXPECT_EQ(fresh.header.content_id,
            package_content_id(descriptor, crypto::Sha256::hash(live)));
  ASSERT_EQ(device.unseal_model(sid, fresh, 0, descriptor_out),
            DeviceStatus::kOk);
  EXPECT_EQ(descriptor_out, descriptor);
  EXPECT_EQ(device.vn_generator(sid).ctr_w(), 2u);
}

// --- Cross-device provisioning ----------------------------------------------

struct FleetRig {
  crypto::HmacDrbg ca_drbg{Bytes{0xf1}};
  crypto::ManufacturerCa ca{ca_drbg};
  accel::UntrustedMemory mem_a, mem_b, mem_c;
  accel::GuardNnDevice a{"fleet-a", ca, mem_a, Bytes{0xf2}};
  accel::GuardNnDevice b{"fleet-b", ca, mem_b, Bytes{0xf3}};
  accel::GuardNnDevice c{"fleet-c", ca, mem_c, Bytes{0xf4}};
};

TEST(CrossDeviceProvision, RewrapThenBitIdenticalInference) {
  FleetRig fleet;
  const FuncNetwork net = small_cnn(95);
  const host::ExecutionPlan plan = host::HostScheduler::compile(net);
  const functional::Tensor input = random_input(net, 96);

  // Golden run + seal on device A.
  accel::SessionId sid_a = accel::kInvalidSession;
  RemoteUser user_a(fleet.ca.public_key(), Bytes{0x41});
  ASSERT_TRUE(user_a.attest_device(fleet.a.get_pk()));
  ASSERT_TRUE(user_a.complete_session(
      fleet.a.init_session(user_a.begin_session(), true)));
  sid_a = user_a.session_id();
  ASSERT_EQ(fleet.a.set_weight(sid_a, user_a.seal(plan.weight_blob),
                               plan.weight_base),
            DeviceStatus::kOk);
  const auto golden = run_inference(fleet.a, user_a, sid_a, plan, input);
  ASSERT_TRUE(golden.has_value());

  SealedBlob blob_a;
  ASSERT_EQ(fleet.a.seal_model(sid_a, plan.weight_base, plan.weight_blob.size(),
                               host::serialize_descriptor(net), blob_a),
            DeviceStatus::kOk);

  // Persist to a directory-backed store and read it back (acceptance: the
  // replica that crosses devices went through untrusted storage).
  const std::filesystem::path dir =
      std::filesystem::current_path() / "store_test_provision";
  std::filesystem::remove_all(dir);
  ContentId content{};
  {
    ModelStore store(std::make_unique<DirectoryBackend>(dir.string()));
    const auto id = store.put(blob_a);
    ASSERT_TRUE(id.has_value());
    content = *id;
  }
  ModelStore store(std::make_unique<DirectoryBackend>(dir.string()));
  const auto persisted = store.get(content, fleet.a.store_binding());
  ASSERT_TRUE(persisted.has_value());

  // Three-step attested re-wrap A -> B; the host relays only ciphertext.
  accel::ProvisionRequest request;
  ASSERT_EQ(fleet.b.provision_begin(request), DeviceStatus::kOk);
  SealedBlob wrapped;
  accel::ProvisionGrant grant;
  ASSERT_EQ(fleet.a.export_for_device(*persisted, request, wrapped, grant),
            DeviceStatus::kOk);
  EXPECT_EQ(wrapped.header.binding_id, fleet.b.store_binding());
  EXPECT_FALSE(contains_window(wrapped.serialize(), plan.weight_blob));
  SealedBlob blob_b;
  ASSERT_EQ(fleet.b.provision_finish(wrapped, grant, blob_b), DeviceStatus::kOk);
  EXPECT_EQ(blob_b.header.binding_id, fleet.b.store_binding());
  EXPECT_EQ(blob_b.header.content_id, content);  // same logical model
  ASSERT_TRUE(store.put(blob_b).has_value());
  EXPECT_EQ(store.bindings(content).size(), 2u);

  // Unseal on B in a fresh tenant session; inference output must equal the
  // original device's golden run bit-for-bit.
  RemoteUser user_b(fleet.ca.public_key(), Bytes{0x42});
  ASSERT_TRUE(user_b.attest_device(fleet.b.get_pk()));
  ASSERT_TRUE(user_b.complete_session(
      fleet.b.init_session(user_b.begin_session(), true)));
  const accel::SessionId sid_b = user_b.session_id();
  Bytes descriptor_out;
  ASSERT_EQ(fleet.b.unseal_model(sid_b, blob_b, plan.weight_base, descriptor_out),
            DeviceStatus::kOk);
  const auto replicated = run_inference(fleet.b, user_b, sid_b, plan, input);
  ASSERT_TRUE(replicated.has_value());
  EXPECT_EQ(*replicated, *golden);

  std::filesystem::remove_all(dir);
}

TEST(CrossDeviceProvision, WrongDeviceAndForgedHandshakesRejected) {
  FleetRig fleet;
  const FuncNetwork net = small_cnn(97);
  const host::ExecutionPlan plan = host::HostScheduler::compile(net);

  RemoteUser user_a(fleet.ca.public_key(), Bytes{0x43});
  ASSERT_TRUE(user_a.attest_device(fleet.a.get_pk()));
  ASSERT_TRUE(user_a.complete_session(
      fleet.a.init_session(user_a.begin_session(), true)));
  const accel::SessionId sid_a = user_a.session_id();
  ASSERT_EQ(fleet.a.set_weight(sid_a, user_a.seal(plan.weight_blob),
                               plan.weight_base),
            DeviceStatus::kOk);
  SealedBlob blob_a;
  ASSERT_EQ(fleet.a.seal_model(sid_a, plan.weight_base, plan.weight_blob.size(),
                               host::serialize_descriptor(net), blob_a),
            DeviceStatus::kOk);

  // A blob bound to A cannot be unsealed or exported by B.
  Bytes descriptor_out;
  RemoteUser user_b(fleet.ca.public_key(), Bytes{0x44});
  ASSERT_TRUE(user_b.attest_device(fleet.b.get_pk()));
  ASSERT_TRUE(user_b.complete_session(
      fleet.b.init_session(user_b.begin_session(), true)));
  EXPECT_EQ(fleet.b.unseal_model(user_b.session_id(), blob_a, plan.weight_base,
                                 descriptor_out),
            DeviceStatus::kBadRecord);
  accel::ProvisionRequest request_c;
  ASSERT_EQ(fleet.c.provision_begin(request_c), DeviceStatus::kOk);
  SealedBlob wrapped;
  accel::ProvisionGrant grant;
  EXPECT_EQ(fleet.b.export_for_device(blob_a, request_c, wrapped, grant),
            DeviceStatus::kBadRecord);

  // Re-wrap addressed to B must not land on C: C's finish uses its own
  // pending share, so both the grant signature and the transport key fail.
  accel::ProvisionRequest request_b;
  ASSERT_EQ(fleet.b.provision_begin(request_b), DeviceStatus::kOk);
  ASSERT_EQ(fleet.a.export_for_device(blob_a, request_b, wrapped, grant),
            DeviceStatus::kOk);
  SealedBlob rebound;
  EXPECT_EQ(fleet.c.provision_finish(wrapped, grant, rebound),
            DeviceStatus::kBadRecord);
  // ... and a finish without a pending handshake is a clean operand error.
  EXPECT_EQ(fleet.c.provision_finish(wrapped, grant, rebound),
            DeviceStatus::kBadOperand);

  // Forged request: binding id not matching the certified identity.
  accel::ProvisionRequest forged = request_b;
  forged.binding_id = fleet.c.store_binding();
  EXPECT_EQ(fleet.a.export_for_device(blob_a, forged, wrapped, grant),
            DeviceStatus::kBadRecord);

  // Forged request: certificate from an unrelated CA.
  crypto::HmacDrbg rogue_drbg(Bytes{0x66});
  crypto::ManufacturerCa rogue_ca(rogue_drbg);
  accel::UntrustedMemory rogue_mem;
  accel::GuardNnDevice rogue("rogue", rogue_ca, rogue_mem, Bytes{0x67});
  accel::ProvisionRequest rogue_request;
  ASSERT_EQ(rogue.provision_begin(rogue_request), DeviceStatus::kOk);
  EXPECT_EQ(fleet.a.export_for_device(blob_a, rogue_request, wrapped, grant),
            DeviceStatus::kBadRecord);

  // Tampered grant signature.
  accel::ProvisionRequest request_b2;
  ASSERT_EQ(fleet.b.provision_begin(request_b2), DeviceStatus::kOk);
  ASSERT_EQ(fleet.a.export_for_device(blob_a, request_b2, wrapped, grant),
            DeviceStatus::kOk);
  accel::ProvisionGrant bad_grant = grant;
  bad_grant.signature.r.limb[0] ^= 1;
  EXPECT_EQ(fleet.b.provision_finish(wrapped, bad_grant, rebound),
            DeviceStatus::kBadRecord);
}

// --- Training checkpoint / restore -------------------------------------------

// The 4 -> 6 -> 3 MLP training step from train_device_test, packaged so a
// step can be driven in any fresh session (restore included) and mirrored in
// plaintext.
struct TrainRig {
  static constexpr int kIn = 4, kHidden = 6, kOut = 3;
  static constexpr int kShift = 3, kGradShift = 4, kLrShift = 3;
  static constexpr u64 kWBase = 0x0;
  static constexpr u64 kXAddr = 0x4000'0000ULL;
  static constexpr u64 kF0 = 0x4800'0000ULL;
  static constexpr u64 kF1 = 0x4880'0000ULL;
  static constexpr u64 kF2 = 0x4900'0000ULL;
  static constexpr u64 kDy = 0x4980'0000ULL;
  static constexpr u64 kDa1 = 0x4A00'0000ULL;
  static constexpr u64 kDh1 = 0x4A80'0000ULL;
  static constexpr u64 kGradBlob = 0x4B00'0000ULL;

  std::vector<i8> x = std::vector<i8>(kIn);
  Bytes initial_blob;

  TrainRig() {
    functional::FcWeights w1{kHidden, kIn}, w2{kOut, kHidden};
    Xoshiro256 rng(55);
    auto fill = [&](std::vector<i8>& v) {
      for (auto& e : v)
        e = static_cast<i8>(static_cast<int>(rng.next_below(17)) - 8);
    };
    fill(w1.data);
    fill(w2.data);
    fill(x);
    initial_blob.assign(1024, 0);
    std::copy(w1.data.begin(), w1.data.end(),
              reinterpret_cast<i8*>(initial_blob.data()));
    std::copy(w2.data.begin(), w2.data.end(),
              reinterpret_cast<i8*>(initial_blob.data() + 512));
  }

  /// Plaintext reference: one full train step over a packed weight blob.
  Bytes reference_step(const Bytes& blob) const {
    using namespace functional;
    FcWeights w1{kHidden, kIn}, w2{kOut, kHidden};
    std::copy(blob.begin(), blob.begin() + w1.data.size(),
              reinterpret_cast<u8*>(w1.data.data()));
    std::copy(blob.begin() + 512, blob.begin() + 512 + w2.data.size(),
              reinterpret_cast<u8*>(w2.data.data()));
    const std::vector<i8> h1 = fully_connected(x, w1, kShift, 8);
    std::vector<i8> a1 = h1;
    for (auto& v : a1) v = std::max<i8>(v, 0);
    const std::vector<i8> y = fully_connected(a1, w2, kShift, 8);
    const std::vector<i8> dy = y;  // target 0
    std::vector<i8> dh1 = fc_backward_input(dy, w2, kGradShift, 8);
    for (std::size_t i = 0; i < dh1.size(); ++i)
      if (h1[i] <= 0) dh1[i] = 0;
    const FcWeights dw2 = fc_backward_weights(dy, a1, kGradShift, 8);
    const FcWeights dw1 = fc_backward_weights(dh1, x, kGradShift, 8);
    sgd_update(w1.data, dw1.data, kLrShift, 8);
    sgd_update(w2.data, dw2.data, kLrShift, 8);
    Bytes updated(1024, 0);
    std::copy(w1.data.begin(), w1.data.end(),
              reinterpret_cast<i8*>(updated.data()));
    std::copy(w2.data.begin(), w2.data.end(),
              reinterpret_cast<i8*>(updated.data() + 512));
    return updated;
  }

  /// Drives one full forward+backward+SGD step through the ISA in a session
  /// whose weights sit at kWBase with CTR_W == 1 and which has seen no
  /// inputs yet. Leaves CTR_W == 2.
  [[nodiscard]] bool device_step(accel::GuardNnDevice& dev, RemoteUser& user,
                                 accel::SessionId sid) const {
    using K = ForwardOp::Kind;
    const Bytes x_bytes(reinterpret_cast<const u8*>(x.data()),
                        reinterpret_cast<const u8*>(x.data()) + x.size());
    if (dev.set_input(sid, user.seal(x_bytes), kXAddr) != DeviceStatus::kOk)
      return false;
    const u64 in1 = 1ULL << 32;

    auto fc = [&](K kind, int in_n, int out_n, int aux_n, u64 in_addr,
                  u64 in2_addr, u64 w_addr, u64 out_addr, int shift) {
      ForwardOp op;
      op.kind = kind;
      op.in_c = in_n; op.in_h = 1; op.in_w = 1;
      op.out_c = out_n;
      op.aux_c = aux_n; op.aux_h = aux_n > 0 ? 1 : 0; op.aux_w = aux_n > 0 ? 1 : 0;
      op.requant_shift = shift;
      op.input_addr = in_addr;
      op.input2_addr = in2_addr;
      op.weight_addr = w_addr;
      op.output_addr = out_addr;
      return op;
    };
    auto ok = [](DeviceStatus s) { return s == DeviceStatus::kOk; };

    // Forward: fc1 -> relu -> fc2 (write VNs in1|0,1,2).
    if (!ok(dev.set_read_ctr(sid, kXAddr, 512, in1 | 0))) return false;
    if (!ok(dev.forward(sid, fc(K::kFc, kIn, kHidden, 0, kXAddr, 0, kWBase, kF0,
                                kShift))))
      return false;
    if (!ok(dev.set_read_ctr(sid, kF0, 512, in1 | 0))) return false;
    if (!ok(dev.forward(sid, fc(K::kRelu, kHidden, 0, 0, kF0, 0, 0, kF1, 0))))
      return false;
    if (!ok(dev.set_read_ctr(sid, kF1, 512, in1 | 1))) return false;
    if (!ok(dev.forward(sid, fc(K::kFc, kHidden, kOut, 0, kF1, 0, kWBase + 512,
                                kF2, kShift))))
      return false;

    // Export logits; dy = y (target 0) goes back in as input 2.
    if (!ok(dev.set_read_ctr(sid, kF2, 512, in1 | 2))) return false;
    crypto::SealedRecord sealed;
    if (!ok(dev.export_output(sid, kF2, kOut, sealed))) return false;
    const auto y = user.open_output(sealed);
    if (!y) return false;
    if (!ok(dev.set_input(sid, user.seal(*y), kDy))) return false;
    const u64 in2 = 2ULL << 32;

    // Backward (write VNs in2|0..3).
    if (!ok(dev.set_read_ctr(sid, kDy, 512, in2 | 0))) return false;
    if (!ok(dev.forward(sid, fc(K::kFcDx, kOut, 0, kHidden, kDy, 0,
                                kWBase + 512, kDa1, kGradShift))))
      return false;
    if (!ok(dev.set_read_ctr(sid, kDa1, 512, in2 | 0))) return false;
    if (!ok(dev.set_read_ctr(sid, kF0, 512, in1 | 0))) return false;
    if (!ok(dev.forward(sid, fc(K::kReluDx, kHidden, 0, kHidden, kDa1, kF0, 0,
                                kDh1, 0))))
      return false;
    if (!ok(dev.set_read_ctr(sid, kDy, 512, in2 | 0))) return false;
    if (!ok(dev.set_read_ctr(sid, kF1, 512, in1 | 1))) return false;
    if (!ok(dev.forward(sid, fc(K::kFcDw, kOut, 0, kHidden, kDy, kF1, 0,
                                kGradBlob + 512, kGradShift))))
      return false;
    if (!ok(dev.set_read_ctr(sid, kDh1, 512, in2 | 1))) return false;
    if (!ok(dev.set_read_ctr(sid, kXAddr, 512, in1 | 0))) return false;
    if (!ok(dev.forward(sid, fc(K::kFcDw, kHidden, 0, kIn, kDh1, kXAddr, 0,
                                kGradBlob, kGradShift))))
      return false;

    // SGD over the whole blob.
    ForwardOp update;
    update.kind = K::kSgdUpdate;
    update.in_c = 1024; update.in_h = 1; update.in_w = 1;
    update.requant_shift = kLrShift;
    update.input_addr = kGradBlob;
    update.weight_addr = kWBase;
    if (!ok(dev.set_read_ctr(sid, kGradBlob, 512, in2 | 3))) return false;
    if (!ok(dev.set_read_ctr(sid, kGradBlob + 512, 512, in2 | 2))) return false;
    return ok(dev.forward(sid, update));
  }

  /// Exports the 1 KiB weight blob from a session (read VN = current CTR_W).
  std::optional<Bytes> export_weights(accel::GuardNnDevice& dev, RemoteUser& user,
                                      accel::SessionId sid) const {
    if (dev.set_read_ctr(sid, kWBase, 1024, dev.vn_generator(sid).ctr_w()) !=
        DeviceStatus::kOk)
      return std::nullopt;
    crypto::SealedRecord sealed;
    if (dev.export_output(sid, kWBase, 1024, sealed) != DeviceStatus::kOk)
      return std::nullopt;
    return user.open_output(sealed);
  }
};

TEST(TrainingCheckpoint, SuspendRestoreResumesBitIdentical) {
  TrainRig rig;
  FleetRig fleet;

  // Step 1 on device A.
  RemoteUser user_a(fleet.ca.public_key(), Bytes{0x51});
  ASSERT_TRUE(user_a.attest_device(fleet.a.get_pk()));
  ASSERT_TRUE(user_a.complete_session(
      fleet.a.init_session(user_a.begin_session(), true)));
  const accel::SessionId sid_a = user_a.session_id();
  ASSERT_EQ(fleet.a.set_weight(sid_a, user_a.seal(rig.initial_blob),
                               TrainRig::kWBase),
            DeviceStatus::kOk);
  ASSERT_TRUE(rig.device_step(fleet.a, user_a, sid_a));
  EXPECT_EQ(fleet.a.vn_generator(sid_a).ctr_w(), 2u);

  // Checkpoint: seal the updated weights with CTR_W metadata. The host
  // records the training step in the (public) descriptor.
  const Bytes descriptor{'m', 'l', 'p', '-', 's', 't', 'e', 'p', '1'};
  SealedBlob checkpoint;
  ASSERT_EQ(fleet.a.seal_model(sid_a, TrainRig::kWBase, 1024, descriptor,
                               checkpoint),
            DeviceStatus::kOk);
  ASSERT_EQ(fleet.a.close_session(sid_a), DeviceStatus::kOk);  // "suspend"

  const Bytes after_one = rig.reference_step(rig.initial_blob);

  // Provision the checkpoint to device B (the restore target).
  accel::ProvisionRequest request;
  ASSERT_EQ(fleet.b.provision_begin(request), DeviceStatus::kOk);
  SealedBlob wrapped;
  accel::ProvisionGrant grant;
  ASSERT_EQ(fleet.a.export_for_device(checkpoint, request, wrapped, grant),
            DeviceStatus::kOk);
  SealedBlob checkpoint_b;
  ASSERT_EQ(fleet.b.provision_finish(wrapped, grant, checkpoint_b),
            DeviceStatus::kOk);

  // Restore into a fresh session on B: weights identical to the suspended
  // run, VN freshness re-established (CTR_W restarts at 1 in the new
  // session; the sealed CTR_W arrives as metadata for the host's mirror).
  RemoteUser user_b(fleet.ca.public_key(), Bytes{0x52});
  ASSERT_TRUE(user_b.attest_device(fleet.b.get_pk()));
  ASSERT_TRUE(user_b.complete_session(
      fleet.b.init_session(user_b.begin_session(), true)));
  const accel::SessionId sid_b = user_b.session_id();
  Bytes descriptor_out;
  u64 checkpoint_vn = 0;
  ASSERT_EQ(fleet.b.unseal_model(sid_b, checkpoint_b, TrainRig::kWBase,
                                 descriptor_out, &checkpoint_vn),
            DeviceStatus::kOk);
  EXPECT_EQ(descriptor_out, descriptor);
  EXPECT_EQ(checkpoint_vn, 2u);  // CTR_W at suspend time
  EXPECT_EQ(fleet.b.vn_generator(sid_b).ctr_w(), 1u);

  const auto restored = rig.export_weights(fleet.b, user_b, sid_b);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, after_one)
      << "restored weights must be bit-identical to the suspended run";

  // Resume: step 2 on B matches two uninterrupted plaintext steps.
  ASSERT_TRUE(rig.device_step(fleet.b, user_b, sid_b));
  const auto after_resume = rig.export_weights(fleet.b, user_b, sid_b);
  ASSERT_TRUE(after_resume.has_value());
  EXPECT_EQ(*after_resume, rig.reference_step(after_one))
      << "resumed training must continue exactly where the checkpoint left off";
}

TEST(TrainingCheckpoint, SealAfterSgdUpdateNamesTheUpdatedWeights) {
  // The SGD update rewrites the weight region under a new CTR_W, so the
  // weight hash SetWeight attested no longer covers it: the checkpoint's
  // content id must describe the updated weights.
  TrainRig rig;
  FleetRig fleet;
  RemoteUser user(fleet.ca.public_key(), Bytes{0x53});
  ASSERT_TRUE(user.attest_device(fleet.a.get_pk()));
  ASSERT_TRUE(user.complete_session(
      fleet.a.init_session(user.begin_session(), true)));
  const accel::SessionId sid = user.session_id();
  ASSERT_EQ(fleet.a.set_weight(sid, user.seal(rig.initial_blob),
                               TrainRig::kWBase),
            DeviceStatus::kOk);
  ASSERT_TRUE(rig.device_step(fleet.a, user, sid));

  const Bytes descriptor{'s', 't', 'e', 'p', '1'};
  SealedBlob checkpoint;
  ASSERT_EQ(fleet.a.seal_model(sid, TrainRig::kWBase, 1024, descriptor,
                               checkpoint),
            DeviceStatus::kOk);
  const Bytes updated = rig.reference_step(rig.initial_blob);
  ASSERT_NE(updated, rig.initial_blob);
  EXPECT_EQ(checkpoint.header.content_id,
            package_content_id(descriptor, crypto::Sha256::hash(updated)));
  // The attested weight hash still names what SetWeight imported.
  accel::SignOutputResponse report;
  ASSERT_EQ(fleet.a.sign_output(sid, report), DeviceStatus::kOk);
  EXPECT_EQ(report.weight_hash, crypto::Sha256::hash(rig.initial_blob));
}

// --- Serving integration: store + replication under concurrency --------------

struct ServingRig {
  crypto::HmacDrbg ca_drbg{Bytes{0xa1}};
  crypto::ManufacturerCa ca{ca_drbg};

  struct Client {
    std::unique_ptr<RemoteUser> user;
    serving::TenantId tenant = 0;
    std::size_t device_index = 0;
  };

  Client connect(serving::InferenceServer& server, u8 seed) {
    Client client;
    client.user = std::make_unique<RemoteUser>(ca.public_key(), Bytes{seed, 0x09});
    const auto connected = server.connect(client.user->begin_session(), true);
    if (connected.tenant == 0) return client;
    client.tenant = connected.tenant;
    client.device_index = connected.device_index;
    if (!client.user->attest_device(server.get_pk(connected.device_index)))
      return client;
    if (!client.user->complete_session(connected.response)) client.tenant = 0;
    return client;
  }
};

TEST(ServingStore, HotModelReplicatesToSecondDevice) {
  ServingRig rig;
  serving::ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 2;
  serving::InferenceServer server(rig.ca, config, Bytes{0xa2});

  const FuncNetwork net = small_cnn(101);
  const serving::ModelHandle model = server.register_model(net);
  const functional::Tensor input = random_input(net, 102);
  const Bytes reference = host::reference_run(net, input);

  // Tenant A uploads the model the classic way and seals it to the store.
  auto a = rig.connect(server, 0x61);
  ASSERT_NE(a.tenant, 0u);
  ASSERT_EQ(server.load_model(a.tenant, model,
                              a.user->seal(model.plan->weight_blob)),
            DeviceStatus::kOk);
  store::ContentId content{};
  ASSERT_EQ(server.seal_tenant_model(a.tenant, host::serialize_descriptor(net),
                                     content),
            DeviceStatus::kOk);
  EXPECT_TRUE(server.model_store().contains(content,
                                            server.device_binding(a.device_index)));

  // Tenant B lands on the *other* device (least-loaded placement) and loads
  // straight from the store — no weight upload, auto-replication on demand.
  auto b = rig.connect(server, 0x62);
  ASSERT_NE(b.tenant, 0u);
  ASSERT_NE(b.device_index, a.device_index);
  ASSERT_EQ(server.load_model_from_store(b.tenant, content, model),
            DeviceStatus::kOk);
  EXPECT_EQ(server.stats().replications, 1u);
  EXPECT_EQ(server.model_store().bindings(content).size(), 2u);

  // B's inference output is bit-identical to the plaintext reference.
  const Bytes input_bytes(input.bytes().begin(), input.bytes().end());
  serving::InferenceResult result =
      server.submit(b.tenant, b.user->seal(input_bytes));
  ASSERT_EQ(result.outcome, serving::RequestOutcome::kOk);
  const auto output = b.user->open_output(result.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, reference);

  // Replicating again is an idempotent no-op.
  ASSERT_EQ(server.replicate_model(content, b.device_index), DeviceStatus::kOk);
  EXPECT_EQ(server.stats().replications, 1u);

  // A mismatched (content, handle) pair is refused: the stored model's
  // descriptor does not match the other architecture's handle, so the
  // server never pins the wrong-layout plan.
  FuncNetwork other = small_cnn(105);
  other.layers[0].out_c = 8;
  other.layers[0].weights = random_weights(8 * 3 * 3 * 3, 106);
  other.layers[3].weights = random_weights(10 * 8 * 4 * 4, 107);
  const serving::ModelHandle wrong = server.register_model(other);
  EXPECT_EQ(server.load_model_from_store(b.tenant, content, wrong),
            DeviceStatus::kBadOperand);
}

TEST(ServingStore, ConcurrentStoreTrafficStaysCoherent) {
  // TSan target: parallel seal/replicate/load/submit across tenants and
  // devices must be race-free and still produce reference outputs.
  ServingRig rig;
  serving::ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 2;
  serving::InferenceServer server(rig.ca, config, Bytes{0xa3});

  const FuncNetwork net = small_cnn(103);
  const serving::ModelHandle model = server.register_model(net);
  const functional::Tensor input = random_input(net, 104);
  const Bytes reference = host::reference_run(net, input);
  const Bytes descriptor = host::serialize_descriptor(net);

  constexpr int kClients = 4;
  std::vector<ServingRig::Client> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(rig.connect(server, static_cast<u8>(0x70 + i)));
    ASSERT_NE(clients.back().tenant, 0u);
    ASSERT_EQ(server.load_model(clients.back().tenant, model,
                                clients.back().user->seal(model.plan->weight_blob)),
              DeviceStatus::kOk);
  }

  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto& client = clients[static_cast<std::size_t>(i)];
      for (int round = 0; round < 3; ++round) {
        store::ContentId content{};
        if (server.seal_tenant_model(client.tenant, descriptor, content) !=
            DeviceStatus::kOk) {
          failures[static_cast<std::size_t>(i)] += 1;
          return;
        }
        const std::size_t other = 1 - client.device_index;
        if (server.replicate_model(content, other) != DeviceStatus::kOk) {
          failures[static_cast<std::size_t>(i)] += 1;
          return;
        }
        if (server.load_model_from_store(client.tenant, content, model) !=
            DeviceStatus::kOk) {
          failures[static_cast<std::size_t>(i)] += 1;
          return;
        }
        const Bytes input_bytes(input.bytes().begin(), input.bytes().end());
        auto result = server.submit(client.tenant, client.user->seal(input_bytes));
        if (result.outcome != serving::RequestOutcome::kOk ||
            client.user->open_output(result.sealed_output) != reference) {
          failures[static_cast<std::size_t>(i)] += 1;
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int i = 0; i < kClients; ++i)
    EXPECT_EQ(failures[static_cast<std::size_t>(i)], 0) << "client " << i;
  // All clients sealed the same logical model: exactly one content entry,
  // one replica per device, everything else deduplicated.
  EXPECT_EQ(server.model_store().contents().size(), 1u);
  EXPECT_EQ(server.model_store().replica_count(), 2u);
}

}  // namespace
}  // namespace guardnn::store
