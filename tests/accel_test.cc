#include <gtest/gtest.h>

#include <algorithm>

#include "accel/device.h"
#include "accel/memory.h"
#include "accel/mpu.h"
#include "common/rng.h"

namespace guardnn::accel {
namespace {

crypto::AesKey test_key(u8 tag) {
  crypto::AesKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<u8>(i + tag);
  return key;
}

// --- UntrustedMemory --------------------------------------------------------

TEST(UntrustedMemory, ReadWriteRoundTrip) {
  UntrustedMemory mem;
  const Bytes data = {1, 2, 3, 4, 5};
  mem.write(100, data);
  EXPECT_EQ(mem.read(100, 5), data);
}

TEST(UntrustedMemory, CrossesPageBoundaries) {
  UntrustedMemory mem;
  Bytes data(10000);
  Xoshiro256 rng(1);
  rng.fill(data);
  mem.write(UntrustedMemory::kPageBytes - 100, data);
  EXPECT_EQ(mem.read(UntrustedMemory::kPageBytes - 100, data.size()), data);
  EXPECT_GE(mem.resident_pages(), 3u);
}

TEST(UntrustedMemory, UnwrittenReadsAsZero) {
  UntrustedMemory mem;
  EXPECT_EQ(mem.read(0xdead000, 4), (Bytes{0, 0, 0, 0}));
}

TEST(UntrustedMemory, TamperFlipsBits) {
  UntrustedMemory mem;
  mem.write(0, Bytes{0xff});
  mem.tamper(0, 0x0f);
  EXPECT_EQ(mem.read(0, 1)[0], 0xf0);
}

TEST(UntrustedMemory, CopySupportsReplay) {
  UntrustedMemory mem;
  mem.write(0, Bytes{9, 8, 7});
  mem.copy(4096, 0, 3);
  EXPECT_EQ(mem.read(4096, 3), (Bytes{9, 8, 7}));
}

// --- MPU ---------------------------------------------------------------------

class MpuTest : public ::testing::TestWithParam<bool> {
 protected:
  bool integrity() const { return GetParam(); }
};

TEST_P(MpuTest, WriteThenReadRoundTrip) {
  UntrustedMemory mem;
  MemoryProtectionUnit mpu(mem, test_key(0), test_key(1), integrity());
  Bytes data(1024);
  Xoshiro256 rng(2);
  rng.fill(data);
  mpu.write(0, data, 7);
  Bytes out(1024);
  ASSERT_TRUE(mpu.read(0, out, 7));
  EXPECT_EQ(out, data);
}

TEST_P(MpuTest, CiphertextNotPlaintext) {
  UntrustedMemory mem;
  MemoryProtectionUnit mpu(mem, test_key(0), test_key(1), integrity());
  const Bytes data(512, 0x5a);
  mpu.write(0, data, 1);
  EXPECT_NE(mem.read(0, 512), data) << "plaintext visible in untrusted memory";
}

TEST_P(MpuTest, WrongVnYieldsGarbageNotPlaintext) {
  UntrustedMemory mem;
  MemoryProtectionUnit mpu(mem, test_key(0), test_key(1), integrity());
  Bytes data(512);
  Xoshiro256 rng(3);
  rng.fill(data);
  mpu.write(0, data, 5);
  Bytes out(512);
  const bool ok = mpu.read(0, out, 6);
  if (ok) {
    EXPECT_NE(out, data);  // without integrity: garbage
  }
  // with integrity: MAC binds the VN, so the read fails outright.
  if (integrity()) {
    EXPECT_FALSE(ok);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, MpuTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "integrity" : "confidentiality";
                         });

TEST(Mpu, DetectsTamperedCiphertext) {
  UntrustedMemory mem;
  MemoryProtectionUnit mpu(mem, test_key(0), test_key(1), true);
  Bytes data(512, 0x11);
  mpu.write(0, data, 1);
  mem.tamper(100, 0x01);
  Bytes out(512);
  EXPECT_FALSE(mpu.read(0, out, 1));
  EXPECT_TRUE(mpu.poisoned());
}

TEST(Mpu, DetectsRelocatedCiphertext) {
  // Moving a valid (ciphertext, MAC) pair to a different address must fail:
  // the MAC binds the physical address.
  UntrustedMemory mem;
  MemoryProtectionUnit mpu(mem, test_key(0), test_key(1), true);
  Bytes data(512, 0x22);
  mpu.write(0, data, 1);
  mpu.write(512, data, 1);
  // Adversary copies block 0's ciphertext AND its MAC slot over block 1's.
  mem.copy(512, 0, 512);
  mem.copy(MemoryProtectionUnit::kMacRegionBase + 8,
           MemoryProtectionUnit::kMacRegionBase, 8);
  Bytes out(512);
  EXPECT_FALSE(mpu.read(512, out, 1));
}

TEST(Mpu, DetectsReplayedOldVersion) {
  UntrustedMemory mem;
  MemoryProtectionUnit mpu(mem, test_key(0), test_key(1), true);
  Bytes old_data(512, 0x01), new_data(512, 0x02);
  mpu.write(0, old_data, /*version=*/1);
  const Bytes old_cipher = mem.read(0, 512);
  const Bytes old_mac = mem.read(MemoryProtectionUnit::kMacRegionBase, 8);
  mpu.write(0, new_data, /*version=*/2);
  // Adversary replays the old ciphertext and old MAC.
  mem.write(0, old_cipher);
  mem.write(MemoryProtectionUnit::kMacRegionBase, old_mac);
  Bytes out(512);
  EXPECT_FALSE(mpu.read(0, out, /*version=*/2))
      << "replay of a stale version must fail verification";
}

TEST(Mpu, PoisonedMpuRefusesAllReads) {
  UntrustedMemory mem;
  MemoryProtectionUnit mpu(mem, test_key(0), test_key(1), true);
  Bytes data(512, 0x33);
  mpu.write(0, data, 1);
  mem.tamper(0, 0xff);
  Bytes out(512);
  EXPECT_FALSE(mpu.read(0, out, 1));
  // Even an untampered region is now refused (fail-stop).
  mpu.write(1024, data, 1);
  EXPECT_FALSE(mpu.read(1024, out, 1));
}

TEST(Mpu, AlignmentEnforced) {
  UntrustedMemory mem;
  MemoryProtectionUnit mpu(mem, test_key(0), test_key(1), true);
  Bytes data(512);
  EXPECT_THROW(mpu.write(8, data, 0), std::invalid_argument);
  EXPECT_THROW(mpu.write(64, data, 0), std::invalid_argument);  // 512 B for IV
  Bytes odd(20);
  EXPECT_THROW(mpu.write(0, odd, 0), std::invalid_argument);
}

TEST(Mpu, TraceRecordsAccesses) {
  UntrustedMemory mem;
  MemoryProtectionUnit mpu(mem, test_key(0), test_key(1), false);
  Bytes data(512);
  mpu.write(0, data, 0);
  Bytes out(512);
  ASSERT_TRUE(mpu.read(0, out, 0));
  ASSERT_EQ(mpu.access_trace().size(), 2u);
  EXPECT_TRUE(mpu.access_trace()[0].second);   // write
  EXPECT_FALSE(mpu.access_trace()[1].second);  // read
}

// --- MPU streams (fused seal/unseal data path) -------------------------------

TEST_P(MpuTest, StreamsMatchMonolithicReadWriteIncludingTrace) {
  // An import stream fed ragged slices must leave byte-identical off-chip
  // state (data, MAC slots, access trace) to one monolithic write of a
  // zero-padded buffer; an export stream must return exactly what a
  // monolithic read decrypts, emitting the same trace.
  UntrustedMemory mono_mem, stream_mem;
  MemoryProtectionUnit mono(mono_mem, test_key(0), test_key(1), integrity());
  MemoryProtectionUnit streamed(stream_mem, test_key(0), test_key(1),
                                integrity());
  constexpr u64 kBase = 0x2000;
  constexpr std::size_t kLogical = 5000;  // neither chunk- nor block-aligned
  Bytes plain(kLogical);
  Xoshiro256 rng(11);
  rng.fill(plain);

  Bytes padded(5120, 0);
  std::copy(plain.begin(), plain.end(), padded.begin());
  mono.write(kBase, padded, 9);
  {
    MpuImportStream importer(streamed, kBase, kLogical, 9);
    const std::size_t slices[] = {1, 511, 513, 17, 2 * 4096};
    std::size_t off = 0;
    int i = 0;
    while (off < kLogical) {
      const std::size_t n =
          std::min<std::size_t>(slices[i++ % 5], kLogical - off);
      importer.next(BytesView(plain.data() + off, n));
      off += n;
    }
    importer.finish();
  }
  EXPECT_EQ(mono_mem.read(kBase, padded.size()),
            stream_mem.read(kBase, padded.size()));
  if (integrity()) {
    const u64 slot0 = MemoryProtectionUnit::kMacRegionBase + kBase / 512 * 8;
    EXPECT_EQ(mono_mem.read(slot0, 10 * 8), stream_mem.read(slot0, 10 * 8));
  }
  EXPECT_EQ(mono.access_trace(), streamed.access_trace());

  mono.clear_trace();
  streamed.clear_trace();
  Bytes mono_out(padded.size());
  ASSERT_TRUE(mono.read(kBase, mono_out, 9));
  Bytes stream_out(kLogical);
  {
    MpuExportStream exporter(streamed, kBase, kLogical, 9);
    const std::size_t slices[] = {7, 512, 1000, 4096};
    std::size_t off = 0;
    int i = 0;
    while (exporter.remaining() > 0) {
      const std::size_t n = std::min<std::size_t>(
          slices[i++ % 4], static_cast<std::size_t>(exporter.remaining()));
      ASSERT_TRUE(exporter.next(MutBytesView(stream_out.data() + off, n)));
      off += n;
    }
    ASSERT_TRUE(exporter.finish());
  }
  EXPECT_TRUE(std::equal(stream_out.begin(), stream_out.end(),
                         mono_out.begin()));
  EXPECT_EQ(stream_out, plain);
  EXPECT_EQ(mono.access_trace(), streamed.access_trace());
}

TEST(Mpu, ExportStreamFailsClosedOnTamperAnywhere) {
  // A flip in any protection chunk — including the zero-pad tail chunk past
  // the logical end — must fail the walk and poison the MPU.
  constexpr std::size_t kLogical = 3 * 512 + 40;
  Bytes plain(kLogical, 0x5c);
  for (const u64 tamper_addr : {u64{0}, u64{700}, u64{3 * 512 + 100}}) {
    UntrustedMemory mem;
    MemoryProtectionUnit mpu(mem, test_key(0), test_key(1), true);
    {
      MpuImportStream importer(mpu, 0, kLogical, 3);
      importer.next(plain);
      importer.finish();
    }
    mem.tamper(tamper_addr, 0x10);
    MpuExportStream exporter(mpu, 0, kLogical, 3);
    Bytes sink(kLogical);
    const bool delivered = exporter.next(sink);
    EXPECT_FALSE(delivered && exporter.finish())
        << "tamper at " << tamper_addr << " not caught";
    EXPECT_TRUE(mpu.poisoned());
  }
}

TEST(Mpu, StreamsPadRelativeToAnUnalignedRegionStart) {
  // With integrity off the region start only needs 16 B alignment; the
  // streams' zero-pad / pad-verify must stop at start + pad_region(bytes),
  // not at the next absolute 512 B boundary — padding past it would smash
  // whatever lives after the region.
  UntrustedMemory mem;
  MemoryProtectionUnit mpu(mem, test_key(0), test_key(1), false);
  constexpr u64 kStart = 16;
  constexpr std::size_t kLogical = 512;  // pads to exactly one chunk window
  const Bytes sentinel(64, 0xee);
  const u64 region_end = kStart + 512;
  mem.write(region_end, sentinel);  // adjacent bytes that must survive

  Bytes plain(kLogical, 0x3c);
  {
    MpuImportStream importer(mpu, kStart, kLogical, 4);
    importer.next(plain);
    importer.finish();
  }
  EXPECT_EQ(mem.read(region_end, sentinel.size()), sentinel)
      << "import stream wrote past the padded region";

  Bytes out(kLogical);
  {
    MpuExportStream exporter(mpu, kStart, kLogical, 4);
    ASSERT_TRUE(exporter.next(out));
    ASSERT_TRUE(exporter.finish());
  }
  EXPECT_EQ(out, plain);
}

TEST(Mpu, ImportStreamRequiresExactByteCount) {
  UntrustedMemory mem;
  MemoryProtectionUnit mpu(mem, test_key(0), test_key(1), true);
  MpuImportStream importer(mpu, 0, 100, 1);
  const Bytes some(60, 1);
  importer.next(some);
  EXPECT_THROW(importer.finish(), std::logic_error);       // 40 bytes missing
  EXPECT_THROW(importer.next(Bytes(41, 2)), std::invalid_argument);  // too many
}

// --- Device ------------------------------------------------------------------

struct Fixture {
  UntrustedMemory memory;
  crypto::HmacDrbg ca_drbg{Bytes{1, 2, 3}};
  crypto::ManufacturerCa ca{ca_drbg};
  GuardNnDevice device{"dev-0", ca, memory, Bytes{4, 5, 6}};
  /// The session the last handshake opened.
  SessionId sid = kInvalidSession;
};

crypto::SessionKeys handshake(Fixture& fx, bool integrity,
                              crypto::HmacDrbg& user_drbg) {
  const crypto::EcdhKeyPair user = crypto::ecdh_generate_key(user_drbg);
  const InitSessionResponse resp = fx.device.init_session(user.public_key, integrity);
  fx.sid = resp.session_id;
  const crypto::U256 shared =
      crypto::ecdh_shared_secret(user.private_key, resp.device_ephemeral);
  return crypto::derive_session_keys(shared, user.public_key, resp.device_ephemeral);
}

TEST(Device, GetPkReturnsValidCertificate) {
  Fixture fx;
  const GetPkResponse resp = fx.device.get_pk();
  EXPECT_TRUE(crypto::verify_certificate(resp.certificate, fx.ca.public_key()));
  EXPECT_EQ(resp.certificate.device_id, "dev-0");
  EXPECT_TRUE(resp.certificate.device_public == resp.public_key);
}

TEST(Device, InstructionsRequireSession) {
  Fixture fx;
  crypto::SealedRecord record;
  EXPECT_EQ(fx.device.set_weight(kInvalidSession, record, 0), DeviceStatus::kNoSession);
  EXPECT_EQ(fx.device.set_input(kInvalidSession, record, 0), DeviceStatus::kNoSession);
  EXPECT_EQ(fx.device.set_read_ctr(kInvalidSession, 0, 64, 0),
            DeviceStatus::kNoSession);
  ForwardOp op;
  EXPECT_EQ(fx.device.forward(kInvalidSession, op), DeviceStatus::kNoSession);
  crypto::SealedRecord out;
  EXPECT_EQ(fx.device.export_output(kInvalidSession, 0, 64, out),
            DeviceStatus::kNoSession);
  SignOutputResponse sign;
  EXPECT_EQ(fx.device.sign_output(kInvalidSession, sign), DeviceStatus::kNoSession);
}

TEST(Device, KeyExchangeSignatureVerifies) {
  Fixture fx;
  crypto::HmacDrbg user_drbg(Bytes{7});
  const crypto::EcdhKeyPair user = crypto::ecdh_generate_key(user_drbg);
  const InitSessionResponse resp = fx.device.init_session(user.public_key, false);
  Bytes transcript = crypto::encode_point(user.public_key);
  const Bytes share = crypto::encode_point(resp.device_ephemeral);
  transcript.insert(transcript.end(), share.begin(), share.end());
  EXPECT_TRUE(
      crypto::ecdsa_verify(fx.device.get_pk().public_key, transcript, resp.signature));
}

TEST(Device, ImportStoresCiphertextOnly) {
  Fixture fx;
  crypto::HmacDrbg user_drbg(Bytes{8});
  const crypto::SessionKeys keys = handshake(fx, false, user_drbg);
  crypto::ChannelSender to_device(keys);

  Bytes weights(1024);
  Xoshiro256 rng(4);
  rng.fill(weights);
  ASSERT_EQ(fx.device.set_weight(fx.sid, to_device.seal(weights), 0),
            DeviceStatus::kOk);

  // Scan all of untrusted memory for the plaintext — it must not be there.
  const Bytes stored = fx.memory.read(0, 2048);
  auto it = std::search(stored.begin(), stored.end(), weights.begin(),
                        weights.begin() + 64);
  EXPECT_EQ(it, stored.end());
}

TEST(Device, RejectsForgedRecords) {
  Fixture fx;
  crypto::HmacDrbg user_drbg(Bytes{9});
  const crypto::SessionKeys keys = handshake(fx, false, user_drbg);
  crypto::ChannelSender to_device(keys);
  crypto::SealedRecord record = to_device.seal(Bytes(512, 1));
  record.ciphertext[0] ^= 1;
  EXPECT_EQ(fx.device.set_weight(fx.sid, record, 0), DeviceStatus::kBadRecord);
}

TEST(Device, RejectsReplayedRecords) {
  Fixture fx;
  crypto::HmacDrbg user_drbg(Bytes{10});
  const crypto::SessionKeys keys = handshake(fx, false, user_drbg);
  crypto::ChannelSender to_device(keys);
  const crypto::SealedRecord record = to_device.seal(Bytes(512, 1));
  ASSERT_EQ(fx.device.set_weight(fx.sid, record, 0), DeviceStatus::kOk);
  EXPECT_EQ(fx.device.set_weight(fx.sid, record, 512), DeviceStatus::kBadRecord);
}

TEST(Device, CountersFollowInstructions) {
  Fixture fx;
  crypto::HmacDrbg user_drbg(Bytes{11});
  const crypto::SessionKeys keys = handshake(fx, false, user_drbg);
  crypto::ChannelSender to_device(keys);
  ASSERT_EQ(fx.device.set_weight(fx.sid, to_device.seal(Bytes(512, 1)), 0),
            DeviceStatus::kOk);
  EXPECT_EQ(fx.device.vn_generator(fx.sid).ctr_w(), 1u);
  ASSERT_EQ(fx.device.set_input(fx.sid, to_device.seal(Bytes(512, 2)), 0x4000'0000),
            DeviceStatus::kOk);
  EXPECT_EQ(fx.device.vn_generator(fx.sid).ctr_in(), 1u);
  EXPECT_EQ(fx.device.vn_generator(fx.sid).ctr_fw(), 0u);
}

TEST(Device, InitSessionResetsState) {
  Fixture fx;
  crypto::HmacDrbg user_drbg(Bytes{12});
  crypto::SessionKeys keys = handshake(fx, false, user_drbg);
  crypto::ChannelSender to_device(keys);
  ASSERT_EQ(fx.device.set_weight(fx.sid, to_device.seal(Bytes(512, 1)), 0),
            DeviceStatus::kOk);
  EXPECT_EQ(fx.device.vn_generator(fx.sid).ctr_w(), 1u);
  // New session: counters return to zero and old channel keys are invalid.
  keys = handshake(fx, false, user_drbg);
  EXPECT_EQ(fx.device.vn_generator(fx.sid).ctr_w(), 0u);
  EXPECT_EQ(fx.device.set_weight(fx.sid, to_device.seal(Bytes(512, 1)), 0),
            DeviceStatus::kBadRecord);
}

class DeviceAlignmentTest : public ::testing::TestWithParam<bool> {};

TEST_P(DeviceAlignmentTest, MisalignedOperandAnswersBadOperandAndSessionLives) {
  // The MPU needs 512 B-aligned regions with integrity on and 16 B-aligned
  // ones with it off. Every instruction that takes an address must answer
  // kBadOperand for one that breaks the session's rule, never throw out of
  // the ISA, and leave the session able to run the next valid instruction.
  const bool integrity = GetParam();
  const u64 bad = integrity ? 16 : 8;
  Fixture fx;
  crypto::HmacDrbg user_drbg(Bytes{14});
  const crypto::SessionKeys keys = handshake(fx, integrity, user_drbg);
  crypto::ChannelSender to_device(keys);
  const SessionId sid = fx.sid;
  constexpr u64 kWeights = 0, kInput = 0x1000, kOutput = 0x2000, kSum = 0x3000;
  const Bytes weights(4 * 4 * 3 * 3, 1);

  EXPECT_EQ(fx.device.set_weight(sid, to_device.seal(weights), kWeights + bad),
            DeviceStatus::kBadOperand);
  ASSERT_EQ(fx.device.set_weight(sid, to_device.seal(weights), kWeights),
            DeviceStatus::kOk);
  EXPECT_EQ(fx.device.set_input(sid, to_device.seal(Bytes(64, 2)), kInput + bad),
            DeviceStatus::kBadOperand);
  ASSERT_EQ(fx.device.set_input(sid, to_device.seal(Bytes(64, 2)), kInput),
            DeviceStatus::kOk);
  ASSERT_EQ(fx.device.set_read_ctr(sid, kInput, 512,
                                   fx.device.vn_generator(sid).feature_write_vn()),
            DeviceStatus::kOk);

  // Runs a valid op and points the read counter of its output at the VN it
  // was written with, so later reads of it verify.
  auto forward_ok = [&](const ForwardOp& op) {
    const u64 vn = fx.device.vn_generator(sid).feature_write_vn();
    ASSERT_EQ(fx.device.forward(sid, op), DeviceStatus::kOk);
    ASSERT_EQ(fx.device.set_read_ctr(sid, op.output_addr, 512, vn), DeviceStatus::kOk);
  };
  ForwardOp conv;
  conv.kind = ForwardOp::Kind::kConv;
  conv.in_c = 4;
  conv.in_h = conv.in_w = 4;
  conv.out_c = 4;
  conv.kernel = 3;
  conv.pad = 1;
  conv.requant_shift = 4;
  conv.input_addr = kInput;
  conv.weight_addr = kWeights;
  conv.output_addr = kOutput;
  for (u64 ForwardOp::*field :
       {&ForwardOp::input_addr, &ForwardOp::weight_addr, &ForwardOp::output_addr}) {
    ForwardOp misaligned = conv;
    misaligned.*field += bad;
    EXPECT_EQ(fx.device.forward(sid, misaligned), DeviceStatus::kBadOperand);
    forward_ok(conv);
  }
  ForwardOp add = conv;
  add.kind = ForwardOp::Kind::kAdd;
  add.input2_addr = kInput + bad;
  add.output_addr = kSum;
  EXPECT_EQ(fx.device.forward(sid, add), DeviceStatus::kBadOperand);
  add.input2_addr = kOutput;
  forward_ok(add);

  crypto::SealedRecord record;
  EXPECT_EQ(fx.device.export_output(sid, kSum + bad, 64, record),
            DeviceStatus::kBadOperand);
  ASSERT_EQ(fx.device.export_output(sid, kSum, 64, record), DeviceStatus::kOk);

  const Bytes descriptor{'d'};
  store::SealedBlob blob;
  EXPECT_EQ(fx.device.seal_model(sid, kWeights + bad, weights.size(), descriptor, blob),
            DeviceStatus::kBadOperand);
  ASSERT_EQ(fx.device.seal_model(sid, kWeights, weights.size(), descriptor, blob),
            DeviceStatus::kOk);
  Bytes descriptor_out;
  EXPECT_EQ(fx.device.unseal_model(sid, blob, kWeights + bad, descriptor_out),
            DeviceStatus::kBadOperand);
  ASSERT_EQ(fx.device.unseal_model(sid, blob, kWeights, descriptor_out),
            DeviceStatus::kOk);
  EXPECT_EQ(descriptor_out, descriptor);
  forward_ok(conv);  // the reloaded weights serve the next inference
}

INSTANTIATE_TEST_SUITE_P(Integrity, DeviceAlignmentTest, ::testing::Bool());

TEST(Device, LatencyModelAccumulates) {
  Fixture fx;
  crypto::HmacDrbg user_drbg(Bytes{13});
  const double before = fx.device.elapsed_ms();
  handshake(fx, false, user_drbg);
  // Key exchange costs 23.1 ms on the MicroBlaze model.
  EXPECT_NEAR(fx.device.elapsed_ms() - before, 23.1, 0.2);
}

}  // namespace
}  // namespace guardnn::accel
