#include "accel/device.h"

#include "crypto/hmac.h"
#include "functional/train_ops.h"
#include "store/model_package.h"

#include <algorithm>
#include <stdexcept>

namespace guardnn::accel {
namespace {

crypto::AesKey key_from_bytes(BytesView raw) {
  if (raw.size() < crypto::kAesKeyBytes)
    throw std::invalid_argument("key_from_bytes: insufficient material");
  crypto::AesKey key{};
  std::copy(raw.begin(), raw.begin() + crypto::kAesKeyBytes, key.begin());
  return key;
}

/// Transcript a provision-request signature covers.
Bytes provision_request_transcript(const crypto::AffinePoint& ephemeral,
                                   const store::BindingId& binding) {
  static constexpr char kTag[] = "guardnn-provision-req";
  Bytes transcript(kTag, kTag + sizeof(kTag) - 1);
  const Bytes point = crypto::encode_point(ephemeral);
  transcript.insert(transcript.end(), point.begin(), point.end());
  transcript.insert(transcript.end(), binding.begin(), binding.end());
  return transcript;
}

/// Transcript a provision-grant signature covers (both shares, so neither
/// side's ephemeral can be swapped by a MITM host).
Bytes provision_grant_transcript(const crypto::AffinePoint& source_eph,
                                 const crypto::AffinePoint& target_eph) {
  static constexpr char kTag[] = "guardnn-provision-grant";
  Bytes transcript(kTag, kTag + sizeof(kTag) - 1);
  const Bytes src = crypto::encode_point(source_eph);
  const Bytes dst = crypto::encode_point(target_eph);
  transcript.insert(transcript.end(), src.begin(), src.end());
  transcript.insert(transcript.end(), dst.begin(), dst.end());
  return transcript;
}

/// ECDHE transport key for one provision re-wrap, bound to both shares.
crypto::AesKey provision_transport_key(const crypto::U256& shared_x,
                                       const crypto::AffinePoint& source_eph,
                                       const crypto::AffinePoint& target_eph) {
  static constexpr char kSalt[] = "guardnn-provision-transport";
  Bytes info = crypto::encode_point(source_eph);
  const Bytes dst = crypto::encode_point(target_eph);
  info.insert(info.end(), dst.begin(), dst.end());
  Bytes ikm = shared_x.to_bytes();
  const Bytes okm = crypto::hkdf(
      BytesView(reinterpret_cast<const u8*>(kSalt), sizeof(kSalt) - 1), ikm,
      info, crypto::kAesKeyBytes);
  secure_zero(ikm.data(), ikm.size());
  crypto::AesKey key{};
  std::copy(okm.begin(), okm.end(), key.begin());
  return key;
}

/// Attests a peer device for provisioning: certificate chains to the pinned
/// manufacturer CA, and the claimed binding id is the hash of the certified
/// public key (so the binding cannot be detached from the attested identity).
bool verify_peer_identity(const crypto::DeviceCertificate& certificate,
                          const store::BindingId* claimed_binding,
                          const crypto::AffinePoint& ca_public) {
  if (!crypto::verify_certificate(certificate, ca_public)) return false;
  if (claimed_binding) {
    const Bytes encoded = crypto::encode_point(certificate.device_public);
    if (crypto::Sha256::hash(encoded) != *claimed_binding) return false;
  }
  return true;
}

}  // namespace

crypto::Sha256Digest SignOutputResponse::report_digest() const {
  crypto::Sha256 hasher;
  hasher.update(BytesView(input_hash.data(), input_hash.size()));
  hasher.update(BytesView(weight_hash.data(), weight_hash.size()));
  hasher.update(BytesView(output_hash.data(), output_hash.size()));
  hasher.update(BytesView(instruction_hash.data(), instruction_hash.size()));
  return hasher.finalize();
}

void GuardNnDevice::Session::forget_hashed_region_on_write(u64 addr,
                                                           u64 bytes) {
  if (!hashed_region) return;
  const u64 write_end = addr + pad_region(bytes);
  const u64 region_end = hashed_region->addr + pad_region(hashed_region->bytes);
  if (addr < region_end && hashed_region->addr < write_end)
    hashed_region.reset();
}

void GuardNnDevice::Session::zeroize() {
  secure_zero(keys.enc_key.data(), keys.enc_key.size());
  secure_zero(keys.mac_key.data(), keys.mac_key.size());
  from_user.zeroize();
  to_user.zeroize();
  mpu.zeroize();
  vn.reset();
  secure_zero(input_hash.data(), input_hash.size());
  secure_zero(weight_hash.data(), weight_hash.size());
  secure_zero(output_hash.data(), output_hash.size());
  hashed_region.reset();
  chain.reset();
  dead = true;
}

bool GuardNnDevice::Session::zeroized() const {
  for (u8 b : keys.enc_key)
    if (b != 0) return false;
  for (u8 b : keys.mac_key)
    if (b != 0) return false;
  return from_user.zeroized() && to_user.zeroized() && mpu.zeroized();
}

GuardNnDevice::GuardNnDevice(std::string device_id, const crypto::ManufacturerCa& ca,
                             UntrustedMemory& memory, BytesView entropy)
    : device_id_(std::move(device_id)),
      drbg_(entropy, Bytes{'g', 'u', 'a', 'r', 'd', 'n', 'n'}),
      identity_(crypto::ecdsa_generate_key(drbg_)),
      certificate_(ca.issue(device_id_, identity_.public_key)),
      ca_public_(ca.public_key()),
      memory_(memory) {
  // Store root key: derived from the identity key material, so it is (a)
  // deterministic for this device — sealed blobs survive power cycles and
  // reset() — and (b) bound to the attested identity: the binding id is the
  // hash of the certified public key, which anyone can check against the
  // certificate, while the root key itself never leaves the chip.
  static constexpr char kStoreSalt[] = "guardnn-store-root";
  Bytes ikm = identity_.private_key.to_bytes();
  const Bytes okm = crypto::hkdf(
      BytesView(reinterpret_cast<const u8*>(kStoreSalt), sizeof(kStoreSalt) - 1),
      ikm,
      BytesView(reinterpret_cast<const u8*>(device_id_.data()), device_id_.size()),
      crypto::kAesKeyBytes);
  secure_zero(ikm.data(), ikm.size());
  std::copy(okm.begin(), okm.end(), store_root_.begin());
  store_binding_ =
      crypto::Sha256::hash(crypto::encode_point(identity_.public_key));
}

GetPkResponse GuardNnDevice::get_pk() {
  std::lock_guard<std::mutex> lock(mu_);
  latency_.add_command();
  return GetPkResponse{identity_.public_key, certificate_};
}

InitSessionResponse GuardNnDevice::init_session(
    const crypto::AffinePoint& user_ephemeral, bool integrity) {
  std::lock_guard<std::mutex> lock(mu_);
  latency_.add_key_exchange();

  InitSessionResponse response;

  // Find a free slot; a closed slot's zeroized husk is reclaimed here.
  std::size_t slot_index = kMaxSessions;
  for (std::size_t i = 0; i < kMaxSessions; ++i) {
    if (!slots_[i].active) {
      slot_index = i;
      break;
    }
  }
  if (slot_index == kMaxSessions) {
    response.status = DeviceStatus::kNoResources;
    return response;
  }
  Slot& slot = slots_[slot_index];

  // Fresh ephemeral share and transcript-bound session keys.
  const crypto::EcdhKeyPair ephemeral = crypto::ecdh_generate_key(drbg_);
  const crypto::U256 shared =
      crypto::ecdh_shared_secret(ephemeral.private_key, user_ephemeral);
  const crypto::SessionKeys keys =
      crypto::derive_session_keys(shared, user_ephemeral, ephemeral.public_key);

  // Fresh random memory-protection keys: data from a previous session is
  // unreadable afterwards, even by the same user.
  const crypto::AesKey mem_enc_key = key_from_bytes(drbg_.generate(16));
  const crypto::AesKey mem_mac_key = key_from_bytes(drbg_.generate(16));

  // All per-session state starts from zero: counters, hashes, channel
  // sequence numbers (paper: InitSession "clears all states ... resets all
  // counters to zero" — here scoped to the slot being opened).
  slot.generation += 1;
  slot.active = true;
  slot.session = std::make_unique<Session>(Session{
      keys,
      crypto::ChannelReceiver(keys),
      crypto::ChannelSender(keys),
      MemoryProtectionUnit(memory_, mem_enc_key, mem_mac_key, integrity),
      memprot::VnGenerator{},
      slot_index * kSessionDramBytes,
      {}, {}, {}, AttestationChain{}, false, std::nullopt});
  slot.session->mpu.set_byte_counters(&mpu_counters_);
  slot.session->chain.reset();

  const SessionId sid = make_id(slot_index, slot.generation);

  // Sign (user share || device share) with the certified identity key.
  Bytes transcript = crypto::encode_point(user_ephemeral);
  const Bytes device_share = crypto::encode_point(ephemeral.public_key);
  transcript.insert(transcript.end(), device_share.begin(), device_share.end());
  response.status = DeviceStatus::kOk;
  response.session_id = sid;
  response.device_ephemeral = ephemeral.public_key;
  response.signature = crypto::ecdsa_sign(identity_.private_key, transcript);
  return response;
}

DeviceStatus GuardNnDevice::close_session(SessionId sid) {
  std::lock_guard<std::mutex> lock(mu_);
  Session* session = find_session(sid);
  if (!session) return DeviceStatus::kNoSession;
  latency_.add_command();
  session->zeroize();
  slots_[sid & 0xff].active = false;  // husk stays until the slot is reused
  return DeviceStatus::kOk;
}

GuardNnDevice::Session* GuardNnDevice::find_session(SessionId sid) {
  const std::size_t slot_index = sid & 0xff;
  if (sid == kInvalidSession || slot_index >= kMaxSessions) return nullptr;
  Slot& slot = slots_[slot_index];
  if (!slot.active || !slot.session) return nullptr;
  if (make_id(slot_index, slot.generation) != sid) return nullptr;  // stale
  return slot.session.get();
}

const GuardNnDevice::Session* GuardNnDevice::find_session(SessionId sid) const {
  return const_cast<GuardNnDevice*>(this)->find_session(sid);
}

bool GuardNnDevice::translate(const Session& s, u64 addr, u64 bytes, u64& phys) {
  // The MPU serves regions that start on a protection chunk with integrity
  // on and on an AES block without it; partitions start on a chunk, so the
  // session-local address alone decides.
  const u64 align = s.mpu.integrity_enabled() ? MemoryProtectionUnit::kChunkBytes
                                              : crypto::kAesBlockBytes;
  if (addr % align != 0) return false;
  if (addr >= kSessionDramBytes || bytes > kSessionDramBytes - addr) return false;
  phys = s.dram_base + addr;
  return true;
}

DeviceStatus GuardNnDevice::import_region(Session& s,
                                          const crypto::SealedRecord& record,
                                          u64 addr, Opcode op) {
  if (s.dead) return DeviceStatus::kIntegrityFailure;
  auto plaintext = s.from_user.open(record);
  if (!plaintext) return DeviceStatus::kBadRecord;
  if (plaintext->empty()) return DeviceStatus::kBadOperand;

  u64 phys = 0;
  if (!translate(s, addr, pad_region(plaintext->size()), phys))
    return DeviceStatus::kBadOperand;

  // Every check passed — only now advance the session counter, so a
  // malicious host cannot desync an honest session's VNs by replaying
  // unauthentic records at it.
  crypto::Sha256Digest* data_hash;
  u64 vn;
  if (op == Opcode::kSetWeight) {
    s.vn.on_set_weight();
    vn = s.vn.weight_vn();
    data_hash = &s.weight_hash;
    s.hashed_region = HashedRegion{addr, plaintext->size(), vn};
  } else {
    s.vn.on_set_input();
    vn = s.vn.feature_write_vn();
    data_hash = &s.input_hash;
    s.forget_hashed_region_on_write(addr, plaintext->size());
  }

  // Hash the imported data for remote attestation.
  *data_hash = crypto::Sha256::hash(*plaintext);

  // Pad to an AES-block multiple and store through the MPU.
  plaintext->resize(pad_region(plaintext->size()), 0);
  s.mpu.write(phys, *plaintext, vn);
  latency_.add_import(plaintext->size());

  u8 addr_bytes[8];
  store_be64(addr_bytes, addr);
  s.chain.absorb(op, BytesView(addr_bytes, 8));
  return DeviceStatus::kOk;
}

DeviceStatus GuardNnDevice::set_weight(SessionId sid,
                                       const crypto::SealedRecord& record,
                                       u64 weight_addr) {
  std::lock_guard<std::mutex> lock(mu_);
  Session* s = find_session(sid);
  if (!s) return DeviceStatus::kNoSession;
  return import_region(*s, record, weight_addr, Opcode::kSetWeight);
}

DeviceStatus GuardNnDevice::set_input(SessionId sid,
                                      const crypto::SealedRecord& record,
                                      u64 input_addr) {
  std::lock_guard<std::mutex> lock(mu_);
  Session* s = find_session(sid);
  if (!s) return DeviceStatus::kNoSession;
  return import_region(*s, record, input_addr, Opcode::kSetInput);
}

DeviceStatus GuardNnDevice::set_read_ctr(SessionId sid, u64 base, u64 bytes,
                                         u64 vn) {
  std::lock_guard<std::mutex> lock(mu_);
  Session* s = find_session(sid);
  if (!s) return DeviceStatus::kNoSession;
  latency_.add_command();
  s->vn.set_read_ctr(base, bytes, vn);
  // SetReadCTR is *not* hashed into the attestation chain: it only affects
  // decryption and carries no integrity obligation (Section II-E).
  return DeviceStatus::kOk;
}

DeviceStatus GuardNnDevice::forward(SessionId sid, const ForwardOp& op) {
  std::lock_guard<std::mutex> lock(mu_);
  Session* s = find_session(sid);
  if (!s) return DeviceStatus::kNoSession;
  return forward_locked(*s, op);
}

DeviceStatus GuardNnDevice::forward_locked(Session& s, const ForwardOp& op) {
  using functional::ConvWeights;
  using functional::FcWeights;
  using functional::Tensor;

  if (s.dead) return DeviceStatus::kIntegrityFailure;
  if (op.in_c <= 0 || op.in_h <= 0 || op.in_w <= 0) return DeviceStatus::kBadOperand;
  if (op.bits != 6 && op.bits != 8) return DeviceStatus::kBadOperand;
  latency_.add_command();

  // SGD update is special: it reads the gradient blob chunk-by-chunk (each
  // layer's dW was written with a different CTR_F,W, so the host supplies a
  // read counter per range), updates the whole weight blob, bumps CTR_W and
  // re-encrypts the blob under the new counter (Section II-D.2). The MPU
  // reads and writes straight through the i8 buffers the update works on.
  if (op.kind == ForwardOp::Kind::kSgdUpdate) {
    const u64 elems = static_cast<u64>(op.in_c) * op.in_h * op.in_w;
    const u64 span = pad_region(elems);
    u64 weight_phys = 0, grad_phys = 0;
    if (!translate(s, op.weight_addr, span, weight_phys) ||
        !translate(s, op.input_addr, span, grad_phys))
      return DeviceStatus::kBadOperand;
    const auto bytes_of = [](std::vector<i8>& v, u64 off, u64 size) {
      return MutBytesView(reinterpret_cast<u8*>(v.data()) + off, size);
    };
    std::vector<i8> w(span);
    if (!s.mpu.read(weight_phys, bytes_of(w, 0, span), s.vn.weight_vn())) {
      s.dead = true;
      return DeviceStatus::kIntegrityFailure;
    }
    std::vector<i8> g(span);
    for (u64 off = 0; off < span; off += MemoryProtectionUnit::kChunkBytes) {
      const u64 chunk_vn = s.vn.feature_read_vn(op.input_addr + off).value_or(0);
      if (!s.mpu.read(grad_phys + off,
                      bytes_of(g, off, MemoryProtectionUnit::kChunkBytes),
                      chunk_vn)) {
        s.dead = true;
        return DeviceStatus::kIntegrityFailure;
      }
    }
    functional::sgd_update(w, g, op.requant_shift, op.bits);
    s.vn.on_set_weight();
    s.mpu.write(weight_phys, bytes_of(w, 0, span), s.vn.weight_vn());
    s.chain.absorb(Opcode::kForward, op.serialize());
    return DeviceStatus::kOk;
  }

  // Every operand streams through the MPU straight into its tensor or
  // weight buffer: the stream verifies the chunk-padded region (same trace,
  // MAC slots and byte counts as one read of it) and drops the pad tail, so
  // no padded staging copy exists.
  enum class ReadResult : u8 { kOk, kBadOperand, kIntegrity };
  auto read_operand = [&](u64 addr, std::size_t size, u64 vn, i8* dst) {
    u64 phys = 0;
    if (!translate(s, addr, pad_region(size), phys)) return ReadResult::kBadOperand;
    MpuExportStream stream(s.mpu, phys, size, vn);
    if (!stream.next(MutBytesView(reinterpret_cast<u8*>(dst), size)) ||
        !stream.finish())
      return ReadResult::kIntegrity;
    return ReadResult::kOk;
  };
  // Weights carry the on-chip CTR_W; features the host-supplied read
  // counter, where a missing or wrong value decrypts to garbage but never
  // leaks (Section II-D.2).
  auto read_weights = [&](u64 addr, std::size_t size, i8* dst) {
    return read_operand(addr, size, s.vn.weight_vn(), dst);
  };
  auto read_feature = [&](u64 addr, std::size_t size, i8* dst) {
    return read_operand(addr, size, s.vn.feature_read_vn(addr).value_or(0), dst);
  };
  auto fail = [&](ReadResult r) {
    if (r == ReadResult::kIntegrity) {
      s.dead = true;
      return DeviceStatus::kIntegrityFailure;
    }
    return DeviceStatus::kBadOperand;
  };

  Tensor input(op.in_c, op.in_h, op.in_w, op.bits);
  if (auto r = read_feature(op.input_addr, input.size(), input.data().data());
      r != ReadResult::kOk)
    return fail(r);

  Tensor result;

  // Operand combinations the base accelerator cannot execute (kernel larger
  // than the tensor, mismatched gradient shapes, ...) are rejected as
  // kBadOperand: the functional ops throw std::invalid_argument, which a
  // hardware implementation maps to an error response. Nothing is written.
  try {
  switch (op.kind) {
    case ForwardOp::Kind::kConv: {
      if (op.out_c <= 0 || op.kernel <= 0) return DeviceStatus::kBadOperand;
      ConvWeights weights(op.out_c, op.in_c, op.kernel, op.bits);
      if (auto r = read_weights(op.weight_addr, weights.data.size(),
                                weights.data.data());
          r != ReadResult::kOk)
        return fail(r);
      result = functional::conv2d_gemm(input, weights, op.stride, op.pad,
                                       op.requant_shift);
      break;
    }
    case ForwardOp::Kind::kFc: {
      if (op.out_c <= 0) return DeviceStatus::kBadOperand;
      const int in_features = op.in_c * op.in_h * op.in_w;
      FcWeights weights(op.out_c, in_features, op.bits);
      if (auto r = read_weights(op.weight_addr, weights.data.size(),
                                weights.data.data());
          r != ReadResult::kOk)
        return fail(r);
      const std::vector<i8> y =
          functional::fully_connected(input.data(), weights, op.requant_shift, op.bits);
      result = Tensor(op.out_c, 1, 1, op.bits);
      std::copy(y.begin(), y.end(), result.data().begin());
      break;
    }
    case ForwardOp::Kind::kRelu:
      result = input;
      functional::relu(result);
      break;
    case ForwardOp::Kind::kMaxPool:
      if (op.kernel <= 0 || op.stride <= 0) return DeviceStatus::kBadOperand;
      result = functional::maxpool2d(input, op.kernel, op.stride);
      break;
    case ForwardOp::Kind::kGlobalAvgPool:
      result = functional::global_avgpool(input);
      break;
    case ForwardOp::Kind::kDepthwiseConv: {
      if (op.kernel <= 0) return DeviceStatus::kBadOperand;
      ConvWeights weights(op.in_c, 1, op.kernel, op.bits);
      if (auto r = read_weights(op.weight_addr, weights.data.size(),
                                weights.data.data());
          r != ReadResult::kOk)
        return fail(r);
      result = functional::depthwise_conv2d(input, weights, op.stride, op.pad,
                                            op.requant_shift);
      break;
    }
    case ForwardOp::Kind::kAdd: {
      // Second operand: same geometry, host-supplied read counter.
      Tensor second(op.in_c, op.in_h, op.in_w, op.bits);
      if (auto r = read_feature(op.input2_addr, second.size(),
                                second.data().data());
          r != ReadResult::kOk)
        return fail(r);
      result = functional::tensor_add(input, second);
      break;
    }
    case ForwardOp::Kind::kFcDx: {
      // input = dY (out_features vector), aux = forward input shape.
      if (op.aux_c <= 0 || op.aux_h <= 0 || op.aux_w <= 0)
        return DeviceStatus::kBadOperand;
      const int in_features = op.aux_c * op.aux_h * op.aux_w;
      const int out_features = op.in_c * op.in_h * op.in_w;
      FcWeights weights(out_features, in_features, op.bits);
      if (auto r = read_weights(op.weight_addr, weights.data.size(),
                                weights.data.data());
          r != ReadResult::kOk)
        return fail(r);
      const std::vector<i8> d_in = functional::fc_backward_input(
          input.data(), weights, op.requant_shift, op.bits);
      result = Tensor(op.aux_c, op.aux_h, op.aux_w, op.bits);
      std::copy(d_in.begin(), d_in.end(), result.data().begin());
      break;
    }
    case ForwardOp::Kind::kFcDw: {
      // input = dY, input2 = forward input X (aux shape).
      if (op.aux_c <= 0 || op.aux_h <= 0 || op.aux_w <= 0)
        return DeviceStatus::kBadOperand;
      Tensor x(op.aux_c, op.aux_h, op.aux_w, op.bits);
      if (auto r = read_feature(op.input2_addr, x.size(), x.data().data());
          r != ReadResult::kOk)
        return fail(r);
      const FcWeights grads = functional::fc_backward_weights(
          input.data(), x.data(), op.requant_shift, op.bits);
      result = Tensor(1, 1, static_cast<int>(grads.data.size()), op.bits);
      std::copy(grads.data.begin(), grads.data.end(), result.data().begin());
      break;
    }
    case ForwardOp::Kind::kConvDx: {
      // input = dY (forward output shape), aux = forward input shape.
      if (op.aux_c <= 0 || op.aux_h <= 0 || op.aux_w <= 0 || op.kernel <= 0)
        return DeviceStatus::kBadOperand;
      ConvWeights weights(op.in_c, op.aux_c, op.kernel, op.bits);
      if (auto r = read_weights(op.weight_addr, weights.data.size(),
                                weights.data.data());
          r != ReadResult::kOk)
        return fail(r);
      result = functional::conv2d_backward_input(input, weights, op.aux_h,
                                                 op.aux_w, op.stride, op.pad,
                                                 op.requant_shift);
      break;
    }
    case ForwardOp::Kind::kConvDw: {
      // input = dY, input2 = forward input X (aux shape).
      if (op.aux_c <= 0 || op.aux_h <= 0 || op.aux_w <= 0 || op.kernel <= 0)
        return DeviceStatus::kBadOperand;
      Tensor x(op.aux_c, op.aux_h, op.aux_w, op.bits);
      if (auto r = read_feature(op.input2_addr, x.size(), x.data().data());
          r != ReadResult::kOk)
        return fail(r);
      const ConvWeights grads = functional::conv2d_backward_weights(
          input, x, op.kernel, op.stride, op.pad, op.requant_shift);
      result = Tensor(1, 1, static_cast<int>(grads.data.size()), op.bits);
      std::copy(grads.data.begin(), grads.data.end(), result.data().begin());
      break;
    }
    case ForwardOp::Kind::kReluDx:
    case ForwardOp::Kind::kMaxPoolDx: {
      // input = dY; input2 = the forward input (aux shape).
      if (op.aux_c <= 0 || op.aux_h <= 0 || op.aux_w <= 0)
        return DeviceStatus::kBadOperand;
      Tensor x(op.aux_c, op.aux_h, op.aux_w, op.bits);
      if (auto r = read_feature(op.input2_addr, x.size(), x.data().data());
          r != ReadResult::kOk)
        return fail(r);
      result = op.kind == ForwardOp::Kind::kReluDx
                   ? functional::relu_backward(input, x)
                   : functional::maxpool_backward(input, x, op.kernel, op.stride);
      break;
    }
    case ForwardOp::Kind::kSgdUpdate:
      return DeviceStatus::kBadOperand;  // handled above; unreachable
  }
  } catch (const std::invalid_argument&) {
    return DeviceStatus::kBadOperand;
  } catch (const std::out_of_range&) {
    return DeviceStatus::kBadOperand;
  }

  // Stream the output through the MPU with the on-chip feature-write VN
  // (the stream zero-pads the last chunk), then advance CTR_F,W.
  u64 out_phys = 0;
  if (!translate(s, op.output_addr, pad_region(result.size()), out_phys))
    return DeviceStatus::kBadOperand;
  s.forget_hashed_region_on_write(op.output_addr, result.size());
  MpuImportStream writer(s.mpu, out_phys, result.size(), s.vn.feature_write_vn());
  writer.next(result.bytes());
  writer.finish();
  s.vn.on_forward_write();

  s.chain.absorb(Opcode::kForward, op.serialize());
  return DeviceStatus::kOk;
}

DeviceStatus GuardNnDevice::export_output(SessionId sid, u64 addr, u64 bytes,
                                          crypto::SealedRecord& out) {
  std::lock_guard<std::mutex> lock(mu_);
  Session* s = find_session(sid);
  if (!s) return DeviceStatus::kNoSession;
  if (s->dead) return DeviceStatus::kIntegrityFailure;
  // The partition-size cap also keeps pad_region() below: a near-2^64 byte
  // count would wrap the rounding arithmetic and bypass translate().
  if (bytes == 0 || bytes > kSessionDramBytes) return DeviceStatus::kBadOperand;
  latency_.add_command();

  u64 phys = 0;
  if (!translate(*s, addr, pad_region(bytes), phys))
    return DeviceStatus::kBadOperand;
  const u64 vn = s->vn.feature_read_vn(addr).value_or(0);
  Bytes plaintext(pad_region(bytes));
  if (!s->mpu.read(phys, plaintext, vn)) {
    s->dead = true;
    return DeviceStatus::kIntegrityFailure;
  }
  plaintext.resize(bytes);
  s->output_hash = crypto::Sha256::hash(plaintext);
  out = s->to_user.seal(plaintext);

  u8 operand[16];
  store_be64(operand, addr);
  store_be64(operand + 8, bytes);
  s->chain.absorb(Opcode::kExportOutput, BytesView(operand, 16));
  return DeviceStatus::kOk;
}

DeviceStatus GuardNnDevice::sign_output(SessionId sid, SignOutputResponse& out) {
  std::lock_guard<std::mutex> lock(mu_);
  Session* s = find_session(sid);
  if (!s) return DeviceStatus::kNoSession;
  if (s->dead) return DeviceStatus::kIntegrityFailure;
  latency_.add_sign();

  out.input_hash = s->input_hash;
  out.weight_hash = s->weight_hash;
  out.output_hash = s->output_hash;
  out.instruction_hash = s->chain.value();
  out.signature =
      crypto::ecdsa_sign_digest(identity_.private_key, out.report_digest());
  return DeviceStatus::kOk;
}

crypto::AesBlock GuardNnDevice::random_nonce() {
  crypto::AesBlock nonce{};
  const Bytes raw = drbg_.generate(nonce.size());
  std::copy(raw.begin(), raw.end(), nonce.begin());
  return nonce;
}

DeviceStatus GuardNnDevice::seal_model(SessionId sid, u64 weight_addr,
                                       u64 weight_bytes, BytesView descriptor,
                                       store::SealedBlob& out) {
  std::lock_guard<std::mutex> lock(mu_);
  Session* s = find_session(sid);
  if (!s) return DeviceStatus::kNoSession;
  if (s->dead) return DeviceStatus::kIntegrityFailure;
  if (weight_bytes == 0 || weight_bytes > kSessionDramBytes)
    return DeviceStatus::kBadOperand;

  u64 phys = 0;
  if (!translate(*s, weight_addr, pad_region(weight_bytes), phys))
    return DeviceStatus::kBadOperand;

  // Fused MPU→blob pipeline: lay the serialized package out directly inside
  // the SealedBlobWriter's buffer, stream the weight region out of the
  // session's partition through the MPU straight into the weight area
  // (chunk MACs verified kCmacLanes at a time, one walk, no intermediate
  // plaintext copy), then encrypt the buffer in place. The plaintext exists
  // exactly once, inside the trusted boundary, in the buffer that becomes
  // the wire ciphertext.
  const u64 weight_vn = s->vn.weight_vn();
  store::SealedBlobWriter writer(
      store_root_, store_binding_, random_nonce(),
      store::serialized_package_bytes(descriptor.size(), weight_bytes),
      std::move(out.ciphertext));  // recycle the out-param's old buffer
  const MutBytesView weights =
      store::layout_package(writer.payload(), descriptor, weight_bytes,
                            weight_vn);
  MpuExportStream exporter(s->mpu, phys, weight_bytes, weight_vn);
  if (!exporter.next(weights) || !exporter.finish()) {
    s->dead = true;        // abandoned writer wipes the partial plaintext
    out = store::SealedBlob{};  // never leave a half-initialized out-param
    return DeviceStatus::kIntegrityFailure;
  }

  // Content id over (descriptor || SHA-256(weights)). When the last
  // SetWeight/UnsealModel imported exactly this region at this CTR_W, its
  // attested weight hash is that inner digest and no pass over the weights
  // is needed (the export above still verified every chunk MAC); otherwise
  // hash the weights as just streamed.
  out = writer.finish(store::package_content_id(
      descriptor, s->weight_hash_covers(weight_addr, weight_bytes)
                      ? s->weight_hash
                      : crypto::Sha256::hash(weights)));
  latency_.add_import(weight_bytes);  // bounded by the same AES path

  u8 operand[16 + sizeof(out.header.content_id)];
  store_be64(operand, weight_addr);
  store_be64(operand + 8, weight_bytes);
  std::copy(out.header.content_id.begin(), out.header.content_id.end(),
            operand + 16);
  s->chain.absorb(Opcode::kSealModel, BytesView(operand, sizeof(operand)));
  return DeviceStatus::kOk;
}

DeviceStatus GuardNnDevice::unseal_model(SessionId sid,
                                         const store::SealedBlob& blob,
                                         u64 weight_addr, Bytes& descriptor_out,
                                         u64* checkpoint_vn_out) {
  std::lock_guard<std::mutex> lock(mu_);
  Session* s = find_session(sid);
  if (!s) return DeviceStatus::kNoSession;
  if (s->dead) return DeviceStatus::kIntegrityFailure;
  descriptor_out.clear();

  // All authenticity failures — tamper, truncation, wrong device, version
  // downgrade — collapse to kBadRecord, and nothing (VN counters included)
  // changes. A malicious host learns only "the blob did not verify".
  //
  // Fused pipeline: the reader verifies everything up front (chain MAC +
  // every chunk MAC, kCmacLanes CBC chains at a time), decrypts into one
  // payload buffer, which is then parsed *in place* and streamed into the
  // session's partition — no package copy, no separate padded buffer.
  store::SealedBlobReader reader(store_root_, store_binding_, blob);
  if (reader.status() != store::SealStatus::kOk)
    return DeviceStatus::kBadRecord;
  Bytes& payload = unseal_scratch_;  // wiped below on every path
  payload.resize(reader.plaintext_bytes());
  reader.read_all(payload);
  auto wipe = [&payload] { secure_zero(payload.data(), payload.size()); };

  const std::optional<store::ModelPackageView> view =
      store::ModelPackageView::parse(payload);
  if (!view) {
    wipe();
    return DeviceStatus::kBadRecord;
  }

  // Defense in depth: the authenticated content id must match the model
  // bytes actually inside the package. Its inner SHA-256 of the weights is
  // also the attestation weight hash, so one pass serves both.
  const crypto::Sha256Digest weight_hash = crypto::Sha256::hash(view->weights);
  if (store::package_content_id(view->descriptor, weight_hash) !=
      blob.header.content_id) {
    wipe();
    return DeviceStatus::kBadRecord;
  }

  u64 phys = 0;
  if (!translate(*s, weight_addr, pad_region(view->weights.size()), phys)) {
    wipe();
    return DeviceStatus::kBadOperand;
  }

  // From here on this is a SetWeight whose source is the store instead of
  // the user channel: advance CTR_W, stream through the MPU (the import
  // stream owns the chunk zero-padding), record the weight hash so
  // SignOutput attests the provenance of the loaded model.
  s->vn.on_set_weight();
  s->weight_hash = weight_hash;
  s->hashed_region =
      HashedRegion{weight_addr, view->weights.size(), s->vn.weight_vn()};
  MpuImportStream importer(s->mpu, phys, view->weights.size(),
                           s->vn.weight_vn());
  importer.next(view->weights);
  importer.finish();
  latency_.add_import(blob.header.plaintext_bytes);

  descriptor_out.assign(view->descriptor.begin(), view->descriptor.end());
  if (checkpoint_vn_out) *checkpoint_vn_out = view->weight_vn;
  wipe();

  u8 operand[8 + sizeof(blob.header.content_id)];
  store_be64(operand, weight_addr);
  std::copy(blob.header.content_id.begin(), blob.header.content_id.end(),
            operand + 8);
  s->chain.absorb(Opcode::kUnsealModel, BytesView(operand, sizeof(operand)));
  return DeviceStatus::kOk;
}

DeviceStatus GuardNnDevice::provision_begin(ProvisionRequest& out) {
  std::lock_guard<std::mutex> lock(mu_);
  latency_.add_command();
  pending_provision_ = crypto::ecdh_generate_key(drbg_);
  out.ephemeral = pending_provision_->public_key;
  out.binding_id = store_binding_;
  out.signature = crypto::ecdsa_sign(
      identity_.private_key,
      provision_request_transcript(out.ephemeral, out.binding_id));
  out.certificate = certificate_;
  return DeviceStatus::kOk;
}

DeviceStatus GuardNnDevice::export_for_device(const store::SealedBlob& blob,
                                              const ProvisionRequest& target,
                                              store::SealedBlob& wrapped,
                                              ProvisionGrant& grant) {
  std::lock_guard<std::mutex> lock(mu_);
  latency_.add_key_exchange();

  // Attest the target before any key material is derived: manufacturer
  // certificate, binding/identity consistency, and possession of the
  // ephemeral's signing key. A forged or replayed-for-another-binding
  // request fails closed.
  if (!verify_peer_identity(target.certificate, &target.binding_id, ca_public_))
    return DeviceStatus::kBadRecord;
  if (!crypto::ecdsa_verify(
          target.certificate.device_public,
          provision_request_transcript(target.ephemeral, target.binding_id),
          target.signature))
    return DeviceStatus::kBadRecord;

  // The blob must be ours to re-wrap.
  store::SealedBlobReader reader(store_root_, store_binding_, blob);
  if (reader.status() != store::SealStatus::kOk)
    return DeviceStatus::kBadRecord;

  DeviceStatus status = DeviceStatus::kOk;
  try {
    const crypto::EcdhKeyPair ephemeral = crypto::ecdh_generate_key(drbg_);
    const crypto::U256 shared =
        crypto::ecdh_shared_secret(ephemeral.private_key, target.ephemeral);
    crypto::AesKey transport = provision_transport_key(
        shared, ephemeral.public_key, target.ephemeral);

    // The wrapped blob is addressed to the *target's* binding: only the
    // device that proves that identity derives the same transport key, and
    // the binding check gives a third device a clean wrong-device failure.
    // The content id travels unchanged — replicas of one model share it.
    // Fused re-wrap: the verified blob decrypts chunk-wise straight into the
    // transport writer's buffer, which re-encrypts it in place — the
    // plaintext never exists outside that one buffer.
    store::SealedBlobWriter writer(transport, target.binding_id,
                                   random_nonce(), reader.plaintext_bytes());
    secure_zero(transport.data(), transport.size());
    reader.read_all(writer.payload());
    wrapped = writer.finish(blob.header.content_id);

    grant.ephemeral = ephemeral.public_key;
    grant.signature = crypto::ecdsa_sign(
        identity_.private_key,
        provision_grant_transcript(ephemeral.public_key, target.ephemeral));
    grant.certificate = certificate_;
  } catch (const std::invalid_argument&) {
    status = DeviceStatus::kBadRecord;  // degenerate peer share
  }
  return status;
}

DeviceStatus GuardNnDevice::provision_finish(const store::SealedBlob& wrapped,
                                             const ProvisionGrant& grant,
                                             store::SealedBlob& rebound) {
  std::lock_guard<std::mutex> lock(mu_);
  latency_.add_key_exchange();
  if (!pending_provision_) return DeviceStatus::kBadOperand;

  DeviceStatus status = DeviceStatus::kOk;
  // Attest the source; the grant signature must cover *our* pending share,
  // so a grant minted for a different handshake never verifies.
  if (!verify_peer_identity(grant.certificate, nullptr, ca_public_) ||
      !crypto::ecdsa_verify(grant.certificate.device_public,
                            provision_grant_transcript(
                                grant.ephemeral, pending_provision_->public_key),
                            grant.signature)) {
    status = DeviceStatus::kBadRecord;
  } else {
    try {
      const crypto::U256 shared = crypto::ecdh_shared_secret(
          pending_provision_->private_key, grant.ephemeral);
      crypto::AesKey transport = provision_transport_key(
          shared, grant.ephemeral, pending_provision_->public_key);
      store::SealedBlobReader unwrapper(transport, store_binding_, wrapped);
      secure_zero(transport.data(), transport.size());
      if (unwrapper.status() == store::SealStatus::kOk) {
        // Fused unwrap→re-seal, same shape as export_for_device.
        store::SealedBlobWriter writer(store_root_, store_binding_,
                                       random_nonce(),
                                       unwrapper.plaintext_bytes());
        unwrapper.read_all(writer.payload());
        rebound = writer.finish(wrapped.header.content_id);
      } else {
        status = DeviceStatus::kBadRecord;
      }
    } catch (const std::invalid_argument&) {
      status = DeviceStatus::kBadRecord;  // degenerate peer share
    }
  }

  // One-shot handshake: consume (and wipe) the pending share on *every*
  // outcome, so a failed attempt cannot be retried against the same
  // ephemeral.
  secure_zero(pending_provision_->private_key.limb.data(),
              sizeof(pending_provision_->private_key.limb));
  pending_provision_.reset();
  return status;
}

DeviceStatus GuardNnDevice::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  latency_.add_command();
  for (Slot& slot : slots_) {
    if (slot.session && slot.active) slot.session->zeroize();
    slot.active = false;
  }
  if (pending_provision_) {
    secure_zero(pending_provision_->private_key.limb.data(),
                sizeof(pending_provision_->private_key.limb));
    pending_provision_.reset();
  }
  generation_ += 1;
  return DeviceStatus::kOk;
}

u64 GuardNnDevice::device_generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

bool GuardNnDevice::session_active(SessionId sid) const {
  std::lock_guard<std::mutex> lock(mu_);
  return find_session(sid) != nullptr;
}

std::size_t GuardNnDevice::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Slot& slot : slots_)
    if (slot.active) ++n;
  return n;
}

const memprot::VnGenerator& GuardNnDevice::vn_generator(SessionId sid) const {
  static const memprot::VnGenerator empty;
  std::lock_guard<std::mutex> lock(mu_);
  const Session* s = find_session(sid);
  return s ? s->vn : empty;
}

const std::vector<std::pair<u64, bool>>& GuardNnDevice::access_trace(
    SessionId sid) const {
  static const std::vector<std::pair<u64, bool>> empty;
  std::lock_guard<std::mutex> lock(mu_);
  const Session* s = find_session(sid);
  return s ? s->mpu.access_trace() : empty;
}

bool GuardNnDevice::slot_zeroized(std::size_t slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (slot >= kMaxSessions) return true;
  const Slot& entry = slots_[slot];
  if (!entry.session) return true;
  return entry.session->zeroized();
}

bool GuardNnDevice::slot_keys_live(std::size_t slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (slot >= kMaxSessions) return false;
  const Slot& entry = slots_[slot];
  return entry.active && entry.session && !entry.session->zeroized();
}

}  // namespace guardnn::accel
