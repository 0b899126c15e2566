// The GuardNN secure accelerator device (Figure 1), multi-tenant.
//
// Trusted boundary: everything inside this class. The device holds the
// per-device identity key (SK_Accel, certified by the manufacturer CA), a
// DRBG standing in for the TRNG, and a fixed-capacity *session table*. Each
// entry owns everything one tenant's session needs: the ECDHE-derived channel
// keys, a fresh per-session memory-encryption key (K_MEnc / K_MMac), its own
// on-chip VN counters, its own attestation hash chain, and a disjoint DRAM
// partition. InitSession allocates a slot and returns its SessionId; every
// other instruction takes the SessionId as its first operand; CloseSession
// wipes the slot's key material in place (the zeroed husk stays in the slot
// SRAM until it is reused, exactly like a hardware session table).
//
// Isolation argument: sessions never share symmetric keys (fresh K_MEnc,
// K_MMac, channel keys per slot), never share VN counters (per-slot
// VnGenerator), and never share off-chip addresses (the device translates
// each session's addresses into a disjoint physical partition, and the MAC
// binds the *physical* address). A record sealed for session A replayed into
// session B fails B's channel MAC; ciphertext copied between partitions fails
// the memory MAC; a stale SessionId (closed, or closed-then-reused slot)
// fails the generation check and answers kNoSession.
//
// Untrusted: the UntrustedMemory it is attached to, and every caller. The
// public methods *are* the instruction set; by construction none of them
// returns plaintext secrets, so any instruction sequence — from any mix of
// tenants — preserves confidentiality (Section II-B "Small TCB").
//
// Thread safety: every instruction entry point takes the device mutex, so a
// multi-threaded host may drive different sessions concurrently; the device
// executes one instruction at a time (like the hardware). Introspection
// methods that return references are for single-threaded trusted-side tests.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "accel/isa.h"
#include "accel/memory.h"
#include "accel/microcontroller.h"
#include "accel/mpu.h"
#include "crypto/cert.h"
#include "crypto/ecdh.h"
#include "crypto/secure_channel.h"
#include "functional/quant_ops.h"
#include "memprot/vn_generator.h"
#include "store/sealed_blob.h"

namespace guardnn::accel {

/// Opaque session handle: (generation << 8) | slot. The generation is bumped
/// every time a slot is (re)opened, so handles from closed sessions — even
/// after the slot is reused — never validate again. 0 is never a valid id.
using SessionId = u64;
inline constexpr SessionId kInvalidSession = 0;

/// GetPK response: the device public key and its manufacturer certificate.
struct GetPkResponse {
  crypto::AffinePoint public_key;
  crypto::DeviceCertificate certificate;
};

/// Error codes surfaced to the (untrusted) host. Deliberately coarse: no
/// error reveals secret-dependent information.
enum class DeviceStatus : u8 {
  kOk,
  kNoSession,        ///< Unknown, closed, or stale SessionId.
  kBadRecord,        ///< Secure-channel authentication failed.
  kIntegrityFailure, ///< Off-chip integrity verification failed; session dead.
  kBadOperand,
  kNoResources,      ///< Session table full (InitSession).
  kUnavailable,      ///< Device did not respond (fail-stop death, wedged, or
                     ///< quarantined by the serving health monitor). Never
                     ///< produced by the device itself — the host-side fault
                     ///< boundary answers it when a command cannot be
                     ///< delivered or its completion never arrives.
};

/// InitSession response: the allocated SessionId plus the device's ephemeral
/// ECDH share, signed together with the user's share by SK_Accel
/// (ECDHE-ECDSA, MITM-resistant). When `status != kOk` no session was
/// created and the other fields are meaningless.
struct InitSessionResponse {
  DeviceStatus status = DeviceStatus::kOk;
  SessionId session_id = kInvalidSession;
  crypto::AffinePoint device_ephemeral;
  crypto::EcdsaSignature signature;  ///< over (user_pub || device_pub)
};

/// Provision handshake, message 1 (target device → host → source device):
/// the target's fresh ECDH share, bound to its sealing-domain id and signed
/// by its certified identity key, plus the certificate so the source can
/// attest the target before re-wrapping a model for it.
struct ProvisionRequest {
  crypto::AffinePoint ephemeral;
  store::BindingId binding_id{};
  crypto::EcdsaSignature signature;  ///< over ("req" || ephemeral || binding)
  crypto::DeviceCertificate certificate;
};

/// Provision handshake, message 2 (source device → host → target device):
/// the source's ECDH share signed over both shares (MITM-resistant), plus
/// its certificate. Travels together with the transport-wrapped blob.
struct ProvisionGrant {
  crypto::AffinePoint ephemeral;
  crypto::EcdsaSignature signature;  ///< over ("grant" || src eph || dst eph)
  crypto::DeviceCertificate certificate;
};

/// SignOutput response: attestation report + signature.
struct SignOutputResponse {
  crypto::Sha256Digest input_hash;
  crypto::Sha256Digest weight_hash;
  crypto::Sha256Digest output_hash;
  crypto::Sha256Digest instruction_hash;
  crypto::EcdsaSignature signature;

  /// The digest the signature covers.
  crypto::Sha256Digest report_digest() const;
};

class GuardNnDevice {
 public:
  /// Hardware session-table capacity: how many tenants one device serves
  /// concurrently.
  static constexpr std::size_t kMaxSessions = 16;
  /// Size of each session's private DRAM partition. Physical address =
  /// slot * kSessionDramBytes + session-local address; 16 partitions end at
  /// 128 GiB, well below the MAC region at 512 GiB.
  static constexpr u64 kSessionDramBytes = 0x2'0000'0000ULL;  // 8 GiB

  /// "Fabrication": generates the device identity from `entropy` and has the
  /// manufacturer CA certify it.
  GuardNnDevice(std::string device_id, const crypto::ManufacturerCa& ca,
                UntrustedMemory& memory, BytesView entropy);

  // --- Instruction set -----------------------------------------------------

  GetPkResponse get_pk();

  /// Establishes a session in a free table slot. `integrity` selects
  /// GuardNN_CI vs GuardNN_C. Returns kNoResources when the table is full.
  InitSessionResponse init_session(const crypto::AffinePoint& user_ephemeral,
                                   bool integrity);

  /// Destroys a session: zeroizes every key the slot holds (channel keys,
  /// K_MEnc/K_MMac schedules, CMAC subkeys, data hashes) and frees the slot.
  /// Double-close or a stale id answers kNoSession.
  DeviceStatus close_session(SessionId sid);

  /// Imports session-encrypted weights to `weight_addr` (512 B aligned,
  /// session-local; the device maps it into the session's DRAM partition).
  DeviceStatus set_weight(SessionId sid, const crypto::SealedRecord& record,
                          u64 weight_addr);

  /// Imports a session-encrypted input to `input_addr` (512 B aligned).
  DeviceStatus set_input(SessionId sid, const crypto::SealedRecord& record,
                         u64 input_addr);

  /// Host-supplied read counter for a feature address range (session-local
  /// addresses; affects only this session's decryption).
  DeviceStatus set_read_ctr(SessionId sid, u64 base, u64 bytes, u64 vn);

  /// Executes one DNN operation on the session's protected memory.
  DeviceStatus forward(SessionId sid, const ForwardOp& op);

  /// Reads `bytes` plaintext bytes at `addr` through the MPU and re-encrypts
  /// them under the session key for the remote user.
  DeviceStatus export_output(SessionId sid, u64 addr, u64 bytes,
                             crypto::SealedRecord& out);

  /// Signs the session's attestation hashes with SK_Accel.
  DeviceStatus sign_output(SessionId sid, SignOutputResponse& out);

  // --- Sealed model store (SealModel / UnsealModel / Provision) ------------
  // The device holds a per-device store root key derived from its certified
  // identity key material; blobs sealed with it are bound to this device's
  // attested identity (store_binding() = SHA-256 of PK_Accel) and survive
  // sessions, resets and host restarts. The host only ever handles the
  // sealed ciphertext.

  /// Packages (descriptor || weights || CTR_W) from the session's protected
  /// weight region into a device-bound SealedBlob. `descriptor` is the
  /// host-authored public architecture metadata; `weight_bytes` plaintext
  /// bytes are read from `weight_addr` under the session's current weight
  /// VN. The host sees only ciphertext.
  ///
  /// Fused data path: an MpuExportStream walks the region once (chunk MACs
  /// verified crypto::kCmacLanes CBC chains at a time) and decrypts
  /// directly into the SealedBlobWriter's buffer, which is then encrypted
  /// in place — the plaintext exists exactly once, inside the trusted
  /// boundary. The content id is SHA-256 over (descriptor ||
  /// SHA-256(weights)); when this is exactly the region the last SetWeight
  /// or UnsealModel imported at the current CTR_W, with no overlapping
  /// feature write since, the inner digest is the session's attested weight
  /// hash and the seal makes no SHA-256 pass over the weights. Otherwise it
  /// hashes the weights it streamed. `out`'s previous ciphertext buffer is
  /// recycled.
  ///
  /// Preconditions: `weight_addr` 512 B aligned and session-local;
  /// `0 < weight_bytes <= kSessionDramBytes`; the padded region must lie
  /// inside the session's partition.
  /// Errors: kNoSession (bad id), kIntegrityFailure (weight-region MAC
  /// failure — the session is dead), kBadOperand (range/alignment).
  DeviceStatus seal_model(SessionId sid, u64 weight_addr, u64 weight_bytes,
                          BytesView descriptor, store::SealedBlob& out);

  /// Verifies a blob sealed for *this* device and streams its weights into
  /// the session's DRAM partition at `weight_addr` (a SetWeight from the
  /// store: bumps CTR_W, records the weight hash for attestation). On
  /// success `descriptor_out` returns the public descriptor and
  /// `checkpoint_vn_out` the CTR_W recorded at seal time (checkpoint
  /// metadata). Any tamper, truncation, wrong-device or downgraded blob
  /// answers kBadRecord with no state change — VN counters do not advance.
  ///
  /// Fused data path: a SealedBlobReader verifies the chain MAC and every
  /// chunk MAC up front (lane-batched), the payload is parsed zero-copy,
  /// and an MpuImportStream writes the weights through the MPU without a
  /// separate padded buffer. One SHA-256 pass over the weights serves both
  /// the content-id re-check and the attestation weight hash, and the
  /// session records the loaded region as the one that hash covers. A
  /// package of any version but store::kModelPackageVersion answers
  /// kBadRecord.
  ///
  /// Preconditions: `weight_addr` 512 B aligned, session-local, with room
  /// for the blob's weights in the session partition.
  /// Errors: kNoSession, kBadRecord (any authenticity/structure failure,
  /// deliberately coarse), kBadOperand (range), kIntegrityFailure (session
  /// already dead).
  DeviceStatus unseal_model(SessionId sid, const store::SealedBlob& blob,
                            u64 weight_addr, Bytes& descriptor_out,
                            u64* checkpoint_vn_out = nullptr);

  /// Provision step 1, on the *target* device: emit a fresh signed ECDH
  /// share. The device keeps the private share until provision_finish (one
  /// pending handshake at a time; a new begin supersedes the old).
  DeviceStatus provision_begin(ProvisionRequest& out);

  /// Provision step 2, on the *source* device: attest the target (CA
  /// certificate + share signature + binding/identity consistency), unseal
  /// `blob` (must be bound to this device) and re-wrap it under the ECDHE
  /// transport key for the target. Plaintext never leaves the device.
  DeviceStatus export_for_device(const store::SealedBlob& blob,
                                 const ProvisionRequest& target,
                                 store::SealedBlob& wrapped,
                                 ProvisionGrant& grant);

  /// Provision step 3, back on the *target* device: attest the source,
  /// derive the transport key with the pending share, unwrap, and re-seal
  /// under this device's own root key. Consumes the pending handshake.
  DeviceStatus provision_finish(const store::SealedBlob& wrapped,
                                const ProvisionGrant& grant,
                                store::SealedBlob& rebound);

  /// Public sealing-domain identity: SHA-256 over PK_Accel, checkable
  /// against the device certificate by any host or peer device.
  const store::BindingId& store_binding() const { return store_binding_; }

  /// Device reset ("reboot"): closes and zeroizes every session and bumps
  /// the device generation. The store root key survives — sealed blobs and
  /// checkpoints remain openable — but anything session- or plan-scoped on
  /// the host must be re-established against the new generation.
  DeviceStatus reset();

  /// Monotonic reset epoch, starting at 1. Host-side caches (compiled
  /// execution plans especially) must key on it so state from before a
  /// reset is never replayed onto the device after one.
  u64 device_generation() const;

  // --- Introspection (trusted-side test hooks) -----------------------------

  bool session_active(SessionId sid) const;
  std::size_t session_count() const;

  /// Base physical address of a session's DRAM partition (derived from the
  /// slot index encoded in the id; valid for closed ids too).
  static u64 partition_base(SessionId sid) {
    return (sid & 0xff) * kSessionDramBytes;
  }

  const memprot::VnGenerator& vn_generator(SessionId sid) const;
  double elapsed_ms() const { return latency_.total_ms(); }
  /// Memory access trace of a session (the observable side channel).
  const std::vector<std::pair<u64, bool>>& access_trace(SessionId sid) const;

  /// Key-zeroization check: true when the slot holds no key material — the
  /// slot is empty, or its closed-session husk has every key byte wiped.
  bool slot_zeroized(std::size_t slot) const;
  /// True while the slot holds an open session with live (non-zero) keys.
  bool slot_keys_live(std::size_t slot) const;

  /// Lifetime MPU traffic across every session this device ever opened:
  /// bytes through the AES-CTR engine and bytes CMAC'd. Monotonic; the
  /// serving telemetry surface samples these per device.
  const MpuByteCounters& mpu_byte_counters() const { return mpu_counters_; }

 private:
  /// A session-local weight range and the CTR_W it was imported under.
  struct HashedRegion {
    u64 addr = 0;
    u64 bytes = 0;
    u64 weight_vn = 0;
  };

  struct Session {
    crypto::SessionKeys keys;
    crypto::ChannelReceiver from_user;
    crypto::ChannelSender to_user;
    MemoryProtectionUnit mpu;
    memprot::VnGenerator vn;
    u64 dram_base = 0;
    crypto::Sha256Digest input_hash{};
    crypto::Sha256Digest weight_hash{};
    crypto::Sha256Digest output_hash{};
    AttestationChain chain;
    bool dead = false;  ///< Set on integrity failure.
    /// The weight region `weight_hash` covers: set by the SetWeight or
    /// UnsealModel that computed it, and cleared by a feature write that
    /// overlaps it (see forget_hashed_region_on_write). A later CTR_W bump
    /// (SetWeight, SGD update) makes it miss through the VN compare.
    std::optional<HashedRegion> hashed_region;

    /// True when `weight_hash` is SHA-256 of exactly the `bytes` weight bytes
    /// at `addr` under the current CTR_W, so SealModel may name the region
    /// without another pass over the weights.
    bool weight_hash_covers(u64 addr, u64 bytes) const {
      return hashed_region && hashed_region->addr == addr &&
             hashed_region->bytes == bytes &&
             hashed_region->weight_vn == vn.weight_vn();
    }

    /// Clears hashed_region when a feature write of `bytes` at `addr`
    /// (session-local, both ranges chunk-padded) overlaps it. Needed with
    /// integrity on too: before the first SetInput, feature_write_vn()
    /// equals CTR_W, so a Forward output written onto the weight region
    /// MAC-verifies under the weight VN.
    void forget_hashed_region_on_write(u64 addr, u64 bytes);

    /// CloseSession: wipe every secret the session holds, in place.
    void zeroize();
    bool zeroized() const;
  };

  struct Slot {
    /// Bumped on every open; occupies the SessionId's upper 56 bits, so a
    /// slot would need 2^56 open/close cycles before a stale id could ever
    /// validate again.
    u64 generation = 0;
    bool active = false;
    /// Present while open *and* after close (zeroized husk), until reuse.
    std::unique_ptr<Session> session;
  };

  /// Rounds a byte count up to a whole number of MAC chunks (512 B), so
  /// integrity chunk boundaries always align between writes and reads.
  static u64 pad_region(u64 bytes) {
    return (bytes + MemoryProtectionUnit::kChunkBytes - 1) /
           MemoryProtectionUnit::kChunkBytes * MemoryProtectionUnit::kChunkBytes;
  }

  static SessionId make_id(std::size_t slot, u64 generation) {
    return (generation << 8) | static_cast<u64>(slot);
  }

  /// Fresh per-blob nonce from the device TRNG. Caller must hold mu_.
  crypto::AesBlock random_nonce();

  /// Resolves a SessionId to its live session; nullptr for unknown, closed,
  /// or stale ids. Caller must hold mu_.
  Session* find_session(SessionId sid);
  const Session* find_session(SessionId sid) const;

  /// Maps a session-local address range into the session's physical DRAM
  /// partition. Returns false (→ kBadOperand) when the range leaves the
  /// partition or the address breaks the MPU's alignment rule (512 B with
  /// integrity on, 16 B with it off), so no instruction hands the MPU an
  /// address it would throw on.
  static bool translate(const Session& s, u64 addr, u64 bytes, u64& phys);

  DeviceStatus import_region(Session& s, const crypto::SealedRecord& record,
                             u64 addr, Opcode op);
  DeviceStatus forward_locked(Session& s, const ForwardOp& op);

  std::string device_id_;
  crypto::HmacDrbg drbg_;
  crypto::EcdsaKeyPair identity_;
  crypto::DeviceCertificate certificate_;
  /// Pinned manufacturer root (a hardware fuse): lets this device attest
  /// *peer* devices during cross-device provisioning.
  crypto::AffinePoint ca_public_;
  /// Store root key, derived from the identity key material at fabrication —
  /// deterministic for a device, never exported, survives reset().
  crypto::AesKey store_root_{};
  store::BindingId store_binding_{};
  /// Pending provision_begin ephemeral (target side of the handshake).
  std::optional<crypto::EcdhKeyPair> pending_provision_;
  /// UnsealModel payload staging, reused across calls so the steady-state
  /// path never reallocates (or re-faults) megabytes per load. Guarded by
  /// mu_; zero-wiped after every use, so it never holds plaintext at rest.
  Bytes unseal_scratch_;
  /// Reset epoch; bumped by reset().
  u64 generation_ = 1;
  UntrustedMemory& memory_;
  LatencyAccumulator latency_;
  /// Device-lifetime MPU byte counters; each session's MPU is pointed at
  /// this right after construction (see InitSession).
  MpuByteCounters mpu_counters_;
  std::array<Slot, kMaxSessions> slots_;
  /// One instruction executes at a time, like the hardware command queue.
  mutable std::mutex mu_;
};

}  // namespace guardnn::accel
