// Device-bound sealed blob format — the persistence primitive of the sealed
// model store (SEAL-style, cf. Zuo et al.: model weights sealed under
// device-held keys so they can live in untrusted storage).
//
// A SealedBlob packages an opaque plaintext payload (a serialized
// ModelPackage) as:
//   * AES-128-CTR ciphertext, encrypted per 64 KiB chunk under a per-blob
//     key; every chunk owns a disjoint counter range, and the per-blob keys
//     are derived from the sealing domain's root key plus a random nonce
//     carried in the header, so no two blobs ever share keystream;
//   * one full AES-CMAC tag per chunk over (chunk index || ciphertext);
//   * a chained CMAC over (serialized header || all chunk MACs) that makes
//     the header fields — format version, binding id, content id, sizes —
//     and the chunk-MAC list tamper-evident as one unit;
//   * a content id derived from the *plaintext* (for a ModelPackage,
//     store::package_content_id: SHA-256 over the descriptor and the
//     attested SHA-256 of the weights), checked after decryption (defense
//     in depth) and used by the ModelStore for deduplication: two devices
//     sealing the same model produce different ciphertext but the same
//     content id;
//   * a format version field; unsealing rejects anything but the current
//     version before touching key material (downgrade fails closed).
//
// Binding: the root key never leaves the sealing device, so a blob can only
// be opened by the device whose `binding_id` (hash of its certified public
// key) it carries. Cross-device provisioning re-wraps the payload under an
// ECDHE transport key between two attested devices (see accel::GuardNnDevice
// export_for_device / provision_finish) — the host only ever relays
// ciphertext.
//
// Everything here is host-visible: a SealedBlob is meant to sit in untrusted
// storage. Unsealing is fail-closed and coarse — no error distinguishes
// *which* byte was tampered with, and a failed unseal never emits plaintext.
#pragma once

#include <optional>
#include <vector>

#include "common/types.h"
#include "crypto/aes128.h"
#include "crypto/sha256.h"

namespace guardnn::store {

inline constexpr u32 kSealedBlobMagic = 0x474E'5342;  // "GNSB"
/// Current format version. v1 (unchained per-chunk MACs) was retired before
/// release; unseal rejects it — the downgrade test pins that behaviour.
inline constexpr u16 kSealedBlobVersion = 2;
inline constexpr u64 kSealChunkBytes = 64 * 1024;

/// Content identity: a SHA-256 digest naming the plaintext payload.
using ContentId = crypto::Sha256Digest;
/// Sealing-domain identity: SHA-256 over the device's certified public key.
using BindingId = crypto::Sha256Digest;

struct SealedBlobHeader {
  u16 version = kSealedBlobVersion;
  BindingId binding_id{};
  ContentId content_id{};
  crypto::AesBlock nonce{};  ///< Per-blob key-derivation nonce (public).
  u64 plaintext_bytes = 0;
  u64 chunk_bytes = kSealChunkBytes;

  u64 chunk_count() const {
    return chunk_bytes == 0 ? 0 : (plaintext_bytes + chunk_bytes - 1) / chunk_bytes;
  }

  /// Fixed-layout serialization — exactly the bytes the chain MAC covers.
  Bytes serialize() const;
};

struct SealedBlob {
  SealedBlobHeader header;
  Bytes ciphertext;  ///< Same length as the plaintext (CTR mode).
  std::vector<crypto::AesBlock> chunk_macs;  ///< One per chunk.
  crypto::AesBlock chain_mac{};  ///< CMAC over (header || chunk MACs).

  ContentId content_id() const { return header.content_id; }

  /// Wire serialization for untrusted storage backends.
  Bytes serialize() const;
  /// Strict parse: any truncation, bad magic or inconsistent size field
  /// yields nullopt. Authenticity is *not* checked here — that is unseal's
  /// job (parsing happens on the untrusted host, unsealing on the device).
  static std::optional<SealedBlob> deserialize(BytesView bytes);
  /// The same parse of an owned wire image, whose buffer becomes the
  /// ciphertext: the body moves over the header in place, no second copy.
  static std::optional<SealedBlob> deserialize(Bytes&& bytes);
  /// The header and chunk-geometry half of deserialize(): every structural
  /// check it makes, including the exact total length, without copying the
  /// body. deserialize() accepts exactly the wire images this accepts.
  static std::optional<SealedBlobHeader> parse_header(BytesView bytes);
};

/// Unseal outcome. Deliberately coarse: nothing depends on secret data, and
/// kBadBlob covers every authenticity failure without revealing which check
/// tripped first.
enum class SealStatus : u8 {
  kOk,
  kBadVersion,   ///< Format version is not kSealedBlobVersion (downgrade).
  kWrongDevice,  ///< binding_id names a different sealing domain.
  kBadBlob,      ///< Structure, MAC chain or content id failed.
};

const char* seal_status_name(SealStatus status);

/// Per-blob keys derived from the sealing domain's root key, the header
/// nonce and the content id (HKDF). Fresh nonce per seal → no keystream
/// reuse across blobs; folding the content id in binds the keys to the
/// logical model as defense in depth on top of the chain MAC.
struct BlobKeys {
  crypto::AesKey enc{};
  crypto::AesKey mac{};
};

BlobKeys derive_blob_keys(const crypto::AesKey& root_key,
                          const crypto::AesBlock& nonce,
                          const ContentId& content_id);

/// Seals `payload` (non-empty) for the domain owning `root_key`. `nonce`
/// must be fresh random bytes (the device draws them from its TRNG).
/// `content_id` is the caller's identity for the payload — the device uses
/// store::package_content_id (descriptor + SHA-256 of the weights, excluding
/// incidental metadata) so replicas of one model deduplicate across devices
/// and re-seals; raw-format callers typically pass SHA-256 of the payload.
/// The id is authenticated (chain MAC + key derivation) and re-checked
/// against the payload semantics by the device after unsealing.
SealedBlob seal_blob(const crypto::AesKey& root_key, const BindingId& binding,
                     const crypto::AesBlock& nonce, BytesView payload,
                     const ContentId& content_id);

/// Verifies and decrypts a blob. `binding` is the caller's own domain id.
/// On kOk, `payload_out` holds the plaintext; on any failure it is cleared
/// (fail closed, no partial plaintext escapes).
SealStatus unseal_blob(const crypto::AesKey& root_key, const BindingId& binding,
                       const SealedBlob& blob, Bytes& payload_out);

/// Incremental seal — the blob side of the fused MPU→blob pipeline.
///
/// The writer allocates the blob's ciphertext buffer up front and hands out
/// mutable views of it (whole payload or per 64 KiB chunk) for the producer
/// to fill with plaintext — e.g. an MpuExportStream decrypting a weight
/// region straight into it. finish() then encrypts every chunk *in place*
/// with batched 64-block keystream bursts and computes the chunk MACs
/// crypto::kCmacLanes CBC chains at a time, so the plaintext only ever
/// exists once, inside the buffer that becomes the ciphertext.
///
/// The wire format is byte-identical to seal_blob(): same header, same
/// per-chunk counter ranges, same MAC chain — a writer-produced blob and a
/// seal_blob()-produced blob of the same (root key, binding, nonce, payload,
/// content id) are equal byte for byte, and either unseals on either path.
///
/// The content id is only needed at finish() (per-blob keys derive from it),
/// which is what lets the producer compute it while filling the buffer
/// instead of over a separate plaintext copy.
///
/// If the writer is destroyed before finish(), the buffered plaintext is
/// wiped.
class SealedBlobWriter {
 public:
  /// Prepares a blob of `plaintext_bytes` (> 0) for the domain owning
  /// `root_key`; `nonce` must be fresh random bytes. `recycle` optionally
  /// donates an existing buffer (e.g. the ciphertext of a blob the caller is
  /// about to overwrite) so the steady-state seal loop never reallocates or
  /// zero-fills megabytes; every payload byte is written by the producer
  /// regardless.
  /// Throws std::invalid_argument for an empty payload.
  SealedBlobWriter(const crypto::AesKey& root_key, const BindingId& binding,
                   const crypto::AesBlock& nonce, u64 plaintext_bytes,
                   Bytes&& recycle = Bytes());
  ~SealedBlobWriter();

  SealedBlobWriter(const SealedBlobWriter&) = delete;
  SealedBlobWriter& operator=(const SealedBlobWriter&) = delete;

  /// The whole plaintext buffer, to be filled before finish().
  MutBytesView payload();
  u64 chunk_count() const { return blob_.header.chunk_count(); }
  /// Chunk i's slice of the payload (the final chunk may be short).
  MutBytesView chunk(u64 index);

  /// Encrypts + MACs in place and returns the finished blob. Consumes the
  /// writer (payload views are dead; a second finish() throws).
  SealedBlob finish(const ContentId& content_id);

 private:
  crypto::AesKey root_{};
  SealedBlob blob_;
  bool finished_ = false;
};

/// Incremental verified read — the blob side of the fused unseal pipeline.
///
/// Construction verifies *everything* up front: header geometry and binding,
/// the chain MAC, and every chunk MAC (lane-batched). Only when status() is
/// kOk can chunks be decrypted — out of place, into caller buffers, so the
/// blob stays intact and no full-plaintext intermediate is forced on the
/// consumer. Decryption order is the caller's choice; each chunk's counter
/// range is independent.
///
/// Verification semantics are identical to unseal_blob(): any blob one
/// accepts, the other accepts, with the same SealStatus on rejection.
class SealedBlobReader {
 public:
  /// `blob` must outlive the reader. `binding` is the caller's own domain
  /// id. Check status() before reading.
  SealedBlobReader(const crypto::AesKey& root_key, const BindingId& binding,
                   const SealedBlob& blob);
  ~SealedBlobReader();

  SealedBlobReader(const SealedBlobReader&) = delete;
  SealedBlobReader& operator=(const SealedBlobReader&) = delete;

  /// kOk once fully verified; any other value means no plaintext will ever
  /// be produced (fail closed).
  SealStatus status() const { return status_; }

  u64 plaintext_bytes() const { return blob_->header.plaintext_bytes; }
  u64 chunk_count() const { return blob_->header.chunk_count(); }
  /// Plaintext size of chunk `index` (the final chunk may be short).
  u64 chunk_bytes(u64 index) const;

  /// Decrypts chunk `index` into `out` (out.size() == chunk_bytes(index)).
  /// Throws std::logic_error when status() != kOk.
  void read_chunk(u64 index, MutBytesView out);
  /// Decrypts the whole payload into `out` (out.size() == plaintext_bytes()).
  void read_all(MutBytesView out);

 private:
  void wipe_keys();

  const SealedBlob* blob_;
  SealStatus status_ = SealStatus::kBadBlob;
  std::optional<crypto::Aes128> enc_;
  BlobKeys keys_{};
};

}  // namespace guardnn::store
