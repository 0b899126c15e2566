#include "store/sealed_blob.h"

#include <array>
#include <cstring>
#include <stdexcept>

#include "crypto/hmac.h"
#include "crypto/mem_mac.h"

namespace guardnn::store {
namespace {

constexpr std::size_t kHeaderBytes = 4 + 2 + 2 + 32 + 32 + 16 + 8 + 8 + 8;
constexpr u64 kBlocksPerChunk = kSealChunkBytes / crypto::kAesBlockBytes;

/// CMAC over (big-endian chunk index || chunk ciphertext).
crypto::AesBlock chunk_mac(const crypto::Aes128& aes,
                           const crypto::CmacSubkeys& subkeys, u64 index,
                           BytesView chunk) {
  crypto::CmacState state(aes, subkeys);
  u8 index_bytes[8];
  store_be64(index_bytes, index);
  state.update(BytesView(index_bytes, 8));
  state.update(chunk);
  return state.finish();
}

/// Chained MAC over the serialized header followed by every chunk MAC, so
/// the chunk-MAC list cannot be reordered, truncated or extended and the
/// header fields cannot be rewritten.
crypto::AesBlock chain_mac(const crypto::Aes128& aes,
                           const crypto::CmacSubkeys& subkeys,
                           const SealedBlobHeader& header,
                           const std::vector<crypto::AesBlock>& macs) {
  crypto::CmacState state(aes, subkeys);
  const Bytes header_bytes = header.serialize();
  state.update(header_bytes);
  for (const crypto::AesBlock& mac : macs)
    state.update(BytesView(mac.data(), mac.size()));
  return state.finish();
}

/// All chunk MACs of a ciphertext buffer, the full-size chunks running
/// crypto::kCmacLanes CBC chains in lockstep (a short final chunk falls back
/// to the serial path). Bit-identical to calling chunk_mac per chunk.
void chunk_macs_batched(const crypto::Aes128& mac,
                        const crypto::CmacSubkeys& subkeys,
                        BytesView ciphertext,
                        std::vector<crypto::AesBlock>& tags_out) {
  const u64 n_chunks =
      (ciphertext.size() + kSealChunkBytes - 1) / kSealChunkBytes;
  tags_out.resize(n_chunks);
  if (n_chunks == 0) return;
  const u64 n_full = ciphertext.size() / kSealChunkBytes;

  std::vector<std::array<u8, 8>> indices(n_full);
  std::vector<crypto::CmacMessage> msgs(n_full);
  for (u64 i = 0; i < n_full; ++i) {
    store_be64(indices[i].data(), i);
    msgs[i].prefix = BytesView(indices[i].data(), indices[i].size());
    msgs[i].body =
        BytesView(ciphertext.data() + i * kSealChunkBytes, kSealChunkBytes);
  }
  crypto::cmac_many(mac, subkeys, msgs.data(), n_full, tags_out.data());

  if (n_full < n_chunks) {
    const u64 off = n_full * kSealChunkBytes;
    tags_out[n_full] =
        chunk_mac(mac, subkeys, n_full,
                  BytesView(ciphertext.data() + off, ciphertext.size() - off));
  }
}

}  // namespace

const char* seal_status_name(SealStatus status) {
  switch (status) {
    case SealStatus::kOk: return "ok";
    case SealStatus::kBadVersion: return "bad-version";
    case SealStatus::kWrongDevice: return "wrong-device";
    case SealStatus::kBadBlob: return "bad-blob";
  }
  return "unknown";
}

Bytes SealedBlobHeader::serialize() const {
  Bytes out(kHeaderBytes);
  u8* p = out.data();
  store_be32(p, kSealedBlobMagic);
  p += 4;
  p[0] = static_cast<u8>(version >> 8);
  p[1] = static_cast<u8>(version);
  p[2] = 0;  // reserved
  p[3] = 0;
  p += 4;
  std::copy(binding_id.begin(), binding_id.end(), p);
  p += binding_id.size();
  std::copy(content_id.begin(), content_id.end(), p);
  p += content_id.size();
  std::copy(nonce.begin(), nonce.end(), p);
  p += nonce.size();
  store_be64(p, plaintext_bytes);
  p += 8;
  store_be64(p, chunk_bytes);
  p += 8;
  store_be64(p, chunk_count());
  return out;
}

Bytes SealedBlob::serialize() const {
  const Bytes header_bytes = header.serialize();
  Bytes out;
  out.reserve(header_bytes.size() + ciphertext.size() +
              chunk_macs.size() * crypto::kAesBlockBytes +
              crypto::kAesBlockBytes);
  out.insert(out.end(), header_bytes.begin(), header_bytes.end());
  out.insert(out.end(), ciphertext.begin(), ciphertext.end());
  for (const crypto::AesBlock& mac : chunk_macs)
    out.insert(out.end(), mac.begin(), mac.end());
  out.insert(out.end(), chain_mac.begin(), chain_mac.end());
  return out;
}

std::optional<SealedBlobHeader> SealedBlob::parse_header(BytesView bytes) {
  if (bytes.size() < kHeaderBytes) return std::nullopt;
  const u8* p = bytes.data();
  if (load_be32(p) != kSealedBlobMagic) return std::nullopt;
  p += 4;

  SealedBlobHeader header;
  header.version = static_cast<u16>((u16(p[0]) << 8) | p[1]);
  if (p[2] != 0 || p[3] != 0) return std::nullopt;  // reserved: strict zero
  p += 4;  // version + reserved
  std::copy(p, p + header.binding_id.size(), header.binding_id.begin());
  p += header.binding_id.size();
  std::copy(p, p + header.content_id.size(), header.content_id.begin());
  p += header.content_id.size();
  std::copy(p, p + header.nonce.size(), header.nonce.begin());
  p += header.nonce.size();
  header.plaintext_bytes = load_be64(p);
  p += 8;
  header.chunk_bytes = load_be64(p);
  p += 8;
  const u64 stored_chunks = load_be64(p);

  // Structural sanity before sizing any allocation from attacker-controlled
  // fields: the chunk geometry must be internally consistent and the total
  // length must match exactly (no trailing garbage, no truncation). Bounding
  // plaintext_bytes by the real buffer first keeps every later sum far from
  // u64 wrap-around — without it a near-2^64 length field makes `expected`
  // wrap back onto a header-only file and deserialize() reads past the end.
  if (header.chunk_bytes != kSealChunkBytes) return std::nullopt;
  if (header.plaintext_bytes == 0 || header.plaintext_bytes > bytes.size())
    return std::nullopt;
  const u64 n_chunks = header.chunk_count();
  if (stored_chunks != n_chunks) return std::nullopt;
  const u64 expected = kHeaderBytes + header.plaintext_bytes +
                       (n_chunks + 1) * crypto::kAesBlockBytes;
  if (bytes.size() != expected) return std::nullopt;
  return header;
}

std::optional<SealedBlob> SealedBlob::deserialize(BytesView bytes) {
  return deserialize(Bytes(bytes.begin(), bytes.end()));
}

std::optional<SealedBlob> SealedBlob::deserialize(Bytes&& bytes) {
  std::optional<SealedBlobHeader> header = parse_header(bytes);
  if (!header) return std::nullopt;
  SealedBlob blob;
  blob.header = *header;
  const u64 n_chunks = blob.header.chunk_count();
  const u8* macs = bytes.data() + kHeaderBytes + blob.header.plaintext_bytes;
  blob.chunk_macs.resize(n_chunks);
  for (u64 i = 0; i < n_chunks; ++i) {
    std::copy(macs, macs + crypto::kAesBlockBytes, blob.chunk_macs[i].begin());
    macs += crypto::kAesBlockBytes;
  }
  std::copy(macs, macs + crypto::kAesBlockBytes, blob.chain_mac.begin());
  std::memmove(bytes.data(), bytes.data() + kHeaderBytes,
               blob.header.plaintext_bytes);
  bytes.resize(blob.header.plaintext_bytes);
  blob.ciphertext = std::move(bytes);
  return blob;
}

BlobKeys derive_blob_keys(const crypto::AesKey& root_key,
                          const crypto::AesBlock& nonce,
                          const ContentId& content_id) {
  static constexpr char kSalt[] = "guardnn-sealed-blob-v2";
  Bytes info(nonce.begin(), nonce.end());
  info.insert(info.end(), content_id.begin(), content_id.end());
  info.push_back(static_cast<u8>(kSealedBlobVersion >> 8));
  info.push_back(static_cast<u8>(kSealedBlobVersion));
  const Bytes okm = crypto::hkdf(
      BytesView(reinterpret_cast<const u8*>(kSalt), sizeof(kSalt) - 1),
      BytesView(root_key.data(), root_key.size()), info, 32);
  BlobKeys keys;
  std::copy(okm.begin(), okm.begin() + 16, keys.enc.begin());
  std::copy(okm.begin() + 16, okm.end(), keys.mac.begin());
  return keys;
}

SealedBlob seal_blob(const crypto::AesKey& root_key, const BindingId& binding,
                     const crypto::AesBlock& nonce, BytesView payload,
                     const ContentId& content_id) {
  if (payload.empty())
    throw std::invalid_argument("seal_blob: empty payload");

  SealedBlob blob;
  blob.header.version = kSealedBlobVersion;
  blob.header.binding_id = binding;
  blob.header.content_id = content_id;
  blob.header.nonce = nonce;
  blob.header.plaintext_bytes = payload.size();
  blob.header.chunk_bytes = kSealChunkBytes;

  BlobKeys keys = derive_blob_keys(root_key, nonce, content_id);
  crypto::Aes128 enc(keys.enc);
  crypto::Aes128 mac(keys.mac);
  const crypto::CmacSubkeys subkeys = crypto::cmac_derive_subkeys(mac);

  blob.ciphertext.assign(payload.begin(), payload.end());
  const u64 n_chunks = blob.header.chunk_count();
  blob.chunk_macs.resize(n_chunks);
  for (u64 i = 0; i < n_chunks; ++i) {
    const u64 offset = i * kSealChunkBytes;
    const u64 len = std::min<u64>(kSealChunkBytes, payload.size() - offset);
    MutBytesView chunk(blob.ciphertext.data() + offset, len);
    // Chunk i owns counter blocks [i * blocks_per_chunk, (i+1) * ...): the
    // per-chunk ranges are disjoint under the per-blob key.
    crypto::ctr_xcrypt(enc, crypto::make_counter_block(i * kBlocksPerChunk, 0),
                       chunk);
    blob.chunk_macs[i] = chunk_mac(mac, subkeys, i, chunk);
  }
  blob.chain_mac = chain_mac(mac, subkeys, blob.header, blob.chunk_macs);

  enc.zeroize();
  mac.zeroize();
  secure_zero(keys.enc.data(), keys.enc.size());
  secure_zero(keys.mac.data(), keys.mac.size());
  return blob;
}

SealStatus unseal_blob(const crypto::AesKey& root_key, const BindingId& binding,
                       const SealedBlob& blob, Bytes& payload_out) {
  payload_out.clear();

  // Version gate first: a downgraded blob is rejected before any key is
  // derived, so no legacy code path can ever be reached.
  if (blob.header.version != kSealedBlobVersion) return SealStatus::kBadVersion;
  if (blob.header.binding_id != binding) return SealStatus::kWrongDevice;

  // Structure must be exactly consistent with the header.
  if (blob.header.chunk_bytes != kSealChunkBytes) return SealStatus::kBadBlob;
  if (blob.header.plaintext_bytes == 0) return SealStatus::kBadBlob;
  if (blob.ciphertext.size() != blob.header.plaintext_bytes)
    return SealStatus::kBadBlob;
  const u64 n_chunks = blob.header.chunk_count();
  if (blob.chunk_macs.size() != n_chunks) return SealStatus::kBadBlob;

  BlobKeys keys =
      derive_blob_keys(root_key, blob.header.nonce, blob.header.content_id);
  crypto::Aes128 enc(keys.enc);
  crypto::Aes128 mac(keys.mac);
  const crypto::CmacSubkeys subkeys = crypto::cmac_derive_subkeys(mac);

  auto fail = [&](SealStatus status) {
    enc.zeroize();
    mac.zeroize();
    secure_zero(keys.enc.data(), keys.enc.size());
    secure_zero(keys.mac.data(), keys.mac.size());
    if (!payload_out.empty()) secure_zero(payload_out.data(), payload_out.size());
    payload_out.clear();
    return status;
  };

  // Chain MAC covers header + chunk-MAC list; verify it before trusting any
  // individual chunk MAC.
  const crypto::AesBlock chain =
      chain_mac(mac, subkeys, blob.header, blob.chunk_macs);
  if (!ct_equal(BytesView(chain.data(), chain.size()),
                BytesView(blob.chain_mac.data(), blob.chain_mac.size())))
    return fail(SealStatus::kBadBlob);

  // Verify every chunk MAC, then decrypt.
  payload_out.assign(blob.ciphertext.begin(), blob.ciphertext.end());
  for (u64 i = 0; i < n_chunks; ++i) {
    const u64 offset = i * kSealChunkBytes;
    const u64 len =
        std::min<u64>(kSealChunkBytes, blob.header.plaintext_bytes - offset);
    const BytesView chunk(blob.ciphertext.data() + offset, len);
    const crypto::AesBlock tag = chunk_mac(mac, subkeys, i, chunk);
    if (!ct_equal(BytesView(tag.data(), tag.size()),
                  BytesView(blob.chunk_macs[i].data(), blob.chunk_macs[i].size())))
      return fail(SealStatus::kBadBlob);
    crypto::ctr_xcrypt(enc, crypto::make_counter_block(i * kBlocksPerChunk, 0),
                       MutBytesView(payload_out.data() + offset, len));
  }

  enc.zeroize();
  mac.zeroize();
  secure_zero(keys.enc.data(), keys.enc.size());
  secure_zero(keys.mac.data(), keys.mac.size());
  return SealStatus::kOk;
}

// --- SealedBlobWriter --------------------------------------------------------

SealedBlobWriter::SealedBlobWriter(const crypto::AesKey& root_key,
                                   const BindingId& binding,
                                   const crypto::AesBlock& nonce,
                                   u64 plaintext_bytes, Bytes&& recycle)
    : root_(root_key) {
  if (plaintext_bytes == 0)
    throw std::invalid_argument("SealedBlobWriter: empty payload");
  blob_.header.version = kSealedBlobVersion;
  blob_.header.binding_id = binding;
  blob_.header.nonce = nonce;
  blob_.header.plaintext_bytes = plaintext_bytes;
  blob_.header.chunk_bytes = kSealChunkBytes;
  blob_.ciphertext = std::move(recycle);
  blob_.ciphertext.resize(plaintext_bytes);
}

SealedBlobWriter::~SealedBlobWriter() {
  secure_zero(root_.data(), root_.size());
  // An abandoned writer still holds plaintext in the ciphertext buffer.
  if (!finished_ && !blob_.ciphertext.empty())
    secure_zero(blob_.ciphertext.data(), blob_.ciphertext.size());
}

MutBytesView SealedBlobWriter::payload() {
  if (finished_)
    throw std::logic_error("SealedBlobWriter: payload() after finish()");
  return MutBytesView(blob_.ciphertext.data(), blob_.ciphertext.size());
}

MutBytesView SealedBlobWriter::chunk(u64 index) {
  if (finished_)
    throw std::logic_error("SealedBlobWriter: chunk() after finish()");
  if (index >= chunk_count())
    throw std::invalid_argument("SealedBlobWriter: chunk index out of range");
  const u64 offset = index * kSealChunkBytes;
  const u64 len =
      std::min<u64>(kSealChunkBytes, blob_.header.plaintext_bytes - offset);
  return MutBytesView(blob_.ciphertext.data() + offset, len);
}

SealedBlob SealedBlobWriter::finish(const ContentId& content_id) {
  if (finished_)
    throw std::logic_error("SealedBlobWriter: double finish()");
  finished_ = true;
  blob_.header.content_id = content_id;

  BlobKeys keys = derive_blob_keys(root_, blob_.header.nonce, content_id);
  secure_zero(root_.data(), root_.size());
  crypto::Aes128 enc(keys.enc);
  crypto::Aes128 mac(keys.mac);
  const crypto::CmacSubkeys subkeys = crypto::cmac_derive_subkeys(mac);

  // Encrypt every chunk in place — the buffer the producer filled with
  // plaintext becomes the wire ciphertext, no second copy. Counter ranges
  // match seal_blob() exactly.
  const u64 n_chunks = chunk_count();
  for (u64 i = 0; i < n_chunks; ++i) {
    const u64 offset = i * kSealChunkBytes;
    const u64 len = std::min<u64>(kSealChunkBytes,
                                  blob_.header.plaintext_bytes - offset);
    crypto::ctr_xcrypt(enc, crypto::make_counter_block(i * kBlocksPerChunk, 0),
                       MutBytesView(blob_.ciphertext.data() + offset, len));
  }
  chunk_macs_batched(mac, subkeys, blob_.ciphertext, blob_.chunk_macs);
  blob_.chain_mac = chain_mac(mac, subkeys, blob_.header, blob_.chunk_macs);

  enc.zeroize();
  mac.zeroize();
  secure_zero(keys.enc.data(), keys.enc.size());
  secure_zero(keys.mac.data(), keys.mac.size());
  return std::move(blob_);
}

// --- SealedBlobReader --------------------------------------------------------

SealedBlobReader::SealedBlobReader(const crypto::AesKey& root_key,
                                   const BindingId& binding,
                                   const SealedBlob& blob)
    : blob_(&blob) {
  // Same gate order as unseal_blob: version before keys, binding before
  // structure, chain MAC before any chunk MAC is trusted.
  if (blob.header.version != kSealedBlobVersion) {
    status_ = SealStatus::kBadVersion;
    return;
  }
  if (blob.header.binding_id != binding) {
    status_ = SealStatus::kWrongDevice;
    return;
  }
  if (blob.header.chunk_bytes != kSealChunkBytes ||
      blob.header.plaintext_bytes == 0 ||
      blob.ciphertext.size() != blob.header.plaintext_bytes ||
      blob.chunk_macs.size() != blob.header.chunk_count()) {
    status_ = SealStatus::kBadBlob;
    return;
  }

  keys_ = derive_blob_keys(root_key, blob.header.nonce, blob.header.content_id);
  crypto::Aes128 mac(keys_.mac);
  const crypto::CmacSubkeys subkeys = crypto::cmac_derive_subkeys(mac);

  const crypto::AesBlock chain =
      chain_mac(mac, subkeys, blob.header, blob.chunk_macs);
  bool ok = ct_equal(BytesView(chain.data(), chain.size()),
                     BytesView(blob.chain_mac.data(), blob.chain_mac.size()));
  if (ok) {
    // Every chunk MAC, lane-batched; constant-time compare, no early out.
    std::vector<crypto::AesBlock> tags;
    chunk_macs_batched(mac, subkeys, blob.ciphertext, tags);
    for (u64 i = 0; i < tags.size(); ++i)
      ok &= ct_equal(BytesView(tags[i].data(), tags[i].size()),
                     BytesView(blob.chunk_macs[i].data(),
                               blob.chunk_macs[i].size()));
  }
  mac.zeroize();
  if (!ok) {
    wipe_keys();
    status_ = SealStatus::kBadBlob;
    return;
  }
  enc_.emplace(keys_.enc);
  status_ = SealStatus::kOk;
}

SealedBlobReader::~SealedBlobReader() { wipe_keys(); }

void SealedBlobReader::wipe_keys() {
  if (enc_) enc_->zeroize();
  secure_zero(keys_.enc.data(), keys_.enc.size());
  secure_zero(keys_.mac.data(), keys_.mac.size());
}

u64 SealedBlobReader::chunk_bytes(u64 index) const {
  if (index >= chunk_count()) return 0;
  return std::min<u64>(kSealChunkBytes,
                       blob_->header.plaintext_bytes - index * kSealChunkBytes);
}

void SealedBlobReader::read_chunk(u64 index, MutBytesView out) {
  if (status_ != SealStatus::kOk)
    throw std::logic_error("SealedBlobReader: read from unverified blob");
  if (index >= chunk_count() || out.size() != chunk_bytes(index))
    throw std::invalid_argument("SealedBlobReader: bad chunk read");
  const u64 offset = index * kSealChunkBytes;
  std::memcpy(out.data(), blob_->ciphertext.data() + offset, out.size());
  crypto::ctr_xcrypt(*enc_,
                     crypto::make_counter_block(index * kBlocksPerChunk, 0),
                     out);
}

void SealedBlobReader::read_all(MutBytesView out) {
  if (out.size() != plaintext_bytes())
    throw std::invalid_argument("SealedBlobReader: bad payload size");
  for (u64 i = 0; i < chunk_count(); ++i)
    read_chunk(i, MutBytesView(out.data() + i * kSealChunkBytes,
                               chunk_bytes(i)));
}

}  // namespace guardnn::store
