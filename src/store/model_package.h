// The plaintext payload a sealed model blob carries: the public architecture
// descriptor (host-authored opaque bytes — shapes and quantization metadata
// are public in GuardNN's threat model), the confidential packed weight blob
// (ExecutionPlan layout), and the freshness metadata needed to resume a
// training run (the weight version counter CTR_W at seal time).
//
// The device builds and parses packages entirely inside the trusted
// boundary; the host only ever sees the sealed form.
#pragma once

#include <optional>

#include "common/types.h"
#include "crypto/sha256.h"
#include "store/sealed_blob.h"

namespace guardnn::store {

inline constexpr u32 kModelPackageMagic = 0x474E'4D50;  // "GNMP"
/// Version 2 names a model by the SHA-256 of its weights (see
/// package_content_id); parse() rejects every other version.
inline constexpr u16 kModelPackageVersion = 2;

struct ModelPackage {
  Bytes descriptor;  ///< Public architecture + quantization metadata.
  Bytes weights;     ///< Plaintext packed weight blob (confidential).
  u64 weight_vn = 0; ///< CTR_W when the package was sealed (checkpoint
                     ///< freshness record; restore re-establishes fresh VNs).

  Bytes serialize() const;
  static std::optional<ModelPackage> parse(BytesView bytes);

  /// The package's *model* identity: package_content_id over the descriptor
  /// and SHA-256(weights). Deliberately excludes weight_vn, so the same
  /// model sealed at different counter epochs — or by different devices —
  /// deduplicates to one content id. The device re-checks this hash against
  /// the blob header after every unseal.
  ContentId content_id() const;

  /// Wipes the confidential weight bytes (device-side teardown hygiene).
  void zeroize() {
    if (!weights.empty()) secure_zero(weights.data(), weights.size());
    weights.clear();
  }
};

/// The model identity hash shared by ModelPackage, ModelPackageView and the
/// device: SHA-256 over (be64 descriptor length || descriptor ||
/// weight_hash), where weight_hash = SHA-256(weights) is exactly the weight
/// hash SignOutput attests. So the device can name a region it already
/// hashed on import without another pass over the weights, and anyone can
/// check a stored replica's id from an attestation report and the public
/// descriptor.
ContentId package_content_id(BytesView descriptor,
                             const crypto::Sha256Digest& weight_hash);

/// Zero-copy view of a serialized package: fields alias the serialized
/// buffer, which must outlive the view. Parsing is exactly as strict as
/// ModelPackage::parse (same rejects, no trailing garbage), but nothing is
/// copied — the fused unseal path parses the decrypted payload in place and
/// streams the weight bytes straight into the MPU.
struct ModelPackageView {
  BytesView descriptor;
  BytesView weights;
  u64 weight_vn = 0;

  ContentId content_id() const {
    return package_content_id(descriptor, crypto::Sha256::hash(weights));
  }

  static std::optional<ModelPackageView> parse(BytesView bytes);
};

/// Wire size of a package with the given part sizes (layout_package below
/// expects a buffer of exactly this size).
u64 serialized_package_bytes(u64 descriptor_bytes, u64 weight_bytes);

/// Writes the fixed fields, length prefixes and descriptor of the serialized
/// package layout into `out` (out.size() must equal
/// serialized_package_bytes(...)), and returns the mutable weight area for
/// the producer to fill — the fused seal path points an MpuExportStream at
/// it, so the package is assembled once, in the buffer that will be
/// encrypted in place. The result is byte-identical to
/// ModelPackage::serialize() once the weights are written.
MutBytesView layout_package(MutBytesView out, BytesView descriptor,
                            u64 weight_bytes, u64 weight_vn);

}  // namespace guardnn::store
