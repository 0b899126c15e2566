#include "store/model_package.h"

#include <stdexcept>

namespace guardnn::store {

namespace {
constexpr std::size_t kFixedBytes = 4 + 2 + 2 + 8;  // magic, ver, pad, weight_vn
}  // namespace

Bytes ModelPackage::serialize() const {
  Bytes out;
  out.reserve(kFixedBytes + 16 + descriptor.size() + weights.size());
  out.resize(kFixedBytes);
  u8* p = out.data();
  store_be32(p, kModelPackageMagic);
  p += 4;
  p[0] = static_cast<u8>(kModelPackageVersion >> 8);
  p[1] = static_cast<u8>(kModelPackageVersion);
  p[2] = 0;
  p[3] = 0;
  p += 4;
  store_be64(p, weight_vn);

  u8 len[8];
  store_be64(len, descriptor.size());
  out.insert(out.end(), len, len + 8);
  out.insert(out.end(), descriptor.begin(), descriptor.end());
  store_be64(len, weights.size());
  out.insert(out.end(), len, len + 8);
  out.insert(out.end(), weights.begin(), weights.end());
  return out;
}

ContentId package_content_id(BytesView descriptor,
                             const crypto::Sha256Digest& weight_hash) {
  crypto::Sha256 hasher;
  u8 len[8];
  store_be64(len, descriptor.size());
  hasher.update(BytesView(len, 8));
  hasher.update(descriptor);
  hasher.update(BytesView(weight_hash.data(), weight_hash.size()));
  return hasher.finalize();
}

ContentId ModelPackage::content_id() const {
  return package_content_id(descriptor, crypto::Sha256::hash(weights));
}

std::optional<ModelPackage> ModelPackage::parse(BytesView bytes) {
  // One parser for the wire format: the owning form copies out of the
  // zero-copy view, so the two can never diverge reject-for-reject.
  const std::optional<ModelPackageView> view = ModelPackageView::parse(bytes);
  if (!view) return std::nullopt;
  ModelPackage package;
  package.descriptor.assign(view->descriptor.begin(), view->descriptor.end());
  package.weights.assign(view->weights.begin(), view->weights.end());
  package.weight_vn = view->weight_vn;
  return package;
}

std::optional<ModelPackageView> ModelPackageView::parse(BytesView bytes) {
  if (bytes.size() < kFixedBytes + 16) return std::nullopt;
  const u8* p = bytes.data();
  if (load_be32(p) != kModelPackageMagic) return std::nullopt;
  p += 4;
  const u16 version = static_cast<u16>((u16(p[0]) << 8) | p[1]);
  if (version != kModelPackageVersion) return std::nullopt;
  p += 4;

  ModelPackageView view;
  view.weight_vn = load_be64(p);
  p += 8;

  std::size_t remaining = bytes.size() - kFixedBytes;
  auto take_sized = [&](BytesView& out) {
    if (remaining < 8) return false;
    const u64 len = load_be64(p);
    p += 8;
    remaining -= 8;
    if (len > remaining) return false;
    out = BytesView(len ? p : nullptr, len);
    p += len;
    remaining -= len;
    return true;
  };
  if (!take_sized(view.descriptor)) return std::nullopt;
  if (!take_sized(view.weights)) return std::nullopt;
  if (remaining != 0) return std::nullopt;  // no trailing garbage
  if (view.weights.empty()) return std::nullopt;
  return view;
}

u64 serialized_package_bytes(u64 descriptor_bytes, u64 weight_bytes) {
  return kFixedBytes + 8 + descriptor_bytes + 8 + weight_bytes;
}

MutBytesView layout_package(MutBytesView out, BytesView descriptor,
                            u64 weight_bytes, u64 weight_vn) {
  if (out.size() != serialized_package_bytes(descriptor.size(), weight_bytes))
    throw std::invalid_argument("layout_package: buffer size mismatch");
  u8* p = out.data();
  store_be32(p, kModelPackageMagic);
  p += 4;
  p[0] = static_cast<u8>(kModelPackageVersion >> 8);
  p[1] = static_cast<u8>(kModelPackageVersion);
  p[2] = 0;
  p[3] = 0;
  p += 4;
  store_be64(p, weight_vn);
  p += 8;
  store_be64(p, descriptor.size());
  p += 8;
  std::copy(descriptor.begin(), descriptor.end(), p);
  p += descriptor.size();
  store_be64(p, weight_bytes);
  p += 8;
  return MutBytesView(p, weight_bytes);
}

}  // namespace guardnn::store
