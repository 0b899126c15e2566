#include "store/model_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define GUARDNN_STORE_HAVE_FSYNC 1
#endif

namespace guardnn::store {

namespace fs = std::filesystem;

// --- InMemoryBackend ---------------------------------------------------------

bool InMemoryBackend::save(const std::string& key, Bytes bytes) {
  entries_[key] = std::move(bytes);
  return true;
}

std::optional<Bytes> InMemoryBackend::load(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> InMemoryBackend::list() const {
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, bytes] : entries_) keys.push_back(key);
  return keys;
}

bool InMemoryBackend::remove(const std::string& key) {
  return entries_.erase(key) > 0;
}

// --- DirectoryBackend --------------------------------------------------------

DirectoryBackend::DirectoryBackend(std::string directory)
    : directory_(std::move(directory)) {
  std::error_code ec;
  fs::create_directories(directory_, ec);  // best effort; save() re-checks
}

bool DirectoryBackend::save(const std::string& key, Bytes bytes) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
#ifdef GUARDNN_STORE_HAVE_FSYNC
  // Durable write: temp file → write → fsync → rename → fsync(directory).
  // ModelStore indexes a replica only after save() returns true, so a crash
  // mid-checkpoint can never leave a truncated-but-indexed blob — before
  // this, truncation was only caught at unseal time, after the old
  // checkpoint had already been replaced in the index.
  const fs::path final_path = fs::path(directory_) / key;
  const fs::path tmp_path = fs::path(directory_) / (key + ".tmp");
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n <= 0) {
      ::close(fd);
      fs::remove(tmp_path, ec);
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  const bool synced = ::fsync(fd) == 0;
  const bool closed = ::close(fd) == 0;  // close unconditionally: no fd leak
  if (!synced || !closed) {
    fs::remove(tmp_path, ec);
    return false;
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return false;
  }
  // Persist the rename itself: fsync the containing directory.
  if (const int dirfd = ::open(directory_.c_str(), O_RDONLY); dirfd >= 0) {
    ::fsync(dirfd);
    ::close(dirfd);
  }
  return true;
#else
  std::ofstream out(fs::path(directory_) / key,
                    std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out.good();
#endif
}

std::optional<Bytes> DirectoryBackend::load(const std::string& key) const {
  std::ifstream in(fs::path(directory_) / key, std::ios::binary);
  if (!in) return std::nullopt;
  Bytes bytes((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) return std::nullopt;
  return bytes;
}

std::vector<std::string> DirectoryBackend::list() const {
  std::vector<std::string> keys;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (entry.is_regular_file(ec)) keys.push_back(entry.path().filename().string());
  }
  return keys;
}

bool DirectoryBackend::remove(const std::string& key) {
  std::error_code ec;
  return fs::remove(fs::path(directory_) / key, ec);
}

// --- ModelStore --------------------------------------------------------------

ModelStore::ModelStore(std::unique_ptr<StoreBackend> backend)
    : backend_(backend ? std::move(backend)
                       : std::make_unique<InMemoryBackend>()) {
  std::lock_guard<std::mutex> lock(mu_);
  reindex_locked();
}

std::string ModelStore::key_for(const ContentId& content,
                                const BindingId& binding) {
  // Full content id (the logical model) + a binding prefix long enough that
  // a collision would imply a SHA-256 collision prefix across the fleet.
  return to_hex(BytesView(content.data(), content.size())) + "-" +
         to_hex(BytesView(binding.data(), 8)) + ".gnnblob";
}

void ModelStore::reindex_locked() {
  for (const std::string& key : backend_->list()) {
    // Orphaned temp files from a save() interrupted before its rename are
    // not replicas; never index one.
    if (key.size() >= 4 && key.compare(key.size() - 4, 4, ".tmp") == 0)
      continue;
    const std::optional<Bytes> bytes = backend_->load(key);
    if (!bytes) continue;
    const std::optional<SealedBlobHeader> header = SealedBlob::parse_header(*bytes);
    if (!header) continue;  // untrusted storage: skip, never trust
    index_[header->content_id][header->binding_id] = Replica{key, bytes->size()};
    stats_.bytes_stored += bytes->size();
  }
}

std::optional<ContentId> ModelStore::put(const SealedBlob& blob) {
  // Only wire images get() can deserialize again are indexed, and what it
  // returns later is exactly what was persisted. The header parse makes
  // every structural check deserialize() makes, without copying the body;
  // the serialized buffer itself goes to the backend.
  Bytes bytes = blob.serialize();
  if (!SealedBlob::parse_header(bytes)) return std::nullopt;
  const u64 wire_bytes = bytes.size();

  std::lock_guard<std::mutex> lock(mu_);
  auto& replicas = index_[blob.header.content_id];
  auto it = replicas.find(blob.header.binding_id);
  if (it != replicas.end()) {
    stats_.dedup_hits += 1;
    access_counts_[blob.header.content_id] += 1;
    if (metrics_.dedup_hits) metrics_.dedup_hits->inc();
    return blob.header.content_id;
  }
  const std::string key = key_for(blob.header.content_id, blob.header.binding_id);
  if (!backend_->save(key, std::move(bytes))) {
    if (replicas.empty()) index_.erase(blob.header.content_id);
    return std::nullopt;
  }
  replicas[blob.header.binding_id] = Replica{key, wire_bytes};
  stats_.puts += 1;
  stats_.bytes_stored += wire_bytes;
  access_counts_[blob.header.content_id] += 1;
  if (metrics_.puts) metrics_.puts->inc();
  if (metrics_.stored_bytes)
    metrics_.stored_bytes->set(static_cast<double>(stats_.bytes_stored));
  return blob.header.content_id;
}

std::optional<SealedBlob> ModelStore::get(const ContentId& content,
                                          const BindingId& binding) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto miss = [this]() -> std::optional<SealedBlob> {
    stats_.get_misses += 1;
    if (metrics_.get_misses) metrics_.get_misses->inc();
    return std::nullopt;
  };
  auto it = index_.find(content);
  if (it == index_.end()) return miss();
  auto replica = it->second.find(binding);
  if (replica == it->second.end()) return miss();
  std::optional<Bytes> bytes = backend_->load(replica->second.key);
  if (!bytes) return miss();
  std::optional<SealedBlob> blob = SealedBlob::deserialize(std::move(*bytes));
  if (!blob) return miss();
  stats_.get_hits += 1;
  access_counts_[content] += 1;
  if (metrics_.get_hits) metrics_.get_hits->inc();
  return blob;
}

std::vector<ContentId> ModelStore::hot_contents(std::size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Rank by access count, hottest first; contents never accessed since the
  // store opened (reindexed checkpoints) rank last but are still eligible.
  std::vector<std::pair<u64, ContentId>> ranked;
  ranked.reserve(index_.size());
  for (const auto& [content, replicas] : index_) {
    auto it = access_counts_.find(content);
    ranked.emplace_back(it != access_counts_.end() ? it->second : 0, content);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<ContentId> out;
  out.reserve(std::min(limit, ranked.size()));
  for (const auto& [count, content] : ranked) {
    if (out.size() >= limit) break;
    out.push_back(content);
  }
  return out;
}

bool ModelStore::contains(const ContentId& content,
                          const BindingId& binding) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(content);
  return it != index_.end() && it->second.count(binding) > 0;
}

std::vector<BindingId> ModelStore::bindings(const ContentId& content) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<BindingId> out;
  auto it = index_.find(content);
  if (it == index_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [binding, replica] : it->second) out.push_back(binding);
  return out;
}

std::vector<ContentId> ModelStore::contents() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ContentId> out;
  out.reserve(index_.size());
  for (const auto& [content, replicas] : index_) out.push_back(content);
  return out;
}

bool ModelStore::erase(const ContentId& content, const BindingId& binding) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(content);
  if (it == index_.end()) return false;
  auto replica = it->second.find(binding);
  if (replica == it->second.end()) return false;
  stats_.bytes_stored -= std::min(stats_.bytes_stored, replica->second.bytes);
  if (metrics_.stored_bytes)
    metrics_.stored_bytes->set(static_cast<double>(stats_.bytes_stored));
  backend_->remove(replica->second.key);
  it->second.erase(replica);
  if (it->second.empty()) {
    access_counts_.erase(content);
    index_.erase(it);
  }
  return true;
}

std::size_t ModelStore::replica_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [content, replicas] : index_) n += replicas.size();
  return n;
}

StoreStats ModelStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ModelStore::bind_metrics(obs::MetricRegistry& registry) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.puts = &registry.counter("store_puts_total");
  metrics_.dedup_hits = &registry.counter("store_dedup_hits_total");
  metrics_.get_hits = &registry.counter("store_get_hits_total");
  metrics_.get_misses = &registry.counter("store_get_misses_total");
  metrics_.stored_bytes = &registry.gauge("store_stored_bytes");
  // Re-opened stores (directory backend) start with indexed bytes.
  metrics_.stored_bytes->set(static_cast<double>(stats_.bytes_stored));
}

}  // namespace guardnn::store
