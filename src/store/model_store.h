// Host-side content-addressed store for sealed model blobs.
//
// The store is part of the *untrusted* host: it only ever holds ciphertext
// (SealedBlob wire bytes), so it can sit on any storage — RAM, local disk, a
// blob service — without weakening the threat model. Keys are
// (content id, binding id): one logical model (content id, the SHA-256 of
// the plaintext package) may exist as several device-bound replicas, one per
// accelerator it has been provisioned to. Deduplication is exact: putting a
// blob whose (content, binding) pair already exists is a no-op.
//
// Two backends:
//   * InMemoryBackend — per-process map, the serving default;
//   * DirectoryBackend — one file per replica under a directory, loaded
//     back on open, so sealed models and training checkpoints survive a
//     host restart.
//
// Thread safety: ModelStore serializes all operations on an internal mutex —
// the serving layer puts/gets replicas from multiple worker threads.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "store/sealed_blob.h"

namespace guardnn::store {

/// Storage backend: a flat key → bytes namespace. Keys are printable-ASCII
/// file-name-safe strings the store derives from (content, binding) ids.
/// save() takes the wire image by value, so a backend that keeps it in
/// memory stores the caller's buffer instead of a copy.
class StoreBackend {
 public:
  virtual ~StoreBackend() = default;
  virtual bool save(const std::string& key, Bytes bytes) = 0;
  virtual std::optional<Bytes> load(const std::string& key) const = 0;
  virtual std::vector<std::string> list() const = 0;
  virtual bool remove(const std::string& key) = 0;
};

class InMemoryBackend final : public StoreBackend {
 public:
  bool save(const std::string& key, Bytes bytes) override;
  std::optional<Bytes> load(const std::string& key) const override;
  std::vector<std::string> list() const override;
  bool remove(const std::string& key) override;

 private:
  std::map<std::string, Bytes> entries_;
};

/// One file per replica: `<dir>/<key>` with key =
/// "<hex content id>-<hex binding prefix>.gnnblob". The directory is created
/// on demand; existing files are indexed when a ModelStore opens over it.
class DirectoryBackend final : public StoreBackend {
 public:
  explicit DirectoryBackend(std::string directory);

  /// Crash-durable write: `<key>.tmp` → write → fsync → rename over the
  /// final name → fsync the directory. Returns false (and leaves no final
  /// file behind) on any I/O failure, so a replica is only ever visible —
  /// and only ever indexed — once its bytes are fully on disk. A crash can
  /// at worst leave a `*.tmp` orphan, which reindexing ignores.
  bool save(const std::string& key, Bytes bytes) override;
  std::optional<Bytes> load(const std::string& key) const override;
  std::vector<std::string> list() const override;
  bool remove(const std::string& key) override;

  const std::string& directory() const { return directory_; }

 private:
  std::string directory_;
};

struct StoreStats {
  u64 puts = 0;        ///< put() calls that stored a new replica.
  u64 dedup_hits = 0;  ///< put() calls answered by an existing replica.
  u64 get_hits = 0;    ///< get() calls that returned a replica.
  u64 get_misses = 0;  ///< get() calls that found nothing (or a bad blob).
  u64 bytes_stored = 0;
};

class ModelStore {
 public:
  /// nullptr backend → fresh InMemoryBackend. A backend with existing
  /// entries (DirectoryBackend over a checkpoint directory) is re-indexed:
  /// unparseable entries are skipped, not trusted.
  explicit ModelStore(std::unique_ptr<StoreBackend> backend = nullptr);

  /// Stores a replica, deduplicated by (content id, binding id). Returns the
  /// content id, or nullopt when the blob's wire image fails deserialize()'s
  /// structural checks or the backend write fails (directory backend: the
  /// write is fsync'd before this returns, so a success is crash-durable).
  /// Thread-safe.
  std::optional<ContentId> put(const SealedBlob& blob);

  /// The replica of `content` bound to `binding`, if present.
  std::optional<SealedBlob> get(const ContentId& content,
                                const BindingId& binding) const;

  bool contains(const ContentId& content, const BindingId& binding) const;

  /// Every device binding that holds a replica of `content`.
  std::vector<BindingId> bindings(const ContentId& content) const;

  /// Every distinct model in the store.
  std::vector<ContentId> contents() const;

  /// Up to `limit` stored models ordered by access count (get() hits and
  /// put() touches), hottest first: what a freshly promoted hot spare
  /// pre-warms with.
  std::vector<ContentId> hot_contents(std::size_t limit) const;

  /// Drops one replica. Returns false when it was not present.
  bool erase(const ContentId& content, const BindingId& binding);

  std::size_t replica_count() const;
  StoreStats stats() const;

  /// Mirrors this store's counters into `registry` (store_puts_total,
  /// store_dedup_hits_total, store_get_hits_total, store_get_misses_total
  /// counters and a store_stored_bytes gauge), incremented at the same
  /// points as StoreStats so the exported numbers can never drift from
  /// stats(). Call before concurrent use; the registry must outlive the
  /// store.
  void bind_metrics(obs::MetricRegistry& registry);

 private:
  static std::string key_for(const ContentId& content, const BindingId& binding);
  void reindex_locked();

  /// One stored replica: its backend key and wire size (what erase()
  /// returns to bytes_stored without reloading the blob).
  struct Replica {
    std::string key;
    u64 bytes = 0;
  };

  mutable std::mutex mu_;
  std::unique_ptr<StoreBackend> backend_;
  /// (content → binding → replica), rebuilt from the backend on open.
  std::map<ContentId, std::map<BindingId, Replica>> index_;
  /// Mutable: get() is logically const but counts its hit/miss.
  mutable StoreStats stats_;

  /// Per-content access counts that rank hot_contents() (mutable: get()
  /// counts). Entries follow index_ lifetimes.
  mutable std::map<ContentId, u64> access_counts_;

  struct BoundMetrics {
    obs::Counter* puts = nullptr;
    obs::Counter* dedup_hits = nullptr;
    obs::Counter* get_hits = nullptr;
    obs::Counter* get_misses = nullptr;
    obs::Gauge* stored_bytes = nullptr;
  };
  BoundMetrics metrics_;
};

}  // namespace guardnn::store
