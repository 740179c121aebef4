// Sharded, byte-bounded LRU cache of canonical rebalancing solutions
// (docs/caching.md).
//
// Keys are 128-bit fingerprints over the canonical cache key bytes
// (cache/canonical.h); values are RebalanceResults in CANONICAL labels —
// callers map them back through their own recorded permutation. Every hit
// re-verifies the stored key bytes, so a fingerprint collision degrades to
// a miss instead of serving a wrong or mis-permuted plan.
//
// The cache is a memo that never blocks: it only decides whether a solve
// can be skipped, never what a reply is.
//
// Concurrency: N mutex-guarded shards (fingerprint.hi selects the shard);
// a probe touches exactly one shard mutex and never waits. The first
// caller to miss a key becomes its leader and publishes the result.
// Identical requests that miss while the leader is still solving do not
// wait for it: each solves the key again, uncached, and gets the same
// bytes because solves are deterministic. So identical requests racing in
// from many connections can each pay a solve until the first publish
// lands; later ones hit.
//
// Capacity: max_bytes is divided evenly across shards; each shard evicts
// from its own LRU tail while over budget. Accounted bytes per entry =
// key bytes + assignment bytes + a fixed bookkeeping estimate, exported
// live as the cache.bytes / cache.entries gauges.
//
// Admission: a doorkeeper (admit) lets a canonical form into the LRU only
// on its second sighting, so one-off instances never pay the key, probe,
// publish and eviction costs, nor hold memory. It has two parts. Recent
// first sightings sit in a lossy set-associative table of content hashes
// (8-way buckets, one 8-byte way per kBytesPerDoorkeeperWay of budget,
// first-in first-out per bucket, relaxed atomics): a form is forgotten
// once 8 later first sightings land in its bucket, which costs at most
// one extra solve. Stored forms are found through an exact index of the
// content hashes of the entries in the LRU (publish records them, eviction
// drops them), so admission never blocks a lookup of a stored form.
// Either part only decides admission: a collision can cost an extra solve,
// never a wrong reply.
//
// Metrics (obs registry): cache.hits, cache.misses, cache.evictions,
// cache.inserts, cache.single_flight_bypass, cache.admissions_deferred
// counters; cache.bytes, cache.entries gauges.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/canonical.h"
#include "core/assignment.h"
#include "obs/metrics.h"

namespace lrb::cache {

struct CacheOptions {
  /// Total byte budget across all shards. Must be > 0 (a zero-byte cache
  /// is expressed by not constructing one).
  std::size_t max_bytes = std::size_t{64} << 20;
  /// Shard count; rounded up to a power of two, at least 1.
  std::size_t shards = 8;
  /// Metrics sink for the cache.* counters/gauges.
  obs::Registry* metrics = &obs::Registry::global();
};

class SolutionCache {
 public:
  explicit SolutionCache(CacheOptions options = {});

  SolutionCache(const SolutionCache&) = delete;
  SolutionCache& operator=(const SolutionCache&) = delete;

  /// Outcome of a probe.
  struct Probe {
    /// True: `result` holds the stored canonical solution.
    bool hit = false;
    /// True: this caller is the leader for the key and MUST call publish()
    /// (or cancel() on failure) exactly once. False with !hit: another
    /// caller is solving the key (or, pathologically, a colliding key), so
    /// solve without publishing.
    bool leader = false;
    RebalanceResult result;
  };

  /// The one probe mode: never block. The type and the lookup_or_begin
  /// parameter stay because e2ebench/driver/replay.cpp passes kNoBlock.
  enum class WaitMode { kNoBlock };

  /// Probe: a hit, leader duty, or a plain miss when the key is already in
  /// flight. Never blocks.
  [[nodiscard]] Probe lookup_or_begin(const Fingerprint& fp,
                                      std::string_view key,
                                      WaitMode wait = WaitMode::kNoBlock);

  /// Inserts `result` into the LRU store (evicting while over budget) and
  /// ends the key's leadership, if any. With the form's `content_hash`
  /// (cache::content_hash), admit() passes the form for as long as the
  /// entry stays in the LRU.
  void publish(const Fingerprint& fp, std::string_view key,
               const RebalanceResult& result,
               std::optional<std::uint64_t> content_hash = std::nullopt);

  /// Abandons leadership without a result, so a later probe can lead.
  void cancel(const Fingerprint& fp, std::string_view key);

  /// Admission: true iff `content_hash` (cache::content_hash) belongs to a
  /// form stored in the LRU or to a recent first sighting, i.e. the caller
  /// should go through lookup_or_begin. Otherwise records the sighting in
  /// the bucket its low-order bits select, counts cache.admissions_deferred
  /// and returns false: the caller solves without touching the LRU.
  [[nodiscard]] bool admit(std::uint64_t content_hash);

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  /// Live totals across shards (exact; takes every shard mutex).
  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] std::size_t entries() const;

  /// Accounted footprint of one entry (exposed for the accounting tests).
  [[nodiscard]] static std::size_t entry_bytes(std::size_t key_size,
                                               std::size_t num_jobs);

 private:
  struct Entry {
    Fingerprint fp;
    std::string key;
    RebalanceResult result;
    std::size_t bytes = 0;
    std::optional<std::uint64_t> content_hash;  ///< set iff in resident_
  };
  using LruList = std::list<Entry>;

  struct Shard {
    std::mutex mutex;
    LruList lru;  ///< front = most recently used
    std::unordered_map<Fingerprint, LruList::iterator, FingerprintHash> map;
    /// Keys a leader is solving, by fingerprint.
    std::unordered_map<Fingerprint, std::string, FingerprintHash> inflight;
    std::size_t bytes = 0;
  };

  /// Content hashes of the entries in the LRU, with multiplicity (distinct
  /// keys may share a hash). Locked after a Shard mutex, never before.
  struct ResidentShard {
    std::mutex mutex;
    std::unordered_map<std::uint64_t, std::uint32_t> count;
  };

  static constexpr std::size_t kDoorkeeperWays = 8;
  static constexpr std::size_t kBytesPerDoorkeeperWay = 512;
  static constexpr std::size_t kMinDoorkeeperBuckets = 128;

  Shard& shard_for(const Fingerprint& fp) noexcept {
    return *shards_[fp.hi & shard_mask_];
  }
  ResidentShard& resident_for(std::uint64_t content_hash) noexcept {
    return *resident_[(content_hash >> 32) & shard_mask_];
  }
  [[nodiscard]] bool resident(std::uint64_t content_hash);
  /// Unlinks `it` from the shard's LRU, map, byte count and resident index.
  void erase_locked(Shard& shard, LruList::iterator it);
  /// Drops `key`'s in-flight marker, if it holds one.
  void end_flight_locked(Shard& shard, const Fingerprint& fp,
                         std::string_view key);
  void insert_locked(Shard& shard, const Fingerprint& fp,
                     std::string_view key, const RebalanceResult& result,
                     std::optional<std::uint64_t> content_hash);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_mask_ = 0;
  std::size_t shard_capacity_ = 0;
  std::vector<std::unique_ptr<ResidentShard>> resident_;
  /// Bucket b holds ways [b * kDoorkeeperWays, (b + 1) * kDoorkeeperWays),
  /// newest first; 0 marks an empty way. calloc'd, so its pages cost
  /// resident memory only once a sighting lands in them; every access goes
  /// through std::atomic_ref.
  std::unique_ptr<std::uint64_t[], void (*)(void*)> doorkeeper_{nullptr,
                                                               &std::free};
  std::size_t bucket_mask_ = 0;

  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Counter& inserts_;
  obs::Counter& single_flight_bypass_;
  obs::Counter& admissions_deferred_;
  obs::Gauge& bytes_gauge_;
  obs::Gauge& entries_gauge_;
};

}  // namespace lrb::cache
