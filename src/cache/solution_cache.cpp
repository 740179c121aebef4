#include "cache/solution_cache.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <iterator>
#include <new>

namespace lrb::cache {

SolutionCache::SolutionCache(CacheOptions options)
    : hits_(options.metrics->counter("cache.hits")),
      misses_(options.metrics->counter("cache.misses")),
      evictions_(options.metrics->counter("cache.evictions")),
      inserts_(options.metrics->counter("cache.inserts")),
      single_flight_bypass_(
          options.metrics->counter("cache.single_flight_bypass")),
      admissions_deferred_(
          options.metrics->counter("cache.admissions_deferred")),
      bytes_gauge_(options.metrics->gauge("cache.bytes")),
      entries_gauge_(options.metrics->gauge("cache.entries")) {
  const std::size_t shards =
      std::bit_ceil(std::max<std::size_t>(1, options.shards));
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_mask_ = shards - 1;
  shard_capacity_ = std::max<std::size_t>(1, options.max_bytes / shards);
  resident_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    resident_.push_back(std::make_unique<ResidentShard>());
  }
  const std::size_t buckets = std::bit_ceil(
      std::max(kMinDoorkeeperBuckets,
               options.max_bytes / (kBytesPerDoorkeeperWay * kDoorkeeperWays)));
  doorkeeper_.reset(static_cast<std::uint64_t*>(
      std::calloc(buckets * kDoorkeeperWays, sizeof(std::uint64_t))));
  if (doorkeeper_ == nullptr) throw std::bad_alloc();
  bucket_mask_ = buckets - 1;
}

bool SolutionCache::resident(std::uint64_t content_hash) {
  ResidentShard& index = resident_for(content_hash);
  std::lock_guard lock(index.mutex);
  return index.count.contains(content_hash);
}

bool SolutionCache::admit(std::uint64_t content_hash) {
  // Empty ways hold 0, so tags are forced odd. Every hash in a bucket has
  // the same low bits, so the forced bit merges nothing within it.
  const std::uint64_t tag = content_hash | 1;
  std::uint64_t* bucket =
      &doorkeeper_[(content_hash & bucket_mask_) * kDoorkeeperWays];
  const auto way = [bucket](std::size_t w) {
    return std::atomic_ref<std::uint64_t>(bucket[w]);
  };
  std::uint64_t ways[kDoorkeeperWays];
  for (std::size_t w = 0; w < kDoorkeeperWays; ++w) {
    ways[w] = way(w).load(std::memory_order_relaxed);
    if (ways[w] == tag) return true;
  }
  if (resident(content_hash)) return true;
  // First in, first out: the newest sighting takes way 0 and the oldest
  // drops off the end. Racing writers may lose or duplicate a tag, which
  // only costs an extra solve.
  for (std::size_t w = kDoorkeeperWays - 1; w > 0; --w) {
    way(w).store(ways[w - 1], std::memory_order_relaxed);
  }
  way(0).store(tag, std::memory_order_relaxed);
  admissions_deferred_.add(1);
  return false;
}

std::size_t SolutionCache::entry_bytes(std::size_t key_size,
                                       std::size_t num_jobs) {
  // Key bytes + assignment payload + a flat estimate for the list node,
  // hash slot and Entry header. The estimate keeps accounting deterministic
  // across allocators; what matters is that it is an upper-ish bound that
  // makes max_bytes a real cap on resident growth.
  constexpr std::size_t kBookkeeping = 128;
  return key_size + num_jobs * sizeof(ProcId) + kBookkeeping;
}

void SolutionCache::erase_locked(Shard& shard, LruList::iterator it) {
  if (it->content_hash.has_value()) {
    ResidentShard& index = resident_for(*it->content_hash);
    std::lock_guard lock(index.mutex);
    const auto found = index.count.find(*it->content_hash);
    assert(found != index.count.end());
    if (--found->second == 0) index.count.erase(found);
  }
  shard.bytes -= it->bytes;
  bytes_gauge_.add(-static_cast<std::int64_t>(it->bytes));
  entries_gauge_.add(-1);
  shard.map.erase(it->fp);
  shard.lru.erase(it);
}

void SolutionCache::insert_locked(Shard& shard, const Fingerprint& fp,
                                  std::string_view key,
                                  const RebalanceResult& result,
                                  std::optional<std::uint64_t> content_hash) {
  const std::size_t cost = entry_bytes(key.size(), result.assignment.size());
  if (cost > shard_capacity_) return;  // would evict everything and not fit

  if (const auto it = shard.map.find(fp); it != shard.map.end()) {
    // Refresh (or, under fingerprint collision, overwrite) the entry.
    erase_locked(shard, it->second);
  }

  while (shard.bytes + cost > shard_capacity_ && !shard.lru.empty()) {
    evictions_.add(1);
    erase_locked(shard, std::prev(shard.lru.end()));
  }

  if (content_hash.has_value()) {
    ResidentShard& index = resident_for(*content_hash);
    std::lock_guard lock(index.mutex);
    ++index.count[*content_hash];
  }
  Entry entry;
  entry.fp = fp;
  entry.key.assign(key.data(), key.size());
  entry.result = result;
  entry.bytes = cost;
  entry.content_hash = content_hash;
  shard.lru.push_front(std::move(entry));
  shard.map[fp] = shard.lru.begin();
  shard.bytes += cost;
  bytes_gauge_.add(static_cast<std::int64_t>(cost));
  entries_gauge_.add(1);
  inserts_.add(1);
}

SolutionCache::Probe SolutionCache::lookup_or_begin(const Fingerprint& fp,
                                                    std::string_view key,
                                                    WaitMode /*wait*/) {
  Shard& shard = shard_for(fp);
  std::lock_guard lock(shard.mutex);
  Probe probe;
  if (const auto it = shard.map.find(fp); it != shard.map.end()) {
    if (it->second->key == key) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      hits_.add(1);
      probe.hit = true;
      probe.result = it->second->result;
      return probe;
    }
    // Fingerprint collision with a different key: miss; the leader's
    // publish overwrites the colliding entry.
  }
  misses_.add(1);
  const auto [flight, inserted] =
      shard.inflight.try_emplace(fp, key.data(), key.size());
  if (inserted) {
    probe.leader = true;
  } else if (flight->second == key) {
    // The same key is being solved elsewhere: solve it again here rather
    // than wait. A colliding in-flight key is not ours to wait on either.
    single_flight_bypass_.add(1);
  }
  return probe;
}

void SolutionCache::publish(const Fingerprint& fp, std::string_view key,
                            const RebalanceResult& result,
                            std::optional<std::uint64_t> content_hash) {
  Shard& shard = shard_for(fp);
  std::lock_guard lock(shard.mutex);
  insert_locked(shard, fp, key, result, content_hash);
  end_flight_locked(shard, fp, key);
}

void SolutionCache::cancel(const Fingerprint& fp, std::string_view key) {
  Shard& shard = shard_for(fp);
  std::lock_guard lock(shard.mutex);
  end_flight_locked(shard, fp, key);
}

void SolutionCache::end_flight_locked(Shard& shard, const Fingerprint& fp,
                                      std::string_view key) {
  const auto flight = shard.inflight.find(fp);
  if (flight != shard.inflight.end() && flight->second == key) {
    shard.inflight.erase(flight);
  }
}

std::size_t SolutionCache::bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    total += shard->bytes;
  }
  return total;
}

std::size_t SolutionCache::entries() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    total += shard->map.size();
  }
  return total;
}

}  // namespace lrb::cache
